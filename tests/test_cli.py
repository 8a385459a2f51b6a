import json
import os
import subprocess
import sys

import pytest

from dimeralg.cli import main
from dimeralg.contraction import contract
from dimeralg.fixtures import bigon_inserted_c3, fixture
from dimeralg.quiver import quiver_to_json

RUN = [sys.executable, "-m", "dimeralg.cli"]


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def test_fixtures_list():
    res = run_cli(["fixtures", "--list"])
    assert res.returncode == 0
    names = res.stdout.split()
    assert len(names) == 5


def test_validate_fixture_ok():
    res = run_cli(["validate", "fixture:fig_deformation"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["ok"] is True


def test_malformed_json_is_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["validate", str(bad)])
    assert res.returncode == 3
    missing = tmp_path / "missing.json"
    res = run_cli(["validate", str(missing)])
    assert res.returncode == 3


def test_unknown_fixture_is_exit_3():
    res = run_cli(["validate", "fixture:fig_nope"])
    assert res.returncode == 3


def test_normality_on_nested_two():
    res = run_cli(["normality", "fixture:fig_nested(2)", "--degree-bound", "6"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["normal"] == "no"
    assert payload["results"]["minimal_sigma_power"] == 2


def test_eq_exit_codes():
    res = run_cli(["eq", "fixture:fig_deformation", "--p", "4,6,6,1", "--q", "5,6,6,0"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["verdict"] == "not_equal"


def test_matchings_output_shape():
    res = run_cli(["matchings", "fixture:fig_deformation", "--simple-only"])
    payload = json.loads(res.stdout)
    assert payload["results"]["count"] == 3
    assert all(isinstance(m, list) for m in payload["results"]["matchings"])


def test_dump_roundtrips(tmp_path):
    res = run_cli(["fixtures", "--dump", "fig_deformation"])
    assert res.returncode == 0
    path = tmp_path / "q.json"
    path.write_text(res.stdout)
    res2 = run_cli(["validate", str(path)])
    assert res2.returncode == 0


def test_outputs_are_byte_deterministic():
    commands = [
        ["matchings", "fixture:fig_deformation"],
        ["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "5"],
        ["normality", "fixture:fig_nested(1)", "--degree-bound", "6"],
        ["cycle-algebra", "fixture:fig_iso_R"],
    ]
    for cmd in commands:
        outs = {run_cli(cmd).stdout for _ in range(3)}
        assert len(outs) == 1, cmd


def test_in_process_entry_point(capsys):
    code = main(["fixtures", "--list"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig_deformation" in out


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    # a reader that stops early (``dimeralg ... | head -3``) closes the pipe
    with open(tmp_path / "sink", "w") as sink:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["--max-states", "0", "validate", "fixture:fig_deformation"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_closed_pipe_keeps_exit_code():
    read, write = os.pipe()
    os.close(read)  # nobody reads: the first write fails with EPIPE
    # stdout buffered, as by default, so the output is written by a flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        res = subprocess.run(RUN + ["validate", "fixture:fig_deformation"],
                             stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert res.returncode == 0
    assert res.stderr == ""


def test_tau_renders_monomial():
    res = run_cli(["tau", "fixture:fig_iso_R", "--path", "4,5,6,13,15,16"])
    payload = json.loads(res.stdout)
    assert payload["results"]["rendered"] == "x*y*z^2"


def test_center_refusal_via_cli():
    res = run_cli(["center", "fixture:fig_iso_R", "--image", "1,1,2"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["verdict"] == "no"
    assert payload["results"]["candidate_counts"]["2"] == 6
    assert payload["results"]["class_counts"]["2"] == 5


def test_nilradical_builtin_candidate():
    res = run_cli(["nilradical", "fixture:fig_noncancellative_central"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"] == {
        "central": "equal",
        "z_squared_zero": "equal",
        "psi_z_zero": "equal",
        "consistent": "equal",
    }


def test_fixture_check_command():
    res = run_cli(["fixtures", "--check", "fig_hsb_ii"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["ok"] is True


def test_undecided_search_is_exit_2():
    # a one-state budget cannot decide equality of the two unit cycles
    res = run_cli([
        "eq", "fixture:fig_deformation", "--p", "0,2,5", "--q", "1,3,4,6",
        "--max-states", "1",
    ])
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["results"]["verdict"] == "unknown"


def test_text_rendering_mirrors_json():
    js = run_cli(["matchings", "fixture:fig_deformation"])
    tx = run_cli(["matchings", "fixture:fig_deformation", "--text"])
    payload = json.loads(js.stdout)
    assert str(payload["results"]["count"]) in tx.stdout


def test_homotopy_center_contains_flag():
    res = run_cli([
        "homotopy-center", "fixture:fig_deformation",
        "--degree-bound", "4", "--contains", "1,1,1",
    ])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["results"]["contains"]["verdict"] == "yes"


def test_bad_filter_and_bad_ints_are_exit_3():
    bad = [
        ["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "3",
         "--filter", "homology:1"],
        ["eq", "fixture:fig_deformation", "--p", "a,b", "--q", "0"],
        ["center", "fixture:fig_deformation", "--image", "x,y"],
    ]
    for cmd in bad:
        assert run_cli(cmd).returncode == 3, cmd


@pytest.mark.parametrize("args, option", [
    (["homotopy-center", "fixture:fig_nested(2)"], "--degree-bound"),
    (["normality", "fixture:fig_nested(2)"], "--n-max"),
    (["cycles", "fixture:fig_deformation", "--vertex", "0"], "--max-len"),
    (["eq", "fixture:fig_deformation", "--p", "4,6,6,1", "--q", "5,6,6,0"], "--max-states"),
    (["eq", "fixture:fig_deformation", "--p", "4,6,6,1", "--q", "5,6,6,0"],
     "--max-word-length"),
    (["matchings", "fixture:fig_deformation"], "--cap"),
], ids=["degree-bound", "n-max", "max-len", "max-states", "max-word-length", "cap"])
def test_negative_count_option_is_exit_3(args, option, capsys):
    assert main(args + [option, "-1"]) == 3
    assert f"argument {option}: must be at least 0, got -1" in capsys.readouterr().err
    # zero stays legal (for --max-word-length it means "derive")
    assert main(args + [option, "0"]) != 3


NILRADICAL_CANDIDATE = ["nilradical", "fixture:fig_deformation", "--candidate"]


def _bad_arrow_tail(doc, value):
    doc["arrows"][0]["tail"] = value


def _bad_face(doc, value):
    doc["faces"][0] = value


@pytest.mark.parametrize("mutate, args, code", [
    (lambda d: _bad_arrow_tail(d, "a"), ["validate"], 3),
    (lambda d: _bad_arrow_tail(d, True), ["validate"], 3),
    (lambda d: _bad_face(d, ["x"]), ["validate"], 3),
    (None, ["cycles", "fixture:fig_iso_R", "--vertex", "99", "--max-len", "3"], 3),
    (None, ["cycles", "fixture:fig_iso_R", "--vertex", "0", "--max-len", "40"], 2),
    (None, ["matchings", "fixture:fig_iso_R", "--cap", "3"], 2),
    (None, ["normality", "fixture:fig_nested(2)", "--degree-bound", "5"], 2),
    # a document instead of a mutation is a nilradical candidate file
    ({"0": [[1, 1, [99]]]}, NILRADICAL_CANDIDATE, 3),
    ({"0": [[1, 0, [0]]]}, NILRADICAL_CANDIDATE, 3),
    ([1, 2], NILRADICAL_CANDIDATE, 3),
    # a 2-cycle bigon_reduce cannot remove: the quiver is searched as given
    (quiver_to_json(bigon_inserted_c3()), ["noncancellative", "--max-states", "2000"], 2),
], ids=["tail-string", "tail-bool", "face-string", "vertex-range", "cycle-budget",
        "matching-cap", "normality-below-witness", "candidate-arrow-range",
        "candidate-zero-denominator", "candidate-not-object", "irremovable-2cycle"])
def test_exit_code_contract(tmp_path, mutate, args, code):
    if mutate is not None:
        if callable(mutate):
            doc = quiver_to_json(fixture("fig_deformation").quiver)
            mutate(doc)
        else:
            doc = mutate
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        args = args + [str(path)]
    res = run_cli(args)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr


def test_center_search_budget_is_exit_2(monkeypatch, capsys):
    # a huge degree bound spends the realizability state budget; a small
    # budget shows the same exit without the memory a full one takes
    from dimeralg import rewriting

    monkeypatch.setattr(rewriting, "MAX_STATES", 10_000)
    for cmd in ("homotopy-center", "normality"):
        assert main([cmd, "fixture:fig_deformation", "--degree-bound", "1000000"]) == 2
        assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nested_check_cyclic_is_decided(n, capsys):
    # the target search runs on the 2-cycle-free quiver and completes
    assert main(["contract", f"fixture:fig_nested({n})", "--check-cyclic"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["cyclic_up_to_bound"] is True
    assert results["cancellative_target"] is True


def test_noncancellative_reports_removed_2cycles(tmp_path, capsys):
    fx = fixture("fig_iso_R")
    path = tmp_path / "target.json"
    path.write_text(json.dumps(quiver_to_json(contract(fx.quiver, fx.contraction_arrows).target)))
    assert main(["noncancellative", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    # the counts are read against the quiver searched: two 2-cycles fewer
    assert results["removed_2cycles"] == 2
    assert (results["found"], results["search_exhausted"]) == (False, False)
    assert (results["cycles_considered"], results["pairs_tested"]) == (1092, 1006)
