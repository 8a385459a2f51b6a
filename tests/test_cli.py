import hashlib
import json
import os
import subprocess
import sys

import pytest

from dimeralg.acceptance import distinguished_candidate
from dimeralg.center import verify_central
from dimeralg.cli import _candidate_from_json, build_parser, main
from dimeralg.contraction import contract
from dimeralg.fixtures import bigon_inserted_c3, fixture
from dimeralg.matchings import DEFAULT_MATCHING_CAP
from dimeralg.normality import DEFAULT_DEGREE_BOUND, DEFAULT_N_MAX
from dimeralg.quiver import PathWord, quiver_to_json
from dimeralg.rewriting import DEFAULT_BOUNDS, RewriteStep, RewriteSystem, replay_witness

from conftest import FIXTURES

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
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    res = run_cli(["validate", str(listed)])
    assert res.returncode == 3
    assert res.stderr == f"error: {listed}: quiver document must be an object\n"


@pytest.mark.parametrize("words, message", [
    (["--p", "0,7", "--q", "0,2"], "unknown arrow id 7"),
    (["--p", "0,2", "--q", "0,7"], "unknown arrow id 7"),
    (["--p", "0,4", "--q", "0,2"], "word not composable at arrow 4"),
    (["--p", "0,2", "--q", "0,4"], "word not composable at arrow 4"),
    (["--p", "0,4", "--q", "0,7"], "word not composable at arrow 4"),
])
def test_eq_malformed_word_is_exit_3(words, message):
    # a word starts where its first arrow does, so its base is in range;
    # the later arrows are checked by paths_equal, p first, then q
    res = run_cli(["eq", "fixture:fig_deformation", *words])
    assert (res.returncode, res.stdout, res.stderr) == (3, "", f"error: {message}\n")


def test_validate_repeated_arrow_is_exit_1(tmp_path):
    # arrow 0 twice in one face of c3's loops
    data = {"vertices": 1,
            "arrows": [{"id": k, "tail": 0, "head": 0, "homology": h}
                       for k, h in enumerate([[1, 0], [0, 1], [-1, -1]])],
            "faces": [[0, 1, 2, 0], [1, 2]]}
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(data))
    res = run_cli(["validate", str(path)])
    assert res.returncode == 1
    violations = json.loads(res.stdout)["results"]["violations"]
    assert {"code": "arrow_face_count", "message": "arrow 0 repeats in face 0",
            "where": "face 0"} in violations


def test_matchings_cap_default_is_the_library_default():
    args = build_parser().parse_args(["matchings", "fixture:fig_deformation"])
    assert args.cap == DEFAULT_MATCHING_CAP
    args = build_parser().parse_args(["normality", "fixture:fig_deformation"])
    assert (args.max_word_length, args.max_states) == (
        DEFAULT_BOUNDS.max_word_length, DEFAULT_BOUNDS.max_states)
    assert (args.degree_bound, args.n_max) == (DEFAULT_DEGREE_BOUND, DEFAULT_N_MAX)


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


def test_eq_witness_replays(capsys):
    argv = ["eq", "fixture:fig_deformation", "--p", "4,6,6,1,2,4", "--q", "5,6,6,0,2,4"]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["verdict"], len(results["witness"])) == ("equal", 5)
    steps = [RewriteStep(s["pos"], s["arrow"], tuple(s["old"]), tuple(s["new"]))
             for s in results["witness"]]
    q = fixture("fig_deformation").quiver
    base = q.arrow(4).tail
    trail = replay_witness(RewriteSystem(q), PathWord(base, (4, 6, 6, 1, 2, 4)), steps)
    assert trail[-1] == PathWord(base, (5, 6, 6, 0, 2, 4))
    # a word cap below the witness's longest word leaves the pair undecided
    assert main(argv + ["--max-word-length", "6"]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["verdict"], results["reason"]) == ("unknown", "word_length")


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


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # main reuses one parser per process; a refused argv and one with
    # other option values before a run leave that run's output as a fresh
    # process prints it
    argv = ["normality", "fixture:fig_deformation"]
    fresh = run_cli(argv)
    assert main(["--max-states", "7", "normality", "fixture:fig_deformation",
                 "--degree-bound", "x"]) == 3
    assert main(["--text", "--degree-bound", "3", *argv, "--n-max", "2"]) == 0
    capsys.readouterr()
    assert main(argv) == fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    # a reader that stops early (``dimeralg ... | head -3``) closes the pipe;
    # raw text goes through the same output path as a report
    with open(tmp_path / "sink", "w") as sink:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        for argv in (["--max-states", "0", "validate", "fixture:fig_deformation"],
                     ["fixtures", "--dump", "fig_nested(200)"],
                     ["fixtures", "--list"]):
            assert main(argv) == 0, argv
            assert "Traceback" not in capsys.readouterr().err


def test_closed_pipe_keeps_exit_code():
    # the dump is larger than the pipe buffer, so its write fails inside
    # the print rather than in the flush
    for argv in (["validate", "fixture:fig_deformation"],
                 ["fixtures", "--dump", "fig_nested(200)"]):
        read, write = os.pipe()
        os.close(read)  # nobody reads: the first write fails with EPIPE
        # stdout buffered, as by default, so the output is written by a flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            res = subprocess.run(RUN + argv,
                                 stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert res.returncode == 0, argv
        assert res.stderr == "", argv


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


def test_nilradical_cut_off_is_exit_2(capsys):
    # two states decide no commutator: every verdict is unknown, not a no
    assert main(["--max-states", "2", "nilradical", "fixture:fig_noncancellative_central"]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    assert set(results.values()) == {"unknown"}


def test_nilradical_without_builtin_candidate_names_the_option(capsys):
    assert main(["nilradical", "fixture:fig_deformation"]) == 3
    err = capsys.readouterr().err
    assert "fixture fig_deformation has no built-in candidate" in err
    assert "--candidate FILE" in err


NILRADICAL_FILE = ["nilradical", "fixture:fig_noncancellative_central", "--candidate"]


def test_nilradical_candidate_file_matches_builtin(tmp_path, capsys):
    z = distinguished_candidate(fixture("fig_noncancellative_central"))
    doc = {str(v): [[t.numerator, t.denominator, list(w.arrows)] for t, w in terms]
           for v, terms in z.components.items()}
    assert main(NILRADICAL_FILE[:-1]) == 0
    builtin = json.loads(capsys.readouterr().out)["results"]
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    assert main(NILRADICAL_FILE + [str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == builtin
    # zero is central and lies in nil Z
    path.write_text("{}")
    assert main(NILRADICAL_FILE + [str(path)]) == 0
    assert set(json.loads(capsys.readouterr().out)["results"].values()) == {"equal"}


@pytest.mark.parametrize("text", [
    "[[1, 1, [0]]]",
    '{"0": [[1, 0, [6]]]}',
    '{"0": [[true, 1, [6]]]}',
    '{"0": [[1, 1, [7]]]}',
    '{"0": [[1, 1, [0]]]}',  # arrow 0 runs from 0 to 2: no cycle at 0
    '{"x": [[1, 1, [6]]]}',
    "{",
    None,  # no file at the path
    "<directory>",
], ids=["list", "zero-denominator", "bool-numerator", "unknown-arrow", "not-a-cycle",
        "vertex-not-int", "invalid-json", "missing-path", "directory"])
def test_nilradical_bad_candidate_file_is_exit_3(tmp_path, capsys, text):
    path = tmp_path / "z.json"
    if text == "<directory>":
        path = tmp_path
    elif text is not None:
        path.write_text(text)
    assert main(NILRADICAL_FILE + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", FIXTURES)
def test_center_of_zero_monomial_is_the_unit(name, capsys):
    fx = fixture(name)
    c = contract(fx.quiver, fx.contraction_arrows)
    zero = ",".join("0" * len(c.catalog))
    assert main(["center", f"fixture:{name}", "--image", zero]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verdict"] == "yes"
    witness = _candidate_from_json(fx.quiver, results["witness"])
    assert verify_central(fx.quiver, witness).central


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
    # each matching, a list of arrow ids, has one bare item marker with
    # its arrows one step below it
    lines = tx.stdout.splitlines()
    assert lines.count("    -") == payload["results"]["count"]
    first = lines.index("    -")
    assert lines[first + 1:first + 3] == ["      - 0", "      - 1"]


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


def test_non_integer_count_option_is_exit_3(capsys):
    assert main(["--max-states", "abc", "validate", "fixture:fig_deformation"]) == 3
    assert "argument --max-states: invalid int value: 'abc'" in capsys.readouterr().err


NILRADICAL_CANDIDATE = ["nilradical", "fixture:fig_deformation", "--candidate"]


# c3's loops with both faces in the same cyclic order: no pinch shows in
# the Euler characteristic, the incidences or the homology data
PINCHED_C3 = {
    "vertices": 1,
    "arrows": [{"id": i, "tail": 0, "head": 0, "homology": h}
               for i, h in enumerate([[1, 0], [0, 1], [-1, -1]])],
    "faces": [[0, 1, 2], [0, 1, 2]],
}


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
    # fixtures --check and --dump look a name up as fixture:NAME does
    (None, ["fixtures", "--check", "bogus"], 3),
    (None, ["fixtures", "--check", "fig_nested(0)"], 3),
    (None, ["fixtures", "--dump", "bogus"], 3),
    # relations descend by construction: no contraction is left undecided
    (None, ["contract", "fixture:fig_nested(20)"], 0),
    # a source that is no dimer quiver is bad input for contract
    (lambda d: _bad_face(d, [0, 2]), ["contract", "--arrows", "3"], 3),
    # a sphere pinched twice passes every check but the vertex links
    (PINCHED_C3, ["validate"], 1),
    # an empty field inside an integer list is bad input, not a dropped field
    (None, ["eq", "fixture:fig_deformation", "--p", "4,6,,6,1", "--q", "5,6,6,0"], 3),
    (None, ["contract", "fixture:fig_deformation", "--arrows", ","], 3),
    (None, ["center", "fixture:fig_deformation", "--image", "1,,1"], 3),
], ids=["tail-string", "tail-bool", "face-string", "vertex-range", "cycle-budget",
        "matching-cap", "normality-below-witness", "candidate-arrow-range",
        "candidate-zero-denominator", "candidate-not-object", "irremovable-2cycle",
        "check-unknown-name", "check-depth-zero", "dump-unknown-name",
        "contract-nested-20", "contract-invalid-source", "pinched-vertex-link",
        "empty-field-word", "empty-field-arrows", "empty-field-image"])
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
    if code == 3:
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    if code == 2 and res.stderr:
        assert res.stderr.startswith("undecided: ") and res.stderr.count("\n") == 1, res.stderr


def test_contract_names_invalid_source(tmp_path, capsys):
    # the contract-invalid-source case above: its one error line names the check
    doc = quiver_to_json(fixture("fig_deformation").quiver)
    _bad_face(doc, [0, 2])
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    assert main(["contract", str(path), "--arrows", "3"]) == 3
    assert "contraction failed (invalid_source)" in capsys.readouterr().err


def test_contract_names_null_loop(capsys):
    assert main(["contract", "fixture:fig_nested(1)", "--arrows", "0,5,7,9"]) == 3
    assert capsys.readouterr().err == (
        "error: contraction failed (null_loop): arrow 14 would become a null-homologous loop\n")


def test_center_search_budget_is_exit_2(monkeypatch, capsys):
    # a huge degree bound spends the realizability state budget; a small
    # budget shows the same exit without the memory a full one takes.
    # The sweep's work follows the states it reaches, not the degree
    # bound, so a bound far past any memory still ends at the budget.
    from dimeralg import rewriting

    monkeypatch.setattr(rewriting, "MAX_STATES", 10_000)
    for bound in (10**6, 10**12):
        for cmd in ("homotopy-center", "normality"):
            assert main([cmd, "fixture:fig_deformation", "--degree-bound", str(bound)]) == 2
            assert "sweep exceeds budget" in capsys.readouterr().err


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
    # two 2-cycles are removed, and the reduced quiver is zig-zag
    # consistent: certified, with nothing searched
    assert results["removed_2cycles"] == 2
    assert (results["found"], results["search_exhausted"]) == (False, False)
    assert (results["cycles_considered"], results["pairs_tested"]) == (0, 0)
    assert results["decided_by"] == "zigzag"


# Exit code and SHA-1 of stdout and of stderr, in process, for the README's
# commands and more paths through the CLI: text output, every cycle filter,
# explicit contraction sets, exit 2 and exit 3.  A deliberate change of
# output re-records the pins and lists the changed ones in CHANGES.md.
EMPTY = hashlib.sha1(b"").hexdigest()
PINNED = [
    # the README's commands
    (["fixtures", "--list"], 0,
     "c6cc14df2a56a3e00d64f3db43b18f22ce552166", EMPTY),
    (["validate", "fixture:fig_deformation"], 0,
     "e7ce4995a62decc03229b93a0e5d3fa0104cefa1", EMPTY),
    (["matchings", "fixture:fig_deformation", "--simple-only"], 0,
     "2d1801a5aa2173d356ada6c47ca1b4a0a9432b4b", EMPTY),
    (["eq", "fixture:fig_deformation", "--p", "4,6,6,1", "--q", "5,6,6,0"], 0,
     "16d36b0814ec31b8b2dcdcd65eb2e39d316f5974", EMPTY),
    (["cycles", "fixture:fig_iso_R", "--vertex", "2", "--max-len", "6", "--filter",
      "vertex-simple"], 0,
     "4e282ff5bc6d96aceb3a67015f26df03a805dce0", EMPTY),
    (["tau", "fixture:fig_iso_R", "--path", "4,5,6,13,15,16"], 0,
     "62ea012e9d324cd3667d9595e1d73a388274dc87", EMPTY),
    (["contract", "fixture:fig_iso_R", "--check-cyclic", "--reduce"], 0,
     "15520bb798d83c037827d8e3b0c3b8d182304e2c", EMPTY),
    # sixteen 2-cycles removed: the faces' order and rotation after many merges
    (["contract", "fixture:fig_nested(4)", "--reduce"], 0,
     "5a92228d5f3fe415fcdc2e301d04d1dfed5d7754", EMPTY),
    (["cycle-algebra", "fixture:fig_deformation"], 0,
     "502e90a6746b8cb30b70939cae661247e5c2a5f1", EMPTY),
    (["homotopy-center", "fixture:fig_deformation", "--degree-bound", "8"], 0,
     "60f9a4abe6df9754bb20b84b88ecad46e6e62e34", EMPTY),
    (["center", "fixture:fig_iso_R", "--image", "1,1,2"], 0,
     "b6f8285ce5624a836933c2888d9935a47e3f58e0", EMPTY),
    (["nilradical", "fixture:fig_noncancellative_central"], 0,
     "3aefc109e1d22914bdf73facaab899b7eaab80b3", EMPTY),
    (["normality", "fixture:fig_nested(2)", "--degree-bound", "6"], 0,
     "cc2e2c0f3080720b37395f9f20c8e3721ad714d9", EMPTY),
    (["noncancellative", "fixture:fig_deformation"], 0,
     "5650be75e959952cb845c1ac7162b49aa9b979a5", EMPTY),
    (["fixtures", "--check", "fig_deformation"], 0,
     "4eb9cc0804085483f4d96bfe0877350c047de8f3", EMPTY),
    # text output, global options on either side of the subcommand
    (["validate", "fixture:fig_deformation", "--text"], 0,
     "c0d0925f2a1973c17fb124126ae5acfe05e3354d", EMPTY),
    (["--text", "contract", "fixture:fig_deformation", "--reduce"], 0,
     "9fa328099300488b71b12039102c9d9eb8018f56", EMPTY),
    (["--max-states", "5000", "center", "fixture:fig_iso_R", "--image", "1,1,2", "--text"], 0,
     "812242decd9f348f6e6aea14981c322051aeac11", EMPTY),
    # every cycle filter, and the split into classes
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "5"], 0,
     "41bf31591b305735c69968da29213a232b02b714", EMPTY),
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "5", "--filter",
      "lift-simple"], 0,
     "00fefb0d0923cd9f7d124b3a0d1a9fa902196102", EMPTY),
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "5", "--filter",
      "homology:1,0"], 0,
     "f5b4c51b8fd91d6e00be41cb14f1b9c334e2017f", EMPTY),
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "5", "--dedup"], 0,
     "febf5b71fdee67375d7aeeb78ad4404b8fe6004b", EMPTY),
    # explicit contraction sets, the raw text of --dump
    (["tau", "fixture:fig_deformation", "--arrows", "", "--path", "0,2,5"], 0,
     "9895d659cf012883b1cb8d0b585d2ae2e12f8e38", EMPTY),
    (["cycle-algebra", "fixture:fig_iso_R", "--arrows", "0"], 0,
     "cf281fbad61f0be3fbccd0f5eec1eb5e3cff83e3", EMPTY),
    (["homotopy-center", "fixture:fig_deformation", "--degree-bound", "4", "--contains",
      "1,1,1"], 0,
     "3fab0ab4d6513409f04ca8bb0a00eb50f53c2a92", EMPTY),
    (["noncancellative", "fixture:fig_deformation", "--arrows", ""], 0,
     "5650be75e959952cb845c1ac7162b49aa9b979a5", EMPTY),
    (["fixtures", "--dump", "fig_deformation"], 0,
     "0c68cb90bdfb725d75b990d392cfa30ce6d4114f", EMPTY),
    # an equal pair and its rewrite witness
    (["eq", "fixture:fig_deformation", "--p", "4,6,6,1,2,4", "--q", "5,6,6,0,2,4"], 0,
     "36f75808383e46c37f0d5f415a1a5c313eee5775", EMPTY),
    # exit 2
    (["eq", "fixture:fig_deformation", "--p", "0,2,5", "--q", "1,3,4,6", "--max-states", "1"], 2,
     "5fef67152152af033701d693abbad553a51c765f", EMPTY),
    (["eq", "fixture:fig_deformation", "--p", "4,6,6,1,2,4", "--q", "5,6,6,0,2,4",
      "--max-word-length", "6"], 2,
     "a7c584a26dd960840731bace6c84aca8452a3a84", EMPTY),
    (["matchings", "fixture:fig_iso_R", "--cap", "3"], 2,
     EMPTY, "81f5fca7a889d0a1fb8a7ce7409ba0c6ab8da432"),
    (["normality", "fixture:fig_nested(2)", "--degree-bound", "5"], 2,
     "4d51add333936959ae83cc2e2e133662aad88b2f", EMPTY),
    # exit 3
    (["validate", "fixture:fig_nope"], 3,
     EMPTY, "4ade5f9dc9eb0efd2d71115e40aa28a2c867c8fe"),
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "3", "--filter",
      "homology:1"], 3,
     EMPTY, "ab228577641207dceb94e4f600d6b55d05f5a9e1"),
    (["cycles", "fixture:fig_deformation", "--vertex", "0", "--max-len", "3", "--filter",
      "odd"], 3,
     EMPTY, "f311d17af089d01c66390876e424addfe9fc3671"),
    (["eq", "fixture:fig_deformation", "--p", "a,b", "--q", "0"], 3,
     EMPTY, "74f440c570bdf771e102dc998ec26c535eed88e3"),
    (["center", "fixture:fig_deformation", "--image", "x,y"], 3,
     EMPTY, "ce30c2e93da5cb2f822bc183238f38219a41c81d"),
    (["contract", "fixture:fig_deformation", "--arrows", "99"], 3,
     EMPTY, "3e0c584e3ecb52fa8445f028e7a2a2ba719cf5d9"),
    (["nilradical", "fixture:fig_deformation"], 3,
     EMPTY, "7a5703f63fb0acdb653899b0294ee5443bce1dcf"),
    (["fixtures"], 3,
     EMPTY, "cff09e1eb964a9706090da8e8f93dbff3c599e88"),
    # unknown names for fixtures --check and --dump: exit 3, not a traceback
    (["fixtures", "--check", "bogus"], 3,
     EMPTY, "7d0be26f9f0c3530baee8aaac5348ecf0c34b156"),
    (["fixtures", "--check", "fig_nested(0)"], 3,
     EMPTY, "8a09aec5f0e70ec0c35e5265f265afe5b6858ea9"),
    (["fixtures", "--dump", "bogus"], 3,
     EMPTY, "7d0be26f9f0c3530baee8aaac5348ecf0c34b156"),
]


def _sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, out, err", PINNED,
                         ids=[" ".join(argv) for argv, *_ in PINNED])
def test_pinned_output(argv, code, out, err, capsys):
    assert main(argv) == code
    got = capsys.readouterr()
    assert (_sha1(got.out), _sha1(got.err)) == (out, err)
