"""Property test of the exit-code contract: whatever the input, ``cli.main``
returns one of the documented codes 0-3 and never raises."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dimeralg.cli import main
from dimeralg.contraction import contract
from dimeralg.fixtures import bigon_inserted_c3, fixture
from dimeralg.quiver import quiver_to_json

SMALL = ("fig_deformation", "fig_noncancellative_central", "fig_nested(2)")
DOCS = {name: quiver_to_json(fixture(name).quiver) for name in SMALL}
# quivers with 2-cycles: one that bigon_reduce removes, one it cannot
_iso_r = fixture("fig_iso_R")
DOCS["fig_iso_R target"] = quiver_to_json(contract(_iso_r.quiver, _iso_r.contraction_arrows).target)
DOCS["bigon_inserted_c3"] = quiver_to_json(bigon_inserted_c3())

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code


def _locations(doc):
    """Every (container, key) pair of the document, nested ones included."""
    found = []

    def walk(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    return found


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[name]))
    node, key = draw(st.sampled_from(_locations(doc)))
    action = draw(st.sampled_from(["drop", "string", "bool", "out_of_range"]))
    if action == "drop":
        del node[key]
    elif action == "string":
        node[key] = draw(st.sampled_from(["x", "", "0"]))
    elif action == "bool":
        node[key] = draw(st.booleans())
    else:
        # below every id and count, or past every vertex and arrow id
        node[key] = draw(st.sampled_from([-1, -5, len(doc["arrows"]) + 2]))
    return doc


FILE_COMMANDS = [
    ["validate"],
    ["matchings"],
    ["cycles", "--vertex", "0", "--max-len", "3"],
    ["contract", "--check-cyclic"],
    ["cycle-algebra"],
    ["homotopy-center", "--degree-bound", "3"],
    ["normality", "--degree-bound", "3"],
    ["noncancellative", "--max-states", "2000"],
]


@FUZZ
@given(doc=mutated_documents(), command=st.sampled_from(FILE_COMMANDS))
def test_mutated_fixture_json(doc, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        run_main([command[0], path, *command[1:]])
    finally:
        os.unlink(path)


def ints(lo, hi, max_size):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


@st.composite
def option_commands(draw):
    quiver = "fixture:" + draw(st.sampled_from(SMALL))
    arrows = draw(st.none() | ints(-1, 10, 3))
    contract_opts = [] if arrows is None else ["--arrows=" + arrows]
    kind = draw(st.sampled_from(
        ["tau", "eq", "cycles", "center", "homotopy-center", "normality", "contract",
         "cycle-algebra", "nilradical"]))
    if kind == "tau":
        return ["tau", quiver, "--path=" + draw(ints(-2, 12, 6)), *contract_opts]
    if kind == "eq":
        return ["eq", quiver, "--p=" + draw(ints(-2, 12, 6)), "--q=" + draw(ints(-2, 12, 6))]
    if kind == "cycles":
        return ["cycles", quiver, "--vertex", str(draw(st.integers(-2, 5))),
                "--max-len", str(draw(st.integers(-1, 5)))]
    if kind == "center":
        return ["center", quiver, "--image=" + draw(ints(-1, 2, 4)), *contract_opts]
    if kind == "homotopy-center":
        cmd = ["homotopy-center", quiver, "--degree-bound", str(draw(st.integers(-2, 8)))]
        if draw(st.booleans()):
            cmd.append("--contains=" + draw(ints(-1, 3, 4)))
        return cmd + contract_opts
    if kind == "normality":
        return ["normality", quiver, "--degree-bound", str(draw(st.integers(-2, 8))),
                "--n-max", str(draw(st.integers(-2, 4))), *contract_opts]
    return [kind, quiver, *contract_opts]


@FUZZ
@given(argv=option_commands())
def test_option_values(argv):
    run_main(argv)


# fixture names as `fixture:NAME` sources and as fixtures --check / --dump
# arguments: valid names, unknown ones, nesting depths around the valid
# range, and unbalanced parentheses
NAME_CASES = st.one_of(
    st.sampled_from(["fig_deformation", "fig_noncancellative_central", "fig_iso_R",
                     "fig_hsb_ii"]),
    st.sampled_from(["bogus", "", "fig_nested", "fig_nested(n)", "FIG_ISO_R", "fixture:fig_iso_R"]),
    st.integers(-1, 3).map(lambda k: f"fig_nested({k})"),
    st.sampled_from(["fig_nested(", "fig_nested(1", "fig_nested)1(", "fig_nested((1)",
                     "fig_nested(1))", "fig_nested)", "(fig_iso_R"]),
)


@FUZZ
@given(name=NAME_CASES, command=st.sampled_from(
    [["validate", "fixture:{}"], ["fixtures", "--check", "{}"], ["fixtures", "--dump", "{}"]]))
def test_fixture_names(name, command):
    run_main([arg.format(name) for arg in command])
