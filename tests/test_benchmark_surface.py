"""The library surface the benchmark in ``perfbench/`` relies on.

The tracer wraps functions by name, and the workloads call library
functions through module aliases (``rw = lib.rewriting``), so a renamed
function or a removed parameter otherwise only shows up when the
benchmark runs.  The workload calls are read from the source with
``ast`` and bound against the current signatures.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for home, names in tracing.TRACED.items():
        module = importlib.import_module(f"dimeralg.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"
    rs_class = importlib.import_module("dimeralg.rewriting").RewriteSystem
    for method in tracing.COUNTED:
        assert callable(rs_class.__dict__.get(method)), f"RewriteSystem.{method}"


def _dotted(node, aliases):
    """The library path a call target names ("rewriting.paths_equal"), or
    None when it is not rooted at ``lib`` or a library alias."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id == "lib" and parts:
        return ".".join(reversed(parts))
    if node.id in aliases:
        return ".".join([aliases[node.id]] + parts[::-1])
    return None


def _library_calls():
    """(library path, positional count, keyword names, line) of every call
    in the workloads that goes to the library."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {}  # name -> library path, from assignments like rw = lib.rewriting
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                path = _dotted(v, {})
                if isinstance(t, ast.Name) and path is not None:
                    aliases[t.id] = path
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _dotted(node.func, aliases)
            if path is not None:
                kwargs = [k.arg for k in node.keywords if k.arg is not None]
                calls.append((path, len(node.args), kwargs, node.lineno))
    return calls


def test_workload_calls_bind_to_current_signatures():
    calls = _library_calls()
    seen = {path for path, *_ in calls}
    # the parse finds the calls this test exists for
    assert {"rewriting.enumerate_cycles", "monomial_algebra.MonomialAlgebra",
            "monomial_algebra.realizable_at_vertex", "rewriting.find_noncancellative_pair",
            "center.reduced_center_contains", "cli.main"} <= seen
    for path, n_args, kwargs, line in calls:
        module, *attrs = path.split(".")
        target = importlib.import_module(f"dimeralg.{module}")
        for attr in attrs:
            target = getattr(target, attr, None)
            assert target is not None, f"workloads.py:{line}: dimeralg.{path} does not exist"
        try:
            inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(kwargs))
        except TypeError as exc:
            raise AssertionError(f"workloads.py:{line}: {path}: {exc}") from None
