"""The package layout: a private name is used only in the module that
defines it, a private attribute is read only through ``self``/``cls`` or
in the module that defines it, every import sits at module level, so no
import cycle is hidden inside a function, every name is imported from
the module that defines it, never through a re-export, and ``rewriting``
builds no ``SearchBounds`` but ``DEFAULT_BOUNDS``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dimeralg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "dimeralg"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text())
    imported = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and _from_package(node)]
    private = [a.name for node in imported for a in node.names if a.name.startswith("_")]
    assert not private, f"{path.name} imports {private}"
    # modules bound by "from . import module" are not reached into either
    modules = {a.asname or a.name for node in imported if node.module is None for a in node.names}
    reached = sorted(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    )
    assert not reached, f"{path.name} uses {reached}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_attributes_stay_home(path):
    # a private attribute is defined where the module has it as a def or
    # class, or assigns it as a name or an attribute
    tree = ast.parse(path.read_text())
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    foreign = sorted(
        f"{node.lineno}:{ast.unparse(node)}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )
    assert not foreign, f"{path.name} reads {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    nested = sorted(
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert not nested, f"{path.name} imports inside {nested}"


def _defined_at_top_level(module: str) -> set[str]:
    """The names a package module binds by ``def``, ``class`` or
    assignment at top level, not by import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_names_are_imported_from_their_home(path):
    tree = ast.parse(path.read_text())
    passed_through = sorted(
        f"{node.module}.{a.name}" for node in ast.walk(tree)
        # "from . import module" binds modules, checked above
        if isinstance(node, ast.ImportFrom) and _from_package(node) and node.module
        for a in node.names
        if a.name not in _defined_at_top_level(node.module.split(".")[-1])
    )
    assert not passed_through, f"{path.name} imports re-exported {passed_through}"


def test_rewriting_builds_no_search_bounds():
    # the searches inside rewriting take the word cap and the state budget
    # as ints: the one SearchBounds it builds is DEFAULT_BOUNDS
    tree = ast.parse((PACKAGE / "rewriting.py").read_text())
    built = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "SearchBounds"]
    default = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [ast.unparse(t) for t in node.targets] == ["DEFAULT_BOUNDS"]]
    assert built == default, [f"{node.lineno}:{ast.unparse(node)}" for node in built]
