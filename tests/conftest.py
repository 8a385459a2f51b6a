import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import contract
from dimeralg.monomial_algebra import realizable_at_vertex
from dimeralg.quiver import DomainError, concat
from dimeralg.rewriting import EQUAL, NOT_EQUAL, UNKNOWN, RewriteSystem, paths_equal

FIXTURES = [
    "fig_deformation",
    "fig_iso_R",
    "fig_nested(1)",
    "fig_nested(2)",
    "fig_nested(3)",
    "fig_hsb_ii",
    "fig_noncancellative_central",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_torus_cover():
    """``torus_cover`` from ``perfbench/covers.py``, which is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_covers", PERFBENCH / "covers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.torus_cover


def per_vertex_contains(c, g):
    """Homotopy-center membership by one witness search per vertex:
    (verdict, first vertex where g is not a cycle image, or None)."""
    for i in range(c.source.num_vertices):
        if realizable_at_vertex(c, i, g).verdict != "yes":
            return "no", i
    return "yes", None


def commutation_property_check(q, z) -> str:
    """For z with components p - q, do p and q commute at every vertex?

    Components with a single cycle count as a difference against zero and
    pass vacuously."""
    rs = RewriteSystem(q)
    overall = EQUAL
    for terms in z.components.values():
        if len(terms) == 1:
            continue
        if len(terms) != 2:
            raise DomainError("component is not a difference of two cycles")
        (c1, p), (c2, r) = terms
        if {c1, c2} != {Fraction(1), Fraction(-1)}:
            raise DomainError("component is not a difference of two cycles")
        res = paths_equal(rs, concat(q, p, r), concat(q, r, p))
        if res.verdict == NOT_EQUAL:
            return NOT_EQUAL
        if res.verdict == UNKNOWN:
            overall = UNKNOWN
    return overall


@pytest.fixture(scope="session")
def all_fixtures():
    return {name: fixtures_mod.fixture(name) for name in FIXTURES}


@pytest.fixture(scope="session")
def all_contractions(all_fixtures):
    return {
        name: contract(fx.quiver, fx.contraction_arrows)
        for name, fx in all_fixtures.items()
    }


@pytest.fixture(scope="session")
def deformation(all_fixtures):
    return all_fixtures["fig_deformation"]


@pytest.fixture(scope="session")
def deformation_contraction(all_contractions):
    return all_contractions["fig_deformation"]


@pytest.fixture(scope="session")
def iso_r(all_fixtures):
    return all_fixtures["fig_iso_R"]


@pytest.fixture(scope="session")
def iso_r_contraction(all_contractions):
    return all_contractions["fig_iso_R"]
