import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import contract
from dimeralg.monomial_algebra import realizable_at_vertex
from dimeralg.quiver import DomainError, concat, make_quiver
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


def load_perfbench(name):
    """``perfbench/<name>.py``, which is not a package, loaded without
    changing it.  It is registered as ``perfbench_<name>``, which its
    dataclasses need, and ``workloads`` imports ``covers`` by that name."""
    if name == "workloads" and "covers" not in sys.modules:
        sys.modules["covers"] = load_perfbench("covers")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_torus_cover():
    """``torus_cover`` from ``perfbench/covers.py``."""
    return load_perfbench("covers").torus_cover


def insert_2cycle(q, face, k):
    """The inverse of one 2-cycle removal: split the face after its k-th
    arrow into arcs u -> x and x -> u, and close each arc into a face with
    a new arrow; the new arrows x -> u and u -> x form the 2-cycle.  They
    take ids 0 and 1, so every old arrow id moves up by 2."""
    boundary = tuple(aid + 2 for aid in q.faces[face].boundary)
    arc1, arc2 = boundary[:k], boundary[k:]
    arrows = [(y.tail, y.head, y.homology) for y in q.arrows]

    def closing(arc):
        return tuple(-sum(arrows[a - 2][2][i] for a in arc) for i in (0, 1))

    u, x = arrows[arc1[0] - 2][0], arrows[arc1[-1] - 2][1]
    arrows = [(x, u, closing(arc1)), (u, x, closing(arc2))] + arrows
    faces = [tuple(aid + 2 for aid in f.boundary) for f in q.faces if f.id != face]
    faces += [(0,) + arc1, (1,) + arc2, (0, 1)]
    return make_quiver(q.num_vertices, arrows, faces)


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
