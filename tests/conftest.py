import importlib.util
from pathlib import Path

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import contract

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
