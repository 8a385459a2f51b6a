import dataclasses

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.acceptance import check_fixture
from dimeralg.quiver import make_quiver, validate_dimer

NAMES = [
    "fig_deformation",
    "fig_noncancellative_central",
    "fig_iso_R",
    "fig_nested(1)",
    "fig_nested(2)",
    "fig_nested(3)",
    "fig_hsb_ii",
]


def test_public_name_list():
    assert len(fixtures_mod.FIXTURE_NAMES) == 5
    assert "fig_nested(n)" in fixtures_mod.FIXTURE_NAMES


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixtures_mod.fixture("fig_bogus")
    with pytest.raises(KeyError):
        fixtures_mod.fixture("fig_nested(0)")
    with pytest.raises(KeyError):
        fixtures_mod.fixture("fig_nested(x)")


def test_fixture_construction_is_deterministic():
    for name in NAMES:
        a = fixtures_mod.fixture(name)
        b = fixtures_mod.fixture(name)
        assert a.quiver == b.quiver
        assert a.contraction_arrows == b.contraction_arrows
        assert a.expected == b.expected


def test_nested_growth():
    for n in (1, 2, 4):
        fx = fixtures_mod.fixture(f"fig_nested({n})")
        q = fx.quiver
        assert q.num_vertices == 2 + 4 * n
        assert len(q.arrows) == 4 + 12 * n
        assert len(q.faces) == 8 * n + 2
        assert validate_dimer(q).ok
        assert len(fx.contraction_arrows) == 4 * n


@pytest.mark.parametrize("name", NAMES)
def test_every_expected_claim_rederives(name):
    results, ok = check_fixture(fixtures_mod.fixture(name))
    failing = [r for r in results if not r["ok"]]
    assert ok, failing


def test_invalid_source_derives_only_validates():
    fx = fixtures_mod.fixture("fig_deformation")
    q = fx.quiver
    # one face dropped: a quiver make_quiver builds but validate_dimer rejects
    broken = make_quiver(q.num_vertices, [(a.tail, a.head, a.homology) for a in q.arrows],
                         [f.boundary for f in q.faces[:-1]])
    assert not validate_dimer(broken).ok
    results, ok = check_fixture(dataclasses.replace(fx, quiver=broken))
    derived = {r["claim"]: r["derived"] for r in results}
    assert derived.pop("validates") is False
    assert derived and set(derived.values()) == {"<not derived>"}
    assert not ok


def test_distinguished_paths_have_matching_endpoints():
    fx = fixtures_mod.fixture("fig_noncancellative_central")
    q = fx.quiver
    p, r, a = fx.paths["p"], fx.paths["q"], fx.paths["a"]
    from dimeralg.quiver import path_head

    assert p.base == r.base == path_head(q, a)
    assert path_head(q, p) == path_head(q, r) == a.base
