import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.matchings import MatchingCapExceeded, enumerate_perfect_matchings
from dimeralg.oracles import (
    OracleSizeExceeded,
    oracle_matchings,
    oracle_membership,
    oracle_realizable,
)
from dimeralg.quiver import DomainError, make_quiver
from dimeralg.rewriting import ResourceExhausted


def test_empty_quiver_rejected_by_both():
    empty = make_quiver(0, [], [])
    with pytest.raises(DomainError):
        oracle_matchings(empty)
    # the fast path never validates it either
    from dimeralg.quiver import validate_dimer

    assert not validate_dimer(empty).ok


def test_oracle_size_guards():
    fx = fixtures_mod.fixture("fig_nested(2)")
    with pytest.raises(OracleSizeExceeded):
        oracle_matchings(fx.quiver)  # 28 arrows is past the guard
    with pytest.raises(OracleSizeExceeded):
        oracle_membership(((1, 0),), (20, 0), max_degree=12)
    fx_def = fixtures_mod.fixture("fig_deformation")
    from dimeralg.contraction import contract

    c = contract(fx_def.quiver, fx_def.contraction_arrows)
    with pytest.raises(OracleSizeExceeded):
        oracle_realizable(c, 0, (3, 2, 2))  # multiplicity box past the guard


def test_matching_cap_is_named():
    q = fixtures_mod.fixture("fig_nested(1)").quiver
    with pytest.raises(MatchingCapExceeded) as err:
        enumerate_perfect_matchings(q, cap=5)
    assert "5" in str(err.value)


def test_realizability_state_guard(deformation_contraction, monkeypatch):
    from dimeralg import rewriting
    from dimeralg.monomial_algebra import realizable_at_vertex

    monkeypatch.setattr(rewriting, "MAX_STATES", 10)
    with pytest.raises(ResourceExhausted):
        realizable_at_vertex(deformation_contraction, 0, (4, 4, 4))
