import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg import monomial_algebra
from dimeralg.center import power_in_reduced_center
from dimeralg.contraction import contract, identity_contraction, sigma, source_cycle_algebra_generators
from dimeralg.monomial_algebra import (
    degree,
    homotopy_center_contains,
    homotopy_center_monomials,
    is_sigma_power,
    mon_add,
)
from dimeralg.normality import minimal_sigma_power, normality_report, sigma_S_in_R


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nested_minimal_power(n):
    fx = fixtures_mod.fixture(f"fig_nested({n})")
    c = contract(fx.quiver, fx.contraction_arrows)
    msp = minimal_sigma_power(c)
    assert msp.n == n
    if n > 1:
        assert msp.failing_witness is not None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nested_normality_conditions_agree(n):
    fx = fixtures_mod.fixture(f"fig_nested({n})")
    c = contract(fx.quiver, fx.contraction_arrows)
    rep = normality_report(c, degree_bound=6)
    expected = "yes" if n == 1 else "no"
    assert rep.normal == expected
    assert rep.cond_sigma_S == expected
    assert rep.cond_k_plus_m0S == expected
    assert rep.cond_k_plus_ideal == expected
    assert rep.consistent
    assert rep.minimal_power == n
    assert rep.decomposition_holds == "yes"
    assert rep.ideal_property_holds == "yes"


def test_deformation_is_normal(deformation_contraction):
    c = deformation_contraction
    assert sigma_S_in_R(c).verdict == "yes"
    msp = minimal_sigma_power(c)
    assert msp.n == 1
    rep = normality_report(c, degree_bound=8)
    assert rep.normal == "yes" and rep.consistent


def test_identity_contraction_is_normal():
    c = identity_contraction(fixtures_mod.conifold_quiver())
    assert sigma_S_in_R(c).verdict == "yes"
    assert minimal_sigma_power(c).n == 1
    rep = normality_report(c, degree_bound=6)
    assert rep.normal == "yes"


def test_sigma_witness_on_nested_two():
    fx = fixtures_mod.fixture("fig_nested(2)")
    c = contract(fx.quiver, fx.contraction_arrows)
    res = sigma_S_in_R(c)
    assert res.verdict == "no"
    assert res.witness is not None
    # the witness product really fails membership
    g = mon_add(sigma(c), res.witness)
    assert homotopy_center_contains(c, g).verdict == "no"


def test_normality_report_consistency_everywhere(all_contractions):
    for name, c in all_contractions.items():
        rep = normality_report(c, degree_bound=6)
        assert rep.consistent, name
        assert (rep.cond_sigma_S == "yes") == (rep.normal == "yes")


def test_nonsigma_part_is_an_ideal(all_contractions):
    # every non-sigma-power monomial of the center absorbs the cycle
    # algebra
    for name, c in all_contractions.items():
        bound = 6
        r = homotopy_center_monomials(c, bound)
        gens = source_cycle_algebra_generators(c)
        for m in sorted(r):
            if is_sigma_power(m):
                continue
            for g in gens:
                assert homotopy_center_contains(c, mon_add(m, g)).verdict == "yes", (name, m, g)


def test_normalization_proxy_small_powers(deformation_contraction):
    # sampled center monomials reach the reduced center at a small power
    c = deformation_contraction
    bound = 4
    samples = sorted(homotopy_center_monomials(c, bound))[:6]
    for g in samples:
        n, verdict = power_in_reduced_center(c, g, n_max=6)
        assert verdict == "yes" and n is not None and n <= 6, g


def test_bound_sweep_never_contradicts(all_contractions):
    # the truncated k + m0*S test only refutes: below the degree of
    # sigma * witness it cannot, and the report says unknown there
    for name, c in all_contractions.items():
        res = sigma_S_in_R(c)
        for bound in range(11):
            rep = normality_report(c, bound)
            vacuous = res.verdict == "no" and bound < degree(mon_add(sigma(c), res.witness))
            want = "unknown" if vacuous else res.verdict
            assert rep.cond_k_plus_m0S == want, (name, bound)
            assert rep.cond_k_plus_ideal == want, (name, bound)
            assert rep.cond_sigma_S == rep.normal == res.verdict, (name, bound)


def test_report_adds_no_realizability_calls(all_contractions, monkeypatch):
    calls = [0]
    realizable = monomial_algebra.realizable_at_vertex

    def counted(*args, **kwargs):
        calls[0] += 1
        return realizable(*args, **kwargs)

    monkeypatch.setattr(monomial_algebra, "realizable_at_vertex", counted)
    for name, c in all_contractions.items():
        calls[0] = 0
        minimal_sigma_power(c)
        alone = calls[0]
        calls[0] = 0
        normality_report(c)
        assert calls[0] == alone, name
        calls[0] = 0
        homotopy_center_monomials(c, 6)
        assert calls[0] == 0, name
