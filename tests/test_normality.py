import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg import monomial_algebra, normality, rewriting
from dimeralg.center import power_in_reduced_center
from dimeralg.contraction import contract, identity_contraction, sigma, source_cycle_algebra_generators
from dimeralg.monomial_algebra import (
    degree,
    homotopy_center_contains,
    homotopy_center_monomials,
    is_sigma_power,
    mon_add,
)
from dimeralg.normality import (
    minimal_sigma_power,
    normality_report,
    sigma_power_times_S_in_R,
)
from dimeralg.quiver import DomainError
from dimeralg.rewriting import ResourceExhausted

from conftest import per_vertex_contains


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
    assert rep.as_dict()["cond_sigma_S_in_R"] == expected
    assert rep.cond_k_plus_m0S == expected
    assert rep.as_dict()["cond_R_equals_k_plus_ideal"] == expected
    assert rep.minimal_power == n
    assert rep.decomposition_holds == "yes"
    assert rep.ideal_property_holds == "yes"


def test_deformation_is_normal(deformation_contraction):
    c = deformation_contraction
    assert sigma_power_times_S_in_R(c, 1) is None
    msp = minimal_sigma_power(c)
    assert msp.n == 1
    rep = normality_report(c, degree_bound=8)
    assert rep.normal == "yes"


def test_identity_contraction_is_normal():
    c = identity_contraction(fixtures_mod.conifold_quiver())
    assert sigma_power_times_S_in_R(c, 1) is None
    assert minimal_sigma_power(c).n == 1
    rep = normality_report(c, degree_bound=6)
    assert rep.normal == "yes"


def test_sigma_witness_on_nested_two():
    fx = fixtures_mod.fixture("fig_nested(2)")
    c = contract(fx.quiver, fx.contraction_arrows)
    witness = sigma_power_times_S_in_R(c, 1)
    assert witness is not None
    # the witness product really fails membership
    g = mon_add(sigma(c), witness)
    assert homotopy_center_contains(c, g).verdict == "no"


def test_normality_report_consistency_everywhere(all_contractions):
    for name, c in all_contractions.items():
        d = normality_report(c, degree_bound=6).as_dict()
        assert d["cond_R_equals_k_plus_m0S"] in (d["normal"], "unknown"), name
        assert d["cond_R_equals_k_plus_ideal"] == d["cond_R_equals_k_plus_m0S"], name
        assert d["cond_sigma_S_in_R"] == d["normal"], name


def test_disagreeing_conditions_raise(deformation_contraction, monkeypatch):
    # a sigma-round search that fails every generator makes sigma*S in R
    # say no on a normal fixture, where k + m0*S says yes; the report's
    # rounds are decided by its center table
    monkeypatch.setattr(monomial_algebra.CenterTable, "first_unrealized_goal", lambda *args: (0, 0))
    with pytest.raises(normality.EquivalenceViolation,
                       match=r"sigma\*S test says no but k\+m0S test says yes"):
        normality_report(deformation_contraction, 8)


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
        witness = sigma_power_times_S_in_R(c, 1)
        normal = "yes" if witness is None else "no"
        for bound in range(11):
            rep = normality_report(c, bound)
            vacuous = witness is not None and bound < degree(mon_add(sigma(c), witness))
            want = "unknown" if vacuous else normal
            assert rep.cond_k_plus_m0S == want, (name, bound)
            assert rep.as_dict()["cond_R_equals_k_plus_ideal"] == want, (name, bound)
            assert rep.as_dict()["cond_sigma_S_in_R"] == rep.normal == normal, (name, bound)


def test_report_adds_no_realizability_calls(all_contractions, monkeypatch):
    # minimal_sigma_power sweeps once per round; the report sweeps its
    # table once and reads from it every round whose goals lie inside the
    # table's box, sweeping only the rounds above; no per-vertex search
    calls = {"_reach_all": 0, "_reach": 0}

    def counting(name):
        search = getattr(monomial_algebra, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return search(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(monomial_algebra, name, counting(name))
    for name, c in all_contractions.items():
        msp = minimal_sigma_power(c)
        rounds = msp.n or normality.DEFAULT_N_MAX
        assert calls == {"_reach_all": rounds, "_reach": 0}, name
        calls["_reach_all"] = 0
        normality_report(c)
        # round n's goals sigma^n * g reach degree n * |catalog| + max deg g
        top = max(map(degree, source_cycle_algebra_generators(c)))
        table_bound = normality.DEFAULT_DEGREE_BOUND + top
        above = sum(n * len(c.catalog) + top > table_bound for n in range(1, rounds + 1))
        assert calls == {"_reach_all": 1 + above, "_reach": 0}, name
        calls["_reach_all"] = 0
        homotopy_center_monomials(c, 6)
        assert calls == {"_reach_all": 1, "_reach": 0}, name
        calls["_reach_all"] = 0


def test_report_agrees_with_the_rounds_swept_alone(sweep_contractions):
    # the report reads each round its table covers from the table's sweep
    # and sweeps the rounds above; at bounds 0-10 both kinds occur, and
    # either way the report agrees with minimal_sigma_power and the
    # sigma * S round swept on their own
    covered = set()
    for name, c in sweep_contractions.items():
        msp = minimal_sigma_power(c)
        witness = sigma_power_times_S_in_R(c, 1)
        rounds = range(1, (msp.n or normality.DEFAULT_N_MAX) + 1)
        for bound in range(11):
            rep = normality_report(c, bound)
            assert rep.minimal_power == msp.n, (name, bound)
            assert rep.sigma_witness == witness, (name, bound)
            assert rep.normal == ("yes" if witness is None else "no"), (name, bound)
            # the table reaches bound + max deg g, round n's goals
            # n * |catalog| + max deg g
            covered |= {n * len(c.catalog) <= bound for n in rounds}
    assert covered == {True, False}


def reference_round(c, n, gens):
    """sigma^n * S in R by one membership test per generator, in order,
    each a witness search per vertex: the first failing generator, or None."""
    sn = (n,) * len(c.catalog)
    for g in gens:
        if per_vertex_contains(c, mon_add(sn, g))[0] != "yes":
            return g
    return None


@pytest.mark.parametrize("order", [1, -1])
def test_shared_round_matches_per_generator_tests(all_contractions, order, monkeypatch):
    # both generator orders, so the witness order is tested too; each round
    # is one sweep from every vertex, read in (goal, vertex) order
    fx = fixtures_mod.fixture("fig_nested(5)")  # four rounds, the last one yes
    contractions = {**all_contractions, "fig_nested(5)": contract(fx.quiver, fx.contraction_arrows)}
    for name, c in contractions.items():
        gens = source_cycle_algebra_generators(c)[::order]
        monkeypatch.setattr(normality, "source_cycle_algebra_generators", lambda c: gens)
        for n in range(1, 7):
            assert sigma_power_times_S_in_R(c, n) == reference_round(c, n, gens), (name, n)


def test_negative_sigma_power_is_refused():
    fx = fixtures_mod.fixture("fig_nested(2)")
    c = contract(fx.quiver, fx.contraction_arrows)
    with pytest.raises(DomainError):
        sigma_power_times_S_in_R(c, -1)


# (generators, n, budget, outcome) on fig_nested(2), whose sigma * g
# fails and sigma^2 * g passes for g = (0, 0, 1, 1); the box of (4, 4, 4, 4)
# is over each budget
GUARD_CASES = [
    # the first generator fails within the budget
    ([(0, 0, 1, 1), (4, 4, 4, 4)], 1, 360, "no"),
    # the first generator passes, so the over-budget one is undecided
    ([(0, 0, 1, 1), (4, 4, 4, 4)], 2, 1440, "undecided"),
    # an over-budget generator ahead of a failing one is undecided
    ([(4, 4, 4, 4), (0, 0, 1, 1)], 1, 1440, "undecided"),
]


@pytest.mark.parametrize("gens, n, budget, expected", GUARD_CASES)
def test_shared_round_keeps_the_guard_order(gens, n, budget, expected, monkeypatch):
    fx = fixtures_mod.fixture("fig_nested(2)")
    c = contract(fx.quiver, fx.contraction_arrows)
    monkeypatch.setattr(rewriting, "MAX_STATES", budget)
    monkeypatch.setattr(normality, "source_cycle_algebra_generators", lambda c: gens)

    def outcome(test):
        try:
            return test()
        except ResourceExhausted:
            return "undecided"

    want = outcome(lambda: reference_round(c, n, gens))
    assert want == (expected if expected == "undecided" else gens[0])
    assert outcome(lambda: sigma_power_times_S_in_R(c, n)) == want
