from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimeralg import monomial_algebra
from dimeralg.acceptance import distinguished_candidate, quadratic_pattern_indices
from dimeralg.center import (
    CentralCandidate,
    ReducedCenterResult,
    _Elimination,
    nilpotency_and_kernel_check,
    power_in_reduced_center,
    reduced_center_contains,
    sigma_sum_candidate,
    verify_central,
)
from dimeralg.contraction import sigma, source_cycle_algebra_generators
from dimeralg.monomial_algebra import (
    cycles_with_image,
    homotopy_center_contains,
    homotopy_center_monomials,
    mon_add,
)
from dimeralg.quiver import DomainError, PathWord
from dimeralg.rewriting import (
    DEFAULT_BOUNDS,
    EqualityClasses,
    ResourceExhausted,
    RewriteSystem,
    SearchBounds,
)

from conftest import commutation_property_check


def test_sigma_sum_is_central(all_fixtures):
    for name, fx in all_fixtures.items():
        z = sigma_sum_candidate(fx.quiver)
        cert = verify_central(fx.quiver, z)
        assert cert.central, name


def test_sigma_sum_does_not_vanish(all_contractions, all_fixtures):
    for name, c in all_contractions.items():
        z = sigma_sum_candidate(c.source)
        rep = nilpotency_and_kernel_check(c, z)
        assert rep.central == "equal"
        assert rep.z_squared_zero == "not_equal"
        assert rep.psi_z_zero == "not_equal"
        assert rep.consistent == "equal"


def test_single_loose_cycle_is_not_central(deformation):
    q = deformation.quiver
    z = CentralCandidate({0: [(Fraction(1), PathWord(0, (6,)))]})
    cert = verify_central(q, z)
    assert not cert.central
    assert cert.failing_arrows()


def test_distinguished_element_is_nil_central(all_fixtures, all_contractions):
    fx = all_fixtures["fig_noncancellative_central"]
    c = all_contractions["fig_noncancellative_central"]
    z = distinguished_candidate(fx)
    rep = nilpotency_and_kernel_check(c, z)
    assert rep.central == "equal"
    assert rep.z_squared_zero == "equal"
    assert rep.psi_z_zero == "equal"
    assert rep.consistent == "equal"


def test_cut_off_commutators_leave_centrality_unknown(all_fixtures):
    # two states per closure decide no commutator of the distinguished
    # element, and an undecided arrow is neither central nor refuted
    fx = all_fixtures["fig_noncancellative_central"]
    cert = verify_central(fx.quiver, distinguished_candidate(fx), SearchBounds(0, 2))
    assert cert.verdict == "unknown"
    assert cert.central is False


def test_power_search_keeps_refused_and_undecided_apart(all_contractions, monkeypatch):
    c = all_contractions["fig_iso_R"]
    assert power_in_reduced_center(c, (1, 1, 2), n_max=1) == (None, "no")
    # past its cycle cap the reduced-center search decides nothing
    monkeypatch.setattr(monomial_algebra, "_MAX_CYCLES", 3)
    assert power_in_reduced_center(c, (1, 1, 2), n_max=1) == (None, "unknown")


def test_distinguished_components_commute(all_fixtures):
    fx = all_fixtures["fig_noncancellative_central"]
    z = distinguished_candidate(fx)
    assert commutation_property_check(fx.quiver, z) == "equal"


def test_zero_candidate_commutes_vacuously(deformation):
    z = CentralCandidate({})
    assert not z.components
    cert = verify_central(deformation.quiver, z)
    assert cert.central


def test_sigma_sum_to_power_zero_is_the_unit(all_fixtures):
    for name, fx in all_fixtures.items():
        q = fx.quiver
        z = sigma_sum_candidate(q, 0)
        assert z.components == {v: [(1, PathWord(v, ()))] for v in range(q.num_vertices)}
        assert verify_central(q, z).central, name
    with pytest.raises(DomainError):
        sigma_sum_candidate(q, -1)


def test_zero_monomial_is_the_image_of_the_unit(all_contractions):
    for name, c in all_contractions.items():
        res = reduced_center_contains(c, (0,) * len(c.catalog))
        assert res.verdict == "yes", name
        assert res.witness.components == sigma_sum_candidate(c.source, 0).components
        assert verify_central(c.source, res.witness).central, name


def test_sigma_in_reduced_center(deformation_contraction):
    res = reduced_center_contains(deformation_contraction, sigma(deformation_contraction))
    assert res.verdict == "yes"
    cert = verify_central(deformation_contraction.source, res.witness)
    assert cert.central


def test_x_squared_in_reduced_center(deformation_contraction):
    c = deformation_contraction
    a, b, _ = quadratic_pattern_indices(source_cycle_algebra_generators(c))
    x2 = tuple(2 if k == a else 0 for k in range(3))
    res = reduced_center_contains(c, x2)
    assert res.verdict == "yes"
    cert = verify_central(c.source, res.witness)
    assert cert.central


def test_loop_sigma_not_in_reduced_center(iso_r_contraction, iso_r):
    c = iso_r_contraction
    _, _, z_idx = quadratic_pattern_indices(source_cycle_algebra_generators(c))
    zsigma = mon_add(sigma(c), tuple(1 if k == z_idx else 0 for k in range(3)))
    res = reduced_center_contains(c, zsigma)
    assert res.verdict == "no"
    i = iso_r.expected["marked_vertex"][0]
    assert res.candidate_counts[i] == 6
    assert res.class_counts[i] == 5
    # it does sit in the homotopy center, so the containment is strict
    assert homotopy_center_contains(c, zsigma).verdict == "yes"


def test_reduced_center_refusals_name_their_reason(iso_r_contraction):
    c = iso_r_contraction
    # outside the homotopy center: refused before any cycle is listed
    res = reduced_center_contains(c, (0, 0, 1))
    assert (res.verdict, res.reason, res.failing_vertex) == ("no", "not_in_homotopy_center", 1)
    # sigma^12 has more cycles at a vertex than cycles_with_image lists
    res = reduced_center_contains(c, (12, 12, 12))
    assert (res.verdict, res.reason) == ("unknown", "cycle_enumeration_budget")


def test_powers_of_nondivisible_monomials(deformation_contraction):
    c = deformation_contraction
    gens = source_cycle_algebra_generators(c)
    a, b, _ = quadratic_pattern_indices(gens)
    for idx in (a, b):
        g = tuple(2 if k == idx else 0 for k in range(3))
        n, verdict = power_in_reduced_center(c, g, n_max=2)
        assert (n, verdict) == (1, "yes")


def test_sigma_power_is_one(deformation_contraction):
    n, verdict = power_in_reduced_center(deformation_contraction, sigma(deformation_contraction), n_max=2)
    assert (n, verdict) == (1, "yes")


def test_deformation_loop_sigma_power_is_one(deformation_contraction):
    # on this quiver the same monomial pattern that fails on the larger
    # example is already a central image
    c = deformation_contraction
    _, _, z_idx = quadratic_pattern_indices(source_cycle_algebra_generators(c))
    zsigma = mon_add(sigma(c), tuple(1 if k == z_idx else 0 for k in range(3)))
    n, verdict = power_in_reduced_center(c, zsigma, n_max=2)
    assert (n, verdict) == (1, "yes")


def test_mismatched_images_survive_contraction(deformation_contraction):
    # a difference of cycles with distinct monomial images cannot vanish
    # in the target, where paths are separated by their monomials
    c = deformation_contraction
    q = c.source
    u = PathWord(0, (0, 2, 5))        # unit cycle, image all-ones
    w = PathWord(0, (6, 0, 2, 5))     # loop then unit cycle, extra exponent
    z = CentralCandidate({0: [(Fraction(1), u), (Fraction(-1), w)]})
    rep = nilpotency_and_kernel_check(c, z)
    assert rep.psi_z_zero == "not_equal"


def test_certified_central_images_agree_across_vertices(all_fixtures, all_contractions):
    # the image of a central element does not depend on the vertex used
    # to read it off
    from dimeralg.contraction import tau_psi

    for name, c in all_contractions.items():
        z = sigma_sum_candidate(c.source)
        assert verify_central(c.source, z).central
        images = set()
        for v, terms in z.components.items():
            total = None
            for coef, w in terms:
                img = tau_psi(c, w)
                total = img if total is None else tuple(
                    a + b for a, b in zip(total, img)
                )
            images.add(total)
        assert len(images) == 1, name


@pytest.mark.slow
def test_loop_sigma_square_also_refused(iso_r_contraction):
    # the square of the distinguished monomial still has no same-image
    # central combination; the certainty comes from a saturated search
    c = iso_r_contraction
    _, _, z_idx = quadratic_pattern_indices(source_cycle_algebra_generators(c))
    zsigma = mon_add(sigma(c), tuple(1 if k == z_idx else 0 for k in range(3)))
    g2 = mon_add(zsigma, zsigma)
    res = reduced_center_contains(c, g2, bounds=SearchBounds(0, 20000))
    assert res.verdict == "no"


# -- the incremental integer elimination against rational Gauss-Jordan --------


def rational_solve(rows, rhs):
    """Gauss-Jordan over Fractions, pivoting on the first nonzero entry at
    or below the current row: one solution, or None if infeasible."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n_cols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for col in range(n_cols):
        piv = next((k for k in range(r, len(m)) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col] != 0:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    if any(m[k][n_cols] != 0 for k in range(r, len(m))):
        return None
    sol = [Fraction(0)] * n_cols
    for k, col in enumerate(pivots):
        sol[col] = m[k][n_cols]
    return sol


@st.composite
def integer_systems(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    rhs = draw(st.lists(entry, min_size=n_rows, max_size=n_rows))
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(integer_systems())
@example(([[1, 1], [1, 1]], [1, 2]))  # infeasible
@example(([[2, 4, 6], [1, 2, 3], [3, 6, 9]], [2, 1, 3]))  # rank one
@example(([[0, 0], [0, 0]], [0, 0]))  # all zero
@example(([[0, 0], [0, 0]], [0, 1]))  # all-zero rows, nonzero right-hand side
@example(([[6, -4], [9, 3]], [2, -5]))  # a solution with denominators
@example(([[1, 2, 0], [2, 4, 0], [0, 1, 1]], [1, 3, 5]))  # infeasible before the last row
@example(([[1, 1], [1, 1], [1, -1], [1, 1]], [2, 2, 0, 2]))  # repeated rows
def test_integer_solve_matches_rational_gauss_jordan(system):
    # rows fed one at a time: the first row refused ends the first
    # infeasible prefix, and a feasible system ends at the batch solution
    rows, rhs = system
    elim = _Elimination(len(rows[0]) if rows else 0)
    refused = next((k for k, (row, b) in enumerate(zip(rows, rhs))
                    if not elim.add([(a, col) for col, a in enumerate(row)], b)), None)
    first_infeasible = next((k for k in range(len(rows))
                             if rational_solve(rows[:k + 1], rhs[:k + 1]) is None), None)
    assert refused == first_infeasible
    if refused is not None:
        return
    got = elim.solution()
    assert got == rational_solve(rows, rhs)
    assert all(isinstance(x, Fraction) for x in got)
    for row, b in zip(rows, rhs):
        assert sum(a * x for a, x in zip(row, got)) == b


# -- the early stop against a reference that splits every arrow ---------------


def reference_reduced_center(c, g, bounds=DEFAULT_BOUNDS):
    """The membership test that splits every arrow and then solves the
    whole system with ``rational_solve``: reduced_center_contains without
    its stop at the first infeasible row."""
    q = c.source
    hc = homotopy_center_contains(c, g)
    if hc.verdict != "yes":
        return ReducedCenterResult("no", failing_vertex=hc.vertex, reason="not_in_homotopy_center")
    if not any(g):
        return ReducedCenterResult("yes", witness=sigma_sum_candidate(q, 0))
    eq = EqualityClasses(RewriteSystem(q), bounds)
    unknowns, counts, ccounts = {}, {}, {}
    n, undecided = 0, False
    for v in range(q.num_vertices):
        try:
            cycles = cycles_with_image(c, v, g)
        except ResourceExhausted:
            return ReducedCenterResult("unknown", reason="cycle_enumeration_budget")
        split, unknown = eq.split(cycles)
        undecided = undecided or unknown > 0
        unknowns[v] = [(n + k, cycles[cls[0]]) for k, cls in enumerate(split)]
        n += len(split)
        counts[v], ccounts[v] = len(cycles), len(split)
    rows, rhs = [], []
    for terms in unknowns.values():
        rows.append([int(any(idx == k for idx, _ in terms)) for k in range(n)])
        rhs.append(1)
    for a in q.arrows:
        products = [(1, idx, PathWord(w.base, w.arrows + (a.id,)))
                    for idx, w in unknowns.get(a.tail, ())]
        products += [(-1, idx, PathWord(a.tail, (a.id,) + w.arrows))
                     for idx, w in unknowns.get(a.head, ())]
        split, unknown = eq.split([word for _, _, word in products])
        undecided = undecided or unknown > 0
        for cls in split:
            row = [0] * n
            for k in cls:
                row[products[k][1]] += products[k][0]
            rows.append(row)
            rhs.append(0)
    sol = rational_solve(rows, rhs)
    if sol is None:
        return ReducedCenterResult("unknown" if undecided else "no", candidate_counts=counts,
                                   class_counts=ccounts, reason="commutation_infeasible")
    witness = CentralCandidate({v: [(sol[idx], w) for idx, w in terms]
                                for v, terms in unknowns.items()})
    return ReducedCenterResult("yes", witness=witness, candidate_counts=counts,
                               class_counts=ccounts)


HSB_REFUSED = ((1, 1, 5), (1, 5, 1), (5, 1, 1))


def test_refusal_stops_at_the_first_infeasible_arrow(iso_r_contraction, monkeypatch):
    # x·y·z² is refused after the 9 vertex splits and 5 of the 17 arrows
    q = iso_r_contraction.source
    assert (q.num_vertices, len(q.arrows)) == (9, 17)
    calls, split = [], EqualityClasses.split
    monkeypatch.setattr(EqualityClasses, "split",
                        lambda self, words: calls.append(1) or split(self, words))
    res = reduced_center_contains(iso_r_contraction, (1, 1, 2))
    assert (res.verdict, res.reason) == ("no", "commutation_infeasible")
    assert len(calls) == 14


def test_early_stop_keeps_every_answer(all_contractions):
    # verdict, reason, counts and witness, on every homotopy-center
    # monomial of degree <= 4 and the three refusals of fig_hsb_ii
    refused = set()
    for name, c in all_contractions.items():
        mons = sorted(homotopy_center_monomials(c, 4), key=lambda m: (sum(m), m))
        if name == "fig_hsb_ii":
            mons += HSB_REFUSED
        for g in mons:
            got, want = reduced_center_contains(c, g), reference_reduced_center(c, g)
            assert got == want, (name, g)
            if got.verdict == "no":
                refused.add((name, g))
    assert refused == {("fig_iso_R", (1, 1, 2))} | {("fig_hsb_ii", g) for g in HSB_REFUSED}


@pytest.mark.parametrize("name,g", [("fig_iso_R", (1, 1, 2)), ("fig_hsb_ii", (1, 1, 5))])
def test_early_stop_flips_no_verdict(all_contractions, name, g):
    # under cut-off bounds a refusal may be decided before the undecided
    # splits a full pass would make; no other verdict may move.  Both
    # monomials turn from unknown to no between the bounds 30 and 31 and
    # 135 and 136, respectively
    c = all_contractions[name]
    cut_off = [SearchBounds(0, m) for m in (1, 2, 4, 16, 30, 31, 64, 135, 136)]
    for bounds in cut_off + [DEFAULT_BOUNDS]:
        got = reduced_center_contains(c, g, bounds).verdict
        want = reference_reduced_center(c, g, bounds).verdict
        assert got == want or (want, got) == ("unknown", "no"), (bounds, want, got)


def test_power_search_needs_a_power_to_try(deformation_contraction):
    for n_max in (0, -1):
        with pytest.raises(DomainError):
            power_in_reduced_center(deformation_contraction, (1, 1, 0), n_max=n_max)
