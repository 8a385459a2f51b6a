import dataclasses
import gc
import itertools
import random
import weakref
from math import prod
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimeralg import fixtures as fixtures_mod
from dimeralg import monomial_algebra, rewriting
from dimeralg.acceptance import quadratic_pattern_indices
from dimeralg.cli import main
from dimeralg.contraction import (
    contract,
    identity_contraction,
    sigma,
    source_cycle_algebra_generators,
)
from dimeralg.monomial_algebra import (
    MonomialAlgebra,
    algebra_contains,
    cycles_with_image,
    degree,
    first_unrealized_goal,
    homotopy_center_contains,
    homotopy_center_monomials,
    ideal_monomials,
    minimal_generators,
    mon_add,
    mon_leq,
    realizable_at_vertex,
    render_monomial,
    semigroup_monomials,
)
from dimeralg.oracles import oracle_membership, oracle_realizable
from dimeralg.quiver import DomainError, PathWord, path_head
from dimeralg.rewriting import ResourceExhausted

from conftest import nn8, per_vertex_contains


QUAD = MonomialAlgebra(((2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)))


def test_unit_monomial_is_always_contained():
    assert algebra_contains(QUAD, (0, 0, 0)) == "yes"


def test_containment_examples():
    assert algebra_contains(QUAD, (1, 1, 0)) == "yes"
    assert algebra_contains(QUAD, (1, 0, 0)) == "no"
    assert algebra_contains(QUAD, (3, 1, 2)) == "yes"   # x^2 * xy * z^2
    assert algebra_contains(QUAD, (0, 1, 3)) == "no"


def test_membership_matches_oracle():
    rng = random.Random(4)
    for _ in range(100):
        dim = rng.choice([2, 3])
        gens = tuple(
            tuple(rng.randrange(3) for _ in range(dim))
            for _ in range(rng.randrange(1, 5))
        )
        alg = MonomialAlgebra(gens)
        g = tuple(rng.randrange(5) for _ in range(dim))
        if degree(g) > 8:
            continue
        fast = algebra_contains(alg, g) == "yes"
        slow = oracle_membership(gens, g)
        assert fast == slow, (gens, g)


BIG = 2 ** 16 + 1


@pytest.mark.parametrize("gens, g", [
    # the unit monomial, with and without generators
    (((1, 0), (0, 2)), (0, 0)),
    ((), (0, 0, 0)),
    # a degree-0 generator is no step at all
    (((0, 0, 0), (1, 1, 0)), (2, 2, 0)),
    (((0, 0), (1, 0)), (0, 1)),
    # generators that are not below g, one far above the packed field width of g
    (((9, 0), (0, 1)), (1, 3)),
    (((0, 40), (1, 1)), (2, 2)),
    (((3, 0), (1, 0)), (2, 0)),
    (((5, 5), (2, 0), (0, 3)), (4, 3)),
    # exponents above 2**16
    (((BIG, 0), (0, 2 * BIG), (BIG, 2 * BIG)), (2 * BIG, 4 * BIG)),
    (((BIG, 0), (0, 2 * BIG)), (BIG, 2 * BIG)),
    (((BIG, 0), (0, 2 * BIG)), (BIG - 1, 2 * BIG)),
    (((BIG, 0), (0, 2 * BIG)), (BIG, 2 * BIG + 1)),
    # generators of several degrees
    (((1, 0, 0), (0, 2, 1), (3, 0, 2), (1, 1, 1)), (4, 3, 4)),
    (((1, 0, 0), (0, 2, 1), (3, 0, 2), (1, 1, 1)), (0, 3, 2)),
    (((2, 0, 1), (0, 1, 3), (4, 4, 0)), (6, 5, 4)),
    (((2, 0, 1), (0, 1, 3), (4, 4, 0)), (6, 4, 1)),
])
def test_membership_edge_cases_match_oracle(gens, g):
    expected = oracle_membership(gens, g, max_degree=degree(g))
    assert (algebra_contains(MonomialAlgebra(gens), g) == "yes") == expected


def test_minimal_generators_match_oracle():
    # irreducible = not a sum of the other monomials of lower degree
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.choice([2, 3])
        mons = {tuple(rng.randrange(4) for _ in range(dim)) for _ in range(rng.randrange(1, 9))}
        mons.discard((0,) * dim)
        want = sorted(
            (m for m in mons
             if not oracle_membership([k for k in mons if degree(k) < degree(m)], m)),
            key=lambda m: (degree(m), m),
        )
        assert minimal_generators(mons) == want, mons


def test_render():
    assert render_monomial((0, 0, 0)) == "1"
    assert render_monomial((1, 1, 2)) == "x*y*z^2"


def test_minimal_generators_drop_sums():
    gens = minimal_generators([(2, 0), (0, 2), (2, 2), (4, 0)])
    assert gens == [(0, 2), (2, 0)]


def test_sigma_realizable_everywhere_with_unit_cycle_witness(all_contractions):
    for name, c in all_contractions.items():
        ones = sigma(c)
        for i in range(c.source.num_vertices):
            res = realizable_at_vertex(c, i, ones)
            assert res.verdict == "yes", (name, i)
            w = res.witness
            assert w.base == i and path_head(c.source, w) == i


def test_center_membership_is_the_per_vertex_search(all_contractions):
    # the one-goal every-vertex search against a witness search per
    # vertex: same verdict and same first failing vertex
    for name, c in all_contractions.items():
        for g in itertools.product(range(7), repeat=len(c.catalog)):
            if degree(g) <= 6:
                res = homotopy_center_contains(c, g)
                assert (res.verdict, res.vertex) == per_vertex_contains(c, g), (name, g)


def test_single_variable_not_realizable_on_deformation(deformation_contraction):
    c = deformation_contraction
    gens = source_cycle_algebra_generators(c)
    _, _, z_idx = quadratic_pattern_indices(gens)
    x_idx = next(k for k in range(3) if k != z_idx)
    g = tuple(1 if k == x_idx else 0 for k in range(3))
    res = homotopy_center_contains(c, g)
    assert res.verdict == "no"
    assert res.vertex is not None


def test_realizability_matches_flow_oracle(deformation_contraction):
    c = deformation_contraction
    vectors = [
        (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0),
        (1, 1, 1), (0, 2, 0), (0, 1, 1), (2, 0, 1),
    ]
    for g in vectors:
        for i in range(c.source.num_vertices):
            fast = realizable_at_vertex(c, i, g).verdict == "yes"
            slow = oracle_realizable(c, i, g)
            assert fast == slow, (g, i)


def test_realizability_matches_flow_oracle_on_c3():
    c = identity_contraction(fixtures_mod.c3_quiver())
    for g in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0), (0, 2, 2)]:
        fast = realizable_at_vertex(c, 0, g).verdict == "yes"
        slow = oracle_realizable(c, 0, g)
        assert fast == slow, g


def test_witness_cycles_at_marked_vertex(iso_r_contraction, iso_r):
    c = iso_r_contraction
    gens = source_cycle_algebra_generators(c)
    _, _, z_idx = quadratic_pattern_indices(gens)
    zsigma = mon_add(sigma(c), tuple(1 if k == z_idx else 0 for k in range(3)))
    i = iso_r.expected["marked_vertex"][0]
    cycles = cycles_with_image(c, i, zsigma)
    assert len(cycles) == 6
    for w in cycles:
        assert w.base == i and path_head(c.source, w) == i


def test_zero_image_walks_end_at_the_revisit_guard(iso_r):
    # uncontracted fig_iso_R has an empty catalog, so every arrow image is
    # (): a closed walk revisits its start without spending, the guard
    # cuts it, and no vertex has a cycle of image ()
    c = identity_contraction(iso_r.quiver)
    assert c.catalog == () and set(c.source_images) == {()}
    for v in range(c.source.num_vertices):
        assert cycles_with_image(c, v, ()) == []


def test_homotopy_center_examples(deformation_contraction):
    c = deformation_contraction
    assert homotopy_center_contains(c, sigma(c)).verdict == "yes"
    gens = source_cycle_algebra_generators(c)
    _, _, z_idx = quadratic_pattern_indices(gens)
    others = [k for k in range(3) if k != z_idx]
    x2 = tuple(2 if k == others[0] else 0 for k in range(3))
    x1 = tuple(1 if k == others[0] else 0 for k in range(3))
    z1 = tuple(1 if k == z_idx else 0 for k in range(3))
    assert homotopy_center_contains(c, x2).verdict == "yes"
    assert homotopy_center_contains(c, x1).verdict == "no"
    assert homotopy_center_contains(c, z1).verdict == "no"


def test_iso_r_loop_sigma_in_center(iso_r_contraction):
    c = iso_r_contraction
    gens = source_cycle_algebra_generators(c)
    _, _, z_idx = quadratic_pattern_indices(gens)
    zsigma = mon_add(sigma(c), tuple(1 if k == z_idx else 0 for k in range(3)))
    assert homotopy_center_contains(c, zsigma).verdict == "yes"


def test_deformation_center_is_quadratic_ideal(deformation_contraction):
    c = deformation_contraction
    bound = 8
    gens = source_cycle_algebra_generators(c)
    a, b, _ = quadratic_pattern_indices(gens)
    quad = [
        tuple(2 if k == a else 0 for k in range(3)),
        tuple(2 if k == b else 0 for k in range(3)),
        tuple(1 if k in (a, b) else 0 for k in range(3)),
    ]
    smons = semigroup_monomials(gens, bound)
    expected = set()
    for m in quad:
        expected.add(m)
        for s in smons:
            if degree(mon_add(m, s)) <= bound:
                expected.add(mon_add(m, s))
    assert set(homotopy_center_monomials(c, bound)) == expected


def test_generator_stability_under_bigger_bound(deformation_contraction):
    c = deformation_contraction
    g8 = minimal_generators(homotopy_center_monomials(c, 8))
    g10 = minimal_generators(homotopy_center_monomials(c, 10))
    # what was minimal stays minimal; only new, higher-degree generators
    # may appear
    assert set(g8) <= set(g10)
    assert {g for g in g10 if degree(g) <= 8} == set(g8)


def test_center_contained_in_cycle_algebra(all_contractions):
    for name, c in all_contractions.items():
        bound = 6
        r = homotopy_center_monomials(c, bound)
        s = semigroup_monomials(source_cycle_algebra_generators(c), bound)
        assert r <= s, name


def test_center_equals_cycle_algebra_without_contraction():
    # with nothing contracted on a quiver free of cancellation failures,
    # every vertex realizes every cycle image, so the intersection is the
    # whole algebra
    c = identity_contraction(fixtures_mod.conifold_quiver())
    bound = 6
    r = homotopy_center_monomials(c, bound)
    s = semigroup_monomials(source_cycle_algebra_generators(c), bound)
    assert r == s


def _per_vector_center(c, bound):
    """The homotopy center tested one exponent vector at a time: the
    reference for the one-sweep table."""
    return {
        g for g in itertools.product(range(bound + 1), repeat=len(c.catalog))
        if 0 < degree(g) <= bound and homotopy_center_contains(c, g).verdict == "yes"
    }


def test_center_table_matches_per_vector_filter(all_contractions):
    contractions = dict(all_contractions)
    contractions["c3"] = identity_contraction(fixtures_mod.c3_quiver())
    contractions["conifold"] = identity_contraction(fixtures_mod.conifold_quiver())
    for name, c in contractions.items():
        # membership does not depend on the bound, so one reference at
        # the top bound serves every lower one
        ref = _per_vector_center(c, 6)
        for bound in range(7):
            want = {g for g in ref if degree(g) <= bound}
            assert homotopy_center_monomials(c, bound) == want, (name, bound)


def test_ideal_monomials_by_hand():
    gens, mult = [(1, 1), (0, 4)], [(1, 0), (0, 2)]
    assert ideal_monomials(gens, mult, 4) == {(1, 1), (2, 1), (3, 1), (1, 3), (0, 4)}
    assert ideal_monomials(gens, mult, 3) == {(1, 1), (2, 1)}
    assert ideal_monomials(gens, [], 4) == {(1, 1), (0, 4)}


# -- the degree-bounded closure against the exhaustive-sum oracle -------------

CLOSURE = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def closure_cases(draw):
    """(dim, starts, multipliers, degree bound) with small exponents; the
    bound runs from -1, and starts and multipliers may lie above it."""
    dim = draw(st.integers(1, 3))
    mon = st.tuples(*[st.integers(0, 3)] * dim)
    return (dim, draw(st.lists(mon, max_size=4)), draw(st.lists(mon, max_size=4)),
            draw(st.integers(-1, 6)))


CLOSURE_EDGES = [
    (2, [], [(1, 0), (0, 1)], 3),            # no starts
    (2, [(1, 1), (0, 2)], [], 4),            # no multipliers
    (2, [(1, 0)], [(0, 0), (0, 1)], 3),      # a zero multiplier
    (2, [(1, 0)], [(1, 1)], -1),
    (2, [(0, 0), (1, 0)], [(1, 0)], 0),
    (3, [(3, 3, 0), (1, 0, 0)], [(2, 2, 2), (0, 1, 0)], 3),  # starts and multipliers above D
    (1, [(2,)], [(3,)], 6),
]


def _check_closures(case):
    """Both closures against the oracle on every monomial of degree at
    most the bound."""
    dim, gens, mult, bound = case
    box = [m for m in itertools.product(range(bound + 1), repeat=dim) if degree(m) <= bound]
    assert semigroup_monomials(mult, bound) == {
        m for m in box if degree(m) > 0 and oracle_membership(mult, m)
    }
    assert ideal_monomials(gens, mult, bound) == {
        m for m in box
        if any(mon_leq(g, m) and (m == g or oracle_membership(mult, tuple(map(sub, m, g))))
               for g in gens)
    }


@CLOSURE
@given(closure_cases())
def test_closures_match_oracle(case):
    _check_closures(case)


@pytest.mark.parametrize("case", CLOSURE_EDGES)
def test_closure_edges_match_oracle(case):
    _check_closures(case)


def test_monomials_of_another_length_are_refused():
    with pytest.raises(DomainError, match="different catalog"):
        algebra_contains(QUAD, (1, 1))
    with pytest.raises(DomainError, match="different catalog"):
        algebra_contains(QUAD, (2,))
    with pytest.raises(DomainError, match="different catalog"):
        MonomialAlgebra(((1, 0), (0, 1, 0)))
    with pytest.raises(DomainError, match="different catalog"):
        semigroup_monomials([(1, 0), (0, 1, 0)], 2)
    with pytest.raises(DomainError, match="different catalog"):
        ideal_monomials([(1, 0)], [(0, 1, 0)], 2)
    # with no generators there is nothing to disagree with
    assert algebra_contains(MonomialAlgebra(()), (0, 0, 0)) == "yes"


def test_vertex_out_of_range_is_a_domain_error(deformation_contraction):
    with pytest.raises(DomainError, match="vertex 99 out of range"):
        realizable_at_vertex(deformation_contraction, 99, (1, 0, 0))


def test_layouts_are_kept_per_contraction(deformation):
    c = contract(deformation.quiver, deformation.contraction_arrows)
    homotopy_center_monomials(c, 4)
    layouts = monomial_algebra._packings[c]
    assert layouts
    # each layout keeps the point layout and steps of its sweeps
    points = monomial_algebra._packing(c, 4).points
    homotopy_center_monomials(c, 4)
    assert monomial_algebra._packing(c, 4).points is points
    # a copy is another contraction and starts with no layouts
    assert dataclasses.replace(c) not in monomial_algebra._packings
    # the map does not keep a contraction alive, and its entry goes with it
    gone = weakref.ref(c)
    del c
    gc.collect()
    assert gone() is None
    assert all(v is not layouts for v in monomial_algebra._packings.values())


def test_negative_exponent_is_a_domain_error(deformation_contraction):
    # (1, -1, 0) has degree 0 but is no monomial; it is not the trivial path
    with pytest.raises(DomainError):
        realizable_at_vertex(deformation_contraction, 0, (1, -1, 0))
    with pytest.raises(DomainError):
        cycles_with_image(deformation_contraction, 0, (1, -1, 0))
    with pytest.raises(DomainError):
        homotopy_center_contains(deformation_contraction, (1, -1, 0))


# -- the packed realizability search against a tuple-state reference ----------


def naive_reach(c, i, fits, goal=None):
    """Breadth-first search over (vertex, exponents spent) tuples from
    (i, 0), in out_arrows order, keeping each state whose exponents
    ``fits`` accepts and stopping after the layer that reaches ``goal``:
    the first-reached parent map, state -> (previous state, arrow id)."""
    start = (i, (0,) * len(c.catalog))
    parent = {start: None}
    frontier = [start]
    while frontier and goal not in parent:
        nxt = []
        for node in frontier:
            v, spent = node
            for a in c.source.out_arrows(v):
                state = (a.head, mon_add(spent, c.source_images[a.id]))
                if state not in parent and fits(state[1]):
                    parent[state] = (node, a.id)
                    nxt.append(state)
        frontier = nxt
    return parent


def naive_realizable(c, i, g):
    """(verdict, states, witness arrows) of the tuple-state reference."""
    goal = (i, g)
    parent = naive_reach(c, i, lambda spent: mon_leq(spent, g), goal)
    if goal not in parent:
        return "no", len(parent), None
    word, node = [], goal
    while parent[node] is not None:
        node, aid = parent[node]
        word.append(aid)
    return "yes", len(parent), tuple(reversed(word))


def packed_realizable(c, i, g):
    res = realizable_at_vertex(c, i, g)
    return res.verdict, res.states, None if res.witness is None else res.witness.arrows


DIFFERENTIAL = ("fig_deformation", "fig_iso_R", "fig_nested(2)")


def test_packed_search_matches_tuple_reference(all_contractions):
    for name in DIFFERENTIAL:
        c = all_contractions[name]
        for g in itertools.product(range(5), repeat=len(c.catalog)):
            if degree(g) > 4:
                continue
            for i in range(c.source.num_vertices):
                assert packed_realizable(c, i, g) == naive_realizable(c, i, g), (name, i, g)


def test_packed_search_across_field_widths():
    # exponents and degrees on both sides of 2**k, where a packed field
    # needs one more bit
    c = identity_contraction(fixtures_mod.c3_quiver())
    for k in (3, 7):
        for e in range(2 ** k - 3, 2 ** k + 2):
            for g in [(e, 0, 0), (0, e, 1), (e, e, 0), (1, e, e - 1)]:
                assert packed_realizable(c, 0, g) == naive_realizable(c, 0, g), g


def test_zero_monomial_is_the_empty_walk(all_contractions):
    for name, c in all_contractions.items():
        for i in range(c.source.num_vertices):
            res = realizable_at_vertex(c, i, (0,) * len(c.catalog))
            assert res.verdict == "yes" and res.witness == PathWord(i, ()), (name, i)
            assert res.states == 1


def test_center_table_is_realizable_at_every_vertex(all_contractions):
    for name in DIFFERENTIAL:
        c = all_contractions[name]
        ref = {
            g for g in itertools.product(range(5), repeat=len(c.catalog))
            if 0 < degree(g) <= 4
            and all(naive_realizable(c, i, g)[0] == "yes" for i in range(c.source.num_vertices))
        }
        for bound in (-1, 0, 1, 4):
            want = {g for g in ref if degree(g) <= bound}
            assert homotopy_center_monomials(c, bound) == want, (name, bound)


def test_center_table_searches_share_one_budget(deformation_contraction, monkeypatch):
    # the budget counts the distinct (vertex, exponent) states of the one
    # sweep: the union of what the searches from each vertex reach
    c = deformation_contraction
    bound = 6
    states = len(naive_masks(c, range(c.source.num_vertices), lambda spent: degree(spent) <= bound))
    monkeypatch.setattr(rewriting, "MAX_STATES", states - 1)
    with pytest.raises(ResourceExhausted):
        homotopy_center_monomials(c, bound)
    monkeypatch.setattr(rewriting, "MAX_STATES", states)
    assert homotopy_center_monomials(c, bound)


# -- the every-vertex sweep against the per-vertex tuple-state reference ------


def naive_masks(c, starts, fits):
    """(vertex, exponents) -> bitmask of the start vertices whose
    ``naive_reach`` reaches it."""
    masks = {}
    for v in starts:
        for state in naive_reach(c, v, fits):
            masks[state] = masks.get(state, 0) | 1 << v
    return masks


def state_masks(packing, caps, deg_cap):
    """``_reach_all`` on ``packing``, as tuple states with a nonzero mask:
    entry v of the row at point x is the mask of the state (v, x)."""
    points, rows = monomial_algebra._reach_all(packing, caps, deg_cap, rewriting.MAX_STATES)
    return {(v, points.exponents(p)): m for p, row in rows.items() for v, m in enumerate(row) if m}


def sweep_masks(c, caps, deg_cap):
    """``_reach_all`` on the layout of ``deg_cap``, as tuple states."""
    return state_masks(monomial_algebra._packing(c, deg_cap), caps, deg_cap)


def box(caps, deg_cap):
    return lambda spent: mon_leq(spent, caps) and degree(spent) <= deg_cap


def test_sweep_matches_per_vertex_reference(sweep_contractions):
    # the degree-bounded boxes of the center table, and the box of the
    # round of sigma * S, the componentwise max of its goals, whose caps
    # differ from each other and from the degree cap
    for name, c in sweep_contractions.items():
        goals = [mon_add(sigma(c), g) for g in source_cycle_algebra_generators(c)]
        boxes = [((bound,) * len(c.catalog), bound) for bound in range(7)]
        boxes.append((tuple(map(max, zip(*goals))), max(map(degree, goals))))
        for caps, deg_cap in boxes:
            want = naive_masks(c, range(c.source.num_vertices), box(caps, deg_cap))
            assert sweep_masks(c, caps, deg_cap) == want, (name, caps, deg_cap)


def test_sweep_closes_zero_image_cycles():
    # nn8 uncontracted has no simple matching, so every arrow has the
    # empty image and the zero-image arrows carry directed cycles
    c = identity_contraction(nn8())
    assert c.catalog == () and set(c.source_images) == {()}
    for bound in range(7):
        want = naive_masks(c, range(4), lambda spent: True)
        assert sweep_masks(c, (), bound) == want == {(v, ()): 0b1111 for v in range(4)}
        assert homotopy_center_monomials(c, bound) == frozenset()


@st.composite
def sweep_cases(draw):
    """(vertices, (tail, head, image) arrows, caps, degree cap): a random
    multigraph with 0/1 images over up to 3 exponents, about half of them
    zero, so zero-image cycles of every shape turn up."""
    nv = draw(st.integers(1, 5))
    dim = draw(st.integers(0, 3))
    vertex = st.integers(0, nv - 1)
    image = st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(0, 1)] * dim))
    arrows = draw(st.lists(st.tuples(vertex, vertex, image), max_size=10))
    caps = draw(st.tuples(*[st.integers(0, 3)] * dim))
    return nv, arrows, caps, draw(st.integers(0, 4))


@CLOSURE
@given(sweep_cases())
def test_sweep_matches_reference_on_random_arrows(case):
    nv, arrows, caps, deg_cap = case
    packing = monomial_algebra._Packing((deg_cap + len(caps)).bit_length(), len(caps), nv, arrows)
    got = state_masks(packing, caps, deg_cap)
    fits, want = box(caps, deg_cap), {}
    for v in range(nv):
        seen = {(v, (0,) * len(caps))}
        stack = list(seen)
        while stack:
            u, spent = stack.pop()
            for tail, head, img in arrows:
                state = (head, mon_add(spent, img))
                if tail == u and state not in seen and fits(state[1]):
                    seen.add(state)
                    stack.append(state)
        for state in seen:
            want[state] = want.get(state, 0) | 1 << v
    assert got == want


def test_first_unrealized_goal_is_the_first_failing_pair(sweep_contractions):
    # the least failing goal, at the first vertex where it fails: what one
    # witness search per (goal, vertex), in that order, returns
    for name, c in sweep_contractions.items():
        gens = source_cycle_algebra_generators(c)
        for n in range(4):
            goals = [mon_add((n,) * len(c.catalog), g) for g in gens]
            want = next((
                (k, i) for k, g in enumerate(goals) for i in range(c.source.num_vertices)
                if realizable_at_vertex(c, i, g).verdict != "yes"
            ), None)
            assert first_unrealized_goal(c, goals) == want, (name, n)


def test_sweep_past_the_budget_is_undecided(deformation_contraction, monkeypatch, capsys):
    # the round of sigma * S: every goal's own box fits the budget, the
    # shared sweep does not, and the CLI reports an Unknown
    c = deformation_contraction
    goals = [mon_add(sigma(c), g) for g in source_cycle_algebra_generators(c)]
    caps, deg_cap = tuple(map(max, zip(*goals))), max(map(degree, goals))
    swept = len(naive_masks(c, range(c.source.num_vertices), box(caps, deg_cap)))
    monkeypatch.setattr(rewriting, "MAX_STATES", swept - 1)
    assert all(prod(e + 1 for e in g) * c.source.num_vertices < swept for g in goals)
    with pytest.raises(ResourceExhausted, match="sweep exceeds budget"):
        first_unrealized_goal(c, goals)
    assert main(["normality", "fixture:fig_deformation"]) == 2
    assert capsys.readouterr().err.startswith("undecided: realizability sweep exceeds budget")
    monkeypatch.setattr(rewriting, "MAX_STATES", swept)
    assert first_unrealized_goal(c, goals) is None


# -- the packed cycle-image search against a tuple-state reference ------------


def naive_cycles_with_image(c, i, g):
    """Depth-first search over (vertex, exponents spent) tuples, reversed
    out_arrows order on the stack, with the same rule for zero-image steps
    as ``cycles_with_image`` and a walk cap of (deg g + 1)·V arrows, which
    its docstring shows never binds."""
    q = c.source
    images = c.source_images
    walk_cap = (degree(g) + 1) * q.num_vertices
    out = []
    zero = (0,) * len(g)
    stack = [(i, zero, (), frozenset({(i, zero)}))]
    while stack:
        v, spent, word, zero_seen = stack.pop()
        if word and v == i and spent == g:
            out.append(PathWord(i, word))
            if len(out) > monomial_algebra._MAX_CYCLES:
                raise ResourceExhausted("too many witness cycles")
        if len(word) >= walk_cap:
            continue
        for a in reversed(q.out_arrows(v)):
            ns = mon_add(spent, images[a.id])
            if not mon_leq(ns, g):
                continue
            node = (a.head, ns)
            if ns == spent:
                if node in zero_seen:
                    continue
                stack.append((a.head, ns, word + (a.id,), zero_seen | {node}))
            else:
                stack.append((a.head, ns, word + (a.id,), frozenset({node})))
    out.sort(key=lambda p: (len(p.arrows), p.arrows))
    return out


CYCLE_DIFFERENTIAL = (
    "fig_deformation", "fig_iso_R", "fig_hsb_ii", "fig_noncancellative_central",
    "fig_nested(1)", "fig_nested(2)",
)


def test_packed_cycles_match_tuple_reference(all_contractions):
    for name in CYCLE_DIFFERENTIAL:
        c = all_contractions[name]
        for g in itertools.product(range(3), repeat=len(c.catalog)):
            if degree(g) > 4:
                continue
            for i in range(c.source.num_vertices):
                cycles = cycles_with_image(c, i, g)
                assert cycles == naive_cycles_with_image(c, i, g), (name, i, g)
                # the shortest walk to a nonzero image is always listed
                realizable = realizable_at_vertex(c, i, g).verdict == "yes"
                assert not degree(g) or bool(cycles) == realizable, (name, i, g)


def test_cycle_count_cap_still_raises(iso_r_contraction, monkeypatch):
    c = iso_r_contraction
    g = tuple(2 * e for e in sigma(c))
    found = len(cycles_with_image(c, 0, g))
    assert found > 1
    monkeypatch.setattr(monomial_algebra, "_MAX_CYCLES", found - 1)
    with pytest.raises(ResourceExhausted):
        cycles_with_image(c, 0, g)
    with pytest.raises(ResourceExhausted):
        naive_cycles_with_image(c, 0, g)
    monkeypatch.setattr(monomial_algebra, "_MAX_CYCLES", found)
    assert len(cycles_with_image(c, 0, g)) == found
