"""Re-derivation of every claim a fixture carries in its expected map.

The checking code always goes through the public library operations, so
it doubles as an end-to-end exercise of the pipeline; the CLI exposes it
under ``fixtures --check``.
"""

from __future__ import annotations

from fractions import Fraction

from .center import CentralCandidate, nilpotency_and_kernel_check, reduced_center_contains
from .contraction import (
    ContractionError,
    contract,
    is_cyclic,
    sigma,
    source_cycle_algebra_generators,
    tau_psi,
)
from .fixtures import Fixture
from .matchings import matching_catalog
from .monomial_algebra import (
    degree,
    homotopy_center_monomials,
    ideal_monomials,
    mon_add,
)
from .normality import normality_report
from .quiver import PathWord, bigon_reduce, concat, unit_cycle
from .rewriting import RewriteSystem, find_noncancellative_pair, paths_equal


def quadratic_pattern_indices(gens):
    """For a generator set of the shape {a^2, ab, b^2, c}, return the
    indices (a, b, c); None when the shape does not match."""
    if len(gens) != 4 or len(gens[0]) != 3:
        return None
    deg1 = [g for g in gens if degree(g) == 1]
    if len(deg1) != 1:
        return None
    c_idx = deg1[0].index(1)
    others = [k for k in range(3) if k != c_idx]
    a, b = others
    want = {
        tuple(2 if k == a else 0 for k in range(3)),
        tuple(2 if k == b else 0 for k in range(3)),
        tuple(1 if k in (a, b) else 0 for k in range(3)),
        deg1[0],
    }
    return (a, b, c_idx) if want == set(gens) else None


def derive_claims(fx: Fixture) -> dict:
    """Recompute the values of every expected claim of the fixture."""
    q = fx.quiver
    out: dict = {}
    # contract validates its source first, so that check answers "validates"
    try:
        c = contract(q, fx.contraction_arrows)
    except ContractionError as err:
        if err.kind != "invalid_source":
            raise
        out["validates"] = False
        return out
    out["validates"] = True

    if "target_simple_matchings" in fx.expected:
        out["target_simple_matchings"] = len(c.catalog)
    cyclic = None
    if fx.expected.keys() & {
        "cycle_algebra_pattern",
        "cycle_algebras_agree",
        "homotopy_center_is_k_plus_quadratic_ideal",
        "target_cancellative_up_to_bounds",
    }:
        # one target search serves every claim that needs it
        cyclic = is_cyclic(c)
    if "cycle_algebra_pattern" in fx.expected:
        ok = quadratic_pattern_indices(cyclic.source_generators) is not None
        out["cycle_algebra_pattern"] = (
            "two-vars-quadratic-plus-free" if ok and cyclic.semigroups_match else "mismatch"
        )
    if "cycle_algebras_agree" in fx.expected:
        out["cycle_algebras_agree"] = cyclic.semigroups_match
    if "homotopy_center_is_k_plus_quadratic_ideal" in fx.expected:
        gens = cyclic.source_generators
        # the pattern's quadratic monomials are its degree-two generators
        quad = [g for g in gens if degree(g) == 2]
        out["homotopy_center_is_k_plus_quadratic_ideal"] = (
            quadratic_pattern_indices(gens) is not None
            and ideal_monomials(quad, gens, 8) == homotopy_center_monomials(c, 8)
        )
    if "source_noncancellative" in fx.expected:
        rep = find_noncancellative_pair(q, c)
        out["source_noncancellative"] = rep.found
    if "target_cancellative_up_to_bounds" in fx.expected:
        out["target_cancellative_up_to_bounds"] = cyclic.cancellative_target is not False
    if fx.expected.keys() & {"minimal_sigma_power", "normal"}:
        # the report already runs the minimal-power search
        normality = normality_report(c, degree_bound=6)
        if "minimal_sigma_power" in fx.expected:
            out["minimal_sigma_power"] = normality.minimal_power
        if "normal" in fx.expected:
            out["normal"] = normality.normal == "yes"
    if "reduces_to_conifold" in fx.expected:
        red = bigon_reduce(c.target)
        rq = red.quiver
        out["reduces_to_conifold"] = (
            rq.num_vertices == 2
            and len(rq.arrows) == 4
            and sorted(len(f.boundary) for f in rq.faces) == [4, 4]
            and len(matching_catalog(rq)) == 4
        )
    if "target_vertices" in fx.expected:
        out["target_vertices"] = c.target.num_vertices
    if "loop_sigma_not_in_reduced_center" in fx.expected:
        g = mon_add(sigma(c), _free_variable(c))
        res = reduced_center_contains(c, g)
        # the homotopy-center test is reduced_center_contains' own first step
        if "loop_sigma_in_homotopy_center" in fx.expected:
            out["loop_sigma_in_homotopy_center"] = res.reason != "not_in_homotopy_center"
        out["loop_sigma_not_in_reduced_center"] = res.verdict == "no"
        if "witness_cycles_at_i" in fx.expected:
            i = fx.expected["marked_vertex"][0]
            out["witness_cycles_at_i"] = res.candidate_counts.get(i)
            out["witness_classes_at_i"] = res.class_counts.get(i)
            out["marked_vertex"] = i
    if "z_is_central" in fx.expected:
        z = distinguished_candidate(fx)
        rep = nilpotency_and_kernel_check(c, z)
        out["z_is_central"] = rep.central == "equal"
        out["z_squares_to_zero"] = rep.z_squared_zero == "equal"
        out["z_killed_by_contraction"] = rep.psi_z_zero == "equal"
        rs = RewriteSystem(q)
        res = paths_equal(rs, fx.paths["p"], fx.paths["q"])
        out["z_nonzero"] = res.is_not_equal
    if "red_cycle_riso" in fx.expected:
        rs = RewriteSystem(q)
        red_cycle = fx.paths["red_cycle"]
        img = tau_psi(c, red_cycle)
        m = img[0] if len(set(img)) == 1 else None
        claim = None  # undecided stays distinguishable from both answers
        if m is not None:
            power = PathWord(red_cycle.base, unit_cycle(q, red_cycle.base).arrows * m)
            res = paths_equal(rs, red_cycle, power)
            if res.verdict != "unknown":
                claim = res.is_equal
        out["red_cycle_riso"] = claim
    return out


def _free_variable(c):
    """The catalog index whose single variable is a cycle-algebra
    generator, as a unit vector."""
    deg1 = [g for g in source_cycle_algebra_generators(c) if degree(g) == 1]
    if len(deg1) != 1:
        raise ValueError("no unique degree-one generator")
    return deg1[0]


def distinguished_candidate(fx: Fixture) -> CentralCandidate:
    """The central candidate (p - q) completed by the connector arrow on
    both sides, for fixtures that carry the three distinguished paths."""
    q = fx.quiver
    p, r, a = fx.paths["p"], fx.paths["q"], fx.paths["a"]
    one = Fraction(1)
    return CentralCandidate({
        a.base: [(one, concat(q, a, p)), (-one, concat(q, a, r))],
        p.base: [(one, concat(q, p, a)), (-one, concat(q, r, a))],
    })


def check_fixture(fx: Fixture):
    """Compare recomputed claims against the expected map; returns
    (per-claim results, overall flag)."""
    derived = derive_claims(fx)
    results = []
    ok = True
    for claim, (want, tag) in sorted(fx.expected.items()):
        got = derived.get(claim, "<not derived>")
        good = got == want
        ok = ok and good
        results.append({
            "claim": claim,
            "expected": want,
            "derived": got,
            "provenance": tag,
            "ok": good,
        })
    return results, ok
