"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); stated runtime limits are asserted, not just observed.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.acceptance import distinguished_candidate, quadratic_pattern_indices
from dimeralg.center import (
    CentralCandidate,
    commutation_property_check,
    nilpotency_and_kernel_check,
    power_in_reduced_center,
    reduced_center_contains,
    sigma_sum_candidate,
    verify_central,
)
from dimeralg.contraction import (
    contract,
    sigma,
    source_cycle_algebra_generators,
    tau_psi,
)
from dimeralg.matchings import enumerate_perfect_matchings
from dimeralg.monomial_algebra import (
    MonomialAlgebra,
    algebra_contains,
    degree,
    homotopy_center_contains,
    homotopy_center_monomials,
    is_sigma_power,
    mon_add,
    semigroup_monomials,
)
from dimeralg.normality import minimal_sigma_power, normality_report
from dimeralg.oracles import oracle_matchings, oracle_membership
from dimeralg.quiver import (
    path_homology,
    quiver_from_json,
    quiver_to_json,
    unit_cycle,
)
from dimeralg.rewriting import (
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    lift_is_simple,
    paths_equal,
)

ALL_NAMES = [
    "fig_deformation",
    "fig_iso_R",
    "fig_nested(1)",
    "fig_nested(2)",
    "fig_nested(3)",
    "fig_hsb_ii",
    "fig_noncancellative_central",
]


def _quad_coords(c):
    gens = source_cycle_algebra_generators(c)
    idx = quadratic_pattern_indices(gens)
    assert idx is not None, gens
    return idx  # (a, b, free)


def test_criterion_1_deformation_algebras():
    start = time.time()
    fx = fixtures_mod.fixture("fig_deformation")
    c = contract(fx.quiver, fx.contraction_arrows)
    gens = source_cycle_algebra_generators(c)
    a, b, z = _quad_coords(c)
    expected_gens = {
        tuple(2 if k == a else 0 for k in range(3)),
        tuple(2 if k == b else 0 for k in range(3)),
        tuple(1 if k in (a, b) else 0 for k in range(3)),
        tuple(1 if k == z else 0 for k in range(3)),
    }
    assert set(gens) == expected_gens

    bound = 8
    quad = [g for g in expected_gens if degree(g) == 2]
    smons = semigroup_monomials(gens, bound)
    ideal = set()
    for m in quad:
        ideal.add(m)
        for s in smons:
            p = mon_add(m, s)
            if degree(p) <= bound:
                ideal.add(p)
    assert set(homotopy_center_monomials(c, bound)) == ideal

    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1: PASS cycle algebra generators and center ideal "
          f"reproduced to degree {bound} ({elapsed:.1f}s)")


def test_criterion_2_cancellation():
    bounds = SearchBounds(20, 200000)
    fx = fixtures_mod.fixture("fig_deformation")
    c = contract(fx.quiver, fx.contraction_arrows)
    rep = find_noncancellative_pair(fx.quiver, c, bounds)
    assert rep.found
    assert rep.pair.inequality_reason in ("saturated", "matching_profile", "homology")
    rep_target = find_noncancellative_pair(c.target, bounds=bounds)
    assert not rep_target.found
    print("\nACCEPTANCE 2: PASS certified pair on the source, none on the "
          "target within bounds")


def test_criterion_3_nil_central_element():
    start = time.time()
    fx = fixtures_mod.fixture("fig_noncancellative_central")
    c = contract(fx.quiver, fx.contraction_arrows)
    z = distinguished_candidate(fx)
    rep = nilpotency_and_kernel_check(c, z)
    assert rep.central == "equal"
    assert rep.z_squared_zero == "equal"
    assert rep.psi_z_zero == "equal"
    assert rep.consistent == "equal"
    # nonzero: its defining paths are certainly distinct
    rs = RewriteSystem(fx.quiver)
    assert paths_equal(rs, fx.paths["p"], fx.paths["q"]).is_not_equal
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 3: PASS nilpotent central element certified "
          f"({elapsed:.1f}s)")


def test_criterion_4_center_strictly_smaller():
    fx = fixtures_mod.fixture("fig_iso_R")
    c = contract(fx.quiver, fx.contraction_arrows)
    gens = source_cycle_algebra_generators(c)
    a, b, z = _quad_coords(c)
    expected_gens = {
        tuple(2 if k == a else 0 for k in range(3)),
        tuple(2 if k == b else 0 for k in range(3)),
        tuple(1 if k in (a, b) else 0 for k in range(3)),
        tuple(1 if k == z else 0 for k in range(3)),
    }
    assert set(gens) == expected_gens
    from dimeralg.contraction import target_cycle_algebra_generators

    assert (semigroup_monomials(gens, 8)
            == semigroup_monomials(target_cycle_algebra_generators(c), 8))

    zsigma = mon_add(sigma(c), tuple(1 if k == z else 0 for k in range(3)))
    assert homotopy_center_contains(c, zsigma).verdict == "yes"
    res = reduced_center_contains(c, zsigma)
    assert res.verdict == "no"
    i = fx.expected["marked_vertex"][0]
    assert res.candidate_counts[i] == 6
    assert res.class_counts[i] == 5
    print("\nACCEPTANCE 4: PASS monomial in the homotopy center refused by "
          "the 6-candidate (5 classes) span at the marked vertex")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_5_nested_powers(n):
    fx = fixtures_mod.fixture(f"fig_nested({n})")
    c = contract(fx.quiver, fx.contraction_arrows)
    msp = minimal_sigma_power(c)
    assert msp.n == n
    rep = normality_report(c, degree_bound=6)
    expected = "yes" if n == 1 else "no"
    assert rep.normal == expected
    assert rep.cond_sigma_S == rep.cond_k_plus_m0S == rep.cond_k_plus_ideal == expected
    assert rep.consistent
    print(f"\nACCEPTANCE 5({n}): PASS minimal power {n}, normality "
          f"conditions all {expected}")


def _central_candidates():
    """At least fifty certified-central candidates across the fixtures."""
    out = []
    for name in ALL_NAMES:
        fx = fixtures_mod.fixture(name)
        c = contract(fx.quiver, fx.contraction_arrows)
        for power in (1, 2):
            out.append((name, c, sigma_sum_candidate(fx.quiver, power)))
        # the zero element written as a difference of two unit cycles per
        # vertex, whenever a vertex lies on at least two faces
        comps = {}
        for v in range(fx.quiver.num_vertices):
            faces = [f.id for f in fx.quiver.faces
                     if any(fx.quiver.arrow(aid).tail == v for aid in f.boundary)]
            if len(faces) >= 2:
                comps[v] = [
                    (Fraction(1), unit_cycle(fx.quiver, v, faces[0])),
                    (Fraction(-1), unit_cycle(fx.quiver, v, faces[1])),
                ]
        if comps:
            out.append((name, c, CentralCandidate(comps)))
    # solved witnesses over the small quiver: every non-divisible center
    # monomial yields one
    fx = fixtures_mod.fixture("fig_deformation")
    c = contract(fx.quiver, fx.contraction_arrows)
    rmons = sorted(homotopy_center_monomials(c, 6))
    for g in rmons:
        if min(g) == 0:
            res = reduced_center_contains(c, g)
            assert res.verdict == "yes", g
            out.append(("fig_deformation", c, res.witness))
    # the distinguished nilpotent element and sums with it
    fxn = fixtures_mod.fixture("fig_noncancellative_central")
    cn = contract(fxn.quiver, fxn.contraction_arrows)
    z = distinguished_candidate(fxn)
    out.append(("fig_noncancellative_central", cn, z))
    s = sigma_sum_candidate(fxn.quiver)
    combo = CentralCandidate({
        v: z.components.get(v, []) + s.components.get(v, [])
        for v in set(z.components) | set(s.components)
    })
    out.append(("fig_noncancellative_central", cn, combo))
    doubled = CentralCandidate(
        {v: [(2 * coef, w) for coef, w in terms] for v, terms in z.components.items()}
    )
    out.append(("fig_noncancellative_central", cn, doubled))
    return out


def test_criterion_6_kernel_equals_nilpotents():
    candidates = _central_candidates()
    assert len(candidates) >= 50
    violations = []
    for name, c, z in candidates:
        rep = nilpotency_and_kernel_check(c, z)
        if rep.central != "equal":
            violations.append((name, "not central"))
            continue
        if rep.consistent != "equal":
            violations.append((name, rep.as_dict()))
    assert not violations, violations
    print(f"\nACCEPTANCE 6: PASS kernel/nilpotency equivalence on "
          f"{len(candidates)} certified central candidates")


def test_criterion_7_property_sweeps():
    bound = 6
    checked = {"t_in_s": 0, "st_in_r": 0, "trivial_class": 0, "nonsimple_lift": 0,
               "equal_images": 0, "commute": 0, "nondivisible": 0, "powers": 0}
    for name in ALL_NAMES:
        fx = fixtures_mod.fixture(name)
        q = fx.quiver
        c = contract(q, fx.contraction_arrows)
        dim = len(c.catalog)
        gens = source_cycle_algebra_generators(c)
        ones = sigma(c)
        smons = semigroup_monomials(gens, bound + dim)
        salg = MonomialAlgebra(tuple(gens))

        # multiplying by the all-ones vector never fakes membership
        def vectors(levels):
            if dim == 0:
                return
            def rec(prefix, rest, k):
                if k == dim - 1:
                    for e in range(rest + 1):
                        yield prefix + (e,)
                    return
                for e in range(rest + 1):
                    yield from rec(prefix + (e,), rest - e, k + 1)
            yield from rec((), levels, 0)

        for g in vectors(bound):
            if degree(g) == 0:
                continue
            if mon_add(g, ones) in smons:
                assert algebra_contains(salg, g) == "yes", (name, g)
                checked["t_in_s"] += 1

        rmons = homotopy_center_monomials(c, bound)
        member = {}

        def in_r(v):
            if v not in member:
                member[v] = homotopy_center_contains(c, v).verdict == "yes"
            return member[v]

        for g in sorted(rmons):
            if is_sigma_power(g):
                continue
            for h in sorted(smons):
                if degree(h) > bound:
                    continue
                assert in_r(mon_add(g, h)), (name, g, h)
                checked["st_in_r"] += 1

        # cycles of trivial class have pure sigma-power images; cycles
        # whose doubled lift self-intersects have divisible images
        rs = RewriteSystem(q)
        seen_images = {}
        for v in range(q.num_vertices):
            enum = enumerate_cycles(q, v, min(6, 2 * q.max_face_length()))
            for cyc in enum.cycles:
                u = path_homology(q, cyc)
                img = tau_psi(c, cyc)
                if u == (0, 0):
                    assert len(set(img)) == 1 and img[0] >= 1, (name, cyc)
                    checked["trivial_class"] += 1
                else:
                    if not lift_is_simple(q, cyc):
                        assert min(img) >= 1, (name, cyc)
                        checked["nonsimple_lift"] += 1
                    seen_images.setdefault(img, set()).add(u)
        for img, classes in seen_images.items():
            assert len(classes) == 1, (name, img, classes)
            checked["equal_images"] += 1

        # certified central differences have commuting halves; unit-cycle
        # differences give one real check per multi-face vertex
        comps = {}
        for v in range(q.num_vertices):
            faces = [f.id for f in q.faces
                     if any(q.arrow(aid).tail == v for aid in f.boundary)]
            if len(faces) >= 2:
                comps[v] = [
                    (Fraction(1), unit_cycle(q, v, faces[0])),
                    (Fraction(-1), unit_cycle(q, v, faces[1])),
                ]
        zdiff = CentralCandidate(comps)
        assert verify_central(q, zdiff).central
        assert commutation_property_check(q, zdiff) == "equal"
        checked["commute"] += 1

        # non-divisible center monomials are central images outright
        for g in sorted(rmons):
            if min(g) == 0:
                res = reduced_center_contains(c, g)
                assert res.verdict == "yes", (name, g)
                checked["nondivisible"] += 1

        # sampled center monomials reach the reduced center by power 6;
        # the samples are the all-ones vector, its square, and the first
        # few non-divisible monomials (the same-image candidate search is
        # blind to mixed-image combinations, so divisible non-power
        # monomials can stay out of its reach; see the iso_R tests)
        samples = [ones, mon_add(ones, ones)]
        samples += [g for g in sorted(rmons) if min(g) == 0][:2]
        for g in samples:
            n, verdict = power_in_reduced_center(c, g, n_max=6)
            assert verdict == "yes" and n <= 6, (name, g)
            checked["powers"] += 1

    fxn = fixtures_mod.fixture("fig_noncancellative_central")
    assert commutation_property_check(fxn.quiver, distinguished_candidate(fxn)) == "equal"
    assert all(v > 0 for k, v in checked.items() if k != "nondivisible"), checked
    print(f"\nACCEPTANCE 7: PASS property sweeps clean: {checked}")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(23)
    small = [n for n in ALL_NAMES if len(fixtures_mod.fixture(n).quiver.arrows) <= 20]
    for name in small:
        q = fixtures_mod.fixture(name).quiver
        assert enumerate_perfect_matchings(q) == oracle_matchings(q)
    bases = [fixtures_mod.fixture(n).quiver for n in small]
    bases += [fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
              fixtures_mod.bigon_inserted_c3()]
    randomized = 0
    while randomized < 25:
        base = bases[randomized % len(bases)]
        data = quiver_to_json(base)
        perm = list(range(len(data["arrows"])))
        rng.shuffle(perm)
        data["arrows"] = sorted(
            ({**a, "id": perm[a["id"]]} for a in data["arrows"]), key=lambda a: a["id"]
        )
        faces = []
        for f in data["faces"]:
            k = rng.randrange(len(f))
            faces.append([perm[x] for x in (f[k:] + f[:k])])
        rng.shuffle(faces)
        data["faces"] = faces
        q = quiver_from_json(data)
        assert enumerate_perfect_matchings(q) == oracle_matchings(q)
        randomized += 1

    agreements = 0
    for _ in range(100):
        dim = rng.choice([2, 3, 4])
        gens = tuple(tuple(rng.randrange(3) for _ in range(dim))
                     for _ in range(rng.randrange(1, 5)))
        g = tuple(rng.randrange(4) for _ in range(dim))
        if degree(g) > 6:
            continue
        alg = MonomialAlgebra(gens)
        assert (algebra_contains(alg, g) == "yes") == oracle_membership(gens, g)
        agreements += 1
    assert agreements >= 50
    print(f"\nACCEPTANCE 8: PASS oracles agree on {len(small)} fixtures, "
          f"25 randomized quivers, {agreements} membership queries")


def test_criterion_9_cli_determinism():
    commands = [
        ["matchings", "fixture:fig_deformation"],
        ["normality", "fixture:fig_nested(2)", "--degree-bound", "6"],
        ["center", "fixture:fig_deformation", "--image", "2,0,0"],
        ["cycles", "fixture:fig_iso_R", "--vertex", "2", "--max-len", "6"],
    ]
    for cmd in commands:
        outputs = set()
        for _ in range(3):
            res = subprocess.run(
                [sys.executable, "-m", "dimeralg.cli"] + cmd,
                capture_output=True,
            )
            assert res.returncode == 0, (cmd, res.stderr)
            outputs.add(res.stdout)
        assert len(outputs) == 1, cmd
    print("\nACCEPTANCE 9: PASS byte-identical output over 3 runs per command")
