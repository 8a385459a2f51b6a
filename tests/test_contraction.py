import dataclasses
import itertools

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import (
    ContractionError,
    contract,
    identity_contraction,
    is_cyclic,
    psi_word,
    sigma,
    source_cycle_algebra_generators,
    target_cycle_algebra_generators,
    tau_psi,
)
from dimeralg.acceptance import quadratic_pattern_indices
from dimeralg.matchings import enumerate_perfect_matchings, matching_catalog
from dimeralg.monomial_algebra import cycle_algebra_generators, minimal_generators
from dimeralg.quiver import (
    PathWord,
    bigon_reduce,
    concat,
    path_head,
    quiver_from_json,
    quiver_to_json,
    unit_cycle,
    validate_dimer,
)
from dimeralg.rewriting import (
    RewriteSystem,
    face_rules,
    paths_equal,
    replay_witness,
    vertex_simple_cycles,
)

from conftest import load_torus_cover


def test_identity_contraction(deformation):
    c = identity_contraction(deformation.quiver)
    assert c.target == deformation.quiver
    assert all(n == 1 for n in c.fiber_counts)
    assert c.vertex_map == tuple(range(deformation.quiver.num_vertices))


def test_fiber_counts_sum(all_fixtures, all_contractions):
    for name, c in all_contractions.items():
        assert sum(c.fiber_counts) == c.source.num_vertices
        assert all(n >= 1 for n in c.fiber_counts)


def test_contracting_a_two_cycle_is_rejected():
    q = fixtures_mod.conifold_quiver()
    with pytest.raises(ContractionError) as err:
        contract(q, frozenset({0, 1}))
    assert err.value.kind == "cyclic"


def test_face_collapse_is_rejected(iso_r):
    arrows = set(iso_r.contraction_arrows) | {2}
    with pytest.raises(ContractionError) as err:
        contract(iso_r.quiver, frozenset(arrows))
    assert err.value.kind == "face_collapse"


def test_null_loop_is_rejected():
    q = fixtures_mod.fixture("fig_nested(1)").quiver
    with pytest.raises(ContractionError) as err:
        contract(q, frozenset({0, 5, 7, 9}))
    assert err.value.kind == "null_loop"
    assert str(err.value) == "arrow 14 would become a null-homologous loop"


def test_targets_validate(all_contractions):
    for name, c in all_contractions.items():
        assert validate_dimer(c.target).ok, name


def test_deformation_target_shape(deformation_contraction):
    t = deformation_contraction.target
    assert t.num_vertices == 2
    assert len(t.arrows) == 6
    assert sorted(len(f.boundary) for f in t.faces) == [3, 3, 3, 3]
    # two winding loops survive
    loops = [a for a in t.arrows if a.tail == a.head]
    assert len(loops) == 2 and all(a.homology != (0, 0) for a in loops)


def test_image_table_counts_simple_matchings(all_contractions):
    for name, c in all_contractions.items():
        assert len(c.source_images) == len(c.source.arrows), name
        assert len(c.target_images) == len(c.target.arrows), name
        for a in c.source.arrows:
            entry = c.source_images[a.id]
            if a.id in c.contracted:
                assert entry == (0,) * len(c.catalog), (name, a.id)
                continue
            img = c.arrow_map[a.id]
            assert entry == c.target_images[img], (name, a.id)
            assert entry == tuple(int(img in d) for d in c.catalog), (name, a.id)
            assert sum(entry) == sum(1 for d in c.catalog if img in d), (name, a.id)


def test_tau_psi_sums_the_image_table(all_contractions):
    for name, c in all_contractions.items():
        for cyc in vertex_simple_cycles(c.source):
            total = [0] * len(c.catalog)
            for aid in cyc.arrows:
                for k, e in enumerate(c.source_images[aid]):
                    total[k] += e
            assert tau_psi(c, cyc) == tuple(total), (name, cyc)


def test_cycle_algebra_cache_not_copied(deformation_contraction):
    c = deformation_contraction
    gens = source_cycle_algebra_generators(c)
    copy = dataclasses.replace(c)
    assert "_source_generators" in c.__dict__
    assert "_source_generators" not in copy.__dict__
    assert source_cycle_algebra_generators(copy) == gens


def test_trivial_path_maps_to_unit_monomial(deformation_contraction):
    c = deformation_contraction
    assert tau_psi(c, PathWord(0, ())) == (0, 0, 0)


def test_unit_cycles_map_to_all_ones(all_contractions):
    # so sigma^n, the image of the n-th power of a unit cycle at every
    # vertex, lies in the homotopy center; the sigma^n * S test relies on it
    contractions = dict(all_contractions)
    contractions["c3"] = identity_contraction(fixtures_mod.c3_quiver())
    contractions["conifold"] = identity_contraction(fixtures_mod.conifold_quiver())
    for name, c in contractions.items():
        q = c.source
        ones = sigma(c)
        for f in q.faces:
            base = q.arrow(f.boundary[0]).tail
            assert tau_psi(c, PathWord(base, f.boundary)) == ones, name
        for v in range(q.num_vertices):
            assert tau_psi(c, unit_cycle(q, v)) == ones, name


def test_tau_additive_and_rotation_invariant(deformation_contraction):
    c = deformation_contraction
    q = c.source
    p = PathWord(1, (4, 6, 6, 1))
    r = PathWord(2, (2,))
    joint = tau_psi(c, concat(q, p, r))
    assert joint == tuple(a + b for a, b in zip(tau_psi(c, p), tau_psi(c, r)))
    cyc = PathWord(1, (4, 6, 6, 1, 2))
    rot = PathWord(0, (6, 6, 1, 2, 4))
    assert tau_psi(c, cyc) == tau_psi(c, rot)


def test_tau_constant_on_equal_paths(all_contractions):
    for name, c in all_contractions.items():
        q = c.source
        rs = RewriteSystem(q)
        for v in range(q.num_vertices):
            faces = [f.id for f in q.faces if any(q.arrow(a).tail == v for a in f.boundary)]
            for fid in faces[1:]:
                u1, u2 = unit_cycle(q, v, faces[0]), unit_cycle(q, v, fid)
                assert paths_equal(rs, u1, u2).is_equal
                assert tau_psi(c, u1) == tau_psi(c, u2)


def test_relations_descend_under_psi(deformation_contraction):
    c = deformation_contraction
    rs_src = RewriteSystem(c.source)
    rs_tgt = RewriteSystem(c.target)
    for aid, (left, right) in rs_src.rules.items():
        head = c.source.arrow(aid).head
        lp = psi_word(c, PathWord(head, left))
        rp = psi_word(c, PathWord(head, right))
        assert paths_equal(rs_tgt, lp, rp).is_equal


def _relation_contractions():
    """Every contraction that contract accepts among: the fixtures',
    fig_nested(1..8)'s, every 1-2-arrow one of fig_iso_R and every
    1-3-arrow one of fig_deformation."""
    out = []
    names = ["fig_deformation", "fig_iso_R", "fig_hsb_ii", "fig_noncancellative_central"]
    for name in names + [f"fig_nested({n})" for n in range(1, 9)]:
        fx = fixtures_mod.fixture(name)
        out.append(contract(fx.quiver, fx.contraction_arrows))
    for name, most in (("fig_iso_R", 2), ("fig_deformation", 3)):
        q = fixtures_mod.fixture(name).quiver
        for k in range(1, most + 1):
            for arrows in itertools.combinations(range(len(q.arrows)), k):
                try:
                    out.append(contract(q, arrows))
                except ContractionError:
                    continue
    return out


def test_relations_descend_by_construction():
    # the argument of the contract docstring, checked on data: a surviving
    # arrow's arcs map to the rule arcs of its image, and a contracted
    # arrow's arcs map to two cycles at the merged vertex that a replayed
    # rewrite witness joins in the target
    contractions = _relation_contractions()
    assert len(contractions) == 12 + 141 + 12
    contracted = 0
    for c in contractions:
        target_rules = face_rules(c.target)
        rs = RewriteSystem(c.target)
        for aid, arcs in face_rules(c.source).items():
            a = c.source.arrow(aid)
            left, right = (psi_word(c, PathWord(a.head, arc)) for arc in arcs)
            if aid in c.arrow_map:
                assert (left.arrows, right.arrows) == target_rules[c.arrow_map[aid]]
                continue
            contracted += 1
            w = c.vertex_map[a.head]
            assert left.base == right.base == w
            assert path_head(c.target, left) == path_head(c.target, right) == w
            res = paths_equal(rs, left, right)
            assert res.is_equal, (sorted(c.contracted), aid, res)
            assert replay_witness(rs, left, res.steps)[-1] == right
    assert contracted > 0


def test_invalid_source_is_rejected(deformation):
    # face 0 cut short: the source is no dimer quiver, so no contraction of
    # it is certified, whichever arrows are contracted
    doc = quiver_to_json(deformation.quiver)
    doc["faces"][0] = [0, 2]
    q = quiver_from_json(doc)
    assert not validate_dimer(q).ok
    for arrows in ((), (3,), deformation.contraction_arrows):
        with pytest.raises(ContractionError) as err:
            contract(q, arrows)
        assert err.value.kind == "invalid_source"


def test_deformation_is_cyclic(deformation_contraction):
    rep = is_cyclic(deformation_contraction)
    assert rep.cyclic_up_to_bound
    assert rep.cancellative_target is True
    assert quadratic_pattern_indices(rep.source_generators) is not None
    assert rep.source_generators == rep.target_generators


def test_iso_r_is_cyclic(iso_r_contraction):
    rep = is_cyclic(iso_r_contraction)
    assert rep.semigroups_match
    assert quadratic_pattern_indices(rep.source_generators) is not None


def test_identity_contraction_is_cyclic():
    q = fixtures_mod.conifold_quiver()
    rep = is_cyclic(identity_contraction(q))
    assert rep.cyclic_up_to_bound
    assert rep.source_generators == rep.target_generators


def test_noncancellative_target_is_not_cyclic(iso_r, deformation):
    # fig_iso_R contracted at arrow 0 alone, and fig_deformation not
    # contracted at all, keep a non-cancellative pair in the target
    for c in (contract(iso_r.quiver, [0]), identity_contraction(deformation.quiver)):
        rep = is_cyclic(c)
        assert (rep.cyclic_up_to_bound, rep.cancellative_target) == (False, False)


def test_bigon_reduce_no_op(deformation_contraction):
    t = deformation_contraction.target
    red = bigon_reduce(t)
    assert red.removed == 0
    assert red.quiver == t
    assert red.original_ids == tuple(range(len(t.arrows)))


def test_iso_r_target_reduces_to_two_loops(iso_r_contraction):
    red = bigon_reduce(iso_r_contraction.target)
    assert red.removed == 2
    t = red.quiver
    assert t.num_vertices == 2 and len(t.arrows) == 6
    assert sorted(len(f.boundary) for f in t.faces) == [3, 3, 3, 3]
    assert validate_dimer(t).ok
    assert len(matching_catalog(t)) == 3


def test_nested_target_reduces_to_conifold():
    fx = fixtures_mod.fixture("fig_nested(1)")
    c = contract(fx.quiver, fx.contraction_arrows)
    red = bigon_reduce(c.target)
    t = red.quiver
    assert t.num_vertices == 2
    assert len(t.arrows) == 4
    assert sorted(len(f.boundary) for f in t.faces) == [4, 4]
    assert len(enumerate_perfect_matchings(t)) == 4
    assert len(matching_catalog(t)) == 4


def test_matching_transport_through_reduction(iso_r_contraction):
    # a reduced arrow lies in a simple matching iff its original arrow does
    c = iso_r_contraction
    red = bigon_reduce(c.target)
    transported = {frozenset(k for k, a in enumerate(red.original_ids) if a in d)
                   for d in c.catalog}
    assert transported == set(matching_catalog(red.quiver))


def test_cycle_algebra_survives_reduction(all_contractions):
    # the reduced arrows keep their original arrows' images and generate
    # the target's cycle algebra: the premise of the image buckets of
    # find_noncancellative_pair
    for name, c in all_contractions.items():
        red = bigon_reduce(c.target)
        images = tuple(c.target_images[a] for a in red.original_ids)
        got = cycle_algebra_generators(red.quiver, images)
        assert list(got) == target_cycle_algebra_generators(c), name


def test_nested_outer_cycle_becomes_unit_cycle():
    # the image of fig_nested(1)'s outer cycle is the unit cycle at 0
    fx = fixtures_mod.fixture("fig_nested(1)")
    c = contract(fx.quiver, fx.contraction_arrows)
    outer = psi_word(c, PathWord(0, (0, 1, 2, 3)))
    assert paths_equal(RewriteSystem(c.target), outer, unit_cycle(c.target, 0)).is_equal


def _differential_contractions():
    """Name -> contraction for the cycle-algebra differential test."""
    out = {}
    for name in ("fig_deformation", "fig_iso_R", "fig_hsb_ii", "fig_noncancellative_central"):
        fx = fixtures_mod.fixture(name)
        out[name] = contract(fx.quiver, fx.contraction_arrows)
    for n in range(1, 7):
        fx = fixtures_mod.fixture(f"fig_nested({n})")
        out[f"fig_nested({n})"] = contract(fx.quiver, fx.contraction_arrows)
    torus_cover = load_torus_cover()
    for name in ("c3", "conifold"):
        q = getattr(fixtures_mod, f"{name}_quiver")()
        for n, m in itertools.product(range(1, 4), repeat=2):
            out[f"{name}_{n}x{m}"] = identity_contraction(torus_cover(q, n, m))
    deformation = fixtures_mod.fixture("fig_deformation").quiver
    for n, m in ((2, 2), (3, 2)):
        out[f"fig_deformation_{n}x{m}"] = identity_contraction(torus_cover(deformation, n, m))
    iso_r = fixtures_mod.fixture("fig_iso_R").quiver
    for k in (1, 2):
        for arrows in itertools.combinations(range(len(iso_r.arrows)), k):
            try:
                out[f"fig_iso_R/{arrows}"] = contract(iso_r, arrows)
            except ContractionError:
                continue
    return out


def _simple_cycle_generators(q, images):
    """The reference: minimal generators of the vertex-simple cycle images."""
    found = {
        tuple(map(sum, zip(*(images[aid] for aid in cyc.arrows))))
        for cyc in vertex_simple_cycles(q)
    }
    return minimal_generators(found)


def test_cycle_algebra_generators_match_simple_cycles():
    contractions = _differential_contractions()
    # 10 fixtures, 18 covers of c3 and the conifold, 2 of fig_deformation,
    # and every fig_iso_R contraction of one or two arrows that contract accepts
    assert len(contractions) == 30 + 141
    for name, c in contractions.items():
        assert source_cycle_algebra_generators(c) == _simple_cycle_generators(
            c.source, c.source_images), name
        assert target_cycle_algebra_generators(c) == _simple_cycle_generators(
            c.target, c.target_images), name
