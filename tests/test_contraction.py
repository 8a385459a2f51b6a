import dataclasses

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg.contraction import (
    ContractionError,
    bigon_reduce,
    contract,
    identity_contraction,
    is_cyclic,
    psi_word,
    reduce_matching,
    reduce_word,
    sigma,
    source_cycle_algebra_generators,
    tau_psi,
)
from dimeralg.acceptance import quadratic_pattern_indices
from dimeralg.matchings import enumerate_perfect_matchings, matching_catalog
from dimeralg.quiver import PathWord, concat, unit_cycle, validate_dimer
from dimeralg.rewriting import RewriteSystem, paths_equal, vertex_simple_cycles


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
            assert entry == tuple(int(img in d) for d in c.catalog.simple), (name, a.id)
            assert sum(entry) == sum(1 for d in c.catalog.simple if img in d), (name, a.id)


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
    for name, c in all_contractions.items():
        q = c.source
        ones = sigma(c)
        for f in q.faces:
            base = q.arrow(f.boundary[0]).tail
            assert tau_psi(c, PathWord(base, f.boundary)) == ones, name


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


def test_deformation_is_cyclic(deformation_contraction):
    rep = is_cyclic(deformation_contraction, degree_bound=8)
    assert rep.cyclic_up_to_bound
    assert rep.cancellative_target is True
    assert quadratic_pattern_indices(rep.source_generators) is not None
    assert rep.source_generators == rep.target_generators


def test_iso_r_is_cyclic(iso_r_contraction):
    rep = is_cyclic(iso_r_contraction, degree_bound=8)
    assert rep.semigroups_match
    assert quadratic_pattern_indices(rep.source_generators) is not None


def test_identity_contraction_is_cyclic():
    q = fixtures_mod.conifold_quiver()
    rep = is_cyclic(identity_contraction(q), degree_bound=6)
    assert rep.cyclic_up_to_bound
    assert rep.source_generators == rep.target_generators


def test_bigon_reduce_no_op(deformation_contraction):
    red = bigon_reduce(deformation_contraction.target, to_fixpoint=True)
    assert not red.changed
    assert red.quiver == deformation_contraction.target


def test_iso_r_target_reduces_to_two_loops(iso_r_contraction):
    red = bigon_reduce(iso_r_contraction.target, to_fixpoint=True)
    assert len(red.steps) == 2
    t = red.quiver
    assert t.num_vertices == 2 and len(t.arrows) == 6
    assert sorted(len(f.boundary) for f in t.faces) == [3, 3, 3, 3]
    assert validate_dimer(t).ok
    assert len(matching_catalog(t)) == 3


def test_nested_target_reduces_to_conifold():
    fx = fixtures_mod.fixture("fig_nested(1)")
    c = contract(fx.quiver, fx.contraction_arrows)
    red = bigon_reduce(c.target, to_fixpoint=True)
    t = red.quiver
    assert t.num_vertices == 2
    assert len(t.arrows) == 4
    assert sorted(len(f.boundary) for f in t.faces) == [4, 4]
    assert len(enumerate_perfect_matchings(t)) == 4
    assert len(matching_catalog(t)) == 4


def test_matching_transport_through_reduction(iso_r_contraction):
    c = iso_r_contraction
    red = bigon_reduce(c.target, to_fixpoint=True)
    reduced_simple = set(matching_catalog(red.quiver).simple)
    transported = {reduce_matching(red, d) for d in c.catalog.simple}
    assert transported == reduced_simple


def test_cycle_algebra_survives_reduction(iso_r_contraction):
    # images of source cycles agree whether computed in the contracted
    # quiver or pushed through the 2-cycle removals, up to the canonical
    # matching correspondence
    c = iso_r_contraction
    red = bigon_reduce(c.target, to_fixpoint=True)
    reduced_catalog = matching_catalog(red.quiver)
    order = [reduced_catalog.index_of(reduce_matching(red, d)) for d in c.catalog.simple]
    for cyc in vertex_simple_cycles(c.source):
        direct = tau_psi(c, cyc)
        pushed_word = reduce_word(red, psi_word(c, cyc).arrows)
        counts = [0] * len(reduced_catalog)
        for aid in pushed_word:
            for k, d in enumerate(reduced_catalog.simple):
                if aid in d:
                    counts[k] += 1
        assert direct == tuple(counts[k] for k in order)


def test_nested_outer_cycle_becomes_unit_cycle():
    fx = fixtures_mod.fixture("fig_nested(1)")
    c = contract(fx.quiver, fx.contraction_arrows)
    red = bigon_reduce(c.target, to_fixpoint=True)
    outer = PathWord(0, (0, 1, 2, 3))
    word = reduce_word(red, psi_word(c, outer).arrows)
    rotations = {word[k:] + word[:k] for k in range(len(word))}
    assert any(tuple(f.boundary) in rotations for f in red.quiver.faces)
