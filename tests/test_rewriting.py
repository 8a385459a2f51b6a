import json

from dimeralg import fixtures as fixtures_mod
from dimeralg.cli import main
from dimeralg.quiver import PathWord, concat, path_homology, unit_cycle
from dimeralg.rewriting import (
    NOT_EQUAL,
    CycleFilter,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    lift_is_simple,
    paths_equal,
    replay_witness,
    vertex_simple_cycles,
)


def test_rule_shapes(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        rs = RewriteSystem(q)
        for a in q.arrows:
            sides = rs.rules[a.id]
            lengths = sorted(len(s) for s in sides)
            face_lengths = sorted(len(f.boundary) for f in q.faces_of_arrow(a.id))
            assert lengths == [fl - 1 for fl in face_lengths]
            for side in sides:
                # each side runs head(a) -> tail(a) and closes a's face
                w = PathWord(a.head, side)
                assert path_homology(q, w) == (-a.homology[0], -a.homology[1])
                assert q.arrow(side[0]).tail == a.head
                assert q.arrow(side[-1]).head == a.tail


def test_bigon_rule_has_length_one_side():
    q = fixtures_mod.bigon_inserted_c3()
    rs = RewriteSystem(q)
    assert any(1 in {len(s) for s in sides} for sides in rs.rules.values())


def test_syntactic_equality_is_equal(deformation):
    rs = RewriteSystem(deformation.quiver)
    p = PathWord(0, (0, 2))
    res = paths_equal(rs, p, p)
    assert res.is_equal and res.steps == ()


def test_unit_cycles_at_common_vertex_agree(all_fixtures):
    for name, fx in all_fixtures.items():
        q = fx.quiver
        rs = RewriteSystem(q)
        for v in range(q.num_vertices):
            cycles = []
            for f in q.faces:
                if any(q.arrow(aid).tail == v for aid in f.boundary):
                    cycles.append(unit_cycle(q, v, f.id))
            for other in cycles[1:]:
                res = paths_equal(rs, cycles[0], other)
                assert res.is_equal, (name, v)


def test_distinguished_paths_differ(all_fixtures):
    fx = all_fixtures["fig_noncancellative_central"]
    rs = RewriteSystem(fx.quiver)
    res = paths_equal(rs, fx.paths["p"], fx.paths["q"])
    assert res.verdict == NOT_EQUAL
    # same endpoints and homology, so the refutation is the closure itself
    assert res.reason == "saturated"


def test_one_complete_side_decides_not_equal(all_fixtures, capsys):
    # At word cap 5 the closure of p is complete and never hits the cap,
    # while the search from q does; p's complete closure alone proves the
    # two distinct, so the cap on q's side must not make the answer Unknown.
    q = all_fixtures["fig_hsb_ii"].quiver
    rs = RewriteSystem(q)
    p, r = PathWord(q.arrow(0).tail, (0, 1, 2, 3)), PathWord(q.arrow(2).tail, (2, 3, 0, 1))
    res = paths_equal(rs, p, r, SearchBounds(5, 200000))
    assert (res.verdict, res.reason) == (NOT_EQUAL, "saturated")
    args = ["eq", "fixture:fig_hsb_ii", "--p", "0,1,2,3", "--q", "2,3,0,1", "--max-word-length", "5"]
    assert main(args) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["verdict"], results["reason"]) == (NOT_EQUAL, "saturated")


def test_witness_replay_preserves_invariants(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        rs = RewriteSystem(q)
        for v in range(q.num_vertices):
            faces = [f.id for f in q.faces if any(q.arrow(a).tail == v for a in f.boundary)]
            if len(faces) < 2:
                continue
            u1 = unit_cycle(q, v, faces[0])
            u2 = unit_cycle(q, v, faces[1])
            res = paths_equal(rs, u1, u2)
            assert res.is_equal
            trail = replay_witness(rs, u1, res.steps)
            assert trail[-1] == u2


def test_equality_is_symmetric_and_reflexive(deformation):
    q = deformation.quiver
    rs = RewriteSystem(q)
    u1 = unit_cycle(q, 0, 0)
    u2 = unit_cycle(q, 0, 1)
    assert paths_equal(rs, u1, u2).is_equal
    assert paths_equal(rs, u2, u1).is_equal
    assert paths_equal(rs, u1, u1).is_equal


def test_arrow_commutes_with_unit_cycles(all_fixtures):
    # moving a unit cycle across any arrow is an equality
    for name, fx in all_fixtures.items():
        q = fx.quiver
        rs = RewriteSystem(q)
        for a in q.arrows:
            left = concat(q, unit_cycle(q, a.tail), PathWord(a.tail, (a.id,)))
            right = concat(q, PathWord(a.tail, (a.id,)), unit_cycle(q, a.head))
            res = paths_equal(rs, left, right)
            assert res.is_equal, (name, a.id)


def test_enumerate_below_girth_is_empty(deformation):
    q = fixtures_mod.conifold_quiver()
    assert enumerate_cycles(q, 0, 1).cycles == []


def test_enumerate_filters(iso_r):
    q = iso_r.quiver
    enum_all = enumerate_cycles(q, 2, 6)
    enum_simple = enumerate_cycles(q, 2, 6, CycleFilter.vertex_simple())
    assert set(c.arrows for c in enum_simple.cycles) <= set(c.arrows for c in enum_all.cycles)
    for c in enum_simple.cycles:
        interior = [q.arrow(a).head for a in c.arrows[:-1]]
        assert len(interior) == len(set(interior))
        assert 2 not in interior
    hom = enumerate_cycles(q, 2, 6, CycleFilter.homology_class((0, 0)))
    for c in hom.cycles:
        assert path_homology(q, c) == (0, 0)


def test_lift_simple_filter_rechecks(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        for v in range(q.num_vertices):
            enum = enumerate_cycles(q, v, 4, CycleFilter.lift_simple())
            for c in enum.cycles:
                assert path_homology(q, c) != (0, 0)
                assert lift_is_simple(q, c)


def test_lift_simple_examples(deformation):
    q = deformation.quiver
    # the winding loop, even doubled, never revisits a lifted vertex
    assert lift_is_simple(q, PathWord(0, (6,)))
    assert lift_is_simple(q, PathWord(0, (6, 6)))
    # gluing a null-homologous unit cycle onto it does revisit one
    assert not lift_is_simple(q, PathWord(0, (6, 0, 2, 5)))


def test_dedup_mod_relations(deformation):
    q = deformation.quiver
    enum = enumerate_cycles(q, 0, 4, dedup_mod_relations=True)
    # the two unit cycles at 0 (lengths 3 and 4) land in one class
    reps = [cls for cls in enum.classes if len(cls) > 1]
    assert reps
    assert enum.unknown_pairs == 0


def test_vertex_simple_cycles_canonical(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        cycles = vertex_simple_cycles(q)
        canon = set()
        for c in cycles:
            rots = {c.arrows[k:] + c.arrows[:k] for k in range(len(c.arrows))}
            assert c.arrows == min(rots)
            assert not (rots & canon)
            canon |= rots


def test_vertex_simple_cycles_match_rotation_classes(all_fixtures):
    # reference: every vertex-simple cycle at every vertex, one per
    # rotation class, rotated to its least arrow word
    for name, fx in all_fixtures.items():
        q = fx.quiver
        canon = set()
        for i in range(q.num_vertices):
            for c in enumerate_cycles(q, i, q.num_vertices, CycleFilter.vertex_simple()).cycles:
                canon.add(min(c.arrows[k:] + c.arrows[:k] for k in range(len(c.arrows))))
        want = [PathWord(q.arrow(w[0]).tail, w) for w in sorted(canon, key=lambda w: (len(w), w))]
        assert vertex_simple_cycles(q) == want, name


def test_noncancellative_pair_on_deformation(deformation, deformation_contraction):
    rep = find_noncancellative_pair(
        deformation.quiver, deformation_contraction, SearchBounds(20, 200000)
    )
    assert rep.found
    pair = rep.pair
    q = deformation.quiver
    rs = RewriteSystem(q)
    # the certificate is replayable: p != q for certain, and the completed
    # words are equal
    assert paths_equal(rs, pair.p, pair.q).verdict == NOT_EQUAL
    if pair.side == "after":
        lhs = concat(q, pair.p, pair.r)
        rhs = concat(q, pair.q, pair.r)
    else:
        lhs = concat(q, pair.r, pair.p)
        rhs = concat(q, pair.r, pair.q)
    assert paths_equal(rs, lhs, rhs).is_equal
    trail = replay_witness(rs, lhs, pair.equality_witness)
    assert trail[-1] == rhs


def test_no_pair_on_deformation_target(deformation_contraction):
    rep = find_noncancellative_pair(
        deformation_contraction.target, bounds=SearchBounds(20, 200000)
    )
    assert not rep.found


def test_no_pair_on_conifold():
    q = fixtures_mod.conifold_quiver()
    rep = find_noncancellative_pair(q, bounds=SearchBounds(20, 200000))
    assert not rep.found


# (quiver, side, bounds) -> (found, exhausted, cycles considered, pairs
# tested, (p, q, r, side) of the pair): the search order, the budget
# charges and the cut-off points, pinned on every fixture's source and
# target and on c3 and the conifold
CUT = SearchBounds(0, 2000)
DEFAULT = SearchBounds()
NONCANCELLATIVE_REPORTS = {
    ("fig_deformation", "source", DEFAULT):
        (True, False, 90, 53, ((4, 6, 6, 1, 2), (5, 6, 6, 0, 2), (4,), "after")),
    ("fig_deformation", "source", CUT):
        (True, False, 90, 53, ((4, 6, 6, 1, 2), (5, 6, 6, 0, 2), (4,), "after")),
    ("fig_deformation", "target", DEFAULT): (False, False, 1092, 1006, None),
    ("fig_deformation", "target", CUT): (False, True, 414, 350, None),
    ("fig_hsb_ii", "source", DEFAULT):
        (True, False, 33, 11, ((0, 1, 2, 3), (2, 3, 0, 1), (0, 6), "after")),
    ("fig_hsb_ii", "source", CUT):
        (True, False, 33, 11, ((0, 1, 2, 3), (2, 3, 0, 1), (0, 6), "after")),
    ("fig_hsb_ii", "target", DEFAULT): (False, False, 1092, 1000, None),
    ("fig_hsb_ii", "target", CUT): (False, True, 360, 308, None),
    ("fig_iso_R", "source", DEFAULT):
        (True, False, 33, 11, ((2, 14, 12, 13), (6, 7, 8, 4, 5), (15, 16), "after")),
    ("fig_iso_R", "source", CUT):
        (True, False, 33, 11, ((2, 14, 12, 13), (6, 7, 8, 4, 5), (15, 16), "after")),
    ("fig_iso_R", "target", DEFAULT): (False, False, 20076, 19922, None),
    ("fig_iso_R", "target", CUT): (False, True, 407, 364, None),
    ("fig_nested(1)", "source", DEFAULT):
        (True, False, 47, 20, ((14, 10, 1), (0, 1, 2, 1), (0, 3), "after")),
    ("fig_nested(1)", "source", CUT):
        (True, False, 47, 20, ((14, 10, 1), (0, 1, 2, 1), (0, 3), "after")),
    ("fig_nested(1)", "target", DEFAULT): (False, True, 1361, 1291, None),
    ("fig_nested(1)", "target", CUT): (False, True, 79, 50, None),
    ("fig_nested(2)", "source", DEFAULT):
        (True, False, 71, 40, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13), "after")),
    ("fig_nested(2)", "source", CUT):
        (True, False, 71, 40, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13), "after")),
    ("fig_nested(2)", "target", DEFAULT): (False, True, 795, 753, None),
    ("fig_nested(2)", "target", CUT): (False, True, 200, 174, None),
    ("fig_nested(3)", "source", DEFAULT):
        (True, False, 95, 60, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13, 24), "after")),
    ("fig_nested(3)", "source", CUT): (False, True, 96, 60, None),
    ("fig_nested(3)", "target", DEFAULT): (False, True, 1253, 1212, None),
    ("fig_nested(3)", "target", CUT): (False, True, 392, 366, None),
    ("fig_noncancellative_central", "source", DEFAULT):
        (True, False, 90, 53, ((4, 6, 6, 1, 2), (5, 6, 6, 0, 2), (4,), "after")),
    ("fig_noncancellative_central", "source", CUT):
        (True, False, 90, 53, ((4, 6, 6, 1, 2), (5, 6, 6, 0, 2), (4,), "after")),
    ("fig_noncancellative_central", "target", DEFAULT): (False, False, 1092, 1006, None),
    ("fig_noncancellative_central", "target", CUT): (False, True, 414, 350, None),
    ("c3", "quiver", DEFAULT): (False, False, 1092, 1009, None),
    ("c3", "quiver", CUT): (False, True, 716, 639, None),
    ("conifold", "quiver", DEFAULT): (False, False, 680, 572, None),
    ("conifold", "quiver", CUT): (False, False, 680, 572, None),
}


def test_noncancellative_reports_are_pinned(all_fixtures, all_contractions):
    quivers = {("c3", "quiver"): (fixtures_mod.c3_quiver(), None),
               ("conifold", "quiver"): (fixtures_mod.conifold_quiver(), None)}
    for name, fx in all_fixtures.items():
        c = all_contractions[name]
        quivers[(name, "source")] = (fx.quiver, c)
        quivers[(name, "target")] = (c.target, None)
    assert {key[:2] for key in NONCANCELLATIVE_REPORTS} == set(quivers)
    for (name, side, bounds), want in NONCANCELLATIVE_REPORTS.items():
        q, c = quivers[(name, side)]
        rep = find_noncancellative_pair(q, c, bounds)
        pr = rep.pair
        words = pr and (pr.p.arrows, pr.q.arrows, pr.r.arrows, pr.side)
        got = (rep.found, rep.exhausted, rep.cycles_considered, rep.pairs_tested, words)
        assert got == want, (name, side, bounds)
