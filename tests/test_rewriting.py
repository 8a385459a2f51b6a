import dataclasses
import json
from types import SimpleNamespace

import pytest

import dimeralg
from dimeralg import fixtures as fixtures_mod
from dimeralg import rewriting
from dimeralg.cli import main
from dimeralg.contraction import contract, identity_contraction
from dimeralg.quiver import (
    DomainError,
    PathWord,
    bigon_reduce,
    check_path,
    concat,
    make_quiver,
    path_homology,
    unit_cycle,
    validate_dimer,
)
from dimeralg.rewriting import (
    DEFAULT_BOUNDS,
    EQUAL,
    NOT_EQUAL,
    UNKNOWN,
    CycleFilter,
    EqResult,
    NoncancellativePair,
    ResourceExhausted,
    RewriteStep,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    face_rules,
    find_noncancellative_pair,
    lift_is_simple,
    paths_equal,
    replay_witness,
    vertex_simple_cycles,
    _completed,
    _encode,
    _probes,
    _search_pairs,
)

from conftest import insert_2cycle, load_perfbench, pair_search


def test_rule_shapes(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        rs = RewriteSystem(q)
        for a in q.arrows:
            sides = rs.rules[a.id]
            lengths = sorted(len(s) for s in sides)
            face_lengths = sorted(len(f.boundary) for f in q.faces if a.id in f.boundary)
            assert lengths == [fl - 1 for fl in face_lengths]
            for side in sides:
                # each side runs head(a) -> tail(a) and closes a's face
                w = PathWord(a.head, side)
                assert path_homology(q, w) == (-a.homology[0], -a.homology[1])
                assert q.arrow(side[0]).tail == a.head
                assert q.arrow(side[-1]).head == a.tail


def _quadratic_face_rules(q):
    """The reference for ``face_rules``: every face scanned once per arrow."""
    rules = {}
    for a in q.arrows:
        arcs = [f.boundary[k + 1:] + f.boundary[:k]
                for f in q.faces for k, aid in enumerate(f.boundary) if aid == a.id]
        if len(arcs) != 2:
            raise DomainError(f"arrow {a.id} lies on {len(arcs)} faces")
        rules[a.id] = (arcs[0], arcs[1])
    return rules


def test_face_rules_match_the_quadratic_scan(all_fixtures):
    workloads = load_perfbench("workloads")
    quivers = [fx.quiver for fx in all_fixtures.values()]
    quivers += [fixtures_mod.c3_quiver(), fixtures_mod.conifold_quiver(),
                fixtures_mod.bigon_inserted_c3()]
    quivers += [workloads.pair_quiver(dimeralg, base, index)
                for _name, base, index in workloads.PAIR_QUIVERS if index]
    for q in quivers:
        rules = face_rules(q)
        assert rules == _quadratic_face_rules(q)
        assert list(rules) == [a.id for a in q.arrows]
    # an arrow on one face, or on three: the same error, at the lowest id
    q = all_fixtures["fig_deformation"].quiver
    edges = [(a.tail, a.head, a.homology) for a in q.arrows]
    boundaries = [f.boundary for f in q.faces]
    for faces in (boundaries[1:], boundaries + [boundaries[-1]], boundaries[:-1]):
        broken = make_quiver(q.num_vertices, edges, faces)
        with pytest.raises(DomainError) as want:
            _quadratic_face_rules(broken)
        with pytest.raises(DomainError, match=f"^{want.value}$"):
            face_rules(broken)


def test_summed_homology_is_path_homology(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        rs = RewriteSystem(q)
        for v in range(q.num_vertices):
            cycles = enumerate_cycles(q, v, 6).cycles
            assert cycles
            for c in cycles:
                assert rewriting._invariants(rs, c)[1] == path_homology(q, c), c


def test_too_many_arrows_for_text_words():
    # only the arrow count is read before the refusal
    q = SimpleNamespace(arrows=range(0x110001))
    with pytest.raises(DomainError, match="so at most 0x110000"):
        RewriteSystem(q)


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


@pytest.mark.parametrize("field, value", [
    ("max_word_length", -3), ("max_states", -1), ("max_states", 2.5), ("max_word_length", "9"),
    ("max_states", True),
], ids=["negative-cap", "negative-budget", "float-budget", "text-cap", "bool-budget"])
def test_bad_bounds_are_refused(field, value):
    # a negative cap would quietly mean "derive it", a negative budget an
    # immediate Unknown
    with pytest.raises(DomainError, match=f"{field} must be a non-negative int"):
        SearchBounds(**{field: value})
    assert SearchBounds(0, 0) == SearchBounds(max_word_length=0, max_states=0)


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
    enum_simple = enumerate_cycles(q, 2, 6, CycleFilter("vertex-simple"))
    assert set(c.arrows for c in enum_simple.cycles) <= set(c.arrows for c in enum_all.cycles)
    for c in enum_simple.cycles:
        interior = [q.arrow(a).head for a in c.arrows[:-1]]
        assert len(interior) == len(set(interior))
        assert 2 not in interior
    hom = enumerate_cycles(q, 2, 6, CycleFilter("homology", (0, 0)))
    for c in hom.cycles:
        assert path_homology(q, c) == (0, 0)
    # a variant is a plain string, so a misspelt one is refused
    with pytest.raises(DomainError, match="unknown filter"):
        enumerate_cycles(q, 2, 6, CycleFilter("vertex_simple"))


@pytest.mark.parametrize("variant, hom_class, message", [
    ("bogus", None, "unknown filter 'bogus'"),
    ("homology", None, "filter homology with homology class None"),
    ("homology", [1, 0], "filter homology with homology class"),
    ("homology", (1,), "filter homology with homology class"),
    ("all", (1, 0), "filter all with homology class"),
], ids=["unknown", "homology-no-class", "homology-list", "homology-one-int", "class-on-all"])
def test_bad_filter_is_refused_before_the_walk(deformation, variant, hom_class, message):
    # max_len 0 walks no cycle, so only an up-front check can refuse these
    with pytest.raises(DomainError, match=message):
        enumerate_cycles(deformation.quiver, 0, 0, CycleFilter(variant, hom_class))


def test_lift_simple_filter_rechecks(all_fixtures):
    for fx in all_fixtures.values():
        q = fx.quiver
        for v in range(q.num_vertices):
            enum = enumerate_cycles(q, v, 4, CycleFilter("lift-simple"))
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


def test_enumeration_past_its_state_budget_raises(deformation, monkeypatch):
    monkeypatch.setattr(rewriting, "MAX_STATES", 5)
    with pytest.raises(ResourceExhausted, match="state budget"):
        enumerate_cycles(deformation.quiver, 0, 4)


@pytest.mark.parametrize("spoil, message", [
    ("pos", "does not match the word"),
    ("arrow", "not an instance of its rule"),
    ("homology", "broke an invariant"),
])
def test_replay_rejects_a_bad_step(deformation, spoil, message):
    # the two-step witness between the unit cycles at vertex 0, spoilt in
    # its first step (the rule of arrow 0) or in the quiver it replays on
    q = deformation.quiver
    start = unit_cycle(q, 0, 0)
    res = paths_equal(RewriteSystem(q), start, unit_cycle(q, 0, 1))
    assert res.is_equal and len(res.steps) == 2
    first, rest = res.steps[0], list(res.steps[1:])
    assert first.arrow == 0
    if spoil == "pos":
        first = dataclasses.replace(first, pos=first.pos + 1)
    elif spoil == "arrow":
        first = dataclasses.replace(first, arrow=1)
    else:
        arrows = [(a.tail, a.head, (0, -2) if a.id == 6 else a.homology) for a in q.arrows]
        q = make_quiver(q.num_vertices, arrows, [f.boundary for f in q.faces])
    with pytest.raises(DomainError, match=message):
        replay_witness(RewriteSystem(q), start, [first, *rest])


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
            for c in enumerate_cycles(q, i, q.num_vertices, CycleFilter("vertex-simple")).cycles:
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


def test_no_perfect_matching_is_undecided_before_any_search(monkeypatch):
    # outside the theorems: no pair, cut off, and nothing searched
    def no_closures(*args, **kwargs):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(rewriting.EqualityClasses, "__init__", no_closures)
    rep = find_noncancellative_pair(fixtures_mod.bigon_inserted_c3())
    assert (rep.found, rep.exhausted, rep.cycles_considered, rep.pairs_tested) == (
        False, True, 0, 0)


def _walks(q, v, r_cap, end):
    """Every path of 1..r_cap arrows starting (end False) or ending (end
    True) at v, by brute force, shortest first."""
    out = []
    layer = [()]
    for _ in range(r_cap):
        layer = [w + (a.id,) for w in layer for a in q.arrows
                 if (w and q.arrow(w[-1]).head == a.tail) or (not w and (end or a.tail == v))]
        out += [w for w in layer if not end or q.arrow(w[-1]).head == v]
    return out


def test_probes_append_then_prepend(deformation):
    # every pair found so far closes with an appended r, so the prepended
    # half of the probes is pinned here
    q = deformation.quiver
    v, r_cap = 0, q.max_face_length() + 2
    p, q_ = PathWord(0, (6,)), PathWord(0, (0, 2, 5))
    probes = list(_probes(q, v, p, q_, r_cap))
    after = [r.arrows for side, r, _, _ in probes if side == "after"]
    before = [r.arrows for side, r, _, _ in probes if side == "before"]
    assert [side for side, *_ in probes] == ["after"] * len(after) + ["before"] * len(before)
    assert sorted(after, key=len) == after and set(after) == set(_walks(q, v, r_cap, False))
    assert sorted(before, key=len) == before and set(before) == set(_walks(q, v, r_cap, True))
    assert len(after) == len(set(after)) and len(before) == len(set(before))
    for side, r, pr, qr in probes:
        if side == "after":
            assert (r.base, pr, qr) == (v, concat(q, p, r), concat(q, q_, r))
        else:
            assert (pr, qr) == (concat(q, r, p), concat(q, r, q_))
        pair = NoncancellativePair(v, p, q_, r, side, "", ())
        assert (_completed(pair, p), _completed(pair, q_)) == (pr, qr)


# (quiver, side, bounds) -> (found, exhausted, cycles considered, pairs
# tested, (p, q, r, side) of the pair): the search order, the budget
# charges and the cut-off points, pinned on every fixture's source and
# target and on c3 and the conifold; the fig_iso_R and fig_nested
# targets have 2-cycles, so their counts are those of the reduced quiver.
# The targets, c3 and the conifold are zig-zag consistent, so
# ``find_noncancellative_pair`` certifies them without a search: their
# rows are the search itself (conftest's ``pair_search``), and the public
# function's report on them is pinned too: no pair, not cut off, zero
# counts, decided by "zigzag", at either bounds
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
    ("fig_iso_R", "target", DEFAULT): (False, False, 1092, 1006, None),
    ("fig_iso_R", "target", CUT): (False, True, 437, 373, None),
    ("fig_nested(1)", "source", DEFAULT):
        (True, False, 47, 20, ((14, 10, 1), (0, 1, 2, 1), (0, 3), "after")),
    ("fig_nested(1)", "source", CUT):
        (True, False, 47, 20, ((14, 10, 1), (0, 1, 2, 1), (0, 3), "after")),
    ("fig_nested(1)", "target", DEFAULT): (False, False, 680, 572, None),
    ("fig_nested(1)", "target", CUT): (False, False, 680, 572, None),
    ("fig_nested(2)", "source", DEFAULT):
        (True, False, 71, 40, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13), "after")),
    ("fig_nested(2)", "source", CUT):
        (True, False, 71, 40, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13), "after")),
    ("fig_nested(2)", "target", DEFAULT): (False, False, 680, 572, None),
    ("fig_nested(2)", "target", CUT): (False, False, 680, 572, None),
    ("fig_nested(3)", "source", DEFAULT):
        (True, False, 95, 60, ((14, 10, 1), (0, 1, 2, 1), (0, 3, 13, 24), "after")),
    ("fig_nested(3)", "source", CUT): (False, True, 96, 60, None),
    ("fig_nested(3)", "target", DEFAULT): (False, False, 680, 572, None),
    ("fig_nested(3)", "target", CUT): (False, False, 680, 572, None),
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
        if side == "source":
            assert rep.decided_by == "pair_search", name
        else:
            got = (rep.found, rep.exhausted, rep.cycles_considered, rep.pairs_tested,
                   rep.decided_by, rep.removed_2cycles)
            assert got == (False, False, 0, 0, "zigzag", bigon_reduce(q).removed), name
            rep = pair_search(q, c, bounds)
        pr = rep.pair
        words = pr and (pr.p.arrows, pr.q.arrows, pr.r.arrows, pr.side)
        got = (rep.found, rep.exhausted, rep.cycles_considered, rep.pairs_tested, words)
        assert got == want, (name, side, bounds)


def completed(q, pair, cycle):
    """The cycle with the pair's r walked after or before it."""
    return concat(q, cycle, pair.r) if pair.side == "after" else concat(q, pair.r, cycle)


@pytest.fixture(scope="module")
def inserted(deformation):
    # the quad t.c*.d.l split into t.c* and d.l
    q = insert_2cycle(deformation.quiver, 1, 2)
    assert validate_dimer(q).ok
    assert bigon_reduce(q).removed == 1
    return q


def test_pair_on_reduced_quiver_lifts_back(inserted):
    q = inserted
    rs = RewriteSystem(q)
    new_arrows = {0, 1}
    # the contraction's images are pulled back to the reduced arrows
    for c in (None, identity_contraction(q)):
        rep = find_noncancellative_pair(q, c)
        assert rep.found and not rep.exhausted and rep.removed_2cycles == 1
        pair = rep.pair
        assert not new_arrows & {*pair.p.arrows, *pair.q.arrows, *pair.r.arrows}
        assert paths_equal(rs, pair.p, pair.q).verdict == NOT_EQUAL
        trail = replay_witness(rs, completed(q, pair, pair.p), pair.equality_witness)
        assert trail[-1] == completed(q, pair, pair.q)
        # the lifted witness passes through the 2-cycle: its links are
        # merged-face relations rejoined in q
        assert any(new_arrows & set(w.arrows) for w in trail)


@pytest.mark.parametrize("link", [
    EqResult(UNKNOWN, reason="state_budget"),
    # a step that is no instance of its rule: the lifted witness does not replay
    EqResult(EQUAL, steps=(RewriteStep(0, 0, (), ()),)),
], ids=["unknown", "bogus"])
def test_unlifted_pair_is_dropped(inserted, monkeypatch, link):
    # a reduced witness link that is not rejoined on the quiver asked
    # about, or a lifted witness that does not replay: no pair, cut off
    calls = []

    def rejoin(rs, p, q_, bounds=DEFAULT_BOUNDS):
        calls.append((p, q_))
        return link

    monkeypatch.setattr(rewriting, "paths_equal", rejoin)
    rep = find_noncancellative_pair(inserted)
    assert calls and rep.removed_2cycles == 1
    assert rep.pair is None and rep.exhausted and not rep.found


def test_read_back_refuses_words_two_rewrites_apart(deformation):
    # arc, arrow, arc: the two arcs rewrite one at a time, never at once
    q = deformation.quiver
    rs = RewriteSystem(q)
    a = q.arrows[0]
    left, right = rs.rules[a.id]
    word = _encode(left + (a.id,) + left)
    mid = _encode(right + (a.id,) + left)
    far = _encode(right + (a.id,) + right)
    assert rs.read_back(word, mid).pos == 0
    assert rs.read_back(mid, far).pos == len(right) + 1
    with pytest.raises(DomainError, match="no single rewrite"):
        rs.read_back(word, far)


# fig_deformation: arrows 0, 1 run 0 -> 2, arrows 2, 3 run 2 -> 1, arrows
# 4, 5 run 1 -> 0, and arrow 6 is a loop at 0
MALFORMED_PATHS = {
    "path base 3 out of range": PathWord(3, (0, 2)),
    "unknown arrow id 7": PathWord(0, (0, 7)),
    "word not composable at arrow 4": PathWord(0, (0, 4)),
}


@pytest.mark.parametrize("message", sorted(MALFORMED_PATHS))
def test_paths_equal_checks_words_as_check_path(deformation, message):
    # paths_equal walks each word once, and that walk raises what
    # check_path raises, p first, then q
    q = deformation.quiver
    rs = RewriteSystem(q)
    bad, good = MALFORMED_PATHS[message], PathWord(0, (0, 2))
    with pytest.raises(DomainError) as raised:
        check_path(q, bad)
    assert str(raised.value) == message
    for p, r in ((bad, good), (good, bad)):
        with pytest.raises(DomainError) as raised:
            paths_equal(rs, p, r)
        assert str(raised.value) == message, (p, r)
    for other, words in MALFORMED_PATHS.items():
        with pytest.raises(DomainError) as raised:
            paths_equal(rs, bad, words)
        assert str(raised.value) == message, other


def test_reduced_search_agrees_with_search_as_given(inserted):
    quivers = {"inserted": inserted}
    for name in ("fig_iso_R", *(f"fig_nested({n})" for n in range(1, 5))):
        fx = fixtures_mod.fixture(name)
        quivers[name] = contract(fx.quiver, fx.contraction_arrows).target
    decided_both = 0
    for name, q in quivers.items():
        reduced = find_noncancellative_pair(q)
        assert reduced.removed_2cycles > 0, name
        plain = _search_pairs(RewriteSystem(q), None, DEFAULT_BOUNDS)
        if (reduced.found or not reduced.exhausted) and (plain.found or not plain.exhausted):
            assert reduced.found == plain.found, name
            decided_both += 1
    assert decided_both >= 2  # fig_iso_R and the inserted quiver
