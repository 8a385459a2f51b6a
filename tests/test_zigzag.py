"""Zig-zag paths, the exact consistency test, and the certificate with
which ``find_noncancellative_pair`` (and so ``is_cyclic``) skips the pair
search, checked against the search itself (conftest's ``pair_search``)
on every quiver the search decides; and ``bigon_reduce``, which the
certificate runs on, checked against the stepwise removal it replaced."""

import itertools
from functools import cmp_to_key
from types import SimpleNamespace

import pytest

from dimeralg import fixtures as fixtures_mod
from dimeralg import quiver as quiver_mod
from dimeralg import contraction as contraction_mod
from dimeralg import rewriting
from dimeralg.contraction import ContractionError, contract, identity_contraction, is_cyclic
from dimeralg.matchings import is_nondegenerate
from dimeralg.quiver import (
    BigonReduction,
    DomainError,
    bigon_reduce,
    face_colours,
    make_quiver,
    validate_dimer,
    zigzag_consistent,
    zigzag_paths,
)
from dimeralg.rewriting import (
    DEFAULT_BOUNDS,
    RewriteSystem,
    SearchBounds,
    _lift_pair,
    _search_pairs,
    certified_cancellative,
    find_noncancellative_pair,
)

from conftest import FIXTURES, IRREMOVABLE_2CYCLES, load_perfbench, pair_search

C3 = fixtures_mod.c3_quiver()
CONIFOLD = fixtures_mod.conifold_quiver()
COVERS = {
    "c3 4x4": (C3, 4, 4),
    "conifold 3x3": (CONIFOLD, 3, 3),
    "fig_deformation 3x2": (fixtures_mod.fixture("fig_deformation").quiver, 3, 2),
}
CONTRACTED = ("fig_iso_R", "fig_hsb_ii", "fig_nested(1)", "fig_deformation")
# no two of its zig-zag paths have dependent homology: it fails only by
# two paths meeting twice in the same direction
TWICE = "fig_iso_R target at 0,4,6,9"


def _homology(q, word):
    return tuple(sum(q.arrow(a).homology[i] for a in word) for i in (0, 1))


def _quivers():
    """(name, quiver): every fixture's source, target and bigon-reduced
    target, c3, the conifold, ``bigon_inserted_c3`` and three covers."""
    out = [("c3", C3), ("conifold", CONIFOLD),
           ("bigon_inserted_c3", fixtures_mod.bigon_inserted_c3())]
    for name in FIXTURES:
        fx = fixtures_mod.fixture(name)
        target = contract(fx.quiver, fx.contraction_arrows).target
        out += [(f"{name} source", fx.quiver), (f"{name} target", target),
                (f"{name} reduced target", bigon_reduce(target).quiver)]
    torus_cover = load_perfbench("covers").torus_cover
    out += [(name, torus_cover(*args)) for name, args in COVERS.items()]
    out.append((TWICE, contract(fixtures_mod.fixture("fig_iso_R").quiver, (0, 4, 6, 9)).target))
    return out


QUIVERS = _quivers()
CERTIFIED = [(name, q) for name, q in QUIVERS if certified_cancellative(q)]


def _contraction_targets(name, size):
    q = fixtures_mod.fixture(name).quiver
    for arrows in itertools.combinations(range(len(q.arrows)), size):
        try:
            yield arrows, contract(q, arrows).target
        except ContractionError:
            continue


def _agrees_with_search(q):
    """The differential rule on one quiver; returns the certificate."""
    certified = certified_cancellative(q)
    try:
        rep = pair_search(q)
    except DomainError:  # a 2-cycle that cannot be removed
        assert not certified
        return certified
    if certified:
        assert not rep.found and not rep.exhausted
    if rep.found:
        try:
            assert not zigzag_consistent(bigon_reduce(q).quiver)
        except DomainError:
            pass
    return certified


# -- structure ----------------------------------------------------------------


def test_zigzag_counts():
    assert len(zigzag_paths(C3)) == 3
    assert len(zigzag_paths(CONIFOLD)) == 4


def test_conifold_zigzags_pin_the_convention():
    # face 0 = (0, 1, 2, 3) takes colour 0: a zig-zag steps through a face
    # of colour 0, then one of colour 1
    assert face_colours(CONIFOLD) == (0, 1)
    assert zigzag_paths(CONIFOLD) == ((0, 1), (1, 2), (2, 3), (3, 0))


@pytest.mark.parametrize("name, q", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_zigzag_structure(name, q):
    colours = face_colours(q)
    assert colours[0] == 0
    for a in q.arrows:
        assert sorted(colours[f.id] for f in q.faces if a.id in f.boundary) == [0, 1]
    after = {}
    for f in q.faces:
        for x, y in zip(f.boundary, f.boundary[1:] + f.boundary[:1]):
            after[colours[f.id], x] = y
    zs = zigzag_paths(q)
    for word in zs:
        # a closed walk, each step the next arrow in a face of alternating colour
        assert len(word) % 2 == 0
        for k, a in enumerate(word):
            assert word[(k + 1) % len(word)] == after[k % 2, a]
    # every arrow fills exactly two slots, one even and one odd
    even = sorted(a for w in zs for a in w[0::2])
    odd = sorted(a for w in zs for a in w[1::2])
    assert even == odd == list(range(len(q.arrows)))
    total = [_homology(q, w) for w in zs]
    assert tuple(map(sum, zip(*total))) == (0, 0)


def _twice_area(vectors):
    """Twice the area of the polygon whose edges are the vectors in
    angular order (Gulotta's zig-zag polygon)."""
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def order(u, v):
        if half(u) != half(v):
            return half(u) - half(v)
        return -(u[0] * v[1] - u[1] * v[0])

    edges = sorted(vectors, key=cmp_to_key(order))
    corners = list(itertools.accumulate(edges, lambda p, e: (p[0] + e[0], p[1] + e[1])))
    return abs(sum(p[0] * r[1] - p[1] * r[0]
                   for p, r in zip(corners, corners[1:] + corners[:1])))


@pytest.mark.parametrize("name, q", CERTIFIED, ids=[n for n, _ in CERTIFIED])
def test_certified_quivers_have_v_equal_twice_the_zigzag_area(name, q):
    red = bigon_reduce(q).quiver
    assert red.num_vertices == _twice_area([_homology(red, w) for w in zigzag_paths(red)])


def test_deformation_source_fails_the_area_equality():
    q = fixtures_mod.fixture("fig_deformation").quiver
    assert (q.num_vertices, _twice_area([_homology(q, w) for w in zigzag_paths(q)])) == (3, 2)
    assert not zigzag_consistent(q)


# -- the differential test ----------------------------------------------------


@pytest.mark.parametrize("name, q", QUIVERS, ids=[n for n, _ in QUIVERS])
def test_zigzag_test_agrees_with_the_pair_search(name, q):
    _agrees_with_search(q)


def test_certified_quivers_among_fixtures_and_covers():
    certified = {name for name, _ in CERTIFIED}
    reduced = {f"{name} reduced target" for name in FIXTURES}
    targets = {f"{name} target" for name in FIXTURES}
    assert certified == (
        {"c3", "conifold", "c3 4x4", "conifold 3x3"} | reduced | targets)


def test_paths_meeting_twice_in_one_direction_are_inconsistent():
    red = bigon_reduce(dict(QUIVERS)[TWICE]).quiver
    homs = [_homology(red, w) for w in zigzag_paths(red)]
    assert all(u[0] * v[1] != u[1] * v[0] for u, v in itertools.combinations(homs, 2))
    assert all(h != (0, 0) for h in homs)
    assert is_nondegenerate(red)[0]
    assert not zigzag_consistent(red)
    assert find_noncancellative_pair(red).found


def test_deformation_cover_is_inconsistent_with_a_pair():
    q = dict(QUIVERS)["fig_deformation 3x2"]
    assert not zigzag_consistent(q)
    assert find_noncancellative_pair(q).found


@pytest.mark.parametrize("name", CONTRACTED)
@pytest.mark.parametrize("size", [1, 2])
def test_contraction_targets_agree_with_the_pair_search(name, size):
    certified = [arrows for arrows, target in _contraction_targets(name, size)
                 if _agrees_with_search(target)]
    assert len(certified) == CERTIFIED_TARGETS[name, size], certified


# how many 1- and 2-arrow contraction targets the zig-zag test certifies
CERTIFIED_TARGETS = {
    ("fig_iso_R", 1): 0, ("fig_iso_R", 2): 0,
    ("fig_hsb_ii", 1): 0, ("fig_hsb_ii", 2): 0,
    ("fig_nested(1)", 1): 0, ("fig_nested(1)", 2): 0,
    ("fig_deformation", 1): 1, ("fig_deformation", 2): 6,
}


# -- is_cyclic ----------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_targets_are_certified(name, all_contractions):
    rep = is_cyclic(all_contractions[name])
    assert (rep.cancellative_target, rep.decided_by) == (True, "zigzag")


@pytest.mark.parametrize("name", CONTRACTED)
def test_no_is_cyclic_verdict_flips(name):
    q = fixtures_mod.fixture(name).quiver
    for arrows, target in _contraction_targets(name, 1):
        rep = is_cyclic(contract(q, arrows))
        try:
            search = pair_search(target)
        except DomainError:  # a 2-cycle that cannot be removed
            assert rep.decided_by == "pair_search"
            continue
        before = False if search.found else (None if search.exhausted else True)
        if rep.decided_by == "zigzag":
            assert rep.cancellative_target is True and before in (True, None)
        else:
            assert rep.cancellative_target == before


# -- the certificate inside find_noncancellative_pair -------------------------


SHORTCUT_CORPUS = QUIVERS + [
    (f"{name} target at {','.join(map(str, arrows))}", target)
    for name in FIXTURES for arrows, target in _contraction_targets(name, 1)
]


def _searched(q, bounds):
    """The report of the search alone, as ``find_noncancellative_pair``
    makes it: on the reduced quiver (q as given when a 2-cycle cannot be
    removed, and nothing searched without a perfect matching), with a
    pair lifted back to q."""
    try:
        red = bigon_reduce(q)
    except DomainError:
        rs = RewriteSystem(q)
        return _search_pairs(rs, None, bounds) if rs.has_matching else None
    rep = pair_search(q, bounds=bounds)
    if rep.found and red.removed:
        reduced = RewriteSystem(red.quiver)
        rep.pair = _lift_pair(reduced, RewriteSystem(q), red.original_ids, rep.pair, bounds)
        rep.exhausted = rep.pair is None
    return rep


@pytest.mark.parametrize("name, q", SHORTCUT_CORPUS, ids=[n for n, _ in SHORTCUT_CORPUS])
def test_shortcut_touches_only_certified_quivers(name, q):
    if certified_cancellative(q):
        # nothing searched at any bounds, and the search agrees
        for bounds in (SearchBounds(0, 0), DEFAULT_BOUNDS):
            rep = find_noncancellative_pair(q, bounds=bounds)
            assert (rep.pair, rep.exhausted, rep.cycles_considered, rep.pairs_tested,
                    rep.decided_by) == (None, False, 0, 0, "zigzag")
        search = pair_search(q)
        assert not search.found and not search.exhausted
        return
    for bounds in (SearchBounds(0, 2000), DEFAULT_BOUNDS):
        rep = find_noncancellative_pair(q, bounds=bounds)
        assert rep.decided_by == "pair_search"
        want = _searched(q, bounds)
        if want is None:  # no perfect matching
            assert (rep.pair, rep.exhausted, rep.cycles_considered, rep.pairs_tested) == (
                None, True, 0, 0)
            continue
        # the pair compares with its witness
        assert (rep.pair, rep.exhausted, rep.cycles_considered, rep.pairs_tested) == (
            want.pair, want.exhausted, want.cycles_considered, want.pairs_tested)


def test_shortcut_corpus_holds_both_kinds():
    # 20 of 156 certified; the fig_iso_R targets at 0 and at 0,4,6,9 have pairs
    certified = [name for name, q in SHORTCUT_CORPUS if certified_cancellative(q)]
    assert (len(SHORTCUT_CORPUS), len(certified)) == (156, 20)
    assert TWICE not in certified and "fig_iso_R target at 0" not in certified


# -- fallback to the search ---------------------------------------------------


def test_bigon_inserted_c3_falls_back_to_the_search():
    # its 2-cycle cannot be removed and it has no perfect matching: the
    # search's answer, undecided, as before the certificate
    q = fixtures_mod.bigon_inserted_c3()
    with pytest.raises(DomainError):
        bigon_reduce(q)
    assert is_nondegenerate(q)[0] is False
    assert not certified_cancellative(q)
    rep = is_cyclic(identity_contraction(q))
    assert (rep.cancellative_target, rep.decided_by) == (None, "pair_search")


def test_quiver_without_a_face_colouring_is_not_certified():
    # three faces pairwise sharing a loop: an odd cycle of faces
    q = make_quiver(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, -1))],
                    [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DomainError):
        face_colours(q)
    with pytest.raises(DomainError):
        zigzag_consistent(q)
    assert not certified_cancellative(q)


def test_invalid_quiver_is_not_certified():
    # c3 with one arrow's homology moved off the embedding: the faces no
    # longer sum to zero, yet the zig-zag test and the matchings pass it
    arrows = [(a.tail, a.head, a.homology) for a in C3.arrows]
    arrows[2] = (0, 0, (-1, -4))
    q = make_quiver(1, arrows, [f.boundary for f in C3.faces])
    assert not validate_dimer(q).ok
    assert zigzag_consistent(q) and is_nondegenerate(q)[0]
    assert not certified_cancellative(q)
    assert find_noncancellative_pair(q).decided_by == "pair_search"


STUBS = {
    "validate_dimer": lambda q: SimpleNamespace(ok=False, codes=lambda: {"stub"}),
    "is_nondegenerate": lambda q: (False, [0]),
}


@pytest.mark.parametrize(
    "fails", ["validate_dimer", "zigzag_consistent", "bigon_reduce", "is_nondegenerate"])
def test_every_failed_hypothesis_runs_the_search(fails, iso_r_contraction, monkeypatch):
    def refuse(q):
        raise DomainError("refused")

    monkeypatch.setattr(rewriting, fails, STUBS.get(fails, refuse))
    if fails == "validate_dimer":
        # the target loses 2-cycles, and bigon_reduce validates the quiver
        # left once, after all removals
        monkeypatch.setattr(quiver_mod, fails, STUBS[fails])
    rep = is_cyclic(iso_r_contraction)
    assert (rep.cancellative_target, rep.decided_by) == (True, "pair_search")


def test_certificate_validates_only_an_unreduced_quiver(iso_r_contraction, monkeypatch):
    # bigon_reduce validated what it returns, once after all removals; a
    # quiver with nothing removed is the caller's, and is validated once
    calls = []
    validate = rewriting.validate_dimer
    monkeypatch.setattr(rewriting, "validate_dimer", lambda q: calls.append(q) or validate(q))
    target = iso_r_contraction.target
    assert bigon_reduce(target).removed and certified_cancellative(target)
    assert calls == []
    assert bigon_reduce(C3).removed == 0 and certified_cancellative(C3)
    assert calls == [C3]


# -- removal of 2-cycles in one pass ------------------------------------------


def naive_bigon_reduce(q):
    """The stepwise removal that ``bigon_reduce`` replaced, kept as its
    reference: remove the lowest-id 2-cycle, renumber arrows and faces,
    build and validate the quiver left, and repeat."""
    ids, removed = tuple(range(len(q.arrows))), 0
    while (bigon := next((f for f in q.faces if len(f.boundary) == 2), None)) is not None:
        a_id, b_id = bigon.boundary

        def second_face(aid):
            others = [f for f in q.faces if f.id != bigon.id and aid in f.boundary]
            if len(others) != 1 or others[0].boundary.count(aid) != 1:
                raise DomainError(f"arrow {aid} does not lie once on one other face")
            return others[0]

        def arc(face, aid):
            k = face.boundary.index(aid)
            return face.boundary[k + 1:] + face.boundary[:k]

        fa, fb = second_face(a_id), second_face(b_id)
        if fa.id == fb.id:
            raise DomainError("both arrows share their second face")
        keep = [x for x in q.arrows if x.id not in (a_id, b_id)]
        relabel = {x.id: k for k, x in enumerate(keep)}
        faces = [f.boundary for f in q.faces if f.id not in (bigon.id, fa.id, fb.id)]
        faces.append(arc(fa, a_id) + arc(fb, b_id))
        q = make_quiver(q.num_vertices, [(x.tail, x.head, x.homology) for x in keep],
                        [[relabel[x] for x in f] for f in faces])
        if not validate_dimer(q).ok:
            raise DomainError("merged face is invalid")
        ids = tuple(ids[x.id] for x in keep)
        removed += 1
    return BigonReduction(q, ids, removed)


def _reduction(reduce, q):
    try:
        return reduce(q)
    except DomainError:
        return DomainError


def _fixture_quivers(name):
    fx = fixtures_mod.fixture(name)
    return [(f"{name} source", fx.quiver),
            (f"{name} target", contract(fx.quiver, fx.contraction_arrows).target)]


REDUCTION_CORPUS = (
    SHORTCUT_CORPUS
    + [case for name in ("fig_nested(4)", "fig_nested(5)") for case in _fixture_quivers(name)]
    + [(name, q) for name, q, _ in IRREMOVABLE_2CYCLES])


@pytest.mark.parametrize("name, q", REDUCTION_CORPUS, ids=[n for n, _ in REDUCTION_CORPUS])
def test_one_pass_matches_stepwise_removal(name, q):
    # the same faces in the same order and rotation, the same original ids
    # and count, or DomainError from both
    assert _reduction(bigon_reduce, q) == _reduction(naive_bigon_reduce, q)


# per fixture: contraction targets of 1-3 arrows, how many raise, and the
# 2-cycles removed from the rest
FOREST_TARGETS = {
    "fig_deformation": (12, 1, 10),
    "fig_iso_R": (649, 145, 602),
    "fig_nested(1)": (318, 48, 798),
    "fig_nested(2)": (2356, 168, 9146),
    "fig_nested(3)": (7850, 272, 35666),
    "fig_hsb_ii": (379, 15, 633),
    "fig_noncancellative_central": (12, 1, 10),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_one_pass_matches_stepwise_removal_on_forest_targets(name, monkeypatch):
    # the simple matchings of a target play no part in its reduction
    monkeypatch.setattr(contraction_mod, "matching_catalog", lambda q: ())
    targets = raised = removed = 0
    for size in (1, 2, 3):
        for arrows, target in _contraction_targets(name, size):
            red = _reduction(bigon_reduce, target)
            assert red == _reduction(naive_bigon_reduce, target), arrows
            targets += 1
            raised += red is DomainError
            removed += 0 if red is DomainError else red.removed
    assert (targets, raised, removed) == FOREST_TARGETS[name]


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, real=getattr(quiver_mod, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(quiver_mod, name, counted)
    return calls


ONE_PASS = [("fig_iso_R target", 2), *((f"fig_nested({n}) target", 4 * n) for n in range(1, 6)),
            ("c3", 0), ("fig_iso_R reduced target", 0)]


@pytest.mark.parametrize("name, removed", ONE_PASS, ids=[n for n, _ in ONE_PASS])
def test_reduction_builds_and_validates_one_quiver(name, removed, monkeypatch):
    q = dict(REDUCTION_CORPUS)[name]
    calls = _count_calls(monkeypatch, ["make_quiver", "validate_dimer"])
    assert bigon_reduce(q).removed == removed
    assert calls == dict.fromkeys(calls, int(removed > 0))
