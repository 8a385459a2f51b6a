"""EqualityClasses against a naive one-sided closure of each class
representative, and the invariant that keeps its closures exact."""

import hashlib
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from dimeralg import center, contraction, monomial_algebra, quiver, rewriting
from dimeralg import fixtures as fixtures_mod
from dimeralg.center import reduced_center_contains
from dimeralg.cli import main
from dimeralg.contraction import contract, is_cyclic, sigma, source_cycle_algebra_generators
from dimeralg.matchings import enumerate_perfect_matchings
from dimeralg.monomial_algebra import cycles_with_image, homotopy_center_monomials, mon_add
from dimeralg.quiver import (
    PathWord,
    bigon_reduce,
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
    EqResult,
    EqualityClasses,
    RewriteStep,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    paths_equal,
    replay_witness,
    _decode,
    _encode,
)

from conftest import FIXTURES, PERFBENCH, load_perfbench, load_torus_cover


def compare(classes, rep, word, max_states=None):
    """One query on ``classes``, after the refutation by endpoints, homology
    and matching profile that ``paths_equal`` runs first."""
    rs = classes.rs
    reason = rewriting._mismatch(rewriting._invariants(rs, rep), rewriting._invariants(rs, word))
    if reason is not None:
        return EqResult(NOT_EQUAL, reason=reason)
    return classes._query(rep, word, _encode(word.arrows), max_states)


def pairwise_split(rs, words, bounds=DEFAULT_BOUNDS, classes=None):
    """The reference loop: each word against each class representative's
    whole closure under the representative's word cap, grown breadth
    first.  A word in it is equal; a closure that never hit the cap is the
    class, so a word outside it is not equal; anything else is unknown.
    With ``classes``, every pair is also put to it: its decided verdicts
    must agree with the decided reference ones, and every word it finds
    equal must be reached by replaying its witness from the
    representative."""
    closures, found = {}, []
    split, unknown = [], 0
    for k, w in enumerate(words):
        for cls in split:
            rep = words[cls[0]]
            if rep not in closures:
                cap = bounds.word_cap(rs, rep)
                closures[rep] = bfs_closure(rs, (), [_encode(rep.arrows)], cap)
            closure, truncated = closures[rep]
            ref = EQUAL if _encode(w.arrows) in closure else UNKNOWN if truncated else NOT_EQUAL
            if classes is not None:
                verdict = compare(classes, rep, w).verdict
                if UNKNOWN not in (verdict, ref):
                    assert verdict == ref, (rep, w)
                if verdict == EQUAL:
                    found.append((rep, w))
            if ref == EQUAL:
                cls.append(k)
                break
            if ref == UNKNOWN:
                unknown += 1
        else:
            split.append([k])
    # the witnesses are read after every merge, from the final closures
    for rep, w in found:
        assert replay_witness(rs, rep, classes.witness(rep, w))[-1] == w, (rep, w)
    return split, unknown


def differential_quivers():
    quivers = {name: fixtures_mod.fixture(name).quiver for name in FIXTURES}
    quivers["c3"] = fixtures_mod.c3_quiver()
    quivers["conifold"] = fixtures_mod.conifold_quiver()
    return quivers


@pytest.mark.parametrize("name", sorted(differential_quivers()))
def test_cycle_classes_match_pairwise_loop(name):
    q = differential_quivers()[name]
    rs = RewriteSystem(q)
    for v in range(q.num_vertices):
        enum = enumerate_cycles(q, v, 6, rs=rs, dedup_mod_relations=True)
        ref, unknown = pairwise_split(rs, enum.cycles, classes=EqualityClasses(rs))
        assert [[enum.cycles[k] for k in cls] for cls in ref] == enum.classes, (name, v)
        assert enum.unknown_pairs == unknown == 0


def test_reduced_center_counts_match_pairwise_loop(all_contractions):
    for name, c in all_contractions.items():
        rs = RewriteSystem(c.source)
        monomials = set(homotopy_center_monomials(c, 2)) | {sigma(c)}
        if name == "fig_iso_R":
            free = next(g for g in source_cycle_algebra_generators(c) if sum(g) == 1)
            monomials.add(mon_add(sigma(c), free))
        for g in sorted(monomials):
            res = reduced_center_contains(c, g)
            for v, count in res.candidate_counts.items():
                cycles = cycles_with_image(c, v, g)
                split, _ = pairwise_split(rs, cycles, classes=EqualityClasses(rs))
                assert count == len(cycles), (name, g, v)
                assert res.class_counts[v] == len(split), (name, g, v)


def bfs_closure(rs, words, pending, cap):
    """Grow the text words ``words`` breadth first from the ``pending``
    ones only."""
    words, layer, truncated = set(words), list(pending), False
    while layer:
        nxt = []
        for w in layer:
            succs, trunc = rs.successors(w, cap)
            truncated = truncated or trunc
            for succ in succs:
                if succ not in words:
                    words.add(succ)
                    nxt.append(succ)
        layer = nxt
    return words, truncated


def naive_successors(rs, word, cap):
    """The reference scan on tuple words: every rule, both ways, at every
    position, in order of arc length, then position, then rule; each
    rewrite as (new word, pos, arrow, old arc, new arc)."""
    out, truncated = [], False
    lengths = sorted({len(arc) for sides in rs.rules.values() for arc in sides})
    for ln in lengths:
        for pos in range(len(word) - ln + 1):
            for aid, (left, right) in rs.rules.items():
                for old, new in dict.fromkeys(((left, right), (right, left))):
                    if len(old) != ln or word[pos:pos + ln] != old:
                        continue
                    if len(word) - ln + len(new) > cap:
                        truncated = True
                    else:
                        out.append((word[:pos] + new + word[pos + ln:], pos, aid, old, new))
    return out, truncated


def _covers():
    torus_cover = load_torus_cover()
    deformation = fixtures_mod.fixture("fig_deformation").quiver
    return {
        "c3_3x3": torus_cover(fixtures_mod.c3_quiver(), 3, 3),
        "fig_deformation_2x2": torus_cover(deformation, 2, 2),
    }


@pytest.mark.parametrize("name", sorted(differential_quivers()) + ["covers"])
def test_successors_match_naive_scan(name):
    quivers = _covers() if name == "covers" else {name: differential_quivers()[name]}
    rng = random.Random(name)
    for q in quivers.values():
        rs = RewriteSystem(q)
        checked = 0
        for _ in range(40):
            at = rng.randrange(q.num_vertices)
            word = []
            for _ in range(rng.randint(1, 20)):
                a = rng.choice(q.out_arrows(at))
                word.append(a.id)
                at = a.head
            word = tuple(word)
            for cap in (len(word) - 2, len(word), len(word) + 1, len(word) + q.max_face_length()):
                succs, truncated = rs.successors(_encode(word), cap)
                ref, ref_truncated = naive_successors(rs, word, cap)
                assert [_decode(w) for w in succs] == [step[0] for step in ref], (word, cap)
                assert truncated == ref_truncated, (word, cap)
                checked += bool(ref) + truncated
        assert checked > 40  # the walks do meet rewrite sites and the cap


def test_grown_closure_is_the_breadth_first_closure(all_fixtures):
    # Queries that meet the closure mid-expansion merge the word's search
    # into it; finishing the expansion from the pending words alone must
    # still give the plain closure of the representative.
    q = all_fixtures["fig_hsb_ii"].quiver
    rs = RewriteSystem(q)
    u = unit_cycle(q, 0)
    rep = concat(q, concat(q, u, u), u)
    cap = DEFAULT_BOUNDS.word_cap(rs, rep)
    class_words, class_truncated = bfs_closure(rs, (), [_encode(rep.arrows)], cap)
    members = sorted(w for w in class_words if len(w) == len(rep.arrows))[::-8]
    others = [
        c for c in enumerate_cycles(q, 0, len(rep.arrows)).cycles
        if len(c.arrows) == len(rep.arrows) and _encode(c.arrows) not in class_words
    ]

    ec = EqualityClasses(rs)
    met, cut = 0, 0
    for k, w in enumerate(members):
        # a small budget now and then cuts a search off mid-layer
        res = compare(ec, rep, PathWord(0, _decode(w)), max_states=5 if k % 2 else None)
        closure = ec.closures[rep]
        met += res.is_equal and res.states > 0 and bool(closure.pending)
        cut += res.reason == "state_budget"
        res = compare(ec, rep, others[k % len(others)], max_states=50)
        assert res.verdict != EQUAL
    assert met >= 3 and cut >= 3

    assert closure.pending and closure.words.keys() < class_words
    assert closure.cap == cap and not class_truncated  # the default cap is exact
    words, truncated = bfs_closure(rs, closure.words, closure.pending, closure.cap)
    assert words == class_words
    assert (closure.truncated or truncated) == class_truncated


LEMMA_QUIVERS = FIXTURES + ["fig_nested(4)", "fig_nested(5)", "c3", "conifold", "c3 4x4",
                            "conifold 3x3", "fig_deformation 3x2", "fig_deformation 3x3"]


def lemma_quivers(name):
    """A fixture with its target and their bigon reductions; c3 or the
    conifold; or a torus cover of one of those, given as "base NxM"."""
    bases = {"c3": fixtures_mod.c3_quiver, "conifold": fixtures_mod.conifold_quiver}
    base, _, index = name.partition(" ")
    fx = None if base in bases else fixtures_mod.fixture(base)
    q = fx.quiver if fx else bases[base]()
    if index:
        return [load_torus_cover()(q, *map(int, index.split("x")))]
    if fx is None:
        return [q]
    out = []
    for q in (fx.quiver, contract(fx.quiver, fx.contraction_arrows).target):
        red = bigon_reduce(q)
        out += [q, red.quiver] if red.removed else [q]
    return out


def full_profile(q):
    """word -> its arrow counts in every perfect matching, one byte per
    matching packed into an int (exact below 256 arrows)."""
    matchings = enumerate_perfect_matchings(q)
    fields = [bytearray(len(matchings)) for _ in q.arrows]
    for k, d in enumerate(matchings):
        for aid in d:
            fields[aid][k] = 1
    vectors = [int.from_bytes(f, "little") for f in fields]
    return lambda word: sum(map(vectors.__getitem__, word))


@pytest.mark.parametrize("name", LEMMA_QUIVERS)
def test_one_matching_decides_the_profile(name):
    # on a valid quiver, words with the same endpoints and homology have
    # equal counts in the one matching D0 iff in every perfect matching;
    # fig_deformation 3x3 has 12,366 of them
    for q in lemma_quivers(name):
        assert validate_dimer(q).ok
        _check_one_matching(q, random.Random(name))


def _check_one_matching(q, rng):
    rs = RewriteSystem(q)
    full = full_profile(q)
    starts = [rng.randrange(q.num_vertices) for _ in range(2)]
    groups: dict[tuple, dict[int, set]] = {}
    for _ in range(400):
        at = v = rng.choice(starts)
        word = []
        for _ in range(rng.randint(4, 14)):
            a = rng.choice(q.out_arrows(at))
            word.append(a.id)
            at = a.head
        w = PathWord(v, tuple(word))
        by_count = groups.setdefault((v, at, path_homology(q, w)), {})
        by_count.setdefault(rs.profile(w.arrows), set()).add((w.arrows, full(w.arrows)))
    refuted = shared = 0
    for by_count in groups.values():
        fulls = [{f for _, f in words} for words in by_count.values()]
        assert all(len(f) == 1 for f in fulls)  # equal D0 counts: equal everywhere
        assert len(set.union(*fulls)) == len(fulls)  # unequal: unequal somewhere
        refuted += len(by_count) > 1
        shared += any(len(words) > 1 for words in by_count.values())
    assert refuted >= 20 and shared >= 20


def test_profile_on_a_cover_with_many_matchings():
    # the 3x3 cover of fig_deformation has 12,366 perfect matchings; the
    # profile needs only the first
    q = lemma_quivers("fig_deformation 3x3")[0]
    rs = RewriteSystem(q)
    assert rs.profile((0,)) is not None and rs.has_matching
    rng = random.Random("fallback")
    at = rng.randrange(q.num_vertices)
    word = []
    for _ in range(12):
        a = rng.choice(q.out_arrows(at))
        word.append(a.id)
        at = a.head
    p = PathWord(q.arrow(word[0]).tail, tuple(word))
    res = paths_equal(rs, p, concat(q, p, unit_cycle(q, at)))
    assert (res.verdict, res.reason) == (NOT_EQUAL, "matching_profile")
    scrambled = p.arrows
    for _ in range(12):
        succs, _ = naive_successors(rs, scrambled, len(p.arrows) + q.max_face_length())
        scrambled = rng.choice(succs)[0]
    r = PathWord(p.base, scrambled)
    assert r != p
    res = paths_equal(rs, p, r)
    assert res.verdict == EQUAL
    assert replay_witness(rs, p, res.steps)[-1] == r


def test_profile_off_the_torus():
    # c3 with every homology label zero fails validation; one matching
    # no longer refutes arrows 1 and 2, which the closure still tells apart
    c3 = fixtures_mod.c3_quiver()
    flat = make_quiver(1, [(a.tail, a.head, (0, 0)) for a in c3.arrows],
                       [f.boundary for f in c3.faces])
    assert not validate_dimer(flat).ok
    res = paths_equal(RewriteSystem(flat), PathWord(0, (1,)), PathWord(0, (2,)))
    assert (res.verdict, res.reason) == (NOT_EQUAL, "saturated")
    rs, full = RewriteSystem(flat), full_profile(flat)
    assert rs.profile((1,)) == rs.profile((2,)) and full((1,)) != full((2,))
    # the pinched c3 of test_quiver: a sphere pinched twice.  On both, a
    # mismatch in the one matching is still a mismatch in all of them
    pinched = make_quiver(1, [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (-1, -1))],
                          [(0, 1, 2), (0, 1, 2)])
    words = [w for n in range(1, 5) for w in itertools.product(range(3), repeat=n)]
    for q in (flat, pinched):
        rs, full = RewriteSystem(q), full_profile(q)
        for p, r in itertools.combinations(words, 2):
            assert rs.profile(p) == rs.profile(r) or full(p) != full(r)


def test_trivial_path_without_a_profile():
    # bigon_inserted_c3 has no perfect matching, so no profile tells the
    # trivial path from the 2-cycle (3, 4); only the trivial-path rule does
    rs = RewriteSystem(fixtures_mod.bigon_inserted_c3())
    assert not rs.has_matching
    p, r = PathWord(0, ()), PathWord(0, (3, 4))
    res = paths_equal(rs, p, r)
    assert (res.verdict, res.reason, res.states) == (NOT_EQUAL, "trivial_path", 0)


def test_profile_of_a_long_word():
    # (0, 1, 2) is a face of c3, so it holds exactly one arrow of D0
    rs = RewriteSystem(fixtures_mod.c3_quiver())
    k = 2 ** 16 // 3 + 1
    assert len((0, 1, 2) * k) >= 2 ** 16
    assert rs.profile((0, 1, 2) * k) == k


def test_complete_closure_decides_not_equal(all_fixtures):
    fx = all_fixtures["fig_noncancellative_central"]
    rs = RewriteSystem(fx.quiver)
    ec = EqualityClasses(rs)
    res = compare(ec, fx.paths["p"], fx.paths["q"])
    assert (res.verdict, res.reason) == (NOT_EQUAL, "saturated")
    # the closures are kept: asking again costs no state
    assert compare(ec, fx.paths["p"], fx.paths["q"]).states == 0


def test_noncancellative_search_stops_when_budget_is_spent(iso_r, monkeypatch):
    # fig_iso_R contracted at arrow 0 is not certified, so it is searched;
    # 300 states run out before its pair
    budgets = []
    query = EqualityClasses._query

    def counted(self, rep, word, text, max_states=None):
        budgets.append(max_states)
        return query(self, rep, word, text, max_states)

    monkeypatch.setattr(rewriting.EqualityClasses, "_query", counted)
    target = contract(iso_r.quiver, [0]).target
    rep = find_noncancellative_pair(target, bounds=SearchBounds(0, 300))
    assert rep.exhausted and not rep.found and rep.decided_by == "pair_search"
    assert rep.pairs_tested == len(budgets) == 8
    assert all(b > 0 for b in budgets)


def test_iso_r_target_is_decided_cancellative(iso_r_contraction):
    rep = is_cyclic(iso_r_contraction)
    assert rep.cancellative_target is True
    assert rep.cyclic_up_to_bound is True
    assert main(["contract", "fixture:fig_iso_R", "--check-cyclic"]) == 0


@pytest.mark.parametrize("budget", [0, 1, 2000])
def test_certified_target_is_cancellative_at_any_budget(iso_r_contraction, budget):
    # the zig-zag test certifies the fig_iso_R target before any search
    rep = is_cyclic(iso_r_contraction, SearchBounds(0, budget))
    assert (rep.cancellative_target, rep.decided_by) == (True, "zigzag")
    assert rep.cyclic_up_to_bound is True


def test_certified_target_exits_0_under_a_small_budget(capsys):
    code = main(["contract", "fixture:fig_iso_R", "--check-cyclic", "--max-states", "2000"])
    assert code == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["cancellative_decided_by"] == "zigzag"


def test_cut_off_target_search_is_undecided(iso_r, capsys):
    # fig_iso_R contracted at arrow 0 has a non-cancellative pair in its
    # target, so the target is not certified; 100 states stop the search
    # before the pair
    c = contract(iso_r.quiver, [0])
    rep = is_cyclic(c, SearchBounds(0, 100))
    assert rep.semigroups_match
    assert (rep.cancellative_target, rep.decided_by) == (None, "pair_search")
    assert rep.cyclic_up_to_bound is None
    assert is_cyclic(c).cancellative_target is False
    code = main(["contract", "fixture:fig_iso_R", "--arrows", "0", "--check-cyclic",
                 "--max-states", "100"])
    assert code == 2
    assert '"cyclic_up_to_bound": null' in capsys.readouterr().out


def test_read_back_link_is_first_successor(all_fixtures, iso_r_contraction, monkeypatch):
    # the windowed read-back of each parent link picks the same rewrite as
    # the naive scan of every rule at every position, in successors order
    quivers = [all_fixtures["fig_hsb_ii"].quiver, iso_r_contraction.target]
    links = 0
    for q in quivers:
        rs = RewriteSystem(q)
        ec = EqualityClasses(rs)
        for v in range(q.num_vertices):
            ec.split(enumerate_cycles(q, v, 5).cycles)
        for closure in ec.closures.values():
            links += check_read_back(rs, closure.words, closure.cap)[0]
    assert links > 1000
    # the parent maps of best-first searches, on the quivers with rules
    # whose two arcs share their first or their last arrow
    maps = []
    witness = rewriting._witness

    def recorded(rs, parents, word, shift=0):
        maps.append(dict(parents))
        return witness(rs, parents, word, shift)

    monkeypatch.setattr(rewriting, "_witness", recorded)
    rng = random.Random("read back")
    total = 0
    for q in shared_end_quivers():
        rs = RewriteSystem(q)
        links = shared = 0
        for _ in range(30):
            p = PathWord(0, random_walk_at(rng, q, 0, rng.randint(2, 8)))
            r = PathWord(0, random_rewrites(rng, rs, p.arrows, 6))
            cap = DEFAULT_BOUNDS.word_cap(rs, p)
            maps.clear()
            res = rewriting._best_first(rs, p, r, DEFAULT_BOUNDS, 2000)
            assert res.verdict == EQUAL and len(maps) == (p != r), (p, r)
            for parents in maps:
                n, k = check_read_back(rs, parents, cap)
                links, shared = links + n, shared + k
        assert shared > 0, (q, links, shared)
        total += links
    assert total > 100


def shared_end_quivers():
    """The quivers with a rule whose two arcs share their first or their
    last arrow, among the fixtures, their contraction targets and bigon
    reductions, c3 and ``bigon_inserted_c3``: fig_hsb_ii and fig_iso_R,
    which are valid, and the degenerate ``bigon_inserted_c3``."""
    return [fixtures_mod.fixture("fig_hsb_ii").quiver, fixtures_mod.fixture("fig_iso_R").quiver,
            fixtures_mod.bigon_inserted_c3()]


def random_rewrites(rng, rs, word, n):
    """The word after up to n rewrites, each drawn among its successors
    at most two arrows longer than the word."""
    for _ in range(n):
        succs = naive_successors(rs, word, len(word) + 2)[0]
        word = rng.choice(succs)[0] if succs else word
    return word


def check_read_back(rs, parents, cap):
    """Each link of a parent map of text words read back, by ``read_back``
    with and without a shift, like the first naive successor under ``cap``
    that makes it; the links, and how many of them apply a rule whose arcs
    share an end arrow."""
    links = shared = 0
    for w, parent in parents.items():
        if parent is None:
            continue
        first = next(s for s in naive_successors(rs, _decode(parent), cap)[0]
                     if s[0] == _decode(w))
        step = RewriteStep(*first[1:])
        assert rs.read_back(parent, w) == step
        shifted = RewriteStep(step.pos + 3, step.arrow, step.old, step.new)
        assert rs.read_back(parent, w, 3) == shifted
        links += 1
        shared += step.old[0] == step.new[0] or step.old[-1] == step.new[-1]
    return links, shared


def test_read_back_of_random_rewrites():
    # one random rewrite of a random word reads back as the first naive
    # successor that makes the same word; on bigon_inserted_c3, 4.1.2.0
    # and 4 share their first arrow, so 4.1.2.0.1 -> 4.1 agrees with the
    # other word past the replacement, and the suffix measured clear of
    # the common prefix would leave its window out.  The word one arrow
    # longer than the rewritten one reads back only if a rewrite makes it
    rng = random.Random("random rewrites")
    links = shared = refused = 0
    for q in shared_end_quivers():
        rs = RewriteSystem(q)
        for _ in range(400):
            at = rng.randrange(q.num_vertices)
            word = random_walk_at(rng, q, at, rng.randint(1, 9))
            cap = len(word) + 2 * q.max_face_length()
            succs = naive_successors(rs, word, cap)[0]
            if not succs:
                continue
            nxt = rng.choice(succs)[0]
            n, k = check_read_back(rs, {_encode(word): None, _encode(nxt): _encode(word)}, cap)
            links, shared = links + n, shared + k
            longer = nxt + random_walk_at(rng, q, q.arrow(nxt[-1]).head, 1)
            made = [RewriteStep(*s[1:]) for s in succs if s[0] == longer]
            if made:
                assert rs.read_back(_encode(word), _encode(longer)) == made[0]
            else:
                with pytest.raises(quiver.DomainError, match="no single rewrite"):
                    rs.read_back(_encode(word), _encode(longer))
                refused += 1
    assert links > 800 and shared > 300 and refused > 800
    rs = RewriteSystem(fixtures_mod.bigon_inserted_c3())
    step = rs.read_back(_encode((4, 1, 2, 0, 1)), _encode((4, 1)))
    assert step == RewriteStep(0, 3, (4, 1, 2, 0), (4,))


# -- split compares a word only with representatives sharing its invariants ---


def unbucketed_split(classes, words):
    """Each word against every class representative in class order."""
    split, unknown = [], 0
    for k, w in enumerate(words):
        for cls in split:
            verdict = compare(classes, words[cls[0]], w).verdict
            if verdict == EQUAL:
                cls.append(k)
                break
            if verdict == UNKNOWN:
                unknown += 1
        else:
            split.append([k])
    return split, unknown


def test_split_compares_only_within_invariants(all_fixtures, iso_r_contraction, monkeypatch):
    pairs = []
    query = EqualityClasses._query

    def counted(self, rep, word, text, max_states=None):
        pairs.append((self.rs, rep, word))
        return query(self, rep, word, text, max_states)

    monkeypatch.setattr(rewriting.EqualityClasses, "_query", counted)
    c = iso_r_contraction
    free = next(g for g in source_cycle_algebra_generators(c) if sum(g) == 1)
    for g in (sigma(c), mon_add(sigma(c), free)):
        reduced_center_contains(c, g)
    q = all_fixtures["fig_hsb_ii"].quiver
    enumerate_cycles(q, 0, 6, rs=RewriteSystem(q), dedup_mod_relations=True)
    assert len(pairs) > 100
    for rs, rep, word in pairs:
        assert rewriting._invariants(rs, rep) == rewriting._invariants(rs, word), (rep, word)


def test_budgeted_split_is_the_unbucketed_loop(all_fixtures):
    q = all_fixtures["fig_iso_R"].quiver
    rs = RewriteSystem(q)
    bounds = SearchBounds(max_states=3)
    words = enumerate_cycles(q, 0, 6).cycles
    split, unknown = EqualityClasses(rs, bounds).split(words)
    assert unknown > 0
    assert (split, unknown) == unbucketed_split(EqualityClasses(rs, bounds), words)
    # against the unbudgeted reference: decided verdicts agree, and every
    # budgeted class lies inside one true class
    ref, ref_unknown = pairwise_split(rs, words, bounds, classes=EqualityClasses(rs, bounds))
    assert ref_unknown == 0 and len(ref) < len(split)
    owner = {k: n for n, cls in enumerate(ref) for k in cls}
    assert all(len({owner[k] for k in cls}) == 1 for cls in split)


# -- every closure, pinned ------------------------------------------------------


def random_word(rng, q, n):
    at = rng.randrange(q.num_vertices)
    word = []
    for _ in range(n):
        a = rng.choice(q.out_arrows(at))
        word.append(a.id)
        at = a.head
    return tuple(word)


def search_groups(q, rs, rng):
    """Words to split: the first 40 cycles of each length up to 5 at two
    vertices, and four random words of 6 to 10 arrows, each with four
    words reached from it by random rewrites."""
    groups = []
    for v in range(min(2, q.num_vertices)):
        for n in range(1, 6):
            groups.append([PathWord(v, c) for c in itertools.islice(rewriting._cycles_at(q, v, n), 40)])
    for _ in range(4):
        word = random_word(rng, q, rng.randint(6, 10))
        group = [PathWord(q.arrow(word[0]).tail, word)]
        for _ in range(4):
            for _ in range(rng.randint(1, 6)):
                succs = naive_successors(rs, word, len(word) + 2)[0]
                word = rng.choice(succs)[0] if succs else word
            group.append(PathWord(group[0].base, word))
        groups.append(group)
    return [g for g in groups if len(g) > 1]


def budgeted_searches(rs, groups):
    """Every result and every closure of splitting each group in order as
    ``split`` does (a word meets only the representatives that share its
    invariants), at the default cap and at caps L..L+3 for the group's
    first length L, with a budget of 500 states; every third word gets 2
    instead, which cuts its search off mid-layer."""
    log = []
    for group in groups:
        length = len(group[0].arrows)
        for cap in (0, length, length + 1, length + 2, length + 3):
            ec = EqualityClasses(rs, SearchBounds(cap, 500))
            buckets = {}
            for k, w in enumerate(group):
                reps = buckets.setdefault(rewriting._invariants(rs, w), [])
                for rep in reps:
                    res = compare(ec, rep, w, max_states=2 if k % 3 == 1 else None)
                    log.append(res)
                    if res.is_equal:
                        break
                else:
                    reps.append(w)
            log += [(key, list(c.words.items()), c.pending, c.truncated)
                    for key, c in ec.closures.items()]
    return log


# the digest of each budgeted_searches log, recorded with the sleep-set
# scan that skipped the windows clear of the rewrite that made a word
SKIPPING_DIGESTS = {
    "fig_deformation": "e5841d405541af14",
    "fig_iso_R": "72e87c4fcec05bed",
    "fig_nested(1)": "d4a1ed8caead9715",
    "fig_nested(2)": "ffa1fecba4ce4bff",
    "fig_nested(3)": "721f65003842d4b5",
    "fig_hsb_ii": "9e095af3ba021d6d",
    "fig_noncancellative_central": "c8c0505ee08d8355",
    "fig_nested(4)": "d5aded87e4371b3e",
    "fig_nested(5)": "0b78abd95182ac74",
    "c3": "d1929409febd4659",
    "conifold": "8ac912ed62b77313",
    "c3 4x4": "aeb34f7ad9eaef5d",
    "conifold 3x3": "781ad27406b7a931",
    "fig_deformation 3x2": "e70be689530484d4",
    "fig_deformation 3x3": "4593f8cf474e3fe1",
}


@pytest.mark.parametrize("name", LEMMA_QUIVERS)
def test_skipping_keeps_every_closure(name):
    # every closure's words with their parents in order, its pending words
    # and its cut flag, and every result with its witness and states: the
    # full scan keeps what the skipping scan built
    rng = random.Random(f"skipping {name}")
    digest = hashlib.sha256()
    cut = 0
    for q in lemma_quivers(name):
        rs = RewriteSystem(q)
        log = budgeted_searches(rs, search_groups(q, rs, rng))
        cut += sum(isinstance(r, EqResult) and r.reason == "state_budget" for r in log)
        digest.update(repr(log).encode())
    assert cut > 0
    assert digest.hexdigest()[:16] == SKIPPING_DIGESTS[name]


# at cap 9 both closures cut a rewrite before they meet
ISO_R_TIGHT = ((7, 10, 11, 7, 10, 11), (9, 10, 11, 7, 10, 12), 9)


def iso_r_tight(q):
    """ISO_R_TIGHT as paths of q, and its cap."""
    p, r, cap = ISO_R_TIGHT
    return PathWord(q.arrow(p[0]).tail, p), PathWord(q.arrow(r[0]).tail, r), cap


def test_tight_cap_pair_is_equal_in_the_library_and_the_cli(all_fixtures, capsys):
    q = all_fixtures["fig_iso_R"].quiver
    rs = RewriteSystem(q)
    p, r, cap = iso_r_tight(q)
    res = paths_equal(rs, p, r, SearchBounds(cap))
    assert (res.verdict, len(res.steps)) == (EQUAL, 7)
    assert replay_witness(rs, p, res.steps)[-1] == r
    args = ["--max-word-length", str(cap), "eq", "fixture:fig_iso_R",
            "--p", ",".join(map(str, p.arrows)), "--q", ",".join(map(str, r.arrows))]
    assert main(args) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    steps = [RewriteStep(s["pos"], s["arrow"], tuple(s["old"]), tuple(s["new"]))
             for s in results["witness"]]
    assert results["verdict"] == EQUAL and replay_witness(rs, p, steps)[-1] == r


def test_best_first_cut_by_its_cap_answers_unknown(all_fixtures):
    # paths_equal searches best first only under exact caps, which cut
    # nothing.  Under a cap that cuts, running out of words is not the
    # whole class: the tight pair is Equal at its cap, and one arrow below
    # it the search answers Unknown, not NotEqual
    q = all_fixtures["fig_iso_R"].quiver
    rs = RewriteSystem(q)
    p, r, cap = iso_r_tight(q)
    res = rewriting._best_first(rs, p, r, SearchBounds(cap - 1), 5000)
    assert (res.verdict, res.reason) == (UNKNOWN, "word_length")
    res = rewriting._best_first(rs, p, r, SearchBounds(cap), 5000)
    assert res.is_equal
    assert_replays_inside_cap(rs, p, r, res, SearchBounds(cap))


# a swapped pair on the c3 cover: 2 arrows in front and 9 behind are
# shared, and the cores meet at a vertex after 5 and after 6 arrows each
C3_CORE = (11, (11, 15, 19, 16, 17, 2, 38, 17, 18, 35, 14, 18, 35, 30, 31, 28, 29, 46, 41, 4),
           (11, 15, 35, 14, 18, 19, 16, 17, 2, 38, 17, 18, 35, 30, 31, 28, 29, 46, 41, 4))


def c3_core_pair():
    q = load_torus_cover()(fixtures_mod.c3_quiver(), 4, 4)
    base, p, r = C3_CORE
    return RewriteSystem(q), PathWord(base, p), PathWord(base, r)


def assert_replays_inside_cap(rs, p, r, res, bounds):
    trail = replay_witness(rs, p, res.steps)
    assert trail[-1] == r
    cap = max(bounds.word_cap(rs, p), bounds.word_cap(rs, r))
    assert max(len(w.arrows) for w in trail) <= cap


def test_block_search_settles_a_pair_the_whole_words_do_not():
    # the cores are cut where both have walked to the same vertex with the
    # same homology and profile: 19,16,17,2,38 | 17 | 18,35,14 against
    # 35,14,18,19,16 | 17 | 2,38,17.  The differing blocks are equal, so
    # the whole words are: the block witnesses, each shifted past the
    # blocks before it, replay on them inside the cap
    rs, p, r = c3_core_pair()
    bounds = SearchBounds(0, 5000)
    blocks = rewriting._blocks(rs, p, r)
    assert [(at, u.arrows, v.arrows) for at, u, v in blocks] == [
        (2, (19, 16, 17, 2, 38), (35, 14, 18, 19, 16)),
        (8, (18, 35, 14), (2, 38, 17)),
    ]
    res = paths_equal(rs, p, r, bounds)
    assert (res.verdict, res.states) == (EQUAL, 16)
    assert min(step.pos for step in res.steps) >= 2
    assert_replays_inside_cap(rs, p, r, res, bounds)
    whole = EqualityClasses(rs, bounds)._query(p, r, _encode(r.arrows))
    assert whole == EqResult(UNKNOWN, "state_budget", states=5001)


def test_block_search_spends_the_state_budget():
    # the first block takes 12 states, the second 4: a budget of 12
    # settles the first and leaves none for the second
    rs, p, r = c3_core_pair()
    for k in (0, 6, 11, 12, 15):
        res = paths_equal(rs, p, r, SearchBounds(0, k))
        assert (res.verdict, res.reason, res.states) == (UNKNOWN, "state_budget", k + 1), k
    assert paths_equal(rs, p, r, SearchBounds(0, 16)).verdict == EQUAL


# two swapped pairs of the pairs pool of perfbench/workloads.py (keys
# fig_hsb_ii|20|swapped|3 and fig_iso_R|20|swapped|3): base, p, r
POOL_SWAPPED = {
    "fig_hsb_ii": (3, (8, 5, 4, 14, 10, 11, 14, 6, 9, 12, 1, 4, 5, 2, 3, 0, 10, 11, 5, 4),
                   (8, 5, 0, 10, 11, 5, 4, 14, 10, 11, 14, 6, 9, 12, 1, 4, 5, 2, 3, 4)),
    "fig_iso_R": (6, (8, 3, 1, 0, 15, 16, 3, 14, 12, 9, 8, 4, 5, 2, 1, 0, 2, 14, 11, 7),
                  (8, 4, 5, 2, 1, 0, 2, 14, 11, 7, 8, 3, 1, 0, 15, 16, 3, 14, 12, 9)),
}


@pytest.mark.parametrize("name, states", [("fig_hsb_ii", 128), ("fig_iso_R", 270)])
def test_best_first_settles_pool_pairs_breadth_first_does_not(name, states):
    # the search heads toward the other word: Equal in a few hundred
    # states, where the breadth-first whole-word query spends the budget
    rs = RewriteSystem(fixtures_mod.fixture(name).quiver)
    base, p, r = POOL_SWAPPED[name]
    p, r = PathWord(base, p), PathWord(base, r)
    bounds = SearchBounds(0, 5000)
    res = paths_equal(rs, p, r, bounds)
    assert (res.verdict, res.states) == (EQUAL, states)
    assert_replays_inside_cap(rs, p, r, res, bounds)
    whole = EqualityClasses(rs, bounds)._query(p, r, _encode(r.arrows))
    assert (whole.verdict, whole.reason) == (UNKNOWN, "state_budget")


def test_unequal_core_falls_back_to_the_whole_words(deformation):
    # fig_deformation is not cancellative: its cores 4,6,6,1 and 5,6,6,0
    # differ, and walked before 2,4 they are equal
    rs = RewriteSystem(deformation.quiver)
    p, r = PathWord(1, (4, 6, 6, 1, 2, 4)), PathWord(1, (5, 6, 6, 0, 2, 4))
    core = paths_equal(rs, PathWord(1, p.arrows[:4]), PathWord(1, r.arrows[:4]))
    assert (core.verdict, core.reason) == (NOT_EQUAL, "saturated")
    res = paths_equal(rs, p, r)
    assert res.verdict == EQUAL
    assert_replays_inside_cap(rs, p, r, res, DEFAULT_BOUNDS)


def test_unequal_block_falls_back_past_an_equal_one(deformation):
    # the same pair behind 0,2 and 6,0,3, which are equal: the first block
    # is settled, the second is the unequal core, so the whole words are
    # searched, and the first block's witness is not part of the answer
    rs = RewriteSystem(deformation.quiver)
    p, r = PathWord(0, (0, 2, 4, 6, 6, 1, 2, 4)), PathWord(0, (6, 0, 3, 5, 6, 6, 0, 2, 4))
    blocks = rewriting._blocks(rs, p, r)
    assert [(at, u.arrows, v.arrows) for at, u, v in blocks] == [
        (0, (0, 2), (6, 0, 3)), (3, (4, 6, 6, 1), (5, 6, 6, 0))]
    first = paths_equal(rs, blocks[0][1], blocks[0][2])
    assert first.verdict == EQUAL
    res = paths_equal(rs, p, r)
    assert res.verdict == EQUAL and res.states > first.states
    assert_replays_inside_cap(rs, p, r, res, DEFAULT_BOUNDS)


@pytest.mark.parametrize("name, p, r", [
    # 0,2 | 4 | 6,0,3 against 6,0,3 | 4 | 0,2: 6,0,3,4,6,0,3 in between
    ("fig_deformation", (0, 2, 4, 6, 0, 3), (6, 0, 3, 4, 0, 2)),
    # 0,6 | 9,12,1 against 4,7,13 | 8,5: 4,7,13,9,12,1 in between
    ("fig_hsb_ii", (0, 6, 9, 12, 1), (4, 7, 13, 8, 5)),
], ids=["fig_deformation", "fig_hsb_ii"])
def test_user_cap_skips_the_block_stage(name, p, r, monkeypatch):
    # one rewrite makes each block of the other, but the word between the
    # two block searches is an arrow longer than both words.  At the
    # default cap every word of the class fits, so the blocks are
    # searched; under a user cap the whole words are, and every witness
    # word stays inside that cap
    rs = RewriteSystem(fixtures_mod.fixture(name).quiver)
    p, r = PathWord(0, p), PathWord(0, r)
    cap = max(len(p.arrows), len(r.arrows))
    assert len(rewriting._blocks(rs, p, r)) == 2
    res = paths_equal(rs, p, r)
    assert res.verdict == EQUAL and DEFAULT_BOUNDS.word_cap(rs, p) > cap
    assert_replays_inside_cap(rs, p, r, res, DEFAULT_BOUNDS)
    monkeypatch.setattr(rewriting, "_blocks", None)  # a call would raise
    for bounds in (SearchBounds(cap), SearchBounds(cap + 1)):
        res = paths_equal(rs, p, r, bounds)
        assert res.verdict == EQUAL
        assert_replays_inside_cap(rs, p, r, res, bounds)


def shared_end_pairs(q, rs, rng, count):
    """Pairs x.u.y and x.v.y, x and y of up to 2 arrows, of three kinds in
    turn: v is u after random rewrites; u and v are cycles at one vertex
    with the same invariants, equal or not; or u and v are two pairs of the
    first kind end to end, both changed, so that the cores can be cut
    between the two."""
    def rewritten(u):
        return random_rewrites(rng, rs, u, rng.randint(1, 5))

    pairs = []
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            u = random_word(rng, q, rng.randint(2, 7))
            v = rewritten(u)
        elif kind == 1:
            at = rng.randrange(q.num_vertices)
            buckets = {}
            for c in itertools.islice(rewriting._cycles_at(q, at, rng.randint(2, 6)), 60):
                buckets.setdefault(rewriting._invariants(rs, PathWord(at, c)), []).append(c)
            cycles = max(buckets.values(), key=len, default=[])
            if len(cycles) < 2:
                continue
            u, v = rng.sample(cycles, 2)
        else:
            u = random_word(rng, q, rng.randint(2, 5))
            w = random_walk_at(rng, q, q.arrow(u[-1]).head, rng.randint(2, 5))
            v, z = rewritten(u), rewritten(w)
            if v == u or z == w:
                continue
            u, v = u + w, v + z
        if u == v:
            continue
        x = random_walk_at(rng, q, q.arrow(u[0]).tail, rng.randint(0, 2), into=True)
        y = random_walk_at(rng, q, q.arrow(u[-1]).head, rng.randint(0, 2))
        base = q.arrow(x[0]).tail if x else q.arrow(u[0]).tail
        pairs.append((PathWord(base, x + u + y), PathWord(base, x + v + y)))
    return pairs


def random_walk_at(rng, q, at, n, into=False):
    """A random walk of n arrows out of vertex ``at``, or into it."""
    word = []
    for _ in range(n):
        a = rng.choice(q.in_arrows(at) if into else q.out_arrows(at))
        word.append(a.id)
        at = a.tail if into else a.head
    return tuple(reversed(word)) if into else tuple(word)


@pytest.mark.parametrize("name", LEMMA_QUIVERS)
def test_block_search_agrees_with_the_whole_word_search(name):
    # paths_equal never contradicts a decided whole-word query, its
    # NotEqual is the query's, and its Equal witness replays inside the cap
    rng = random.Random(f"cores {name}")
    settled = cut = 0
    for q in lemma_quivers(name):
        rs = RewriteSystem(q)
        for p, r in shared_end_pairs(q, rs, rng, 12):
            length = max(len(p.arrows), len(r.arrows))
            for cap in (0, length, length + 1, length + 2):
                bounds = SearchBounds(cap, 300)
                cut += cap == 0 and len(rewriting._blocks(rs, p, r) or ()) > 1
                res = paths_equal(rs, p, r, bounds)
                ref = compare(EqualityClasses(rs, bounds), p, r)
                if res.is_not_equal:
                    assert (ref.verdict, ref.reason) == (res.verdict, res.reason), (p, r, cap)
                if res.is_equal:
                    assert not ref.is_not_equal, (p, r, cap)
                    assert_replays_inside_cap(rs, p, r, res, bounds)
                    settled += ref.verdict == UNKNOWN or res.states < ref.states
    assert settled > 0 and cut > 0


# -- the default cap: exact on nondegenerate quivers ---------------------------


def test_default_caps_cut_nothing_on_the_benchmark_pools(monkeypatch):
    # the full pairs pool and the classify pool of perfbench/workloads.py,
    # run at default word caps: no successors call suppresses a rewrite
    workloads = load_perfbench("workloads")
    lib = SimpleNamespace(center=center, contraction=contraction, fixtures=fixtures_mod,
                          monomial_algebra=monomial_algebra, quiver=quiver, rewriting=rewriting)
    scan = RewriteSystem.successors
    count = {"calls": 0, "cuts": 0}

    def counted(self, word, cap, *args):
        succs, truncated = scan(self, word, cap, *args)
        count["calls"] += 1
        count["cuts"] += truncated
        return succs, truncated

    monkeypatch.setattr(RewriteSystem, "successors", counted)
    for build in (workloads.build_pairs, workloads.build_classify):
        count["calls"] = 0
        for job in build(lib, 1, None, full=True):
            job.run()
        assert count["calls"] > 0 and count["cuts"] == 0, (build.__name__, count)


def test_pairs_pool_keeps_its_recorded_verdicts(monkeypatch):
    # the full pairs pool of perfbench/workloads.py, read-only: at most 3
    # Unknowns, every verdict decided in perfbench/reference.json decided
    # alike, and every Equal witness replays inside its cap.  The pool is
    # also pinned byte for byte: verdict, reason, states and every witness
    # step of each job, as recorded before the one-pass walk and the
    # read-back on text, which change no search
    workloads = load_perfbench("workloads")
    answers = json.loads((PERFBENCH / "reference.json").read_text())["answers"]
    lib = SimpleNamespace(fixtures=fixtures_mod, quiver=quiver, rewriting=rewriting)
    search, calls = paths_equal, []

    def recorded(rs, p, r, bounds):
        calls.append((rs, p, r, bounds))
        return search(rs, p, r, bounds)

    monkeypatch.setattr(rewriting, "paths_equal", recorded)
    unknown = 0
    rows = []
    for job in workloads.build_pairs(lib, 1, full=True):
        res = job.run()
        rs, p, r, bounds = calls[-1]
        unknown += res.verdict == UNKNOWN
        assert job.certify(res) is None, job.key
        if answers[job.key] is not None:
            assert res.verdict == answers[job.key], job.key
        if res.is_equal:
            assert_replays_inside_cap(rs, p, r, res, bounds)
        steps = [[s.pos, s.arrow, list(s.old), list(s.new)] for s in res.steps]
        rows.append([job.key, res.verdict, res.reason, res.states, steps])
    assert len(calls) == 288 and unknown <= 3
    rows.sort(key=lambda row: row[0])
    digest = hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:16]
    states = sum(row[3] for row in rows)
    steps = sum(len(row[4]) for row in rows)
    assert (digest, states, steps, unknown) == ("975099bd2232a2ac", 27017, 1986, 3)


def test_degenerate_quiver_keeps_its_classes():
    # bigon_inserted_c3 has no perfect matching, and a class can be
    # infinite (4 = 4.1.2.0 = 4.(1.2.0)^k), so the default cap is the
    # word's length plus twice the longest face, and it cuts
    q = fixtures_mod.bigon_inserted_c3()
    rs = RewriteSystem(q)
    assert rs.cover_counts is None
    assert DEFAULT_BOUNDS.word_cap(rs, PathWord(1, (4,))) == 1 + 2 * q.max_face_length()
    enum = enumerate_cycles(q, 0, 3, rs=rs, dedup_mod_relations=True)
    assert (len(enum.classes), enum.unknown_pairs) == (40, 6)
