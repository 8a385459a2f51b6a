"""Path equality against ``oracles.oracle_class``, the plain closure of a
word under single rewrites: ``paths_equal``, ``split`` with closures kept
across queries, the default word cap, and the inequality of the pairs
that ``find_noncancellative_pair`` reports.

At a word cap K the oracle gives the words reached from p through words
of at most K arrows, and whether a rewrite passed K.  Each side of a
search keeps the cap of its start word: p's closure searches under P,
the word r's search under R.  With states to spare, the search must
answer Equal when the oracle reaches r from p under min(P, R), and only
when it does under max(P, R), with every word of its witness inside
max(P, R); it may answer NotEqual (saturated) only when the oracle
closure of p under P or of r under R is the whole class, and Unknown
(word_length) only when one of them is not: the search stops as soon as
either side is complete.  Every arrow of the quivers here lies in a
perfect matching, so the default caps of two words with the same
invariants are one exact bound, and a user cap is one cap for both."""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dimeralg import fixtures as fixtures_mod
from dimeralg.oracles import OracleSizeExceeded, oracle_class
from dimeralg.quiver import PathWord, concat
from dimeralg.rewriting import (
    DEFAULT_BOUNDS,
    EQUAL,
    NOT_EQUAL,
    UNKNOWN,
    EqualityClasses,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    paths_equal,
    replay_witness,
)

from conftest import FIXTURES, load_torus_cover

ORACLE_QUIVERS = FIXTURES + ["c3_4x4"]
MAX_WORDS = 4000  # oracle closures past this are left out of a draw


@functools.lru_cache(maxsize=None)
def rewrite_system(name):
    if name == "c3_4x4":
        return RewriteSystem(load_torus_cover()(fixtures_mod.c3_quiver(), 4, 4))
    return RewriteSystem(fixtures_mod.fixture(name).quiver)


@functools.lru_cache(maxsize=4096)
def oracle(name, word, cap):
    return oracle_class(rewrite_system(name).quiver, word, cap, MAX_WORDS)


def caps(p, r):
    """The default word cap and the tight caps L..L+3, L the longer word."""
    length = max(len(p.arrows), len(r.arrows))
    return (0, length, length + 1, length + 2, length + 3)


def check_answer(name, res, p, r, p_cap, r_cap):
    """One answer on p and r against the oracle, p's side searched under
    ``p_cap`` and r's under ``r_cap``."""
    low, high = sorted((p_cap, r_cap))
    reached, p_cut = oracle(name, p.arrows, p_cap)
    if r.arrows in oracle(name, p.arrows, low)[0]:
        assert res.verdict == EQUAL, (name, p, r, low, res)
    if res.verdict == EQUAL:
        assert r.arrows in oracle(name, p.arrows, high)[0]
    elif res.verdict == NOT_EQUAL:
        assert r.arrows not in reached, (name, p, r, p_cap, res)
        if res.reason == "saturated":
            assert not (p_cut and oracle(name, r.arrows, r_cap)[1]), (name, p, r, res)
    else:
        assert res.reason == "word_length", (name, p, r, res)
        assert p_cut or oracle(name, r.arrows, r_cap)[1], (name, p, r, res)


def check_witness(rs, p, r, steps, cap):
    trail = replay_witness(rs, p, steps)
    assert trail[-1] == r
    assert max(len(w.arrows) for w in trail) <= cap, (p, r, cap)


def check_paths_equal(name, p, r):
    rs = rewrite_system(name)
    for cap in caps(p, r):
        bounds = SearchBounds(cap)
        p_cap, r_cap = bounds.word_cap(rs, p), bounds.word_cap(rs, r)
        res = paths_equal(rs, p, r, bounds)
        check_answer(name, res, p, r, p_cap, r_cap)
        if res.verdict == EQUAL:
            check_witness(rs, p, r, res.steps, max(p_cap, r_cap))


def walk(rng, q, length):
    at = rng.randrange(q.num_vertices)
    base, word = at, []
    for _ in range(length):
        a = rng.choice(q.out_arrows(at))
        word.append(a.id)
        at = a.head
    return PathWord(base, tuple(word))


def scrambled(rng, rs, p, steps, slack=2):
    """p after ``steps`` random rewrites, each word at most ``slack``
    arrows longer than p."""
    sides = [(old, new) for left, right in rs.rules.values()
             for old, new in ((left, right), (right, left))]
    word = p.arrows
    for _ in range(steps):
        moves = [word[:pos] + new + word[pos + len(old):]
                 for old, new in sides for pos in range(len(word) - len(old) + 1)
                 if word[pos:pos + len(old)] == old
                 and len(word) - len(old) + len(new) <= len(p.arrows) + slack]
        word = rng.choice(moves) if moves else word
    return PathWord(p.base, word)


def swapped(rng, q, p):
    """p with two sub-cycles at a vertex it visits three times swapped,
    or None: the same endpoints, homology and arrow multiset."""
    at = [p.base] + [q.arrow(aid).head for aid in p.arrows]
    visits = {}
    for pos, v in enumerate(at):
        visits.setdefault(v, []).append(pos)
    options = sorted(v for v, pos in visits.items() if len(pos) >= 3)
    if not options:
        return None
    i, j, k = sorted(rng.sample(visits[rng.choice(options)], 3))
    w = p.arrows
    return PathWord(p.base, w[:i] + w[j:k] + w[i:j] + w[k:])


def fits_oracle(name, p, r):
    """Whether the oracle closes both words at their largest cap."""
    rs = rewrite_system(name)
    top = max(caps(p, r)[1:] + (DEFAULT_BOUNDS.word_cap(rs, p), DEFAULT_BOUNDS.word_cap(rs, r)))
    try:
        oracle(name, p.arrows, top)
        oracle(name, r.arrows, top)
    except OracleSizeExceeded:
        return False
    return True


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(ORACLE_QUIVERS), kind=st.sampled_from(["scrambled", "swapped"]),
       length=st.integers(3, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_paths_equal_agrees_with_the_oracle(name, kind, length, seed):
    rs = rewrite_system(name)
    rng = random.Random(seed)
    p = walk(rng, rs.quiver, length)
    r = scrambled(rng, rs, p, length) if kind == "scrambled" else swapped(rng, rs.quiver, p)
    if r is None or r == p or not fits_oracle(name, p, r):
        return
    check_paths_equal(name, p, r)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(ORACLE_QUIVERS), length=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_default_cap_holds_the_whole_class(name, length, seed):
    # every arrow lies in a perfect matching, so the default cap B(w) is
    # exact: given three arrows more, the oracle reaches no word longer
    # than B(w) and cuts nothing, and B is the same on the whole class
    rs = rewrite_system(name)
    assert rs.cover_counts is not None
    w = walk(random.Random(seed), rs.quiver, length)
    bound = DEFAULT_BOUNDS.word_cap(rs, w)
    try:
        reached, cut = oracle(name, w.arrows, bound + 3)
    except OracleSizeExceeded:
        return
    assert not cut and max(map(len, reached)) <= bound, (name, w)
    assert {DEFAULT_BOUNDS.word_cap(rs, PathWord(w.base, u)) for u in reached} == {bound}


NAMED_PAIRS = [
    # b shortens the word, so a sibling skipped at cap 9 never fitted it
    ("fig_iso_R", (7, 10, 11, 7, 10, 11), (9, 10, 11, 7, 10, 12)),
    # at cap 5 the word between the two block searches would have 6 arrows
    ("fig_hsb_ii", (0, 6, 9, 12, 1), (4, 7, 13, 8, 5)),
    # and here at cap 6 it would have 7, and the first block is equal
    ("fig_nested(1)", (8, 0, 12, 4, 5, 7), (4, 5, 7, 6, 8, 14)),
    # the non-cancellative pair walked before r = 4: unequal cores, equal words
    ("fig_deformation", (4, 6, 6, 1, 2, 4), (5, 6, 6, 0, 2, 4)),
    ("fig_deformation", (0, 2, 4, 6, 6, 1, 2, 4), (6, 0, 3, 5, 6, 6, 0, 2, 4)),
]


@pytest.mark.parametrize("name, p, r", NAMED_PAIRS)
def test_named_pairs_agree_with_the_oracle(name, p, r):
    q = rewrite_system(name).quiver
    check_paths_equal(name, PathWord(q.arrow(p[0]).tail, p), PathWord(q.arrow(r[0]).tail, r))


class RecordedClasses(EqualityClasses):
    """Every query of ``split`` with the word caps of its two sides, read
    off the representative and the word, whether it met a closure kept
    from an earlier query, and its witness."""

    def __init__(self, rs, bounds):
        super().__init__(rs, bounds)
        self.log = []

    def _query(self, rep, word, text, max_states=None):
        kept = rep in self.closures
        res = super()._query(rep, word, text, max_states)
        rep_cap, word_cap = (self.bounds.word_cap(self.rs, w) for w in (rep, word))
        assert rep not in self.closures or self.closures[rep].cap == rep_cap
        steps = self.witness(rep, word) if res.verdict == EQUAL else None
        self.log.append((rep, word, res, rep_cap, word_cap, kept, steps))
        return res


def split_groups(name, rng):
    """The cycles of up to 5 arrows at vertex 0, and groups of words with
    one start: a walk, rewritten walks of other lengths, swapped walks and
    other walks, so that one representative meets words of several
    lengths."""
    rs = rewrite_system(name)
    groups = [enumerate_cycles(rs.quiver, 0, 5).cycles]
    for length in (3, 4, 5):
        p = walk(rng, rs.quiver, length)
        group = [p] + [scrambled(rng, rs, p, n, slack) for n in (1, 3, 5) for slack in (0, 2)]
        group += [w for w in (swapped(rng, rs.quiver, g) for g in group) if w is not None]
        group += [walk(rng, rs.quiver, length) for _ in range(3)]
        groups.append(sorted(set(group), key=lambda w: (len(w.arrows), w.arrows)))
    return groups


def test_split_agrees_with_the_oracle():
    kept = [0, 0]  # queries that built the representative's closure, and that met it
    for name in ORACLE_QUIVERS:
        rs = rewrite_system(name)
        rng = random.Random(f"split {name}")
        for group in split_groups(name, rng):
            longest = max(group, key=lambda w: len(w.arrows))
            # shortest first, longest first and shuffled: each word meets
            # representatives of other lengths
            for order in (group, group[::-1], rng.sample(group, len(group))):
                for cap in caps(longest, longest):
                    classes = RecordedClasses(rs, SearchBounds(cap))
                    _, unknown = classes.split(order)
                    assert unknown == sum(r.verdict == UNKNOWN for _, _, r, *_ in classes.log)
                    for rep, word, res, rep_cap, word_cap, met, steps in classes.log:
                        try:
                            check_answer(name, res, rep, word, rep_cap, word_cap)
                        except OracleSizeExceeded:
                            continue
                        if steps is not None:
                            check_witness(rs, rep, word, steps, max(rep_cap, word_cap))
                        kept[met] += 1
    assert all(kept), kept


def test_noncancellative_pairs_are_unequal_by_the_oracle(all_fixtures, all_contractions):
    found = 0
    for name, fx in all_fixtures.items():
        q = fx.quiver
        rep = find_noncancellative_pair(q, all_contractions[name])
        if not rep.found:
            continue
        rs = RewriteSystem(q)
        p, r = rep.pair.p, rep.pair.q
        reached, cut = oracle_class(q, p.arrows, DEFAULT_BOUNDS.word_cap(rs, p))
        assert r.arrows not in reached, name
        assert not (cut and oracle_class(q, r.arrows, DEFAULT_BOUNDS.word_cap(rs, r))[1]), name
        found += 1
        if rep.pair.side == "after":
            pr, qr = concat(q, p, rep.pair.r), concat(q, r, rep.pair.r)
        else:
            pr, qr = concat(q, rep.pair.r, p), concat(q, rep.pair.r, r)
        assert qr.arrows in oracle_class(q, pr.arrows, DEFAULT_BOUNDS.word_cap(rs, pr))[0]
    assert found >= 5
