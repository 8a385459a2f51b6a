"""Path equality against ``oracles.oracle_class``, the plain closure of a
word under single rewrites: ``paths_equal``, ``split`` with closures kept
and raised across word caps, and the inequality of the pairs that
``find_noncancellative_pair`` reports.

At a word cap K the oracle gives the words reached from p through words
of at most K arrows, and whether a rewrite passed K.  A search from the
word under K against p's closure under C >= K, with states to spare,
must answer Equal when the oracle reaches the word under K, and only
when it does under C, with every word of its witness inside C; it may
answer NotEqual (saturated) only when one side's oracle closure is the
whole class, and Unknown (word_length) only when one side's is not: the
search stops as soon as either side is complete.  ``paths_equal``
searches both sides under the pair cap, so for it C = K."""

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
    ``p_cap`` and r's under ``r_cap``, which is at most ``p_cap``."""
    reached, p_cut = oracle(name, p.arrows, p_cap)
    if r.arrows in oracle(name, p.arrows, r_cap)[0]:
        assert res.verdict == EQUAL, (name, p, r, r_cap, res)
    if res.verdict == EQUAL:
        assert r.arrows in reached
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
        pair_cap = bounds.word_cap(rs.quiver, p, r)
        res = paths_equal(rs, p, r, bounds)
        check_answer(name, res, p, r, pair_cap, pair_cap)
        if res.verdict == EQUAL:
            check_witness(rs, p, r, res.steps, pair_cap)


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
    top = max(caps(p, r)[1:] + (DEFAULT_BOUNDS.word_cap(rewrite_system(name).quiver, p, r),))
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
    """Every query of ``split`` with the caps it ran under, its closure's
    fate and its witness.  The fate is "new", "kept" (asked at its cap),
    "lower" (kept, asked at a lower cap), "raised" or "restarted"."""

    def __init__(self, rs, bounds):
        super().__init__(rs, bounds)
        self.log = []

    def _query(self, rep, word, text, max_states=None, cap=None):
        before = self.closures.get(rep)
        old_cap = before and before.cap
        res = super()._query(rep, word, text, max_states, cap)
        closure = self.closures.get(rep)
        pair_cap = self.bounds.word_cap(self.rs.quiver, rep, word)
        fate = ("new" if before is None else "restarted" if closure is not before
                else "raised" if closure.cap > old_cap
                else "lower" if pair_cap < closure.cap else "kept")
        steps = self.witness(rep, word) if res.verdict == EQUAL else None
        self.log.append((rep, word, res, closure and closure.cap, pair_cap, fate, steps))
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
    fates = dict.fromkeys(("new", "kept", "lower", "raised", "restarted"), 0)
    for name in ORACLE_QUIVERS:
        rs = rewrite_system(name)
        rng = random.Random(f"split {name}")
        for group in split_groups(name, rng):
            longest = max(group, key=lambda w: len(w.arrows))
            # shortest first, the caps of a representative's queries rise;
            # longest first, they stay; shuffled, they also fall
            for order in (group, group[::-1], rng.sample(group, len(group))):
                for cap in caps(longest, longest):
                    classes = RecordedClasses(rs, SearchBounds(cap))
                    _, unknown = classes.split(order)
                    assert unknown == sum(r.verdict == UNKNOWN for _, _, r, *_ in classes.log)
                    for rep, word, res, rep_cap, pair_cap, fate, steps in classes.log:
                        try:
                            check_answer(name, res, rep, word, rep_cap, pair_cap)
                        except OracleSizeExceeded:
                            continue
                        if steps is not None:
                            check_witness(rs, rep, word, steps, rep_cap)
                        fates[fate] += 1
    assert fates["kept"] and fates["lower"] and fates["raised"], fates


def test_noncancellative_pairs_are_unequal_by_the_oracle(all_fixtures, all_contractions):
    found = 0
    for name, fx in all_fixtures.items():
        q = fx.quiver
        rep = find_noncancellative_pair(q, all_contractions[name])
        if not rep.found:
            continue
        p, r = rep.pair.p, rep.pair.q
        cap = DEFAULT_BOUNDS.word_cap(q, p, r)
        reached, cut = oracle_class(q, p.arrows, cap)
        assert r.arrows not in reached, name
        assert not (cut and oracle_class(q, r.arrows, cap)[1]), name
        found += 1
        if rep.pair.side == "after":
            pr, qr = concat(q, p, rep.pair.r), concat(q, r, rep.pair.r)
        else:
            pr, qr = concat(q, rep.pair.r, p), concat(q, rep.pair.r, r)
        assert qr.arrows in oracle_class(q, pr.arrows, DEFAULT_BOUNDS.word_cap(q, pr, qr))[0]
    assert found >= 5
