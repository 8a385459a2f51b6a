"""Path equality modulo the face relations, as bounded string rewriting.

Every arrow sits on two faces; rotating each face to start at the arrow
and dropping it leaves two complementary arcs between the same
endpoints, and the relations identify exactly those arcs.  Rewrites
preserve endpoints, homology, and the matching profile, so many
inequalities are certain without a search.  Otherwise there are two
searches.  ``EqualityClasses`` grows the rewrite closure of a class
representative against the closure of the word asked about, first in,
first out, until they meet or one side is complete; it splits words
into classes, and ``paths_equal`` uses it under caps that may cut.  A
complete side that never hit its cap is the whole class, so inequality
is then certain; only a cut-off search answers Unknown.  Under exact
caps ``paths_equal`` searches best first from one word toward the other
(``_best_first``), first on the differing blocks of the two words (the
relations generate a two-sided ideal, so equal blocks make equal
words): a few short searches often settle Equal where the closures of
the whole words would grow with every arrow outside the blocks.

Each search keeps one word cap, ``SearchBounds.word_cap`` of its start
word w: by default sum_i chi_{D_i}(w) over the matchings D_i of
``matchings.matching_cover``, chi_D the arrow count in D, which is
constant on a class (a relation's arcs hold one arrow of D, or none).
When the D_i hold every arrow, no word of the class is longer, so the
cap never cuts it.  Otherwise a class can be infinite (in
``bigon_inserted_c3``, 4 = 4.1.2.0 = 4.(1.2.0)^k), the cap is |w| plus
twice the longest face, and it, like a user cap, can cut a search.

The matching profile is a word's arrow count in D0, the first perfect
matching the exact cover of ``matchings`` finds.  Sound on any quiver:
a relation's arcs are its arrow's two faces minus the arrow, each face
holds one D0 arrow, so both arcs hold one, or none; and D0 is one of the
matchings.  Exact on a valid quiver (``validate_dimer(q).ok``): for any
matching D, chi_D - chi_D0 sums to zero around each face, a 1-cocycle;
the labels vanish on faces and span Z^2, so the surface is the torus
and they are an isomorphism on H_1; words with equal endpoints and
homology differ by a boundary, so their count difference in any D is
the one in D0.  On an invalid quiver D0 may refute fewer pairs than all
matchings; those pairs are searched instead.

Inside the search a word is text, one character per arrow
(``chr(arrow id)``): a str caches its hash and slices cheaply.  One rule
table, keyed by arc text, finds the rewrite sites with one lookup per
window, in order of arc length, then position, then rule, and every
search scans each word it expands in full.  Every word that leaves the
search (``PathWord``, ``RewriteStep``) is a tuple again.

``find_noncancellative_pair`` works on the 2-cycle-free quiver of
``bigon_reduce``, which has the same algebra.  It first tries the
zig-zag certificate: a valid, nondegenerate, zig-zag consistent quiver
is cancellative by theorem, so it has no pair and nothing is searched.
Otherwise it searches, and lifts any pair it finds back to the quiver
asked about, with a witness that replays there.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .matchings import is_nondegenerate, matching_cover
from .quiver import (
    BigonReduction,
    DimerQuiver,
    DomainError,
    PathWord,
    bigon_reduce,
    check_path,
    path_head,
    path_homology,
    validate_dimer,
    zigzag_consistent,
)

EQUAL = "equal"
NOT_EQUAL = "not_equal"
UNKNOWN = "unknown"

_TEXT_ARROWS = 0x110000  # arrow ids are characters inside the search


@dataclass(frozen=True)
class SearchBounds:
    max_word_length: int = 0  # 0 = read off each search's start word (word_cap)
    max_states: int = 200000

    def __post_init__(self):
        for name in ("max_word_length", "max_states"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise DomainError(f"{name} must be a non-negative int, not {value!r}")

    def word_cap(self, rs: RewriteSystem, word: PathWord) -> int:
        """The word cap of a search from ``word`` (module docstring)."""
        if self.max_word_length > 0:
            return self.max_word_length
        if rs.cover_counts is None:
            return len(word.arrows) + 2 * rs.quiver.max_face_length()
        return sum(map(rs.cover_counts.__getitem__, word.arrows))


DEFAULT_BOUNDS = SearchBounds()


@dataclass(frozen=True)
class RewriteStep:
    """Replace ``old`` by ``new`` at ``pos``; both are complementary arcs
    of the rule attached to ``arrow``."""

    pos: int
    arrow: int
    old: tuple[int, ...]
    new: tuple[int, ...]


@dataclass
class EqResult:
    verdict: str
    reason: str = ""
    steps: tuple[RewriteStep, ...] = ()
    states: int = 0

    @property
    def is_equal(self):
        return self.verdict == EQUAL

    @property
    def is_not_equal(self):
        return self.verdict == NOT_EQUAL


class ResourceExhausted(RuntimeError):
    pass


MAX_STATES = 2_000_000  # states a cycle enumeration or a realizability search may spend


def face_rules(q: DimerQuiver) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Arrow id -> the two arcs its faces leave when each is rotated to
    start at the arrow and the arrow is dropped; the relations identify
    the two arcs."""
    arcs: dict[int, list[tuple[int, ...]]] = {a.id: [] for a in q.arrows}
    for f in q.faces:
        for k, aid in enumerate(f.boundary):
            arcs[aid].append(f.boundary[k + 1:] + f.boundary[:k])
    for aid, found in arcs.items():
        if len(found) != 2:
            raise DomainError(f"arrow {aid} lies on {len(found)} faces")
    return {aid: tuple(found) for aid, found in arcs.items()}


def _encode(arrows: tuple[int, ...]) -> str:
    """A word as the search holds it: one character per arrow."""
    return "".join(map(chr, arrows))


def _decode(text: str) -> tuple[int, ...]:
    return tuple(map(ord, text))


class RewriteSystem:
    """Face relations of a quiver plus the invariants used to refute.

    The relations are one rule table per arc length, ascending: each maps
    an arc's text to [(arrow, replacement text)], in the order of the
    arrows.  ``successors`` and ``read_back`` both read it.

    The matching profile (module docstring) counts arrows in D0, the
    first exact-cover solution, which also sets ``has_matching``, and
    ``cover_counts`` gives the word cap (``SearchBounds.word_cap``)."""

    def __init__(self, q: DimerQuiver):
        n = len(q.arrows)
        if n > _TEXT_ARROWS:
            raise DomainError(f"{n} arrows: words are text, so at most {_TEXT_ARROWS:#x}")
        self.quiver = q
        self.rules = face_rules(q)
        arcs: dict[int, dict[str, list[tuple[int, str]]]] = {}
        for aid, (left, right) in self.rules.items():
            # both ways round, once if the two arcs are the same
            for arc, repl in dict.fromkeys(((left, right), (right, left))):
                table = arcs.setdefault(len(arc), {})
                table.setdefault(_encode(arc), []).append((aid, _encode(repl)))
        self._arcs = dict(sorted(arcs.items()))
        self._hx = [a.homology[0] for a in q.arrows]
        self._hy = [a.homology[1] for a in q.arrows]
        cover, uncovered = matching_cover(q)
        self.has_matching = bool(cover)
        self._in_d0 = [(cover[0] if cover else 0) >> aid & 1 for aid in range(n)]
        self.cover_counts = None if uncovered else [
            sum(d >> aid & 1 for d in cover) for aid in range(n)]

    def profile(self, word: tuple[int, ...]):
        """The word's arrow count in the perfect matching D0, exact on valid
        quivers (module docstring); None if there is no perfect matching."""
        return sum(map(self._in_d0.__getitem__, word)) if self.has_matching else None

    def successors(self, word: str, cap: int):
        """All one-step rewrites of the text word not exceeding cap, as text
        words in order of arc length, then position, then rule; also say
        whether anything was suppressed by the cap."""
        out = []
        truncated = False
        n = len(word)
        for ln, table in self._arcs.items():
            room = cap - n + ln  # the longest replacement within the cap
            for pos in range(n - ln + 1):
                entries = table.get(word[pos:pos + ln])
                if entries:
                    for _, repl in entries:
                        if len(repl) > room:
                            truncated = True
                        else:
                            out.append(word[:pos] + repl + word[pos + ln:])
        return out, truncated

    def read_back(self, text: str, target: str, shift: int = 0) -> RewriteStep:
        """The first rewrite in ``successors`` order that turns the text
        word ``text`` into ``target``, its position moved by ``shift``.

        Only windows covering the span between the first and the last
        position where the words differ are tried, the common prefix and
        suffix measured independently, since a replacement may share an
        end arrow with its arc (fig_iso_R, fig_hsb_ii).  Around those
        windows the words agree, so a rewrite makes ``target`` iff its
        replacement has the right length and stands in ``target`` there."""
        n, m = len(text), len(target)
        lo = hi = 0
        while lo < min(n, m) and text[lo] == target[lo]:
            lo += 1
        while hi < min(n, m) and text[n - 1 - hi] == target[m - 1 - hi]:
            hi += 1
        for ln, table in self._arcs.items():
            grown = m - n + ln  # the replacement length that makes target
            for pos in range(max(0, n - hi - ln), min(lo, n - ln) + 1):
                arc = text[pos:pos + ln]
                for aid, repl in table.get(arc, ()):
                    if len(repl) == grown and target.startswith(repl, pos):
                        return RewriteStep(pos + shift, aid, _decode(arc), _decode(repl))
        raise DomainError("no single rewrite joins the two words")


def _invariants(rs: RewriteSystem, w: PathWord) -> tuple:
    """Endpoints, homology and matching profile: what rewriting preserves.
    The word is not checked (``paths_equal`` checks outside words)."""
    arrows = w.arrows
    hom = (sum(map(rs._hx.__getitem__, arrows)), sum(map(rs._hy.__getitem__, arrows)))
    return (w.base, path_head(rs.quiver, w)), hom, rs.profile(arrows)


def _walk(rs: RewriteSystem, w: PathWord) -> tuple[tuple, list[tuple]]:
    """One pass over a word from outside: the checks of ``check_path``, in
    its order and with its messages; the word's ``_invariants``; and the
    key (vertex, homology, D0 count) of each prefix, keys[k] after k
    arrows, where ``_blocks`` may cut."""
    quiver = rs.quiver
    if not 0 <= w.base < quiver.num_vertices:
        raise DomainError(f"path base {w.base} out of range")
    arrows, hx, hy, in_d0 = quiver.arrows, rs._hx, rs._hy, rs._in_d0
    n = len(arrows)
    at, x, y, d = w.base, 0, 0, 0
    keys = [(at, x, y, d)]
    for aid in w.arrows:
        if not 0 <= aid < n:
            raise DomainError(f"unknown arrow id {aid}")
        a = arrows[aid]
        if a.tail != at:
            raise DomainError(f"word not composable at arrow {aid}")
        at, x, y, d = a.head, x + hx[aid], y + hy[aid], d + in_d0[aid]
        keys.append((at, x, y, d))
    return ((w.base, at), (x, y), d if rs.has_matching else None), keys


def _mismatch(a: tuple, b: tuple) -> str | None:
    """The first invariant two words differ in, if any."""
    names = ("endpoints", "homology", "matching_profile")
    return next((name for name, x, y in zip(names, a, b) if x != y), None)


def paths_equal(
    rs: RewriteSystem, p: PathWord, q_: PathWord, bounds: SearchBounds = DEFAULT_BOUNDS
) -> EqResult:
    """Three-valued equality of paths modulo the face relations.

    Equal comes with a replayable rewrite witness from p to q.  NotEqual
    is only reported when certain: invariant mismatch, or a closure that
    saturated without meeting the other side.  Unknown means the bounded
    search was cut off before deciding.

    Each word is walked once (``_walk``): the checks of ``check_path``,
    p first, then q, the invariants, and the prefix keys of ``_blocks``.
    Past the invariants, under exact caps (no user cap, and a cover of
    every arrow), the search is ``_best_first`` from p toward q, and each
    differing block (``_blocks``) is searched in turn with what the
    earlier blocks left of the state budget.  The relations generate a
    two-sided ideal, so equal blocks make equal words, and the block
    witnesses, read back at the block's position, replay on them.
    The converse fails on a non-cancellative quiver (p.r = q.r with
    p != q), so an unequal block decides nothing: the whole words are
    then searched with the rest of the budget, and the states of all
    searches are reported.  A block search that spent the budget answers
    Unknown.  Under other caps the whole words are searched from both
    sides by ``EqualityClasses``, where one complete side decides
    NotEqual, which a one-sided search could not.
    """
    ends_p, keys_p = _walk(rs, p)
    ends_q, keys_q = _walk(rs, q_)
    reason = _mismatch(ends_p, ends_q)
    if reason is not None:
        return EqResult(NOT_EQUAL, reason=reason)
    if bounds.max_word_length or rs.cover_counts is None:
        return _query_words(rs, p, q_, bounds, bounds.max_states)
    spent = 0
    blocks = _blocks(rs, p, q_, (keys_p, keys_q))
    if blocks:
        steps = []
        for pos, u, v in blocks:
            res = _best_first(rs, u, v, bounds, bounds.max_states - spent, pos)
            spent += res.states
            if res.reason == "state_budget":
                res.states = spent
                return res
            if not res.is_equal:
                break
            steps += res.steps
        else:
            return EqResult(EQUAL, steps=tuple(steps), states=spent)
    res = _best_first(rs, p, q_, bounds, bounds.max_states - spent)
    res.states += spent
    return res


def _common_ends(a, b) -> tuple[int, int]:
    """The lengths of the longest common prefix of two words and of their
    longest common suffix clear of it."""
    n = min(len(a), len(b))
    lo = hi = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    while lo + hi < n and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    return lo, hi


def _blocks(rs: RewriteSystem, p: PathWord, q_: PathWord, keys=None):
    """The differing blocks of two words with the same invariants, as
    (position, block of p, block of q), or None when the words are one
    block.  ``keys`` are the prefix keys of p and of q from ``_walk``,
    which walks the words here when they are not given.

    The words are cut after their longest common prefix, before their
    longest common suffix, and between: at the increasing pairs of core
    positions, taken least first, where both have walked from the core's
    start to the same vertex with the same homology and profile, so each
    block pair shares these invariants.  The words share the prefix before
    the core, so equal keys from the words' start are equal keys from the
    core's start.  Blocks are rewritten left to right, so block k sits at
    the length of q's blocks before it; no length is checked, since only
    exact caps search blocks."""
    a, b = p.arrows, q_.arrows
    lo, hi = _common_ends(a, b)
    if lo + hi == min(len(a), len(b)):
        return None  # one word is a prefix or suffix of the other
    keys_p, keys_q = keys or (_walk(rs, p)[1], _walk(rs, q_)[1])
    first: dict[tuple, list[int]] = {}
    # the keys of the proper prefixes of each core
    for i, key in enumerate(keys_p[lo + 1:len(a) - hi], 1):
        first.setdefault(key, []).append(i)
    cuts = [(0, 0)]
    inner = enumerate(keys_q[lo + 1:len(b) - hi], 1)
    for i, j in sorted((i, j) for j, key in inner for i in first.get(key, ())):
        if i > cuts[-1][0] and j > cuts[-1][1]:
            cuts.append((i, j))
    if lo + hi == 0 and len(cuts) == 1:
        return None
    cuts.append((len(a) - hi - lo, len(b) - hi - lo))
    blocks = []
    for (i0, j0), (i1, j1) in zip(cuts, cuts[1:]):
        u, v = a[lo + i0:lo + i1], b[lo + j0:lo + j1]
        if u != v:
            start = keys_p[lo + i0][0]
            blocks.append((lo + j0, PathWord(start, u), PathWord(start, v)))
    return blocks


def _query_words(
    rs: RewriteSystem, p: PathWord, q_: PathWord, bounds: SearchBounds, max_states: int
) -> EqResult:
    """A query on fresh classes for words sharing their invariants, witness included."""
    classes = EqualityClasses(rs, bounds)
    res = classes._query(p, q_, _encode(q_.arrows), max_states)
    if res.is_equal:
        res.steps = classes.witness(p, q_)
    return res


def _best_first(
    rs: RewriteSystem, p: PathWord, q_: PathWord, bounds: SearchBounds, max_states: int,
    shift: int = 0,
) -> EqResult:
    """A one-sided best-first search from p toward q, for words sharing
    their invariants, witness included, its steps moved by ``shift`` (the
    position of a block in the whole words).

    The word popped next is the one whose differing core with q (what is
    left after their common prefix and suffix) is shortest, the earliest
    reached among ties.  Reaching q answers Equal.  NotEqual is certain when
    the heap runs empty and the cap cut nothing: every word reached had all
    its successors generated, so the words reached are p's whole class, in
    whatever order they were found, and q is not among them.  Otherwise the
    search answers Unknown."""
    if p == q_:
        return EqResult(EQUAL)
    if not p.arrows or not q_.arrows:
        return EqResult(NOT_EQUAL, reason="trivial_path")
    start, goal = _encode(p.arrows), _encode(q_.arrows)
    cap = bounds.word_cap(rs, p)

    def core(w: str) -> int:
        return len(w) + len(goal) - 2 * sum(_common_ends(w, goal))

    parents: dict[str, str | None] = {start: None}
    heap = [(core(start), 0, start)]
    truncated = False
    states = 0
    while heap:
        w = heappop(heap)[2]
        succs, trunc = rs.successors(w, cap)
        truncated = truncated or trunc
        for nxt in succs:
            if nxt in parents:
                continue
            states += 1
            if states > max_states:
                return EqResult(UNKNOWN, reason="state_budget", states=states)
            parents[nxt] = w
            if nxt == goal:
                return EqResult(EQUAL, steps=_witness(rs, parents, goal, shift), states=states)
            heappush(heap, (core(nxt), states, nxt))
    if truncated:
        return EqResult(UNKNOWN, reason="word_length", states=states)
    return EqResult(NOT_EQUAL, reason="saturated", states=states)


def _witness(
    rs: RewriteSystem, parents: dict, word: str, shift: int = 0
) -> tuple[RewriteStep, ...]:
    """Rewrite steps from the start of a search to ``word``: its chain in
    the parent map (each text word to the word it was reached from, the
    start to None), each link read back on the text by
    ``RewriteSystem.read_back``, positions moved by ``shift``."""
    chain = [word]
    while (up := parents[chain[-1]]) is not None:
        chain.append(up)
    chain.reverse()
    return tuple(rs.read_back(u, w, shift) for u, w in zip(chain, chain[1:]))


def replay_witness(rs: RewriteSystem, p: PathWord, steps) -> list[PathWord]:
    """Apply a rewrite witness step by step, checking that every step is a
    legal rule application preserving endpoints and homology."""
    quiver = rs.quiver
    trail = [p]
    word = p.arrows
    hom = path_homology(quiver, p)
    head = path_head(quiver, p)
    for step in steps:
        if word[step.pos:step.pos + len(step.old)] != step.old:
            raise DomainError("witness step does not match the word")
        sides = rs.rules[step.arrow]
        if (step.old, step.new) not in ((sides[0], sides[1]), (sides[1], sides[0])):
            raise DomainError("witness step is not an instance of its rule")
        word = word[:step.pos] + step.new + word[step.pos + len(step.old):]
        nxt = PathWord(p.base, word)
        check_path(quiver, nxt)
        if path_homology(quiver, nxt) != hom or path_head(quiver, nxt) != head:
            raise DomainError("witness step broke an invariant")
        trail.append(nxt)
    return trail


# -- equality classes ---------------------------------------------------------


class _Closure:
    """Words reached from one start word under its word cap ``cap``; every
    word is text, as ``RewriteSystem.successors`` takes and returns it.

    ``words`` maps each reached word to the word it was reached from (the
    start word to None), so every word's parent chain leads back to the
    start.  ``pending`` holds the reached words whose successors have not
    all been generated; every other word has all its successors within
    the cap in ``words``.  An empty ``pending`` makes the closure
    complete, and then it is the start word's whole class unless
    ``truncated`` says the cap suppressed a rewrite.
    """

    __slots__ = ("words", "pending", "truncated", "cap")

    def __init__(self, word: str, cap: int):
        self.words: dict[str, str | None] = {word: None}
        self.pending = [word]
        self.truncated = False
        self.cap = cap

    def absorb(self, other: "_Closure", meet: str) -> None:
        """Join the closure of an equal word that reached ``meet``, the one
        word the two closures share.  Its tree is re-rooted at ``meet`` and
        hung from this closure's parent of ``meet``, so every chain still
        leads back to this start; its unexpanded words are queued here, so
        completeness still means the whole class."""
        words = other.words
        parent, w = self.words[meet], meet
        while w is not None:
            up = words[w]
            words[w] = parent
            parent, w = w, up
        self.pending += [w for w in other.pending if w not in self.words]
        self.words.update(words)
        self.truncated = self.truncated or other.truncated


class EqualityClasses:
    """Three-valued equality of words against class representatives.

    Each representative keeps one rewrite closure under its word cap,
    grown only as far as queries need; the closures are all an instance
    holds.  A query, for a word sharing the endpoints, homology and
    matching profile of the representative, looks the word up; on a miss
    it searches from the word under the word's cap and grows the closure,
    the smaller frontier first, until they meet (the word's search then
    joins the closure), one side is complete, or the state budget is
    spent.  A complete side that never hit its cap is the whole class, so
    NotEqual is certain; cut-offs answer Unknown.  Every closure word
    keeps the word it was reached from, so ``witness`` reads a rewrite
    chain from the representative to any word found equal to it.
    """

    def __init__(self, rs: RewriteSystem, bounds: SearchBounds = DEFAULT_BOUNDS):
        self.rs = rs
        self.bounds = bounds
        self.closures: dict[PathWord, _Closure] = {}

    def _query(
        self, rep: PathWord, word: PathWord, text: str, max_states: int | None = None
    ) -> EqResult:
        """Is ``word``, known to share the invariants of ``rep``, in its
        class?  ``text`` is the word as the search holds it, and
        ``max_states`` overrides the state budget of this one query."""
        if rep == word:
            return EqResult(EQUAL)
        if not rep.arrows or not word.arrows:
            return EqResult(NOT_EQUAL, reason="trivial_path")
        if rep not in self.closures:
            self.closures[rep] = _Closure(_encode(rep.arrows), self.bounds.word_cap(self.rs, rep))
        closure = self.closures[rep]
        if text in closure.words:
            return EqResult(EQUAL)
        limit = self.bounds.max_states if max_states is None else max_states
        return self._search(closure, _Closure(text, self.bounds.word_cap(self.rs, word)), limit)

    def _search(self, closure: _Closure, own: _Closure, limit: int) -> EqResult:
        successors = self.rs.successors
        states = 0
        while closure.pending and own.pending:
            grow, other = closure, own
            if len(own.pending) < len(closure.pending):
                grow, other = own, closure
            layer, grow.pending = grow.pending, []
            words = grow.words
            for k, w in enumerate(layer):
                succs, trunc = successors(w, grow.cap)
                grow.truncated = grow.truncated or trunc
                for nxt in succs:
                    if nxt in words:
                        continue
                    states += 1
                    if states > limit:
                        grow.pending = layer[k:] + grow.pending
                        return EqResult(UNKNOWN, reason="state_budget", states=states)
                    words[nxt] = w
                    grow.pending.append(nxt)
                    if nxt in other.words:
                        # w is requeued: its later successors are not generated yet
                        grow.pending = layer[k:] + grow.pending
                        closure.absorb(own, nxt)
                        return EqResult(EQUAL, states=states)
        if any(not (c.pending or c.truncated) for c in (closure, own)):
            return EqResult(NOT_EQUAL, reason="saturated", states=states)
        return EqResult(UNKNOWN, reason="word_length", states=states)

    def witness(self, rep: PathWord, word: PathWord) -> tuple[RewriteStep, ...]:
        """Rewrite steps from ``rep`` to ``word``, which a query found
        equal to it: the word's parent chain, each link read back as the
        first rewrite in ``RewriteSystem.successors`` order that makes it."""
        if rep == word:
            return ()
        return _witness(self.rs, self.closures[rep].words, _encode(word.arrows))

    def split(self, words) -> tuple[list[list[int]], int]:
        """Partition words in order: each joins the first class whose
        representative (its first word) it equals.  Returns the classes as
        index lists and the number of undecided comparisons; an undecided
        word goes on to the later classes.

        A word is compared only with the representatives that share its
        invariants, in class order: any other comparison is a certain
        NotEqual, so the classes and the undecided count are those of
        comparing with every representative."""
        classes: list[list[int]] = []
        buckets: dict[tuple, list[list[int]]] = {}
        unknown = 0
        for k, w in enumerate(words):
            bucket = buckets.setdefault(_invariants(self.rs, w), [])
            text = _encode(w.arrows)
            for cls in bucket:
                verdict = self._query(words[cls[0]], w, text).verdict
                if verdict == EQUAL:
                    cls.append(k)
                    break
                if verdict == UNKNOWN:
                    unknown += 1
            else:
                bucket.append([k])
                classes.append(bucket[-1])
        return classes, unknown


# -- cycle enumeration -------------------------------------------------------

@dataclass(frozen=True)
class CycleFilter:
    """Which cycles ``enumerate_cycles`` keeps, spelled as the CLI's
    ``--filter`` spells them: ``"all"``, ``"vertex-simple"`` (no vertex
    revisited before closing), ``"homology"`` (homology ``hom_class``, two
    ints, given for this variant only) or ``"lift-simple"`` (nonzero
    homology and a doubled lift that revisits no vertex).  Any other
    filter raises ``DomainError`` when it is built."""

    variant: str = "all"
    hom_class: tuple[int, int] | None = None

    def __post_init__(self):
        if self.variant not in ("all", "vertex-simple", "homology", "lift-simple"):
            raise DomainError(f"unknown filter {self.variant!r}")
        hom = self.hom_class
        pair = isinstance(hom, tuple) and len(hom) == 2 and all(isinstance(x, int) for x in hom)
        if not pair == (self.variant == "homology") == (hom is not None):
            raise DomainError(f"filter {self.variant} with homology class {hom!r}")


def lift_is_simple(q: DimerQuiver, cycle: PathWord) -> bool:
    """True iff walking the cycle twice in the universal cover repeats no
    lifted vertex strictly inside the walk."""
    seen = {(cycle.base, (0, 0))}
    acc = (0, 0)
    # the closing arrow is left out: closing the doubled walk is allowed
    for aid in (cycle.arrows * 2)[:-1]:
        a = q.arrow(aid)
        acc = (acc[0] + a.homology[0], acc[1] + a.homology[1])
        node = (a.head, acc)
        if node in seen:
            return False
        seen.add(node)
    return True


@dataclass
class CycleEnumeration:
    cycles: list[PathWord]
    classes: list[list[PathWord]] | None = None
    unknown_pairs: int = 0


def enumerate_cycles(
    q: DimerQuiver,
    i: int,
    max_len: int,
    filt: CycleFilter = CycleFilter(),
    rs: RewriteSystem | None = None,
    dedup_mod_relations: bool = False,
    bounds: SearchBounds = DEFAULT_BOUNDS,
) -> CycleEnumeration:
    """All cycles at i of length <= max_len passing the filter (its
    variants spelled with hyphens, as in ``CycleFilter``), in a fixed
    order.  With dedup_mod_relations, also group them into equality
    classes; undecided comparisons leave cycles in separate classes and
    are counted."""
    if not 0 <= i < q.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    prune_revisits = filt.variant == "vertex-simple"
    results: list[PathWord] = []
    states = 0
    stack: list[tuple[int, tuple[int, ...], frozenset[int]]] = [(i, (), frozenset())]
    while stack:
        at, word, visited = stack.pop()
        states += 1
        if states > MAX_STATES:
            raise ResourceExhausted("cycle enumeration state budget exceeded")
        if word and at == i:
            results.append(PathWord(i, word))
            if prune_revisits:
                continue
        if len(word) >= max_len:
            continue
        if prune_revisits:
            if at in visited:
                continue
            visited = visited | {at}
        for a in reversed(q.out_arrows(at)):
            stack.append((a.head, word + (a.id,), visited))

    def passes(c: PathWord) -> bool:
        if filt.variant == "homology":
            return path_homology(q, c) == filt.hom_class
        if filt.variant == "lift-simple":
            return path_homology(q, c) != (0, 0) and lift_is_simple(q, c)
        return True  # "all", or "vertex-simple": the walk above prunes revisits

    cycles = sorted((c for c in results if passes(c)), key=lambda c: (len(c.arrows), c.arrows))
    enum = CycleEnumeration(cycles)
    if dedup_mod_relations:
        split, enum.unknown_pairs = EqualityClasses(rs or RewriteSystem(q), bounds).split(cycles)
        enum.classes = [[cycles[k] for k in cls] for cls in split]
    return enum


def vertex_simple_cycles(q: DimerQuiver) -> list[PathWord]:
    """Every directed cycle with no repeated vertex, one representative per
    rotation class (its least rotation as an arrow word), sorted
    canonically.  Each cycle is found once, from its least vertex, by a
    depth-first search that only steps to larger vertices.

    This is the reference enumerator: the count grows exponentially
    (2,315 cycles on fig_nested(4)), so the library finds cycle-algebra
    generators by a closed-walk search instead
    (``monomial_algebra.cycle_algebra_generators``), and the tests compare
    that search with these cycles."""
    out: list[PathWord] = []
    for s in range(q.num_vertices):
        word: list[int] = []
        on_path = {s}
        stack = [iter(q.out_arrows(s))]
        while stack:
            a = next(stack[-1], None)
            if a is None:
                stack.pop()
                if word:
                    on_path.discard(q.arrow(word.pop()).head)
            elif a.head == s:
                cycle = word + [a.id]
                k = cycle.index(min(cycle))
                canon = tuple(cycle[k:] + cycle[:k])
                out.append(PathWord(q.arrow(canon[0]).tail, canon))
            elif a.head > s and a.head not in on_path:
                word.append(a.id)
                on_path.add(a.head)
                stack.append(iter(q.out_arrows(a.head)))
    out.sort(key=lambda c: (len(c.arrows), c.arrows))
    return out


# -- non-cancellative pairs --------------------------------------------------


@dataclass
class NoncancellativePair:
    vertex: int
    p: PathWord
    q: PathWord
    r: PathWord
    side: str  # "after" means r is appended (walked last), "before" prepended
    inequality_reason: str
    equality_witness: tuple[RewriteStep, ...]


@dataclass
class NoncancellativeReport:
    pair: NoncancellativePair | None
    exhausted: bool
    cycles_considered: int
    pairs_tested: int
    removed_2cycles: int = 0  # 2-cycles removed from the quiver before the search
    decided_by: str = "pair_search"  # or "zigzag": certified, nothing searched

    @property
    def found(self):
        return self.pair is not None


def _cycles_at(q: DimerQuiver, v: int, length: int):
    """The cycles at v of the given length, in the order of growing every
    walk; depth first, descending only where v is still reachable in
    exactly the steps left."""
    back = [{v}]  # back[n]: vertices with a walk of length n to v
    for _ in range(length - 1):
        back.append({a.tail for u in back[-1] for a in q.in_arrows(u)})
    stack = [(v, ())]
    while stack:
        at, word = stack.pop()
        if len(word) == length:
            yield word
            continue
        reach = back[length - len(word) - 1]
        for a in reversed(q.out_arrows(at)):
            if a.head in reach:
                stack.append((a.head, word + (a.id,)))


def _probes(q: DimerQuiver, v: int, p: PathWord, q_: PathWord, r_cap: int):
    """(side, r, p.r, q.r) for every path r of at most r_cap arrows,
    shortest first: r walked after the cycles at v, then before them."""
    layer = [(v, ())]
    for _ in range(r_cap):
        layer = [(a.head, w + (a.id,)) for at, w in layer for a in q.out_arrows(at)]
        for _, w in layer:
            yield "after", PathWord(v, w), PathWord(v, p.arrows + w), PathWord(v, q_.arrows + w)
    layer = [(v, ())]
    for _ in range(r_cap):
        layer = [(a.tail, (a.id,) + w) for at, w in layer for a in q.in_arrows(at)]
        for at, w in layer:
            yield "before", PathWord(at, w), PathWord(at, w + p.arrows), PathWord(at, w + q_.arrows)


def _certified_reduction(q: DimerQuiver) -> tuple[BigonReduction, bool]:
    """``bigon_reduce(q)`` (q as given when a 2-cycle cannot be removed) and
    ``certified_cancellative(q)``, from one reduction.  A quiver that
    ``bigon_reduce`` changed was validated once, after all its removals, so
    only the caller's own quiver is validated here."""
    try:
        red = bigon_reduce(q)
    except DomainError:
        return BigonReduction(q, tuple(range(len(q.arrows))), 0), False
    r = red.quiver
    try:
        valid = red.removed or validate_dimer(r).ok
        return red, valid and zigzag_consistent(r) and is_nondegenerate(r)[0]
    except DomainError:  # faces with no 2-colouring
        return red, False


def certified_cancellative(q: DimerQuiver) -> bool:
    """Is q cancellative by theorem?  On the torus a nondegenerate dimer
    algebra (every arrow in a perfect matching) is cancellative iff its
    zig-zag paths are consistent (Bocklandt, *Consistency conditions for
    dimer models*; Ishii–Ueda, *A note on consistency conditions on dimer
    models*).  The test runs on ``bigon_reduce(q)``, which has q's
    algebra, and ``find_noncancellative_pair`` makes it first.  False
    means not certified, not "not cancellative": a 2-cycle that cannot be
    removed, or a reduced quiver that is invalid, has an arrow in no
    perfect matching, or has inconsistent zig-zag paths."""
    return _certified_reduction(q)[1]


def find_noncancellative_pair(
    q: DimerQuiver, contraction=None, bounds: SearchBounds = DEFAULT_BOUNDS
) -> NoncancellativeReport:
    """Search for cycles p != q (certainly, modulo relations) with equal
    invariants and a path r such that appending or prepending r makes them
    equal.

    The zig-zag certificate comes first (``_certified_reduction``): a
    certified algebra is cancellative, so no bucket holds a pair, with or
    without a contraction, and the report has no pair, is not
    ``exhausted``, counts zero and is ``decided_by`` "zigzag", at any
    bounds.  Otherwise it is "pair_search".  The search runs on
    ``bigon_reduce(q).quiver`` (q itself when q has no 2-cycles or one
    cannot be removed): each arrow of a 2-cycle equals a path, so the
    reduced quiver has the same algebra and far smaller rewrite closures.
    Its arrows are arrows of q, so the contraction's per-arrow images
    carry over, and a pair found after a removal is lifted back to q: each
    link of the reduced witness (one merged-face relation) is rejoined by
    ``paths_equal`` on q, and the pair is reported only if the whole
    lifted witness replays on q; otherwise the report has no pair and is
    ``exhausted``.  A quiver with
    no perfect matching is outside the theorems: it is reported
    ``exhausted`` with no pair and zero counts, before any search.

    Cycles are grown length by length across all vertices, up to twice
    the longest face or half the user's word cap, and bucketed by homology,
    matching profile, and (when a contraction is supplied) the contracted
    monomial image; within a bucket, equality classes are maintained and
    every certainly-distinct pair of class representatives is probed for
    a cancellation witness r of at most two arrows more than the longest
    face.  All rewriting shares one state budget drawn from
    ``bounds.max_states``, and the search stops as soon as it is spent; a
    successful pair is returned with its witnesses, otherwise the report
    says whether the search ran to completion or was cut off.
    ``cycles_considered`` and ``pairs_tested`` count the quiver searched,
    which lacks ``removed_2cycles`` of q's 2-cycles."""
    red, certified = _certified_reduction(q)
    if certified:
        return NoncancellativeReport(None, False, 0, 0, red.removed, "zigzag")
    rs = RewriteSystem(red.quiver)
    ids = red.original_ids
    images = None if contraction is None else tuple(contraction.source_images[a] for a in ids)
    if rs.has_matching:
        report = _search_pairs(rs, images, bounds)
    else:
        # outside the theorems, and every word has the same matching profile
        report = NoncancellativeReport(None, True, 0, 0)
    report.removed_2cycles = red.removed
    if report.found and red.removed:
        report.pair = _lift_pair(rs, RewriteSystem(q), ids, report.pair, bounds)
        report.exhausted = report.pair is None
    return report


def _completed(pair: NoncancellativePair, cycle: PathWord) -> PathWord:
    """The cycle with the pair's r walked after or before it."""
    if pair.side == "after":
        return PathWord(cycle.base, cycle.arrows + pair.r.arrows)
    return PathWord(pair.r.base, pair.r.arrows + cycle.arrows)


def _lift_pair(
    reduced: RewriteSystem, rs: RewriteSystem, ids, pair: NoncancellativePair, bounds
) -> NoncancellativePair | None:
    """A pair of the reduced quiver as a pair of ``rs.quiver``, whose arrow
    ``ids[a]`` is the reduced arrow a; None if a link of the witness is
    not rejoined or the lifted witness does not replay."""

    def lift(w: PathWord) -> PathWord:
        return PathWord(w.base, tuple(ids[a] for a in w.arrows))

    trail = replay_witness(reduced, _completed(pair, pair.p), pair.equality_witness)
    chain = [lift(w) for w in trail]
    steps: list[RewriteStep] = []
    for w, nxt in zip(chain, chain[1:]):
        link = paths_equal(rs, w, nxt, bounds)
        if not link.is_equal:
            return None
        steps += link.steps
    lifted = NoncancellativePair(
        pair.vertex, lift(pair.p), lift(pair.q), lift(pair.r), pair.side,
        pair.inequality_reason, tuple(steps),
    )
    try:
        trail = replay_witness(rs, _completed(lifted, lifted.p), lifted.equality_witness)
    except DomainError:
        return None
    return lifted if trail[-1] == _completed(lifted, lifted.q) else None


def _search_pairs(rs: RewriteSystem, images, bounds: SearchBounds) -> NoncancellativeReport:
    """The pair search of ``find_noncancellative_pair`` on ``rs.quiver``
    as given; ``images`` are the per-arrow monomial images or None."""
    q = rs.quiver
    cycle_cap = max(2 * q.max_face_length(), bounds.max_word_length // 2)
    r_cap = q.max_face_length() + 2
    budget = bounds.max_states
    per_call = max(2000, bounds.max_states // 10)
    report = NoncancellativeReport(None, False, 0, 0)

    # walks[n][u]: the number of walks of length n from u, i.e. what
    # growing every walk length by length would spend from the budget
    walks = [[1] * q.num_vertices]
    for _ in range(cycle_cap):
        prev = walks[-1]
        walks.append([sum(prev[a.head] for a in q.out_arrows(u)) for u in range(q.num_vertices)])

    # buckets[v][key] = list of equality-class representatives
    buckets: list[dict[tuple, list[PathWord]]] = [dict() for _ in range(q.num_vertices)]
    # a closure outlives the rounds, under the cap of its representative
    classes = EqualityClasses(rs, bounds)
    for length in range(1, cycle_cap + 1):
        for v in range(q.num_vertices):
            budget -= walks[length][v]
            if budget <= 0:
                report.exhausted = True
                return report
            for word in _cycles_at(q, v, length):
                report.cycles_considered += 1
                c = PathWord(v, word)
                text = _encode(word)
                image = images and tuple(map(sum, zip(*map(images.__getitem__, word))))
                reps = buckets[v].setdefault((_invariants(rs, c), image), [])
                for rep in reps:
                    if budget <= 0:
                        report.exhausted = True
                        return report
                    res = classes._query(rep, c, text, min(per_call, budget))
                    budget -= max(res.states, 1)
                    report.pairs_tested += 1
                    if res.is_equal:
                        break
                    if res.verdict == UNKNOWN:
                        report.exhausted = True
                        continue
                    for side, r, pr, qr in _probes(q, v, rep, c, r_cap):
                        if budget <= 0:
                            report.exhausted = True
                            break
                        # a pair needs a witness.  p.r and q.r share their
                        # invariants, and their core is (rep, c), just
                        # refuted, so its blocks cannot all be equal and
                        # no block search: the whole words only
                        probe = _query_words(rs, pr, qr, bounds, min(per_call, budget))
                        budget -= max(probe.states, 1)
                        if probe.is_equal:
                            report.pair = NoncancellativePair(
                                v, rep, c, r, side, res.reason, probe.steps
                            )
                            return report
                        if probe.verdict == UNKNOWN:
                            report.exhausted = True
                else:
                    reps.append(c)
    return report
