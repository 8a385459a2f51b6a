"""Path equality modulo the face relations, as bounded string rewriting.

Every arrow sits on two faces; rotating each face to start at the arrow
and dropping it leaves two complementary arcs between the same
endpoints, and the relations identify exactly those arcs.  Rewrites
preserve endpoints, homology, and the matching profile, so many
inequalities are certain without a search.  Otherwise
``EqualityClasses`` is the one search: the rewrite closure of a class
representative grows against the closure of the word asked about until
they meet or one side is complete.  A complete side that never hit its
cap is the whole class, so inequality is then certain; only a cut-off
search answers Unknown.  Under exact caps ``paths_equal`` first searches
the differing blocks of the two words (the relations generate a
two-sided ideal, so equal blocks make equal words): a few short searches
often settle Equal where the closures of the whole words would grow with
every arrow outside the blocks.

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
window, in order of arc length, then position, then rule.  A closure
expands its words first in, first out, so expanding a word skips the
windows whose rewrites an earlier word in the queue already applied
(``_Closure`` says why the closure is unchanged).  Every word that
leaves the search (``PathWord``, ``RewriteStep``) is a tuple again.

``find_noncancellative_pair`` searches the 2-cycle-free quiver of
``bigon_reduce``, which has the same algebra, and lifts any pair it finds
back to the quiver asked about, with a witness that replays there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .matchings import matching_cover
from .quiver import (
    BigonReduction,
    DimerQuiver,
    DomainError,
    PathWord,
    bigon_reduce,
    check_path,
    path_head,
    path_homology,
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
    rules = {}
    for a in q.arrows:
        arcs = [f.boundary[k + 1:] + f.boundary[:k]
                for f in q.faces for k, aid in enumerate(f.boundary) if aid == a.id]
        if len(arcs) != 2:
            raise DomainError(f"arrow {a.id} lies on {len(arcs)} faces")
        rules[a.id] = (arcs[0], arcs[1])
    return rules


def _encode(arrows: tuple[int, ...]) -> str:
    """A word as the search holds it: one character per arrow."""
    return "".join(map(chr, arrows))


def _decode(text: str) -> tuple[int, ...]:
    return tuple(map(ord, text))


class RewriteSystem:
    """Face relations of a quiver plus the invariants used to refute.

    The relations are one rule table per arc length, ascending: each maps
    an arc's text to [(arrow, replacement text)], in the order of the
    arrows.  ``successors`` and ``step_between`` both read it.

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

    def successors(self, word: str, cap: int, made=None, known=(), sites=None):
        """All one-step rewrites of the text word not exceeding cap, as text
        words in order of arc length, then position, then rule; also say
        whether anything was suppressed by the cap.

        ``made`` is the site (arc length, position, replacement length) of
        the rewrite that first reached the word in a FIFO closure; the
        windows clear of it and earlier in this order are then skipped
        (``_Closure`` says why that is exact, and when no site is passed).
        Words in ``known`` are left out, and ``sites`` gets the site of
        each word returned."""
        out = []
        truncated = False
        n = len(word)
        ell = 0  # arcs up to this length skip the windows clear of the site
        if made is not None:
            ell, at, grew = made
        for ln, table in self._arcs.items():
            room = cap - n + ln  # the longest replacement within the cap
            start, stop = 0, n - ln + 1
            if ln <= ell:
                start = max(0, at - ln + 1)
                if ln < ell:
                    stop = min(stop, at + grew)
            for pos in range(start, stop):
                entries = table.get(word[pos:pos + ln])
                if entries:
                    for _, repl in entries:
                        if len(repl) > room:
                            truncated = True
                        else:
                            nxt = word[:pos] + repl + word[pos + ln:]
                            if nxt not in known:
                                out.append(nxt)
                                if sites is not None:
                                    sites.append((ln, pos, len(repl)))
        return out, truncated

    def step_between(self, word: tuple[int, ...], nxt: tuple[int, ...]) -> RewriteStep:
        """The first rewrite in ``successors`` order that turns ``word``
        into ``nxt``.  Only windows covering the span between the first and
        the last position where the two words differ are tried."""
        n, m = len(word), len(nxt)
        lo = hi = 0
        while lo < min(n, m) and word[lo] == nxt[lo]:
            lo += 1
        while hi < min(n, m) and word[n - 1 - hi] == nxt[m - 1 - hi]:
            hi += 1
        text, target = _encode(word), _encode(nxt)
        for ln, table in self._arcs.items():
            for pos in range(max(0, n - hi - ln), min(lo, n - ln) + 1):
                arc = text[pos:pos + ln]
                for aid, repl in table.get(arc, ()):
                    if text[:pos] + repl + text[pos + ln:] == target:
                        return RewriteStep(pos, aid, _decode(arc), _decode(repl))
        raise DomainError("no single rewrite joins the two words")


def _invariants(rs: RewriteSystem, w: PathWord) -> tuple:
    """Endpoints, homology and matching profile: what rewriting preserves.
    The word is not checked (``paths_equal`` checks outside words)."""
    arrows = w.arrows
    hom = (sum(map(rs._hx.__getitem__, arrows)), sum(map(rs._hy.__getitem__, arrows)))
    return (w.base, path_head(rs.quiver, w)), hom, rs.profile(arrows)


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

    Past the invariants, under exact caps only (no user cap, and a cover
    of every arrow), each differing block (``_blocks``) is searched in
    turn with what the earlier blocks left of the state budget.  The
    relations generate a two-sided ideal, so equal blocks make equal
    words, and the block witnesses, each shifted past the blocks before
    it, replay on them.  The converse fails on a non-cancellative quiver
    (p.r = q.r with p != q), so an unequal block decides nothing: the
    whole words are then searched with the rest of the budget, and the
    states of all searches are reported.  A block search that spent the
    budget answers Unknown.
    """
    check_path(rs.quiver, p)
    check_path(rs.quiver, q_)
    reason = _mismatch(_invariants(rs, p), _invariants(rs, q_))
    if reason is not None:
        return EqResult(NOT_EQUAL, reason=reason)
    spent = 0
    exact = bounds.max_word_length == 0 and rs.cover_counts is not None
    blocks = _blocks(rs, p, q_) if exact else None
    if blocks:
        steps = []
        for pos, u, v in blocks:
            res = _query_words(rs, u, v, bounds, bounds.max_states - spent)
            spent += res.states
            if res.reason == "state_budget":
                res.states = spent
                return res
            if not res.is_equal:
                break
            steps += [replace(s, pos=s.pos + pos) for s in res.steps]
        else:
            return EqResult(EQUAL, steps=tuple(steps), states=spent)
    res = _query_words(rs, p, q_, bounds, bounds.max_states - spent)
    res.states += spent
    return res


def _blocks(rs: RewriteSystem, p: PathWord, q_: PathWord):
    """The differing blocks of two words with the same invariants, as
    (position, block of p, block of q), or None when the words are one
    block.

    The words are cut after their longest common prefix, before their
    longest common suffix, and between: at the increasing pairs of core
    positions, taken least first, where both have walked from the core's
    start to the same vertex with the same homology and profile, so each
    block pair shares these invariants.  Blocks are rewritten left to
    right, so block k sits at the length of q's blocks before it; no
    length is checked, since only exact caps search blocks."""
    a, b = p.arrows, q_.arrows
    n = min(len(a), len(b))
    lo = hi = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    while lo + hi < n and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    if lo + hi == n:
        return None  # one word is a prefix or suffix of the other
    quiver, hx, hy, in_d0 = rs.quiver, rs._hx, rs._hy, rs._in_d0
    base = path_head(quiver, PathWord(p.base, a[:lo]))

    def walked(word):
        """The invariants of each proper prefix of the word's core."""
        at, x, y, d = base, 0, 0, 0
        for aid in word[lo:len(word) - hi - 1]:
            at, x, y, d = quiver.arrows[aid].head, x + hx[aid], y + hy[aid], d + in_d0[aid]
            yield at, x, y, d

    first: dict[tuple, list[int]] = {}
    for i, key in enumerate(walked(a), 1):
        first.setdefault(key, []).append(i)
    cuts = [(0, 0)]
    for i, j in sorted((i, j) for j, key in enumerate(walked(b), 1) for i in first.get(key, ())):
        if i > cuts[-1][0] and j > cuts[-1][1]:
            cuts.append((i, j))
    if lo + hi == 0 and len(cuts) == 1:
        return None
    cuts.append((len(a) - hi - lo, len(b) - hi - lo))
    blocks, at = [], base
    for (i0, j0), (i1, j1) in zip(cuts, cuts[1:]):
        u, v = a[lo + i0:lo + i1], b[lo + j0:lo + j1]
        start, at = at, path_head(quiver, PathWord(at, u))
        if u != v:
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

    ``made`` maps each word this closure reached itself to the site (arc
    length, position, replacement length) of the rewrite b that first
    reached it from its parent u, and ``successors`` skips the windows of
    the word clear of that site that come before b in successors order.
    Such a rewrite r applies to u too, before b, so r(u) was in ``words``
    before b(u) was; in first-in, first-out order r(u) was expanded first
    (or came complete from ``absorb``), and b on r(u) built r(b(u)) or
    flagged the cap.  By induction on expansion order, every skipped word
    is already in ``words`` and every skipped cut-off already in
    ``truncated``, so words, parents, pending order and verdicts are those
    of the full scan.  The argument needs three facts:

    - a search cut off mid-layer requeues ``layer[k:] + pending``, which
      keeps the order;
    - ``absorb`` appends the other closure's pending words at the back, in
      their order, and carries no records: the absorbed words are scanned
      in full, since their records refer to the other closure's queue;
    - a start word has no record, so its scan is full.

    And r(u) must fit the cap: when b shortened the word, r(u) is longer
    than r(b(u)) and may not.  So a closure passes its records only while
    ``truncated`` is False, which is exact: a sibling r(u), or b on r(u),
    that did not fit set the flag.  Without that rule fig_iso_R's
    7,10,11,7,10,11 and 9,10,11,7,10,12 at word cap 9 answer Unknown
    (word_length) instead of Equal with a 7-step witness.  An exact cap
    cuts nothing, so the rule acts only under the other caps.
    """

    __slots__ = ("words", "pending", "truncated", "made", "cap")

    def __init__(self, word: str, cap: int):
        self.words: dict[str, str | None] = {word: None}
        self.made: dict[str, tuple[int, int, int]] = {}
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
    """Three-valued equality of words against class representatives; the
    one word-equality search of the package.

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
            words, made = grow.words, grow.made
            for k, w in enumerate(layer):
                sites = []
                # records are exact only while nothing was cut (_Closure)
                site = None if grow.truncated else made.get(w)
                succs, trunc = successors(w, grow.cap, site, words, sites)
                grow.truncated = grow.truncated or trunc
                for nxt, site in zip(succs, sites):
                    if nxt in words:
                        continue  # reached twice in one scan
                    states += 1
                    if states > limit:
                        grow.pending = layer[k:] + grow.pending
                        return EqResult(UNKNOWN, reason="state_budget", states=states)
                    words[nxt] = w
                    made[nxt] = site
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
        words = self.closures[rep].words
        chain = [_encode(word.arrows)]
        while words[chain[-1]] is not None:
            chain.append(words[chain[-1]])
        chain = [_decode(w) for w in reversed(chain)]
        return tuple(map(self.rs.step_between, chain, chain[1:]))

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


def find_noncancellative_pair(
    q: DimerQuiver, contraction=None, bounds: SearchBounds = DEFAULT_BOUNDS
) -> NoncancellativeReport:
    """Search for cycles p != q (certainly, modulo relations) with equal
    invariants and a path r such that appending or prepending r makes them
    equal.

    The search always runs on ``bigon_reduce(q).quiver`` (q itself when q
    has no 2-cycles or one cannot be removed): each arrow of a 2-cycle
    equals a path, so the reduced quiver has the same algebra and far
    smaller rewrite closures.  Its arrows are arrows of q, so the
    contraction's per-arrow images carry over, and a pair found after a
    removal is lifted back to q: each link of the reduced witness (one
    merged-face relation) is rejoined by ``paths_equal`` on q, and the
    pair is reported only if the whole lifted witness replays on q;
    otherwise the report has no pair and is ``exhausted``.  A quiver with
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
    try:
        red = bigon_reduce(q)
    except DomainError:
        red = BigonReduction(q, tuple(range(len(q.arrows))), 0)  # q is searched as given
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
