"""Path equality modulo the face relations, as bounded string rewriting.

Every arrow sits on two faces; rotating each face to start at the arrow
and dropping it leaves two complementary arcs between the same endpoints,
and the relations identify exactly those arcs.  Rewrites preserve
endpoints, homology, and the count of arrows in every perfect matching,
so many inequalities are certain without a search.  Otherwise
``EqualityClasses`` is the one search: the rewrite closure of a class
representative grows against the closure of the word asked about, the
smaller frontier first, until they meet or one side is complete.  A
complete closure that never hit the word cap is the whole class, so
inequality is then certain; only a genuinely cut-off search answers
Unknown.  ``paths_equal`` is one query on fresh classes, its witness read
back along the word's parent chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matchings import MatchingCapExceeded, enumerate_perfect_matchings
from .quiver import DimerQuiver, DomainError, PathWord, check_path, path_head, path_homology

EQUAL = "equal"
NOT_EQUAL = "not_equal"
UNKNOWN = "unknown"

_PROFILE_CAP = 4096
_FIELD_BITS = 16  # profiles are exact for words shorter than 2**16 arrows


@dataclass(frozen=True)
class SearchBounds:
    max_word_length: int = 0  # 0 = derive from inputs
    max_states: int = 200000

    def word_cap(self, q: DimerQuiver, *words) -> int:
        if self.max_word_length > 0:
            return self.max_word_length
        longest = max((len(w) for w in words), default=0)
        return longest + 2 * q.max_face_length()


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


class RewriteSystem:
    """Face relations of a quiver plus the invariants used to refute."""

    def __init__(self, q: DimerQuiver):
        self.quiver = q
        self.rules: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for a in q.arrows:
            arcs = []
            for f in q.faces:
                positions = [k for k, aid in enumerate(f.boundary) if aid == a.id]
                for k in positions:
                    rot = f.boundary[k:] + f.boundary[:k]
                    arcs.append(tuple(rot[1:]))
            if len(arcs) != 2:
                raise DomainError(f"arrow {a.id} lies on {len(arcs)} faces")
            self.rules[a.id] = (arcs[0], arcs[1])
        # arc -> [(arrow, replacement)]
        by_arc: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
        for aid, (left, right) in self.rules.items():
            by_arc.setdefault(left, []).append((aid, right))
            if right != left:
                by_arc.setdefault(right, []).append((aid, left))
        # per arc length, ascending: first arrow -> [(arc, arrow, replacement)];
        # every arrow starts one arc on each of its two faces
        self._by_first: list[tuple[int, list[list]]] = []
        for ln in sorted({len(arc) for arc in by_arc}):
            table: list[list] = [[] for _ in q.arrows]
            for arc, entries in by_arc.items():
                if len(arc) == ln:
                    table[arc[0]].extend((arc, aid, repl) for aid, repl in entries)
            self._by_first.append((ln, table))
        try:
            matchings = enumerate_perfect_matchings(q, _PROFILE_CAP)
        except MatchingCapExceeded:
            self._vectors = None
        else:
            # arrow -> its matching vector, one _FIELD_BITS-wide field per
            # matching packed into an int, so a profile is a plain sum
            width = _FIELD_BITS // 8
            fields = [bytearray(width * len(matchings)) for _ in q.arrows]
            for k, d in enumerate(matchings):
                for aid in d:
                    fields[aid][width * k] = 1
            self._vectors = [int.from_bytes(f, "little") for f in fields]

    def profile(self, word: tuple[int, ...]):
        """Arrow counts of the word in every perfect matching (an invariant
        of rewriting), packed into one int; None when enumeration was
        capped."""
        if self._vectors is None:
            return None
        if len(word) >> _FIELD_BITS:
            raise DomainError(f"word of {len(word)} arrows overflows the matching profile")
        return sum(map(self._vectors.__getitem__, word))

    def successors(self, word: tuple[int, ...], cap: int):
        """All one-step rewrites of the word not exceeding cap, as tuples
        (new word, pos, arrow, old arc, new arc); also say whether anything
        was suppressed by the cap."""
        out = []
        truncated = False
        n = len(word)
        for ln, table in self._by_first:
            for pos in range(n - ln + 1):
                for arc, aid, repl in table[word[pos]]:
                    if word[pos:pos + ln] != arc:
                        continue
                    if n - ln + len(repl) > cap:
                        truncated = True
                        continue
                    out.append((word[:pos] + repl + word[pos + ln:], pos, aid, arc, repl))
        return out, truncated


def _invariants(rs: RewriteSystem, w: PathWord) -> tuple:
    """Endpoints, homology and matching profile: what rewriting preserves."""
    q = rs.quiver
    return (w.base, path_head(q, w)), path_homology(q, w), rs.profile(w.arrows)


def _mismatch(a: tuple, b: tuple) -> str | None:
    """The first invariant two words differ in, if any."""
    names = ("endpoints", "homology", "matching_profile")
    return next((name for name, x, y in zip(names, a, b) if x != y), None)


def paths_equal(
    rs: RewriteSystem, p: PathWord, q_: PathWord, bounds: SearchBounds = DEFAULT_BOUNDS
) -> EqResult:
    """Three-valued equality of paths modulo the face relations: one query
    on a fresh ``EqualityClasses``.

    Equal comes with a replayable rewrite witness from p to q.  NotEqual
    is only reported when certain: invariant mismatch, or a closure that
    saturated without meeting the other side.  Unknown means the bounded
    search was cut off before deciding.
    """
    check_path(rs.quiver, p)
    check_path(rs.quiver, q_)
    classes = EqualityClasses(rs, bounds)
    res = classes.compare(p, q_)
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
    """Words reached from one start word, all under one word cap.

    ``words`` maps each reached word to the word it was reached from (the
    start word to None), so every word's parent chain leads back to the
    start.  ``pending`` holds the reached words whose successors have not
    all been generated; every other word has all its successors within
    the cap in ``words``.  An empty ``pending`` makes the closure
    complete, and then it is the start word's whole class unless
    ``truncated`` says the cap suppressed a rewrite.
    """

    __slots__ = ("words", "pending", "truncated")

    def __init__(self, word: tuple[int, ...]):
        self.words: dict[tuple[int, ...], tuple[int, ...] | None] = {word: None}
        self.pending = [word]
        self.truncated = False

    def absorb(self, other: "_Closure", meet: tuple[int, ...]) -> None:
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

    Each representative keeps, per word cap, a rewrite closure grown only
    as far as queries need.  A query checks endpoints, homology and
    matching profile, then looks the word up in the closure; on a miss it
    searches from the word and grows the closure, the smaller frontier
    first, until they meet (the word's search then joins the closure), one
    side is complete, or the state budget is spent.  A complete closure
    that never hit the cap is the whole class, so NotEqual is certain;
    cut-offs answer Unknown.  Every closure word keeps the word it was
    reached from, so ``witness`` reads a rewrite chain from the
    representative to any word found equal to it.
    """

    def __init__(self, rs: RewriteSystem, bounds: SearchBounds = DEFAULT_BOUNDS):
        self.rs = rs
        self.bounds = bounds
        self.closures: dict[tuple[PathWord, int], _Closure] = {}
        self._caps: dict[int, int] = {}  # longest word length -> word cap
        self._rep_invariants: dict[PathWord, tuple] = {}
        self._last: tuple = (None, None)  # the latest query word and its invariants

    def invariants(self, w: PathWord) -> tuple:
        """Endpoints, homology and matching profile of a word; the latest
        query word's are kept."""
        if self._last[0] is not w:
            self._last = (w, _invariants(self.rs, w))
        return self._last[1]

    def compare(self, rep: PathWord, word: PathWord, max_states: int | None = None) -> EqResult:
        """Is ``word`` in the class of ``rep``?  ``max_states`` overrides the
        state budget of this one query."""
        if rep == word:
            return EqResult(EQUAL)
        word_inv = self.invariants(word)
        rep_inv = self._rep_invariants.get(rep)
        if rep_inv is None:
            rep_inv = self._rep_invariants[rep] = _invariants(self.rs, rep)
        reason = _mismatch(rep_inv, word_inv)
        if reason is not None:
            return EqResult(NOT_EQUAL, reason=reason)
        if not rep.arrows or not word.arrows:
            return EqResult(NOT_EQUAL, reason="trivial_path")
        longest = max(len(rep.arrows), len(word.arrows))
        cap = self._caps.get(longest)
        if cap is None:
            cap = self._caps[longest] = self.bounds.word_cap(self.rs.quiver, rep, word)
        closure = self.closures.get((rep, cap))
        if closure is None:
            closure = self.closures[(rep, cap)] = _Closure(rep.arrows)
        limit = self.bounds.max_states if max_states is None else max_states
        return self._search(closure, word.arrows, cap, limit)

    def _search(self, closure: _Closure, start, cap: int, limit: int) -> EqResult:
        if start in closure.words:
            return EqResult(EQUAL)
        successors = self.rs.successors
        own = _Closure(start)
        states = 0
        while closure.pending and own.pending:
            grow, other = closure, own
            if len(own.pending) < len(closure.pending):
                grow, other = own, closure
            layer, grow.pending = grow.pending, []
            for k, w in enumerate(layer):
                succs, trunc = successors(w, cap)
                grow.truncated = grow.truncated or trunc
                for step in succs:
                    nxt = step[0]
                    if nxt in grow.words:
                        continue
                    states += 1
                    if states > limit:
                        grow.pending = layer[k:] + grow.pending
                        return EqResult(UNKNOWN, reason="state_budget", states=states)
                    grow.words[nxt] = w
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
        """Rewrite steps from ``rep`` to ``word``, which ``compare`` found
        equal to it: the word's parent chain, each link read back as the
        first rewrite of ``RewriteSystem.successors`` that makes it."""
        if rep == word:
            return ()
        cap = self._caps[max(len(rep.arrows), len(word.arrows))]
        words = self.closures[(rep, cap)].words
        chain = [word.arrows]
        while words[chain[-1]] is not None:
            chain.append(words[chain[-1]])
        chain.reverse()
        steps = []
        for w, nxt in zip(chain, chain[1:]):
            _, pos, aid, old, new = next(s for s in self.rs.successors(w, cap)[0] if s[0] == nxt)
            steps.append(RewriteStep(pos, aid, old, new))
        return tuple(steps)

    def split(self, words) -> tuple[list[list[int]], int]:
        """Partition words in order: each joins the first class whose
        representative (its first word) it equals.  Returns the classes as
        index lists and the number of undecided comparisons; an undecided
        word goes on to the later classes."""
        classes: list[list[int]] = []
        unknown = 0
        for k, w in enumerate(words):
            for cls in classes:
                verdict = self.compare(words[cls[0]], w).verdict
                if verdict == EQUAL:
                    cls.append(k)
                    break
                if verdict == UNKNOWN:
                    unknown += 1
            else:
                classes.append([k])
        return classes, unknown


# -- cycle enumeration -------------------------------------------------------

FILTER_ALL = "all"
FILTER_VERTEX_SIMPLE = "vertex_simple"
FILTER_HOMOLOGY = "homology"
FILTER_LIFT_SIMPLE = "lift_simple"  # the doubled lift revisits no vertex


@dataclass(frozen=True)
class CycleFilter:
    variant: str = FILTER_ALL
    hom_class: tuple[int, int] | None = None

    @staticmethod
    def all():
        return CycleFilter(FILTER_ALL)

    @staticmethod
    def vertex_simple():
        return CycleFilter(FILTER_VERTEX_SIMPLE)

    @staticmethod
    def homology_class(u):
        return CycleFilter(FILTER_HOMOLOGY, (int(u[0]), int(u[1])))

    @staticmethod
    def lift_simple():
        return CycleFilter(FILTER_LIFT_SIMPLE)


def lift_is_simple(q: DimerQuiver, cycle: PathWord) -> bool:
    """True iff walking the cycle twice in the universal cover repeats no
    lifted vertex strictly inside the walk."""
    seen = {(cycle.base, (0, 0))}
    at, acc = cycle.base, (0, 0)
    n = 2 * len(cycle.arrows)
    for k in range(n):
        aid = cycle.arrows[k % len(cycle.arrows)]
        a = q.arrow(aid)
        acc = (acc[0] + a.homology[0], acc[1] + a.homology[1])
        at = a.head
        node = (at, acc)
        if k == n - 1:
            return True  # closing the doubled walk is allowed
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
    filt: CycleFilter = CycleFilter.all(),
    rs: RewriteSystem | None = None,
    dedup_mod_relations: bool = False,
    bounds: SearchBounds = DEFAULT_BOUNDS,
) -> CycleEnumeration:
    """All cycles at i of length <= max_len passing the filter, in a fixed
    order.  With dedup_mod_relations, also group them into equality
    classes; undecided comparisons leave cycles in separate classes and
    are counted."""
    if not 0 <= i < q.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    prune_revisits = filt.variant == FILTER_VERTEX_SIMPLE
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
        if filt.variant in (FILTER_ALL, FILTER_VERTEX_SIMPLE):
            return True  # the walk above already prunes revisits
        if filt.variant == FILTER_HOMOLOGY:
            return path_homology(q, c) == filt.hom_class
        if filt.variant == FILTER_LIFT_SIMPLE:
            if path_homology(q, c) == (0, 0):
                return False
            return lift_is_simple(q, c)
        raise DomainError(f"unknown filter {filt.variant}")

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
    depth-first search that only steps to larger vertices."""
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

    Cycles are grown length by length across all vertices, up to twice
    the longest face or half the word cap, and bucketed by homology,
    matching profile, and (when a contraction is supplied) the contracted
    monomial image; within a bucket, equality classes are maintained and
    every certainly-distinct pair of class representatives is probed for
    a cancellation witness r of at most two arrows more than the longest
    face.  All rewriting shares one state budget drawn from
    ``bounds.max_states``, and the search stops as soon as it is spent; a
    successful pair is returned with its witnesses, otherwise the report
    says whether the search ran to completion or was cut off."""
    rs = RewriteSystem(q)
    cycle_cap = max(2 * q.max_face_length(), bounds.word_cap(q) // 2)
    r_cap = q.max_face_length() + 2
    images = None if contraction is None else contraction.source_images
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
    for length in range(1, cycle_cap + 1):
        for v in range(q.num_vertices):
            budget -= walks[length][v]
            if budget <= 0:
                report.exhausted = True
                return report
            # every comparison of this round has the cap of this length, so
            # no later round could reuse these closures
            classes = EqualityClasses(rs, bounds)
            for word in _cycles_at(q, v, length):
                report.cycles_considered += 1
                c = PathWord(v, word)
                image = images and tuple(map(sum, zip(*map(images.__getitem__, word))))
                reps = buckets[v].setdefault((classes.invariants(c), image), [])
                for rep in reps:
                    if budget <= 0:
                        report.exhausted = True
                        return report
                    res = classes.compare(rep, c, min(per_call, budget))
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
                        # a pair needs a witness, so probes go through paths_equal
                        cap = bounds.word_cap(q, pr, qr)
                        probe = paths_equal(rs, pr, qr, SearchBounds(cap, min(per_call, budget)))
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
