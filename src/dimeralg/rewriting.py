"""Path equality modulo the face relations, as bounded string rewriting.

Every arrow sits on two faces; rotating each face to start at the arrow
and dropping it leaves two complementary arcs between the same endpoints,
and the relations identify exactly those arcs.  Equality of two words is
explored by a bidirectional closure over subword replacements.  Rewrites
preserve endpoints, homology, and the count of arrows in every perfect
matching, so many inequalities are certain; when both closures saturate
without meeting, inequality is certain too.  Only a genuinely truncated
search answers Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matchings import MatchingCapExceeded, enumerate_perfect_matchings
from .quiver import Arrow, DimerQuiver, DomainError, PathWord, check_path, path_head, path_homology

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
    """Three-valued equality of paths modulo the face relations.

    Equal comes with a replayable rewrite witness from p to q.  NotEqual
    is only reported when certain: invariant mismatch, or both closures
    saturated without intersecting.  Unknown means the bounded search was
    truncated before deciding.
    """
    quiver = rs.quiver
    check_path(quiver, p)
    check_path(quiver, q_)
    if p == q_:
        return EqResult(EQUAL)
    reason = _mismatch(_invariants(rs, p), _invariants(rs, q_))
    if reason is not None:
        return EqResult(NOT_EQUAL, reason=reason)
    if not p.arrows or not q_.arrows:
        # relations never produce the empty word
        return EqResult(NOT_EQUAL, reason="trivial_path")

    cap = bounds.word_cap(quiver, p, q_)
    start_p, start_q = p.arrows, q_.arrows
    # per-side parent pointers: word -> successor tuple that reached it
    parents_side = {"p": {start_p: None}, "q": {start_q: None}}
    frontier = {"p": [start_p], "q": [start_q]}
    truncated = False
    states = 2

    def witness(meet_word):
        # steps p -> ... -> meet, then the q-side chain inverted
        def chain(side):
            # successor tuples (word, pos, arrow, old, new) from the start
            steps = []
            step = parents_side[side][meet_word]
            while step is not None:
                steps.append(step)
                _, pos, _, old, new = step
                parent = step[0][:pos] + old + step[0][pos + len(new):]
                step = parents_side[side][parent]
            steps.reverse()
            return steps

        fwd = [RewriteStep(pos, aid, old, new) for _, pos, aid, old, new in chain("p")]
        inv = [RewriteStep(pos, aid, new, old) for _, pos, aid, old, new in reversed(chain("q"))]
        return tuple(fwd + inv)

    # Expand the smaller frontier until meeting, exhaustion, or the budget.
    while frontier["p"] or frontier["q"]:
        side = "p" if (frontier["p"] and (len(frontier["p"]) <= len(frontier["q"]) or not frontier["q"])) else "q"
        other = "q" if side == "p" else "p"
        new_frontier = []
        for word in frontier[side]:
            succs, trunc = rs.successors(word, cap)
            truncated = truncated or trunc
            for step in succs:
                nxt = step[0]
                if nxt in parents_side[side]:
                    continue
                states += 1
                if states > bounds.max_states:
                    return EqResult(UNKNOWN, reason="state_budget", states=states)
                parents_side[side][nxt] = step
                if nxt in parents_side[other]:
                    return EqResult(EQUAL, steps=witness(nxt), states=states)
                new_frontier.append(nxt)
        frontier[side] = new_frontier
    if truncated:
        return EqResult(UNKNOWN, reason="word_length", states=states)
    return EqResult(NOT_EQUAL, reason="saturated", states=states)


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

    ``pending`` holds the reached words whose successors have not all been
    generated; every other word has all its successors within the cap in
    ``words``.  An empty ``pending`` makes the closure complete, and then
    it is the start word's whole class unless ``truncated`` says the cap
    suppressed a rewrite.
    """

    __slots__ = ("words", "pending", "truncated")

    def __init__(self, word: tuple[int, ...]):
        self.words = {word}
        self.pending = [word]
        self.truncated = False

    def absorb(self, other: "_Closure") -> None:
        """Join the closure of an equal word; its unexpanded words are
        queued here, so completeness still means the whole class."""
        self.pending += [w for w in other.pending if w not in self.words]
        self.words |= other.words
        self.truncated = self.truncated or other.truncated


class EqualityClasses:
    """Three-valued equality of words against class representatives.

    Each representative keeps, per word cap, a rewrite closure grown only
    as far as queries need.  A query checks endpoints, homology and
    matching profile, then looks the word up in the closure; on a miss it
    searches from the word and grows the closure, the smaller frontier
    first, until they meet (the word's search then joins the closure), one
    side is complete, or the state budget is spent.  A complete closure
    that never hit the cap is the whole class, so NotEqual is certain;
    cut-offs answer Unknown.  Verdicts carry no witness: ``paths_equal``
    is the witness-producing path and the reference.
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
                    grow.words.add(nxt)
                    grow.pending.append(nxt)
                    if nxt in other.words:
                        # w is requeued: its later successors are not generated yet
                        grow.pending = layer[k:] + grow.pending
                        closure.absorb(own)
                        return EqResult(EQUAL, states=states)
        if any(not (c.pending or c.truncated) for c in (closure, own)):
            return EqResult(NOT_EQUAL, reason="saturated", states=states)
        return EqResult(UNKNOWN, reason="word_length", states=states)

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
    max_states: int = 2_000_000,
) -> CycleEnumeration:
    """All cycles at i of length <= max_len passing the filter, in a fixed
    order.  With dedup_mod_relations, also group them into equality
    classes; undecided comparisons leave cycles in separate classes and
    are counted."""
    if not 0 <= i < q.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    out_by_vertex: list[list[int]] = [[] for _ in range(q.num_vertices)]
    for a in q.arrows:
        out_by_vertex[a.tail].append(a.id)
    for lst in out_by_vertex:
        lst.sort()

    prune_revisits = filt.variant == FILTER_VERTEX_SIMPLE
    results: list[PathWord] = []
    states = 0
    stack: list[tuple[int, tuple[int, ...], frozenset[int]]] = [(i, (), frozenset())]
    while stack:
        at, word, visited = stack.pop()
        states += 1
        if states > max_states:
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
        for aid in reversed(out_by_vertex[at]):
            stack.append((q.arrow(aid).head, word + (aid,), visited))

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
    out_by_vertex: list[list[Arrow]] = [[] for _ in range(q.num_vertices)]
    for a in q.arrows:
        out_by_vertex[a.tail].append(a)
    out: list[PathWord] = []
    for s in range(q.num_vertices):
        word: list[int] = []
        on_path = {s}
        stack = [iter(out_by_vertex[s])]
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
                stack.append(iter(out_by_vertex[a.head]))
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


def find_noncancellative_pair(
    q: DimerQuiver,
    contraction=None,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    max_cycle_len: int | None = None,
    max_r_len: int | None = None,
) -> NoncancellativeReport:
    """Search for cycles p != q (certainly, modulo relations) with equal
    invariants and a path r such that appending or prepending r makes them
    equal.

    Cycles are grown length by length across all vertices and bucketed by
    homology, matching profile, and (when a contraction is supplied) the
    contracted monomial image; within a bucket, equality classes are
    maintained and every certainly-distinct pair of class representatives
    is probed for a cancellation witness r.  All rewriting shares one
    state budget drawn from ``bounds.max_states``, and the search stops
    as soon as it is spent; a successful pair is returned with its
    witnesses, otherwise the report says whether the search ran to
    completion or was cut off."""
    rs = RewriteSystem(q)
    if max_cycle_len is None:
        max_cycle_len = max(2 * q.max_face_length(), bounds.word_cap(q) // 2)
    if max_r_len is None:
        max_r_len = q.max_face_length() + 2

    out_by_vertex: list[list[int]] = [[] for _ in range(q.num_vertices)]
    in_by_vertex: list[list[int]] = [[] for _ in range(q.num_vertices)]
    for a in q.arrows:
        out_by_vertex[a.tail].append(a.id)
        in_by_vertex[a.head].append(a.id)
    for lst in out_by_vertex:
        lst.sort()
    for lst in in_by_vertex:
        lst.sort()

    def image(word):
        if contraction is None:
            return None
        from .contraction import tau_psi  # local import to stay acyclic

        return tau_psi(contraction, PathWord(q.arrow(word[0]).tail, word))

    budget = [bounds.max_states]
    per_call = max(2000, bounds.max_states // 10)

    def eq(a: PathWord, b: PathWord) -> EqResult:
        # probes need a witness, so they go through paths_equal
        res = paths_equal(
            rs, a, b, SearchBounds(bounds.word_cap(q, a, b), min(per_call, budget[0]))
        )
        budget[0] -= max(res.states, 1)
        return res

    def r_words(v, forward):
        layer = [(v, ())]
        for _ in range(max_r_len):
            nxt = []
            for at, word in layer:
                pool = out_by_vertex[at] if forward else in_by_vertex[at]
                for aid in pool:
                    if forward:
                        nxt.append((q.arrow(aid).head, word + (aid,)))
                    else:
                        nxt.append((q.arrow(aid).tail, (aid,) + word))
            yield from (w for _, w in nxt)
            layer = nxt

    def probe(v, p: PathWord, q_: PathWord, reason) -> NoncancellativePair | None:
        nonlocal exhausted
        for r_word in r_words(v, forward=True):
            if budget[0] <= 0:
                exhausted = True
                return None
            res = eq(PathWord(v, p.arrows + r_word), PathWord(v, q_.arrows + r_word))
            if res.is_equal:
                return NoncancellativePair(
                    v, p, q_, PathWord(q.arrow(r_word[0]).tail, r_word),
                    "after", reason, res.steps,
                )
            if res.verdict == UNKNOWN:
                exhausted = True
        for r_word in r_words(v, forward=False):
            if budget[0] <= 0:
                exhausted = True
                return None
            base = q.arrow(r_word[0]).tail
            res = eq(PathWord(base, r_word + p.arrows), PathWord(base, r_word + q_.arrows))
            if res.is_equal:
                return NoncancellativePair(
                    v, p, q_, PathWord(base, r_word), "before", reason, res.steps,
                )
            if res.verdict == UNKNOWN:
                exhausted = True
        return None

    # walks[n][u]: the number of walks of length n from u, i.e. what
    # growing every walk length by length would spend from the budget
    walks = [[1] * q.num_vertices]
    for _ in range(max_cycle_len):
        prev = walks[-1]
        walks.append([sum(prev[q.arrow(aid).head] for aid in out) for out in out_by_vertex])

    def cycles_at(v, length):
        """The cycles at v of the given length, in the order of growing
        every walk; depth first, descending only where v is still
        reachable in exactly the steps left."""
        back = [{v}]  # back[n]: vertices with a walk of length n to v
        for _ in range(length - 1):
            back.append({a.tail for a in q.arrows if a.head in back[-1]})
        stack = [(v, ())]
        while stack:
            at, word = stack.pop()
            if len(word) == length:
                yield word
                continue
            reach = back[length - len(word) - 1]
            for aid in reversed(out_by_vertex[at]):
                if q.arrow(aid).head in reach:
                    stack.append((q.arrow(aid).head, word + (aid,)))

    cycles_considered = 0
    pairs_tested = 0
    exhausted = False
    # buckets[v][key] = list of equality-class representatives
    buckets: list[dict[tuple, list[PathWord]]] = [dict() for _ in range(q.num_vertices)]
    for length in range(1, max_cycle_len + 1):
        for v in range(q.num_vertices):
            budget[0] -= walks[length][v]
            if budget[0] <= 0:
                return NoncancellativeReport(None, True, cycles_considered, pairs_tested)
            # every comparison of this round has the cap of this length, so
            # no later round could reuse these closures
            classes = EqualityClasses(rs, bounds)
            for word in cycles_at(v, length):
                cycles_considered += 1
                c = PathWord(v, word)
                key = (classes.invariants(c), image(word))
                reps = buckets[v].setdefault(key, [])
                for rep in reps:
                    if budget[0] <= 0:
                        return NoncancellativeReport(None, True, cycles_considered, pairs_tested)
                    res = classes.compare(rep, c, min(per_call, budget[0]))
                    budget[0] -= max(res.states, 1)
                    pairs_tested += 1
                    if res.is_equal:
                        break
                    if res.verdict == UNKNOWN:
                        exhausted = True
                        continue
                    pair = probe(v, rep, c, res.reason)
                    if pair is not None:
                        return NoncancellativeReport(
                            pair, exhausted, cycles_considered, pairs_tested
                        )
                else:
                    reps.append(c)
    return NoncancellativeReport(None, exhausted, cycles_considered, pairs_tested)
