"""Monomial semigroup arithmetic and cycle-image realizability.

Monomials are exponent vectors over the simple-matching catalog of a
contraction target.  Because exponent vectors add under concatenation
and every increment is nonnegative, "is this monomial the image of some
cycle at vertex i" is plain reachability in the finite product graph of
(vertex, partial exponent) states, so membership answers here are exact;
the state budget ``rewriting.MAX_STATES`` only guards against oversized
state spaces.  Each state is packed into one int (see ``_Packing``) and
capped by per-exponent caps and a degree cap.  Two searches run on them:
``_reach`` from one vertex, capped by g and deg g, keeps the arrow that
entered each state and rebuilds a witness walk (``realizable_at_vertex``);
``_reach_all`` sweeps from every vertex at once over exponent points,
each with one start-vertex mask per end vertex, which answers the
every-vertex questions in one pass: the degree-D ``CenterTable``, capped
by D everywhere, and ``first_unrealized_goal``, capped by the
componentwise max of its goals and their largest degree, or read from a
table whose box holds them.  A sweep's budget counts its distinct
(vertex, exponent) states.  This module keeps each contraction's
layouts, per field width, until the contraction dies.
Membership in a monoid given by generators (``algebra_contains``,
``minimal_generators``) searches packed partial sums in the same layout,
with one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import and_, le, lshift
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from . import rewriting
from .quiver import DimerQuiver, DomainError, PathWord
from .rewriting import ResourceExhausted

if TYPE_CHECKING:
    from .contraction import Contraction

Monomial = tuple[int, ...]

YES = "yes"
NO = "no"


def degree(g: Monomial) -> int:
    return sum(g)


def mon_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_leq(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _check_catalog(monomials) -> None:
    """The arithmetic above stops at the shorter tuple, so monomials of
    different lengths are refused before they meet."""
    if len(set(map(len, monomials))) > 1:
        raise DomainError("monomial indexed by a different catalog")


def is_sigma_power(g: Monomial) -> bool:
    return len(set(g)) == 1 and g[0] > 0


def render_monomial(g: Monomial) -> str:
    names = "xyzwvu"
    if degree(g) == 0:
        return "1"
    parts = []
    for k, e in enumerate(g):
        if e == 0:
            continue
        name = names[k] if k < len(names) else f"m{k}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


# -- packed states -----------------------------------------------------------


class _Packing:
    """The bit layout of packed (vertex, exponents) states for one field
    width, and the packed step of each arrow.

    The vertex sits in the low bits, under ``vmask``.  Above it each
    exponent, then the degree, has a ``width``-bit field with one guard
    bit on top.
    ``arrows`` lists (tail, head, image) per arrow, in id order: the
    arrows of a quiver with their monomial images, or none for plain
    sums of monomials at the one vertex 0.  An arrow step is one addition
    of the arrow's delta (its packed image, plus head minus tail).  With
    ``limit`` the caps, the guard bits and all-ones vertex bits, a state
    s is within the caps exactly when ``(limit - s) & guards == guards``:
    no field borrows from the next, and a field's guard bit survives the
    subtraction iff its value is at most its cap.  That holds when the
    width holds every cap plus one step's largest increment; the caller
    chooses the width."""

    def __init__(self, width: int, dim: int, num_vertices: int, arrows):
        vbits = (num_vertices - 1).bit_length()
        self.vmask = (1 << vbits) - 1
        self.mask = (1 << width) - 1
        # one field per exponent, then the degree
        self.shifts = tuple(range(vbits, vbits + (dim + 1) * (width + 1), width + 1))
        self.guards = sum(1 << (shift + width) for shift in self.shifts)
        self.deltas = tuple(
            self.pack(head, image, degree(image)) - tail for tail, head, image in arrows
        )
        # per vertex, (arrow id, delta) in arrow id order
        steps: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        for aid, (tail, _head, _image) in enumerate(arrows):
            steps[tail].append((aid, self.deltas[aid]))
        self.steps = tuple(map(tuple, steps))

    @classmethod
    def of_quiver(cls, q: DimerQuiver, images, dim: int, width: int) -> _Packing:
        return cls(width, dim, q.num_vertices, [(a.tail, a.head, images[a.id]) for a in q.arrows])

    @cached_property
    def points(self) -> tuple[_Packing, tuple, tuple]:
        """What ``_reach_all`` sweeps with: the vertex-free layout of this
        width, which packs its exponent points; (u, the other vertices
        that walks of zero-image arrows reach from u) for each u with
        any; and each nonzero arrow image in that layout, with the (tail,
        head) of every arrow that carries it.  A step lands on tail +
        delta, the head under the packed image."""
        vbits = self.vmask.bit_length()
        heads: list[set[int]] = [set() for _ in self.steps]
        images: dict[int, list[tuple[int, int]]] = {}
        for u, out in enumerate(self.steps):
            for _aid, delta in out:
                if image := (u + delta) >> vbits:
                    images.setdefault(image, []).append((u, (u + delta) & self.vmask))
                else:
                    heads[u].add(u + delta)
        zero = []
        for u in range(len(heads)):
            seen, stack = {u}, [u]
            while stack:
                for w in heads[stack.pop()] - seen:
                    seen.add(w)
                    stack.append(w)
            if closure := tuple(sorted(seen - {u})):
                zero.append((u, closure))
        layout = _Packing(self.mask.bit_length(), len(self.shifts) - 1, 1, ())
        return layout, tuple(zero), tuple((image, tuple(arr)) for image, arr in images.items())

    def pack(self, v: int, g: Monomial, deg: int) -> int:
        return v + sum(map(lshift, (*g, deg), self.shifts))

    def exponents(self, s: int) -> Monomial:
        return tuple((s >> shift) & self.mask for shift in self.shifts[:-1])


# -- monomial algebras --------------------------------------------------------


@dataclass(frozen=True)
class MonomialAlgebra:
    """A monomial algebra given by semigroup generators, in a fixed order."""

    generators: tuple[Monomial, ...]
    label: str = "custom"

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        _check_catalog(gens)
        object.__setattr__(self, "generators", gens)


def algebra_contains(a: MonomialAlgebra, g: Monomial) -> str:
    """YES iff g is a nonnegative integer combination of the generators.
    The search over the packed partial sums below g is complete, so the
    verdict is exact."""
    _check_catalog((g, *a.generators))
    packing = _sum_packing(len(g), degree(g))
    # a summand must fit below g before it is packed: a larger exponent
    # would overflow its field
    steps = [
        packing.pack(0, v, degree(v)) for v in a.generators if degree(v) > 0 and mon_leq(v, g)
    ]
    return YES if _packed_sum(packing.guards, steps, packing.pack(0, g, degree(g))) else NO


def _sum_packing(dim: int, deg: int) -> _Packing:
    """The layout of sums of monomials below a cap of degree ``deg``: one
    vertex, and a width that holds twice the cap, i.e. a partial sum below
    the cap plus one summand below it."""
    return _Packing((2 * deg).bit_length(), dim, 1, ())


def _packed_sum(guards: int, steps, goal: int) -> bool:
    """Is the packed monomial ``goal`` a sum of packed ``steps``?  A
    depth-first search over the partial sums below the goal, each one
    packed int as in ``_Packing``: a sum stays below the goal exactly when
    ``(limit - s) & guards == guards`` with ``limit = goal | guards``."""
    limit = goal | guards
    steps = [d for d in steps if (limit - d) & guards == guards]
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        if cur == goal:
            return True
        for d in steps:
            s = cur + d
            if s not in seen and (limit - s) & guards == guards:
                seen.add(s)
                stack.append(s)
    return False


def semigroup_monomials(gens, degree_bound: int) -> frozenset[Monomial]:
    """All nonzero sums of generators with degree <= degree_bound: the
    closure of ``ideal_monomials`` started at the zero monomial, with
    zero removed.  It is exact for the reason given there."""
    gens = tuple(gens)
    zero = (0,) * len(gens[0]) if gens else ()
    return ideal_monomials([zero], gens, degree_bound) - {zero}


def ideal_monomials(generators, multiplier_gens, degree_bound: int) -> frozenset[Monomial]:
    """The monomials of the ideal spanned by ``generators`` over the
    semigroup spanned by ``multiplier_gens``, up to the degree bound:
    the set {g + s : deg(g + s) <= D} over generators g and sums s of
    multipliers (s = 0 included), for D the degree bound.

    One breadth-first closure builds it: start from the generators of
    degree at most D, and add each multiplier of positive degree to each
    new monomial while the degree stays at most D.  Exponents are
    nonnegative, so every partial sum g + x_1 + ... + x_j of an element
    g + x_1 + ... + x_k of the set has degree at most that of the whole
    sum, and the closure reaches it through those partial sums; a
    multiplier of degree 0 is the zero monomial and adds nothing.
    Generators and multipliers must be indexed by one catalog."""
    generators, multiplier_gens = tuple(generators), tuple(multiplier_gens)
    _check_catalog(generators + multiplier_gens)
    steps = [(v, degree(v)) for v in multiplier_gens if 0 < degree(v) <= degree_bound]
    frontier = [(g, degree(g)) for g in set(generators) if degree(g) <= degree_bound]
    reached = {g for g, _ in frontier}
    while frontier:
        layer = []
        for cur, deg in frontier:
            for v, dv in steps:
                if deg + dv <= degree_bound and (nxt := mon_add(cur, v)) not in reached:
                    reached.add(nxt)
                    layer.append((nxt, deg + dv))
        frontier = layer
    return frozenset(reached)


def minimal_generators(monomials) -> list[Monomial]:
    """Reduce a set of monomials to the subset that still generates it:
    the irreducible elements of the semigroup it generates, which are its
    unique minimal generating set, sorted by degree.

    The monomials are taken by degree, so when one is reached every
    monomial of lower degree is already a sum of kept generators.  A
    monomial m is therefore dropped at once when m - k is itself one of
    the monomials for some kept k <= m; the rest go through the packed
    membership search ``_packed_sum`` over the kept generators."""
    mons = sorted(set(m for m in monomials if degree(m) > 0), key=lambda m: (degree(m), m))
    if not mons:
        return []
    packing = _sum_packing(len(mons[0]), degree(mons[-1]))
    guards = packing.guards
    packed = [packing.pack(0, m, degree(m)) for m in mons]
    present = set(packed)
    kept: list[Monomial] = []
    kept_packed: list[int] = []
    for m, pm in zip(mons, packed):
        # (pm | guards) - pk keeps every guard bit iff k <= m, and then
        # flipping the guards leaves the packed m - k; otherwise a guard
        # bit stays set, and no packed monomial has one
        top = pm | guards
        if any((top - pk) ^ guards in present for pk in kept_packed):
            continue
        if not _packed_sum(guards, kept_packed, pm):
            kept.append(m)
            kept_packed.append(pm)
    return kept


def cycle_algebra_generators(q: DimerQuiver, images) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the algebra of cycle images in q,
    for ``images`` the monomial image of each arrow.

    The image of a closed walk depends only on its arrow multiset, and
    every closed walk splits into vertex-simple cycles, so the images of
    vertex-simple cycles generate the algebra.  They are found without
    listing the cycles.  For each start vertex s, one breadth-first
    search over packed (vertex, image) states (``_Packing``) steps only
    to vertices >= s, takes walks of at most V - s arrows, collects the
    image of every walk that returns to s, and keeps each state only at
    the first layer that reaches it.  The collected images generate the
    same monoid as the vertex-simple cycle images:

    - every vertex-simple cycle whose least vertex is s is such a walk,
      since it visits at most V - s vertices, all of them >= s;
    - every collected image is the image of a closed walk, so it lies in
      the monoid that the vertex-simple cycle images generate;
    - a state seen again at a later layer has fewer steps left, so
      dropping it loses no walk: whatever finishes a walk from the later
      visit finishes it from the first, within the cap.

    ``minimal_generators`` returns the irreducibles of that monoid, so the
    list is the one the vertex-simple cycles give."""
    nv = q.num_vertices
    # a walk of at most V arrows: every field is at most V times the
    # largest arrow degree
    width = (nv * max(map(sum, images))).bit_length()
    packing = _Packing.of_quiver(q, images, len(images[0]), width)
    vmask, steps = packing.vmask, packing.steps
    found: set[int] = set()
    for s in range(nv):
        seen = {s}
        frontier = [s]
        for _ in range(nv - s):
            nxt = []
            for node in frontier:
                for _aid, step in steps[node & vmask]:
                    state = node + step
                    head = state & vmask
                    if head == s:
                        found.add(state - s)
                    elif head > s and state not in seen:
                        seen.add(state)
                        nxt.append(state)
            frontier = nxt
    return tuple(minimal_generators(map(packing.exponents, found)))


# -- realizability of monomials as cycle images -------------------------------


@dataclass
class Realizability:
    verdict: str
    witness: PathWord | None = None
    states: int = 0
    vertex: int | None = None


_packings: WeakKeyDictionary[Contraction, dict[int, _Packing]] = WeakKeyDictionary()


def _packing(c: Contraction, deg_cap: int) -> _Packing:
    """The packing of the source for a degree cap, built once per field
    width and kept in ``_packings``.  An arrow image is a 0/1 vector
    over the n simple matchings, so one arrow adds at most 1 to an
    exponent and at most n to the degree: a width that holds the degree
    cap plus n holds every cap plus one arrow's largest increment."""
    width = (deg_cap + len(c.catalog)).bit_length()
    layouts = _packings.setdefault(c, {})
    if width not in layouts:
        layouts[width] = _Packing.of_quiver(c.source, c.source_images, len(c.catalog), width)
    return layouts[width]


def _reach(
    packing: _Packing, i: int, caps: Monomial, deg_cap: int, max_states: int, target: int,
) -> dict[int, int | None]:
    """Breadth-first search over the states of ``packing``, the layout
    ``_packing`` gives for ``deg_cap``, from (i, 0), keeping each state
    whose exponents are at most ``caps`` and whose degree is at most
    ``deg_cap`` (caps nonnegative and at most the degree cap).

    Returns the map from each reached state to the arrow id that first
    entered it (None at the start); the previous state is the state minus
    that arrow's delta.  The search stops after the layer that reaches
    the packed state ``target``.  Past ``max_states`` states it raises
    ResourceExhausted."""
    vmask, guards, steps = packing.vmask, packing.guards, packing.steps
    limit = packing.pack(vmask, caps, deg_cap) | guards
    parent: dict[int, int | None] = {i: None}
    frontier = [i]
    while frontier and target not in parent:
        nxt_frontier = []
        for node in frontier:
            for aid, step in steps[node & vmask]:
                state = node + step
                if state in parent or (limit - state) & guards != guards:
                    continue
                parent[state] = aid
                nxt_frontier.append(state)
            if len(parent) > max_states:
                raise ResourceExhausted(f"realizability search exceeds budget {max_states}")
        frontier = nxt_frontier
    return parent


def _reach_all(packing: _Packing, caps: Monomial, deg_cap: int,
               max_states: int) -> tuple[_Packing, dict[int, list[int]]]:
    """One sweep from every start (v, 0) at once over the exponent points
    of the box of ``_reach``: the layout of ``packing.points``, and the map
    from each point reached to its row, whose entry w is the bitmask of
    the starts v with a walk from (v, 0) to (w, point).

    Image steps raise the degree and zero-image steps keep the point, so
    with the degree layers in ascending order a point's row is complete
    when its layer comes; it is closed once, through each vertex's
    zero-image closure, whatever cycles those arrows make.  Then each image feeds the point above, one
    cap test and one dict read for every arrow that carries it.  Past
    ``max_states`` states with a nonzero mask it raises ResourceExhausted."""
    points, zero, images = packing.points
    guards, top = points.guards, points.shifts[-1]
    limit = points.pack(0, caps, deg_cap) | guards
    nv = len(packing.steps)
    rows = {0: [1 << v for v in range(nv)]}
    # the pending layers by degree: the work follows the points reached,
    # never the degree cap, so a huge cap ends at the budget
    layers: dict[int, list[int]] = {0: [0]}
    states = 0
    while layers:
        for p in layers.pop(min(layers)):
            row = rows[p]
            for u, closure in zero:
                if m := row[u]:
                    for w in closure:
                        row[w] |= m
            states += nv - row.count(0)
            if states > max_states:
                raise ResourceExhausted(f"realizability sweep exceeds budget {max_states}")
            for image, arrows in images:
                q = p + image
                if (limit - q) & guards == guards:
                    nxt = rows.get(q)
                    for tail, head in arrows:
                        # a point enters the sweep with its first nonzero mask
                        if m := row[tail]:
                            if nxt is None:
                                rows[q] = nxt = [0] * nv
                                layers.setdefault(q >> top, []).append(q)
                            nxt[head] |= m
    return points, rows


def _check_query(c: Contraction, goals, i: int = 0) -> None:
    if not 0 <= i < c.source.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    for g in goals:
        if len(g) != len(c.catalog):
            raise DomainError("monomial indexed by a different catalog")
        if min(g, default=0) < 0:
            raise DomainError("monomial with a negative exponent")


def realizable_at_vertex(c: Contraction, i: int, g: Monomial) -> Realizability:
    """Is there a cycle at i whose monomial image is exactly g?

    The search runs over packed (vertex, exponents spent) states capped by
    g and deg g; every arrow step adds its own image, so any witness walk
    stays inside the lattice box under g and reachability is exact.  On
    success the witness walk is rebuilt backwards from the arrow that
    entered each state.
    """
    _check_query(c, [g], i)
    max_states = rewriting.MAX_STATES
    if (space := prod(e + 1 for e in g) * c.source.num_vertices) > max_states:
        raise ResourceExhausted(f"state space {space} exceeds budget {max_states}")
    packing = _packing(c, degree(g))
    node = packing.pack(i, g, degree(g))
    parent = _reach(packing, i, g, degree(g), max_states, node)
    if node not in parent:
        return Realizability(NO, None, len(parent), i)
    word: list[int] = []
    while (aid := parent[node]) is not None:
        word.append(aid)
        node -= packing.deltas[aid]
    word.reverse()
    return Realizability(YES, PathWord(i, tuple(word)), len(parent), i)


_MAX_CYCLES = 20000  # cycles one image may have before cycles_with_image gives up


def cycles_with_image(c: Contraction, i: int, g: Monomial) -> list[PathWord]:
    """All cycles at i with image exactly g whose zero-image steps never
    revisit a (vertex, exponent) state.  Every such walk is finite: it
    has at most deg g image-carrying steps, and each zero-image chain
    before, between and after them visits distinct states with one
    exponent, so it has at most V - 1 steps; a walk therefore has fewer
    than (deg g + 1)·V arrows.

    The depth-first search runs on the packed states of ``_Packing``
    capped by g and deg g, as in ``_reach``: a step adds the arrow's
    delta, and a zero-image step leaves every field above the vertex bits
    unchanged."""
    _check_query(c, [g], i)
    deg = degree(g)
    packing = _packing(c, deg)
    vmask, guards, steps = packing.vmask, packing.guards, packing.steps
    limit = packing.pack(vmask, g, deg) | guards
    goal = packing.pack(i, g, deg)
    out: list[PathWord] = []
    stack = [(i, (), frozenset({i}))]
    while stack:
        s, word, zero_seen = stack.pop()
        if word and s == goal:
            out.append(PathWord(i, word))
            if len(out) > _MAX_CYCLES:
                raise ResourceExhausted("too many witness cycles")
        for aid, step in reversed(steps[s & vmask]):
            state = s + step
            if (limit - state) & guards != guards:
                continue
            if (state ^ s) <= vmask:
                # zero-image step: forbid revisiting a state without
                # spending, which would loop forever
                if state in zero_seen:
                    continue
                stack.append((state, word + (aid,), zero_seen | {state}))
            else:
                stack.append((state, word + (aid,), frozenset({state})))
    out.sort(key=lambda p: (len(p.arrows), p.arrows))
    return out


def _first_unrealized(c: Contraction, goals, table: CenterTable | None) -> tuple[int, int] | None:
    _check_query(c, goals)
    max_states = rewriting.MAX_STATES
    num_vertices = c.source.num_vertices
    spaces = [prod(e + 1 for e in goal) * num_vertices for goal in goals]
    over = next((k for k, space in enumerate(spaces) if space > max_states), len(goals))
    if over:
        swept = goals[:over]
        deg_cap = max(map(degree, swept))
        if table is not None and deg_cap <= table.degree_bound:
            points, rows = table._points, table._rows
        else:
            caps = tuple(map(max, zip(*swept)))
            points, rows = _reach_all(_packing(c, deg_cap), caps, deg_cap, max_states)
        for k, goal in enumerate(swept):
            # a point the sweep never reached fails at vertex 0
            row = rows.get(points.pack(0, goal, degree(goal))) or [0]
            for v, m in enumerate(row):
                if not m >> v & 1:
                    return k, v
    if over < len(goals):
        raise ResourceExhausted(f"state space {spaces[over]} exceeds budget {max_states}")
    return None


def first_unrealized_goal(c: Contraction, goals) -> tuple[int, int] | None:
    """The first goal, in order, that is not a cycle image at every
    vertex, and the first vertex where it is not, as (index, vertex);
    None when every goal is a cycle image at every vertex.

    One ``_reach_all`` sweep answers every goal at every vertex, inside
    the box of the goals' componentwise max and largest degree.  Arrow
    images are nonnegative, so a walk to a goal stays below it, inside
    the shared box, and the verdict is exact: goal g is a cycle image at
    v exactly when entry v of the row at the point g has bit v set.

    Guard: a goal whose own box times the vertex count exceeds
    ``rewriting.MAX_STATES`` raises ResourceExhausted unless an earlier
    goal fails, as one membership test per goal would; only the goals
    before it are swept, and a sweep past the budget, counted in the
    distinct (vertex, exponent) states it reaches, raises too: an Unknown
    (exit 2), never a wrong verdict."""
    return _first_unrealized(c, goals, None)


def homotopy_center_contains(c: Contraction, g: Monomial) -> Realizability:
    """YES iff g is a cycle image at every vertex; otherwise the report
    names the first failing vertex.  The one-goal case of
    ``first_unrealized_goal``."""
    miss = first_unrealized_goal(c, [g])
    return Realizability(YES) if miss is None else Realizability(NO, vertex=miss[1])


class CenterTable:
    """The homotopy center of c up to a degree bound: ``monomials``, the
    points x != 0 whose row has bit v in entry v for every v, of one
    ``_reach_all`` sweep of the degree-bounded box.  That box holds every
    goal's box up to the bound, so ``first_unrealized_goal`` here reads
    such goals from this sweep, with the module function's verdict."""

    def __init__(self, c: Contraction, degree_bound: int):
        self.contraction, self.degree_bound = c, degree_bound
        bound = max(degree_bound, 0)  # packed caps are nonnegative
        self._points, self._rows = _reach_all(
            _packing(c, bound), (bound,) * len(c.catalog), bound, rewriting.MAX_STATES)
        diagonal = [1 << v for v in range(c.source.num_vertices)]
        self.monomials = frozenset(
            self._points.exponents(p) for p, row in self._rows.items()
            if p and all(map(and_, row, diagonal))
        )

    def first_unrealized_goal(self, goals) -> tuple[int, int] | None:
        return _first_unrealized(self.contraction, goals, self)


def homotopy_center_monomials(c: Contraction, degree_bound: int) -> frozenset[Monomial]:
    """The nonzero monomials of degree <= degree_bound that are cycle
    images at every vertex, read from one sweep (``CenterTable``)."""
    return CenterTable(c, degree_bound).monomials
