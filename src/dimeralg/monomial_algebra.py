"""Monomial semigroup arithmetic and cycle-image realizability.

Monomials are exponent vectors over the simple-matching catalog of a
contraction target.  Because exponent vectors add under concatenation
and every increment is nonnegative, "is this monomial the image of some
cycle at vertex i" is plain reachability in the finite product graph of
(vertex, partial exponent) states, so membership answers here are exact;
the state budget ``rewriting.MAX_STATES`` only guards against oversized
state spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import rewriting
from .contraction import Contraction, Monomial
from .quiver import DomainError, PathWord
from .rewriting import ResourceExhausted

YES = "yes"
NO = "no"


def degree(g: Monomial) -> int:
    return sum(g)


def mon_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_leq(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def sigma_divides(g: Monomial) -> bool:
    return all(e >= 1 for e in g)


def divide_by_sigma(g: Monomial) -> Monomial:
    if not sigma_divides(g):
        raise DomainError("some exponent is zero; the all-ones vector does not divide")
    return tuple(e - 1 for e in g)


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


@dataclass(frozen=True)
class MonomialAlgebra:
    """A monomial algebra given by semigroup generators, in a fixed order."""

    generators: tuple[Monomial, ...]
    label: str = "custom"

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        object.__setattr__(self, "generators", gens)


def algebra_contains(a: MonomialAlgebra, g: Monomial) -> str:
    """YES iff g is a nonnegative integer combination of the generators.
    The lattice program below g is complete, so the verdict is exact."""
    return YES if _reachable_vector(a.generators, g) else NO


def _reachable_vector(gens, g: Monomial) -> bool:
    useful = [v for v in gens if degree(v) > 0 and mon_leq(v, g)]
    reached = {tuple(0 for _ in g)}
    frontier = [tuple(0 for _ in g)]
    while frontier:
        cur = frontier.pop()
        if cur == g:
            return True
        for v in useful:
            nxt = mon_add(cur, v)
            if mon_leq(nxt, g) and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return g in reached


def semigroup_monomials(gens, degree_bound: int) -> frozenset[Monomial]:
    """All nonzero sums of generators with degree <= degree_bound."""
    gens = [v for v in gens if 0 < degree(v) <= degree_bound]
    if not gens:
        return frozenset()
    zero = tuple(0 for _ in gens[0])
    reached = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for v in gens:
            nxt = mon_add(cur, v)
            if degree(nxt) <= degree_bound and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    reached.discard(zero)
    return frozenset(reached)


def ideal_monomials(generators, multiplier_gens, degree_bound: int) -> frozenset[Monomial]:
    """The monomials of the ideal spanned by ``generators`` over the
    semigroup spanned by ``multiplier_gens``, up to the degree bound."""
    mult = semigroup_monomials(multiplier_gens, degree_bound)
    out = set()
    for g in generators:
        if degree(g) <= degree_bound:
            out.add(g)
            out.update(p for p in (mon_add(g, s) for s in mult) if degree(p) <= degree_bound)
    return frozenset(out)


def minimal_generators(monomials) -> list[Monomial]:
    """Reduce a set of monomials to the subset that still generates it:
    the irreducible elements of the semigroup it generates, which are its
    unique minimal generating set, sorted by degree."""
    mons = sorted(set(m for m in monomials if degree(m) > 0), key=lambda m: (degree(m), m))
    kept: list[Monomial] = []
    for m in mons:
        if not _reachable_vector([k for k in kept if k != m], m):
            kept.append(m)
    return kept


# -- realizability of monomials as cycle images -------------------------------


@dataclass
class Realizability:
    verdict: str
    witness: PathWord | None = None
    states: int = 0
    vertex: int | None = None


def _reach(c: Contraction, i: int, fits, max_states: int, goal=None) -> dict:
    """Breadth-first search over (vertex, exponents spent) states from
    (i, 0), keeping each state whose exponents ``fits`` accepts.

    Returns the first-reached parent map, state -> (previous state, arrow
    id), None at the start.  With a goal state the search stops after the
    layer that reaches it.  Past ``max_states`` states it raises
    ResourceExhausted."""
    q = c.source
    images = c.source_images
    start = (i, (0,) * len(c.catalog))
    parent: dict[tuple, tuple | None] = {start: None}
    frontier = [start]
    while frontier and goal not in parent:
        nxt_frontier = []
        for node in frontier:
            v, spent = node
            for a in q.out_arrows(v):
                ns = mon_add(spent, images[a.id])
                state = (a.head, ns)
                if state in parent or not fits(ns):
                    continue
                parent[state] = (node, a.id)
                nxt_frontier.append(state)
            if len(parent) > max_states:
                raise ResourceExhausted(f"realizability search exceeds budget {max_states}")
        frontier = nxt_frontier
    return parent


def _check_query(c: Contraction, i: int, g: Monomial) -> None:
    if not 0 <= i < c.source.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    if len(g) != len(c.catalog):
        raise DomainError("monomial indexed by a different catalog")
    if min(g, default=0) < 0:
        raise DomainError("monomial with a negative exponent")


def realizable_at_vertex(c: Contraction, i: int, g: Monomial) -> Realizability:
    """Is there a cycle at i whose monomial image is exactly g?

    States are (vertex, exponents spent so far); every arrow step adds its
    own image, so any witness walk stays inside the lattice box under g
    and reachability is exact.  A witness walk is reconstructed on success.
    """
    q = c.source
    _check_query(c, i, g)
    max_states = rewriting.MAX_STATES
    box = prod(e + 1 for e in g)
    if box * q.num_vertices > max_states:
        raise ResourceExhausted(
            f"state space {box * q.num_vertices} exceeds budget {max_states}"
        )
    goal = (i, g)
    parent = _reach(c, i, lambda ns: mon_leq(ns, g), max_states, goal)
    if goal not in parent:
        return Realizability(NO, None, len(parent), i)
    word: list[int] = []
    node = goal
    while parent[node] is not None:
        node, aid = parent[node]
        word.append(aid)
    word.reverse()
    return Realizability(YES, PathWord(i, tuple(word)), len(parent), i)


_MAX_CYCLES = 20000  # cycles one image may have before cycles_with_image gives up


def cycles_with_image(c: Contraction, i: int, g: Monomial) -> list[PathWord]:
    """All cycles at i with image exactly g whose zero-image steps never
    revisit a (vertex, exponent) state.  Image-carrying steps are bounded
    by deg(g) and each zero-image chain between them by the vertex count,
    so walks are cut at (deg(g) + 1) times the vertex count."""
    q = c.source
    _check_query(c, i, g)
    images = c.source_images
    walk_cap = (degree(g) + 1) * q.num_vertices
    out: list[PathWord] = []
    stack = [(i, tuple(0 for _ in g), (), frozenset({(i, tuple(0 for _ in g))}))]
    while stack:
        v, spent, word, zero_seen = stack.pop()
        if word and v == i and spent == g:
            out.append(PathWord(i, word))
            if len(out) > _MAX_CYCLES:
                raise ResourceExhausted("too many witness cycles")
        if len(word) >= walk_cap:
            continue
        for a in reversed(q.out_arrows(v)):
            ns = mon_add(spent, images[a.id])
            if not mon_leq(ns, g):
                continue
            node = (a.head, ns)
            if ns == spent:
                # zero-image step: forbid revisiting a state without
                # spending, which would loop forever
                if node in zero_seen:
                    continue
                stack.append((a.head, ns, word + (a.id,), zero_seen | {node}))
            else:
                stack.append((a.head, ns, word + (a.id,), frozenset({node})))
    out.sort(key=lambda p: (len(p.arrows), p.arrows))
    return out


def homotopy_center_contains(c: Contraction, g: Monomial):
    """YES iff g is a cycle image at every vertex; otherwise the report
    names the first failing vertex."""
    for i in range(c.source.num_vertices):
        res = realizable_at_vertex(c, i, g)
        if res.verdict != YES:
            return Realizability(NO, None, res.states, i)
    return Realizability(YES, None, 0, None)


@dataclass
class CenterGenerators:
    algebra: MonomialAlgebra
    monomials: frozenset[Monomial]


def homotopy_center_monomials(c: Contraction, degree_bound: int) -> frozenset[Monomial]:
    """The nonzero monomials of degree <= degree_bound that are cycle
    images at every vertex: one degree-bounded search per vertex, the
    images back at the start intersected.  The searches share one
    state budget."""
    out: set[Monomial] | None = None
    budget = rewriting.MAX_STATES
    for i in range(c.source.num_vertices):
        parent = _reach(c, i, lambda ns: degree(ns) <= degree_bound, budget)
        budget -= len(parent)
        back = {spent for v, spent in parent if v == i and degree(spent) > 0}
        out = back if out is None else out & back
    return frozenset(out or ())


def homotopy_center_generators(c: Contraction, degree_bound: int) -> CenterGenerators:
    """Monomials of the homotopy center up to the bound, reduced to the
    minimal generating set of what is visible at that degree."""
    mons = homotopy_center_monomials(c, degree_bound)
    gens = minimal_generators(sorted(mons))
    return CenterGenerators(MonomialAlgebra(tuple(gens), label="homotopy-center"), mons)
