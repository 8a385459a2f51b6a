"""Monomial semigroup arithmetic and cycle-image realizability.

Monomials are exponent vectors over the simple-matching catalog of a
contraction target.  Because exponent vectors add under concatenation
and every increment is nonnegative, "is this monomial the image of some
cycle at vertex i" is plain reachability in the finite product graph of
(vertex, partial exponent) states, so membership answers here are exact;
the search-bound parameters only guard against oversized state spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return len(set(g)) == 1 and (not g or g[0] >= 0) and degree(g) > 0 and g[0] > 0


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


@dataclass(frozen=True)
class MonomialIdealSpec:
    """An ideal of monomials inside an ambient monomial algebra.

    kind "m0" takes every nonconstant monomial of the ambient algebra as
    a generator, "m0_tilde" only those that are not powers of the
    all-ones vector, and "custom" uses the explicit list.
    """

    kind: str  # m0 | m0_tilde | custom
    ambient: MonomialAlgebra
    custom_generators: tuple[Monomial, ...] = ()

    def generators(self, degree_bound: int) -> list[Monomial]:
        if self.kind == "custom":
            return sorted(set(self.custom_generators))
        mons = semigroup_monomials(self.ambient.generators, degree_bound)
        if self.kind == "m0":
            return sorted(mons)
        if self.kind == "m0_tilde":
            return sorted(m for m in mons if not is_sigma_power(m))
        raise DomainError(f"unknown ideal kind {self.kind!r}")

    def monomials(self, multiplier_gens, degree_bound: int) -> frozenset[Monomial]:
        """All products of an ideal generator with the semigroup spanned
        by ``multiplier_gens``, up to the degree bound."""
        mult = semigroup_monomials(multiplier_gens, degree_bound) | {None}
        out = set()
        for g in self.generators(degree_bound):
            for s in mult:
                prod = g if s is None else mon_add(g, s)
                if degree(prod) <= degree_bound:
                    out.add(prod)
        return frozenset(out)


def algebra_contains(a: MonomialAlgebra, g: Monomial, degree_bound: int | None = None) -> str:
    """YES iff g is a nonnegative integer combination of the generators.

    The lattice program below g is complete, so the verdict is exact; the
    degree bound is only validated against deg(g) to honour the call
    contract."""
    if degree_bound is not None and degree_bound < degree(g):
        raise DomainError(f"degree bound {degree_bound} below deg(g) = {degree(g)}")
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


def minimal_generators(monomials) -> list[Monomial]:
    """Reduce a set of monomials to the subset that still generates it."""
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


def realizable_at_vertex(
    c: Contraction, i: int, g: Monomial, max_states: int = 2_000_000
) -> Realizability:
    """Is there a cycle at i whose monomial image is exactly g?

    States are (vertex, exponents spent so far); every arrow step adds its
    own image, so any witness walk stays inside the lattice box under g
    and reachability is exact.  A witness walk is reconstructed on success.
    """
    q = c.source
    if not 0 <= i < q.num_vertices:
        raise DomainError(f"vertex {i} out of range")
    if len(g) != len(c.catalog):
        raise DomainError("monomial indexed by a different catalog")
    images = c.source_images
    box = 1
    for e in g:
        box *= e + 1
    if box * q.num_vertices > max_states:
        raise ResourceExhausted(
            f"state space {box * q.num_vertices} exceeds budget {max_states}"
        )

    zero = tuple(0 for _ in g)
    start = (i, zero)
    goal = (i, g)
    parent: dict[tuple, tuple] = {start: None}
    frontier = [start]
    states = 1
    found = degree(g) == 0  # the trivial path realizes 1
    while frontier and not found:
        nxt_frontier = []
        for (v, spent) in frontier:
            for a in q.out_arrows(v):
                ns = mon_add(spent, images[a.id])
                if not mon_leq(ns, g):
                    continue
                node = (a.head, ns)
                if node in parent:
                    continue
                parent[node] = ((v, spent), a.id)
                states += 1
                nxt_frontier.append(node)
                if node == goal:
                    found = True
        frontier = nxt_frontier
    if degree(g) == 0:
        return Realizability(YES, PathWord(i, ()), states, i)
    if goal not in parent:
        return Realizability(NO, None, states, i)
    word: list[int] = []
    node = goal
    while parent[node] is not None:
        prev, aid = parent[node]
        word.append(aid)
        node = prev
    word.reverse()
    return Realizability(YES, PathWord(i, tuple(word)), states, i)


def cycles_with_image(
    c: Contraction, i: int, g: Monomial, max_walk_len: int | None = None,
    max_cycles: int = 20000,
) -> list[PathWord]:
    """All cycles at i with image exactly g, up to a walk-length cap.

    The default cap covers every walk that never revisits a (vertex,
    exponent) state more than the zero-image arrows allow: image-carrying
    steps are bounded by deg(g), and between them a zero-image step chain
    never needs to revisit a vertex."""
    q = c.source
    images = c.source_images
    if max_walk_len is None:
        max_walk_len = (degree(g) + 1) * q.num_vertices
    out: list[PathWord] = []
    stack = [(i, tuple(0 for _ in g), (), frozenset({(i, tuple(0 for _ in g))}))]
    while stack:
        v, spent, word, zero_seen = stack.pop()
        if word and v == i and spent == g:
            out.append(PathWord(i, word))
            if len(out) > max_cycles:
                raise ResourceExhausted("too many witness cycles")
        if len(word) >= max_walk_len:
            continue
        for a in sorted(q.out_arrows(v), key=lambda a: -a.id):
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


def homotopy_center_contains(c: Contraction, g: Monomial, max_states: int = 2_000_000):
    """YES iff g is a cycle image at every vertex; otherwise the report
    names the first failing vertex."""
    for i in range(c.source.num_vertices):
        res = realizable_at_vertex(c, i, g, max_states)
        if res.verdict != YES:
            return Realizability(NO, None, res.states, i)
    return Realizability(YES, None, 0, None)


@dataclass
class CenterGenerators:
    algebra: MonomialAlgebra
    monomials: frozenset[Monomial]
    degree_bound: int


def _vectors_up_to_degree(dim: int, degree_bound: int):
    def rec(prefix, remaining, k):
        if k == dim - 1:
            for e in range(remaining + 1):
                yield prefix + (e,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, k + 1)

    if dim == 0:
        return
    yield from rec((), degree_bound, 0)


def homotopy_center_monomials(c: Contraction, degree_bound: int) -> frozenset[Monomial]:
    out = set()
    for g in _vectors_up_to_degree(len(c.catalog), degree_bound):
        if degree(g) == 0:
            continue
        if homotopy_center_contains(c, g).verdict == YES:
            out.add(g)
    return frozenset(out)


def homotopy_center_generators(c: Contraction, degree_bound: int) -> CenterGenerators:
    """Monomials of the homotopy center up to the bound, reduced to the
    minimal generating set of what is visible at that degree."""
    mons = homotopy_center_monomials(c, degree_bound)
    gens = minimal_generators(sorted(mons))
    return CenterGenerators(
        MonomialAlgebra(tuple(gens), label="homotopy-center"), mons, degree_bound
    )
