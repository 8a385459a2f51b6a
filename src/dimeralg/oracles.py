"""Brute-force reference implementations used to cross-check the fast paths.

These are deliberately naive: matchings by filtering all arrow subsets,
semigroup membership by exhausting sums, realizability by enumerating
balanced integer flows, path equality by closing a set of words under
single rewrites.  Size guards keep them on desk-scale inputs.
"""

from __future__ import annotations

from itertools import combinations, product

from .contraction import Contraction
from .monomial_algebra import Monomial, degree, mon_add, mon_leq
from .quiver import DimerQuiver, DomainError
from .rewriting import face_rules


class OracleSizeExceeded(RuntimeError):
    pass


def oracle_matchings(q: DimerQuiver, max_arrows: int = 20):
    """Every arrow subset that picks exactly one arrow per face."""
    if q.num_vertices == 0:
        raise DomainError("empty quiver")
    if len(q.arrows) > max_arrows:
        raise OracleSizeExceeded(f"{len(q.arrows)} arrows > guard {max_arrows}")
    if not q.faces:
        return []
    size = len(q.faces) // 2 if len(q.faces) % 2 == 0 else None
    out = []
    ids = [a.id for a in q.arrows]
    sizes = range(len(ids) + 1) if size is None else [size]
    for k in sizes:
        for combo in combinations(ids, k):
            chosen = set(combo)
            if all(sum(1 for aid in f.boundary if aid in chosen) == 1 for f in q.faces):
                out.append(frozenset(chosen))
    return sorted(set(out), key=lambda d: tuple(sorted(d)))


def oracle_class(q: DimerQuiver, word: tuple[int, ...], cap: int, max_words: int = 20000):
    """The words reached from ``word`` (arrow ids) by single rewrites, every
    rule of ``face_rules`` both ways at every position, through words of at
    most ``cap`` arrows; and whether a rewrite passed the cap.  Without one
    the set is the word's whole class."""
    rules = [sides for pair in face_rules(q).values() for sides in (pair, pair[::-1])]
    seen, todo, truncated = {tuple(word)}, [tuple(word)], False
    while todo:
        w = todo.pop()
        for old, new in rules:
            for pos in range(len(w) - len(old) + 1):
                if w[pos:pos + len(old)] == old:
                    nxt = w[:pos] + new + w[pos + len(old):]
                    truncated = truncated or len(nxt) > cap
                    if len(nxt) <= cap and nxt not in seen:
                        if len(seen) >= max_words:
                            raise OracleSizeExceeded(f"class past the guard of {max_words} words")
                        seen.add(nxt)
                        todo.append(nxt)
    return seen, truncated


def oracle_membership(gens, g: Monomial, max_degree: int = 12) -> bool:
    """Exhaustive search for a multiset of generators summing to g."""
    if degree(g) > max_degree:
        raise OracleSizeExceeded(f"degree {degree(g)} > guard {max_degree}")
    useful = sorted(v for v in set(gens) if degree(v) > 0 and mon_leq(v, g))

    def rec(remaining, start):
        if degree(remaining) == 0:
            return True
        for k in range(start, len(useful)):
            v = useful[k]
            if mon_leq(v, remaining):
                if rec(tuple(a - b for a, b in zip(remaining, v)), k):
                    return True
        return False

    return rec(g, 0)


def oracle_realizable(c: Contraction, i: int, g: Monomial, multiplicity_cap: int | None = None) -> bool:
    """Balanced-flow test: assign every arrow a multiplicity so that each
    vertex is balanced, the per-matching counts equal g, and the support
    is connected and touches i.  Such a flow exists exactly when a closed
    walk at i with image g does.

    A minimal witness walk repeats no zero-image closed subwalk, so each
    arrow is used at most once per image-carrying segment; deg(g) + 2
    covers that with margin."""
    q = c.source
    if q.num_vertices == 0:
        raise DomainError("empty quiver")
    if multiplicity_cap is None:
        multiplicity_cap = degree(g) + 2
    if (multiplicity_cap + 1) ** len(q.arrows) > 4_000_000:
        raise OracleSizeExceeded("flow oracle size guard")

    dim = len(c.catalog)
    images = []
    for a in q.arrows:
        if a.id in c.contracted:
            images.append((0,) * dim)
        else:
            img = c.arrow_map[a.id]
            images.append(tuple(1 if img in d else 0 for d in c.catalog))

    if degree(g) == 0:
        return True  # the trivial walk

    na = len(q.arrows)
    for mult in product(range(multiplicity_cap + 1), repeat=na):
        if all(m == 0 for m in mult):
            continue
        total = (0,) * dim
        for aid, m in enumerate(mult):
            for _ in range(m):
                total = mon_add(total, images[aid])
        if total != g:
            continue
        balanced = True
        for v in range(q.num_vertices):
            inflow = sum(m for aid, m in enumerate(mult) if q.arrow(aid).head == v)
            outflow = sum(m for aid, m in enumerate(mult) if q.arrow(aid).tail == v)
            if inflow != outflow:
                balanced = False
                break
        if not balanced:
            continue
        support_vertices = set()
        for aid, m in enumerate(mult):
            if m > 0:
                support_vertices.add(q.arrow(aid).tail)
                support_vertices.add(q.arrow(aid).head)
        if i not in support_vertices:
            continue
        # connectivity of the support (as an undirected graph)
        adj = {v: set() for v in support_vertices}
        for aid, m in enumerate(mult):
            if m > 0:
                a = q.arrow(aid)
                adj[a.tail].add(a.head)
                adj[a.head].add(a.tail)
        seen = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == support_vertices:
            return True
    return False
