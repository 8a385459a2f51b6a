"""Perfect and simple matchings of a dimer quiver.

A perfect matching picks exactly one arrow out of every face; it is
simple when deleting it leaves a strongly connected quiver.  Enumeration
is exact cover over the faces, most constrained face first (lowest index
among ties), arrows in ascending id.  Sets are int bit masks: each face's
arrows and each arrow's faces are precomputed, the search state is three
ints (covered faces, blocked arrows, chosen arrows), popcount ranks the
faces, and frozensets are built only for the returned list.
"""

from __future__ import annotations

from .quiver import DimerQuiver, DomainError

DEFAULT_MATCHING_CAP = 100000


class MatchingCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"perfect matching enumeration exceeded cap {cap}")
        self.cap = cap


def enumerate_perfect_matchings(q: DimerQuiver, cap: int = DEFAULT_MATCHING_CAP):
    """All perfect matchings, as a canonically sorted list of frozensets."""
    found: list[int] = []
    for chosen in perfect_matching_masks(q):
        found.append(chosen)
        if len(found) > cap:
            raise MatchingCapExceeded(cap)
    return [frozenset(ids) for ids in sorted(map(_bit_ids, found))]


def perfect_matching_masks(q: DimerQuiver, seed: int | None = None):
    """Every perfect matching as a bit mask of arrow ids, in search order,
    one at a time; with ``seed``, only those holding that arrow."""
    face_arrows = [sum(1 << aid for aid in set(f.boundary)) for f in q.faces]
    arrow_faces = [0] * len(q.arrows)  # bit i: the arrow lies on face i
    # choosing an arrow blocks every arrow sharing a face with it, itself
    # included, so blocked always holds every arrow of every covered face
    rivals = [0] * len(q.arrows)
    for idx, f in enumerate(q.faces):
        for aid in f.boundary:
            arrow_faces[aid] |= 1 << idx
            rivals[aid] |= face_arrows[idx]
    all_faces = (1 << len(face_arrows)) - 1
    start = (0, 0, 0) if seed is None else (arrow_faces[seed], rivals[seed], 1 << seed)
    stack = [start] if face_arrows else []
    while stack:
        covered, blocked, chosen = stack.pop()
        if covered == all_faces:
            yield chosen
            continue
        # most constrained uncovered face, lowest index among ties
        best_opts, best_n = 0, len(rivals) + 1
        rest = all_faces & ~covered
        while rest:
            low = rest & -rest
            opts = face_arrows[low.bit_length() - 1] & ~blocked
            n = opts.bit_count()
            if n < best_n:
                best_opts, best_n = opts, n
                if not n:
                    break
            rest ^= low
        while best_opts:  # pushed descending, so tried in ascending arrow id
            a = best_opts.bit_length() - 1
            best_opts ^= 1 << a
            stack.append((covered | arrow_faces[a], blocked | rivals[a], chosen | 1 << a))


def _bit_ids(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending."""
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def is_perfect_matching(q: DimerQuiver, arrows) -> bool:
    d = set(arrows)
    return all(sum(1 for aid in f.boundary if aid in d) == 1 for f in q.faces)


def _strongly_connected(num_vertices: int, edges) -> bool:
    """Kosaraju on an edge list, iterative; True iff one component."""
    if num_vertices <= 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(num_vertices)]
    rev: list[list[int]] = [[] for _ in range(num_vertices)]
    for (u, v) in edges:
        fwd[u].append(v)
        rev[v].append(u)

    def reach(adj, start):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    return len(reach(fwd, 0)) == num_vertices and len(reach(rev, 0)) == num_vertices


def is_simple_matching(q: DimerQuiver, matching) -> bool:
    """True iff the quiver minus the matching is strongly connected."""
    d = frozenset(matching)
    if not is_perfect_matching(q, d):
        raise DomainError("not a perfect matching")
    edges = [(a.tail, a.head) for a in q.arrows if a.id not in d]
    return _strongly_connected(q.num_vertices, edges)


def matching_cover(q: DimerQuiver) -> tuple[list[int], list[int]]:
    """(cover, uncovered arrow ids): D0, the first perfect matching, then
    the first through each arrow still uncovered, as bit masks; and the
    arrows in none, ascending.  Nothing is enumerated."""
    d0 = next(perfect_matching_masks(q), None)
    if d0 is None:
        return [], [a.id for a in q.arrows]
    cover, uncovered = [d0], []
    for a in q.arrows:
        if not any(d >> a.id & 1 for d in cover):
            d = next(perfect_matching_masks(q, a.id), None)
            if d is None:
                uncovered.append(a.id)
            else:
                cover.append(d)
    return cover, uncovered


def is_nondegenerate(q: DimerQuiver):
    """(flag, uncovered arrow ids): flag iff every arrow is in a matching."""
    uncovered = matching_cover(q)[1]
    return (not uncovered, uncovered)


def matching_catalog(q: DimerQuiver) -> tuple[frozenset[int], ...]:
    """The simple matchings in canonical order; the order fixes variable
    names."""
    return tuple(d for d in enumerate_perfect_matchings(q) if is_simple_matching(q, d))
