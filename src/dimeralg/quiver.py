"""Dimer quivers embedded in the two-torus.

A quiver here is a finite directed graph together with a face structure:
every face is an oriented closed walk of arrows, every arrow lies on
exactly two faces, the corners of the faces at each vertex close up into
one cycle around it (the vertex link, so the faces glue to a closed
surface), and the whole thing is a cell decomposition of the torus
(checked through the links, the Euler characteristic and the homology).
Each arrow carries an integer vector recording its class in the first
homology of the torus; faces must sum to zero and directed cycles must
generate all of Z^2 for the embedding to be genuine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

Hom = tuple[int, int]


class StructuralError(ValueError):
    """Malformed raw data: ids out of range, duplicate ids, bad shapes."""


class DomainError(ValueError):
    """A well-formed value used outside an operation's domain."""


@dataclass(frozen=True)
class Arrow:
    id: int
    tail: int
    head: int
    homology: Hom


@dataclass(frozen=True)
class Face:
    id: int
    boundary: tuple[int, ...]  # arrow ids in traversal order


@dataclass(frozen=True)
class DimerQuiver:
    num_vertices: int
    arrows: tuple[Arrow, ...]
    faces: tuple[Face, ...]

    def arrow(self, aid: int) -> Arrow:
        return self.arrows[aid]

    @cached_property
    def _out_arrows(self) -> tuple[tuple[Arrow, ...], ...]:
        out: list[list[Arrow]] = [[] for _ in range(self.num_vertices)]
        for a in self.arrows:
            out[a.tail].append(a)
        return tuple(map(tuple, out))

    def out_arrows(self, v: int) -> tuple[Arrow, ...]:
        """The arrows with tail v, in id order."""
        return self._out_arrows[v]

    @cached_property
    def _in_arrows(self) -> tuple[tuple[Arrow, ...], ...]:
        into: list[list[Arrow]] = [[] for _ in range(self.num_vertices)]
        for a in self.arrows:
            into[a.head].append(a)
        return tuple(map(tuple, into))

    def in_arrows(self, v: int) -> tuple[Arrow, ...]:
        """The arrows with head v, in id order."""
        return self._in_arrows[v]

    @cached_property
    def _max_face_length(self) -> int:
        return max((len(f.boundary) for f in self.faces), default=0)

    def max_face_length(self) -> int:
        return self._max_face_length


@dataclass(frozen=True)
class PathWord:
    """A composable arrow word.  Empty word = the trivial path at ``base``.

    Storage is traversal order: ``arrows[0]`` is walked first.  Note that
    written composition of path algebras is the other way around ("qp"
    walks p, then q), so a rendering of a word reverses it.
    """

    base: int
    arrows: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)


def _is_int(x) -> bool:
    """An int proper: JSON booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def make_quiver(num_vertices, arrows, faces) -> DimerQuiver:
    """Build a DimerQuiver from raw tuples, checking structure only.

    ``arrows`` is a sequence of (tail, head, (h1, h2)) triples indexed by
    position; ``faces`` a sequence of arrow-id sequences.  Invariant
    checking is validate_dimer's job; this only rejects data that cannot
    be represented at all.
    """
    if not _is_int(num_vertices) or num_vertices < 0:
        raise StructuralError("vertex count must be a nonnegative integer")
    arr = []
    for i, (tail, head, hom) in enumerate(arrows):
        if len(hom) != 2 or not all(map(_is_int, (tail, head, *hom))):
            raise StructuralError(f"arrow {i}: endpoints and homology must be integers")
        if not (0 <= tail < num_vertices and 0 <= head < num_vertices):
            raise StructuralError(f"arrow {i}: endpoint out of range")
        arr.append(Arrow(i, tail, head, (hom[0], hom[1])))
    fcs = []
    for j, boundary in enumerate(faces):
        b = tuple(boundary)
        for aid in b:
            if not _is_int(aid) or not 0 <= aid < len(arr):
                raise StructuralError(f"face {j}: unknown arrow id {aid!r}")
        fcs.append(Face(j, b))
    return DimerQuiver(num_vertices, tuple(arr), tuple(fcs))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def _hom_add(a: Hom, b: Hom) -> Hom:
    return (a[0] + b[0], a[1] + b[1])


def _hom_sub(a: Hom, b: Hom) -> Hom:
    return (a[0] - b[0], a[1] - b[1])


def _cross(u: Hom, v: Hom) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _spans_z2(vectors) -> bool:
    # Full span of Z^2 iff the gcd of all 2x2 minors is 1.
    vs = [v for v in vectors if v != (0, 0)]
    g = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            g = gcd(g, abs(_cross(vs[i], vs[j])))
            if g == 1:
                return True
    return False


def tree_potentials(q: DimerQuiver, arrows, roots) -> list[Hom | None]:
    """Walk the given arrow ids in both directions from the roots, each at
    potential (0, 0): a vertex reached along an arrow gets the potential of
    the other end plus the arrow's homology (minus it against the arrow).
    A vertex the walk does not reach stays None.  Over a forest of arrows
    every potential is the homology along the one path from its root."""
    pot: list[Hom | None] = [None] * q.num_vertices
    arrows_at: list[list[Arrow]] = [[] for _ in range(q.num_vertices)]
    for aid in arrows:
        a = q.arrow(aid)
        arrows_at[a.tail].append(a)
        arrows_at[a.head].append(a)
    for root in roots:
        pot[root] = (0, 0)
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for a in arrows_at[v]:
            if a.tail == v and pot[a.head] is None:
                pot[a.head] = _hom_add(pot[v], a.homology)
                frontier.append(a.head)
            elif a.head == v and pot[a.tail] is None:
                pot[a.tail] = _hom_sub(pot[v], a.homology)
                frontier.append(a.tail)
    return pot


def validate_dimer(q: DimerQuiver) -> ValidationReport:
    """Check every dimer-quiver invariant; report all failures found."""
    bad: list[Violation] = []

    def report(code, message, where):
        bad.append(Violation(code, message, where))

    nv, na, nf = q.num_vertices, len(q.arrows), len(q.faces)
    if nv == 0:
        report("connectivity", "quiver has no vertices", "quiver")
        return ValidationReport(False, tuple(bad))

    if nv - na + nf != 0:
        report("euler", f"V - A + F = {nv - na + nf}, expected 0", "quiver")

    # Arrow/face incidence: each arrow on exactly two faces, once per face.
    count = [0] * na
    for f in q.faces:
        seen = set()
        for aid in f.boundary:
            if aid in seen:
                report("arrow_face_count", f"arrow {aid} repeats in face {f.id}", f"face {f.id}")
            seen.add(aid)
            count[aid] += 1
    for aid, c in enumerate(count):
        if c != 2:
            report("arrow_face_count", f"arrow {aid} lies on {c} faces, expected 2", f"arrow {aid}")

    # Faces: closed oriented walks of length >= 2 summing to zero homology.
    # Each corner of a face, where boundary arrow x meets the next arrow y,
    # links the head end of x (2x + 1) with the tail end of y (2y).
    linked: list[list[int]] = [[] for _ in range(2 * na)]
    for f in q.faces:
        b = f.boundary
        if len(b) < 2:
            report("face_length", f"face {f.id} has length {len(b)}", f"face {f.id}")
        ok_walk, total = True, (0, 0)
        for x, y in zip(b, b[1:] + b[:1]):
            ok_walk &= q.arrows[x].head == q.arrows[y].tail
            total = _hom_add(total, q.arrows[x].homology)
            linked[2 * x + 1].append(2 * y)
            linked[2 * y].append(2 * x + 1)
        if not ok_walk:
            report("face_walk", f"face {f.id} is not a closed oriented walk", f"face {f.id}")
        if total != (0, 0):
            report("face_homology_sum", f"face {f.id} homology sums to {total}", f"face {f.id}")

    # Vertex links: around each vertex the corners of its faces must close
    # up into one cycle, or the surface is pinched there.  With closed face
    # walks and every arrow on two faces, each arrow end lies on two
    # corners at its vertex, so the ends at a vertex fall into cycles:
    # count them, one walk per cycle.
    if all(c == 2 for c in count) and not any(v.code == "face_walk" for v in bad):
        cycles = [0] * nv
        seen = [False] * (2 * na)
        for start in range(2 * na):
            if not seen[start]:
                a = q.arrows[start // 2]
                cycles[a.head if start % 2 else a.tail] += 1
                stack = [start]
                while stack:
                    if not seen[e := stack.pop()]:
                        seen[e] = True
                        stack += linked[e]
        for v, n in enumerate(cycles):
            if n > 1:
                report("vertex_link", f"the corners at vertex {v} form {n} cycles, not one",
                       f"vertex {v}")

    # Loops are allowed only when they wind around the torus; a loop with
    # vanishing homology would bound a disc and cannot be embedded.
    for a in q.arrows:
        if a.tail == a.head and a.homology == (0, 0):
            report("loops", f"arrow {a.id} is a null-homologous loop", f"arrow {a.id}")

    # Connectivity of the underlying graph, then the directed-cycle classes,
    # which must generate Z^2.  The walk from vertex 0 gives each vertex a
    # potential along a spanning tree; every arrow then contributes
    # hom(a) + pot(tail) - pot(head), which vanishes on tree arrows and
    # equals the fundamental-cycle class on the rest.
    pot = tree_potentials(q, range(na), [0])
    missing = [v for v in range(nv) if pot[v] is None]
    if missing:
        report("connectivity", f"vertices {missing} unreachable", "quiver")
        return ValidationReport(False, tuple(bad))
    classes = [_hom_sub(_hom_add(a.homology, pot[a.tail]), pot[a.head]) for a in q.arrows]
    if not _spans_z2(classes):
        report("homology_span", "directed cycle classes do not span Z^2", "quiver")

    return ValidationReport(not bad, tuple(bad))


# -- paths ------------------------------------------------------------------


def check_path(q: DimerQuiver, p: PathWord) -> None:
    if not 0 <= p.base < q.num_vertices:
        raise DomainError(f"path base {p.base} out of range")
    at = p.base
    for aid in p.arrows:
        if not 0 <= aid < len(q.arrows):
            raise DomainError(f"unknown arrow id {aid}")
        a = q.arrow(aid)
        if a.tail != at:
            raise DomainError(f"word not composable at arrow {aid}")
        at = a.head


def path_head(q: DimerQuiver, p: PathWord) -> int:
    if not p.arrows:
        return p.base
    return q.arrow(p.arrows[-1]).head


def concat(q: DimerQuiver, p: PathWord, r: PathWord) -> PathWord:
    """Walk p, then r."""
    if path_head(q, p) != r.base:
        raise DomainError("paths not composable")
    return PathWord(p.base, p.arrows + r.arrows)


def path_homology(q: DimerQuiver, p: PathWord) -> Hom:
    check_path(q, p)
    total = (0, 0)
    for aid in p.arrows:
        total = _hom_add(total, q.arrow(aid).homology)
    return total


def unit_cycle(q: DimerQuiver, i: int, face_id: int | None = None) -> PathWord:
    """Boundary of a face rotated to start at vertex i.

    With no face given, the lowest-id face through i is used.  If i occurs
    several times on the boundary the first occurrence wins.
    """
    if face_id is None:
        face_id = next((f.id for f in q.faces for aid in f.boundary
                        if q.arrow(aid).tail == i), None)
        if face_id is None:
            raise DomainError(f"vertex {i} lies on no face")
    if not 0 <= face_id < len(q.faces):
        raise DomainError(f"unknown face id {face_id}")
    f = q.faces[face_id]
    for k, aid in enumerate(f.boundary):
        if q.arrow(aid).tail == i:
            return PathWord(i, f.boundary[k:] + f.boundary[:k])
    raise DomainError(f"vertex {i} does not lie on face {face_id}")


# -- wire format ------------------------------------------------------------

_QUIVER_KEYS = {"vertices", "arrows", "faces"}
_ARROW_KEYS = {"id", "tail", "head", "homology"}


def quiver_to_json(q: DimerQuiver) -> dict:
    return {
        "vertices": q.num_vertices,
        "arrows": [
            {"id": a.id, "tail": a.tail, "head": a.head, "homology": list(a.homology)}
            for a in q.arrows
        ],
        "faces": [list(f.boundary) for f in q.faces],
    }


def quiver_from_json(data: dict) -> DimerQuiver:
    if not isinstance(data, dict):
        raise StructuralError("quiver document must be an object")
    unknown = set(data) - _QUIVER_KEYS
    if unknown:
        raise StructuralError(f"unknown keys {sorted(unknown)}")
    for key in _QUIVER_KEYS:
        if key not in data:
            raise StructuralError(f"missing key {key!r}")
    raw_arrows = data["arrows"]
    if not isinstance(raw_arrows, list):
        raise StructuralError("arrows must be an array")
    by_id: dict[int, tuple] = {}
    for entry in raw_arrows:
        if not isinstance(entry, dict) or set(entry) != _ARROW_KEYS:
            raise StructuralError("arrow entries need exactly id/tail/head/homology")
        aid = entry["id"]
        if not _is_int(aid) or aid in by_id:
            raise StructuralError(f"bad or duplicate arrow id {aid!r}")
        hom = entry["homology"]
        if not (isinstance(hom, list) and len(hom) == 2):
            raise StructuralError(f"arrow {aid}: homology must be a pair of integers")
        by_id[aid] = (entry["tail"], entry["head"], (hom[0], hom[1]))
    if set(by_id) != set(range(len(by_id))):
        raise StructuralError("arrow ids must be dense 0..n-1")
    arrows = [by_id[i] for i in range(len(by_id))]
    faces = data["faces"]
    if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
        raise StructuralError("faces must be an array of arrays")
    return make_quiver(data["vertices"], arrows, faces)


# -- zig-zag paths ------------------------------------------------------------


def face_colours(q: DimerQuiver) -> tuple[int, ...]:
    """Colour 0 or 1 per face, the two faces on each arrow apart: a walk
    through shared arrows from face 0, which gets colour 0.  On a valid
    dimer quiver the colours are the two orientations of the faces on the
    torus; a quiver with no such colouring raises ``DomainError``."""
    faces_on: list[list[int]] = [[] for _ in q.arrows]
    for f in q.faces:
        for aid in f.boundary:
            faces_on[aid].append(f.id)
    for aid, on in enumerate(faces_on):
        if len(on) != 2:
            raise DomainError(f"arrow {aid} lies on {len(on)} faces, not two")
    colour: list[int | None] = [None] * len(q.faces)
    stack = []
    if q.faces:
        colour[0], stack = 0, [0]
    while stack:
        f = stack.pop()
        for aid in q.faces[f].boundary:
            other = faces_on[aid][faces_on[aid][0] == f]
            if colour[other] is None:
                colour[other] = 1 - colour[f]
                stack.append(other)
            elif colour[other] == colour[f]:
                raise DomainError(f"faces {f} and {other} share arrow {aid} and a colour")
    if None in colour:
        raise DomainError("the faces are not connected through shared arrows")
    return tuple(colour)


def zigzag_paths(q: DimerQuiver) -> tuple[tuple[int, ...], ...]:
    """The zig-zag paths of q as closed arrow words: each is
    a, s0(a), s1(s0(a)), ... where s_c(x) is the arrow after x in x's face
    of colour c (``face_colours``), once around an orbit of s1∘s0.  Each
    starts at the lowest arrow of its orbit, lowest start first.  Every
    arrow fills two slots: one even (its orbit's path) and one odd."""
    colour = face_colours(q)
    after: tuple[list[int], list[int]] = ([0] * len(q.arrows), [0] * len(q.arrows))
    for f in q.faces:
        b = f.boundary
        for x, y in zip(b, b[1:] + b[:1]):
            after[colour[f.id]][x] = y
    paths, seen = [], [False] * len(q.arrows)
    for start in range(len(q.arrows)):
        word, a = [], start
        while not seen[a]:
            seen[a] = True
            word += [a, after[0][a]]
            a = after[1][after[0][a]]
        if word:
            paths.append(tuple(word))
    return tuple(paths)


def zigzag_consistent(q: DimerQuiver) -> bool:
    """Are the zig-zag paths of q consistent (Ishii–Ueda, *A note on
    consistency conditions on dimer models*)?  On the universal cover:
    no zig-zag path is closed (zero homology), none meets itself, and no
    two meet twice in the same direction, two lifts of one path counting
    as two.  Paths meet at a shared arrow, one in an even slot and one in
    an odd (``zigzag_paths``); the slots give the direction.

    Exact, with no enumeration bound.  Lift each path Z from its first
    arrow's tail at cell 0: the arrow in slot i sits at P_i, the homology
    of the slots before it, and again at P_i + k·h_Z for every integer k.
    Take an arrow a in an even slot of Z at P and an odd slot of W at P',
    and d = h_Z × h_W.  Every path has an arrow in an even slot.
    - d = 0 breaks a condition.  Either h_Z = 0 and the lifts of Z are
      closed, or h_Z = α·g and h_W = β·g for one primitive g (Z = W among
      them): the lifts of Z and W through a are one lift, which meets
      itself, or two that meet again at a + β·h_Z = a + α·h_W, in the
      same direction.
    - Otherwise a second arrow b meets the same pair of lifts in the same
      direction iff (P_a - P'_a) - (P_b - P'_b) = k·h_Z - m·h_W for
      integers k, m.  By Cramer's rule that is iff d divides D × h_W and
      h_Z × D, so the two residues mod |d| of D = P - P' key the lifts a
      pair meets at; two arrows with one key meet one pair of lifts twice.
    The homology data must be that of an embedding (``validate_dimer``),
    so the lifts are the universal cover.  A quiver without a face
    2-colouring raises ``DomainError``."""
    zs = zigzag_paths(q)
    homs, even, odd = [], {}, {}
    for z, word in enumerate(zs):
        at = (0, 0)
        for k, aid in enumerate(word):
            (odd if k % 2 else even)[aid] = (z, at)
            at = _hom_add(at, q.arrow(aid).homology)
        homs.append(at)
    keys = set()
    for aid, (z, p) in even.items():
        w, p2 = odd[aid]
        hz, hw = homs[z], homs[w]
        d = abs(_cross(hz, hw))
        if d == 0:
            return False
        diff = _hom_sub(p, p2)
        key = (z, w, _cross(diff, hw) % d, _cross(hz, diff) % d)
        if key in keys:
            return False
        keys.add(key)
    return True


# -- removal of 2-cycles ------------------------------------------------------


@dataclass(frozen=True)
class BigonReduction:
    """A quiver q without its 2-cycles: arrow a of ``quiver`` is arrow
    ``original_ids[a]`` of q (same ends and homology), and ``removed``
    2-cycles were removed; with none removed, ``quiver`` is q itself."""

    quiver: DimerQuiver
    original_ids: tuple[int, ...]
    removed: int


def bigon_reduce(q: DimerQuiver) -> BigonReduction:
    """Remove every 2-cycle, the lowest-index one first: drop it and its
    two neighbouring faces, and append their merged face (the arc of each
    beside the 2-cycle).  Each arrow of a 2-cycle equals a path, so the
    algebra does not change.  The merges run on boundary lists in q's arrow
    ids, and the quiver left is built and validated once.  On a valid q one
    check is enough, since a merge keeps V - E + F, closed face walks and
    zero face sums, connectivity (the merged face's arc joins the 2-cycle's
    ends), the homology span (a dropped arrow is minus its face arc) and one
    link cycle per vertex (the corners x→a, b→a, b→y collapse to x→y).  Only
    a merged face that repeats an arrow breaks validity, and no later merge
    removes the repeat; it is refused at once.  A 2-cycle that cannot be
    removed raises ``DomainError``, naming its arrows in q (and its face,
    if it is one of q's)."""
    faces = [(f.id, f.boundary) for f in q.faces]  # (q's face id or None, boundary)
    names, gone = [], set()
    while (k := next((k for k, (_, f) in enumerate(faces) if len(f) == 2), None)) is not None:
        fid, pair = faces.pop(k)
        names.append(f"2-cycle of arrows {pair[0]}, {pair[1]}"
                     + ("" if fid is None else f" (face {fid})"))
        sides, merged = [], ()
        for aid in pair:
            on = [j for j, (_, f) in enumerate(faces) if aid in f]
            if len(on) != 1 or faces[on[0]][1].count(aid) != 1:
                raise DomainError(f"{names[-1]}: arrow {aid} does not lie once on one other"
                                  " face; not removable")
            f = faces[on[0]][1]
            i = f.index(aid)
            sides += on
            merged += f[i + 1:] + f[:i]
        if sides[0] == sides[1] or len(set(merged)) < len(merged):
            raise DomainError(f"{names[-1]}: its two neighbouring faces are one face or share"
                              " an arrow; not removable")
        faces = [x for j, x in enumerate(faces) if j not in sides] + [(None, merged)]
        gone.update(pair)
    if not names:
        return BigonReduction(q, tuple(range(len(q.arrows))), 0)
    ids = tuple(x for x in range(len(q.arrows)) if x not in gone)
    new_id = {x: k for k, x in enumerate(ids)}
    nq = make_quiver(q.num_vertices, [(q.arrows[x].tail, q.arrows[x].head, q.arrows[x].homology)
                                      for x in ids], [[new_id[x] for x in f] for _, f in faces])
    rep = validate_dimer(nq)
    if not rep.ok:
        raise DomainError(f"{'; '.join(names)}: the quiver left is invalid"
                          f" ({', '.join(sorted(rep.codes()))})")
    return BigonReduction(nq, ids, len(names))
