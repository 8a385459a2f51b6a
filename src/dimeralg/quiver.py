"""Dimer quivers embedded in the two-torus.

A quiver here is a finite directed graph together with a face structure:
every face is an oriented closed walk of arrows, every arrow lies on
exactly two faces, and the whole thing is a cell decomposition of the
torus (checked through the Euler characteristic and the homology data).
Each arrow carries an integer vector recording its class in the first
homology of the torus; faces must sum to zero and directed cycles must
generate all of Z^2 for the embedding to be genuine.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def out_arrows(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.tail == v]

    def faces_of_arrow(self, aid: int) -> list[Face]:
        return [f for f in self.faces if aid in f.boundary]

    def max_face_length(self) -> int:
        return max((len(f.boundary) for f in self.faces), default=0)


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


def _spans_z2(vectors) -> bool:
    # Full span of Z^2 iff the gcd of all 2x2 minors is 1.
    vs = [v for v in vectors if v != (0, 0)]
    g = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            det = vs[i][0] * vs[j][1] - vs[i][1] * vs[j][0]
            g = gcd(g, abs(det))
            if g == 1:
                return True
    return False


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
    for f in q.faces:
        if len(f.boundary) < 2:
            report("face_length", f"face {f.id} has length {len(f.boundary)}", f"face {f.id}")
        ok_walk = True
        for k, aid in enumerate(f.boundary):
            nxt = f.boundary[(k + 1) % len(f.boundary)]
            if q.arrow(aid).head != q.arrow(nxt).tail:
                ok_walk = False
        if not ok_walk:
            report("face_walk", f"face {f.id} is not a closed oriented walk", f"face {f.id}")
        total = (0, 0)
        for aid in f.boundary:
            total = _hom_add(total, q.arrow(aid).homology)
        if total != (0, 0):
            report("face_homology_sum", f"face {f.id} homology sums to {total}", f"face {f.id}")

    # Loops are allowed only when they wind around the torus; a loop with
    # vanishing homology would bound a disc and cannot be embedded.
    for a in q.arrows:
        if a.tail == a.head and a.homology == (0, 0):
            report("loops", f"arrow {a.id} is a null-homologous loop", f"arrow {a.id}")

    # Connectivity of the underlying graph.
    adj: list[list[int]] = [[] for _ in range(nv)]
    for a in q.arrows:
        adj[a.tail].append(a.head)
        adj[a.head].append(a.tail)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nv:
        missing = sorted(set(range(nv)) - seen)
        report("connectivity", f"vertices {missing} unreachable", "quiver")
        return ValidationReport(False, tuple(bad))

    # Directed-cycle classes must generate Z^2.  Assign each vertex a
    # potential by walking a spanning tree; every arrow then contributes
    # hom(a) + pot(tail) - pot(head), which vanishes on tree arrows and
    # equals the fundamental-cycle class on the rest.
    pot: list[Hom | None] = [None] * nv
    pot[0] = (0, 0)
    frontier = [0]
    arrows_at: list[list[Arrow]] = [[] for _ in range(nv)]
    for a in q.arrows:
        arrows_at[a.tail].append(a)
        arrows_at[a.head].append(a)
    while frontier:
        v = frontier.pop()
        for a in arrows_at[v]:
            if a.tail == v and pot[a.head] is None:
                pot[a.head] = _hom_add(pot[v], a.homology)
                frontier.append(a.head)
            elif a.head == v and pot[a.tail] is None:
                pot[a.tail] = _hom_sub(pot[v], a.homology)
                frontier.append(a.tail)
    classes = []
    for a in q.arrows:
        cls = _hom_sub(_hom_add(a.homology, pot[a.tail]), pot[a.head])
        classes.append(cls)
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
        for f in q.faces:
            for k, aid in enumerate(f.boundary):
                if q.arrow(aid).tail == i:
                    face_id = f.id
                    break
            if face_id is not None:
                break
        if face_id is None:
            raise DomainError(f"vertex {i} lies on no face")
    if not 0 <= face_id < len(q.faces):
        raise DomainError(f"unknown face id {face_id}")
    f = q.faces[face_id]
    for k, aid in enumerate(f.boundary):
        if q.arrow(aid).tail == i:
            rotated = f.boundary[k:] + f.boundary[:k]
            return PathWord(i, rotated)
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
