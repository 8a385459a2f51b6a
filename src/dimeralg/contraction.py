"""Arrow contractions between dimer quivers and the monomial map they induce.

Contracting a forest of arrows of a dimer quiver merges vertices,
deletes the contracted arrows from every face, and leaves a dimer quiver
again (both checked).  The path map is then an algebra map with no search:
each relation becomes a target relation or equates two unit cycles at one
vertex, which are equal once its faces close up around it (``contract``).
Each surviving path maps to a monomial: one variable per simple matching
of the target, with exponent the number of its arrows landing in that
matching.  The interesting contractions are the ones preserving the
algebra generated by all such cycle monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .matchings import matching_catalog
from .monomial_algebra import Monomial, cycle_algebra_generators
from .quiver import DimerQuiver, PathWord, check_path, make_quiver, tree_potentials, validate_dimer
from .rewriting import DEFAULT_BOUNDS, SearchBounds, find_noncancellative_pair


class ContractionError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True, eq=False)
class Contraction:
    """Compared and hashed by identity, so it keys the search layouts
    that ``monomial_algebra`` keeps for it."""

    source: DimerQuiver
    contracted: frozenset[int]
    target: DimerQuiver
    vertex_map: tuple[int, ...]          # source vertex -> target vertex
    arrow_map: dict                      # surviving source arrow -> target arrow
    fiber_counts: tuple[int, ...]        # target vertex -> source fiber size
    catalog: tuple[frozenset[int], ...]  # simple matchings of the target
    # per-arrow monomial images: per simple matching of the target, 1 if
    # the (mapped) arrow lies in it; zero for a contracted source arrow
    source_images: tuple[Monomial, ...]
    target_images: tuple[Monomial, ...]

    @cached_property
    def _source_generators(self) -> tuple[Monomial, ...]:
        return cycle_algebra_generators(self.source, self.source_images)

    @cached_property
    def _target_generators(self) -> tuple[Monomial, ...]:
        return cycle_algebra_generators(self.target, self.target_images)


def _contracted_components(q: DimerQuiver, arrows: frozenset[int]):
    """Union-find the contracted forest; reject undirected cycles."""
    parent = list(range(q.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for aid in sorted(arrows):
        a = q.arrow(aid)
        ru, rv = find(a.tail), find(a.head)
        if ru == rv:
            raise ContractionError(
                "cyclic", f"contracted set closes an undirected cycle at arrow {aid}"
            )
        parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(q.num_vertices)]


def _require_valid(q: DimerQuiver, kind: str, role: str) -> None:
    report = validate_dimer(q)
    if not report.ok:
        codes = ", ".join(sorted(report.codes()))
        raise ContractionError(kind, f"{role} quiver invalid: {codes}")


def contract(q: DimerQuiver, arrows) -> Contraction:
    """Contract a forest of arrows of a valid dimer quiver.

    The path map psi, which drops contracted arrows, is an algebra map by
    construction.  The relation of an arrow a equates the arcs its two
    faces leave when each is rotated to start at a and a is dropped.
    - a survives: psi keeps face order and drops only contracted arrows,
      so psi of a's arcs are literally the two rule arcs of psi(a).
    - a is contracted: psi of a's arcs are the full boundaries of the
      images of a's faces, rotated to corners at the merged vertex w: two
      unit cycles at w.  Corners sharing an arrow b at w give b.X and b.Y
      if b leaves w, X.b and Y.b if b enters it, with X, Y the arcs of b,
      and one rewrite X -> Y joins them.  The corners at w form one cycle
      (a checked vertex link), so all unit cycles at w are equal.
    The source is validated: its relations are those of a dimer quiver,
    and contracting a forest keeps every vertex link one cycle (a pinched
    source stays pinched); the target is checked too.  A failure raises
    ContractionError, whose ``kind`` names the check."""
    _require_valid(q, "invalid_source", "source")
    arrows = frozenset(int(a) for a in arrows)
    for aid in arrows:
        if not 0 <= aid < len(q.arrows):
            raise ContractionError("not_subset", f"unknown arrow id {aid}")
    roots = _contracted_components(q, arrows)
    classes = sorted(set(roots))
    new_id = {root: k for k, root in enumerate(classes)}
    vertex_map = tuple(new_id[r] for r in roots)

    # Gauge the homology data so contracted arrows carry zero: each vertex
    # is shifted by its potential along the contracted forest, zero at the
    # root of its merge class, which absorbs the old vectors.
    shift = tree_potentials(q, sorted(arrows), classes)

    surviving = [a for a in q.arrows if a.id not in arrows]
    arrow_map = {a.id: k for k, a in enumerate(surviving)}

    # faces first: a collapsing face also forces a null loop, and the
    # face is the better diagnostic
    new_faces = []
    for f in q.faces:
        kept = tuple(arrow_map[aid] for aid in f.boundary if aid not in arrows)
        if len(kept) < 2:
            raise ContractionError("face_collapse", f"face {f.id} drops below length 2")
        new_faces.append(kept)

    new_arrows = []
    for a in surviving:
        hom = (
            a.homology[0] + shift[a.tail][0] - shift[a.head][0],
            a.homology[1] + shift[a.tail][1] - shift[a.head][1],
        )
        t, h = vertex_map[a.tail], vertex_map[a.head]
        if t == h and hom == (0, 0):
            raise ContractionError("null_loop",
                                   f"arrow {a.id} would become a null-homologous loop")
        new_arrows.append((t, h, hom))

    target = make_quiver(len(classes), new_arrows, new_faces)
    _require_valid(target, "invalid_target", "contracted")

    catalog = matching_catalog(target)
    target_images = tuple(tuple(int(b.id in d) for d in catalog) for b in target.arrows)
    zero = (0,) * len(catalog)
    return Contraction(
        source=q,
        contracted=arrows,
        target=target,
        vertex_map=vertex_map,
        arrow_map=arrow_map,
        fiber_counts=tuple(map(vertex_map.count, range(len(classes)))),
        catalog=catalog,
        source_images=tuple(
            zero if a.id in arrows else target_images[arrow_map[a.id]] for a in q.arrows
        ),
        target_images=target_images,
    )


def psi_word(c: Contraction, p: PathWord) -> PathWord:
    """Image of a source path in the target: drop contracted arrows."""
    check_path(c.source, p)
    arrows = tuple(c.arrow_map[aid] for aid in p.arrows if aid not in c.contracted)
    return PathWord(c.vertex_map[p.base], arrows)


def identity_contraction(q: DimerQuiver) -> Contraction:
    return contract(q, frozenset())


def _image(images: tuple[Monomial, ...], arrows) -> Monomial:
    """Sum of the per-arrow images of a word."""
    return tuple(map(sum, zip(*map(images.__getitem__, arrows))))


def tau_psi(c: Contraction, p: PathWord) -> Monomial:
    """Monomial image of a source path: per simple matching of the target,
    how many arrows of the path land in it.  Contracted arrows contribute
    nothing; the map is additive under concatenation."""
    check_path(c.source, p)
    return _image(c.source_images, p.arrows) if p.arrows else (0,) * len(c.catalog)


def sigma(c: Contraction) -> Monomial:
    return (1,) * len(c.catalog)


def source_cycle_algebra_generators(c: Contraction) -> list[Monomial]:
    """Monomial generators of the cycle algebra from the source side;
    cached on the contraction."""
    return list(c._source_generators)


def target_cycle_algebra_generators(c: Contraction) -> list[Monomial]:
    """The same from the target's own cycles; cached on the contraction."""
    return list(c._target_generators)


@dataclass
class CyclicReport:
    source_generators: list[Monomial]
    target_generators: list[Monomial]
    # True / False / None = cancellative / pair found / search cut off
    # before any conclusion
    cancellative_target: bool | None
    # what gave cancellative_target: "zigzag" (certified consistent) or
    # "pair_search"
    decided_by: str

    @property
    def semigroups_match(self) -> bool:
        return self.source_generators == self.target_generators

    @property
    def cyclic_up_to_bound(self) -> bool | None:
        """None: the algebras match but the target search was cut off."""
        return self.semigroups_match and self.cancellative_target


def is_cyclic(c: Contraction, bounds: SearchBounds = DEFAULT_BOUNDS) -> CyclicReport:
    """Do source cycles and target cycles generate the same monomial
    algebra, and is the target cancellative?  The algebras are compared
    exactly: a submonoid of N^k has one minimal generating set, its
    irreducible elements, and both generator lists are that set in
    canonical order.

    The target goes to ``find_noncancellative_pair``, once, and its
    ``decided_by`` is copied.  The certificate comes first there: a
    target that ``certified_cancellative`` accepts is cancellative by
    theorem, with no search ("zigzag").  Every other target, outside the
    theorem's hypotheses or inconsistent, is searched ("pair_search"):
    False when a pair is found, True when the search completes without
    one, and undecided (None) when it is cut off first."""
    src = source_cycle_algebra_generators(c)
    tgt = target_cycle_algebra_generators(c)
    rep = find_noncancellative_pair(c.target, bounds=bounds)
    verdict = False if rep.found else (None if rep.exhausted else True)
    return CyclicReport(src, tgt, verdict, rep.decided_by)
