"""Arrow contractions between dimer quivers and the monomial map they induce.

Contracting a forest of arrows merges vertices, deletes the contracted
arrows from every face, and leaves a dimer quiver again (checked).  Each
surviving path then maps to a monomial: one variable per simple matching
of the target, with exponent the number of its arrows landing in that
matching.  The interesting contractions are the ones preserving the
algebra generated by all such cycle monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .matchings import MatchingCatalog, matching_catalog
from .quiver import (
    DimerQuiver,
    DomainError,
    PathWord,
    check_path,
    make_quiver,
    validate_dimer,
)
from .rewriting import (
    DEFAULT_BOUNDS,
    RewriteSystem,
    SearchBounds,
    find_noncancellative_pair,
    paths_equal,
    vertex_simple_cycles,
)

Monomial = tuple[int, ...]


class ContractionError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Contraction:
    source: DimerQuiver
    contracted: frozenset[int]
    target: DimerQuiver
    vertex_map: tuple[int, ...]          # source vertex -> target vertex
    arrow_map: dict                      # surviving source arrow -> target arrow
    fiber_counts: tuple[int, ...]        # target vertex -> source fiber size
    catalog: MatchingCatalog
    # per-arrow monomial images: per simple matching of the target, 1 if
    # the (mapped) arrow lies in it; zero for a contracted source arrow
    source_images: tuple[Monomial, ...]
    target_images: tuple[Monomial, ...]

    @cached_property
    def _source_generators(self) -> tuple[Monomial, ...]:
        return _cycle_algebra_generators(self.source, self.source_images)

    @cached_property
    def _target_generators(self) -> tuple[Monomial, ...]:
        return _cycle_algebra_generators(self.target, self.target_images)


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


def contract(q: DimerQuiver, arrows) -> Contraction:
    """Contract a set of arrows and certify that relations map to relations."""
    arrows = frozenset(int(a) for a in arrows)
    for aid in arrows:
        if not 0 <= aid < len(q.arrows):
            raise ContractionError("not_subset", f"unknown arrow id {aid}")
    roots = _contracted_components(q, arrows)
    classes = sorted(set(roots))
    new_id = {root: k for k, root in enumerate(classes)}
    vertex_map = tuple(new_id[r] for r in roots)

    # Gauge the homology data so contracted arrows carry zero: pick a shift
    # per vertex, constant on each merge class, absorbing the old vectors.
    shift: list[tuple[int, int] | None] = [None] * q.num_vertices
    for root in classes:
        members = [v for v in range(q.num_vertices) if roots[v] == root]
        shift[members[0]] = (0, 0)
        pending = True
        while pending:
            pending = False
            for aid in sorted(arrows):
                a = q.arrow(aid)
                if roots[a.tail] != root:
                    continue
                st, sh = shift[a.tail], shift[a.head]
                if st is not None and sh is None:
                    shift[a.head] = (st[0] + a.homology[0], st[1] + a.homology[1])
                    pending = True
                elif sh is not None and st is None:
                    shift[a.tail] = (sh[0] - a.homology[0], sh[1] - a.homology[1])
                    pending = True

    surviving = [a for a in q.arrows if a.id not in arrows]
    arrow_map = {a.id: k for k, a in enumerate(surviving)}

    # faces first: a collapsing face also forces a null loop, and the
    # face is the better diagnostic
    new_faces = []
    for f in q.faces:
        kept = tuple(arrow_map[aid] for aid in f.boundary if aid not in arrows)
        if len(kept) < 2:
            raise ContractionError(
                "face_collapse", f"face {f.id} drops below length 2"
            )
        new_faces.append(kept)

    new_arrows = []
    for a in surviving:
        hom = (
            a.homology[0] + shift[a.tail][0] - shift[a.head][0],
            a.homology[1] + shift[a.tail][1] - shift[a.head][1],
        )
        t, h = vertex_map[a.tail], vertex_map[a.head]
        if t == h and hom == (0, 0):
            raise ContractionError(
                "null_loop", f"arrow {a.id} would become a null-homologous loop"
            )
        new_arrows.append((t, h, hom))

    target = make_quiver(len(classes), new_arrows, new_faces)
    report = validate_dimer(target)
    if not report.ok:
        codes = ", ".join(sorted(report.codes()))
        raise ContractionError("invalid_target", f"contracted quiver invalid: {codes}")

    fibers = [0] * len(classes)
    for v in range(q.num_vertices):
        fibers[vertex_map[v]] += 1

    catalog = matching_catalog(target)
    target_images = tuple(
        tuple(int(b.id in d) for d in catalog.simple) for b in target.arrows
    )
    zero = (0,) * len(catalog)
    c = Contraction(
        source=q,
        contracted=arrows,
        target=target,
        vertex_map=vertex_map,
        arrow_map=arrow_map,
        fiber_counts=tuple(fibers),
        catalog=catalog,
        source_images=tuple(
            zero if a.id in arrows else target_images[arrow_map[a.id]] for a in q.arrows
        ),
        target_images=target_images,
    )
    _assert_relations_descend(c)
    return c


def psi_word(c: Contraction, p: PathWord) -> PathWord:
    """Image of a source path in the target: drop contracted arrows."""
    check_path(c.source, p)
    arrows = tuple(c.arrow_map[aid] for aid in p.arrows if aid not in c.contracted)
    return PathWord(c.vertex_map[p.base], arrows)


def _assert_relations_descend(c: Contraction, bounds: SearchBounds = DEFAULT_BOUNDS):
    """Every source relation must become an equality in the target."""
    rs_src = RewriteSystem(c.source)
    rs_tgt = RewriteSystem(c.target)
    for aid, (left, right) in sorted(rs_src.rules.items()):
        a = c.source.arrow(aid)
        lp = psi_word(c, PathWord(a.head, left))
        rp = psi_word(c, PathWord(a.head, right))
        res = paths_equal(rs_tgt, lp, rp, bounds)
        if not res.is_equal:
            raise ContractionError(
                "relations", f"relation at arrow {aid} does not descend ({res.verdict})"
            )


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


def _cycle_algebra_generators(q: DimerQuiver, images) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the algebra of cycle images in q.

    The exponent of a cycle depends only on its arrow multiset, and every
    closed walk decomposes into vertex-simple cycles, so images of
    vertex-simple cycles generate the whole algebra."""
    from .monomial_algebra import minimal_generators

    found = {_image(images, cyc.arrows) for cyc in vertex_simple_cycles(q)}
    return tuple(minimal_generators(found))


def source_cycle_algebra_generators(c: Contraction) -> list[Monomial]:
    """Monomial generators of the cycle algebra from the source side;
    cached on the contraction."""
    return list(c._source_generators)


def target_cycle_algebra_generators(c: Contraction) -> list[Monomial]:
    """The same from the target's own cycles; cached on the contraction."""
    return list(c._target_generators)


@dataclass
class CyclicReport:
    cyclic_up_to_bound: bool | None  # None: the target search was cut off
    source_generators: list[Monomial]
    target_generators: list[Monomial]
    semigroups_match: bool
    degree_bound: int
    target_pair_found: bool
    target_search_exhausted: bool

    @property
    def cancellative_target(self):
        """True / False / None = no pair found / pair found / search cut off
        before any conclusion."""
        if self.target_pair_found:
            return False
        return None if self.target_search_exhausted else True


def is_cyclic(
    c: Contraction, bounds: SearchBounds = DEFAULT_BOUNDS, degree_bound: int = 12
) -> CyclicReport:
    """Do source cycles and target cycles generate the same monomial
    algebra (up to the degree bound), with no cancellation failure found
    in the target?  Undecided (None) when the semigroups match but the
    target search was cut off before finding a pair."""
    from .monomial_algebra import semigroup_monomials

    src = source_cycle_algebra_generators(c)
    tgt = target_cycle_algebra_generators(c)
    same = semigroup_monomials(src, degree_bound) == semigroup_monomials(tgt, degree_bound)
    rep = find_noncancellative_pair(c.target, bounds=bounds)
    if not same or rep.found:
        cyclic = False
    else:
        cyclic = None if rep.exhausted else True
    return CyclicReport(
        cyclic_up_to_bound=cyclic,
        source_generators=src,
        target_generators=tgt,
        semigroups_match=same,
        degree_bound=degree_bound,
        target_pair_found=rep.found,
        target_search_exhausted=rep.exhausted,
    )


# -- removal of 2-cycles ------------------------------------------------------


@dataclass(frozen=True)
class BigonStep:
    """One 2-cycle removal: arrows a and b are deleted and each is replaced,
    in any word, by the complementary arc of the other's second face.  The
    substitutions are recorded in the arrow ids of the quiver *before* the
    step; ``relabel`` maps surviving old ids to new dense ids."""

    face: int
    a: int
    b: int
    sub_a: tuple[int, ...]
    sub_b: tuple[int, ...]
    relabel: dict


@dataclass
class BigonReduction:
    quiver: DimerQuiver
    steps: list[BigonStep] = field(default_factory=list)

    @property
    def changed(self):
        return bool(self.steps)


def _one_bigon_step(q: DimerQuiver) -> tuple[DimerQuiver, BigonStep] | None:
    bigon = next((f for f in q.faces if len(f.boundary) == 2), None)
    if bigon is None:
        return None
    a_id, b_id = bigon.boundary
    fa = next(f for f in q.faces if f.id != bigon.id and a_id in f.boundary)
    fb = next(f for f in q.faces if f.id != bigon.id and b_id in f.boundary)
    if fa.id == fb.id:
        raise DomainError(
            f"2-cycle {bigon.id}: both arrows share their second face {fa.id}; not removable"
        )

    def arc(face, aid):
        k = face.boundary.index(aid)
        rot = face.boundary[k:] + face.boundary[:k]
        return rot[1:]

    arc_a = arc(fa, a_id)  # complementary to a; replaces b
    arc_b = arc(fb, b_id)  # complementary to b; replaces a
    merged = arc_a + arc_b

    keep = [x for x in q.arrows if x.id not in (a_id, b_id)]
    relabel = {x.id: k for k, x in enumerate(keep)}
    new_arrows = [(x.tail, x.head, x.homology) for x in keep]
    new_faces = []
    for f in q.faces:
        if f.id == bigon.id or f.id in (fa.id, fb.id):
            continue
        new_faces.append(tuple(relabel[x] for x in f.boundary))
    new_faces.append(tuple(relabel[x] for x in merged))
    nq = make_quiver(q.num_vertices, new_arrows, new_faces)
    rep = validate_dimer(nq)
    if not rep.ok:
        raise DomainError(
            f"2-cycle {bigon.id}: merged face is invalid ({', '.join(sorted(rep.codes()))})"
        )
    step = BigonStep(bigon.id, a_id, b_id, arc_b, arc_a, relabel)
    return nq, step


def bigon_reduce(q: DimerQuiver, to_fixpoint: bool = False) -> BigonReduction:
    """Remove one 2-cycle (the lowest-id one), or all of them."""
    red = BigonReduction(q)
    while True:
        out = _one_bigon_step(red.quiver)
        if out is None:
            break
        red.quiver, step = out
        red.steps.append(step)
        if not to_fixpoint:
            break
    return red


def reduce_word(red: BigonReduction, word: tuple[int, ...]) -> tuple[int, ...]:
    """Push an arrow word of the original quiver through every removal."""
    for step in red.steps:
        out: list[int] = []
        for aid in word:
            if aid == step.a:
                out.extend(step.sub_a)
            elif aid == step.b:
                out.extend(step.sub_b)
            else:
                out.append(aid)
        word = tuple(step.relabel[aid] for aid in out)
    return word


def reduce_matching(red: BigonReduction, matching: frozenset[int]) -> frozenset[int]:
    """Transport a perfect matching of the original quiver: each removal
    drops whichever of its two arrows the matching contains."""
    d = set(matching)
    for step in red.steps:
        d.discard(step.a)
        d.discard(step.b)
        d = {step.relabel[x] for x in d}
    return frozenset(d)
