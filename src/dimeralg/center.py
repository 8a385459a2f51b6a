"""Central elements: verification, the reduced-center membership test for
monomials, and nilpotency against the contraction kernel.

A candidate central element is a rational combination of cycles, one
bundle per base vertex.  Since the algebra is generated by arrows and
vertex idempotents, centrality is exactly commutation with every arrow,
and each commutator is decided by grouping the product words modulo the
face relations and summing coefficients.  Everything is exact: rational
coefficients, and a span solve eliminated over the integers one row at
a time, which stops at the first infeasible row; bounded rewriting is
the only source of Unknown verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .contraction import Contraction, psi_word
from .monomial_algebra import NO, YES, Monomial, cycles_with_image, homotopy_center_contains
from .quiver import DimerQuiver, DomainError, PathWord, check_path, concat, path_head, unit_cycle
from .rewriting import (
    DEFAULT_BOUNDS,
    EQUAL,
    NOT_EQUAL,
    UNKNOWN,
    EqualityClasses,
    ResourceExhausted,
    RewriteSystem,
    SearchBounds,
)

Term = tuple[Fraction, PathWord]


@dataclass
class CentralCandidate:
    """Map vertex -> list of (coefficient, cycle at that vertex)."""

    components: dict

    def __post_init__(self):
        comps = {}
        for v, terms in self.components.items():
            cleaned = [(Fraction(c), w) for c, w in terms if Fraction(c) != 0]
            if cleaned:
                comps[int(v)] = cleaned
        self.components = comps

    def check(self, q: DimerQuiver) -> None:
        for v, terms in self.components.items():
            for _, w in terms:
                check_path(q, w)
                if w.base != v or path_head(q, w) != v:
                    raise DomainError(f"component at {v} contains a non-cycle")


def sigma_sum_candidate(q: DimerQuiver, power: int = 1) -> CentralCandidate:
    """The sum over vertices of the power-th unit cycle, a standard central
    element; power 0 gives the unit, the sum of the trivial paths."""
    if power < 0:
        raise DomainError(f"negative power {power}")
    return CentralCandidate({
        v: [(Fraction(1), PathWord(v, unit_cycle(q, v).arrows * power))]
        for v in range(q.num_vertices)
    })


def _commutator_terms(a, z: dict) -> list[tuple[int, object, PathWord]]:
    """The terms of z·a - a·z for z given as vertex -> [(coefficient,
    cycle)], whether the coefficients are numbers or names of unknowns:
    (sign, coefficient, word) for w·a over the cycles w at a's tail, then
    for a·w over the cycles at its head."""
    return ([(1, coef, PathWord(w.base, w.arrows + (a.id,))) for coef, w in z.get(a.tail, ())]
            + [(-1, coef, PathWord(a.tail, (a.id,) + w.arrows)) for coef, w in z.get(a.head, ())])


def _sum_verdict(eq: EqualityClasses, terms) -> str:
    """Do the terms sum to zero modulo the relations?  Buckets them by
    equality of their words and sums each class; any undecided comparison
    makes the verdict unknown."""
    terms = sorted(terms, key=lambda t: (t[1].base, t[1].arrows))
    split, unknown = eq.split([word for _, word in terms])
    if unknown:
        return UNKNOWN
    nonzero = any(sum(terms[k][0] for k in cls) != 0 for cls in split)
    return NOT_EQUAL if nonzero else EQUAL


@dataclass
class CentralityCertificate:
    verdicts: dict[int, str]  # arrow id -> equal / not_equal / unknown

    @property
    def central(self) -> bool:
        return all(v == EQUAL for v in self.verdicts.values())

    @property
    def verdict(self) -> str:
        if self.central:
            return EQUAL
        if NOT_EQUAL in self.verdicts.values():
            return NOT_EQUAL
        return UNKNOWN

    def failing_arrows(self) -> list[int]:
        return [a for a, v in self.verdicts.items() if v != EQUAL]


def verify_central(
    q: DimerQuiver,
    z: CentralCandidate,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    rs: RewriteSystem | None = None,
) -> CentralityCertificate:
    """Commute z with every arrow; a certificate is valid only if every
    arrow verdict is an exact cancellation."""
    z.check(q)
    eq = EqualityClasses(rs or RewriteSystem(q), bounds)
    verdicts = {}
    for a in q.arrows:
        terms = [(sign * coef, w) for sign, coef, w in _commutator_terms(a, z.components)]
        verdicts[a.id] = _sum_verdict(eq, terms)
    return CentralityCertificate(verdicts)


@dataclass
class NilpotencyReport:
    central: str
    z_squared_zero: str
    psi_z_zero: str
    consistent: str


def nilpotency_and_kernel_check(
    c: Contraction, z: CentralCandidate, bounds: SearchBounds = DEFAULT_BOUNDS
) -> NilpotencyReport:
    """Check z central, z^2 = 0, and the contraction image of z = 0; for a
    central element the latter two must agree (nilpotent central elements
    square to zero and are exactly the central kernel elements)."""
    q = c.source
    rs = RewriteSystem(q)
    central = verify_central(q, z, bounds, rs).verdict

    eq = EqualityClasses(rs, bounds)
    square_terms: list[Term] = []
    for v, terms in z.components.items():
        for c1, w1 in terms:
            for c2, w2 in terms:
                square_terms.append((c1 * c2, concat(q, w1, w2)))
    z2 = _sum_verdict(eq, square_terms)

    eq_t = EqualityClasses(RewriteSystem(c.target), bounds)
    image_terms: list[Term] = []
    for v, terms in z.components.items():
        for coef, w in terms:
            image_terms.append((coef, psi_word(c, w)))
    psi_zero = _sum_verdict(eq_t, image_terms)

    if central == EQUAL and z2 in (EQUAL, NOT_EQUAL) and psi_zero in (EQUAL, NOT_EQUAL):
        consistent = EQUAL if (z2 == psi_zero) else NOT_EQUAL
    else:
        consistent = UNKNOWN if central != NOT_EQUAL else EQUAL
    return NilpotencyReport(central, z2, psi_zero, consistent)


# -- monomial membership in the image of the center ---------------------------


class _Elimination:
    """An integer system eliminated one row at a time, Gauss-Jordan style
    and fraction-free (cross-multiply, then divide by the gcd): a new row
    reduced against the pivot rows is refused if it is 0 = nonzero, else
    it becomes the pivot row of its leading column and is cleared from
    the others.  Only the solution's quotients are Fractions."""

    def __init__(self, n: int):
        self.n = n
        self.pivots: dict[int, list[int]] = {}  # column -> row, right-hand side last
        self.seen: set[tuple[int, ...]] = set()

    def add(self, entries, b: int) -> bool:
        """Take the row sum(coef * x[col] for coef, col in entries) = b;
        False when it is refused.  A repeated row is skipped."""
        r = [0] * self.n + [b]
        for coef, col in entries:
            r[col] += coef
        if tuple(r) in self.seen:
            return True
        self.seen.add(tuple(r))
        for col, prow in self.pivots.items():
            if r[col]:
                r = _cleared(r, prow, col)
        for lead in range(self.n):
            if r[lead]:
                break
        else:
            return r[-1] == 0
        for col, prow in self.pivots.items():
            if prow[lead]:
                self.pivots[col] = _cleared(prow, r, lead)
        self.pivots[lead] = r
        return True

    def solution(self) -> list[Fraction]:
        """The solution with every free unknown at zero."""
        sol = [Fraction(0)] * self.n
        for col, prow in self.pivots.items():
            sol[col] = Fraction(prow[-1], prow[col])
        return sol


def _cleared(row: list[int], prow: list[int], col: int) -> list[int]:
    """row with its entry at col cleared by the pivot row prow."""
    p, f = prow[col], row[col]
    out = [p * a - f * b for a, b in zip(row, prow)]
    d = gcd(*out)
    return [x // d for x in out] if d > 1 else out


@dataclass
class ReducedCenterResult:
    verdict: str  # yes / no / unknown
    witness: CentralCandidate | None = None
    failing_vertex: int | None = None
    candidate_counts: dict = field(default_factory=dict)
    class_counts: dict = field(default_factory=dict)
    reason: str = ""


def reduced_center_contains(
    c: Contraction, g: Monomial, bounds: SearchBounds = DEFAULT_BOUNDS
) -> ReducedCenterResult:
    """Is the monomial g the image of a central element?

    Degree 0 is the image of the unit, the sum of the trivial paths: it
    commutes with every arrow and the contraction maps it to 1.

    Otherwise builds, per vertex, the classes of cycles whose image is
    exactly g, then solves the arrow-commutation constraints for rational
    coefficients normalised to image g at every vertex.

    Restricting to cycles of image g is exact.  The preimage of a perfect
    matching of the target is a perfect matching of the source, so each
    relation equates two paths of one image: the relations are
    homogeneous for the grading of paths by their image.  Commuting with
    an arrow adds the arrow's image to every term, so each homogeneous
    component of a central element is central, and a central element
    with image g has a central component made of cycles of image g.

    Once g is in the homotopy center, every vertex has such a cycle: a
    shortest closed walk at the vertex with image g is nonempty (g is
    not 0) and visits no (vertex, image spent) state twice, so its
    zero-image steps never revisit a state, and ``cycles_with_image``
    lists it.

    The rows are eliminated as they are made, the vertex rows first and
    then each arrow's in turn, and the first row refused ends the call:
    no later arrow is split.  Stopping is exact, since rows added to an
    infeasible system leave it infeasible, and the verdict is unknown
    when a split made so far was undecided.  A feasible call sees every
    row, and its pivots are the leading columns of the row space, which
    no row order changes; with the free unknowns at zero the witness is
    the one a batch elimination of the same rows gives.
    """
    q = c.source
    hc = homotopy_center_contains(c, g)
    if hc.verdict != YES:
        return ReducedCenterResult(NO, failing_vertex=hc.vertex, reason="not_in_homotopy_center")
    if not any(g):
        return ReducedCenterResult(YES, witness=sigma_sum_candidate(q, 0))
    eq = EqualityClasses(RewriteSystem(q), bounds)

    # the candidate: one unknown coefficient per class of cycles with
    # image g, numbered across the vertices in order
    unknowns: dict[int, list[tuple[int, PathWord]]] = {}
    n = 0
    counts, ccounts = {}, {}
    undecided = False
    for v in range(q.num_vertices):
        try:
            cycles = cycles_with_image(c, v, g)
        except ResourceExhausted:
            return ReducedCenterResult(UNKNOWN, reason="cycle_enumeration_budget")
        split, unknown = eq.split(cycles)
        undecided = undecided or unknown > 0
        unknowns[v] = [(n + k, cycles[cls[0]]) for k, cls in enumerate(split)]
        n += len(split)
        counts[v] = len(cycles)
        ccounts[v] = len(split)

    # the coefficients at each vertex sum to 1, then every class of
    # commutator words cancels
    system = _Elimination(n)
    feasible = all(system.add([(1, idx) for idx, _ in terms], 1) for terms in unknowns.values())
    for a in q.arrows:
        if not feasible:
            break
        products = _commutator_terms(a, unknowns)
        split, unknown = eq.split([word for _, _, word in products])
        undecided = undecided or unknown > 0
        feasible = all(system.add([products[k][:2] for k in cls], 0) for cls in split)
    if not feasible:
        return ReducedCenterResult(
            UNKNOWN if undecided else NO,
            candidate_counts=counts,
            class_counts=ccounts,
            reason="commutation_infeasible",
        )
    sol = system.solution()
    # CentralCandidate drops the zero coefficients
    witness = CentralCandidate({v: [(sol[idx], w) for idx, w in terms]
                                for v, terms in unknowns.items()})
    return ReducedCenterResult(
        YES, witness=witness, candidate_counts=counts, class_counts=ccounts
    )


def power_in_reduced_center(
    c: Contraction,
    g: Monomial,
    n_max: int = 6,
    bounds: SearchBounds = DEFAULT_BOUNDS,
) -> tuple[int | None, str]:
    """Smallest n <= n_max with g^n in the reduced-center image; returns
    (n, yes) on success, (None, no) when every power refuses, or
    (None, unknown) when some powers were undecided."""
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, not {n_max}")
    any_unknown = False
    for n in range(1, n_max + 1):
        res = reduced_center_contains(c, tuple(n * e for e in g), bounds)
        if res.verdict == YES:
            return n, YES
        if res.verdict == UNKNOWN:
            any_unknown = True
    return None, (UNKNOWN if any_unknown else NO)
