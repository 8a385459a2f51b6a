"""Central elements: verification, the reduced-center membership test for
monomials, and nilpotency against the contraction kernel.

A candidate central element is a rational combination of cycles, one
bundle per base vertex.  Since the algebra is generated by arrows and
vertex idempotents, centrality is exactly commutation with every arrow,
and each commutator is decided by grouping the product words modulo the
face relations and summing coefficients.  Everything is exact rational
arithmetic; bounded rewriting is the only source of Unknown verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .contraction import Contraction, Monomial, psi_word
from .monomial_algebra import (
    NO,
    YES,
    cycles_with_image,
    homotopy_center_contains,
    mon_add,
)
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
    paths_equal,
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

    def is_zero(self) -> bool:
        return not self.components


def sigma_sum_candidate(q: DimerQuiver, power: int = 1) -> CentralCandidate:
    """The sum over vertices of the (power-th) unit cycle, a standard
    central element."""
    comps = {}
    for v in range(q.num_vertices):
        u = unit_cycle(q, v)
        w = u
        for _ in range(power - 1):
            w = concat(q, w, u)
        comps[v] = [(Fraction(1), w)]
    return CentralCandidate(comps)


def _sum_verdict(eq: EqualityClasses, terms) -> tuple[str, list[tuple[PathWord, Fraction]]]:
    """Do the terms sum to zero modulo the relations?  Buckets them by
    equality of their words and returns the verdict with the nonzero class
    sums; any undecided comparison makes the verdict unknown."""
    terms = sorted(terms, key=lambda t: (t[1].base, t[1].arrows))
    split, unknown = eq.split([word for _, word in terms])
    classes = [(terms[cls[0]][1], sum((terms[k][0] for k in cls), Fraction(0))) for cls in split]
    residue = [(rep, total) for rep, total in classes if total != 0]
    if unknown:
        return UNKNOWN, residue
    return (NOT_EQUAL if residue else EQUAL), residue


@dataclass
class ArrowVerdict:
    arrow: int
    verdict: str  # equal / not_equal / unknown
    residue: list = field(default_factory=list)  # nonzero classes if any


@dataclass
class CentralityCertificate:
    verdicts: list[ArrowVerdict]

    @property
    def central(self) -> bool:
        return all(v.verdict == EQUAL for v in self.verdicts)

    @property
    def verdict(self) -> str:
        if self.central:
            return EQUAL
        if any(v.verdict == NOT_EQUAL for v in self.verdicts):
            return NOT_EQUAL
        return UNKNOWN

    def failing_arrows(self) -> list[int]:
        return [v.arrow for v in self.verdicts if v.verdict != EQUAL]


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
    verdicts = []
    for a in q.arrows:
        terms: list[Term] = []
        for coef, w in z.components.get(a.tail, ()):
            terms.append((coef, PathWord(w.base, w.arrows + (a.id,))))
        for coef, w in z.components.get(a.head, ()):
            terms.append((-coef, PathWord(a.tail, (a.id,) + w.arrows)))
        verdicts.append(ArrowVerdict(a.id, *_sum_verdict(eq, terms)))
    return CentralityCertificate(verdicts)


@dataclass
class NilpotencyReport:
    central: str
    z_squared_zero: str
    psi_z_zero: str
    consistent: str

    def as_dict(self):
        return {
            "central": self.central,
            "z_squared_zero": self.z_squared_zero,
            "psi_z_zero": self.psi_z_zero,
            "consistent": self.consistent,
        }


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
    z2 = _sum_verdict(eq, square_terms)[0]

    eq_t = EqualityClasses(RewriteSystem(c.target), bounds)
    image_terms: list[Term] = []
    for v, terms in z.components.items():
        for coef, w in terms:
            image_terms.append((coef, psi_word(c, w)))
    psi_zero = _sum_verdict(eq_t, image_terms)[0]

    if central == EQUAL and z2 in (EQUAL, NOT_EQUAL) and psi_zero in (EQUAL, NOT_EQUAL):
        consistent = EQUAL if (z2 == psi_zero) else NOT_EQUAL
    else:
        consistent = UNKNOWN if central != NOT_EQUAL else EQUAL
    return NilpotencyReport(central, z2, psi_zero, consistent)


def commutation_property_check(
    q: DimerQuiver, z: CentralCandidate, bounds: SearchBounds = DEFAULT_BOUNDS
) -> str:
    """For z with components p - q, do p and q commute at every vertex?

    Components with a single cycle count as a difference against zero and
    pass vacuously."""
    rs = RewriteSystem(q)
    overall = EQUAL
    for v, terms in z.components.items():
        if len(terms) == 1:
            continue
        if len(terms) != 2:
            raise DomainError("component is not a difference of two cycles")
        (c1, p), (c2, r) = terms
        if {c1, c2} != {Fraction(1), Fraction(-1)}:
            raise DomainError("component is not a difference of two cycles")
        res = paths_equal(rs, concat(q, p, r), concat(q, r, p), bounds)
        if res.verdict == NOT_EQUAL:
            return NOT_EQUAL
        if res.verdict == UNKNOWN:
            overall = UNKNOWN
    return overall


# -- monomial membership in the image of the center ---------------------------


def _solve_rational(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over the rationals; returns one solution or
    None when the system is infeasible."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = next((k for k in range(r, n_rows) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for k in range(n_rows):
            if k != r and m[k][col] != 0:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for k in range(r, n_rows):
        if m[k][n_cols] != 0:
            return None
    sol = [Fraction(0)] * n_cols
    for row_idx, col in enumerate(pivots):
        sol[col] = m[row_idx][n_cols]
    return sol


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

    Builds, per vertex, the classes of cycles whose image is exactly g,
    then solves the arrow-commutation constraints for rational
    coefficients normalised to image g at every vertex.  The search space
    is restricted to same-image cycles; combinations mixing images are
    outside this test's scope.
    """
    q = c.source
    hc = homotopy_center_contains(c, g)
    if hc.verdict != YES:
        return ReducedCenterResult(NO, failing_vertex=hc.vertex, reason="not_in_homotopy_center")
    eq = EqualityClasses(RewriteSystem(q), bounds)

    class_reps: dict[int, list[PathWord]] = {}
    counts, ccounts = {}, {}
    undecided = False
    for v in range(q.num_vertices):
        try:
            cycles = cycles_with_image(c, v, g)
        except ResourceExhausted:
            return ReducedCenterResult(UNKNOWN, reason="cycle_enumeration_budget")
        if not cycles:
            return ReducedCenterResult(NO, failing_vertex=v, reason="no_cycle_with_image")
        split, unknown = eq.split(cycles)
        undecided = undecided or unknown > 0
        class_reps[v] = [cycles[cls[0]] for cls in split]
        counts[v] = len(cycles)
        ccounts[v] = len(split)

    # unknowns x[v][k]; build the linear system over the classes of all
    # commutator words
    index = {}
    for v, reps in class_reps.items():
        for k in range(len(reps)):
            index[(v, k)] = len(index)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for v, reps in class_reps.items():
        row = [Fraction(0)] * len(index)
        for k in range(len(reps)):
            row[index[(v, k)]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))

    for a in q.arrows:
        # words cycle+a (from the tail component) and a+cycle (head side)
        products: list[tuple[PathWord, int, Fraction]] = []
        for k, w in enumerate(class_reps[a.tail]):
            products.append((PathWord(w.base, w.arrows + (a.id,)), index[(a.tail, k)], Fraction(1)))
        for k, w in enumerate(class_reps[a.head]):
            products.append((PathWord(a.tail, (a.id,) + w.arrows), index[(a.head, k)], Fraction(-1)))
        split, unknown = eq.split([word for word, _, _ in products])
        undecided = undecided or unknown > 0
        for cls in split:
            row = [Fraction(0)] * len(index)
            for k in cls:
                _, idx, sign = products[k]
                row[idx] += sign
            if any(x != 0 for x in row):
                rows.append(row)
                rhs.append(Fraction(0))

    sol = _solve_rational(rows, rhs)
    if sol is None:
        return ReducedCenterResult(
            UNKNOWN if undecided else NO,
            candidate_counts=counts,
            class_counts=ccounts,
            reason="commutation_infeasible",
        )
    comps = {}
    for (v, k), idx in index.items():
        if sol[idx] != 0:
            comps.setdefault(v, []).append((sol[idx], class_reps[v][k]))
    witness = CentralCandidate(comps)
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
    any_unknown = False
    for n in range(1, n_max + 1):
        gn = g
        for _ in range(n - 1):
            gn = mon_add(gn, g)
        res = reduced_center_contains(c, gn, bounds)
        if res.verdict == YES:
            return n, YES
        if res.verdict == UNKNOWN:
            any_unknown = True
    return None, (UNKNOWN if any_unknown else NO)
