"""Normality diagnostics for the homotopy center.

The homotopy center R sits inside the cycle algebra S.  R is normal
exactly when sigma*S lies inside R, equivalently when R = k + m0*S for
the ideal m0 of all nonconstant R-monomials; the report evaluates the
conditions separately and insists they agree.  Products of an
R-monomial that is not a sigma power with anything in S stay in R, so
testing sigma^n * g over the S-generators certifies the whole ideal.
The monomial conditions are set arithmetic over one ``CenterTable`` of
R, whose sweep also decides the sigma-rounds inside its box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .contraction import Contraction, sigma, source_cycle_algebra_generators
from .monomial_algebra import (
    NO,
    YES,
    CenterTable,
    Monomial,
    degree,
    first_unrealized_goal,
    ideal_monomials,
    is_sigma_power,
    minimal_generators,
    mon_add,
    semigroup_monomials,
)
from .rewriting import UNKNOWN


DEFAULT_DEGREE_BOUND = 8  # degree up to which the monomial conditions compare sets
DEFAULT_N_MAX = 6  # largest power the minimal-power search tries


def sigma_power_times_S_in_R(c: Contraction, n: int) -> Monomial | None:
    """Does sigma^n * S land in R?  Tested on the S-generators; the
    non-sigma-power products absorb the rest of S, and sigma^n itself is
    in R, the n-th power of the unit cycle at every vertex.  Returns the
    first generator g whose goal sigma^n * g is not a cycle image at some
    vertex, as ``first_unrealized_goal`` decides it in one sweep from
    every vertex (exactly, or by raising ResourceExhausted past its state
    budget), or None when sigma^n * S lies in R."""
    return _sigma_round(c, n, partial(first_unrealized_goal, c))


def _sigma_round(c: Contraction, n: int, unrealized) -> Monomial | None:
    """``sigma_power_times_S_in_R`` with ``unrealized`` deciding the goals."""
    sn = (n,) * len(c.catalog)
    gens = source_cycle_algebra_generators(c)
    miss = unrealized([mon_add(sn, g) for g in gens])
    return None if miss is None else gens[miss[0]]


@dataclass
class MinimalSigmaPower:
    n: int | None
    failing_witness: Monomial | None = None  # witness at n-1

    @property
    def verdict(self) -> str:
        return UNKNOWN if self.n is None else YES


def _sigma_rounds(c: Contraction, n_max: int, unrealized) -> list[Monomial | None]:
    """The witnesses of sigma^n * S in R for n = 1, 2, ... up to the first
    None or n_max, each round decided by ``unrealized``: a
    ``first_unrealized_goal`` of c or of a ``CenterTable`` of c."""
    witnesses: list[Monomial | None] = []
    for n in range(1, n_max + 1):
        witnesses.append(_sigma_round(c, n, unrealized))
        if witnesses[-1] is None:
            break
    return witnesses


def _minimal_power(witnesses: list[Monomial | None]) -> MinimalSigmaPower:
    if witnesses and witnesses[-1] is None:
        prev = witnesses[-2] if len(witnesses) > 1 else None
        return MinimalSigmaPower(len(witnesses), prev)
    return MinimalSigmaPower(None, witnesses[-1] if witnesses else None)


def minimal_sigma_power(c: Contraction, n_max: int = DEFAULT_N_MAX) -> MinimalSigmaPower:
    """Least n with sigma^n * S inside R; below it there is a witness
    product outside R."""
    return _minimal_power(_sigma_rounds(c, n_max, partial(first_unrealized_goal, c)))


@dataclass
class NormalityReport:
    cond_k_plus_m0S: str
    normal: str
    sigma_witness: Monomial | None
    minimal_power: int | None
    decomposition_holds: str
    ideal_property_holds: str
    degree_bound: int
    r_generators: list = field(default_factory=list)

    def as_dict(self):
        # sigma*S in R is ``normal``, R = k + J is R = k + m0*S, and a
        # disagreement raises EquivalenceViolation before any report exists
        return {
            "cond_sigma_S_in_R": self.normal,
            "cond_R_equals_k_plus_m0S": self.cond_k_plus_m0S,
            "cond_R_equals_k_plus_ideal": self.cond_k_plus_m0S,
            "conditions_consistent": True,
            "normal": self.normal,
            "sigma_witness": list(self.sigma_witness) if self.sigma_witness else None,
            "minimal_sigma_power": self.minimal_power,
            "decomposition_holds": self.decomposition_holds,
            "ideal_property_holds": self.ideal_property_holds,
            "degree_bound": self.degree_bound,
            "homotopy_center_generators": [list(g) for g in self.r_generators],
        }


class EquivalenceViolation(AssertionError):
    """The provably equivalent normality conditions disagreed; that can
    only mean an implementation bug, so it is raised, not reported."""


def normality_report(
    c: Contraction, degree_bound: int = DEFAULT_DEGREE_BOUND, n_max: int = DEFAULT_N_MAX
) -> NormalityReport:
    """Evaluate the normality conditions of the homotopy center R of c.

    The fields of the report:

    - ``normal``: whether sigma*S lies in R, decided exactly by
      ``sigma_power_times_S_in_R`` at n = 1; ``sigma_witness`` is the
      S-generator g whose product sigma*g is not in R, if any.
    - ``cond_k_plus_m0S``: whether R = k + m0*S, the same condition as
      R = k + J for an ideal J of S.  Unknown when sigma*S fails but
      sigma*witness lies beyond the degree bound, where the truncated
      sets cannot see the failure; a disagreement with ``normal`` raises
      EquivalenceViolation.
    - ``minimal_power``: the least n <= n_max with sigma^n*S in R, or None.
    - ``decomposition_holds``: whether R = k[sigma] + (m0~, sigma^n)*S for
      that n, with m0~ the R-monomials that are not sigma powers;
      unknown without a minimal power.
    - ``ideal_property_holds``: whether every minimal generator of R
      that is not a sigma power stays in R times each S-generator.
    - ``degree_bound`` and ``r_generators``, the minimal generators of
      the R-monomials up to that bound.

    The ideal conditions compare monomial sets truncated at
    ``degree_bound``: R, m0*S and the decomposition each up to that
    degree, built by ``ideal_monomials`` and ``semigroup_monomials``
    from one ``CenterTable``, whose sweep also decides the sigma-rounds
    inside its box; only the rounds above it are swept."""
    s = sigma(c)
    s_gens = source_cycle_algebra_generators(c)
    center = CenterTable(c, degree_bound + max(map(degree, s_gens), default=0))
    table = center.monomials
    rounds = _sigma_rounds(c, max(n_max, 1), center.first_unrealized_goal)
    witness = rounds[0]  # round 1 is the sigma*S condition
    normal = YES if witness is None else NO
    msp = _minimal_power(rounds[:max(n_max, 0)])

    r_mons = frozenset(m for m in table if degree(m) <= degree_bound)
    r_gens = minimal_generators(sorted(r_mons))

    # R = k + m0*S as monomial sets up to the degree bound; m0 is spanned
    # by r_mons itself, since R is closed under products
    cond_m0S = YES if ideal_monomials(r_mons, s_gens, degree_bound) == r_mons else NO
    # the truncated test only refutes, so its yes means nothing while
    # sigma * witness lies beyond the bound
    if normal == NO and cond_m0S == YES and degree_bound < degree(mon_add(s, witness)):
        cond_m0S = UNKNOWN
    if cond_m0S not in (UNKNOWN, normal):
        raise EquivalenceViolation(f"sigma*S test says {normal} but k+m0S test says {cond_m0S}")

    # decomposition: R = k[sigma] + (m0~, sigma^n) * S with m0~ the
    # non-sigma-power part
    decomposition = UNKNOWN
    if msp.n is not None:
        ideal_gens = [m for m in r_mons if not is_sigma_power(m)] + [(msp.n,) * len(s)]
        decomp = (semigroup_monomials([s], degree_bound)
                  | ideal_monomials(ideal_gens, s_gens, degree_bound))
        decomposition = YES if decomp == r_mons else NO

    # the non-sigma-power part of R is an ideal of S already
    outside = (mon_add(m, g) not in table for m in r_gens if not is_sigma_power(m) for g in s_gens)
    ideal_prop = NO if any(outside) else YES

    return NormalityReport(
        cond_k_plus_m0S=cond_m0S,
        normal=normal,
        sigma_witness=witness,
        minimal_power=msp.n,
        decomposition_holds=decomposition,
        ideal_property_holds=ideal_prop,
        degree_bound=degree_bound,
        r_generators=r_gens,
    )
