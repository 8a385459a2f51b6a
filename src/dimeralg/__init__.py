"""Combinatorial invariants of dimer quivers on the two-torus."""

from .quiver import (
    Arrow,
    DimerQuiver,
    DomainError,
    Face,
    PathWord,
    StructuralError,
    ValidationReport,
    concat,
    make_quiver,
    path_homology,
    quiver_from_json,
    quiver_to_json,
    unit_cycle,
    validate_dimer,
)
from .matchings import (
    MatchingCatalog,
    enumerate_perfect_matchings,
    is_nondegenerate,
    is_simple_matching,
    matching_catalog,
)
from .rewriting import (
    CycleFilter,
    RewriteSystem,
    SearchBounds,
    enumerate_cycles,
    find_noncancellative_pair,
    paths_equal,
    replay_witness,
    vertex_simple_cycles,
)
from .contraction import (
    BigonReduction,
    Contraction,
    ContractionError,
    bigon_reduce,
    contract,
    identity_contraction,
    is_cyclic,
    psi_word,
    reduce_matching,
    reduce_word,
    sigma,
    source_cycle_algebra_generators,
    target_cycle_algebra_generators,
    tau_psi,
)
from .monomial_algebra import (
    MonomialAlgebra,
    MonomialIdealSpec,
    algebra_contains,
    cycles_with_image,
    divide_by_sigma,
    homotopy_center_contains,
    homotopy_center_generators,
    realizable_at_vertex,
    render_monomial,
    sigma_divides,
)
from .center import (
    CentralCandidate,
    commutation_property_check,
    nilpotency_and_kernel_check,
    power_in_reduced_center,
    reduced_center_contains,
    sigma_sum_candidate,
    verify_central,
)
from .normality import minimal_sigma_power, normality_report, sigma_S_in_R
from .fixtures import FIXTURE_NAMES, fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
