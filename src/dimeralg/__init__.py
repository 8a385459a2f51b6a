"""Combinatorial invariants of dimer quivers on the two-torus."""

from .quiver import (
    Arrow,
    BigonReduction,
    DimerQuiver,
    DomainError,
    Face,
    PathWord,
    StructuralError,
    ValidationReport,
    bigon_reduce,
    concat,
    make_quiver,
    path_homology,
    quiver_from_json,
    quiver_to_json,
    unit_cycle,
    validate_dimer,
    zigzag_consistent,
    zigzag_paths,
)
from .matchings import (
    enumerate_perfect_matchings,
    is_nondegenerate,
    is_simple_matching,
    matching_catalog,
)
from .rewriting import (
    CycleFilter,
    RewriteSystem,
    SearchBounds,
    certified_cancellative,
    enumerate_cycles,
    find_noncancellative_pair,
    paths_equal,
    replay_witness,
    vertex_simple_cycles,
)
from .contraction import (
    Contraction,
    ContractionError,
    contract,
    identity_contraction,
    is_cyclic,
    psi_word,
    sigma,
    source_cycle_algebra_generators,
    target_cycle_algebra_generators,
    tau_psi,
)
from .monomial_algebra import (
    MonomialAlgebra,
    algebra_contains,
    cycles_with_image,
    homotopy_center_contains,
    homotopy_center_monomials,
    ideal_monomials,
    realizable_at_vertex,
    render_monomial,
)
from .center import (
    CentralCandidate,
    nilpotency_and_kernel_check,
    power_in_reduced_center,
    reduced_center_contains,
    sigma_sum_candidate,
    verify_central,
)
from .normality import minimal_sigma_power, normality_report
from .fixtures import FIXTURE_NAMES, fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
