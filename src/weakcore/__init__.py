"""Universal weak coresets for constrained k-median / k-means.

Compress a weighted clustering instance into a candidate-center set J plus a
weighted summary (S, v), solve arbitrary constrained problems (balanced,
fair, l-diversity, fixed profile) by enumerating center tuples from J with
exact flow/LP assignment on S, and verify the guarantees against brute
force at desk scale.
"""

from .model import (
    Assignment,
    ClusteringInstance,
    ClusterProfile,
    MetricSpace,
    ValidationError,
    WeightedPoints,
    validate_instance,
)
from .flowlp import (
    BoundedTransportationProblem,
    Infeasible,
    LinearProgram,
    SolverLimit,
    solve_bounded_transportation,
    solve_lp,
)
from .constraints import (
    Balanced,
    ConstraintSpec,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    assignment_cost,
    check_feasibility,
    ldiversity_bounds,
    optimal_feasible_cost,
    profile_cost,
    voronoi_profile,
)
from .candidates import (
    CandidateParams,
    build_candidates_euclidean_means,
    build_candidates_metric,
    dz_seed,
)
from .coreset import (
    RingDecomposition,
    SummaryParams,
    WeakCoreset,
    build_summary,
    build_universal_weak_coreset,
    identity_weak_coreset,
    ring_decomposition,
)
from .meta import SolveResult, enumerate_center_tuples, solve_constrained
from .oracle import (
    VerificationReport,
    best_centers_for_assignment,
    brute_force_opt,
    verify_property_A,
    verify_property_B,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Balanced",
    "BoundedTransportationProblem",
    "CandidateParams",
    "ClusterProfile",
    "ClusteringInstance",
    "ConstraintSpec",
    "FixedProfile",
    "FractionBounds",
    "Infeasible",
    "LinearProgram",
    "MetricSpace",
    "RingDecomposition",
    "SolveResult",
    "SolverLimit",
    "SummaryParams",
    "Unconstrained",
    "ValidationError",
    "VerificationReport",
    "WeakCoreset",
    "WeightedPoints",
    "assignment_cost",
    "best_centers_for_assignment",
    "brute_force_opt",
    "build_candidates_euclidean_means",
    "build_candidates_metric",
    "build_summary",
    "build_universal_weak_coreset",
    "check_feasibility",
    "dz_seed",
    "enumerate_center_tuples",
    "identity_weak_coreset",
    "ldiversity_bounds",
    "optimal_feasible_cost",
    "profile_cost",
    "ring_decomposition",
    "solve_bounded_transportation",
    "solve_constrained",
    "solve_lp",
    "validate_instance",
    "verify_property_A",
    "verify_property_B",
    "voronoi_profile",
]
