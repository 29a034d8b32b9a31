"""Shift/scale estimation for box densities via semidiscrete optimal transport.

A source density that is piecewise constant over disjoint hyperrectangles is
matched to weighted sample points under squared-Euclidean cost. The dual of
the transport problem is maximized over Laguerre cell weights by one loop:
damped Newton steps where the backend's pass has a Hessian (exact), the
paper's fixed-step inexact gradient descent where it has none (Monte Carlo).
The optimal cost then yields closed-form estimates of the
translation mu and scaling sigma relating density and samples. A companion
3-SAT gadget shows exact likelihood maximization for the same family is
NP-hard.
"""

from .dual_solver import (
    SolverAbort,
    SolverConfig,
    SolverTrace,
    center_weights,
    energy,
    epsilon_prime,
    gradient,
    iteration_budget,
    solve_dual,
    transform_dual_for_scale,
    transform_dual_for_shift,
)
from .estimator import (
    EstimationResult,
    closed_form_from_plan,
    estimate_parameters,
)
from .geometry import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    InstanceStats,
    SampleSet,
    box_moments,
    box_rng,
    cell_box_moments_exact,
    cell_box_volumes_mc,
    classify_points,
    instance_stats,
    mc_sample_count,
)
from .instance_io import (
    dumps_instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .oracle import (
    DiscretePlan,
    WeightedPoints,
    discretization_error_bound,
    discretize_source,
    finite_difference_gradient,
    semidiscrete_1d_exact,
    solve_discrete_ot_exact,
)
from .sat_reduction import (
    CnfFormula,
    ReductionOutput,
    assignment_to_theta,
    brute_force_sat,
    decide_positive_likelihood,
    likelihood_positive,
    parse_dimacs,
    reduce_3sat,
)

__version__ = "0.1.0"

__all__ = [
    "BoxDensity",
    "CnfFormula",
    "DiscretePlan",
    "EstimationResult",
    "Hyperrectangle",
    "Instance",
    "InstanceStats",
    "ReductionOutput",
    "SampleSet",
    "SolverAbort",
    "SolverConfig",
    "SolverTrace",
    "WeightedPoints",
    "assignment_to_theta",
    "box_moments",
    "box_rng",
    "brute_force_sat",
    "cell_box_moments_exact",
    "cell_box_volumes_mc",
    "center_weights",
    "classify_points",
    "closed_form_from_plan",
    "decide_positive_likelihood",
    "discretization_error_bound",
    "discretize_source",
    "dumps_instance",
    "energy",
    "epsilon_prime",
    "estimate_parameters",
    "finite_difference_gradient",
    "gradient",
    "instance_stats",
    "iteration_budget",
    "likelihood_positive",
    "load_instance",
    "mc_sample_count",
    "parse_dimacs",
    "parse_instance",
    "reduce_3sat",
    "save_instance",
    "semidiscrete_1d_exact",
    "serialize_instance",
    "solve_dual",
    "solve_discrete_ot_exact",
    "transform_dual_for_scale",
    "transform_dual_for_shift",
    "__version__",
]
