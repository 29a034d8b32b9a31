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

The top level holds the estimation pipeline only. Everything else is
imported from its module: ``boxot.geometry`` (Laguerre cell moments and
volumes), ``boxot.dual_solver`` (the dual oracle), ``boxot.oracle`` (the
ground-truth transport solvers), ``boxot.sat_reduction`` (the 3-SAT gadget),
``boxot.instance_io`` and ``boxot.fixtures``.
"""

from .dual_solver import SolverAbort, SolverConfig, SolverTrace, solve_dual
from .estimator import EstimationResult, estimate_parameters
from .geometry import BoxDensity, BudgetRefused, Hyperrectangle, Instance, SampleSet
from .instance_io import load_instance, save_instance

__version__ = "0.1.0"

__all__ = [
    "BoxDensity",
    "BudgetRefused",
    "EstimationResult",
    "Hyperrectangle",
    "Instance",
    "SampleSet",
    "SolverAbort",
    "SolverConfig",
    "SolverTrace",
    "estimate_parameters",
    "load_instance",
    "save_instance",
    "solve_dual",
    "__version__",
]
