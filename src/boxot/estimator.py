"""Parameter estimation: moments, dual solve, cross-term extraction, closed forms.

The estimated shift mu and scale sigma of a box density relative to observed
samples come from the closed forms

    sigma* = [N crossTerm - (sum_j b_j y_j) . (int x dalpha)] /
             [N int ||x||^2 dalpha - ||int x dalpha||^2]
    mu*    = [sigma* int x dalpha - sum_j b_j y_j] / N

where crossTerm is the transport-plan integral of x . y, recovered from the
dual energy via rho = (int ||x||^2 dalpha + sum_j b_j ||y_j||^2 - E(g)) / 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dual_solver import SolverConfig, SolverTrace, solve_dual
from .geometry import Instance, box_moments


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Estimation outputs plus the solve trace and guarantee bookkeeping.

    sigma_hat is never clamped: zero and negative values are legitimate
    degenerate outputs and are only flagged (``degenerate_sigma``).
    """

    sigma_hat: float
    mu_hat: np.ndarray
    rho: float
    dual_energy: float
    trace: SolverTrace
    guarantee_holds: bool
    degenerate_sigma: bool
    epsilon: float
    eta: float

    def to_json_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "mu_hat": [float(v) for v in self.mu_hat],
            "rho": self.rho,
            "dual_energy": self.dual_energy,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "guarantee_holds": self.guarantee_holds,
            "iterations": self.trace.M_bar,
            "passes": self.trace.passes,
            "stop_reason": self.trace.stop_reason,
            "backend": self.trace.backend,
        }


def closed_form_from_plan(
    moments, sum_by: np.ndarray, cross_term: float
) -> tuple[float, np.ndarray]:
    """(sigma*, mu*) from density moments and a plan cross-term.

    ``moments`` is the (N, firstMoment, secondMoment) triple of
    :func:`boxot.geometry.box_moments`. Kept separate from the pipeline so an
    exact oracle cross-term can be substituted for rho.
    """
    n_mass, first, second = moments
    sum_by = np.asarray(sum_by, dtype=float)
    denom = n_mass * second - float(first @ first)
    if denom <= 0:
        raise ValueError("nonpositive variance denominator")
    sigma = (n_mass * cross_term - float(sum_by @ first)) / denom
    mu = (sigma * first - sum_by) / n_mass
    return float(sigma), mu


def estimate_parameters(instance: Instance, config: SolverConfig) -> EstimationResult:
    """Full pipeline: moments, dual solve at cost ||x - y||^2, rho, closed forms.

    For uniform demands the result satisfies |sigma_hat - sigma*| <= epsilon
    and ||mu_hat - mu*|| <= epsilon D with probability >= 1 - eta whenever
    ``guarantee_holds``.
    """
    moments = box_moments(instance.density)
    second = moments[2]
    b = instance.samples.demands
    y = instance.samples.points
    sum_by = b @ y
    sum_by_norm = float(b @ instance.samples.squared_norms)

    g, e_est, trace = solve_dual(instance, config)
    rho = 0.5 * (second + sum_by_norm - e_est)
    sigma, mu = closed_form_from_plan(moments, sum_by, rho)
    degenerate = sigma <= 0
    if degenerate:
        warnings.warn(
            f"degenerate estimate sigma_hat = {sigma:.6g} <= 0", stacklevel=2
        )
    return EstimationResult(
        sigma_hat=sigma,
        mu_hat=mu,
        rho=float(rho),
        dual_energy=float(e_est),
        trace=trace,
        guarantee_holds=trace.guarantee_holds,
        degenerate_sigma=bool(degenerate),
        epsilon=config.epsilon,
        eta=config.eta,
    )
