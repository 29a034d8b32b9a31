"""Semidiscrete dual energy, gradient, and the inexact gradient-descent solver.

The dual energy of an instance is

    E(g) = sum_j integral_{L_j(g)} (||x - y_j||^2 - g_j) dalpha + <g, b>,

maximized over the zero-sum subspace G_0. The solver runs fixed-step inexact
gradient descent on f = -E with the step 1/L, a per-iteration gradient noise
budget, and a noisy-gradient stopping threshold, all derived from the target
accuracy; it returns the final iterate, an energy estimate, and a trace.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Instance,
    SampleSet,
    _power_diagram,
    box_moments,
    cell_box_moments_exact,
    cell_box_volumes_mc,
    potential_integral_mc,
)

ITERATION_CAP = 10**18


class SolverAbort(RuntimeError):
    """Non-finite energy or gradient; carries the partial trace."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy/probability targets and solve controls.

    epsilon is the target accuracy (dimensionless for sigma, scaled by D for
    mu); eta the total failure probability. volume_backend is "exact", "mc",
    or "auto" (exact when l <= 3, mc above). max_iters_override caps the
    iteration count below the theoretical budget; using it voids the
    guarantee flag when the solve stops because of it.
    """

    epsilon: float
    eta: float
    seed: int = 0
    max_iters_override: int | None = None
    volume_backend: str = "auto"
    trace_energy: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.volume_backend not in ("auto", "exact", "mc"):
            raise ValueError("volume_backend must be auto, exact, or mc")
        if self.max_iters_override is not None and self.max_iters_override < 1:
            raise ValueError("max_iters_override must be >= 1")


@dataclass
class SolverTrace:
    """Per-iteration records plus the derived budgets of one solve."""

    eps_prime: float
    noise_budget: float
    grad_threshold: float
    L: float
    M: int
    backend: str
    seed: int
    uniform_demands: bool
    t: list[int] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    energy_estimate: list[float] = field(default_factory=list)
    step_size: list[float] = field(default_factory=list)
    wallclock_ms: list[float] = field(default_factory=list)
    g_inf_norm: list[float] = field(default_factory=list)
    M_bar: int = 0
    stop_reason: str = ""
    aborted: bool = False
    guarantee_holds: bool = False

    def record(self, t, grad_norm, energy, step, wall_ms, g_inf) -> None:
        self.t.append(int(t))
        self.grad_norm.append(float(grad_norm))
        self.energy_estimate.append(float(energy))
        self.step_size.append(float(step))
        self.wallclock_ms.append(float(wall_ms))
        self.g_inf_norm.append(float(g_inf))

    def to_csv(self, path) -> None:
        """Write the plot-ready trace: t, grad_norm, energy_estimate, wallclock_ms."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,grad_norm,energy_estimate,wallclock_ms\n")
            for i in range(len(self.t)):
                fh.write(
                    f"{self.t[i]},{self.grad_norm[i]!r},"
                    f"{self.energy_estimate[i]!r},{self.wallclock_ms[i]!r}\n"
                )


# ---------------------------------------------------------------------------
# dual weights
# ---------------------------------------------------------------------------


def center_weights(g: np.ndarray) -> np.ndarray:
    """Project g onto the zero-sum subspace G_0 (does not change E)."""
    g = np.asarray(g, dtype=float)
    return g - g.sum() / g.size


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def _resolve_backend(backend: str, dimension: int) -> str:
    if backend == "auto":
        return "exact" if dimension <= 3 else "mc"
    if backend == "exact" and dimension > 3:
        raise ValueError("exact backend supports dimension <= 3 only")
    return backend


def _finite_weights(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("dual weights must be finite")
    return g


def _exact_moments(instance: Instance, g: np.ndarray) -> list:
    """(gamma, vols, firsts, seconds) of every box from one power diagram of g."""
    samples = instance.samples
    diagram = _power_diagram(samples, g)
    return [
        (w, *cell_box_moments_exact(samples, g, box, diagram))
        for box, w in instance.density.boxes
    ]


def _gradient_from(samples: SampleSet, box_volumes: list) -> np.ndarray:
    """b - sum over boxes of gamma vol(L_j n H), centred onto G_0.

    ``box_volumes`` holds (gamma, vols) per box.
    """
    out = samples.demands.copy()
    for w, vols in box_volumes:
        out -= w * vols
    return out - out.sum() / out.size


def _exact_energy(instance: Instance, g: np.ndarray, moments: list) -> float:
    """E(g) from the cells' moments: sum_j of the integral of ||x - y_j||^2 - g_j
    over L_j(g), plus <g, b>."""
    samples = instance.samples
    y = samples.points
    total = 0.0
    for w, vols, firsts, seconds in moments:
        total += w * float(
            seconds.sum()
            - 2.0 * (firsts * y).sum()
            + ((samples.squared_norms - g) * vols).sum()
        )
    return total + float(g @ samples.demands)


def _exact_gradient_and_energy(
    instance: Instance, g: np.ndarray
) -> tuple[np.ndarray, float]:
    """:func:`gradient` and :func:`energy` on the exact backend, from one pass."""
    g = _finite_weights(g)
    moments = _exact_moments(instance, g)
    grad = _gradient_from(instance.samples, [(w, v) for w, v, _, _ in moments])
    return grad, _exact_energy(instance, g, moments)


def energy(
    instance: Instance,
    g: np.ndarray,
    accuracy: float | None = None,
    eta_prime: float | None = None,
    seed=0,
    backend: str = "exact",
) -> float:
    """Dual energy E(g).

    Exact backend (l <= 3): closed-form clipped-cell quadratic moments per
    box. MC backend: per-box uniform sampling of the potential
    min_j(||x - y_j||^2 - g_j) with Hoeffding counts for additive error
    ``accuracy`` at failure probability eta_prime; the integrand range is
    bounded by 4 D^2 + 2 ||g||_inf.
    """
    g = _finite_weights(g)
    samples = instance.samples
    backend = _resolve_backend(backend, instance.dimension)

    if backend == "exact":
        return _exact_energy(instance, g, _exact_moments(instance, g))

    if accuracy is None or eta_prime is None:
        raise ValueError("mc energy needs accuracy and eta_prime")
    stats = instance.stats
    rng_range = 4.0 * stats.D**2 + 2.0 * float(np.abs(g).max())
    k = instance.density.k
    m = int(
        math.ceil(rng_range**2 * math.log(2.0 * k / eta_prime) / (2.0 * accuracy**2))
    )
    total = 0.0
    for idx, (box, w) in enumerate(instance.density.boxes):
        total += potential_integral_mc(samples, g, box, w, m, seed, box_index=idx)
    return total + float(g @ samples.demands)


def gradient(
    instance: Instance,
    g: np.ndarray,
    eps_bar: float | None = None,
    eta_prime: float | None = None,
    seed=0,
    backend: str = "exact",
) -> np.ndarray:
    """Gradient of E at g, mean-centered onto G_0.

    grad E(g)_j = b_j - sum_boxes gamma vol(L_j(g) n H). The MC backend
    estimates each box's cell volumes to additive accuracy
    (eps_bar/sqrt(n)) vol(H) with per-box failure eta_prime/k, which gives
    ||returned - grad E|| <= eps_bar with probability >= 1 - eta_prime.
    Projection onto G_0 is a contraction (grad E lies in G_0), so it never
    increases the error.
    """
    g = _finite_weights(g)
    backend = _resolve_backend(backend, instance.dimension)
    samples = instance.samples
    if backend == "exact":
        box_volumes = [(w, vols) for w, vols, _, _ in _exact_moments(instance, g)]
    else:
        if eps_bar is None or eta_prime is None:
            raise ValueError("mc gradient needs eps_bar and eta_prime")
        k = instance.density.k
        per_cell = eps_bar / math.sqrt(samples.n)
        box_volumes = [
            (w, cell_box_volumes_mc(
                samples, g, box, per_cell, eta_prime / k, seed, box_index=idx
            ))
            for idx, (box, w) in enumerate(instance.density.boxes)
        ]
    return _gradient_from(samples, box_volumes)


# ---------------------------------------------------------------------------
# derived budgets
# ---------------------------------------------------------------------------


def epsilon_prime(instance: Instance, epsilon: float) -> float:
    """Energy-accuracy budget implied by a parameter accuracy epsilon.

    eps' = 2 eps [N int ||x||^2 dalpha - ||int x dalpha||^2] /
           [N + ||int x dalpha|| / D],
    and eps' >= eps s^2 / 12 always holds (asserted).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n_mass, first, second = box_moments(instance.density)
    stats = instance.stats
    variance = n_mass * second - float(first @ first)
    denom = n_mass + float(np.linalg.norm(first)) / stats.D
    eps_p = 2.0 * epsilon * variance / denom
    floor = epsilon * stats.s**2 / 12.0
    if eps_p < floor * (1.0 - 1e-9):
        raise AssertionError(f"epsilon_prime {eps_p} fell below its floor {floor}")
    return eps_p


def iteration_budget(instance: Instance, eps_prime: float) -> int:
    """M = (4/eps') 4800 n^2 D^4 L, as an integer capped at ITERATION_CAP."""
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    stats = instance.stats
    n = instance.samples.n
    m = (4.0 / eps_prime) * 4800.0 * n**2 * stats.D**4 * stats.L
    return int(min(math.ceil(m), ITERATION_CAP))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def solve_dual(
    instance: Instance, config: SolverConfig
) -> tuple[np.ndarray, float, SolverTrace]:
    """Inexact gradient descent on f = -E from g_1 = 0.

    Iterates g_{t+1} = g_t - (1/L) grad~f(g_t) with noise budget
    ||e_t|| <= eps'/(360 n D^2), stopping at the first t with
    ||grad~f(g_t)|| <= eps'/(45 n D^2) or at t = M, whichever comes first;
    the returned iterate then satisfies E(g*) - E(g_Mbar) <= eps' with
    probability >= 1 - eta (per-iteration failure eta/(k M), union-bounded).
    The final energy estimate gets its own accuracy budget eps'/4 under the
    mc backend and is exact under the exact backend.
    """
    stats = instance.stats
    n = instance.samples.n
    backend = _resolve_backend(config.volume_backend, instance.dimension)
    uniform = instance.samples.uniform_demands
    if not uniform:
        warnings.warn(
            "non-uniform demands: iterate-boundedness guarantees assume b_j = 1/n",
            stacklevel=2,
        )

    eps_p = epsilon_prime(instance, config.epsilon)
    big_m = iteration_budget(instance, eps_p)
    m_eff = big_m if config.max_iters_override is None else min(
        big_m, config.max_iters_override
    )
    nd2 = n * stats.D**2
    noise_budget = eps_p / (360.0 * nd2)
    grad_threshold = eps_p / (45.0 * nd2)
    eta_iter = config.eta / (big_m + 1.0)

    trace = SolverTrace(
        eps_prime=eps_p,
        noise_budget=noise_budget,
        grad_threshold=grad_threshold,
        L=stats.L,
        M=big_m,
        backend=backend,
        seed=config.seed,
        uniform_demands=uniform,
    )

    g = np.zeros(n)
    step = 1.0 / stats.L
    start = time.perf_counter()
    stop_reason = "budget"
    # With trace_energy on the exact backend, one geometry pass per iterate
    # feeds both the gradient and the traced energy.
    fused = config.trace_energy and backend == "exact"
    for t in range(1, m_eff + 1):
        if fused:
            grad_e, e_here = _exact_gradient_and_energy(instance, g)
        else:
            grad_e = gradient(
                instance,
                g,
                eps_bar=noise_budget,
                eta_prime=eta_iter,
                seed=(config.seed, t),
                backend=backend,
            )
            e_here = math.nan
        grad_f = -grad_e
        # np.linalg.norm's formula for a vector, without its dispatch.
        gnorm = math.sqrt(float(grad_f.dot(grad_f)))
        if not math.isfinite(gnorm):
            trace.aborted = True
            trace.M_bar = t
            trace.stop_reason = "abort"
            raise SolverAbort("non-finite gradient", trace)
        wall = (time.perf_counter() - start) * 1e3
        if config.trace_energy and not fused:
            e_here = energy(
                instance,
                g,
                accuracy=eps_p / 4.0,
                eta_prime=eta_iter,
                seed=(config.seed, t, 1),
                backend=backend,
            )
        trace.record(t, gnorm, e_here, step, wall, float(np.abs(g).max()))
        if gnorm <= grad_threshold:
            stop_reason = "threshold"
            break
        if t == m_eff:
            stop_reason = "budget" if m_eff == big_m else "override"
            break
        g = center_weights(g - step * grad_f)

    trace.M_bar = trace.t[-1]
    trace.stop_reason = stop_reason

    e_final = energy(
        instance,
        g,
        accuracy=eps_p / 4.0,
        eta_prime=eta_iter,
        seed=(config.seed, 0),
        backend=backend,
    )
    if not math.isfinite(e_final):
        trace.aborted = True
        raise SolverAbort("non-finite energy", trace)
    trace.energy_estimate[-1] = e_final
    trace.guarantee_holds = (
        uniform and not trace.aborted and stop_reason in ("threshold", "budget")
    )
    return g, e_final, trace


# ---------------------------------------------------------------------------
# dual-weight transforms
# ---------------------------------------------------------------------------


def transform_dual_for_shift(
    g: np.ndarray, samples: SampleSet, mu: np.ndarray
) -> np.ndarray:
    """Dual weights matching a mu-shift: g_j + 2 mu.y_j + ||mu||^2.

    The Laguerre partition under the shifted cost ||x - (y_j + mu)||^2 with
    the transformed weights equals the original partition.
    """
    g = np.asarray(g, dtype=float)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return g + 2.0 * (samples.points @ mu) + float(mu @ mu)


def transform_dual_for_scale(
    g: np.ndarray, samples: SampleSet, sigma: float
) -> np.ndarray:
    """Dual weights matching a sigma-scaling: (1 - sigma) ||y_j||^2 + sigma g_j.

    For sigma > 0 the partition under the scaled cost ||sigma x - y_j||^2
    with the transformed weights equals the original partition.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    return (1.0 - sigma) * samples.squared_norms + sigma * g
