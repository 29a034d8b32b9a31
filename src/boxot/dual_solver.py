"""Semidiscrete dual energy, gradient, Hessian, and the dual solver.

The dual energy of an instance is

    E(g) = sum_j integral_{L_j(g)} (||x - y_j||^2 - g_j) dalpha + <g, b>,

maximized over the zero-sum subspace G_0. The stopping threshold on the
gradient norm and the iteration budget derive from the target accuracy.
The solver has one loop with one step rule: a damped Newton step when the
iterate's pass carries a Hessian, else the paper's fixed step 1/L. On the
exact backend one geometry pass per iterate gives E, its gradient and its
Hessian (from the cells' facet measures), so the steps are Newton steps.
The Monte Carlo backend's pass estimates the gradient within a
per-iteration noise budget and has no Hessian, so the solver runs the
paper's inexact gradient descent on f = -E. It returns the final iterate,
an energy estimate, and a trace.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    EXACT_MAX_DIMENSION,
    Instance,
    SampleSet,
    _box_batch,
    _finite_weights,
    _power_diagram,
    box_moments,
    # Not called here; bench/tracer.py wraps it here until ROADMAP item 13.
    cell_box_moments_exact,
    cell_box_volumes_mc,
    mc_sample_count,
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
    or "auto" (exact when l <= 3, mc above). The step follows from the
    backend's pass: damped Newton on exact, whose pass has a Hessian, and
    the fixed 1/L step on mc, whose pass has none.
    max_iters_override caps the iteration count below the theoretical
    budget; using it voids the guarantee flag when the solve stops because
    of it.
    """

    epsilon: float
    eta: float
    seed: int = 0
    max_iters_override: int | None = None
    volume_backend: str = "auto"

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
    """Per-iteration records plus the derived budgets of one solve.

    ``step_size[i]`` is the step taken from iterate i: the accepted Newton
    tau, or 1/L on a fixed or fallback step, and 0 at the last iterate.
    ``passes`` counts every geometry pass, rejected Newton trials and the
    start's included; an mc pass is one gradient draw and one energy draw.
    ``energy_accuracy`` is the additive error budget of every pass's energy
    estimate: 0 on exact, eps'/4 on mc. The last row's energy is the one
    the solve returns. ``mc_points_gradient`` and ``mc_points_energy``
    count the Monte Carlo points the solve drew for its gradients and its
    energies, summed over boxes and passes; both are 0 on exact.
    """

    eps_prime: float
    energy_accuracy: float
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
    passes: int = 0
    mc_points_gradient: int = 0
    mc_points_energy: int = 0
    stop_reason: str = ""
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
    exact_ok = dimension <= EXACT_MAX_DIMENSION
    if backend == "auto":
        return "exact" if exact_ok else "mc"
    if backend == "exact" and not exact_ok:
        raise ValueError(
            f"exact backend supports dimension <= {EXACT_MAX_DIMENSION} only"
        )
    return backend


class _Pass(NamedTuple):
    """Energy, gradient and cell masses at one g from one geometry pass.

    ``grad`` is grad E(g), centred onto G_0; ``mass[j]`` is the source mass
    of cell j, the sum over boxes of gamma vol(L_j(g) n H); ``hess`` is the
    Hessian of E when it was asked for, else None. The mc backend's pass
    has only an energy and a gradient, each from its own draw.
    """

    energy: float
    grad: np.ndarray
    mass: np.ndarray
    hess: np.ndarray | None


def _evaluate(instance: Instance, g: np.ndarray, hessian: bool = False) -> _Pass:
    """E(g), grad E(g) and, on request, its Hessian on the exact backend.

    One power diagram of g, built for the density's hull, and one batch
    that measures every box on it (``geometry._box_batch``, which also
    checks that each box's cell volumes sum to its volume). Each box's row
    of the batch gives its share of the energy (sum_j of the integral of
    ||x - y_j||^2 - g_j over L_j(g), plus <g, b>) and of the gradient
    (b_j - sum_boxes gamma vol(L_j n H)). The Hessian's off-diagonal entry
    is sum_boxes gamma measure(facet_ij n H) / (2 ||y_i - y_j||); its
    diagonal makes every row sum to zero (Kitagawa, Merigot and Thibert
    2019, with the factor 2 of the cost ||x - y||^2).
    """
    g = _finite_weights(g, instance.samples.n)
    samples = instance.samples
    y = samples.points
    n = samples.n
    boxes, weights = zip(*instance.density.boxes)
    batch = _box_batch(
        _power_diagram(samples, g, instance.density.hull), samples, g, boxes, hessian
    )
    resid = samples.demands.copy()
    hess = np.zeros((n, n)) if hessian else None
    shifted = samples.squared_norms - g
    total = 0.0
    for w, vols, firsts, seconds in zip(
        weights, batch.vols, batch.firsts, batch.seconds
    ):
        resid -= w * vols
        total += w * float(
            seconds.sum()
            - 2.0 * (firsts * y).sum()
            + (shifted * vols).sum()
        )
    if hessian:
        j, i, measure = batch.pieces
        if len(j):
            # Each piece weighted by its box's gamma, as w * measure.
            runs = batch.bounds[1:] - batch.bounds[:-1]
            measure = np.array(weights).repeat(runs) * measure
            dist = np.sqrt(((y[i] - y[j]) ** 2).sum(axis=1))
            np.add.at(hess, (j, i), measure / (2.0 * dist))
        hess.flat[:: n + 1] -= hess.sum(axis=1)
    grad = resid - resid.sum() / n
    return _Pass(
        total + float(g @ samples.demands), grad, samples.demands - resid, hess
    )


def energy(
    instance: Instance,
    g: np.ndarray,
    accuracy: float | None = None,
    eta_prime: float | None = None,
    seed=0,
    backend: str = "exact",
    drawn: list[int] | None = None,
) -> float:
    """Dual energy E(g).

    Exact backend (l <= 3): closed-form clipped-cell quadratic moments per
    box. MC backend: uniform sampling of the potential
    min_j(||x - y_j||^2 - g_j), every box in lockstep, with Hoeffding counts
    for additive error ``accuracy`` > 0 at failure probability eta_prime in
    (0, 1), both checked before any draw; the integrand range is bounded by
    4 D^2 + 2 ||g||_inf. ``drawn``, when given, gets the number of points
    drawn in each box appended.
    """
    g = _finite_weights(g, instance.samples.n)
    samples = instance.samples
    backend = _resolve_backend(backend, instance.dimension)

    if backend == "exact":
        return _evaluate(instance, g).energy

    if accuracy is None or eta_prime is None:
        raise ValueError("mc energy needs accuracy and eta_prime")
    if not 0.0 < accuracy < math.inf:
        raise ValueError(f"accuracy must be finite and positive, not {accuracy}")
    if not 0.0 < eta_prime < 1.0:
        raise ValueError(f"eta_prime must lie in (0, 1), not {eta_prime}")
    stats = instance.stats
    rng_range = 4.0 * stats.D**2 + 2.0 * float(np.abs(g).max())
    k = instance.density.k
    m = int(
        math.ceil(rng_range**2 * math.log(2.0 * k / eta_prime) / (2.0 * accuracy**2))
    )
    boxes, weights = zip(*instance.density.boxes)
    total = 0.0
    for value in potential_integral_mc(samples, g, boxes, weights, m, seed).tolist():
        total += value
    if drawn is not None:
        drawn.extend([m] * k)
    return total + float(g @ samples.demands)


def gradient(
    instance: Instance,
    g: np.ndarray,
    eps_bar: float | None = None,
    eta_prime: float | None = None,
    seed=0,
    backend: str = "exact",
    threshold: float | None = None,
    drawn: list[int] | None = None,
) -> np.ndarray:
    """Gradient of E at g, mean-centered onto G_0.

    grad E(g)_j = b_j - sum_boxes gamma vol(L_j(g) n H). The MC backend
    estimates each box's cell volumes to additive accuracy
    (eps_bar/sqrt(n)) vol(H) with per-box failure eta_prime/k, which gives
    ||returned - grad E|| <= eps_bar with probability >= 1 - eta_prime.
    Projection onto G_0 is a contraction (grad E lies in G_0), so it never
    increases the error.

    With a ``threshold`` (the solver's stop on ||grad||), the MC draw ends
    at the first checked prefix whose estimate g_k, from the first k of
    the m points of every box, satisfies ||g_k|| + (3 + m/k) eps_bar / 2
    <= threshold, and returns g_k. Hoeffding's supermartingale and Ville's
    inequality put every prefix within (m/k + 1) eps_bar / 2 of grad E at
    once, on an event inside the full draw's own of probability >= 1 -
    eta_prime (see :func:`cell_box_volumes_mc`). There ||g_m|| <=
    ||grad E|| + eps_bar <= ||g_k|| + (3 + m/k) eps_bar / 2 <= threshold:
    the full draw would pass the threshold too, so a solver that stops on
    it stops at the same iterate. The rule can hold at k only if k >=
    m eps_bar / (2 threshold - 3 eps_bar - 2 ||g_k||), so the first check
    is at k_0 = m eps_bar / (2 threshold - 3 eps_bar) (m/13 at the
    solver's threshold of 8 eps_bar), and a check that fails at prefix
    norm nu plans the next at m eps_bar / (2 threshold - 3 eps_bar - 2 nu),
    or a block further when that denominator is not positive. Every box is
    drawn in lockstep to each check's row, on one pool of threads. A
    prefix that never certifies runs to m and returns the full draw's
    bits. ``drawn``, when given, gets the number of points drawn in each
    box appended.
    """
    g = _finite_weights(g, instance.samples.n)
    backend = _resolve_backend(backend, instance.dimension)
    if backend == "exact":
        return _evaluate(instance, g).grad
    if eps_bar is None or eta_prime is None:
        raise ValueError("mc gradient needs eps_bar and eta_prime")
    samples = instance.samples
    boxes = instance.density.boxes
    k = len(boxes)
    per_cell = eps_bar / math.sqrt(samples.n)
    m = mc_sample_count(samples.n, per_cell, eta_prime / k)
    rows = m

    def estimate(volumes: np.ndarray) -> np.ndarray:
        out = samples.demands.copy()
        for (_, w), v in zip(boxes, volumes):
            out -= w * v
        return out - out.sum() / out.size

    def plan(volumes: np.ndarray | None, prefix_rows: int) -> float | None:
        norm = 0.0
        if volumes is not None:
            # The solver's gradient norm of the prefix, to the same bits.
            prefix = estimate(volumes)
            norm = math.sqrt(float(prefix.dot(prefix)))
            if norm + (3.0 + m / prefix_rows) * eps_bar / 2.0 <= threshold:
                nonlocal rows
                rows = prefix_rows
                return None
        slack = 2.0 * threshold - 3.0 * eps_bar - 2.0 * norm
        return m * eps_bar / slack if slack > 0.0 else math.inf

    volumes = cell_box_volumes_mc(
        samples, g, [box for box, _ in boxes], per_cell, eta_prime / k, seed,
        plan=None if threshold is None else plan,
    )
    if drawn is not None:
        drawn.extend([rows] * k)
    return estimate(volumes)


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


# Step halvings a damped Newton step may try before that iteration takes the
# paper's 1/L step instead.
_HALVINGS = 8
# Rounds of raising the weights of empty cells before the first Newton step.
_LIFT_ROUNDS = 8
# Ridge of the Newton system, relative to the mean of -diag(H), when the
# facet graph is split into components.
_RIDGE = 0.1


def solve_dual(
    instance: Instance, config: SolverConfig
) -> tuple[np.ndarray, float, SolverTrace]:
    """Maximize E on G_0 from g_1 = 0; return (g, E(g), trace).

    The solve stops at the first t with ||grad E(g_t)|| <= eps'/(45 n D^2)
    or at t = M (or the override), whichever comes first.

    Every step is a damped Newton step (Kitagawa, Merigot and Thibert 2019)
    when the pass carries a Hessian, and the paper's step g + (1/L) grad E
    when it carries none. The exact backend (l <= 3) assembles the Hessian
    from the cells' facet measures. Before the first step every empty cell's
    weight is raised until the cell holds mass; a step tau d is accepted,
    halving tau from 1, when every cell keeps mass >= eps_0 = min(min
    mass(g_1), min b) / 2, ||grad E|| falls to <= (1 - tau/2) of its value,
    and ||g||_inf <= 20 n D^2. After a bounded number of halvings the
    iteration takes the 1/L step. The final energy is exact.

    The mc backend's pass has no Hessian, so every step is the 1/L step of
    the paper's inexact gradient descent, with noise budget
    ||e_t|| <= eps'/(360 n D^2); the returned iterate then satisfies
    E(g*) - E(g_Mbar) <= eps' with probability >= 1 - eta (per-iteration
    failure eta/(k M), union-bounded). Each mc pass also estimates E at
    its iterate from an independent draw, to ``trace.energy_accuracy`` =
    eps'/4 with failure eta/(M + 1). The iterate and the stopping time
    depend on the gradient draws only, so the last pass's energy, which the
    solve returns on both backends, carries that bound.

    Each mc gradient draw is given the threshold and ends at the first
    checked prefix, of k of the m points of every box, whose estimate g_k
    has ||g_k|| + (3 + m/k) eps_bar / 2 <= eps'/(45 n D^2); the checks
    are planned from that rule, the first at k = m/13 (see
    :func:`gradient`). By Hoeffding's supermartingale and Ville's
    inequality this happens, on an event inside the full draw's own of the
    same probability, only where the full draw's norm is below the
    threshold too: the solve stops at the same t with the same iterate and
    the same energy, and only the last row's ``grad_norm`` is the
    prefix's. A draw whose prefix never certifies is the full draw, bit
    for bit.
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
        energy_accuracy=0.0 if backend == "exact" else eps_p / 4.0,
        noise_budget=noise_budget,
        grad_threshold=grad_threshold,
        L=stats.L,
        M=big_m,
        backend=backend,
        seed=config.seed,
        uniform_demands=uniform,
    )

    def measure(g: np.ndarray, t: int) -> _Pass:
        """The pass at iterate t: one exact evaluation, with the Hessian when
        another step can follow, or the mc gradient and energy estimates."""
        trace.passes += 1
        if backend == "exact":
            return _evaluate(instance, g, t < m_eff)
        grad_drawn, energy_drawn = [], []
        grad = gradient(
            instance,
            g,
            eps_bar=noise_budget,
            eta_prime=eta_iter,
            seed=(config.seed, t),
            backend=backend,
            threshold=grad_threshold,
            drawn=grad_drawn,
        )
        e_here = energy(
            instance,
            g,
            accuracy=trace.energy_accuracy,
            eta_prime=eta_iter,
            seed=(config.seed, t, 1),
            backend=backend,
            drawn=energy_drawn,
        )
        trace.mc_points_gradient += sum(grad_drawn)
        trace.mc_points_energy += sum(energy_drawn)
        return _Pass(e_here, grad, None, None)

    start = time.perf_counter()
    g, p = _massive_start(instance, lambda h: measure(h, 1))
    floor = 0.0
    if p.mass is not None:
        floor = 0.5 * min(float(p.mass.min()), float(instance.samples.demands.min()))
    stop_reason = "budget"
    for t in range(1, m_eff + 1):
        # np.linalg.norm's formula for a vector, without its dispatch.
        gnorm = math.sqrt(float(p.grad.dot(p.grad)))
        if not (math.isfinite(gnorm) and math.isfinite(p.energy)):
            trace.M_bar = t
            trace.stop_reason = "abort"
            bad = "gradient" if not math.isfinite(gnorm) else "energy"
            raise SolverAbort(f"non-finite {bad}", trace)
        wall = (time.perf_counter() - start) * 1e3
        # No step leaves the last iterate; a step overwrites the 0.
        trace.record(t, gnorm, p.energy, 0.0, wall, float(np.abs(g).max()))
        if gnorm <= grad_threshold:
            stop_reason = "threshold"
            break
        if t == m_eff:
            stop_reason = "budget" if m_eff == big_m else "override"
            break
        trace.step_size[-1], g, p = _newton_step(
            g, p, gnorm, floor, 20.0 * nd2, 1.0 / stats.L,
            lambda h: measure(h, t + 1),
        )

    trace.M_bar = trace.t[-1]
    trace.stop_reason = stop_reason
    trace.guarantee_holds = uniform and stop_reason in ("threshold", "budget")
    return g, p.energy, trace


def _massive_start(instance: Instance, measure) -> tuple:
    """From g = 0, raise the weights of empty cells until every cell holds mass.

    An empty cell j gets the weight at which it beats every other cell by
    2 rho max_i ||y_i - y_j|| at x, the support point nearest y_j. Its lead
    over the rest is 2 max_i ||y_i - y_j||-Lipschitz, so cell j then holds
    the ball of radius rho about x. rho starts at a quarter of that box's
    smallest width and halves each round; a cell that is still, or newly,
    empty is raised again. A pass without cell masses (the mc backend's) is
    not lifted. Returns the start and its pass.
    """
    y = instance.samples.points
    n = y.shape[0]
    g = np.zeros(n)
    p = measure(g)
    if p.mass is None:
        return g, p
    lo = np.array([box.lo for box, _ in instance.density.boxes])
    hi = np.array([box.hi for box, _ in instance.density.boxes])
    for r in range(_LIFT_ROUNDS):
        empty = np.flatnonzero(p.mass <= 0.0)
        if not empty.size:
            break
        g = g.copy()
        for j in empty:
            near = np.clip(y[j], lo, hi)
            b = int(np.argmin(((near - y[j]) ** 2).sum(axis=1)))
            x = near[b]
            rho = 0.25 * 0.5**r * float((hi[b] - lo[b]).min())
            others = np.arange(n) != j
            reach = float(np.sqrt(((y[others] - y[j]) ** 2).sum(axis=1)).max())
            rival = float((g[others] - ((x - y[others]) ** 2).sum(axis=1)).max())
            g[j] = rival + float(((x - y[j]) ** 2).sum()) + 2.0 * rho * reach
        g = center_weights(g)
        p = measure(g)
    return g, p


def _roots(parent: np.ndarray) -> np.ndarray:
    # Pointer jumping: each node's parent becomes its grandparent until every
    # node points at its tree's root, in O(log depth) steps.
    while True:
        up = parent[parent]
        if not np.count_nonzero(up != parent):
            return parent
        parent = up


def _connected(hess: np.ndarray) -> bool:
    """Whether the facet graph, the nonzero pattern of H, is connected.

    The edges are the upper triangle's entries. Every node starts as its own
    root; each round hooks every root to the least root across its trees'
    edges, then jumps pointers until each node points at its root. Roots
    only decrease, so no cycle forms, and the rounds end when every edge
    lies in one tree; the graph is connected when node 0 roots them all.
    """
    n = hess.shape[0]
    # A flat nonzero of a bool mask is several times faster than np.nonzero
    # of the 2-D float array; np.count_nonzero is cheaper than .all() or
    # .any() on the few-node graphs of small solves.
    a, b = np.divmod(np.flatnonzero(hess != 0.0), n)
    upper = a < b
    a, b = np.concatenate([a[upper], b[upper]]), np.concatenate([b[upper], a[upper]])
    root = np.arange(n)
    while True:
        ends, others = root[a], root[b]
        if not np.count_nonzero(ends != others):
            return not np.count_nonzero(root)
        np.minimum.at(root, ends, others)
        root = _roots(root)


def _newton_step(g, p, gnorm, floor, bound, fallback, measure) -> tuple:
    """One damped Newton step from g with pass p; returns (tau, g', pass').

    The direction d solves (H - (1/n) 1 1^T) d = -grad E on G_0, with a ridge
    -lambda I added when the facet graph is split: H is then singular
    beyond the constant vector. Halving tau from 1, the first trial with
    every cell's mass >= floor, ||grad|| <= (1 - tau/2) gnorm and
    ||g||_inf <= bound is accepted; if none is, or p has no Hessian, the
    step is g + fallback grad E (the paper's 1/L step) and tau reads
    fallback.
    """
    hess = p.hess
    n = g.size
    scale = 0.0 if hess is None else -float(np.trace(hess)) / n
    if scale > 0.0:
        system = hess - 1.0 / n
        if not _connected(hess):
            system[np.diag_indices(n)] -= _RIDGE * scale
        d = np.linalg.solve(system, -p.grad)
        tau = 1.0
        for _ in range(_HALVINGS):
            trial = center_weights(g + tau * d)
            if float(np.abs(trial).max()) <= bound:
                q = measure(trial)
                qnorm = math.sqrt(float(q.grad.dot(q.grad)))
                if qnorm <= (1.0 - tau / 2.0) * gnorm and q.mass.min() >= floor:
                    return tau, trial, q
            tau *= 0.5
    g = center_weights(g + fallback * p.grad)
    return fallback, g, measure(g)


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
