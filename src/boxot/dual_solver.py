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
    ``eta_spent`` sums the failure probability charged to the mc draws the
    solve made (:func:`_mc_failure`): eta T/(T + 1) after T mc passes, and
    0 on exact.
    """

    eps_prime: float
    energy_accuracy: float
    noise_budget: float
    grad_threshold: float
    L: float
    M: int
    backend: str
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
    eta_spent: float = 0.0
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
        """Write the plot-ready trace, one row per iterate: t, grad_norm,
        energy_estimate, step_size, wallclock_ms, g_inf_norm."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,grad_norm,energy_estimate,step_size,wallclock_ms,g_inf_norm\n")
            for i in range(len(self.t)):
                fh.write(
                    f"{self.t[i]},{self.grad_norm[i]!r},"
                    f"{self.energy_estimate[i]!r},{self.step_size[i]!r},"
                    f"{self.wallclock_ms[i]!r},{self.g_inf_norm[i]!r}\n"
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


def _grad_mass(samples: SampleSet, weights, vols) -> tuple[np.ndarray, np.ndarray]:
    """grad E(g), mean-centred onto G_0, and the cell masses, from cell volumes.

    ``vols`` (k, n) holds every box's cell volumes, exact or estimated, and
    ``weights`` the boxes' densities gamma. Cell j's mass is the sum over
    boxes of gamma vol(L_j n H), and grad E(g)_j = b_j - mass_j.
    """
    resid = samples.demands.copy()
    for w, v in zip(weights, vols):
        resid -= w * v
    return resid - resid.sum() / resid.size, samples.demands - resid


def _evaluate(instance: Instance, g: np.ndarray, hessian: bool = False) -> _Pass:
    """E(g), grad E(g) and, on request, its Hessian on the exact backend.

    One call of ``geometry._box_batch`` builds the cells of g for the
    density's hull and measures every box on them, checking that each
    box's cell volumes sum to its volume. E(g) is the density's closed-form
    integral of ||x||^2 (``BoxDensity.moments[2]``) plus sum_boxes gamma
    sum_j [(||y_j||^2 - g_j) vol(L_j n H) - 2 y_j . int_{L_j n H} x] plus
    <g, b>; the volumes give the gradient and the cell masses
    (:func:`_grad_mass`). The Hessian's off-diagonal entry is sum_boxes
    gamma measure(facet_ij n H) / (2 ||y_i - y_j||); its diagonal makes
    every row sum to zero (Kitagawa, Merigot and Thibert 2019, with the
    factor 2 of the cost ||x - y||^2).
    """
    g = _finite_weights(g, instance.samples.n)
    samples = instance.samples
    y = samples.points
    n = samples.n
    boxes, weights = zip(*instance.density.boxes)
    batch = _box_batch(samples, g, instance.density.hull, boxes, hessian)
    grad, mass = _grad_mass(samples, weights, batch.vols)
    hess = np.zeros((n, n)) if hessian else None
    cells = batch.vols @ (samples.squared_norms - g)
    cells -= 2.0 * (batch.firsts.reshape(len(boxes), -1) @ y.ravel())
    total = instance.density.moments[2] + float(np.dot(weights, cells))
    if hessian:
        box, j, i, measure = batch.pieces
        dist = np.sqrt(((y[i] - y[j]) ** 2).sum(axis=1))
        np.add.at(hess, (j, i), np.array(weights)[box] * measure / (2.0 * dist))
        hess.flat[:: n + 1] -= hess.sum(axis=1)
    return _Pass(total + float(g @ samples.demands), grad, mass, hess)


def energy(instance: Instance, g: np.ndarray) -> float:
    """Dual energy E(g) from one exact pass (:func:`_evaluate`).

    Closed-form integral of ||x||^2 plus clipped-cell volumes and first
    moments per box; above dimension 3 a ValueError before any geometry.
    """
    return _evaluate(instance, g).energy


def gradient(instance: Instance, g: np.ndarray) -> np.ndarray:
    """grad E(g), mean-centred onto G_0, from one exact pass (:func:`_evaluate`).

    grad E(g)_j = b_j - sum_boxes gamma vol(L_j(g) n H); an instance above
    dimension 3 is refused with a ValueError before any geometry.
    """
    return _evaluate(instance, g).grad


def _mc_gradient(
    instance: Instance,
    g: np.ndarray,
    eps_bar: float,
    eta_prime: float,
    seed,
    threshold: float,
) -> tuple[np.ndarray, int]:
    """Monte Carlo grad E(g), mean-centred onto G_0, and the points drawn.

    Each box's cell volumes are estimated to additive accuracy
    (eps_bar/sqrt(n)) vol(H) with per-box failure eta_prime/k, which gives
    ||g_m - grad E|| <= eps_bar for the full draw's estimate g_m, with
    probability >= 1 - eta_prime. Projection onto G_0 is a contraction
    (grad E lies in G_0), so it never increases the error.

    The draw ends at the first checked prefix whose estimate g_k, from the
    first k of the m points of every box, satisfies ||g_k|| + (3 + m/k)
    eps_bar / 2 <= threshold (the solver's stop on ||grad||), and returns
    g_k. Hoeffding's supermartingale and Ville's inequality put every
    prefix within (m/k + 1) eps_bar / 2 of grad E at once, on an event
    inside the full draw's own of probability >= 1 - eta_prime (see
    :func:`cell_box_volumes_mc`). There ||g_m|| <= ||grad E|| + eps_bar <=
    ||g_k|| + (3 + m/k) eps_bar / 2 <= threshold: the full draw would pass
    the threshold too, so a solver that stops on it stops at the same
    iterate. The rule can hold at k only if k >= m eps_bar / (2 threshold -
    3 eps_bar - 2 ||g_k||), so the first check is at k_0 = m eps_bar /
    (2 threshold - 3 eps_bar) (m/13 at the solver's threshold of 8
    eps_bar), and a check that fails at prefix norm nu plans the next at
    m eps_bar / (2 threshold - 3 eps_bar - 2 nu), or a block further when
    that denominator is not positive. Every box is drawn in lockstep to
    each check's row, on one pool of threads. A prefix that never
    certifies, as at any threshold <= 2 eps_bar, runs to m and returns the
    full draw's bits. The count is the points drawn, summed over the k
    boxes.
    """
    samples = instance.samples
    boxes, weights = zip(*instance.density.boxes)
    k = len(boxes)
    per_cell = eps_bar / math.sqrt(samples.n)
    m = mc_sample_count(samples.n, per_cell, eta_prime / k)
    rows = m

    def plan(volumes: np.ndarray | None, prefix_rows: int) -> float | None:
        norm = 0.0
        if volumes is not None:
            # The solver's gradient norm of the prefix, to the same bits.
            prefix = _grad_mass(samples, weights, volumes)[0]
            norm = math.sqrt(float(prefix.dot(prefix)))
            if norm + (3.0 + m / prefix_rows) * eps_bar / 2.0 <= threshold:
                nonlocal rows
                rows = prefix_rows
                return None
        slack = 2.0 * threshold - 3.0 * eps_bar - 2.0 * norm
        return m * eps_bar / slack if slack > 0.0 else math.inf

    volumes = cell_box_volumes_mc(
        samples, g, boxes, per_cell, eta_prime / k, seed, plan=plan
    )
    return _grad_mass(samples, weights, volumes)[0], rows * k


def _mc_energy(
    instance: Instance, g: np.ndarray, accuracy: float, eta_prime: float, seed
) -> tuple[float, int]:
    """Monte Carlo E(g) and the points drawn, summed over the k boxes.

    The density's closed-form integral of ||x||^2 (``BoxDensity.moments[2]``),
    plus <g, b>, plus each box's gamma vol(H) times the mean over uniform
    draws, every box in lockstep, of h(x) = min_j(||y_j||^2 - 2 x.y_j - g_j),
    the potential min_j(||x - y_j||^2 - g_j) less ||x||^2. Hoeffding counts
    give additive error ``accuracy`` > 0 at failure probability eta_prime in
    (0, 1), both checked before any draw, from h's range: with ||x||,
    ||y_j|| <= D, ||y_j||^2 - 2 x.y_j lies in [-D^2, 3 D^2] (t^2 - 2 D t >=
    -D^2), so h lies in [-D^2 - ||g||_inf, 3 D^2 + ||g||_inf], of width
    4 D^2 + 2 ||g||_inf, as the potential's range [-||g||_inf, 4 D^2 +
    ||g||_inf] is.
    """
    samples = instance.samples
    g = _finite_weights(g, samples.n)
    if not 0.0 < accuracy < math.inf:
        raise ValueError(f"accuracy must be finite and positive, not {accuracy}")
    if not 0.0 < eta_prime < 1.0:
        raise ValueError(f"eta_prime must lie in (0, 1), not {eta_prime}")
    rng_range = 4.0 * instance.stats.D**2 + 2.0 * float(np.abs(g).max())
    k = instance.density.k
    m = int(
        math.ceil(rng_range**2 * math.log(2.0 * k / eta_prime) / (2.0 * accuracy**2))
    )
    boxes, weights = zip(*instance.density.boxes)
    total = instance.density.moments[2]
    for value in potential_integral_mc(samples, g, boxes, weights, m, seed).tolist():
        total += value
    return total + float(g @ samples.demands), m * k


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


def _mc_failure(eta: float, t: int) -> float:
    """Failure probability eta/(2 t (t + 1)) charged to each mc draw of pass t.

    The gradient draw and the energy draw of iterate t each get it; summed
    over t = 1..T it telescopes to (eta/2) T/(T + 1) < eta/2 per draw
    stream. :func:`solve_dual` says why the split is anytime and chosen.
    """
    return eta / (2.0 * t * (t + 1.0))


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
    E(g*) - E(g_Mbar) <= eps'. Each mc pass also estimates E at its
    iterate from an independent draw, to ``trace.energy_accuracy`` =
    eps'/4. The iterate and the stopping time depend on the gradient draws
    only, so the last pass's energy, which the solve returns on both
    backends, carries that bound.

    Both bounds hold together with probability >= 1 - eta. The gradient
    draw and the energy draw of pass t are each charged failure eta_t =
    eta/(2 t (t + 1)) (:func:`_mc_failure`; the gradient's is split evenly
    over the k boxes). Each stream sums to (eta/2) T/(T + 1) < eta/2 over
    any T passes, so a union bound over both streams fails with
    probability < eta. That holds at the solve's random stopping time too:
    eta_t depends on t alone, not on M or on when the solve stops, and
    each draw is fresh from its own seed (seed, t), so its failure has
    probability <= eta_t given every earlier draw. The draws a solve makes
    are then among those of a solve that never stops, whose failures over
    all t >= 1 sum to < eta. The a-priori split eta/(M + 1) charges every
    draw ln(M) in its Hoeffding count, with M of 1e5-1e18, while solves
    stop within a few passes; eta_t charges ln(2 t (t + 1)). Near t = M its
    count is at most 2x the a-priori one, since ln(t^2) <= 2 ln M. A
    slower schedule, such as eta_t ~ 1/((t + 1) ln^2(t + 1)), would trim
    that factor at the price of more points at small t, where the solves
    stop, so it was not chosen. ``trace.eta_spent`` sums the eta_t of the
    draws made.

    Each mc gradient draw ends at the first checked prefix whose estimate
    certifies that the full draw's norm is below the threshold too (see
    :func:`_mc_gradient`): on an event inside the full draw's own of the
    same probability, the solve stops at the same t with the same iterate
    and the same energy, and only the last row's ``grad_norm`` is the
    prefix's. A draw whose prefix never certifies is the full draw, bit
    for bit.
    """
    stats = instance.stats
    n = instance.samples.n
    backend = config.volume_backend
    if backend == "auto":
        backend = "exact" if instance.dimension <= EXACT_MAX_DIMENSION else "mc"
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

    trace = SolverTrace(
        eps_prime=eps_p,
        energy_accuracy=0.0 if backend == "exact" else eps_p / 4.0,
        noise_budget=noise_budget,
        grad_threshold=grad_threshold,
        L=stats.L,
        M=big_m,
        backend=backend,
    )

    def measure(g: np.ndarray, t: int) -> _Pass:
        """The pass at iterate t: one exact evaluation, with the Hessian when
        another step can follow, or the mc gradient and energy estimates."""
        trace.passes += 1
        if backend == "exact":
            return _evaluate(instance, g, t < m_eff)
        failure = _mc_failure(config.eta, t)
        grad, drawn = _mc_gradient(
            instance, g, noise_budget, failure, (config.seed, t), grad_threshold
        )
        trace.mc_points_gradient += drawn
        e_here, drawn = _mc_energy(
            instance, g, trace.energy_accuracy, failure, (config.seed, t, 1)
        )
        trace.mc_points_energy += drawn
        trace.eta_spent += 2.0 * failure
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
    lo, hi = instance.density.bounds
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
