"""Independent ground-truth solvers used to validate the dual pipeline.

Everything here is deliberately implemented by routes the production solver
never takes: midpoint discretization plus an exactly-certified transportation
solve, closed-form 1D monotone matching, and finite differences of the
energy. Tests and the ``verify`` command compare the two routes.

The exact transport stores its problem sink-major: the costs are (n, m)
C-contiguous arrays, one row of m sources per sink, so every per-source
step (the marginals, reduced costs and complementary slackness of the
certificate, the sort's threshold and plan, the band's preferred sink and
gap) is an elementwise pass over n rows rather than a reduction over a
short trailing axis. The private helpers take and return the (m, n)
transposes of those arrays, which are views, and so is
``DiscretePlan.flows``.

The transport LPs are the module's only use of scipy, so ``scipy.sparse``
and ``scipy.optimize`` are imported inside :func:`_arc_lp`: importing this
module (the CLI does) loads neither, and a one- or two-sink transport
solve, which needs no LP, never loads them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import MASS_TOL, BoxDensity, Instance, SampleSet

DISCRETIZE_CELL_CAP = 10_000_000

# Wall-clock limit of one HiGHS solve; a solve that hits it yields no plan.
_LP_SECONDS = 300.0

_log = logging.getLogger("boxot")


class OracleFailure(RuntimeError):
    """The transport solve produced no plan that the certificate proves optimal."""


# Rational scaling of the transportation problem: masses are apportioned to
# integer units out of MASS_UNITS; costs are rounded to an adaptive quantum
# chosen so the scaled objective stays far inside int64.
MASS_UNITS = 2**36
_INT64_BUDGET = 4.0e18


class WeightedPoints(NamedTuple):
    """Discrete measure: points (m, l) with nonnegative masses (m,)."""

    points: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True, eq=False)
class DiscretePlan:
    """Optimal transportation plan between weighted points and samples.

    ``flows[i, j]`` is the mass moved from source i to sample j; ``cost`` is
    sum_ij flows_ij ||x_i - y_j||^2 evaluated on the unscaled costs.
    ``rounding_cost_bound`` bounds the cost perturbation introduced by the
    rational scaling, so callers can fold it into tolerances. ``route``
    names the step whose plan the certificate accepted: ``"sorted"`` (the
    one- or two-sink sort), ``"banded"`` (the restricted LP) or ``"full"``
    (HiGHS on every arc).
    """

    sources: WeightedPoints
    flows: np.ndarray
    cost: float
    rounding_cost_bound: float
    route: str


def discretize_source(density: BoxDensity, resolution: int) -> WeightedPoints:
    """Midpoint discretization: resolution^l equal cells per box.

    Each cell contributes one point at its center with mass
    gamma_i * cellVolume; the total mass equals the density's mass.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    l = density.dimension
    cells = resolution**l * density.k
    if cells > DISCRETIZE_CELL_CAP:
        raise ValueError(
            f"discretization would create {cells} cells (cap {DISCRETIZE_CELL_CAP})"
        )
    all_pts = []
    all_mass = []
    for box, w in density.boxes:
        axes = [
            box.lo[d] + (np.arange(resolution) + 0.5) * box.widths[d] / resolution
            for d in range(l)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        all_pts.append(pts)
        all_mass.append(np.full(pts.shape[0], w * box.volume / resolution**l))
    return WeightedPoints(np.vstack(all_pts), np.concatenate(all_mass))


def discretization_error_bound(
    density: BoxDensity, samples: SampleSet, resolution: int
) -> float:
    """Bound on |discrete OT cost - p*| from midpoint discretization.

    Rerouting each cell's mass between its center and an arbitrary interior
    point changes the per-unit cost by at most 2 D delta, with delta the
    largest cell diagonal; the bound holds in both directions (sandwich).
    """
    stats = Instance(density, samples).stats
    delta = max(
        float(np.linalg.norm(box.widths)) / resolution for box, _ in density.boxes
    )
    return 2.0 * stats.D * delta


# ---------------------------------------------------------------------------
# exact discrete transport
# ---------------------------------------------------------------------------


def _apportion(weights: np.ndarray, total_units: int) -> np.ndarray:
    """Largest-remainder rounding of weights to integers summing to total_units."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    raw = w * total_units
    units = np.floor(raw).astype(np.int64)
    short = int(total_units - units.sum())
    if short > 0:
        order = np.argsort(-(raw - units))
        units[order[:short]] += 1
    return units


def _scaled_costs(points, sinks):
    """Squared distances C, their integer rounding C_int and its scale.

    C and C_int are built sink-major, one C-contiguous row of m sources per
    sink, by adding the squared differences axis by axis, and returned as
    their (m, n) transposes. The quantum keeps every integer objective value
    (MASS_UNITS units moved at cost at most max C_int) inside int64.
    """
    C = sum((coords - sink[:, None]) ** 2 for coords, sink in zip(points.T, sinks.T))
    max_c = float(C.max())
    quantum_inv = max(1.0, math.floor(_INT64_BUDGET / (MASS_UNITS * max(max_c, 1.0))))
    return C.T, np.rint(C * quantum_inv).astype(np.int64).T, quantum_inv


def _certify_optimal(C_int, a_int, b_int, x, duals):
    """Exact integer optimality certificate for a candidate transportation plan.

    Rounds the candidate flow and duals to integers (integral optima exist by
    total unimodularity of the transportation matrix), then verifies, in
    exact integer arithmetic: nonnegativity, both marginals, dual
    feasibility of the reduced costs, and complementary slackness. An
    integer flow or integer duals skip only their rounding, which cannot
    fail on them. The checks run sink-major, on the (n, m) transposes.
    Returns the integer flow, shaped (m, n), on success, None on any failure.
    """
    m, n = C_int.shape
    X = np.reshape(x, (m, n))
    if X.dtype.kind != "i":
        rounded = np.rint(X).astype(np.int64)
        if np.abs(X - rounded).max() > 1e-3:
            return None
        X = rounded
    flows = X.T
    if (flows < 0).any():
        return None
    if (flows.sum(axis=0) != a_int).any() or (flows.sum(axis=1) != b_int).any():
        return None
    if duals.dtype.kind != "i":
        rounded = np.rint(duals).astype(np.int64)
        if np.abs(duals - rounded).max() > 1e-4:
            return None
        duals = rounded
    reduced = C_int.T - duals[m:, None] - duals[:m]
    if (reduced < 0).any():
        return None
    if ((reduced > 0) & (flows > 0)).any():
        return None
    return X


def _arc_lp(costs, src, snk, a_int, b_int, method):
    """HiGHS on the transportation LP restricted to the arcs (src[t], snk[t]).

    Returns the vertex (arc flows, equality duals: sources then sinks), or
    None when the solve does not end optimal (infeasible restrictions, or
    ``_LP_SECONDS`` spent).
    """
    # Imported on first use, so that importing the CLI loads no scipy module.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    m, n = a_int.size, b_int.size
    arcs = np.arange(src.size)
    A_eq = sp.csr_matrix(
        (
            np.ones(2 * src.size),
            (np.concatenate([src, m + snk]), np.concatenate([arcs, arcs])),
        ),
        shape=(m + n, src.size),
    )
    b_eq = np.concatenate([a_int, b_int]).astype(float)
    res = linprog(
        costs.astype(float), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method=method,
        options={"time_limit": _LP_SECONDS},
    )
    if res.status != 0:
        return None
    return res.x, res.eqlin.marginals


def _full_plan(C_int, a_int, b_int):
    """Certified (X, sink duals, "full") from HiGHS on all m*n arcs, or None.

    HiGHS's default solver goes first on small problems, its interior point
    method on large ones, then the dual simplex. Beyond the base case of the
    banded route this is the fallback, which can take minutes: it is
    logged, and each HiGHS call stops after ``_LP_SECONDS``.
    """
    m, n = C_int.shape
    small = m <= _FULL_LP_SOURCES
    if not small:
        _log.warning(
            "exact transport: solving the full %d x %d LP (HiGHS limit %g s per try)",
            m, n, _LP_SECONDS,
        )
    src, snk = np.divmod(np.arange(m * n), n)
    for method in ("highs" if small or m * n <= 50_000 else "highs-ipm", "highs-ds"):
        lp = _arc_lp(C_int.ravel(), src, snk, a_int, b_int, method)
        if lp is not None:
            X = _certify_optimal(C_int, a_int, b_int, *lp)
            if X is not None:
                return X, np.rint(lp[1][m:]).astype(np.int64), "full"
    return None


# The banded route: problems of up to _FULL_LP_SOURCES sources go to HiGHS
# whole (its time grows much faster than linearly in m on these degenerate
# LPs); larger ones take their sink duals from a subsample one eighth the
# size (drawn with _SUBSAMPLE_SEED) and solve a band of at least
# ceil(m / _BAND_DIVISOR) sources. A failed round retries with a band four
# times as wide and duals rebalanced by _BALANCE_SWEEPS sweeps, for at most
# _BAND_ROUNDS rounds.
_FULL_LP_SOURCES = 500
_BAND_DIVISOR = 64
_BAND_ROUNDS = 3
_BALANCE_SWEEPS = 4
_SUBSAMPLE_SEED = 0


def _fill(threshold, a_int, demand):
    """Sources by increasing threshold, their running mass, and the place
    where it first reaches demand: a sink whose dual is the threshold there
    is just filled by the sources up to it."""
    order = np.argsort(threshold, kind="stable")
    carried = np.cumsum(a_int[order])
    return order, carried, int(np.searchsorted(carried, demand))


def _balance_sinks(C_int, a_int, b_int, v):
    """Coordinate ascent on the discrete dual, one sink at a time.

    Sets each v_j but the last (the duals are defined up to a constant) to
    where the sources that prefer sink j just carry its demand b_j.
    """
    costs = C_int.T
    v = v.copy()
    for _ in range(_BALANCE_SWEEPS):
        for j in range(v.size - 1):
            threshold = costs[j] - np.delete(costs - v[:, None], j, axis=0).min(axis=0)
            order, _, reached = _fill(threshold, a_int, b_int[j])
            v[j] = threshold[order[reached]]
    return v


def _sorted_plan(C_int, a_int, b_int):
    """Certified (X, sink duals, "sorted") of a one- or two-sink problem, or None.

    With one sink every source goes to it (v = 0). With two the problem is
    a fractional knapsack (Dantzig 1957): sink 0 takes the sources by
    increasing C_i0 - C_i1 until it holds b_0, and the source s that crosses
    b_0 splits its mass. The duals v = (C_s0 - C_s1, 0) and
    u_i = min_j (C_ij - v_j) leave zero reduced cost on every used arc,
    and :func:`_certify_optimal` checks the plan as it checks an LP's.
    """
    m, n = C_int.shape
    costs = C_int.T
    v = np.zeros(n, dtype=np.int64)
    if n == 1:
        flows = a_int[None, :]
    else:
        threshold = costs[0] - costs[1]
        order, carried, reached = _fill(threshold, a_int, b_int[0])
        s = order[reached]
        first = np.zeros(m, dtype=np.int64)
        first[order[:reached]] = a_int[order[:reached]]
        first[s] = b_int[0] - (carried[reached] - a_int[s])
        flows = np.stack([first, a_int - first])
        v[0] = threshold[s]
    u = (costs - v[:, None]).min(axis=0)
    X = _certify_optimal(C_int, a_int, b_int, flows.T, np.concatenate([u, v]))
    return None if X is None else (X, v, "sorted")


def _banded_plan(C_int, a_int, b_int):
    """Certified (X, sink duals, route) from a sort or small LPs, or None.

    One- and two-sink problems go to :func:`_sorted_plan` first, which
    needs no LP; if its plan fails the certificate, the LP route below runs.
    The sink duals v are guessed from a stratified subsample of the sources
    (the positive-mass sources cut in order into equal runs, one drawn from
    each with a fixed seed: a fixed stride aliases with the rows of a grid
    whose length it divides) with its masses re-apportioned to the same unit
    total, solved recursively. Under v,
    source i prefers the sink minimising C_ij - v_j; its gap is the margin to
    the runner-up. The sources with the smallest gaps are free, and so are,
    smallest gap first, as many of a sink's own sources as keep the rest
    within its demand; every other source is fixed to its preferred sink.
    HiGHS moves the free sources' mass, over their arcs whose reduced cost is
    at most the largest free gap, into the demand the fixed sources leave.
    The fixed sources take u_i = C_ij - v_j from the new duals, and the
    assembled plan must pass :func:`_certify_optimal` on the whole problem.
    A round whose band is infeasible or whose plan fails the certificate is
    retried with a wider band and the duals rebalanced by
    :func:`_balance_sinks`. The route names the step that certified the
    plan: ``"sorted"``, ``"full"`` (HiGHS on every arc, up to
    ``_FULL_LP_SOURCES`` sources) or ``"banded"``.
    """
    m, n = C_int.shape
    costs = C_int.T
    if n <= 2 and (plan := _sorted_plan(C_int, a_int, b_int)) is not None:
        return plan
    if m <= _FULL_LP_SOURCES:
        return _full_plan(C_int, a_int, b_int)
    positive = np.flatnonzero(a_int)
    count = min(positive.size, max(_FULL_LP_SOURCES, positive.size // 8))
    edges = np.arange(count + 1) * positive.size // count
    draws = np.random.default_rng(_SUBSAMPLE_SEED).random(count)
    sub = positive[edges[:-1] + (draws * np.diff(edges)).astype(np.int64)]
    guess = _banded_plan(costs[:, sub].T, _apportion(a_int[sub], MASS_UNITS), b_int)
    if guess is None:
        return None
    v = guess[1]
    rows = np.arange(m)
    free_count = -(-m // _BAND_DIVISOR)
    for attempt in range(_BAND_ROUNDS):
        if attempt:
            v = _balance_sinks(C_int, a_int, b_int, v)
            free_count = min(m, 4 * free_count)
        shifted = costs - v[:, None]
        low = shifted[0].copy()
        best = np.zeros(m, dtype=np.intp)
        for j in range(1, n):
            best[shifted[j] < low] = j
            np.minimum(low, shifted[j], out=low)
        reduced = shifted - low
        is_best = np.arange(n)[:, None] == best
        gap = np.where(is_best, np.iinfo(np.int64).max, reduced).min(axis=0)
        order = np.argsort(gap, kind="stable")
        fixed = np.ones(m, dtype=bool)
        fixed[order[:free_count]] = False
        b_rest = b_int - np.bincount(
            best[fixed], weights=a_int[fixed], minlength=n
        ).astype(np.int64)
        for j in np.flatnonzero(b_rest < 0):
            mine = order[fixed[order] & (best[order] == j)]
            released = mine[: np.searchsorted(np.cumsum(a_int[mine]), -b_rest[j]) + 1]
            fixed[released] = False
            b_rest[j] += a_int[released].sum()
        free = np.flatnonzero(~fixed)
        delta = gap[free].max()
        # The transpose makes np.nonzero list the arcs source by source.
        fi, fj = np.nonzero((reduced[:, free] <= delta).T)
        lp = _arc_lp(costs[fj, free[fi]], fi, fj, a_int[free], b_rest, "highs")
        if lp is None:
            continue
        x, duals = lp
        v = np.rint(duals[free.size:]).astype(np.int64)
        u = costs[best, rows] - v[best]
        u[free] = np.rint(duals[: free.size]).astype(np.int64)
        flows = np.zeros((n, m))
        flows[best[fixed], rows[fixed]] = a_int[fixed]
        flows[fj, free[fi]] = x
        X = _certify_optimal(C_int, a_int, b_int, flows.T, np.concatenate([u, v]))
        if X is not None:
            return X, v, "banded"
    return None


def solve_discrete_ot_exact(
    sources: WeightedPoints, samples: SampleSet
) -> DiscretePlan:
    """Exact optimal transport from weighted points to samples.

    The problem is rationally scaled (masses apportioned to ``MASS_UNITS``
    integer units, squared-distance costs rounded to an adaptive quantum),
    and a candidate vertex plan with duals is proven optimal for the whole
    m x n problem by an exact integer certificate (:func:`_certify_optimal`).
    The problem is stored sink-major: the costs are (n, m) arrays, one
    C-contiguous row of sources per sink, so each step of the sort, the
    band and the certificate is an elementwise pass over n rows; the flows
    come back as an (m, n) view of such an array.
    With one or two sinks the candidate comes from a sort (a fractional
    knapsack, :func:`_sorted_plan`) and no LP is solved. Otherwise, up to
    ``_FULL_LP_SOURCES`` sources it comes from HiGHS on the full LP, and
    above that from a small restricted LP: sources far from every Laguerre
    boundary of subsample-guessed duals are fixed to their sink and only a
    band near the boundaries is solved (Schmitzer 2016's sparse support,
    checked by full pricing). If that route fails to certify, HiGHS solves
    the full LP. Each full solve retries with the
    dual simplex. The LP engine is only a candidate generator, so no
    iterative tolerance enters the result. Ties between optimal vertices
    are resolved by the stable sort or the engine's deterministic pivoting;
    support comparisons in tests use instances with unique optima.
    """
    pts = np.atleast_2d(np.asarray(sources.points, dtype=float))
    masses = np.asarray(sources.masses, dtype=float)
    demands = samples.demands
    total = masses.sum()
    if abs(total - demands.sum()) > MASS_TOL:
        raise ValueError("source mass and demand totals do not balance")
    m, n = masses.size, demands.size

    C, C_int, quantum_inv = _scaled_costs(pts, samples.points)
    a_int = _apportion(masses, MASS_UNITS)
    b_int = _apportion(demands, MASS_UNITS)

    plan = _banded_plan(C_int, a_int, b_int)
    if plan is None and m > _FULL_LP_SOURCES:
        plan = _full_plan(C_int, a_int, b_int)
    if plan is None:
        raise OracleFailure("transportation solve failed to produce a certified plan")

    X, _, route = plan
    flows = X * (total / MASS_UNITS)
    # The product in source-major order, so the sum adds in that order.
    cost = float(np.multiply(flows, C, order="C").sum())
    slop = float(C.max()) * (m + n) / MASS_UNITS * total + 1.0 / quantum_inv
    return DiscretePlan(
        sources=WeightedPoints(pts, masses),
        flows=flows,
        cost=cost,
        rounding_cost_bound=float(slop),
        route=route,
    )


# ---------------------------------------------------------------------------
# 1D exact semidiscrete transport
# ---------------------------------------------------------------------------


def semidiscrete_1d_exact(instance: Instance) -> tuple[float, float, np.ndarray]:
    """Exact (p*, crossTerm, breakpoints) in one dimension.

    1D optimal plans are monotone, so quantile matching is exact: walk the
    density's CDF and cut at the running demand sums of the sorted samples,
    then integrate (x - y_j)^2 and x y_j in closed form on every piece.
    Breakpoints are the n-1 cut positions in sorted-sample order.
    """
    if instance.dimension != 1:
        raise ValueError("semidiscrete_1d_exact requires a 1D instance")
    samples = instance.samples
    order = np.argsort(samples.points[:, 0])
    ys = samples.points[order, 0]
    bs = samples.demands[order]
    n = ys.size

    pieces = sorted(
        ((float(box.lo[0]), float(box.hi[0]), w) for box, w in instance.density.boxes),
        key=lambda p: p[0],
    )

    p_star = 0.0
    cross = 0.0
    breakpoints = []

    def _accumulate(u: float, v: float, y: float, gamma: float) -> None:
        nonlocal p_star, cross
        if v <= u:
            return
        p_star += gamma * ((v - y) ** 3 - (u - y) ** 3) / 3.0
        cross += gamma * y * (v**2 - u**2) / 2.0

    j = 0
    need = float(bs[0])
    for lo, hi, gamma in pieces:
        x = lo
        while j < n - 1 and need <= gamma * (hi - x) + 1e-15:
            x_stop = min(hi, max(x, x + need / gamma))
            _accumulate(x, x_stop, float(ys[j]), gamma)
            breakpoints.append(x_stop)
            x = x_stop
            j += 1
            need = float(bs[j])
        _accumulate(x, hi, float(ys[j]), gamma)
        need -= gamma * (hi - x)
    return p_star, cross, np.asarray(breakpoints)


def finite_difference_gradient(
    instance: Instance, g: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of the exact dual energy (l <= 3)."""
    from .dual_solver import energy

    if h <= 0:
        raise ValueError("h must be positive")
    g = np.asarray(g, dtype=float)
    out = np.zeros_like(g)
    for j in range(g.size):
        e = np.zeros_like(g)
        e[j] = h
        out[j] = (energy(instance, g + e) - energy(instance, g - e)) / (2.0 * h)
    return out
