"""Hyperrectangle and Laguerre-cell geometry.

Data containers for box-supported densities and sample sets, point
classification into Laguerre (power) cells, Monte-Carlo and exact cell
volumes, and closed-form moments of the density.

Exact cell moments (l <= 3) come from a restricted power diagram, read off
the lower convex hull of the lifted points (y_j, ||y_j||^2 - g_j): each
lower facet is a vertex of the diagram, each lower edge a facet between two
cells, and a site that is not a vertex of that hull has an empty cell
(Aurenhammer 1987). The hull is a sort and a monotone chain in 1-D and one
Qhull call in 2-D and 3-D, built once per iterate (one g) and shared by
every box. In 2-D and 3-D, 2l ghost sites far from the sinks bound every
cell without entering the boxes; each lower facet's plane gives its vertex,
and one sort orders every cell's corners. Each cell is then cut straight
into every box of the pass that its bounding box meets, all boxes at once,
in numpy: one cut step per face that a cell crosses, at most 2l per pass,
and one moment sum for all boxes. Every side of a cell carries the neighbour
across it, which gives the facet measures that the dual solver's Hessian
needs. Where Qhull does not run (n <= l + 1), or rejects the sinks or drops
one as coplanar, each cell is clipped by the half-spaces of all the other
sinks: in 2-D in plain floats, box by box; in 3-D by the same numpy cut as
the box faces, n - 1 rounds of it on copies of the hull, after which the
cells are measured like the lifted ones. One call, :func:`_box_batch`,
picks the route, builds the cells and measures a list of boxes into one
batch of (k, n) arrays, which the dual solver reads whole and which raises
:class:`VolumeSumError` unless each box's cell volumes sum to its volume
within ``VOLUME_SUM_TOL`` of it. The Qhull call is the module's
only use of scipy, so ``scipy.spatial`` is imported inside
:func:`_power_neighbours`: a process loads it at its first 2-D or 3-D
diagram with at least l + 2 sinks, never at import.

All operations are pure functions on immutable inputs. Monte-Carlo sampling
is deterministic given (seed, i) for box i of a call; see :func:`box_rng`
for the substream rule. Each stretch of draws is split into row ranges over
one thread per usable core; a worker jumps its copy of a box's stream to its
first row, so every point's value depends only on its position in the
``(seed, i)`` stream, never on the worker count. One kernel scores
every point from its unit draw u, not from its point x = lo + w u: with the
box folded into the sinks, ||x - y_j||^2 - g_j - ||x||^2 is u . W_j + c_j.
The volume count labels a point by the first index of its least score, or
with n = 2 sinks by one projection ``u . v < c'``; ties go to the first
index. :func:`classify_points` is that rule on the unit cube [0, 1]^l, so a
count label can differ from ``classify_points(lo + w u)`` only within
rounding of a cell boundary. The potential integral averages the least
score, the potential less ||x||^2, whose integral the dual energy takes in
closed form (:attr:`BoxDensity.moments`). Both draw any number of
boxes in lockstep through one loop on one pool of threads (:func:`_draw`).
The potential adds one block after another; the volume count's caller may
plan its prefix checks and end it at any checked prefix. Each line boundary
of Hoeffding's supermartingale, tuned at a row of the caller's choice,
bounds every prefix's estimate at once, at the count's failure probability;
the line tuned at the full count lies inside the full count's own event.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

MASS_TOL = 1e-9

# Hard ceiling on Monte-Carlo sample budgets; beyond this the exact backend
# is the only realistic option and we refuse rather than thrash.
MC_SAMPLE_CAP = 50_000_000
# Rows per block of a box's draws. Each point's value depends only on its
# position in the (seed, i) stream of box i, never on the worker count, but
# the potential adds the values one block at a time: the block length fixes
# its summation order, and so its bits. It also bounds the potential's
# buffer to k * min(m, _MC_CHUNK) floats for k boxes drawn in lockstep, and
# a volume count's stretch between checks that find no row to pass at.
_MC_CHUNK = 2_000_000
# Rows a worker draws and scores per numpy call: at most _MC_SUBCHUNK, and
# at most _MC_SUBCHUNK_WORK / (n l), so that the (rows, l) @ (l, n) product
# stays in the cache and OpenBLAS does not thread it inside a worker (on a
# 2-core guest, two workers counted at n = 16, l = 2 in 78-89 ns a point
# with 16 384 rows, 65-70 ns with 8 192).
_MC_SUBCHUNK = 16_384
_MC_SUBCHUNK_WORK = 1 << 18
# Sub-chunks a planned check of a volume count lies past the last check at
# least (see cell_box_volumes_mc), so that each check's wait for the workers
# is paid for by the rows they draw.
_MC_CHECK_SUBCHUNKS = 4
# Threads that share each stretch of draws: one per core this process may
# run on, the calling thread included.
_MC_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

# Largest dimension the exact cell kernel handles; above it only Monte Carlo.
EXACT_MAX_DIMENSION = 3


# Share of a box's volume within which its exact cell volumes must sum to it.
VOLUME_SUM_TOL = 1e-9


class BudgetRefused(ValueError):
    """A Monte-Carlo sample budget above ``MC_SAMPLE_CAP``, refused before any draw."""


class VolumeSumError(ArithmeticError):
    """A box whose exact cell volumes do not sum to its volume."""


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Hyperrectangle:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_l, hi_l] with positive widths."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not (lo < hi).all():
            raise ValueError("box must have strictly positive width on every axis")

    @property
    def dimension(self) -> int:
        return self.lo.size

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def max_corner_norm(self) -> float:
        """Largest Euclidean norm over the 2^l corners (no enumeration needed)."""
        return float(np.sqrt(np.maximum(self.lo**2, self.hi**2).sum()))


# Array elements per numpy call in the pairwise checks (box overlap, sample
# distance), which bounds their memory.
_PAIR_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class BoxDensity:
    """Piecewise-constant density: disjoint boxes H_i with constant weights gamma_i.

    Invariants enforced at construction: matching dimensions, positive
    weights, pairwise-disjoint interiors, and total mass
    sum_i gamma_i vol(H_i) = 1 within ``MASS_TOL``.
    """

    dimension: int
    boxes: tuple[tuple[Hyperrectangle, float], ...]

    def __post_init__(self) -> None:
        boxes = tuple((box, float(w)) for box, w in self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("density needs at least one box")
        for box, w in boxes:
            if box.dimension != self.dimension:
                raise ValueError("box dimension mismatch")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError("weights must be positive and finite")
        # Interiors overlap when lo_i < hi_j and lo_j < hi_i on every axis.
        # Rows of boxes i are tested against all j > i a block at a time;
        # argwhere scans in row-major order, so the first hit is the first
        # pair (i, j) in loop order.
        k = len(boxes)
        los, his = self.bounds
        step = max(1, _PAIR_BLOCK // (k * self.dimension))
        for first in range(0, k - 1, step):
            rows = slice(first, first + step)
            hit = (los[rows, None] < his) & (los < his[rows, None])
            hit = hit.all(axis=-1)
            hit &= np.arange(k) > np.arange(first, first + hit.shape[0])[:, None]
            if hit.any():
                i, j = np.argwhere(hit)[0]
                raise ValueError(
                    f"boxes {first + i} and {j} have overlapping interiors"
                )
        mass = self.total_mass
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass!r} is not 1 within {MASS_TOL}")

    @property
    def k(self) -> int:
        return len(self.boxes)

    @property
    def total_mass(self) -> float:
        return float(sum(w * box.volume for box, w in self.boxes))

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The (k, l) lower and upper corners of the boxes, read-only."""
        los = np.array([box.lo for box, _ in self.boxes])
        his = np.array([box.hi for box, _ in self.boxes])
        los.flags.writeable = his.flags.writeable = False
        return los, his

    @cached_property
    def hull(self) -> Hyperrectangle:
        """The smallest box that holds every box of the density."""
        los, his = self.bounds
        return Hyperrectangle(los.min(axis=0), his.max(axis=0))

    @cached_property
    def moments(self) -> tuple[float, np.ndarray, float]:
        """Closed-form (N, integral x dalpha, integral ||x||^2 dalpha).

        Per box, integral of x_d is midpoint_d * volume and integral of
        x_d^2 is (hi_d^3 - lo_d^3)/3 * volume / width_d; weights multiply
        through. The first moment is read-only.
        """
        n_mass = 0.0
        first = np.zeros(self.dimension)
        second = 0.0
        for box, w in self.boxes:
            vol = box.volume
            n_mass += w * vol
            first += w * vol * box.midpoint
            cubes = (box.hi**3 - box.lo**3) / 3.0
            second += w * float((cubes * (vol / box.widths)).sum())
        first.flags.writeable = False
        return n_mass, first, second


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Discrete sinks y_j with demands b_j >= 0 summing to 1."""

    points: np.ndarray
    demands: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        dem = np.atleast_1d(np.asarray(self.demands, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "demands", dem)
        if pts.ndim != 2 or dem.shape != (pts.shape[0],):
            raise ValueError("points must be (n, l); demands must be (n,)")
        if not (np.isfinite(pts).all() and np.isfinite(dem).all()):
            raise ValueError("points and demands must be finite")
        if (dem < 0).any():
            raise ValueError("demands must be nonnegative")
        if abs(dem.sum() - 1.0) > MASS_TOL:
            raise ValueError("demands must sum to 1")
        # A stable sort puts equal rows next to each other in index order, so
        # the adjacent equal pair with the smallest first index is the
        # smallest coinciding (i, j), the pair a scan in index order finds.
        order = np.lexsort(pts.T)
        same = np.flatnonzero((pts[order[1:]] == pts[order[:-1]]).all(axis=1))
        if same.size:
            first = same[np.argmin(order[same])]
            i, j = order[first], order[first + 1]
            raise ValueError(f"samples {i} and {j} coincide")

    @classmethod
    def uniform(cls, points: Sequence[Sequence[float]] | np.ndarray) -> "SampleSet":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """||y_j||^2 of every sink."""
        return (self.points**2).sum(-1)

    @cached_property
    def uniform_demands(self) -> bool:
        """Whether every demand is 1/n, within MASS_TOL."""
        # The rule of np.allclose(..., rtol=0) for finite demands, at a
        # fraction of its cost.
        return bool(np.abs(self.demands - 1.0 / self.n).max() <= MASS_TOL)


@dataclass(frozen=True)
class InstanceStats:
    """Derived instance constants.

    D      max norm over the reference set: samples and all box corners.
    s      min of (min pairwise sample distance, min box width).
    L      smoothness constant 2 n l k / s^2.
    """

    D: float
    s: float
    L: float


@dataclass(frozen=True, eq=False)
class Instance:
    """A source density together with the sample sinks it is matched against."""

    density: BoxDensity
    samples: SampleSet

    def __post_init__(self) -> None:
        if self.density.dimension != self.samples.dimension:
            raise ValueError("density and samples disagree on dimension")

    @property
    def dimension(self) -> int:
        return self.density.dimension

    @cached_property
    def stats(self) -> InstanceStats:
        return instance_stats(self.density, self.samples)


def instance_stats(density: BoxDensity, samples: SampleSet) -> InstanceStats:
    """Compute (D, s, L) for a density/sample pair."""
    n, l, k = samples.n, density.dimension, density.k
    d_samples = float(np.linalg.norm(samples.points, axis=1).max())
    d_corners = max(box.max_corner_norm() for box, _ in density.boxes)
    big_d = max(d_samples, d_corners)

    s = min(float(box.widths.min()) for box, _ in density.boxes)
    # Squared distances of pairs i < j, a block of rows i at a time against
    # every j > first row of the block; pairs with j <= i are masked out.
    # sqrt is monotone, so s is the minimum over sqrt((diffs**2).sum()).
    p = samples.points
    step = max(1, _PAIR_BLOCK // (n * l))
    for first in range(0, n - 1, step):
        rows = slice(first, first + step)
        sq = ((p[rows, None] - p[None, first + 1 :]) ** 2).sum(-1)
        later = np.arange(sq.shape[1]) >= np.arange(sq.shape[0])[:, None]
        s = min(s, math.sqrt(sq.min(where=later, initial=math.inf)))
    if not s > 0:
        raise ValueError("degenerate instance: s = 0")
    smooth = 2.0 * n * l * k / s**2
    return InstanceStats(D=big_d, s=s, L=smooth)


# ---------------------------------------------------------------------------
# scores and classification
# ---------------------------------------------------------------------------


def _finite_weights(g, n: int) -> np.ndarray:
    # g as the n finite dual weights of n sinks; a ValueError names the
    # check that fails.
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"dual weights must have shape ({n},), not {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("dual weights must be finite")
    return g


def _unit_fold(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    rows: int,
    project: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    # The box folded into the sinks for its unit draws u, the one score rule
    # of every consumer: with x = lo + w u, ||x - y_j||^2 - g_j less the
    # j-independent ||x||^2 is u . W_j + c_j, for W_j = -2 w y_j and
    # c_j = ||y_j||^2 - g_j - 2 lo.y_j. Returns (W, c): W as one C-contiguous
    # (l, n) array (1.9-5.5 ns a row on one thread, 5.8-10 ns strided), and
    # c repeated along the flat buffer of `rows` score rows and of at least
    # two (see _unit_scores): one contiguous add, 2-3x faster than a
    # broadcast over rows of n = 2. With n = 2 and `project`, returns the
    # labels' projection (v, c'): cell 1 wins iff u . v < c', for
    # v = 2 w (y_0 - y_1) and c' = (||y_0||^2 - g_0) - (||y_1||^2 - g_1)
    # - 2 lo.(y_0 - y_1).
    g = _finite_weights(g, samples.n)
    y, lo, w = samples.points, box.lo, box.widths
    norms = samples.squared_norms
    if project and samples.n == 2:
        d = y[0] - y[1]
        cut = (norms[0] - g[0]) - (norms[1] - g[1]) - 2.0 * float(lo @ d)
        return 2.0 * w * d, cut
    weights = np.ascontiguousarray(-2.0 * (w[:, None] * y.T))
    return weights, np.tile(norms - g - 2.0 * (y @ lo), max(rows, 2))


def _unit_scores(fold: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    # The scores of unit draws u under a _unit_fold: u @ W + c, shape
    # (rows, n), or for the n = 2 projection u @ v, shape (rows,), which
    # the label compares with c'. numpy multiplies a lone row with another
    # kernel, which rounds differently, so a lone row is scored as two
    # copies of itself and gets the bits it gets in any larger call.
    if len(u) == 1:
        return _unit_scores(fold, np.concatenate([u, u]))[:1]
    operand, shift = fold
    scores = u @ operand
    if operand.ndim == 2:
        flat = scores.reshape(-1)
        flat += shift[: flat.size]
    return scores


def _unit_labels(
    fold: tuple[np.ndarray, np.ndarray], u: np.ndarray, out: np.ndarray
) -> np.ndarray:
    # The cell of each unit draw u into out: the first index of its least
    # score, or with the n = 2 projection the bool u . v < c' (a tie stays
    # in cell 0), where argmin loops row by row and took about 12x longer.
    scores = _unit_scores(fold, u)
    if scores.ndim == 1:
        return np.less(scores, fold[1], out=out)
    return np.argmin(scores, axis=1, out=out)


def classify_points(samples: SampleSet, g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Laguerre cell index of each row of xs, shape (m, l) -> (m,).

    The volume count's labels (see the module docstring) with the unit cube
    [0, 1]^l as the box, so each row is its own unit draw: the first index
    of the least score, as with ``np.argmin``, or with n = 2 sinks the one
    comparison ``x . v < c'``. A point gets the same label alone as in any
    batch. Raises ValueError unless g holds n finite weights.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    l = samples.dimension
    fold = _unit_fold(samples, g, Hyperrectangle(np.zeros(l), np.ones(l)), len(xs))
    return _unit_labels(fold, xs, np.empty(len(xs), np.intp))


# ---------------------------------------------------------------------------
# Monte-Carlo volumes
# ---------------------------------------------------------------------------


def box_rng(seed: int, i: int) -> np.random.Generator:
    """Deterministic per-box substream: default_rng(SeedSequence(seed, spawn_key=(i,))).

    Part of the sampling contract: serial and parallel sweeps over boxes see
    identical, non-overlapping streams. Unit draw r of a box is the r-th row
    of ``box_rng(seed, i).random((m, l))``, and its point the r-th row of
    ``box_rng(seed, i).uniform(lo, hi, (m, l))``, however the draws are
    split into blocks, sub-chunks and worker threads.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _subchunk_rows(samples: SampleSet, l: int) -> int:
    # Rows a worker draws per numpy call (see _MC_SUBCHUNK); the last
    # sub-chunk of a row range has at most one more.
    return max(2, min(_MC_SUBCHUNK, _MC_SUBCHUNK_WORK // (samples.n * l)))


def _pool() -> ThreadPoolExecutor:
    # The threads of one draw. The calling thread draws a piece too, so
    # _MC_WORKERS - 1 of them make one thread per usable core.
    return ThreadPoolExecutor(max(1, _MC_WORKERS - 1))


def _fill(state: dict, l: int, size: int, per_point, first: int, stop: int) -> None:
    # Rows [first, stop) of the stream whose PCG64 state is `state`: a copy
    # of the stream jumps to row `first` and draws `size` rows at a time (the
    # last sub-chunk takes up to size + 1, so none is a lone row unless the
    # range is); per_point(u, row) gets each sub-chunk u and the stream row
    # of u[0].
    bitgen = np.random.PCG64()
    bitgen.state = state
    rng = np.random.Generator(bitgen.advance(first * l))
    buf = np.empty((min(stop - first, size + 1), l))
    while first < stop:
        end = stop if stop - first <= size + 1 else first + size
        u = buf[: end - first]
        rng.random(out=u)
        per_point(u, first)
        first = end


def _draw(
    samples: SampleSet,
    k: int,
    m: int,
    seed,
    scorer: Callable[[int], Callable[[np.ndarray, int], None]],
    plan: Callable[[int], float | None],
) -> int:
    """Draw the first rows of k boxes' streams in lockstep; return the rows drawn.

    Box i draws from ``box_rng(seed, i)``, and ``scorer(i)``
    returns the ``per_point`` that :func:`_fill` hands its unit draws u; the
    point of u is ``lo + width * u``, the value ``Generator.uniform`` gives.
    A scorer may build its box's fold, so that only the folds of the boxes
    being drawn are held.

    ``plan(rows)`` is called with 0, then with the rows drawn after each
    stretch short of m. It returns None to end the draw, or the row at which
    to end the next stretch: math.inf puts it one block (``_MC_CHUNK`` rows)
    further. A stretch ends at least ``_MC_CHECK_SUBCHUNKS`` sub-chunks past
    the last and at m at the latest, where the draw ends.

    A stretch of every box, box after box, is cut into at most
    ``_MC_WORKERS`` contiguous pieces of equal length, none shorter than a
    sub-chunk unless there is only one. The calling thread draws the first
    piece and the draw's one pool the others, so k boxes hold no more
    threads than one. A piece jumps a copy of each box's stream to its first
    row, so every value depends only on its row, never on the split, the
    stretches or m. A budget above ``MC_SAMPLE_CAP`` is refused before any
    draw and any thread; a worker's exception is raised once every piece has
    been drawn.
    """
    if m > MC_SAMPLE_CAP:
        raise BudgetRefused(
            f"MC budget {m} exceeds cap {MC_SAMPLE_CAP}; "
            "loosen the accuracy targets or use the exact backend"
        )
    l = samples.dimension
    size = _subchunk_rows(samples, l)
    states = [box_rng(seed, i).bit_generator.state for i in range(k)]

    def draw(first: int, span: int, a: int, b: int) -> None:
        # Positions [a, b) of rows [first, first + span), box after box.
        while a < b:
            i, row = divmod(a, span)
            end = min(b, (i + 1) * span)
            _fill(states[i], l, size, scorer(i), first + row, first + end - i * span)
            a = end

    rows, target = 0, plan(0)
    with _pool() as pool:
        while target is not None:
            if math.isinf(target):
                target = rows + _MC_CHUNK
            least = rows + _MC_CHECK_SUBCHUNKS * size
            span = min(m, max(math.ceil(min(target, m)), least)) - rows
            parts = max(1, min(_MC_WORKERS, k * span // size))
            cuts = [k * span * i // parts for i in range(parts + 1)]
            jobs = [
                pool.submit(draw, rows, span, a, b) for a, b in zip(cuts[1:], cuts[2:])
            ]
            try:
                draw(rows, span, cuts[0], cuts[1])
            finally:
                wait(jobs)
            for job in jobs:
                job.result()
            rows += span
            target = None if rows == m else plan(rows)
    return rows


def mc_sample_count(n: int, eps_bar: float, eta_prime: float) -> int:
    """Hoeffding count ceil(ln(2c/eta') / (2 eps_bar^2)) for n simultaneous cells.

    c = n two-sided bounds are unioned for n >= 3. At n <= 2 one cell's
    bound covers every cell, c = 1: the counts sum to the rows drawn, so
    the two cells' errors are equal and opposite.
    """
    if not 0.0 < eps_bar < 1.0:
        raise ValueError("eps_bar must lie in (0, 1)")
    if not 0.0 < eta_prime < 1.0:
        raise ValueError("eta_prime must lie in (0, 1)")
    cells = n if n >= 3 else 1
    return int(math.ceil(math.log(2.0 * cells / eta_prime) / (2.0 * eps_bar**2)))


def cell_box_volumes_mc(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle | Sequence[Hyperrectangle],
    eps_bar: float,
    eta_prime: float,
    seed: int,
    *,
    plan: Callable[[np.ndarray | None, int], float | None] | None = None,
) -> np.ndarray:
    """Estimate vol(L_j(g) n box) for all j at once by rejection sampling.

    Draws m = :func:`mc_sample_count` (n, eps_bar, eta') uniform points in
    the box, classifies each, and returns fraction_j * vol(box). With
    probability at least 1 - eta' every cell satisfies |v_j - vol(L_j n
    box)| <= eps_bar * vol(box): Hoeffding plus a union bound over the n
    cells, or, with n = 2 sinks, over cell 0 alone, since the counts sum to
    the rows drawn and cell 1's error is minus cell 0's. Given a sequence
    of k boxes, it draws m points in each, box i from the stream
    ``box_rng(seed, i)``, all of them in lockstep on one pool of threads,
    and returns the (k, n) estimates, each box's with failure probability
    at most eta'.

    Hoeffding's bound holds for every prefix of the count at once, not only
    for the last. For one cell's centred count S_k after k draws,
    exp(lambda S_k - k lambda^2 / 8) is a supermartingale (Hoeffding's
    lemma), and Ville's inequality gives, for every lambda > 0,
    P(S_k >= 2 m eps_bar^2 / lambda + k lambda / 8 for some k) <=
    exp(-2 m eps_bar^2): the probability the union bound spends on the
    full count's deviation m eps_bar (Hoeffding 1963; Howard et al. 2021).
    Tuned at a row r, lambda = 4 eps_bar sqrt(m/r), that line is (r + k)
    sqrt(m/r) eps_bar / 2. It meets the fixed-size bound sqrt(m k) eps_bar
    at k = r and lies above it at every other k. Tuned at r = m, it meets
    m eps_bar at k = m and lies below it for every k < m, so its event lies
    inside the full count's own. So for each r, on an event of probability
    at least 1 - eta', the estimate from the first k draws, counts_j / k *
    vol(box), is within (r/k + 1) sqrt(m/r) eps_bar vol(box) / 2 of every
    cell's volume, for every k <= m at once.

    ``plan``, when given, schedules checks of that prefix. It is called
    first with no estimate and k = 0, then with the prefix estimate and k
    at each check short of m. It returns None to end the draw there and
    return that prefix, or the row at which the caller's rule could next
    pass: math.inf when none can yet, which puts the next check one block
    (``_MC_CHUNK`` rows) further. Every box is drawn to that row, but at
    least ``_MC_CHECK_SUBCHUNKS`` sub-chunks past the last check and never
    past m. Otherwise all m points are drawn, and the result has the bits
    it has without ``plan``.

    One pass serves every cell: the gradient consumes all j for a fixed box.
    The points of box i are the first m rows u of the ``box_rng(seed, i)``
    stream, labelled and counted on one thread per usable core. Each is
    labelled from u itself, with the box folded into the sinks: the first
    index of the least ``u @ W + c``, or with n = 2 whether ``u . v < c'``
    (see the module docstring). Each point's cell depends only on its row,
    and counts are integers, so the result is the same, bit for bit, for
    any worker count and any schedule of checks. Raises ValueError, before
    any thread starts, unless g holds n finite weights and there is at
    least one box.
    """
    boxes = [box] if isinstance(box, Hyperrectangle) else list(box)
    if not boxes:
        raise ValueError("cell_box_volumes_mc needs at least one box")
    g = _finite_weights(g, samples.n)
    n = samples.n
    m = mc_sample_count(n, eps_bar, eta_prime)
    size = _subchunk_rows(samples, samples.dimension)
    # Each worker counts its own sub-chunk's labels, so no worker waits on a
    # count of the whole draw; integer counts add up to the same total in
    # any order. With n = 2 a label is a bool: counting the points of cell 1
    # took 0.14 ns a point, bincount of intp labels 2.6 ns.
    counts = np.zeros((len(boxes), n), dtype=np.int64)
    lock = threading.Lock()
    dtype = bool if n == 2 else np.intp

    def counter(i: int):
        fold = _unit_fold(samples, g, boxes[i], min(m, size + 1))
        count = counts[i]

        def label(u: np.ndarray, row: int) -> None:
            labels = _unit_labels(fold, u, np.empty(len(u), dtype))
            if n == 2:
                ones = np.count_nonzero(labels)
                part = (labels.size - ones, ones)
            else:
                part = np.bincount(labels, minlength=n)
            with lock:
                np.add(count, part, out=count)

        return label

    box_volumes = np.array([[b.volume] for b in boxes])

    def volumes(rows: int) -> np.ndarray:
        lost = counts.sum(axis=1) != rows
        if lost.any():
            drawn = f"m = {m}" if rows == m else f"the {rows} rows drawn"
            raise RuntimeError(
                f"Monte Carlo counts sum to {counts[lost][0].sum()}, not to {drawn}"
            )
        estimate = counts / rows * box_volumes
        return estimate[0] if isinstance(box, Hyperrectangle) else estimate

    def check(rows: int) -> float | None:
        return m if plan is None else plan(volumes(rows) if rows else None, rows)

    return volumes(_draw(samples, len(boxes), m, seed, counter, check))


def potential_integral_mc(
    samples: SampleSet,
    g: np.ndarray,
    boxes: Sequence[Hyperrectangle],
    weights: Sequence[float],
    m: int,
    seed,
) -> np.ndarray:
    """Estimate weight * integral over a box of min_j(||y_j||^2 - 2 x.y_j - g_j).

    The integrand is the potential min_j(||x - y_j||^2 - g_j) less ||x||^2,
    averaged over m >= 1 uniform points of the box, the first m rows of the
    stream :func:`cell_box_volumes_mc` draws; the caller picks m for its
    accuracy target. A point's value is the least of the volume count's
    scores of its unit draw u (at n = 2 both scores, not the projection);
    no x is built. It draws the k boxes in lockstep as the count does and
    returns their k estimates. Each box's values are added one
    ``_MC_CHUNK`` block at a time, so an estimate has the same bits alone
    as among other boxes. Raises ValueError, before any thread starts,
    unless g holds n finite weights, there are at least one box and one
    weight per box, and m >= 1.
    """
    if not boxes or len(weights) != len(boxes):
        raise ValueError("the potential needs at least one box and one weight per box")
    if m < 1:
        raise ValueError(f"the potential needs m >= 1 draws, not {m}")
    g = _finite_weights(g, samples.n)
    rows = min(m, _subchunk_rows(samples, samples.dimension) + 1)
    blocks = np.empty((len(boxes), min(m, _MC_CHUNK)))
    sums, start = [0.0] * len(boxes), 0

    def potential(i: int):
        fold = _unit_fold(samples, g, boxes[i], rows, project=False)

        def value(u: np.ndarray, row: int) -> None:
            out = blocks[i, row - start : row - start + len(u)]
            np.min(_unit_scores(fold, u), axis=1, out=out)

        return value

    def add_block(stop: int) -> float:
        # Add each box's values of rows [start, stop), and ask for a block more.
        nonlocal start
        for i, block in enumerate(blocks):
            sums[i] += float(block[: stop - start].sum())
        start = stop
        return math.inf

    add_block(_draw(samples, len(boxes), m, seed, potential, add_block))
    return np.array([w * b.volume * a / m for b, w, a in zip(boxes, weights, sums)])


# ---------------------------------------------------------------------------
# exact cell volumes and moments (l <= 3): restricted power diagram
# ---------------------------------------------------------------------------

# Per lower facet (a simplex of four sinks) in 3-D, the positions (p, q, a, b)
# of every ordered pair p != q of its sinks followed by the other two.
_FACE_PAIRS = np.array(
    [(p, q, *(r for r in range(4) if r not in (p, q)))
     for p in range(4) for q in range(4) if p != q]
)


# The faces of a 3-D box, each the cycle of its corners counterclockwise
# seen from outside; bit d of a corner's number is set where its coordinate
# d is the upper bound.
_BOX_FACES = np.array([
    [0, 2, 3, 1], [4, 5, 7, 6],  # z = lo, z = hi
    [0, 1, 5, 4], [2, 6, 7, 3],  # y = lo, y = hi
    [0, 4, 6, 2], [1, 3, 7, 5],  # x = lo, x = hi
])


def _lower_chain(xs: list[float], zs: list[float]) -> list[int]:
    """Indices of the lower convex hull of the points (xs, zs), left to right.

    Monotone chain over the points sorted by x (the xs are distinct). A point
    on or above the segment joining its chain neighbours is dropped.
    """
    chain: list[int] = []
    for j in sorted(range(len(xs)), key=xs.__getitem__):
        while len(chain) >= 2:
            i0, i1 = chain[-2], chain[-1]
            cross = (xs[i1] - xs[i0]) * (zs[j] - zs[i0]) - (zs[i1] - zs[i0]) * (
                xs[j] - xs[i0]
            )
            if cross > 0.0:
                break
            chain.pop()
        chain.append(j)
    return chain


def _power_neighbours(
    y: np.ndarray, lift: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The facets of the lower convex hull of the lifted points, from Qhull.

    In dimension l = 2, 3, each lower facet of the hull of the points
    (y_j, lift_j), lift_j = ||y_j||^2 - g_j, joins l + 1 sinks. It is dual to
    the power vertex where those sinks' cells meet, each of its edges to the
    facet between two neighbouring cells, and a sink that is not a vertex of
    the lower hull has an empty cell (Aurenhammer 1987). The vertex comes off
    the facet's plane a . y + a_z z + c = 0: at v = -a / (2 a_z) every sink
    i on the plane has the power ||v - y_i||^2 - g_i = ||v||^2 - c / a_z.
    Qhull triangulates a facet it merged (sinks on one sphere under the
    weights) into pieces that keep the merged plane, so the pieces share
    one vertex, however flat they are. Returns the (m, l + 1) sink indices
    of the lower facets, as Qhull triangulates them, and their (m, l)
    vertices; or None when Qhull rejects the points, or reports one as
    coplanar with a facet, since such a sink may own a sliver cell that no
    facet names.
    """
    # Imported on first use: scipy.spatial takes about 0.5 s to load.
    from scipy.spatial import ConvexHull, QhullError

    try:
        # "Qc" reports the points Qhull finds coplanar with a facet.
        hull = ConvexHull(np.column_stack([y, lift]), qhull_options="Qc")
    except QhullError:
        return None
    if hull.coplanar.size:
        return None
    # A facet is lower when its outward normal, before the offset, points down.
    lower = hull.equations[:, -2] < 0.0
    plane = hull.equations[lower]
    return hull.simplices[lower], plane[:, :-2] / (-2.0 * plane[:, -2:-1])


def _ghosts(
    y: np.ndarray, g: np.ndarray, lo: list[float], hi: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """2l ghost sinks that bound every cell and own no point of the box.

    The ghosts sit at c +- R e_d, for the box's centre c and R twice the
    larger of max_j ||y_j - c||_1 and the box's l1 width, so every sink lies
    strictly inside their cross-polytope: no direction leads out of its
    cell, which is bounded. Each ghost's weight puts its power at least
    R^2 / 16 above sink 0's at every corner of the box. The difference of
    two powers is affine in x, so the ghost loses to sink 0 on the whole
    box and its cell misses the box. No ghost cell is empty: far enough
    along its own axis a ghost beats every other sink. Returns the ghosts
    (2l, l) and their weights (2l,).
    """
    l = y.shape[1]
    lo, hi = np.array(lo), np.array(hi)
    centre = 0.5 * (lo + hi)
    reach = 2.0 * max(np.abs(y - centre).sum(axis=1).max(), (hi - lo).sum())
    ghosts = centre + reach * np.concatenate([np.eye(l), -np.eye(l)])
    # ||x - G||^2 - ||x - y_0||^2 = ||G||^2 - ||y_0||^2 + c . x with
    # c = 2 (y_0 - G), whose least value over the box takes lo_d or hi_d
    # axis by axis.
    c = 2.0 * (y[0] - ghosts)
    least = (ghosts**2).sum(1) - y[0] @ y[0] + np.minimum(c * lo, c * hi).sum(1)
    return ghosts, least + g[0] - reach**2 / 16.0


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Runs of equal keys in a row: the start of each run, and the run of
    # each key.
    change = keys[1:] != keys[:-1]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    return starts, np.concatenate(([0], np.cumsum(change)))


def _cycle_next(faces: np.ndarray) -> np.ndarray:
    # Per row, the next row of its face's cycle: the rows of a face are a run.
    last = np.flatnonzero(faces[1:] != faces[:-1])
    nxt = np.arange(1, len(faces) + 1)
    nxt[np.append(last, len(faces) - 1)] = np.concatenate(([0], last + 1))
    return nxt


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise cross products of (m, 3) arrays, without np.cross's set-up
    # (about half the time on a few thousand rows).
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _angle_order(groups: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The order of rows by group, then by the angle between s and t.

    Per row, the angle is that of the sum of the unit vectors along the
    2-vectors s and t, a direction strictly between them when they span less
    than pi. Sorting by angle and then, stably, by group took a third of the
    time of ``np.lexsort`` on the two keys.
    """
    s = s / np.hypot(s[:, 0], s[:, 1])[:, None]
    t = t / np.hypot(t[:, 0], t[:, 1])[:, None]
    order = np.argsort(np.arctan2(s[:, 1] + t[:, 1], s[:, 0] + t[:, 0]))
    return order[np.argsort(groups[order], kind="stable")]


def _polygon_rows(y, n, facets):
    """The corners of the 2-D cells of the sinks j < n, one row per corner.

    The lower facets around sink j are the triangles of the regular
    triangulation at y_j. Their sectors tile the turn about y_j, and their
    dual vertices run around cell j in the same order. So the rows are
    sorted by each sector's bisector, not by the vertices' own angles: with
    weights y_j may lie outside its own cell, and a vertex that more than
    three cells share comes once per triangle. With each triangle (j, a, b)
    counterclockwise, the edge from its vertex to the next is dual to the
    side (j, b). Returns the cell, the facet and that edge's neighbour b
    of each row, sorted by cell and then counterclockwise.
    """
    d = y[facets[:, 1:]] - y[facets[:, :1]]
    ccw = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0] > 0.0
    tri = np.where(ccw[:, None], facets, facets[:, [0, 2, 1]])
    cell, a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
    f = np.repeat(np.arange(len(tri)), 3)
    keep = cell < n
    cell, a, b, f = cell[keep], a[keep], b[keep], f[keep]
    order = _angle_order(cell, y[a] - y[cell], y[b] - y[cell])
    return cell[order], f[order], b[order]


def _face_rows(y, n, facets):
    """The corners of the 3-D cells' faces for the sinks j < n, one row each.

    Face (j, k) is dual to the edge jk of the regular tetrahedralization. Its
    corners are the vertices of the lower facets around that edge, whose
    wedges tile the turn about the axis y_k - y_j, cell j's outward normal
    on the face. The rows of a face are sorted by each wedge's bisector, so
    the face runs counterclockwise seen from outside cell j, even where
    several of its corners coincide. Returns the cell, the neighbour k and
    the facet of each row, sorted by cell, neighbour and angle.
    """
    quad = facets[:, _FACE_PAIRS].reshape(-1, 4)
    keep = quad[:, 0] < n
    quad = quad[keep]
    f = np.repeat(np.arange(len(facets)), len(_FACE_PAIRS))[keep]
    # The axis y_k - y_j and the edges to the wedge's other two sinks.
    corners = y[quad]
    rel = corners[:, 1:] - corners[:, :1]
    axis = rel[:, 0]
    # (u, v) spans the plane normal to the axis, with u x v along the axis.
    u = _cross(np.eye(3)[np.abs(axis).argmin(1)], axis)
    flat = rel[:, 1:] @ np.stack([u, _cross(axis, u)], 2)
    cell, k = quad[:, 0], quad[:, 1]
    order = _angle_order(cell * len(y) + k, flat[:, 0], flat[:, 1])
    return cell[order], k[order], f[order]


class _Rows(NamedTuple):
    """Convex cells as rows, one per corner of each face.

    A face's rows are a run, in counterclockwise order seen from outside
    its cell; a 2-D cell is one face. ``owner`` is the cell's position,
    ``face`` the face's id and ``points`` the corner. ``tags`` names the
    neighbour across the edge from the corner to the next (2-D) or across
    the face (3-D), or -1 for a side on a box.
    """

    owner: np.ndarray
    face: np.ndarray
    points: np.ndarray
    tags: np.ndarray


def _lifted_cells(y, n, facets, verts):
    """The cells of the sinks j < n read off the lower facets' vertices.

    ``y`` holds the n sinks and then the ghosts, which bound every cell.
    Returns (cells, low, high, rows): the nonempty cells in order of index,
    their vertex bounding boxes, and the cells as :class:`_Rows`, their
    sides tagged by neighbour.
    """
    if y.shape[1] == 2:
        cell, f, tags = _polygon_rows(y, n, facets)
        face = cell
    else:
        cell, tags, f = _face_rows(y, n, facets)
        face = _runs(cell * len(y) + tags)[1]
    starts, owner = _runs(cell)
    points = verts[f]
    low, high = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)
    return cell[starts], low, high, _Rows(owner, face, points, tags)


def _all_pairs_rows(
    samples: SampleSet, g: np.ndarray, lo: list[float], hi: list[float]
):
    """The 3-D cells clipped into the hull [lo, hi] by all other sinks' rows.

    Every sink starts with a copy of the hull as rows, its six faces tagged
    -1. Round r = 1, ..., n - 1 cuts each cell j by its row against sink
    i = (j + r) mod n, a = 2 (y_i - y_j), b = g_j - g_i + ||y_i||^2 -
    ||y_j||^2, in one :func:`_clip_rows` call, and the cut side gets tag i.
    A row whose half-space holds the whole hull is skipped. Returns (cells,
    low, high, rows) as :func:`_lifted_cells` does, for the nonempty cells.
    """
    y, norms = samples.points, samples.squared_norms
    n = len(y)
    lo, hi = np.array(lo), np.array(hi)
    corners = np.where((_BOX_FACES.reshape(-1, 1) >> np.arange(3)) & 1, hi, lo)
    size = len(corners)
    rows = _Rows(
        np.repeat(np.arange(n), size),
        np.repeat(np.arange(n * len(_BOX_FACES)), 4),
        np.tile(corners, (n, 1)),
        np.full(n * size, -1),
    )
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for r in range(1, n):
        i = (np.arange(n) + r) % n
        a = 2.0 * (y[i] - y)
        b = g - g[i] + norms[i] - norms
        rows = _clip_rows(rows, a, b, i, a @ centre - b > -(np.abs(a) @ half))
    # Each cell's rows as one run, its faces renumbered in row order.
    order = np.argsort(rows.owner, kind="stable")
    owner, points = rows.owner[order], rows.points[order]
    starts, position = _runs(owner)
    low, high = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)
    face = _runs(rows.face[order])[1]
    return owner[starts], low, high, _Rows(position, face, points, rows.tags[order])


class _Batch(NamedTuple):
    """Every box's cell volumes and first moments from one :func:`_box_batch` call.

    Box b's are ``vols[b]`` (n,) and ``firsts[b]`` (n, l). ``pieces`` is
    None, or (box, j, i, measure): every box's facet pieces, box-major.
    """

    vols: np.ndarray
    firsts: np.ndarray
    pieces: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def _chain_cells(samples: SampleSet, g: np.ndarray):
    """The 1-D cells: the lower chain of the lifted sinks and its cut points.

    The cells, left to right, are those of the sinks on the lower convex
    hull of the points (y_j, ||y_j||^2 - g_j) (:func:`_lower_chain`), and
    consecutive cells meet where their half-space rows cut. Returns (chain,
    ends): cell ``chain[p]`` is the interval ``[ends[p], ends[p + 1]]``.
    """
    gs, ns = g.tolist(), samples.squared_norms.tolist()
    ys = samples.points[:, 0].tolist()
    chain = _lower_chain(ys, [nj - gj for nj, gj in zip(ns, gs)])
    cuts = [
        (gs[i] - gs[j] + ns[j] - ns[i]) / (2.0 * (ys[j] - ys[i]))
        for i, j in zip(chain, chain[1:])
    ]
    return chain, [-math.inf, *cuts, math.inf]


def _all_pairs_cells(
    samples: SampleSet, g: np.ndarray, lo: list[float], hi: list[float]
):
    """(cells, shapes) of the 2-D cells clipped into a box by all other rows.

    Cell j starts as the box and is clipped, in plain floats, by its row
    against every other sink, a = 2 (y_j' - y_j),
    b = g_j - g_j' + ||y_j'||^2 - ||y_j||^2, in index order. A row whose
    half-plane holds the whole box is skipped, and one whose half-plane
    misses the box empties the cell; both tests compare the row's centre and
    reach over the box. Returns the nonempty cells and their shapes
    ``(poly, tags)``: the polygon counterclockwise and its edge tags, where
    a tag names the neighbour whose row made the edge and -1 a side of the
    box.
    """
    ys, gs, ns = samples.points.tolist(), g.tolist(), samples.squared_norms.tolist()
    n = len(ys)
    m0, m1 = [0.5 * (p + q) for p, q in zip(lo, hi)]
    h0, h1 = [0.5 * (q - p) for p, q in zip(lo, hi)]
    corners = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    live, shapes = [], []
    for j in range(n):
        shape = corners, [-1] * 4
        for i in range(n):
            if i == j:
                continue
            a = [2.0 * (q - p) for p, q in zip(ys[j], ys[i])]
            b = gs[j] - gs[i] + ns[i] - ns[j]
            centre = a[0] * m0 + a[1] * m1 - b
            reach = abs(a[0]) * h0 + abs(a[1]) * h1
            if centre > reach:
                break
            if centre > -reach:
                shape = _clip_polygon(*shape, a, b, i)
                if len(shape[0]) < 3:
                    break
        else:
            live.append(j)
            shapes.append(shape)
    return live, shapes


def _clip_polygon(poly, tags, a, b, tag):
    """Sutherland-Hodgman clip of a convex polygon against a.x <= b.

    ``tags[i]`` names the row that made the edge from ``poly[i]`` to
    ``poly[i + 1]`` (-1 for a box edge); the new edge along a.x = b gets
    ``tag``. Walks the edges p -> q from the last vertex's edge on, so the
    result starts at ``poly[0]`` or at the point where that edge enters.
    Returns the clipped polygon and its tags.
    """
    a0, a1 = a
    vals = [a0 * x + a1 * y - b for x, y in poly]
    if max(vals) <= 0.0:
        return poly, tags
    out = []
    out_tags = []
    p, fp, tp = poly[-1], vals[-1], tags[-1]
    for q, fq, tq in zip(poly, vals, tags):
        if fq <= 0.0:
            if fp > 0.0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
                out_tags.append(tp)
            out.append(q)
            out_tags.append(tq)
        elif fp <= 0.0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            out_tags.append(tag)
        p, fp, tp = q, fq, tq
    return out, out_tags


def _polygon_moments(poly):
    """(area, (integral x, integral y)) of a convex polygon."""
    if len(poly) < 3:
        return 0.0, (0.0, 0.0)
    x0, y0 = poly[0]
    area = fx = fy = 0.0
    for i in range(1, len(poly) - 1):
        x1, y1 = poly[i]
        x2, y2 = poly[i + 1]
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        tri = 0.5 * cross
        area += tri
        fx += tri * (x0 + x1 + x2) / 3.0
        fy += tri * (y0 + y1 + y2) / 3.0
    if area < 0:
        return -area, (-fx, -fy)
    return area, (fx, fy)


def _clip_cells(rows: _Rows, low, high, los, his):
    """Every cell as rows cut into each box that its bounding box meets.

    ``low`` and ``high`` (m, l) are the corners of the cells' bounding
    boxes and ``los`` and ``his`` (k, l) those of the boxes. Each (box,
    cell) pair whose bounding boxes overlap gets a copy of its cell's rows,
    owned by the pair and with face ids of its own; the pairs run
    box-major. A pair is clipped by each face of its box that its cell's
    bounding box crosses, in the order -x_1 <= -lo_1, x_1 <= hi_1, ...,
    x_l <= hi_l (:func:`_clip_rows`). One call cuts every pair by its next
    face, so a pass makes as many calls as one pair crosses faces, at most
    2l, whatever the number of boxes. Returns (box, cell, rows): each pair's
    box and cell position, and the cut rows.
    """
    meets = (low < his[:, None]).all(2) & (high > los[:, None]).all(2)
    box, cell = np.nonzero(meets)
    # Each cell's run of rows, once per pair: pair p's r-th row is its
    # cell's r-th.
    pairs = np.arange(len(cell))
    size = np.bincount(rows.owner, minlength=len(low))
    run = size[cell]
    owner = np.repeat(pairs, run)
    at = np.arange(len(owner)) + np.repeat(np.cumsum(size)[cell] - np.cumsum(run), run)
    face = rows.face[at] + owner * len(rows.face)
    rows = _Rows(owner, face, rows.points[at], rows.tags[at])
    # Column 2d + s of each pair is face s (0: lower, 1: upper) of axis d,
    # the half-space -x_d <= -lo_d or x_d <= hi_d.
    lo, hi = los[box], his[box]
    crosses = np.stack([low[cell] < lo, high[cell] > hi], 2).reshape(len(cell), -1)
    offsets = np.stack([-lo, hi], 2).reshape(len(cell), -1)
    normals = np.kron(np.eye(lo.shape[1]), [[-1.0], [1.0]])
    tags = np.full(len(cell), -1)
    for _ in range(crosses.sum(1).max(initial=0)):
        side = crosses.argmax(1)
        crossing = crosses[pairs, side]
        rows = _clip_rows(rows, normals[side], offsets[pairs, side], tags, crossing)
        crosses[pairs, side] = False
    return box, cell, rows


def _clip_rows(rows: _Rows, normal, offset, tag, crossing) -> _Rows:
    """The cells marked in ``crossing`` clipped by normal . x <= offset.

    ``normal`` (m, l), ``offset``, ``tag`` and ``crossing`` (m,) hold one
    entry per owner, so one call cuts every cell by a half-space of its
    own: a face of its box, tag -1 and normal +-e_d, or its row against a
    neighbour, tagged by the neighbour's index. Sutherland-Hodgman on every
    face at once, in numpy: a corner is kept when it is inside (value <= 0),
    and an edge whose ends lie on either side adds the point where it
    crosses, p + t (q - p) from its inside end p, t = f_p / (f_p - f_q); on
    a box face its coordinate d is set to the bound. In 2-D the edge from
    where a cell leaves the half-plane to where it comes back gets the tag.
    In 3-D the cap is made of every cut point of the cell's faces, where
    they leave the half-space and where they come back, each point once: a
    face that touches the plane along an edge from inside is not cut, so
    the leaving points alone need not hold every corner. A cell with three
    or more gets the cap as a new face with the tag, its corners ordered by
    angle about their mean as seen along the normal's largest axis,
    counterclockwise seen from outside.
    """
    owner, face, p, tags = rows
    nxt = _cycle_next(face)
    f = -offset[owner]
    for x, a in zip(p.T, normal.T):
        f += x * a[owner]
    f[~crossing[owner]] = -1.0
    keep = f <= 0.0
    cut = keep != keep[nxt]
    # Each crossing is computed from the edge's inside end, so the two faces
    # on a 3-D edge, whose corners agree bit for bit, get the same point.
    edge, to, cut_owner = np.flatnonzero(cut), nxt[cut], owner[cut]
    inner = np.where(keep[cut], edge, to)
    outer = edge + to - inner
    fi = f[inner]
    hits = p[inner] + (fi / (fi - f[outer]))[:, None] * (p[outer] - p[inner])
    # Per owner, the normal's largest component d: a box face's axis.
    cells = len(crossing)
    d = np.abs(normal).argmax(1)
    a_d = normal[np.arange(cells), d]
    on = np.flatnonzero(tag[cut_owner] < 0)
    hits[on, d[cut_owner[on]]] = (offset / a_d)[cut_owner[on]]
    # Each row gives its corner if it is kept, then its edge's crossing: the
    # row is repeated that often, and its last copy becomes the crossing.
    count = keep.astype(np.intp) + cut
    out = _Rows(*(np.repeat(x, count, axis=0) for x in rows))
    slots = np.cumsum(count)[cut] - 1
    out.points[slots] = hits
    if p.shape[1] == 2:
        leave = slots[keep[cut]]
        out.tags[leave] = tag[out.owner[leave]]
        return out
    corners = np.bincount(cut_owner, minlength=cells)
    big = corners[cut_owner] >= 3
    cap_owner, cap = cut_owner[big], hits[big]
    # The cap seen along axis d, which keeps the order of its corners: the
    # axes (d + 1, d + 2) mod 3, swapped where a_d < 0, so that the angle
    # rises counterclockwise seen from outside.
    flip = a_d < 0.0
    ends = np.arange(len(cap))
    u = cap[ends, ((d + 1 + flip) % 3)[cap_owner]]
    v = cap[ends, ((d + 2 - flip) % 3)[cap_owner]]
    size = np.maximum(corners, 1)
    mid_u = np.bincount(cap_owner, u, cells) / size
    mid_v = np.bincount(cap_owner, v, cells) / size
    angle = np.arctan2(v - mid_v[cap_owner], u - mid_u[cap_owner])
    order = np.lexsort((angle, cap_owner))
    cap_owner, cap = cap_owner[order], cap[order]
    # The two faces on a cut edge give it the same bits: one corner for both.
    first = np.ones(len(cap), bool)
    first[1:] = (cap[1:] != cap[:-1]).any(1) | (cap_owner[1:] != cap_owner[:-1])
    cap_owner, cap = cap_owner[first], cap[first]
    return _Rows(
        np.concatenate([out.owner, cap_owner]),
        np.concatenate([out.face, face.max() + 1 + cap_owner]),
        np.concatenate([out.points, cap]),
        np.concatenate([out.tags, tag[cap_owner]]),
    )


def _row_moments(rows: _Rows, count: int, facets: bool):
    """(vol, integral x, pieces) of ``count`` cells as rows.

    Sums the triangles (2-D) or tetrahedra (3-D) that join each side's fan
    to the mean of the cell's corner rows, which lies in the cell. With
    ``facets``, the pieces are (cell position, tag, measure) for every side
    with a tag >= 0: an edge's length in 2-D, a face's area in 3-D; else
    None.
    """
    owner, face, p, tags = rows
    l = p.shape[1]
    nxt = _cycle_next(face)
    # Flat (cell, axis) bins, for sums of l-vectors per cell in one call.
    bins = (owner[:, None] * l + np.arange(l)).ravel()
    sizes = np.maximum(np.bincount(owner, minlength=count), 1)
    centre = np.bincount(bins, p.ravel(), count * l).reshape(count, l)
    centre /= sizes[:, None]
    pieces = None
    if l == 2:
        a = p - centre[owner]
        b = a[nxt]
        t = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        vol = np.bincount(owner, t, count)
        s = (a + b) * (t / 3.0)[:, None]
        if facets:
            sides = tags >= 0
            step = p[nxt[sides]] - p[sides]
            pieces = owner[sides], tags[sides], np.hypot(step[:, 0], step[:, 1])
    else:
        # Fan each face from its first corner: every row but a face's first
        # and last starts a triangle, which the centre makes a tetrahedron.
        starts, run = _runs(face)
        head = starts[run]
        tri = np.flatnonzero((head != np.arange(len(face))) & (head != nxt))
        by, bins = owner[tri], bins.reshape(-1, 3)[tri].ravel()
        c = centre[by]
        a, b, e = p[head[tri]] - c, p[tri] - c, p[nxt[tri]] - c
        t = (a * _cross(b, e)).sum(1) / 6.0
        vol = np.bincount(by, t, count)
        s = (a + b + e) * (t / 4.0)[:, None]
        if facets:
            normal = _cross(b - a, e - a)
            normal = np.stack(
                [np.bincount(run[tri], x, len(starts)) for x in normal.T], 1
            )
            sides = tags[starts] >= 0
            area = 0.5 * np.sqrt((normal[sides] ** 2).sum(1))
            pieces = owner[starts][sides], tags[starts][sides], area
    firsts = np.bincount(bins, s.ravel(), count * l).reshape(count, l)
    return vol, firsts + vol[:, None] * centre, pieces


def _box_batch(
    samples: SampleSet,
    g: np.ndarray,
    hull: Hyperrectangle,
    boxes: Sequence[Hyperrectangle],
    facets: bool,
) -> _Batch:
    """The cell moments of every box inside ``hull``, in one batch (l <= 3).

    Cell j is {x : ||x - y_j||^2 - g_j <= ||x - y_j'||^2 - g_j' for all j'}
    under n finite weights g. The call picks the route that builds the
    cells, once for all boxes:

    - in 1-D, the lower chain of the lifted sinks (:func:`_chain_cells`),
      whose intervals each box cuts directly;
    - in 2-D and 3-D with n > l + 1 sinks, the lower facets of one Qhull
      hull of the lifted sinks and of 2l ghosts, which bound every cell and
      own no point of the hull (:func:`_power_neighbours`, :func:`_ghosts`):
      each facet's plane gives its vertex, and one sort orders the corners
      of every cell (:func:`_lifted_cells`);
    - where Qhull does not run or cannot be trusted (it rejects the points,
      or reports one as coplanar), each cell clipped by the rows of all the
      other sinks: in 3-D the hull as numpy rows (:func:`_all_pairs_rows`);
      in 2-D each box's own cells in plain floats (:func:`_all_pairs_cells`).

    On rows, one cut of every (box, cell) pair (:func:`_clip_cells`) and one
    moment sum over all pairs (:func:`_row_moments`) are scattered to (k, n)
    arrays. With ``facets`` the batch holds the boundary pieces, each tagged
    by its box; a point counts 1 in 1-D. Raises ValueError above dimension
    3, and VolumeSumError unless each box's cell volumes sum to its volume
    within ``VOLUME_SUM_TOL`` of it.
    """
    y = samples.points
    n, l = y.shape
    if l > EXACT_MAX_DIMENSION:
        raise ValueError(
            f"exact cell volumes support dimension <= {EXACT_MAX_DIMENSION} only"
        )
    k = len(boxes)
    corners = hull.lo.tolist(), hull.hi.tolist()
    lower = cells = None
    if l > 1 and n > l + 1:
        ghosts, weights = _ghosts(y, g, *corners)
        ys = np.concatenate([y, ghosts])
        lower = _power_neighbours(ys, (ys**2).sum(-1) - np.concatenate([g, weights]))
    if l == 1:
        chain, ends = _chain_cells(samples, g)
    elif lower is not None:
        cells = _lifted_cells(ys, n, *lower)
    elif l == 3:
        cells = _all_pairs_rows(samples, g, *corners)
    if cells is not None:
        sinks, low, high, rows = cells
        los = np.array([box.lo for box in boxes])
        his = np.array([box.hi for box in boxes])
        box, cell, rows = _clip_cells(rows, low, high, los, his)
        vol, first, pieces = _row_moments(rows, len(cell), facets)
        j = sinks[cell]
        vols, firsts = np.zeros((k, n)), np.zeros((k, n, l))
        vols[box, j], firsts[box, j] = vol, first
        if facets:
            # The sides come in row order, which is box-major; caps have no
            # neighbour.
            pair, i, measure = pieces
            pieces = box[pair], j[pair], i, measure
    else:
        vols, firsts, sides = [], [], []
        for index, box in enumerate(boxes):
            vol, first = [0.0] * n, [(0.0,) * l] * n
            lo, hi = box.lo.tolist(), box.hi.tolist()
            if l == 1:
                (box_lo,), (box_hi,) = lo, hi
                for pos, j in enumerate(chain):
                    a = max(box_lo, ends[pos])
                    b = min(box_hi, ends[pos + 1])
                    if b > a:
                        vol[j] = b - a
                        first[j] = ((b**2 - a**2) / 2.0,)
                    if facets and box_lo < ends[pos + 1] < box_hi:
                        i = chain[pos + 1]
                        sides += [(index, j, i, 1.0), (index, i, j, 1.0)]
            else:
                for j, (poly, tags) in zip(*_all_pairs_cells(samples, g, lo, hi)):
                    vol[j], first[j] = _polygon_moments(poly)
                    if facets and vol[j] > 0.0:
                        for c, i in enumerate(tags):
                            if i >= 0:
                                p, q = poly[c], poly[c - len(poly) + 1]
                                side = math.hypot(q[0] - p[0], q[1] - p[1])
                                sides.append((index, j, i, side))
            vols.append(vol)
            firsts.append(first)
        vols, firsts = np.array(vols), np.array(firsts)
        sides = np.array(sides).reshape(-1, 4).T
        pieces = (*sides[:3].astype(np.intp), sides[3]) if facets else None
    for b, (total, box) in enumerate(zip(vols.sum(1).tolist(), boxes)):
        if not abs(total - box.volume) <= VOLUME_SUM_TOL * box.volume:
            raise VolumeSumError(
                f"box {b}: exact cell volumes sum to {total!r}, not to its "
                f"volume {box.volume!r}"
            )
    return _Batch(vols, firsts, pieces)


def cell_box_moments_exact(
    samples: SampleSet, g: np.ndarray, box: Hyperrectangle
) -> tuple:
    """Exact (volume, integral x) of L_j(g) n box for all j.

    Restricted power diagram, for l <= 3 only: the batch of the one box,
    with the box as its hull (:func:`_box_batch`). Returns (vols (n,),
    firsts (n, l)). Deterministic. Raises ValueError unless g holds n finite
    weights, and VolumeSumError if the volumes do not sum to the box's.
    """
    g = _finite_weights(g, samples.n)
    batch = _box_batch(samples, g, box, [box], False)
    return batch.vols[0], batch.firsts[0]


# ---------------------------------------------------------------------------
# density moments
# ---------------------------------------------------------------------------


def box_moments(density: BoxDensity) -> tuple[float, np.ndarray, float]:
    """Closed-form (N, integral x dalpha, integral ||x||^2 dalpha) of a density.

    The triple :attr:`BoxDensity.moments` computes once per density.
    """
    return density.moments
