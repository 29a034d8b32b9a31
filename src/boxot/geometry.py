"""Hyperrectangle and Laguerre-cell geometry.

Data containers for box-supported densities and sample sets, point
classification into Laguerre (power) cells, Monte-Carlo and exact cell
volumes, and closed-form moments of the density.

Exact cell moments (l <= 3) come from a restricted power diagram. Cells j
and j' can share a facet only if the lifted points (y_j, ||y_j||^2 - g_j)
and (y_j', ||y_j'||^2 - g_j') are joined by an edge of the lifted points'
lower convex hull, and a site that is not a vertex of that hull has an empty
cell. The hull is a sort and a monotone chain in 1-D and one Qhull call in
2-D and 3-D, built once per iterate (one g) and shared by every box. In 2-D
and 3-D each cell is clipped once per iterate, by its neighbours'
half-spaces only, into a box that holds every box of the density; each box
then cuts only the cells that straddle it, by its own faces. The
clippers tag every boundary piece with the half-space that cut it, which
gives the facet measures that the dual solver's Hessian needs. The Qhull
call is the module's only use of scipy, so ``scipy.spatial`` is imported
inside :func:`_power_neighbours`: a process loads it at its first 2-D or
3-D diagram with at least l + 2 sinks, never at import.

All operations are pure functions on immutable inputs. Monte-Carlo sampling
is deterministic given (seed, box index); see :func:`box_rng` for the
substream rule. Each block of draws is split into row ranges over one thread
per usable core; a worker jumps its copy of the box's stream to its first
row, so every point's value depends only on its position in the
``(seed, box_index)`` stream, never on the worker count. The volume count
labels a point from its unit draw u, the stream's row, not from its point
x = lo + w u of the box: the box is folded into the sinks once per call, so
the scores are one product ``u @ W`` and one add of a constant per sink,
and with n = 2 sinks the label is one projection ``u . v < c'``. These
rounding steps differ from those of :func:`classify_points`, the rule in
x-space, so a count label can differ from ``classify_points(lo + w u)``
only for a point within rounding of a cell boundary. Ties still go to the
first index. At n = 2 a worker counts the bool labels with
``np.count_nonzero``; for more sinks, with ``np.bincount``. A caller may
end the volume count after any block, at a prefix whose estimate Hoeffding's
maximal inequality bounds on the full count's own event (see
:func:`cell_box_volumes_mc`). The potential integral maps each u to its x
and scores it as :func:`classify_points` does.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

MASS_TOL = 1e-9

# Hard ceiling on Monte-Carlo sample budgets; beyond this the exact backend
# is the only realistic option and we refuse rather than thrash.
MC_SAMPLE_CAP = 50_000_000
# Rows per block of a box's draws. Each point's value depends only on its
# position in the (seed, box_index) stream, never on the worker count, but
# the energy adds the values one block at a time: the block length fixes
# its summation order, and so its bits. It also bounds the result buffer.
_MC_CHUNK = 2_000_000
# Rows a worker draws and scores per numpy call: at most _MC_SUBCHUNK, and
# at most _MC_SUBCHUNK_WORK / (n l), so that the (rows, l) @ (l, n) product
# stays in the cache and OpenBLAS does not thread it inside a worker (on a
# 2-core guest, two workers counted at n = 16, l = 2 in 78-89 ns a point
# with 16 384 rows, 65-70 ns with 8 192).
_MC_SUBCHUNK = 16_384
_MC_SUBCHUNK_WORK = 1 << 18
# Threads that share each block: one per core this process may run on.
_MC_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

# Largest dimension the exact cell kernel handles; above it only Monte Carlo.
EXACT_MAX_DIMENSION = 3


class BudgetRefused(ValueError):
    """A Monte-Carlo sample budget above ``MC_SAMPLE_CAP``, refused before any draw."""


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

    @property
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
        los = np.array([box.lo for box, _ in boxes])
        his = np.array([box.hi for box, _ in boxes])
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
    def hull(self) -> Hyperrectangle:
        """The smallest box that holds every box of the density."""
        if self.k == 1:
            return self.boxes[0][0]
        return Hyperrectangle(
            np.min([box.lo for box, _ in self.boxes], axis=0),
            np.max([box.hi for box, _ in self.boxes], axis=0),
        )


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
    def _points_t(self) -> np.ndarray:
        # points.T as its own C-contiguous (l, n) array, the operand of
        # every score product (see _scores).
        return np.ascontiguousarray(self.points.T)

    @cached_property
    def uniform_demands(self) -> bool:
        """Whether every demand is 1/n, within MASS_TOL."""
        return bool(np.allclose(self.demands, 1.0 / self.n, atol=MASS_TOL, rtol=0.0))


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
    # The squares are added axis by axis, in turn: that is the order in which
    # numpy sums fewer than 8 terms along the last axis of the (rows, n, l)
    # differences (from 8 terms on it keeps eight running sums, so there the
    # squares are stacked and summed by numpy). sqrt is monotone, so s has
    # the bits of the minimum over sqrt((diffs**2).sum(-1)).
    cols = samples.points.T
    step = max(1, _PAIR_BLOCK // (n * l))
    for first in range(0, n - 1, step):
        rows = slice(first, first + step)
        squares = [
            (axis[rows, None] - axis[None, first + 1 :]) ** 2 for axis in cols
        ]
        sq = squares[0]
        if l < 8:
            for square in squares[1:]:
                sq = sq + square
        else:
            sq = np.stack(squares, axis=-1).sum(-1)
        later = np.arange(sq.shape[1]) >= np.arange(sq.shape[0])[:, None]
        s = min(s, math.sqrt(sq.min(where=later, initial=math.inf)))
    if not s > 0:
        raise ValueError("degenerate instance: s = 0")
    smooth = 2.0 * n * l * k / s**2
    return InstanceStats(D=big_d, s=s, L=smooth)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _score_shifts(
    samples: SampleSet, g: np.ndarray, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    # ||y_j||^2 and g_j repeated along the flat buffer of `rows` score rows,
    # and of at least two, since _scores takes a lone row as two.
    rows = max(rows, 2)
    return np.tile(samples.squared_norms, rows), np.tile(g, rows)


def _scores(
    samples: SampleSet, shifts: tuple[np.ndarray, np.ndarray], xs: np.ndarray
) -> np.ndarray:
    # ||x - y_j||^2 - g_j minus the j-independent ||x||^2 term, for each row
    # x of xs: shape (m, l) -> (m, n), for at most as many rows as `shifts`
    # (from _score_shifts) covers. Computed in place as
    # (-2 x.y_j + ||y_j||^2) - g_j: negating the exact doubling and adding
    # rounds exactly as ||y_j||^2 - 2 x.y_j does. Each shift is one
    # contiguous op along the flat buffer: broadcast over rows of n = 2 they
    # made the whole call 2-3x slower. They stay two ops, in this order,
    # since a folded ||y_j||^2 - g_j, or g_j first, would round differently.
    # The product takes the sinks as one C-contiguous (l, n) array: on one
    # thread, (l, n) = (2, 2), (2, 16), (3, 5) and (4, 8) cost 1.9-5.5 ns a
    # row with it, 5.8-10 ns with the strided view points.T. Both operands
    # give the same bits for two or more rows, but numpy multiplies a lone
    # row with another kernel, which rounds differently: a lone row is
    # scored as two copies of itself, so it gets the bits it gets in any
    # larger call.
    if len(xs) == 1:
        return _scores(samples, shifts, np.concatenate([xs, xs]))[:1]
    norms, weights = shifts
    scores = xs @ samples._points_t
    flat = scores.reshape(-1)
    flat *= -2.0
    flat += norms[: flat.size]
    flat -= weights[: flat.size]
    return scores


def _labels(scores: np.ndarray, out: np.ndarray) -> np.ndarray:
    # np.argmin(scores, axis=1) into out: the first index of each row's
    # minimum, so index 0 on a tie. For n = 2 that rule is one comparison,
    # where argmin loops row by row and took about 12x longer.
    if scores.shape[1] == 2:
        return np.less(scores[:, 1], scores[:, 0], out=out)
    return np.argmin(scores, axis=1, out=out)


def classify_points(samples: SampleSet, g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Laguerre cell index of each row of xs, shape (m, l) -> (m,).

    Ties go to the smallest index, as with ``np.argmin``; with n = 2 sinks
    the index is the one comparison ``score_1 < score_0``. A point gets the
    same label alone as in any batch. This is the rule in x-space: the
    Monte Carlo volume count scores its points from their unit draws (see
    :func:`cell_box_volumes_mc`), and its labels can differ from these only
    for a point within rounding of a cell boundary.
    """
    g = np.asarray(g, dtype=float)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    shifts = _score_shifts(samples, g, len(xs))
    return _labels(_scores(samples, shifts, xs), np.empty(len(xs), np.intp))


# ---------------------------------------------------------------------------
# Monte-Carlo volumes
# ---------------------------------------------------------------------------


def box_rng(seed: int, box_index: int) -> np.random.Generator:
    """Deterministic per-box substream: default_rng(SeedSequence(seed, spawn_key=(i,))).

    Part of the sampling contract: serial and parallel sweeps over boxes see
    identical, non-overlapping streams. Unit draw r of a box is the r-th row
    of ``box_rng(seed, i).random((m, l))``, and its point the r-th row of
    ``box_rng(seed, i).uniform(lo, hi, (m, l))``, however the draws are
    split into blocks, sub-chunks and worker threads.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(box_index,)))


def _subchunk_rows(samples: SampleSet, l: int) -> int:
    # Rows a worker draws per numpy call (see _MC_SUBCHUNK); a piece of a
    # block has at most one more.
    return max(2, min(_MC_SUBCHUNK, _MC_SUBCHUNK_WORK // (samples.n * l)))


def _unit_fold(
    samples: SampleSet, g: np.ndarray, box: Hyperrectangle, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    # The box folded into the sinks, for unit draws u of the box. With
    # x = lo + w u, ||x - y_j||^2 - g_j less the j-independent ||x||^2 is
    # u . W_j + c_j, where W_j = -2 w y_j and c_j = ||y_j||^2 - g_j - 2 lo.y_j.
    # Returns (W, c): W as one C-contiguous (l, n) array, and c repeated
    # along the flat buffer of `rows` score rows (and of at least two, since
    # _unit_scores takes a lone row as two), like the shifts of _scores.
    # With n = 2, cell 1 wins iff u . v < c', for v = 2 w (y_0 - y_1) and
    # c' = (||y_0||^2 - g_0) - (||y_1||^2 - g_1) - 2 lo.(y_0 - y_1):
    # returns (v, c') with v of shape (l,) and c' a scalar.
    y, lo, w = samples.points, box.lo, box.widths
    norms = samples.squared_norms
    if samples.n == 2:
        d = y[0] - y[1]
        cut = (norms[0] - g[0]) - (norms[1] - g[1]) - 2.0 * float(lo @ d)
        return 2.0 * w * d, cut
    weights = np.ascontiguousarray(-2.0 * (w[:, None] * y.T))
    return weights, np.tile(norms - g - 2.0 * (y @ lo), max(rows, 2))


def _unit_scores(fold: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    # The scores of unit draws u under a _unit_fold: u @ W + c, shape
    # (rows, n), or for n = 2 the projections u @ v, shape (rows,), which
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
    # score, or with n = 2 the bool u . v < c' (a tie stays in cell 0).
    scores = _unit_scores(fold, u)
    if scores.ndim == 1:
        return np.less(scores, fold[1], out=out)
    return np.argmin(scores, axis=1, out=out)


def _box_draws(
    samples: SampleSet,
    box: Hyperrectangle,
    m: int,
    seed,
    box_index: int,
    per_point: Callable[[np.ndarray, np.ndarray], None],
    dtype,
) -> Iterator[np.ndarray]:
    """``per_point`` of the first m unit draws of the box's ``box_rng`` stream.

    ``per_point(u, out)`` writes one value per row of ``u`` into ``out``.
    Each row of ``u`` is a unit draw of ``Generator.random``; the box's
    point for it is ``lo + width * u``, the value ``Generator.uniform``
    gives. Each callback does its own arithmetic on ``u`` and may overwrite
    it. Yields the values a block of at most ``_MC_CHUNK`` rows at a time,
    so memory stays bounded; each yielded array is reused for the next
    block.

    A block is split into contiguous row ranges, one per worker thread (the
    calling thread takes the first). A worker copies the stream's state,
    advances it to its first row and draws its rows a sub-chunk at a time
    (:func:`_subchunk_rows`). No piece of a block of two or more rows has a
    single row, and the callbacks take a lone row as two (numpy multiplies
    a lone row with another kernel, which rounds differently). So every
    value depends only on its row, never on the split or on m.

    A budget above ``MC_SAMPLE_CAP`` is refused before any draw and before
    any thread starts; a worker's exception is raised once every worker has
    stopped.
    """
    if m > MC_SAMPLE_CAP:
        raise BudgetRefused(
            f"MC budget {m} exceeds cap {MC_SAMPLE_CAP}; "
            "loosen the accuracy targets or use the exact backend"
        )
    state = box_rng(seed, box_index).bit_generator.state
    l = box.dimension
    size = _subchunk_rows(samples, l)
    block = np.empty(min(m, _MC_CHUNK), dtype=dtype)

    def fill(start: int, first: int, stop: int) -> None:
        # Rows [first, stop) of the stream into block[first - start:stop - start].
        bitgen = np.random.PCG64()
        bitgen.state = state
        rng = np.random.Generator(bitgen.advance(first * l))
        buf = np.empty((min(stop - first, size + 1), l))
        while first < stop:
            end = stop if stop - first <= size + 1 else first + size
            u = buf[: end - first]
            rng.random(out=u)
            per_point(u, block[first - start : end - start])
            first = end

    with ThreadPoolExecutor(_MC_WORKERS) as pool:
        for start in range(0, m, _MC_CHUNK):
            rows = min(_MC_CHUNK, m - start)
            parts = max(1, min(_MC_WORKERS, rows // size))
            cuts = [start + rows * i // parts for i in range(parts + 1)]
            # The calling thread fills the first range, so a block too small
            # to split starts no thread.
            ranges = zip(cuts[1:], cuts[2:])
            jobs = [pool.submit(fill, start, a, b) for a, b in ranges]
            fill(start, cuts[0], cuts[1])
            for job in jobs:
                job.result()
            yield block[:rows]


def mc_sample_count(n: int, eps_bar: float, eta_prime: float) -> int:
    """Hoeffding count ceil(ln(2n/eta') / (2 eps_bar^2)) for n simultaneous cells."""
    if not 0.0 < eps_bar < 1.0:
        raise ValueError("eps_bar must lie in (0, 1)")
    if not 0.0 < eta_prime < 1.0:
        raise ValueError("eta_prime must lie in (0, 1)")
    return int(math.ceil(math.log(2.0 * n / eta_prime) / (2.0 * eps_bar**2)))


def cell_box_volumes_mc(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    eps_bar: float,
    eta_prime: float,
    seed: int,
    box_index: int = 0,
    *,
    stop: Callable[[np.ndarray, int], bool] | None = None,
) -> np.ndarray:
    """Estimate vol(L_j(g) n box) for all j at once by rejection sampling.

    Draws m >= ceil(ln(2n/eta')/(2 eps_bar^2)) uniform points in the box,
    classifies each, and returns fraction_j * vol(box). With probability at
    least 1 - eta' every cell satisfies |v_j - vol(L_j n box)| <=
    eps_bar * vol(box) (Hoeffding plus a union bound over the n cells).

    Hoeffding's bound holds for the largest deviation over all prefixes of
    the count, not only for the last (Hoeffding 1963, section 2.6). So on
    the same event of probability at least 1 - eta', the estimate from the
    first k draws, counts_j / k * vol(box), is within (m/k) eps_bar vol(box)
    of every cell's volume, for every k <= m at once. When ``stop`` is
    given, it is called after each block of draws short of m with that
    prefix estimate and k; once it returns True, the draw ends there and
    the prefix estimate is returned. Otherwise all m points are drawn, and
    the result has the bits it has without ``stop``.

    One pass serves every cell: the gradient consumes all j for a fixed box.
    The points are the first m rows u of the ``box_rng(seed, box_index)``
    stream, labelled and counted on one thread per usable core. Each is
    labelled from u itself, with the box folded into the sinks: the first
    index of the least ``u @ W + c``, or with n = 2 whether ``u . v < c'``
    (see the module docstring). A label can differ from
    ``classify_points(lo + w u)`` only for a point within rounding of a cell
    boundary. Each point's cell depends only on its row, so the result is
    the same, bit for bit, for any worker count.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("dual weights must be finite")
    n = samples.n
    m = mc_sample_count(n, eps_bar, eta_prime)
    rows = min(m, _subchunk_rows(samples, box.dimension) + 1)
    fold = _unit_fold(samples, g, box, rows)
    # Each worker counts its own sub-chunk's labels, so no worker waits on a
    # count of the whole block; integer counts add up to the same total in
    # any order. With n = 2 a label is a bool: counting the points of cell 1
    # took 0.14 ns a point, bincount of intp labels 2.6 ns.
    counts = np.zeros(n, dtype=np.int64)
    lock = threading.Lock()

    def label(u: np.ndarray, out: np.ndarray) -> None:
        labels = _unit_labels(fold, u, out)
        if n == 2:
            ones = np.count_nonzero(labels)
            part = (labels.size - ones, ones)
        else:
            part = np.bincount(labels, minlength=n)
        with lock:
            np.add(counts, part, out=counts)

    def volumes(rows: int) -> np.ndarray:
        if counts.sum() != rows:
            drawn = f"m = {m}" if rows == m else f"the {rows} rows drawn"
            raise RuntimeError(
                f"Monte Carlo counts sum to {counts.sum()}, not to {drawn}"
            )
        return counts / rows * box.volume

    dtype = bool if n == 2 else np.intp
    rows = 0
    # Closing the draws on an early stop shuts their worker pool down.
    with contextlib.closing(
        _box_draws(samples, box, m, seed, box_index, label, dtype)
    ) as draws:
        for block in draws:
            rows += len(block)
            if stop is not None and rows < m:
                prefix = volumes(rows)
                if stop(prefix, rows):
                    return prefix
    return volumes(m)


def potential_integral_mc(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    weight: float,
    m: int,
    seed,
    box_index: int = 0,
) -> float:
    """Estimate weight * integral over the box of min_j(||x - y_j||^2 - g_j).

    Averages the potential over m uniform points of the box, the first m
    rows of the stream :func:`cell_box_volumes_mc` draws; the caller picks
    m for its accuracy target. Each unit draw u is mapped in place to its
    point x = lo + w u and scored as :func:`classify_points` scores it.
    """
    # lo and width repeated along the flat buffer, like the score shifts:
    # one contiguous multiply and add, where broadcasting over rows of
    # l = 2-4 was 4-13x slower. Built once, for the longest sub-chunk.
    rows = min(m, _subchunk_rows(samples, box.dimension) + 1)
    flat_lo, flat_width = np.tile(box.lo, rows), np.tile(box.widths, rows)
    shifts = _score_shifts(samples, g, rows)

    def potential(u: np.ndarray, out: np.ndarray) -> None:
        flat = u.reshape(-1)
        flat *= flat_width[: flat.size]
        flat += flat_lo[: flat.size]
        np.add(_scores(samples, shifts, u).min(axis=1), (u**2).sum(-1), out=out)

    acc = 0.0
    for values in _box_draws(samples, box, m, seed, box_index, potential, float):
        acc += float(values.sum())
    return weight * box.volume * acc / m


# ---------------------------------------------------------------------------
# exact cell volumes and moments (l <= 3): restricted power diagram
# ---------------------------------------------------------------------------

# A lifted-hull facet counts as lower when the last component of its unit
# outward normal is below this. The slack admits near-vertical facets of
# either tilt: their edges can only add neighbours, never drop one.
_VERTICAL_TOL = 1e-8

# (first, second) vertex positions of the edges of a simplex with l + 1
# vertices, for the lifted hull's facets in dimension l = 2, 3.
_SIMPLEX_EDGES = {l: np.triu_indices(l + 1, 1) for l in (2, 3)}


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Candidate Laguerre neighbours of every cell (l >= 2, n > l + 1), from Qhull.

    Cells j and j' share a facet only if (y_j, lift_j) and (y_j', lift_j')
    are joined by an edge of the lower convex hull of the lifted points, and
    cell j is nonempty only if its lifted point is a vertex of that hull
    (Aurenhammer 1987). Returns ``(alive, src, dst)``: a mask of the cells
    that may be nonempty, and directed pairs sorted by ``src`` that contain
    every neighbour pair; or None when Qhull rejects the input (too flat for
    a full-dimensional hull), and every pair must be used. Extra pairs are
    harmless (their half-spaces are redundant), so every doubtful case errs
    towards more pairs: near-vertical facets count as lower.
    """
    # Imported on first use: scipy.spatial takes about 0.5 s to load.
    from scipy.spatial import ConvexHull, QhullError

    n, l = y.shape
    try:
        # "Qc" reports the points Qhull finds coplanar with a facet.
        hull = ConvexHull(np.column_stack([y, lift]), qhull_options="Qc")
    except QhullError:
        return None
    alive = np.zeros(n, dtype=bool)
    lower = hull.simplices[hull.equations[:, l] < _VERTICAL_TOL]
    first = lower[:, _SIMPLEX_EDGES[l][0]].ravel()
    second = lower[:, _SIMPLEX_EDGES[l][1]].ravel()
    alive[lower.ravel()] = True
    # Points Qhull kept as coplanar with a facet rather than as vertices may
    # own a sliver cell: make them everyone's neighbour.
    if hull.coplanar.size:
        near = np.unique(hull.coplanar[:, 0])
        alive[near] = True
        first = np.concatenate([first, np.repeat(near, n)])
        second = np.concatenate([second, np.tile(np.arange(n), near.size)])
    pairs = np.unique(np.concatenate([first * n + second, second * n + first]))
    src, dst = np.divmod(pairs, n)
    keep = src != dst
    return alive, src[keep], dst[keep]


@dataclass(eq=False)
class _PowerDiagram:
    """The Laguerre cells of one (samples, g), clipped into one box.

    The box, the hull, runs from corner ``lo`` to corner ``hi`` and holds
    every box the diagram serves; the dual solver passes the density's
    :attr:`BoxDensity.hull`. In 1-D, ``cells``
    lists the lower chain's cells in order, cell ``cells[p]`` is the
    interval ``[ends[p], ends[p + 1]]`` and ``shapes`` is empty. In 2-D and
    3-D, ``cells`` lists the cells that are nonempty in the hull, and
    ``shapes[p]`` is cell ``cells[p]`` clipped into the hull: a polygon and
    its edge tags ``(poly, tags)``, or a polyhedron ``(verts, faces, tags)``.
    A tag names the neighbour whose half-space row made the edge or face, -1
    a side of the hull. Everything is plain floats.
    """

    lo: list[float]
    hi: list[float]
    cells: list[int]
    ends: list[float]
    shapes: list[tuple]

    @cached_property
    def extents(self) -> list[tuple[list[float], list[float]]]:
        """Per shape, the lower and upper corner of its vertices' bounding box."""
        out = []
        for shape in self.shapes:
            axes = list(zip(*shape[0]))
            out.append(([min(x) for x in axes], [max(x) for x in axes]))
        return out


def _power_diagram(
    samples: SampleSet, g: np.ndarray, hull: Hyperrectangle
) -> _PowerDiagram:
    """The restricted power diagram of the sinks under weights g (l <= 3).

    Cell j is {x : ||x - y_j||^2 - g_j <= ||x - y_j'||^2 - g_j' for all j'},
    so its row against neighbour j' is a = 2 (y_j' - y_j),
    b = g_j - g_j' + ||y_j'||^2 - ||y_j||^2. The neighbours come from the
    lower convex hull of the lifted points (y_j, ||y_j||^2 - g_j): a
    monotone chain in 1-D, :func:`_power_neighbours` in 2-D and 3-D. When
    n <= l + 1 or Qhull rejects the points every pair is used.

    In 2-D and 3-D each cell is then clipped into ``hull``, once, by its
    rows in neighbour order. A row whose half-space holds the whole hull is
    skipped, and one whose half-space misses the hull empties the cell; both
    tests compare the row's centre and reach over the hull, in plain floats.
    """
    g = np.asarray(g, dtype=float)
    y = samples.points
    n, l = y.shape
    if l > EXACT_MAX_DIMENSION:
        raise ValueError(
            f"exact cell volumes support dimension <= {EXACT_MAX_DIMENSION} only"
        )
    norms = samples.squared_norms
    gs, ns = g.tolist(), norms.tolist()
    lo, hi = hull.lo.tolist(), hull.hi.tolist()
    if l == 1:
        ys = y[:, 0].tolist()
        chain = _lower_chain(ys, [nj - gj for nj, gj in zip(ns, gs)])
        # Consecutive chain cells meet where their half-space rows cut.
        cuts = [
            (gs[i] - gs[j] + ns[j] - ns[i]) / (2.0 * (ys[j] - ys[i]))
            for i, j in zip(chain, chain[1:])
        ]
        return _PowerDiagram(lo, hi, chain, [-math.inf, *cuts, math.inf], [])

    neighbours = _power_neighbours(y, norms - g) if n > l + 1 else None
    if neighbours is None:
        ys = y.tolist()
        cells = list(range(n))
        rows = [
            [
                ([2.0 * (q - p) for p, q in zip(ys[i], ys[j])],
                 gs[i] - gs[j] + ns[j] - ns[i], j)
                for j in range(n)
                if j != i
            ]
            for i in range(n)
        ]
    else:
        alive, src, dst = neighbours
        row_a = (2.0 * (y[dst] - y[src])).tolist()
        row_b = (g[src] - g[dst] + norms[dst] - norms[src]).tolist()
        row_i = dst.tolist()
        bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
        cells = np.flatnonzero(alive).tolist()
        rows = [
            list(zip(*(r[bounds[j]:bounds[j + 1]] for r in (row_a, row_b, row_i))))
            for j in cells
        ]

    # Per row, the centre and half-range of a.x - b over the hull: a row whose
    # half-space holds the whole hull is redundant in it, and one whose
    # half-space misses the hull empties the cell.
    pad = [0.0] * (3 - l)
    m0, m1, m2 = [0.5 * (p + q) for p, q in zip(lo, hi)] + pad
    h0, h1, h2 = [0.5 * (q - p) for p, q in zip(lo, hi)] + pad
    clip = _clip_polygon if l == 2 else _clip_polyhedron
    base = _box_shape(lo, hi)
    live, shapes = [], []
    for j, cell_rows in zip(cells, rows):
        shape = base
        for a, b, i in cell_rows:
            if l == 2:
                centre = a[0] * m0 + a[1] * m1 - b
                reach = abs(a[0]) * h0 + abs(a[1]) * h1
            else:
                centre = a[0] * m0 + a[1] * m1 + a[2] * m2 - b
                reach = abs(a[0]) * h0 + abs(a[1]) * h1 + abs(a[2]) * h2
            if centre > reach:
                break
            if centre > -reach:
                shape = clip(*shape, a, b, i)
                if len(shape[0]) < 3:
                    break
        else:
            live.append(j)
            shapes.append(shape)
    return _PowerDiagram(lo, hi, live, [], shapes)


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
    """(area, (integral x, integral y), integral ||x||^2) of a convex polygon."""
    if len(poly) < 3:
        return 0.0, (0.0, 0.0), 0.0
    x0, y0 = poly[0]
    area = fx = fy = second = 0.0
    for i in range(1, len(poly) - 1):
        x1, y1 = poly[i]
        x2, y2 = poly[i + 1]
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        tri = 0.5 * cross
        area += tri
        sx, sy = x0 + x1 + x2, y0 + y1 + y2
        fx += tri * sx / 3.0
        fy += tri * sy / 3.0
        sq = x0**2 + y0**2 + x1**2 + y1**2 + x2**2 + y2**2
        second += tri / 12.0 * (sq + sx**2 + sy**2)
    if area < 0:
        return -area, (-fx, -fy), -second
    return area, (fx, fy), second


def _box_shape(lo, hi):
    """A 2-D or 3-D box as the clippers take it, every side tagged -1.

    In 2-D, ``(poly, tags)`` with the corners counterclockwise. In 3-D,
    ``(verts, faces, tags)``: each face is a cycle of vertex indices that
    runs counterclockwise seen from outside the box, and clipping keeps that
    orientation.
    """
    if len(lo) == 2:
        corners = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
        return corners, [-1] * 4
    verts = [
        (x, y, z)
        for z in (lo[2], hi[2])
        for y in (lo[1], hi[1])
        for x in (lo[0], hi[0])
    ]
    faces = [
        [0, 2, 3, 1], [4, 5, 7, 6],  # z = lo, z = hi
        [0, 1, 5, 4], [2, 6, 7, 3],  # y = lo, y = hi
        [0, 4, 6, 2], [1, 3, 7, 5],  # x = lo, x = hi
    ]
    return verts, faces, [-1] * 6


def _cap_by_angle(verts, cap, a):
    """The cap's vertices ordered by angle about their centroid.

    (u, v) spans the cutting plane with normal a: u = e x a for the axis e
    least aligned with a, v = a x u. The angle rises counterclockwise seen
    from the side a points to, outside the clipped polyhedron.
    """
    a0, a1, a2 = a
    m = len(cap)
    cx = sum(verts[i][0] for i in cap) / m
    cy = sum(verts[i][1] for i in cap) / m
    cz = sum(verts[i][2] for i in cap) / m
    ax = min(range(3), key=lambda d: abs(a[d]))
    if ax == 0:
        u = (0.0, -a2, a1)
    elif ax == 1:
        u = (a2, 0.0, -a0)
    else:
        u = (-a1, a0, 0.0)
    v = (a1 * u[2] - a2 * u[1], a2 * u[0] - a0 * u[2], a0 * u[1] - a1 * u[0])

    def angle(i):
        dx, dy, dz = verts[i][0] - cx, verts[i][1] - cy, verts[i][2] - cz
        return math.atan2(
            dx * v[0] + dy * v[1] + dz * v[2], dx * u[0] + dy * u[1] + dz * u[2]
        )

    return sorted(cap, key=angle)


def _clip_polyhedron(verts, faces, tags, a, b, tag):
    """Clip a convex polyhedron (vertices, face cycles) against a.x <= b.

    Each face is clipped by Sutherland-Hodgman. A cut edge's new vertex is
    computed once, from its inside end, and shared by both faces on the
    edge. A cut face leaves the half-space at an exit vertex and comes back
    at an entry vertex, and its new edge runs from the exit to the entry;
    the cap face runs every such edge the other way, so it is the cycle
    that links each entry to its face's exit. The faces run
    counterclockwise seen from outside, and so does the cap. A plane through
    existing vertices keeps them and adds new vertices on top of them, which
    the walk handles like any other. Where the links do not close one cycle
    through every new vertex, as on a surface that is not closed (an earlier
    cut that made fewer than three new vertices added no cap), the cap falls
    back to :func:`_cap_by_angle`. ``tags[f]`` names the row that made face
    f (-1 for a box face); the cap gets ``tag``.
    """
    a0, a1, a2 = a
    vals = [a0 * x + a1 * y + a2 * z - b for x, y, z in verts]
    if max(vals) <= 0.0:
        return verts, faces, tags
    if min(vals) > 0.0:
        return [], [], []
    index = [-1] * len(verts)
    kept = []
    for i, f in enumerate(vals):
        if f <= 0.0:
            index[i] = len(kept)
            kept.append(verts[i])
    cut: dict[tuple[int, int], int] = {}

    def cut_vertex(i, o):
        key = (i, o)
        if key not in cut:
            p, q = verts[i], verts[o]
            t = vals[i] / (vals[i] - vals[o])
            cut[key] = len(kept)
            kept.append((
                p[0] + t * (q[0] - p[0]),
                p[1] + t * (q[1] - p[1]),
                p[2] + t * (q[2] - p[2]),
            ))
        return cut[key]

    clipped = []
    clipped_tags = []
    link = {}  # entry vertex -> the exit vertex before it on its face
    for face, face_tag in zip(faces, tags):
        out = []
        first_entry = exit_ = None
        p = face[-1]
        for q in face:
            if vals[q] <= 0.0:
                if vals[p] > 0.0:
                    entry = cut_vertex(q, p)
                    out.append(entry)
                    if exit_ is None:
                        first_entry = entry
                    else:
                        link[entry] = exit_
                out.append(index[q])
            elif vals[p] <= 0.0:
                exit_ = cut_vertex(p, q)
                out.append(exit_)
            p = q
        if first_entry is not None:
            link[first_entry] = exit_
        if len(out) >= 3:
            clipped.append(out)
            clipped_tags.append(face_tag)
    m = len(cut)
    if m >= 3:
        start = len(kept) - m
        cap = [start]
        nxt = link.get(start)
        while nxt != start and nxt is not None and len(cap) < m:
            cap.append(nxt)
            nxt = link.get(nxt)
        if nxt != start or len(cap) != m:
            cap = _cap_by_angle(kept, list(cut.values()), a)
        clipped.append(cap)
        clipped_tags.append(tag)
    return kept, clipped, clipped_tags


def _polyhedron_moments(verts, faces):
    """(volume, integral x, integral ||x||^2) of a convex polyhedron.

    Sums the tetrahedra from the vertex centroid to a fan of every face; the
    centroid lies in the closed polyhedron, so unsigned volumes are exact.
    """
    if not faces:
        return 0.0, (0.0, 0.0, 0.0), 0.0
    m = len(verts)
    cx = sum(v[0] for v in verts) / m
    cy = sum(v[1] for v in verts) / m
    cz = sum(v[2] for v in verts) / m
    csq = cx * cx + cy * cy + cz * cz
    vol = fx = fy = fz = second = 0.0
    for face in faces:
        x0, y0, z0 = verts[face[0]]
        ux, uy, uz = x0 - cx, y0 - cy, z0 - cz
        sq0 = csq + x0 * x0 + y0 * y0 + z0 * z0
        for i in range(1, len(face) - 1):
            x1, y1, z1 = verts[face[i]]
            x2, y2, z2 = verts[face[i + 1]]
            vx, vy, vz = x1 - cx, y1 - cy, z1 - cz
            wx, wy, wz = x2 - cx, y2 - cy, z2 - cz
            det = (
                ux * (vy * wz - vz * wy)
                - uy * (vx * wz - vz * wx)
                + uz * (vx * wy - vy * wx)
            )
            t = abs(det) / 6.0
            if t == 0.0:
                continue
            sx, sy, sz = cx + x0 + x1 + x2, cy + y0 + y1 + y2, cz + z0 + z1 + z2
            vol += t
            fx += t * sx / 4.0
            fy += t * sy / 4.0
            fz += t * sz / 4.0
            sq = sq0 + x1 * x1 + y1 * y1 + z1 * z1 + x2 * x2 + y2 * y2 + z2 * z2
            second += t / 20.0 * (sq + sx * sx + sy * sy + sz * sz)
    return vol, (fx, fy, fz), second


def _face_area(verts, face):
    """Area of a planar convex polygon in 3-D, given as a vertex index cycle."""
    x0, y0, z0 = verts[face[0]]
    sx = sy = sz = 0.0
    for i in range(1, len(face) - 1):
        x1, y1, z1 = verts[face[i]]
        x2, y2, z2 = verts[face[i + 1]]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        sx += uy * vz - uz * vy
        sy += uz * vx - ux * vz
        sz += ux * vy - uy * vx
    return 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)


def _cells_in_box(diagram: _PowerDiagram, lo: list[float], hi: list[float]):
    """(cells, shapes) of the diagram's cells cut to a box inside its hull.

    A cell whose bounding box misses the box is dropped, one inside it is
    kept as it is, and one that straddles it is clipped by the box's
    faces that cross its bounding box (tag -1). A cell that no neighbour
    cut is the whole hull, so its part of the box is the box itself,
    corners and all, as the box's own diagram has it.
    """
    l = len(lo)
    clip = _clip_polygon if l == 2 else _clip_polyhedron
    cells, shapes = [], []
    for j, shape, (low, high) in zip(diagram.cells, diagram.shapes, diagram.extents):
        if any(map(operator.ge, low, hi)) or any(map(operator.le, high, lo)):
            continue
        if max(shape[-1]) < 0:
            cells.append(j)
            shapes.append(_box_shape(lo, hi))
            continue
        # The rows -x_d <= -lo_d and x_d <= hi_d, where they cross the cell.
        for d in range(l):
            if low[d] < lo[d] and len(shape[0]) >= 3:
                a = [0.0] * l
                a[d] = -1.0
                shape = clip(*shape, a, -lo[d], -1)
            if high[d] > hi[d] and len(shape[0]) >= 3:
                a = [0.0] * l
                a[d] = 1.0
                shape = clip(*shape, a, hi[d], -1)
        if len(shape[0]) >= 3:
            cells.append(j)
            shapes.append(shape)
    return cells, shapes


def cell_box_moments_exact(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    diagram: _PowerDiagram | None = None,
    facets: bool = False,
) -> tuple:
    """Exact (volume, integral x, integral ||x||^2) of L_j(g) n box for all j.

    Restricted power diagram, for l <= 3 only. ``diagram`` is
    ``_power_diagram(samples, g, hull)`` for a hull that holds the box,
    built here with the box as its hull when None; a caller with several
    boxes builds it once per g, with a hull that holds them all, and passes
    it to every box. The diagram clips each cell into its hull once, by its
    neighbours' half-spaces only: an interval in 1-D, a polygon in 2-D and
    a face-list polyhedron in 3-D. A box equal to the hull takes those
    cells as they are; any other box drops the cells whose bounding box
    misses it and clips the ones that straddle it by its own faces. A cell
    has about 6 neighbours in 2-D and 15 in 3-D, so the cost is one
    O(n log n) diagram and O(n) small clips in plain floats per g, plus a
    clip by at most 2l axis planes per straddling cell and box.
    Returns (vols (n,), firsts (n, l), seconds (n,)). Deterministic.

    With ``facets`` it also returns a list of (j, i, measure): the measure
    of the boundary piece that cell j's row against neighbour i cut from
    the box (a point counts 1 in 1-D, a length in 2-D, an area in 3-D),
    one entry per piece of each nonempty cell, so every facet appears once
    from each side.
    """
    if diagram is None:
        diagram = _power_diagram(samples, g, box)
    n, l = samples.n, box.dimension
    lo, hi = box.lo.tolist(), box.hi.tolist()
    vols = [0.0] * n
    firsts = [(0.0,) * l] * n
    seconds = [0.0] * n
    pieces = []

    if l == 1:
        (box_lo,), (box_hi,) = lo, hi
        ends = diagram.ends
        chain = diagram.cells
        for pos, j in enumerate(chain):
            lo = max(box_lo, ends[pos])
            hi = min(box_hi, ends[pos + 1])
            if hi > lo:
                vols[j] = hi - lo
                firsts[j] = ((hi**2 - lo**2) / 2.0,)
                seconds[j] = (hi**3 - lo**3) / 3.0
            if facets and box_lo < ends[pos + 1] < box_hi:
                i = chain[pos + 1]
                pieces += [(j, i, 1.0), (i, j, 1.0)]
        moments = np.array(vols), np.array(firsts), np.array(seconds)
        return (*moments, pieces) if facets else moments

    cells, shapes = diagram.cells, diagram.shapes
    if lo != diagram.lo or hi != diagram.hi:
        inside = all(map(operator.ge, lo, diagram.lo))
        if not (inside and all(map(operator.le, hi, diagram.hi))):
            raise ValueError("the box reaches outside the diagram's hull")
        cells, shapes = _cells_in_box(diagram, lo, hi)
    if l == 2:
        for j, (poly, tags) in zip(cells, shapes):
            vols[j], firsts[j], seconds[j] = _polygon_moments(poly)
            if facets and vols[j] > 0.0:
                for k, i in enumerate(tags):
                    if i >= 0:
                        p, q = poly[k], poly[k - len(poly) + 1]
                        pieces.append((j, i, math.hypot(q[0] - p[0], q[1] - p[1])))
    else:
        for j, (verts, faces, tags) in zip(cells, shapes):
            vols[j], firsts[j], seconds[j] = _polyhedron_moments(verts, faces)
            if facets and vols[j] > 0.0:
                pieces += [
                    (j, i, _face_area(verts, face))
                    for face, i in zip(faces, tags)
                    if i >= 0
                ]
    moments = np.array(vols), np.array(firsts), np.array(seconds)
    return (*moments, pieces) if facets else moments


# ---------------------------------------------------------------------------
# density moments
# ---------------------------------------------------------------------------


def box_moments(density: BoxDensity) -> tuple[float, np.ndarray, float]:
    """Closed-form (N, integral x dalpha, integral ||x||^2 dalpha).

    Per box, integral of x_d is midpoint_d * volume and integral of x_d^2 is
    (hi_d^3 - lo_d^3)/3 * volume / width_d; weights multiply through.
    """
    n_mass = 0.0
    first = np.zeros(density.dimension)
    second = 0.0
    for box, w in density.boxes:
        vol = box.volume
        n_mass += w * vol
        first += w * vol * box.midpoint
        cubes = (box.hi**3 - box.lo**3) / 3.0
        second += w * float((cubes * (vol / box.widths)).sum())
    return n_mass, first, second
