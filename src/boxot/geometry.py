"""Hyperrectangle and Laguerre-cell geometry.

Data containers for box-supported densities and sample sets, point
classification into Laguerre (power) cells, Monte-Carlo and exact cell
volumes, and closed-form moments of the density.

Exact cell moments (l <= 3) come from a restricted power diagram. Cells j
and j' can share a facet only if the lifted points (y_j, ||y_j||^2 - g_j)
and (y_j', ||y_j'||^2 - g_j') are joined by an edge of the lifted points'
lower convex hull, and a site that is not a vertex of that hull has an empty
cell. The hull is a sort and a monotone chain in 1-D and one Qhull call in
2-D and 3-D, built once per iterate (one g) and shared by every box; each
cell is then the box clipped by its neighbours' half-spaces only. The
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
``(seed, box_index)`` stream, never on the worker count. A Monte-Carlo point
is labelled exactly as :func:`classify_points` labels it: the same in-place
scores, with the sinks' shifts applied along the flat score buffer, and the
same first-index-on-a-tie rule, one comparison per point when n = 2.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

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
# 2-core guest, 16 384 rows ran 2.3x slower than 8 192 at n = 16, l = 2).
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
    # Distances of pairs i < j, a block of rows i at a time against every
    # j > first row of the block; pairs with j <= i are masked out.
    pts = samples.points
    step = max(1, _PAIR_BLOCK // (n * l))
    for first in range(0, n - 1, step):
        diffs = pts[first : first + step, None, :] - pts[None, first + 1 :, :]
        dist = np.sqrt((diffs**2).sum(-1))
        later = np.arange(dist.shape[1]) >= np.arange(dist.shape[0])[:, None]
        s = min(s, float(dist[later].min()))
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
    # ||y_j||^2 and g_j repeated along the flat buffer of `rows` score rows.
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
    norms, weights = shifts
    scores = xs @ samples.points.T
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
    the index is the one comparison ``score_1 < score_0``. Every Monte Carlo
    point is labelled with the same scores and the same rule.
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
    identical, non-overlapping streams. Point r of a box is the r-th row of
    ``box_rng(seed, i).uniform(lo, hi, (m, l))`` however the draws are split
    into blocks, sub-chunks and worker threads.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(box_index,)))


def _box_draws(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    m: int,
    seed,
    box_index: int,
    per_point: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    dtype,
) -> Iterator[np.ndarray]:
    """``per_point`` of m uniform points of the box, drawn from ``box_rng``.

    ``per_point(pts, scores, out)`` writes one value per row of ``pts`` into
    ``out``; ``scores`` holds the rows' ``_scores`` under the weights g.
    Yields the values a block of at most ``_MC_CHUNK`` rows at a time, so
    memory stays bounded; each yielded array is reused for the next block.

    A block is split into contiguous row ranges, one per worker thread (the
    calling thread takes the first). A worker copies the stream's state,
    advances it to its first row and draws its rows a sub-chunk at a time
    (sized from ``samples``) as ``lo + width * u``, the values
    ``Generator.uniform`` gives. No piece of a block of two or more rows has
    a single row: numpy multiplies a lone row with another kernel, which
    rounds differently. So every value depends only on its row, never on
    the split.

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
    size = max(2, min(_MC_SUBCHUNK, _MC_SUBCHUNK_WORK // (samples.n * l)))
    block = np.empty(min(m, _MC_CHUNK), dtype=dtype)
    # lo and width repeated along the flat buffer, like the score shifts:
    # one contiguous multiply and add, where broadcasting over rows of
    # l = 2-4 was 4-13x slower. Built once, for the longest sub-chunk.
    longest = min(m, size + 1)
    flat_lo, flat_width = np.tile(box.lo, longest), np.tile(box.widths, longest)
    shifts = _score_shifts(samples, g, longest)

    def fill(start: int, first: int, stop: int) -> None:
        # Rows [first, stop) of the stream into block[first - start:stop - start].
        bitgen = np.random.PCG64()
        bitgen.state = state
        rng = np.random.Generator(bitgen.advance(first * l))
        buf = np.empty((min(stop - first, size + 1), l))
        while first < stop:
            end = stop if stop - first <= size + 1 else first + size
            pts = buf[: end - first]
            rng.random(out=pts)
            flat = pts.reshape(-1)
            flat *= flat_width[: flat.size]
            flat += flat_lo[: flat.size]
            scores = _scores(samples, shifts, pts)
            per_point(pts, scores, block[first - start : end - start])
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
) -> np.ndarray:
    """Estimate vol(L_j(g) n box) for all j at once by rejection sampling.

    Draws m >= ceil(ln(2n/eta')/(2 eps_bar^2)) uniform points in the box,
    classifies each, and returns fraction_j * vol(box). With probability at
    least 1 - eta' every cell satisfies |v_j - vol(L_j n box)| <=
    eps_bar * vol(box) (Hoeffding plus a union bound over the n cells).

    One pass serves every cell: the gradient consumes all j for a fixed box.
    The points are the first m rows of the ``box_rng(seed, box_index)``
    stream, classified and counted on one thread per usable core; each
    point's cell depends only on its row, so the result is the same, bit for
    bit, for any worker count.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("dual weights must be finite")
    m = mc_sample_count(samples.n, eps_bar, eta_prime)
    # Each worker counts its own sub-chunk's labels, so no worker waits on a
    # count of the whole block; integer counts add up to the same total in
    # any order.
    counts = np.zeros(samples.n, dtype=np.int64)
    lock = threading.Lock()

    def label(pts: np.ndarray, scores: np.ndarray, out: np.ndarray) -> None:
        part = np.bincount(_labels(scores, out), minlength=samples.n)
        with lock:
            np.add(counts, part, out=counts)

    for _ in _box_draws(samples, g, box, m, seed, box_index, label, np.intp):
        pass
    return counts / m * box.volume


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

    Averages the potential over m uniform points of the box, drawn as in
    :func:`cell_box_volumes_mc`; the caller picks m for its accuracy target.
    """

    def potential(pts: np.ndarray, scores: np.ndarray, out: np.ndarray) -> None:
        np.add(scores.min(axis=1), (pts**2).sum(-1), out=out)

    acc = 0.0
    for values in _box_draws(samples, g, box, m, seed, box_index, potential, float):
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


class _PowerDiagram(NamedTuple):
    """The Laguerre cells of one (samples, g), shared by every box.

    ``cells`` lists the cells that may be nonempty. In 1-D they are in
    chain order, and cell ``cells[p]`` is the interval
    ``[ends[p], ends[p + 1]]``. In 2-D and 3-D, ``rows[p]`` lists the
    half-space rows ``(a, b, i)``, meaning a.x <= b, of cell ``cells[p]``
    against each of its candidate neighbours i. Everything is plain floats.
    """

    cells: list[int]
    ends: list[float]
    rows: list[list[tuple[list[float], float, int]]]


def _power_diagram(samples: SampleSet, g: np.ndarray) -> _PowerDiagram:
    """The restricted power diagram of the sinks under weights g (l <= 3).

    Cell j is {x : ||x - y_j||^2 - g_j <= ||x - y_j'||^2 - g_j' for all j'},
    so its row against neighbour j' is a = 2 (y_j' - y_j),
    b = g_j - g_j' + ||y_j'||^2 - ||y_j||^2. The neighbours come from the
    lower convex hull of the lifted points (y_j, ||y_j||^2 - g_j): a
    monotone chain in 1-D, :func:`_power_neighbours` in 2-D and 3-D. When
    n <= l + 1 or Qhull rejects the points every pair is used, and those
    rows are built with plain loops.
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
    if l == 1:
        ys = y[:, 0].tolist()
        chain = _lower_chain(ys, [nj - gj for nj, gj in zip(ns, gs)])
        # Consecutive chain cells meet where their half-space rows cut.
        cuts = [
            (gs[i] - gs[j] + ns[j] - ns[i]) / (2.0 * (ys[j] - ys[i]))
            for i, j in zip(chain, chain[1:])
        ]
        return _PowerDiagram(chain, [-math.inf, *cuts, math.inf], [])

    neighbours = _power_neighbours(y, norms - g) if n > l + 1 else None
    if neighbours is None:
        ys = y.tolist()
        rows = [
            [
                ([2.0 * (q - p) for p, q in zip(ys[i], ys[j])],
                 gs[i] - gs[j] + ns[j] - ns[i], j)
                for j in range(n)
                if j != i
            ]
            for i in range(n)
        ]
        return _PowerDiagram(list(range(n)), [], rows)
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
    return _PowerDiagram(cells, [], rows)


def _clip_polygon(poly, tags, a, b, tag):
    """Sutherland-Hodgman clip of a convex polygon against a.x <= b.

    ``tags[i]`` names the row that made the edge from ``poly[i]`` to
    ``poly[i + 1]`` (-1 for a box edge); the new edge along a.x = b gets
    ``tag``. Returns the clipped polygon and its tags.
    """
    vals = [a[0] * p[0] + a[1] * p[1] - b for p in poly]
    if max(vals) <= 0.0:
        return poly, tags
    out = []
    out_tags = []
    m = len(poly)
    for i in range(m):
        i1 = (i + 1) % m
        p = poly[i]
        q = poly[i1]
        fp = vals[i]
        fq = vals[i1]
        pin = fp <= 0.0
        qin = fq <= 0.0
        if pin and qin:
            out.append(q)
            out_tags.append(tags[i1])
        elif pin and not qin:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            out_tags.append(tag)
        elif not pin and qin:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            out_tags.append(tags[i])
            out.append(q)
            out_tags.append(tags[i1])
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


def _box_polyhedron(lo, hi):
    """Vertex list and face index lists (each face a cycle) of a 3-D box."""
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
    return verts, faces


def _clip_polyhedron(verts, faces, tags, a, b, tag):
    """Clip a convex polyhedron (vertices, face cycles) against a.x <= b.

    Each face is clipped by Sutherland-Hodgman. A cut edge's new vertex is
    computed once, from its inside end, and shared by both faces on the edge.
    The new vertices bound the cap face, which is ordered by angle about
    their centroid in the cutting plane. ``tags[f]`` names the row that made
    face f (-1 for a box face); the cap gets ``tag``.
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
    for face, face_tag in zip(faces, tags):
        out = []
        p = face[-1]
        for q in face:
            if vals[q] <= 0.0:
                if vals[p] > 0.0:
                    out.append(cut_vertex(q, p))
                out.append(index[q])
            elif vals[p] <= 0.0:
                out.append(cut_vertex(p, q))
            p = q
        if len(out) >= 3:
            clipped.append(out)
            clipped_tags.append(face_tag)
    cap = list(cut.values())
    if len(cap) >= 3:
        m = len(cap)
        cx = sum(kept[i][0] for i in cap) / m
        cy = sum(kept[i][1] for i in cap) / m
        cz = sum(kept[i][2] for i in cap) / m
        # (u, v) spans the cutting plane: u = e x a for the axis e least
        # aligned with a, v = a x u.
        ax = min(range(3), key=lambda d: abs(a[d]))
        if ax == 0:
            u = (0.0, -a2, a1)
        elif ax == 1:
            u = (a2, 0.0, -a0)
        else:
            u = (-a1, a0, 0.0)
        v = (a1 * u[2] - a2 * u[1], a2 * u[0] - a0 * u[2], a0 * u[1] - a1 * u[0])

        def angle(i):
            dx, dy, dz = kept[i][0] - cx, kept[i][1] - cy, kept[i][2] - cz
            return math.atan2(
                dx * v[0] + dy * v[1] + dz * v[2], dx * u[0] + dy * u[1] + dz * u[2]
            )

        clipped.append(sorted(cap, key=angle))
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


def cell_box_moments_exact(
    samples: SampleSet,
    g: np.ndarray,
    box: Hyperrectangle,
    diagram: _PowerDiagram | None = None,
    facets: bool = False,
) -> tuple:
    """Exact (volume, integral x, integral ||x||^2) of L_j(g) n box for all j.

    Restricted power diagram, for l <= 3 only. ``diagram`` is
    ``_power_diagram(samples, g)``, built here when None; a caller with
    several boxes builds it once per g and passes it to every box. Each
    cell is the box clipped by its neighbours' half-spaces only, after
    dropping those that hold the whole box (a half-space that misses the
    box empties the cell): an interval in 1-D, a polygon in 2-D and a
    face-list polyhedron in 3-D. A cell has about 6 neighbours in 2-D and
    15 in 3-D, so the cost is one O(n log n) diagram per g plus O(n) small
    clips in plain floats per box.
    Returns (vols (n,), firsts (n, l), seconds (n,)). Deterministic.

    With ``facets`` it also returns a list of (j, i, measure): the measure
    of the boundary piece that cell j's row against neighbour i cut from
    the box (a point counts 1 in 1-D, a length in 2-D, an area in 3-D),
    one entry per piece of each nonempty cell, so every facet appears once
    from each side.
    """
    if diagram is None:
        diagram = _power_diagram(samples, g)
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

    # Per row, the centre and half-range of a.x - b over the box: a row whose
    # half-space holds the whole box is redundant in it, and one whose
    # half-space misses the box empties the cell there.
    pad = [0.0] * (3 - l)
    m0, m1, m2 = [0.5 * (p + q) for p, q in zip(lo, hi)] + pad
    h0, h1, h2 = [0.5 * (q - p) for p, q in zip(lo, hi)] + pad
    if l == 2:
        base = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    else:
        base = _box_polyhedron(lo, hi)
    box_tags = [-1] * (4 if l == 2 else 6)
    for j, rows in zip(diagram.cells, diagram.rows):
        cutting = []
        for a, b, i in rows:
            if l == 2:
                centre = a[0] * m0 + a[1] * m1 - b
                reach = abs(a[0]) * h0 + abs(a[1]) * h1
            else:
                centre = a[0] * m0 + a[1] * m1 + a[2] * m2 - b
                reach = abs(a[0]) * h0 + abs(a[1]) * h1 + abs(a[2]) * h2
            if centre > reach:
                break
            if centre > -reach:
                cutting.append((a, b, i))
        else:
            tags = box_tags
            if l == 2:
                poly = base
                for a, b, i in cutting:
                    poly, tags = _clip_polygon(poly, tags, a, b, i)
                    if len(poly) < 3:
                        break
                vols[j], firsts[j], seconds[j] = _polygon_moments(poly)
                if facets and vols[j] > 0.0:
                    for k, i in enumerate(tags):
                        if i >= 0:
                            p, q = poly[k], poly[k - len(poly) + 1]
                            pieces.append((j, i, math.hypot(q[0] - p[0], q[1] - p[1])))
            else:
                verts, faces = base
                for a, b, i in cutting:
                    verts, faces, tags = _clip_polyhedron(verts, faces, tags, a, b, i)
                    if not faces:
                        break
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
