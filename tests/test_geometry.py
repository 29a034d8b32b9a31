"""Hyperrectangle/Laguerre geometry: types, classification, volumes, moments."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from boxot import fixtures as fx
from boxot import geometry
from boxot import dual_solver as ds_module
from boxot.dual_solver import _evaluate
from boxot.geometry import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    SampleSet,
    box_moments,
    box_rng,
    cell_box_moments_exact,
    cell_box_volumes_mc,
    classify_points,
    instance_stats,
    mc_sample_count,
    potential_integral_mc,
)


class TestHyperrectangle:
    def test_basic_properties(self):
        box = Hyperrectangle([0.0, -1.0], [1.0, 3.0])
        assert box.dimension == 2
        assert_allclose(box.widths, [1.0, 4.0])
        assert box.volume == 4.0
        assert_allclose(box.midpoint, [0.5, 1.0])

    def test_degenerate_width_raises(self):
        with pytest.raises(ValueError):
            Hyperrectangle([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            Hyperrectangle([1.0], [0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Hyperrectangle([0.0, 0.0], [1.0])

    def test_max_corner_norm(self):
        assert Hyperrectangle([-2.0], [1.0]).max_corner_norm() == 2.0
        box = Hyperrectangle([-1.0, 3.0], [2.0, 4.0])
        assert_allclose(box.max_corner_norm(), np.sqrt(4.0 + 16.0))


class TestBoxDensity:
    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 0.9),))

    def test_overlap_names_the_pair(self):
        boxes = (
            (Hyperrectangle([0.0], [1.0]), 0.5),
            (Hyperrectangle([0.5], [1.5]), 0.5),
        )
        with pytest.raises(ValueError, match="boxes 0 and 1"):
            BoxDensity(dimension=1, boxes=boxes)

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 300])
    def test_late_overlap_among_many_boxes(self, block, monkeypatch):
        # 300 unit intervals with gaps; only the last one overlaps box 298.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        boxes = [
            (Hyperrectangle([2.0 * i], [2.0 * i + 1.0]), 1 / 300) for i in range(300)
        ]
        boxes[299] = (Hyperrectangle([596.5], [597.5]), 1 / 300)
        with pytest.raises(ValueError, match="^boxes 298 and 299 have overlapping"):
            BoxDensity(dimension=1, boxes=tuple(boxes))
        # With a second overlap (3, 250), the first pair in loop order wins.
        boxes[250] = (Hyperrectangle([6.5], [7.0]), 2 / 300)
        with pytest.raises(ValueError, match="^boxes 3 and 250 have overlapping"):
            BoxDensity(dimension=1, boxes=tuple(boxes))

    def test_first_overlap_matches_pairwise_loop(self, monkeypatch):
        # Random 2-D boxes against the pairwise loop the check replaced.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 64)
        rng = np.random.default_rng(5)
        for _ in range(20):
            lo = rng.uniform(0.0, 100.0, size=(40, 2))
            boxes = [Hyperrectangle(a, a + rng.uniform(0.5, 3.0, size=2)) for a in lo]
            weight = 1.0 / sum(box.volume for box in boxes)
            first = next(
                (
                    (i, j)
                    for i in range(40)
                    for j in range(i + 1, 40)
                    if ((boxes[i].lo < boxes[j].hi) & (boxes[j].lo < boxes[i].hi)).all()
                ),
                None,
            )
            pairs = tuple((box, weight) for box in boxes)
            if first is None:
                BoxDensity(dimension=2, boxes=pairs)
            else:
                message = f"^boxes {first[0]} and {first[1]} have"
                with pytest.raises(ValueError, match=message):
                    BoxDensity(dimension=2, boxes=pairs)

    def test_touching_faces_are_allowed(self):
        density = BoxDensity(
            dimension=1,
            boxes=(
                (Hyperrectangle([0.0], [1.0]), 0.5),
                (Hyperrectangle([1.0], [2.0]), 0.5),
            ),
        )
        assert density.k == 2
        assert_allclose(density.total_mass, 1.0)

    def test_nonpositive_weight_raises(self):
        with pytest.raises(ValueError):
            BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 0.0),))


class TestSampleSet:
    def test_uniform_demands(self):
        s = SampleSet.uniform(np.array([[0.0], [1.0], [2.0]]))
        assert_allclose(s.demands, [1 / 3, 1 / 3, 1 / 3])
        assert s.uniform_demands

    @pytest.mark.parametrize("off", [0.0, 0.5e-9, 1e-9, 1.5e-9, 1e-6])
    def test_uniform_demands_is_allclose_at_mass_tol(self, off):
        # one max-abs comparison against MASS_TOL, the rule of np.allclose
        # with rtol = 0 on finite demands, on either side of the tolerance
        demands = np.array([0.5 + off, 0.5 - off])
        s = SampleSet(np.array([[0.0], [1.0]]), demands)
        expected = np.allclose(demands, 0.5, atol=geometry.MASS_TOL, rtol=0.0)
        assert s.uniform_demands is bool(expected)
        if off != 1e-9:
            assert s.uniform_demands is (off < 1e-9)

    def test_demands_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SampleSet(points=np.array([[0.0], [1.0]]), demands=np.array([0.5, 0.6]))

    def test_negative_demand_raises(self):
        with pytest.raises(ValueError):
            SampleSet(points=np.array([[0.0], [1.0]]), demands=np.array([-0.1, 1.1]))

    def test_duplicate_points_raise(self):
        with pytest.raises(ValueError):
            SampleSet.uniform(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_duplicate_names_the_smallest_pair(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(300, 2))
        # a scan in index order meets (12, 270) before (41, 250) and (41, 290)
        pts[250] = pts[41]
        pts[270] = pts[12]
        pts[290] = pts[41]
        with pytest.raises(ValueError, match="samples 12 and 270 coincide"):
            SampleSet.uniform(pts)
        pts[270] = rng.uniform(2, 3, size=2)
        with pytest.raises(ValueError, match="samples 41 and 250 coincide"):
            SampleSet.uniform(pts)

    def test_signed_zeros_coincide(self):
        with pytest.raises(ValueError, match="samples 0 and 2 coincide"):
            SampleSet.uniform(np.array([[0.0, 1.0], [0.5, 1.0], [-0.0, 1.0]]))


class TestInstanceStats:
    def test_symmetric_interval_constants(self, symmetric_interval):
        stats = symmetric_interval.stats
        assert stats.D == 1.0
        assert stats.s == 2.0
        assert stats.L == 1.0

    def test_square_diagonal_dominates(self, symmetric_square):
        stats = symmetric_square.stats
        assert_allclose(stats.D, np.sqrt(2.0))
        assert stats.s == 2.0
        assert stats.L == 2.0

    def test_corner_can_dominate_samples(self):
        density = BoxDensity(
            dimension=1, boxes=((Hyperrectangle([0.0], [3.0]), 1 / 3),)
        )
        samples = SampleSet.uniform(np.array([[0.5], [1.0]]))
        stats = instance_stats(density, samples)
        assert stats.D == 3.0
        assert stats.s == 0.5
        assert_allclose(stats.L, 2 * 2 * 1 * 1 / 0.25)

    def test_min_box_width_can_set_s(self):
        density = BoxDensity(
            dimension=2, boxes=((Hyperrectangle([0.0, 0.0], [0.1, 10.0]), 1.0),)
        )
        samples = SampleSet.uniform(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        stats = instance_stats(density, samples)
        assert_allclose(stats.s, 0.1)

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 300])
    def test_s_has_the_bits_of_the_summed_squares(self, block, monkeypatch):
        # s against the minimum over sqrt((diffs**2).sum(-1)) of all pairs,
        # bit for bit, on 300 random sets of sinks (some with a near pair).
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(300)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            l = int(rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 12, 130]))
            pts = rng.normal(size=(n, l)) * 10.0 ** rng.integers(-5, -1)
            if rng.random() < 0.5:
                pts[-1] = pts[0] + rng.uniform(-1e-8, 1e-8, size=l)
            samples = SampleSet.uniform(pts)
            box = Hyperrectangle(np.full(l, -1.0), np.full(l, 1.0))
            density = BoxDensity(dimension=l, boxes=((box, 1.0 / box.volume),))
            diffs = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diffs**2).sum(-1))
            s = float(dist[np.triu_indices(n, 1)].min())
            assert s < 2.0
            assert instance_stats(density, samples).s == s

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 500])
    def test_blocked_distance_matches_full_matrix(self, block, monkeypatch):
        # s, and with it L, against the (n, n, l) formula the blocks replaced.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(11)
        for n, l in [(2, 1), (3, 2), (17, 3), (60, 2), (41, 9), (200, 1)]:
            pts = rng.normal(size=(n, l))
            # the closest pair among the last rows: the last block sets s
            pts[-1] = pts[-2] + rng.uniform(1e-7, 1e-6, size=l)
            samples = SampleSet.uniform(pts)
            box = Hyperrectangle(np.full(l, -10.0), np.full(l, 10.0))
            density = BoxDensity(dimension=l, boxes=((box, 1.0 / box.volume),))
            diffs = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diffs**2).sum(-1))
            s = min(20.0, float(dist[np.triu_indices(n, 1)].min()))
            stats = instance_stats(density, samples)
            assert stats.s == s
            assert stats.L == 2.0 * n * l / s**2


class TestClassifyPoint:
    def test_nearer_site_wins(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        assert classify_points(samples, np.zeros(2), np.array([[0.3]])).tolist() == [1]

    def test_tie_breaks_to_smallest_index(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        assert classify_points(samples, np.zeros(2), np.array([[0.0]])).tolist() == [0]

    def test_weights_move_the_boundary(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        g = np.array([0.0, 0.5])
        # boundary sits at x = -1/8
        labels = classify_points(samples, g, np.array([[-0.2], [-0.1]]))
        assert labels.tolist() == [0, 1]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(5, 3)))
        g = rng.uniform(-0.3, 0.3, size=5)
        xs = rng.uniform(-2, 2, size=(50, 3))
        # argmin_j ||x - y_j||^2 - g_j, one point at a time
        scalar = [
            int(np.argmin(((x - samples.points) ** 2).sum(-1) - g)) for x in xs
        ]
        assert classify_points(samples, g, xs).tolist() == scalar

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_labels_follow_argmin(self, n):
        # The labelling rule is argmin's, including the first index on a tie:
        # random finite scores, small integers (many exact ties) and all-equal
        # rows. A fold with W = I and c = 0 hands _unit_labels the scores
        # themselves; with n = 2, the projection v = (-1, 1) against c' = 0
        # compares score_1 - score_0 with 0, whose sign is exact.
        rng = np.random.default_rng(n)
        cases = [
            rng.uniform(-1.0, 1.0, size=(1000, n)) * 10.0 ** rng.integers(-3, 4),
            rng.integers(-2, 2, size=(1000, n)).astype(float),
            np.full((7, n), 0.25),
        ]
        for scores in cases:
            folds = [(np.eye(n), np.zeros(scores.size))]
            if n == 2:
                folds.append((np.array([-1.0, 1.0]), 0.0))
            for fold in folds:
                out = np.empty(len(scores), dtype=np.intp)
                assert geometry._unit_labels(fold, scores, out) is out
                assert out.tolist() == np.argmin(scores, axis=1).tolist()
        assert out.tolist() == [0] * 7

    def test_one_point_gets_its_batch_label(self):
        # A lone row is scored as it is inside a batch, bit for bit, so
        # classifying a point alone gives the label the batch gives it.
        rng = np.random.default_rng(41)
        for l in range(1, 6):
            for n in range(1, 41):
                samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, l)))
                g = rng.uniform(-0.2, 0.2, size=n)
                xs = rng.uniform(-1.5, 1.5, size=(9, l))
                labels = classify_points(samples, g, xs)
                for i in range(len(xs)):
                    assert classify_points(samples, g, xs[i]).tolist() == [labels[i]]

    def test_unit_scores_have_the_bits_of_every_row_count(self):
        # The Monte Carlo kernel scores unit draws with the box folded into
        # the sinks: each row's scores (and, when n = 2, the projection) have
        # the bits of the broadcast form over all rows, at every row count
        # from 2 to 130, at the sub-chunk lengths, and for a lone row.
        rng = np.random.default_rng(19)
        for l in range(1, 6):
            for n in range(1, 41):
                samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, l)))
                g = rng.uniform(-0.2, 0.2, size=n)
                lo = rng.uniform(-1.5, 0.0, size=l)
                box = Hyperrectangle(lo, lo + rng.uniform(0.5, 2.0, size=l))
                size = geometry._subchunk_rows(samples, l)
                counts = [*range(2, 131), size, size + 1]
                u = rng.random((max(counts), l))
                for project in (True, False):
                    fold = geometry._unit_fold(samples, g, box, max(counts), project)
                    assert fold[0].flags.c_contiguous
                    expected = _unit_broadcast_scores(samples, g, box, u, project)[0]
                    for rows in counts:
                        scores = geometry._unit_scores(fold, u[:rows])
                        assert scores.tobytes() == expected[:rows].tobytes(), (
                            l, n, rows, project
                        )
                    for i in (0, 1, 63):
                        alone = geometry._unit_scores(fold, u[i : i + 1])
                        assert alone.tobytes() == expected[i : i + 1].tobytes(), (
                            l, n, i, project
                        )


class TestMcVolumes:
    def test_symmetric_split(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        v = cell_box_volumes_mc(samples, np.zeros(2), box, 0.01, 0.05, seed=0)
        assert_allclose(v, [1.0, 1.0], atol=0.02)

    def test_single_cell_has_no_variance(self):
        samples = SampleSet.uniform(np.array([[0.3, 0.3]]))
        box = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
        v = cell_box_volumes_mc(samples, np.zeros(1), box, 0.05, 0.05, seed=9)
        assert_allclose(v, [1.0])

    def test_shifted_boundary(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        v = cell_box_volumes_mc(samples, np.array([0.0, 0.5]), box, 0.01, 0.05, seed=1)
        assert_allclose(v[0], 0.875, atol=0.02)

    def test_deterministic_per_seed_and_box(self):
        # Box i of a call draws from stream i: the first of two copies of a
        # box repeats the box's own call, and the second differs from it.
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        a = cell_box_volumes_mc(samples, np.zeros(2), box, 0.01, 0.1, seed=4)
        b, c = cell_box_volumes_mc(samples, np.zeros(2), [box, box], 0.01, 0.1, seed=4)
        assert (a == b).all()
        assert (a != c).any()

    def test_substream_rule_is_stable(self):
        # the per-box stream is pinned to (seed, i), not call order
        first = box_rng(7, 2).uniform(size=3)
        again = box_rng(7, 2).uniform(size=3)
        other = box_rng(7, 3).uniform(size=3)
        assert (first == again).all()
        assert (first != other).any()

    def test_sample_count_formula(self):
        m = mc_sample_count(2, 0.01, 0.05)
        assert m == int(np.ceil(np.log(2 * 2 / 0.05) / (2 * 0.01**2)))
        with pytest.raises(ValueError):
            mc_sample_count(2, 0.0, 0.05)
        with pytest.raises(ValueError):
            mc_sample_count(2, 0.01, 1.5)

    def test_non_finite_weights_raise(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        with pytest.raises(ValueError):
            cell_box_volumes_mc(samples, np.array([np.nan, 0.0]), box, 0.05, 0.1, 0)

    @pytest.mark.parametrize(
        "g",
        [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0], [0.0], [[0.0, 0.0]]],
        ids=["nan", "inf", "three", "one", "row"],
    )
    @pytest.mark.parametrize(
        "consumer",
        ["volumes", "potential", "potentials", "classify", "energy", "gradient"],
    )
    def test_every_consumer_checks_the_weights(self, consumer, g, monkeypatch):
        # Each Monte Carlo consumer folds g into the sinks, and the fold takes
        # only n finite weights: a length-3 g against two sinks would
        # misalign the tiled constants, and a NaN would give a NaN potential
        # or a label. The exact energy and gradient check g the same way,
        # before a wrong shape fails inside numpy's broadcasting or indexing.
        # Every check comes before a pool of threads is asked for.
        def no_pool():
            raise AssertionError("a pool was started")

        monkeypatch.setattr(geometry, "_pool", no_pool)
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        instance = Instance(BoxDensity(1, ((box, 0.5),)), samples)
        g = np.array(g)
        calls = {
            "volumes": lambda: cell_box_volumes_mc(samples, g, box, 0.05, 0.1, 0),
            "potential": lambda: potential_integral_mc(samples, g, box, 0.5, 100, 0),
            "potentials": lambda: potential_integral_mc(
                samples, g, [box, box], [0.5, 0.5], 100, 0
            ),
            "classify": lambda: classify_points(samples, g, np.array([[0.3]])),
            "energy": lambda: ds_module.energy(instance, g),
            "gradient": lambda: ds_module.gradient(instance, g),
        }
        with pytest.raises(ValueError, match="dual weights must"):
            calls[consumer]()

    def test_budget_above_cap_is_refused_before_drawing(self, monkeypatch):
        def no_draws(seed, i):
            raise AssertionError("drew samples past the cap")

        monkeypatch.setattr(geometry, "box_rng", no_draws)
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        with pytest.raises(ValueError, match="exceeds cap"):
            cell_box_volumes_mc(samples, np.zeros(2), box, 1e-4, 0.05, seed=0)


def _unit_broadcast_scores(samples, g, box, u, project=True):
    # The broadcast form of the unit-draw scores: u @ W + c for the box folded
    # into the sinks, or with n = 2 and `project` the projections u @ v and
    # their cut c'.
    y, lo, w = samples.points, box.lo, box.widths
    norms = samples.squared_norms
    if project and samples.n == 2:
        d = y[0] - y[1]
        cut = (norms[0] - g[0]) - (norms[1] - g[1]) - 2.0 * float(lo @ d)
        return u @ (2.0 * w * d), cut
    return u @ (-2.0 * w[:, None] * y.T) + (norms - g - 2.0 * (y @ lo)), None


def _unit_rule_counts(samples, g, box, u):
    # Cell counts of unit draws u under the unit-draw rule: the first least
    # score, or with n = 2 cell 1 where u . v < c' (a tie stays in cell 0).
    scores, cut = _unit_broadcast_scores(samples, g, box, u)
    if cut is None:
        return np.bincount(np.argmin(scores, axis=1), minlength=samples.n)
    ones = np.count_nonzero(scores < cut)
    return np.array([len(u) - ones, ones])


# (l, workers, n): n = 2 takes the one-comparison labelling, n = 5 argmin.
_SPLIT_CASES = [(l, w, n) for n in (5, 2) for l in (1, 2, 4) for w in (1, 3, 8)]


class TestMcWorkers:
    # A point's value depends only on its row of the (seed, i) stream of
    # box i, whatever the block length, sub-chunk length and worker count.

    @pytest.fixture
    def frequent_switches(self):
        # Hand the interpreter lock over far more often than by default.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "l, workers, n",
        _SPLIT_CASES,
        ids=[f"{l}-{w}" + ("" if n == 5 else f"-n{n}") for l, w, n in _SPLIT_CASES],
    )
    def test_split_does_not_change_results(
        self, l, workers, n, monkeypatch, frequent_switches
    ):
        # With 3 workers a 1000-row block splits into ranges of 333, 333 and
        # 334 rows; 333 = 4 * 83 + 1 would end in a single-row piece. Eight
        # workers are more threads than the cores of most test machines.
        # The box is box 3 of a call of four copies of it, so stream 3.
        monkeypatch.setattr(geometry, "_MC_CHUNK", 1000)
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 83)
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        m = 2503
        monkeypatch.setattr(geometry, "mc_sample_count", lambda n, eps, eta: m)
        rng = np.random.default_rng(l)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, l)))
        g = rng.uniform(-0.2, 0.2, size=n)
        box = Hyperrectangle(np.full(l, -1.0), np.linspace(0.5, 1.5, l))
        units = box_rng((4, 2), 3).random((m, l))

        def broadcast_scores(u):
            # the broadcast form of the scores, which the kernel must round
            # alike: both scores at n = 2, as the potential takes them
            return _unit_broadcast_scores(samples, g, box, u, project=False)[0]

        counts = _unit_rule_counts(samples, g, box, units)
        v = cell_box_volumes_mc(samples, g, [box] * 4, 0.1, 0.1, seed=(4, 2))[3]
        assert v.tolist() == (counts / m * box.volume).tolist()

        serial = []
        for first in range(0, m, 1000):
            serial.append(broadcast_scores(units[first : first + 1000]).min(axis=1))
        e = potential_integral_mc(samples, g, [box] * 4, [0.25] * 4, m, (4, 2))[3]
        acc = sum(float(block.sum()) for block in serial)
        assert e == 0.25 * box.volume * acc / m

        # The per-point values themselves, which a sum could round away:
        # each point's draw and its swept scores, drawn a block at a time
        # by the loop that every Monte Carlo consumer draws through.
        swept, asked = np.empty(m), []

        def potential(i):
            def value(u, row):
                if i == 3:
                    swept[row : row + len(u)] = broadcast_scores(u).min(axis=1)

            return value

        def next_block(rows):
            asked.append(rows)
            return math.inf

        assert geometry._draw(samples, 4, m, (4, 2), potential, next_block) == m
        assert asked == [0, 1000, 2000]
        assert swept.tolist() == np.concatenate(serial).tolist()

    @pytest.mark.parametrize("fail_at", [0, 5, 40])
    def test_worker_failure_is_raised(self, fail_at, monkeypatch):
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 97)
        monkeypatch.setattr(geometry, "_MC_WORKERS", 3)
        labels = geometry._unit_labels
        calls = itertools.count()
        failure = RuntimeError("labels failed")

        def failing_labels(fold, u, out):
            if next(calls) == fail_at:
                raise failure
            return labels(fold, u, out)

        monkeypatch.setattr(geometry, "_unit_labels", failing_labels)
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        baseline = threading.active_count()
        # 18 445 draws: about 190 sub-chunks over 3 threads
        with pytest.raises(RuntimeError) as raised:
            cell_box_volumes_mc(samples, np.zeros(2), box, 0.01, 0.1, seed=0)
        assert raised.value is failure
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2, 5])
    def test_full_block_counts(self, workers, n, monkeypatch):
        # One full _MC_CHUNK block plus a remainder, at the real sub-chunk
        # length.
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        m = geometry._MC_CHUNK + 3
        monkeypatch.setattr(geometry, "mc_sample_count", lambda n, eps, eta: m)
        rng = np.random.default_rng(n)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, 2)))
        g = rng.uniform(-0.2, 0.2, size=n)
        box = Hyperrectangle([-1.0, -0.5], [1.0, 1.5])
        units = box_rng(11, 0).random((m, 2))
        counts = np.zeros(n, dtype=np.int64)
        # 2 000 003 = 20 * 100 000 + 3: no piece of a single row
        for first in range(0, m, 100_000):
            counts += _unit_rule_counts(samples, g, box, units[first : first + 100_000])
        v = cell_box_volumes_mc(samples, g, box, 0.1, 0.1, seed=11)
        assert v.tolist() == (counts / m * box.volume).tolist()

    @pytest.mark.parametrize("n", [2, 5])
    def test_ties_count_in_the_first_cell(self, n, monkeypatch):
        fold = geometry._unit_fold

        def equal_fold(*args):
            # every score (or n = 2 projection and its cut) zero, for the
            # count and for classify_points alike
            return tuple(np.zeros_like(part) for part in fold(*args))

        monkeypatch.setattr(geometry, "_unit_fold", equal_fold)
        samples = SampleSet.uniform(np.arange(n, dtype=float)[:, None])
        box = Hyperrectangle([-1.0], [1.0])
        v = cell_box_volumes_mc(samples, np.zeros(n), box, 0.05, 0.1, seed=3)
        assert v.tolist() == [box.volume] + [0.0] * (n - 1)
        xs = np.linspace(-1.0, 1.0, 9)[:, None]
        assert classify_points(samples, np.zeros(n), xs).tolist() == [0] * 9

    def test_lost_labels_are_raised(self, monkeypatch):
        # a label callback that drops each sub-chunk's first point
        labels = geometry._unit_labels
        monkeypatch.setattr(
            geometry, "_unit_labels", lambda fold, u, out: labels(fold, u, out)[1:]
        )
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        m = mc_sample_count(2, 0.05, 0.1)
        with pytest.raises(RuntimeError, match=f"not to m = {m}"):
            cell_box_volumes_mc(samples, np.zeros(2), box, 0.05, 0.1, seed=0)

    def test_an_empty_box_sequence_is_refused(self, monkeypatch):
        # refused by name, before a pool of threads is asked for
        def no_pool():
            raise AssertionError("a pool was started")

        monkeypatch.setattr(geometry, "_pool", no_pool)
        samples = SampleSet.uniform(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        for plan in (None, lambda volumes, k: math.inf):
            with pytest.raises(ValueError, match="at least one box"):
                cell_box_volumes_mc(
                    samples, np.zeros(2), [], 0.05, 0.1, seed=0, plan=plan
                )
        with pytest.raises(ValueError, match="at least one box"):
            potential_integral_mc(samples, np.zeros(2), [], [], 100, 0)
        box = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="one weight per box"):
            potential_integral_mc(samples, np.zeros(2), [box, box], [0.5], 100, 0)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [2, 5])
    def test_stop_returns_the_prefix_estimate(self, workers, n, monkeypatch):
        # Blocks of 1000 rows: a plan that finds no row to pass at (inf)
        # sees each block's prefix short of m, and a stop after the third
        # returns the first 3000 rows' counts.
        monkeypatch.setattr(geometry, "_MC_CHUNK", 1000)
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 83)
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        m = 5003
        monkeypatch.setattr(geometry, "mc_sample_count", lambda n, eps, eta: m)
        rng = np.random.default_rng(n)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, 2)))
        g = rng.uniform(-0.2, 0.2, size=n)
        box = Hyperrectangle([-1.0, -0.5], [1.0, 1.5])
        units = box_rng(11, 0).random((m, 2))
        args = (samples, g, box, 0.1, 0.1, 11)
        seen = []

        def stop_at(rows):
            def plan(volumes, k):
                if volumes is None:
                    return math.inf
                expected = _unit_rule_counts(samples, g, box, units[:k])
                assert volumes.tolist() == (expected / k * box.volume).tolist()
                seen.append(k)
                return None if k == rows else math.inf

            return plan

        baseline = threading.active_count()
        v = cell_box_volumes_mc(*args, plan=stop_at(3000))
        assert seen == [1000, 2000, 3000]
        counts = _unit_rule_counts(samples, g, box, units[:3000])
        assert v.tolist() == (counts / 3000 * box.volume).tolist()
        assert threading.active_count() == baseline
        # A plan that never stops leaves the full draw's bits.
        seen.clear()
        v = cell_box_volumes_mc(*args, plan=stop_at(None))
        assert seen == [1000, 2000, 3000, 4000, 5000]
        assert v.tolist() == cell_box_volumes_mc(*args).tolist()

    @pytest.mark.parametrize("workers", [1, 3, 8])
    @pytest.mark.parametrize("n", [2, 5])
    def test_lockstep_boxes_match_their_own_draws(
        self, workers, n, monkeypatch, frequent_switches
    ):
        # Three boxes drawn in lockstep on one pool, with more workers than
        # cores: every planned prefix and the full draw hold each box's own
        # counts of its first k rows, whatever piece of the draw a worker
        # took across the boxes.
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 83)
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        m = 5003
        monkeypatch.setattr(geometry, "mc_sample_count", lambda n, eps, eta: m)
        rng = np.random.default_rng(10 + n)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, 2)))
        g = rng.uniform(-0.2, 0.2, size=n)
        boxes = [
            Hyperrectangle([-1.0, -0.5], [0.0, 1.5]),
            Hyperrectangle([0.0, -0.5], [1.0, 0.5]),
            Hyperrectangle([0.0, 0.5], [1.0, 1.5]),
        ]
        units = [box_rng(11, i).random((m, 2)) for i in range(3)]

        def expected(k):
            return [
                (_unit_rule_counts(samples, g, box, u[:k]) / k * box.volume).tolist()
                for box, u in zip(boxes, units)
            ]

        seen = []

        def plan(volumes, k):
            if volumes is not None:
                assert volumes.tolist() == expected(k)
                seen.append(k)
            return k + 1201

        args = (samples, g, boxes, 0.1, 0.1, 11)
        v = cell_box_volumes_mc(*args, plan=plan)
        assert seen == [1201, 2402, 3603, 4804]
        assert v.tolist() == expected(m)
        assert v.tolist() == cell_box_volumes_mc(*args).tolist()

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_lockstep_potentials_match_their_own_draws(
        self, workers, monkeypatch, frequent_switches
    ):
        # Three boxes' potentials drawn in lockstep on one pool, in blocks of
        # 1000 rows and with more workers than cores: box i's estimate has
        # the bits of box i drawn as box i of i + 1 copies of itself (box 0
        # alone), whatever piece of a block a worker took across the boxes,
        # and every thread is gone after.
        monkeypatch.setattr(geometry, "_MC_CHUNK", 1000)
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 83)
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        m = 2503
        rng = np.random.default_rng(20)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(5, 2)))
        g = rng.uniform(-0.2, 0.2, size=5)
        boxes = [
            Hyperrectangle([-1.0, -0.5], [0.0, 1.5]),
            Hyperrectangle([0.0, -0.5], [1.0, 0.5]),
            Hyperrectangle([0.0, 0.5], [1.0, 1.5]),
        ]
        weights = [0.25, 0.5, 0.125]
        baseline = threading.active_count()
        values = potential_integral_mc(samples, g, boxes, weights, m, (4, 2))
        assert threading.active_count() == baseline
        alone = [
            potential_integral_mc(
                samples, g, [box] * (i + 1), [w] * (i + 1), m, (4, 2)
            )[i]
            for i, (box, w) in enumerate(zip(boxes, weights))
        ]
        assert values.tolist() == alone
        assert len(set(alone)) == 3

    def test_checks_lie_sub_chunks_apart_and_within_m(self, monkeypatch):
        # A plan that asks for the next row at once gets one every
        # _MC_CHECK_SUBCHUNKS sub-chunks of 83 rows; one that asks past m
        # draws to m with no further check.
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 83)
        m = 2000
        monkeypatch.setattr(geometry, "mc_sample_count", lambda n, eps, eta: m)
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        gap = geometry._MC_CHECK_SUBCHUNKS * 83
        for ask, expected in ((1, range(900, m, gap)), (m + 500, [900])):
            seen = []

            def plan(volumes, k):
                if volumes is None:
                    return 900
                seen.append(k)
                return k + ask

            v = cell_box_volumes_mc(samples, np.zeros(2), box, 0.1, 0.1, 4, plan=plan)
            assert seen == list(expected)
            assert v.tolist() == cell_box_volumes_mc(
                samples, np.zeros(2), box, 0.1, 0.1, 4
            ).tolist()

    def test_stop_checks_the_prefix_counts(self, monkeypatch):
        # a label callback that drops each sub-chunk's first point, on a
        # draw of m = 4 612 rows in blocks of 1000 and sub-chunks of 100
        monkeypatch.setattr(geometry, "_MC_CHUNK", 1000)
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 100)
        labels = geometry._unit_labels
        monkeypatch.setattr(
            geometry, "_unit_labels", lambda fold, u, out: labels(fold, u, out)[1:]
        )
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        with pytest.raises(RuntimeError, match="not to the 1000 rows drawn"):
            cell_box_volumes_mc(
                samples, np.zeros(2), box, 0.02, 0.1, seed=0,
                plan=lambda v, k: math.inf if v is None else None,
            )

    @pytest.mark.parametrize("l, n", [(1, 2), (2, 2), (3, 2), (2, 5), (4, 8), (3, 16)])
    def test_labels_match_classify_points_off_the_boundaries(self, l, n):
        # A box's label for a unit draw u differs from classify_points of its
        # point lo + w u (the rule with the unit cube as the box) only within
        # rounding of a cell boundary: wherever the two least scores
        # ||x - y_j||^2 - g_j are more than 1e-9 apart, the labels agree.
        rng = np.random.default_rng(100 + 10 * l + n)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, l)))
        g = rng.uniform(-0.3, 0.3, size=n)
        box = Hyperrectangle(np.full(l, -1.2), np.linspace(0.8, 1.4, l))
        m = 20_000
        u = box_rng(5, 1).random((m, l))
        fold = geometry._unit_fold(samples, g, box, m)
        labels = geometry._unit_labels(
            fold, u, np.empty(m, bool if n == 2 else np.intp)
        ).astype(np.intp)
        xs = box.lo + box.widths * u
        scores = ((xs[:, None, :] - samples.points) ** 2).sum(-1) - g
        margin = np.diff(np.sort(scores, axis=1)[:, :2], axis=1)[:, 0]
        clear = margin > 1e-9
        assert clear.mean() > 0.99
        expected = classify_points(samples, g, xs)
        assert len(set(expected.tolist())) > 1
        assert (labels[clear] == expected[clear]).all()

    def test_refusal_starts_no_thread(self, monkeypatch):
        def no_draws(seed, i):
            raise AssertionError("drew samples past the cap")

        def no_thread(thread):
            raise AssertionError("started a thread past the cap")

        monkeypatch.setattr(geometry, "box_rng", no_draws)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        with pytest.raises(geometry.BudgetRefused, match="exceeds cap"):
            cell_box_volumes_mc(samples, np.zeros(2), box, 1e-4, 0.05, seed=0)
        with pytest.raises(geometry.BudgetRefused, match="exceeds cap"):
            potential_integral_mc(
                samples, np.zeros(2), box, 0.5, geometry.MC_SAMPLE_CAP + 1, 0
            )
        with pytest.raises(geometry.BudgetRefused, match="exceeds cap"):
            potential_integral_mc(
                samples, np.zeros(2), [box, box], [0.5, 0.5],
                geometry.MC_SAMPLE_CAP + 1, 0,
            )

    @pytest.mark.parametrize("m", [0, -3])
    def test_potential_needs_a_draw(self, m):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        with pytest.raises(ValueError, match="m >= 1"):
            potential_integral_mc(samples, np.zeros(2), box, 0.5, m, 0)

    @pytest.mark.parametrize("l, n", [(1, 2), (3, 2), (2, 5), (4, 8)])
    def test_one_rule_for_every_consumer(self, l, n, monkeypatch):
        # classify_points is the volume count with the unit cube as the box:
        # on the rows u the count draws in [0, 1]^l it gives the count's own
        # labels, bit for bit. The potential's least score (of both scores
        # at n = 2) sits at that label wherever the two least scores differ.
        rng = np.random.default_rng(200 + 10 * l + n)
        samples = SampleSet.uniform(rng.uniform(-0.5, 1.5, size=(n, l)))
        g = rng.uniform(-0.3, 0.3, size=n)
        unit = Hyperrectangle(np.zeros(l), np.ones(l))
        drawn, counted = [], []
        labels = geometry._unit_labels

        def recorded(fold, u, out):
            drawn.append(u.copy())
            counted.append(labels(fold, u, out).astype(np.intp))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_MC_WORKERS", 1)
            patch.setattr(geometry, "_unit_labels", recorded)
            cell_box_volumes_mc(samples, g, unit, 0.01, 0.1, seed=6)
        u, counted = np.concatenate(drawn), np.concatenate(counted)
        assert u.tolist() == box_rng(6, 0).random(u.shape).tolist()
        assert len(set(counted.tolist())) > 1
        assert classify_points(samples, g, u).tolist() == counted.tolist()

        fold = geometry._unit_fold(samples, g, unit, len(u), project=False)
        scores = geometry._unit_scores(fold, u)
        least = np.sort(scores, axis=1)[:, :2]
        differ = least[:, 0] < least[:, 1]
        assert differ.mean() > 0.99
        assert (np.argmin(scores, axis=1)[differ] == counted[differ]).all()


class TestExactCellMoments1d:
    def test_interval_split_moments(self):
        samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        vols, firsts = cell_box_moments_exact(samples, np.array([0.0, 0.5]), box)
        # boundary at -1/8
        assert_allclose(vols, [0.875, 1.125])
        assert_allclose(firsts[:, 0], [(0.125**2 - 1) / 2, (1 - 0.125**2) / 2])

    def test_empty_cell(self):
        samples = SampleSet.uniform(np.array([[0.0], [10.0]]))
        box = Hyperrectangle([-1.0], [1.0])
        vols, _ = cell_box_moments_exact(samples, np.zeros(2), box)
        assert vols[1] == 0.0
        assert_allclose(vols[0], 2.0)


class TestExactCellMoments2d:
    def test_half_square_moments(self, symmetric_square):
        samples = symmetric_square.samples
        box = symmetric_square.density.boxes[0][0]
        vols, firsts = cell_box_moments_exact(samples, np.zeros(2), box)
        assert_allclose(vols, [2.0, 2.0])
        assert_allclose(firsts, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_partition_of_box(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            samples = SampleSet.uniform(rng.uniform(-1.5, 1.5, size=(4, 2)))
            g = rng.uniform(-0.4, 0.4, size=4)
            box = Hyperrectangle([-1.0, -0.5], [0.5, 1.5])
            vols = cell_box_moments_exact(samples, g, box)[0]
            assert abs(sum(vols) - box.volume) <= 1e-9

    def test_matches_mc(self):
        rng = np.random.default_rng(8)
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        g = np.array([0.1, -0.2, 0.1])
        box = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
        exact = cell_box_moments_exact(samples, g, box)[0]
        mc = cell_box_volumes_mc(samples, g, box, 0.01, 0.01, seed=2)
        assert np.abs(mc - exact).max() <= 0.01 * box.volume


class TestTwoSinkMc:
    # The n = 2 count labels each point by one projection; its volumes agree
    # with the exact cells within the Hoeffding tolerance eps_bar vol(box).
    @pytest.mark.parametrize("l", [2, 3])
    def test_matches_exact_at_random_weights(self, l):
        rng = np.random.default_rng(30 + l)
        eps_bar = 0.01
        for trial in range(6):
            samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(2, l)))
            lo = rng.uniform(-1.0, 0.0, size=l)
            box = Hyperrectangle(lo, lo + rng.uniform(0.5, 1.5, size=l))
            # random weights whose boundary passes a random point of the box
            p = box.lo + box.widths * rng.uniform(0.2, 0.8, size=l)
            to_sink = ((p - samples.points) ** 2).sum(-1)
            g = rng.uniform(-0.5, 0.5) + to_sink - to_sink[0]
            exact = cell_box_moments_exact(samples, g, box)[0]
            assert exact.min() > 0.0
            mc = cell_box_volumes_mc(samples, g, box, eps_bar, 1e-3, seed=trial)
            assert np.abs(mc - exact).max() <= eps_bar * box.volume, (l, trial)


class TestExactCellMoments3d:
    def test_axis_aligned_split(self):
        samples = SampleSet.uniform(np.array([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]]))
        box = Hyperrectangle([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        vols, firsts = cell_box_moments_exact(samples, np.zeros(2), box)
        assert_allclose(vols, [0.5, 0.5], atol=1e-9)
        assert_allclose(firsts, [[0.125, 0.25, 0.25], [0.375, 0.25, 0.25]], atol=1e-9)

    def test_diagonal_split_is_symmetric(self):
        samples = SampleSet.uniform(np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]))
        box = Hyperrectangle([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        vols, _ = cell_box_moments_exact(samples, np.zeros(2), box)
        assert_allclose(vols, [0.5, 0.5], atol=1e-9)

    def test_partition_and_mc_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            samples = SampleSet.uniform(rng.uniform(0, 1, size=(3, 3)))
            g = rng.uniform(-0.2, 0.2, size=3)
            box = Hyperrectangle([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
            vols, _ = cell_box_moments_exact(samples, g, box)
            assert abs(vols.sum() - 1.0) <= 1e-9
            mc = cell_box_volumes_mc(samples, g, box, 0.02, 0.01, seed=6)
            assert np.abs(mc - vols).max() <= 0.02

    def test_dimension_guard(self):
        samples = SampleSet.uniform(np.array([[0.0] * 4, [1.0] * 4]))
        box = Hyperrectangle([0.0] * 4, [1.0] * 4)
        with pytest.raises(ValueError):
            cell_box_moments_exact(samples, np.zeros(2), box)


def _corners(a, b):
    # The points where l of the rows a x <= b meet, each solved on its own,
    # that violate no row by more than 1e-14: a convex cell's corners, and
    # maybe points on its boundary between them.
    l = a.shape[1]
    meet = np.array(list(itertools.combinations(range(len(a)), l)))
    meet = meet[np.abs(np.linalg.det(a[meet])) > 1e-14]
    pts = np.linalg.solve(a[meet], b[meet][..., None])[..., 0]
    return pts[(pts @ a.T - b <= 1e-14).all(1)]


def _brute_force_moments(samples, g, box):
    """Cell moments from all n - 1 half-spaces per cell, without neighbour lists.

    1-D cells are intervals. In 2-D and 3-D each cell's rows (its half-space
    against every other sink, and the box's faces) are scaled to unit
    normals, and linprog finds the centre and radius r of the largest ball
    in the cell. Where r is at least 1e-6 of the smallest box width, far
    above the solver's feasibility tolerance, scipy's HalfspaceIntersection
    from that centre gives the cell's corners. Below it, the cell is a
    sliver or empty, and its corners are the points where l of its rows
    meet that satisfy every row (:func:`_corners`). The moments are summed
    over the simplices joining the corners' mean to the facets of their
    ConvexHull. A cell the LP finds empty, with at most l corners, or whose
    corners Qhull rejects as flat, counts as empty: it is thinner than
    Qhull's precision, and its volume far below the tolerance.
    """
    y = samples.points
    n, l = y.shape
    norms = (y**2).sum(-1)
    eye = np.eye(l)
    box_a = np.vstack([eye, -eye])
    box_b = np.concatenate([box.hi, -box.lo])
    vols = np.zeros(n)
    firsts = np.zeros((n, l))
    seconds = np.zeros(n)
    for j in range(n):
        others = np.arange(n) != j
        a = np.vstack([2.0 * (y[others] - y[j]), box_a])
        b = np.concatenate([g[j] - g[others] + norms[others] - norms[j], box_b])
        if l == 1:
            lo = max(bi / ai for ai, bi in zip(a[:, 0], b) if ai < 0)
            hi = min(bi / ai for ai, bi in zip(a[:, 0], b) if ai > 0)
            if hi > lo:
                vols[j] = hi - lo
                firsts[j, 0] = (hi**2 - lo**2) / 2.0
                seconds[j] = (hi**3 - lo**3) / 3.0
            continue
        # Unit normals: the row of two sinks 1e-14 apart would otherwise lie
        # within the solver's feasibility tolerance.
        scale = np.linalg.norm(a, axis=1)
        a, b = a / scale[:, None], b / scale
        res = linprog(
            c=[0.0] * l + [-1.0],
            A_ub=np.hstack([a, np.ones((len(a), 1))]),
            b_ub=b,
            bounds=[(None, None)] * l + [(0.0, None)],
            method="highs",
        )
        if res.status != 0:
            continue
        if res.x[l] >= 1e-6 * box.widths.min():
            halfspaces = np.hstack([a, -b[:, None]])
            pts = HalfspaceIntersection(halfspaces, res.x[:l]).intersections
        else:
            pts = _corners(a, b)
            if len(pts) <= l:
                continue
        try:
            hull = ConvexHull(pts)
        except QhullError:
            continue
        centre = pts[hull.vertices].mean(0)
        for facet in hull.simplices:
            simplex = np.vstack([centre, pts[facet]])
            v = abs(np.linalg.det(simplex[1:] - simplex[0])) / math.factorial(l)
            s = simplex.sum(axis=0)
            vols[j] += v
            firsts[j] += v * s / (l + 1)
            seconds[j] += v * ((simplex**2).sum() + s @ s) / ((l + 1) * (l + 2))
    return vols, firsts, seconds


def _lattice(l, per_axis, spacing):
    # per_axis: one count for every axis, or a count per axis.
    counts = np.broadcast_to(per_axis, l)
    axes = [spacing * (np.arange(p) - (p - 1) / 2.0) for p in counts]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, l)


def _power_diagram_cases():
    """(id, points, g, boxes) covering the neighbour rule's regimes.

    Per dimension the boxes are a wide one holding every sink, a corner box
    that most cells miss and one outside the sinks' hull; lattices add a box
    whose faces lie on cell boundaries.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    boxes = {}
    for l in (1, 2, 3):
        boxes[l] = (
            Hyperrectangle([-1.2] * l, [1.2] * l),
            Hyperrectangle([0.7] * l, [0.95] * l),
            Hyperrectangle([1.5] + [-0.3] * (l - 1), [2.5] + [0.3] * (l - 1)),
        )
        for n in (1, 2, l + 1, l + 2, 9, 24, 64 if l < 3 else 40):
            pts = rng.uniform(-1.0, 1.0, size=(n, l))
            g = rng.normal(scale=0.3, size=n)
            cases.append((f"l{l}-n{n}-random", pts, g, boxes[l]))
        # Large weights hide cells: a low g_j lifts site j above the lower hull.
        pts = rng.uniform(-1.0, 1.0, size=(24, l))
        g = rng.normal(scale=0.3, size=24)
        g[::4] -= 5.0
        g[1] += 3.0
        cases.append((f"l{l}-hidden", pts, g, boxes[l]))
        # Cospherical sinks at g = 0: many lifted points share each facet.
        pts = _lattice(l, {1: 8, 2: 5, 3: 3}[l], 0.5)
        aligned = Hyperrectangle([-0.75] * l, [0.25] * l)
        cases.append((f"l{l}-lattice", pts, np.zeros(len(pts)), boxes[l] + (aligned,)))
    # A rectangular lattice at g = 0: Qhull merges its cospherical facets
    # into boxes of unequal sides and cuts them into pieces, flat ones too,
    # each of which must give its merged facet's vertex.
    pts = _lattice(3, (4, 3, 5), 0.5)
    cases.append(("l3-lattice-4x3x5", pts, np.zeros(len(pts)), boxes[3]))
    # Sinks on a line or in a plane: the lifted sinks alone are flat, and
    # only the ghosts make the hull full-dimensional.
    t = rng.uniform(-1.0, 1.0, size=8)
    line2 = np.column_stack([t, 0.3 * t + 0.1])
    cases.append(("l2-collinear", line2, rng.normal(scale=0.3, size=8), boxes[2]))
    plane3 = np.column_stack([rng.uniform(-1.0, 1.0, size=(10, 2)), np.full(10, 0.2)])
    cases.append(("l3-coplanar", plane3, rng.normal(scale=0.3, size=10), boxes[3]))
    line3 = np.outer(rng.uniform(-1.0, 1.0, size=6), [0.5, -0.2, 0.8])
    cases.append(("l3-collinear", line3, rng.normal(scale=0.3, size=6), boxes[3]))
    for l in (2, 3):
        # Every sink outside the hull of the boxes, on a sphere about them:
        # every cell is unbounded, toward the boxes.
        out = rng.normal(size=(12, l))
        out *= 4.0 / np.linalg.norm(out, axis=1)[:, None]
        cases.append((f"l{l}-outside", out, rng.normal(scale=0.3, size=12), boxes[l]))
        # l + 1 sinks about a corner of the corner box and l + 1 about a point
        # of the wide box's face x_0 = -1.2, all at g = 0: two dual vertices
        # lie on the box boundary, up to the rounding of the sinks.
        simplex = {
            2: np.array([[0.0, 1.0], [-0.75**0.5, -0.5], [0.75**0.5, -0.5]]),
            3: np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / 3**0.5,
        }[l]
        face = np.array([-1.2] + [0.3] * (l - 1))
        turn = np.eye(l)
        turn[:2, :2] = [[0.8, -0.6], [0.6, 0.8]]  # no bisector along an axis
        pts = np.vstack([0.7 + 0.5 * simplex, face - 0.6 * simplex @ turn])
        cases.append((f"l{l}-vertex-on-box", pts, np.zeros(len(pts)), boxes[l]))
        # l + 2 sinks in convex position whose powers tie at v = (0.1, -0.2,
        # ...) under weights g_j = ||v - y_j||^2, so that v is a vertex of all
        # l + 2 cells, among sinks at g = 0, whose powers at v exceed 0.
        v = np.array([0.1, -0.2, 0.15][:l])
        spokes = np.vstack([simplex, -simplex[:1]]) if l == 3 else np.array(
            [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
        )
        tied = v + spokes * rng.uniform(0.3, 0.8, size=(l + 2, 1))
        pts = np.vstack([tied, rng.uniform(-1.0, 1.0, size=(10, l))])
        g = np.concatenate([((tied - v) ** 2).sum(1), np.zeros(10)])
        cases.append((f"l{l}-weighted-cospherical", pts, g, boxes[l]))
    return cases


_POWER_DIAGRAM_CASES = _power_diagram_cases()


class TestRestrictedPowerDiagram:
    """The neighbour-restricted kernel against clipping by all n - 1 rows."""

    @pytest.mark.parametrize(
        "points, g, boxes",
        [case[1:] for case in _POWER_DIAGRAM_CASES],
        ids=[case[0] for case in _POWER_DIAGRAM_CASES],
    )
    def test_matches_brute_force(self, points, g, boxes):
        samples = SampleSet.uniform(points)
        for box in boxes:
            vols, firsts = cell_box_moments_exact(samples, g, box)
            # A one-box density's batch, whose hull is the box, gives the
            # same bits as the one-box call.
            density = BoxDensity(box.dimension, ((box, 1.0 / box.volume),))
            route, _, batch = _spied_batch(samples, g, density.hull, [box], False)
            # Every case with Qhull's l + 2 sinks, cospherical ones too, is
            # read off the lifted hull; the other 3-D cases are clipped by
            # all pairs as rows.
            n, l = points.shape
            assert route == (
                "chain" if l == 1 else "lifted" if n > l + 1
                else "all-pairs" if l == 3 else "plain"
            )
            (shared,) = _slices(batch)
            for own, cut in zip((vols, firsts), shared):
                assert own.tobytes() == cut.tobytes()
            ref_vols, ref_firsts, _ = _brute_force_moments(samples, g, box)
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert abs(vols.sum() - box.volume) <= tol
            assert np.abs(vols - ref_vols).max() <= tol
            assert np.abs(firsts - ref_firsts).max() <= tol * r

    @pytest.mark.parametrize(
        "case", _POWER_DIAGRAM_CASES, ids=[case[0] for case in _POWER_DIAGRAM_CASES]
    )
    def test_shared_hull_matches_per_box_calls(self, case):
        # Cells built for the hull of all the case's boxes serve each box,
        # cut by its own faces in a batch of that box, as well as the cells
        # built for the box itself.
        # Where a facet lies on a face of the box (the kinked boxes of
        # TestFacetHessian), the box's own call counts it as the box's side
        # and the shared hull as the cell's, so there only the moments agree.
        name, points, g, boxes = case
        samples = SampleSet.uniform(points)
        n, l = samples.n, samples.dimension
        hull = Hyperrectangle(
            np.min([box.lo for box in boxes], axis=0),
            np.max([box.hi for box in boxes], axis=0),
        )
        for index, box in enumerate(boxes):
            own = _own_batch(samples, g, box)
            (shared,) = _slices(geometry._box_batch(samples, g, hull, [box], True))
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert abs(shared[0].sum() - box.volume) <= tol
            assert np.abs(shared[0] - own[0]).max() <= tol
            assert np.abs(shared[1] - own[1]).max() <= tol * r
            if n == 1 and l < 3:
                # The lone cell is the whole hull; its part of the box is the
                # box itself, with the box's own corners. (A 3-D cell is the
                # hull's rows cut by the box's faces, whose caps hold each
                # corner twice, so its sums run over other rows.)
                for exact, cut in zip(own[:2], shared[:2]):
                    assert exact.tobytes() == cut.tobytes()
            if index in TestFacetHessian.KINKED.get(name, ()):
                continue
            facet_sums = []
            for j, i, measure in (own[2], shared[2]):
                total = np.zeros((n, n))
                np.add.at(total, (j, i), measure)
                facet_sums.append(total)
            scale = float(box.widths.max()) ** (l - 1)
            assert np.abs(facet_sums[0] - facet_sums[1]).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "route, points",
        [
            ("chain", [[-1.0], [1.0]]),
            ("plain", [[-0.5, 0.0], [0.5, 0.0]]),
            ("lifted", [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.1, -0.6]]),
            ("all-pairs", [[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]),
        ],
    )
    def test_weights_are_checked(self, route, points):
        # Every route refuses a g of the wrong length or with a NaN or an
        # infinite weight, before it measures a cell.
        samples = SampleSet.uniform(points)
        n, l = samples.n, samples.dimension
        box = Hyperrectangle([-1.0] * l, [1.0] * l)
        assert _spied_batch(samples, np.zeros(n), box, [box], False)[0] == route
        for bad, message in (
            (np.zeros(n + 1), "shape"),
            (np.array([math.nan] + [0.0] * (n - 1)), "finite"),
            (np.array([math.inf] + [0.0] * (n - 1)), "finite"),
        ):
            with pytest.raises(ValueError, match=f"dual weights must .*{message}"):
                cell_box_moments_exact(samples, bad, box)


class TestExactEnergy:
    """The exact energy against the brute-force cells' moments, term by term."""

    @staticmethod
    def reference(samples, g, density):
        # sum_j gamma int_{L_j n H} (||x - y_j||^2 - g_j) + <g, b>, with each
        # cell's integral from its volume and first and second moments.
        y, shifted = samples.points, samples.squared_norms - g
        total = float(g @ samples.demands)
        for box, gamma in density.boxes:
            vols, firsts, seconds = _brute_force_moments(samples, g, box)
            cells = seconds - 2.0 * (firsts * y).sum(1) + shifted * vols
            total += gamma * cells.sum()
        return total

    @pytest.mark.parametrize(
        "case", _POWER_DIAGRAM_CASES, ids=[case[0] for case in _POWER_DIAGRAM_CASES]
    )
    def test_matches_brute_force_moments(self, case):
        # The case's wide box, which holds every sink, and the gapped pair of
        # its corner box and the box outside the sinks' hull, each at a
        # random g: the energy's closed-form integral of ||x||^2 must be the
        # one the cells' second moments add up to, box by box.
        name, points, _, boxes = case
        samples = SampleSet.uniform(points)
        l = samples.dimension
        wide, corner, outside = boxes[:3]
        pair = 1.0 / (corner.volume + outside.volume)
        rng = np.random.default_rng(sum(map(ord, name)))
        for density in (
            BoxDensity(l, ((wide, 1.0 / wide.volume),)),
            BoxDensity(l, ((corner, pair), (outside, pair))),
        ):
            g = rng.normal(scale=0.3, size=samples.n)
            e = ds_module.energy(Instance(density, samples), g)
            ref = self.reference(samples, g, density)
            assert abs(e - ref) <= 1e-12 * abs(ref)


# The route that each cell builder of _box_batch serves.
_BUILDERS = {
    "_chain_cells": "chain",
    "_all_pairs_cells": "plain",
    "_lifted_cells": "lifted",
    "_all_pairs_rows": "all-pairs",
}


def _spied_batch(samples, g, hull, boxes, facets):
    """(route, cells, batch) of one _box_batch call, spying on its builders.

    ``route`` names the one cell builder that ran and ``cells`` is what it
    returned first (the plain route builds each box's cells on its own).
    """
    built = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in _BUILDERS:

            def spy(*args, real=getattr(geometry, name), name=name):
                cells = real(*args)
                built.setdefault(name, cells)
                return cells

            patch.setattr(geometry, name, spy)
        batch = geometry._box_batch(samples, g, hull, boxes, facets)
    (name,) = built
    return _BUILDERS[name], built[name], batch


def _own_batch(samples, g, box):
    # The box's one-box call, cell_box_moments_exact, with its facet pieces:
    # a batch of the box with the box as its hull.
    (own,) = _slices(geometry._box_batch(samples, g, box, [box], True))
    return own


def _slices(batch):
    # Each box's (vols, firsts) from a batch, and its facet pieces (j, i,
    # measure) when the batch has them.
    out = []
    for b in range(len(batch.vols)):
        moments = batch.vols[b], batch.firsts[b]
        if batch.pieces is not None:
            box, *pieces = batch.pieces
            moments += (tuple(x[box == b] for x in pieces),)
        out.append(moments)
    return out


def _ladder(rng, l, n, k=4):
    """k slabs along axis 0 of [-1, 1]^l and n sinks on a jittered grid.

    The shape of the benchmark's ladder rungs: each sink sits in its own
    cell of a regular grid over [-1, 1]^l, moved by at most 0.3 of a cell.
    """
    edges = np.linspace(-1.0, 1.0, k + 1)
    boxes = tuple(
        Hyperrectangle([edges[i]] + [-1.0] * (l - 1), [edges[i + 1]] + [1.0] * (l - 1))
        for i in range(k)
    )
    per_axis = math.ceil(round(n ** (1.0 / l), 9))
    grid = np.indices((per_axis,) * l).reshape(l, -1).T
    cells = grid[rng.choice(len(grid), size=n, replace=False)]
    jitter = rng.uniform(-0.3, 0.3, size=(n, l))
    return boxes, -1.0 + (cells + 0.5 + jitter) * (2.0 / per_axis)


def _coplanar_case():
    """Sinks of which one lifts onto the plane of three others, as Qhull sees it.

    The lifted point of sink 3 lies on the plane through the lifted sinks 0-2,
    so Qhull keeps it as a point coplanar with that facet; its cell is the
    one point where the three others meet.
    """
    points = np.array(
        [[-0.8, -0.6], [0.9, -0.5], [0.1, 0.9], [0.05, -0.05], [2.0, 2.0]]
    )
    g = np.array([0.1, -0.2, 0.05, 0.0, 0.0])
    lift = (points**2).sum(1) - g
    plane = np.linalg.solve(np.column_stack([points[:3], np.ones(3)]), lift[:3])
    g[3] = points[3] @ points[3] - (plane[:2] @ points[3] + plane[2])
    return points, g


class TestLiftedCells:
    """The cells read off the lifted hull, and where the all-pairs clip stays."""

    @pytest.mark.parametrize("hide", [False, True], ids=["g0", "hidden"])
    @pytest.mark.parametrize("l, n", [(2, 200), (3, 32)])
    def test_ladder_matches_all_pairs(self, l, n, hide, monkeypatch):
        # The benchmark's ladder shape at g = 0, and at a random g that
        # empties some cells, against the all-pairs clip forced by a Qhull
        # step that gives no facets.
        rng = np.random.default_rng(7 + l)
        boxes, points = _ladder(rng, l, n)
        samples = SampleSet.uniform(points)
        g = np.zeros(n)
        if hide:
            # About the squared grid spacing below the rest empties cells.
            g = rng.normal(scale=0.01, size=n)
            g[::5] -= 4.0 / n ** (2.0 / l)
        density = BoxDensity(l, tuple((box, 1.0 / (4 * box.volume)) for box in boxes))
        instance = Instance(density, samples)

        def run():
            route, _, batch = _spied_batch(samples, g, density.hull, boxes, True)
            return route, _slices(batch), _evaluate(instance, g, hessian=True).hess

        lifted, moments, hess = run()
        monkeypatch.setattr(geometry, "_power_neighbours", lambda y, lift: None)
        clipped, reference, ref_hess = run()
        assert lifted == "lifted"
        assert clipped == ("plain" if l == 2 else "all-pairs")
        vols = np.array([out[0] for out in moments])
        assert (vols.sum(0) == 0.0).any() == hide
        for box, out, ref in zip(boxes, moments, reference):
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert np.abs(out[0] - ref[0]).max() <= tol
            assert np.abs(out[1] - ref[1]).max() <= tol * r
            sums = []
            for j, i, measure in (out[2], ref[2]):
                total = np.zeros((n, n))
                np.add.at(total, (j, i), measure)
                sums.append(total)
            scale = float(box.widths.max()) ** (l - 1)
            assert np.abs(sums[0] - sums[1]).max() <= 1e-12 * scale
        assert np.abs(hess - ref_hess).max() <= 1e-12 * max(1.0, np.abs(ref_hess).max())

    @pytest.mark.parametrize(
        "trigger", ["few-sinks", "qhull-error", "coplanar", "coplanar-3d", "flat"]
    )
    def test_fallbacks_clip_all_pairs(self, trigger, monkeypatch):
        # Each input that Qhull does not see or cannot be trusted on takes the
        # all-pairs clip, in plain floats in 2-D and as rows in 3-D, and its
        # cells match the brute force, in the hull and in its two halves
        # along x_1, all three measured in one batch. Flat facets are no such
        # input: their pieces share the merged facet's vertex.
        rng = np.random.default_rng(11)
        l, g = 2, None
        if trigger == "few-sinks":
            points = rng.uniform(-1.0, 1.0, size=(3, 2))
        elif trigger == "qhull-error":
            import scipy.spatial

            def reject(*args, **kwargs):
                raise scipy.spatial.QhullError("rejected")

            monkeypatch.setattr(scipy.spatial, "ConvexHull", reject)
            points = rng.uniform(-1.0, 1.0, size=(9, 2))
        elif trigger == "coplanar":
            points, g = _coplanar_case()
        elif trigger == "coplanar-3d":
            # Two sinks 1e-14 apart split their cell, and Qhull keeps one of
            # their lifted points as coplanar with the other's facets.
            l, points = 3, rng.uniform(-1.0, 1.0, size=(8, 3))
            points[1] = points[0] + [1e-14, 0.0, 0.0]
        else:
            # Cospherical lattice sinks: Qhull merges their facets and
            # triangulates the merged cubes with flat pieces.
            l, points = 3, _lattice(3, 3, 0.5)
        if g is None:
            g = rng.normal(scale=0.1, size=len(points)) * (l == 2)
        samples = SampleSet.uniform(points)
        hull = Hyperrectangle([-1.2] * l, [1.2] * l)
        halves = (
            Hyperrectangle([-1.2] * l, [0.1] + [1.2] * (l - 1)),
            Hyperrectangle([0.1] + [-1.2] * (l - 1), [1.2] * l),
        )
        route, _, batch = _spied_batch(samples, g, hull, (hull, *halves), False)
        assert route == (
            "lifted" if trigger == "flat" else "plain" if l == 2 else "all-pairs"
        )
        for box, (vols, firsts) in zip((hull, *halves), _slices(batch)):
            ref_vols, ref_firsts, _ = _brute_force_moments(samples, g, box)
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert np.abs(vols - ref_vols).max() <= tol
            assert np.abs(firsts - ref_firsts).max() <= tol * r
        if trigger == "coplanar-3d":
            assert batch.vols[0, :2].min() > 0.5

    def test_large_lattice_takes_the_lifted_route(self):
        # 216 cospherical sinks at g = 0, whose merged facets Qhull cuts into
        # flat pieces, are read off the hull like any other input.
        points = _lattice(3, 6, 0.4)
        samples = SampleSet.uniform(points)
        box = Hyperrectangle([-1.0] * 3, [1.0] * 3)
        g = np.zeros(len(points))
        route, _, batch = _spied_batch(samples, g, box, [box], False)
        assert route == "lifted"
        vols = batch.vols[0]
        assert abs(vols.sum() - box.volume) <= 1e-12 * box.volume


def _facet_sums(n, pieces):
    total = np.zeros((n, n))
    np.add.at(total, pieces[:2], pieces[2])
    return total


def _hull_route(built, n, box, facets):
    """One box measured as before the batch: the cells cut into it, in place.

    ``built`` is a rows builder's (cells, low, high, rows). The cells whose
    bounding box meets the box keep their own positions as owners and are
    clipped by each face that their bounding box crosses, in the order
    -x_d <= -lo_d, x_d <= hi_d for d = 1..l; one moment sum follows.
    """
    cells, low, high, rows = built
    lo, hi = box.lo.tolist(), box.hi.tolist()
    meets = (low < hi).all(1) & (high > lo).all(1)
    keep = meets[rows.owner]
    rows = geometry._Rows(*(x[keep] for x in rows))
    count = len(cells)
    for d, axis in enumerate(np.eye(len(lo))):
        for normal, offset, crossing in (
            (-axis, -lo[d], low[:, d] < lo[d]), (axis, hi[d], high[:, d] > hi[d])
        ):
            crossing &= meets
            if crossing.any():
                rows = geometry._clip_rows(
                    rows, np.tile(normal, (count, 1)), np.full(count, offset),
                    np.full(count, -1), crossing,
                )
    vol, first, pieces = geometry._row_moments(rows, count, facets)
    vols, firsts = np.zeros(n), np.zeros((n, len(lo)))
    vols[cells], firsts[cells] = vol, first
    if not facets:
        return vols, firsts
    return vols, firsts, (cells[pieces[0]], *pieces[1:])


# The cases whose cells may come off the lifted hull: 2-D and 3-D, n > l + 1.
_LIFTED_CASES = [
    case for case in _POWER_DIAGRAM_CASES if len(case[1]) > case[1].shape[1] + 1 > 2
]


class TestBatchedPass:
    """All of a pass's boxes cut and measured at once, in one batch."""

    @staticmethod
    def check_slices(samples, g, boxes, skip=()):
        # Each box's slice of one batch of every box, on the cells of their
        # hull, against the box's own one-box call.
        n, l = samples.n, samples.dimension
        hull = Hyperrectangle(
            np.min([box.lo for box in boxes], axis=0),
            np.max([box.hi for box in boxes], axis=0),
        )
        batch = geometry._box_batch(samples, g, hull, boxes, True)
        for index, (box, shared) in enumerate(zip(boxes, _slices(batch))):
            own = _own_batch(samples, g, box)
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert abs(shared[0].sum() - box.volume) <= tol
            assert np.abs(shared[0] - own[0]).max() <= tol
            assert np.abs(shared[1] - own[1]).max() <= tol * r
            if index in skip:
                continue
            scale = float(box.widths.max()) ** (l - 1)
            difference = _facet_sums(n, shared[2]) - _facet_sums(n, own[2])
            assert np.abs(difference).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "case", _POWER_DIAGRAM_CASES, ids=[case[0] for case in _POWER_DIAGRAM_CASES]
    )
    def test_slices_match_one_box_calls(self, case):
        # Where a facet lies on a face of a box (the kinked boxes of
        # TestFacetHessian), rounding decides whether it counts as the box's
        # side or the cell's, so there only the moments are compared.
        name, points, g, boxes = case
        self.check_slices(
            SampleSet.uniform(points), g, boxes, TestFacetHessian.KINKED.get(name, ())
        )

    @pytest.mark.parametrize("hide", [False, True], ids=["g0", "hidden"])
    @pytest.mark.parametrize("l, n", [(2, 200), (3, 32)])
    def test_ladder_slices_match_one_box_calls(self, l, n, hide):
        rng = np.random.default_rng(5 + l)
        boxes, points = _ladder(rng, l, n)
        g = np.zeros(n)
        if hide:
            g = rng.normal(scale=0.01, size=n)
            g[::5] -= 4.0 / n ** (2.0 / l)
        self.check_slices(SampleSet.uniform(points), g, boxes)

    @pytest.mark.parametrize(
        "case", _LIFTED_CASES, ids=[case[0] for case in _LIFTED_CASES]
    )
    def test_one_box_keeps_the_hull_route_bits(self, case):
        # A batch of one box, the cells' hull, cuts the same faces in the
        # same order as cutting each cell into the hull in place.
        _, points, g, boxes = case
        samples = SampleSet.uniform(points)
        for box in boxes:
            route, cells, batch = _spied_batch(samples, g, box, [box], True)
            if route == "plain":
                continue
            (batched,) = _slices(batch)
            reference = _hull_route(cells, samples.n, box, facets=True)
            for got, want in zip(
                batched[:2] + batched[2], reference[:2] + reference[2]
            ):
                assert got.tobytes() == want.tobytes()

    def test_box_that_meets_no_cell(self):
        # A box beyond every cell's bounding box, outside the cells' hull,
        # gets no volume, and the batch refuses it by name.
        rng = np.random.default_rng(3)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(12, 2)))
        g = rng.normal(scale=0.1, size=12)
        inside = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
        far = Hyperrectangle([1e6, 1e6], [1e6 + 1.0, 1e6 + 1.0])
        assert _spied_batch(samples, g, inside, [inside], True)[0] == "lifted"
        with pytest.raises(geometry.VolumeSumError, match="box 1: .* sum to 0.0,"):
            geometry._box_batch(samples, g, inside, [inside, far, inside], True)

    def test_box_not_in_the_batch_is_measured(self):
        # Boxes inside the hull that the cells were built for, none of them
        # the hull, measured in one batch, match their own one-box calls.
        rng = np.random.default_rng(4)
        boxes, points = _ladder(rng, 3, 32)
        samples = SampleSet.uniform(points)
        g = np.zeros(32)
        hull = Hyperrectangle([-1.0] * 3, [1.0] * 3)
        inner = Hyperrectangle([-0.4, -0.5, -0.6], [0.3, 0.2, 0.1])
        some = (boxes[0], boxes[2], inner)
        batch = geometry._box_batch(samples, g, hull, some, True)
        for box, shared in zip(some, _slices(batch)):
            own = _own_batch(samples, g, box)
            tol = 1e-12 * box.volume
            assert abs(shared[0].sum() - box.volume) <= tol
            assert np.abs(shared[0] - own[0]).max() <= tol
            assert np.abs(shared[1] - own[1]).max() <= tol
            difference = _facet_sums(32, shared[2]) - _facet_sums(32, own[2])
            assert np.abs(difference).max() <= 1e-12 * float(box.widths.max()) ** 2

    @pytest.mark.parametrize("route", ["chain", "plain", "lifted", "all-pairs"])
    def test_volumes_that_do_not_sum_raise(self, route, monkeypatch):
        # Cell volumes off by 2e-9 of a box's volume stop the pass, on every
        # route; off by 5e-10, within the tolerance of 1e-9, they do not.
        l = {"chain": 1, "plain": 2, "lifted": 2, "all-pairs": 3}[route]
        n = 3 if route == "plain" else 6
        rng = np.random.default_rng(12)
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(n, l)))
        g = np.zeros(n)
        box = Hyperrectangle([-1.0] * l, [1.0] * l)
        if route == "all-pairs":
            monkeypatch.setattr(geometry, "_power_neighbours", lambda y, lift: None)
        assert _spied_batch(samples, g, box, [box], False)[0] == route
        for error, raises in ((2e-9, True), (5e-10, False)):
            with monkeypatch.context() as patch:
                if route == "chain":
                    chain_cells = geometry._chain_cells

                    def short(samples, g):
                        # The last cell ends short of the box's upper face.
                        chain, ends = chain_cells(samples, g)
                        return chain, [*ends[:-1], 1.0 - 2.0 * error]

                    patch.setattr(geometry, "_chain_cells", short)
                elif route == "plain":
                    real = geometry._polygon_moments

                    def scaled(poly):
                        area, first = real(poly)
                        return area * (1.0 + error), first

                    patch.setattr(geometry, "_polygon_moments", scaled)
                else:
                    real = geometry._row_moments

                    def scaled(rows, count, facets):
                        vol, *rest = real(rows, count, facets)
                        return (vol * (1.0 + error), *rest)

                    patch.setattr(geometry, "_row_moments", scaled)
                if raises:
                    with pytest.raises(geometry.VolumeSumError, match="box 0"):
                        geometry._box_batch(samples, g, box, [box], False)
                else:
                    geometry._box_batch(samples, g, box, [box], False)

    def test_pass_clips_once_per_face_direction(self, monkeypatch):
        # One exact pass on a k = 4 ladder: at most 2l clip calls and one
        # moment sum for all boxes.
        rng = np.random.default_rng(7)
        l, n = 3, 32
        boxes, points = _ladder(rng, l, n)
        density = BoxDensity(l, tuple((box, 1.0 / (4 * box.volume)) for box in boxes))
        instance = Instance(density, SampleSet.uniform(points))
        calls = {"_clip_rows": 0, "_row_moments": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(geometry, "_clip_rows")
        counted(geometry, "_row_moments")
        _evaluate(instance, np.zeros(n), hessian=True)
        assert 0 < calls["_clip_rows"] <= 2 * l
        assert calls["_row_moments"] == 1


def _tie_cases():
    """(id, points, g, boxes) whose cutting planes pass through vertices."""
    lattice = next(case for case in _POWER_DIAGRAM_CASES if case[0] == "l3-lattice")
    cube = Hyperrectangle([-1.0] * 3, [1.0] * 3)
    halves = (
        Hyperrectangle([-1.0] * 3, [0.0, 1.0, 1.0]),
        Hyperrectangle([0.0, -1.0, -1.0], [1.0] * 3),
    )
    # The bisector x + y + z = 3 of 0 and (2, 2, 2) runs through three
    # corners of [-3, 3]^3, and the row 4 (x + y + z) <= 12 is exact there.
    corner = Hyperrectangle([-3.0] * 3, [3.0] * 3)
    return [
        lattice,
        ("cube-two-sinks", np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.zeros(2),
         (cube, *halves)),
        ("plane-through-corners", np.array([[0.0, 0, 0], [2.0, 2, 2]]), np.zeros(2),
         (corner, Hyperrectangle([-3.0] * 3, [3.0, 3.0, 0.0]))),
    ]


_TIE_CASES = _tie_cases()


class TestAllPairsRows:
    """3-D cells clipped by all pairs as rows, where cutting planes meet vertices."""

    @pytest.mark.parametrize("case", _TIE_CASES, ids=[case[0] for case in _TIE_CASES])
    def test_ties_match_brute_force(self, case, monkeypatch):
        # With no facets from Qhull, every cell is the hull cut by the rows
        # of all the other sinks. On the lattice a face touches many planes
        # along an edge, and a cap of the leaving points alone loses corners.
        monkeypatch.setattr(geometry, "_power_neighbours", lambda y, lift: None)
        name, points, g, boxes = case
        samples = SampleSet.uniform(points)
        hull = Hyperrectangle(
            np.min([box.lo for box in boxes], axis=0),
            np.max([box.hi for box in boxes], axis=0),
        )
        route, _, batch = _spied_batch(samples, g, hull, (hull, *boxes), False)
        assert route == "all-pairs"
        for box, shared in zip((hull, *boxes), _slices(batch)):
            ref_vols, ref_firsts, _ = _brute_force_moments(samples, g, box)
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            # Cut from the shared hull, and built with the box as its hull.
            own = cell_box_moments_exact(samples, g, box)
            for vols, firsts in (shared, own):
                assert abs(vols.sum() - box.volume) <= tol
                assert np.abs(vols - ref_vols).max() <= tol
                assert np.abs(firsts - ref_firsts).max() <= tol * r

    def test_planes_through_box_corners(self):
        # Cut the unit cube in turn by planes through existing corners: the
        # first through three corners, the third through two cube edges, the
        # last through the edge x = y = 0 and the corner (1, 1, 0). Each cut
        # leaves new corners on old ones for the next. The cell's volume is
        # that of the hull of its corners, and its cap has the plane's tag.
        cube = SampleSet.uniform([[0.5] * 3])
        rows = geometry._all_pairs_rows(cube, np.zeros(1), [0.0] * 3, [1.0] * 3)[3]
        planes = [
            ((1.0, 1.0, -1.0), 1.0),
            ((1.0, 0.0, 1.0), 1.5),
            ((0.0, 1.0, 1.0), 1.0),
            ((1.0, -1.0, 0.0), 0.0),
        ]
        for tag, (a, b) in enumerate(planes):
            rows = geometry._clip_rows(
                rows, np.array([a]), np.array([b]), np.array([tag]), np.array([True])
            )
            vol, _, pieces = geometry._row_moments(rows, 1, facets=True)
            assert abs(vol[0] - ConvexHull(rows.points).volume) <= 1e-15
            assert pieces[2][pieces[1] == tag].sum() > 0.0

    def test_nearly_coincident_cuts_close_the_surface(self):
        # A second plane within 1e-14 of the first crosses the first cut's
        # cap within rounding of its corners. Each cut point is computed from
        # its edge's inside end, so the faces on an edge agree on it and the
        # surface stays closed: its area vectors sum to zero, and the cell's
        # volume is that of the hull of its corners.
        rng = np.random.default_rng(3)
        lone = SampleSet.uniform([[0.0] * 3])
        for _ in range(30):
            lo, hi = -rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
            rows = geometry._all_pairs_rows(lone, np.zeros(1), list(lo), list(hi))[3]
            a, b = rng.normal(size=3), rng.uniform(-0.3, 0.3)
            for tag, tilt in enumerate((np.zeros(3), 1e-14 * rng.normal(size=3))):
                rows = geometry._clip_rows(
                    rows, (a + tilt)[None], np.array([b]), np.array([tag]),
                    np.array([True]),
                )
            p = rows.points
            closure = np.cross(p, p[geometry._cycle_next(rows.face)]).sum(0)
            assert np.abs(closure).max() <= 1e-13
            vol = geometry._row_moments(rows, 1, facets=False)[0][0]
            assert abs(vol - ConvexHull(p).volume) <= 1e-13


@st.composite
def _lattice_cases(draw):
    """(samples, g, density) on one lattice of spacing h in {0.25, 0.5, 1}.

    Sinks sit at lattice points, each moved by up to ``jitter`` per axis;
    weights come from {0, +-0.25, +-0.5} or N(0, 0.3). The density's 1-3
    boxes are slabs along x_1 with every face on the lattice.
    """
    l = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    jitter = draw(st.sampled_from([0.0, 1e-14, 1e-9, 1e-3]))
    n = draw(st.integers(1, 5 if l == 1 else 8))
    coords = st.tuples(*[st.integers(-2, 2)] * l)
    points = draw(st.lists(coords, min_size=n, max_size=n, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = h * np.array(points, float) + jitter * rng.uniform(-1.0, 1.0, (n, l))
    if draw(st.booleans()):
        g = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5]), min_size=n, max_size=n
        )))
    else:
        g = rng.normal(scale=0.3, size=n)
    k = draw(st.integers(1, 3))
    faces = st.integers(-3, 3)
    cuts = sorted(draw(st.lists(faces, min_size=2 * k, max_size=2 * k, unique=True)))
    boxes = []
    for i in range(k):
        lo, hi = [h * cuts[2 * i]], [h * cuts[2 * i + 1]]
        for _ in range(l - 1):
            a, b = sorted(draw(st.lists(faces, min_size=2, max_size=2, unique=True)))
            lo.append(h * a)
            hi.append(h * b)
        boxes.append(Hyperrectangle(lo, hi))
    density = BoxDensity(l, tuple((box, 1.0 / (k * box.volume)) for box in boxes))
    return SampleSet.uniform(y), g, density


class TestGeometryFuzz:
    """One batch over every box of a density against the brute force, on ties."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_lattice_cases())
    def test_batch_matches_brute_force(self, case):
        samples, g, density = case
        boxes = [box for box, _ in density.boxes]
        batch = geometry._box_batch(samples, g, density.hull, boxes, False)
        for box, (vols, firsts) in zip(boxes, _slices(batch)):
            ref_vols, ref_firsts, _ = _brute_force_moments(samples, g, box)
            tol = 1e-12 * box.volume
            r = box.max_corner_norm()
            assert np.abs(vols - ref_vols).max() <= tol
            assert np.abs(firsts - ref_firsts).max() <= tol * r


def _midpoint_moments(density, cells_per_box=10_000):
    """Midpoint-rule reference for box_moments."""
    n_mass = 0.0
    first = np.zeros(density.dimension)
    second = 0.0
    per_axis = int(round(cells_per_box ** (1.0 / density.dimension)))
    for box, w in density.boxes:
        axes = [
            lo + (np.arange(per_axis) + 0.5) * (hi - lo) / per_axis
            for lo, hi in zip(box.lo, box.hi)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        cell = box.volume / per_axis**density.dimension
        n_mass += w * cell * len(pts)
        first += w * cell * pts.sum(axis=0)
        second += w * cell * (pts**2).sum()
    return n_mass, first, second


class TestBoxMoments:
    def test_named_instance_values(
        self, symmetric_interval, single_sink, symmetric_square
    ):
        n, first, second = box_moments(symmetric_interval.density)
        assert_allclose([n, first[0], second], [1.0, 0.0, 1 / 3], atol=1e-12)
        n, first, second = box_moments(single_sink.density)
        assert_allclose([n, first[0], second], [1.0, 0.5, 1 / 3])
        n, first, second = box_moments(symmetric_square.density)
        assert_allclose(n, 1.0)
        assert_allclose(first, [0.0, 0.0], atol=1e-12)
        assert_allclose(second, 2 / 3)

    def test_matches_midpoint_rule_1d(self):
        density = BoxDensity(
            dimension=1,
            boxes=(
                (Hyperrectangle([-1.0], [0.5]), 0.4),
                (Hyperrectangle([1.0], [3.0]), 0.2),
            ),
        )
        exact = box_moments(density)
        ref = _midpoint_moments(density)
        assert abs(exact[0] - ref[0]) / abs(ref[0]) <= 1e-6
        assert np.abs(exact[1] - ref[1]).max() <= 1e-6 * max(1.0, np.abs(ref[1]).max())
        assert abs(exact[2] - ref[2]) / abs(ref[2]) <= 1e-6

    def test_matches_midpoint_rule_2d(self):
        # midpoint error is Theta(cell width^2): with 10^4 cells per box the
        # per-axis width is ~1e-2, so the honest 2D tolerance is 1e-4
        density = BoxDensity(
            dimension=2,
            boxes=(
                (Hyperrectangle([-1.0, 0.0], [0.0, 2.0]), 0.3),
                (Hyperrectangle([0.5, -1.0], [1.5, 1.0]), 0.2),
            ),
        )
        exact = box_moments(density)
        ref = _midpoint_moments(density)
        assert abs(exact[0] - ref[0]) / abs(ref[0]) <= 1e-6
        assert np.abs(exact[1] - ref[1]).max() <= 1e-6 * max(1.0, np.abs(ref[1]).max())
        assert abs(exact[2] - ref[2]) / abs(ref[2]) <= 1e-4


class TestFacetHessian:
    """The facet-derived Hessian against central differences of the volumes.

    Each case's box carries the density 1/vol(box). Boxes with a face on a
    cell boundary are left out, since the volume map is not differentiable
    there: the lattice-aligned box of each lattice case, and in the 1-D
    lattice also the box [1.5, 2.5], whose face x = 1.5 is the boundary
    between the lattice cells at 1.25 and 1.75. So is the corner box of
    each vertex-on-box case: a dual vertex sits on its corner, where the
    facet measures in the box, the Hessian's entries, have a kink in g, and
    central differences of the volumes miss them by O(step) (1.2e-6 in 2-D
    and 9e-6 in 3-D of the Hessian's scale).
    """

    KINKED = {"l1-lattice": (2, 3), "l2-lattice": (3,), "l3-lattice": (3,)}
    CORNERED = {"l2-vertex-on-box": (1,), "l3-vertex-on-box": (1,)}

    @pytest.mark.parametrize(
        "case", _POWER_DIAGRAM_CASES, ids=[case[0] for case in _POWER_DIAGRAM_CASES]
    )
    def test_matches_finite_differences(self, case):
        name, points, g, boxes = case
        samples = SampleSet.uniform(points)
        n, l = samples.n, samples.dimension
        step = 1e-6
        for index, box in enumerate(boxes):
            if index in self.KINKED.get(name, ()) + self.CORNERED.get(name, ()):
                continue
            instance = Instance(BoxDensity(l, ((box, 1.0 / box.volume),)), samples)
            hess = _evaluate(instance, g, hessian=True).hess
            fd = np.zeros((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = step
                up = cell_box_moments_exact(samples, g + e, box)[0]
                down = cell_box_moments_exact(samples, g - e, box)[0]
                fd[:, j] = -(up - down) / (2.0 * step * box.volume)
            scale = max(1.0, float(np.abs(hess).max()))
            assert np.abs(hess - fd).max() <= 1e-6 * scale
            assert np.abs(hess - hess.T).max() <= 1e-12 * scale
            assert np.abs(hess.sum(axis=1)).max() <= 1e-12 * scale
