"""Dual energy, gradient, budgets, the solve loop and its two steps, transforms."""

import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxot import dual_solver as ds
from boxot import fixtures as fx
from boxot import geometry
from boxot.dual_solver import (
    ITERATION_CAP,
    SolverAbort,
    SolverConfig,
    _mc_energy,
    _mc_gradient,
    center_weights,
    energy,
    epsilon_prime,
    gradient,
    iteration_budget,
    solve_dual,
    transform_dual_for_scale,
    transform_dual_for_shift,
)
from boxot.geometry import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    SampleSet,
    classify_points,
)
from boxot.oracle import semidiscrete_1d_exact


class TestEnergy:
    def test_symmetric_interval_values(self, symmetric_interval):
        assert_allclose(energy(symmetric_interval, np.zeros(2)), 1 / 3)
        # with g = (0.5, -0.5) the cell boundary sits at x = 1/4
        assert_allclose(energy(symmetric_interval, np.array([0.5, -0.5])), 13 / 48)

    def test_single_sink_value(self, single_sink):
        assert_allclose(energy(single_sink, np.zeros(1)), 1 / 12)

    def test_asymmetric_optimum_value(self, asymmetric_demands):
        assert_allclose(energy(asymmetric_demands, np.array([0.25, -0.25])), 7 / 48)

    def test_square_value(self, symmetric_square):
        assert_allclose(energy(symmetric_square, np.zeros(2)), 2 / 3)

    def test_centering_does_not_change_energy(self, asymmetric_demands):
        g = np.array([0.8, 0.3])
        e1 = energy(asymmetric_demands, g)
        e2 = energy(asymmetric_demands, center_weights(g))
        # uncentered energy differs by mean(g) * (sum b - mass) = 0 here
        assert_allclose(e1, e2)

    def test_optimum_is_maximum(self, asymmetric_demands):
        rng = np.random.default_rng(3)
        e_star = energy(asymmetric_demands, np.array([0.25, -0.25]))
        for _ in range(50):
            g = center_weights(rng.uniform(-1, 1, size=2))
            assert energy(asymmetric_demands, g) <= e_star + 1e-12

    def test_mc_close_to_exact(self, symmetric_square):
        g = np.array([0.2, -0.2])
        exact = energy(symmetric_square, g)
        mc, _ = _mc_energy(symmetric_square, g, 0.02, 0.05, 3)
        assert abs(mc - exact) <= 0.02

    def test_non_finite_weights_raise(self, symmetric_interval):
        with pytest.raises(ValueError):
            energy(symmetric_interval, np.array([np.inf, 0.0]))


class TestGradient:
    def test_zero_at_symmetric_point(self, symmetric_interval):
        assert_allclose(gradient(symmetric_interval, np.zeros(2)), [0.0, 0.0])

    def test_shifted_weights_value(self, symmetric_interval):
        grad = gradient(symmetric_interval, np.array([0.5, -0.5]))
        assert_allclose(grad, [-0.125, 0.125])

    def test_exactly_centered(self, asymmetric_demands):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.uniform(-1, 1, size=2)
            grad = gradient(asymmetric_demands, g)
            assert abs(float(grad.sum())) == 0.0

    def test_mc_within_budget(self, symmetric_square):
        g = np.array([0.3, -0.3])
        exact = gradient(symmetric_square, g)
        mc, _ = _mc_gradient(symmetric_square, g, 0.02, 0.05, 11, 0.0)
        assert np.linalg.norm(mc - exact) <= 0.02

    def test_concavity_monotone_gradients(self, asymmetric_demands):
        # concave E: (grad E(g) - grad E(h)) . (g - h) <= 0
        rng = np.random.default_rng(15)
        for _ in range(30):
            g = center_weights(rng.uniform(-1, 1, size=2))
            h = center_weights(rng.uniform(-1, 1, size=2))
            dg = gradient(asymmetric_demands, g) - gradient(asymmetric_demands, h)
            assert float(dg @ (g - h)) <= 1e-12


class TestBudgets:
    def test_epsilon_prime_values(self, symmetric_interval, single_sink):
        assert_allclose(epsilon_prime(symmetric_interval, 0.1), 1 / 15)
        assert_allclose(epsilon_prime(single_sink, 0.1), 1 / 90)

    def test_epsilon_prime_floor(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            instance = fx.random_instance(rng)
            eps = float(rng.uniform(0.01, 0.99))
            ep = epsilon_prime(instance, eps)
            assert ep >= eps * instance.stats.s**2 / 12.0 - 1e-12

    def test_epsilon_prime_rejects_bad_epsilon(self, symmetric_interval):
        with pytest.raises(ValueError):
            epsilon_prime(symmetric_interval, 0.0)

    def test_iteration_budget_value(self, symmetric_interval):
        ep = epsilon_prime(symmetric_interval, 0.1)
        assert iteration_budget(symmetric_interval, ep) == 1_152_000

    def test_iteration_budget_cap(self, symmetric_interval):
        assert iteration_budget(symmetric_interval, 1e-15) == ITERATION_CAP

    def test_smoothness_constants(
        self, symmetric_interval, single_sink, symmetric_square
    ):
        assert symmetric_interval.stats.L == 1.0
        assert single_sink.stats.L == 2.0
        assert symmetric_square.stats.L == 2.0

    def test_empirical_smoothness_below_constant(self, named_instances):
        rng = np.random.default_rng(31)
        for instance in named_instances.values():
            L = instance.stats.L
            n = instance.samples.n
            for _ in range(100):
                g = center_weights(rng.uniform(-1, 1, size=n))
                h = center_weights(rng.uniform(-1, 1, size=n))
                if np.allclose(g, h):
                    continue
                dg = gradient(instance, g) - gradient(instance, h)
                assert np.linalg.norm(dg) <= L * np.linalg.norm(g - h) + 1e-12


class TestCentering:
    def test_center_weights(self):
        g = center_weights(np.array([1.0, 2.0, 3.0]))
        assert_allclose(g, [-1.0, 0.0, 1.0])
        assert abs(g.sum()) <= 1e-9


def _box_pair_3d():
    """Two unit cubes in 3-D with three sinks: exercises a second box's stream."""
    density = BoxDensity(
        dimension=3,
        boxes=(
            (Hyperrectangle([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 0.5),
            (Hyperrectangle([1.5, 0.0, 0.0], [2.5, 1.0, 1.0]), 0.5),
        ),
    )
    samples = SampleSet.uniform([[0.2, 0.5, 0.5], [1.0, 0.3, 0.6], [2.0, 0.5, 0.4]])
    return Instance(density, samples)


class TestMcDraws:
    # Values recorded with the per-estimator draw loops that the shared
    # chunked loop replaced; the MC contract is that they stay bit-identical.
    def test_gradient_is_pinned(self, symmetric_square):
        # A threshold of 0 certifies no prefix: the full draw's bits.
        grad, _ = _mc_gradient(
            symmetric_square, np.array([0.1, -0.1]), 0.05, 0.1, (5, 3), 0.0
        )
        assert grad.tolist() == [-0.050135501355013545, 0.050135501355013545]
        grad, _ = _mc_gradient(
            _box_pair_3d(), np.array([0.05, -0.1, 0.05]), 0.05, 0.1, (5, 3), 0.0
        )
        assert grad.tolist() == [
            -0.03179023088525351, 0.19602042000232045, -0.16423018911706694
        ]

    def test_energy_is_pinned(self, symmetric_square):
        # about 2.4e6 draws: more than one chunk
        e, _ = _mc_energy(
            symmetric_square, np.array([0.1, -0.1]), 0.0065, 0.1, (5, 3, 1)
        )
        assert e == 0.6643251314841074
        e, _ = _mc_energy(
            _box_pair_3d(), np.array([0.05, -0.1, 0.05]), 0.5, 0.1, (5, 3, 1)
        )
        assert e == 0.2143285702526332

    def test_two_box_energy_across_blocks_is_pinned(self):
        # 2 258 906 draws a box: both boxes cross a block boundary, drawn in
        # lockstep. Recorded with each box's potential drawn on its own.
        e, drawn = _mc_energy(
            _box_pair_3d(), np.array([0.05, -0.1, 0.05]), 0.03, 0.1, (5, 3, 1)
        )
        assert e == 0.2160997853987543
        assert drawn == 2 * 2_258_906
        assert drawn // 2 > geometry._MC_CHUNK

    @pytest.mark.parametrize(
        "accuracy, eta_prime, message",
        [
            (-0.5, 0.1, "accuracy must be"),
            (0.0, 0.1, "accuracy must be"),
            (math.nan, 0.1, "accuracy must be"),
            (math.inf, 0.1, "accuracy must be"),
            (0.5, 1.5, "eta_prime must lie"),
            (0.5, 1.0, "eta_prime must lie"),
            (0.5, 0.0, "eta_prime must lie"),
            (0.5, -0.1, "eta_prime must lie"),
            (0.5, 5.0, "eta_prime must lie"),
            (0.5, math.nan, "eta_prime must lie"),
        ],
    )
    def test_energy_checks_its_accuracy_targets(
        self, symmetric_square, monkeypatch, accuracy, eta_prime, message
    ):
        # Refused by name before any draw: a negative accuracy or an
        # eta_prime above 1 would return an energy, and a zero one divide
        # by zero or take the log of a negative number.
        def no_draws(seed, i):
            raise AssertionError("drew samples")

        monkeypatch.setattr(geometry, "box_rng", no_draws)
        with pytest.raises(ValueError, match=message):
            _mc_energy(symmetric_square, np.zeros(2), accuracy, eta_prime, 0)

    def test_budget_above_cap_is_refused_before_drawing(
        self, symmetric_square, monkeypatch
    ):
        def no_draws(seed, i):
            raise AssertionError("drew samples past the cap")

        monkeypatch.setattr(geometry, "box_rng", no_draws)
        g = np.zeros(2)
        with pytest.raises(ValueError, match="exceeds cap"):
            _mc_energy(symmetric_square, g, 1e-3, 0.1, 0)
        with pytest.raises(ValueError, match="exceeds cap"):
            _mc_gradient(symmetric_square, g, 1e-4, 0.1, 0, 0.0)

    @pytest.mark.parametrize("oracle", [energy, gradient])
    def test_exact_oracle_refuses_four_dimensions(self, oracle, monkeypatch):
        # energy and gradient are the exact oracle only: a 4-D instance is
        # refused by its dimension, with no Monte Carlo draw in its place.
        def no_draws(seed, i):
            raise AssertionError("drew samples")

        monkeypatch.setattr(geometry, "box_rng", no_draws)
        with pytest.raises(ValueError, match="dimension <= 3"):
            oracle(_cube_4d(), np.zeros(2))


def _cube_4d():
    """Uniform density on [-1,1]^4 with sinks (+-1,0,0,0)."""
    box = Hyperrectangle([-1.0] * 4, [1.0] * 4)
    density = BoxDensity(dimension=4, boxes=((box, 1.0 / 16.0),))
    return Instance(density, SampleSet.uniform([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]))


def _off_centre_1d():
    """Sinks 0 and 0.9 over uniform [-1,1]: g = 0 is far from the threshold,
    so the mc solve takes 1/L steps before it stops."""
    density = BoxDensity(dimension=1, boxes=((Hyperrectangle([-1.0], [1.0]), 0.5),))
    return Instance(density, SampleSet.uniform([[0.0], [0.9]]))


def _split_square():
    """The symmetric square as two boxes, its halves x < 0 and x > 0."""
    density = BoxDensity(
        dimension=2,
        boxes=(
            (Hyperrectangle([-1.0, -1.0], [0.0, 1.0]), 0.25),
            (Hyperrectangle([0.0, -1.0], [1.0, 1.0]), 0.25),
        ),
    )
    return Instance(density, SampleSet.uniform([[-1.0, 0.0], [1.0, 0.0]]))


def _full_draw(instance, g, eps_bar, eta_prime, seed, threshold):
    # The solver's gradient draw at a threshold of 0, which no prefix can
    # certify: every draw runs to m.
    return _mc_gradient(instance, g, eps_bar, eta_prime, seed, 0.0)


_PREFIX_CASES = {
    "symmetric-square": (fx.symmetric_square, 0.9),
    "symmetric-interval": (fx.symmetric_interval, 0.95),
    "cube-4d": (_cube_4d, 0.95),
    "off-centre-1d": (_off_centre_1d, 0.95),
    "split-square": (_split_square, 0.9),
}


def _sample_counts(instance, trace, eta):
    # the m of each box's gradient draw at every pass t of the solve of
    # trace, at the failure the solver charges that pass
    n, k = instance.samples.n, instance.density.k
    per_cell = trace.noise_budget / math.sqrt(n)
    return [
        geometry.mc_sample_count(n, per_cell, ds._mc_failure(eta, t) / k)
        for t in range(1, trace.passes + 1)
    ]


class TestMcEnergyRange:
    def test_least_score_lies_in_the_hoeffding_range(self):
        # _mc_energy's count takes h = min_j(||y_j||^2 - 2 x.y_j - g_j), the
        # least folded score, to lie in [-D^2 - ||g||_inf, 3 D^2 +
        # ||g||_inf], of width 4 D^2 + 2 ||g||_inf. h is a least of affine
        # maps, so concave: its least value on a box is at a corner. Every
        # box's corners and random points, in random instances up to l = 4,
        # stay in that range, and the score is the potential less ||x||^2.
        rng = np.random.default_rng(34)
        for _ in range(120):
            instance = fx.random_instance(rng, max_dim=4, max_boxes=3, max_samples=6)
            samples, l = instance.samples, instance.dimension
            g = rng.normal(size=samples.n)
            d2, g_inf = instance.stats.D ** 2, float(np.abs(g).max())
            units = np.vstack([
                list(itertools.product((0.0, 1.0), repeat=l)), rng.random((200, l))
            ])
            least = []
            for box, _ in instance.density.boxes:
                fold = geometry._unit_fold(samples, g, box, len(units), project=False)
                scores = geometry._unit_scores(fold, units).min(axis=1)
                x = box.lo + box.widths * units
                power = ((x[:, None] - samples.points) ** 2).sum(-1) - g
                less = power.min(axis=1) - (x**2).sum(-1)
                assert np.abs(scores - less).max() <= 1e-12 * (4 * d2 + 2 * g_inf)
                least.append(scores)
            least = np.concatenate(least)
            assert -d2 - g_inf <= least.min() and least.max() <= 3 * d2 + g_inf
            assert least.max() - least.min() <= 4 * d2 + 2 * g_inf


class TestFailureSplit:
    # Each mc draw of pass t is charged eta_t = eta/(2 t (t + 1)); the
    # gradient stream and the energy stream each sum to (eta/2) T/(T + 1).
    ETA = 0.05

    @pytest.mark.parametrize("big_t", [1, 10**6])
    def test_each_stream_sums_below_half_eta(self, big_t):
        t = np.arange(1, big_t + 1, dtype=float)
        total = math.fsum(ds._mc_failure(self.ETA, t).tolist())
        closed = self.ETA / 2.0 * big_t / (big_t + 1.0)
        assert total == pytest.approx(closed, rel=1e-12)
        assert total <= self.ETA / 2.0

    def test_the_sum_telescopes_up_to_the_cap(self):
        # eta_t = (eta/2) (1/t - 1/(t + 1)) to rounding, so the partial sum
        # at T = ITERATION_CAP telescopes to the closed form, below eta/2.
        half = Fraction(self.ETA) / 2
        for t in (1, 2, 7, 10**6, ITERATION_CAP - 1, ITERATION_CAP):
            telescoped = half * (Fraction(1, t) - Fraction(1, t + 1))
            assert ds._mc_failure(self.ETA, t) == pytest.approx(
                float(telescoped), rel=1e-15
            )
        cap = ITERATION_CAP
        assert half * cap / (cap + 1) < half

    def test_count_at_the_budget_is_at_most_twice_the_a_priori_one(
        self, symmetric_square
    ):
        config = SolverConfig(epsilon=0.9, eta=self.ETA, volume_backend="mc")
        _, _, trace = solve_dual(symmetric_square, config)
        n, k = symmetric_square.samples.n, symmetric_square.density.k
        per_cell = trace.noise_budget / math.sqrt(n)

        def count(failure):
            return geometry.mc_sample_count(n, per_cell, failure / k)

        a_priori = count(self.ETA / (trace.M + 1.0))
        assert count(ds._mc_failure(self.ETA, trace.M)) <= 2 * a_priori
        # where every solve stops, the split draws fewer points
        assert count(ds._mc_failure(self.ETA, 1)) < a_priori

    def test_eta_spent_sums_the_draws_made(self, symmetric_square):
        config = SolverConfig(epsilon=0.9, eta=self.ETA, seed=1, volume_backend="mc")
        _, _, trace = solve_dual(symmetric_square, config)
        assert trace.M_bar == trace.passes == 1
        assert trace.eta_spent == self.ETA / 2.0
        config = SolverConfig(
            epsilon=0.95, eta=self.ETA, seed=2, volume_backend="mc",
            max_iters_override=2,
        )
        _, _, trace = solve_dual(_off_centre_1d(), config)
        assert trace.passes == 2
        assert trace.eta_spent == pytest.approx(self.ETA * 2.0 / 3.0, rel=1e-15)
        config = SolverConfig(epsilon=0.9, eta=self.ETA, volume_backend="exact")
        _, _, trace = solve_dual(symmetric_square, config)
        assert trace.eta_spent == 0.0


class TestPrefixStop:
    # The mc gradient draw ends at the first checked prefix that certifies
    # the threshold stop; on the line boundary's event the solve is the one
    # the full draws give.

    @pytest.mark.parametrize("name", sorted(_PREFIX_CASES))
    def test_solve_matches_the_full_draw(self, name, monkeypatch):
        # eps' is scaled up 30x, which makes m about 2e4 per box, the blocks
        # 2 000 rows and the sub-chunks 250, so that checks may lie 1 000
        # rows apart, and 20 seeds of both solves take well under a second;
        # the stop rule is the same at any scale.
        prime = ds.epsilon_prime
        monkeypatch.setattr(ds, "epsilon_prime", lambda i, e: 30.0 * prime(i, e))
        monkeypatch.setattr(geometry, "_MC_CHUNK", 2000)
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 250)
        build, epsilon = _PREFIX_CASES[name]
        instance = build()
        saved = 0
        for seed in range(20):
            config = SolverConfig(
                epsilon=epsilon, eta=0.05, seed=seed, volume_backend="mc"
            )
            g, e, trace = solve_dual(instance, config)
            with monkeypatch.context() as patch:
                patch.setattr(ds, "_mc_gradient", _full_draw)
                g_full, e_full, full = solve_dual(instance, config)
            assert g.tolist() == g_full.tolist()
            assert e == e_full
            assert trace.M_bar == full.M_bar
            assert trace.stop_reason == full.stop_reason == "threshold"
            assert trace.energy_estimate == full.energy_estimate
            assert trace.mc_points_energy == full.mc_points_energy > 0
            ms = _sample_counts(instance, trace, config.eta)
            k_m = instance.density.k * ms[-1]
            draws = instance.density.k * sum(ms)
            assert full.mc_points_gradient == draws
            # only the last pass can stop early
            assert trace.mc_points_gradient > draws - k_m
            saved += full.mc_points_gradient - trace.mc_points_gradient
        if name == "off-centre-1d":
            # The 1/L descent reaches the threshold too narrowly for a
            # prefix to certify it.
            assert saved == 0
        else:
            assert saved > 0

    def test_full_gradient_passes_where_the_prefix_stops(self, monkeypatch):
        # At the solver's ratio threshold = 8 eps_bar, around the symmetric
        # square's optimum: wherever a prefix stops, the full draw with the
        # same seed has a norm within the threshold.
        monkeypatch.setattr(geometry, "_MC_CHUNK", 10_000)
        instance = fx.symmetric_square()
        eps_bar, eta_prime = 0.01, 1e-6
        threshold = 8.0 * eps_bar
        m = geometry.mc_sample_count(2, eps_bar / math.sqrt(2), eta_prime)
        rng = np.random.default_rng(11)
        stops = 0
        for seed in range(40):
            shift = rng.uniform(0.0, 0.3)
            g = np.array([shift, -shift])
            args = (instance, g, eps_bar, eta_prime, (seed, 1))
            grad, drawn = _mc_gradient(*args, threshold)
            full, _ = _mc_gradient(*args, 0.0)
            norm = math.sqrt(float(grad @ grad))
            if drawn < m:
                stops += 1
                assert norm + (3.0 + m / drawn) * eps_bar / 2.0 <= threshold
                assert math.sqrt(float(full @ full)) <= threshold
            else:
                assert drawn == m
                assert grad.tolist() == full.tolist()
        assert 5 <= stops <= 35

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_symmetric_square_draws_a_quarter(self, seed, symmetric_square):
        config = SolverConfig(epsilon=0.9, eta=0.05, seed=seed, volume_backend="mc")
        _, _, trace = solve_dual(symmetric_square, config)
        assert trace.stop_reason == "threshold"
        m = sum(_sample_counts(symmetric_square, trace, config.eta))
        assert 0 < trace.mc_points_gradient <= m / 4

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_symmetric_square_draws_an_eighth(self, seed, symmetric_square):
        # The line boundary's first check is at m/13, so the stop lies
        # below m/8 after a failed check or two.
        config = SolverConfig(epsilon=0.9, eta=0.05, seed=seed, volume_backend="mc")
        _, _, trace = solve_dual(symmetric_square, config)
        assert trace.stop_reason == "threshold"
        m = sum(_sample_counts(symmetric_square, trace, config.eta))
        assert 0 < trace.mc_points_gradient <= m / 8


class TestCheckSchedule:
    # The gradient checks its prefix where the stop rule can first hold,
    # and draws every box of the density in lockstep to each checked row.
    # eps_bar = 0.01 at the solver's threshold of 8 eps_bar makes m about
    # 1.5e5 rows a box and k_0 = m/13; sub-chunks of 50 rows let the checks
    # lie 200 rows apart.
    EPS_BAR, ETA = 0.01, 1e-6

    @pytest.fixture(autouse=True)
    def small_sub_chunks(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 50)
        monkeypatch.setattr(geometry, "_MC_CHUNK", 10_000)

    def _draw(self, instance, g, monkeypatch, threshold=0.0, seed=(3, 1)):
        # The gradient's draw with every plan call recorded as
        # (prefix volumes, k, returned row); the points drawn over all boxes.
        # The default threshold of 0 certifies no prefix.
        calls = []
        count = geometry.cell_box_volumes_mc

        def recorded(*args, plan=None, **kwargs):
            def logged(volumes, k):
                target = plan(volumes, k)
                calls.append((volumes, k, target))
                return target

            return count(*args, plan=None if plan is None else logged, **kwargs)

        monkeypatch.setattr(ds, "cell_box_volumes_mc", recorded)
        grad, drawn = _mc_gradient(instance, g, self.EPS_BAR, self.ETA, seed, threshold)
        return grad, drawn, calls

    def _m(self, instance):
        n, k = instance.samples.n, instance.density.k
        return geometry.mc_sample_count(n, self.EPS_BAR / math.sqrt(n), self.ETA / k)

    def _prefix(self, instance, volumes):
        # the prefix gradient, as the solver takes it
        grad = instance.samples.demands.copy()
        for (_, w), v in zip(instance.density.boxes, volumes):
            grad -= w * v
        return grad - grad.sum() / grad.size

    def _norm(self, instance, volumes):
        grad = self._prefix(instance, volumes)
        return math.sqrt(float(grad @ grad))

    def _k0(self, m, threshold):
        return m * self.EPS_BAR / (2.0 * threshold - 3.0 * self.EPS_BAR)

    @pytest.mark.parametrize("build", [fx.symmetric_square, _split_square])
    def test_first_check_is_at_k0(self, build, monkeypatch):
        instance = build()
        m = self._m(instance)
        threshold = 8.0 * self.EPS_BAR
        _, drawn, calls = self._draw(instance, np.zeros(2), monkeypatch, threshold)
        k0 = self._k0(m, threshold)
        assert calls[0][:2] == (None, 0) and calls[0][2] == k0
        # no prefix is seen before k_0 = ceil(m/13)
        assert calls[1][1] == math.ceil(k0) == math.ceil(m / 13)
        assert drawn == calls[-1][1] * instance.density.k
        assert calls[-1][2] is None and calls[-1][1] < m

    def test_a_failed_check_plans_from_its_norm(self, monkeypatch):
        # Off the optimum, the rule fails at k_0 and the next check is
        # where the failed prefix's norm nu would pass it.
        instance = _split_square()
        m = self._m(instance)
        threshold = 8.0 * self.EPS_BAR
        g = np.array([0.004, -0.004])
        _, drawn, calls = self._draw(instance, g, monkeypatch, threshold)
        gap = geometry._MC_CHECK_SUBCHUNKS * 50
        checks = calls[1:]
        assert len(checks) >= 2
        for (volumes, k, target), (_, k_next, _) in zip(checks, checks[1:]):
            nu = self._norm(instance, volumes)
            slack = 2.0 * threshold - 3.0 * self.EPS_BAR - 2.0 * nu
            assert nu + (3.0 + m / k) * self.EPS_BAR / 2.0 > threshold
            assert target == (m * self.EPS_BAR / slack if slack > 0 else math.inf)
            planned = k + 10_000 if math.isinf(target) else math.ceil(target)
            assert k_next == min(m, max(planned, k + gap))
        assert drawn == 2 * (checks[-1][1] if checks[-1][2] is None else m)

    @pytest.mark.parametrize("build", [fx.symmetric_square, _split_square])
    def test_every_checked_prefix_lies_within_the_line(self, build, monkeypatch):
        # On the line boundary's event, of probability >= 1 - 1e-6 here,
        # every prefix g_k the plan sees is within (m/k + 1) eps_bar / 2 of
        # the exact gradient: at the optimum, near it (a check or two fail)
        # and far from it (every block's check fails).
        monkeypatch.setattr(geometry, "_MC_SUBCHUNK", 1000)
        instance = build()
        m = self._m(instance)
        checked = 0
        for shift in (0.0, 0.004, 0.3):
            g = np.array([shift, -shift])
            exact = gradient(instance, g)
            for seed in range(20):
                _, _, calls = self._draw(
                    instance, g, monkeypatch, 8.0 * self.EPS_BAR, seed=(seed, 5)
                )
                for volumes, k, _ in calls[1:]:
                    error = self._prefix(instance, volumes) - exact
                    bound = (m / k + 1.0) * self.EPS_BAR / 2.0
                    assert math.sqrt(float(error @ error)) <= bound
                    checked += 1
        assert checked >= 3 * 20

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_draw_that_never_certifies_keeps_the_full_bits(
        self, workers, monkeypatch
    ):
        # Far from the optimum every check from k_0 on fails and asks for a
        # block more; the draw runs to m, with the bits of each box's own
        # full count.
        monkeypatch.setattr(geometry, "_MC_WORKERS", workers)
        instance = _split_square()
        m = self._m(instance)
        g = np.array([0.3, -0.3])
        threshold = 8.0 * self.EPS_BAR
        grad, drawn, calls = self._draw(instance, g, monkeypatch, threshold)
        checks = [k for _, k, _ in calls]
        assert checks == [0, *range(math.ceil(self._k0(m, threshold)), m, 10_000)]
        assert drawn == 2 * m
        full, _, _ = self._draw(instance, g, monkeypatch)
        assert grad.tolist() == full.tolist()
        expected = instance.samples.demands.copy()
        boxes, weights = zip(*instance.density.boxes)
        volumes = geometry.cell_box_volumes_mc(
            instance.samples, g, boxes, self.EPS_BAR / math.sqrt(2), self.ETA / 2,
            (3, 1),
        )
        for w, v in zip(weights, volumes):
            expected -= w * v
        assert grad.tolist() == (expected - expected.sum() / 2).tolist()

    def test_lost_labels_are_raised_on_a_prefix(self, monkeypatch):
        labels = geometry._unit_labels
        monkeypatch.setattr(
            geometry, "_unit_labels", lambda fold, u, out: labels(fold, u, out)[1:]
        )
        instance = _split_square()
        threshold = 8.0 * self.EPS_BAR
        k0 = math.ceil(self._k0(self._m(instance), threshold))
        with pytest.raises(RuntimeError, match=f"not to the {k0} rows drawn"):
            self._draw(instance, np.zeros(2), monkeypatch, threshold)

    def test_an_early_stop_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MC_WORKERS", 3)
        instance = _split_square()
        baseline = threading.active_count()
        _, drawn, _ = self._draw(
            instance, np.zeros(2), monkeypatch, 8.0 * self.EPS_BAR
        )
        assert drawn < instance.density.k * self._m(instance)
        assert threading.active_count() == baseline


class TestSolveDual:
    def test_symmetric_interval_stops_immediately(self, symmetric_interval):
        config = SolverConfig(epsilon=0.05, eta=0.01, seed=0)
        g, e, trace = solve_dual(symmetric_interval, config)
        assert trace.M_bar == 1
        assert trace.stop_reason == "threshold"
        assert_allclose(g, [0.0, 0.0])
        assert_allclose(e, 1 / 3)
        assert trace.guarantee_holds

    def test_single_sink_trivial(self, single_sink):
        config = SolverConfig(epsilon=0.05, eta=0.01)
        g, e, trace = solve_dual(single_sink, config)
        assert trace.M_bar == 1
        assert_allclose(g, [0.0])
        assert_allclose(e, 1 / 12)

    def test_asymmetric_converges_to_oracle(self, asymmetric_demands):
        config = SolverConfig(epsilon=0.05, eta=0.01)
        with pytest.warns(UserWarning, match="non-uniform"):
            g, e, trace = solve_dual(asymmetric_demands, config)
        assert trace.stop_reason == "threshold"
        assert_allclose(g, [0.25, -0.25], atol=1e-3)
        assert abs(e - 7 / 48) <= trace.eps_prime

    def test_descent_claim(self, asymmetric_demands):
        # fixed step, exact backend: each non-terminal step gains
        # >= (1/3L) ||grad f||^2
        config = SolverConfig(epsilon=0.05, eta=0.01)
        with pytest.warns(UserWarning, match="non-uniform"):
            _, _, trace = _fixed_step_solve(asymmetric_demands, config)
        assert trace.M_bar > 5
        L = trace.L
        for i in range(trace.M_bar - 1):
            if trace.grad_norm[i] <= trace.grad_threshold:
                break
            gain = trace.energy_estimate[i + 1] - trace.energy_estimate[i]
            assert gain >= trace.grad_norm[i] ** 2 / (3.0 * L) - 1e-12

    def test_iterate_bounds(self, asymmetric_demands, symmetric_square):
        for instance in (asymmetric_demands, symmetric_square):
            config = SolverConfig(epsilon=0.05, eta=0.01)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g, _, trace = solve_dual(instance, config)
            n = instance.samples.n
            d2 = instance.stats.D**2
            assert max(trace.g_inf_norm) <= 20 * n * d2
            assert g.max() - g.min() <= 16 * n * d2

    def test_override_voids_guarantee(self, asymmetric_demands):
        config = SolverConfig(epsilon=0.05, eta=0.01, max_iters_override=3)
        with pytest.warns(UserWarning, match="non-uniform"):
            _, _, trace = _fixed_step_solve(asymmetric_demands, config)
        assert trace.M_bar == 3
        assert trace.stop_reason == "override"
        assert not trace.guarantee_holds
        # Newton reaches the threshold at t = 2; an override of 1 stops it.
        config = SolverConfig(epsilon=0.05, eta=0.01, max_iters_override=1)
        with pytest.warns(UserWarning, match="non-uniform"):
            _, _, trace = solve_dual(asymmetric_demands, config)
        assert trace.M_bar == 1
        assert trace.stop_reason == "override"
        assert not trace.guarantee_holds

    def test_mc_backend_terminates_at_loose_accuracy(self, symmetric_interval):
        config = SolverConfig(
            epsilon=0.9, eta=0.5, seed=2, volume_backend="mc"
        )
        g, e, trace = solve_dual(symmetric_interval, config)
        assert trace.stop_reason == "threshold"
        assert trace.backend == "mc"
        exact_e = energy(symmetric_interval, g)
        assert abs(e - exact_e) <= trace.eps_prime / 4
        assert trace.guarantee_holds
        assert trace.step_size == [0.0]
        # Each mc pass draws its gradient and its energy; the last pass's
        # energy is the returned one, with no extra draw after the loop.
        assert e == trace.energy_estimate[-1]
        assert np.isfinite(trace.energy_estimate).all()
        assert trace.passes == trace.M_bar
        # Off the optimum the mc pass has no Hessian, so every step is 1/L.
        density = BoxDensity(
            dimension=1, boxes=((Hyperrectangle([-1.0], [1.0]), 0.5),)
        )
        instance = Instance(density, SampleSet.uniform([[0.0], [0.9]]))
        config = SolverConfig(
            epsilon=0.95, eta=0.5, seed=2, volume_backend="mc", max_iters_override=2
        )
        _, e, trace = solve_dual(instance, config)
        assert trace.stop_reason == "override" and trace.M_bar == 2
        assert trace.step_size == [1.0 / trace.L, 0.0]
        assert e == trace.energy_estimate[-1]
        assert np.isfinite(trace.energy_estimate).all()
        assert trace.passes == trace.M_bar

    def test_deterministic_under_seed(self, symmetric_square):
        config = SolverConfig(epsilon=0.1, eta=0.05, seed=42)
        g1, e1, _ = solve_dual(symmetric_square, config)
        g2, e2, _ = solve_dual(symmetric_square, config)
        assert (g1 == g2).all()
        assert e1 == e2

    def test_abort_on_non_finite_gradient(self, symmetric_interval, monkeypatch):
        evaluate = ds._evaluate

        def broken(instance, g, hessian=False):
            good = evaluate(instance, g, hessian)
            return good._replace(grad=np.full(instance.samples.n, np.nan))

        monkeypatch.setattr(ds, "_evaluate", broken)
        config = SolverConfig(epsilon=0.05, eta=0.01)
        with pytest.raises(SolverAbort) as info:
            ds.solve_dual(symmetric_interval, config)
        assert info.value.trace.stop_reason == "abort"

    def test_abort_on_non_finite_energy(self, asymmetric_demands, monkeypatch):
        evaluate = ds._evaluate

        def broken(instance, g, hessian=False):
            return evaluate(instance, g, hessian)._replace(energy=math.nan)

        monkeypatch.setattr(ds, "_evaluate", broken)
        config = SolverConfig(epsilon=0.05, eta=0.01)
        # Newton would stop at t = 2; the first pass's energy already aborts.
        with pytest.warns(UserWarning, match="non-uniform"):
            with pytest.raises(SolverAbort, match="non-finite energy") as info:
                ds.solve_dual(asymmetric_demands, config)
        assert info.value.trace.stop_reason == "abort"
        assert info.value.trace.M_bar == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0, eta=0.5)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, eta=1.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, eta=0.5, volume_backend="magic")
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, eta=0.5, max_iters_override=0)

    def test_trace_csv(self, asymmetric_demands, tmp_path):
        config = SolverConfig(epsilon=0.05, eta=0.01)
        with pytest.warns(UserWarning, match="non-uniform"):
            _, _, trace = solve_dual(asymmetric_demands, config)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,grad_norm,energy_estimate,step_size,wallclock_ms,g_inf_norm"
        )
        assert len(lines) == trace.M_bar + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == trace.grad_norm[0]
        columns = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[3] for row in columns] == trace.step_size
        assert [row[5] for row in columns] == trace.g_inf_norm


def _fixed_step_solve(instance, config):
    """solve_dual with the paper's fixed 1/L step: no lift of empty cells
    and no Newton trial, so every step takes the 1/L fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ds, "_HALVINGS", 0)
        patch.setattr(ds, "_LIFT_ROUNDS", 0)
        return solve_dual(instance, config)


def _acceptance_instance(index):
    rng = np.random.default_rng(20240501)
    for _ in range(index):
        fx.random_instance(rng, max_dim=2, max_boxes=2, max_samples=4)
    return fx.random_instance(rng, max_dim=2, max_boxes=2, max_samples=4)


# (instance, M_bar, final g, final energy) of the fixed-step loop on the exact
# backend, recorded with one power diagram per box; building one per iterate
# must leave every iterate unchanged.
_PINNED_SOLVES = {
    "batch-06-l2-k1-n3": (
        lambda: _acceptance_instance(6), 456,
        [-2.470100779199615, 2.782886298121607, -0.3127855189219921],
        3.479155183223448,
    ),
    "batch-18-l2-k2-n2": (
        lambda: _acceptance_instance(18), 1197,
        [4.027663217522068, -4.027663217522068], 4.783885269133868,
    ),
    "batch-22-l1-k1-n3": (
        lambda: _acceptance_instance(22), 470,
        [0.6819648499181187, -0.17513764074922847, -0.5068272091688901],
        0.3368220625491387,
    ),
    "thin-box-2": (
        lambda: fx.thin_box_family(2)[0], 296,
        [-0.4999572017431223, 0.4999572017431223], 2.1666666648349757,
    ),
}


class TestPinnedSolves:
    @pytest.mark.parametrize("name", sorted(_PINNED_SOLVES))
    def test_descent_is_pinned(self, name):
        build, m_bar, g_ref, e_ref = _PINNED_SOLVES[name]
        instance = build()
        config = SolverConfig(epsilon=0.05, eta=0.05)
        g, e_final, trace = _fixed_step_solve(instance, config)
        assert trace.M_bar == m_bar
        assert trace.stop_reason == "threshold"
        assert np.abs(g - g_ref).max() <= 1e-12
        assert abs(e_final - e_ref) <= 1e-12 * abs(e_ref)
        # Every iterate's energy comes from its own geometry pass.
        assert trace.energy_estimate[0] == energy(instance, np.zeros(len(g)))
        assert np.isfinite(trace.energy_estimate).all()
        assert trace.energy_estimate[-1] == e_final


def _two_boxes_2d(n):
    """The convergence table's instances: two disjoint boxes in 2-D with
    n sinks from uniform(-2, 2), drawn in turn for n = 4, 8, 16, 64 from
    one default_rng(3)."""
    rng = np.random.default_rng(3)
    density = BoxDensity(
        dimension=2,
        boxes=(
            (Hyperrectangle([-2.0, -1.0], [-0.5, 1.0]), 1 / 6),
            (Hyperrectangle([0.5, -1.0], [2.0, 1.0]), 1 / 6),
        ),
    )
    for size in (4, 8, 16, 64):
        points = rng.uniform(-2.0, 2.0, size=(size, 2))
        if size == n:
            return Instance(density, SampleSet.uniform(points))
    raise ValueError(n)


def _two_intervals_1d():
    density = BoxDensity(
        dimension=1,
        boxes=(
            (Hyperrectangle([-2.0], [-1.0]), 0.4),
            (Hyperrectangle([1.0], [2.5]), 0.4),
        ),
    )
    return Instance(density, SampleSet.uniform([[-2.5], [-1.2], [0.1], [0.3], [2.2]]))


_NEWTON_CASES = {
    **{f"two-boxes-2d-n{n}": (lambda n=n: _two_boxes_2d(n)) for n in (4, 8, 16, 64)},
    "two-intervals-1d": _two_intervals_1d,
    "hidden-thin-box-16": lambda: fx.thin_box_family(16)[0],
    "hidden-batch-21": lambda: _acceptance_instance(21),
}


class TestNewton:
    @pytest.mark.parametrize("name", sorted(_NEWTON_CASES))
    def test_reaches_threshold_quickly(self, name):
        instance = _NEWTON_CASES[name]()
        config = SolverConfig(epsilon=0.1, eta=0.1, max_iters_override=1000)
        g, e_final, trace = solve_dual(instance, config)
        assert trace.stop_reason == "threshold"
        assert trace.M_bar <= 30
        assert trace.guarantee_holds
        assert trace.passes >= trace.M_bar
        assert e_final == energy(instance, g)
        if instance.dimension == 1:
            p_star = semidiscrete_1d_exact(instance)[0]
            assert abs(e_final - p_star) <= trace.eps_prime

    def test_hidden_cells_are_raised_before_the_first_step(self):
        for name in ("hidden-thin-box-16", "hidden-batch-21"):
            instance = _NEWTON_CASES[name]()
            mass = ds._evaluate(instance, np.zeros(instance.samples.n)).mass
            assert (mass == 0.0).any(), name
            _, start = ds._massive_start(instance, lambda g: ds._evaluate(instance, g))
            assert (start.mass > 0.0).all(), name

    def test_accepted_steps_shrink_the_gradient(self):
        # A Newton step tau is accepted only when ||grad|| falls to at most
        # (1 - tau/2) of its value; a fallback step reads 1/L.
        rng = np.random.default_rng(20240501)
        instances = [
            fx.random_instance(rng, max_dim=2, max_boxes=2, max_samples=4)
            for _ in range(25)
        ]
        instances += [fx.thin_box_family(m)[0] for m in (1, 4, 16)]
        instances += [_two_boxes_2d(16)]
        newton_steps = 0
        for instance in instances:
            _, _, trace = solve_dual(instance, SolverConfig(epsilon=0.05, eta=0.05))
            assert trace.stop_reason == "threshold"
            assert trace.step_size[-1] == 0.0
            for i, tau in enumerate(trace.step_size[:-1]):
                if tau == 1.0 / trace.L:
                    continue
                assert 0.0 < tau <= 1.0 and math.log2(tau).is_integer()
                assert trace.grad_norm[i + 1] <= (1.0 - tau / 2.0) * trace.grad_norm[i]
                newton_steps += 1
        assert newton_steps >= len(instances) // 2

    def test_fallback_is_the_paper_step(self, asymmetric_demands, monkeypatch):
        # With no halvings allowed every iteration falls back to the 1/L step,
        # so the solver retraces the paper's loop g <- g + (1/L) grad E.
        monkeypatch.setattr(ds, "_HALVINGS", 0)
        config = SolverConfig(epsilon=0.05, eta=0.01, max_iters_override=40)
        with pytest.warns(UserWarning, match="non-uniform"):
            g, e_final, trace = solve_dual(asymmetric_demands, config)
        assert trace.M_bar > 5
        step = 1.0 / trace.L
        g_ref = np.zeros(2)
        ref = ds._evaluate(asymmetric_demands, g_ref)
        norms = [float(np.linalg.norm(ref.grad))]
        for _ in range(trace.M_bar - 1):
            g_ref = g_ref + step * ref.grad
            g_ref = g_ref - g_ref.mean()
            ref = ds._evaluate(asymmetric_demands, g_ref)
            norms.append(float(np.linalg.norm(ref.grad)))
        assert g.tobytes() == g_ref.tobytes()
        assert e_final == ref.energy
        assert trace.grad_norm == norms
        assert trace.step_size == [step] * (trace.M_bar - 1) + [0.0]
        assert trace.passes == trace.M_bar



def _union_find_connected(hess):
    """The facet graph's connectivity by a Python union-find over the upper
    triangle's nonzero entries: the reference for the numpy version."""
    n = hess.shape[0]
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    parts = n
    for a, b in zip(*np.nonzero(np.triu(hess, 1))):
        a, b = find(int(a)), find(int(b))
        if a != b:
            root[a] = b
            parts -= 1
    return parts == 1


def _graph(n, edges, rng, shuffle=True):
    """A symmetric H with random weights on the edges, its nodes relabelled
    at random when ``shuffle``."""
    label = rng.permutation(n) if shuffle else np.arange(n)
    hess = np.zeros((n, n))
    for a, b in edges:
        hess[label[a], label[b]] = hess[label[b], label[a]] = rng.uniform(0.1, 1.0)
    hess.flat[:: n + 1] = -hess.sum(axis=1)
    return hess


class TestConnected:
    """The facet graph's connectivity by hooking and pointer jumping."""

    def test_matches_union_find(self):
        rng = np.random.default_rng(20261020)
        graphs = []
        for n in (1, 2, 3, 5, 17, 64):
            path = [(i, i + 1) for i in range(n - 1)]
            star = [(0, i) for i in range(1, n)]
            graphs += [_graph(n, path, rng), _graph(n, star, rng)]
            for p in (0.02, 0.1, 0.3):
                upper = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
                graphs.append(_graph(n, upper, rng))
            # Two or three parts: each a path, and one edge of the first part
            # dropped.
            for parts in (2, 3):
                if n >= parts:
                    cut = np.sort(rng.choice(np.arange(1, n), parts - 1, replace=False))
                    split = [(i, i + 1) for i in range(n - 1) if i + 1 not in cut]
                    graphs.append(_graph(n, split, rng))
        # An edge in the lower triangle alone does not count, as in the
        # reference.
        lower = np.array([[0.0, 0.0], [1.0, 0.0]])
        graphs.append(lower)
        answers = [ds._connected(hess) for hess in graphs]
        assert answers == [_union_find_connected(hess) for hess in graphs]
        assert True in answers and False in answers

    @pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
    def test_path_takes_log_rounds(self, shuffled, monkeypatch):
        # Label propagation would need 255 rounds on a 256-node path; each
        # round here ends in one pointer-jumping call.
        n = 256
        path = [(i, i + 1) for i in range(n - 1)]
        hess = _graph(n, path, np.random.default_rng(1), shuffled)
        rounds = []
        real = ds._roots
        monkeypatch.setattr(
            ds, "_roots", lambda parent: rounds.append(1) or real(parent)
        )
        assert ds._connected(hess)
        assert len(rounds) <= 2 * math.log2(n)

class TestNecessityFamilies:
    def test_separation_family_ratio_is_linear(self):
        slope = 1.0 / (4.0 * math.sqrt(2.0))
        for m in (1, 2, 4, 8, 16):
            instance, (g_a, g_b) = fx.sample_separation_family(m)
            diff = gradient(instance, g_a) - gradient(instance, g_b)
            ratio = np.linalg.norm(diff) / np.linalg.norm(g_a - g_b)
            assert_allclose(ratio, slope * m, rtol=1e-9)

    def test_thin_box_family_ratio_is_linear(self):
        slope = 1.0 / (2.0 * math.sqrt(2.0))
        for m in (1, 2, 4, 8, 16):
            instance, (g_a, g_b) = fx.thin_box_family(m)
            diff = gradient(instance, g_a) - gradient(instance, g_b)
            ratio = np.linalg.norm(diff) / np.linalg.norm(g_a - g_b)
            assert_allclose(ratio, slope * m, rtol=1e-9)

    def test_family_ratios_stay_below_smoothness_constant(self):
        for family in (fx.sample_separation_family, fx.thin_box_family):
            for m in (1, 2, 4, 8, 16):
                instance, (g_a, g_b) = family(m)
                diff = gradient(instance, g_a) - gradient(instance, g_b)
                ratio = np.linalg.norm(diff) / np.linalg.norm(g_a - g_b)
                assert ratio <= instance.stats.L + 1e-9


class TestTransforms:
    def test_shift_formula(self):
        samples = fx.symmetric_interval().samples
        ghat = transform_dual_for_shift(np.zeros(2), samples, np.array([0.5]))
        assert_allclose(ghat, [-0.75, 1.25])

    def test_scale_formula(self):
        samples = fx.symmetric_interval().samples
        ghat = transform_dual_for_scale(np.zeros(2), samples, 2.0)
        assert_allclose(ghat, [-1.0, -1.0])

    def test_scale_identity(self):
        samples = fx.symmetric_square().samples
        g = np.array([0.3, -0.3])
        assert_allclose(transform_dual_for_scale(g, samples, 1.0), g)

    def test_scale_rejects_nonpositive(self):
        samples = fx.symmetric_interval().samples
        with pytest.raises(ValueError):
            transform_dual_for_scale(np.zeros(2), samples, 0.0)

    def test_shift_preserves_classification(self, symmetric_square):
        from boxot.geometry import SampleSet

        rng = np.random.default_rng(44)
        samples = symmetric_square.samples
        g = np.array([0.4, -0.4])
        mu = np.array([0.7, -0.2])
        ghat = transform_dual_for_shift(g, samples, mu)
        shifted = SampleSet(points=samples.points + mu, demands=samples.demands)
        xs = rng.uniform(-2, 2, size=(1000, 2))
        base = classify_points(samples, g, xs)
        moved = classify_points(shifted, ghat, xs)
        assert (base == moved).all()

    def test_scale_preserves_classification(self, symmetric_square):
        rng = np.random.default_rng(45)
        samples = symmetric_square.samples
        g = np.array([0.4, -0.4])
        xs = rng.uniform(-2, 2, size=(1000, 2))
        base = classify_points(samples, g, xs)
        for sigma in (0.5, 2.0):
            ghat = transform_dual_for_scale(g, samples, sigma)
            scaled = classify_points(samples, ghat, sigma * xs)
            assert (base == scaled).all()
