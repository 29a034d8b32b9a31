"""Closed-form recovery of shift/scale from dual energies and oracle plans."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxot import fixtures as fx
from boxot.dual_solver import SolverConfig
from boxot.estimator import closed_form_from_plan, estimate_parameters
from boxot.geometry import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    SampleSet,
    box_moments,
)
from boxot.oracle import semidiscrete_1d_exact


def _oracle_inputs(instance):
    moments = box_moments(instance.density)
    b = instance.samples.demands
    y = instance.samples.points
    return moments, b @ y, float(b @ (y**2).sum(-1))


class TestClosedForm:
    def test_symmetric_interval(self, symmetric_interval):
        moments, sum_by, _ = _oracle_inputs(symmetric_interval)
        sigma, mu = closed_form_from_plan(moments, sum_by, cross_term=0.5)
        assert_allclose(sigma, 1.5)
        assert_allclose(mu, [0.0], atol=1e-12)

    def test_single_sink_degenerates_to_zero_scale(self, single_sink):
        moments, sum_by, _ = _oracle_inputs(single_sink)
        sigma, mu = closed_form_from_plan(moments, sum_by, cross_term=0.25)
        assert_allclose(sigma, 0.0, atol=1e-12)
        assert_allclose(mu, [-0.5])

    def test_asymmetric_demands(self, asymmetric_demands):
        moments, sum_by, _ = _oracle_inputs(asymmetric_demands)
        sigma, mu = closed_form_from_plan(moments, sum_by, cross_term=7 / 32)
        assert_allclose(sigma, 1.125)
        assert_allclose(mu, [0.3125])

    def test_square(self, symmetric_square):
        moments, sum_by, _ = _oracle_inputs(symmetric_square)
        sigma, mu = closed_form_from_plan(moments, sum_by, cross_term=0.5)
        assert_allclose(sigma, 0.75)
        assert_allclose(mu, [0.0, 0.0], atol=1e-12)

    def test_zero_variance_rejected(self):
        moments = (1.0, np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="variance"):
            closed_form_from_plan(moments, np.array([0.5]), 0.3)


def _cube_3d():
    """Uniform density on [-1,1]^3 with sinks (+-1,0,0): the optimum is g = 0."""
    box = Hyperrectangle([-1.0] * 3, [1.0] * 3)
    density = BoxDensity(dimension=3, boxes=((box, 0.125),))
    return Instance(density, SampleSet.uniform([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))


class TestMcAccuracy:
    # The Monte Carlo route under its per-pass failure split, against the
    # exact backend on instances whose optimum g = 0 is the start: every
    # mc energy estimates the exact optimum's energy to its stated budget.
    @pytest.mark.parametrize(
        "build", [fx.symmetric_square, _cube_3d], ids=["square-2d", "cube-3d"]
    )
    def test_twenty_seeds_stay_within_their_accuracies(self, build):
        instance, eps = build(), 0.9
        exact = estimate_parameters(
            instance, SolverConfig(epsilon=eps, eta=0.05, volume_backend="exact")
        )
        assert exact.trace.stop_reason == "threshold"
        for seed in range(20):
            result = estimate_parameters(
                instance,
                SolverConfig(epsilon=eps, eta=0.05, seed=seed, volume_backend="mc"),
            )
            trace = result.trace
            assert trace.backend == "mc" and trace.stop_reason == "threshold"
            assert trace.guarantee_holds
            assert abs(result.dual_energy - exact.dual_energy) <= trace.energy_accuracy
            assert abs(result.sigma_hat - exact.sigma_hat) <= eps


class TestEstimateParameters:
    def test_symmetric_interval(self, symmetric_interval):
        result = estimate_parameters(
            symmetric_interval, SolverConfig(epsilon=0.05, eta=0.01, seed=1)
        )
        assert_allclose(result.sigma_hat, 1.5, atol=0.05)
        assert_allclose(result.mu_hat, [0.0], atol=0.05)
        assert not result.degenerate_sigma
        assert result.guarantee_holds
        assert_allclose(result.dual_energy + 2 * result.rho, 1 / 3 + 1.0)

    def test_single_sink_warns_degenerate(self, single_sink):
        with pytest.warns(UserWarning, match="degenerate"):
            result = estimate_parameters(
                single_sink, SolverConfig(epsilon=0.05, eta=0.01)
            )
        assert abs(result.sigma_hat) <= 1e-9
        assert_allclose(result.mu_hat, [-0.5], atol=1e-9)
        assert result.degenerate_sigma

    def test_single_sink_flags_at_every_seed(self, symmetric_interval):
        # With one sink sigma* = 0 and sigma_hat is rounding of either sign;
        # the flag does not follow that sign. The sink sits anywhere near a
        # box that is shifted and scaled.
        config = SolverConfig(epsilon=0.05, eta=0.01, volume_backend="exact")
        for seed in range(30):
            rng = np.random.default_rng(seed)
            l = 1 + seed % 3
            a, c = rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0, size=l)
            box = Hyperrectangle(c, c + a * rng.uniform(0.5, 1.5, size=l))
            sink = c + a * rng.uniform(-1.0, 2.0, size=(1, l))
            instance = Instance(
                BoxDensity(l, ((box, 1.0 / box.volume),)), SampleSet.uniform(sink)
            )
            with pytest.warns(UserWarning, match="degenerate"):
                result = estimate_parameters(instance, config)
            assert result.degenerate_sigma and abs(result.sigma_hat) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_parameters(symmetric_interval, config)
        assert not result.degenerate_sigma

    def test_density_moments_are_computed_once(self, monkeypatch):
        # The closed-form moments' per-box loop reads each box's midpoint
        # once; epsilon_prime, the energies and the closed forms share it.
        reads = []
        midpoint = Hyperrectangle.midpoint
        monkeypatch.setattr(
            Hyperrectangle,
            "midpoint",
            property(lambda box: reads.append(box) or midpoint.fget(box)),
        )
        instance = fx.symmetric_square()
        estimate_parameters(instance, SolverConfig(epsilon=0.05, eta=0.01))
        assert reads == [box for box, _ in instance.density.boxes]

    def test_square(self, symmetric_square):
        result = estimate_parameters(
            symmetric_square, SolverConfig(epsilon=0.05, eta=0.01)
        )
        assert_allclose(result.sigma_hat, 0.75, atol=0.05)
        assert_allclose(result.mu_hat, [0.0, 0.0], atol=0.05 * np.sqrt(2))

    def test_matches_oracle_closed_form_1d(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            instance = fx.random_instance(rng, max_dim=1, max_boxes=2, max_samples=3)
            eps = 0.1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = estimate_parameters(
                    instance, SolverConfig(epsilon=eps, eta=0.05, seed=3)
                )
            _, cross, _ = semidiscrete_1d_exact(instance)
            moments, sum_by, _ = _oracle_inputs(instance)
            sigma_star, mu_star = closed_form_from_plan(moments, sum_by, cross)
            assert abs(result.sigma_hat - sigma_star) <= eps
            assert np.linalg.norm(result.mu_hat - mu_star) <= eps * instance.stats.D

    def test_translation_equivariance(self):
        rng = np.random.default_rng(27)
        eps = 0.05
        for _ in range(5):
            instance = fx.random_instance(rng, max_dim=2, max_boxes=2, max_samples=3)
            shift = rng.uniform(-1.5, 1.5, size=instance.dimension)
            moved = Instance(
                BoxDensity(
                    dimension=instance.dimension,
                    boxes=tuple(
                        (Hyperrectangle(box.lo + shift, box.hi + shift), w)
                        for box, w in instance.density.boxes
                    ),
                ),
                SampleSet(
                    points=instance.samples.points + shift,
                    demands=instance.samples.demands,
                ),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                base = estimate_parameters(
                    instance, SolverConfig(epsilon=eps, eta=0.05)
                )
                trans = estimate_parameters(
                    moved, SolverConfig(epsilon=eps, eta=0.05)
                )
            assert abs(base.sigma_hat - trans.sigma_hat) <= 2 * eps

    def test_scale_shift_and_permutation_equivariance(self):
        # Samples mapped to a P y + c (a > 0, P a permutation of the sinks)
        # map sigma* to a sigma* and mu* to a mu* - c. Where both solves hold
        # the guarantee, each is within eps of its sigma* and eps D of its
        # mu*, so sigma_hat' / a and sigma_hat agree within eps (1 + 1/a),
        # and mu_hat' and a mu_hat - c within eps (D' + a D).
        rng = np.random.default_rng(16)
        eps = 0.1
        config = SolverConfig(
            epsilon=eps, eta=0.1, max_iters_override=100, volume_backend="exact"
        )
        unheld = 0
        for _ in range(40):
            instance = fx.random_instance(rng, max_dim=3, max_boxes=2, max_samples=8)
            l, n = instance.dimension, instance.samples.n
            a = rng.uniform(0.3, 3.0)
            c = rng.uniform(-2.0, 2.0, size=l)
            points = a * instance.samples.points[rng.permutation(n)] + c
            moved = Instance(instance.density, SampleSet.uniform(points))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                base = estimate_parameters(instance, config)
                mapped = estimate_parameters(moved, config)
            if not (base.guarantee_holds and mapped.guarantee_holds):
                unheld += 1
                continue
            assert abs(mapped.sigma_hat / a - base.sigma_hat) <= eps * (1.0 + 1.0 / a)
            bound = eps * (moved.stats.D + a * instance.stats.D)
            assert np.linalg.norm(mapped.mu_hat - (a * base.mu_hat - c)) <= bound
        # Pairs with a solve stopped at the override: six 1-D pairs and one
        # 2-D pair. ROADMAP item 15 (the 1-D weights in closed form) is to
        # end the 1-D stalls; re-pin this count when it lands.
        assert unheld == 7

        # l = 4 on Monte Carlo: the cube [-1, 1]^4 with sinks (+-1, 0, 0, 0).
        # Monte Carlo answers only instances whose optimum is its start
        # g = 0, so the maps keep it there: a scale a, a shift c orthogonal
        # to y_0 - y_1 and the swap of the two sinks.
        eps = 0.95
        cube = BoxDensity(4, ((Hyperrectangle([-1.0] * 4, [1.0] * 4), 1.0 / 16.0),))
        sinks = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        instance = Instance(cube, SampleSet.uniform(sinks))

        def mc(target, seed):
            config = SolverConfig(epsilon=eps, eta=0.1, seed=seed, volume_backend="mc")
            result = estimate_parameters(target, config)
            assert result.trace.backend == "mc" and result.guarantee_holds
            return result

        base = mc(instance, 0)
        for seed in range(1, 7):
            a = rng.uniform(0.5, 1.5)
            c = np.concatenate([[0.0], rng.uniform(-0.5, 0.5, size=3)])
            moved = Instance(cube, SampleSet.uniform(a * sinks[rng.permutation(2)] + c))
            mapped = mc(moved, seed)
            assert abs(mapped.sigma_hat / a - base.sigma_hat) <= eps * (1.0 + 1.0 / a)
            bound = eps * (moved.stats.D + a * instance.stats.D)
            assert np.linalg.norm(mapped.mu_hat - (a * base.mu_hat - c)) <= bound

        # The cube's own sigma* = 0.375 at an eps below 0.5, the shift of
        # sigma_hat that an energy without its closed-form term would give.
        eps = 0.4
        assert abs(mc(instance, 0).sigma_hat - 0.375) <= eps

    def test_json_fields(self, symmetric_interval):
        result = estimate_parameters(
            symmetric_interval, SolverConfig(epsilon=0.05, eta=0.01)
        )
        doc = result.to_json_dict()
        assert set(doc) == {
            "sigma_hat",
            "mu_hat",
            "rho",
            "dual_energy",
            "epsilon",
            "eta",
            "guarantee_holds",
            "iterations",
            "passes",
            "mc_points_gradient",
            "mc_points_energy",
            "eta_spent",
            "stop_reason",
            "backend",
        }
        assert doc["iterations"] == result.trace.M_bar
        assert doc["passes"] == result.trace.passes
        assert doc["mc_points_gradient"] == result.trace.mc_points_gradient == 0
        assert doc["mc_points_energy"] == result.trace.mc_points_energy == 0
        assert doc["eta_spent"] == result.trace.eta_spent == 0.0
        assert doc["stop_reason"] == result.trace.stop_reason
        assert doc["backend"] == result.trace.backend
        assert isinstance(doc["mu_hat"], list)
