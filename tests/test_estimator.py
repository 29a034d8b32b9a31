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
            "stop_reason",
            "backend",
        }
        assert doc["iterations"] == result.trace.M_bar
        assert doc["passes"] == result.trace.passes
        assert doc["stop_reason"] == result.trace.stop_reason
        assert doc["backend"] == result.trace.backend
        assert isinstance(doc["mu_hat"], list)
