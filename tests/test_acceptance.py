"""Acceptance gate: ten numbered checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Criteria 2 and 6 share a session-scoped batch of solver
runs; building it (25 dual solves and 16 resolution-200 transport oracles)
takes about 4 s on a 2-core machine, all in the first test that needs it.
"""

import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from boxot.dual_solver import (
    SolverConfig,
    epsilon_prime,
    gradient,
    solve_dual,
    transform_dual_for_scale,
    transform_dual_for_shift,
)
from boxot.fixtures import (
    named_instances,
    random_instance,
    sample_separation_family,
    thin_box_family,
)
from boxot.geometry import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    SampleSet,
    cell_box_volume_exact,
    cell_box_volumes_mc,
    classify_points,
)
from boxot.instance_io import save_instance
from boxot.oracle import (
    discretization_error_bound,
    discretize_source,
    finite_difference_gradient,
    semidiscrete_1d_exact,
    solve_discrete_ot_exact,
)
from boxot.sat_reduction import (
    CnfFormula,
    brute_force_sat,
    decide_positive_likelihood,
    reduce_3sat,
)

CLOSED_FORM_TARGETS = {
    "symmetric-interval": (1.5, [0.0]),
    "single-sink": (0.0, [-0.5]),
    "symmetric-square": (0.75, [0.0, 0.0]),
}


@pytest.fixture(scope="session")
def closed_form_solves():
    """The dual solves behind criterion 1, rerun in process for criterion 6."""
    runs = []
    for name in CLOSED_FORM_TARGETS:
        instance = named_instances()[name]
        config = SolverConfig(epsilon=0.05, eta=0.01, seed=0)
        g, _, trace = solve_dual(instance, config)
        runs.append((instance, g, trace))
    return runs


@pytest.fixture(scope="session")
def oracle_runs():
    """25 random uniform-demand solves paired with independent primal oracles."""
    rng = np.random.default_rng(20240501)
    runs = []
    for i in range(25):
        instance = random_instance(rng, max_dim=2, max_boxes=2, max_samples=4)
        config = SolverConfig(epsilon=0.1, eta=0.05, seed=1000 + i)
        g, e_final, trace = solve_dual(instance, config)
        if instance.dimension == 1:
            p_star, _, _ = semidiscrete_1d_exact(instance)
            oracle_err = 0.0
        else:
            sources = discretize_source(instance.density, 200)
            plan = solve_discrete_ot_exact(sources, instance.samples)
            p_star = plan.cost
            oracle_err = (
                discretization_error_bound(instance.density, instance.samples, 200)
                + plan.rounding_cost_bound
            )
        runs.append((instance, g, trace, e_final, p_star, oracle_err))
    return runs


def test_criterion_01_closed_form_recovery(tmp_path):
    """estimate recovers (sigma*, mu*) on the closed-form fixtures in <60s."""
    for name, (sigma_star, mu_star) in CLOSED_FORM_TARGETS.items():
        instance = named_instances()[name]
        path = tmp_path / f"{name}.json"
        save_instance(path, instance, {"name": name})
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "boxot.cli", "estimate", str(path),
             "--epsilon", "0.05", "--eta", "0.01", "--seed", "0"],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 60.0, f"{name}: {elapsed:.1f}s"
        payload = json.loads(proc.stdout)
        D = instance.stats.D
        assert abs(payload["sigma_hat"] - sigma_star) <= 0.05, name
        mu_err = np.linalg.norm(np.array(payload["mu_hat"]) - np.array(mu_star))
        assert mu_err <= 0.05 * D, name


def test_criterion_02_oracle_equivalence(oracle_runs):
    """Final dual energy matches the independent primal oracle within budget."""
    for instance, _, trace, e_final, p_star, oracle_err in oracle_runs:
        gap = abs(e_final - p_star)
        assert gap <= trace.eps_prime + oracle_err, (
            f"l={instance.dimension}: gap {gap} > "
            f"{trace.eps_prime} + {oracle_err}"
        )


def test_criterion_03_gradient_matches_finite_differences():
    """Analytic gradient agrees with central differences to 1e-3 relative."""
    rng = np.random.default_rng(7)
    for name, instance in named_instances().items():
        n = instance.samples.n
        scale = 0.5 * instance.stats.D**2
        for _ in range(20):
            g = rng.normal(scale=scale, size=n)
            analytic = gradient(instance, g, backend="exact")
            fd = finite_difference_gradient(instance, g)
            norm = float(np.linalg.norm(analytic))
            if norm == 0.0:
                assert float(np.linalg.norm(fd)) <= 1e-9, name
            else:
                assert float(np.linalg.norm(fd - analytic)) / norm <= 1e-3, name


def test_criterion_04_smoothness_bound():
    """Measured gradient Lipschitz ratio never exceeds 2nlk/s^2."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        instance = random_instance(rng)
        n = instance.samples.n
        scale = instance.stats.D**2
        for _ in range(100):
            g = rng.normal(scale=scale, size=n)
            h = rng.normal(scale=scale, size=n)
            dg = gradient(instance, g, backend="exact")
            dh = gradient(instance, h, backend="exact")
            ratio = float(
                np.linalg.norm(dg - dh) / np.linalg.norm(g - h)
            )
            assert ratio <= instance.stats.L


def test_criterion_05_necessity_families_blow_up():
    """Both family Lipschitz ratios grow linearly in m (within factor 2)."""
    for family in (sample_separation_family, thin_box_family):
        ratios = {}
        for m in (1, 2, 4, 8, 16):
            instance, (g_a, g_b) = family(m)
            diff = gradient(instance, g_a, backend="exact") - gradient(
                instance, g_b, backend="exact"
            )
            ratios[m] = float(
                np.linalg.norm(diff) / np.linalg.norm(g_a - g_b)
            )
        slope = ratios[1]
        assert slope > 0
        for m, ratio in ratios.items():
            assert slope * m / 2.0 <= ratio <= 2.0 * slope * m, family.__name__


def test_criterion_06_dual_weight_bounds(closed_form_solves, oracle_runs):
    """Every iterate stays under 20nD^2; final spread under 16nD^2."""
    runs = list(closed_form_solves) + [
        (instance, g, trace) for instance, g, trace, _, _, _ in oracle_runs
    ]
    iterates = 0
    for instance, g, trace in runs:
        n = instance.samples.n
        bound = 20.0 * n * instance.stats.D**2
        assert all(v <= bound + 1e-12 for v in trace.g_inf_norm)
        iterates += len(trace.g_inf_norm)
        centered = g - g.mean()
        spread = float(centered.max() - centered.min())
        assert spread <= 16.0 * n * instance.stats.D**2 + 1e-12
    assert iterates >= len(runs)


def test_criterion_07_transform_invariance():
    """Shift/scale dual transforms preserve the classification map."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        instance = random_instance(rng)
        samples = instance.samples
        g_star, _, _ = solve_dual(
            instance, SolverConfig(epsilon=0.1, eta=0.05, seed=5)
        )
        bb = instance.density.support_bounding_box()
        probes = rng.uniform(
            bb.lo - 0.5, bb.hi + 0.5, size=(10_000, instance.dimension)
        )
        y = samples.points
        scores = (y**2).sum(-1)[None, :] - 2.0 * (probes @ y.T) - g_star[None, :]
        if samples.n > 1:
            order = np.sort(scores, axis=1)
            margin = order[:, 1] - order[:, 0]
            probes = probes[margin > 1e-9 * (1.0 + np.abs(order[:, 0]))]
        base = classify_points(samples, g_star, probes)

        mu = rng.uniform(-1.0, 1.0, size=instance.dimension)
        shifted = SampleSet(points=y + mu, demands=samples.demands)
        g_shift = transform_dual_for_shift(g_star, samples, mu)
        assert (classify_points(shifted, g_shift, probes) == base).all()

        for sigma in (0.5, 2.0):
            g_scale = transform_dual_for_scale(g_star, samples, sigma)
            assert (classify_points(samples, g_scale, sigma * probes) == base).all()


def _check_reduction(red):
    assert abs(red.density.total_mass - 1.0) <= 1e-9
    los = np.array([box.lo for box, _ in red.density.boxes])
    his = np.array([box.hi for box, _ in red.density.boxes])
    lo = np.maximum(los[:, None, :], los[None, :, :])
    hi = np.minimum(his[:, None, :], his[None, :, :])
    overlap = (lo <= hi).all(axis=2)
    np.fill_diagonal(overlap, False)
    assert not overlap.any()


def test_criterion_08_hardness_decision_equivalence():
    """Likelihood decision equals brute-force SAT; gadgets stay disjoint."""
    start = time.monotonic()
    polarity_clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    for mask in range(1, 256):
        clauses = [polarity_clauses[i] for i in range(8) if mask >> i & 1]
        cnf = CnfFormula.from_dimacs_clauses(3, clauses)
        _check_reduction(reduce_3sat(cnf))
        assert decide_positive_likelihood(cnf) == brute_force_sat(cnf), clauses

    rng = np.random.default_rng(31)
    done = 0
    while done < 500:
        l = int(rng.integers(3, 7))
        n = int(rng.integers(1, 9))
        clauses = []
        for _ in range(n):
            vs = rng.choice(l, size=3, replace=False)
            clauses.append(
                tuple((int(v), bool(rng.integers(0, 2))) for v in vs)
            )
        if {v for cl in clauses for v, _ in cl} != set(range(l)):
            continue
        cnf = CnfFormula(l, tuple(clauses))
        _check_reduction(reduce_3sat(cnf))
        assert decide_positive_likelihood(cnf) == brute_force_sat(cnf)
        done += 1
    assert time.monotonic() - start < 300.0


def test_criterion_09_epsilon_prime_floor():
    """epsilon' >= eps s^2 / 12 on random instances, zero violations."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        instance = random_instance(rng)
        eps = float(rng.uniform(0.01, 1.0))
        floor = eps * instance.stats.s**2 / 12.0
        assert epsilon_prime(instance, eps) >= floor - 1e-15


def _three_dimensional_instance():
    box = Hyperrectangle([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    density = BoxDensity(dimension=3, boxes=((box, 1.0),))
    points = np.array([[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]])
    return Instance(density, SampleSet.uniform(points))


def test_criterion_10_mc_volume_accuracy():
    """MC volumes hit the additive eps_bar bound at the stated failure rate."""
    fixtures = named_instances()
    cases = [
        (fixtures["symmetric-interval"], np.zeros(2)),
        (fixtures["symmetric-square"], np.array([0.5, -0.5])),
        (_three_dimensional_instance(), np.zeros(2)),
    ]
    eps_bar, eta_prime, trials = 0.02, 0.05, 200
    for instance, g in cases:
        samples = instance.samples
        box, _ = instance.density.boxes[0]
        exact = np.array(
            [
                cell_box_volume_exact(samples, g, j, box)
                for j in range(samples.n)
            ]
        )
        tolerance = eps_bar * box.volume
        failures = 0
        for seed in range(trials):
            est = cell_box_volumes_mc(
                samples, g, box, eps_bar=eps_bar, eta_prime=eta_prime,
                seed=seed, box_index=0,
            )
            if float(np.max(np.abs(est - exact))) > tolerance:
                failures += 1
        assert failures <= eta_prime * trials, instance.dimension
