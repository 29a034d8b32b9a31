"""Ground-truth solvers: discretization, exact discrete OT, 1D transport, FD."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxot import fixtures as fx
from boxot.geometry import BoxDensity, Hyperrectangle, Instance, SampleSet
from boxot import oracle
from boxot.oracle import (
    MASS_UNITS,
    WeightedPoints,
    _apportion,
    _banded_plan,
    _full_plan,
    _scaled_costs,
    discretization_error_bound,
    discretize_source,
    finite_difference_gradient,
    semidiscrete_1d_exact,
    solve_discrete_ot_exact,
)


class TestDiscretizeSource:
    def test_unit_interval_two_cells(self):
        density = BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 1.0),))
        pts = discretize_source(density, 2)
        assert_allclose(pts.points, [[0.25], [0.75]])
        assert_allclose(pts.masses, [0.5, 0.5])

    def test_single_cell_midpoint(self):
        density = BoxDensity(dimension=1, boxes=((Hyperrectangle([-1.0], [1.0]), 0.5),))
        pts = discretize_source(density, 1)
        assert_allclose(pts.points, [[0.0]])
        assert_allclose(pts.masses, [1.0])

    def test_square_four_cells(self):
        density = BoxDensity(
            dimension=2, boxes=((Hyperrectangle([0.0, 0.0], [1.0, 1.0]), 1.0),)
        )
        pts = discretize_source(density, 2)
        want = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert {tuple(p) for p in pts.points} == want
        assert_allclose(pts.masses, [0.25] * 4)

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(2)
        instance = fx.random_instance(rng)
        pts = discretize_source(instance.density, 7)
        assert abs(pts.masses.sum() - 1.0) <= 1e-9

    def test_memory_guard(self):
        density = BoxDensity(
            dimension=2, boxes=((Hyperrectangle([0.0, 0.0], [1.0, 1.0]), 1.0),)
        )
        with pytest.raises(ValueError):
            discretize_source(density, 4000)

    def test_bad_resolution(self):
        density = BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 1.0),))
        with pytest.raises(ValueError):
            discretize_source(density, 0)


class TestSolveDiscreteOtExact:
    def test_identity_layout_costs_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sources = WeightedPoints(points=pts, masses=np.full(3, 1 / 3))
        samples = SampleSet.uniform(pts)
        plan = solve_discrete_ot_exact(sources, samples)
        assert plan.cost <= 1e-12
        assert_allclose(np.diag(plan.flows), [1 / 3] * 3)

    def test_forced_plan(self):
        sources = WeightedPoints(
            points=np.array([[0.25], [0.75]]), masses=np.array([0.5, 0.5])
        )
        samples = SampleSet.uniform(np.array([[0.5]]))
        plan = solve_discrete_ot_exact(sources, samples)
        assert_allclose(plan.cost, 0.0625, atol=1e-9)
        assert_allclose(plan.flows, [[0.5], [0.5]])

    def test_converges_to_continuous_cost(self, symmetric_interval):
        sources = discretize_source(symmetric_interval.density, 200)
        plan = solve_discrete_ot_exact(sources, symmetric_interval.samples)
        assert abs(plan.cost - 1 / 3) <= 0.01

    def test_marginals_exact(self):
        rng = np.random.default_rng(4)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(30, 2)),
            masses=np.full(30, 1 / 30),
        )
        d = rng.uniform(0.5, 1.5, size=4)
        samples = SampleSet(
            points=rng.uniform(-1, 1, size=(4, 2)), demands=d / d.sum()
        )
        plan = solve_discrete_ot_exact(sources, samples)
        assert np.abs(plan.flows.sum(axis=1) - sources.masses).max() <= 1e-9
        assert np.abs(plan.flows.sum(axis=0) - samples.demands).max() <= 1e-9
        assert (plan.flows >= 0).all()

    def test_cost_matches_flows(self):
        rng = np.random.default_rng(5)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(12, 2)), masses=np.full(12, 1 / 12)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        plan = solve_discrete_ot_exact(sources, samples)
        costs = ((sources.points[:, None, :] - samples.points[None, :, :]) ** 2).sum(-1)
        assert_allclose(plan.cost, (plan.flows * costs).sum(), rtol=1e-12)

    def test_beats_greedy_matchings(self):
        # optimality spot check against all assignments on a tiny instance
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(3, 2))
        sources = WeightedPoints(points=pts, masses=np.full(3, 1 / 3))
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        plan = solve_discrete_ot_exact(sources, samples)
        costs = ((pts[:, None, :] - samples.points[None, :, :]) ** 2).sum(-1)
        best = min(
            sum(costs[i, p[i]] for i in range(3)) / 3
            for p in itertools.permutations(range(3))
        )
        assert plan.cost <= best + 1e-9

    def test_unbalanced_raises(self):
        sources = WeightedPoints(points=np.array([[0.0]]), masses=np.array([0.9]))
        samples = SampleSet.uniform(np.array([[0.0]]))
        with pytest.raises(ValueError):
            solve_discrete_ot_exact(sources, samples)

    def test_rounding_bound_is_small(self, symmetric_square):
        sources = discretize_source(symmetric_square.density, 20)
        plan = solve_discrete_ot_exact(sources, symmetric_square.samples)
        assert 0 < plan.rounding_cost_bound < 1e-6


def _grid_problem(rng, l, k, n, resolution, demands=None):
    """Integer transport problem of a random k-box density's midpoint grid.

    Boxes sit side by side along axis 0 with gaps; sinks are uniform in a
    slightly larger cube. Returns (C_int, a_int, b_int) as the oracle scales
    them.
    """
    edges = np.sort(rng.uniform(-1.0, 1.0, size=2 * k))
    boxes = []
    for i in range(k):
        lo = np.concatenate([[edges[2 * i]], rng.uniform(-1.0, -0.2, size=l - 1)])
        hi = np.concatenate([[edges[2 * i + 1]], rng.uniform(0.2, 1.0, size=l - 1)])
        boxes.append(Hyperrectangle(lo, hi))
    shares = rng.dirichlet(np.ones(k))
    density = BoxDensity(
        dimension=l, boxes=tuple((b, w / b.volume) for b, w in zip(boxes, shares))
    )
    sources = discretize_source(density, resolution)
    sinks = rng.uniform(-1.2, 1.2, size=(n, l))
    if demands is None:
        demands = rng.dirichlet(np.ones(n))
    _, C_int, _ = _scaled_costs(sources.points, sinks)
    a_int = _apportion(sources.masses, MASS_UNITS)
    return C_int, a_int, _apportion(demands, MASS_UNITS)


def _assert_same_optimum(C_int, a_int, b_int):
    banded = _banded_plan(C_int, a_int, b_int)
    full = _full_plan(C_int, a_int, b_int)
    assert banded is not None and full is not None
    assert (C_int * banded[0]).sum() == (C_int * full[0]).sum()


class TestBandedRoute:
    """The restricted-LP route must certify the same optimal cost as HiGHS
    on the full problem (integer costs C_int . X, so ties may differ in X)."""

    # (l, k) -> grid resolution: 600-730 sources, above the 500 that HiGHS
    # solves whole, so the band is used and the full LP stays quick
    RESOLUTION = {
        (1, 1): 650, (1, 2): 325, (2, 1): 25, (2, 2): 18, (3, 1): 9, (3, 2): 7
    }

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_full_lp(self, l):
        rng = np.random.default_rng(100 + l)
        for n, k in itertools.product(range(1, 7), (1, 2)):
            resolution = self.RESOLUTION[l, k]
            _assert_same_optimum(*_grid_problem(rng, l, k, n, resolution))

    def test_single_source(self):
        rng = np.random.default_rng(110)
        for n in (1, 3):
            C_int, a_int, b_int = _grid_problem(rng, 2, 1, n, 1)
            assert C_int.shape == (1, n)
            _assert_same_optimum(C_int, a_int, b_int)

    def test_zero_demand_sink(self):
        rng = np.random.default_rng(111)
        for l in (1, 2, 3):
            demands = np.array([0.5, 0.0, 0.3, 0.2])
            problem = _grid_problem(rng, l, 2, 4, self.RESOLUTION[l, 2], demands)
            assert problem[2][1] == 0
            _assert_same_optimum(*problem)

    def test_exact_ties(self):
        """Symmetric sinks over a symmetric grid: rows and diagonals of sources tie."""
        square = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
        density = BoxDensity(dimension=2, boxes=((square, 0.25),))
        cross = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        for sinks, resolution in ((cross[:2], 25), (cross, 26), (cross, 25)):
            sources = discretize_source(density, resolution)
            _, C_int, _ = _scaled_costs(sources.points, sinks)
            a_int = _apportion(sources.masses, MASS_UNITS)
            b_int = _apportion(np.full(len(sinks), 1.0 / len(sinks)), MASS_UNITS)
            _assert_same_optimum(C_int, a_int, b_int)

    def test_large_two_sink_problem(self):
        """80 000 sources: the exact two-sink greedy is the reference.

        With two sinks the problem is a fractional knapsack: sink 0 takes its
        demand from the sources with the smallest C_i0 - C_i1.
        """
        rng = np.random.default_rng(112)
        C_int, a_int, b_int = _grid_problem(rng, 2, 2, 2, 200)
        assert C_int.shape == (80_000, 2)
        banded = _banded_plan(C_int, a_int, b_int)
        assert banded is not None
        saving = C_int[:, 0] - C_int[:, 1]
        order = np.argsort(saving, kind="stable")
        before = np.cumsum(a_int[order]) - a_int[order]
        taken = np.clip(b_int[0] - before, 0, a_int[order])
        greedy = (a_int * C_int[:, 1]).sum() + (taken * saving[order]).sum()
        assert (C_int * banded[0]).sum() == greedy

    def test_grid_rows_do_not_alias(self, monkeypatch):
        """Two 10^3 grids (2000 sources): a stride of 5 divided their rows.

        With the subsample taken every fifth source the first duals were off
        by hundreds of source masses, and with four to six sinks these
        problems took three rounds or the full LP; each must now certify
        within two rounds. (With fewer sinks both subsamples need one.)
        """
        retries = []
        balance = oracle._balance_sinks

        def counted(*args):
            retries.append(1)
            return balance(*args)

        monkeypatch.setattr(oracle, "_balance_sinks", counted)
        for seed in (120, 121):
            rng = np.random.default_rng(seed)
            for n in range(1, 7):
                problem = _grid_problem(rng, 3, 2, n, 10)
                assert problem[0].shape == (2000, n)
                if n < 4:
                    continue
                retries.clear()
                _assert_same_optimum(*problem)
                assert len(retries) <= 1, (seed, n)

    def test_full_lp_fallback(self, monkeypatch):
        """With the banded route failing, HiGHS on the full LP still certifies."""
        rng = np.random.default_rng(113)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(600, 2)), masses=np.full(600, 1 / 600)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        banded = solve_discrete_ot_exact(sources, samples)
        monkeypatch.setattr(oracle, "_banded_plan", lambda *args: None)
        fallback = solve_discrete_ot_exact(sources, samples)
        assert np.abs(fallback.flows.sum(axis=1) - sources.masses).max() <= 1e-9
        assert np.abs(fallback.flows.sum(axis=0) - samples.demands).max() <= 1e-9
        assert_allclose(fallback.cost, banded.cost, rtol=1e-12)

    def test_base_case_is_not_solved_twice(self, monkeypatch):
        """At most 500 sources HiGHS solves the full LP once per method.

        A candidate that fails the certificate is retried with the dual
        simplex only, not with the same solve again.
        """
        rng = np.random.default_rng(114)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(400, 2)), masses=np.full(400, 1 / 400)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        methods = []
        arc_lp = oracle._arc_lp

        def spied(*args):
            methods.append(args[-1])
            return arc_lp(*args)

        monkeypatch.setattr(oracle, "_arc_lp", spied)
        monkeypatch.setattr(oracle, "_certify_optimal", lambda *args: None)
        with pytest.raises(oracle.OracleFailure):
            solve_discrete_ot_exact(sources, samples)
        assert methods == ["highs", "highs-ds"]


def _assert_sorted_optimum(C_int, a_int, b_int):
    sorted_plan = oracle._sorted_plan(C_int, a_int, b_int)
    full = _full_plan(C_int, a_int, b_int)
    assert sorted_plan is not None and full is not None
    assert (C_int * sorted_plan[0]).sum() == (C_int * full[0]).sum()


class TestSortedRoute:
    """With one or two sinks the sort must certify HiGHS's integer optimum."""

    RESOLUTION = TestBandedRoute.RESOLUTION

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_full_lp(self, l):
        rng = np.random.default_rng(200 + l)
        for n, k in itertools.product((1, 2), (1, 2)):
            _assert_sorted_optimum(*_grid_problem(rng, l, k, n, self.RESOLUTION[l, k]))

    @pytest.mark.parametrize("empty", [0, 1])
    def test_zero_demand_sink(self, empty):
        rng = np.random.default_rng(210 + empty)
        demands = np.ones(2)
        demands[empty] = 0.0
        for l in (1, 2, 3):
            problem = _grid_problem(rng, l, 2, 2, self.RESOLUTION[l, 2], demands)
            assert problem[2][empty] == 0
            _assert_sorted_optimum(*problem)

    def test_zero_mass_source(self):
        """A source without mass first, at the split, or last in the sort."""
        rng = np.random.default_rng(212)
        for l in (1, 2, 3):
            C_int, a_int, b_int = _grid_problem(rng, l, 2, 2, self.RESOLUTION[l, 2])
            order = np.argsort(C_int[:, 0] - C_int[:, 1], kind="stable")
            split = np.searchsorted(np.cumsum(a_int[order]), b_int[0])
            for i in order[[0, split, -1]]:
                a_zero = a_int.copy()
                a_zero[order[1] if i == order[0] else order[0]] += a_zero[i]
                a_zero[i] = 0
                _assert_sorted_optimum(C_int, a_zero, b_int)

    def test_single_source(self):
        rng = np.random.default_rng(213)
        for n in (1, 2):
            C_int, a_int, b_int = _grid_problem(rng, 2, 1, n, 1)
            assert C_int.shape == (1, n)
            _assert_sorted_optimum(C_int, a_int, b_int)

    def test_non_uniform_masses(self):
        rng = np.random.default_rng(214)
        for l, n in itertools.product((1, 2, 3), (1, 2)):
            C_int, _, b_int = _grid_problem(rng, l, 1, n, self.RESOLUTION[l, 1])
            a_int = _apportion(rng.uniform(0.01, 1.0, size=C_int.shape[0]), MASS_UNITS)
            _assert_sorted_optimum(C_int, a_int, b_int)

    def test_exact_ties(self):
        """Two sinks mirrored over a symmetric grid: whole columns tie."""
        square = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
        density = BoxDensity(dimension=2, boxes=((square, 0.25),))
        sinks = np.array([[-1.0, 0.0], [1.0, 0.0]])
        sources = discretize_source(density, 25)
        _, C_int, _ = _scaled_costs(sources.points, sinks)
        a_int = _apportion(sources.masses, MASS_UNITS)
        _assert_sorted_optimum(C_int, a_int, _apportion(np.full(2, 0.5), MASS_UNITS))

    @pytest.mark.parametrize("m", [400, 600])
    def test_highs_only_for_three_sinks(self, monkeypatch, m):
        """Below and above the full-LP size, n <= 2 never reaches HiGHS."""
        rng = np.random.default_rng(215)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(m, 2)), masses=np.full(m, 1 / m)
        )
        calls = []
        arc_lp = oracle._arc_lp

        def spied(*args):
            calls.append(1)
            return arc_lp(*args)

        monkeypatch.setattr(oracle, "_arc_lp", spied)
        for n in (1, 2, 3):
            calls.clear()
            solve_discrete_ot_exact(sources, SampleSet.uniform(rng.uniform(-1, 1, (n, 2))))
            assert bool(calls) == (n == 3), n

    def test_certificate_decides(self, monkeypatch):
        """A sorted plan that fails the certificate is not returned; HiGHS runs."""
        rng = np.random.default_rng(216)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(50, 2)), masses=np.full(50, 1 / 50)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(2, 2)))
        methods = []
        arc_lp = oracle._arc_lp

        def spied(*args):
            methods.append(args[-1])
            return arc_lp(*args)

        monkeypatch.setattr(oracle, "_arc_lp", spied)
        monkeypatch.setattr(oracle, "_certify_optimal", lambda *args: None)
        with pytest.raises(oracle.OracleFailure):
            solve_discrete_ot_exact(sources, samples)
        assert methods == ["highs", "highs-ds"]


class TestCertifyOptimal:
    """Each check of the certificate rejects a candidate that fails only it.

    Three sources, two sinks: sink 0 takes source 0 and one unit of
    source 1, the sort's plan, with duals u = (1, 2, 0) and v = (-1, 0).
    """

    C_INT = np.ascontiguousarray(np.array([[0, 5], [1, 2], [6, 0]]).T).T
    A_INT = np.array([2, 2, 2])
    B_INT = np.array([3, 3])
    X = np.array([[2, 0], [1, 1], [0, 2]])
    DUALS = np.array([1, 2, 0, -1, 0])

    def _certify(self, x=X, duals=DUALS, a_int=A_INT, b_int=B_INT):
        return oracle._certify_optimal(self.C_INT, a_int, b_int, x, duals)

    def test_accepts_the_optimal_plan(self):
        assert np.array_equal(self._certify(), self.X)
        near = self._certify(self.X + 1e-6, self.DUALS + 1e-7)
        assert near.dtype == np.int64 and np.array_equal(near, self.X)
        assert np.array_equal(self._certify(self.X.ravel()), self.X)
        plan = oracle._sorted_plan(self.C_INT, self.A_INT, self.B_INT)
        assert np.array_equal(plan[0], self.X) and plan[1].tolist() == [-1, 0]

    def test_rejects_a_non_integral_flow(self):
        x = self.X.astype(float)
        x[1] += [0.25, -0.25]
        assert self._certify(x) is None

    def test_rejects_a_negative_flow(self):
        assert self._certify(np.array([[3, -1], [0, 2], [0, 2]])) is None

    def test_rejects_a_row_marginal_off_by_one(self):
        assert self._certify(a_int=np.array([3, 1, 2])) is None

    def test_rejects_a_column_marginal_off_by_one(self):
        assert self._certify(b_int=np.array([4, 2])) is None

    def test_rejects_a_non_integral_dual(self):
        duals = self.DUALS.astype(float)
        duals[0] += 0.3  # rounds back to the optimal dual
        assert self._certify(duals=duals) is None

    def test_rejects_a_negative_reduced_cost(self):
        duals = self.DUALS.copy()
        duals[1] = 3  # C_10 - u_1 - v_0 = 1 - 3 + 1 = -1
        assert self._certify(duals=duals) is None

    def test_rejects_flow_on_a_positive_reduced_cost(self):
        # reduced cost 4 on (source 0, sink 1)
        assert self._certify(np.array([[1, 1], [2, 0], [0, 2]])) is None


def _square_grid_problem(seed, resolution, n):
    """[-1, 1]^2 at resolution^2 midpoints against n random sinks and demands."""
    rng = np.random.default_rng(seed)
    square = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
    density = BoxDensity(dimension=2, boxes=((square, 0.25),))
    sources = discretize_source(density, resolution)
    samples = SampleSet(rng.uniform(-1.0, 1.0, size=(n, 2)), rng.dirichlet(np.ones(n)))
    return sources, samples


class TestSinkMajorLayout:
    """The sink-major storage shows the (m, n) plan and source-major LPs."""

    @pytest.mark.parametrize(
        "resolution, n, route", [(200, 2, "sorted"), (25, 3, "banded")]
    )
    def test_plan_layout(self, monkeypatch, resolution, n, route):
        # On this seed a sum in the flows' memory order (sink-major) differs
        # from the source-major sum in the last bit, for both problems.
        sources, samples = _square_grid_problem(310, resolution, n)
        arcs = []
        arc_lp = oracle._arc_lp

        def spied(costs, src, snk, *args):
            arcs.append((src, snk))
            return arc_lp(costs, src, snk, *args)

        monkeypatch.setattr(oracle, "_arc_lp", spied)
        plan = solve_discrete_ot_exact(sources, samples)
        m = resolution**2
        assert plan.route == route
        assert plan.flows.shape == (m, n)
        scale = sources.masses.sum() / MASS_UNITS
        X = np.rint(plan.flows / scale).astype(np.int64)
        assert np.array_equal(X * scale, plan.flows)
        assert np.array_equal(X.sum(axis=1), _apportion(sources.masses, MASS_UNITS))
        assert np.array_equal(X.sum(axis=0), _apportion(samples.demands, MASS_UNITS))
        C = _scaled_costs(sources.points, samples.points)[0]
        assert plan.cost == float((np.ascontiguousarray(plan.flows) * C).sum())
        assert bool(arcs) == (n > 2)
        for src, snk in arcs:
            # source by source, and by sink within a source
            step, turn = np.diff(src), np.diff(snk)
            assert ((step > 0) | ((step == 0) & (turn > 0))).all()

    def test_costs_are_stored_sink_major(self):
        rng = np.random.default_rng(310)
        points = rng.uniform(-1, 1, size=(50, 3))
        sinks = rng.uniform(-1, 1, size=(4, 3))
        C, C_int, _ = _scaled_costs(points, sinks)
        assert C.shape == C_int.shape == (50, 4)
        assert C.T.flags.c_contiguous and C_int.T.flags.c_contiguous
        squares = (points[:, None, :] - sinks[None, :, :]) ** 2
        assert np.array_equal(C, squares.sum(-1))

    def test_full_route(self, monkeypatch):
        """At most 500 sources HiGHS solves the whole LP, and so does the fallback."""
        sources, samples = _square_grid_problem(311, 20, 3)
        assert solve_discrete_ot_exact(sources, samples).route == "full"
        sources, samples = _square_grid_problem(312, 25, 3)
        monkeypatch.setattr(oracle, "_banded_plan", lambda *args: None)
        assert solve_discrete_ot_exact(sources, samples).route == "full"


class TestSemidiscrete1dExact:
    def test_symmetric_interval(self, symmetric_interval):
        p, cross, bp = semidiscrete_1d_exact(symmetric_interval)
        assert_allclose(p, 1 / 3)
        assert_allclose(cross, 0.5)
        assert_allclose(bp, [0.0])

    def test_single_sink(self, single_sink):
        p, cross, bp = semidiscrete_1d_exact(single_sink)
        assert_allclose(p, 1 / 12)
        assert_allclose(cross, 0.25)
        assert bp.size == 0

    def test_asymmetric_demands(self, asymmetric_demands):
        p, cross, bp = semidiscrete_1d_exact(asymmetric_demands)
        assert_allclose(p, 7 / 48)
        assert_allclose(cross, 7 / 32)
        assert_allclose(bp, [0.75])

    def test_two_box_gap(self):
        density = BoxDensity(
            dimension=1,
            boxes=(
                (Hyperrectangle([0.0], [1.0]), 0.5),
                (Hyperrectangle([2.0], [3.0]), 0.5),
            ),
        )
        samples = SampleSet.uniform(np.array([[0.5], [2.5]]))
        p, cross, bp = semidiscrete_1d_exact(Instance(density, samples))
        assert_allclose(p, 1 / 12)
        assert_allclose(cross, 3.25)
        assert_allclose(bp, [1.0])

    def test_rejects_higher_dimension(self, symmetric_square):
        with pytest.raises(ValueError):
            semidiscrete_1d_exact(symmetric_square)

    def test_unsorted_samples_are_handled(self):
        density = BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 1.0),))
        a = Instance(density, SampleSet.uniform(np.array([[0.9], [0.1]])))
        b = Instance(density, SampleSet.uniform(np.array([[0.1], [0.9]])))
        pa, ca, _ = semidiscrete_1d_exact(a)
        pb, cb, _ = semidiscrete_1d_exact(b)
        assert_allclose(pa, pb)
        assert_allclose(ca, cb)


class TestMonotoneRefinement:
    def test_error_shrinks_at_least_twofold(
        self, symmetric_interval, asymmetric_demands
    ):
        for instance in (symmetric_interval, asymmetric_demands):
            p_star, _, _ = semidiscrete_1d_exact(instance)
            errs = []
            for r in (10, 40, 160):
                sources = discretize_source(instance.density, r)
                plan = solve_discrete_ot_exact(sources, instance.samples)
                errs.append(abs(plan.cost - p_star))
            assert errs[0] >= 2 * errs[1]
            assert errs[1] >= 2 * errs[2]

    def test_error_bound_covers_true_error(self, symmetric_interval):
        p_star, _, _ = semidiscrete_1d_exact(symmetric_interval)
        for r in (10, 40):
            sources = discretize_source(symmetric_interval.density, r)
            plan = solve_discrete_ot_exact(sources, symmetric_interval.samples)
            bound = discretization_error_bound(
                symmetric_interval.density, symmetric_interval.samples, r
            )
            assert abs(plan.cost - p_star) <= bound + plan.rounding_cost_bound


class TestPlanInvariance:
    def _support(self, plan):
        scale = plan.flows.max()
        return set(map(tuple, np.argwhere(plan.flows > 1e-9 * scale)))

    def test_shift_preserves_support(self):
        rng = np.random.default_rng(7)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(8, 2)), masses=np.full(8, 1 / 8)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        base = solve_discrete_ot_exact(sources, samples)
        mu = np.array([0.7, -0.3])
        shifted = SampleSet(points=samples.points + mu, demands=samples.demands)
        moved = solve_discrete_ot_exact(
            WeightedPoints(points=sources.points + mu, masses=sources.masses),
            shifted,
        )
        assert self._support(base) == self._support(moved)

    def test_scale_preserves_support(self):
        rng = np.random.default_rng(9)
        sources = WeightedPoints(
            points=rng.uniform(-1, 1, size=(8, 2)), masses=np.full(8, 1 / 8)
        )
        samples = SampleSet.uniform(rng.uniform(-1, 1, size=(3, 2)))
        base = solve_discrete_ot_exact(sources, samples)
        for sigma in (0.5, 2.0):
            scaled = solve_discrete_ot_exact(
                WeightedPoints(points=sigma * sources.points, masses=sources.masses),
                SampleSet(points=sigma * samples.points, demands=samples.demands),
            )
            assert self._support(base) == self._support(scaled)


class TestFiniteDifferenceGradient:
    def test_zero_at_symmetric_optimum(self, symmetric_interval):
        fd = finite_difference_gradient(symmetric_interval, np.zeros(2))
        assert_allclose(fd, [0.0, 0.0], atol=1e-8)

    def test_matches_analytic_value(self, symmetric_interval):
        fd = finite_difference_gradient(symmetric_interval, np.array([0.5, -0.5]))
        assert_allclose(fd, [-0.125, 0.125], atol=1e-8)

    def test_relative_error_on_random_weights(self, symmetric_square):
        from boxot.dual_solver import gradient

        rng = np.random.default_rng(12)
        for _ in range(10):
            g = rng.uniform(-0.8, 0.8, size=2)
            g -= g.mean()
            fd = finite_difference_gradient(symmetric_square, g)
            an = gradient(symmetric_square, g)
            assert np.linalg.norm(fd - an) <= 1e-3 * max(np.linalg.norm(an), 1e-12)

    def test_matches_exact_gradient_in_3d(self):
        """Central differences of E probe the 3-D clipper's first and second moments."""
        from boxot.dual_solver import gradient

        rng = np.random.default_rng(30)
        left = Hyperrectangle([-1.0, -1.0, -1.0], [0.0, 1.0, 1.0])
        right = Hyperrectangle([0.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        density = BoxDensity(dimension=3, boxes=((left, 0.1), (right, 0.15)))
        samples = SampleSet.uniform(rng.uniform(-1.0, 1.0, size=(10, 3)))
        instance = Instance(density, samples)
        for _ in range(3):
            g = rng.normal(scale=0.2, size=10)
            fd = finite_difference_gradient(instance, g)
            an = gradient(instance, g)
            assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)

    def test_bad_step_raises(self, symmetric_interval):
        with pytest.raises(ValueError):
            finite_difference_gradient(symmetric_interval, np.zeros(2), h=0.0)
