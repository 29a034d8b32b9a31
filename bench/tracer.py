"""Spans around the calls into each boxot layer, for the traced run.

The package binds its internal calls with ``from .x import y``, so a span
wrapper goes where the caller looks the name up: ``TARGETS`` lists each
(calling module, bound name) pair. Every span records its name, start, end,
parent and operation id; spans stay in memory until the run ends. A span's
layer is the module the wrapped function belongs to, the first part of its
name.

The tracer also times its own bookkeeping (everything a wrapper does outside
the wrapped call) and reports it as ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

from boxot.geometry import mc_sample_count

# (module whose global is rebound, name bound there, span name)
TARGETS = (
    ("boxot.cli", "load_instance", "instance_io.load_instance"),
    ("boxot.cli", "estimate_parameters", "estimator.estimate_parameters"),
    ("boxot.cli", "solve_dual", "dual_solver.solve_dual"),
    ("boxot.cli", "semidiscrete_1d_exact", "oracle.semidiscrete_1d_exact"),
    ("boxot.cli", "discretize_source", "oracle.discretize_source"),
    ("boxot.cli", "solve_discrete_ot_exact", "oracle.solve_discrete_ot_exact"),
    ("boxot.cli", "discretization_error_bound", "oracle.discretization_error_bound"),
    ("boxot.cli", "parse_dimacs", "sat_reduction.parse_dimacs"),
    ("boxot.cli", "decide_positive_likelihood", "sat_reduction.decide_positive_likelihood"),
    ("boxot.cli", "brute_force_sat", "sat_reduction.brute_force_sat"),
    ("boxot.estimator", "solve_dual", "dual_solver.solve_dual"),
    ("boxot.estimator", "box_moments", "geometry.box_moments"),
    ("boxot.dual_solver", "gradient", "dual_solver.gradient"),
    ("boxot.dual_solver", "energy", "dual_solver.energy"),
    ("boxot.dual_solver", "box_moments", "geometry.box_moments"),
    ("boxot.dual_solver", "cell_box_moments_exact", "geometry.cell_box_moments_exact"),
    ("boxot.dual_solver", "cell_box_volumes_mc", "geometry.cell_box_volumes_mc"),
    ("boxot.sat_reduction", "reduce_3sat", "sat_reduction.reduce_3sat"),
    ("boxot.sat_reduction", "likelihood_positive", "sat_reduction.likelihood_positive"),
)

ROOT_SPAN = "cli.main"

# descent-large rungs with the shapes of ROADMAP.md's table of exact-gradient
# times (729, 155 and 41 ms on the seed commit).
BASELINE_SHAPES = ("l2-k4-n200", "l3-k2-n30", "l1-k4-n50")


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans and layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.overhead_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.exact_by_dimension: dict[int, list[float]] = defaultdict(list)
        self.volume_residual_max = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._after = {
            "geometry.cell_box_moments_exact": self._after_exact,
            "geometry.cell_box_volumes_mc": self._after_mc,
            "dual_solver.energy": self._after_energy,
            "oracle.discretize_source": self._after_discretize,
            "oracle.solve_discrete_ot_exact": self._after_transport,
        }

    def wrap(self, name: str, fn):
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = len(self.spans)
            span = Span(self.op, name, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if after is not None:
                    after(args, kwargs, result, exc, span)
                self.overhead_s += (span.start - entered) + (time.perf_counter() - span.end)

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- counters kept at the layer boundaries ------------------------------

    def _after_exact(self, args, kwargs, result, exc, span):
        if exc is not None:
            return
        box = args[2] if len(args) > 2 else kwargs["box"]
        self.exact_by_dimension[box.dimension].append(span.seconds)
        residual = abs(float(result[0].sum()) - box.volume) / box.volume
        self.volume_residual_max = max(self.volume_residual_max, residual)

    def _after_mc(self, args, kwargs, result, exc, span):
        if exc is not None:
            if isinstance(exc, ValueError) and "exceeds cap" in str(exc):
                self.counts["mc_refusals"] += 1
            return
        samples, _, _, eps_bar, eta_prime = args[:5]
        self.counts["mc_points"] += mc_sample_count(samples.n, eps_bar, eta_prime)

    def _after_energy(self, args, kwargs, result, exc, span):
        if isinstance(exc, ValueError) and "exceeds cap" in str(exc):
            self.counts["mc_refusals"] += 1

    def _after_discretize(self, args, kwargs, result, exc, span):
        if exc is None:
            self.counts["sources"] += result.points.shape[0]

    def _after_transport(self, args, kwargs, result, exc, span):
        if exc is None:
            self.counts["transported_sources"] += result.sources.points.shape[0]

    # -- summaries ----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def self_sum_residual_max(self) -> float:
        """Largest |sum of self times in an op - the op's root span| over ops."""
        own = self.self_seconds()
        per_op: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        for span, seconds in zip(self.spans, own):
            per_op[span.op] += seconds
            if span.parent is None:
                roots[span.op] = span.seconds
        return max((abs(per_op[op] - roots[op]) for op in roots), default=0.0)

    def geometry_pass_ms(self, op: int) -> float:
        """Mean exact-geometry time of one gradient or energy call of an op."""
        seconds, passes = 0.0, 0
        for span in self.spans:
            if span.op == op:
                if span.name == "geometry.cell_box_moments_exact":
                    seconds += span.seconds
                elif span.name in ("dual_solver.gradient", "dual_solver.energy"):
                    passes += 1
        return 1e3 * seconds / passes if passes else 0.0

    def layer_metrics(self, op_names, outcomes) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        ``outcomes`` are the checked results of the traced operations, in
        batch order; they give the iteration count and the accuracy maxima.
        """
        own = self.self_seconds()
        iterations = sum(o.iterations for o in outcomes)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            calls[span.name] += 1
            total[span.name] += span.seconds
            self_by_name[span.name] += seconds
            self_by_layer[span.layer] += seconds
        roots = sum(span.seconds for span in self.spans if span.parent is None)

        def per_second(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        metrics = {
            "cli.self_s": (self_by_layer["cli"], "s"),
            "instance_io.load_calls": (calls["instance_io.load_instance"], "count"),
            "instance_io.load_s": (total["instance_io.load_instance"], "s"),
            "estimator.self_s": (self_by_layer["estimator"], "s"),
            "dual_solver.gradient_calls": (calls["dual_solver.gradient"], "count"),
            "dual_solver.gradient_self_s": (self_by_name["dual_solver.gradient"], "s"),
            "dual_solver.energy_calls": (calls["dual_solver.energy"], "count"),
            "dual_solver.energy_self_s": (self_by_name["dual_solver.energy"], "s"),
            "dual_solver.solve_self_s": (self_by_name["dual_solver.solve_dual"], "s"),
            "dual_solver.us_per_iter": (
                1e6 * total["dual_solver.solve_dual"] / iterations if iterations else 0.0,
                "us",
            ),
            "geometry.exact_calls": (calls["geometry.cell_box_moments_exact"], "count"),
            "geometry.exact_s": (total["geometry.cell_box_moments_exact"], "s"),
        }
        for l in (1, 2, 3):
            times = self.exact_by_dimension.get(l, [])
            metrics[f"geometry.exact_ms_per_call.l{l}"] = (
                1e3 * sum(times) / len(times) if times else 0.0, "ms"
            )
        for shape in BASELINE_SHAPES:
            metrics[f"geometry.baseline_ms.{shape}"] = (
                self.geometry_pass_ms(op_names.index(shape)) if shape in op_names
                else 0.0, "ms"
            )
        mc_s = total["geometry.cell_box_volumes_mc"]
        transport_s = total["oracle.solve_discrete_ot_exact"]
        metrics.update({
            "geometry.volume_sum_residual_max": (self.volume_residual_max, "ratio"),
            "geometry.mc_calls": (calls["geometry.cell_box_volumes_mc"], "count"),
            "geometry.mc_points": (self.counts["mc_points"], "count"),
            "geometry.mc_s": (mc_s, "s"),
            "geometry.mc_points_per_s": (per_second(self.counts["mc_points"], mc_s), "1/s"),
            "geometry.mc_refusals": (self.counts["mc_refusals"], "count"),
            "oracle.discretize_s": (total["oracle.discretize_source"], "s"),
            "oracle.sources": (self.counts["sources"], "count"),
            "oracle.transport_calls": (calls["oracle.solve_discrete_ot_exact"], "count"),
            "oracle.transport_s": (transport_s, "s"),
            "oracle.sources_per_s": (
                per_second(self.counts["transported_sources"], transport_s), "1/s"
            ),
            "oracle.semidiscrete_1d_s": (total["oracle.semidiscrete_1d_exact"], "s"),
            "sat_reduction.decide_s": (
                total["sat_reduction.decide_positive_likelihood"], "s"
            ),
            "sat_reduction.thetas": (calls["sat_reduction.likelihood_positive"], "count"),
            "sat_reduction.brute_s": (total["sat_reduction.brute_force_sat"], "s"),
            "trace.overhead_frac": (
                self.overhead_s / (roots - self.overhead_s) if roots > self.overhead_s
                else 0.0,
                "frac",
            ),
            "estimator.sigma_err_max": (
                max((o.sigma_err for o in outcomes if o.sigma_err is not None),
                    default=0.0), "1"),
            "oracle.gap_ratio_max": (
                max((o.gap_ratio for o in outcomes if o.gap_ratio is not None),
                    default=0.0), "ratio"),
        })
        return metrics
