"""Run one operation through ``boxot.cli.main`` and judge its output.

The CLI prints a JSON result (``estimate``) or a PASS/FAIL report
(``verify``), but not the solve trace. :class:`Capture` keeps the return
value of the one pipeline call each operation makes, by rebinding that name
in ``boxot.cli``; it adds one Python call per operation and no timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from boxot import cli
from boxot.estimator import closed_form_from_plan
from boxot.geometry import box_moments
from boxot.oracle import semidiscrete_1d_exact

_GAP_LINE = re.compile(r"^\|E - p\*\| = (\S+) \(tolerance (\S+)\)$", re.M)


class Capture:
    """Keeps the SolverTrace and estimate of the operation in flight."""

    def __init__(self):
        self.trace = None
        self.result = None
        self._restore = []

    def install(self) -> None:
        self._rebind("estimate_parameters", self._keep_result)
        self._rebind("solve_dual", self._keep_trace)

    def uninstall(self) -> None:
        for name, original in reversed(self._restore):
            setattr(cli, name, original)
        self._restore.clear()

    def reset(self) -> None:
        self.trace = None
        self.result = None

    def _rebind(self, name, make):
        original = getattr(cli, name)
        self._restore.append((name, original))
        setattr(cli, name, make(original))

    def _keep_result(self, estimate_parameters):
        def kept(*args, **kwargs):
            self.result = estimate_parameters(*args, **kwargs)
            self.trace = self.result.trace
            return self.result
        return kept

    def _keep_trace(self, solve_dual):
        def kept(*args, **kwargs):
            out = solve_dual(*args, **kwargs)
            self.trace = out[2]
            return out
        return kept


@dataclass
class Outcome:
    """What one operation did.

    status is "ok" (answered and the answer passed its check), "refused"
    (a budget refusal on an operation allowed one) or "failed". ``scale``
    turns ``seconds`` into reference-speed seconds (see speed.py); a timed
    run sets it.
    """

    status: str
    seconds: float
    detail: str = ""
    iterations: int = 0
    stop_reason: str = ""
    grad_ratio: float | None = None
    sigma_err: float | None = None
    gap_ratio: float | None = None
    scale: float = 1.0

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(op, main, capture: Capture) -> Outcome:
    """Time one ``main(argv)`` call with its output captured, then check it."""
    out, err = io.StringIO(), io.StringIO()
    capture.reset()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except Exception as exc:  # an escaping exception is a failed operation
        raised = exc
    seconds = time.perf_counter() - start
    if raised is not None:
        return Outcome("failed", seconds, f"raised {raised!r}")
    outcome = Outcome("ok", seconds)
    trace = capture.trace
    if trace is not None:
        outcome.iterations = trace.M_bar
        outcome.stop_reason = trace.stop_reason
        if trace.grad_norm:
            outcome.grad_ratio = trace.grad_norm[-1] / trace.grad_threshold
    refused = code == cli.EXIT_NUMERICAL_ABORT and "exceeds cap" in err.getvalue()
    if op.may_refuse and refused:
        outcome.status = "refused"
        outcome.detail = err.getvalue().strip()
        return outcome
    if code != cli.EXIT_OK:
        return _fail(outcome, f"exit code {code}: {err.getvalue().strip()[:300]}")
    if op.command == "verify":
        return _check_verify(outcome, out.getvalue())
    return _check_estimate(op, outcome, out.getvalue(), capture)


def _fail(outcome: Outcome, detail: str) -> Outcome:
    outcome.status = "failed"
    outcome.detail = detail
    return outcome


def _check_verify(outcome: Outcome, stdout: str) -> Outcome:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "PASS":
        return _fail(outcome, f"verify did not PASS: {stdout.strip()[-300:]}")
    match = _GAP_LINE.search(stdout)
    if match:
        outcome.gap_ratio = float(match.group(1)) / float(match.group(2))
    return outcome


def _check_estimate(op, outcome: Outcome, stdout: str, capture: Capture) -> Outcome:
    """Well-formed output always; stated accuracy where the solve claims it.

    A solve that stopped at the gradient threshold claims |E - E*| <= eps',
    checked on 1-D instances against the exact 1-D oracle. A solve that
    reports guarantee_holds claims |sigma_hat - sigma*| <= epsilon and
    ||mu_hat - mu*|| <= epsilon D, checked where the optimal plan's
    cross-term is known.
    """
    try:
        payload = json.loads(stdout)
        sigma = float(payload["sigma_hat"])
        mu = np.array(payload["mu_hat"], dtype=float)
        energy = float(payload["dual_energy"])
        iterations = int(payload["iterations"])
        guarantee = bool(payload["guarantee_holds"])
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(outcome, f"malformed estimate output: {exc!r}")
    instance, trace = op.instance, capture.trace
    if trace is None or iterations != trace.M_bar:
        return _fail(outcome, "reported iterations disagree with the solve trace")
    if not (math.isfinite(sigma) and np.isfinite(mu).all() and math.isfinite(energy)):
        return _fail(outcome, "non-finite estimate")
    if mu.shape != (instance.dimension,):
        return _fail(outcome, f"mu_hat has shape {mu.shape}")

    cross = op.cross
    if instance.dimension == 1:
        p_star, cross, _ = semidiscrete_1d_exact(instance)
        if trace.stop_reason == "threshold" and abs(energy - p_star) > trace.eps_prime:
            return _fail(outcome, f"|E - p*| = {abs(energy - p_star)!r} > eps' "
                                  f"{trace.eps_prime!r}")
    if guarantee and cross is not None:
        samples = instance.samples
        sigma_star, mu_star = closed_form_from_plan(
            box_moments(instance.density), samples.demands @ samples.points, cross
        )
        outcome.sigma_err = abs(sigma - sigma_star)
        mu_err = float(np.linalg.norm(mu - mu_star))
        if outcome.sigma_err > op.epsilon:
            return _fail(outcome, f"|sigma_hat - sigma*| = {outcome.sigma_err!r} "
                                  f"> {op.epsilon}")
        if mu_err > op.epsilon * instance.stats.D:
            return _fail(outcome, f"||mu_hat - mu*|| = {mu_err!r} > epsilon D")
    return outcome
