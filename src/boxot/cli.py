"""Command-line front end: estimation, 3-SAT reduction, and verification.

Exit codes: 0 success, 1 verification check failed, 2 bad input
(including an unreadable or unwritable file), 3 a run that could not
finish: a solver abort, an oracle failure, a Monte-Carlo budget refusal or
a numerical failure. :func:`main` alone maps an exception to its exit code
and stderr label, through ``_FAILURES``. The BOXOT_SEED environment
variable supplies the default seed when --seed is absent; all commands are
deterministic for a fixed seed and a fixed BLAS thread count.

The argument parser is built on the first :func:`main` call and reused by
every later call in the process; each call still parses into a fresh
namespace. The parser binds each subcommand's ``cmd_*`` function when it is
built, so replacing ``cli.cmd_*`` afterwards (say, with ``monkeypatch``) is
not seen by it; names the commands look up when they run, such as
``load_instance`` or ``solve_dual``, can be replaced at any time.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .dual_solver import (
    SolverAbort,
    SolverConfig,
    _mc_energy,
    energy,
    epsilon_prime,
    gradient,
    solve_dual,
)
from .estimator import estimate_parameters
from .fixtures import random_instance, sample_separation_family, thin_box_family
from .geometry import (
    EXACT_MAX_DIMENSION,
    BudgetRefused,
    VolumeSumError,
    box_moments,
    cell_box_moments_exact,
    cell_box_volumes_mc,
)
from .instance_io import dumps_instance, load_instance
from .oracle import (
    OracleFailure,
    discretization_error_bound,
    discretize_source,
    semidiscrete_1d_exact,
    solve_discrete_ot_exact,
)
from .sat_reduction import (
    brute_force_sat,
    decide_positive_likelihood,
    parse_dimacs,
    reduce_3sat,
)

SEED_ENV_VAR = "BOXOT_SEED"
# Each family of verify --mode invariants by its token; "families" runs all.
_FAMILIES = {
    "separation-family": sample_separation_family,
    "thin-box-family": thin_box_family,
}
FAMILY_TOKENS = (*_FAMILIES, "families", "random")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL_ABORT = 3

# (exception type, exit code, stderr label); the first matching row wins.
# BudgetRefused and LinAlgError subclass ValueError, so they come before it.
_FAILURES = (
    (SolverAbort, EXIT_NUMERICAL_ABORT, "solver abort"),
    (OracleFailure, EXIT_NUMERICAL_ABORT, "oracle"),
    (BudgetRefused, EXIT_NUMERICAL_ABORT, "refused"),
    (ArithmeticError, EXIT_NUMERICAL_ABORT, "numerical failure"),
    (np.linalg.LinAlgError, EXIT_NUMERICAL_ABORT, "numerical failure"),
    (OSError, EXIT_BAD_INPUT, "error"),
    (ValueError, EXIT_BAD_INPUT, "error"),
)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, creating nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_estimate(args: argparse.Namespace) -> int:
    # A path that cannot be written fails before the solve, not after it.
    for path in (args.out, args.trace):
        if path:
            _check_writable(path)
    instance, _ = load_instance(args.instance)
    config = SolverConfig(
        epsilon=args.epsilon,
        eta=args.eta,
        seed=_resolve_seed(args.seed),
        max_iters_override=args.max_iters,
        volume_backend=args.backend,
    )
    result = estimate_parameters(instance, config)
    _emit(json.dumps(result.to_json_dict(), indent=2) + "\n", args.out)
    if args.trace:
        result.trace.to_csv(args.trace)
    return EXIT_OK


def cmd_reduce_3sat(args: argparse.Namespace) -> int:
    cnf = parse_dimacs(Path(args.dimacs).read_text())
    reduction = reduce_3sat(cnf)
    print(f"gamma = {reduction.gamma!r}")
    print(f"boxes = {reduction.density.k}")
    doc = dumps_instance(reduction.instance, {"name": Path(args.dimacs).stem})
    _emit(doc, args.out)
    return EXIT_OK


def _verify_oracle(args: argparse.Namespace, seed: int) -> int:
    instance, _ = load_instance(args.path)
    config = SolverConfig(
        epsilon=args.epsilon, eta=args.eta, seed=seed, volume_backend="auto"
    )
    _, e_final, trace = solve_dual(instance, config)

    if instance.density.dimension == 1:
        p_star, _, _ = semidiscrete_1d_exact(instance)
        disc = 0.0
        route = "monotone-1d"
    else:
        sources = discretize_source(instance.density, args.resolution)
        plan = solve_discrete_ot_exact(sources, instance.samples)
        p_star = plan.cost
        route = plan.route
        disc = (
            discretization_error_bound(
                instance.density, instance.samples, args.resolution
            )
            + plan.rounding_cost_bound
        )
    gap = abs(e_final - p_star)
    tol = trace.eps_prime + trace.energy_accuracy + disc
    print(f"E = {e_final!r}")
    print(f"p* = {p_star!r}")
    print(f"|E - p*| = {gap!r} (tolerance {tol!r})")
    print(f"route = {route}")
    ok = gap <= tol
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_sat(args: argparse.Namespace) -> int:
    cnf = parse_dimacs(Path(args.path).read_text())
    decided = decide_positive_likelihood(cnf)
    brute = brute_force_sat(cnf)
    print(f"decide_positive_likelihood = {decided}")
    print(f"brute_force_sat = {brute}")
    ok = decided == brute
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _family_ratio_rows(name: str) -> tuple[list[str], bool]:
    family = _FAMILIES[name]
    rows = []
    ratios = {}
    for m in (1, 2, 4, 8, 16):
        instance, (g_a, g_b) = family(m)
        diff = gradient(instance, g_a) - gradient(instance, g_b)
        ratio = float(np.linalg.norm(diff) / np.linalg.norm(g_a - g_b))
        ratios[m] = ratio
        rows.append(f"{name},{m},{ratio!r}")
    slope = ratios[1]
    ok = all(slope * m / 2.0 <= ratios[m] <= 2.0 * slope * m for m in ratios)
    return rows, ok


def _instance_failures(instance, seed: int) -> list[str]:
    """Per-instance invariants; returns one message per failed check.

    In every dimension: the eps' floor, which :func:`epsilon_prime` checks
    itself, and the dual energy at g = 0, E(0) = integral of
    min_j ||x - y_j||^2 dalpha, bracketed below by
    sum_i gamma_i vol(H_i) min_j dist(y_j, H_i)^2 and above by the
    demand-weighted mean of ||x - y_j||^2 integrated against alpha. With the
    exact kernel (l <= EXACT_MAX_DIMENSION) E(0) is exact, with slack 1e-9
    times the upper bound, and box 0's MC volumes match its exact ones
    within 0.05 vol(box); every exact pass raises VolumeSumError unless each
    box's cell volumes sum to its volume. Above it, E(0) is a Monte-Carlo
    estimate at accuracy 1 % of the integrand's range 4 D^2 (failure
    probability 0.1), which is also the slack.
    """
    density, samples = instance.density, instance.samples
    g = np.zeros(samples.n)
    failures = []
    epsilon_prime(instance, 0.05)

    y, b = samples.points, samples.demands
    n_mass, first, second = box_moments(density)
    upper = (
        second
        - 2.0 * float(first @ (b @ y))
        + n_mass * float(b @ samples.squared_norms)
    )
    lower = sum(
        w * box.volume * float(((np.clip(y, box.lo, box.hi) - y) ** 2).sum(1).min())
        for box, w in density.boxes
    )
    if density.dimension > EXACT_MAX_DIMENSION:
        slack = 0.01 * 4.0 * instance.stats.D**2
        e0, _ = _mc_energy(instance, g, slack, 0.1, seed)
    else:
        e0, slack = energy(instance, g), 1e-9 * upper
        box, _ = density.boxes[0]
        exact = cell_box_moments_exact(samples, g, box)[0]
        mc = cell_box_volumes_mc(
            samples, g, box, eps_bar=0.05, eta_prime=0.1, seed=seed
        )
        if np.max(np.abs(mc - exact)) > 0.05 * box.volume:
            failures.append("MC volumes deviate beyond the additive tolerance")
    if not lower - slack <= e0 <= upper + slack:
        failures.append(
            f"E(0) = {e0!r} outside [{lower!r}, {upper!r}] (slack {slack!r})"
        )
    return failures


def _verify_invariants(args: argparse.Namespace, seed: int) -> int:
    target = args.path
    ok = True

    if target in _FAMILIES or target == "families":
        names = tuple(_FAMILIES) if target == "families" else (target,)
        csv_rows = ["family,m,ratio"]
        for name in names:
            rows, family_ok = _family_ratio_rows(name)
            csv_rows.extend(rows)
            ok = ok and family_ok
        _emit("\n".join(csv_rows) + "\n", args.out)
    else:
        if target == "random":
            rng = np.random.default_rng(seed)
            named = [(f" random instance {r}", random_instance(rng)) for r in range(5)]
        else:
            named = [("", load_instance(target)[0])]
        for where, instance in named:
            try:
                failures = _instance_failures(instance, seed)
            except VolumeSumError as exc:
                failures = [str(exc)]
            for message in failures:
                print(f"FAIL{where}: {message}")
                ok = False

    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.mode == "oracle":
        return _verify_oracle(args, seed)
    if args.mode == "sat":
        return _verify_sat(args)
    return _verify_invariants(args, seed)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``boxot`` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="boxot",
        description="Shift/scale estimation for box densities via "
        "semidiscrete optimal transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="estimate shift and scale from an instance file"
    )
    est.add_argument("instance", help="instance JSON path")
    est.add_argument("--epsilon", type=float, default=0.05)
    est.add_argument("--eta", type=float, default=0.01)
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    est.add_argument("--backend", choices=("auto", "exact", "mc"), default="auto")
    est.add_argument("--out", default=None, help="write result JSON here")
    est.add_argument("--trace", default=None, help="write iteration CSV here")
    est.set_defaults(func=cmd_estimate)

    red = sub.add_parser(
        "reduce-3sat", help="turn a DIMACS 3-CNF into an instance file"
    )
    red.add_argument("dimacs", help="DIMACS CNF path")
    red.add_argument("--out", default=None, help="write instance JSON here")
    red.set_defaults(func=cmd_reduce_3sat)

    ver = sub.add_parser("verify", help="run ground-truth and invariant checks")
    ver.add_argument(
        "path",
        help="instance JSON (oracle/invariants), DIMACS (sat), or one of "
        f"{FAMILY_TOKENS} (invariants)",
    )
    ver.add_argument("--mode", choices=("oracle", "sat", "invariants"), required=True)
    ver.add_argument("--resolution", type=int, default=200)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--epsilon", type=float, default=0.1)
    ver.add_argument("--eta", type=float, default=0.05)
    ver.add_argument(
        "--out",
        default=None,
        help="write the ratio table CSV here (family tokens only; "
        "ignored for an instance path or random)",
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns an exception into an exit code.

    The parser is built on the first call and reused after that: building it
    costs more than a small exact solve.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        for kind, code, label in _FAILURES:
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
