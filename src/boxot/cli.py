"""Command-line front end: estimation, 3-SAT reduction, and verification.

Exit codes: 0 success, 1 verification check failed, 2 bad input,
3 numerical abort. The BOXOT_SEED environment variable supplies the default
seed when --seed is absent; all commands are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dual_solver import SolverAbort, SolverConfig, epsilon_prime, gradient, solve_dual
from .estimator import estimate_parameters
from .fixtures import random_instance, sample_separation_family, thin_box_family
from .geometry import cell_box_moments_exact, cell_box_volumes_mc
from .instance_io import dumps_instance, load_instance
from .oracle import (
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
FAMILY_TOKENS = ("separation-family", "thin-box-family", "families", "random")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL_ABORT = 3


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


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        instance, _ = load_instance(args.instance)
        seed = _resolve_seed(args.seed)
        config = SolverConfig(
            epsilon=args.epsilon,
            eta=args.eta,
            seed=seed,
            max_iters_override=args.max_iters,
            volume_backend=args.backend,
            trace_energy=bool(args.trace),
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        result = estimate_parameters(instance, config)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    except (ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT

    payload = json.dumps(result.to_json_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    if args.trace:
        result.trace.to_csv(args.trace)
    return EXIT_OK


def cmd_reduce_3sat(args: argparse.Namespace) -> int:
    try:
        cnf = parse_dimacs(Path(args.dimacs).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    reduction = reduce_3sat(cnf)
    print(f"gamma = {reduction.gamma!r}")
    print(f"boxes = {reduction.density.k}")
    doc = dumps_instance(reduction.instance, {"name": Path(args.dimacs).stem})
    if args.out:
        Path(args.out).write_text(doc)
    else:
        sys.stdout.write(doc)
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
    else:
        sources = discretize_source(instance.density, args.resolution)
        try:
            plan = solve_discrete_ot_exact(sources, instance.samples)
        except RuntimeError as exc:
            print(f"oracle: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL_ABORT
        p_star = plan.cost
        disc = (
            discretization_error_bound(
                instance.density, instance.samples, args.resolution
            )
            + plan.rounding_cost_bound
        )
    energy_slop = trace.eps_prime / 4.0 if trace.backend == "mc" else 0.0
    gap = abs(e_final - p_star)
    tol = trace.eps_prime + energy_slop + disc
    print(f"E = {e_final!r}")
    print(f"p* = {p_star!r}")
    print(f"|E - p*| = {gap!r} (tolerance {tol!r})")
    ok = gap <= tol and not trace.aborted
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
    family = {
        "separation-family": sample_separation_family,
        "thin-box-family": thin_box_family,
    }[name]
    rows = []
    ratios = {}
    for m in (1, 2, 4, 8, 16):
        instance, (g_a, g_b) = family(m)
        diff = gradient(instance, g_a, backend="exact") - gradient(
            instance, g_b, backend="exact"
        )
        ratio = float(np.linalg.norm(diff) / np.linalg.norm(g_a - g_b))
        ratios[m] = ratio
        rows.append(f"{name},{m},{ratio!r}")
    slope = ratios[1]
    ok = all(slope * m / 2.0 <= ratios[m] <= 2.0 * slope * m for m in ratios)
    return rows, ok


def _verify_instance_invariants(args: argparse.Namespace, seed: int) -> bool:
    """Per-instance checks: exact partition, MC accuracy, budget floor."""
    instance, _ = load_instance(args.path)
    density, samples = instance.density, instance.samples
    n = samples.n
    ok = True

    if density.dimension <= 3:
        g = np.zeros(n)
        exact = [cell_box_moments_exact(samples, g, box)[0] for box, _ in density.boxes]
        for i, (box, _) in enumerate(density.boxes):
            total = float(exact[i].sum())
            if abs(total - box.volume) > 1e-9:
                print(f"FAIL box {i}: exact cell volumes sum {total!r}, "
                      f"expected {box.volume!r}")
                ok = False
        box, _ = density.boxes[0]
        mc = cell_box_volumes_mc(
            samples, g, box, eps_bar=0.05, eta_prime=0.1, seed=seed, box_index=0,
        )
        if np.max(np.abs(mc - exact[0])) > 0.05 * box.volume:
            print("FAIL: MC volumes deviate beyond the additive tolerance")
            ok = False

    eps = 0.05
    ep = epsilon_prime(instance, eps)
    floor = eps * instance.stats.s**2 / 12.0
    if ep < floor - 1e-12:
        print(f"FAIL: epsilon' {ep!r} below floor {floor!r}")
        ok = False

    grad = gradient(instance, np.zeros(n), backend="auto", seed=seed)
    if abs(float(grad.sum())) > 1e-9:
        print("FAIL: gradient does not sum to zero after centering")
        ok = False
    return ok


def _verify_invariants(args: argparse.Namespace, seed: int) -> int:
    target = args.path
    csv_rows = ["family,m,ratio"]
    ok = True

    if target in ("separation-family", "thin-box-family", "families"):
        names = (
            ("separation-family", "thin-box-family")
            if target == "families"
            else (target,)
        )
        for name in names:
            rows, family_ok = _family_ratio_rows(name)
            csv_rows.extend(rows)
            ok = ok and family_ok
        table = "\n".join(csv_rows) + "\n"
        if args.out:
            Path(args.out).write_text(table)
        else:
            sys.stdout.write(table)
    elif target == "random":
        rng = np.random.default_rng(seed)
        for _ in range(5):
            instance = random_instance(rng)
            eps = 0.05
            ep = epsilon_prime(instance, eps)
            if ep < eps * instance.stats.s**2 / 12.0 - 1e-12:
                print("FAIL: epsilon' floor violated")
                ok = False
            grad = gradient(instance, np.zeros(instance.samples.n), backend="exact")
            if abs(float(grad.sum())) > 1e-9:
                print("FAIL: gradient not centered")
                ok = False
    else:
        ok = _verify_instance_invariants(args, seed)

    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args.seed)
        if args.mode == "oracle":
            return _verify_oracle(args, seed)
        if args.mode == "sat":
            return _verify_sat(args)
        return _verify_invariants(args, seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT


def build_parser() -> argparse.ArgumentParser:
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
    ver.add_argument("--out", default=None, help="write the ratio table CSV here")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
