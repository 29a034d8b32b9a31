"""Benchmark of boxot: four workloads, timed runs and a traced run.

From the repository root:

    python3 bench/run.py --workload descent-small --seed 1 --seconds 25 --trace 0

A timed run (``--trace 0``) sets the workload up five times in child
processes and reports the median as ``setup_s``, then runs the workload's
batch in this process, one operation at a time through ``boxot.cli.main``:
every operation once, then the batch again while time is left in
``--seconds``. Every operation's output is checked. Times are scaled to the
speed of a fixed reference kernel timed around them (see speed.py). A traced run
(``--trace 1``) runs one pass with spans around the calls into each layer
and reports the per-layer metrics instead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record, with the
environment, goes to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
SELF_SUM_TOLERANCE_S = 1e-6
# Cell volumes of one box must sum to its volume within this share of it.
VOLUME_SUM_TOLERANCE = 1e-9


def import_boxot():
    """Import boxot from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import boxot
    except ImportError as exc:
        raise SystemExit(f"error: cannot import boxot from {SRC}: {exc}") from None
    if Path(boxot.__file__).resolve().parent != SRC / "boxot":
        raise SystemExit(f"error: imported boxot from {boxot.__file__}, not {SRC}")
    return boxot


def set_up(workload: str, seed: int, directory: Path):
    """Import boxot and write the workload's inputs; return (ops, seconds)."""
    start = time.perf_counter()
    import_boxot()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(workload, seed, directory)
    return ops, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> dict:
    """Set up once in this fresh process; the raw time and its scale."""
    directory = OUT / f"setup-{os.getpid()}"
    try:
        _, seconds = set_up(workload, seed, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    import speed  # after the timed set-up: it imports numpy and scipy

    reference = [speed.reference_seconds() for _ in range(2 * speed.WINDOW + 1)]
    return {"setup_s": seconds, "scale": speed.scales(reference)[speed.WINDOW]}


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up of SETUP_REPEATS fresh processes, each measured inside it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(workload: str, ops, seconds: float, capture):
    """Every op once, then the batch again in order until ``seconds`` pass.

    The reference kernel is timed after every operation, and each outcome's
    scale is set from the samples around it. An op is started only if its
    last time still fits in the budget; the run stops at the first one that
    does not. Returns each op's outcomes, the reference times and the peak
    resident memory after the first pass, in MB.
    """
    import speed
    from boxot import cli
    from checks import run_op

    runs = [[] for _ in ops]
    sequence, reference = [], []

    def run(index):
        runs[index].append(run_op(ops[index], cli.main, capture))
        reference.append(speed.reference_seconds(workload))
        sequence.append(runs[index][-1])

    start = time.perf_counter()
    for index in range(len(ops)):
        run(index)
    first_pass_rss = _peak_rss_mb()
    for index in itertools.cycle(range(len(ops))):
        if time.perf_counter() - start + runs[index][-1].seconds > seconds:
            break
        run(index)
    nominal = speed.nominal_seconds(workload)
    for outcome, scale in zip(sequence, speed.scales(reference, nominal)):
        outcome.scale = scale
    return runs, reference, first_pass_rss


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(ops, capture):
    """One pass with spans around every layer call; returns (outcomes, tracer)."""
    from boxot import cli
    from checks import run_op
    from tracer import ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        main = tracer.wrap(ROOT_SPAN, cli.main)
        outcomes = []
        for index, op in enumerate(ops):
            tracer.op = index
            outcomes.append(run_op(op, main, capture))
    finally:
        tracer.uninstall()
    return outcomes, tracer


def _quantile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile of ``values``.

    A mean of all order statistics weighted by a beta density around the
    percentile. A few operations of a batch often sit close together near
    its middle (verify's oracle instances, descent-large's rungs), and a
    single order statistic there jumps from one of them to another between
    runs; the weighted mean does not.
    """
    import numpy as np
    from scipy.special import betainc

    p, n = q / 100.0, len(values)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(values))


def end_to_end_metrics(runs, setup_samples, peak_rss_mb) -> dict[str, tuple[float, str]]:
    """Metrics of one timed run; ``runs[i]`` holds op i's outcomes in order.

    Each op's time is the median of its scaled repeats, which keeps a slow
    spell of the machine from moving it; counts come from each op's first run.
    """
    first = [r[0] for r in runs]
    op_seconds = [statistics.median(o.scaled_seconds for o in r) for r in runs]
    answered = [t for t, r in zip(op_seconds, runs) if r[0].status == "ok"]
    solves = [o for o in first if o.stop_reason]
    ratios = [max(1.0, o.grad_ratio) for o in first if o.grad_ratio is not None]
    return {
        "setup_s": (statistics.median(s["setup_s"] * s["scale"] for s in setup_samples), "s"),
        "ops_per_s": (len(runs) / sum(op_seconds), "1/s"),
        "op_s_p50": (_quantile(answered, 50) if answered else 0.0, "s"),
        "op_s_p90": (_quantile(answered, 90) if answered else 0.0, "s"),
        "iterations": (sum(o.iterations for o in first), "count"),
        "threshold_frac": (
            sum(o.stop_reason == "threshold" for o in solves) / len(solves)
            if solves else 0.0,
            "frac",
        ),
        "answered_frac": (sum(o.status == "ok" for o in first) / len(first), "frac"),
        "grad_ratio_max": (max(ratios, default=0.0), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def op_records(ops, runs) -> list[dict]:
    records = []
    for op, outcomes in zip(ops, runs):
        first = outcomes[0]
        records.append({
            "name": op.name,
            "argv": list(op.argv[:1]) + list(op.argv[2:]),
            "status": [o.status for o in outcomes],
            "seconds": [o.seconds for o in outcomes],
            "scales": [o.scale for o in outcomes],
            "iterations": first.iterations,
            "stop_reason": first.stop_reason,
            "grad_ratio": first.grad_ratio,
            "sigma_err": first.sigma_err,
            "gap_ratio": first.gap_ratio,
            "detail": next((o.detail for o in outcomes if o.detail), ""),
        })
    return records


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once and print the time taken")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0

    ops, _ = set_up(args.workload, args.seed, OUT / f"{args.workload}-seed{args.seed}")
    from checks import Capture

    capture = Capture()
    capture.install()
    record = {"environment": environment(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            outcomes, tracer = traced_run(ops, capture)
            runs = [[o] for o in outcomes]
            metrics = tracer.layer_metrics([op.name for op in ops], outcomes)
            record["self_sum_residual_max_s"] = tracer.self_sum_residual_max()
            tracer_ok = (
                record["self_sum_residual_max_s"] <= SELF_SUM_TOLERANCE_S
                and tracer.volume_residual_max <= VOLUME_SUM_TOLERANCE
            )
        else:
            setup_samples = measure_setup(args.workload, args.seed)
            record["setup_samples_s"] = setup_samples
            runs, reference, peak_rss_mb = timed_run(args.workload, ops, args.seconds, capture)
            record["reference_s"] = reference
            metrics = end_to_end_metrics(runs, setup_samples, peak_rss_mb)
            tracer_ok = True
    finally:
        capture.uninstall()

    outcomes = [o for r in runs for o in r]
    attempted = len(outcomes)
    failed = sum(o.status == "failed" for o in outcomes)
    result = {
        "correct": failed == 0 and tracer_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result=result, ops=op_records(ops, runs))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps([span.op, span.name, span.parent,
                                     span.start, span.end]) + "\n")

    for op in record["ops"]:
        if "failed" in op["status"]:
            print(f"FAILED {op['name']}: {op['detail']}")
    answered = sum(o.status == "ok" for o in outcomes)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations in the "
          f"batch, {attempted} runs, {answered} answered; op times are "
          f"medians over each operation's runs, scaled to reference speed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
