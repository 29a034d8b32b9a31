"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
Each workload runs twice timed and twice traced, one pass each; the whole
file takes about four minutes on two cores.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts the traced run must repeat exactly from one run to the next.
EXACT_COUNTS = (
    "geometry.exact_calls",
    "geometry.mc_calls",
    "geometry.mc_points",
    "oracle.sources",
    "sat_reduction.thetas",
    "dual_solver.gradient_calls",
    "dual_solver.energy_calls",
)

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, repeat: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    res = result(workload, 0, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name, metric in res["metrics"].items():
        assert metric["value"] > 0, f"{workload}: {name} is 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    res = result(workload, 1, 0)
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["trace.overhead_frac"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = result(workload, 1, 0), result(workload, 1, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    first, second = result(workload, 0, 0), result(workload, 0, 1)
    assert first["metrics"]["iterations"] == second["metrics"]["iterations"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_each_operation(workload):
    result(workload, 1, 0)
    spans = [json.loads(line) for line in
             (BENCH / "out" / f"{workload}-seed7-trace1-spans.jsonl").open()]
    own = [end - start for _, _, _, start, end in spans]
    for _, _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    per_op, root = defaultdict(float), {}
    for (op, _, parent, start, end), seconds in zip(spans, own):
        per_op[op] += seconds
        if parent is None:
            root[op] = end - start
    assert root and all(abs(per_op[op] - root[op]) < 1e-9 for op in root)


def test_layer_counts_match_workloads():
    mc = result("estimate-mc", 1, 0)["metrics"]
    assert mc["geometry.mc_refusals"]["value"] == 1
    assert mc["geometry.exact_calls"]["value"] == 0
    verify = result("verify", 1, 0)["metrics"]
    assert verify["sat_reduction.thetas"]["value"] == 2**10
    assert verify["oracle.sources"]["value"] == 5 * 100**2 + 200**2
    large = result("descent-large", 1, 0)["metrics"]
    assert large["geometry.volume_sum_residual_max"]["value"] < 1e-9
    assert large["geometry.baseline_ms.l2-k4-n200"]["value"] > 0


def test_symmetry_keeps_the_instance_constants():
    from boxot.fixtures import named_instances
    from workloads import cube_4d, symmetry

    rng = np.random.default_rng(3)
    for base in [*named_instances().values(), cube_4d()]:
        moved = symmetry(base, rng)
        assert moved.stats.D == pytest.approx(base.stats.D)
        assert moved.stats.s == pytest.approx(base.stats.s)
        assert moved.stats.L == pytest.approx(base.stats.L)


def test_scales_follow_the_reference_around_each_run():
    import speed

    steady = speed.scales([speed.REFERENCE_S] * 9)
    assert steady == pytest.approx([1.0] * 9)
    # A slow spell halves the scale of the runs inside it, not of the others.
    reference = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    scaled = speed.scales(reference)
    assert scaled[:5] == pytest.approx([1.0] * 5)
    assert scaled[-5:] == pytest.approx([0.5] * 5)


def test_same_seed_same_inputs(tmp_path):
    import workloads
    from workloads import build

    assert tuple(WORKLOADS) == workloads.WORKLOADS
    for workload in WORKLOADS:
        a = build(workload, 11, tmp_path / "a" / workload)
        b = build(workload, 11, tmp_path / "b" / workload)
        assert [op.argv[2:] for op in a] == [op.argv[2:] for op in b]
        for x, y in zip(a, b):
            assert Path(x.argv[1]).read_bytes() == Path(y.argv[1]).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("descent-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
