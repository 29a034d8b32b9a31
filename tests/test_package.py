"""The top level is the estimation pipeline, and scipy loads only where it is used."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import boxot
from boxot import BoxDensity, Hyperrectangle, Instance, SampleSet, save_instance
from boxot.fixtures import symmetric_interval

ROOT = Path(__file__).resolve().parent.parent

PIPELINE = [
    "BoxDensity",
    "BudgetRefused",
    "EstimationResult",
    "Hyperrectangle",
    "Instance",
    "SampleSet",
    "SolverAbort",
    "SolverConfig",
    "SolverTrace",
    "__version__",
    "estimate_parameters",
    "load_instance",
    "save_instance",
    "solve_dual",
]


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter against the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_all_is_the_pipeline():
    assert sorted(boxot.__all__) == PIPELINE
    for name in boxot.__all__:
        assert getattr(boxot, name) is not None


def test_import_leaves_the_companions_unloaded():
    proc = _run_python(
        "import sys, boxot\n"
        "for name in ('boxot.oracle', 'boxot.sat_reduction', 'boxot.cli',"
        " 'scipy.optimize', 'scipy.spatial', 'scipy.sparse'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.endswith("True")]
    assert loaded == []


def _scipy_after(*commands: list[str]) -> tuple[list[int], list[str]]:
    """Exit codes of commands run by cli.main in one fresh interpreter, and
    the scipy modules it then holds."""
    proc = _run_python(
        "import json, sys\n"
        "from boxot.cli import main\n"
        f"codes = [main(argv) for argv in {json.dumps(commands)}]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, scipy]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    codes, scipy = json.loads(proc.stdout.splitlines()[-1])
    return codes, scipy


def _square_with_sinks(path: Path, points) -> str:
    box = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
    density = BoxDensity(dimension=2, boxes=((box, 0.25),))
    save_instance(path, Instance(density, SampleSet.uniform(np.array(points))))
    return str(path)


def test_cli_import_leaves_scipy_unloaded():
    assert _scipy_after() == ([], [])


def test_commands_without_qhull_or_lp_leave_scipy_unloaded(tmp_path):
    interval = tmp_path / "interval.json"
    save_instance(interval, symmetric_interval())
    square = _square_with_sinks(
        tmp_path / "square.json", [[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]
    )
    cnf = tmp_path / "formula.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    codes, scipy = _scipy_after(
        ["estimate", str(interval), "--seed", "1"],
        ["estimate", square, "--seed", "1", "--backend", "exact"],
        ["verify", str(cnf), "--mode", "sat"],
        ["reduce-3sat", str(cnf), "--out", str(tmp_path / "reduced.json")],
    )
    assert codes == [0, 0, 0, 0]
    assert scipy == []


def test_qhull_diagram_loads_only_scipy_spatial(tmp_path):
    # Four sinks in 2-D exceed l + 1 = 3, so the diagram comes from Qhull.
    square = _square_with_sinks(
        tmp_path / "square.json",
        [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.6, 0.4]],
    )
    codes, scipy = _scipy_after(
        ["estimate", square, "--seed", "1", "--backend", "exact"]
    )
    assert codes == [0]
    assert "scipy.spatial" in scipy
    assert "scipy.optimize" not in scipy


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
