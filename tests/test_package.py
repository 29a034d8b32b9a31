"""The package's top level is the estimation pipeline and nothing more."""

import os
import re
import subprocess
import sys
from pathlib import Path

import boxot

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
        " 'scipy.optimize'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.endswith("True")]
    assert loaded == []


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
