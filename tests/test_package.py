"""The top level is the estimation pipeline, and scipy loads only where it is used."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import boxot
from boxot import BoxDensity, Hyperrectangle, Instance, SampleSet, save_instance
from boxot.fixtures import symmetric_interval

from conftest import child_env

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
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
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


def _cube_with_sinks(path: Path, points) -> str:
    # The uniform density on [-1, 1]^l, for sinks in dimension l.
    l = len(points[0])
    box = Hyperrectangle([-1.0] * l, [1.0] * l)
    density = BoxDensity(dimension=l, boxes=((box, 0.5**l),))
    save_instance(path, Instance(density, SampleSet.uniform(np.array(points))))
    return str(path)


def test_cli_import_leaves_scipy_unloaded():
    assert _scipy_after() == ([], [])


def test_commands_without_qhull_or_lp_leave_scipy_unloaded(tmp_path):
    interval = tmp_path / "interval.json"
    save_instance(interval, symmetric_interval())
    square = _cube_with_sinks(
        tmp_path / "square.json", [[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]
    )
    # Four sinks in 3-D, n = l + 1: the cells are clipped by all pairs as
    # rows, with no Qhull call.
    cube = _cube_with_sinks(
        tmp_path / "cube.json",
        [[-0.5, -0.5, -0.5], [0.5, -0.5, 0.5], [-0.5, 0.5, 0.5], [0.5, 0.5, -0.5]],
    )
    cnf = tmp_path / "formula.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    codes, scipy = _scipy_after(
        ["estimate", str(interval), "--seed", "1"],
        ["estimate", square, "--seed", "1", "--backend", "exact"],
        ["estimate", cube, "--seed", "1", "--backend", "exact"],
        ["verify", str(cnf), "--mode", "sat"],
        ["reduce-3sat", str(cnf), "--out", str(tmp_path / "reduced.json")],
    )
    assert codes == [0, 0, 0, 0, 0]
    assert scipy == []


def test_qhull_diagram_loads_only_scipy_spatial(tmp_path):
    # Four sinks in 2-D exceed l + 1 = 3, so the diagram comes from Qhull.
    square = _cube_with_sinks(
        tmp_path / "square.json",
        [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.6, 0.4]],
    )
    codes, scipy = _scipy_after(
        ["estimate", square, "--seed", "1", "--backend", "exact"]
    )
    assert codes == [0]
    assert "scipy.spatial" in scipy
    assert "scipy.optimize" not in scipy


def test_two_sink_oracle_leaves_scipy_unloaded(tmp_path):
    # Two sinks: the transport plan is a certified sort, with no HiGHS LP.
    square = _cube_with_sinks(tmp_path / "square.json", [[-0.5, 0.0], [0.5, 0.0]])
    codes, scipy = _scipy_after(["verify", square, "--mode", "oracle"])
    assert codes == [0]
    assert scipy == []


def test_three_sink_oracle_loads_scipy_optimize(tmp_path):
    square = _cube_with_sinks(
        tmp_path / "square.json", [[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]
    )
    codes, scipy = _scipy_after(
        ["verify", square, "--mode", "oracle", "--resolution", "20"]
    )
    assert codes == [0]
    assert "scipy.optimize" in scipy


def test_sat_verify_leaves_numpy_ma_unloaded(tmp_path):
    # The 3-SAT decider counts its samples without np.unique, whose first
    # call imports numpy.ma.
    cnf = tmp_path / "formula.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    proc = _run_python(
        "import sys\n"
        "from boxot.cli import main\n"
        f"code = main(['verify', {str(cnf)!r}, '--mode', 'sat'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _names_used(paths) -> set[str]:
    # Every name a file reads as a variable or an attribute; an import alias
    # is neither.
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_is_used_by_the_package_demos_or_acceptance():
    # The surface holds only what the pipeline, the CLI, the demos and the
    # acceptance criteria use: a module-level function or class that only
    # other tests name is dead code.
    package = sorted((ROOT / "src" / "boxot").glob("*.py"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    used = _names_used([*package, *demos, ROOT / "tests" / "test_acceptance.py"])
    unused = [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []


def _tracer_targets() -> tuple:
    # TARGETS of bench/tracer.py, read from its source: nothing under bench/
    # is imported, run or written.
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    # The traced bench run rebinds each (module, name) pair in place, so
    # every pair must name a global that the module really looks up.
    targets = _tracer_targets()
    assert targets
    for module_name, attr, span in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
        assert span.rsplit(".", 1)[1] == attr, span


def test_every_module_level_import_is_read():
    # An import that its module never reads is dead, unless bench/tracer.py
    # rebinds that name there; the package's re-exports are read through
    # its __all__.
    rebound = {(module.split(".")[-1], name) for module, name, _ in _tracer_targets()}
    unread = []
    for path in sorted((ROOT / "src" / "boxot").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            read.update(boxot.__all__)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and (path.stem, name) not in rebound:
                    unread.append(f"{path.stem}.{name}")
    assert unread == []


# TARGETS pairs whose module never calls the name it binds, so the tracer's
# wrapper there records nothing. A refactor that moves a call away from a
# wrapped binding blinds that span; this list makes it a test edit.
UNCALLED_TARGETS = (
    "dual_solver.cell_box_moments_exact",
    "dual_solver.energy",
    "dual_solver.gradient",
    "sat_reduction.likelihood_positive",
    "sat_reduction.reduce_3sat",
)


def test_tracer_targets_that_no_call_reaches():
    uncalled = []
    for module_name, attr, _ in _tracer_targets():
        short = module_name.split(".")[-1]
        tree = ast.parse((ROOT / "src" / "boxot" / f"{short}.py").read_text())
        if not any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == attr
            for node in ast.walk(tree)
        ):
            uncalled.append(f"{short}.{attr}")
    assert tuple(sorted(uncalled)) == UNCALLED_TARGETS


def test_mc_gradient_calls_the_volume_count_as_the_tracer_reads_it(monkeypatch):
    # The tracer wraps dual_solver.cell_box_volumes_mc and reads its first
    # five positional arguments: (samples, g, box, eps_bar, eta_prime). The
    # solver's Monte Carlo gradient makes one call for all its boxes, drawn
    # in lockstep.
    from boxot import dual_solver

    calls = []
    count = dual_solver.cell_box_volumes_mc

    def recording(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(dual_solver, "cell_box_volumes_mc", recording)
    instance = symmetric_interval()
    g = np.array([0.1, -0.1])
    dual_solver._mc_gradient(instance, g, 0.05, 0.1, 3, 0.4)
    (args,) = calls
    samples, weights, boxes, eps_bar, eta_prime = args[:5]
    assert samples is instance.samples
    assert weights.tolist() == g.tolist()
    assert list(boxes) == [instance.density.boxes[0][0]]
    assert eps_bar == 0.05 / np.sqrt(2) and eta_prime == 0.1
