"""Inputs of the four benchmark workloads, built from a workload seed.

``build(workload, seed, directory)`` writes the workload's instance files
into ``directory`` and returns its batch: a list of :class:`Op`, each one
``boxot.cli.main`` argv plus what the output check needs. The same seed
always gives the same files and argv.

The seed does not draw fresh instances: the cost of an operation depends on
its geometry more than the benchmark's bounds allow to vary. Iteration counts
of the generator batch are heavy-tailed (52 000 to 104 000 iterations for 40
fresh instances over eight seeds), and a fresh jitter of the descent-large
ladder moves its run time by a quarter. The seed instead draws a symmetry of
each fixed base instance: a signed permutation of the axes and a shuffle of
the sinks and boxes, plus the solver seed. The numbers in the files differ
from seed to seed while the work per run stays the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from boxot.fixtures import named_instances, random_instance, thin_box_family
from boxot.geometry import BoxDensity, Hyperrectangle, Instance, SampleSet, box_moments
from boxot.instance_io import save_instance
from boxot.sat_reduction import CnfFormula, brute_force_sat

# Generator stream of the acceptance gate (tests/test_acceptance.py).
ACCEPTANCE_SEED = 20240501
DESCENT_SMALL_GENERATED = 25
THIN_BOX_PARAMETERS = (1, 2, 4, 8, 16)

# descent-large: (dimension l, boxes k, sinks n) rungs, run with a fixed
# iteration cap so each operation costs cap + 1 geometry passes. The rungs
# (2, 4, 200), (3, 2, 30) and (1, 4, 50) are the shapes of the per-call
# baseline table in ROADMAP.md. The n = 1 rungs reach the gradient threshold
# at t = 1 whatever the step policy; every other rung stops at the cap today.
DESCENT_LARGE_CAP = 2
LADDER_SEED = 1
DESCENT_LARGE_LADDER = (
    (1, 1, 1), (1, 1, 16), (1, 1, 256), (1, 4, 50),
    (2, 1, 1), (2, 1, 16), (2, 1, 128), (2, 4, 64), (2, 4, 200),
    (3, 1, 32), (3, 2, 30), (3, 4, 8), (3, 4, 32),
)

# estimate-mc: (instance, epsilon, backend). The cube at epsilon 0.1 asks
# for 2.65e9 MC samples per box and is refused against the 5e7 cap today.
MC_CASES = (
    ("symmetric-square", 0.8, "mc"),
    ("symmetric-square", 0.9, "mc"),
    ("symmetric-square", 0.95, "mc"),
    ("symmetric-interval", 0.95, "mc"),
    ("cube-4d", 0.95, "auto"),
    ("cube-4d", 0.1, "auto"),
)
MC_REFUSED_EPSILON = 0.1

# verify: generator instances (indices into the acceptance stream) checked at
# resolution 100; all are 2-D with one box and two sinks, 1-2 s of HiGHS each.
VERIFY_ORACLE_2D = (0, 3, 4, 5, 9)
VERIFY_RESOLUTION = 100
VERIFY_ORACLE_1D = 8
SAT_VARIABLES = 10
SAT_CLAUSES = 40

# Exact plan cross-terms int x.y dpi of instances with a hand-derived optimal
# plan; they are invariant under the symmetries drawn below.
NAMED_CROSS_TERMS = {"symmetric-square": 0.5, "cube-4d": 0.5}

CLI_EPSILON = 0.05  # boxot estimate's default --epsilon
VERIFY_EPSILON = 0.1  # boxot verify's default --epsilon


@dataclass(frozen=True, eq=False)
class Op:
    """One operation of a batch and what its output check needs.

    ``cross`` is the exact cross-term of the optimal plan when it is known in
    closed form; 1-D instances get theirs from the 1-D oracle at check time.
    ``may_refuse`` marks the one operation that a budget refusal answers
    correctly today.
    """

    name: str
    argv: tuple[str, ...]
    instance: Instance | None = None
    epsilon: float = CLI_EPSILON
    cross: float | None = None
    may_refuse: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def cube_4d() -> Instance:
    """Uniform density on [-1,1]^4 with sinks (+-1,0,0,0): sigma* = 0.375."""
    box = Hyperrectangle([-1.0] * 4, [1.0] * 4)
    density = BoxDensity(dimension=4, boxes=((box, 1.0 / 16.0),))
    return Instance(density, SampleSet.uniform([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]))


def symmetry(instance: Instance, rng: np.random.Generator) -> Instance:
    """Random signed axis permutation of an instance, sinks and boxes shuffled.

    The map is an isometry fixing the origin, so D, s, L, the optimal cost
    and the plan cross-term are unchanged.
    """
    l = instance.dimension
    perm = rng.permutation(l)
    sign = rng.choice([-1.0, 1.0], size=l)
    boxes = []
    for box, weight in instance.density.boxes:
        a, b = sign * box.lo[perm], sign * box.hi[perm]
        boxes.append((Hyperrectangle(np.minimum(a, b), np.maximum(a, b)), weight))
    boxes = [boxes[i] for i in rng.permutation(len(boxes))]
    order = rng.permutation(instance.samples.n)
    points = (sign * instance.samples.points[:, perm])[order]
    samples = SampleSet(points=points, demands=instance.samples.demands[order])
    return Instance(BoxDensity(dimension=l, boxes=tuple(boxes)), samples)


def ladder_instance(rng: np.random.Generator, l: int, k: int, n: int) -> Instance:
    """k slabs along axis 0 of [-1,1]^l, random weights, n sinks on a jittered grid.

    Each sink sits in its own cell of a regular grid over [-1,1]^l, jittered
    by at most 0.3 cell widths, so the sink separation s stays within a
    constant factor of the grid spacing.
    """
    edges = np.linspace(-1.0, 1.0, k + 1)
    boxes = []
    for i in range(k):
        lo, hi = np.full(l, -1.0), np.full(l, 1.0)
        lo[0], hi[0] = edges[i], edges[i + 1]
        boxes.append(Hyperrectangle(lo, hi))
    raw = rng.uniform(0.5, 2.0, size=k)
    volumes = np.array([box.volume for box in boxes])
    density = BoxDensity(dimension=l, boxes=tuple(zip(boxes, raw / (raw @ volumes))))

    per_axis = math.ceil(round(n ** (1.0 / l), 9))
    width = 2.0 / per_axis
    grid = np.indices((per_axis,) * l).reshape(l, -1).T
    cells = grid[rng.choice(len(grid), size=n, replace=False)]
    jitter = rng.uniform(-0.3, 0.3, size=(n, l))
    points = -1.0 + (cells + 0.5 + jitter) * width
    return Instance(density, SampleSet.uniform(points))


def unsatisfiable_cnf(rng: np.random.Generator) -> str:
    """DIMACS text of a random unsatisfiable 3-CNF.

    Unsatisfiable, so both deciders enumerate all 2^l assignments and the
    cost of the operation does not depend on where a first satisfying one
    falls.
    """
    while True:
        clauses = []
        for _ in range(SAT_CLAUSES):
            variables = rng.choice(SAT_VARIABLES, size=3, replace=False) + 1
            signs = rng.choice([-1, 1], size=3)
            clauses.append([int(v * s) for v, s in zip(variables, signs)])
        try:
            cnf = CnfFormula.from_dimacs_clauses(SAT_VARIABLES, clauses)
        except ValueError:  # some variable appears in no clause
            continue
        if not brute_force_sat(cnf):
            lines = [f"p cnf {SAT_VARIABLES} {SAT_CLAUSES}"]
            lines += [" ".join(map(str, c)) + " 0" for c in clauses]
            return "\n".join(lines) + "\n"


def _acceptance_batch(count: int) -> list[Instance]:
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    return [
        random_instance(rng, max_dim=2, max_boxes=2, max_samples=4)
        for _ in range(count)
    ]


def _single_sink_cross(instance: Instance) -> float | None:
    # With one sink every plan sends all mass to it: cross = y . int x dalpha.
    if instance.samples.n != 1:
        return None
    _, first, _ = box_moments(instance.density)
    return float(instance.samples.points[0] @ first)


class _Batch:
    """Collects operations and writes their instance files."""

    def __init__(self, directory: Path, rng: np.random.Generator):
        self.directory = directory
        self.rng = rng
        self.ops: list[Op] = []

    def solver_seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def add(self, name, instance, extra_argv, epsilon, cross=None, may_refuse=False):
        path = self.directory / f"{len(self.ops):03d}-{name}.json"
        save_instance(path, instance, {"name": name})
        command = "verify" if "--mode" in extra_argv else "estimate"
        argv = (command, str(path), *extra_argv, "--seed", self.solver_seed())
        if cross is None:
            cross = _single_sink_cross(instance)
        self.ops.append(Op(name, argv, instance, epsilon, cross, may_refuse))

    def add_cnf(self, name, text):
        path = self.directory / f"{len(self.ops):03d}-{name}.cnf"
        path.write_text(text)
        self.ops.append(Op(name, ("verify", str(path), "--mode", "sat")))


def _descent_small(batch: _Batch) -> None:
    estimate = ("--backend", "exact")
    for i, base in enumerate(_acceptance_batch(DESCENT_SMALL_GENERATED)):
        batch.add(f"gen{i:02d}", symmetry(base, batch.rng), estimate, CLI_EPSILON)
    for name, base in named_instances().items():
        cross = NAMED_CROSS_TERMS.get(name)
        batch.add(name, symmetry(base, batch.rng), estimate, CLI_EPSILON, cross)
    for m in THIN_BOX_PARAMETERS:
        base, _ = thin_box_family(m)
        # Mass splits at x_1 = -1/(2m): cross = 3/(8m) - 1/(8m).
        batch.add(f"thin-box-{m}", symmetry(base, batch.rng), estimate,
                  CLI_EPSILON, 1.0 / (4.0 * m))


def _descent_large(batch: _Batch) -> None:
    capped = ("--backend", "exact", "--max-iters", str(DESCENT_LARGE_CAP))
    ladder = np.random.default_rng(LADDER_SEED)
    for l, k, n in DESCENT_LARGE_LADDER:
        base = ladder_instance(ladder, l, k, n)
        batch.add(f"l{l}-k{k}-n{n}", symmetry(base, batch.rng), capped, CLI_EPSILON)


def _estimate_mc(batch: _Batch) -> None:
    bases = {**named_instances(), "cube-4d": cube_4d()}
    for name, epsilon, backend in MC_CASES:
        instance = symmetry(bases[name], batch.rng)
        argv = ("--epsilon", repr(epsilon), "--backend", backend)
        batch.add(f"{name}-eps{epsilon}", instance, argv, epsilon,
                  NAMED_CROSS_TERMS.get(name),
                  may_refuse=name == "cube-4d" and epsilon == MC_REFUSED_EPSILON)


def _verify(batch: _Batch) -> None:
    bases = _acceptance_batch(max(*VERIFY_ORACLE_2D, VERIFY_ORACLE_1D) + 1)
    oracle = ("--mode", "oracle")
    for i in VERIFY_ORACLE_2D:
        batch.add(f"oracle-gen{i:02d}", symmetry(bases[i], batch.rng),
                  oracle + ("--resolution", str(VERIFY_RESOLUTION)), VERIFY_EPSILON)
    # The CLI's default resolution 200: 40 000 sources against two sinks.
    square = symmetry(named_instances()["symmetric-square"], batch.rng)
    batch.add("oracle-symmetric-square-res200", square, oracle, VERIFY_EPSILON)
    batch.add(f"oracle-gen{VERIFY_ORACLE_1D:02d}-1d",
              symmetry(bases[VERIFY_ORACLE_1D], batch.rng), oracle, VERIFY_EPSILON)
    batch.add_cnf("sat-unsat-10var", unsatisfiable_cnf(batch.rng))


_BUILDERS = {
    "descent-small": _descent_small,
    "descent-large": _descent_large,
    "estimate-mc": _estimate_mc,
    "verify": _verify,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's input files into ``directory``; return its batch."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    batch = _Batch(directory, rng)
    _BUILDERS[workload](batch)
    return batch.ops
