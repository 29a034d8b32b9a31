"""3-SAT reduction to shift-only likelihood feasibility.

A 3-CNF formula over l variables with n clauses maps to an l-dimensional
instance: clause number c contributes the sample y_c (coordinate j equals c
where variable j occurs, else 0) and seven gadget boxes, one per satisfying
assignment of the clause's three variables. The density is uniform with
weight gamma = (7 n 0.5^{l-3} (2 eps)^3)^{-1}, eps = 1/80. The likelihood of
a shift theta is positive iff every shifted sample lands in the support,
which happens for some theta iff the formula is satisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import BoxDensity, Hyperrectangle, Instance, SampleSet

EPSILON_GADGET = 1.0 / 80.0
ENUMERATION_GUARD = 20
# Bytes of the integer temporary of one block of thetas in the decider, and
# of one block of assignments in brute_force_sat.
_BLOCK_BYTES = 4_000_000

Literal = tuple[int, bool]  # (0-based variable index, polarity)


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: clauses of exactly three distinct variables, all variables used."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        if not self.clauses:
            raise ValueError("formula needs at least one clause")
        used = set()
        for c, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause {c} does not have exactly 3 literals")
            vs = [v for v, _ in clause]
            if len(set(vs)) != 3:
                raise ValueError(f"clause {c} repeats a variable")
            for v, _ in clause:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"clause {c} uses variable {v} out of range")
            used.update(vs)
        if used != set(range(self.num_vars)):
            missing = sorted(set(range(self.num_vars)) - used)
            raise ValueError(f"variables {missing} appear in no clause")

    @classmethod
    def from_dimacs_clauses(
        cls, num_vars: int, clauses: Sequence[Sequence[int]]
    ) -> "CnfFormula":
        """Build from DIMACS-style signed 1-based variable numbers."""
        conv = []
        for clause in clauses:
            conv.append(tuple((abs(v) - 1, v > 0) for v in clause))
        return cls(num_vars, tuple(conv))

    @property
    def n(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True, eq=False)
class ReductionOutput:
    """Samples, gadget density, and constants of one reduction."""

    samples: SampleSet
    density: BoxDensity
    gamma: float
    epsilon_gadget: float

    @property
    def instance(self) -> Instance:
        return Instance(self.density, self.samples)

    @cached_property
    def _box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of every gadget box, stacked once."""
        los = np.stack([box.lo for box, _ in self.density.boxes])
        his = np.stack([box.hi for box, _ in self.density.boxes])
        return los, his


# Bit of truth-table row i (FFF..TTT ascending) that sets a clause's k-th
# smallest variable: bit 2 - k.
_ROW_SHIFTS = np.array([2, 1, 0])


def _gadget_rows(cnf: CnfFormula) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples (n, l) and the gadget boxes' lower and upper corners (7n, l).

    The rows are in :func:`reduce_3sat`'s box order: clauses first, then
    each clause's seven satisfying truth-table rows in ascending order.
    """
    l, n = cnf.num_vars, cnf.n
    eps = EPSILON_GADGET
    by_var = [sorted(clause) for clause in cnf.clauses]
    var = np.array([[v for v, _ in clause] for clause in by_var])
    pol = np.array([[p for _, p in clause] for clause in by_var])
    c = np.arange(1, n + 1)
    points = np.zeros((n, l))
    points[np.arange(n)[:, None], var] = c[:, None]
    falsifying = (~pol << _ROW_SHIFTS).sum(axis=1)
    clause, row = np.nonzero(np.arange(8) != falsifying[:, None])
    center = c[clause, None] + 0.5 * (row[:, None] >> _ROW_SHIFTS & 1)
    at = (np.arange(clause.size)[:, None], var[clause])
    lo = np.zeros((clause.size, l))
    hi = np.full((clause.size, l), 0.5)
    lo[at] = center - eps
    hi[at] = center + eps
    return points, lo, hi


def reduce_3sat(cnf: CnfFormula) -> ReductionOutput:
    """Emit the samples and 7n gadget boxes of a formula.

    Clause number c (1-based) with sorted variables p < q < r produces, for
    each of its seven satisfying rows, one box whose coordinate intervals
    are: [0, 0.5] for non-occurring variables, [c+0.5-eps, c+0.5+eps] where
    the row sets the variable true, [c-eps, c+eps] where false. Ordering is
    clauses first, then rows in truth-table order, so output is reproducible.
    """
    l, n = cnf.num_vars, cnf.n
    eps = EPSILON_GADGET
    gamma = 1.0 / (7.0 * n * 0.5 ** (l - 3) * (2.0 * eps) ** 3)
    points, los, his = _gadget_rows(cnf)
    boxes = tuple((Hyperrectangle(lo, hi), gamma) for lo, hi in zip(los, his))
    density = BoxDensity(dimension=l, boxes=boxes)
    samples = SampleSet.uniform(points)
    return ReductionOutput(
        samples=samples, density=density, gamma=gamma, epsilon_gadget=eps
    )


def assignment_to_theta(assignment: Sequence[bool]) -> np.ndarray:
    """theta_j = -0.5 where the assignment is true, 0 where false."""
    return np.array([-0.5 if a else 0.0 for a in assignment])


def likelihood_positive(reduction: ReductionOutput, theta: np.ndarray) -> bool:
    """True iff the density is positive at y_c - theta for every clause c.

    Positivity at a point means membership in some gadget box (closed
    inclusion; gadget spacing keeps canonical queries off all ambiguous
    boundaries).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    los, his = reduction._box_bounds
    shifted = reduction.samples.points - theta[None, :]
    inside = (
        (shifted[:, None, :] >= los[None, :, :])
        & (shifted[:, None, :] <= his[None, :, :])
    ).all(axis=2)
    return bool(inside.any(axis=1).all())


def decide_positive_likelihood(cnf: CnfFormula) -> bool:
    """True iff some canonical theta gives positive likelihood.

    Enumerates the 2^l thetas with coordinates in {-0.5, 0}; any feasible
    shift induces a satisfying assignment whose canonical theta is feasible
    too, so the enumeration decides the problem. Guarded at l <= 20.

    Coordinate d of y_c - theta takes one of two values, so the same test as
    :func:`likelihood_positive` is made once per value: sample c fits box i
    under assignment x (bit d of x true where theta_d = -0.5) iff every
    coordinate fits under one of its values and, where only one does, bit d
    selects it. The thetas are then tested in blocks, one numpy call per
    block, whose (thetas x sample-box pairs) int64 temporary stays under
    ``_BLOCK_BYTES``.
    """
    l = cnf.num_vars
    if l > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard: l = {l} > {ENUMERATION_GUARD}")
    points, los, his = _gadget_rows(cnf)
    fits = []
    for value in (0.0, -0.5):  # theta_d for bit d false, true
        shifted = points[:, None, :] - value
        fits.append((shifted >= los[None, :, :]) & (shifted <= his[None, :, :]))
    fit_false, fit_true = fits
    pair_sample, pair_box = np.nonzero((fit_false | fit_true).all(axis=2))
    # np.nonzero lists the pairs sample by sample, so pair_sample is sorted
    # and counts one sample per change of value (np.unique would load
    # numpy.ma on its first call).
    samples_hit = pair_sample.size and 1 + np.count_nonzero(np.diff(pair_sample))
    if samples_hit < cnf.n:
        return False  # some sample lies in no box whatever theta is
    weights = 1 << np.arange(l)
    care = (fit_false ^ fit_true)[pair_sample, pair_box] @ weights
    want = (fit_true & ~fit_false)[pair_sample, pair_box] @ weights
    starts = np.searchsorted(pair_sample, np.arange(cnf.n))
    block = max(1, _BLOCK_BYTES // (8 * pair_sample.size))
    for start in range(0, 2**l, block):
        bits = np.arange(start, min(start + block, 2**l))
        hit = (bits[:, None] & care[None, :]) == want[None, :]
        if np.logical_or.reduceat(hit, starts, axis=1).all(axis=1).any():
            return True
    return False


def brute_force_sat(cnf: CnfFormula) -> bool:
    """Truth-table satisfiability (independent of the reduction machinery).

    Assignment x sets variable v true iff bit v of x is set. The 2^l
    assignments are tested in blocks, one numpy pass per literal position
    and block, whose (assignments x clauses) int64 temporary stays under
    ``_BLOCK_BYTES``.
    """
    l = cnf.num_vars
    if l > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard: l = {l} > {ENUMERATION_GUARD}")
    var = np.array([[v for v, _ in clause] for clause in cnf.clauses])
    pol = np.array([[p for _, p in clause] for clause in cnf.clauses])
    block = max(1, _BLOCK_BYTES // (8 * cnf.n))
    for start in range(0, 2**l, block):
        bits = np.arange(start, min(start + block, 2**l))[:, None]
        satisfied = np.zeros((bits.size, cnf.n), dtype=bool)
        for k in range(3):
            satisfied |= (bits >> var[:, k] & 1) == pol[:, k]
        if satisfied.all(axis=1).any():
            return True
    return False


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; every clause must use exactly 3 distinct variables."""
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            num_vars = int(parts[2])
            declared_clauses = int(parts[3])
            continue
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"malformed clause line: {line!r}") from exc
    if num_vars is None:
        raise ValueError("missing 'p cnf' problem line")

    clauses: list[list[int]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        clauses.append(current)
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise ValueError(
            f"declared {declared_clauses} clauses but found {len(clauses)}"
        )
    for clause in clauses:
        if len(clause) != 3 or len({abs(v) for v in clause}) != 3:
            raise ValueError(f"clause {clause} must use exactly 3 distinct variables")
    return CnfFormula.from_dimacs_clauses(num_vars, clauses)
