"""Speed of the machine while a run measures, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more within minutes, with nothing else running in the guest: the
same pass over a batch can take 40 % longer than the pass before it. A
median over repeats does not remove a slow spell that lasts a whole run, so
the timed run also times a reference kernel that does not use boxot after
every operation. An operation's time is scaled by ``nominal / r``, where
``r`` is the median of the reference times taken around it and ``nominal``
the kernel's usual time (:func:`nominal_seconds`): the result is the time
the operation would take on the machine at its usual speed. Raw times and
reference times are kept in the run's record.

The kernel mixes the kinds of work the workloads do: interpreted Python
(the descent's per-iteration overhead), small numpy calls (per-cell
geometry), compiled loops over small arrays and a small HiGHS linear program
(the transport oracle). Workloads that classify MC points add
:func:`mc_reference_work`, which classifies random points the same way: that
work runs on two BLAS threads over arrays larger than the caches, and slow
spells hit it differently from the rest. The kernels use numpy and scipy
only, so a change to boxot cannot change their speed. Timed against
17-second stretches of the workloads, scaling cut the spread of ops_per_s
from 0.20 to 0.03 on descent-small and from 0.09 to 0.06 on descent-large
and verify; on estimate-mc the base kernel alone made it worse (0.10 to
0.12) and the MC kernel brought it to 0.07.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Median reference_work() and mc_reference_work() times on the machine the
# bounds were set on (2-core KVM guest, Intel Xeon, Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31 with 2 threads).
REFERENCE_S = 0.0165
MC_REFERENCE_S = 0.04
# Workloads whose operations classify MC points.
MC_WORKLOADS = ("estimate-mc",)
# An operation's scale uses the WINDOW + 1 reference samples taken before it
# and the WINDOW + 1 taken after it.
WINDOW = 2

_SMALL = np.linspace(-1.0, 1.0, 8)
_LARGE = np.random.default_rng(0).random(1 << 15)
_LP_COST = np.random.default_rng(1).random(60)
_LP_MATRIX = np.random.default_rng(2).random((20, 60))
_MC_SINKS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, 0.7]])
_MC_WEIGHTS = np.array([0.0, 0.1, -0.2])


def reference_work() -> float:
    """A fixed amount of work of the kinds boxot does; returns a checksum."""
    total = 0.0
    for i in range(30000):
        x = (i % 97) * 0.5
        total += x * x - x / (1.0 + x)
    lo, hi = _SMALL - 0.25, _SMALL + 0.25
    for _ in range(400):
        total += float(np.prod(np.maximum(np.minimum(hi, 0.5) - np.maximum(lo, -0.5), 0.0)))
    for _ in range(8):
        total += float(np.sort(_LARGE)[-1] + np.sum(_LARGE * _LARGE > 0.25))
    lp = linprog(_LP_COST, A_eq=_LP_MATRIX, b_eq=_LP_MATRIX.sum(axis=1),
                 bounds=(0, None), method="highs")
    return total + lp.fun


def mc_reference_work() -> np.ndarray:
    """Classify 2^19 uniform points of a square among three weighted sinks."""
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, size=(1 << 19, 2))
    labels = np.argmin(_MC_WEIGHTS - 2.0 * points @ _MC_SINKS.T, axis=1)
    return np.bincount(labels, minlength=len(_MC_SINKS))


def reference_seconds(workload: str | None = None) -> float:
    """Time of the reference kernel of ``workload`` (the base kernel if None)."""
    start = time.perf_counter()
    reference_work()
    if workload in MC_WORKLOADS:
        mc_reference_work()
    return time.perf_counter() - start


def nominal_seconds(workload: str | None = None) -> float:
    """What :func:`reference_seconds` takes at the usual speed."""
    return REFERENCE_S + (MC_REFERENCE_S if workload in MC_WORKLOADS else 0.0)


def scales(reference: list[float], nominal: float = REFERENCE_S) -> list[float]:
    """Scale of each operation run from the reference times taken after them.

    ``reference[j]`` was taken right after run ``j``; run ``j``'s scale uses
    the median of the samples ``j - WINDOW - 1`` to ``j + WINDOW``, which
    straddle it.
    """
    out = []
    for j in range(len(reference)):
        window = reference[max(0, j - WINDOW - 1):j + WINDOW + 1]
        out.append(nominal / statistics.median(window))
    return out
