"""Canonical instances with known ground truth, plus random-instance generation.

The four named instances have closed-form optima worked out by hand (and
cross-checked against the 1D oracle); the two families realize geometries
whose dual-gradient Lipschitz ratio grows linearly in the parameter m, one
through shrinking sample separation and one through a shrinking box width.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoxDensity, Hyperrectangle, Instance, SampleSet


def symmetric_interval() -> Instance:
    """Uniform density on [-1,1], sinks at -1 and 1: sigma* = 1.5, mu* = 0."""
    density = BoxDensity(
        dimension=1, boxes=((Hyperrectangle([-1.0], [1.0]), 0.5),)
    )
    samples = SampleSet.uniform(np.array([[-1.0], [1.0]]))
    return Instance(density, samples)


def single_sink() -> Instance:
    """Uniform density on [0,1], one sink at 0.5: sigma* = 0, mu* = -0.5."""
    density = BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 1.0),))
    samples = SampleSet.uniform(np.array([[0.5]]))
    return Instance(density, samples)


def asymmetric_demands() -> Instance:
    """Uniform density on [0,1], sinks 0 and 1 with demands 3/4 and 1/4.

    The optimal plan splits at x = 3/4, so the centered optimal dual weights
    are (1/4, -1/4) and the transport cost is 7/48.
    """
    density = BoxDensity(dimension=1, boxes=((Hyperrectangle([0.0], [1.0]), 1.0),))
    samples = SampleSet(
        points=np.array([[0.0], [1.0]]), demands=np.array([0.75, 0.25])
    )
    return Instance(density, samples)


def symmetric_square() -> Instance:
    """Uniform density on [-1,1]^2, sinks (-1,0) and (1,0): sigma* = 0.75."""
    density = BoxDensity(
        dimension=2, boxes=((Hyperrectangle([-1.0, -1.0], [1.0, 1.0]), 0.25),)
    )
    samples = SampleSet.uniform(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    return Instance(density, samples)


def named_instances() -> dict[str, Instance]:
    return {
        "symmetric-interval": symmetric_interval(),
        "single-sink": single_sink(),
        "asymmetric-demands": asymmetric_demands(),
        "symmetric-square": symmetric_square(),
    }


def sample_separation_family(m: int) -> tuple[Instance, tuple[np.ndarray, np.ndarray]]:
    """Sinks at -1/m and 1/m over uniform [-1,1]: ratio m/(4 sqrt 2).

    Returns the instance and a weight pair (g, g') whose measured gradient
    ratio ||grad E(g) - grad E(g')|| / ||g - g'|| equals exactly m/(4 sqrt 2):
    the Laguerre boundary moves m/4 times as fast as the weight difference.
    """
    if m < 1:
        raise ValueError("family parameter m must be >= 1")
    density = BoxDensity(
        dimension=1, boxes=((Hyperrectangle([-1.0], [1.0]), 0.5),)
    )
    samples = SampleSet.uniform(np.array([[-1.0 / m], [1.0 / m]]))
    g_pair = (np.zeros(2), np.array([0.0, 1.0 / m]))
    return Instance(density, samples), g_pair


def thin_box_family(m: int) -> tuple[Instance, tuple[np.ndarray, np.ndarray]]:
    """Unit-mass box [-1/m,0]x[0,m], sinks (-1,0), (1,0): ratio m/(2 sqrt 2).

    The boundary between the two cells is the vertical line x = (g_1-g_2)/4;
    sweeping it across the width-1/m box at height m converts a weight change
    of 1/m into a gradient change of sqrt(2)/4.
    """
    if m < 1:
        raise ValueError("family parameter m must be >= 1")
    density = BoxDensity(
        dimension=2, boxes=((Hyperrectangle([-1.0 / m, 0.0], [0.0, float(m)]), 1.0),)
    )
    samples = SampleSet.uniform(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    g_pair = (np.zeros(2), np.array([0.0, 1.0 / m]))
    return Instance(density, samples), g_pair


def random_instance(
    rng: np.random.Generator,
    max_dim: int = 2,
    max_boxes: int = 2,
    max_samples: int = 4,
) -> Instance:
    """Random well-separated instance for property tests.

    Boxes are stacked in disjoint slabs along axis 0 with widths >= 0.5 and
    samples are rejection-drawn with pairwise distance >= 0.35, keeping the
    derived separation s moderate so solver thresholds stay reachable.
    """
    l = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(1, max_boxes + 1))
    n = int(rng.integers(1, max_samples + 1))

    boxes = []
    cursor = float(rng.uniform(-2.0, -1.0))
    for _ in range(k):
        lo = np.empty(l)
        hi = np.empty(l)
        width0 = float(rng.uniform(0.5, 1.5))
        lo[0], hi[0] = cursor, cursor + width0
        cursor = hi[0] + float(rng.uniform(0.5, 1.0))
        for d in range(1, l):
            a = float(rng.uniform(-2.0, 1.0))
            lo[d], hi[d] = a, a + float(rng.uniform(0.5, 2.0))
        boxes.append(Hyperrectangle(lo, hi))
    raw = rng.uniform(0.5, 2.0, size=k)
    vols = np.array([b.volume for b in boxes])
    gammas = raw / float(raw @ vols)
    density = BoxDensity(dimension=l, boxes=tuple(zip(boxes, gammas)))

    points = []
    while len(points) < n:
        p = rng.uniform(-2.5, 2.5, size=l)
        if all(np.linalg.norm(p - q) >= 0.35 for q in points):
            points.append(p)
    return Instance(density, SampleSet.uniform(np.array(points)))
