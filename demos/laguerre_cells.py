"""Draw a Laguerre (power) partition and compare exact vs sampled volumes.

Three sinks partition a uniform square. Raising a sink's dual weight grows
its cell, so the g below gives site C more than a third of the box. The
ASCII map classifies a probe grid; the table compares the exact clipped
polygon volumes against Monte Carlo estimates from the seeded substream.
"""

import numpy as np

from boxot import Hyperrectangle, SampleSet
from boxot.geometry import (
    cell_box_moments_exact,
    cell_box_volumes_mc,
    classify_points,
)

WIDTH, HEIGHT = 64, 24


def main():
    box = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
    samples = SampleSet.uniform(
        np.array([[-0.5, -0.4], [0.6, -0.3], [0.0, 0.55]])
    )
    g = np.array([0.0, 0.0, 0.3])
    print(f"sites: {samples.points.tolist()}")
    print(f"dual weights g = {g.tolist()}")
    print()

    xs = np.linspace(-1.0, 1.0, WIDTH)
    ys = np.linspace(1.0, -1.0, HEIGHT)
    for y in ys:
        grid = np.column_stack([xs, np.full(WIDTH, y)])
        labels = classify_points(samples, g, grid)
        print("".join("ABC"[j] for j in labels))
    print()

    exact, _ = cell_box_moments_exact(samples, g, box)
    mc = cell_box_volumes_mc(
        samples, g, box, eps_bar=0.005, eta_prime=0.05, seed=7
    )
    print("cell  exact volume  monte carlo   |difference|")
    for j in range(samples.n):
        print(f"  {'ABC'[j]}   {exact[j]:12.6f}  {mc[j]:12.6f}   {abs(exact[j] - mc[j]):.2e}")
    print(f"sum   {exact.sum():12.6f}  (box volume {box.volume})")


if __name__ == "__main__":
    main()
