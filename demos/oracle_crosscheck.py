"""Cross-check the dual solver against two independent primal oracles.

In one dimension the transport cost has a closed form from monotone
quantile matching. In any dimension, discretizing the source onto a
midpoint grid and solving the discrete problem exactly gives a value
within a provable sandwich of the true cost, and the bound shrinks
linearly with the grid resolution. Both routes should bracket the dual
energy the dual solver reports.
"""

import numpy as np

from boxot import (
    BoxDensity,
    Hyperrectangle,
    Instance,
    SampleSet,
    SolverConfig,
    solve_dual,
)
from boxot.oracle import (
    discretization_error_bound,
    discretize_source,
    semidiscrete_1d_exact,
    solve_discrete_ot_exact,
)


def main():
    boxes = (
        (Hyperrectangle([-2.0], [-1.0]), 0.5),
        (Hyperrectangle([1.0], [2.0]), 0.5),
    )
    density = BoxDensity(dimension=1, boxes=boxes)
    samples = SampleSet.uniform(np.array([[-1.5], [0.0], [1.5]]))
    instance = Instance(density, samples)

    p_star, cross, breakpoints = semidiscrete_1d_exact(instance)
    print(f"closed-form oracle: p* = {p_star!r}")
    print(f"  plan cross-term = {cross!r}, cell breakpoints = {breakpoints.tolist()}")
    print()

    print("resolution   discrete cost   error bound   true gap")
    for resolution in (5, 20, 80):
        sources = discretize_source(density, resolution)
        plan = solve_discrete_ot_exact(sources, samples)
        bound = (
            discretization_error_bound(density, samples, resolution)
            + plan.rounding_cost_bound
        )
        gap = abs(plan.cost - p_star)
        print(f"{resolution:10d}   {plan.cost:.10f}   {bound:.5f}       {gap:.2e}")
    print()

    g, energy, trace = solve_dual(
        instance, SolverConfig(epsilon=0.05, eta=0.01, seed=0)
    )
    print(f"dual solver: E(g) = {energy!r} after {trace.M_bar} iterations")
    print(f"|E - p*| = {abs(energy - p_star):.2e} <= eps' = {trace.eps_prime:.2e}")


if __name__ == "__main__":
    main()
