"""Watch the damped Newton solver converge on a known optimum.

On the unit interval with sinks {0, 1} and demands (3/4, 1/4) the optimal
dual weights are (0.25, -0.25): the cell boundary must sit at the 0.75
quantile. The energy at the optimum equals the primal cost 7/48. The trace
below shows each Newton step with the step length tau it accepted (tau
halves from 1 until the gradient norm falls to (1 - tau/2) of its value),
until the gradient norm crosses the stopping threshold eps' / (45 n D^2).
The solver warns that its iterate-boundedness guarantee assumes uniform
demands; the energy still converges, as the final gap shows.
"""

import numpy as np

from boxot import SolverConfig, solve_dual
from boxot.fixtures import asymmetric_demands


def main():
    instance = asymmetric_demands()
    config = SolverConfig(epsilon=0.01, eta=0.01, seed=0)
    g, energy, trace = solve_dual(instance, config)

    print(f"budgets: eps' = {trace.eps_prime:.6g}, L = {trace.L}, "
          f"M = {trace.M}, threshold = {trace.grad_threshold:.6g}")
    print()
    print("   t   ||grad||      energy          tau")
    for i, t in enumerate(trace.t):
        print(f"{t:4d}   {trace.grad_norm[i]:.6f}   {trace.energy_estimate[i]:.9f}"
              f"   {trace.step_size[i]:g}")
    print()
    print(f"stopped after {trace.M_bar} iterations and {trace.passes} geometry "
          f"passes ({trace.stop_reason})")
    print(f"g = {np.round(g, 6).tolist()}  (optimum (0.25, -0.25))")
    print(f"E(g) = {energy:.9f}  (primal cost 7/48 = {7 / 48:.9f})")
    print(f"|E - p*| = {abs(energy - 7 / 48):.2e} <= eps' = {trace.eps_prime:.2e}")


if __name__ == "__main__":
    main()
