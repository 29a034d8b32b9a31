"""Turn a 3-CNF formula into a likelihood decision problem.

Each clause becomes one sample point plus seven tiny boxes, one per
satisfying row of the clause's truth table. A truth assignment maps to the
canonical shift theta (-0.5 for true, 0 for false), and the shifted sample
lands inside a gadget box exactly when the assignment satisfies the
clause. The formula is satisfiable iff some shift gives every sample
positive density.
"""

from boxot.sat_reduction import (
    CnfFormula,
    assignment_to_theta,
    brute_force_sat,
    decide_positive_likelihood,
    likelihood_positive,
    reduce_3sat,
)

FORMULA = [(1, 2, -3), (-1, -2, 3), (1, -2, 3)]


def main():
    cnf = CnfFormula.from_dimacs_clauses(3, FORMULA)
    print(f"formula: {FORMULA} over {cnf.num_vars} variables")

    red = reduce_3sat(cnf)
    print(f"gamma = {red.gamma!r}, epsilon = {red.epsilon_gadget}")
    print(f"samples: {red.samples.points.tolist()}")
    print(f"boxes: {red.density.k} (7 per clause)")
    box, _ = red.density.boxes[0]
    print(f"first gadget box: lo = {box.lo.tolist()}, hi = {box.hi.tolist()}")
    print()

    for bits in range(8):
        assignment = [bool(bits >> j & 1) for j in range(3)]
        theta = assignment_to_theta(assignment)
        feasible = likelihood_positive(red, theta)
        tag = "".join("T" if a else "F" for a in assignment)
        print(f"assignment {tag}: theta = {theta.tolist()}, "
              f"likelihood positive = {feasible}")
    print()

    decided = decide_positive_likelihood(cnf)
    brute = brute_force_sat(cnf)
    print(f"decide_positive_likelihood = {decided}")
    print(f"brute_force_sat            = {brute}")
    assert decided == brute


if __name__ == "__main__":
    main()
