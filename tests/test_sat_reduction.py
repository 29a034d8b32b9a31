"""3-SAT gadget: construction, disjointness, and decision equivalence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boxot import sat_reduction
from boxot.sat_reduction import (
    ENUMERATION_GUARD,
    EPSILON_GADGET,
    CnfFormula,
    assignment_to_theta,
    brute_force_sat,
    decide_positive_likelihood,
    likelihood_positive,
    parse_dimacs,
    reduce_3sat,
)


def _random_formula(rng, max_vars=6, max_clauses=8, min_vars=3, min_clauses=1):
    """Random 3-CNF whose variables all occur somewhere."""
    while True:
        l = int(rng.integers(min_vars, max_vars + 1))
        n = int(rng.integers(min_clauses, max_clauses + 1))
        clauses = []
        for _ in range(n):
            vs = rng.choice(l, size=3, replace=False)
            clauses.append(
                tuple((int(v), bool(rng.integers(0, 2))) for v in vs)
            )
        used = {v for clause in clauses for v, _ in clause}
        if used == set(range(l)):
            return CnfFormula(l, tuple(clauses))


class TestCnfFormula:
    def test_from_dimacs_clauses(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, -2, 3)])
        assert cnf.num_vars == 3
        assert cnf.n == 1
        assert cnf.clauses[0] == ((0, True), (1, False), (2, True))

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            CnfFormula.from_dimacs_clauses(3, [(1, 1, 3)])

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula.from_dimacs_clauses(3, [(1, 2, 4)])

    def test_unused_variable_rejected(self):
        with pytest.raises(ValueError, match="appear in no clause"):
            CnfFormula.from_dimacs_clauses(4, [(1, 2, 3)])

    def test_two_literal_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(2, (((0, True), (1, True)),))


class TestReduce3Sat:
    def test_single_clause_constants(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, 2, 3)])
        red = reduce_3sat(cnf)
        assert_allclose(red.gamma, 64000 / 7, rtol=1e-12)
        assert red.density.k == 7
        assert red.epsilon_gadget == 1 / 80
        assert_allclose(red.samples.points, [[1.0, 1.0, 1.0]])

    def test_sample_coordinates_mark_occurrences(self):
        cnf = CnfFormula.from_dimacs_clauses(4, [(1, 2, 3), (-2, 3, 4)])
        red = reduce_3sat(cnf)
        assert_allclose(
            red.samples.points, [[1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 2.0, 2.0]]
        )
        assert red.density.k == 14
        assert red.samples.uniform_demands

    def test_boxes_in_truth_table_order(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, 2, 3)])
        red = reduce_3sat(cnf)
        eps = EPSILON_GADGET
        # falsifying row FFF is skipped, so the first box is (F, F, T)
        first, _ = red.density.boxes[0]
        assert_allclose(first.lo, [1 - eps, 1 - eps, 1.5 - eps])
        assert_allclose(first.hi, [1 + eps, 1 + eps, 1.5 + eps])
        last, _ = red.density.boxes[-1]
        assert_allclose(last.lo, [1.5 - eps] * 3)

    def test_mass_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            red = reduce_3sat(_random_formula(rng))
            assert abs(red.density.total_mass - 1.0) <= 1e-9

    def test_interval_types_pairwise_disjoint_per_coordinate(self):
        rng = np.random.default_rng(5)
        red = reduce_3sat(_random_formula(rng, max_vars=5, max_clauses=6))
        for j in range(red.samples.dimension):
            intervals = sorted(
                {(float(b.lo[j]), float(b.hi[j])) for b, _ in red.density.boxes}
            )
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert hi < lo

    def test_reduction_is_reproducible(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, -2, 3), (-1, 2, -3)])
        a = reduce_3sat(cnf)
        b = reduce_3sat(cnf)
        assert a.gamma == b.gamma
        for (ba, wa), (bb, wb) in zip(a.density.boxes, b.density.boxes):
            assert (ba.lo == bb.lo).all() and (ba.hi == bb.hi).all() and wa == wb

    def test_gadget_rows_are_the_density_boxes(self):
        """The decider's array rows are the boxes of the validated density,
        and both follow the docstring's rule box by box, bit for bit."""
        rng = np.random.default_rng(17)
        eps = EPSILON_GADGET
        for l in range(3, 13):
            for _ in range(3):
                cnf = _random_formula(rng, max_vars=l, min_vars=l, max_clauses=3 * l)
                points, los, his = sat_reduction._gadget_rows(cnf)
                red = reduce_3sat(cnf)
                assert los.shape == his.shape == (7 * cnf.n, l)
                assert np.array_equal(points, red.samples.points)
                boxes = [box for box, _ in red.density.boxes]
                assert np.array_equal(los, np.stack([box.lo for box in boxes]))
                assert np.array_equal(his, np.stack([box.hi for box in boxes]))
                i = 0
                for c, clause in enumerate(cnf.clauses, start=1):
                    var = [v for v, _ in sorted(clause)]
                    falsifying = [not p for _, p in sorted(clause)]
                    for row in range(8):
                        bits = [bool(row & 4), bool(row & 2), bool(row & 1)]
                        if bits == falsifying:
                            continue
                        lo, hi = np.zeros(l), np.full(l, 0.5)
                        for v, true_here in zip(var, bits):
                            center = c + 0.5 if true_here else c
                            lo[v], hi[v] = center - eps, center + eps
                        assert np.array_equal(los[i], lo) and np.array_equal(his[i], hi)
                        i += 1

    def test_output_is_valid_estimator_instance(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, 2, -3)])
        instance = reduce_3sat(cnf).instance
        assert instance.dimension == 3
        assert instance.stats.D > 0


class TestLikelihood:
    def test_canonical_theta(self):
        theta = assignment_to_theta([True, False, True])
        assert_allclose(theta, [-0.5, 0.0, -0.5])

    def test_satisfying_assignment_is_feasible(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, 2, 3)])
        red = reduce_3sat(cnf)
        assert likelihood_positive(red, assignment_to_theta([True, True, True]))

    def test_falsifying_assignment_is_infeasible(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, 2, 3)])
        red = reduce_3sat(cnf)
        assert not likelihood_positive(red, assignment_to_theta([False] * 3))

    def test_every_satisfying_assignment_passes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cnf = _random_formula(rng, max_vars=5, max_clauses=5)
            red = reduce_3sat(cnf)
            l = cnf.num_vars
            for bits in range(2**l):
                assignment = [bool(bits >> j & 1) for j in range(l)]
                satisfies = all(
                    any(assignment[v] == pol for v, pol in clause)
                    for clause in cnf.clauses
                )
                if satisfies:
                    assert likelihood_positive(red, assignment_to_theta(assignment))


def _brute_force_reference(cnf):
    """Satisfiability by a plain loop over assignments and clauses."""
    for bits in range(2**cnf.num_vars):
        if all(
            any(bool(bits >> v & 1) == pol for v, pol in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


class TestDecision:
    def test_satisfiable_formula(self):
        cnf = CnfFormula.from_dimacs_clauses(3, [(1, -2, 3), (-1, 2, -3)])
        assert brute_force_sat(cnf)
        assert decide_positive_likelihood(cnf)

    def test_unsatisfiable_polarity_family(self):
        clauses = [
            (s1 * 1, s2 * 2, s3 * 3)
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        ]
        cnf = CnfFormula.from_dimacs_clauses(3, clauses)
        assert not brute_force_sat(cnf)
        assert not decide_positive_likelihood(cnf)

    def test_random_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            cnf = _random_formula(rng, max_vars=5, max_clauses=6)
            assert decide_positive_likelihood(cnf) == brute_force_sat(cnf)

    def test_partial_last_block(self, monkeypatch):
        # Seven clauses falsify every assignment of 3 variables but the last
        # (all true). Each sample fits only its own clause's 7 boxes, so
        # there are 49 (sample, box) pairs, the block is 3 thetas and the
        # satisfying theta 7 sits in the short last block {6, 7}.
        patterns = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
        clauses = [(s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in patterns[:-1]]
        monkeypatch.setattr(sat_reduction, "_BLOCK_BYTES", 3 * 8 * 49)
        cnf = CnfFormula.from_dimacs_clauses(3, clauses)
        assert decide_positive_likelihood(cnf)
        cnf = CnfFormula.from_dimacs_clauses(3, clauses + [(-1, -2, -3)])
        assert not decide_positive_likelihood(cnf)

    def test_small_blocks_agree(self, monkeypatch):
        monkeypatch.setattr(sat_reduction, "_BLOCK_BYTES", 8 * 7 * 5)
        rng = np.random.default_rng(17)
        for _ in range(30):
            cnf = _random_formula(rng, max_vars=5, max_clauses=6)
            assert decide_positive_likelihood(cnf) == brute_force_sat(cnf)

    @pytest.mark.parametrize("l", range(3, 13))
    @pytest.mark.parametrize("block_bytes", [sat_reduction._BLOCK_BYTES, 8 * 100])
    def test_brute_force_matches_the_loop(self, l, block_bytes, monkeypatch):
        # Few clauses per variable leave most formulas satisfiable, many
        # leave most unsatisfiable; small blocks split the 2^l assignments.
        monkeypatch.setattr(sat_reduction, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(l)
        answers = set()
        for ratio in (1, 3, 5, 8):
            for _ in range(3):
                n = ratio * l
                cnf = _random_formula(
                    rng, min_vars=l, max_vars=l, min_clauses=n, max_clauses=n
                )
                answer = brute_force_sat(cnf)
                assert answer == _brute_force_reference(cnf)
                answers.add(answer)
        assert answers == {True, False}

    def test_enumeration_guard(self):
        l = ENUMERATION_GUARD + 1
        clauses = [(i, i + 1, i + 2) for i in range(1, l - 1)]
        cnf = CnfFormula.from_dimacs_clauses(l, clauses)
        with pytest.raises(ValueError, match="guard"):
            decide_positive_likelihood(cnf)
        with pytest.raises(ValueError, match="guard"):
            brute_force_sat(cnf)


class TestParseDimacs:
    def test_parses_comments_and_clauses(self):
        text = """c a comment
c another
p cnf 3 2
1 -2 3 0
-1 2 -3 0
%
"""
        cnf = parse_dimacs(text)
        assert cnf.num_vars == 3
        assert cnf.n == 2
        assert cnf.clauses[1] == ((0, False), (1, True), (2, False))

    def test_multiline_clause(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf.n == 1

    def test_missing_problem_line(self):
        with pytest.raises(ValueError, match="problem line"):
            parse_dimacs("1 2 3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="declared"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_non_three_sat_clause(self):
        with pytest.raises(ValueError, match="exactly 3 distinct"):
            parse_dimacs("p cnf 3 1\n1 2 0\n")
        with pytest.raises(ValueError, match="exactly 3 distinct"):
            parse_dimacs("p cnf 3 1\n1 1 2 0\n")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_dimacs("p cnf 3 1\n1 x 3 0\n")
