"""Exact phase-1 simplex: feasible points are exact rationals, infeasibility
is decided, unbounded directions don't confuse it."""

from fractions import Fraction

import numpy as np
import pytest

from plab.feasibility import LinearConstraint
from plab.simplex import RELATIONS, feasible_point

F = Fraction


def solve(n, rows):
    return feasible_point(n, [(tuple(map(F, c)), rel, F(r)) for c, rel, r in rows])


def check(point, rows):
    for coeffs, rel, rhs in rows:
        lhs = sum(F(c) * v for c, v in zip(coeffs, point))
        assert (lhs <= F(rhs)) if rel == "<=" else (lhs >= F(rhs)) if rel == ">=" else (lhs == F(rhs))


def test_relations_constant():
    assert RELATIONS == ("<=", "=", ">=")


def test_simplex_face():
    rows = [([1, 1], "=", 1), ([1, 0], ">=", 0), ([0, 1], ">=", 0)]
    pt = solve(2, rows)
    assert pt is not None and pt[0] + pt[1] == 1
    check(pt, rows)


def test_empty_interval_infeasible():
    assert solve(1, [([1], ">=", 1), ([1], "<=", 0)]) is None


def test_contradictory_equalities_infeasible():
    assert solve(2, [([1, 1], "=", 1), ([2, 2], "=", 3)]) is None


def test_negative_rhs_handled():
    rows = [([1, 0], "<=", -2), ([0, 1], "=", -1)]
    pt = solve(2, rows)
    check(pt, rows)
    assert pt[0] <= -2 and pt[1] == -1


def test_free_variables_allowed():
    # no sign restriction on x: the only solution is negative
    pt = solve(1, [([2], "=", F(-3))])
    assert pt == [F(-3, 2)]


def test_unbounded_but_feasible():
    pt = solve(2, [([1, -1], ">=", 5)])
    check(pt, [([1, -1], ">=", 5)])


def test_exact_fractions_no_drift():
    rows = [([F(1, 3), F(1, 7)], "=", F(22, 21)), ([1, 0], ">=", 1), ([0, 1], ">=", 1)]
    pt = solve(2, rows)
    check(pt, rows)


def test_no_constraints_means_origin_ok():
    assert solve(3, []) == [0, 0, 0]


@pytest.mark.parametrize("coeff, rhs", [(0.1, 1), (1, 0.1), (0.3, "0.1")])
def test_numbers_read_as_linear_constraint_reads_them(coeff, rhs):
    row = LinearConstraint((coeff,), "=", rhs)
    assert feasible_point(1, [((coeff,), "=", rhs)]) == [row.rhs / row.coeffs[0]]


@pytest.mark.parametrize("coeff, rhs", [(True, 1), (1, True)])
def test_bool_rejected_as_linear_constraint_rejects_it(coeff, rhs):
    with pytest.raises(TypeError, match="bool"):
        LinearConstraint((coeff,), "=", rhs)
    with pytest.raises(TypeError, match="bool"):
        feasible_point(1, [((coeff,), "=", rhs)])


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        feasible_point(1, [((F(1),), "!=", F(0))])


def test_random_consistent_systems_are_solved():
    rng = np.random.default_rng(20177)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        x_star = [F(int(a), int(b)) for a, b in zip(rng.integers(-6, 7, n), rng.integers(1, 5, n))]
        rows = []
        for _ in range(int(rng.integers(1, 9))):
            coeffs = [F(int(c)) for c in rng.integers(-4, 5, n)]
            val = sum(c * v for c, v in zip(coeffs, x_star))
            rel = RELATIONS[int(rng.integers(0, 3))]
            margin = F(int(rng.integers(0, 3)))
            rhs = val if rel == "=" else (val + margin if rel == "<=" else val - margin)
            rows.append((tuple(coeffs), rel, rhs))
        pt = feasible_point(n, rows)
        assert pt is not None, f"trial {trial}: x*={x_star} satisfies the system"
        check(pt, rows)


def test_random_split_systems_are_infeasible():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        coeffs = [F(int(c)) for c in rng.integers(-3, 4, n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        gap = F(int(rng.integers(1, 5)))
        lo = F(int(rng.integers(-5, 6)))
        rows = [(tuple(coeffs), "<=", lo), (tuple(coeffs), ">=", lo + gap)]
        assert feasible_point(n, rows) is None
