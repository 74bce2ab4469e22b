"""Exact phase-1 simplex: feasible points are exact rationals, infeasibility
is decided, unbounded directions don't confuse it."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import plab
from plab.feasibility import LinearConstraint
from plab.simplex import RELATIONS, feasible_point

F = Fraction


def solve(n, rows):
    """The point feasible_point finds for (coeffs, relation, rhs) rows, or None."""
    point, _ = feasible_point(n, [LinearConstraint(tuple(map(F, c)), rel, F(r)) for c, rel, r in rows])
    return point


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


@pytest.mark.parametrize("coeff, rhs, x", [
    pytest.param(0.1, 1, F(10), id="0.1-1"),
    pytest.param(1, 0.1, F(1, 10), id="1-0.1"),
    pytest.param(0.3, "0.1", F(1, 3), id="0.3-0.1"),
])
def test_numbers_read_as_linear_constraint_reads_them(coeff, rhs, x):
    row = LinearConstraint((coeff,), "=", rhs)
    assert row.rhs / row.coeffs[0] == x
    assert feasible_point(1, [row])[0] == [x]


@pytest.mark.parametrize("coeff, rhs", [(True, 1), (1, True)])
def test_bool_rejected_as_linear_constraint_rejects_it(coeff, rhs):
    with pytest.raises(TypeError, match="bool"):
        LinearConstraint((coeff,), "=", rhs)


def test_unknown_relation_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        LinearConstraint((F(1),), "!=", F(0))


def test_pivot_count_returned():
    assert feasible_point(2, []) == ([F(0), F(0)], 0)
    # one artificial leaves the basis for x_0: one pivot
    assert feasible_point(1, [LinearConstraint((F(2),), "=", F(4))]) == ([F(2)], 1)


def test_import_needs_no_numpy():
    src = str(Path(plab.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); sys.modules['numpy'] = None; import plab.simplex"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_without_numpy_installed_fails_at_import_time():
    """plab binds numpy lazily, but a missing numpy still fails ``import plab``, not a later call."""
    src = str(Path(plab.__file__).parents[1])
    code = (f"import os, sys; sys.path[:] = [{src!r}] + [p for p in sys.path if not os.path.isdir(os.path.join(p or '.', 'numpy'))]; "
            "import plab")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"


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
        pt = solve(n, rows)
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
        assert solve(n, rows) is None
