"""Feasibility deciders: epsilon-optimal sets, PL rows, exact LP verdicts,
the no-signaling polytope, and the SDP bracket over POVMs.

The binary quantum instance |0> vs |+> has its feasibility threshold at
delta* = (1 - sqrt(2)/2)/2 ~ 0.146447: below it no POVM works (Helstrom),
above it one does.  Tests probe both sides, pin the bracket [lo, hi] to
closed forms, and re-check every dual certificate without the solver.
"""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab import cli, feasibility, simplex
from plab.feasibility import (
    LinearConstraint,
    _violated,
    PolytopeSpec,
    affine_dimension,
    build_pl_constraints,
    epsilon_optimal_sets,
    kernel_polytope,
    kernel_variables,
    lp_feasible,
    no_signaling_polytope,
    sdp_feasible,
)
from plab.quantum import DensityMatrix, Povm, ResourceCapError, delta_min, tensor_power
from plab.tasks import TaskSpec
import oracles
from random_fixtures import random_density_matrix, random_pure_state

F = Fraction
IDENTITY_TASK = TaskSpec(["t0", "t1"], ["h0", "h1"], [[1, 0], [0, 1]])
KET0 = DensityMatrix.pure([1.0, 0.0])
KET1 = DensityMatrix.pure([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])


def dense_row(task, coeffs_by_name, rel, rhs):
    names = kernel_variables(task)
    row = [F(0)] * len(names)
    for name, c in coeffs_by_name.items():
        row[names.index(name)] = F(c)
    return LinearConstraint(tuple(row), rel, F(rhs))


def constant_kernel_polytope(task):
    """Kernel simplex plus rows forcing q[.|t] to be the same for all t."""
    poly = kernel_polytope(task)
    extra = [
        dense_row(task, {f"q[{h}|{task.thetas[0]}]": 1, f"q[{h}|{t}]": -1}, "=", 0)
        for t in task.thetas[1:]
        for h in task.hyps
    ]
    return PolytopeSpec(poly.variables, tuple(poly.constraints) + tuple(extra))


class TestEpsilonOptimalSets:
    def test_identity_task_isolates_the_diagonal(self):
        assert epsilon_optimal_sets(IDENTITY_TASK, F(1, 2)) == {
            "t0": ("h0",),
            "t1": ("h1",),
        }

    def test_epsilon_of_one_is_refused(self):
        # the accuracy rule: epsilon lies in (0, 1)
        for epsilon in (1, "3/2"):
            with pytest.raises(ValueError, match="epsilon in \\(0,1\\)"):
                epsilon_optimal_sets(IDENTITY_TASK, epsilon)

    def test_ties_at_the_optimum(self):
        task = TaskSpec(["t"], ["h0", "h1"], [["0.9", "0.9"]])
        assert epsilon_optimal_sets(task, "0.05")["t"] == ("h0", "h1")

    def test_never_empty(self):
        task = TaskSpec(["t"], ["h0", "h1"], [["0.1", "0.3"]])
        assert epsilon_optimal_sets(task, "1/100")["t"] == ("h1",)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_optimal_sets(IDENTITY_TASK, 0)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_integer_cut_is_the_rational_definition(self, data):
        """Rows of mixed denominators up to 10^12.  A utility is drawn freely,
        or put exactly on the cut max(row) - eps, or one 10^-12-sized step
        either side of it, where a strict, rounded or one-denominator cut errs."""
        big = 10**12
        unit = st.integers(1, big).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
        eps = data.draw(st.integers(2, big).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))))
        n_h = data.draw(st.integers(1, 6))
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            row = data.draw(st.lists(unit, min_size=n_h, max_size=n_h))
            top = max(row)
            for j, place in enumerate(data.draw(st.lists(st.sampled_from("free on below above".split()),
                                                         min_size=n_h, max_size=n_h))):
                step = F(1, data.draw(st.integers(1, big)))
                u = top - eps + {"free": row[j] - top + eps, "on": 0, "below": -step, "above": step}[place]
                if row[j] != top and 0 <= u < top:  # the row keeps its maximum
                    row[j] = u
            rows.append(row)
        thetas, hyps = [f"t{i}" for i in range(len(rows))], [f"h{j}" for j in range(n_h)]
        task = TaskSpec(thetas, hyps, rows)
        assert [[F(n, s) for n in nums] for s, nums in zip(task.scales, task.iutility)] == rows
        assert epsilon_optimal_sets(task, eps) == oracles.epsilon_optimal_sets(thetas, hyps, rows, eps)


class TestPlConstraints:
    def test_one_row_per_environment_with_exact_rhs(self):
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), "0.2")
        assert len(rows) == 2
        assert all(r.relation == ">=" for r in rows)
        assert all(r.rhs == F(4, 5) for r in rows)
        # row for t0 selects q[h0|t0] only
        assert rows[0].coeffs == (F(1), F(0), F(0), F(0))
        assert rows[1].coeffs == (F(0), F(0), F(0), F(1))

    def test_delta_zero_forces_full_mass(self):
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), 0)
        assert all(r.rhs == 1 for r in rows)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            build_pl_constraints(IDENTITY_TASK, 0, F(1, 5))
        with pytest.raises(ValueError):
            build_pl_constraints(IDENTITY_TASK, F(1, 2), 1)


class TestKernelPolytope:
    def test_row_counts(self):
        poly = kernel_polytope(IDENTITY_TASK)
        assert len(poly.variables) == 4
        nonneg = [c for c in poly.constraints if c.relation == ">="]
        rowsum = [c for c in poly.constraints if c.relation == "="]
        assert len(nonneg) == 4 and len(rowsum) == 2

    def test_variable_order_is_environment_major(self):
        assert kernel_variables(IDENTITY_TASK) == (
            "q[h0|t0]", "q[h1|t0]", "q[h0|t1]", "q[h1|t1]",
        )

    def test_json_roundtrip(self):
        poly = kernel_polytope(IDENTITY_TASK)
        again = PolytopeSpec.from_json(poly.to_json())
        assert again == poly

    def test_constraint_arity_validated(self):
        with pytest.raises(ValueError):
            PolytopeSpec(("x",), (LinearConstraint((F(1), F(1)), "<=", F(1)),))

    def test_variable_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            PolytopeSpec(("x", "y", "x"), ())


class TestLpFeasible:
    def test_identity_instance_feasible_with_exact_witness(self):
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), "0.2")
        res = lp_feasible(kernel_polytope(IDENTITY_TASK), rows)
        assert res.feasible
        assert res.witness["q[h0|t0]"] >= F(4, 5)
        assert res.witness["q[h1|t1]"] >= F(4, 5)
        for t in IDENTITY_TASK.thetas:
            assert sum(res.witness[f"q[{h}|{t}]"] for h in IDENTITY_TASK.hyps) == 1

    def test_constant_kernel_instance_infeasible(self):
        # a theta-independent kernel cannot give 4/5 to both diagonal cells
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), "0.2")
        res = lp_feasible(constant_kernel_polytope(IDENTITY_TASK), rows)
        assert not res.feasible and res.witness is None

    def test_constant_kernel_feasible_once_delta_crosses_half(self):
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), F(1, 2))
        assert lp_feasible(constant_kernel_polytope(IDENTITY_TASK), rows).feasible

    def test_relaxation_monotonicity_in_delta(self):
        deltas = [F(k, 10) for k in range(0, 10)]
        verdicts = [
            lp_feasible(
                constant_kernel_polytope(IDENTITY_TASK),
                build_pl_constraints(IDENTITY_TASK, F(1, 2), dl),
            ).feasible
            for dl in deltas
        ]
        # once feasible, stays feasible as delta grows
        first = verdicts.index(True)
        assert all(verdicts[first:])
        assert not any(verdicts[:first])

    def test_witness_respects_every_constraint(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_t, n_h = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            util = [[F(int(v), 12) for v in rng.integers(0, 13, n_h)] for _ in range(n_t)]
            task = TaskSpec([f"t{i}" for i in range(n_t)], [f"h{j}" for j in range(n_h)], util)
            rows = build_pl_constraints(task, F(1, 4), F(1, 5))
            res = lp_feasible(kernel_polytope(task), rows)
            if res.feasible:
                point = [res.witness[v] for v in kernel_variables(task)]
                assert _violated(kernel_polytope(task).constraints + rows, point) == []

    def test_witness_violating_only_a_sign_bound_is_refused(self, monkeypatch):
        # the simplex reads q >= 0 rows as bounds; the re-check still reads them
        # as rows: (2, -1 | 0, 1) meets every row but q[h1|t0] >= 0
        monkeypatch.setattr(simplex, "feasible_point", lambda n, rows: ([F(2), F(-1), F(0), F(1)], 0))
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), F(1, 5))
        with pytest.raises(AssertionError, match="violates 1 constraints"):
            lp_feasible(kernel_polytope(IDENTITY_TASK), rows)
        # a row with fractional coefficients, missed by 1/30: the point
        # (5/6, 1/6 | 0, 1) gives 1/3*5/6 + 1/5*1/6 = 14/45 on it
        point = [F(5, 6), F(1, 6), F(0), F(1)]
        monkeypatch.setattr(simplex, "feasible_point", lambda n, rows: (point, 0))
        tight = LinearConstraint((F(1, 3), F(1, 5), 0, 0), ">=", F(14, 45))
        assert lp_feasible(kernel_polytope(IDENTITY_TASK), [*rows, tight]).witness["q[h0|t0]"] == F(5, 6)
        missed = LinearConstraint((F(1, 3), F(1, 5), 0, 0), ">=", F(14, 45) + F(1, 30))
        with pytest.raises(AssertionError, match=r"violates 1 constraints \(first: row 8, >=\)"):
            lp_feasible(kernel_polytope(IDENTITY_TASK), [*rows, missed])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lp_feasible(kernel_polytope(IDENTITY_TASK), [LinearConstraint((F(1),), ">=", F(0))])


class TestNoSignalingPolytope:
    def test_binary_scenario_row_counts(self):
        poly = no_signaling_polytope(2, 2, 2, 2)
        assert len(poly.variables) == 16
        nonneg = [c for c in poly.constraints if c.relation == ">="]
        eqs = [c for c in poly.constraints if c.relation == "="]
        # 4 normalization rows + 4 + 4 marginal-agreement rows
        assert len(nonneg) == 16
        assert len(eqs) == 12

    def test_affine_dimension_is_eight(self):
        poly = no_signaling_polytope(2, 2, 2, 2)
        assert affine_dimension(poly) == 8

    def test_affine_dimension_matches_float_rank(self):
        poly = no_signaling_polytope(2, 2, 2, 2)
        eq = np.array(
            [[float(c) for c in row.coeffs] for row in poly.constraints if row.relation == "="]
        )
        assert affine_dimension(poly) == 16 - np.linalg.matrix_rank(eq)

    def test_uniform_box_is_inside(self):
        poly = no_signaling_polytope(2, 2, 2, 2)
        rows = [(c.coeffs, c.relation, c.rhs) for c in poly.constraints]
        res = lp_feasible(poly)
        assert res.feasible
        assert sum(res.witness.values()) == 4  # one unit per setting pair

    def test_alphabet_sizes_validated(self):
        with pytest.raises(ValueError):
            no_signaling_polytope(0, 2, 2, 2)

    def test_asymmetric_scenario(self):
        poly = no_signaling_polytope(3, 2, 2, 1)
        assert len(poly.variables) == 3 * 2 * 2 * 1
        assert affine_dimension(poly) >= 1


class TestSdpFeasible:
    def test_orthogonal_states_feasible_at_delta_zero(self):
        res = sdp_feasible([KET0, KET1], IDENTITY_TASK, F(1, 2), 0)
        assert res.verdict == "feasible"
        vals = [
            float(np.trace(res.witness.elements[i] @ [KET0, KET1][i].mat).real) for i in (0, 1)
        ]
        assert min(vals) >= 1 - 1e-6

    def test_common_optimum_shortcut(self):
        task = TaskSpec(["t0", "t1"], ["h0", "h1"], [["1", "0"], ["1", "1/4"]])
        res = sdp_feasible([KET0, PLUS], task, F(1, 2), 0)
        assert res.verdict == "feasible"
        assert res.certificate == "common-optimum"

    @pytest.mark.parametrize("epsilon, certificate", [(F(1, 999999937), "common-optimum"),
                                                      (F(1, 999999938), "weak-duality")])
    def test_the_epsilon_cut_is_exact_and_not_strict(self, epsilon, certificate):
        """h1 sits exactly 1/999999937 below the maximum 1/5 of both rows: at that epsilon it is
        epsilon-optimal in both environments and the all-h1 POVM decides the run.  A strict cut, or one
        in floats, leaves h1 out, as epsilon = 1/999999938 does, and the SDP then ends on weak duality."""
        u = "999999932/4999999685"
        task = TaskSpec(["t0", "t1"], ["h0", "h1", "h2"], [["1/5", u, "0"], ["0", u, "1/5"]])
        assert sdp_feasible([KET0, PLUS], task, epsilon, F(1, 100)).certificate == certificate

    def test_below_threshold_certified_infeasible(self):
        res = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.10")
        assert res.verdict == "infeasible"
        assert res.certificate == "weak-duality" and res.hi < 0.9

    def test_above_threshold_finds_witness(self):
        res = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.15")
        assert res.verdict == "feasible"
        assert res.lo >= 0.85
        # witness is a genuine POVM meeting both performance rows
        w = res.witness
        total = sum(w.elements)
        assert np.allclose(total, np.eye(2), atol=1e-9)
        p0 = float(np.trace(w.elements[0] @ KET0.mat).real)
        p1 = float(np.trace(w.elements[1] @ PLUS.mat).real)
        assert min(p0, p1) >= 0.85 - 1e-6

    def test_verdicts_monotone_in_delta(self):
        verdicts = [
            sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), F(k, 40)).verdict
            for k in range(0, 14)
        ]
        # k/40 crosses delta* ~ 0.1464 between k=5 and k=6
        assert set(verdicts[:6]) == {"infeasible"}
        assert set(verdicts[6:]) == {"feasible"}

    def test_multicopy_threshold_drops(self):
        # with two copies the same delta flips to feasible
        one = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.08", d=1)
        two = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.08", d=2)
        assert one.verdict == "infeasible"
        assert two.verdict == "feasible"

    def test_three_environment_instance(self):
        # optimal worst-case mass is 1/2 (M0 = a|0><0|, M1 = a|1><1|,
        # M2 = (1-a)I gives min(a, 1-a)); delta on either side decides it
        task = TaskSpec(
            ["t0", "t1", "t2"],
            ["h0", "h1", "h2"],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        )
        states = [KET0, KET1, DensityMatrix.maximally_mixed(2)]
        assert sdp_feasible(states, task, F(1, 2), F(55, 100)).verdict == "feasible"
        assert sdp_feasible(states, task, F(1, 2), F(45, 100)).verdict == "infeasible"

    def test_determinism(self):
        a = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.2")
        b = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.2")
        assert (a.verdict, a.sweeps, a.lo, a.hi, a.weights) == (
            b.verdict, b.sweeps, b.lo, b.hi, b.weights)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sdp_feasible([KET0], IDENTITY_TASK, F(1, 2), F(1, 5))
        with pytest.raises(ValueError):
            sdp_feasible([KET0, DensityMatrix.maximally_mixed(3)], IDENTITY_TASK, F(1, 2), F(1, 5))
        with pytest.raises(ValueError):
            sdp_feasible([KET0, KET1], IDENTITY_TASK, F(1, 2), 1)

    @pytest.mark.parametrize("epsilon", [1, 2])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # same rule as build_pl_constraints; a large epsilon would otherwise
        # make every hypothesis common-optimal and report "feasible"
        with pytest.raises(ValueError, match="epsilon in"):
            sdp_feasible([KET0, KET1], IDENTITY_TASK, epsilon, F(1, 5))
        with pytest.raises(ValueError, match="epsilon in"):
            build_pl_constraints(IDENTITY_TASK, epsilon, F(1, 5))

    def test_dimension_cap_ignores_the_environment(self, monkeypatch):
        # PLAB_DIM_CAP once set the cap; the cap is now the constant quantum.DIM_CAP
        monkeypatch.setenv("PLAB_DIM_CAP", "8")
        assert sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.08", d=4).verdict == "feasible"
        monkeypatch.setenv("PLAB_DIM_CAP", "4096")
        with pytest.raises(ResourceCapError, match="2\\^11 exceeds cap 1024"):
            sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.2", d=11)


def identity_task(n):
    return TaskSpec([f"t{i}" for i in range(n)], [f"h{i}" for i in range(n)],
                    [[int(i == j) for j in range(n)] for i in range(n)])


def check_certificate(res, states, task, d=1):
    """Re-check the weak-duality certificate behind res.hi without the solver:
    weights y on the simplex, Z Hermitian with Z >= A_h(y) for every h, and
    tr Z = hi."""
    y = np.array(res.weights)
    assert y.min() >= 0 and abs(y.sum() - 1) <= 1e-12
    z = res.dual
    assert np.array_equal(z, z.conj().T)
    rhos = [tensor_power(s, d).mat for s in states]
    good = epsilon_optimal_sets(task, F(1, 2))
    for h in task.hyps:
        a = sum(w * r for w, r, t in zip(y, rhos, task.thetas) if h in good[t])
        assert np.linalg.eigvalsh(z - a).min() >= -1e-12
    assert abs(np.trace(z).real - res.hi) <= 1e-12


class TestSdpBracket:
    def test_rotated_trine_threshold_on_both_sides(self):
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        trine = [
            DensityMatrix(u @ DensityMatrix.pure([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]).mat
                          @ u.conj().T)
            for k in range(3)
        ]
        task = identity_task(3)
        above = sdp_feasible(trine, task, F(1, 2), F(1, 3) + F(1, 10**6))
        below = sdp_feasible(trine, task, F(1, 2), F(1, 3) - F(1, 10**6))
        assert above.verdict == "feasible" and below.verdict == "infeasible"
        worst = min(float(np.trace(m @ r.mat).real) for m, r in zip(above.witness.elements, trine))
        assert worst >= 2 / 3 - 1e-6
        for res in (above, below):
            check_certificate(res, trine, task)

    @pytest.mark.parametrize("gamma", [0.85, 0.92])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_pair_bracket_meets_the_closed_form(self, gamma, d):
        pair = [KET0, DensityMatrix.pure([gamma, math.sqrt(1 - gamma * gamma)])]
        res = sdp_feasible(pair, IDENTITY_TASK, F(1, 2), 0, d=d)
        assert res.verdict == "infeasible"
        p_star = 1 - delta_min(gamma, d)
        assert abs(res.lo - p_star) <= 1e-9 and abs(res.hi - p_star) <= 1e-9
        check_certificate(res, pair, IDENTITY_TASK, d)

    def test_a_six_copy_pure_pair_is_decided_as_a_2x2_problem(self, monkeypatch):
        # the steps see the states' joint support; the report is 64 x 64
        shapes, step = set(), feasibility._jrf_step
        monkeypatch.setattr(feasibility, "_jrf_step", lambda a, m: shapes.add(m.shape) or step(a, m))
        res = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.2", d=6)
        assert shapes == {(2, 2, 2)}
        assert res.verdict == "feasible" and res.witness.dim == 64 and res.dual.shape == (64, 64)
        check_certificate(res, [KET0, PLUS], IDENTITY_TASK, 6)

    def test_states_just_off_their_support_stay_dense(self, monkeypatch):
        # (1, +-t): the sum of the states has eigenvalue ~2t^2 < _SUPPORT_TOL times
        # its largest, but the states differ by t off that support; decided on the
        # 1-dimensional support, hi would fall below p* = (1 + 2t/(1+t^2))/2
        t = math.sqrt(1e-13)
        pair = [DensityMatrix.pure([1.0, t]), DensityMatrix.pure([1.0, -t])]
        shapes, step = set(), feasibility._jrf_step
        monkeypatch.setattr(feasibility, "_jrf_step", lambda a, m: shapes.add(m.shape) or step(a, m))
        res = sdp_feasible(pair, IDENTITY_TASK, F(1, 2), 0)
        assert shapes == {(2, 2, 2)}
        assert res.hi >= (1 + 2 * t / (1 + t * t)) / 2
        check_certificate(res, pair, IDENTITY_TASK)

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_deficient_families_lift_to_the_full_space(self, seed):
        # 2-4 pure states in C^2 or C^3, or (every fourth seed) a rank-2 mixed
        # pair in C^4: the d-copy states span fewer than dim^d dimensions
        rng = np.random.default_rng(1000 + seed)
        if seed % 4 == 3:
            isometries = [np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
                          for _ in range(2)]
            states = [DensityMatrix(v @ np.diag([p, 1 - p]) @ v.conj().T)
                      for v, p in zip(isometries, rng.uniform(0.2, 0.8, 2))]
        else:
            dim, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            states = [DensityMatrix.pure(random_pure_state(dim, rng)) for _ in range(n)]
        task = identity_task(len(states))
        for d in (1, 2, 3):
            first = sdp_feasible(states, task, F(1, 2), 0, d=d)
            # the steps do not depend on delta: a target just under first.lo is
            # met, and one above first.hi refuted, by the step that ended first
            delta = F(1 - first.lo) + F(1, 10**6)
            above = sdp_feasible(states, task, F(1, 2), delta, d=d)
            below = sdp_feasible(states, task, F(1, 2), F((1 - first.hi) / 2), d=d)
            assert (first.verdict, above.verdict, below.verdict) == ("infeasible", "feasible", "infeasible")
            rhos = [tensor_power(s, d).mat for s in states]
            elements = above.witness.elements
            assert Povm(elements).dim == len(rhos[0])
            worst = min(float(np.trace(e @ r).real) for e, r in zip(elements, rhos))
            assert worst >= 1 - float(delta) - 1e-6
            for res in (first, above, below):
                assert res.lo <= res.hi
                check_certificate(res, states, task, d)

    def test_common_optimum_blocks_are_full_size(self):
        task = TaskSpec(["t0", "t1"], ["h0", "h1"], [["1", "0"], ["1", "1/4"]])
        res = sdp_feasible([KET0, PLUS], task, F(1, 2), 0, d=2)
        assert res.certificate == "common-optimum"
        assert [e.shape for e in res.witness.elements] == [(4, 4), (4, 4)]

    def test_a_lifted_witness_that_fails_its_check_is_an_assertion(self, monkeypatch):
        # the loop checks each r x r candidate; the lift is checked again on the
        # full space, and a failure there is a decider bug, not a plab: error line
        real = feasibility.Povm

        def povm(elements, labels=None):
            if np.shape(elements)[-1] == 4:
                raise ValueError("POVM elements do not sum to the identity within 1e-10")
            return real(elements, labels)

        monkeypatch.setattr(feasibility, "Povm", povm)
        with pytest.raises(AssertionError, match="lifted witness is not a POVM"):
            sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.15", d=2)
        data = Path(__file__).with_name("data")
        with pytest.raises(AssertionError, match="lifted witness is not a POVM"):
            cli.main(["feasible", "sdp", "--task", str(data / "task_identity.json"), "--states",
                      str(data / "states"), "--copies", "2", "--epsilon", "1/2", "--delta", "3/20"])

    def test_sqrt2_overlap_pair_bracket(self):
        res = sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), 0)
        p_star = (1 + math.sqrt(0.5)) / 2
        assert res.lo <= res.hi
        assert abs(res.lo - p_star) <= 1e-9 and abs(res.hi - p_star) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_random_full_rank_brackets_never_cross(self, seed):
        rng = np.random.default_rng(seed)
        dim, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        states = [random_density_matrix(dim, rng) for _ in range(n)]
        task = identity_task(n)
        first = sdp_feasible(states, task, F(1, 2), 0)
        middle = F((first.lo + first.hi) / 2).limit_denominator(10**9)
        deltas = (0, 1 - middle, F(3, 4))
        results = [first] + [sdp_feasible(states, task, F(1, 2), dl) for dl in deltas[1:]]
        for res, dl in zip(results, deltas):
            target = 1 - float(dl)
            assert res.lo <= res.hi
            if res.verdict == "feasible":
                assert res.lo >= target
            elif res.verdict == "infeasible":
                assert res.hi < target
            else:
                assert res.lo < target <= res.hi
            check_certificate(res, states, task)
        assert max(r.lo for r in results) <= min(r.hi for r in results)


def steps_and_result(states, delta=0):
    """The shapes of the POVM iterates (n_h, r, r) the steps saw, and the result."""
    shapes, step = set(), feasibility._jrf_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "_jrf_step", lambda a, m: shapes.add(m.shape) or step(a, m))
        res = sdp_feasible(states, IDENTITY_TASK, F(1, 2), delta)
    return shapes, res


def diagonal_pair(e):
    """Two 16 x 16 diagonal states on disjoint coordinates, 0..7 and 8..14, each with weight e
    on coordinate 15: the states' sum has its smallest eigenvalue at 14e times its largest, and
    each state lies e off the support that drops coordinate 15."""
    a, b = np.zeros(16), np.zeros(16)
    a[:8], b[8:15], a[15], b[15] = (1 - e) / 8, (1 - e) / 7, e, e
    return [DensityMatrix(np.diag(a)), DensityMatrix(np.diag(b))]


def off_support_pair(t):
    """(1, +-t), whose sum has eigenvalue ~2t^2 (dropped by the support cut) and whose
    states lie sqrt(2)*t off that 1-dimensional support."""
    return [DensityMatrix.pure([1.0, t]), DensityMatrix.pure([1.0, -t])]


class TestTolerancesFromBothSides:
    """_SUPPORT_TOL and _EIG_MARGIN, each with an input 5x outside its cut, on
    the dense path (a cut loosened 10x would take the support path), and a
    legitimate input at least 2x inside it, on the support path (a cut
    tightened 10x would keep it dense)."""

    def test_constants(self):
        assert (feasibility._SUPPORT_TOL, feasibility._EIG_MARGIN) == (1e-12, 1e-12)

    def test_an_eigenvalue_at_5e_12_of_the_largest_stays_in_the_support(self):
        shapes, res = steps_and_result(diagonal_pair(5e-12 / 14), "1/10")
        assert shapes == {(2, 16, 16)} and res.verdict == "feasible" and res.witness.dim == 16

    def test_an_eigenvalue_at_5e_13_of_the_largest_is_off_the_support(self):
        # rounding-level weight on a 16th coordinate: decided on the other 15
        shapes, res = steps_and_result(diagonal_pair(5e-13 / 14), "1/10")
        assert shapes == {(2, 15, 15)} and res.verdict == "feasible" and res.witness.dim == 16

    def test_states_2_5e_12_off_their_support_stay_dense(self):
        # the residual past the support cut is 5x _EIG_MARGIN / 2
        states = off_support_pair(2.5e-12 / math.sqrt(2))
        shapes, res = steps_and_result(states)
        assert shapes == {(2, 2, 2)}
        check_certificate(res, states, IDENTITY_TASK)

    def test_states_2e_13_off_their_support_are_decided_on_it(self):
        states = off_support_pair(2e-13 / math.sqrt(2))
        shapes, res = steps_and_result(states)
        assert shapes == {(2, 1, 1)} and res.dual.shape == (2, 2)
        check_certificate(res, states, IDENTITY_TASK)

    def test_a_lifted_certificate_on_the_margin_dominates_in_exact_arithmetic(self):
        # 4.2e-13 off the support, just inside the cut: Z is lifted from the support, and
        # Z - A_h(y), with A_h(y) = y_i rho_i for the identity task's h_i, is checked in
        # 50-digit arithmetic from the floats of Z, y and the states
        states = off_support_pair(3e-13)
        shapes, res = steps_and_result(states)
        assert shapes == {(2, 1, 1)}
        margin, worst = feasibility._EIG_MARGIN, []
        with mpmath.workdps(50):
            z = mpmath.matrix(res.dual.tolist())
            for y, s in zip(res.weights, states):
                a = mpmath.mpf(y) * mpmath.matrix(s.mat.tolist())
                worst.append(min(mpmath.re(e) for e in mpmath.eigh(z - a, eigvals_only=True)))
        assert margin / 2 <= min(worst) < margin


class TestLinearConstraintJson:
    def test_roundtrip(self):
        row = LinearConstraint((F(1, 3), F(-2)), "<=", F(7, 5))
        again = LinearConstraint.from_json(row.to_json())
        assert again == row
        assert again.to_json() == {"coeffs": ["1/3", "-2"], "relation": "<=", "rhs": "7/5"}

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            LinearConstraint((F(1),), "<", F(0))


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=30)


class TestLinearConstraintIntegerForm:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), arity=st.integers(1, 6), relation=st.sampled_from(simplex.RELATIONS))
    def test_integer_form_agrees_with_the_rational_row(self, data, arity, relation):
        coeffs = data.draw(st.lists(RATIONALS | st.just(F(0)), min_size=arity, max_size=arity))
        x = data.draw(st.lists(RATIONALS, min_size=arity, max_size=arity))
        lhs = sum(c * v for c, v in zip(coeffs, x))
        rhs = data.draw(RATIONALS | st.just(lhs))  # lhs itself makes "=" hold
        literals = [data.draw(st.sampled_from([c, str(c)])) for c in coeffs]
        row = LinearConstraint(literals, relation, str(rhs))
        assert row.scale == math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        assert row.iterms == tuple((j, row.scale * c) for j, c in enumerate(coeffs) if c)
        assert row.irhs == row.scale * rhs
        assert (row.coeffs, row.rhs) == (tuple(coeffs), rhs)
        want = {"<=": lhs <= rhs, "=": lhs == rhs, ">=": lhs >= rhs}[relation]
        assert (_violated((row,), x) == []) is want

    def test_rows_built_as_integers_equal_their_parsed_rational_rows(self):
        task = TaskSpec(["t0", "t1", "t2"], ["h0", "h1"], [[1, F(2, 3)], [0, 1], [F(1, 2), F(1, 3)]])
        pl = build_pl_constraints(task, F(1, 3), F(2, 7))
        assert all(row.rhs == F(5, 7) and set(row.coeffs) == {0, 1} for row in pl)
        for row in kernel_polytope(task).constraints + pl + no_signaling_polytope(2, 3, 3, 2).constraints:
            assert LinearConstraint(row.coeffs, row.relation, row.rhs) == row


class TestLinearConstraintTerms:
    def test_dense_and_sparse_rows_agree(self):
        dense = LinearConstraint(["0", "1/2", 0, F(-3), 0.25], ">=", "1")
        assert dense.scale == 4 and dense.iterms == ((1, 2), (3, -12), (4, 1))
        assert dense.coeffs == (0, F(1, 2), 0, -3, F(1, 4))
