"""Feasibility deciders: epsilon-optimal sets, PL rows, exact LP verdicts,
the no-signaling polytope, and the SDP bracket over POVMs.

The binary quantum instance |0> vs |+> has its feasibility threshold at
delta* = (1 - sqrt(2)/2)/2 ~ 0.146447: below it no POVM works (Helstrom),
above it one does.  Tests probe both sides, pin the bracket [lo, hi] to
closed forms, and re-check every dual certificate without the solver.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from plab import simplex
from plab.feasibility import (
    LinearConstraint,
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
from plab.quantum import DensityMatrix, ResourceCapError, delta_min, random_density_matrix, tensor_power
from plab.tasks import TaskSpec

F = Fraction
IDENTITY_TASK = TaskSpec(["t0", "t1"], ["h0", "h1"], [[1, 0], [0, 1]])
KET0 = DensityMatrix.pure([1.0, 0.0])
KET1 = DensityMatrix.pure([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])
DELTA_STAR = (1.0 - math.sqrt(0.5)) / 2.0


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

    def test_large_epsilon_admits_everything(self):
        got = epsilon_optimal_sets(IDENTITY_TASK, 1)
        assert got == {"t0": ("h0", "h1"), "t1": ("h0", "h1")}

    def test_ties_at_the_optimum(self):
        task = TaskSpec(["t"], ["h0", "h1"], [["0.9", "0.9"]])
        assert epsilon_optimal_sets(task, "0.05")["t"] == ("h0", "h1")

    def test_never_empty(self):
        task = TaskSpec(["t"], ["h0", "h1"], [["0.1", "0.3"]])
        assert epsilon_optimal_sets(task, "1/100")["t"] == ("h1",)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            epsilon_optimal_sets(IDENTITY_TASK, 0)


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
                for c in list(kernel_polytope(task).constraints) + list(rows):
                    assert c.satisfied_by(point)

    def test_witness_violating_only_a_sign_bound_is_refused(self, monkeypatch):
        # the simplex reads q >= 0 rows as bounds; the re-check still reads them
        # as rows: (2, -1 | 0, 1) meets every row but q[h1|t0] >= 0
        monkeypatch.setattr(simplex, "feasible_point", lambda n, rows: ([F(2), F(-1), F(0), F(1)], 0))
        rows = build_pl_constraints(IDENTITY_TASK, F(1, 2), F(1, 5))
        with pytest.raises(AssertionError, match="violates 1 constraints"):
            lp_feasible(kernel_polytope(IDENTITY_TASK), rows)

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

    def test_dimension_cap_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("PLAB_DIM_CAP", "8")
        with pytest.raises(ResourceCapError, match="2\\^4 exceeds cap 8"):
            sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.2", d=4)
        assert sdp_feasible([KET0, PLUS], IDENTITY_TASK, F(1, 2), "0.08", d=3).verdict == "feasible"


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
    @pytest.mark.parametrize("d", range(1, 7))
    def test_pair_bracket_meets_the_closed_form(self, gamma, d):
        pair = [KET0, DensityMatrix.pure([gamma, math.sqrt(1 - gamma * gamma)])]
        res = sdp_feasible(pair, IDENTITY_TASK, F(1, 2), 0, d=d)
        assert res.verdict == "infeasible"
        p_star = 1 - delta_min(gamma, d)
        assert abs(res.lo - p_star) <= 1e-9 and abs(res.hi - p_star) <= 1e-9
        check_certificate(res, pair, IDENTITY_TASK, d)

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


class TestLinearConstraintJson:
    def test_roundtrip(self):
        row = LinearConstraint((F(1, 3), F(-2)), "<=", F(7, 5))
        again = LinearConstraint.from_json(row.to_json())
        assert again == row
        assert again.to_json() == {"coeffs": ["1/3", "-2"], "relation": "<=", "rhs": "7/5"}

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            LinearConstraint((F(1),), "<", F(0))
