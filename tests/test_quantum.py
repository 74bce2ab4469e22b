"""States, measurements, discrimination bounds, and no-signaling checks.

Frozen numeric targets:
  * ||  |0><0| - |+><+|  ||_1 = sqrt(2)          (overlap 1/sqrt2, one copy)
  * two copies of the same pair: sqrt(3)
  * Helstrom success sum at gamma=1/sqrt2, d=1: 1 + sqrt(2)/2 = 1.7071067...
  * d_min(0.9, 0.05) = 8
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab.quantum import (
    CorrelationTable,
    DensityMatrix,
    Povm,
    ResourceCapError,
    check_no_signaling,
    copies_min,
    delta_min,
    dim_cap,
    discrimination_sum,
    helstrom,
    matrix_from_json,
    matrix_to_json,
    pure_distance_formula,
    pure_pair,
    quantum_correlation,
    tensor_power,
    trace_distance,
)
from random_fixtures import random_density_matrix, random_povm, random_pure_state

KET0 = DensityMatrix.pure([1.0, 0.0])
KET1 = DensityMatrix.pure([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])  # .pure normalizes


def overlap_pair(gamma):
    return KET0, DensityMatrix.pure([gamma, math.sqrt(max(0.0, 1.0 - gamma * gamma))])


class TestDensityMatrix:
    def test_accepts_valid_states(self):
        assert DensityMatrix.maximally_mixed(3).dim == 3
        assert DensityMatrix.basis_state(4, 2).mat[2, 2] == 1.0
        assert PLUS.mat[0, 1] == pytest.approx(0.5)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)
        with pytest.raises(ValueError, match="non-finite"):
            Povm([m, np.eye(2) - m])

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)

    def test_rejects_non_square_and_zero_ket(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            DensityMatrix.pure([0.0, 0.0])

    def test_entries_are_frozen(self):
        with pytest.raises(ValueError):
            KET0.mat[0, 0] = 0.3

    def test_json_roundtrip(self):
        rho = random_density_matrix(3, np.random.default_rng(0))
        again = DensityMatrix.from_json(rho.to_json())
        assert np.allclose(again.mat, rho.mat)

    def test_json_dim_mismatch(self):
        obj = KET0.to_json()
        obj["dim"] = 3
        with pytest.raises(ValueError):
            DensityMatrix.from_json(obj)

    @pytest.mark.parametrize("dim", [2.0, "2", True])
    def test_json_dim_must_be_an_int(self, dim):
        obj = KET0.to_json()
        obj["dim"] = dim
        with pytest.raises(TypeError, match="dim must be an integer"):
            DensityMatrix.from_json(obj)

    def test_complex_entries_survive_json(self):
        m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(again, m)


class TestPovm:
    def test_projective_pair(self):
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=("yes", "no"))
        assert p.dim == 2 and p.labels == ("yes", "no")

    def test_default_labels_are_indices(self):
        p = Povm([np.eye(2) / 2, np.eye(2) / 2])
        assert p.labels == (0, 1)

    def test_rejects_elements_not_summing_to_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            Povm([np.eye(2), np.eye(3)])

    def test_rejects_no_elements(self):
        with pytest.raises(ValueError, match="at least one element"):
            Povm([])

    def test_rejects_label_count_unlike_element_count(self):
        with pytest.raises(ValueError, match="one label per element"):
            Povm([np.eye(2) / 2, np.eye(2) / 2], labels=("only",))

    def test_json_roundtrip(self):
        p = random_povm(3, 4, np.random.default_rng(1))
        q = Povm.from_json(p.to_json())
        assert all(np.allclose(a, b) for a, b in zip(p.elements, q.elements))
        assert q.labels == p.labels


class TestTensorPower:
    def test_single_copy_is_identity_operation(self):
        assert tensor_power(KET0, 1) is KET0

    def test_two_copies_of_a_pure_state(self):
        got = tensor_power(PLUS, 2)
        assert got.dim == 4
        assert np.allclose(got.mat, np.full((4, 4), 0.25))

    def test_trace_stays_one(self):
        rho = random_density_matrix(3, np.random.default_rng(2))
        assert np.trace(tensor_power(rho, 3).mat).real == pytest.approx(1.0)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("PLAB_DIM_CAP", "8")
        with pytest.raises(ResourceCapError):
            tensor_power(KET0, 4)
        monkeypatch.setenv("PLAB_DIM_CAP", "16")
        assert tensor_power(KET0, 4).dim == 16

    def test_default_cap_is_1024(self):
        assert dim_cap() == 1024
        with pytest.raises(ResourceCapError):
            tensor_power(DensityMatrix.maximally_mixed(2), 11)

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("PLAB_DIM_CAP", "8")
        assert dim_cap() == 8
        with pytest.raises(ResourceCapError):
            tensor_power(KET0, 4)
        monkeypatch.setenv("PLAB_DIM_CAP", "32")
        assert tensor_power(KET0, 5).dim == 32

    def test_d_validated(self):
        with pytest.raises(ValueError):
            tensor_power(KET0, 0)

    def test_factor_within_tolerance_has_every_power_up_to_the_cap(self):
        # trace 1 + 9e-13 passes the 1e-12 check; the d-fold power has trace
        # (1 + 9e-13)^d and carries the factor's check instead of its own
        rho = DensityMatrix(np.diag([0.5 + 9e-13, 0.5]))
        kron = rho.mat
        for d in range(1, dim_cap().bit_length()):
            power = tensor_power(rho, d)
            assert np.array_equal(power.mat, kron) and not power.mat.flags.writeable
            kron = np.kron(kron, rho.mat)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_env_var_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("PLAB_DIM_CAP", raw)
        with pytest.raises(ValueError, match="PLAB_DIM_CAP must be a positive integer"):
            dim_cap()


class TestTraceDistance:
    def test_orthogonal_states_reach_two(self):
        assert trace_distance(KET0, KET1) == pytest.approx(2.0)

    def test_plus_vs_zero_is_sqrt2(self):
        assert trace_distance(KET0, PLUS) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetry_and_self_distance(self):
        rng = np.random.default_rng(3)
        a, b = (random_density_matrix(4, rng) for _ in range(2))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, a) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c = (random_density_matrix(3, rng) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(KET0, DensityMatrix.maximally_mixed(3))


class TestPureDistanceFormula:
    def test_two_copy_value_is_sqrt3(self):
        g = 1.0 / math.sqrt(2.0)
        assert pure_distance_formula(g, 2) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_matches_numeric_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            gamma = float(rng.random())
            d = int(rng.integers(1, 6))
            r0, r1 = overlap_pair(gamma)
            numeric = trace_distance(tensor_power(r0, d), tensor_power(r1, d))
            assert abs(numeric - pure_distance_formula(gamma, d)) < 1e-9

    def test_limits(self):
        assert pure_distance_formula(0.0, 1) == 2.0
        assert pure_distance_formula(1.0, 7) == 0.0

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            pure_distance_formula(1.5, 1)
        with pytest.raises(ValueError):
            pure_distance_formula(0.5, 0)


class TestHelstrom:
    def test_frozen_success_sum_at_sqrt2_overlap(self):
        r0, r1 = overlap_pair(1.0 / math.sqrt(2.0))
        achieved = discrimination_sum(helstrom(r0, r1)[0], r0, r1)
        assert achieved == pytest.approx(1.7071067811865475, abs=1e-9)

    def test_povm_saturates_bound_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4):
            for d in (1, 2):
                if dim**d > 16:
                    continue
                r0 = random_density_matrix(dim, rng)
                r1 = DensityMatrix.pure(random_pure_state(dim, rng))
                t0, t1 = tensor_power(r0, d), tensor_power(r1, d)
                povm, distance = helstrom(t0, t1)
                assert abs(discrimination_sum(povm, t0, t1) - (1.0 + 0.5 * distance)) < 1e-9

    def test_no_povm_beats_the_bound(self):
        rng = np.random.default_rng(7)
        r0, r1 = (tensor_power(r, 2) for r in overlap_pair(0.6))
        bound = 1.0 + 0.5 * helstrom(r0, r1)[1]
        for _ in range(100):
            m = random_povm(4, 2, rng)
            assert discrimination_sum(m, r0, r1) <= bound + 1e-9

    def test_orthogonal_states_fully_distinguishable(self):
        povm, distance = helstrom(KET0, KET1)
        assert 1.0 + 0.5 * distance == pytest.approx(2.0)
        assert discrimination_sum(povm, KET0, KET1) == pytest.approx(2.0)

    def test_two_outcome_required(self):
        p = Povm([np.eye(2) / 3, np.eye(2) / 3, np.eye(2) / 3])
        with pytest.raises(ValueError):
            discrimination_sum(p, KET0, KET1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            helstrom(KET0, DensityMatrix.maximally_mixed(3))

    def test_success_sum_rejects_a_povm_of_another_dimension(self):
        qutrit = Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match="POVM dimension does not match"):
            discrimination_sum(qutrit, KET0, KET1)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), d=st.integers(1, 8))
    def test_one_eigendecomposition_gives_distance_and_measurement(self, gamma, d):
        r0, r1 = (tensor_power(r, d) for r in overlap_pair(gamma))
        povm, distance = helstrom(r0, r1)
        assert abs(distance - trace_distance(r0, r1)) <= 1e-12
        assert abs(discrimination_sum(povm, r0, r1) - (1.0 + distance / 2.0)) <= 1e-9


class TestPurePair:
    def test_single_copy_states_are_the_pure_states(self):
        for gamma in (0.0, 0.3, 1.0 / math.sqrt(2.0), 0.9, 1.0):
            for got, want in zip(pure_pair(gamma, 1), overlap_pair(gamma)):
                assert np.array_equal(got.mat, want.mat)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.8, 0.9, 0.99, 1.0])
    def test_matches_the_dense_tensor_powers(self, gamma):
        for d in range(1, 9):
            p0, p1 = pure_pair(gamma, d)
            r0, r1 = (tensor_power(r, d) for r in overlap_pair(gamma))
            (pair_povm, pair_distance), (dense_povm, dense_distance) = helstrom(p0, p1), helstrom(r0, r1)
            assert abs(pair_distance - dense_distance) <= 1e-12
            assert abs(discrimination_sum(pair_povm, p0, p1) - discrimination_sum(dense_povm, r0, r1)) <= 1e-12

    @pytest.mark.parametrize("d", [11, 40, 1000])
    def test_beyond_the_dimension_cap(self, d):
        for gamma in (0.0, 0.5, 0.9, 0.99, 1.0):
            povm, distance = helstrom(*pure_pair(gamma, d))
            assert povm.dim == 2
            assert abs(distance - 2.0 * math.sqrt(1.0 - gamma ** (2 * d))) <= 1e-12

    def test_domain_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            pure_pair(1.5, 1)
        with pytest.raises(ValueError, match="d must be"):
            pure_pair(0.5, 0)


def mp_delta_min(gamma: float, d: int):
    """delta_min at 50 digits, in the stable form g / (2(1 + sqrt(1 - g))) with
    g = gamma^(2d): (1 - sqrt(1 - g))/2 loses every digit even at 50 digits
    once g < 1e-50."""
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma) ** (2 * d)
        return g / (2 * (1 + mpmath.sqrt(1 - g)))


class TestReliabilityBounds:
    def test_delta_min_closed_form(self):
        g = 1.0 / math.sqrt(2.0)
        assert delta_min(g, 1) == pytest.approx((1.0 - math.sqrt(0.5)) / 2.0, abs=1e-12)
        assert delta_min(0.0, 3) == 0.0

    def test_copy_threshold_at_ninety_percent_overlap(self):
        assert copies_min(0.9, 0.05) == 8
        # the error curve must cross 0.05 between 7 and 8 copies
        assert delta_min(0.9, 7) > 0.05 >= delta_min(0.9, 8)

    def test_copies_min_agrees_with_delta_min_scan(self):
        for gamma in (0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.99):
            for target in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
                want = 1
                while delta_min(gamma, want) > target:
                    want += 1
                assert copies_min(gamma, target) == want, (gamma, target)

    @settings(max_examples=400, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), d=st.integers(1, 400))
    def test_delta_min_matches_50_digit_mpmath(self, gamma, d):
        got = delta_min(gamma, d)
        want = float(mp_delta_min(gamma, d))
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-300), (gamma, d, got, want)

    def test_delta_min_does_not_cancel(self):
        # (1 - sqrt(1 - g))/2 printed 0.0 here, and 9.10012361022e-08 for the second
        assert delta_min(0.5, 30) == pytest.approx(2.168404344971e-19, rel=1e-12)
        assert f"{delta_min(0.3468, 7):.12g}" == "9.10012360842e-08"
        assert f"{delta_min(0.8, 40):.12g}" == "4.41711768146e-09"

    @settings(max_examples=400, deadline=None)
    @given(gamma=st.floats(0.05, 0.99), d=st.integers(1, 60),
           where=st.sampled_from(["below", "at", "above", "1e-10 below", "1e-10 above"]))
    def test_copies_min_settles_on_delta_min(self, gamma, d, where):
        at = delta_min(gamma, d)
        delta = {"below": math.nextafter(at, 0.0), "at": at, "above": math.nextafter(at, 1.0),
                 "1e-10 below": at * (1 - 1e-10), "1e-10 above": at * (1 + 1e-10)}[where]
        d_min = copies_min(gamma, delta)
        assert delta_min(gamma, d_min) <= delta
        assert d_min == 1 or delta < delta_min(gamma, d_min - 1)
        assert d_min == (d + 1 if where.endswith("below") else d)  # delta_min falls by >= 2% a copy here

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(1e-300, 1.0, exclude_max=True), delta=st.floats(1e-300, 0.5, exclude_max=True))
    def test_copies_min_is_the_least_d_anywhere(self, gamma, delta):
        d_min = copies_min(gamma, delta)
        assert delta_min(gamma, d_min) <= delta
        assert d_min == 1 or delta < delta_min(gamma, d_min - 1)

    @pytest.mark.parametrize("gamma", [0.5, 1 - 2**-53])
    @pytest.mark.parametrize("delta", [1e-310, 5e-324])
    def test_copies_min_returns_for_subnormal_delta(self, gamma, delta):
        """1/(4 delta (1 - delta)) overflows a float here.  Next to gamma = 1
        the answer is about 3e18 copies; at delta = 5e-324 the first guess
        is 1.4e15 copies above it, out of reach of unit steps."""
        d_min = copies_min(gamma, delta)
        assert delta_min(gamma, d_min) <= delta < delta_min(gamma, d_min - 1)

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError):
            copies_min(1.0, 0.05)
        with pytest.raises(ValueError):
            copies_min(0.0, 0.05)
        with pytest.raises(ValueError):
            copies_min(0.5, 0.5)


def measurement_at(theta: float) -> Povm:
    """Projective qubit measurement in the basis rotated by theta/2."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    v0, v1 = np.array([c, s]), np.array([-s, c])
    return Povm([np.outer(v0, v0).astype(complex), np.outer(v1, v1).astype(complex)])


def bell_state() -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return DensityMatrix.pure(v)


class TestCorrelationTable:
    def test_rejects_negative_and_unnormalized(self):
        bad = np.full((2, 2, 1, 1), 0.25)
        bad[0, 0, 0, 0] = -0.25
        bad[1, 1, 0, 0] = 0.75
        with pytest.raises(ValueError):
            CorrelationTable(bad)
        with pytest.raises(ValueError):
            CorrelationTable(np.full((2, 2, 1, 1), 0.3))

    def test_rejects_non_finite_entry(self):
        bad = np.full((2, 2, 1, 1), 0.25)
        bad[0, 0, 0, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationTable(bad)

    def test_needs_four_axes(self):
        with pytest.raises(ValueError):
            CorrelationTable(np.full((2, 2, 2), 0.25))


class TestQuantumCorrelation:
    def test_bell_state_computational_agreement(self):
        z = measurement_at(0.0)
        t = quantum_correlation(bell_state(), [z], [z])
        # perfectly correlated: p(a,b) = 1/2 iff a == b
        assert t.p[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert t.p[1, 1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert t.p[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_product_state_factorizes(self):
        rho = DensityMatrix(np.kron(PLUS.mat, KET0.mat))
        t = quantum_correlation(rho, [measurement_at(0.3)], [measurement_at(1.1)])
        pa = t.p.sum(axis=1)[:, 0, 0]
        pb = t.p.sum(axis=0)[:, 0, 0]
        assert np.allclose(t.p[:, :, 0, 0], np.outer(pa, pb), atol=1e-12)

    def test_tsirelson_settings_pass_no_signaling(self):
        alice = [measurement_at(0.0), measurement_at(math.pi / 2.0)]
        bob = [measurement_at(math.pi / 4.0), measurement_at(-math.pi / 4.0)]
        t = quantum_correlation(bell_state(), alice, bob)
        verdict = check_no_signaling(t)
        assert verdict.passed
        assert verdict.max_violation < 1e-12

    def test_dimension_composition_checked(self):
        with pytest.raises(ValueError):
            quantum_correlation(bell_state(), [measurement_at(0.0)], [Povm([np.eye(3)])])

    def test_alice_settings_must_share_an_outcome_count(self):
        with pytest.raises(ValueError, match="outcome counts must agree"):
            quantum_correlation(bell_state(), [measurement_at(0.0), Povm([np.eye(2)])], [measurement_at(0.0)])

    def test_alice_settings_must_share_a_local_dimension(self):
        qutrit = Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match="local dimensions must agree"):
            quantum_correlation(bell_state(), [measurement_at(0.0), qutrit], [measurement_at(0.0)])


class TestNoSignaling:
    def test_pr_box_is_no_signaling(self):
        p = np.zeros((2, 2, 2, 2))
        for a, b, x, y in np.ndindex(2, 2, 2, 2):
            if (a + b) % 2 == (x * y) % 2:
                p[a, b, x, y] = 0.5
        verdict = check_no_signaling(CorrelationTable(p))
        assert verdict.passed and verdict.max_violation == 0.0

    def test_planted_signaling_table_fails(self):
        # Alice's outcome copies Bob's setting: p(a,b|x,y) = [a==y][b==0]
        p = np.zeros((2, 2, 2, 2))
        for y in range(2):
            for x in range(2):
                p[y, 0, x, y] = 1.0
        verdict = check_no_signaling(CorrelationTable(p))
        assert not verdict.passed
        assert verdict.max_violation == pytest.approx(1.0)

    def test_random_quantum_tables_pass(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            alice = [random_povm(2, 2, rng) for _ in range(2)]
            bob = [random_povm(2, 2, rng) for _ in range(2)]
            t = quantum_correlation(rho, alice, bob)
            assert check_no_signaling(t).passed


class TestRandomEnsembles:
    def test_random_state_is_valid_and_reproducible(self):
        a = random_density_matrix(5, np.random.default_rng(42))
        b = random_density_matrix(5, np.random.default_rng(42))
        assert np.array_equal(a.mat, b.mat)

    def test_random_pure_state_normalized(self):
        v = random_pure_state(6, np.random.default_rng(43))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_random_povm_is_valid(self):
        p = random_povm(4, 3, np.random.default_rng(44))
        total = sum(p.elements)
        assert np.allclose(total, np.eye(4), atol=1e-10)

    def test_povm_outcomes_validated(self):
        with pytest.raises(ValueError):
            random_povm(2, 0, np.random.default_rng(0))
