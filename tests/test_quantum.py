"""States, measurements, discrimination bounds, and no-signaling checks.

Frozen numeric targets:
  * ||  |0><0| - |+><+|  ||_1 = sqrt(2)          (overlap 1/sqrt2, one copy)
  * two copies of the same pair: sqrt(3)
  * Helstrom success sum at gamma=1/sqrt2, d=1: 1 + sqrt(2)/2 = 1.7071067...
  * d_min(0.9, 0.05) = 8
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plab import quantum
from plab.feasibility import sdp_feasible
from plab.quantum import (
    DensityMatrix,
    Povm,
    ResourceCapError,
    copies_min,
    delta_min,
    helstrom,
    matrix_from_json,
    pure_distance_formula,
    pure_pair_helstrom,
    tensor_power,
    trace_distance,
)
from plab.tasks import TaskSpec
from oracles import born_table, discrimination_sum, pure_pair, signaling
from random_fixtures import random_density_matrix, random_povm, random_pure_state
from reference_writer import matrix_to_json

KET0 = DensityMatrix.pure([1.0, 0.0])
KET1 = DensityMatrix.pure([0.0, 1.0])
PLUS = DensityMatrix.pure([1.0, 1.0])  # .pure normalizes
KET0_ENTRIES = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def overlap_pair(gamma):
    return KET0, DensityMatrix.pure([gamma, math.sqrt(max(0.0, 1.0 - gamma * gamma))])


class TestDensityMatrix:
    def test_accepts_valid_states(self):
        assert DensityMatrix.maximally_mixed(3).dim == 3
        assert DensityMatrix.pure([0, 0, 1, 0]).mat[2, 2] == 1.0
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
        obj = {"dim": 2, "entries": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]}
        rho = DensityMatrix.from_json(obj)
        assert np.array_equal(rho.mat, [[0.5, -0.5j], [0.5j, 0.5]])
        assert {"dim": rho.dim, "entries": matrix_to_json(rho.mat)} == obj

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError, match="declared dim"):
            DensityMatrix.from_json({"dim": 3, "entries": KET0_ENTRIES})

    def test_json_dim_defaults_to_the_entries(self):
        assert np.array_equal(DensityMatrix.from_json({"entries": KET0_ENTRIES}).mat, KET0.mat)

    @pytest.mark.parametrize("dim", [2.0, "2", True])
    def test_json_dim_must_be_an_int(self, dim):
        with pytest.raises(TypeError, match="dim must be an integer"):
            DensityMatrix.from_json({"dim": dim, "entries": KET0_ENTRIES})

    def test_complex_entries_survive_json(self):
        m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(again, m)

    def test_ragged_entries_are_a_type_error(self):
        # numpy would refuse them with a ValueError about an inhomogeneous shape
        with pytest.raises(TypeError, match="rows must have equal lengths"):
            matrix_from_json([[[1, 0], [0, 0]], [[0, 0]]])


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

    def test_cap_enforced(self):
        assert tensor_power(KET0, 10).dim == 1024
        with pytest.raises(ResourceCapError, match=r"^dimension 2\^11 exceeds cap 1024$"):
            tensor_power(KET0, 11)

    def test_default_cap_is_1024(self):
        assert quantum.DIM_CAP == 1024
        with pytest.raises(ResourceCapError):
            tensor_power(DensityMatrix.maximally_mixed(2), 11)

    def test_a_huge_copy_count_is_refused_without_forming_the_dimension(self):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=r"^dimension 2\^1000000000000 exceeds cap 1024$"):
            tensor_power(KET0, 10**12)
        assert time.perf_counter() - start < 1.0

    def test_cap_decides_as_the_full_power_does(self):
        for dim in range(1, 6):
            rho = DensityMatrix.maximally_mixed(dim)
            for d in range(1, 41):
                if dim**d > quantum.DIM_CAP:
                    with pytest.raises(ResourceCapError, match=rf"^dimension {dim}\^{d} exceeds cap 1024$"):
                        tensor_power(rho, d)
                else:
                    assert tensor_power(rho, d).dim == dim**d

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", "8", "4096"])
    def test_env_var_is_ignored(self, monkeypatch, raw):
        # PLAB_DIM_CAP once overrode the cap; any value of it, valid or not, now changes nothing
        monkeypatch.setenv("PLAB_DIM_CAP", raw)
        assert tensor_power(KET0, 10).dim == 1024
        with pytest.raises(ResourceCapError, match=r"^dimension 2\^11 exceeds cap 1024$"):
            tensor_power(KET0, 11)

    def test_d_validated(self):
        with pytest.raises(ValueError):
            tensor_power(KET0, 0)

    def test_a_1x1_state_is_its_own_power(self):
        """Read from a state file, it is also its own power to the SDP decider, which decides 10^12 copies."""
        one = DensityMatrix.from_json({"dim": 1, "entries": [[[1.0, 0.0]]]})
        task = TaskSpec(["t0", "t1"], ["h0", "h1"], [["1", "0"], ["0", "1"]])
        start = time.perf_counter()
        assert tensor_power(one, 10**12) is one
        assert sdp_feasible([one, one], task, "1/2", "1/5", d=10**12).verdict == "infeasible"
        assert time.perf_counter() - start < 1.0

    def test_factor_within_tolerance_has_every_power_up_to_the_cap(self):
        # trace 1 + 9e-13 passes the 1e-12 check; the d-fold power has trace
        # (1 + 9e-13)^d and carries the factor's check instead of its own
        rho = DensityMatrix(np.diag([0.5 + 9e-13, 0.5]))
        kron = rho.mat
        for d in range(1, quantum.DIM_CAP.bit_length()):
            power = tensor_power(rho, d)
            assert np.array_equal(power.mat, kron) and not power.mat.flags.writeable
            kron = np.kron(kron, rho.mat)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 4), d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_power_is_the_kron_chain_bit_for_bit(self, dim, d, seed, pure):
        # a pure state of a ket with signed zero parts puts zeros of both signs in the matrix
        assume(dim**d <= quantum.DIM_CAP)
        rng = np.random.default_rng(seed)
        ket = [1.0, *rng.choice(np.array([0.0, -0.0, 0.5, -1.0, 0.5j, -0.0j, -1j]), dim - 1)]
        rho = DensityMatrix.pure(ket) if pure else random_density_matrix(dim, rng)
        kron = rho.mat
        for _ in range(d - 1):
            kron = np.kron(kron, rho.mat)
        power = tensor_power(rho, d).mat
        assert power.shape == kron.shape and power.tobytes() == kron.tobytes()


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

    @settings(max_examples=400, deadline=None)
    @given(gamma=st.floats(0.0, 1.0 - 2**-52) | st.floats(2**-52, 1e-3).map(lambda t: 1.0 - t),
           d=st.integers(1, 400))
    def test_matches_50_digit_mpmath(self, gamma, d):
        """1 - gamma^(2d) taken directly cancels as gamma nears 1: at
        gamma = 0.999999999 it gives 8.94427178352e-05 for 8.94427178128e-05."""
        with mpmath.workdps(50):
            want = float(2 * mpmath.sqrt(1 - mpmath.mpf(gamma) ** (2 * d)))
        assert math.isclose(pure_distance_formula(gamma, d), want, rel_tol=1e-14), (gamma, d)

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

    @pytest.mark.parametrize("gamma, d", [(0.999999999, 1), (1.0 - 2**-40, 1), (0.9999999, 3), (0.9999999, 13)])
    def test_distance_near_overlap_1_matches_50_digit_mpmath(self, gamma, d):
        """The second amplitude sqrt((1 - g)(1 + g)) takes 1 - g without cancelling:
        sqrt(1 - g^2) would be 2.5e-10 off at (0.999999999, 1)."""
        (distance,), _ = pure_pair_helstrom([(gamma, d)])
        with mpmath.workdps(50):
            want = float(2 * mpmath.sqrt(1 - mpmath.mpf(gamma) ** (2 * d)))
        assert math.isclose(distance, want, rel_tol=1e-15), (distance, want)

    def test_domain_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            pure_pair(1.5, 1)
        with pytest.raises(ValueError, match="d must be"):
            pure_pair(0.5, 0)


overlaps = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def sweep_points(draw):
    """The (gamma, d) list of one discrimination call: its own point, then a
    gamma sweep at its d or a copy sweep at its gamma, with repeats."""
    gamma, d = draw(overlaps), draw(st.integers(1, 60))
    if draw(st.booleans()):
        sweep = [(g, d) for g in draw(st.lists(overlaps, min_size=1, max_size=8))]
    else:
        sweep = [(gamma, c) for c in draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))]
    return [(gamma, d), *sweep, *draw(st.lists(st.sampled_from(sweep), max_size=3))]


def bad_slice(kind: str) -> np.ndarray:
    """A 2x2 matrix failing one check of the module docstring."""
    return {"nan": np.array([[math.nan, 0.0], [0.0, 0.5]]),
            "non-hermitian": np.array([[0.5, 0.1], [0.3, 0.5]]),
            "non-psd": np.diag([1.5, -0.5]),
            "trace": np.eye(2)}[kind].astype(complex)


class TestStacks:
    """pure_pair_helstrom is the stacked form of helstrom on pure_pair, and the
    stacked checks keep the rules and messages of the one-matrix checks."""

    @settings(max_examples=150, deadline=None)
    @given(points=sweep_points())
    def test_every_stacked_point_is_the_one_pair_result(self, points):
        distance, achieved = pure_pair_helstrom(points)
        assert distance.shape == achieved.shape == (len(points),)
        for (gamma, d), got_distance, got_achieved in zip(points, distance, achieved):
            r0, r1 = pure_pair(gamma, d)
            povm, want_distance = helstrom(r0, r1)
            assert got_distance == want_distance
            assert got_achieved == discrimination_sum(povm, r0, r1)

    def test_a_stack_mixing_positive_ranks_0_and_1_is_the_one_pair_result(self):
        # gamma = 1 gives equal states, whose difference has no positive part
        points = [(1.0, 1), (0.5, 2), (1.0, 3), (0.9, 1), (1.0, 7), (0.0, 1)]
        r = quantum._pure_pairs(points)
        assert sorted(set((np.linalg.eigvalsh(r[:, 0] - r[:, 1]) > 1e-10).sum(axis=-1))) == [0, 1]
        distance, achieved = pure_pair_helstrom(points)
        for (gamma, d), got_distance, got_achieved in zip(points, distance, achieved):
            r0, r1 = pure_pair(gamma, d)
            povm, want_distance = helstrom(r0, r1)
            assert got_distance.tobytes() == np.float64(want_distance).tobytes()
            assert got_achieved.tobytes() == np.float64(discrimination_sum(povm, r0, r1)).tobytes()

    def test_a_stack_of_tensor_power_pairs_is_the_one_pair_result(self):
        # 4x4 pairs: two copies of qubit pairs (positive parts of rank 0, 1 or 3; never 2 in random
        # draws) beside one copy of 4-dimensional mixed pairs, which give rank 2
        rng = np.random.default_rng(11)
        pairs = [tuple(tensor_power(random_density_matrix(dim, rng), d) for _ in range(2))
                 for dim, d in [(2, 2), (4, 1)] * 4]
        pairs += [(tensor_power(PLUS, 2),) * 2, tuple(tensor_power(rho, 2) for rho in overlap_pair(0.6))]
        r0, r1 = (np.array([pair[k].mat for pair in pairs]) for k in (0, 1))
        assert {0, 1, 2, 3} <= set((np.linalg.eigvalsh(r0 - r1) > 1e-10).sum(axis=-1))
        m, distance = quantum._helstrom(r0, r1)
        for k, pair in enumerate(pairs):
            povm, want_distance = helstrom(*pair)
            assert m[k].tobytes() == np.array(povm.elements).tobytes()
            assert distance[k].tobytes() == np.float64(want_distance).tobytes()

    def test_points_are_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            pure_pair_helstrom([(0.5, 2), (1.5, 1)])
        with pytest.raises(ValueError, match="d must be"):
            pure_pair_helstrom([(0.5, 2), (0.5, 0)])

    @pytest.mark.parametrize("kind", ["nan", "non-hermitian", "non-psd", "trace"])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_a_state_stack_with_one_bad_slice_fails_as_that_state(self, kind, where):
        with pytest.raises(ValueError) as one:
            DensityMatrix(bad_slice(kind))
        stack = np.array([DensityMatrix.maximally_mixed(2).mat] * 7)
        stack[where] = bad_slice(kind)
        with pytest.raises(ValueError) as stacked:
            quantum._checked(stack)
        assert str(stacked.value) == str(one.value)

    @pytest.mark.parametrize("kind", ["nan", "non-hermitian", "non-psd", "sum"])
    @pytest.mark.parametrize("where", [0, 4])
    def test_a_povm_stack_with_one_bad_slice_fails_as_that_povm(self, kind, where):
        good = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        bad = good.copy()
        if kind == "sum":
            bad[1] = np.eye(2)
        else:
            bad[0] = bad_slice(kind)
        with pytest.raises(ValueError) as one:
            Povm(bad)
        stack = np.array([good] * 5)
        stack[where] = bad
        with pytest.raises(ValueError) as stacked:
            quantum._checked(stack, povm=True)
        assert str(stacked.value) == str(one.value)
        assert ("sum to the identity" in str(one.value)) == (kind == "sum")

    def test_checked_stacks_are_frozen(self):
        r0, r1 = pure_pair(0.5, 3)
        assert not r0.mat.flags.writeable and not r1.mat.flags.writeable
        povm, _ = helstrom(r0, r1)
        assert all(not e.flags.writeable for e in povm.elements)


def mp_delta_min(gamma: float, d: int):
    """delta_min at 50 digits, in the stable form g / (2(1 + sqrt(1 - g))) with
    g = gamma^(2d): (1 - sqrt(1 - g))/2 loses every digit even at 50 digits
    once g < 1e-50."""
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma) ** (2 * d)
        return g / (2 * (1 + mpmath.sqrt(1 - g)))


TIE_CAP = "too close to a tie to settle within 2^18 bits"


def copies_reach(gamma: float, delta: float, d: int) -> bool:
    """gamma^(2d) <= 4 delta (1 - delta), that is delta_min(gamma, d) <= delta for delta < 1/2, with the
    floats read as the rationals they are: in Fractions while the power has at most 2^16 bits, else by
    logarithms at 3,000 bits, which resolve 1 - delta for every float delta and must set the sides apart."""
    g, dlt = Fraction(gamma), Fraction(delta)
    if d * g.denominator.bit_length() <= 1 << 15:
        return g ** (2 * d) <= 4 * dlt * (1 - dlt)
    with mpmath.workprec(3000):
        x = mpmath.mpf(delta)
        gap = 2 * d * mpmath.log(mpmath.mpf(gamma)) - mpmath.log(4 * x * (1 - x))
        assert abs(gap) > mpmath.mpf(2) ** -2900, (gamma, delta, d)
        return gap <= 0


def checked_copies_min(gamma: float, delta: float) -> int | None:
    """copies_min(gamma, delta), checked to be the least d >= 1 with ``copies_reach`` at d and d - 1; or
    None where it raised the tie cap.  With r = ln(4 delta (1 - delta)) / ln(gamma^2) the cap must fire
    past r = 2^45, where sample_complexity's tie window is wider than 1/2, and nowhere below it (2^-40
    relative is left either side for its float r)."""
    with mpmath.workprec(3000):
        x = mpmath.mpf(delta)
        r = mpmath.log(4 * x * (1 - x)) / (2 * mpmath.log(mpmath.mpf(gamma)))
    try:
        d_min = copies_min(gamma, delta)
    except ValueError as err:
        assert r > 2**45 * (1 - 2**-40) and TIE_CAP in str(err), (gamma, delta, float(r), err)
        return None
    assert r <= 2**45 * (1 + 2**-40), (gamma, delta, float(r), d_min)
    assert copies_reach(gamma, delta, d_min), (gamma, delta, d_min)
    assert d_min == 1 or not copies_reach(gamma, delta, d_min - 1), (gamma, delta, d_min)
    return d_min


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
        """At a printed delta_min and one rounding either side d_min is the exact least d, d or d + 1.  The
        printed delta_min may then read one rounding above delta at d_min, or one below at d_min - 1."""
        at = delta_min(gamma, d)
        delta = {"below": math.nextafter(at, 0.0), "at": at, "above": math.nextafter(at, 1.0),
                 "1e-10 below": at * (1 - 1e-10), "1e-10 above": at * (1 + 1e-10)}[where]
        d_min = checked_copies_min(gamma, delta)
        assert delta_min(gamma, d_min) <= math.nextafter(delta, 1.0)
        assert d_min == 1 or math.nextafter(delta, 0.0) <= delta_min(gamma, d_min - 1)
        want = {"1e-10 below": (d + 1,), "1e-10 above": (d,)}.get(where, (d, d + 1))
        assert d_min in want  # delta_min falls by >= 2% a copy here

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(1e-300, 1.0, exclude_max=True), delta=st.floats(1e-300, 0.5, exclude_max=True))
    def test_copies_min_is_the_least_d_anywhere(self, gamma, delta):
        checked_copies_min(gamma, delta)

    @pytest.mark.parametrize("gamma", [0.5, 1 - 2**-53])
    @pytest.mark.parametrize("delta", [1e-310, 5e-324])
    def test_copies_min_returns_for_subnormal_delta(self, gamma, delta):
        """1/(4 delta (1 - delta)) overflows a float here, and 4 delta (1 - delta) is exact only as a
        rational.  At gamma = 1/2 and the least subnormal delta the count is 537, as (1/4)^536 = 2^-1072 is
        above 4 delta (1 - delta); a float search over delta_min gave 536.  Next to gamma = 1 the count is
        about 3.2e18 copies, r past 2^45, and copies_min refuses it with the tie cap."""
        want = {(0.5, 1e-310): 514, (0.5, 5e-324): 537}.get((gamma, delta))
        assert checked_copies_min(gamma, delta) == want

    @pytest.mark.parametrize("gamma, d", [(0.999, 2450), (0.999, 3000), (1 - 2**-20, 10**7), (1 - 2**-40, 10**13)])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_copies_min_settles_ties_past_exact_powers(self, gamma, d, ulps):
        """A printed delta_min(gamma, d) and its neighbours are near-ties, and from about 2,450 copies at
        these gammas gamma^(2d) has more than 2^18 bits; the count is still the exact least d."""
        delta = delta_min(gamma, d)
        for _ in range(abs(ulps)):
            delta = math.nextafter(delta, ulps)
        assert checked_copies_min(gamma, delta) in (d, d + 1)

    def test_degenerate_arguments_rejected(self):
        """Only a delta outside [0, 1), a gamma outside [0, 1], and the pairs no copy count reaches are
        refused, each in its own terms rather than sample complexity's."""
        for gamma, delta, message in [(1.0, 0.05, "^no copy count reaches delta = 0.05 at gamma = 1.0$"),
                                      (1.0, 0.0, "no copy count"), (0.5, 0.0, "no copy count"),
                                      (0.5, 1.0, "delta must lie"),
                                      (0.5, -0.1, "delta must lie"), (0.5, math.nan, "delta must lie"),
                                      (1.5, 0.1, "overlap gamma"), (math.nan, 0.6, "overlap gamma")]:
            with pytest.raises(ValueError, match=message) as err:
                copies_min(gamma, delta)
            assert "sample" not in str(err.value) and "epsilon" not in str(err.value)

    @pytest.mark.parametrize("gamma, delta", [(0.0, 0.05), (0.0, 0.0), (0.0, 0.9), (0.5, 0.5), (1.0, 0.5),
                                              (0.999, 0.75), (5e-324, 0.5)])
    def test_one_copy_at_zero_overlap_or_half_error(self, gamma, delta):
        """delta_min(0, d) = 0 and delta_min(gamma, 1) <= 1/2, so one copy reaches these targets."""
        assert copies_min(gamma, delta) == 1
        assert delta_min(gamma, 1) <= delta


def measurement_at(theta: float) -> Povm:
    """Projective qubit measurement in the basis rotated by theta/2."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    v0, v1 = np.array([c, s]), np.array([-s, c])
    return Povm([np.outer(v0, v0).astype(complex), np.outer(v1, v1).astype(complex)])


def bell_state() -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return DensityMatrix.pure(v)


class TestQuantumCorrelation:
    def test_bell_state_computational_agreement(self):
        z = measurement_at(0.0)
        p = born_table(bell_state(), [z], [z])
        # perfectly correlated: p(a,b) = 1/2 iff a == b
        assert p[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert p[1, 1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert p[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_product_state_factorizes(self):
        rho = DensityMatrix(np.kron(PLUS.mat, KET0.mat))
        p = born_table(rho, [measurement_at(0.3)], [measurement_at(1.1)])
        pa = p.sum(axis=1)[:, 0, 0]
        pb = p.sum(axis=0)[:, 0, 0]
        assert np.allclose(p[:, :, 0, 0], np.outer(pa, pb), atol=1e-12)

    def test_tsirelson_settings_pass_no_signaling(self):
        alice = [measurement_at(0.0), measurement_at(math.pi / 2.0)]
        bob = [measurement_at(math.pi / 4.0), measurement_at(-math.pi / 4.0)]
        assert signaling(born_table(bell_state(), alice, bob)) < 1e-12

    def test_table_is_the_per_entry_born_rule(self):
        rng = np.random.default_rng(12)
        for da, db, na, nb in [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 4)]:
            rho = random_density_matrix(da * db, rng)
            alice = [random_povm(da, na, rng) for _ in range(2)]
            bob = [random_povm(db, nb, rng) for _ in range(3)]
            p = born_table(rho, alice, bob)
            assert p.shape == (na, nb, 2, 3)
            for a, b, x, y in np.ndindex(p.shape):
                want = np.trace(np.kron(alice[x].elements[a], bob[y].elements[b]) @ rho.mat).real
                assert abs(p[a, b, x, y] - want) <= 1e-13


class TestNoSignaling:
    def test_pr_box_is_no_signaling(self):
        p = np.zeros((2, 2, 2, 2))
        for a, b, x, y in np.ndindex(2, 2, 2, 2):
            if (a + b) % 2 == (x * y) % 2:
                p[a, b, x, y] = 0.5
        assert signaling(p) == 0.0

    def test_planted_signaling_table_fails(self):
        # Alice's outcome copies Bob's setting: p(a,b|x,y) = [a==y][b==0]
        p = np.zeros((2, 2, 2, 2))
        for y in range(2):
            for x in range(2):
                p[y, 0, x, y] = 1.0
        assert signaling(p) == pytest.approx(1.0)

    def test_random_quantum_tables_pass(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            alice = [random_povm(2, 2, rng) for _ in range(2)]
            bob = [random_povm(2, 2, rng) for _ in range(2)]
            assert signaling(born_table(rho, alice, bob)) <= 1e-10


class TestTolerancesFromBothSides:
    """HERM_TOL, STATE_EIG_TOL, TRACE_TOL, POVM_TOL and the Helstrom band,
    each with an input 5x outside its tolerance, refused (a tolerance
    loosened 10x would pass it), and a legitimate input at least 2x inside
    it, accepted (a tolerance tightened 10x would refuse it)."""

    def test_constants(self):
        assert (quantum.HERM_TOL, quantum.STATE_EIG_TOL, quantum.TRACE_TOL, quantum.POVM_TOL, quantum.HELSTROM_BAND) == \
            (1e-12, 1e-10, 1e-12, 1e-10, 1e-10)

    def test_a_state_5e_12_from_hermitian_is_refused(self):
        m = np.array([[0.5, 0.25 + 5e-12], [0.25, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match=r"^state is not Hermitian within 1e-12$"):
            DensityMatrix(m)

    def test_a_state_typed_to_12_and_13_decimals_is_hermitian(self):
        # the two off-diagonal halves of 1/(2 sqrt 2) differ by 5e-13
        rho = DensityMatrix.from_json({"entries": [[[0.5, 0], [0.353553390593, 0]],
                                                   [[0.3535533905935, 0], [0.5, 0]]]})
        assert abs(rho.mat[0, 1] - rho.mat[1, 0]) == pytest.approx(5e-13, rel=1e-3)

    @pytest.mark.parametrize("povm", [False, True], ids=["state", "povm-element"])
    def test_an_eigenvalue_of_minus_5e_10_is_refused(self, povm):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        what = "POVM element" if povm else "state"
        with pytest.raises(ValueError, match=rf"^{what} has an eigenvalue below -1e-10$"):
            Povm([m, np.eye(2) - m]) if povm else DensityMatrix(m)

    @pytest.mark.parametrize("povm", [False, True], ids=["state", "povm-element"])
    def test_an_eigenvalue_of_minus_5e_11_is_rounding(self, povm):
        # a rank-one projector that rounding left 5e-11 below PSD
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        if povm:
            assert Povm([m, np.eye(2) - m]).dim == 2
        else:
            assert np.linalg.eigvalsh(DensityMatrix(m).mat).min() == pytest.approx(-5e-11)

    def test_a_trace_5e_12_from_1_is_refused(self):
        with pytest.raises(ValueError, match=r"^state trace is not 1 within 1e-12$"):
            DensityMatrix(np.diag([0.5 + 5e-12, 0.5]))

    def test_a_pure_state_typed_to_12_digits_has_unit_trace(self):
        # cos(pi/16)|0> + sin(pi/16)|1>, each entry to 12 significant digits: the trace is 4e-13 from 1
        rho = DensityMatrix.from_json({"entries": [[[0.961939766256, 0], [0.191341716183, 0]],
                                                   [[0.191341716183, 0], [0.0380602337444, 0]]]})
        assert np.trace(rho.mat).real - 1.0 == pytest.approx(4e-13, rel=1e-2)

    def test_povm_elements_5e_10_from_the_identity_are_refused(self):
        with pytest.raises(ValueError, match=r"^POVM elements do not sum to the identity within 1e-10$"):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 5e-10])])

    def test_povm_elements_5e_11_from_the_identity_are_rounding(self):
        # the two projectors onto |+> and |->, with one entry of each rounded 2.5e-11 up
        plus, minus = np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])
        plus[1, 1] += 2.5e-11
        minus[1, 1] += 2.5e-11
        total = sum(Povm([plus, minus]).elements)
        assert np.abs(total - np.eye(2)).max() == pytest.approx(5e-11, rel=1e-4)

    @pytest.mark.parametrize("povm", [False, True], ids=["state", "povm-element"])
    def test_eigenvalues_that_overflow_are_refused(self, povm):
        # finite and Hermitian, of trace 1 or summing to I, with eigenvalues of about +-1e308: hermitizing
        # overflows, and the eigenvalues of the overflowed matrix are NaN, which the check must refuse
        what = "POVM element" if povm else "state"
        with pytest.raises(ValueError, match=rf"^{what} has an eigenvalue below -1e-10$"):
            if povm:
                Povm([np.array([[0.5, 1e308], [1e308, 0.5]]), np.array([[0.5, -1e308], [-1e308, 0.5]])])
            else:
                DensityMatrix([[1, 1e308], [1e308, 0]])

    def test_a_difference_of_5e_10_is_measured(self):
        # rho0 - rho1 = diag(5e-10, -5e-10): M_0 projects onto |0>
        m, distance = helstrom(DensityMatrix(np.diag([0.5 + 5e-10, 0.5 - 5e-10])), DensityMatrix(np.eye(2) / 2))
        assert np.array_equal(m.elements[0], np.diag([1.0, 0.0]).astype(complex))
        assert distance == pytest.approx(1e-9, rel=1e-5)

    def test_a_difference_of_5e_11_is_a_tie(self):
        # the maximally mixed state, its diagonal rounded 5e-11 apart: the whole space joins M_1
        m, _ = helstrom(DensityMatrix(np.diag([0.5 + 5e-11, 0.5 - 5e-11])), DensityMatrix(np.eye(2) / 2))
        assert not m.elements[0].any() and np.array_equal(m.elements[1], np.eye(2, dtype=complex))

    @pytest.mark.parametrize("build, message", [
        (lambda: DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]])), "state is not Hermitian within 1e-12"),
        (lambda: Povm([np.array([[0.5, 0.1], [0.3, 0.5]]), np.eye(2) / 2]),
         "POVM element is not Hermitian within 1e-10"),
        (lambda: DensityMatrix(np.diag([1.5, -0.5])), "state has an eigenvalue below -1e-10"),
        (lambda: Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]), "POVM element has an eigenvalue below -1e-10"),
        (lambda: Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]),
         "POVM elements do not sum to the identity within 1e-10"),
        (lambda: DensityMatrix(np.eye(2)), "state trace is not 1 within 1e-12"),
    ], ids=["state-hermitian", "povm-hermitian", "state-eigenvalue", "povm-eigenvalue", "povm-sum", "trace"])
    def test_tolerance_messages_are_spelled_from_their_constants(self, build, message):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


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
