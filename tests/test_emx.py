"""Core learning loop: domains, distributions, the quantile learner, and the
Monte Carlo guarantee harness.

Frozen values are hand-derived from the closed forms; exact comparisons use
Fraction end to end so no assertion sits on a float boundary.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab import emx
from plab.emx import (
    FinSupportDist,
    FiniteHypothesis,
    IndexedDomain,
    RationalLiteralError,
    as_fraction,
    mass,
    quantile_learn,
    quantile_success,
    sample_complexity,
    verify_guarantee,
)
from plab.tasks import TaskSpec
from oracles import substream
from random_fixtures import draw_sample

LETTERS = tuple("abcdefghij")


def uniform_on(labels):
    return FinSupportDist.uniform(labels)


class TestRationalParsing:
    def test_fraction_strings(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction("0.2") == Fraction(1, 5)

    def test_floats_read_as_decimal_literals(self):
        # 0.2 the float means the written decimal 1/5, not the nearest double
        assert as_fraction(0.2) == Fraction(1, 5)
        assert as_fraction(0.3) == Fraction(3, 10)

    def test_ints_and_fractions_pass_through(self):
        assert as_fraction(2) == Fraction(2)
        assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_literal_errors(self, value):
        with pytest.raises(RationalLiteralError):
            as_fraction(value)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_fraction(object())

    def test_each_literal_is_parsed_once(self):
        assert as_fraction("2/6") is as_fraction("2/6")
        for _ in range(2):  # a bad literal fails every time
            with pytest.raises(RationalLiteralError):
                as_fraction("abc")

    def test_weights_keep_floats_inexact(self):
        P = FinSupportDist("abcd", [0.25, "1/4", Fraction(1, 4), 0.25])
        assert [type(w) for w in P.weights] == [float, Fraction, Fraction, float]
        with pytest.raises(TypeError):
            FinSupportDist("a", [True])


EXACT_VALUES = st.one_of(
    st.fractions(), st.integers(-(2**80), 2**80), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2**64 + 1, -(2**70) - 3, 1.7976931348623157e308]),
)


class TestIntegerForm:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(values=st.lists(EXACT_VALUES, max_size=12))
    def test_numerators_over_the_lcm_of_the_denominators(self, values):
        """Fractions, ints past 2^64 and floats down to 5e-324, a float as the dyadic rational it is."""
        scale, nums = emx._integer_form(values)
        assert scale == math.lcm(*(Fraction(v).denominator for v in values))
        assert len(nums) == len(values) and all(type(n) is int for n in nums)
        assert all(Fraction(n, scale) == Fraction(v) for n, v in zip(nums, values))

    def test_parse_runs_on_each_value(self):
        assert emx._integer_form(["1/3", "0.5", 2, 0.1], as_fraction) == (30, (10, 15, 60, 3))
        assert emx._integer_form([]) == (1, ())

    def test_the_two_float_rules_stay_apart(self):
        """One helper, two rules: a distribution weight is read as the double it is,
        a utility by ``as_fraction`` as the decimal it spells."""
        assert FinSupportDist(["a", "b"], [0.1, 0.9])._den == 2**55
        assert TaskSpec(["t"], ["h0", "h1"], [[0.1, 1]]).scales == (10,)


class TestIndexedDomain:
    def test_ranks_are_one_based_in_declared_order(self):
        dom = IndexedDomain(LETTERS)
        assert dom.idx("a") == 1
        assert dom.idx("j") == 10
        assert len(dom) == 10

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            IndexedDomain("abc").idx("z")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            IndexedDomain(["a", "b", "a"])

    def test_integer_range_domain(self):
        dom = IndexedDomain(range(256))
        assert dom.idx(0) == 1
        assert dom.idx(255) == 256
        assert 255 in dom and 256 not in dom
        with pytest.raises(KeyError):
            dom.idx(256)

    def test_range_domain_iterates_and_tests_membership(self):
        dom = IndexedDomain(range(2, 8, 2))
        assert list(dom) == [2, 4, 6]
        assert 4 in dom and np.int64(6) in dom
        assert 3 not in dom and 8 not in dom and "4" not in dom


class TestFiniteHypothesis:
    def test_segment_membership_and_size(self):
        dom = IndexedDomain(LETTERS)
        seg = dom.initial_segment(4)
        assert "d" in seg and "e" not in seg
        assert len(seg) == 4
        assert seg.elements == frozenset("abcd")

    def test_empty_and_overlong_segments(self):
        dom = IndexedDomain("abc")
        assert len(dom.initial_segment(0)) == 0
        assert dom.initial_segment(99).elements == frozenset("abc")

    def test_membership_outside_domain_is_false(self):
        dom = IndexedDomain("abc")
        assert "z" not in dom.initial_segment(2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            IndexedDomain("abc").initial_segment(-1)

    def test_never_equal_to_other_types(self):
        assert (IndexedDomain("abc").initial_segment(1) == 3) is False
        # an explicit set is a frozenset, which no segment equals, even with its elements
        assert (IndexedDomain("abc").initial_segment(2) == frozenset("ab")) is False

    def test_iteration_in_both_forms(self):
        dom = IndexedDomain("abcd")
        assert list(dom.initial_segment(2)) == ["a", "b"]
        assert list(dom.initial_segment(9)) == list("abcd")
        assert list(IndexedDomain(range(5, 0, -2)).initial_segment(2)) == [5, 3]

    def test_segment_hash_does_not_enumerate(self):
        dom = IndexedDomain(range(2**40))
        assert hash(dom.initial_segment(2**39)) == hash(dom.initial_segment(2**39))

    def test_segments_past_the_len_limit_hash_alike(self):
        # len() cannot return 2^63; equality and the hash use the exact size instead
        dom = IndexedDomain(range(2**64))
        seg = dom.initial_segment(2**63)
        assert seg == dom.initial_segment(2**63) and hash(seg) == hash(dom.initial_segment(2**63))
        assert dom.initial_segment(2**70) == dom.initial_segment(2**64)
        assert hash(dom.initial_segment(2**70)) == hash(dom.initial_segment(2**64))
        assert dom.initial_segment(2**64) != dom.initial_segment(2**64 - 1)

    def test_segments_over_equal_domains_compare_without_elements(self, monkeypatch):
        def no_elements(self):
            raise AssertionError("segment equality built an element set")

        monkeypatch.setattr(FiniteHypothesis, "elements", property(no_elements))
        monkeypatch.setattr(FiniteHypothesis, "__iter__", no_elements)
        dom = IndexedDomain(range(2**21))
        assert dom.initial_segment(2**20) == dom.initial_segment(2**20)
        assert dom.initial_segment(2**20) != dom.initial_segment(2**20 + 1)
        assert dom.initial_segment(2**22) == dom.initial_segment(2**21)  # both are the whole domain
        # a segment is its domain object and its size: over another domain it is another segment
        assert IndexedDomain("abc").initial_segment(2) != IndexedDomain("abc").initial_segment(2)
        assert IndexedDomain(range(5)).initial_segment(0) != IndexedDomain(range(5)).initial_segment(0)

    @given(r=st.builds(range, st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3).filter(bool)),
           ts=st.lists(st.integers(0, 14), min_size=2, max_size=2))
    def test_range_segments_equal_iff_their_element_sets_are(self, r, ts):
        dom = IndexedDomain(r)
        a, b = (dom.initial_segment(t) for t in ts)
        assert (a == b) == (set(a) == set(b))
        assert a != b or hash(a) == hash(b)

    @given(start=st.integers(-20, 20), stop=st.integers(-20, 20),
           step=st.integers(-5, 5).filter(bool))
    def test_range_size_is_its_length(self, start, stop, step):
        r = range(start, stop, step)
        assert IndexedDomain(r).size == len(IndexedDomain(r)) == len(r)


class TestFinSupportDist:
    def test_rational_weights_must_sum_to_one_exactly(self):
        with pytest.raises(ValueError):
            FinSupportDist("ab", [Fraction(1, 2), Fraction(1, 3)])

    def test_float_weights_tolerate_1e12(self):
        FinSupportDist("ab", [0.5, 0.5 + 1e-13])
        # 1/7 written with 13 digits: seven of them sum to 1 - 3.0e-13
        FinSupportDist("abcdefg", [float("0.1428571428571")] * 7)
        with pytest.raises(ValueError):
            FinSupportDist("ab", [0.5, 0.51])

    def test_float_sum_check_does_not_depend_on_the_support_order(self):
        """Summed left to right, these weights land on either side of the
        tolerance by their order; their exact sum is inside it."""
        ws = [0.16374008178396418, 0.282301761355241, 0.25806283068013236, 0.2958953261816624]
        assert abs(sum(ws) - 1) <= 1e-12 < abs(sum(ws[::-1]) - 1)
        for order in itertools.permutations(range(4)):
            FinSupportDist(order, [ws[i] for i in order])

    def test_float_weights_off_by_2e12_rejected(self):
        with pytest.raises(ValueError, match=r"^float weights must sum to 1 within 1e-12, got 1\.000000000002"):
            FinSupportDist("ab", [0.5, 0.5 + 2e-12])

    def test_rejects_nonpositive_weights_and_duplicates(self):
        with pytest.raises(ValueError):
            FinSupportDist("ab", [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            FinSupportDist("aa", [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            FinSupportDist([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FinSupportDist("ab", [bad, 1.0])

    def test_more_weights_than_points_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            FinSupportDist("ab", ["1/3", "1/3", "1/3"])

    def test_uniform_is_exact(self):
        P = uniform_on("abc")
        assert P.weights == (Fraction(1, 3),) * 3
        assert P.is_exact

    def test_json_roundtrip_preserves_exactness(self):
        obj = {"labels": ["a", "b", "c"], "weights": ["1/2", "0.25", "1/4"]}
        Q = FinSupportDist.from_json(obj)
        assert Q.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)) and Q.is_exact
        assert {"labels": list(Q.support), "weights": [str(w) for w in Q.weights]} == \
            {**obj, "weights": ["1/2", "1/4", "1/4"]}

    @staticmethod
    def fraction_sum_check(weights) -> str | None:
        """The checks as ``Fraction`` sums made them: the message, or None."""
        ws = [w if isinstance(w, float) else as_fraction(w) for w in weights]
        if any(w <= 0 for w in ws):
            return "weights must be strictly positive"
        if all(isinstance(w, Fraction) for w in ws):
            total = sum(ws)
            return None if total == 1 else f"rational weights must sum to exactly 1, got {total}"
        total = math.fsum(ws)
        return None if abs(total - 1.0) <= emx.FLOAT_SUM_TOL else \
            f"float weights must sum to 1 within {emx.FLOAT_SUM_TOL}, got {total!r}"

    @pytest.mark.parametrize("weights, message", [
        (["1/2", "1/3"], "rational weights must sum to exactly 1, got 5/6"),
        (["1/2", "0", "1/2"], "weights must be strictly positive"),
        ([0.5, 0.0, 0.5], "weights must be strictly positive"),
        ([0.5, -0.0, 0.5], "weights must be strictly positive"),
        ([0.5, 0.5 + 3e-12], "float weights must sum to 1 within 1e-12, got 1.000000000003"),
        ([0.5, 0.5 - 3e-12], "float weights must sum to 1 within 1e-12, got 0.999999999997"),
        (["1/3", "1/3", "1/3"], None),
        ([0.1] * 10, None),
    ])
    def test_integer_form_checks_as_the_fraction_sums_did(self, weights, message):
        assert self.fraction_sum_check(weights) == message
        if message is None:
            P = FinSupportDist(range(len(weights)), weights)
            assert [Fraction(n, P._den) for n in P._nums] == [Fraction(w) for w in P.weights]
        else:
            with pytest.raises(ValueError) as refused:
                FinSupportDist(range(len(weights)), weights)
            assert str(refused.value) == message

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(-1, 9), min_size=1, max_size=12),
           total_shift=st.integers(-1, 1), floats=st.booleans(), jitter=st.sampled_from([0.0, 5e-13, 3e-12, -3e-12]))
    def test_integer_form_accepts_and_refuses_what_the_fraction_sums_did(self, counts, total_shift, floats, jitter):
        """Exact weights k/(total + shift) and float weights k/total with
        the last one moved by jitter: the same verdict and message."""
        total = max(1, sum(counts) + total_shift)
        if floats:
            weights = [c / total for c in counts]
            weights[-1] += jitter
        else:
            weights = [f"{c}/{total}" for c in counts]
        want = self.fraction_sum_check(weights)
        try:
            FinSupportDist(range(len(weights)), weights)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None

    @pytest.mark.parametrize("key, value", [("labels", "ab"), ("weights", "1")])
    def test_json_string_for_a_list_is_a_type_error(self, key, value):
        obj = {"labels": ["a", "b"], "weights": ["1/2", "1/2"], key: value}
        with pytest.raises(TypeError, match=f"^'{key}' must be a list, not str$"):
            FinSupportDist.from_json(obj)


class TestSampling:
    def test_same_stream_reproduces_exactly(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        assert draw_sample(P, 25, seed=11) == draw_sample(P, 25, seed=11)
        assert (
            draw_sample(P, 25, seed=11, stream=(4,))
            == draw_sample(P, 25, seed=11, stream=(4,))
        )

    def test_distinct_streams_differ(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        a = draw_sample(P, 40, seed=11, stream=(0,))
        b = draw_sample(P, 40, seed=11, stream=(1,))
        assert a != b

    def test_substream_is_order_independent(self):
        # stream k is a function of (seed, k) alone
        later = substream(3, 17).random(5).tolist()
        again = substream(3, 17).random(5).tolist()
        assert later == again

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**128),
        path=st.lists(st.integers(0, 2**64), max_size=3),
        d=st.sampled_from([0, 1, 2, 7, 45, 134]),
        counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
        exact=st.booleans(),
    )
    def test_draws_follow_numpys_definitions(self, seed, path, d, counts, exact):
        """substream is numpy's default_rng on the spawn key, and sample is
        the inverse CDF by searchsorted over the support order."""
        total = sum(counts)
        weights = [Fraction(c, total) if exact else c / total for c in counts]
        P = FinSupportDist([f"x{i}" for i in range(len(counts))], weights)
        rng = substream(seed, *path)
        ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert P.sample(rng, d) == tuple(P.support[i] for i in np.searchsorted(P._cdf, ref.random(d), side="right"))
        assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(weights=st.one_of(
        st.just([Fraction(1)]),  # one point: every bucket maps to it
        st.integers(3, 40).map(  # a cluster in the bucket that starts at 1/2
            lambda k: [Fraction(1, 2)] + [Fraction(1, 10**6)] * (k - 2) + [Fraction(1, 2) - Fraction(k - 2, 10**6)]),
        st.lists(st.integers(1, 10**6), min_size=1, max_size=40).map(lambda c: [x / sum(c) for x in c]),
        st.tuples(st.lists(st.integers(1, 100), min_size=2, max_size=20), st.floats(1e-14, 4e-13)).map(
            lambda t: [x / sum(t[0]) for x in t[0][:-2]] + [(t[0][-2] + t[0][-1]) / sum(t[0]) + t[1], 1e-13]),
    ))
    def test_guide_table_draws_are_the_cdf_search(self, weights):
        """The guide table gives ``_cdf.searchsorted(U, "right")`` for draws
        in [0, 1): at every CDF value and its neighbours, at each bucket edge
        b/K and just below it, and at the largest draw 1 - 2^-53.  The last
        kind of weights has a running sum that passes 1 before its last point."""
        P = FinSupportDist([f"x{i}" for i in range(len(weights))], weights)
        if weights[-1] == 1e-13:
            assert P._cdf[-2] > 1.0
        K = len(P._guide)
        assert K >= 16 * len(weights) and K & (K - 1) == 0
        edges = np.arange(K) / K
        U = np.concatenate([P._cdf, np.nextafter(P._cdf, 0.0), np.nextafter(P._cdf, 2.0), edges,
                            np.nextafter(edges, -1.0), [1 - 2**-53]])
        U = U[(U >= 0) & (U < 1)]
        want = P._cdf.searchsorted(U, "right")
        assert np.array_equal(P._positions(U), want)
        assert np.array_equal(P._positions(U[:, None]), want[:, None])

    def test_frequencies_track_weights(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        pts = draw_sample(P, 40_000, seed=5)
        for x, w in zip(P.support, P.weights):
            freq = pts.count(x) / len(pts)
            # 4 sigma at n=40000, p=1/2 is 0.01
            assert abs(freq - float(w)) < 0.01

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            draw_sample(uniform_on("ab"), -1, seed=0)

    def test_guarantee_check_rejects_a_negative_size(self):
        dom = IndexedDomain("ab")
        with pytest.raises(ValueError, match="sample size must be >= 0"):
            verify_guarantee([(lambda s: quantile_learn(s, dom), -1)], uniform_on("ab"), "1/2", "1/2", 5, seed=0)

    def test_trial_k_draws_from_substream_seed_k(self):
        P = uniform_on("abcdef")
        drawn = []
        verify_guarantee([(lambda s: drawn.append(s) or frozenset(), 4)], P, "1/2", "1/2", 3, seed=9)
        assert drawn == [draw_sample(P, 4, 9, (k,)) for k in range(3)]


class TestMassAndOpt:
    def test_mass_of_subset(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        got = mass(P, frozenset("bc"))
        assert got == Fraction(1, 2)
        assert isinstance(got, Fraction)

    def test_mass_edge_sets(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        assert mass(P, frozenset()) == 0
        assert mass(P, frozenset("abc")) == 1
        assert mass(P, frozenset("zq")) == 0


class TestQuantileLearner:
    def test_segment_of_largest_index(self):
        dom = IndexedDomain(LETTERS)
        # indices 7, 3, 5 -> everything up to rank 7
        h = quantile_learn(("g", "c", "e"), dom)
        assert h.threshold == 7
        assert h.elements == frozenset("abcdefg")

    def test_singleton_sample(self):
        dom = IndexedDomain(LETTERS)
        assert quantile_learn(("d",), dom).elements == frozenset("abcd")

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            quantile_learn((), IndexedDomain(LETTERS))

    @given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=12))
    def test_output_contains_every_sample_point(self, pts):
        dom = IndexedDomain(LETTERS)
        h = quantile_learn(tuple(pts), dom)
        assert all(x in h for x in pts)
        assert h.threshold == max(dom.idx(x) for x in pts)


def exact_min_d(eps: Fraction, delta: Fraction) -> int:
    """Independent oracle: smallest d with (1-eps)^d <= delta, exactly."""
    q = 1 - eps
    d, power = 1, q
    while power > delta:
        d += 1
        power *= q
    return d


class TestSampleComplexity:
    def test_known_values(self):
        assert sample_complexity(Fraction(1, 3), Fraction(1, 3)) == 3
        assert sample_complexity(0.3, 0.3) == 4
        assert sample_complexity(Fraction(1, 10), Fraction(1, 100)) == 44
        assert sample_complexity(Fraction(1, 2), Fraction(1, 2)) == 1
        assert sample_complexity("1/2", "1/4") == 2

    def test_arguments_must_be_interior(self):
        for eps, dlt in [(0, 0.5), (1, 0.5), (0.5, 0), (0.5, 1)]:
            with pytest.raises(ValueError):
                sample_complexity(eps, dlt)

    @pytest.mark.parametrize("eps", ["1e-320", "1e-400"])
    def test_epsilon_below_the_float_range_rejected(self, eps):
        with pytest.raises(ValueError, match="sample complexity needs delta > 0"):
            sample_complexity(eps, "1/3")

    def test_matches_exact_rational_scan(self):
        grid = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
        for eps in grid:
            for dlt in [Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)]:
                assert sample_complexity(eps, dlt) == exact_min_d(eps, dlt), (eps, dlt)

    def test_a_near_tie_is_settled_exactly(self):
        # (1/2)^10 exceeds delta = 2^-10 - 2^-70 by 2^-70: the float ratio says 10
        dlt = Fraction(1152921504606846975, 1180591620717411303424)
        assert dlt == Fraction(1, 2**10) - Fraction(1, 2**70)
        assert sample_complexity("1/2", dlt) == 11 == exact_min_d(Fraction(1, 2), dlt)

    @settings(max_examples=300, deadline=None)
    @given(eps=st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000),
           d=st.integers(1, 300), k=st.integers(-3, 3), bits=st.integers(30, 90))
    def test_matches_exact_search_next_to_ties(self, eps, d, k, bits):
        """delta within 3 * 2^-bits (relative) of (1-eps)^d, or equal to it."""
        dlt = (1 - eps) ** d * (1 + Fraction(k, 2**bits))
        assert sample_complexity(eps, dlt) == exact_min_d(eps, dlt), (eps, d, k, bits)

    @settings(max_examples=200, deadline=None)
    @given(eps=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=10**6),
           dlt=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=10**6))
    def test_matches_exact_search_anywhere(self, eps, dlt):
        assert sample_complexity(eps, dlt) == exact_min_d(eps, dlt)

    @pytest.mark.parametrize("dlt", [Fraction(1, 10**320), Fraction(1, 2**1070), Fraction(3, 10**400)])
    def test_delta_below_the_normal_floats(self, dlt):
        assert sample_complexity(Fraction(1, 2), dlt) == exact_min_d(Fraction(1, 2), dlt)

    @settings(max_examples=40, deadline=None)
    @given(x=st.integers(2, 2**120), n=st.integers(0, 3000), bits=st.sampled_from([64, 128, 1024, 1 << 18]))
    def test_power_bounds_bracket_the_power(self, x, n, bits):
        lo, hi, e = emx._power_bounds(x, n, bits)
        assert lo << e <= x**n <= hi << e
        assert hi.bit_length() <= bits or x**n == hi == lo
        if (x**n).bit_length() <= bits:
            assert lo == hi == x**n and e == 0

    @settings(max_examples=25, deadline=None)
    @given(eps=st.fractions(Fraction(1, 10**6), Fraction(1, 10**3), max_denominator=10**6),
           ulps=st.integers(-2, 2), extra=st.integers(0, 10**4))
    def test_settles_ties_past_exact_powers(self, eps, ulps, extra):
        """delta a float next to (1-eps)^d, where the powers of 1 - eps have more than 2^18 bits."""
        d = emx._TIE_BITS // (1 - eps).denominator.bit_length() + 1 + extra
        with mpmath.workprec(200):
            dlt = float(mpmath.power(mpmath.mpf(1 - eps.numerator / mpmath.mpf(eps.denominator)), d))
        for _ in range(abs(ulps)):
            dlt = math.nextafter(dlt, ulps)
        dlt = Fraction(dlt)  # the float's own value, not its decimal reading
        got = sample_complexity(eps, dlt)
        assert (1 - eps) ** got <= dlt < (1 - eps) ** (got - 1)

    def test_a_tie_beyond_the_bit_cap_fails_loudly(self):
        # r = 1e17 ln 3 lies beyond 2^53, where every float is an integer:
        # settling it would take 1e17-fold powers
        with pytest.raises(ValueError, match="too close to a tie to settle within 2\\^18 bits"):
            sample_complexity(Fraction(1, 10**17), "1/3")

    def test_monotone_in_both_arguments(self):
        grid = [Fraction(k, 20) for k in range(1, 20)]
        for dlt in (Fraction(1, 10), Fraction(1, 3)):
            ds = [sample_complexity(e, dlt) for e in grid]
            assert ds == sorted(ds, reverse=True)
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            ds = [sample_complexity(eps, dl) for dl in grid]
            assert ds == sorted(ds, reverse=True)


class TestGuaranteeBound:
    """GuaranteeReport.bound, 1 - (1-eps)^d, computed without cancellation."""

    @staticmethod
    def bound(eps, d: int) -> float:
        P = FinSupportDist(["a"], [Fraction(1)])
        return verify_guarantee([(lambda s: {"a"}, d)], P, eps, Fraction(1, 3), 1, seed=0)[0].bound

    def test_small_epsilon_keeps_every_printed_digit(self):
        # 1 - (1 - eps)^d printed 1.00000008274e-10 and 7.00000057918e-10 here
        assert f"{self.bound(Fraction(1, 10**10), 1):.12g}" == "1e-10"
        assert f"{self.bound(Fraction(1, 10**10), 7):.12g}" == "6.9999999979e-10"

    @settings(max_examples=200, deadline=None)
    @given(eps=st.one_of(st.fractions(Fraction(1, 10**15), Fraction(999, 1000), max_denominator=10**15),
                         st.sampled_from([Fraction(1, 10**10), Fraction(1, 3), Fraction(1, 2)])),
           d=st.integers(1, 5000))
    def test_matches_50_digit_mpmath(self, eps, d):
        with mpmath.workdps(50):
            want = 1 - (1 - mpmath.mpf(eps.numerator) / eps.denominator) ** d
        assert math.isclose(self.bound(eps, d), float(want), rel_tol=1e-14), (eps, d)


class TestVerifyGuarantee:
    def learner(self, dom):
        return lambda s: quantile_learn(s, dom)

    def test_point_mass_always_succeeds(self):
        P = FinSupportDist(["a"], [Fraction(1)])
        dom = IndexedDomain("a")
        rep = verify_guarantee([(self.learner(dom), 1)], P, Fraction(1, 3), Fraction(1, 3), 50, seed=0)[0]
        assert rep.empirical_rate == 1.0
        assert rep.ci_halfwidth == 0.0

    def test_reports_are_reproducible(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        dom = IndexedDomain("abc")
        a = verify_guarantee([(self.learner(dom), 3)], P, Fraction(1, 3), Fraction(1, 3), 400, seed=7)[0]
        b = verify_guarantee([(self.learner(dom), 3)], P, Fraction(1, 3), Fraction(1, 3), 400, seed=7)[0]
        assert a == b
        c = verify_guarantee([(self.learner(dom), 3)], P, Fraction(1, 3), Fraction(1, 3), 400, seed=8)[0]
        assert c.empirical_rate != a.empirical_rate or c.seed != a.seed

    def test_report_fields_and_json(self):
        P = uniform_on("ab")
        dom = IndexedDomain("ab")
        rep = verify_guarantee([(self.learner(dom), 2)], P, Fraction(1, 2), Fraction(1, 2), 10, seed=1)[0]
        obj = rep._asdict()
        assert set(obj) == {
            "epsilon", "delta", "d", "trials", "seed",
            "empirical_rate", "ci_halfwidth", "bound",
        }
        assert obj["epsilon"] == Fraction(1, 2)
        assert obj["bound"] == pytest.approx(0.75)

    def test_rational_strings_accepted(self):
        P = uniform_on("ab")
        dom = IndexedDomain("ab")
        rep = verify_guarantee([(self.learner(dom), 2)], P, "1/2", "1/2", 10, seed=1)[0]
        want = verify_guarantee([(self.learner(dom), 2)], P, Fraction(1, 2), Fraction(1, 2), 10, seed=1)[0]
        assert rep == want
        assert rep.delta == Fraction(1, 2)

    def test_a_sample_size_past_the_limit_is_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(emx, "SAMPLE_LIMIT", 64)
        learner, P = self.learner(IndexedDomain("ab")), uniform_on("ab")
        assert verify_guarantee([(learner, 64)], P, "1/2", "1/2", 3, seed=0)[0].d == 64
        monkeypatch.setattr(emx, "substreams", lambda seed, count: pytest.fail("drew a trial"))
        with pytest.raises(ValueError, match=r"^sample size d = 65 is above the limit of 64 points$"):
            verify_guarantee([(learner, 65)], P, "1/2", "1/2", 3, seed=0)

    def test_trials_past_the_limit_are_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(emx, "SAMPLE_LIMIT", 64)
        learner, P = self.learner(IndexedDomain("ab")), uniform_on("ab")
        assert verify_guarantee([(learner, 2)], P, "1/2", "1/2", 64, seed=0)[0].trials == 64
        monkeypatch.setattr(emx, "substreams", lambda seed, count: pytest.fail("drew a trial"))
        with pytest.raises(ValueError, match=r"^trials = 65 is above the limit of 64$"):
            verify_guarantee([(learner, 2)], P, "1/2", "1/2", 65, seed=0)

    def test_trials_validated(self):
        P = uniform_on("ab")
        with pytest.raises(ValueError):
            verify_guarantee([(lambda s: frozenset("ab"), 1)], P, 0.5, 0.5, 0, seed=0)

    @pytest.mark.parametrize("eps, dlt", [(0, "1/2"), (1, "1/2"), (2, "1/2"), ("1/2", 1), ("1/2", 5)])
    def test_epsilon_and_delta_validated(self, eps, dlt):
        with pytest.raises(ValueError, match=r"need epsilon in \(0,1\) and delta in \[0,1\)"):
            verify_guarantee([(lambda s: frozenset("ab"), 1)], uniform_on("ab"), eps, dlt, 5, seed=0)

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)])
    @pytest.mark.parametrize("size", [2, 10, 50])
    def test_rate_beats_bound_on_uniform_grid(self, eps, size):
        """At d = sample_complexity(eps, 1/3) the success rate must sit at or
        above 1-(1-eps)^d, up to 4-sigma Monte Carlo noise."""
        P = uniform_on(range(size))
        dom = IndexedDomain(range(size))
        d = sample_complexity(eps, Fraction(1, 3))
        trials = 250
        rep = verify_guarantee([(self.learner(dom), d)], P, eps, Fraction(1, 3), trials, seed=20177 + size)[0]
        floor = rep.bound - 4.0 * math.sqrt(rep.bound * (1.0 - rep.bound) / trials) - 1e-12
        assert rep.empirical_rate >= floor

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**20))
    def test_success_indicator_matches_exact_mass_cut(self, d, seed):
        """One-trial reports agree with a by-hand success check."""
        P = FinSupportDist("abcd", ["1/2", "1/4", "1/8", "1/8"])
        dom = IndexedDomain("abcd")
        rep = verify_guarantee([(self.learner(dom), d)], P, Fraction(1, 3), Fraction(1, 3), 1, seed=seed)[0]
        S = draw_sample(P, d, seed=seed, stream=(0,))
        expected = mass(P, quantile_learn(S, dom)) >= Fraction(2, 3)
        assert rep.empirical_rate == (1.0 if expected else 0.0)


class TestQuantileSuccess:
    """1 - F(t*-1)^d, with t* the smallest rank whose prefix mass reaches 1 - eps."""

    @pytest.mark.parametrize("eps, below", [
        (Fraction(1, 8), Fraction(3, 4)),  # prefixes 1/2, 3/4, 7/8: t* = 3
        (Fraction(1, 4), Fraction(1, 2)),  # 3/4 reached at t* = 2
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(9, 10), Fraction(0)),  # the first point alone reaches 1/10
    ])
    def test_closed_form_on_dyadic_weights(self, eps, below):
        dom = IndexedDomain("abcd")
        in_order = FinSupportDist("abcd", ["1/2", "1/4", "1/8", "1/8"])
        reversed_support = FinSupportDist("dcba", ["1/8", "1/8", "1/4", "1/2"])
        for P in (in_order, reversed_support):
            for d in range(1, 6):
                got = quantile_success(P, dom, eps, d)
                assert isinstance(got, Fraction)
                assert got == 1 - below**d

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 30), data=st.data())
    def test_closed_form_on_uniform(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        d = data.draw(st.integers(1, 20))
        P = uniform_on(range(n))
        # target (n-k)/n is reached at rank n-k, so F(t*-1) = (n-k-1)/n
        assert quantile_success(P, IndexedDomain(range(n)), Fraction(k, n), d) == 1 - Fraction(n - k - 1, n) ** d

    def test_float_weights_give_an_exact_fraction(self):
        P = FinSupportDist("abc", [0.5, 0.25, 0.25])
        got = quantile_success(P, IndexedDomain("abc"), "1/4", 2)  # t* = 2, F(1) = 1/2
        assert isinstance(got, Fraction) and got == Fraction(3, 4)
        # three float(1/6) add to 0.5 in floats, but their exact sum is below 1/2: t* = 4, not 3
        P = FinSupportDist("abcdef", [1 / 6] * 6)
        assert (1 / 6 + 1 / 6) + 1 / 6 == 0.5 > 3 * Fraction(1 / 6)
        assert quantile_success(P, IndexedDomain("abcdef"), "1/2", 2) == 1 - (3 * Fraction(1 / 6)) ** 2

    def test_target_beyond_the_ranked_mass_rejected(self):
        # only a and b carry a rank, and their mass 2/3 never reaches 3/4
        P = uniform_on("abc")
        with pytest.raises(ValueError, match="never reach"):
            quantile_success(P, IndexedDomain("ab"), "1/4", 2)

    def test_epsilon_validated(self):
        P = uniform_on("ab")
        for eps in (0, 1, "3/2"):
            with pytest.raises(ValueError):
                quantile_success(P, IndexedDomain("ab"), eps, 1)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("exact", [True, False])
    def test_empirical_rate_within_four_sigma(self, seed, exact):
        rng = np.random.default_rng(seed)
        counts = [int(c) for c in rng.integers(1, 10, size=30)]
        total = sum(counts)
        ws = [Fraction(c, total) if exact else c / total for c in counts]
        labels = [f"x{i:02d}" for i in range(30)]
        P, dom = FinSupportDist(labels, ws), IndexedDomain(labels)
        trials, eps, d = 400, Fraction(1, 10), 10
        p = float(quantile_success(P, dom, eps, d))
        assert 0.2 < p < 0.95  # far enough from 1 for the check to bite
        rep = verify_guarantee([(lambda s: quantile_learn(s, dom), d)], P, eps, Fraction(1, 10), trials, seed)[0]
        assert abs(rep.empirical_rate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
