"""Core learning loop: domains, distributions, the quantile learner, and the
Monte Carlo guarantee harness.

Frozen values are hand-derived from the closed forms; exact comparisons use
Fraction end to end so no assertion sits on a float boundary.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab.emx import (
    FinSupportDist,
    FiniteHypothesis,
    IndexedDomain,
    RationalLiteralError,
    as_fraction,
    mass,
    parse_weight,
    quantile_learn,
    quantile_success,
    sample_complexity,
    substream,
    verify_guarantee,
)
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

    def test_parse_weight_keeps_floats_inexact(self):
        w = parse_weight(0.25)
        assert isinstance(w, float)
        assert isinstance(parse_weight("1/4"), Fraction)


class TestIndexedDomain:
    def test_ranks_are_one_based_in_declared_order(self):
        dom = IndexedDomain(LETTERS)
        assert dom.idx("a") == 1
        assert dom.idx("j") == 10
        assert dom.label(3) == "c"
        assert len(dom) == 10

    def test_unknown_label_and_bad_rank(self):
        dom = IndexedDomain("abc")
        with pytest.raises(KeyError):
            dom.idx("z")
        with pytest.raises(IndexError):
            dom.label(0)
        with pytest.raises(IndexError):
            dom.label(4)

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

    def test_segment_equals_explicit_set(self):
        dom = IndexedDomain("abcde")
        assert dom.initial_segment(3) == FiniteHypothesis.from_elements("abc")
        assert dom.initial_segment(3) != FiniteHypothesis.from_elements("abd")

    def test_membership_outside_domain_is_false(self):
        dom = IndexedDomain("abc")
        assert "z" not in dom.initial_segment(2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            IndexedDomain("abc").initial_segment(-1)

    def test_never_equal_to_other_types(self):
        assert (IndexedDomain("abc").initial_segment(1) == 3) is False

    def test_iteration_in_both_forms(self):
        dom = IndexedDomain("abcd")
        assert list(dom.initial_segment(2)) == ["a", "b"]
        assert list(dom.initial_segment(9)) == list("abcd")
        assert sorted(FiniteHypothesis.from_elements("ca")) == ["a", "c"]

    def test_segment_hash_does_not_enumerate(self):
        seg = IndexedDomain(range(2**40)).initial_segment(2**39)
        assert hash(seg) == hash(IndexedDomain(range(2**40)).initial_segment(2**39))

    def test_segments_past_the_len_limit_hash_alike(self):
        # len() cannot return 2^63; the hash uses the exact size instead
        dom = IndexedDomain(range(2**64))
        seg = dom.initial_segment(2**63)
        assert seg == dom.initial_segment(2**63)
        assert hash(seg) == hash(dom.initial_segment(2**63)) == hash(2**63)
        assert hash(dom.initial_segment(2**70)) == hash(IndexedDomain(range(2**64)).initial_segment(2**64))

    def test_segments_over_equal_domains_compare_without_elements(self, monkeypatch):
        # different label orders still compare as element sets
        assert IndexedDomain("abc").initial_segment(2) == IndexedDomain("bac").initial_segment(2)
        assert IndexedDomain("abc").initial_segment(1) != IndexedDomain("bac").initial_segment(1)

        def no_elements(self):
            raise AssertionError("segment equality built an element set")

        monkeypatch.setattr(FiniteHypothesis, "elements", property(no_elements))
        a, b = IndexedDomain(range(2**21)), IndexedDomain(range(2**21))
        assert a.initial_segment(2**20) == b.initial_segment(2**20)
        assert a.initial_segment(2**20) != b.initial_segment(2**20 + 1)
        assert a.initial_segment(2**22) == b.initial_segment(2**21)  # both are the whole domain

    @given(start=st.integers(-20, 20), stop=st.integers(-20, 20),
           step=st.integers(-5, 5).filter(bool))
    def test_range_size_is_its_length(self, start, stop, step):
        r = range(start, stop, step)
        assert IndexedDomain(r).size == len(IndexedDomain(r)) == len(r)

    def test_equal_forms_hash_alike(self):
        dom = IndexedDomain("abcde")
        seg = dom.initial_segment(3)
        explicit = FiniteHypothesis.from_elements("cab")
        assert seg == explicit and hash(seg) == hash(explicit)
        assert len({seg, explicit, dom.initial_segment(99), FiniteHypothesis.from_elements("abcde")}) == 2


class TestFinSupportDist:
    def test_rational_weights_must_sum_to_one_exactly(self):
        with pytest.raises(ValueError):
            FinSupportDist("ab", [Fraction(1, 2), Fraction(1, 3)])

    def test_float_weights_tolerate_1e12(self):
        FinSupportDist("ab", [0.5, 0.5 + 1e-13])
        with pytest.raises(ValueError):
            FinSupportDist("ab", [0.5, 0.51])

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
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        Q = FinSupportDist.from_json(P.to_json())
        assert Q.weights == P.weights
        assert Q.support == ("a", "b", "c")


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
            verify_guarantee(lambda s: quantile_learn(s, dom), uniform_on("ab"), "1/2", "1/2", -1, 5, seed=0)

    def test_trial_k_draws_from_substream_seed_k(self):
        P = uniform_on("abcdef")
        drawn = []
        verify_guarantee(lambda s: drawn.append(s) or frozenset(), P, "1/2", "1/2", 4, 3, seed=9)
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

    def test_monotone_in_both_arguments(self):
        grid = [Fraction(k, 20) for k in range(1, 20)]
        for dlt in (Fraction(1, 10), Fraction(1, 3)):
            ds = [sample_complexity(e, dlt) for e in grid]
            assert ds == sorted(ds, reverse=True)
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            ds = [sample_complexity(eps, dl) for dl in grid]
            assert ds == sorted(ds, reverse=True)


class TestVerifyGuarantee:
    def learner(self, dom):
        return lambda s: quantile_learn(s, dom)

    def test_point_mass_always_succeeds(self):
        P = FinSupportDist(["a"], [Fraction(1)])
        dom = IndexedDomain("a")
        rep = verify_guarantee(self.learner(dom), P, Fraction(1, 3), Fraction(1, 3), 1, 50, seed=0)
        assert rep.empirical_rate == 1.0
        assert rep.ci_halfwidth == 0.0

    def test_reports_are_reproducible(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        dom = IndexedDomain("abc")
        a = verify_guarantee(self.learner(dom), P, Fraction(1, 3), Fraction(1, 3), 3, 400, seed=7)
        b = verify_guarantee(self.learner(dom), P, Fraction(1, 3), Fraction(1, 3), 3, 400, seed=7)
        assert a == b
        c = verify_guarantee(self.learner(dom), P, Fraction(1, 3), Fraction(1, 3), 3, 400, seed=8)
        assert c.empirical_rate != a.empirical_rate or c.seed != a.seed

    def test_report_fields_and_json(self):
        P = uniform_on("ab")
        dom = IndexedDomain("ab")
        rep = verify_guarantee(self.learner(dom), P, Fraction(1, 2), Fraction(1, 2), 2, 10, seed=1)
        obj = dataclasses.asdict(rep)
        assert set(obj) == {
            "epsilon", "delta", "d", "trials", "seed",
            "empirical_rate", "ci_halfwidth", "bound",
        }
        assert obj["epsilon"] == Fraction(1, 2)
        assert obj["bound"] == pytest.approx(0.75)

    def test_rational_strings_accepted(self):
        P = uniform_on("ab")
        dom = IndexedDomain("ab")
        rep = verify_guarantee(self.learner(dom), P, "1/2", "1/2", 2, 10, seed=1)
        want = verify_guarantee(self.learner(dom), P, Fraction(1, 2), Fraction(1, 2), 2, 10, seed=1)
        assert rep == want
        assert rep.delta == Fraction(1, 2)

    def test_trials_validated(self):
        P = uniform_on("ab")
        with pytest.raises(ValueError):
            verify_guarantee(lambda s: frozenset("ab"), P, 0.5, 0.5, 1, 0, seed=0)

    @pytest.mark.parametrize("eps, dlt", [(0, "1/2"), (1, "1/2"), (2, "1/2"), ("1/2", 1), ("1/2", 5)])
    def test_epsilon_and_delta_validated(self, eps, dlt):
        with pytest.raises(ValueError, match=r"need epsilon in \(0,1\) and delta in \[0,1\)"):
            verify_guarantee(lambda s: frozenset("ab"), uniform_on("ab"), eps, dlt, 1, 5, seed=0)

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)])
    @pytest.mark.parametrize("size", [2, 10, 50])
    def test_rate_beats_bound_on_uniform_grid(self, eps, size):
        """At d = sample_complexity(eps, 1/3) the success rate must sit at or
        above 1-(1-eps)^d, up to 4-sigma Monte Carlo noise."""
        P = uniform_on(range(size))
        dom = IndexedDomain(range(size))
        d = sample_complexity(eps, Fraction(1, 3))
        trials = 250
        rep = verify_guarantee(self.learner(dom), P, eps, Fraction(1, 3), d, trials, seed=20177 + size)
        floor = rep.bound - 4.0 * math.sqrt(rep.bound * (1.0 - rep.bound) / trials) - 1e-12
        assert rep.empirical_rate >= floor

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 12), seed=st.integers(0, 2**20))
    def test_success_indicator_matches_exact_mass_cut(self, d, seed):
        """One-trial reports agree with a by-hand success check."""
        P = FinSupportDist("abcd", ["1/2", "1/4", "1/8", "1/8"])
        dom = IndexedDomain("abcd")
        rep = verify_guarantee(self.learner(dom), P, Fraction(1, 3), Fraction(1, 3), d, 1, seed=seed)
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

    def test_float_weights_give_a_float(self):
        P = FinSupportDist("abc", [0.5, 0.25, 0.25])
        got = quantile_success(P, IndexedDomain("abc"), "1/4", 2)  # t* = 2, F(1) = 0.5
        assert isinstance(got, float) and got == 0.75

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
        rep = verify_guarantee(lambda s: quantile_learn(s, dom), P, eps, Fraction(1, 10), d, trials, seed)
        assert abs(rep.empirical_rate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
