"""Core learning loop: domains, distributions, the quantile learner, and the
Monte Carlo guarantee harness.

Frozen values are hand-derived from the closed forms; exact comparisons use
Fraction end to end so no assertion sits on a float boundary.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab.emx import (
    FINITE_SUBSETS,
    FinSupportDist,
    FiniteHypothesis,
    IndexedDomain,
    as_fraction,
    draw_sample,
    mass,
    opt_value,
    parse_weight,
    quantile_learn,
    sample_complexity,
    substream,
    verify_guarantee,
)

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
        dom = IndexedDomain.integer_range(256)
        assert dom.idx(0) == 1
        assert dom.idx(255) == 256
        assert 255 in dom and 256 not in dom
        with pytest.raises(KeyError):
            dom.idx(256)


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

    def test_segment_hash_does_not_enumerate(self):
        seg = IndexedDomain(range(2**40)).initial_segment(2**39)
        assert hash(seg) == hash(IndexedDomain(range(2**40)).initial_segment(2**39))

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
        assert draw_sample(P, 25, seed=11).points == draw_sample(P, 25, seed=11).points
        assert (
            draw_sample(P, 25, seed=11, stream=(4,)).points
            == draw_sample(P, 25, seed=11, stream=(4,)).points
        )

    def test_distinct_streams_differ(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        a = draw_sample(P, 40, seed=11, stream=(0,)).points
        b = draw_sample(P, 40, seed=11, stream=(1,)).points
        assert a != b

    def test_substream_is_order_independent(self):
        # stream k is a function of (seed, k) alone
        later = substream(3, 17).random(5).tolist()
        again = substream(3, 17).random(5).tolist()
        assert later == again

    def test_frequencies_track_weights(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        pts = draw_sample(P, 40_000, seed=5).points
        for x, w in zip(P.support, P.weights):
            freq = pts.count(x) / len(pts)
            # 4 sigma at n=40000, p=1/2 is 0.01
            assert abs(freq - float(w)) < 0.01

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            draw_sample(uniform_on("ab"), -1, seed=0)


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

    def test_opt_is_one_for_finite_subsets(self):
        P = uniform_on("abc")
        assert opt_value(P) == Fraction(1)
        assert opt_value(P, FINITE_SUBSETS) == 1
        with pytest.raises(ValueError):
            opt_value(P, "halfspaces")


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
        obj = rep.to_json()
        assert set(obj) == {
            "epsilon", "delta", "d", "trials", "seed",
            "empirical_rate", "ci_halfwidth", "bound",
        }
        assert obj["epsilon"] == "1/2"
        assert obj["bound"] == pytest.approx(0.75)

    def test_rational_strings_accepted(self):
        P = uniform_on("ab")
        dom = IndexedDomain("ab")
        rep = verify_guarantee(self.learner(dom), P, "1/2", "1/2", 2, 10, seed=1)
        want = verify_guarantee(self.learner(dom), P, Fraction(1, 2), Fraction(1, 2), 2, 10, seed=1)
        assert rep == want
        assert rep.to_json()["delta"] == "1/2"

    def test_trials_validated(self):
        P = uniform_on("ab")
        with pytest.raises(ValueError):
            verify_guarantee(lambda s: frozenset("ab"), P, 0.5, 0.5, 1, 0, seed=0)

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)])
    @pytest.mark.parametrize("size", [2, 10, 50])
    def test_rate_beats_bound_on_uniform_grid(self, eps, size):
        """At d = sample_complexity(eps, 1/3) the success rate must sit at or
        above 1-(1-eps)^d, up to 4-sigma Monte Carlo noise."""
        P = uniform_on(range(size))
        dom = IndexedDomain.integer_range(size)
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
