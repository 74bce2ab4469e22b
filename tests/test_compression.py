"""Compression schemes: the 2->1 rule, ERM over reconstructions, the sample
size threshold, and the learner->scheme direction."""

import itertools

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plab.compression import (
    CompressionScheme,
    check_monotone_coverage,
    compress_two_to_one,
    compression_learner,
    learner_to_compression,
    required_n,
    segment_scheme,
)
from plab.emx import FinSupportDist, FiniteHypothesis, IndexedDomain, quantile_learn
from random_fixtures import draw_sample

DOM = IndexedDomain(tuple("abcdefg"))


class TestTwoToOne:
    def test_keeps_larger_index(self):
        assert compress_two_to_one("f", "c", DOM) == "f"
        assert compress_two_to_one("c", "f", DOM) == "f"
        assert compress_two_to_one("d", "d", DOM) == "d"

    def test_reconstruction_is_initial_segment(self):
        assert quantile_learn(("d",), DOM).elements == frozenset("abcd")

    def test_scheme_covers_both_points(self):
        scheme = segment_scheme(DOM, 1)
        sub = check_monotone_coverage(scheme, ("c", "f"))
        assert sub == ("f",)
        assert set("cf") <= scheme.reconstruct(sub).elements

    @given(st.tuples(st.sampled_from(DOM.labels), st.sampled_from(DOM.labels)))
    def test_coverage_never_fails(self, pair):
        assert check_monotone_coverage(segment_scheme(DOM, 1), pair) is not None

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            check_monotone_coverage(segment_scheme(DOM, 1), ("a", "b", "c"))

    def test_no_covering_subtuple_gives_none(self):
        # reconstructing a kept point as itself alone always misses the other
        scheme = CompressionScheme(m_in=2, m_out=1, reconstruct=FiniteHypothesis.from_elements)
        assert check_monotone_coverage(scheme, ("a", "b")) is None

    def test_scheme_sizes_validated(self):
        with pytest.raises(ValueError):
            CompressionScheme(m_in=1, m_out=1, reconstruct=lambda s: None)
        with pytest.raises(ValueError):
            CompressionScheme(m_in=2, m_out=0, reconstruct=lambda s: None)


def oracle_required_n(m: int) -> int:
    """50-digit re-derivation of the threshold: smallest n with
    m/n <= 1/6, 2*C(n,m)*exp(-(n-m)/18) <= 1/6, exp(-n/18) <= 1/6."""
    with mpmath.workdps(50):
        alpha = mpmath.mpf(1) / 6
        n = m + 1
        while True:
            ok = (
                mpmath.mpf(m) / n <= alpha
                and 2 * mpmath.binomial(n, m) * mpmath.e ** (-mpmath.mpf(n - m) / 18) <= alpha
                and mpmath.e ** (-mpmath.mpf(n) / 18) <= alpha
            )
            if ok:
                return n
            n += 1


class TestRequiredN:
    def test_threshold_for_single_kept_point(self):
        assert required_n(1) == 134

    def test_133_fails_the_union_condition(self):
        with mpmath.workdps(50):
            lhs = 2 * mpmath.binomial(133, 1) * mpmath.e ** (-mpmath.mpf(132) / 18)
            assert lhs > mpmath.mpf(1) / 6

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_high_precision_oracle(self, m):
        assert required_n(m) == oracle_required_n(m)

    def test_monotone_in_m(self):
        vals = [required_n(m) for m in range(1, 8)]
        assert vals == sorted(vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_m_validated(self):
        with pytest.raises(ValueError):
            required_n(0)


class TestCompressionLearner:
    def test_needs_one_extra_point(self):
        with pytest.raises(ValueError):
            compression_learner(segment_scheme(DOM, 1), ("a",), DOM)

    def test_erm_picks_max_mass_segment(self):
        h = compression_learner(segment_scheme(DOM, 1), ("b", "e", "b"), DOM)
        assert h.elements == frozenset("abcde")

    @given(st.lists(st.sampled_from(DOM.labels), min_size=2, max_size=10))
    def test_erm_over_segments_equals_quantile_learner(self, pts):
        # candidates are nested initial segments, so the largest one dominates
        got = compression_learner(segment_scheme(DOM, 1), tuple(pts), DOM)
        assert got == quantile_learn(tuple(pts), DOM)

    @given(st.lists(st.sampled_from(DOM.labels), min_size=3, max_size=8))
    def test_result_ignores_sample_order(self, pts):
        scheme = segment_scheme(DOM, 2)
        base = compression_learner(scheme, tuple(pts), DOM)
        for perm in itertools.islice(itertools.permutations(pts), 6):
            assert compression_learner(scheme, perm, DOM) == base

    def test_equal_sets_keep_the_first_met(self):
        # the explicit {a, b, c} is met after the first segment of DOM's
        # family and before the segment equal to it, which ties and loses
        recon = {"a": DOM.initial_segment(1), "c": FiniteHypothesis.from_elements("abc"), "d": DOM.initial_segment(3)}
        scheme = CompressionScheme(m_in=2, m_out=1, reconstruct=lambda sub: recon[sub[0]])
        h = compression_learner(scheme, ("a", "c", "d"), DOM)
        assert h == DOM.initial_segment(3) and not h.is_segment

    def test_tie_breaks_toward_larger_then_lex_smaller(self):
        # non-nested candidates: reconstruct is the kept point alone
        point_scheme = CompressionScheme(
            m_in=2, m_out=1, reconstruct=lambda sub: FiniteHypothesis.from_elements(sub)
        )
        # equal mass, equal size -> smaller index description wins
        h = compression_learner(point_scheme, ("e", "b"), DOM)
        assert h.elements == frozenset("b")
        # equal mass, different size -> larger hypothesis wins
        pair_scheme = CompressionScheme(
            m_in=3,
            m_out=2,
            reconstruct=lambda sub: FiniteHypothesis.from_elements(
                sub if sub[0] != sub[1] else (sub[0], "g")
            ),
        )
        h = compression_learner(pair_scheme, ("c", "c", "c"), DOM)
        assert h.elements == frozenset("cg")


class TestLearnerToCompression:
    def make(self, d=3):
        return learner_to_compression(lambda tup: quantile_learn(tup, DOM), d, DOM)

    def test_sizes_follow_three_halves_rule(self):
        assert (self.make(1).m_in, self.make(1).m_out) == (3, 2)
        assert (self.make(3).m_in, self.make(3).m_out) == (6, 5)
        assert (self.make(4).m_in, self.make(4).m_out) == (7, 6)

    def test_reconstruction_unions_learner_outputs(self):
        scheme = self.make(3)
        hyp = scheme.reconstruct(("a", "b", "c", "d", "e"))
        # the quantile learner on any tuple from {a..e} tops out at segment e
        assert hyp.elements == frozenset("abcde")

    def test_reconstruction_arity_checked(self):
        with pytest.raises(ValueError):
            self.make(3).reconstruct(("a", "b"))

    def test_leave_one_out_coverage_small_batch(self):
        scheme = self.make(3)
        P = FinSupportDist.uniform(DOM.labels)
        for k in range(50):
            pts = draw_sample(P, 6, seed=31, stream=(k,))
            assert check_monotone_coverage(scheme, pts) is not None

    def test_d_validated(self):
        with pytest.raises(ValueError):
            self.make(0)
