"""Compression schemes: the 2->1 rule, ERM over reconstructions, the sample
size threshold, and the learner->scheme direction."""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plab.compression import (
    LEVEL_LIMIT,
    CompressionScheme,
    check_monotone_coverage,
    compression_learner,
    required_n,
    segment_scheme,
)
from plab.emx import FiniteHypothesis, FinSupportDist, IndexedDomain, SegmentLearner, quantile_learn, verify_guarantee
from oracles import learner_to_compression
from random_fixtures import draw_sample

DOM = IndexedDomain(tuple("abcdefg"))


class UntestableSegment(FiniteHypothesis):
    """A segment whose membership test raises."""

    __slots__ = ()

    def __contains__(self, x):
        raise AssertionError(f"membership of {x!r} tested")


class TestTwoToOne:
    def test_keeps_larger_index(self):
        scheme = segment_scheme(DOM, 1)
        assert check_monotone_coverage(scheme, ("f", "c")) == ("f",)
        assert check_monotone_coverage(scheme, ("c", "f")) == ("f",)
        assert check_monotone_coverage(scheme, ("d", "d")) == ("d",)

    def test_reconstruction_is_initial_segment(self):
        assert frozenset(quantile_learn(("d",), DOM)) == frozenset("abcd")

    def test_scheme_covers_both_points(self):
        scheme = segment_scheme(DOM, 1)
        sub = check_monotone_coverage(scheme, ("c", "f"))
        assert sub == ("f",)
        assert set("cf") <= frozenset(scheme.reconstruct(sub))

    @given(st.tuples(st.sampled_from(DOM.labels), st.sampled_from(DOM.labels)))
    def test_coverage_never_fails(self, pair):
        assert check_monotone_coverage(segment_scheme(DOM, 1), pair) is not None

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            check_monotone_coverage(segment_scheme(DOM, 1), ("a", "b", "c"))

    def test_no_covering_subtuple_gives_none(self):
        # reconstructing a kept point as itself alone always misses the other
        scheme = CompressionScheme(m_out=1, reconstruct=frozenset)
        assert check_monotone_coverage(scheme, ("a", "b")) is None

    def test_scheme_sizes_validated(self):
        for k in (1, 2, 7):
            assert CompressionScheme(m_out=k, reconstruct=frozenset).m_in == k + 1
        with pytest.raises(ValueError, match="need m_out >= 1"):
            CompressionScheme(m_out=0, reconstruct=lambda s: None)


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
        # at m = 2^53 the float spacing of the terms is far above the gap at the answer
        with pytest.raises(ValueError, match=r"^the least n for m = 9007199254740992 is too close to a float tie"):
            required_n(2**53)
        for m in (2**53 + 1, 10**309):  # 10^309 does not even convert to a float
            with pytest.raises(ValueError, match=r"^m must lie in \[1, 2\^53\]$"):
                required_n(m)

    def test_bisection_matches_the_scan(self):
        """The float conditions, scanned one n at a time from m + 1."""
        log_alpha = math.log(1.0 / 6.0)

        def scan(m):
            n = m + 1
            while True:
                cond_ratio = 6 * m <= n
                log_comb = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                cond_union = math.log(2.0) + log_comb - (n - m) / 18.0 <= log_alpha
                cond_tail = -n / 18.0 <= log_alpha
                if cond_ratio and cond_union and cond_tail:
                    return n
                n += 1

        assert [required_n(m) for m in range(1, 301)] == [scan(m) for m in range(1, 301)]

    @pytest.mark.parametrize("m", [18, 10**4, 200000, 10**6])
    def test_large_m_is_the_threshold_at_high_precision(self, m):
        def holds(n):
            with mpmath.workdps(50):
                alpha = mpmath.mpf(1) / 6
                return (mpmath.mpf(m) / n <= alpha
                        and mpmath.log(2 * mpmath.binomial(n, m)) - mpmath.mpf(n - m) / 18 <= mpmath.log(alpha)
                        and mpmath.e ** (-mpmath.mpf(n) / 18) <= alpha)

        n = required_n(m)
        assert holds(n) and not holds(n - 1)


    def test_least_n_at_60_digits_or_refused(self):
        """Wherever required_n returns, it is the least n with f(n) = ln 12 +
        ln C(n,m) - (n-m)/18 <= 0 at 60 digits: f is concave in n and
        f(m + 1) > 0, so f(n) <= 0 < f(n - 1) pins the least n.  Sampled at 25
        random m per octave up to 2^53, none of which up to 2^20 is refused,
        and at two m where the three-lgamma form was wrong: 22,424 too high,
        and one too low at m = 106,972,384."""
        def union_holds(m, n):
            with mpmath.workdps(60):
                return mpmath.log(12) + mpmath.loggamma(n + 1) - mpmath.loggamma(m + 1) \
                    - mpmath.loggamma(n - m + 1) - mpmath.mpf(n - m) / 18 <= 0

        rng = random.Random(47)
        ms = [rng.randrange(1 << e, 2 << e) for e in range(53) for _ in range(25)] + [5338035485622270, 106972384]
        answered = {}
        for m in ms:
            try:
                answered[m] = required_n(m)
            except ValueError as exc:
                assert m > 2**20 and str(exc) == f"the least n for m = {m} is too close to a float tie to settle"
        assert len(answered) > 25 * 30
        for m, n in answered.items():
            assert union_holds(m, n) and not union_holds(m, n - 1), m
        assert answered.get(5338035485622270) != 545523999733637150
        assert answered[106972384] == 10932112019


class TestCompressionLearner:
    def test_needs_one_extra_point(self):
        with pytest.raises(ValueError):
            compression_learner(segment_scheme(DOM, 1), ("a",), DOM)

    def test_erm_picks_max_mass_segment(self):
        h = compression_learner(segment_scheme(DOM, 1), ("b", "e", "b"), DOM)
        assert frozenset(h) == frozenset("abcde")

    @given(m=st.integers(1, 3), data=st.data())
    def test_erm_over_segments_equals_quantile_learner(self, m, data):
        # candidates are nested initial segments, so the largest one dominates
        pts = tuple(data.draw(st.lists(st.sampled_from(DOM.labels), min_size=m + 1, max_size=10)))
        assert compression_learner(segment_scheme(DOM, m), pts, DOM) == quantile_learn(pts, DOM)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_erm_rate_is_the_segment_learners(self, m):
        """One ``verify_guarantee`` call carries the ERM of ``segment_scheme(dom, m)`` and
        ``SegmentLearner(dom)`` at the same n, on seeded random rational P and a shuffled domain
        order: both points read the same draws, and the ERM is the quantile learner on each, so
        the rates are equal.  An epsilon of at most 1/5 keeps most rates below 1."""
        rng = random.Random(m)
        for _ in range(8):
            counts = [rng.randint(1, 9) for _ in range(rng.randint(2, 8))]
            P = FinSupportDist(tuple(f"x{i}" for i in range(len(counts))), [Fraction(c, sum(counts)) for c in counts])
            dom = IndexedDomain(rng.sample(P.support, len(counts)))
            scheme, n = segment_scheme(dom, m), rng.randint(m + 1, m + 6)
            erm, seg = verify_guarantee([(lambda s: compression_learner(scheme, s, dom), n), (SegmentLearner(dom), n)],
                                        P, Fraction(rng.randint(1, 4), 20), "1/4", 200, rng.randrange(2**32))
            assert erm.empirical_rate == seg.empirical_rate

    @given(st.lists(st.sampled_from(DOM.labels), min_size=3, max_size=8))
    def test_result_ignores_sample_order(self, pts):
        scheme = segment_scheme(DOM, 2)
        base = compression_learner(scheme, tuple(pts), DOM)
        for perm in itertools.islice(itertools.permutations(pts), 6):
            assert compression_learner(scheme, perm, DOM) == base

    def test_equal_sets_keep_the_first_met(self):
        # the frozenset {a, b, c} is met after the first segment of DOM's
        # family and before the segment with its elements, which ties and loses
        recon = {"a": DOM.initial_segment(1), "c": frozenset("abc"), "d": DOM.initial_segment(3)}
        scheme = CompressionScheme(m_out=1, reconstruct=lambda sub: recon[sub[0]])
        h = compression_learner(scheme, ("a", "c", "d"), DOM)
        assert type(h) is frozenset and h == frozenset("abc")

    def test_one_nested_family_is_answered_without_membership_tests(self):
        # every candidate is a segment over DOM: the largest wins whatever its hits
        scheme = CompressionScheme(m_out=2,
                                   reconstruct=lambda sub: UntestableSegment(DOM, max(map(DOM.idx, sub))))
        h = compression_learner(scheme, ("b", "e", "c", "b"), DOM)
        assert type(h) is UntestableSegment and h == DOM.initial_segment(5)
        # a second domain object is a second family: the two finalists are scored
        twin = IndexedDomain(DOM.labels)
        two = CompressionScheme(m_out=1,
                                reconstruct=lambda sub: UntestableSegment(DOM if sub == ("b",) else twin, DOM.idx(sub[0])))
        with pytest.raises(AssertionError, match="membership of .* tested"):
            compression_learner(two, ("b", "e"), DOM)

    def test_a_walk_level_past_the_limit_is_refused_before_it_is_built(self):
        # 3 values and m = 18: the walk's levels grow toward 3^k value subtuples
        P = FinSupportDist(tuple("abc"), ["1/2", "1/4", "1/4"])
        dom = IndexedDomain(P.support)
        sample = draw_sample(P, required_n(18), seed=1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"m = 18 walks more than {LEVEL_LIMIT} distinct value subtuples"):
            compression_learner(segment_scheme(dom, 18), sample, dom)
        assert time.perf_counter() - start < 10.0

    def test_tie_breaks_toward_larger_then_lex_smaller(self):
        # non-nested candidates: reconstruct is the kept point alone
        point_scheme = CompressionScheme(m_out=1, reconstruct=frozenset)
        # equal mass, equal size -> smaller index description wins
        h = compression_learner(point_scheme, ("e", "b"), DOM)
        assert h == frozenset("b")
        # equal mass, different size -> larger hypothesis wins
        pair_scheme = CompressionScheme(
            m_out=2,
            reconstruct=lambda sub: frozenset(sub if sub[0] != sub[1] else (sub[0], "g")),
        )
        h = compression_learner(pair_scheme, ("c", "c", "c"), DOM)
        assert h == frozenset("cg")


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
        assert type(hyp) is frozenset and hyp == frozenset("abcde")

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
