"""Binning maps, exact pushforward/pullback, and the coarse-grained learner."""

from fractions import Fraction

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab.coarse import (
    BITS_LIMIT,
    TableMap,
    UniformBinsMap,
    pushforward,
)
from plab.cli import main
from plab.emx import FinSupportDist, SegmentLearner, mass, verify_guarantee
from oracles import PulledBackHypothesis, segment_learn
from random_fixtures import draw_sample


def rational_dist(rng, n_points):
    """Random rational-weight distribution on distinct floats in [0,1)."""
    pts = tuple(float(x) for x in sorted(rng.random(n_points)))
    raw = [int(k) for k in rng.integers(1, 10, size=n_points)]
    total = sum(raw)
    return FinSupportDist(pts, [Fraction(k, total) for k in raw])


class TestUniformBinsMap:
    def test_bin_values(self):
        pi = UniformBinsMap(3)
        assert [pi(x) for x in (0.0, 0.124, 0.125, 0.5, 0.999)] == [0, 0, 1, 4, 7]

    def test_right_endpoint_clamps_into_top_bin(self):
        assert UniformBinsMap(3)(1.0) == 7
        assert UniformBinsMap(0)(1.0) == 0

    def test_zero_bits_is_single_cell(self):
        pi = UniformBinsMap(0)
        assert pi(0.3) == 0
        assert len(pi.domain) == 1

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 1.0), bits=st.integers(0, BITS_LIMIT))
    def test_bin_is_the_exact_floor(self, x, bits):
        """floor(x * 2^bits) of the exact rational value of x, at every bit count the map takes."""
        top = (1 << bits) - 1
        assert UniformBinsMap(bits)(x) == min(math.floor(Fraction(x) * 2**bits), top)

    def test_segments_over_2_to_the_64_labels(self):
        """len, hash, == and idx on an alphabet too long for len(range)."""
        dom = UniformBinsMap(64).domain
        h = dom.initial_segment(3)
        assert len(h) == 3
        assert h == dom.initial_segment(3) and hash(h) == hash(dom.initial_segment(3))
        assert dom.initial_segment(2**64) == dom.initial_segment(2**65) != dom.initial_segment(2**64 - 1)
        assert dom.idx(2) == 3
        assert dom.size == 2**64

    def test_bits_beyond_float_range(self):
        for bits in (1023, 1024, BITS_LIMIT):
            pi = UniformBinsMap(bits)
            assert pi(0.5) == 1 << (bits - 1)
            assert pi(1.0) == (1 << bits) - 1
            # the smallest subnormal is 2^-1074
            assert pi(5e-324) == (1 << (bits - 1074) if bits >= 1074 else 0)

    def test_domain_is_numeric_range(self):
        pi = UniformBinsMap(8)
        assert len(pi.domain) == 256
        assert pi.domain.idx(0) == 1
        assert pi.domain.idx(255) == 256

    def test_rejects_bad_bits_and_points(self):
        with pytest.raises(ValueError):
            UniformBinsMap(-1)
        with pytest.raises(ValueError):
            UniformBinsMap(2.0)
        with pytest.raises(ValueError, match="^bits must be a nonnegative integer$"):
            UniformBinsMap(True)  # an int to isinstance, which built a 2-bin map
        # past BITS_LIMIT a library caller gets the refusal ``plab coarse`` prints
        with pytest.raises(ValueError, match=r"^bits = 1075 is above the limit of 1074: every double in \[0,1\] "
                                             r"is a multiple of 2\^-1074, so more bits separate no further points$"):
            UniformBinsMap(1075)
        pi = UniformBinsMap(4)
        for x in (-0.01, 1.01):
            with pytest.raises(ValueError):
                pi(x)


class TestTableMap:
    def test_lookup_and_first_appearance_order(self):
        pi = TableMap([("u", "hi"), ("v", "lo"), ("w", "hi")])
        assert pi("w") == "hi"
        assert pi.domain.labels == ("hi", "lo")

    @given(data=st.data())
    def test_domain_is_the_first_appearance_order_of_the_outputs(self, data):
        table = data.draw(st.dictionaries(st.integers(0, 9), st.sampled_from("pqrst"), min_size=1))
        pairs = [(x, table[x]) for x in data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1))]
        assert TableMap(pairs).domain.labels == tuple(dict.fromkeys(y for _, y in pairs))

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            TableMap([("u", 0), ("u", 1)])
        TableMap([("u", 0), ("u", 0)])  # duplicates that agree are fine

    def test_unknown_input(self):
        with pytest.raises(ValueError):
            TableMap([("u", 0)])("z")


class TestPushforward:
    def test_three_point_example(self):
        # 0.1*8=0.8, 0.2*8=1.6, 0.9*8=7.2 -> bins 0, 1, 7
        P = FinSupportDist([0.1, 0.2, 0.9], [Fraction(1, 3)] * 3)
        Q = pushforward(P, UniformBinsMap(3))
        assert Q.support == (0, 1, 7)
        assert Q.weights == (Fraction(1, 3),) * 3

    def test_weights_merge_exactly(self):
        P = FinSupportDist([0.10, 0.11, 0.9], ["1/3", "1/2", "1/6"])
        Q = pushforward(P, UniformBinsMap(3))
        assert Q.support == (0, 7)
        assert Q.weights == (Fraction(5, 6), Fraction(1, 6))

    def test_table_map_pushforward(self):
        P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
        Q = pushforward(P, TableMap([("a", "x"), ("b", "x"), ("c", "y")]))
        assert Q.support == ("x", "y")
        assert Q.weights == (Fraction(3, 4), Fraction(1, 4))


class TestPullbackIdentity:
    def test_membership_goes_through_the_map(self):
        pi = UniformBinsMap(3)
        G = PulledBackHypothesis(frozenset({0, 1}), pi)
        assert 0.01 in G and 0.2 in G and 0.5 not in G

    def test_pullback_accepts_segment_hypotheses(self):
        pi = UniformBinsMap(2)
        seg = pi.domain.initial_segment(2)  # bins {0, 1}
        G = PulledBackHypothesis(seg, pi)
        assert 0.45 in G and 0.55 not in G

    def test_exact_identity_on_random_instances(self):
        """P(pi^{-1}(F)) == (pi_# P)(F) with zero tolerance."""
        rng = np.random.default_rng(20177)
        pi = UniformBinsMap(8)
        for _ in range(50):
            P = rational_dist(rng, int(rng.integers(2, 20)))
            Q = pushforward(P, pi)
            cells = frozenset(
                int(b) for b in rng.choice(256, size=int(rng.integers(1, 40)), replace=False)
            )
            lhs = mass(P, PulledBackHypothesis(cells, pi))
            rhs = mass(Q, cells)
            assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
            assert lhs == rhs

    def test_bins_nest_across_precision_levels(self):
        # the level-l cell of x is the level-(l+k) cell shifted down k bits
        rng = np.random.default_rng(3)
        xs = [0.0, 1.0, 0.5] + [float(v) for v in rng.random(200)]
        for ell, k in [(0, 3), (2, 1), (4, 4), (7, 1)]:
            lo, hi = UniformBinsMap(ell), UniformBinsMap(ell + k)
            assert all(lo(x) == hi(x) >> k for x in xs)


class TestCoarseLearn:
    def test_returns_preimage_of_learned_segment(self):
        pi = UniformBinsMap(3)
        h = segment_learn(SegmentLearner(pi.domain, pi), [0.05, 0.3, 0.15])
        assert isinstance(h, PulledBackHypothesis)
        # max bin among {0, 2, 1} is 2 -> all of [0, 3/8) is in
        assert 0.37 in h and 0.38 not in h

    def test_learned_set_contains_sample(self):
        rng = np.random.default_rng(8)
        pi = UniformBinsMap(6)
        for _ in range(25):
            pts = [float(x) for x in rng.random(5)]
            h = segment_learn(SegmentLearner(pi.domain, pi), pts)
            assert all(x in h for x in pts)

    def test_small_samples_rejected(self, tmp_path, monkeypatch, capsys):
        """The learner refuses an empty sample; ``plab coarse`` runs a sample
        below sample_complexity(1/3, 1/3) = 3, as ``plab emx`` does."""
        pi = UniformBinsMap(4)
        learner = SegmentLearner(pi.domain, pi)
        P = FinSupportDist([0.1, 0.6], ["1/2", "1/2"])
        with pytest.raises(ValueError, match="^empty sample"):
            verify_guarantee([(learner, 0)], P, "1/3", "1/3", 5, 0)
        with pytest.raises(ValueError, match="^empty sample"):
            segment_learn(learner, [])
        (tmp_path / "points.json").write_text('{"labels": [0.1, 0.6], "weights": ["1/2", "1/2"]}')
        monkeypatch.chdir(tmp_path)
        assert main(["coarse", "--dist", "points.json", "--epsilon", "1/3", "--delta", "1/3", "--d", "2",
                     "--trials", "50"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["d"] == 2 and 0 <= metrics["empirical_rate"] <= 1

    def test_guarantee_transfers_through_the_map(self):
        P = FinSupportDist.uniform([float(k) / 20 for k in range(20)])
        pi = UniformBinsMap(8)
        eps = Fraction(1, 3)
        learner = SegmentLearner(pi.domain, pi)
        trials, wins = 300, 0
        for k in range(trials):
            S = draw_sample(P, 3, seed=99, stream=(k,))
            if mass(P, segment_learn(learner, S)) >= 1 - eps:
                wins += 1
        # success probability is >= 1-(2/3)^3 ~ 0.704; 0.6 leaves ~4 sigma
        assert wins / trials >= 0.6
