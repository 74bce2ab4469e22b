"""Table-backed ``mass`` and the distinct-subtuple ERM against the loops they
replaced.

``reference_mass`` sums the exact weights of the support points in F (a
float as the dyadic rational it is), testing membership point by point;
``reference_compression_learner`` runs the ERM over
``dict.fromkeys(combinations(sample, m))`` with ``Fraction`` empirical
masses.  Both are the code ``plab.emx`` and ``plab.compression`` used before
the prefix tables.  The new code must return the identical value and type,
the identical hypothesis and, on a scheme's first call, make the identical
sequence of ``reconstruct`` calls.

``verify_guarantee`` answers a ``SegmentLearner`` from support ranks; the
same learner called on labels by ``oracles.segment_learn`` takes the label
path (a tuple of labels, the learner call, ``mass``).  Both must give the
identical report, or the identical error.
"""

import dataclasses
import itertools
import math
import unittest.mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from plab import compression, emx
from plab.coarse import TableMap, UniformBinsMap, pushforward
from plab.compression import (
    CompressionScheme,
    _distinct_subtuples,
    compression_learner,
    segment_scheme,
)
from plab.emx import (
    FinSupportDist,
    GuaranteeReport,
    IndexedDomain,
    SegmentLearner,
    mass,
    quantile_learn,
    quantile_success,
    verify_guarantee,
)
from oracles import PulledBackHypothesis, learner_to_compression, segment_learn, substream
from random_fixtures import draw_sample


def reference_mass(P, F):
    return sum((Fraction(w) for x, w in zip(P.support, P.weights) if x in F), start=Fraction(0))


def reference_compression_learner(scheme, sample, dom):
    pts = tuple(sample)
    n, m = len(pts), scheme.m_out
    if n < m + 1:
        raise ValueError(f"sample size {n} below m+1 = {m + 1}")
    counts = Counter(pts)
    best = None
    best_desc = None
    for sub in dict.fromkeys(itertools.combinations(pts, m)):
        hyp = scheme.reconstruct(sub)
        emp = Fraction(sum(c for x, c in counts.items() if x in hyp), n)
        if best is None or (emp, len(hyp)) > (best[0], best[1]):
            best, best_desc = (emp, len(hyp), hyp), None
            continue
        if (emp, len(hyp)) == (best[0], best[1]) and hyp != best[2]:
            if best_desc is None:
                best_desc = tuple(sorted(dom.idx(x) for x in best[2]))
            desc = tuple(sorted(dom.idx(x) for x in hyp))
            if desc < best_desc:
                best, best_desc = (emp, len(hyp), hyp), desc
    return best[2]


def same(got, want) -> bool:
    return type(got) is type(want) and got == want


# ---------------------------------------------------------------------------
# mass


@st.composite
def weights(draw, size):
    """Positive weights summing to 1: all Fraction, all float, or mixed."""
    counts = draw(st.lists(st.integers(1, 10**6), min_size=size, max_size=size))
    total = sum(counts)
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if kind == "exact":
        return [Fraction(c, total) for c in counts]
    if kind == "float":
        return [c / total for c in counts]
    as_float = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return [c / total if f else Fraction(c, total) for c, f in zip(counts, as_float)]


@st.composite
def labelled_case(draw):
    """A distribution on integer labels and a domain over some of them (and
    labels outside the support), in orders that may disagree."""
    support = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        support = sorted(support)
    P = FinSupportDist(support, draw(weights(len(support))))
    if draw(st.booleans()):
        dom = IndexedDomain(range(draw(st.integers(0, 32))))
    else:
        extra = draw(st.lists(st.integers(31, 40), max_size=3, unique=True))
        kept = draw(st.lists(st.sampled_from(support), unique=True))
        dom = IndexedDomain(draw(st.permutations(kept + extra)))
    return P, dom


def check_all(P, hyps):
    """Every hypothesis twice, so later calls hit the cached tables."""
    for F in [*hyps, *hyps]:
        assert same(mass(P, F), reference_mass(P, F)), F


@settings(max_examples=300, deadline=None)
@given(case=labelled_case(), data=st.data())
def test_segments_and_explicit_sets(case, data):
    P, dom = case
    ts = data.draw(st.lists(st.integers(0, len(dom) + 2), min_size=1, max_size=6))
    sets = data.draw(st.lists(st.frozensets(st.integers(0, 40)), max_size=3))
    check_all(P, [*(dom.initial_segment(t) for t in ts), *sets])


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True),
    data=st.data(),
)
def test_pullbacks_through_uniform_bins(xs, data):
    if data.draw(st.booleans()):
        xs = sorted(xs)
    P = FinSupportDist(xs, data.draw(weights(len(xs))))
    pi = UniformBinsMap(data.draw(st.integers(0, 12)))
    n = 1 << pi.bits
    ts = data.draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=5))
    cells = data.draw(st.frozensets(st.integers(0, n - 1), max_size=5))
    # a segment over a domain other than pi's own alphabet gets its own table
    other = IndexedDomain(data.draw(st.permutations(range(n))) if n <= 64 else range(n))
    check_all(P, [
        *(PulledBackHypothesis(pi.domain.initial_segment(t), pi) for t in ts),
        *(PulledBackHypothesis(other.initial_segment(t), pi) for t in ts),
        PulledBackHypothesis(cells, pi),
    ])


@settings(max_examples=200, deadline=None)
@given(
    support=st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
    data=st.data(),
)
def test_pullbacks_through_table_maps(support, data):
    P = FinSupportDist(support, data.draw(weights(len(support))))
    outputs = data.draw(st.lists(st.sampled_from("abcde"), min_size=len(support), max_size=len(support)))
    pairs = data.draw(st.permutations(list(zip(support, outputs))))
    pi = TableMap(pairs)
    ts = data.draw(st.lists(st.integers(0, len(pi.domain) + 1), min_size=1, max_size=4))
    check_all(P, [
        *(PulledBackHypothesis(pi.domain.initial_segment(t), pi) for t in ts),
        PulledBackHypothesis(frozenset("ab"), pi),
    ])


def test_points_outside_the_table_raise_on_both_paths():
    P = FinSupportDist([1, 2], ["1/2", "1/2"])
    pi = TableMap([(1, "a")])
    for F in (PulledBackHypothesis(pi.domain.initial_segment(1), pi), PulledBackHypothesis(frozenset("a"), pi)):
        with pytest.raises(ValueError):
            reference_mass(P, F)
        with pytest.raises(ValueError):
            mass(P, F)


def test_out_of_order_float_weights_sum_exactly():
    """(0.1 + 0.2) + 0.7 == 1.0 but (0.7 + 0.2) + 0.1 < 1.0: the domain order
    reverses the support order, and neither float sum is the mass, which is
    the exact sum of the three dyadic weights."""
    P = FinSupportDist("abc", [0.1, 0.2, 0.7])
    dom = IndexedDomain("cba")
    assert (0.1 + 0.2) + 0.7 != (0.7 + 0.2) + 0.1
    exact = Fraction(0.1) + Fraction(0.2) + Fraction(0.7)
    assert exact not in ((0.1 + 0.2) + 0.7, (0.7 + 0.2) + 0.1)
    assert same(mass(P, dom.initial_segment(3)), exact)
    pi = TableMap([("a", 2), ("b", 1), ("c", 0)])
    assert same(mass(P, PulledBackHypothesis(pi.domain.initial_segment(3), pi)), exact)


@st.composite
def float_case(draw):
    """(weights, domain, support order) over the labels 0..k-1: float or mixed
    weights, or k equal float weights 1.0/k, whose float sums land on either
    side of j/k by the order of summation."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 29))
        ws = [1.0 / k] * k
    else:
        ws = draw(weights(draw(st.integers(1, 12))))
    labels = range(len(ws))
    return ws, IndexedDomain(draw(st.permutations(labels))), draw(st.permutations(labels))


@settings(max_examples=300, deadline=None)
@given(case=float_case(), d=st.integers(1, 5))
@example(case=([1.0 / 6] * 6, IndexedDomain(range(6)), [5, 4, 3, 2, 1, 0]), d=2)
def test_masses_do_not_depend_on_the_support_order(case, d):
    """For the support in label order and permuted, every segment's mass and
    every quantile success probability at a target j/k is the Fraction the
    exact weights of the ranked points give."""
    ws, dom, order = case
    k = len(ws)
    prefix = list(itertools.accumulate((Fraction(ws[x]) for x in dom.labels), initial=Fraction(0)))
    for support in (range(k), order):
        P = FinSupportDist(support, [ws[x] for x in support])
        for t in range(k + 2):
            assert same(mass(P, dom.initial_segment(t)), prefix[min(t, k)])
        for j in range(1, k):
            below = max(p for p in prefix if p < Fraction(j, k))  # the mass a losing segment holds
            assert same(quantile_success(P, dom, Fraction(k - j, k), d), 1 - below**d)


@settings(max_examples=300, deadline=None)
@given(case=float_case(), cells=st.integers(1, 4))
@example(case=([0.1, 0.2, 0.7], IndexedDomain(range(3)), [2, 1, 0]), cells=1)
def test_pushforward_does_not_depend_on_the_support_order(case, cells):
    """For the support in label order and permuted, each cell of a pushforward
    weighs the exact mass of its points: a Fraction when every weight is one,
    else that mass rounded once (0.1 + 0.2 + 0.7 in one cell is 1.0 both ways)."""
    ws, dom, order = case
    pi = TableMap((x, x % cells) for x in dom.labels)
    exact = {}
    for x, w in enumerate(ws):
        exact[x % cells] = exact.get(x % cells, 0) + Fraction(w)
    cast = Fraction if all(isinstance(w, Fraction) for w in ws) else float
    for support in (range(len(ws)), order):
        Q = pushforward(FinSupportDist(support, [ws[x] for x in support]), pi)
        assert sorted(Q.support) == sorted(exact)
        assert all(same(w, cast(exact[y])) for y, w in zip(Q.support, Q.weights))


def test_empty_segment_is_an_exact_zero_for_float_weights():
    P = FinSupportDist("ab", [0.25, 0.75])
    assert same(mass(P, IndexedDomain("ab").initial_segment(0)), Fraction(0))


# ---------------------------------------------------------------------------
# verify_guarantee: segment learners from support ranks against label samples


def outcome(call):
    """The result of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def report_fields(learner, P, epsilon, delta, d, trials, seed):
    """Every report field with its type, or the error's type and message."""
    rep = outcome(lambda: verify_guarantee([(learner, d)], P, epsilon, delta, trials, seed)[0])
    if not isinstance(rep, GuaranteeReport):
        return rep
    return [(name, type(getattr(rep, name)), getattr(rep, name)) for name in rep._fields]


@st.composite
def segment_case(draw):
    """(P, dom, pi) for a SegmentLearner: the identity over the domains of
    ``labelled_case`` or over a permutation of the support, uniform bins, or
    a table map.  Support points may lie outside [0,1] (or be None, which
    the bins reject with a TypeError) or outside the table, and support
    orders may disagree with the domain."""
    kind = draw(st.sampled_from(["identity", "bins", "table"]))
    if kind == "identity":
        P, dom = draw(labelled_case())
        if draw(st.booleans()):  # a domain that ranks every support point
            dom = IndexedDomain(draw(st.permutations(P.support)))
        return P, dom, None
    if kind == "bins":
        xs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True))
        if draw(st.booleans()):
            xs = sorted(xs)
        if draw(st.integers(0, 3)) == 0:  # points the map rejects, with different errors
            for bad in draw(st.lists(st.sampled_from([-0.25, 1.5, None]), min_size=1, max_size=2, unique=True)):
                xs.insert(draw(st.integers(0, len(xs))), bad)
        pi = UniformBinsMap(draw(st.sampled_from([0, 1, 3, 8, 20])))
        n = 1 << pi.bits
        dom = pi.domain if n > 8 or draw(st.booleans()) else IndexedDomain(draw(st.permutations(range(n))))
        return FinSupportDist(xs, draw(weights(len(xs)))), dom, pi
    support = draw(st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True))
    mapped = draw(st.lists(st.sampled_from(support), min_size=1, unique=True))
    if draw(st.integers(0, 2)):
        mapped = support  # every point in the table
    outputs = draw(st.lists(st.sampled_from("abcde"), min_size=len(mapped), max_size=len(mapped)))
    pi = TableMap(draw(st.permutations(list(zip(mapped, outputs)))))
    return FinSupportDist(support, draw(weights(len(support)))), pi.domain, pi


BINS3 = UniformBinsMap(3)


@settings(max_examples=800, deadline=None)
@given(
    case=segment_case(),
    accuracy=st.sampled_from([("1/3", "1/3"), ("1/20", "1/10"), ("1/2", "0"), (Fraction(2, 3), "1/2")]),
    d=st.sampled_from([0, 1, 2, 7, 45]),
    trials=st.integers(0, 12),
    seed=st.integers(0, 2**40),
)
@example(  # two blocks of rank-path draws (2^16 // 45 = 1456 trials fill one); a trial
    # wins only if it draws the last-ranked point, 0, of weight 1/55
    case=(FinSupportDist(range(10), [Fraction(i + 1, 55) for i in range(10)]),
          IndexedDomain([3, 1, 4, 9, 5, 7, 2, 6, 8, 0]), None),
    accuracy=("1/60", "1/2"), d=45, trials=1500, seed=2**64 + 3,
)
@example(  # a d past 2^15: a block holds one trial
    case=(FinSupportDist([0.05, 0.5, 0.95], ["1/3", "1/3", "1/3"]), BINS3.domain, BINS3),
    accuracy=("1/3", "1/3"), d=40000, trials=3, seed=7,
)
def test_rank_path_reports_what_the_label_path_reports(case, accuracy, d, trials, seed):
    """The rank path gives the label path's report or error, except that a
    support point the map rejects, or that ``dom`` does not rank, raises
    from the support whether or not a trial draws it."""
    P, dom, pi = case
    epsilon, delta = accuracy
    learner = SegmentLearner(dom, pi)
    fresh = FinSupportDist(P.support, P.weights)
    want = report_fields(lambda s: segment_learn(learner, s), fresh, epsilon, delta, d, trials, seed)
    unranked = outcome(lambda: [dom.idx(x if pi is None else pi(x)) for x in P.support])
    if isinstance(unranked, tuple) and trials >= 1 and d > 0:
        want = unranked
    assert report_fields(learner, P, epsilon, delta, d, trials, seed) == want
    # again on the tables the label path left behind
    assert report_fields(learner, fresh, epsilon, delta, d, trials, seed) == want


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]


def assert_substreams_match(seed, n):
    gens = list(emx.substreams(seed, n))
    assert len(gens) == n
    for k, gen in enumerate(gens):
        assert gen.bit_generator.state == substream(seed, k).bit_generator.state, k


@pytest.mark.parametrize("n", [0, 1, 1030], ids=["none", "one", "two_blocks"])
@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_states_are_the_substream_states(seed, n):
    """The batch hashes 1024 keys at a time; 1030 crosses a block boundary."""
    assert_substreams_match(seed, n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**256 - 1), n=st.integers(0, 6))
def test_substreams_match_substream_below_2_to_the_256(seed, n):
    assert_substreams_match(seed, n)


def test_substreams_refuse_a_count_past_one_uint32_key():
    """Keys 0..2^32-1 are one uint32 word each; one more key is refused before anything is hashed."""
    assert next(emx.substreams(0, 2**32)).bit_generator.state == substream(0, 0).bit_generator.state
    with pytest.raises(ValueError, match=r"^count = 4294967297 is above 2\^32"):
        next(emx.substreams(0, 2**32 + 1))


def test_substreams_check_their_first_batched_row_against_numpy(monkeypatch):
    """A wrong hash constant fails the first row's check before any generator is yielded."""
    consts = emx._hash_consts
    monkeypatch.setattr(emx, "_hash_consts", lambda g, *rest: consts(g + (g == 0x8B51F9DD), *rest))
    with pytest.raises(AssertionError, match="^batched seed sequence [^a-z]* differs from numpy's"):
        next(emx.substreams(20177, 3))


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_substreams_reject_bad_seeds_as_substream_does(seed):
    want = outcome(lambda: substream(seed, 0))
    assert isinstance(want, tuple)
    assert outcome(lambda: list(emx.substreams(seed, 3))) == want


def test_out_of_order_float_weights_answer_from_the_exact_sum():
    """The domain order sums (0.3 + 0.2) + 0.1 = 0.6 < 3/5 in floats, but
    the exact sum of the three dyadic weights reaches 3/5: a trial whose
    largest rank is a's wins, as the label path's ``mass`` says."""
    P = FinSupportDist("abcd", [0.1, 0.2, 0.3, 0.4])
    learner = SegmentLearner(IndexedDomain("cbad"))
    assert Fraction(0.1) + Fraction(0.2) + Fraction(0.3) >= Fraction(3, 5) > (0.3 + 0.2) + 0.1
    rep = verify_guarantee([(learner, 1)], P, "2/5", "1/2", 200, 5)[0]
    assert rep == verify_guarantee([(lambda s: segment_learn(learner, s), 1)], P, "2/5", "1/2", 200, 5)[0]
    # wins: a (ranks <= 3 hold 3/5 and more) and d (all of P)
    assert rep.empirical_rate == sum(P.sample(substream(5, k), 1) in (("a",), ("d",)) for k in range(200)) / 200


def test_the_first_support_point_the_map_rejects_names_the_error():
    """1.5 is the support's first rejected point, though trial 0's sample
    meets None first: the rank path raises 1.5's ValueError, not the label
    path's TypeError.  A support point the domain does not rank raises its
    KeyError though no trial draws it."""
    P = FinSupportDist([0.5, 1.5, None], ["1/100", "1/100", "98/100"])
    pi = UniformBinsMap(3)
    learner = SegmentLearner(pi.domain, pi)
    assert draw_sample(P, 7, 0, (0,))[0] is None
    with pytest.raises(TypeError):
        verify_guarantee([(lambda s: segment_learn(learner, s), 7)], P, "1/3", "1/3", 5, 0)
    with pytest.raises(ValueError, match=r"^point 1\.5 outside \[0,1\]$"):
        verify_guarantee([(learner, 7)], P, "1/3", "1/3", 5, 0)
    P = FinSupportDist("abc", ["1/2", "499999/1000000", "1/1000000"])
    learner = SegmentLearner(IndexedDomain("ab"))
    assert "c" not in draw_sample(P, 7, 0, (0,))
    verify_guarantee([(lambda s: segment_learn(learner, s), 7)], P, "1/3", "1/3", 1, 0)
    with pytest.raises(KeyError, match="'c' not in domain"):
        verify_guarantee([(learner, 7)], P, "1/3", "1/3", 1, 0)


def rank_path_only(monkeypatch):
    """Make ``mass`` checks fail: the rank pass makes none, the label path
    one a trial."""
    def refuse(*args):
        raise AssertionError("label path taken")

    monkeypatch.setattr(emx, "mass", refuse)


class CountingBins(UniformBinsMap):
    calls = 0

    def __call__(self, x):
        CountingBins.calls += 1
        return super().__call__(x)


def test_rank_path_maps_each_support_point_once_and_builds_no_sample(monkeypatch):
    xs = [i / 40 for i in range(1, 40)]
    P = FinSupportDist(xs, [Fraction(1, len(xs))] * len(xs))
    pi = CountingBins(8)
    learner = SegmentLearner(pi.domain, pi)
    fresh = FinSupportDist(xs, P.weights)
    want = verify_guarantee([(lambda s: segment_learn(learner, s), 45)], fresh, "1/20", "1/10", 30, 7)[0]
    rank_path_only(monkeypatch)
    CountingBins.calls = 0
    for _ in range(3):
        assert verify_guarantee([(learner, 45)], P, "1/20", "1/10", 30, 7)[0] == want
    assert CountingBins.calls == len(xs)


@pytest.mark.parametrize("learner_of", [
    lambda P: SegmentLearner(IndexedDomain(P.support)),
    lambda P: SegmentLearner(UniformBinsMap(3).domain, UniformBinsMap(3)),
    lambda P: lambda s: segment_learn(SegmentLearner(IndexedDomain(P.support)), s),
], ids=["identity", "bins", "labels"])
def test_rank_path_draws_trial_k_from_substream_seed_k(monkeypatch, learner_of):
    """The trials ask ``substreams`` for keys 0..trials-1 in order, and trial
    k leaves its generator where one random(d) leaves
    default_rng(SeedSequence(seed, (k,))), on the rank path and, for a
    lambda, on the label path."""
    P = FinSupportDist([0.1, 0.3, 0.5, 0.7, 0.9], ["1/10", "2/10", "3/10", "1/10", "3/10"])
    learner = learner_of(P)
    seed, d, trials = 2024, 7, 12
    requested, generators = [], []

    def recording(*key):
        requested.append(key)
        for gen in substreams(*key):
            generators.append(gen)
            yield gen

    substreams = emx.substreams
    monkeypatch.setattr(emx, "substreams", recording)
    if isinstance(learner, SegmentLearner):
        rank_path_only(monkeypatch)
    verify_guarantee([(learner, d)], P, "1/3", "1/3", trials, seed)
    assert requested == [(seed, trials)]
    assert len(generators) == trials
    for k, gen in enumerate(generators):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        ref.random(d)
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d, trials", [(300, 500), (2**16 + 1, 3)], ids=["three_blocks", "one_trial_a_block"])
def test_label_path_gets_trial_ks_sample_across_blocks(d, trials):
    """A block holds 2^16 // d trials, at least one: 218, 218 and 64 at
    d = 300; one at a d past 2^16.  Every trial k, in order, hands the
    learner the label tuple ``P.sample`` draws from substream (seed, k), and
    the rate counts the masses of what the learner returned.  A tuple label
    reaches the learner whole."""
    for labels in ([0.1, 0.3, 0.5, 0.7, 0.9], [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]):
        P = FinSupportDist(labels, ["1/10", "2/10", "3/10", "1/10", "3/10"])
        seed, seen = 2**64 + 3, []

        def learner(sample):
            seen.append(sample)
            return frozenset(sample[:3])

        rep = verify_guarantee([(learner, d)], P, "1/3", "1/3", trials, seed)[0]
        assert seen == [P.sample(substream(seed, k), d) for k in range(trials)]
        assert {len(s) for s in seen} == {d} and set(itertools.chain.from_iterable(seen)) <= set(labels)
        assert rep.empirical_rate == sum(mass(P, frozenset(s[:3])) >= Fraction(2, 3) for s in seen) / trials


@pytest.mark.parametrize("learner_of, generators", [
    (SegmentLearner, 0),
    (lambda dom: lambda s: quantile_learn(s, dom), 1),
], ids=["segment", "labels"])
def test_an_empty_sample_reaches_the_learner(monkeypatch, learner_of, generators):
    """d = 0 sizes no block by d: a block holds one trial, and trial 0 calls
    the learner on (), which raises its own error after one generator.  A
    ``SegmentLearner`` raises the same error before any generator is built."""
    P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
    learner = learner_of(IndexedDomain(P.support))
    built = []
    substreams = emx.substreams
    monkeypatch.setattr(emx, "substreams", lambda *key: (built.append(g) or g for g in substreams(*key)))
    with pytest.raises(ValueError, match="^empty sample: maximum index undefined$"):
        verify_guarantee([(learner, 0)], P, "1/3", "1/3", 70_000, 11)
    assert len(built) == generators


@settings(max_examples=60, deadline=None)
@given(P=labelled_case().map(lambda case: case[0]), seed=st.integers(0, 2**70), trials=st.integers(1, 40),
       ds=st.lists(st.sampled_from([1, 2, 5, 45, 3000]), min_size=1, max_size=4))
def test_one_call_of_k_points_reports_what_k_calls_report(P, seed, trials, ds):
    """Rank-path and label-path points, mixed in one call, each get the
    report of a call of that point alone, and the label path asks ``mass``
    once per distinct learned segment."""
    dom = IndexedDomain(P.support)
    points = [(SegmentLearner(dom) if i % 2 else (lambda s: quantile_learn(s, dom)), d) for i, d in enumerate(ds)]
    alone = [verify_guarantee([point], P, "1/4", "1/4", trials, seed)[0] for point in points]
    asked = []
    with unittest.mock.patch.object(emx, "mass", lambda P, F, f=emx.mass: asked.append(F) or f(P, F)):
        assert verify_guarantee(points, P, "1/4", "1/4", trials, seed) == alone
    assert len(asked) == len(set(asked)) <= len(P.support)


@pytest.mark.parametrize("bad, message", [
    ((SegmentLearner(IndexedDomain("abc")), -1), "^sample size must be >= 0$"),
    ((lambda s: frozenset(s), 2**24 + 1), "^sample size d = 16777217 is above the limit of 16777216 points$"),
    ((SegmentLearner(IndexedDomain("abc")), 0), "^empty sample: maximum index undefined$"),
], ids=["negative", "past-the-limit", "segment-d-zero"])
def test_an_invalid_point_fails_before_anything_is_drawn(monkeypatch, bad, message):
    """Behind a valid point, an invalid one raises its own message before
    ``substreams`` is asked for a generator."""
    P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
    monkeypatch.setattr(emx, "substreams", lambda *key: pytest.fail("drew a trial"))
    with pytest.raises(ValueError, match=message):
        verify_guarantee([(SegmentLearner(IndexedDomain("abc")), 3), bad], P, "1/3", "1/3", 10, 0)


# ---------------------------------------------------------------------------
# compression_learner


def recording(scheme):
    """(scheme with a reconstruct that logs its arguments, the log)."""
    log = []

    def reconstruct(sub):
        log.append(sub)
        return scheme.reconstruct(sub)

    return CompressionScheme(scheme.m_out, reconstruct), log


def min_segment_scheme(dom, m):
    """Segment at the smallest index of the kept tuple: candidates are not
    nested in subtuple order, so the ERM's tie-breaks matter."""
    return CompressionScheme(m, lambda sub: dom.initial_segment(min(dom.idx(x) for x in sub)))


def families_scheme(dom, m):
    """The initial segment up to the largest kept rank, as a segment over
    ``dom``, a segment over a second domain object with the same labels, or
    a frozenset, by the kept ranks' sum: two nested families whose
    finalists tie with equal sets met before them."""
    twin = IndexedDomain(dom.labels)

    def reconstruct(sub):
        ranks = [dom.idx(x) for x in sub]
        t = max(ranks)
        return (dom.initial_segment(t), twin.initial_segment(t), frozenset(dom.labels[:t]))[sum(ranks) % 3]

    return CompressionScheme(m, reconstruct)


def scheme_for(kind, dom, m):
    if kind in ("segment", "two_to_one"):  # the 2->1 scheme is segment_scheme(dom, 1)
        return segment_scheme(dom, m)
    if kind == "min_segment":
        return min_segment_scheme(dom, m)
    if kind == "families":
        return families_scheme(dom, m)
    # learner_to_compression with d = 1 or 2 keeps m = 2 or 3 points
    return learner_to_compression(lambda s: quantile_learn(s, dom), m - 1, dom)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["segment", "two_to_one", "min_segment", "families", "learner"]),
    m=st.integers(1, 4),
    size=st.integers(1, 6),
    limit=st.sampled_from([compression.CANDIDATE_LIMIT, 0, 1, 3, 7]),
    data=st.data(),
)
def test_compression_learner_matches_the_position_enumeration(kind, m, size, limit, data):
    """Three samples on one scheme.  Every result is the reference ERM's.
    Each call reconstructs, in enumeration order, the subtuples the
    scheme's candidate table does not hold (all of them on the first call);
    the table keeps the first ``limit`` subtuples met, then stops growing."""
    if kind == "two_to_one":
        m = 1
    if kind == "learner":
        m = min(max(m, 2), 3)
    labels = [f"v{i}" for i in range(size + 2)]
    dom = IndexedDomain(data.draw(st.permutations(labels)))
    scheme = scheme_for(kind, dom, m)
    new_scheme, log = recording(scheme)
    with unittest.mock.patch.object(compression, "CANDIDATE_LIMIT", limit):
        for _ in range(3):
            pts = data.draw(st.lists(st.sampled_from(labels[:size]), min_size=m + 1, max_size=m + 9))
            before, start = list(new_scheme._candidates), len(log)
            got = compression_learner(new_scheme, pts, dom)
            want = reference_compression_learner(scheme, pts, dom)
            assert same(got, want)
            unseen = [s for s in dict.fromkeys(itertools.combinations(pts, m)) if s not in before]
            assert log[start:] == unseen
            assert list(new_scheme._candidates) == before + unseen[: max(limit - len(before), 0)]


def test_a_replaced_scheme_starts_with_an_empty_table():
    """``dataclasses.replace`` (how a scheme gets a traced ``reconstruct``)
    gives a scheme whose first call reconstructs every subtuple again."""
    dom = IndexedDomain("abcd")
    scheme = segment_scheme(dom, 1)
    compression_learner(scheme, "abca", dom)
    assert list(scheme._candidates) == [("a",), ("b",), ("c",)]
    log = []
    traced = dataclasses.replace(scheme, reconstruct=lambda sub: log.append(sub) or scheme.reconstruct(sub))
    assert traced._candidates == {}
    assert compression_learner(traced, "abca", dom) == dom.initial_segment(3)
    assert log == [("a",), ("b",), ("c",)]


def test_a_frozenset_scheme_runs_through_the_erm_and_the_label_path():
    """A scheme whose ``reconstruct`` returns plain frozensets, the prefix
    up to the largest kept rank.  Each candidate stands alone, so the ERM
    scores all of them; it returns the reference ERM's frozenset, which has
    the elements of the quantile learner's segment but never equals it.  On
    the label path ``verify_guarantee`` then reports what the segment
    learner reports from support ranks."""
    P = FinSupportDist(tuple("abcde"), ["1/2", "1/4", "1/8", "1/16", "1/16"])
    dom = IndexedDomain(P.support)
    scheme = CompressionScheme(2, lambda sub: frozenset(dom.labels[: max(map(dom.idx, sub))]))
    for seed in range(20):
        pts = draw_sample(P, 6, seed=seed)
        got = compression_learner(scheme, pts, dom)
        assert same(got, reference_compression_learner(scheme, pts, dom))
        assert got == frozenset(quantile_learn(pts, dom)) and got != quantile_learn(pts, dom)
    learner = lambda s: compression_learner(scheme, s, dom)  # noqa: E731
    assert verify_guarantee([(learner, 6)], P, "1/8", "1/4", 300, 11) == verify_guarantee(
        [(SegmentLearner(dom), 6)], P, "1/8", "1/4", 300, 11)


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(st.integers(0, 4), max_size=12), m=st.integers(1, 5))
def test_distinct_subtuples_in_first_embedding_order(pts, m):
    pts = tuple(pts)
    assert list(_distinct_subtuples(pts, m)) == list(dict.fromkeys(itertools.combinations(pts, m)))


def test_candidate_count_is_bounded_by_distinct_values():
    pts = tuple(f"v{i % 4}" for i in range(60))
    assert len(list(_distinct_subtuples(pts, 3))) == 4**3 < math.comb(60, 3)
