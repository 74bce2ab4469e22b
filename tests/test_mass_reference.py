"""Table-backed ``mass`` and the distinct-subtuple ERM against the loops they
replaced.

``reference_mass`` sums the weights of the support points in F left to
right, testing membership point by point; ``reference_compression_learner``
runs the ERM over ``dict.fromkeys(combinations(sample, m))`` with
``Fraction`` empirical masses.  Both are the code ``plab.emx`` and
``plab.compression`` used before the prefix tables.  The new code must
return the identical value and type, the identical hypothesis and, on a
scheme's first call, make the identical sequence of ``reconstruct`` calls.

``verify_guarantee`` answers a ``SegmentLearner`` from support ranks; the
same learner wrapped in a lambda takes the label path (a tuple of labels,
the learner call, ``mass``).  Both must give the identical report, or the
identical error.
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
from plab.coarse import TableMap, UniformBinsMap, pullback
from plab.compression import (
    CompressionScheme,
    _distinct_subtuples,
    compression_learner,
    learner_to_compression,
    segment_scheme,
)
from plab.emx import (
    FinSupportDist,
    FiniteHypothesis,
    IndexedDomain,
    SegmentLearner,
    mass,
    quantile_learn,
    verify_guarantee,
)
from random_fixtures import draw_sample


def reference_mass(P, F):
    return sum((w for x, w in zip(P.support, P.weights) if x in F), start=Fraction(0))


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
                best_desc = tuple(sorted(dom.idx(x) for x in best[2].elements))
            desc = tuple(sorted(dom.idx(x) for x in hyp.elements))
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
    check_all(P, [*(dom.initial_segment(t) for t in ts), *sets, *(FiniteHypothesis.from_elements(s) for s in sets)])


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
        *(pullback(pi.domain.initial_segment(t), pi) for t in ts),
        *(pullback(other.initial_segment(t), pi) for t in ts),
        pullback(cells, pi),
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
    check_all(P, [*(pullback(pi.domain.initial_segment(t), pi) for t in ts), pullback(frozenset("ab"), pi)])


def test_points_outside_the_table_raise_on_both_paths():
    P = FinSupportDist([1, 2], ["1/2", "1/2"])
    pi = TableMap([(1, "a")])
    for F in (pullback(pi.domain.initial_segment(1), pi), pullback(frozenset("a"), pi)):
        with pytest.raises(ValueError):
            reference_mass(P, F)
        with pytest.raises(ValueError):
            mass(P, F)


def test_out_of_order_float_weights_keep_the_support_order_sum():
    """(0.1 + 0.2) + 0.7 == 1.0 but (0.7 + 0.2) + 0.1 < 1.0: the domain order
    reverses the support order, so a prefix table in domain order would give
    the second sum."""
    P = FinSupportDist("abc", [0.1, 0.2, 0.7])
    dom = IndexedDomain("cba")
    assert (0.7 + 0.2) + 0.1 != 1.0
    assert same(mass(P, dom.initial_segment(3)), 1.0)
    pi = TableMap([("a", 2), ("b", 1), ("c", 0)])
    assert same(mass(P, pullback(pi.domain.initial_segment(3), pi)), 1.0)


def test_empty_segment_is_an_exact_zero_for_float_weights():
    P = FinSupportDist("ab", [0.25, 0.75])
    assert same(mass(P, IndexedDomain("ab").initial_segment(0)), Fraction(0))


# ---------------------------------------------------------------------------
# verify_guarantee: segment learners from support ranks against label samples


def reference_segment_learn(sample, dom, pi, epsilon, delta):
    """``quantile_learn``, or for a map the segment of the labels pulled back
    through it: the rule ``SegmentLearner`` is held to."""
    pts = tuple(sample)
    if epsilon is not None:
        need = emx.sample_complexity(epsilon, delta)
        if len(pts) < need:
            raise ValueError(f"sample size {len(pts)} below required {need}")
    if pi is None:
        return quantile_learn(pts, dom)
    return pullback(quantile_learn((pi(x) for x in pts), dom), pi)


def outcome(call):
    """The result of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


def report_fields(learner, P, epsilon, delta, d, trials, seed):
    """Every report field with its type, or the error's type and message."""
    rep = outcome(lambda: verify_guarantee(learner, P, epsilon, delta, d, trials, seed))
    if isinstance(rep, tuple):
        return rep
    return [(f.name, type(getattr(rep, f.name)), getattr(rep, f.name)) for f in dataclasses.fields(rep)]


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
    own_accuracy=st.booleans(),
    d=st.sampled_from([0, 1, 2, 7, 45]),
    trials=st.integers(0, 12),
    seed=st.integers(0, 2**40),
)
@example(  # two blocks of rank-path draws (2^16 // 45 = 1456 trials fill one); a trial
    # wins only if it draws the last-ranked point, 0, of weight 1/55
    case=(FinSupportDist(range(10), [Fraction(i + 1, 55) for i in range(10)]),
          IndexedDomain([3, 1, 4, 9, 5, 7, 2, 6, 8, 0]), None),
    accuracy=("1/60", "1/2"), own_accuracy=True, d=45, trials=1500, seed=2**64 + 3,
)
@example(  # a d past 2^15: a block holds one trial
    case=(FinSupportDist([0.05, 0.5, 0.95], ["1/3", "1/3", "1/3"]), BINS3.domain, BINS3),
    accuracy=("1/3", "1/3"), own_accuracy=False, d=40000, trials=3, seed=7,
)
def test_rank_path_reports_what_the_label_path_reports(case, accuracy, own_accuracy, d, trials, seed):
    P, dom, pi = case
    epsilon, delta = accuracy
    learner = SegmentLearner(dom, pi, *(accuracy if own_accuracy else ()))
    fresh = FinSupportDist(P.support, P.weights)
    want = report_fields(lambda s: learner(s), fresh, epsilon, delta, d, trials, seed)
    assert report_fields(learner, P, epsilon, delta, d, trials, seed) == want
    # again on the tables the label path left behind
    assert report_fields(learner, fresh, epsilon, delta, d, trials, seed) == want

    # called on labels, the learner is the code it replaced
    if d >= 0:
        S = draw_sample(P, d, seed)
        got = outcome(lambda: learner(S))
        ref = outcome(lambda: reference_segment_learn(S, dom, pi, *(accuracy if own_accuracy else (None, None))))
        if pi is None or isinstance(got, tuple):
            assert type(got) is type(ref) and got == ref
        else:
            assert (got.pi, got.cells) == (ref.pi, ref.cells)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]


def assert_substreams_match(seed, n):
    gens = list(emx.substreams(seed, n))
    assert len(gens) == n
    for k, gen in enumerate(gens):
        assert gen.bit_generator.state == emx.substream(seed, k).bit_generator.state, k


@pytest.mark.parametrize("n", [0, 1, 1030], ids=["none", "one", "two_blocks"])
@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_states_are_the_substream_states(seed, n):
    """The batch hashes 1024 keys at a time; 1030 crosses a block boundary."""
    assert_substreams_match(seed, n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**256 - 1), n=st.integers(0, 6))
def test_substreams_match_substream_below_2_to_the_256(seed, n):
    assert_substreams_match(seed, n)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_substreams_reject_bad_seeds_as_substream_does(seed):
    want = outcome(lambda: emx.substream(seed, 0))
    assert isinstance(want, tuple)
    assert outcome(lambda: list(emx.substreams(seed, 3))) == want


def test_out_of_order_float_weights_answer_from_the_support_order_sum():
    """The support order sums (0.1 + 0.2) + 0.3 = 0.6000000000000001 >= 3/5,
    the domain order sums (0.3 + 0.2) + 0.1 = 0.6 < 3/5: a trial whose
    largest rank is a's wins only by the support order sum, as ``mass``
    computes it."""
    P = FinSupportDist("abcd", [0.1, 0.2, 0.3, 0.4])
    learner = SegmentLearner(IndexedDomain("cbad"))
    assert (0.1 + 0.2) + 0.3 >= Fraction(3, 5) > (0.3 + 0.2) + 0.1
    rep = verify_guarantee(learner, P, "2/5", "1/2", 1, 200, 5)
    assert rep == verify_guarantee(lambda s: learner(s), P, "2/5", "1/2", 1, 200, 5)
    # wins: a (ranks <= 3 hold 0.6000000000000001) and d (all of P)
    assert rep.empirical_rate == sum(P.sample(emx.substream(5, k), 1) in (("a",), ("d",)) for k in range(200)) / 200


def test_the_first_point_the_map_rejects_in_the_sample_names_the_error():
    """None is the support's first rejected point (a TypeError), but trial
    0's sample meets 1.5 first, so the label path raises 1.5's ValueError;
    the rank path must too."""
    P = FinSupportDist([None, 0.5, 1.5], ["1/100", "1/100", "98/100"])
    pi = UniformBinsMap(3)
    learner = SegmentLearner(pi.domain, pi)
    assert None not in draw_sample(P, 7, 0, (0,))
    for run in (learner, lambda s: learner(s)):
        with pytest.raises(ValueError, match=r"^point 1\.5 outside \[0,1\]$"):
            verify_guarantee(run, P, "1/3", "1/3", 7, 5, 0)


def rank_path_only(monkeypatch):
    """Make label learner calls and ``mass`` checks fail: the rank pass makes
    neither, the label branch both."""
    def refuse(*args):
        raise AssertionError("label path taken")

    monkeypatch.setattr(emx, "mass", refuse)
    monkeypatch.setattr(SegmentLearner, "__call__", refuse)


class CountingBins(UniformBinsMap):
    calls = 0

    def __call__(self, x):
        CountingBins.calls += 1
        return super().__call__(x)


def test_rank_path_maps_each_support_point_once_and_builds_no_sample(monkeypatch):
    xs = [i / 40 for i in range(1, 40)]
    P = FinSupportDist(xs, [Fraction(1, len(xs))] * len(xs))
    pi = CountingBins(8)
    learner = SegmentLearner(pi.domain, pi, "1/20", "1/10")
    want = verify_guarantee(lambda s: learner(s), FinSupportDist(xs, P.weights), "1/20", "1/10", 45, 30, 7)
    rank_path_only(monkeypatch)
    CountingBins.calls = 0
    for _ in range(3):
        assert verify_guarantee(learner, P, "1/20", "1/10", 45, 30, 7) == want
    assert CountingBins.calls == len(xs)


@pytest.mark.parametrize("learner_of", [
    lambda P: SegmentLearner(IndexedDomain(P.support)),
    lambda P: SegmentLearner(UniformBinsMap(3).domain, UniformBinsMap(3), "1/3", "1/3"),
    lambda P: lambda s: SegmentLearner(IndexedDomain(P.support))(s),
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
    verify_guarantee(learner, P, "1/3", "1/3", d, trials, seed)
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

        rep = verify_guarantee(learner, P, "1/3", "1/3", d, trials, seed)
        assert seen == [P.sample(emx.substream(seed, k), d) for k in range(trials)]
        assert {len(s) for s in seen} == {d} and set(itertools.chain.from_iterable(seen)) <= set(labels)
        assert rep.empirical_rate == sum(mass(P, frozenset(s[:3])) >= Fraction(2, 3) for s in seen) / trials


@pytest.mark.parametrize("learner_of", [
    SegmentLearner,
    lambda dom: lambda s: quantile_learn(s, dom),
], ids=["segment", "labels"])
def test_an_empty_sample_reaches_the_learner(monkeypatch, learner_of):
    """d = 0 sizes no block by d: a block holds one trial, and trial 0 calls
    the learner on (), which raises its own error after one generator."""
    P = FinSupportDist("abc", ["1/2", "1/4", "1/4"])
    learner = learner_of(IndexedDomain(P.support))
    built = []
    substreams = emx.substreams
    monkeypatch.setattr(emx, "substreams", lambda *key: (built.append(g) or g for g in substreams(*key)))
    with pytest.raises(ValueError, match="^empty sample: maximum index undefined$"):
        verify_guarantee(learner, P, "1/3", "1/3", 0, 70_000, 11)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# compression_learner


def recording(scheme):
    """(scheme with a reconstruct that logs its arguments, the log)."""
    log = []

    def reconstruct(sub):
        log.append(sub)
        return scheme.reconstruct(sub)

    return CompressionScheme(scheme.m_in, scheme.m_out, reconstruct), log


def min_segment_scheme(dom, m):
    """Segment at the smallest index of the kept tuple: candidates are not
    nested in subtuple order, so the ERM's tie-breaks matter."""
    return CompressionScheme(m + 1, m, lambda sub: dom.initial_segment(min(dom.idx(x) for x in sub)))


def families_scheme(dom, m):
    """The initial segment up to the largest kept rank, as a segment over
    ``dom``, a segment over a second domain object with the same labels, or
    an explicit set, by the kept ranks' sum: two nested families whose
    finalists tie with equal sets met before them."""
    twin = IndexedDomain(dom.labels)

    def reconstruct(sub):
        ranks = [dom.idx(x) for x in sub]
        t = max(ranks)
        return (dom.initial_segment(t), twin.initial_segment(t), FiniteHypothesis.from_elements(dom.labels[:t]))[
            sum(ranks) % 3]

    return CompressionScheme(m + 1, m, reconstruct)


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
            assert got == want and got.is_segment == want.is_segment
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


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(st.integers(0, 4), max_size=12), m=st.integers(1, 5))
def test_distinct_subtuples_in_first_embedding_order(pts, m):
    pts = tuple(pts)
    assert list(_distinct_subtuples(pts, m)) == list(dict.fromkeys(itertools.combinations(pts, m)))


def test_candidate_count_is_bounded_by_distinct_values():
    pts = tuple(f"v{i % 4}" for i in range(60))
    assert len(list(_distinct_subtuples(pts, 3))) == 4**3 < math.comb(60, 3)
