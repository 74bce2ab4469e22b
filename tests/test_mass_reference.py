"""Table-backed ``mass`` and the distinct-subtuple ERM against the loops they
replaced.

``reference_mass`` sums the weights of the support points in F left to
right, testing membership point by point; ``reference_compression_learner``
runs the ERM over ``dict.fromkeys(combinations(sample, m))`` with
``Fraction`` empirical masses.  Both are the code ``plab.emx`` and
``plab.compression`` used before the prefix tables.  The new code must
return the identical value and type, the identical hypothesis and, on a
scheme's first call, make the identical sequence of ``reconstruct`` calls.
"""

import dataclasses
import itertools
import math
import unittest.mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plab import compression
from plab.coarse import TableMap, UniformBinsMap, pullback
from plab.compression import (
    CompressionScheme,
    _distinct_subtuples,
    compression_learner,
    learner_to_compression,
    segment_scheme,
)
from plab.emx import FinSupportDist, FiniteHypothesis, IndexedDomain, mass, quantile_learn


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


def scheme_for(kind, dom, m):
    if kind in ("segment", "two_to_one"):  # the 2->1 scheme is segment_scheme(dom, 1)
        return segment_scheme(dom, m)
    if kind == "min_segment":
        return min_segment_scheme(dom, m)
    # learner_to_compression with d = 1 or 2 keeps m = 2 or 3 points
    return learner_to_compression(lambda s: quantile_learn(s, dom), m - 1, dom)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["segment", "two_to_one", "min_segment", "learner"]),
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
