"""Monotone sample compression for finite-subset hypotheses.

A scheme keeps m_out of m_in = m_out + 1 sample points and reconstructs a
finite set that must cover the whole input tuple for some kept subtuple (the
monotone condition):

  • segment_scheme: keep m points, reconstruct the initial segment up to the
    largest kept index (the quantile learner); m = 1 is the 2->1 scheme,
    whose compress map keeps the point of larger index;
  • compression_learner: ERM over the reconstructions of all m-subtuples,
    which turns any scheme into a learner once n >= required_n(m).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .emx import FiniteHypothesis, IndexedDomain, quantile_learn

CANDIDATE_LIMIT = 4096  # value subtuples a scheme keeps reconstructed; past it they are rebuilt per call
LEVEL_LIMIT = 1 << 16  # value subtuples one level of the ERM's walk may hold; a larger level is refused


@dataclass(frozen=True)
class CompressionScheme:
    """Reconstruction rule from m_out-tuples of an m_in = m_out + 1 tuple.

    ``reconstruct`` (to a segment or a frozenset) must be a pure function
    of its tuple: the same tuple always gives an equal set (a segment over
    the same domain object), and calling it has no effect that matters.
    ``compression_learner`` relies on this: it keeps each value subtuple it
    meets as an entry (hyp, size, family) in a table on the scheme, up to
    ``CANDIDATE_LIMIT`` entries, and reconstructs only subtuples the table
    does not hold; the family is a segment's domain, or the subtuple itself
    for any other candidate.  The table is not a field of the constructor,
    so ``dataclasses.replace`` starts a scheme with an empty one.
    """

    m_out: int
    reconstruct: Callable[[tuple], FiniteHypothesis | frozenset] = field(repr=False)
    _candidates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m_out < 1:
            raise ValueError("need m_out >= 1")

    @property
    def m_in(self) -> int:
        return self.m_out + 1


def segment_scheme(dom: IndexedDomain, m: int) -> CompressionScheme:
    """Keep m points, reconstruct with the quantile learner: the initial
    segment up to the largest kept index; m = 1 is the 2->1 scheme.
    Candidates are nested, which makes the ERM below coincide with the
    quantile learner."""
    return CompressionScheme(m_out=m, reconstruct=lambda sub: quantile_learn(sub, dom))


def check_monotone_coverage(scheme: CompressionScheme, pts: tuple) -> tuple | None:
    """Exhaustively search the m_out-subtuples of an m_in-tuple; return one
    whose reconstruction contains every input point, or None."""
    pts = tuple(pts)
    if len(pts) != scheme.m_in:
        raise ValueError(f"expected an m_in={scheme.m_in} tuple, got {len(pts)} points")
    for sub in itertools.combinations(pts, scheme.m_out):
        hyp = scheme.reconstruct(sub)
        if all(x in hyp for x in pts):
            return sub
    return None


def _stirling_rest(x: int) -> list:
    """ln x! - (x + 1/2) ln x + x as float terms: lgamma's below 2^7, from there Stirling's series
    ln sqrt(2 pi) + 1/(12x) - 1/(360x^3) + 1/(1260x^5), whose next term is below 2^-59."""
    if x < 128:
        return [math.lgamma(x + 1), -(x + 0.5) * math.log(x), x]
    return [0.9189385332046727, 1 / (12 * x) - 1 / (360 * x**3) + 1 / (1260 * x**5)]


def required_n(m: int) -> int:
    """Smallest n with m/n <= 1/6, 2*C(n,m)*e^{-(n-m)/18} <= 1/6 and e^{-n/18} <= 1/6.

    The union bound, the second, implies the others for m >= 1: below n = 6m, C(n,m) >= (n/m)^m keeps its
    left side above 2, and C(n,m) >= 1 gives e^{-n/18} <= 1/12.  In logs f(n) = ln 12 + ln C(n,m) - k/18
    <= 0 with k = n - m; f is concave and f(m + 1) > 0, so doubling and bisection find the least n.  ln C is
    summed in Stirling's form k ln(n/k) + m ln(n/m) + ln(n/(km))/2 + the ``_stirling_rest`` terms, where
    the n ln n parts of the log-factorials cancel in closed form: the terms' sizes add to about 11 m at the
    answer, against 2,000 to 6,000 m (m from 2^10 to 2^38) for three lgamma values.  Each term is within 5
    units of 2^-53 of its size, a log of a ratio near 1 within one unit (lgamma's error against mpmath is
    the largest), and ``math.fsum`` rounds once, so a probe is decided only when |f| exceeds 2^-48 times
    that sum; nearer a tie ValueError is raised rather than a guess.  25 random m per octave first meet it
    near m = 2^33, and every m from 2^39 on.
    """
    if not 1 <= m <= 2**53:  # the m read in; floats settle none from about 2^39 on
        raise ValueError("m must lie in [1, 2^53]")
    rest_m = [-t for t in _stirling_rest(m)]

    def holds(n: int) -> bool:
        k = n - m
        terms = [math.log(12.0), k * math.log1p(m / k), m * math.log(n / m), 0.5 * math.log(n / (k * m)), -k / 18,
                 *_stirling_rest(n), *[-t for t in _stirling_rest(k)], *rest_m]
        f = math.fsum(terms)
        if abs(f) <= 2.0**-48 * math.fsum(map(abs, terms)):
            raise ValueError(f"the least n for m = {m} is too close to a float tie to settle")
        return f < 0

    lo, hi = m + 1, 2 * m + 2  # holds(m + 1) is false: f(m + 1) = ln 12 + ln(m + 1) - 1/18 > 0
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _distinct_subtuples(pts: tuple, m: int) -> list[tuple]:
    """Each distinct value m-subsequence of pts once, in the order of its
    leftmost embedding: the order of dict.fromkeys(combinations(pts, m)).

    The first position tuple that combinations() yields for a value tuple is
    its greedy leftmost embedding, so extending each prefix by the first
    occurrence from its start position on of every value, in position order,
    meets the value tuples in that same order.  Each level is one list of
    (prefix, start) pairs; one backward scan per level gives the sorted
    first occurrences from every start the level holds.  For m >= 2 a level
    of more than ``LEVEL_LIMIT`` subtuples raises ValueError before it is built.
    """
    if m == 1:  # the walk's one level: the values in first-occurrence order
        return [(x,) for x in dict.fromkeys(pts)]
    n, level = len(pts), [((), 0)]
    for left in range(m, 0, -1):
        at, firsts = dict.fromkeys((s for _, s in level), ()), {}  # start -> sorted first occurrences from it
        for s in range(n - 1, min(at, default=n) - 1, -1):  # firsts: each value's first position >= s
            firsts[pts[s]] = s
            if s in at:
                at[s] = sorted(firsts.values())
        if len(level) * len(firsts) > LEVEL_LIMIT:  # the next level may be too large: count it
            if sum(bisect_right(at[s], n - left) for _, s in level) > LEVEL_LIMIT:
                raise ValueError(f"m = {m} walks more than {LEVEL_LIMIT} distinct value subtuples of the sample")
        if left == 1:
            return [prefix + (pts[q],) for prefix, s in level for q in at[s]]
        # q <= n - left leaves enough positions to finish the tuple
        level = [(prefix + (pts[q],), q + 1) for prefix, s in level for q in at[s] if q <= n - left]


def compression_learner(
    scheme: CompressionScheme, sample: Iterable, dom: IndexedDomain
) -> FiniteHypothesis | frozenset:
    """ERM over the candidate family {reconstruct(m-subtuple of S)}.

    Returns the candidate of maximum empirical mass; ties break toward larger
    cardinality, then the lexicographically smallest index description.
    Requires n >= m_out + 1 so at least one full subtuple exists.

    Candidates come from each distinct value m-subtuple once, in the order
    of its leftmost embedding in the sample (the order of
    ``dict.fromkeys(combinations(sample, m))``): at most u^m candidates for
    u distinct values instead of C(n, m) tuples.  A subtuple is
    reconstructed once per scheme: its entry (hyp, size, family) is kept in
    the scheme's candidate table (see ``CompressionScheme``), so a scheme's
    first call makes exactly the reconstruct calls above and later calls
    only those for subtuples the table does not hold.

    Candidates of one family are nested, so of each family only the
    first-met candidate of largest size can win (nested sets of equal size
    are equal); any other candidate, such as a frozenset, is a family of
    its own.  One finalist left is the answer, unscored: with
    ``segment_scheme`` every candidate is in one family.  Two or more are
    scored in the order met, by a count of sample hits over the sample's
    distinct values (n is fixed within a call, so counts order like
    empirical masses).
    """
    pts = tuple(sample)
    n, m = len(pts), scheme.m_out
    if n < m + 1:
        raise ValueError(f"sample size {n} below m+1 = {m + 1}")
    candidates, finalists = scheme._candidates, {}  # finalists: family -> (hyp, size, family), in met order
    for sub in _distinct_subtuples(pts, m):
        entry = candidates.get(sub)
        if entry is None:  # family: a segment's domain; a frozenset stands alone
            hyp = scheme.reconstruct(sub)
            entry = (hyp, len(hyp), hyp.domain if isinstance(hyp, FiniteHypothesis) else sub)
            if len(candidates) < CANDIDATE_LIMIT:
                candidates[sub] = entry
        held = finalists.get(entry[2])
        if held is None or entry[1] > held[1]:
            finalists.pop(entry[2], None)  # a larger member takes its own place in the met order
            finalists[entry[2]] = entry
    if len(finalists) == 1:  # a lone finalist is the maximum whatever its hits
        return next(iter(finalists.values()))[0]

    counts = Counter(pts)
    best = best_key = best_desc = None  # best_key is (hits, cardinality); description computed lazily
    for hyp, size, _ in finalists.values():
        key = (sum(c for x, c in counts.items() if x in hyp), size)
        if best is None or key > best_key:
            best, best_key, best_desc = hyp, key, None
        elif key == best_key and hyp != best:
            if best_desc is None:
                best_desc = tuple(sorted(map(dom.idx, best)))
            desc = tuple(sorted(map(dom.idx, hyp)))
            if desc < best_desc:
                best, best_desc = hyp, desc
    return best

