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
    of its tuple: the same tuple always gives an equal set, and calling it
    has no effect that matters.  ``compression_learner`` relies on this: it
    keeps each value subtuple it meets as an entry (hyp, size, family) in a
    table on the scheme, up to ``CANDIDATE_LIMIT`` entries, and reconstructs
    only subtuples the table does not hold; the family is a segment form's
    (pi, domain), or (subtuple,) for a candidate without one.  The table is
    not a field of the constructor, so ``dataclasses.replace`` starts a
    scheme with an empty one.
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


def required_n(m: int) -> int:
    """Smallest n with m/n <= 1/6, 2*C(n,m)*e^{-(n-m)/18} <= 1/6 and
    e^{-n/18} <= 1/6.

    Evaluated in log form to avoid overflow; the boundary gaps are orders of
    magnitude above float error (see tests for a high-precision cross-check).
    The first and third conditions hold from a threshold on.  The log of the
    second's left side rises up to n ~ 18.5*m and falls after it, and at
    n = m + 1 it is already above log(1/6), so the second condition first
    holds on the falling side and then for every larger n: all three hold
    exactly from the answer on, which doubling and then bisection find.
    """
    if not 1 <= m <= 2**53:  # lgamma's arguments: past 2^53 m + 1 is not exact as a float, past ~1.8e308 no float
        raise ValueError("m must lie in [1, 2^53]")
    log_alpha = math.log(1.0 / 6.0)

    def holds(n: int) -> bool:
        log_comb = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        return (6 * m <= n
                and math.log(2.0) + log_comb - (n - m) / 18.0 <= log_alpha
                and -n / 18.0 <= log_alpha)

    lo, hi = m + 1, 2 * m + 2  # holds(m + 1) is false: 6m > m + 1
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
    are equal); a candidate without a segment form, such as a frozenset, is
    a family of its own.  One finalist left is the answer, unscored: with
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
        if entry is None:  # family: (pi, domain) of the segment form; a frozenset stands alone
            hyp = scheme.reconstruct(sub)
            entry = (hyp, len(hyp), hyp.segment_form()[:2] if hasattr(hyp, "segment_form") else (sub,))
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

