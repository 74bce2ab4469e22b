"""Monotone sample compression for finite-subset hypotheses.

A scheme keeps m_out of m_in sample points and reconstructs a finite set that
must cover the whole input tuple for some kept subtuple (the monotone
condition).  Both constructive directions live here:

  • segment_scheme: keep m points, reconstruct the initial segment up to the
    largest kept index (the quantile learner); m = 1 is the 2->1 scheme,
    whose compress map keeps the point of larger index;
  • compression_learner: ERM over the reconstructions of all m-subtuples,
    which turns any scheme into a learner once n >= required_n(m);
  • learner_to_compression: any proper learner with sample size d yields a
    scheme with m = ceil(3d/2) by uniting the learner's outputs over all
    d-tuples from the kept points.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .emx import FiniteHypothesis, IndexedDomain, quantile_learn

ALPHA = Fraction(1, 6)  # weak-learning slack; the three n-conditions below use it
CANDIDATE_LIMIT = 4096  # value subtuples a scheme keeps reconstructed; past it they are rebuilt per call


@dataclass(frozen=True)
class CompressionScheme:
    """Reconstruction rule from m_out-tuples, with declared sizes.

    ``reconstruct`` must be a pure function of its tuple: the same tuple
    always gives an equal hypothesis, and calling it has no effect that
    matters.  ``compression_learner`` relies on this: it keeps the
    reconstruction of each value subtuple it meets (with its size and
    ``segment_form()``, which sorts it into a nested family) in a table on
    the scheme, up to ``CANDIDATE_LIMIT`` entries, and reconstructs only
    subtuples the table does not hold.  The table is not a field of the
    constructor, so ``dataclasses.replace`` starts a scheme with an empty one.
    """

    m_in: int
    m_out: int
    reconstruct: Callable[[tuple], FiniteHypothesis] = field(repr=False)
    _candidates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.m_out < self.m_in:
            raise ValueError("need 0 < m_out < m_in")


def compress_two_to_one(x1, x2, dom: IndexedDomain):
    """Keep the point of larger index; its segment covers both inputs."""
    return x1 if dom.idx(x1) >= dom.idx(x2) else x2


def segment_scheme(dom: IndexedDomain, m: int) -> CompressionScheme:
    """Keep m points, reconstruct with the quantile learner: the initial
    segment up to the largest kept index; m = 1 is the 2->1 scheme.
    Candidates are nested, which makes the ERM below coincide with the
    quantile learner."""
    return CompressionScheme(m_in=m + 1, m_out=m, reconstruct=lambda sub: quantile_learn(sub, dom))


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
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    log_alpha = math.log(1.0 / 6.0)
    n = m + 1
    while True:
        cond_ratio = 6 * m <= n
        log_comb = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        cond_union = math.log(2.0) + log_comb - (n - m) / 18.0 <= log_alpha
        cond_tail = -n / 18.0 <= log_alpha
        if cond_ratio and cond_union and cond_tail:
            return n
        n += 1


def _distinct_subtuples(pts: tuple, m: int) -> list[tuple]:
    """Each distinct value m-subsequence of pts once, in the order of its
    leftmost embedding: the order of dict.fromkeys(combinations(pts, m)).

    The first position tuple that combinations() yields for a value tuple is
    its greedy leftmost embedding, so extending each prefix by the first
    occurrence from its start position on of every value, in position order,
    meets the value tuples in that same order.  Each level is one list of
    (prefix, start) pairs; one backward scan per level gives the sorted
    first occurrences from every start the level holds.
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
        if left == 1:
            return [prefix + (pts[q],) for prefix, s in level for q in at[s]]
        # q <= n - left leaves enough positions to finish the tuple
        level = [(prefix + (pts[q],), q + 1) for prefix, s in level for q in at[s] if q <= n - left]


def compression_learner(
    scheme: CompressionScheme, sample: Iterable, dom: IndexedDomain
) -> FiniteHypothesis:
    """ERM over the candidate family {reconstruct(m-subtuple of S)}.

    Returns the candidate of maximum empirical mass; ties break toward larger
    cardinality, then the lexicographically smallest index description.
    Requires n >= m_out + 1 so at least one full subtuple exists.

    Candidates come from each distinct value m-subtuple once, in the order
    of its leftmost embedding in the sample (the order of
    ``dict.fromkeys(combinations(sample, m))``): at most u^m candidates for
    u distinct values instead of C(n, m) tuples.  A subtuple is
    reconstructed once per scheme: its hypothesis, size and segment form
    are kept in the scheme's candidate table (see ``CompressionScheme``),
    so a scheme's first call makes exactly the reconstruct calls above and
    later calls only those for subtuples the table does not hold.

    Candidates whose ``segment_form()`` shares (pi, domain) are nested, so
    of each such family only the first-met candidate of largest size can
    win (nested sets of equal size are equal).  These and every candidate
    without a segment form are scored in the order met, by a count of
    sample hits over the sample's distinct values (n is fixed within a
    call, so counts order like empirical masses).
    """
    pts = tuple(sample)
    n, m = len(pts), scheme.m_out
    if n < m + 1:
        raise ValueError(f"sample size {n} below m+1 = {m + 1}")
    candidates, finalists = scheme._candidates, {}  # finalists: family -> (hyp, size, form), in met order
    for sub in _distinct_subtuples(pts, m):
        entry = candidates.get(sub)
        if entry is None:
            hyp = scheme.reconstruct(sub)
            entry = (hyp, len(hyp), hyp.segment_form())
            if len(candidates) < CANDIDATE_LIMIT:
                candidates[sub] = entry
        family = (sub,) if entry[2] is None else entry[2][:2]  # (pi, domain); an explicit set stands alone
        if family not in finalists or entry[1] > finalists[family][1]:
            finalists.pop(family, None)  # a larger member takes its own place in the met order
            finalists[family] = entry

    counts = Counter(pts)
    best = best_key = best_desc = None  # best_key is (hits, cardinality); description computed lazily
    for hyp, size, _ in finalists.values():
        key = (sum(c for x, c in counts.items() if x in hyp), size)
        if best is None or key > best_key:
            best, best_key, best_desc = hyp, key, None
        elif key == best_key and hyp != best:
            if best_desc is None:
                best_desc = tuple(sorted(dom.idx(x) for x in best.elements))
            desc = tuple(sorted(dom.idx(x) for x in hyp.elements))
            if desc < best_desc:
                best, best_desc = hyp, desc
    return best


def learner_to_compression(
    learner: Callable[[tuple], FiniteHypothesis], d: int, dom: IndexedDomain
) -> CompressionScheme:
    """Scheme with m = ceil(3d/2): reconstruct an m-tuple as the union of its
    own points with the learner's output on every d-tuple (with repetition)
    drawn from them.

    For finite-subset learners the union is itself a finite hypothesis; tuples
    over repeated values are taken once.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    m = math.ceil(3 * d / 2)

    def reconstruct(sub: tuple) -> FiniteHypothesis:
        if len(sub) != m:
            raise ValueError(f"expected an m={m} tuple, got {len(sub)} points")
        out = set(sub)
        values = sorted(set(sub), key=dom.idx)
        for tup in itertools.product(values, repeat=d):
            out.update(learner(tup).elements)
        return FiniteHypothesis.from_elements(out)

    return CompressionScheme(m_in=m + 1, m_out=m, reconstruct=reconstruct)
