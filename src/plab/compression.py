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
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .emx import FiniteHypothesis, IndexedDomain, _mass, _prefix_table, quantile_learn

ALPHA = Fraction(1, 6)  # weak-learning slack; the three n-conditions below use it
CANDIDATE_LIMIT = 4096  # value subtuples a scheme keeps reconstructed; past it they are rebuilt per call


@dataclass(frozen=True)
class CompressionScheme:
    """Reconstruction rule from m_out-tuples, with declared sizes.

    ``reconstruct`` must be a pure function of its tuple: the same tuple
    always gives an equal hypothesis, and calling it has no effect that
    matters.  ``compression_learner`` relies on this: it keeps the
    reconstruction of each value subtuple it meets (with its size and
    ``segment_form()``) in a table on the scheme, up to ``CANDIDATE_LIMIT``
    entries, and reconstructs only subtuples the table does not hold.  The
    table is not a field of the constructor, so ``dataclasses.replace``
    starts a scheme with an empty one.
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


def _distinct_subtuples(pts: tuple, m: int) -> Iterator[tuple]:
    """Each distinct value m-subsequence of pts once, in the order of its
    leftmost embedding: the order of dict.fromkeys(combinations(pts, m)).

    The first position tuple that combinations() yields for a value tuple is
    its greedy leftmost embedding, so a depth-first walk that extends each
    prefix by the first occurrence after its last position of every value,
    in position order, meets the value tuples in that same order.  Each step
    holds one first-occurrence list over the u distinct values.
    """
    if m == 1:  # the walk's one level: the values in first-occurrence order
        return ((x,) for x in dict.fromkeys(pts))
    where = defaultdict(list)
    for i, x in enumerate(pts):
        where[x].append(i)
    last = len(pts)

    def extend(prefix: tuple, after: int, left: int) -> Iterator[tuple]:
        firsts = sorted(pos[k] for pos in where.values() if (k := bisect_right(pos, after)) < len(pos))
        for q in firsts:
            if q > last - left:  # too few positions after q to finish the tuple
                break
            if left == 1:
                yield prefix + (pts[q],)
            else:
                yield from extend(prefix + (pts[q],), q, left - 1)

    return extend((), -1, m)


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
    later calls only those for subtuples the table does not hold.  n is
    fixed within a call, so empirical masses are compared as integer counts
    of sample hits; a segment candidate's count is one ``bisect`` in a
    prefix table over the ranks of the distinct values
    (``emx._prefix_table``), built once per call.
    """
    pts = tuple(sample)
    n, m = len(pts), scheme.m_out
    if n < m + 1:
        raise ValueError(f"sample size {n} below m+1 = {m + 1}")
    counts = Counter(pts)
    values, mults, tables = tuple(counts), tuple(counts.values()), {}
    candidates = scheme._candidates

    best = best_key = best_desc = None  # best_key is (hits, cardinality); description computed lazily
    for sub in _distinct_subtuples(pts, m):
        entry = candidates.get(sub)
        if entry is None:
            hyp = scheme.reconstruct(sub)
            entry = (hyp, len(hyp), hyp.segment_form())
            if len(candidates) < CANDIDATE_LIMIT:
                candidates[sub] = entry
        hyp, size, form = entry
        if form is None:
            hits = _mass(values, mults, hyp, tables, 0)
        else:  # integer weights: the prefix table is always in order
            pi, seg_dom, t = form
            ranks, prefix, _, _ = _prefix_table(tables, values, mults, pi, seg_dom, 0)
            hits = prefix[bisect_right(ranks, t)]
        key = (hits, size)
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
