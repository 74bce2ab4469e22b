"""Finitely supported distributions and the max-estimation learning loop.

Implements:
  • IndexedDomain — ordered countable domain with a 1-based rank ``idx``
  • FinSupportDist — finitely supported distribution (exact rationals preferred)
  • FiniteHypothesis — finite subset, with a compact initial-segment form
  • quantile_learn — keep everything up to the largest observed index
  • SegmentLearner — the same rule after a map, answered from support ranks
  • accuracy — the one (eps, delta) rule: exact eps in (0,1), delta in [0,1)
  • sample_complexity — smallest d with (1-eps)^d <= delta, clamped to >= 1
  • mass — exact P(F), from a per-distribution prefix table for segments
  • quantile_success — exact success probability of the quantile learner
  • substream, substreams — the generator of (seed, *path); of (seed, k) for every k, hashed in one batch
  • verify_guarantee — seeded Monte Carlo check of (eps, delta), every trial drawn as support positions

Success of a learner on an episode means the learned set captures mass at least
opt - eps, where opt = 1 for the class of all finite subsets.  With rational
weights every mass comparison is exact.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np


class RationalLiteralError(ValueError):
    """A string that does not spell a rational, such as "abc"."""


@functools.lru_cache(maxsize=1024)
def _parse_literal(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise RationalLiteralError(exc) from None


def as_fraction(value: Fraction | int | float | str) -> Fraction:
    """Exact rational from Fraction/int/str ("1/3", "0.2" -> 1/5).

    Each literal string is parsed once (an LRU cache of 1024 strings: data
    files repeat "0" and "1" thousands of times).  Bare floats go through
    their shortest decimal repr, so 0.2 means 1/5, not the binary double
    nearest 0.2.  Use strings or Fractions when the intent is already exact.
    """
    if isinstance(value, str):  # first: dense data rows are mostly strings
        return _parse_literal(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def accuracy(epsilon, delta) -> tuple[Fraction, Fraction]:
    """epsilon and delta as exact rationals by ``as_fraction``, checked to lie
    in (0,1) and [0,1): the one epsilon/delta check of every plab entry point."""
    eps, dlt = as_fraction(epsilon), as_fraction(delta)
    if not (0 < eps < 1) or not (0 <= dlt < 1):
        raise ValueError("need epsilon in (0,1) and delta in [0,1)")
    return eps, dlt


def parse_weight(value: Fraction | int | float | str) -> Fraction | float:
    """Probability weight: floats stay float, anything else goes to ``as_fraction``."""
    return value if isinstance(value, float) else as_fraction(value)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path): PCG64 on
    SeedSequence(entropy=seed, spawn_key=path), the generator that
    ``np.random.default_rng`` makes from that seed sequence, built directly.

    Streams are derived by spawn key, not by drawing, so trial k's stream does
    not depend on execution order or parallelism degree.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=path)))


def _hash_consts(g: int, mult: int, first: int, last: int) -> np.ndarray:
    """SeedSequence's hash constants g * mult^i mod 2^32, i = first..last."""
    return np.array([g * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(first, last + 1)], dtype=np.uint64)


@functools.cache
def _fixed_state() -> type:
    """An ISeedSequence whose generate_state returns one precomputed row; made
    on first use, since importing numpy.random costs about 20 ms."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass
    class FixedState(ISeedSequence):
        row: np.ndarray  # C-contiguous: PCG64 reads its raw buffer

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return FixedState


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """``substream(seed, k)`` for k = 0..count-1 in order.  numpy pools the
    seed's uint32 words, padded to 4; key k is mixed in, and the state
    generated, for 1024 keys at once in np.uint64 arrays (numpy 1.x casts
    uint64 with a Python int to float64).  The first row is checked against
    numpy's SeedSequence, which also rejects a bad seed with numpy's error."""
    want = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).generate_state(4, np.uint64)
    words = [int(seed) >> s & 0xFFFFFFFF for s in range(0, max(128, int(seed).bit_length()), 32)]
    u, m32, s16, fixed = np.uint64, np.uint64(0xFFFFFFFF), np.uint64(16), _fixed_state()
    pool = np.random.SeedSequence(words).pool.astype(u) * u(0xCA01F9DD) & m32  # mix's first term
    key = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(words), 4 * len(words) + 4)  # after 4 per word
    out = _hash_consts(0x8B51F9DD, 0x58F38DED, 0, 8)
    for start in range(0, min(count, 1 << 32), 1024):  # keys of one uint32 word; no product overflows
        v = np.arange(start, min(count, start + 1024, 1 << 32), dtype=u)[:, None]
        v = (v ^ key[:-1]) * key[1:] & m32  # hashmix of the key, once per pool word
        v = (pool + (u(0xB68C08EB) * (v ^ v >> s16) & m32)) & m32  # mix: 0xB68C08EB = -0x4973F715
        v = np.tile(v ^ v >> s16, 2)  # generate_state(4, np.uint64) hashes the pool twice over
        v = (v ^ out[:-1]) * out[1:] & m32
        v ^= v >> s16
        rows = np.ascontiguousarray(v[:, 0::2] | v[:, 1::2] << u(32))
        if start == 0 and not np.array_equal(rows[0], want):
            raise AssertionError(f"batched seed sequence {rows[0]} differs from numpy's {want}")
        for row in rows:
            yield np.random.Generator(np.random.PCG64(fixed(row)))
    yield from map(functools.partial(substream, seed), range(1 << 32, count))


class IndexedDomain:
    """Ordered domain whose elements are ranked 1..n in the declared order.

    ``labels`` may be any sequence of distinct hashables; a ``range`` is kept
    as-is so integer alphabets of size 2^bits need no per-element storage.
    ``size`` is the label count, exact even for ranges of 2^63 labels or more,
    whose ``len`` overflows.
    """

    __slots__ = ("labels", "_rank", "size")

    def __init__(self, labels: Sequence):
        if isinstance(labels, range):
            self.labels: Sequence = labels
            self._rank: dict | None = None
            # ceil((stop - start) / step), clamped at 0 for empty ranges
            self.size = max(0, -((labels.start - labels.stop) // labels.step))
        else:
            self.labels = tuple(labels)
            self._rank = {}
            for i, x in enumerate(self.labels):
                if x in self._rank:
                    raise ValueError(f"duplicate label {x!r}")
                self._rank[x] = i + 1
            self.size = len(self.labels)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator:
        return iter(self.labels)

    def __contains__(self, x) -> bool:
        if self._rank is None:
            return isinstance(x, (int, np.integer)) and int(x) in self.labels
        return x in self._rank

    def idx(self, x) -> int:
        """1-based rank of x; KeyError for elements outside the domain."""
        if self._rank is None:
            if x not in self:
                raise KeyError(f"{x!r} not in domain")
            return self.labels.index(int(x)) + 1
        try:
            return self._rank[x]
        except KeyError:
            raise KeyError(f"{x!r} not in domain") from None

    def label(self, rank: int):
        """Element with the given 1-based rank."""
        if not 1 <= rank <= self.size:
            raise IndexError(f"rank {rank} outside 1..{self.size}")
        return self.labels[rank - 1]

    def initial_segment(self, t: int) -> "FiniteHypothesis":
        if t < 0:
            raise ValueError("segment threshold must be >= 0")
        return FiniteHypothesis(None, self, t)

    def __repr__(self) -> str:
        if self._rank is None:
            return f"IndexedDomain({self.labels!r})"
        head = ", ".join(repr(x) for x in self.labels[:4])
        tail = ", ..." if len(self.labels) > 4 else ""
        return f"IndexedDomain([{head}{tail}])"


class FiniteHypothesis:
    """Finite subset of a domain.

    Two forms: an explicit element set, or a compact initial segment storing
    only the threshold t and denoting exactly {x : idx(x) <= t}.  Membership,
    size and equality behave identically in both forms.
    """

    __slots__ = ("_explicit", "domain", "threshold")

    def __init__(self, explicit: frozenset | None, domain: IndexedDomain | None, threshold: int | None):
        self._explicit = explicit
        self.domain = domain
        self.threshold = threshold

    @classmethod
    def from_elements(cls, elements: Iterable) -> "FiniteHypothesis":
        return cls(frozenset(elements), None, None)

    @property
    def is_segment(self) -> bool:
        return self.threshold is not None

    @property
    def elements(self) -> frozenset:
        if self._explicit is not None:
            return self._explicit
        return frozenset(self.domain.labels[: self.threshold])

    def __contains__(self, x) -> bool:
        if self._explicit is not None:
            return x in self._explicit
        try:
            return self.domain.idx(x) <= self.threshold
        except KeyError:
            return False

    @property
    def _size(self) -> int:
        """Cardinality, exact also past the 2^63 - 1 that ``len`` can return."""
        if self._explicit is not None:
            return len(self._explicit)
        return min(self.threshold, self.domain.size)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        if self._explicit is not None:
            return iter(self._explicit)
        return iter(self.domain.labels[: self.threshold])

    def segment_form(self) -> tuple | None:
        """(None, domain, t) for a segment: x is a member iff domain.idx(x) <= t.
        None for an explicit set."""
        return None if self.threshold is None else (None, self.domain, self.threshold)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteHypothesis):
            return NotImplemented
        if self.is_segment and other.is_segment and (
            self.domain is other.domain or self.domain.labels == other.domain.labels
        ):
            n = self.domain.size
            return min(self.threshold, n) == min(other.threshold, n)
        return self.elements == other.elements

    def __hash__(self) -> int:
        # Equal hypotheses have equal sizes, and the size is O(1) in both
        # forms, so hashing a segment never builds its element set.
        return hash(self._size)

    def __repr__(self) -> str:
        if self.is_segment:
            return f"FiniteHypothesis(segment t={self.threshold})"
        return f"FiniteHypothesis({set(self._explicit)!r})"


class FinSupportDist:
    """Finitely supported probability distribution.

    ``support`` holds distinct points; ``weights`` are finite, strictly
    positive and sum to exactly 1 when all rational, or to 1 within 1e-12 when
    floats are involved.  Sampling uses the inverse CDF over the declared
    support order, read from a guide table: a draw in one of K >= 16 |support|
    dyadic buckets (K a power of two) that no CDF value splits maps straight
    to its position, and only the others search the CDF.
    """

    __slots__ = ("support", "weights", "_labels", "_cdf", "_guide", "_tables")

    def __init__(self, support: Sequence, weights: Sequence):
        self.support = tuple(support)
        self.weights = tuple(parse_weight(w) for w in weights)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not self.support:
            raise ValueError("distribution needs at least one support point")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")
        if any(isinstance(w, float) and not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")  # NaN passes every comparison below
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        total = sum(self.weights)
        if self.is_exact:
            if total != 1:
                raise ValueError(f"rational weights must sum to exactly 1, got {total}")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"float weights must sum to 1 within 1e-12, got {float(total)!r}")
        self._labels = np.fromiter(self.support, dtype=object, count=len(self.support))  # a tuple label stays whole
        cdf = np.cumsum(np.asarray([float(w) for w in self.weights]))
        cdf[-1] = 1.0  # guard against u >= sum from rounding
        self._cdf = cdf
        buckets = 1 << (16 * len(cdf) - 1).bit_length()
        scaled = cdf * buckets  # exact: the bucket count is a power of two
        cells = scaled.astype(np.intp)  # the bucket of each CDF value
        # every draw in bucket b lies at #{cdf < (b + 1) / buckets}, unless a CDF value is inside b: then -1
        self._guide = np.cumsum(np.bincount(cells, minlength=buckets)[:buckets])
        self._guide[cells[(cells < buckets) & (cells != scaled)]] = -1
        self._tables: dict = {}  # (map, domain) -> prefix-mass table, see _prefix_table

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, Fraction) for w in self.weights)

    @classmethod
    def uniform(cls, points: Sequence) -> "FinSupportDist":
        pts = tuple(points)
        return cls(pts, [Fraction(1, len(pts))] * len(pts))

    def _positions(self, U: np.ndarray) -> np.ndarray:  # inverse CDF of draws in [0, 1): _cdf.searchsorted(U, "right")
        pos = self._guide.take((U * len(self._guide)).astype(np.intp))  # bucket floor(U K), exact: K is dyadic
        miss = pos < 0
        if miss.any():
            pos[miss] = self._cdf.searchsorted(U[miss], "right")
        return pos

    def sample(self, rng: np.random.Generator, d: int) -> tuple:
        """d i.i.d. points via the inverse CDF over the ordered support."""
        return tuple(self._labels[self._positions(rng.random(d))].tolist())

    def to_json(self) -> dict:
        weights = [str(w) if isinstance(w, Fraction) else w for w in self.weights]
        return {"labels": [str(x) for x in self.support], "weights": weights}

    @classmethod
    def from_json(cls, obj: dict) -> "FinSupportDist":
        return cls(obj["labels"], obj["weights"])

    def __repr__(self) -> str:
        return f"FinSupportDist({len(self.support)} points)"


def _prefix_table(tables: dict, points: Sequence, weights: Sequence, pi, dom: IndexedDomain, start) -> tuple:
    """(ranks, prefix, ordered, point_ranks) for the ranks dom.idx(pi(x))
    (pi None: identity), built once and cached in ``tables`` under (pi, dom).
    ``point_ranks`` lists them in point order (None outside ``dom``), ``ranks``
    ascending, and ``prefix[k]`` is ``start`` plus the first k ranked weights.

    ``ordered`` says whether ``prefix[k]`` is bit for bit the left-to-right
    sum in point order of the points with rank <= ranks[k-1]: always for
    exact weights (Fraction or int), for floats only when the ranks are
    nondecreasing in point order.  The sort is stable, so points of equal
    rank keep their order.
    """
    table = tables.get((pi, dom))
    if table is not None:
        return table
    point_ranks = []
    for x in points:
        y = x if pi is None else pi(x)
        try:
            point_ranks.append(dom.idx(y))
        except KeyError:
            point_ranks.append(None)
    ranked = [(r, w) for r, w in zip(point_ranks, weights) if r is not None]
    exact = not any(isinstance(w, float) for _, w in ranked)
    ordered = exact or all(a[0] <= b[0] for a, b in zip(ranked, ranked[1:]))
    ranked.sort(key=lambda rw: rw[0])
    prefix = list(accumulate((w for _, w in ranked), initial=start))
    table = tables[(pi, dom)] = ([r for r, _ in ranked], prefix, ordered, point_ranks)
    return table


def _mass(points: Sequence, weights: Sequence, F: Container, tables: dict, start):
    """Sum of the weights of the points in F, from ``start``; a segment-shaped
    F is answered from the prefix table cached in ``tables``."""
    form = F.segment_form() if hasattr(F, "segment_form") else None
    if form is not None:
        pi, dom, t = form
        ranks, prefix, ordered, _ = _prefix_table(tables, points, weights, pi, dom, start)
        if ordered:
            return prefix[bisect_right(ranks, t)]
    return sum((w for x, w in zip(points, weights) if x in F), start=start)


def mass(P: FinSupportDist, F: Container) -> Fraction | float:
    """Probability P(F) = sum of weights of support points in F.

    F is anything with membership (FiniteHypothesis, pulled-back sets,
    frozenset).  Exact when the weights are rational.

    A hypothesis whose ``segment_form()`` gives (pi, domain, t), meaning
    x in F iff domain.idx(pi(x)) <= t (a ``FiniteHypothesis`` segment with
    pi None, or a pullback of one), is answered with one ``bisect`` in a
    prefix-mass table over ranks.  The table is built once per
    (distribution, pi, domain) and cached on P.  Exact weights always use
    it.  Float or mixed weights use it only when the ranks are nondecreasing
    in support order, because only then is each prefix the same
    left-to-right float sum as the loop below.  Every other case, explicit
    sets included, sums over the support testing membership point by point.
    Both paths return the same value and type.
    """
    return _mass(P.support, P.weights, F, P._tables, Fraction(0))


def quantile_success(P: FinSupportDist, dom: IndexedDomain, epsilon, d: int) -> Fraction | float:
    """Exact probability 1 - F(t*-1)^d that the quantile learner on d points
    captures mass at least 1 - epsilon, where F(t) is the mass of ranks <= t
    and t* is the smallest rank whose prefix mass reaches 1 - epsilon.

    Read from the same prefix table as ``mass``; a Fraction for exact
    weights.  Support points outside ``dom`` carry no rank and count in no
    prefix.
    """
    epsilon = accuracy(epsilon, 0)[0]
    prefix = _prefix_table(P._tables, P.support, P.weights, None, dom, Fraction(0))[1]
    k = bisect_left(prefix, 1 - epsilon)
    if k == len(prefix):
        raise ValueError("the masses of the ranked support points never reach 1 - epsilon")
    return 1 - prefix[k - 1] ** d


def quantile_learn(sample: Iterable, dom: IndexedDomain) -> FiniteHypothesis:
    """Initial segment up to the largest observed index: A_T with T = max idx.

    Duplicates are harmless (max over a multiset); the output contains every
    sample point.  Raises on an empty sample — the maximum is undefined.
    """
    pts = tuple(sample)
    if not pts:
        raise ValueError("empty sample: maximum index undefined")
    return dom.initial_segment(max(map(dom.idx, pts)))


@dataclass(frozen=True)
class SegmentLearner:
    """Max-rank learner over ``dom`` after the map ``pi`` (None: identity): on a
    sample, ``quantile_learn`` of its labels, pulled back through ``pi``.
    ``verify_guarantee`` answers its trials from support ranks instead."""

    dom: IndexedDomain
    pi: Callable | None = None
    epsilon: Fraction | str | None = None
    delta: Fraction | str | None = None

    @property
    def need(self) -> int:  # the smallest sample it accepts
        return 0 if self.epsilon is None else sample_complexity(self.epsilon, self.delta)

    def __call__(self, sample: Iterable) -> Container:
        pts = tuple(sample)
        if len(pts) < self.need:
            raise ValueError(f"sample size {len(pts)} below required {self.need}")
        if self.pi is None:
            return quantile_learn(pts, self.dom)
        from .coarse import pullback  # plab.coarse imports this module
        return pullback(quantile_learn(map(self.pi, pts), self.dom), self.pi)

    def _table(self, P: FinSupportDist, d: int) -> tuple | None:
        """P's prefix table if one bisect in it answers every trial of size d;
        None leaves the trials, and any error, to the label path."""
        try:
            if d < max(1, self.need):
                return None
            table = _prefix_table(P._tables, P.support, P.weights, self.pi, self.dom, Fraction(0))
        except Exception:  # need or the map raised: trial 0 on labels raises it, or an earlier error
            return None
        return table if table[2] and None not in table[3] else None


def sample_complexity(epsilon, delta) -> int:
    """Smallest integer d >= ln(1/delta)/(-ln(1-epsilon)), at least 1."""
    eps, dlt = accuracy(epsilon, delta)
    # log(delta)/log1p(-eps) is the exact ratio; the nudge keeps integer
    # ratios (e.g. 0.5,0.5 -> 1.0) from ceiling up on representation noise.
    try:
        return max(1, math.ceil(math.log(dlt) / math.log1p(-float(eps)) - 1e-12))
    except (ValueError, ArithmeticError):  # ln 0, or a ratio beyond the float range
        raise ValueError("sample complexity needs delta > 0 and a d within the float range") from None


@dataclass(frozen=True)
class GuaranteeReport:
    """Monte Carlo verdict for a learner against the (eps, delta) guarantee."""

    epsilon: Fraction
    delta: Fraction
    d: int
    trials: int
    seed: int
    empirical_rate: float
    ci_halfwidth: float
    bound: float


def verify_guarantee(
    learner: Callable[[tuple], Container],
    P: FinSupportDist,
    epsilon,
    delta,
    d: int,
    trials: int,
    seed: int,
) -> GuaranteeReport:
    """Run seeded episodes of ``learner`` on samples of size d from P.

    epsilon and delta are checked once by ``accuracy`` ("1/3", 0.2 -> 1/5).
    An episode succeeds when mass(P, learner(S)) >= 1 - epsilon (opt = 1,
    since the support itself is a finite subset); the comparison is exact
    when the weights are rational.  Trial k is drawn as support positions,
    ``FinSupportDist.sample``'s inverse CDF of one random(d) of the (seed, k)
    substream (``substreams`` hashes them in one batch), so the report is
    reproducible and independent of trial execution order.  A block of
    trials is drawn at a time; a ``SegmentLearner`` decides it in one array
    pass over the prefix table of ``mass``, any other learner gets its label
    tuples from one gather.
    ci_halfwidth is the 3-sigma binomial half-width at the empirical rate;
    bound is 1-(1-eps)^d.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    epsilon, delta = accuracy(epsilon, delta)
    if d < 0:
        raise ValueError("sample size must be >= 0")
    target = 1 - epsilon
    table = learner._table(P, d) if isinstance(learner, SegmentLearner) else None
    if table is not None:  # (ranks, prefix, ordered, point_ranks): does the segment to each point's rank win?
        k = bisect_left(table[1], target)  # the ordered prefix is nondecreasing: segments from the k-th rank win
        wins_at = np.array([bisect_right(table[0], r) >= k for r in table[3]])
    streams = substreams(seed, trials)
    block = np.empty((min(trials, max(1, 2**16 // (d or 2**16))), d))  # <= 2^16 doubles, >= 1 trial, 1 at d = 0
    wins = 0
    for start in range(0, trials, len(block)):
        U = block[: trials - start]
        for row, rng in zip(U, streams):
            rng.random(out=row)
        positions = P._positions(U)
        if table is not None:  # segments grow with the rank: a trial's largest wins iff any of its points' does
            wins += int(wins_at[positions].any(axis=1).sum())
        else:
            for sample in map(tuple, P._labels[positions].tolist()):  # one label gather per block
                wins += mass(P, learner(sample)) >= target
    rate = wins / trials
    return GuaranteeReport(
        epsilon=epsilon,
        delta=delta,
        d=d,
        trials=trials,
        seed=seed,
        empirical_rate=rate,
        ci_halfwidth=3.0 * math.sqrt(rate * (1.0 - rate) / trials),
        bound=1.0 - (1.0 - float(epsilon)) ** d,
    )
