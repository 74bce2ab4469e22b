"""Finitely supported distributions and the max-estimation learning loop.

Implements:
  • IndexedDomain — ordered countable domain with a 1-based rank ``idx``
  • FinSupportDist — finitely supported distribution (exact rationals preferred)
  • FiniteHypothesis — initial segment stored as its threshold (an explicit set is a frozenset)
  • quantile_learn — keep everything up to the largest observed index
  • SegmentLearner — the same rule after a map, answered from support ranks
  • accuracy — the one (eps, delta) rule: exact eps in (0,1), delta in [0,1)
  • sample_complexity — smallest d with (1-eps)^d <= delta, clamped to >= 1
  • mass — exact P(F), from a per-distribution prefix table for segments
  • quantile_success — exact success probability of the quantile learner
  • substreams — the generator of (seed, k) for every k, their seed sequences hashed in one batch
  • verify_guarantee — seeded Monte Carlo check of (eps, delta) at all of a run's (learner, d) points, in one
    trial loop that draws each trial once, as support positions

Success of a learner on an episode means the learned set captures mass at least
opt - eps, where opt = 1 for the class of all finite subsets.  A float weight is
read as the exact dyadic rational it is, so every mass is a Fraction and every
mass comparison is exact, whatever the order of the support.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Container, Iterable, Iterator, Sequence

from . import _np as np  # numpy, loaded on first use

SAMPLE_LIMIT = 1 << 24  # largest d (a block holds one whole trial) and trial count ``verify_guarantee`` runs
FLOAT_SUM_TOL = 1e-12  # how far from 1 the float sum of a distribution's weights may be


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
    if isinstance(value, float):  # nan and inf raise RationalLiteralError
        return _parse_literal(str(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _integer_form(values: Iterable, parse: Callable | None = None) -> tuple[int, tuple[int, ...]]:
    """(scale, nums) with nums[i] / scale == values[i] exactly, scale the lcm of the denominators of
    the values' ``as_integer_ratio()`` (a float is the dyadic rational it is): the one integer form of
    plab's exact data.  Callers parse their values first, or pass ``parse``, applied in this pass."""
    ratios = [v.as_integer_ratio() for v in values] if parse is None else [parse(v).as_integer_ratio() for v in values]
    scale = math.lcm(*[q for _, q in ratios])
    return scale, tuple([p * (scale // q) for p, q in ratios])


def _json_field(obj, key):
    """obj[key] of an input file; a missing key is a TypeError that says so.
    Only the lookup's own KeyError is relabelled."""
    try:
        return obj[key]
    except KeyError:
        raise TypeError(f"missing key {key!r}") from None


def _json_list(obj, key, name: str = "") -> list:
    """obj[key] by ``_json_field``, which an input file must give as a JSON
    list: a string there would be read character by character.  The
    TypeError calls it ``name``, by default ``repr(key)``."""
    value = _json_field(obj, key)
    if not isinstance(value, list):
        raise TypeError(f"{name or repr(key)} must be a list, not {type(value).__name__}")
    return value


def accuracy(epsilon, delta) -> tuple[Fraction, Fraction]:
    """epsilon and delta as exact rationals by ``as_fraction``, checked to lie
    in (0,1) and [0,1): the one epsilon/delta check of every plab entry point."""
    eps, dlt = as_fraction(epsilon), as_fraction(delta)
    if not (0 < eps < 1) or not (0 <= dlt < 1):
        raise ValueError("need epsilon in (0,1) and delta in [0,1)")
    return eps, dlt


def _hash_consts(g: int, mult: int, first: int, last: int) -> np.ndarray:
    """SeedSequence's hash constants g * mult^i mod 2^32, i = first..last."""
    return np.array([g * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(first, last + 1)], dtype=np.uint64)


@functools.cache
def _fixed_state() -> type:
    """An ISeedSequence whose generate_state returns one precomputed row; made
    on first use, since importing numpy.random costs about 20 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row  # C-contiguous: PCG64 reads its raw buffer

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return FixedState


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """For k = 0..count-1 in order, the generator of (seed, k): PCG64 on SeedSequence(entropy=seed,
    spawn_key=(k,)), as ``np.random.default_rng`` makes it.  A key is one uint32 word, so a count
    above 2^32 raises ValueError.  numpy pools the seed's uint32 words, padded to 4; key k is mixed
    in, and the state generated, for 1024 keys at once in np.uint64 arrays (numpy 1.x casts uint64
    with a Python int to float64).  The first row is checked against numpy's SeedSequence, which
    also rejects a bad seed with numpy's error."""
    if count > 1 << 32:
        raise ValueError(f"count = {count} is above 2^32: a substream key is one uint32 word")
    want = np.random.SeedSequence(entropy=seed, spawn_key=(0,)).generate_state(4, np.uint64)
    words = [int(seed) >> s & 0xFFFFFFFF for s in range(0, max(128, int(seed).bit_length()), 32)]
    u, m32, s16, fixed = np.uint64, np.uint64(0xFFFFFFFF), np.uint64(16), _fixed_state()
    pool = np.random.SeedSequence(words).pool.astype(u) * u(0xCA01F9DD) & m32  # mix's first term
    key = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(words), 4 * len(words) + 4)  # after 4 per word
    out = _hash_consts(0x8B51F9DD, 0x58F38DED, 0, 8)
    for start in range(0, count, 1024):  # keys of one uint32 word: no product overflows
        v = np.arange(start, min(count, start + 1024), dtype=u)[:, None]
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

    def initial_segment(self, t: int) -> "FiniteHypothesis":
        if t < 0:
            raise ValueError("segment threshold must be >= 0")
        return FiniteHypothesis(self, t)

    def __repr__(self) -> str:
        if self._rank is None:
            return f"IndexedDomain({self.labels!r})"
        head = ", ".join(repr(x) for x in self.labels[:4])
        tail = ", ..." if len(self.labels) > 4 else ""
        return f"IndexedDomain([{head}{tail}])"


class FiniteHypothesis:
    """Initial segment {x : domain.idx(x) <= threshold} of a domain, stored
    as the threshold alone.  Two segments are equal when they are over the
    same domain object and have the same size; an explicit finite set is a
    plain ``frozenset``, which no segment equals.
    """

    __slots__ = ("domain", "threshold")

    def __init__(self, domain: IndexedDomain, threshold: int):
        self.domain = domain
        self.threshold = threshold

    @property
    def elements(self) -> frozenset:
        return frozenset(self.domain.labels[: self.threshold])

    def __contains__(self, x) -> bool:
        try:
            return self.domain.idx(x) <= self.threshold
        except KeyError:
            return False

    @property
    def _size(self) -> int:
        """Cardinality, exact also past the 2^63 - 1 that ``len`` can return."""
        return min(self.threshold, self.domain.size)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        return iter(self.domain.labels[: self.threshold])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteHypothesis):
            return NotImplemented
        return self.domain is other.domain and self._size == other._size

    def __hash__(self) -> int:
        return hash((self.domain, self._size))  # O(1): never builds the element set

    def __repr__(self) -> str:
        return f"FiniteHypothesis(segment t={self.threshold})"


class FinSupportDist:
    """Finitely supported probability distribution.

    ``support`` holds distinct points.  A float weight stays a float, any
    other goes to ``as_fraction`` (a bool raises TypeError).  Every weight is
    also stored once in integer form, ``_nums[i] / _den`` over the lcm of the
    denominators, a float as the dyadic rational it is; the checks, the
    prefix tables of ``mass`` and the frozenset sum read that form.  The
    weights are finite, strictly positive and sum to exactly 1 when all
    rational, or, when floats are involved, to 1 within ``FLOAT_SUM_TOL``
    after one rounding of their exact sum (``math.fsum``'s value), so in any
    support order.  Sampling uses the inverse CDF over the declared support
    order, read from a guide table: a draw in one of K >= 16 |support|
    dyadic buckets (K a power of two) that no CDF value splits maps straight
    to its position, and only the others search the CDF.
    """

    __slots__ = ("support", "weights", "_nums", "_den", "_labels", "_cdf", "_guide", "_tables")

    def __init__(self, support: Sequence, weights: Sequence):
        self.support = tuple(support)
        self.weights = tuple(w if isinstance(w, float) else as_fraction(w) for w in weights)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not self.support:
            raise ValueError("distribution needs at least one support point")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")
        if any(isinstance(w, float) and not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")  # NaN and inf have no integer ratio
        self._den, self._nums = den, nums = _integer_form(self.weights)
        if min(nums) <= 0:
            raise ValueError("weights must be strictly positive")
        total = sum(nums)
        if self.is_exact:
            if total != den:
                raise ValueError(f"rational weights must sum to exactly 1, got {Fraction(total, den)}")
        elif abs((total := total / den) - 1.0) > FLOAT_SUM_TOL:  # int / int rounds once, as fsum does
            raise ValueError(f"float weights must sum to 1 within {FLOAT_SUM_TOL}, got {total!r}")
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

    @classmethod
    def from_json(cls, obj: dict) -> "FinSupportDist":
        return cls(_json_list(obj, "labels"), _json_list(obj, "weights"))

    def __repr__(self) -> str:
        return f"FinSupportDist({len(self.support)} points)"


def _prefix_table(P: FinSupportDist, pi, dom: IndexedDomain) -> tuple:
    """(ranks, prefix, den, point_ranks) for the ranks dom.idx(pi(x)) of P's
    support (pi None: identity), built once and cached on P under (pi, dom).
    ``point_ranks`` lists them in support order (None outside ``dom``),
    ``ranks`` ascending, and the integer ``prefix[k] / den`` is the exact sum
    of the first k ranked weights: P's integer form, accumulated.
    """
    table = P._tables.get((pi, dom))
    if table is not None:
        return table
    point_ranks = []
    for x in P.support:
        y = x if pi is None else pi(x)
        try:
            point_ranks.append(dom.idx(y))
        except KeyError:
            point_ranks.append(None)
    ranked = sorted(((r, p) for r, p in zip(point_ranks, P._nums) if r is not None), key=lambda rp: rp[0])
    prefix = list(accumulate((p for _, p in ranked), initial=0))
    table = P._tables[(pi, dom)] = ([r for r, _ in ranked], prefix, P._den, point_ranks)
    return table


def _reaching(table: tuple, target: Fraction) -> int:
    """The least k whose prefix of ``_prefix_table``'s ``table`` holds mass >= target, in integers
    (len(prefix) when none does): prefix[k] / den >= p / q iff prefix[k] >= ceil(p den / q)."""
    return bisect_left(table[1], -(-target.numerator * table[2] // target.denominator))


def mass(P: FinSupportDist, F: Container) -> Fraction:
    """Probability P(F) = sum of weights of support points in F, exact: a
    float weight counts as the dyadic rational it is.

    F is anything with membership.  A ``FiniteHypothesis`` segment is
    answered with one ``bisect`` at its threshold in the prefix-mass table
    of its domain, built once per (distribution, domain) and cached on P.
    Any other F (a frozenset, say) is summed over the support, testing
    membership point by point.
    """
    if isinstance(F, FiniteHypothesis):
        ranks, prefix, den, _ = _prefix_table(P, None, F.domain)
        return Fraction(prefix[bisect_right(ranks, F.threshold)], den)
    return Fraction(sum(p for x, p in zip(P.support, P._nums) if x in F), P._den)


def quantile_success(P: FinSupportDist, dom: IndexedDomain, epsilon, d: int) -> Fraction:
    """Exact probability 1 - F(t*-1)^d that the quantile learner on d points
    captures mass at least 1 - epsilon, where F(t) is the mass of ranks <= t
    and t* is the smallest rank whose prefix mass reaches 1 - epsilon.

    Read from the same prefix table as ``mass``.  Support points outside
    ``dom`` carry no rank and count in no prefix.
    """
    table = _prefix_table(P, None, dom)
    k = _reaching(table, 1 - accuracy(epsilon, 0)[0])
    if k == len(table[1]):
        raise ValueError("the masses of the ranked support points never reach 1 - epsilon")
    return 1 - Fraction(table[1][k - 1], table[2]) ** d


def quantile_learn(sample: Iterable, dom: IndexedDomain) -> FiniteHypothesis:
    """Initial segment up to the largest observed index: A_T with T = max idx.

    Duplicates are harmless (max over a multiset); the output contains every
    sample point.  Raises on an empty sample — the maximum is undefined.
    """
    pts = tuple(sample)
    if not pts:
        raise ValueError("empty sample: maximum index undefined")
    return dom.initial_segment(max(map(dom.idx, pts)))


class SegmentLearner(namedtuple("SegmentLearner", "dom pi", defaults=(None,))):
    """Max-rank learner over ``dom`` after the map ``pi`` (None: identity): on a
    sample, the segment up to the largest rank of its labels, pulled back
    through ``pi``.  ``verify_guarantee`` answers its trials from support ranks."""

    __slots__ = ()

    def _table(self, P: FinSupportDist, d: int) -> tuple:
        """P's prefix table, where one bisect answers every trial of size d.
        Raises for an empty sample, a support point the map rejects (the
        map's own error) or one with no rank in ``dom`` (KeyError)."""
        if d == 0:
            raise ValueError("empty sample: maximum index undefined")
        table = _prefix_table(P, self.pi, self.dom)
        if None in table[3]:
            x = P.support[table[3].index(None)]
            self.dom.idx(x if self.pi is None else self.pi(x))  # raises the domain's KeyError
        return table


_TIE_BITS = 1 << 18  # precision, in bits, to which ``sample_complexity`` takes powers to settle a tie


def _ln(x: Fraction) -> float:
    """ln x for a rational x in (0, 1) to well within 2^-46 relative: log1p
    above 1/2, where ln x would cancel, and integer logs below the normal floats."""
    if x > 0.5:
        return math.log1p(-float(1 - x))
    return math.log(x) if x >= 2.0**-1022 else math.log(x.numerator) - math.log(x.denominator)


def _power_bounds(x: int, n: int, bits: int) -> tuple:
    """(lo, hi, e) with lo * 2^e <= x^n <= hi * 2^e, squaring with each result cut to ``bits`` bits (lo
    rounded down, hi up); exact, lo == hi == x^n and e == 0, while x^n has at most ``bits`` bits."""
    if n <= 1:
        return (x, x, 0) if n else (1, 1, 0)
    lo, hi, e = _power_bounds(x, n >> 1, bits)
    lo, hi = lo * lo * x ** (n & 1), hi * hi * x ** (n & 1)
    cut = max(hi.bit_length() - bits, 0)
    return lo >> cut, -(-hi >> cut), 2 * e + cut


def sample_complexity(epsilon, delta) -> int:
    """Smallest integer d >= 1 with (1-epsilon)^d <= delta.

    The float ratio r = ln(delta)/ln(1-epsilon) gives d = ceil(r).  Within 2^-46 r of an integer n (64
    units in the last place, well above the ratio's rounding error), r could put d on the wrong side of
    n, so there d is settled exactly: with 1 - epsilon = s/q and delta = a/b, d = n when s^n * b <= a * q^n
    and n + 1 otherwise, decided on ``_power_bounds`` at 64 bits, then twice as many up to 2^18.  Only
    powers that small can tie exactly (s^n * b = a * q^n needs q^n to divide b).  Past r = 2^45 the window
    is wider than 1/2 and does not tell n; there, and at a tie still open at 2^18 bits, ValueError is raised
    rather than stalling.
    """
    eps, dlt = accuracy(epsilon, delta)
    try:
        r = _ln(dlt) / _ln(1 - eps)
        n = round(r)
    except (ValueError, ArithmeticError):  # ln 0, or a ratio beyond the float range
        raise ValueError("sample complexity needs delta > 0 and a d within the float range") from None
    if abs(r - n) > 2.0**-46 * max(1.0, r):
        return max(1, math.ceil(r))
    (s, q), (a, b) = (1 - eps).as_integer_ratio(), dlt.as_integer_ratio()
    for bits in [1 << k for k in range(6, _TIE_BITS.bit_length())] if r <= 2.0**45 else []:
        (slo, shi, se), (qlo, qhi, qe) = _power_bounds(s, n, bits), _power_bounds(q, n, bits)
        lift = min(se, qe)  # s^n * b against a * q^n at their shared exponent; b > a, so never n = 0
        if shi * b << (se - lift) <= a * qlo << (qe - lift):
            return n
        if slo * b << (se - lift) > a * qhi << (qe - lift):
            return n + 1
    raise ValueError(f"the least d near {n} is too close to a tie to settle within 2^18 bits")


GuaranteeReport = namedtuple("GuaranteeReport", "epsilon delta d trials seed empirical_rate ci_halfwidth bound")
GuaranteeReport.__doc__ = "Monte Carlo verdict for a learner against the (eps, delta) guarantee."


def verify_guarantee(
    points: Sequence[tuple[Callable[[tuple], Container], int]],
    P: FinSupportDist,
    epsilon,
    delta,
    trials: int,
    seed: int,
) -> list[GuaranteeReport]:
    """One report per (learner, d) of points: seeded episodes of the learner on samples of size d from P.

    epsilon and delta are checked once by ``accuracy`` ("1/3", 0.2 -> 1/5).
    An episode succeeds when mass(P, learner(S)) >= 1 - epsilon (opt = 1,
    since the support itself is a finite subset); the comparison is exact.
    trials and every point are checked before anything is drawn: trials or
    a d above ``SAMPLE_LIMIT`` (2^24), or a d below 0, raises ValueError, as
    does a ``SegmentLearner`` that cannot answer (see its ``_table``).  All points share one trial
    loop: trial k draws one random(d_max), d_max the largest d, from the
    (seed, k) substream (``substreams`` hashes them in one batch) as support
    positions by ``FinSupportDist.sample``'s inverse CDF, and a point of
    size d reads the first d, which are the draws of random(d); so a point's
    report is the one it gets alone, and does not depend on execution order.
    Blocks of trials (at most 2^16 doubles, at least one trial) are drawn at
    a time.  A ``SegmentLearner`` decides a block in one array pass over the
    prefix table of ``mass``; any other learner gets its label tuples from
    one gather, and ``mass`` is asked once per distinct learned segment.
    ci_halfwidth is the 3-sigma binomial half-width at the empirical rate;
    bound is 1-(1-eps)^d, computed as -expm1(d*log1p(-eps)), which does not cancel.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > SAMPLE_LIMIT:
        raise ValueError(f"trials = {trials} is above the limit of {SAMPLE_LIMIT}")
    epsilon, delta = accuracy(epsilon, delta)
    target = 1 - epsilon
    points, deciders = list(points), []  # per point: the rank path's wins by support position, or None
    for learner, d in points:
        if d < 0:
            raise ValueError("sample size must be >= 0")
        if d > SAMPLE_LIMIT:  # refused before the block of d doubles is allocated
            raise ValueError(f"sample size d = {d} is above the limit of {SAMPLE_LIMIT} points")
        if isinstance(learner, SegmentLearner):  # does the segment to each point's rank win?
            table = learner._table(P, d)
            k = _reaching(table, target)  # the prefix is nondecreasing: segments from the k-th rank win
            deciders.append(np.array([bisect_right(table[0], r) >= k for r in table[3]]))
        else:
            deciders.append(None)
    won: dict = {}  # segment -> does it win: the label path asks mass once per distinct segment

    def wins_with(F) -> bool:
        if not isinstance(F, FiniteHypothesis):
            return mass(P, F) >= target
        if F not in won:
            won[F] = mass(P, F) >= target
        return won[F]

    d_max = max((d for _, d in points), default=0)
    streams = substreams(seed, trials)
    block = np.empty((min(trials, max(1, 2**16 // (d_max or 2**16))), d_max))  # 1 trial a block at d_max = 0
    wins = [0] * len(points)
    for start in range(0, trials, len(block)):
        U = block[: trials - start]
        for row, rng in zip(U, streams):
            rng.random(out=row)
        positions, samples = P._positions(U), None
        for i, ((learner, d), wins_at) in enumerate(zip(points, deciders)):
            if wins_at is not None:  # segments grow with the rank: a trial's largest wins iff any of its points' does
                wins[i] += int(wins_at[positions[:, :d]].any(axis=1).sum())
                continue
            if samples is None:
                samples = P._labels[positions].tolist()  # one label gather per block
            wins[i] += sum(wins_with(learner(tuple(sample[:d]))) for sample in samples)
    rates = [n / trials for n in wins]
    return [GuaranteeReport(epsilon, delta, d, trials, seed, rate, 3.0 * math.sqrt(rate * (1.0 - rate) / trials),
                            -math.expm1(d * math.log1p(-float(epsilon)))) for (_, d), rate in zip(points, rates)]
