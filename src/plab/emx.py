"""Finitely supported distributions and the max-estimation learning loop.

Implements:
  • IndexedDomain — ordered countable domain with a 1-based rank ``idx``
  • FinSupportDist — finitely supported distribution (exact rationals preferred)
  • FiniteHypothesis — finite subset, with a compact initial-segment form
  • quantile_learn — keep everything up to the largest observed index
  • sample_complexity — smallest d with (1-eps)^d <= delta, clamped to >= 1
  • verify_guarantee — seeded Monte Carlo check of the (eps, delta) guarantee

Success of a learner on an episode means the learned set captures mass at least
opt - eps, where opt = 1 for the class of all finite subsets.  With rational
weights every mass comparison is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np

FINITE_SUBSETS = "finite-subsets"


def as_fraction(value: Fraction | int | float | str) -> Fraction:
    """Exact rational from Fraction/int/str ("1/3", "0.2" -> 1/5).

    Bare floats go through their shortest decimal repr, so 0.2 means 1/5, not
    the binary double nearest 0.2.  Use strings or Fractions when the intent
    is already exact.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_weight(value: Fraction | int | float | str) -> Fraction | float:
    """Probability weight: floats stay float, anything else goes to ``as_fraction``."""
    return value if isinstance(value, float) else as_fraction(value)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path).

    Streams are derived by spawn key, not by drawing, so trial k's stream does
    not depend on execution order or parallelism degree.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


class IndexedDomain:
    """Ordered domain whose elements are ranked 1..n in the declared order.

    ``labels`` may be any sequence of distinct hashables; a ``range`` is kept
    as-is so integer alphabets of size 2^bits need no per-element storage.
    """

    __slots__ = ("labels", "_rank")

    def __init__(self, labels: Sequence):
        if isinstance(labels, range):
            self.labels: Sequence = labels
            self._rank: dict | None = None
        else:
            self.labels = tuple(labels)
            self._rank = {}
            for i, x in enumerate(self.labels):
                if x in self._rank:
                    raise ValueError(f"duplicate label {x!r}")
                self._rank[x] = i + 1

    @classmethod
    def integer_range(cls, n: int) -> "IndexedDomain":
        return cls(range(n))

    def __len__(self) -> int:
        return len(self.labels)

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
        if not 1 <= rank <= len(self.labels):
            raise IndexError(f"rank {rank} outside 1..{len(self.labels)}")
        return self.labels[rank - 1]

    def initial_segment(self, t: int) -> "FiniteHypothesis":
        return FiniteHypothesis.initial_segment(self, t)

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

    @classmethod
    def initial_segment(cls, domain: IndexedDomain, t: int) -> "FiniteHypothesis":
        if t < 0:
            raise ValueError("segment threshold must be >= 0")
        return cls(None, domain, t)

    @property
    def is_segment(self) -> bool:
        return self.threshold is not None

    @property
    def elements(self) -> frozenset:
        if self._explicit is not None:
            return self._explicit
        n = min(self.threshold, len(self.domain))
        return frozenset(self.domain.labels[:n])

    def __contains__(self, x) -> bool:
        if self._explicit is not None:
            return x in self._explicit
        try:
            return self.domain.idx(x) <= self.threshold
        except KeyError:
            return False

    def __len__(self) -> int:
        if self._explicit is not None:
            return len(self._explicit)
        return min(self.threshold, len(self.domain))

    def __iter__(self) -> Iterator:
        if self._explicit is not None:
            return iter(self._explicit)
        return iter(self.domain.labels[: min(self.threshold, len(self.domain))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteHypothesis):
            return NotImplemented
        if self.is_segment and other.is_segment and self.domain is other.domain:
            n = len(self.domain)
            return min(self.threshold, n) == min(other.threshold, n)
        return self.elements == other.elements

    def __hash__(self) -> int:
        # Equal hypotheses have equal sizes, and the size is O(1) in both
        # forms, so hashing a segment never builds its element set.
        return hash(len(self))

    def __repr__(self) -> str:
        if self.is_segment:
            return f"FiniteHypothesis(segment t={self.threshold})"
        return f"FiniteHypothesis({set(self._explicit)!r})"


class FinSupportDist:
    """Finitely supported probability distribution.

    ``support`` holds distinct points; ``weights`` are strictly positive and
    sum to exactly 1 when all rational, or to 1 within 1e-12 when floats are
    involved.  Sampling uses the inverse CDF over the declared support order.
    """

    __slots__ = ("support", "weights", "_cdf")

    def __init__(self, support: Sequence, weights: Sequence):
        self.support = tuple(support)
        self.weights = tuple(parse_weight(w) for w in weights)
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not self.support:
            raise ValueError("distribution needs at least one support point")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        total = sum(self.weights)
        if self.is_exact:
            if total != 1:
                raise ValueError(f"rational weights must sum to exactly 1, got {total}")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"float weights must sum to 1 within 1e-12, got {float(total)!r}")
        cdf = np.cumsum(np.asarray([float(w) for w in self.weights]))
        cdf[-1] = 1.0  # guard against u >= sum from rounding
        self._cdf = cdf

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, Fraction) for w in self.weights)

    @classmethod
    def uniform(cls, points: Sequence) -> "FinSupportDist":
        pts = tuple(points)
        return cls(pts, [Fraction(1, len(pts))] * len(pts))

    def sample(self, rng: np.random.Generator, d: int) -> tuple:
        """d i.i.d. points via the inverse CDF over the ordered support."""
        if d == 0:
            return ()
        pos = np.searchsorted(self._cdf, rng.random(d), side="right")
        return tuple(self.support[i] for i in pos)

    def to_json(self) -> dict:
        weights = [str(w) if isinstance(w, Fraction) else w for w in self.weights]
        return {"labels": [str(x) for x in self.support], "weights": weights}

    @classmethod
    def from_json(cls, obj: dict) -> "FinSupportDist":
        return cls(obj["labels"], obj["weights"])

    def __repr__(self) -> str:
        return f"FinSupportDist({len(self.support)} points)"


@dataclass(frozen=True)
class SampleSeq:
    """Ordered sample with the seed/stream path that produced it."""

    points: tuple
    seed: int | None = None
    stream: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator:
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


def draw_sample(P: FinSupportDist, d: int, seed: int, stream: tuple[int, ...] = ()) -> SampleSeq:
    """Draw d i.i.d. points from P on the (seed, *stream) substream."""
    if d < 0:
        raise ValueError("sample size must be >= 0")
    pts = P.sample(substream(seed, *stream), d)
    return SampleSeq(points=pts, seed=seed, stream=tuple(stream))


def mass(P: FinSupportDist, F: Container) -> Fraction | float:
    """Probability P(F) = sum of weights of support points in F.

    F is anything with membership (FiniteHypothesis, pulled-back sets,
    frozenset).  Exact when the weights are rational.
    """
    return sum((w for x, w in zip(P.support, P.weights) if x in F), start=Fraction(0))


def opt_value(P: FinSupportDist, hypothesis_class: str = FINITE_SUBSETS) -> Fraction:
    """Best achievable mass over the hypothesis class; 1 for finite subsets
    (the support itself is a finite hypothesis)."""
    if hypothesis_class != FINITE_SUBSETS:
        raise ValueError(f"unsupported hypothesis class {hypothesis_class!r}")
    return Fraction(1)


def quantile_learn(sample: Iterable, dom: IndexedDomain) -> FiniteHypothesis:
    """Initial segment up to the largest observed index: A_T with T = max idx.

    Duplicates are harmless (max over a multiset); the output contains every
    sample point.  Raises on an empty sample — the maximum is undefined.
    """
    pts = tuple(sample)
    if not pts:
        raise ValueError("empty sample: maximum index undefined")
    return dom.initial_segment(max(dom.idx(x) for x in pts))


def sample_complexity(epsilon, delta) -> int:
    """Smallest integer d >= ln(1/delta)/(-ln(1-epsilon)), at least 1."""
    e = float(as_fraction(epsilon))
    dl = float(as_fraction(delta))
    if not (0.0 < e < 1.0) or not (0.0 < dl < 1.0):
        raise ValueError("epsilon and delta must lie in (0,1)")
    # log(dl)/log1p(-e) is the exact ratio; the nudge keeps integer ratios
    # (e.g. 0.5,0.5 -> 1.0) from ceiling up on representation noise.
    return max(1, math.ceil(math.log(dl) / math.log1p(-e) - 1e-12))


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

    def to_json(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
            "d": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "empirical_rate": self.empirical_rate,
            "ci_halfwidth": self.ci_halfwidth,
            "bound": self.bound,
        }


def verify_guarantee(
    learner: Callable[[SampleSeq], Container],
    P: FinSupportDist,
    epsilon,
    delta,
    d: int,
    trials: int,
    seed: int,
) -> GuaranteeReport:
    """Run seeded episodes of ``learner`` on samples of size d from P.

    epsilon and delta are parsed once by ``as_fraction`` ("1/3", 0.2 -> 1/5).
    An episode succeeds when mass(P, learner(S)) >= opt - epsilon; the
    comparison is exact when the weights are rational.  Each trial k
    draws from the (seed, k) substream, so the report is reproducible and
    independent of trial execution order.  ci_halfwidth is the 3-sigma
    binomial half-width at the empirical rate; bound is 1-(1-eps)^d.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    epsilon, delta = as_fraction(epsilon), as_fraction(delta)
    target = opt_value(P) - epsilon
    wins = 0
    for k in range(trials):
        S = SampleSeq(points=P.sample(substream(seed, k), d), seed=seed, stream=(k,))
        if mass(P, learner(S)) >= target:
            wins += 1
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
