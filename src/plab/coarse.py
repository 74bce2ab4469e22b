"""Finite-precision interfaces: binning maps and pushforward (the learner
behind a map pi is ``emx.SegmentLearner(pi.domain, pi)``).

A coarse-graining map pi sends continuum points to a countable label alphabet
with its own index order.  Pushing a distribution forward merges weights
exactly, and P(preimage(F)) = (pushforward P)(F) holds as an identity of
rationals.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .emx import FinSupportDist, IndexedDomain

# Every double in [0,1] is a multiple of 2^-1074, so past 1074 bits floor(2^bits * x)
# separates no further pair of points; ``UniformBinsMap`` refuses more bits.
BITS_LIMIT = 1074


class UniformBinsMap:
    """x -> floor(2^bits * x) on [0,1], clamped into [0, 2^bits - 1].

    The output alphabet is the integer range 0..2^bits-1 in numeric order
    (rank of bin b is b+1).  Points outside [0,1] are a domain error; x = 1.0
    lands in the top bin via the clamp.  The bin is computed exactly from the
    float's integer ratio, so every bit count up to ``BITS_LIMIT`` works (a
    float 2^bits overflows from 1024 bits on); more bits are refused.
    """

    def __init__(self, bits: int):
        if type(bits) is not int or bits < 0:  # a bool is an int, but not a bit count
            raise ValueError("bits must be a nonnegative integer")
        if bits > BITS_LIMIT:
            raise ValueError(f"bits = {bits} is above the limit of {BITS_LIMIT}: every double in [0,1] is a "
                             f"multiple of 2^-{BITS_LIMIT}, so more bits separate no further points")
        self.bits = bits

    @cached_property
    def domain(self) -> IndexedDomain:
        return IndexedDomain(range(1 << self.bits))

    def __call__(self, x) -> int:
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"point {x!r} outside [0,1]")
        p, q = x.as_integer_ratio()
        return min((p << self.bits) // q, (1 << self.bits) - 1)

    def __repr__(self) -> str:
        return f"UniformBinsMap(bits={self.bits})"


class TableMap:
    """Explicit finite map given as (input, output) pairs; a repeated input
    must repeat its output.  Output alphabet order is first appearance among
    the pair outputs, the order of the outputs in the input-to-output table;
    inputs outside the table are a domain error.
    """

    def __init__(self, pairs: Iterable[tuple]):
        self._map = {}
        for x, y in pairs:
            if x in self._map and self._map[x] != y:
                raise ValueError(f"conflicting outputs for input {x!r}")
            self._map[x] = y

    @cached_property
    def domain(self) -> IndexedDomain:
        return IndexedDomain(dict.fromkeys(self._map.values()))

    def __call__(self, x):
        try:
            return self._map[x]
        except KeyError:
            raise ValueError(f"point {x!r} outside the table domain") from None

    def __repr__(self) -> str:
        return f"TableMap({len(self._map)} entries)"


def pushforward(P: FinSupportDist, pi) -> FinSupportDist:
    """Distribution of pi(X): Q(y) = sum of P(x) over x with pi(x) = y.

    Weights merge exactly (rational adds stay rational); the output support is
    ordered by the label alphabet's index order.
    """
    acc: dict = {}
    for x, w in zip(P.support, P.weights):
        y = pi(x)
        acc[y] = acc.get(y, 0) + w
    labels = sorted(acc, key=pi.domain.idx)
    return FinSupportDist(labels, [acc[y] for y in labels])

