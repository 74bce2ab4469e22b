"""Reference constructions the tests hold the package to, and that no
subcommand runs: a segment learner called on labels, a scheme built from any
proper learner, the d-copy pure pair one (gamma, d) at a time, the success
sum of a two-outcome POVM, the epsilon-optimal sets of a task from their
rational definition, and the generator of one (seed, *path) substream."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from plab.compression import CompressionScheme
from plab.emx import FiniteHypothesis, IndexedDomain, SegmentLearner, quantile_learn
from plab.quantum import DensityMatrix, Povm, _pure_pairs, _success_sums, _trusted


class PulledBackHypothesis:
    """Preimage pi^{-1}(F) of a finite label set F, a segment or a frozenset;
    membership tests one point by mapping it through pi, so ``mass`` sums it
    over the support point by point."""

    __slots__ = ("cells", "pi")

    def __init__(self, cells: FiniteHypothesis | frozenset, pi):
        self.cells = cells
        self.pi = pi

    def __contains__(self, x) -> bool:
        return self.pi(x) in self.cells

    def __repr__(self) -> str:
        return f"PulledBackHypothesis({self.cells!r})"


def segment_learn(learner: SegmentLearner, sample: Iterable) -> FiniteHypothesis | PulledBackHypothesis:
    """``learner`` called on a tuple of labels, the rule its rank path in
    ``verify_guarantee`` is held to: ``quantile_learn`` of the sample, or for
    a map the segment of the sample's labels pulled back through it."""
    if learner.pi is None:
        return quantile_learn(sample, learner.dom)
    return PulledBackHypothesis(quantile_learn(map(learner.pi, sample), learner.dom), learner.pi)


def learner_to_compression(
    learner: Callable[[tuple], Iterable], d: int, dom: IndexedDomain
) -> CompressionScheme:
    """Scheme with m = ceil(3d/2): reconstruct an m-tuple as the union of its
    own points with the learner's output on every d-tuple (with repetition)
    drawn from them.

    For finite-subset learners the union is a finite set, returned as a
    frozenset; tuples over repeated values are taken once.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    m = math.ceil(3 * d / 2)

    def reconstruct(sub: tuple) -> frozenset:
        if len(sub) != m:
            raise ValueError(f"expected an m={m} tuple, got {len(sub)} points")
        out = set(sub)
        values = sorted(set(sub), key=dom.idx)
        for tup in itertools.product(values, repeat=d):
            out.update(learner(tup))
        return frozenset(out)

    return CompressionScheme(m_out=m, reconstruct=reconstruct)


def pure_pair(gamma: float, d: int) -> tuple[DensityMatrix, DensityMatrix]:
    """d copies of |0> and gamma|0> + sqrt(1-gamma^2)|1>, written isometrically
    in their two-dimensional span: the one-slice case of ``_pure_pairs``."""
    return tuple(map(_trusted, _pure_pairs([(gamma, d)])[0]))


def discrimination_sum(povm: Povm, rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Success sum tr(M0 rho0) + tr(M1 rho1) for a two-outcome POVM."""
    if len(povm.elements) != 2:
        raise ValueError("binary discrimination needs a two-outcome POVM")
    if povm.dim != rho0.dim:
        raise ValueError("POVM dimension does not match the states")
    return float(_success_sums(np.array(povm.elements), rho0.mat, rho1.mat))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, *path): PCG64 on
    SeedSequence(entropy=seed, spawn_key=path), the generator that
    ``np.random.default_rng`` makes from that seed sequence, built directly.
    ``emx.substreams`` must yield the generator of (seed, k) for each k."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=path)))


def epsilon_optimal_sets(thetas, hyps, utility, epsilon: Fraction) -> dict[str, tuple]:
    """G_theta(eps) = {h : U(theta,h) >= max_h' U(theta,h') - eps} in Fractions,
    the definition ``feasibility.epsilon_optimal_sets`` cuts in integers."""
    return {t: tuple(h for h, u in zip(hyps, row) if u >= max(row) - epsilon) for t, row in zip(thetas, utility)}
