"""Seeded random inputs for the tests: samples on a (seed, *stream)
substream, and random quantum states and measurements from a caller's
generator, so property batches stay reproducible."""

import numpy as np

from oracles import substream
from plab.emx import FinSupportDist
from plab.quantum import DensityMatrix, Povm, _hermitize


def draw_sample(P: FinSupportDist, d: int, seed: int, stream: tuple[int, ...] = ()) -> tuple:
    """Draw d i.i.d. points from P on the (seed, *stream) substream."""
    if d < 0:
        raise ValueError("sample size must be >= 0")
    return P.sample(substream(seed, *stream), d)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state: normalized G G^dagger with Ginibre G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ket (complex Gaussian, normalized)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_povm(dim: int, outcomes: int, rng: np.random.Generator) -> Povm:
    """Random measurement: Ginibre PSD blocks B_i conjugated by S^{-1/2} with
    S = sum B_i, so the elements sum to the identity exactly (up to float)."""
    if outcomes < 1:
        raise ValueError("need at least one outcome")
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    s = sum(blocks)
    w, v = np.linalg.eigh(_hermitize(s))
    s_inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm([s_inv_half @ b @ s_inv_half for b in blocks])
