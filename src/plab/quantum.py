"""Finite-dimensional quantum environments and d-copy discrimination.

States are density matrices (finite, Hermitian within 1e-12, eigenvalues
>= -1e-10, unit trace within 1e-12); measurements are POVMs (finite PSD
elements within 1e-10 summing to the identity within 1e-10 in operator
norm).  The module provides tensor powers under a dimension cap, the
d-copy pure pair in its two-dimensional span, trace distance, the
closed-form pure state distance 2*sqrt(1-gamma^(2d)), the Helstrom
measurement for binary discrimination together with the trace distance
fixing its success sum 1 + ||rho0 - rho1||_1 / 2 (one eigendecomposition for
both), reliability bounds (delta_min, d_min), bipartite correlation tables,
and a no-signaling checker.

``tensor_power`` is the one place that builds dense d-copy states
rho^(x)d and enforces the dimension cap.  A d-fold power is not checked
again: it carries its factor's check, with the tolerances scaled by d.
``pure_pair`` builds d copies of two pure qubit states with overlap gamma
as 2x2 states: d copies of two pure states span a two-dimensional space, so
the pair costs the same at every d and needs no cap.

Everything is dense complex numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
STATE_EIG_TOL = 1e-10
POVM_TOL = 1e-10
DEFAULT_DIM_CAP = 1 << 10


class ResourceCapError(RuntimeError):
    """Raised when a tensor power would exceed the configured dimension cap."""


def dim_cap() -> int:
    """Current tensor-dimension cap; the PLAB_DIM_CAP env var, a positive
    integer, overrides the default of 2^10 (read at call time)."""
    raw = os.environ.get("PLAB_DIM_CAP")
    if raw and not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"PLAB_DIM_CAP must be a positive integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_DIM_CAP


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _check_psd(m: np.ndarray, what: str, herm_tol: float) -> None:
    """Raise ValueError unless m is finite, Hermitian within herm_tol and has
    no eigenvalue below -1e-10.  Finiteness comes first: every comparison
    with NaN is False, so the later checks would pass a NaN matrix."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    if np.max(np.abs(m - m.conj().T)) > herm_tol:
        raise ValueError(f"{what} is not Hermitian within {herm_tol:g}")
    if np.linalg.eigvalsh(_hermitize(m)).min() < -STATE_EIG_TOL:
        raise ValueError(f"{what} has an eigenvalue below -1e-10")


class DensityMatrix:
    """Validated quantum state."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("state must be a square matrix")
        _check_psd(m, "state", HERM_TOL)
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("state trace is not 1 within 1e-12")
        m.setflags(write=False)
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, ket: Sequence[complex]) -> "DensityMatrix":
        """|psi><psi| for the given ket (normalized here)."""
        v = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector is not a state")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "DensityMatrix":
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        return cls.pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": matrix_to_json(self.mat)}

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        m = matrix_from_json(obj["entries"])
        dim = obj.get("dim", m.shape[0])
        if type(dim) is not int:
            raise TypeError(f"dim must be an integer, not {dim!r}")
        if dim != m.shape[0]:
            raise ValueError("declared dim does not match entries")
        return cls(m)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class Povm:
    """Validated measurement: PSD elements summing to the identity."""

    __slots__ = ("elements", "labels")

    def __init__(self, elements: Sequence, labels: Sequence | None = None):
        mats = [np.array(e, dtype=complex) for e in elements]
        if not mats:
            raise ValueError("POVM needs at least one element")
        dim = mats[0].shape[0]
        for e in mats:
            if e.ndim != 2 or e.shape != (dim, dim):
                raise ValueError("POVM elements must be square matrices of equal dimension")
            _check_psd(e, "POVM element", POVM_TOL)
            e.setflags(write=False)
        gap = np.linalg.eigvalsh(_hermitize(sum(mats) - np.eye(dim)))
        if np.max(np.abs(gap)) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-10")
        self.elements = tuple(mats)
        self.labels = tuple(labels) if labels is not None else tuple(range(len(mats)))
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element required")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "elements": [matrix_to_json(e) for e in self.elements]}

    @classmethod
    def from_json(cls, obj: dict) -> "Povm":
        return cls([matrix_from_json(e) for e in obj["elements"]], obj.get("labels"))

    def __repr__(self) -> str:
        return f"Povm({len(self.elements)} outcomes, dim={self.dim})"


def matrix_to_json(m: np.ndarray) -> list:
    """Complex matrix as row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[re, im] for re, im in zip(*rows)] for rows in zip(m.real.tolist(), m.imag.tolist())]


def matrix_from_json(rows: list) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs; TypeError for an entry
    that is not such a pair."""
    try:
        entries = [[complex(re, im) for re, im in row] for row in rows]
    except ValueError:  # unpacking an entry with other than two parts
        raise TypeError("matrix entries must be [re, im] pairs") from None
    return np.array(entries, dtype=complex)


def tensor_power(rho: DensityMatrix, d: int) -> DensityMatrix:
    """d-fold Kronecker power of a state; trace stays 1.

    Raises ResourceCapError when dim^d exceeds dim_cap().
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    limit = dim_cap()
    if rho.dim**d > limit:
        raise ResourceCapError(f"dimension {rho.dim}^{d} exceeds cap {limit}")
    if d == 1:
        return rho
    out = rho.mat
    for _ in range(d - 1):
        out = np.kron(out, rho.mat)
    out.setflags(write=False)
    power = object.__new__(DensityMatrix)  # skips __init__: rho's check covers the power
    power.mat = out
    return power


def _check_overlap(gamma: float, d: int) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("overlap gamma must lie in [0,1]")
    if d < 1:
        raise ValueError("d must be >= 1")


def pure_pair(gamma: float, d: int) -> tuple[DensityMatrix, DensityMatrix]:
    """d copies of |0> and gamma|0> + sqrt(1-gamma^2)|1>, written isometrically
    in their two-dimensional span.

    The d-copy kets have Gram matrix [[1, g], [g, 1]] with g = gamma^d; its
    triangular factor gives |0> and g|0> + sqrt(1-g^2)|1>.  Every quantity
    invariant under isometries (trace distance, Helstrom success sum) equals
    that of the dense pair from ``tensor_power``; at d = 1 the states are the
    single-copy states themselves.
    """
    _check_overlap(gamma, d)
    g = gamma**d
    return DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([g, math.sqrt(max(0.0, 1.0 - g * g))])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1: sum of absolute eigenvalues of the difference."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitize(rho.mat - sigma.mat)))))


def pure_distance_formula(gamma: float, d: int) -> float:
    """Closed-form ||.||_1 distance of d copies of pure states with overlap
    gamma: 2*sqrt(1 - gamma^(2d))."""
    _check_overlap(gamma, d)
    return 2.0 * math.sqrt(max(0.0, 1.0 - gamma ** (2 * d)))


def helstrom(rho0: DensityMatrix, rho1: DensityMatrix) -> tuple[Povm, float]:
    """Optimal two-outcome measurement for rho0 vs rho1 (d-copy states from
    ``pure_pair`` or ``tensor_power`` for d-copy discrimination) and
    ||rho0 - rho1||_1, both from one eigendecomposition of Delta = rho0 - rho1.

    M_0 projects onto the eigenspace of Delta with eigenvalues > 1e-10;
    M_1 = I - M_0.  Eigenvalues in [-1e-10, 1e-10] join M_1; the achieved
    success sum tr(M0 rho0) + tr(M1 rho1) is the Helstrom bound
    1 + ||rho0 - rho1||_1 / 2 up to tolerance.
    """
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    w, v = np.linalg.eigh(_hermitize(rho0.mat - rho1.mat))
    pos = v[:, w > 1e-10]
    m0 = pos @ pos.conj().T
    m1 = np.eye(rho0.dim, dtype=complex) - m0
    return Povm([m0, m1], labels=(0, 1)), float(np.sum(np.abs(w)))


def discrimination_sum(povm: Povm, rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Success sum tr(M0 rho0) + tr(M1 rho1) for a two-outcome POVM."""
    if len(povm.elements) != 2:
        raise ValueError("binary discrimination needs a two-outcome POVM")
    if povm.dim != rho0.dim:
        raise ValueError("POVM dimension does not match the states")
    return float(np.trace(povm.elements[0] @ rho0.mat).real + np.trace(povm.elements[1] @ rho1.mat).real)


def delta_min(gamma: float, d: int) -> float:
    """Smallest worst-case error of any two-sided test on d copies of pure
    states with overlap gamma: (1 - sqrt(1 - g))/2 with g = gamma^(2d),
    computed as g / (2(1 + sqrt(1 - g))), which does not cancel."""
    _check_overlap(gamma, d)
    g = gamma ** (2 * d)
    return g / (2.0 * (1.0 + math.sqrt(1.0 - g)))


def copies_min(gamma: float, delta: float) -> int:
    """Smallest integer d >= 1 with delta_min(gamma, d) <= delta, that is
    d >= ln(1/(4*delta*(1-delta)))/(-2*ln(gamma)); the copy count below which
    worst-case error delta is impossible.  The ratio, taken from logs so that
    no subnormal delta overflows it, is a first guess, settled by bisection
    on ``delta_min``, so the two never disagree.

    gamma in {0,1} is degenerate (orthogonal states need no copies; identical
    states never separate) and raises.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma in {0,1} is degenerate for a copy count")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    d = max(1, math.ceil((-math.log(4.0) - math.log(delta) - math.log1p(-delta)) / (-2.0 * math.log(gamma))))
    lo, hi = d - 1, d  # bracket: lo = 0 or delta_min(lo) > delta >= delta_min(hi)
    while delta_min(gamma, hi) > delta:
        lo, hi = hi, 2 * hi
    while lo > 0 and delta_min(gamma, lo) <= delta:
        lo, hi = lo // 2, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if delta_min(gamma, mid) <= delta else (mid, hi)
    return hi


class CorrelationTable:
    """Bipartite conditional probabilities p[a][b][x][y] over finite
    alphabets; nonnegative and normalized per setting pair within 1e-12."""

    __slots__ = ("p",)

    def __init__(self, p):
        arr = np.array(p, dtype=float)
        if arr.ndim != 4:
            raise ValueError("table must have axes (a, b, x, y)")
        if not np.isfinite(arr).all():  # NaN passes every comparison below
            raise ValueError("table has a non-finite entry")
        if arr.min() < -1e-12:
            raise ValueError(f"negative probability {arr.min()!r}")
        sums = arr.sum(axis=(0, 1))
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("outcome sums must be 1 within 1e-12 for every setting pair")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        self.p = arr

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.p.shape

    def __repr__(self) -> str:
        return f"CorrelationTable(shape={self.p.shape})"


def quantum_correlation(
    rho_ab: DensityMatrix, alice_povms: Sequence[Povm], bob_povms: Sequence[Povm]
) -> CorrelationTable:
    """Born-rule table p(a,b|x,y) = tr[(M^x_a (x) N^y_b) rho_AB].

    All Alice settings must share an outcome count, likewise Bob; the product
    of local dimensions must match the joint state.
    """
    n_a = {len(p.elements) for p in alice_povms}
    n_b = {len(p.elements) for p in bob_povms}
    if len(n_a) != 1 or len(n_b) != 1:
        raise ValueError("outcome counts must agree across settings")
    da = {p.dim for p in alice_povms}
    db = {p.dim for p in bob_povms}
    if len(da) != 1 or len(db) != 1:
        raise ValueError("local dimensions must agree across settings")
    da, db = da.pop(), db.pop()
    if da * db != rho_ab.dim:
        raise ValueError(f"local dims {da}x{db} do not compose to {rho_ab.dim}")
    nA, nB, nX, nY = n_a.pop(), n_b.pop(), len(alice_povms), len(bob_povms)
    table = np.empty((nA, nB, nX, nY))
    for x, ma in enumerate(alice_povms):
        for y, nb in enumerate(bob_povms):
            for a, ea in enumerate(ma.elements):
                for b, eb in enumerate(nb.elements):
                    table[a, b, x, y] = np.trace(np.kron(ea, eb) @ rho_ab.mat).real
    return CorrelationTable(table)


@dataclass(frozen=True)
class NoSignalingVerdict:
    passed: bool
    max_violation: float


def check_no_signaling(t: CorrelationTable) -> NoSignalingVerdict:
    """Marginals must ignore the far party's setting: sum_a p(a,b|x,y) equal
    across x for each (b,y), and sum_b p(a,b|x,y) across y for each (a,x).
    Passes when the worst deviation found, which it reports, is <= 1e-10."""
    marg_b = t.p.sum(axis=0)  # (B, X, Y); must not depend on x
    dev_b = float((marg_b.max(axis=1) - marg_b.min(axis=1)).max())
    marg_a = t.p.sum(axis=1)  # (A, X, Y); must not depend on y
    dev_a = float((marg_a.max(axis=2) - marg_a.min(axis=2)).max())
    worst = max(dev_a, dev_b)
    return NoSignalingVerdict(passed=worst <= 1e-10, max_violation=worst)
