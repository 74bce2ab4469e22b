"""Finite-dimensional quantum environments and d-copy discrimination.

States are density matrices (finite, Hermitian within HERM_TOL, eigenvalues
>= -STATE_EIG_TOL, unit trace within TRACE_TOL); measurements are POVMs
(finite PSD elements within STATE_EIG_TOL summing to the identity within
POVM_TOL in operator norm).  Each tolerance is a constant below, named once,
and every message about it is spelled from it.  The module provides tensor
powers under the cap DIM_CAP, trace distance, the closed-form pure state
distance 2*sqrt(1-gamma^(2d)), the Helstrom measurement for binary
discrimination together with the trace distance fixing its success sum
1 + ||rho0 - rho1||_1 / 2 (one eigendecomposition for both), the same for
d-copy pure pairs at any d (``pure_pair_helstrom``), reliability bounds
(delta_min, and d_min exactly: ``copies_min``), bipartite correlation
tables, and a no-signaling checker.

``tensor_power`` is the one place that builds dense d-copy states
rho^(x)d and enforces the cap DIM_CAP.  A d-fold power is not checked
again: it carries its factor's check, with the tolerances scaled by d.

The state and POVM checks, the Helstrom eigendecomposition and the success
sums work on stacks (..., n, n): numpy's stacked linalg runs the same LAPACK
routine on every slice, so a stack costs one call per step and gives each
slice the bits of a call on it alone.  ``pure_pair_helstrom`` discriminates
a whole list of (gamma, d) points that way; ``DensityMatrix``, ``Povm`` and
``helstrom`` are the one-slice case.

Everything is dense complex numpy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from . import ResourceCapError
from . import _np as np  # numpy, loaded on first use
from .emx import _json_field, sample_complexity

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
STATE_EIG_TOL = 1e-10
POVM_TOL = 1e-10
HELSTROM_BAND = 1e-10  # eigenvalues of rho0 - rho1 at or below it join M_1
CORR_FLOOR_TOL = 1e-12  # how far below 0 a CorrelationTable entry may lie; it is clamped to 0
CORR_SUM_TOL = 1e-12  # how far from 1 a CorrelationTable's outcome sum may lie
NO_SIGNALING_TOL = 1e-10  # the largest marginal deviation check_no_signaling passes
DIM_CAP = 1 << 10  # largest dimension dim^d that ``tensor_power`` builds


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _checked(m: np.ndarray, povm: bool = False) -> np.ndarray:
    """m frozen once every state of the stack m (..., n, n), or POVM of m (..., k, n, n), passes the rules
    above: one eigvalsh for all matrices, one for all POVM sums.  NaN fails every test, and numpy's float
    warnings are off: entries near the float limit overflow in a sum, to NaN eigenvalues, which refuse m."""
    what, herm_tol = ("POVM element", POVM_TOL) if povm else ("state", HERM_TOL)
    with np.errstate(all="ignore"):
        if not np.isfinite(m).all():
            raise ValueError(f"{what} has a non-finite entry")
        if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= herm_tol:
            raise ValueError(f"{what} is not Hermitian within {herm_tol:g}")
        if not np.linalg.eigvalsh(_hermitize(m)).min() >= -STATE_EIG_TOL:
            raise ValueError(f"{what} has an eigenvalue below -{STATE_EIG_TOL:g}")
        if povm:
            gap = np.linalg.eigvalsh(_hermitize(m.sum(axis=-3) - np.eye(m.shape[-1])))
            if not np.max(np.abs(gap)) <= POVM_TOL:
                raise ValueError(f"POVM elements do not sum to the identity within {POVM_TOL:g}")
        else:
            tr = np.trace(m, axis1=-2, axis2=-1)
            if not (np.abs(tr.real - 1.0).max() <= TRACE_TOL and np.abs(tr.imag).max() <= TRACE_TOL):
                raise ValueError(f"state trace is not 1 within {TRACE_TOL:g}")
    m.setflags(write=False)
    return m


def _trusted(mat: np.ndarray) -> "DensityMatrix":
    rho = object.__new__(DensityMatrix)  # skips __init__: the caller checked mat
    rho.mat = mat
    return rho


class DensityMatrix:
    """Validated quantum state."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("state must be a square matrix")
        self.mat = _checked(m)

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
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        m = matrix_from_json(_json_field(obj, "entries"))
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
        mats = [np.asarray(e, dtype=complex) for e in elements]
        if not mats:
            raise ValueError("POVM needs at least one element")
        if any(e.ndim != 2 or e.shape != mats[0].shape or e.shape[0] != e.shape[1] for e in mats):
            raise ValueError("POVM elements must be square matrices of equal dimension")
        self.elements = tuple(_checked(np.array(mats), povm=True))
        self.labels = tuple(labels) if labels is not None else tuple(range(len(mats)))
        if len(self.labels) != len(self.elements):
            raise ValueError("one label per element required")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __repr__(self) -> str:
        return f"Povm({len(self.elements)} outcomes, dim={self.dim})"


def matrix_from_json(rows: list) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs; TypeError for an entry
    that is not such a pair, a boolean part included, and for rows of unequal
    lengths."""
    try:
        entries = [[complex(re, im) for re, im in row] for row in rows]
    except ValueError:  # unpacking an entry with other than two parts
        raise TypeError("matrix entries must be [re, im] pairs") from None
    if any(type(part) is bool for row in rows for pair in row for part in pair):  # complex(True, False) is 1
        raise TypeError("matrix entries must be [re, im] pairs")
    if len(set(map(len, entries))) > 1:
        raise TypeError("matrix rows must have equal lengths")
    return np.array(entries, dtype=complex)


def tensor_power(rho: DensityMatrix, d: int) -> DensityMatrix:
    """d-fold Kronecker power of a state; trace stays 1.

    Raises ResourceCapError when dim^d exceeds DIM_CAP.  dim^d is never formed:
    for dim >= 2 the exponent DIM_CAP.bit_length() already passes the cap.  A
    1x1 state is [[1]] within the check's tolerance and is its own power.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if rho.dim ** min(d, DIM_CAP.bit_length()) > DIM_CAP:
        raise ResourceCapError(f"dimension {rho.dim}^{d} exceeds cap {DIM_CAP}")
    if d == 1 or rho.dim == 1:
        return rho
    out, m = rho.mat, rho.mat[None, :, None, :]
    for _ in range(d - 1):  # np.kron(out, rho.mat) entry for entry, one broadcast product
        out = (out[:, None, :, None] * m).reshape(len(out) * rho.dim, -1)
    out.setflags(write=False)
    return _trusted(out)  # rho's check covers the power


def _check_overlap(gamma: float, d: int) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("overlap gamma must lie in [0,1]")
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > sys.float_info.max / 2:  # gamma^d and gamma^(2d) are float powers: 2d must convert to a float
        raise ValueError(f"d must be at most {sys.float_info.max / 2!r}")


def _pure_pairs(points: Sequence[tuple[float, int]]) -> np.ndarray:
    """d copies of |0> and gamma|0> + sqrt(1-gamma^2)|1>, written isometrically in their
    two-dimensional span, for every (gamma, d) of points: one checked stack (P, 2, 2, 2).

    The d-copy kets have Gram matrix [[1, g], [g, 1]] with g = gamma^d; its triangular
    factor gives |0> and g|0> + sqrt((1-g)(1+g))|1>, with 1 - g as 1 - gamma at d = 1
    (exact for gamma >= 1/2) and as -expm1(d ln gamma) beyond; neither cancels as gamma
    nears 1, so the kets are unit to rounding.  Every quantity invariant under isometries
    (trace distance, Helstrom success sum) equals that of the dense pair from
    ``tensor_power``, so a pair costs the same at every d and needs no cap; at d = 1 the
    states are the single-copy states, to rounding.
    """
    for gamma, d in points:
        _check_overlap(gamma, d)
    gaps = [1.0 - x if d == 1 or not x else -math.expm1(d * math.log(x)) for x, d in points]  # 1 - gamma^d
    kets = np.array([[[1, 0], [x**d, math.sqrt(max(0.0, gap * (1.0 + x**d)))]]
                     for (x, d), gap in zip(points, gaps)], complex)
    return _checked(kets[..., :, None] * kets[..., None, :].conj())


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1: sum of absolute eigenvalues of the difference."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(np.sum(np.abs(np.linalg.eigvalsh(_hermitize(rho.mat - sigma.mat)))))


def pure_distance_formula(gamma: float, d: int) -> float:
    """Closed-form ||.||_1 distance of d copies of pure states with overlap
    gamma: 2*sqrt(1 - gamma^(2d)), with 1 - gamma^(2d) computed as
    -expm1(2d ln gamma), which does not cancel as gamma nears 1."""
    _check_overlap(gamma, d)
    return 2.0 * math.sqrt(max(0.0, -math.expm1(2 * d * (math.log(gamma) if gamma else -math.inf))))


def _helstrom(r0: np.ndarray, r1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked Helstrom POVMs (..., 2, n, n) and ||r0 - r1||_1 for stacks of states, from one eigh."""
    w, v = np.linalg.eigh(_hermitize(r0 - r1))
    pos = v * (w > HELSTROM_BAND)[..., None, :]  # the eigenvectors of the positive part, the others zeroed
    m0 = pos @ pos.conj().swapaxes(-1, -2)
    return np.stack([m0, np.eye(r0.shape[-1]) - m0], axis=-3), np.abs(w).sum(axis=-1)


def _success_sums(m: np.ndarray, r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """tr(M0 r0) + tr(M1 r1) along stacks m (..., 2, n, n) and r0, r1 (..., n, n)."""
    return np.trace(m @ np.stack([r0, r1], axis=-3), axis1=-2, axis2=-1).real.sum(axis=-1)


def helstrom(rho0: DensityMatrix, rho1: DensityMatrix) -> tuple[Povm, float]:
    """Optimal two-outcome measurement for rho0 vs rho1 (d-copy states from
    ``tensor_power`` for d-copy discrimination) and
    ||rho0 - rho1||_1, both from one eigendecomposition of Delta = rho0 - rho1.

    M_0 projects onto the eigenspace of Delta with eigenvalues >
    HELSTROM_BAND; M_1 = I - M_0.  Eigenvalues in [-HELSTROM_BAND,
    HELSTROM_BAND] join M_1; the achieved success sum tr(M0 rho0) +
    tr(M1 rho1) is the Helstrom bound 1 + ||rho0 - rho1||_1 / 2 up to
    tolerance.
    """
    if rho0.dim != rho1.dim:
        raise ValueError("dimension mismatch")
    m, distance = _helstrom(rho0.mat, rho1.mat)
    return Povm(m, labels=(0, 1)), float(distance)


def pure_pair_helstrom(points: Sequence[tuple[float, int]]) -> tuple[np.ndarray, np.ndarray]:
    """||rho0 - rho1||_1 and the success sum of ``helstrom`` on the pair of ``_pure_pairs`` for every (gamma, d)
    of points: the same values, from one state check, one eigh and one POVM check of the stack."""
    r = _pure_pairs(points)
    m, distance = _helstrom(r[:, 0], r[:, 1])
    return distance, _success_sums(_checked(m, povm=True), r[:, 0], r[:, 1])


def delta_min(gamma: float, d: int) -> float:
    """Smallest worst-case error of any two-sided test on d copies of pure
    states with overlap gamma: (1 - sqrt(1 - g))/2 with g = gamma^(2d),
    computed as g / (2(1 + sqrt(1 - g))), which does not cancel."""
    _check_overlap(gamma, d)
    g = gamma ** (2 * d)
    return g / (2.0 * (1.0 + math.sqrt(1.0 - g)))


def copies_min(gamma: float, delta: float) -> int:
    """Smallest integer d >= 1 with delta_min(gamma, d) <= delta (Helstrom): 1 at gamma = 0 (delta_min is 0)
    or delta >= 1/2 (delta_min(gamma, 1) <= 1/2).  Otherwise gamma^(2d) <= 4*delta*(1-delta), so
    ``emx.sample_complexity(1 - gamma^2, 4*delta*(1-delta))`` on the dyadic rationals the floats are.  At a
    near-tie delta_min(gamma, d_min) may print one rounding above delta; past ln(4*delta*(1-delta)) /
    ln(gamma^2) = 2^45 the tie cap raises ValueError.  ValueError too for delta outside [0, 1), gamma
    outside [0, 1], and where no d reaches delta: gamma = 1 with delta < 1/2, delta = 0 with gamma > 0.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    _check_overlap(gamma, 1)
    if gamma == 0.0 or delta >= 0.5:
        return 1
    if gamma == 1.0 or delta == 0.0:
        raise ValueError(f"no copy count reaches delta = {delta!r} at gamma = {gamma!r}")
    g, dlt = Fraction(gamma), Fraction(delta)
    return sample_complexity(1 - g * g, 4 * dlt * (1 - dlt))


class CorrelationTable:
    """Bipartite conditional probabilities p[a][b][x][y] over finite
    alphabets; nonnegative within CORR_FLOOR_TOL (then clamped to 0) and
    normalized per setting pair within CORR_SUM_TOL."""

    __slots__ = ("p",)

    def __init__(self, p):
        arr = np.array(p, dtype=float)
        if arr.ndim != 4:
            raise ValueError("table must have axes (a, b, x, y)")
        if not np.isfinite(arr).all():  # NaN passes every comparison below
            raise ValueError("table has a non-finite entry")
        if arr.min() < -CORR_FLOOR_TOL:
            raise ValueError(f"negative probability {float(arr.min())!r}")  # not numpy 2's np.float64(...)
        sums = arr.sum(axis=(0, 1))
        if np.max(np.abs(sums - 1.0)) > CORR_SUM_TOL:
            raise ValueError(f"outcome sums must be 1 within {CORR_SUM_TOL:g} for every setting pair")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        self.p = arr

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
    A, B = (np.array([p.elements for p in povms]) for povms in (alice_povms, bob_povms))
    rho = rho_ab.mat.reshape(da, db, da, db)
    return CorrelationTable(np.einsum("xaij,ybkl,jlik->abxy", A, B, rho).real)


NoSignalingVerdict = namedtuple("NoSignalingVerdict", "passed max_violation")


def check_no_signaling(t: CorrelationTable) -> NoSignalingVerdict:
    """Marginals must ignore the far party's setting: sum_a p(a,b|x,y) equal
    across x for each (b,y), and sum_b p(a,b|x,y) across y for each (a,x).
    Passes when the worst deviation found, which it reports, is <= NO_SIGNALING_TOL."""
    marg_b = t.p.sum(axis=0)  # (B, X, Y); must not depend on x
    dev_b = float((marg_b.max(axis=1) - marg_b.min(axis=1)).max())
    marg_a = t.p.sum(axis=1)  # (A, X, Y); must not depend on y
    dev_a = float((marg_a.max(axis=2) - marg_a.min(axis=2)).max())
    worst = max(dev_a, dev_b)
    return NoSignalingVerdict(passed=worst <= NO_SIGNALING_TOL, max_violation=worst)
