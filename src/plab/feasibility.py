"""Feasibility deciders for behavior constraints.

Linear side: rational polytopes over kernel coordinates (simplex rows,
no-signaling equalities) plus the per-environment performance inequalities
sum_{h in G_theta(eps)} q[theta,h] >= 1-delta, decided exactly by phase-1
simplex — a Feasible verdict carries a kernel witness satisfying every row
with zero tolerance.

Semidefinite side: the PL value p* = max over POVMs {M_h} on d copies of
min_theta sum_{h in G_theta} tr(M_h rho_theta^(x)d) is bracketed as
lo <= p* <= hi.  lo is the worst-environment success of a POVM that passed
``Povm`` validation.  hi = tr Z for weights y on the simplex and a Hermitian
Z shifted by eigvalsh until Z >= A_h(y) = sum_{theta: h in G_theta}
y_theta rho_theta^(x)d for every h; weak duality makes it an upper bound.
"feasible" iff lo >= 1-delta, "infeasible" iff hi < 1-delta, "undetermined"
only when the step budget runs out with 1-delta inside [lo, hi].
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import simplex
from .emx import accuracy, as_fraction
from .quantum import DensityMatrix, Povm, _hermitize, tensor_power
from .tasks import TaskSpec


# Polytope files repeat a few coefficient strings ("0", "1", "-1") thousands
# of times, so each distinct string goes through as_fraction once.
_parse_text = functools.lru_cache(maxsize=1024)(as_fraction)


def _exact(value) -> Fraction:
    """``as_fraction(value)``, with strings parsed through the cache."""
    if type(value) is Fraction:
        return value
    return _parse_text(value) if type(value) is str else as_fraction(value)


def _json_list(obj: dict, key: str) -> list:
    """obj[key], which a polytope file must give as a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, not {type(value).__name__}")
    return value


@dataclass(frozen=True, init=False)
class LinearConstraint:
    """terms . x  <relation>  rhs over ``arity`` variables, with exact rational
    data.  ``terms`` holds only the nonzero (index, coefficient) pairs, in
    index order; ``coeffs`` is the dense row."""

    terms: tuple[tuple[int, Fraction], ...]
    arity: int
    relation: str
    rhs: Fraction

    def __init__(self, coeffs: Sequence, relation: str, rhs):
        """The row with dense coefficients ``coeffs``."""
        self._set(enumerate(coeffs), len(coeffs), relation, rhs)

    @classmethod
    def from_terms(cls, arity: int, terms, relation: str, rhs) -> "LinearConstraint":
        """The row whose coefficient at each index of (index, coefficient)
        ``terms`` is given, and zero elsewhere."""
        row = cls.__new__(cls)
        row._set(terms, arity, relation, rhs)
        return row

    def _set(self, terms, arity: int, relation: str, rhs) -> None:
        if relation not in simplex.RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        exact = {}
        for j, c in terms:
            if not 0 <= j < arity or j in exact:
                raise ValueError(f"term index {j} repeated or outside 0..{arity - 1}")
            exact[j] = _exact(c)
        object.__setattr__(self, "terms", tuple((j, exact[j]) for j in sorted(exact) if exact[j]))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", _exact(rhs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        dense = [Fraction(0)] * self.arity
        for j, c in self.terms:
            dense[j] = c
        return tuple(dense)

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = sum(c * x[j] for j, c in self.terms)
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs

    def to_json(self) -> dict:
        return {
            "coeffs": [str(c) for c in self.coeffs],
            "relation": self.relation,
            "rhs": str(self.rhs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearConstraint":
        return cls(_json_list(obj, "coeffs"), obj["relation"], obj["rhs"])


@dataclass(frozen=True)
class PolytopeSpec:
    """Named, ordered variables plus rational constraint rows."""

    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for c in self.constraints:
            if c.arity != len(self.variables):
                raise ValueError("constraint arity does not match variable count")

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "constraints": [c.to_json() for c in self.constraints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolytopeSpec":
        variables = _json_list(obj, "variables")
        if not all(isinstance(v, str) for v in variables):
            raise TypeError("variable names must be strings")
        return cls(
            tuple(variables),
            tuple(LinearConstraint.from_json(c) for c in _json_list(obj, "constraints")),
        )


def epsilon_optimal_sets(task: TaskSpec, epsilon) -> dict[str, tuple[str, ...]]:
    """G_theta(eps) = {h : U(theta,h) >= opt(theta) - eps}; the maximizer
    always qualifies, so no set is empty."""
    eps = as_fraction(epsilon)
    if not 0 < eps:
        raise ValueError("epsilon must be positive")
    out = {}
    for i, theta in enumerate(task.thetas):
        cut = task.opt(i) - eps
        out[theta] = tuple(h for h, u in zip(task.hyps, task.utility[i]) if u >= cut)
    return out


def kernel_variables(task: TaskSpec) -> tuple[str, ...]:
    """Canonical coordinate order for kernels: environment-major."""
    return tuple(f"q[{h}|{t}]" for t in task.thetas for h in task.hyps)


def _kernel_rows(blocks: int, k: int) -> list[LinearConstraint]:
    """Rows making blocks*k block-major coordinates a kernel: every entry
    >= 0, then each block of k consecutive entries summing to exactly 1."""
    n = blocks * k
    zero, one = Fraction(0), Fraction(1)
    rows = [LinearConstraint.from_terms(n, ((j, one),), ">=", zero) for j in range(n)]
    for i in range(blocks):
        rows.append(LinearConstraint.from_terms(n, ((j, one) for j in range(i * k, (i + 1) * k)), "=", one))
    return rows


def kernel_polytope(task: TaskSpec) -> PolytopeSpec:
    """Simplex constraints making the coordinates a kernel: every entry
    nonnegative, every environment row summing to exactly 1."""
    rows = _kernel_rows(len(task.thetas), len(task.hyps))
    return PolytopeSpec(kernel_variables(task), tuple(rows))


def build_pl_constraints(task: TaskSpec, epsilon, delta) -> tuple[LinearConstraint, ...]:
    """One inequality per environment over the kernel coordinates:
    sum_{h in G_theta(eps)} q[theta,h] >= 1-delta."""
    eps, dlt = accuracy(epsilon, delta)
    good = epsilon_optimal_sets(task, eps)
    k = len(task.hyps)
    n, one = len(task.thetas) * k, Fraction(1)
    rows = []
    for i, theta in enumerate(task.thetas):
        members = set(good[theta])
        terms = ((i * k + j, one) for j, h in enumerate(task.hyps) if h in members)
        rows.append(LinearConstraint.from_terms(n, terms, ">=", 1 - dlt))
    return tuple(rows)


@dataclass(frozen=True)
class LpResult:
    feasible: bool
    witness: dict[str, Fraction] | None
    pivots: int  # simplex pivots taken to reach the verdict


def lp_feasible(poly: PolytopeSpec, pl: Sequence[LinearConstraint] = ()) -> LpResult:
    """Exact feasibility of the polytope plus performance rows.

    The pl rows must be expressed over poly.variables in the same order
    (build_pl_constraints and kernel_polytope agree by construction).
    """
    merged = list(poly.constraints) + list(pl)
    point, pivots = simplex.feasible_point(len(poly.variables), merged)
    if point is None:
        return LpResult(feasible=False, witness=None, pivots=pivots)
    bad = [c for c in merged if not c.satisfied_by(point)]
    if bad:  # would indicate a simplex bug; never trust an unchecked witness
        raise AssertionError(f"witness violates {len(bad)} constraints")
    return LpResult(feasible=True, witness=dict(zip(poly.variables, point)), pivots=pivots)


def no_signaling_polytope(n_a: int, n_b: int, n_x: int, n_y: int) -> PolytopeSpec:
    """Polytope of no-signaling tables p(a,b|x,y) over finite alphabets:
    nonnegativity, per-setting normalization, and marginal equalities saying
    each party's marginal ignores the other party's setting.

    Variable order is setting-major: (x, y) outer, (a, b) inner.
    """
    if min(n_a, n_b, n_x, n_y) < 1:
        raise ValueError("alphabet sizes must be >= 1")
    names = tuple(
        f"p[{a},{b}|{x},{y}]"
        for x in range(n_x)
        for y in range(n_y)
        for a in range(n_a)
        for b in range(n_b)
    )

    def var(a, b, x, y):  # setting pair (x, y) is block x*n_y + y
        return ((x * n_y + y) * n_a + a) * n_b + b

    n, zero, one = len(names), Fraction(0), Fraction(1)
    rows = _kernel_rows(n_x * n_y, n_a * n_b)
    # Bob's marginal must not see x: sum_a p(a,b|x,y) = sum_a p(a,b|0,y)
    for b in range(n_b):
        for y in range(n_y):
            for x in range(1, n_x):
                terms = [(var(a, b, 0, y), one) for a in range(n_a)] + [(var(a, b, x, y), -one) for a in range(n_a)]
                rows.append(LinearConstraint.from_terms(n, terms, "=", zero))
    # Alice's marginal must not see y
    for a in range(n_a):
        for x in range(n_x):
            for y in range(1, n_y):
                terms = [(var(a, b, x, 0), one) for b in range(n_b)] + [(var(a, b, x, y), -one) for b in range(n_b)]
                rows.append(LinearConstraint.from_terms(n, terms, "=", zero))
    return PolytopeSpec(names, tuple(rows))


def affine_dimension(poly: PolytopeSpec) -> int:
    """Dimension of the affine hull cut out by the equality rows (variable
    count minus exact rank), assuming the system is consistent."""
    eq_rows = [list(c.coeffs) for c in poly.constraints if c.relation == "="]
    n = len(poly.variables)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(eq_rows)) if eq_rows[r][col] != 0), None)
        if piv is None:
            continue
        eq_rows[rank], eq_rows[piv] = eq_rows[piv], eq_rows[rank]
        simplex._eliminate(eq_rows, rank, col)
        rank += 1
    return n - rank


# Step budget: _OUTER_STEPS weight updates, each after _INNER_STEPS POVM
# steps.  Eigenvalues of R below _SUPPORT_TOL times its largest are its
# kernel; _EIG_MARGIN keeps eigvalsh rounding from pushing hi below p*.
_OUTER_STEPS = 400
_INNER_STEPS = 30
_SUPPORT_TOL = 1e-12
_EIG_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)  # dual is an array, so compare fields, not results
class SdpResult:
    """Verdict with its bracket lo <= p* <= hi.  ``witness`` is the validated
    POVM achieving lo (on "feasible" only); ``weights`` y and ``dual`` Z, with
    Z >= A_h(y) for every h and tr Z = hi, certify hi; ``sweeps`` counts the
    fixed-point steps taken."""

    verdict: str  # "feasible" | "infeasible" | "undetermined"
    witness: Povm | None = None
    certificate: str | None = None
    lo: float = 0.0
    hi: float = 1.0
    weights: tuple[float, ...] | None = None
    dual: np.ndarray | None = None
    sweeps: int = 0


def _jrf_step(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One Jezek-Rehacek-Fiurasek step M_h <- R^-1/2 A_h M_h A_h R^-1/2 with
    R = sum_h A_h M_h A_h, inverted on its support; the projector onto the
    kernel of R is spread evenly over the elements so they sum to I."""
    b = a @ m @ a
    w, v = np.linalg.eigh(_hermitize(b.sum(axis=0)))
    keep = w > _SUPPORT_TOL * w[-1]
    vs, vk = v[:, keep], v[:, ~keep]
    r = (vs / np.sqrt(w[keep])) @ vs.conj().T
    return _hermitize(r @ b @ r + (vk @ vk.conj().T) / len(m))


def sdp_feasible(states: Sequence[DensityMatrix], task: TaskSpec, epsilon, delta, d: int = 1) -> SdpResult:
    """Decide whether some POVM on d copies meets every environment's row
    by the bracket [lo, hi] of the module docstring, checked after every step.
    The d-copy states come from ``tensor_power``, which enforces the cap.

    The weights y start uniform.  Warm-started Jezek-Rehacek-Fiurasek steps
    solve max sum_h tr(M_h A_h(y)); after outer step t, y_i is scaled by
    exp(-s_i/sqrt(t)) for the successes s_i and renormalized.  Every iterate
    M and the running average of the iterates is a candidate for lo, and for
    hi through its Yuen-Kennedy-Lax operator Y = herm(sum_h A_h M_h): with
    lambda = max(0, max_h lambda_max(A_h - Y)) from eigvalsh (plus a rounding
    margin), Z = Y + lambda*I >= A_h(y) for every h, so p* <= tr Z.
    """
    if len(states) != len(task.thetas):
        raise ValueError("one state per environment required")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError("states must share a dimension")
    eps, dlt = accuracy(epsilon, delta)
    good = epsilon_optimal_sets(task, eps)
    member = np.array([[h in good[t] for h in task.hyps] for t in task.thetas], dtype=float)
    rhos = np.array([tensor_power(s, d).mat for s in states])
    dim = rhos.shape[1]
    n_h = len(task.hyps)
    target = 1.0 - float(dlt)

    common = np.flatnonzero(member.all(axis=0))
    if common.size:
        # one hypothesis is eps-optimal everywhere: the all-mass POVM on it
        # satisfies every row with probability 1
        blocks = [np.zeros((dim, dim), dtype=complex) for _ in range(n_h)]
        blocks[common[0]] = np.eye(dim, dtype=complex)
        return SdpResult(verdict="feasible", witness=Povm(blocks, labels=task.hyps),
                         certificate="common-optimum", lo=1.0)

    def successes(m):  # s_i = sum_{h in G_i} tr(M_h rho_i)
        return (np.einsum("hab,iba->ih", m, rhos).real * member).sum(axis=1)

    y = np.full(len(rhos), 1.0 / len(rhos))
    m = np.repeat(np.eye(dim, dtype=complex)[None] / n_h, n_h, axis=0)
    avg = np.zeros_like(m)
    lo, hi, witness, cert, steps = 0.0, np.inf, None, (None, None), 0
    for t in range(1, _OUTER_STEPS + 1):
        a = np.einsum("ih,iab->hab", y[:, None] * member, rhos)
        for _ in range(_INNER_STEPS):
            m = _jrf_step(a, m)
            steps += 1
            avg += (m - avg) / steps
            for cand in (m, avg):
                worst = float(successes(cand).min())
                if worst > lo:
                    with contextlib.suppress(ValueError):  # an invalid candidate never sets lo
                        witness, lo = Povm(cand, labels=task.hyps), worst
                opt = _hermitize((a @ cand).sum(axis=0))
                lam = max(0.0, float(np.linalg.eigvalsh(a - opt)[:, -1].max())) + _EIG_MARGIN
                z = opt + lam * np.eye(dim)
                if np.trace(z).real < hi:
                    hi, cert = float(np.trace(z).real), (tuple(float(v) for v in y), z)
                if lo >= target:
                    return SdpResult("feasible", witness, "validated-povm", lo, hi, *cert, steps)
                if hi < target:
                    return SdpResult("infeasible", None, "weak-duality", lo, hi, *cert, steps)
        y = y * np.exp(-successes(m) / np.sqrt(t))
        y /= y.sum()
    return SdpResult("undetermined", None, None, lo, hi, *cert, steps)
