"""Feasibility deciders for behavior constraints.

Linear side: rational polytopes over kernel coordinates (simplex rows,
no-signaling equalities) plus the per-environment performance inequalities
sum_{h in G_theta(eps)} q[theta,h] >= 1-delta, decided exactly by phase-1
simplex — a Feasible verdict carries a kernel witness satisfying every row
with zero tolerance.

Semidefinite side: search for a POVM {M_h} with M_h >= 0, sum M_h = I and
sum_{h in G_theta} tr(M_h rho_theta^(x)d) >= 1-delta by cyclic projections
(PSD eigenvalue clipping, affine completeness correction, halfspace steps).
Feasible requires an explicitly verified witness (all constraints within
1e-6 after exact renormalization); Infeasible needs a closed-form
certificate — the binary discrimination bound delta < (1 - ||Delta||_1/2)/2 —
or residual stagnation; anything else is an honest Undetermined with the
final residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import simplex
from .emx import as_fraction
from .quantum import DensityMatrix, Povm, _hermitize, tensor_power
from .tasks import Kernel, TaskSpec


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x  <relation>  rhs, with exact rational data."""

    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in simplex.RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", as_fraction(self.rhs))

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = sum(c * v for c, v in zip(self.coeffs, x) if c)
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
        return cls(tuple(obj["coeffs"]), obj["relation"], obj["rhs"])


@dataclass(frozen=True)
class PolytopeSpec:
    """Named, ordered variables plus rational constraint rows."""

    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for c in self.constraints:
            if len(c.coeffs) != len(self.variables):
                raise ValueError("constraint arity does not match variable count")

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "constraints": [c.to_json() for c in self.constraints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolytopeSpec":
        return cls(
            tuple(obj["variables"]),
            tuple(LinearConstraint.from_json(c) for c in obj["constraints"]),
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


def kernel_polytope(task: TaskSpec) -> PolytopeSpec:
    """Simplex constraints making the coordinates a kernel: every entry
    nonnegative, every environment row summing to exactly 1."""
    names = kernel_variables(task)
    n = len(names)
    k = len(task.hyps)
    rows: list[LinearConstraint] = []
    zero, one = Fraction(0), Fraction(1)
    for j in range(n):
        coeffs = [zero] * n
        coeffs[j] = one
        rows.append(LinearConstraint(tuple(coeffs), ">=", zero))
    for i in range(len(task.thetas)):
        coeffs = [zero] * n
        for j in range(i * k, (i + 1) * k):
            coeffs[j] = one
        rows.append(LinearConstraint(tuple(coeffs), "=", one))
    return PolytopeSpec(names, tuple(rows))


def build_pl_constraints(task: TaskSpec, epsilon, delta) -> tuple[LinearConstraint, ...]:
    """One inequality per environment over the kernel coordinates:
    sum_{h in G_theta(eps)} q[theta,h] >= 1-delta."""
    eps = as_fraction(epsilon)
    dlt = as_fraction(delta)
    if not (0 < eps < 1) or not (0 <= dlt < 1):
        raise ValueError("need epsilon in (0,1) and delta in [0,1)")
    good = epsilon_optimal_sets(task, eps)
    names = kernel_variables(task)
    n, k = len(names), len(task.hyps)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i, theta in enumerate(task.thetas):
        coeffs = [zero] * n
        members = set(good[theta])
        for j, h in enumerate(task.hyps):
            if h in members:
                coeffs[i * k + j] = one
        rows.append(LinearConstraint(tuple(coeffs), ">=", 1 - dlt))
    return tuple(rows)


@dataclass(frozen=True)
class LpResult:
    feasible: bool
    witness: dict[str, Fraction] | None
    pivots: int = 0  # simplex pivots taken to reach the verdict

    def witness_kernel(self, task: TaskSpec) -> Kernel:
        """Reshape a witness over kernel_variables(task) into a Kernel."""
        if self.witness is None:
            raise ValueError("no witness on an infeasible result")
        rows = [
            [self.witness[f"q[{h}|{t}]"] for h in task.hyps] for t in task.thetas
        ]
        return Kernel(rows, thetas=task.thetas, hyps=task.hyps)


def lp_feasible(poly: PolytopeSpec, pl: Sequence[LinearConstraint] = ()) -> LpResult:
    """Exact feasibility of the polytope plus performance rows.

    The pl rows must be expressed over poly.variables in the same order
    (build_pl_constraints and kernel_polytope agree by construction).
    """
    merged = list(poly.constraints) + list(pl)
    for c in merged:
        if len(c.coeffs) != len(poly.variables):
            raise ValueError("constraint arity does not match variable count")
    before = simplex._pivots_done()
    point = simplex.feasible_point(
        len(poly.variables), [(c.coeffs, c.relation, c.rhs) for c in merged]
    )
    pivots = simplex._pivots_done() - before
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
    index = {name: j for j, name in enumerate(names)}

    def var(a, b, x, y):
        return index[f"p[{a},{b}|{x},{y}]"]

    n = len(names)
    zero, one = Fraction(0), Fraction(1)
    rows: list[LinearConstraint] = []
    for j in range(n):
        coeffs = [zero] * n
        coeffs[j] = one
        rows.append(LinearConstraint(tuple(coeffs), ">=", zero))
    for x in range(n_x):
        for y in range(n_y):
            coeffs = [zero] * n
            for a in range(n_a):
                for b in range(n_b):
                    coeffs[var(a, b, x, y)] = one
            rows.append(LinearConstraint(tuple(coeffs), "=", one))
    # Bob's marginal must not see x: sum_a p(a,b|x,y) = sum_a p(a,b|0,y)
    for b in range(n_b):
        for y in range(n_y):
            for x in range(1, n_x):
                coeffs = [zero] * n
                for a in range(n_a):
                    coeffs[var(a, b, 0, y)] += one
                    coeffs[var(a, b, x, y)] -= one
                rows.append(LinearConstraint(tuple(coeffs), "=", zero))
    # Alice's marginal must not see y
    for a in range(n_a):
        for x in range(n_x):
            for y in range(1, n_y):
                coeffs = [zero] * n
                for b in range(n_b):
                    coeffs[var(a, b, x, 0)] += one
                    coeffs[var(a, b, x, y)] -= one
                rows.append(LinearConstraint(tuple(coeffs), "=", zero))
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


@dataclass(frozen=True)
class SdpResult:
    verdict: str  # "feasible" | "infeasible" | "undetermined"
    witness: Povm | None = None
    residual: float | None = None
    certificate: str | None = None
    sweeps: int = 0


def _psd_clip(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_hermitize(m))
    if w[0] >= 0:
        return _hermitize(m)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _renormalize(blocks: list[np.ndarray]) -> list[np.ndarray] | None:
    """PSD-clip, then conjugate by T^{-1/2} with T = sum, making the family
    sum to the identity while staying PSD.  None if T is near-singular."""
    clipped = [_psd_clip(b) for b in blocks]
    total = _hermitize(sum(clipped))
    w, v = np.linalg.eigh(total)
    if w.min() <= 1e-12:
        return None
    inv_half = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [_hermitize(inv_half @ b @ inv_half) for b in clipped]


def sdp_feasible(
    states: Sequence[DensityMatrix],
    task: TaskSpec,
    epsilon,
    delta,
    d: int = 1,
    cap: int | None = None,
    residual_tol: float = 1e-7,
    witness_tol: float = 1e-6,
    max_sweeps: int = 20000,
    check_every: int = 25,
    stall_window: int = 400,
    stall_tol: float = 1e-12,
) -> SdpResult:
    """Decide whether some POVM meets every environment's performance row.

    Searches by cyclic projection from the uniform POVM M_h = I/|H|.  Every
    ``check_every`` sweeps (and whenever the residual drops below
    ``residual_tol``) the current point is renormalized into an exact POVM and
    re-checked against all constraints within ``witness_tol``; only such a
    verified witness yields "feasible".  "infeasible" requires the binary
    closed-form certificate (two environments with disjoint good sets and
    delta below the discrimination bound) or a residual that stagnates well
    above tolerance.  Otherwise "undetermined" with the final residual.
    """
    if len(states) != len(task.thetas):
        raise ValueError("one state per environment required")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError("states must share a dimension")
    delta_f = float(as_fraction(delta))
    if not 0.0 <= delta_f < 1.0:
        raise ValueError("delta must lie in [0,1)")
    good = epsilon_optimal_sets(task, epsilon)
    good_idx = [
        [j for j, h in enumerate(task.hyps) if h in set(good[t])] for t in task.thetas
    ]
    rhos = [tensor_power(s, d, cap).mat for s in states]
    dim = rhos[0].shape[0]
    n_h = len(task.hyps)
    target = 1.0 - delta_f

    common = set(range(n_h))
    for idx in good_idx:
        common &= set(idx)
    if common:
        # one hypothesis is eps-optimal everywhere: the all-mass POVM on it
        # satisfies every row with probability 1
        h_star = min(common)
        blocks = [np.zeros((dim, dim), dtype=complex) for _ in range(n_h)]
        blocks[h_star] = np.eye(dim, dtype=complex)
        return SdpResult(
            verdict="feasible",
            witness=Povm(blocks, labels=task.hyps),
            residual=0.0,
            certificate="common-optimum",
        )

    if len(task.thetas) == 2 and not (set(good_idx[0]) & set(good_idx[1])):
        tnorm = float(np.sum(np.abs(np.linalg.eigvalsh(_hermitize(rhos[0] - rhos[1])))))
        bound = (1.0 - tnorm / 2.0) / 2.0
        if delta_f < bound - 1e-9:
            # success sums obey p0 + p1 <= 1 + ||Delta||_1/2, so two-sided
            # error below the bound is impossible for any POVM
            return SdpResult(
                verdict="infeasible",
                residual=None,
                certificate="binary-discrimination-bound",
            )

    norms = [float(np.trace(r @ r).real) for r in rhos]
    blocks = [np.eye(dim, dtype=complex) / n_h for _ in range(n_h)]
    eye = np.eye(dim, dtype=complex)

    def perf_values(bl):
        return [
            sum(float(np.trace(bl[j] @ rhos[i]).real) for j in good_idx[i])
            for i in range(len(rhos))
        ]

    def residual_of(bl):
        comp = float(np.max(np.abs(np.linalg.eigvalsh(_hermitize(sum(bl) - eye)))))
        neg = max(0.0, max(-float(np.linalg.eigvalsh(_hermitize(b)).min()) for b in bl))
        perf = max(0.0, max(target - v for v in perf_values(bl)))
        return max(comp, neg, perf)

    def try_witness(bl) -> Povm | None:
        fixed = _renormalize(bl)
        if fixed is None:
            return None
        vals = perf_values(fixed)
        if min(vals) < target - witness_tol:
            return None
        try:
            return Povm(fixed, labels=task.hyps)
        except ValueError:
            return None

    history: list[float] = []
    residual = residual_of(blocks)
    for sweep in range(1, max_sweeps + 1):
        # halfspace steps: lift the good-set mass of each environment
        for i, rho in enumerate(rhos):
            idx = good_idx[i]
            val = sum(float(np.trace(blocks[j] @ rho).real) for j in idx)
            if val < target:
                step = (target - val) / (len(idx) * norms[i])
                for j in idx:
                    blocks[j] = blocks[j] + step * rho
        # completeness: project onto sum M_h = I
        gap = (sum(blocks) - eye) / n_h
        blocks = [b - gap for b in blocks]
        # PSD cone
        blocks = [_psd_clip(b) for b in blocks]

        residual = residual_of(blocks)
        history.append(residual)
        if residual < residual_tol or sweep % check_every == 0:
            witness = try_witness(blocks)
            if witness is not None:
                return SdpResult(
                    verdict="feasible", witness=witness, residual=residual, sweeps=sweep
                )
        if len(history) > stall_window and residual > 1000 * residual_tol:
            then = history[-stall_window - 1]
            if then - residual < stall_tol * max(1.0, then):
                return SdpResult(
                    verdict="infeasible",
                    residual=residual,
                    certificate="residual-stagnation",
                    sweeps=sweep,
                )
    return SdpResult(verdict="undetermined", residual=residual, sweeps=max_sweeps)
