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
only when the step budget runs out with 1-delta inside [lo, hi].  Both
come from the states' joint support, lifted back to dim^d x dim^d.
"""

from __future__ import annotations

import contextlib
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from . import _np as np  # numpy, loaded on first use
from . import simplex
from .emx import _integer_form, _json_field, _json_list, accuracy, as_fraction
from .quantum import DensityMatrix, Povm, _hermitize, tensor_power
from .tasks import TaskSpec


_HOLDS = {"<=": operator.le, "=": operator.eq, ">=": operator.ge}


def _violated(rows: Sequence["LinearConstraint"], x: Sequence[Fraction]) -> list[int]:
    """Indices of the rows that the exact point x violates, checked in
    integers: with x_j = xs_j/d in ``_integer_form``, each row times scale*d
    reads sum of c_j*xs_j <relation> irhs*d, with scale*d > 0."""
    d, xs = _integer_form(x)
    return [i for i, r in enumerate(rows) if not _HOLDS[r.relation](sum([c * xs[j] for j, c in r.iterms]), r.irhs * d)]


class LinearConstraint(namedtuple("LinearConstraint", "arity relation scale iterms irhs")):
    """terms . x  <relation>  rhs over ``arity`` variables, with exact rational
    data held as integers, built once at construction: ``iterms`` are the
    nonzero (index, coefficient) pairs in index order and ``irhs`` the rhs,
    each times ``scale`` > 0, the lcm of their denominators (``emx._integer_form``).  The simplex
    pivots on this form; the witness re-check of ``lp_feasible`` checks a
    point against it in integers.  ``coeffs`` (the dense row) and ``rhs``
    are rational views.  ``_make((arity, relation, scale, iterms, irhs))``
    builds a row from its integer form, unchecked."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence, relation: str, rhs):
        """The row with dense coefficients ``coeffs``; the relation is checked first."""
        if relation not in simplex.RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        cols, values = [], []
        for j, c in enumerate(coeffs):  # the literal "0" is skipped unparsed: most literals of a dense row are "0"
            if c != "0" and (f := as_fraction(c)):
                cols.append(j)
                values.append(f)
        values.append(as_fraction(rhs))
        scale, (*ints, irhs) = _integer_form(values)
        return cls._make((len(coeffs), relation, scale, tuple(zip(cols, ints)), irhs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        terms = dict(self.iterms)
        return tuple(Fraction(terms.get(j, 0), self.scale) for j in range(self.arity))

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.irhs, self.scale)

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs], "relation": self.relation, "rhs": str(self.rhs)}

    @classmethod
    def from_json(cls, obj: dict) -> "LinearConstraint":
        return cls(_json_list(obj, "coeffs"), _json_field(obj, "relation"), _json_field(obj, "rhs"))


class PolytopeSpec(namedtuple("PolytopeSpec", "variables constraints")):
    """Named, ordered variables plus rational constraint rows."""

    __slots__ = ()

    def __new__(cls, variables: tuple[str, ...], constraints: tuple[LinearConstraint, ...]):
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if any(c.arity != len(variables) for c in constraints):
            raise ValueError("constraint arity does not match variable count")
        return super().__new__(cls, variables, constraints)

    def to_json(self) -> dict:
        return {"variables": list(self.variables), "constraints": [c.to_json() for c in self.constraints]}

    @classmethod
    def from_json(cls, obj: dict) -> "PolytopeSpec":
        variables = _json_list(obj, "variables")
        if not all(isinstance(v, str) for v in variables):
            raise TypeError("variable names must be strings")
        return cls(tuple(variables), tuple(map(LinearConstraint.from_json, _json_list(obj, "constraints"))))


def epsilon_optimal_sets(task: TaskSpec, epsilon) -> dict[str, tuple[str, ...]]:
    """G_theta(eps) = {h : U(theta,h) >= opt(theta) - eps}; the maximizer
    always qualifies, so no set is empty.  epsilon is checked by ``accuracy``.
    With eps = p/q and a row n/scale of the task's integer form, times
    scale*q > 0 the test reads n*q >= max(n)*q - p*scale."""
    p, q = accuracy(epsilon, 0)[0].as_integer_ratio()
    out = {}
    for theta, scale, row in zip(task.thetas, task.scales, task.iutility):
        cut = max(row) * q - p * scale
        out[theta] = tuple(h for h, n in zip(task.hyps, row) if n * q >= cut)
    return out


def kernel_variables(task: TaskSpec) -> tuple[str, ...]:
    """Canonical coordinate order for kernels: environment-major."""
    return tuple(f"q[{h}|{t}]" for t in task.thetas for h in task.hyps)


def _kernel_rows(blocks: int, k: int) -> list[LinearConstraint]:
    """Rows making blocks*k block-major coordinates a kernel: every entry
    >= 0, then each block of k consecutive entries summing to exactly 1."""
    n = blocks * k
    rows = [LinearConstraint._make((n, ">=", 1, ((j, 1),), 0)) for j in range(n)]
    for i in range(blocks):
        block = tuple((j, 1) for j in range(i * k, (i + 1) * k))
        rows.append(LinearConstraint._make((n, "=", 1, block, 1)))
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
    k, win = len(task.hyps), 1 - dlt
    n, scale = len(task.thetas) * k, win.denominator  # each row times scale
    rows = []
    for i, theta in enumerate(task.thetas):
        members = set(good[theta])
        terms = tuple((i * k + j, scale) for j, h in enumerate(task.hyps) if h in members)
        rows.append(LinearConstraint._make((n, ">=", scale, terms, win.numerator)))
    return tuple(rows)


LpResult = namedtuple("LpResult", "feasible witness pivots")
LpResult.__doc__ = "Exact verdict, its kernel witness (None if infeasible) and the simplex pivots taken."


def lp_feasible(poly: PolytopeSpec, pl: Sequence[LinearConstraint] = ()) -> LpResult:
    """Exact feasibility of the polytope plus performance rows.

    The pl rows must be expressed over poly.variables in the same order
    (build_pl_constraints and kernel_polytope agree by construction).
    """
    merged = list(poly.constraints) + list(pl)
    point, pivots = simplex.feasible_point(len(poly.variables), merged)
    if point is None:
        return LpResult(feasible=False, witness=None, pivots=pivots)
    bad = _violated(merged, point)
    if bad:  # would indicate a simplex bug; never trust an unchecked witness
        first = f"row {bad[0]}, {merged[bad[0]].relation}"
        raise AssertionError(f"witness violates {len(bad)} constraints (first: {first})")
    return LpResult(feasible=True, witness=dict(zip(poly.variables, point)), pivots=pivots)


def no_signaling_polytope(n_a: int, n_b: int, n_x: int, n_y: int) -> PolytopeSpec:
    """Polytope of no-signaling tables p(a,b|x,y) over finite alphabets:
    nonnegativity, per-setting normalization, and marginal equalities saying
    each party's marginal ignores the other party's setting.

    Variable order is setting-major: (x, y) outer, (a, b) inner.
    """
    if min(n_a, n_b, n_x, n_y) < 1:
        raise ValueError("alphabet sizes must be >= 1")
    names = tuple(f"p[{a},{b}|{x},{y}]"
                  for x in range(n_x) for y in range(n_y) for a in range(n_a) for b in range(n_b))

    def var(a, b, x, y):  # setting pair (x, y) is block x*n_y + y
        return ((x * n_y + y) * n_a + a) * n_b + b

    rows = _kernel_rows(n_x * n_y, n_a * n_b)
    # Bob's marginal must not see x, nor Alice's y: sum_a p(a,b|0,y) equals
    # sum_a p(a,b|x,y), and sum_b p(a,b|x,0) equals sum_b p(a,b|x,y).  The
    # block of (0, y) or (x, 0) comes first, so the terms are in index order.
    sides = [([var(a, b, 0, y) for a in range(n_a)], [var(a, b, x, y) for a in range(n_a)])
             for b in range(n_b) for y in range(n_y) for x in range(1, n_x)]
    sides += [([var(a, b, x, 0) for b in range(n_b)], [var(a, b, x, y) for b in range(n_b)])
              for a in range(n_a) for x in range(n_x) for y in range(1, n_y)]
    for first, other in sides:
        terms = tuple((j, 1) for j in first) + tuple((j, -1) for j in other)
        rows.append(LinearConstraint._make((len(names), "=", 1, terms, 0)))
    return PolytopeSpec(names, tuple(rows))


def affine_dimension(poly: PolytopeSpec) -> int:
    """Dimension of the affine hull cut out by the equality rows (variable
    count minus exact rank), assuming the system is consistent."""
    n = len(poly.variables)
    eq_rows = []
    for c in poly.constraints:
        if c.relation == "=":
            row = [0] * n
            for j, v in c.iterms:
                row[j] = v
            eq_rows.append(row)
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
# steps.  Eigenvalues of R, or of the states' sum, below _SUPPORT_TOL times its
# largest are its kernel; _EIG_MARGIN keeps eigvalsh rounding from pushing hi below p*.
_OUTER_STEPS = 400
_INNER_STEPS = 30
_SUPPORT_TOL = 1e-12
_EIG_MARGIN = 1e-12


SdpResult = namedtuple("SdpResult", "verdict witness certificate lo hi weights dual sweeps",
                       defaults=(None, None, 0.0, 1.0, None, None, 0))
SdpResult.__doc__ = """Verdict ("feasible", "infeasible" or "undetermined") with its bracket
lo <= p* <= hi.  ``witness`` is the validated POVM achieving lo (on "feasible"
only); ``weights`` y and ``dual`` Z, with Z >= A_h(y) for every h and tr Z = hi,
certify hi; ``sweeps`` counts the fixed-point steps taken."""


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

    When the states' joint support S is smaller than the space (V holds the
    eigenvectors of sum_i rho_i^(x)d above _SUPPORT_TOL times its largest
    eigenvalue, P = V V^+, r = dim S), the loop sees V^+ rho_i V; at return
    M_h = V W_h V^+ + (I - P)/n_h, the dense iterate, is checked again by
    ``Povm`` and Z = V(Y + lambda*I_r)V^+ + lambda*(I - P) has tr Z = hi.
    Z >= A_h(y): Z - P A_h P >= _EIG_MARGIN*I less rounding, and A_h - P A_h P
    has norm at most max_i ||rho_i - P rho_i P||_F, which S must keep within
    _EIG_MARGIN/2 (a dropped eigenvalue t^2 has cross terms of size t).
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

    w, v = np.linalg.eigh(_hermitize(rhos.sum(axis=0)))  # S, V and r of the docstring
    v = v[:, w > _SUPPORT_TOL * w[-1]]
    if v.shape[1] < dim:
        small = v.conj().T @ rhos @ v
        if np.linalg.norm(rhos - v @ small @ v.conj().T, axis=(1, 2)).max() <= _EIG_MARGIN / 2:
            rhos = small
    r = rhos.shape[1]

    def lift(x, pad):  # V x V^+ + pad*(I - V V^+) on the full space, for a matrix or a stack
        return x if r == dim else _hermitize(v @ x @ v.conj().T + pad * (np.eye(dim) - v @ v.conj().T))

    def done(verdict, witness, certificate):
        if witness is not None and r < dim:
            try:  # would indicate a lifting bug; never return an unchecked witness
                witness = Povm(lift(np.array(witness.elements), 1.0 / n_h), labels=task.hyps)
            except ValueError as exc:
                raise AssertionError(f"lifted witness is not a POVM: {exc}") from None
        return SdpResult(verdict, witness, certificate, lo, hi, cert[0], lift(*cert[1:]), steps)

    def successes(m):  # s_i = sum_{h in G_i} tr(M_h rho_i)
        return (np.einsum("hab,iba->ih", m, rhos).real * member).sum(axis=1)

    y = np.full(len(rhos), 1.0 / len(rhos))
    m = np.repeat(np.eye(r, dtype=complex)[None] / n_h, n_h, axis=0)
    avg = np.zeros_like(m)
    lo, hi, witness, cert, steps = 0.0, np.inf, None, None, 0
    for t in range(1, _OUTER_STEPS + 1):
        a = np.einsum("ih,iab->hab", y[:, None] * member, rhos)
        for _ in range(_INNER_STEPS):
            m = _jrf_step(a, m)
            steps += 1
            avg += (m - avg) / steps
            for cand in (m, avg) if steps > 1 else (m,):  # after one step avg equals m
                worst = float(successes(cand).min())
                if worst > lo:
                    with contextlib.suppress(ValueError):  # an invalid candidate never sets lo
                        witness, lo = Povm(cand, labels=task.hyps), worst
                opt = _hermitize((a @ cand).sum(axis=0))
                lam = max(0.0, float(np.linalg.eigvalsh(a - opt)[:, -1].max())) + _EIG_MARGIN
                z = opt + lam * np.eye(r)
                tr = float(np.trace(z).real + lam * (dim - r))  # tr Z: lam on each dimension off S
                if tr < hi:
                    hi, cert = tr, (tuple(float(v) for v in y), z, lam)
                if lo >= target:
                    return done("feasible", witness, "validated-povm")
                if hi < target:
                    return done("infeasible", None, "weak-duality")
        y = y * np.exp(-successes(m) / np.sqrt(t))
        y /= y.sum()
    return done("undetermined", None, None)
