"""Exact-rational linear feasibility via phase-1 simplex with Bland's rule.

No floats anywhere: a Feasible answer comes with a witness satisfying every
constraint exactly, and Infeasible means the phase-1 optimum is a positive
rational.  Each row is a ``plab.feasibility.LinearConstraint``: exact
nonzero (index, coefficient) ``terms`` over ``arity`` variables, a
``relation`` in {"<=", "=", ">="} and a ``rhs``.  ``feasible_point`` returns
the point (or None) together with the number of pivots it made.
A row that says x_j >= 0 alone (after the rhs is made nonnegative:
c*x_j >= 0 or -c*x_j <= 0 with c > 0) is a sign bound: it adds no tableau
row, and x_j gets one nonnegative column.  Every other variable is a free
real, split as u - v.

The tableau is dense, but every pivot touches only the nonzero entries of the
pivot row, and only the rows whose entry in the entering column is nonzero.
Skipped entries would compute v - f*0 = v, so the values, the pivot path and
the witness are exactly those of a full dense update.  ``affine_dimension``
in ``plab.feasibility`` runs its Gauss-Jordan steps through the same
elimination core.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

RELATIONS = ("<=", "=", ">=")


def _eliminate(rows: list[list[Fraction]], r: int, col: int) -> None:
    """Gauss-Jordan step in place: scale row r so its entry in col is 1, then
    clear col from every other row.  Only the nonzero columns of row r are
    touched, and only in rows whose entry in col is nonzero."""
    prow = rows[r]
    piv = prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] = prow[j] / piv
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            for j in nz:
                row[j] = row[j] - f * prow[j]


def feasible_point(num_vars: int, constraints: Iterable) -> tuple[list[Fraction] | None, int]:
    """(a point satisfying all constraints, or None if the system is
    infeasible; the number of pivots made).  Each constraint has ``terms``,
    ``arity``, ``relation`` and ``rhs``, as a ``LinearConstraint`` has."""
    rows: list[list[tuple[int, Fraction]]] = []  # nonzero (column, coefficient)
    rels: list[str] = []
    rhss: list[Fraction] = []
    bounded = set()  # variables with a sign bound x_j >= 0
    for row in constraints:
        if row.arity != num_vars:
            raise ValueError(f"coefficient row of length {row.arity}, expected {num_vars}")
        entries, rel, rhs = row.terms, row.relation, row.rhs
        if rhs < 0:  # canonical: rhs >= 0
            entries = [(j, -c) for j, c in entries]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        if rel == ">=" and rhs == 0:  # avoid a needless artificial
            entries = [(j, -c) for j, c in entries]
            rel = "<="
        if rel == "<=" and rhs == 0 and len(entries) == 1 and entries[0][1] < 0:
            bounded.add(entries[0][0])  # -c*x_j <= 0 with c > 0: x_j >= 0
            continue
        rows.append(entries)
        rels.append(rel)
        rhss.append(rhs)

    # column j is x_j, or u_j of x_j = u_j - v_j for a free x_j; the v
    # columns follow in variable order, then slacks, then artificials
    neg_of = {}
    col = num_vars
    for j in range(num_vars):
        if j not in bounded:
            neg_of[j] = col
            col += 1
    m = len(rows)
    slack_of = {}
    art_of = {}
    for i, r in enumerate(rels):
        if r != "=":
            slack_of[i] = col
            col += 1
    for i, r in enumerate(rels):
        if r != "<=":
            art_of[i] = col
            col += 1
    width = col + 1  # + rhs
    rhs_col = col

    # rows 0..m-1 are the constraints, row m is the objective
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    zero = Fraction(0)
    one = Fraction(1)
    for i in range(m):
        row = [zero] * width
        for j, c in rows[i]:
            row[j] = c
            if j in neg_of:
                row[neg_of[j]] = -c
        if i in slack_of:
            row[slack_of[i]] = one if rels[i] == "<=" else -one
        if i in art_of:
            row[art_of[i]] = one
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        row[rhs_col] = rhss[i]
        tableau.append(row)

    art_cols = set(art_of.values())
    # objective: minimize sum of artificials; track z_j - c_j
    obj = [zero] * width
    for i in range(m):
        if basis[i] in art_cols:
            for j, v in enumerate(tableau[i]):
                if v:
                    obj[j] += v
    for j in art_cols:
        obj[j] -= one
    tableau.append(obj)

    pivots = 0
    while True:
        enter = next((j for j in range(rhs_col) if obj[j] > 0), None)
        if enter is None:
            break
        # Bland: smallest entering index above; leave by min ratio, then
        # smallest basic index
        leave, best = None, None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][rhs_col] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            # unbounded phase-1 cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-1 simplex reported unbounded")
        _eliminate(tableau, leave, enter)
        basis[leave] = enter
        pivots += 1

    if obj[rhs_col] != 0:
        return None, pivots
    values = {}
    for i, b in enumerate(basis):
        values[b] = tableau[i][rhs_col]
    return [values.get(j, zero) - values.get(neg_of.get(j), zero) for j in range(num_vars)], pivots
