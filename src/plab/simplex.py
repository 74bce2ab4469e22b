"""Exact-rational linear feasibility via phase-1 simplex with Bland's rule.

No floats anywhere: a Feasible answer comes with a witness satisfying every
constraint exactly (``lp_feasible`` re-checks it in integers), and
Infeasible means the phase-1 optimum is a positive rational.  Each row is a
``plab.feasibility.LinearConstraint`` in the integer form built once with
the row: ``iterms``, its nonzero (index, coefficient) pairs over ``arity``
variables, and ``irhs``, both times ``scale`` > 0, and a ``relation`` in
{"<=", "=", ">="}.  ``feasible_point`` returns the point (or None) together
with the number of pivots it made.  A row that says x_j >= 0 alone
(c*x_j >= 0 or -c*x_j <= 0 with c > 0) is a sign bound: it adds no tableau
row, and x_j gets one nonnegative column.  Every other variable is a free
real, split as u - v.

The tableau is fraction-free (Edmonds, Bareiss): each row, the objective
included, is a list of ints equal to the rational row times a positive scale
that is never stored.  A constraint row starts at the row's integer form as
stored, and the objective at the sum of the artificial rows brought to the
lcm of their scales.  A pivot on entry p > 0 leaves the pivot row as it is
and turns every other row with entry f != 0 in the entering column into
p*row - f*pivot_row, divided by the gcd of its entries.  Rows with a zero
there are not touched.  The entering test (objective entry > 0) and the
min-ratio test (b/a < b'/a' as b*a' < b'*a) do not change under positive row
scales, so the pivot path is that of the rational tableau, and the witness
reads each basic variable as rhs entry / basic entry, the same rational.
``affine_dimension`` in ``plab.feasibility`` runs its Gauss-Jordan steps,
whose pivots may be negative, through the same elimination core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}  # the relation of the row times -1
_positive = (0).__lt__  # _positive(v) is v > 0; map(_positive, ...) scans rows in C


def _eliminate(rows: list[list[int]], r: int, col: int) -> None:
    """Fraction-free Gauss-Jordan step in place on integer rows.  Row r
    keeps its pivot p = rows[r][col]: it is the rational row scaled to 1 in
    col, times p.  Every other row with entry f != 0 in col becomes
    |p|*row - sign(p)*f*row_r, divided by the gcd of its entries: its
    rational row cleared in col, times a positive scale.  Rows with a zero
    in col are not touched, and when |p| = 1 no row is multiplied, so only
    the nonzero columns of row r change before the gcd division."""
    prow = rows[r]
    p = prow[col]
    ap = abs(p)
    nz = list(compress(range(len(prow)), prow))
    for i, row in enumerate(rows):
        f = row[col]
        if not f or i == r:
            continue
        if p < 0:
            f = -f
        if ap != 1:
            row = [ap * v for v in row]
        for j in nz:
            row[j] -= f * prow[j]
        g = gcd(*row)
        rows[i] = [v // g for v in row] if g > 1 else row


def feasible_point(num_vars: int, constraints: Iterable) -> tuple[list[Fraction] | None, int]:
    """(a point satisfying all constraints, or None if the system is
    infeasible; the number of pivots made).  Each constraint has ``arity``,
    ``relation`` and the integer form ``scale``, ``iterms``, ``irhs``, as a
    ``LinearConstraint`` has."""
    rows: list[tuple[int, Sequence[tuple[int, int]], int]] = []  # (scale, integer terms, integer rhs)
    rels: list[str] = []
    bounded = set()  # variables with a sign bound x_j >= 0
    for row in constraints:
        if row.arity != num_vars:
            raise ValueError(f"coefficient row of length {row.arity}, expected {num_vars}")
        scale, ints, irhs, rel = row.scale, row.iterms, row.irhs, row.relation
        if irhs == 0 and len(ints) == 1 and rel != "=" and (ints[0][1] > 0) == (rel == ">="):
            bounded.add(ints[0][0])  # c*x_j >= 0 or -c*x_j <= 0 with c > 0: x_j >= 0
            continue
        if irhs < 0 or (irhs == 0 and rel == ">="):  # canonical: rhs >= 0, and no needless artificial
            ints, irhs, rel = [(j, -c) for j, c in ints], -irhs, _FLIPPED[rel]
        rows.append((scale, ints, irhs))
        rels.append(rel)

    # column j is x_j, or u_j of x_j = u_j - v_j for a free x_j; the v
    # columns follow in variable order, then slacks, then artificials
    neg_of = {}
    col = num_vars
    for j in range(num_vars):
        if j not in bounded:
            neg_of[j] = col
            col += 1
    first_slack = col
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
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (scale, ints, irhs) in enumerate(rows):
        row = [0] * width
        for j, c in ints:
            row[j] = c
            if j in neg_of:
                row[neg_of[j]] = -c
        if i in slack_of:
            row[slack_of[i]] = scale if rels[i] == "<=" else -scale
        if i in art_of:
            row[art_of[i]] = scale
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        row[rhs_col] = irhs
        tableau.append(row)

    # objective: minimize the sum of artificials; track z_j - c_j times M,
    # the lcm of the artificial rows' scales
    big = lcm(*(rows[i][0] for i in art_of))
    obj = [0] * width
    for i, art in art_of.items():
        k = big // rows[i][0]
        row = tableau[i]
        for j in compress(range(width), row):
            obj[j] += k * row[j]
        obj[art] -= big
    tableau.append(obj)

    pivots = 0
    while True:
        obj = tableau[m]
        enter = next(compress(range(rhs_col), map(_positive, obj)), None)
        if enter is None:
            break
        # Bland: smallest entering index above; leave by min ratio b/a, as
        # b*a' < b'*a, then smallest basic index
        leave, lb, la = None, 0, 0
        for i in range(m):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                b = row[rhs_col]
                if leave is None or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave is None:
            # unbounded phase-1 cannot happen (objective bounded below by 0)
            raise RuntimeError("phase-1 simplex reported unbounded")
        _eliminate(tableau, leave, enter)
        basis[leave] = enter
        pivots += 1

    if tableau[m][rhs_col] != 0:
        return None, pivots
    values = {}
    for i, b in enumerate(basis):
        if b < first_slack:
            row = tableau[i]
            values[b] = Fraction(row[rhs_col], row[b])
    zero = Fraction(0)
    point = [values.get(j, zero) for j in range(num_vars)]
    for j, v in neg_of.items():
        if v in values:
            point[j] -= values[v]
    return point, pivots
