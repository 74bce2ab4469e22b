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

Rows that share no variable, directly or through other rows, form
independent blocks (the kernel polytope has one per environment), and each
block gets its own tableau, with its columns and rows in their original
relative order.  In the one tableau of all rows a pivot in one block leaves
every other block's rows and objective entries as they are, and Bland's
rule picks the least eligible column over all blocks, so that tableau makes
each block's own pivots in some interleaving: the pivot count is the sum
over blocks, and the witness is the same point.  Every block is run, even
after one is infeasible, so the count stays that of the whole tableau.  A
row with no terms is a block of its own, and a variable in no row stays 0.

The tableau is fraction-free (Edmonds, Bareiss): each row, the objective
included, is a list of ints equal to the rational row times a positive scale
that is never stored.  A constraint row starts at the row's integer form as
stored, and the objective at the sum of the artificial rows brought to the
lcm of their scales.  A pivot on entry p leaves the pivot row as it is and
turns every other row with entry f != 0 in the entering column into
|p|*row - sign(p)*f*pivot_row.  Rows with a zero there are not touched.
When |p| = 1 a row keeps exactly its scale; when |p| > 1 its scale is
multiplied by |p|, so the row is divided by the gcd of its entries.  The
entering test (objective entry > 0) and the min-ratio test (b/a < b'/a' as
b*a' < b'*a) do not change under positive row scales, so the pivot path is
that of the rational tableau, and the witness reads each basic variable as
rhs entry / basic entry, the same rational.  ``affine_dimension`` in
``plab.feasibility`` runs its Gauss-Jordan steps, whose pivots may be
negative, through the same elimination core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}  # the relation of the row times -1
_positive = (0).__lt__  # _positive(v) is v > 0; map(_positive, ...) scans rows in C

_Row = tuple[int, Sequence[tuple[int, int]], int, str]  # (scale, integer terms, integer rhs, relation)


def _eliminate(rows: list[list[int]], r: int, col: int) -> None:
    """Fraction-free Gauss-Jordan step in place on integer rows.  Row r
    keeps its pivot p = rows[r][col]: it is the rational row scaled to 1 in
    col, times p.  Every other row with entry f != 0 in col becomes
    |p|*row - sign(p)*f*row_r: its rational row cleared in col, times its
    old scale times |p|.  When |p| = 1 that is exactly its old scale, so only
    the nonzero columns of row r change, in place, and no gcd is taken; when
    |p| > 1 the row is divided by the gcd of its entries.  Rows with a zero
    in col are not touched."""
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
        if ap == 1:
            for j in nz:
                row[j] -= f * prow[j]
            continue
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
    rows: list[_Row] = []
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
        rows.append((scale, ints, irhs, rel))

    # union-find over the variables the rows share; a row with no terms is
    # keyed by its own (negative) index
    parent = list(range(num_vars))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for _, ints, _, _ in rows:
        for j, _ in ints[1:]:
            parent[root(j)] = root(ints[0][0])
    blocks: dict[int, list[_Row]] = {}
    for i, row in enumerate(rows):
        blocks.setdefault(root(row[1][0][0]) if row[1] else -1 - i, []).append(row)

    point = [Fraction(0)] * num_vars
    feasible, pivots = True, 0
    for block in blocks.values():
        variables = sorted({j for _, ints, _, _ in block for j, _ in ints})
        values, n = _phase1(variables, block, bounded)
        pivots += n
        if values is None:
            feasible = False
        else:
            for j, v in zip(variables, values):
                point[j] = v
    return (point if feasible else None), pivots


def _phase1(variables: list[int], rows: list[_Row], bounded: set) -> tuple[list[Fraction] | None, int]:
    """Phase-1 simplex on canonical rows (rhs >= 0) whose terms read only
    ``variables``, in increasing order; those in ``bounded`` have a sign
    bound.  Returns (the values of ``variables`` at the point found, or None
    if the rows are infeasible; the number of pivots made)."""
    # column k is the k-th variable x, or u of x = u - v for a free x; the
    # v columns follow in variable order, then slacks, then artificials
    col_of = {j: k for k, j in enumerate(variables)}
    neg_of = {}
    col = len(variables)
    for k, j in enumerate(variables):
        if j not in bounded:
            neg_of[k] = col
            col += 1
    first_slack = col
    m = len(rows)
    slack_of = {}
    art_of = {}
    for i, (*_, rel) in enumerate(rows):
        if rel != "=":
            slack_of[i] = col
            col += 1
    for i, (*_, rel) in enumerate(rows):
        if rel != "<=":
            art_of[i] = col
            col += 1
    width = col + 1  # + rhs
    rhs_col = col

    # rows 0..m-1 are the constraints, row m is the objective
    tableau: list[list[int]] = []
    basis: list[int] = []
    for i, (scale, ints, irhs, rel) in enumerate(rows):
        row = [0] * width
        for j, c in ints:
            k = col_of[j]
            row[k] = c
            if k in neg_of:
                row[neg_of[k]] = -c
        if i in slack_of:
            row[slack_of[i]] = scale if rel == "<=" else -scale
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
    point = [values.get(k, zero) for k in range(len(variables))]
    for k, v in neg_of.items():
        if v in values:
            point[k] -= values[v]
    return point, pivots
