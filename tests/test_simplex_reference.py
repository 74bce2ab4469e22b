"""The fraction-free sparse simplex against the dense Fraction reference.

``dense_feasible_point`` and ``dense_affine_dimension`` are full-width
``Fraction`` tableau updates.  ``plab.simplex`` keeps integer rows, each the
rational row times a positive scale, and skips zero entries; neither changes
a pivot decision, so it must return the identical point (or None) after the
same number of pivots, and the same affine dimension.

The reference applies the simplex's sign-bound rule (a row saying
x_j >= 0 becomes a bound, and x_j gets one column) unless called with
``sign_bounds=False``; then every variable is split as u - v, as the
simplex did before the rule, and serves as an oracle for the verdict.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plab import simplex
from plab.feasibility import (
    LinearConstraint,
    _violated,
    PolytopeSpec,
    affine_dimension,
    build_pl_constraints,
    kernel_polytope,
    lp_feasible,
    no_signaling_polytope,
)
from plab.simplex import RELATIONS, feasible_point
from plab.tasks import TaskSpec

F = Fraction


def dense_feasible_point(num_vars, constraints, sign_bounds=True):
    """Reference phase-1 simplex with Bland's rule, updating every entry of
    every row on each pivot.  Returns (point or None, pivot count)."""
    rows, rels, rhss, bounded = [], [], [], set()
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != num_vars:
            raise ValueError(f"coefficient row of length {len(coeffs)}, expected {num_vars}")
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        if rel == ">=" and rhs == 0:
            coeffs = [-c for c in coeffs]
            rel = "<="
        support = [j for j, c in enumerate(coeffs) if c]
        if sign_bounds and rel == "<=" and rhs == 0 and len(support) == 1 and coeffs[support[0]] < 0:
            bounded.add(support[0])
            continue
        rows.append(coeffs)
        rels.append(rel)
        rhss.append(rhs)

    m = len(rows)
    slack_of, art_of = {}, {}
    free = [j for j in range(num_vars) if j not in bounded]
    neg_of = {j: num_vars + k for k, j in enumerate(free)}
    col = num_vars + len(free)
    for i, r in enumerate(rels):
        if r != "=":
            slack_of[i] = col
            col += 1
    for i, r in enumerate(rels):
        if r != "<=":
            art_of[i] = col
            col += 1
    width = col + 1
    rhs_col = col

    tableau, basis = [], []
    zero, one = Fraction(0), Fraction(1)
    for i in range(m):
        row = [zero] * width
        for j, c in enumerate(rows[i]):
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
    obj = [zero] * width
    for i in range(m):
        if basis[i] in art_cols:
            for j in range(width):
                obj[j] += tableau[i][j]
    for j in art_cols:
        obj[j] -= one

    pivots = 0
    while True:
        enter = next((j for j in range(rhs_col) if obj[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][rhs_col] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise RuntimeError("phase-1 simplex reported unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, tableau[leave])]
        basis[leave] = enter
        pivots += 1

    if obj[rhs_col] != 0:
        return None, pivots
    values = {b: tableau[i][rhs_col] for i, b in enumerate(basis)}
    return [values.get(j, zero) - values.get(neg_of.get(j), zero) for j in range(num_vars)], pivots


def dense_affine_dimension(poly):
    """Reference Gauss-Jordan rank over full rows."""
    eq_rows = [list(c.coeffs) for c in poly.constraints if c.relation == "="]
    n = len(poly.variables)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(eq_rows)) if eq_rows[r][col] != 0), None)
        if piv is None:
            continue
        eq_rows[rank], eq_rows[piv] = eq_rows[piv], eq_rows[rank]
        lead = eq_rows[rank][col]
        eq_rows[rank] = [v / lead for v in eq_rows[rank]]
        for r in range(len(eq_rows)):
            if r != rank and eq_rows[r][col] != 0:
                f = eq_rows[r][col]
                eq_rows[r] = [v - f * w for v, w in zip(eq_rows[r], eq_rows[rank])]
        rank += 1
    return n - rank


def sparse_feasible_point(num_vars, constraints):
    """plab's simplex on (coeffs, relation, rhs) rows, with the pivots it made."""
    return feasible_point(num_vars, [LinearConstraint(*row) for row in constraints])


def assert_same(num_vars, constraints):
    constraints = list(constraints)
    got = sparse_feasible_point(num_vars, constraints)
    want = dense_feasible_point(num_vars, constraints)
    assert got == want
    return got


# Small rationals with zeros drawn often, so rows are sparse like the
# kernel and no-signaling rows.
coeff = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
)
rhs_value = st.one_of(st.integers(-6, 6).map(F), st.builds(F, st.integers(-9, 9), st.integers(1, 4)))


# Wide rationals: numerators up to 10^12 over denominators up to 10^9, with
# large primes drawn often, so one row mixes coprime denominators and its
# integer scale is their product.
wide_denominator = st.one_of(st.sampled_from([999999937, 999999929, 1000000007, 1000000009, 3, 1]),
                             st.integers(1, 10**9))
wide_coeff = st.one_of(st.just(F(0)), st.builds(F, st.integers(-10**12, 10**12), wide_denominator))
wide_rhs = st.one_of(rhs_value, st.builds(F, st.integers(-10**12, 10**12), wide_denominator))


@st.composite
def systems(draw, coeffs=coeff, rhss=rhs_value):
    n = draw(st.integers(1, 5))
    row = st.tuples(st.tuples(*[coeffs] * n), st.sampled_from(RELATIONS), rhss)
    return n, draw(st.lists(row, max_size=8))


@st.composite
def bounded_systems(draw):
    """A random system with rows that are sign bounds (x_j >= 0, -2*x_j <= 0)
    or look like one but are not (x_j <= 0) mixed in."""
    n, rows = draw(systems())
    unit = [tuple(F(int(i == j)) for i in range(n)) for j in range(n)]
    bound = st.sampled_from([
        *[(unit[j], ">=", F(0)) for j in range(n)],
        *[(tuple(-2 * c for c in unit[j]), "<=", F(0)) for j in range(n)],
        *[(unit[j], "<=", F(0)) for j in range(n)],
    ])
    for _ in range(draw(st.integers(1, 2 * n))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bound))
    return n, rows


@st.composite
def split_systems(draw):
    """A random system plus a row pair a.x <= lo, a.x >= lo + gap: infeasible."""
    n, rows = draw(systems())
    a = draw(st.tuples(*[coeff] * n).filter(any))
    lo = draw(rhs_value)
    gap = draw(st.integers(1, 4))
    at = draw(st.integers(0, len(rows)))
    return n, rows[:at] + [(a, "<=", lo), (a, ">=", lo + gap)] + rows[at:]


@st.composite
def equality_systems(draw, coeffs=coeff, leading_negative=False):
    """Equality rows where some rows are combinations of others, so the
    system is often rank-deficient.  With ``leading_negative`` each row is
    signed so its first nonzero coefficient is negative, which makes the
    first pivot, and often later ones, negative."""
    n = draw(st.integers(1, 7))
    base = draw(st.lists(st.tuples(*[coeffs] * n), min_size=1, max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        weights = draw(st.lists(coeff, min_size=len(base), max_size=len(base)))
        rows.append(tuple(sum((w * r[j] for w, r in zip(weights, base)), F(0)) for j in range(n)))
    if leading_negative:
        rows = [tuple(-c for c in r) if next((c for c in r if c), 0) > 0 else r for r in rows]
    order = draw(st.permutations(range(len(rows))))
    eqs = tuple(LinearConstraint(rows[k], "=", F(0)) for k in order)
    return PolytopeSpec(tuple(f"x{j}" for j in range(n)), eqs)


@st.composite
def block_systems(draw):
    """Two to four systems, some of them infeasible, on disjoint variables:
    their columns interleaved and their rows shuffled."""
    parts = draw(st.lists(st.one_of(systems(), bounded_systems(), split_systems()), min_size=2, max_size=4))
    total = sum(n for n, _ in parts)
    columns = draw(st.permutations(range(total)))
    rows, at = [], 0
    for n, part in parts:
        cols, at = columns[at:at + n], at + n
        for coeffs, rel, rhs in part:
            full = [F(0)] * total
            for j, c in zip(cols, coeffs):
                full[j] = c
            rows.append((tuple(full), rel, rhs))
    return total, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(st.one_of(systems(), bounded_systems()))
def test_random_systems_match_dense_reference(system):
    n, rows = system
    assert_same(n, rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(systems(), bounded_systems()))
def test_verdict_matches_all_split_reference(system):
    """Reading sign bounds as bounds changes the pivot path, never the verdict."""
    n, rows = system
    point, _ = sparse_feasible_point(n, rows)
    split, _ = dense_feasible_point(n, rows, sign_bounds=False)
    assert (point is None) == (split is None)
    if point is not None:
        assert _violated([LinearConstraint(*row) for row in rows], point) == []


@settings(max_examples=100, deadline=None)
@given(split_systems())
def test_infeasible_systems_match_dense_reference(system):
    n, rows = system
    point, _ = assert_same(n, rows)
    assert point is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(systems(wide_coeff, wide_rhs), split_systems()))
def test_wide_rationals_match_dense_reference(system):
    """Integer rows scaled by products of coprime 10^9-sized denominators
    take the same pivots to the same point as the Fraction tableau."""
    n, rows = system
    assert_same(n, rows)


@settings(max_examples=100, deadline=None)
@given(block_systems())
def test_independent_blocks_match_dense_reference(system):
    """Solving each block of rows that share no variable on its own tableau
    takes the whole tableau's pivot count to the same point (or None)."""
    n, rows = system
    assert_same(n, rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(equality_systems(), equality_systems(wide_coeff, leading_negative=True)))
def test_affine_dimension_matches_dense_reference(poly):
    assert affine_dimension(poly) == dense_affine_dimension(poly)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=w, max_size=w),
                                                      min_size=1, max_size=5)),
       st.data())
def test_eliminate_gives_positive_multiples_of_rational_rows(rows, data):
    """A pivot of either sign leaves its row as it is and every other row
    a positive multiple of the rational Gauss-Jordan row."""
    assume(any(map(any, rows)))
    pivots = [(i, j) for i, j in product(range(len(rows)), range(len(rows[0]))) if rows[i][j]]
    r, col = data.draw(st.sampled_from(pivots))
    want = [[F(v) for v in row] for row in rows]
    piv = want[r][col]
    for i, row in enumerate(want):
        if i != r:
            f = row[col] / piv
            want[i] = [v - f * w for v, w in zip(row, want[r])]
    got = [list(row) for row in rows]
    simplex._eliminate(got, r, col)
    assert got[r] == rows[r]
    for i, (g, w) in enumerate(zip(got, want)):
        if i == r:
            continue
        if any(w):
            scale = next(F(a) / b for a, b in zip(g, w) if b)
            assert scale > 0 and g == [scale * v for v in w]
        else:
            assert not any(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=w, max_size=w),
                                                      min_size=2, max_size=5)),
       st.data())
def test_eliminate_on_a_unit_pivot_gives_the_rational_rows_exactly(rows, data):
    """A pivot of +-1 leaves every row at its scale: each updated row is the
    rational Gauss-Jordan row itself, not a multiple of it."""
    r = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[r][col] = data.draw(st.sampled_from([1, -1]))
    want = [[F(v) for v in row] for row in rows]
    for i, row in enumerate(want):
        if i != r:
            f = row[col] / want[r][col]
            want[i] = [v - f * w for v, w in zip(row, want[r])]
    got = [list(row) for row in rows]
    simplex._eliminate(got, r, col)
    assert got == want


def test_min_ratio_tie_is_broken_by_basic_index_under_unequal_scales(monkeypatch):
    """(2/3)x >= 2/3 and (5/7)x <= 5/7 tie at ratio 1 for x, with integer
    rows scaled by 3 and 7.  The first row's basic variable is its
    artificial, the second's its slack, which has the smaller index, so the
    second row leaves although the first comes first."""
    pivots = []
    eliminate = simplex._eliminate

    def record(rows, r, col):
        pivots.append((r, col))
        eliminate(rows, r, col)

    monkeypatch.setattr(simplex, "_eliminate", record)
    rows = [((F(2, 3),), ">=", F(2, 3)), ((F(5, 7),), "<=", F(5, 7)), ((F(1),), ">=", F(0))]
    assert assert_same(1, rows) == ([F(1)], 1)
    assert pivots == [(1, 0)]


def random_task(rng, n_env, n_h):
    utility = [[F(rng.randint(0, 4), 4) for _ in range(n_h)] for _ in range(n_env)]
    return TaskSpec([f"t{i}" for i in range(n_env)], [f"h{j}" for j in range(n_h)], utility)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 3), (6, 6)])
@pytest.mark.parametrize("delta", [F(0), F(1, 5), F(1, 2)])
def test_kernel_polytopes_match_dense_reference(shape, delta):
    task = random_task(random.Random(f"{shape}:{delta}"), *shape)
    poly = kernel_polytope(task)
    pl = build_pl_constraints(task, F(1, 4), delta)
    rows = [(c.coeffs, c.relation, c.rhs) for c in poly.constraints + pl]
    point, pivots = dense_feasible_point(len(poly.variables), rows)
    res = lp_feasible(poly, pl)
    assert res.feasible and res.pivots == pivots > 0
    assert list(res.witness.values()) == point


def test_lp_feasible_makes_one_feasible_point_call_for_all_blocks(monkeypatch):
    """A 6 x 6 kernel polytope has six independent blocks, solved inside
    one call of the public entry."""
    calls = []
    solve = simplex.feasible_point

    def count(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(simplex, "feasible_point", count)
    task = random_task(random.Random("blocks"), 6, 6)
    res = lp_feasible(kernel_polytope(task), build_pl_constraints(task, F(1, 4), F(1, 5)))
    assert res.feasible and len(calls) == 1


def chsh_rows(poly, win):
    """Average CHSH winning probability over the four settings >= win."""
    coeffs = [F(0)] * len(poly.variables)
    for j, name in enumerate(poly.variables):
        a, b, x, y = (int(v) for v in name[2:-1].replace("|", ",").split(","))
        if a ^ b == x & y:
            coeffs[j] = F(1, 4)
    return (LinearConstraint(tuple(coeffs), ">=", win),)


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 3)])
def test_no_signaling_polytopes_match_dense_reference(sizes):
    poly = no_signaling_polytope(*sizes)
    rows = [(c.coeffs, c.relation, c.rhs) for c in poly.constraints]
    point, pivots = dense_feasible_point(len(poly.variables), rows)
    res = lp_feasible(poly)
    assert res.feasible and res.pivots == pivots
    assert list(res.witness.values()) == point
    assert affine_dimension(poly) == dense_affine_dimension(poly)


@pytest.mark.parametrize("n_x, n_y, n_a, n_b, pivots", [(3, 3, 2, 2, 60), (2, 2, 3, 3, 31)])
def test_no_signaling_chsh_pivot_counts(n_x, n_y, n_a, n_b, pivots):
    """The benchmark's ns3322-chsh and ns2233-chsh LPs (win iff
    a - b = x*y mod n_a, epsilon 1/2, delta 0) take 60 and 31 pivots."""
    task = TaskSpec(
        [f"x{x}y{y}" for x in range(n_x) for y in range(n_y)],
        [f"a{a}b{b}" for a in range(n_a) for b in range(n_b)],
        [[F(int((a - b - x * y) % n_a == 0)) for a in range(n_a) for b in range(n_b)]
         for x in range(n_x) for y in range(n_y)],
    )
    res = lp_feasible(no_signaling_polytope(n_a, n_b, n_x, n_y), build_pl_constraints(task, F(1, 2), F(0)))
    assert res.feasible and res.pivots == pivots


@pytest.mark.parametrize("win, feasible", [(F(3, 4), True), (F(1), True), (F(101, 100), False)])
def test_chsh_rows_match_dense_reference(win, feasible):
    poly = no_signaling_polytope(2, 2, 2, 2)
    pl = chsh_rows(poly, win)
    rows = [(c.coeffs, c.relation, c.rhs) for c in poly.constraints + pl]
    point, pivots = dense_feasible_point(len(poly.variables), rows)
    res = lp_feasible(poly, pl)
    assert res.feasible is feasible and (point is not None) is feasible
    assert res.pivots == pivots > 0
    if feasible:
        assert list(res.witness.values()) == point
