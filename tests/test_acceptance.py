"""End-to-end acceptance runs, one test per headline guarantee.

Each test prints a PASS line with its measured quantities (visible with -s;
`pytest -v` gives the per-criterion pass/fail lines).  Monte Carlo floors use
3-sigma slack at the stated trial counts with fixed seeds; exact-arithmetic
checks use zero tolerance.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from plab.compression import (
    check_monotone_coverage,
    compression_learner,
    required_n,
    segment_scheme,
)
from plab.coarse import UniformBinsMap, pushforward
from plab.emx import (
    FinSupportDist,
    IndexedDomain,
    SegmentLearner,
    mass,
    quantile_learn,
    sample_complexity,
    verify_guarantee,
)
from plab.feasibility import (
    LinearConstraint,
    _violated,
    PolytopeSpec,
    build_pl_constraints,
    kernel_polytope,
    kernel_variables,
    lp_feasible,
    no_signaling_polytope,
    sdp_feasible,
)
from plab.quantum import (
    DensityMatrix,
    Povm,
    copies_min,
    delta_min,
    helstrom,
    pure_distance_formula,
    tensor_power,
    trace_distance,
)
from plab.tasks import TaskSpec
from oracles import (
    PulledBackHypothesis,
    born_table,
    discrimination_sum,
    learner_to_compression,
    segment_learn,
    signaling,
)
from random_fixtures import draw_sample, random_density_matrix, random_povm, random_pure_state

F = Fraction
THIRD = F(1, 3)


def uniform_nine():
    return FinSupportDist.uniform(tuple("abcdefghi"))

def geometric_tail():
    # halving weights, final point absorbs the leftover 2^-11
    labels = [f"g{k:02d}" for k in range(1, 13)]
    weights = [F(1, 2**k) for k in range(1, 12)] + [F(1, 2**11)]
    return FinSupportDist(labels, weights)

def two_tier():
    # one heavy point just below the 2/3 cut plus a flat tail
    labels = ["head"] + [f"s{k:02d}" for k in range(34)]
    return FinSupportDist(labels, [F(33, 50)] + [F(1, 100)] * 34)


def test_quantile_learner_sample_complexity_and_success_floor():
    """d=3 at eps=delta=1/3; empirical success >= 0.690 on three distribution
    shapes, 10,000 trials each, under 5 seconds."""
    assert sample_complexity(THIRD, THIRD) == 3

    t0 = time.perf_counter()
    rates = {}
    for name, P in [("uniform-9", uniform_nine()),
                    ("geometric-tail", geometric_tail()),
                    ("two-tier", two_tier())]:
        dom = IndexedDomain(P.support)
        (rep,) = verify_guarantee(
            [(lambda s, dom=dom: quantile_learn(s, dom), 3)], P, THIRD, THIRD, trials=10_000, seed=20177,
        )
        assert rep.bound == pytest.approx(1.0 - (2.0 / 3.0) ** 3)
        assert rep.empirical_rate >= 0.690, (name, rep.empirical_rate)
        rates[name] = rep.empirical_rate
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS quantile floor: {rates} in {elapsed:.2f}s")


def test_coarse_graining_mass_identity_is_exact():
    """200 random rational distributions under 8-bit bins: pulled-back mass
    equals pushed-forward mass with zero tolerance, under 2 seconds."""
    rng = np.random.default_rng(7)
    pi = UniformBinsMap(8)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 25))
        pts = tuple(float(x) for x in np.unique(rng.random(n)))
        raw = [int(v) for v in rng.integers(1, 12, size=len(pts))]
        P = FinSupportDist(pts, [F(v, sum(raw)) for v in raw])
        Q = pushforward(P, pi)
        cells = frozenset(
            int(b) for b in rng.choice(256, size=int(rng.integers(1, 64)), replace=False)
        )
        lhs, rhs = mass(P, PulledBackHypothesis(cells, pi)), mass(Q, cells)
        assert isinstance(lhs, F) and isinstance(rhs, F)
        assert lhs == rhs
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(f"PASS exact identity: 200 instances in {elapsed:.2f}s")


def test_finite_precision_learner_success_floor():
    """SegmentLearner behind an 8-bit map at eps=delta=1/3, d=3: success rate
    >= 2/3 - 3sigma over 10,000 trials.  The learner is called on labels by
    ``segment_learn``, so every trial runs on labels through the map."""
    trials = 10_000
    P = FinSupportDist.uniform([k / 20 for k in range(20)])
    pi = UniformBinsMap(8)
    learner = SegmentLearner(pi.domain, pi)
    (rep,) = verify_guarantee(
        [(lambda s: segment_learn(learner, s), 3)], P, THIRD, THIRD, trials=trials, seed=31,
    )
    floor = 2.0 / 3.0 - 3.0 * math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / trials)
    assert rep.empirical_rate >= floor
    print(f"PASS finite precision: rate {rep.empirical_rate:.4f} >= {floor:.4f}")


def test_compression_threshold_erm_learner_and_leave_one_out_coverage():
    """required_n(1)=134; ERM over reconstructions clears 2/3 - 3sigma at
    2,000 trials; the d=3 scheme (keep 5 of 6) covers 500 random instances;
    all under 60 seconds."""
    t0 = time.perf_counter()
    assert required_n(1) == 134

    P = FinSupportDist.uniform([f"p{k:02d}" for k in range(20)])
    dom = IndexedDomain(P.support)
    scheme = segment_scheme(dom, 1)
    trials, n, wins = 2_000, required_n(1), 0
    for k in range(trials):
        S = draw_sample(P, n, seed=53, stream=(k,))
        if mass(P, compression_learner(scheme, S, dom)) >= 1 - THIRD:
            wins += 1
    rate = wins / trials
    floor = 2.0 / 3.0 - 3.0 * math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / trials)
    assert rate >= floor

    dom9 = IndexedDomain(tuple("abcdefghi"))
    six_scheme = learner_to_compression(lambda t: quantile_learn(t, dom9), 3, dom9)
    assert (six_scheme.m_in, six_scheme.m_out) == (6, 5)
    U = FinSupportDist.uniform(dom9.labels)
    failures = 0
    for k in range(500):
        pts = draw_sample(U, 6, seed=67, stream=(k,))
        if check_monotone_coverage(six_scheme, pts) is None:
            failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"PASS compression: ERM rate {rate:.4f}, 0/500 coverage failures, {elapsed:.1f}s")


def test_pure_state_distance_matches_closed_form():
    """Numeric trace distance vs 2*sqrt(1-gamma^(2d)) within 1e-9 on 100
    random overlap/copy-count pairs."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.random())
        d = int(rng.integers(1, 6))
        r0 = DensityMatrix.pure([1.0, 0.0])
        r1 = DensityMatrix.pure([gamma, math.sqrt(1.0 - gamma * gamma)])
        numeric = trace_distance(tensor_power(r0, d), tensor_power(r1, d))
        worst = max(worst, abs(numeric - pure_distance_formula(gamma, d)))
    assert worst < 1e-9
    print(f"PASS distance formula: worst deviation {worst:.2e}")


def test_helstrom_measurement_saturates_and_bounds():
    """The constructed measurement achieves 1 + ||Delta||_1/2 within 1e-9;
    1,000 random POVMs stay below the bound; the sqrt(2)-overlap single-copy
    sum is 1.707107 +- 1e-6."""
    rng = np.random.default_rng(13)
    for dim, d in itertools.product((2, 3, 4), (1, 2, 3)):
        if dim**d > 64:
            continue
        r0 = random_density_matrix(dim, rng)
        r1 = DensityMatrix.pure(random_pure_state(dim, rng))
        t0, t1 = tensor_power(r0, d), tensor_power(r1, d)
        povm, distance = helstrom(t0, t1)
        achieved = discrimination_sum(povm, t0, t1)
        assert abs(achieved - (1.0 + 0.5 * distance)) < 1e-9

    g = 1.0 / math.sqrt(2.0)
    r0 = DensityMatrix.pure([1.0, 0.0])
    r1 = DensityMatrix.pure([g, g])
    t0, t1 = tensor_power(r0, 2), tensor_power(r1, 2)
    bound = 1.0 + 0.5 * helstrom(t0, t1)[1]
    excess = 0.0
    for _ in range(1_000):
        m = random_povm(4, 2, rng)
        excess = max(excess, discrimination_sum(m, t0, t1) - bound)
    assert excess <= 1e-9

    single = discrimination_sum(helstrom(r0, r1)[0], r0, r1)
    assert abs(single - 1.707107) <= 1e-6
    print(f"PASS helstrom: single-copy sum {single:.7f}, max POVM excess {excess:.2e}")


def test_copy_complexity_and_sdp_bisection_threshold():
    """d_min(0.9, 0.05) = 8 with the error curve crossing between 7 and 8;
    bisection on SDP verdicts recovers the 0.146447 feasibility threshold of
    the sqrt(2)-overlap instance within 1e-3."""
    assert copies_min(0.9, 0.05) == 8
    assert delta_min(0.9, 7) > 0.05 >= delta_min(0.9, 8)

    task = TaskSpec(["t0", "t1"], ["h0", "h1"], [[1, 0], [0, 1]])
    states = [DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([1.0, 1.0])]
    lo, hi = 0.0, 0.5
    for _ in range(11):
        mid = (lo + hi) / 2.0
        res = sdp_feasible(states, task, F(1, 2), mid)
        assert res.verdict in ("feasible", "infeasible"), res.verdict
        if res.verdict == "feasible":
            hi = mid
        else:
            lo = mid
    threshold = (lo + hi) / 2.0
    target = (1.0 - math.sqrt(0.5)) / 2.0  # 0.14644660...
    assert abs(threshold - 0.146447) <= 1e-3
    print(f"PASS copy complexity: bisected threshold {threshold:.6f} vs {target:.6f}")


def test_lp_decider_verdicts_and_monotonicity():
    """Identity instance feasible with an exact witness, the constant-kernel
    variant at delta=0.2 infeasible, and 100 random instances obey relaxation
    monotonicity, under 10 seconds."""
    t0 = time.perf_counter()
    task = TaskSpec(["t0", "t1"], ["h0", "h1"], [[1, 0], [0, 1]])
    rows = build_pl_constraints(task, F(1, 2), F(1, 5))
    res = lp_feasible(kernel_polytope(task), rows)
    assert res.feasible
    point = [res.witness[v] for v in kernel_variables(task)]
    assert _violated(rows, point) == []

    base = kernel_polytope(task)
    names = kernel_variables(task)
    tie_rows = []
    for h in ("h0", "h1"):
        coeffs = [F(0)] * 4
        coeffs[names.index(f"q[{h}|t0]")] = F(1)
        coeffs[names.index(f"q[{h}|t1]")] = F(-1)
        tie_rows.append(LinearConstraint(tuple(coeffs), "=", F(0)))
    tied = PolytopeSpec(base.variables, tuple(base.constraints) + tuple(tie_rows))
    assert not lp_feasible(tied, rows).feasible

    rng = np.random.default_rng(17)
    violations = mixed = 0
    for _ in range(100):
        n_t, n_h = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        util = [[F(int(v), 12) for v in rng.integers(0, 13, n_h)] for _ in range(n_t)]
        t = TaskSpec([f"t{i}" for i in range(n_t)], [f"h{j}" for j in range(n_h)], util)
        poly = kernel_polytope(t)
        vnames = kernel_variables(t)
        # shrink the admissible set with random caps / cross-environment ties
        extra = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                h = f"h{int(rng.integers(n_h))}"
                i, j = rng.choice(n_t, size=2, replace=False)
                row = [F(0)] * len(vnames)
                row[vnames.index(f"q[{h}|t{i}]")] = F(1)
                row[vnames.index(f"q[{h}|t{j}]")] = F(-1)
                extra.append(LinearConstraint(tuple(row), "=", F(0)))
            else:
                v = int(rng.integers(len(vnames)))
                row = [F(0)] * len(vnames)
                row[v] = F(1)
                cap = F(int(rng.integers(0, 3)), 5)
                extra.append(LinearConstraint(tuple(row), "<=", cap))
        shrunk = PolytopeSpec(poly.variables, tuple(poly.constraints) + tuple(extra))

        tight = lp_feasible(shrunk, build_pl_constraints(t, F(1, 4), F(1, 10)))
        if tight.feasible:
            # delta-monotonicity on the same admissible set
            if not lp_feasible(shrunk, build_pl_constraints(t, F(1, 4), F(1, 5))).feasible:
                violations += 1
            # admissibility-monotonicity: superset polytope stays feasible
            if not lp_feasible(poly, build_pl_constraints(t, F(1, 4), F(1, 10))).feasible:
                violations += 1
        else:
            mixed += 1
    assert violations == 0
    assert 0 < mixed < 100  # the random family exercises both verdicts
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS lp decider: 0/100 monotonicity violations in {elapsed:.2f}s")


def chsh_wins(a: int, b: int, x: int, y: int) -> bool:
    """The CHSH game, settings uniform: the parties win iff a XOR b = x AND y."""
    return a ^ b == x & y


def test_chsh_hierarchy_local_quantum_no_signaling():
    """CHSH separates three access models: local strategies reach 3/4
    exactly and no-signaling boxes reach 1 exactly (the PR box), both
    decided by plab's exact LP (over the 16 deterministic strategies, and
    over ``no_signaling_polytope``), and Tsirelson's quantum strategy, its
    table from the ``born_table`` reference, reaches cos^2(pi/8) strictly
    in between."""
    settings4 = list(itertools.product(range(2), repeat=2))
    # local: a = f(x), b = g(y), one kernel coordinate per strategy (f, g)
    strategies = list(itertools.product(itertools.product(range(2), repeat=2), repeat=2))
    wins = [F(sum(chsh_wins(f[x], g[y], x, y) for x, y in settings4), 4) for f, g in strategies]
    local = kernel_polytope(TaskSpec(["chsh"], [f"f{f}g{g}" for f, g in strategies], [wins]))

    def local_row(delta):
        return LinearConstraint(wins, ">=", 1 - delta)

    assert lp_feasible(local, [local_row(F(1, 4))]).feasible
    assert not lp_feasible(local, [local_row(F(1, 4) - F(1, 10**9))]).feasible

    # no-signaling: the CHSH row over p(a,b|x,y), feasible at delta = 0
    boxes = no_signaling_polytope(2, 2, 2, 2)
    cells = [(a, b, x, y) for x, y in settings4 for a in range(2) for b in range(2)]  # the polytope's order
    row = LinearConstraint([F(1, 4) if chsh_wins(*c) else 0 for c in cells], ">=", 1)
    result = lp_feasible(boxes, [row])
    assert result.feasible
    assert list(result.witness.values()) == [F(1, 2) if chsh_wins(*c) else 0 for c in cells]  # the PR box

    # quantum: Phi+ with Z, X against (Z + X)/sqrt2, (Z - X)/sqrt2
    z, xm = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])

    def observable(o):
        return Povm([(np.eye(2) + o) / 2, (np.eye(2) - o) / 2])

    phi = DensityMatrix.pure(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    table = born_table(phi, [observable(z), observable(xm)],
                       [observable((z + xm) / math.sqrt(2.0)), observable((z - xm) / math.sqrt(2.0))])
    assert signaling(table) <= 1e-10
    value = sum(table[a, b, x, y] for a, b, x, y in cells if chsh_wins(a, b, x, y)) / 4
    assert value == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert 3 / 4 < value < 1
    print(f"PASS CHSH: local 3/4, quantum {value:.5f}, no-signaling 1 ({result.pivots} pivots)")
