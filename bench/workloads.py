"""Workload inputs, the fixed CLI call mix of each workload, and the
independent truth every report is checked against.

Each workload is built from ``random.Random(f"{name}:{seed}")`` only, so one
seed always gives the same files and the same calls.  ``plab`` sees nothing
but the generated files: every call is ``plab.cli.main(argv)`` with
``--config FILE --out REPORT``.

Truth is computed here without calling ``plab``: exact success probabilities
of the quantile learner in ``Fraction``s, closed-form LP and SDP thresholds,
exact re-checks of LP witnesses and a numeric re-check of SDP witnesses.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

WORKLOADS = ("learn", "lp", "quantum")
# Reference seconds (bench/timing.py) of one pass through each workload's
# mix at the commit the benchmark was written for; they set the pass count.
PASS_S = {"learn": 0.85, "lp": 5.5, "quantum": 8.8}

# An empirical success rate passes when it lies within this many binomial
# standard deviations of the exact success probability.
RATE_SIGMAS = 4.0
# Numeric tolerances for reports whose floats are pinned to 12 digits.
FLOAT_TOL = 1e-9
# plab documents that a "feasible" SDP witness meets every row within 1e-6.
SDP_WITNESS_TOL = 1e-6

# Cases whose wrong answer is a defect of plab known when the benchmark was
# written.  The call stays in the mix and is checked on every run; while it
# still gives exactly this answer it is reported as a known defect instead of
# failing the run.  Any other wrong answer fails the run, and a right answer
# is reported as fixed.
KNOWN_DEFECTS = {
    "sdp-trine-d0.333333": "feasible",
}


# wall_clock_s sorts last among a report's top-level keys
CLOCK_LINE = re.compile(r',\n  "wall_clock_s": [^\n]*')


def strip_clock(text: str) -> str:
    """Report text without its top-level wall_clock_s entry; still JSON."""
    return CLOCK_LINE.sub("", text)


@dataclass
class Outcome:
    """Result of checking one report.  ``known`` marks a failure that
    reproduces an entry of KNOWN_DEFECTS."""

    failed: bool = False
    known: bool = False
    undecided_ops: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed = True
        self.notes.append(note)


@dataclass
class Call:
    """One ``plab`` invocation of a workload's fixed mix."""

    id: str
    family: str
    argv: list[str]
    ops: int
    check: Callable[[dict], Outcome] = field(repr=False)

    def to_json(self) -> dict:
        return {"id": self.id, "family": self.family, "argv": self.argv, "ops": self.ops}


def _write(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def _config_call(workdir, cid, family, command, kind, parameters, seed, ops, check) -> Call:
    cfg = _write(workdir, f"cfg_{cid}.json", {"kind": kind, "parameters": parameters, "seed": seed})
    argv = [*command, "--config", cfg, "--out", f"report_{cid}.json"]
    return Call(cid, family, argv, ops, check)


# ---------------------------------------------------------------------------
# learn: quantile learner, coarse-grained learner, compression ERM


def quantile_success(weights, epsilon: Fraction, d: int):
    """Exact success probability 1 - F(t*-1)^d of the quantile learner, where
    t* is the smallest rank whose prefix mass reaches 1 - epsilon.

    ``weights`` are in rank order.  Fractions give an exact result; floats
    are summed left to right, which is how plab adds float masses.
    """
    target = 1 - epsilon
    prefix = Fraction(0) if isinstance(weights[0], Fraction) else 0.0
    for w in weights:
        if prefix + w >= target:
            return 1 - Fraction(prefix) ** d
        prefix += w
    raise ValueError("weights never reach 1 - epsilon")


def smallest_d(epsilon: Fraction, delta: Fraction) -> int:
    """Smallest d >= 1 with (1-epsilon)^d <= delta, exactly."""
    d = 1
    while (1 - epsilon) ** d > delta:
        d += 1
    return d


def required_n(m: int) -> int:
    """Smallest n meeting the three threshold conditions of the segment
    compression learner (m/n <= 1/6, 2 C(n,m) e^{-(n-m)/18} <= 1/6,
    e^{-n/18} <= 1/6), with the binomial coefficient as an exact integer."""
    n = m + 1
    while not (
        6 * m <= n
        and math.log(2 * math.comb(n, m)) - (n - m) / 18 <= math.log(1 / 6)
        and n >= 18 * math.log(6)
    ):
        n += 1
    return n


def _rate_check(out: Outcome, where: str, rate, p: Fraction, trials: int) -> None:
    p = float(p)
    sigma = math.sqrt(p * (1 - p) / trials)
    if not isinstance(rate, (int, float)) or abs(rate - p) > RATE_SIGMAS * sigma:
        out.fail(f"{where}: empirical_rate {rate!r} not within {RATE_SIGMAS:g} sigma of exact {p:.6f}")


def _report_points(report: dict) -> list[dict]:
    return [report["metrics"], *(report.get("sweep") or [])]


def _emx_check(weights, epsilon, delta, trials, ds):
    def check(report: dict) -> Outcome:
        out = Outcome()
        points = _report_points(report)
        if [pt["d"] for pt in points] != ds:
            out.fail(f"sample sizes {[pt['d'] for pt in points]} != {ds}")
            return out
        if report["metrics"]["sample_complexity"] != smallest_d(epsilon, delta):
            out.fail("sample_complexity differs from the exact smallest d")
        for pt in points:
            _rate_check(out, f"d={pt['d']}", pt["empirical_rate"], quantile_success(weights, epsilon, pt["d"]), trials)
            if abs(pt["bound"] - (1 - (1 - float(epsilon)) ** pt["d"])) > FLOAT_TOL:
                out.fail(f"d={pt['d']}: bound {pt['bound']} != 1-(1-eps)^d")
        return out

    return check


def _pushforward(points: list[str], weights: list[Fraction], bits: int) -> list[Fraction]:
    """Bin masses in bin order for x -> min(floor(2^bits x), 2^bits - 1)."""
    top = (1 << bits) - 1
    acc: dict[int, Fraction] = {}
    for x, w in zip(points, weights):
        b = min(math.floor(Fraction(x) * (1 << bits)), top)
        acc[b] = acc.get(b, Fraction(0)) + w
    return [acc[b] for b in sorted(acc)]


def _coarse_check(binned, epsilon, trials, bits, d):
    def check(report: dict) -> Outcome:
        out = Outcome()
        m = report["metrics"]
        if m["bits"] != bits or m["d"] != d:
            out.fail(f"report is for bits={m['bits']} d={m['d']}, expected bits={bits} d={d}")
            return out
        _rate_check(out, f"bits={bits}", m["empirical_rate"], quantile_success(binned, epsilon, d), trials)
        return out

    return check


def _compress_check(weights, epsilon, trials, m_keep):
    need = required_n(m_keep)

    def check(report: dict) -> Outcome:
        out = Outcome()
        m = report["metrics"]
        if m["required_n"] != need or m["n"] != need:
            out.fail(f"required_n {m['required_n']} / n {m['n']} != exact {need}")
            return out
        # With nested segment reconstructions the ERM output is the quantile
        # learner's, so the same exact success probability applies.
        _rate_check(out, f"m={m_keep}", m["empirical_rate"], quantile_success(weights, epsilon, need), trials)
        return out

    return check


def _rational_weights(counts: list[int]) -> list[Fraction]:
    total = sum(counts)
    return [Fraction(k, total) for k in counts]


def build_learn(seed: int, workdir: str) -> list[Call]:
    rng = random.Random(f"learn:{seed}")
    calls = []
    eps, dlt = Fraction(1, 20), Fraction(1, 10)
    d_star = smallest_d(eps, dlt)

    # emx, exact: 200 labels with non-uniform rational weights.  The exact
    # Fraction mass check is the dominant cost of this workload.
    labels = [f"x{i:03d}" for i in range(200)]
    exact = _rational_weights([rng.randint(1, 9) for _ in labels])
    _write(workdir, "dist_exact.json", {"labels": labels, "weights": [str(w) for w in exact]})
    trials, sweep = 150, [10, 20, d_star]
    calls.append(_config_call(
        workdir, "emx-exact", "emx", ["emx"], "emx",
        {"dist": "dist_exact.json", "epsilon": str(eps), "delta": str(dlt), "trials": trials, "sweep_d": sweep},
        rng.randrange(1 << 30), trials * (1 + len(sweep)),
        _emx_check(exact, eps, dlt, trials, [d_star, *sweep]),
    ))

    # emx, float weights: same layers, cheap float masses.
    raw = [rng.uniform(0.5, 1.5) for _ in labels]
    total = sum(raw)
    floats = [w / total for w in raw]
    _write(workdir, "dist_float.json", {"labels": labels, "weights": floats})
    trials = 600
    calls.append(_config_call(
        workdir, "emx-float", "emx", ["emx"], "emx",
        {"dist": "dist_float.json", "epsilon": str(eps), "delta": str(dlt), "trials": trials},
        rng.randrange(1 << 30), trials, _emx_check(floats, eps, dlt, trials, [d_star]),
    ))

    # coarse: ~200 points in [0,1]; bits 8 merges points into bins, bits 20
    # gives a 2^20-label alphabet.
    pts = sorted({f"{rng.randrange(1, 10**6) / 10**6:.6f}" for _ in range(200)})
    pw = _rational_weights([rng.randint(1, 9) for _ in pts])
    _write(workdir, "points.json", {"labels": pts, "weights": [str(w) for w in pw]})
    for bits, trials in ((8, 80), (20, 80)):
        calls.append(_config_call(
            workdir, f"coarse-b{bits}", "coarse", ["coarse"], "coarse",
            {"dist": "points.json", "bits": bits, "epsilon": str(eps), "delta": str(dlt), "trials": trials},
            rng.randrange(1 << 30), trials,
            _coarse_check(_pushforward(pts, pw, bits), eps, trials, bits, d_star),
        ))

    # compress --mode lemma1 at n = required_n(m): a 16-point support whose
    # last point carries a small mass, with epsilon below it, so success
    # needs the last point in the sample.  The ERM cost grows with the
    # square of the support size, so the size is fixed, not drawn.
    size = 16
    small = [rng.randint(5, 15) for _ in range(size - 1)] + [1]
    sw = _rational_weights(small)
    seps = sw[-1] / 2
    _write(workdir, "dist_small.json", {"labels": [f"y{i:02d}" for i in range(size)], "weights": [str(w) for w in sw]})
    for m_keep, trials in ((1, 200), (2, 30)):
        calls.append(_config_call(
            workdir, f"compress-m{m_keep}", "compress", ["compress"], "compress",
            {"mode": "lemma1", "m": m_keep, "dist": "dist_small.json", "epsilon": str(seps), "delta": "1/3", "trials": trials},
            rng.randrange(1 << 30), trials, _compress_check(sw, seps, trials, m_keep),
        ))
    return calls


# ---------------------------------------------------------------------------
# lp: exact LP decider on kernel polytopes and no-signaling polytopes


def _task_json(thetas, hyps, utility) -> dict:
    return {"thetas": thetas, "hyps": hyps, "utility": [[str(u) for u in row] for row in utility]}


def _pl_rows(utility, epsilon: Fraction, delta: Fraction):
    """Performance rows over environment-major kernel coordinates: the mass
    on each environment's epsilon-optimal hypotheses is at least 1-delta."""
    n_h = len(utility[0])
    width = len(utility) * n_h
    rows = []
    for i, row in enumerate(utility):
        cut = max(row) - epsilon
        coeffs = [Fraction(0)] * width
        for j, u in enumerate(row):
            if u >= cut:
                coeffs[i * n_h + j] = Fraction(1)
        rows.append((coeffs, ">=", 1 - delta))
    return rows


def _satisfied(coeffs, rel, rhs, x) -> bool:
    lhs = sum(c * v for c, v in zip(coeffs, x) if c)
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _lp_check(variables, rows, feasible: bool):
    def check(report: dict) -> Outcome:
        out = Outcome()
        verdict = report["metrics"]["verdict"]
        if verdict != ("feasible" if feasible else "infeasible"):
            out.fail(f"verdict {verdict!r}, closed form says {'feasible' if feasible else 'infeasible'}")
            return out
        if feasible:
            witness = report["metrics"].get("witness") or {}
            if sorted(witness) != sorted(variables):
                out.fail("witness does not name every variable")
                return out
            x = [Fraction(witness[v]) for v in variables]
            bad = sum(1 for row in rows if not _satisfied(*row, x))
            if bad:
                out.fail(f"witness violates {bad} rows exactly")
        return out

    return check


def kernel_rows(n_env: int, n_h: int):
    """Nonnegativity and per-environment normalization rows."""
    width = n_env * n_h
    rows = []
    for j in range(width):
        coeffs = [Fraction(0)] * width
        coeffs[j] = Fraction(1)
        rows.append((coeffs, ">=", Fraction(0)))
    for i in range(n_env):
        coeffs = [Fraction(0)] * width
        for j in range(i * n_h, (i + 1) * n_h):
            coeffs[j] = Fraction(1)
        rows.append((coeffs, "=", Fraction(1)))
    return rows


def no_signaling_rows(n_x: int, n_y: int, n_a: int, n_b: int):
    """Variables p[a,b|x,y] (settings outer, outcomes inner) and the rows of
    the no-signaling polytope: nonnegativity, normalization per setting pair,
    and marginals that ignore the other party's setting."""
    variables = [f"p[{a},{b}|{x},{y}]" for x in range(n_x) for y in range(n_y) for a in range(n_a) for b in range(n_b)]
    pos = {v: j for j, v in enumerate(variables)}
    rows = kernel_rows(n_x * n_y, n_a * n_b)

    def row(terms):
        coeffs = [Fraction(0)] * len(variables)
        for sign, a, b, x, y in terms:
            coeffs[pos[f"p[{a},{b}|{x},{y}]"]] += sign
        return (coeffs, "=", Fraction(0))

    for b in range(n_b):
        for y in range(n_y):
            for x in range(1, n_x):
                rows.append(row([(1, a, b, 0, y) for a in range(n_a)] + [(-1, a, b, x, y) for a in range(n_a)]))
    for a in range(n_a):
        for x in range(n_x):
            for y in range(1, n_y):
                rows.append(row([(1, a, b, x, 0) for b in range(n_b)] + [(-1, a, b, x, y) for b in range(n_b)]))
    return variables, rows


def build_lp(seed: int, workdir: str) -> list[Call]:
    rng = random.Random(f"lp:{seed}")
    calls = []
    eps, dlt = Fraction(1, 4), Fraction(1, 5)

    # Kernel polytopes of random rational-utility tasks.  Every row has
    # exactly two utilities within epsilon of its maximum, so the LP size is
    # fixed and only the positions vary with the seed.  Always feasible (all
    # mass on the argmax) and separable per environment.  The 4x4 task makes
    # the mix odd-sized, so the median call is one call, not the mean of two.
    for n in (4, 8, 12, 16):
        utility = []
        for _ in range(n):
            row = [Fraction(rng.randint(0, 6), 12) for _ in range(n)]
            for j in rng.sample(range(n), 2):
                row[j] = Fraction(rng.randint(11, 12), 12)
            utility.append(row)
        thetas, hyps = [f"t{i}" for i in range(n)], [f"h{j}" for j in range(n)]
        task = _write(workdir, f"task_k{n}.json", _task_json(thetas, hyps, utility))
        variables = [f"q[{h}|{t}]" for t in thetas for h in hyps]
        rows = kernel_rows(n, n) + _pl_rows(utility, eps, dlt)
        calls.append(_config_call(
            workdir, f"kernel-{n}x{n}", "kernel", ["feasible", "lp"], "feasible-lp",
            {"task": task, "epsilon": str(eps), "delta": str(dlt)},
            rng.randrange(1 << 30), 1, _lp_check(variables, rows, True),
        ))

    # No-signaling polytopes, sizes written (n_x, n_y, n_a, n_b).
    for n_x, n_y, n_a, n_b in ((2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3, 3)):
        size = f"{n_x}{n_y}{n_a}{n_b}"
        variables, ns_rows = no_signaling_rows(n_x, n_y, n_a, n_b)
        poly = _write(workdir, f"poly_{size}.json", {
            "variables": variables,
            "constraints": [{"coeffs": [str(c) for c in co], "relation": rel, "rhs": str(rhs)} for co, rel, rhs in ns_rows],
        })
        thetas = [f"x{x}y{y}" for x in range(n_x) for y in range(n_y)]
        hyps = [f"a{a}b{b}" for a in range(n_a) for b in range(n_b)]

        def utility_of(win):
            return [[Fraction(int(win(a, b, x, y))) for a in range(n_a) for b in range(n_b)] for x in range(n_x) for y in range(n_y)]

        # The games are fixed: relabelled variants cost the simplex up to 3x
        # more or less, which would make the timing a function of the seed.
        # CHSH-type: win iff a - b = x*y (mod n_a).  A Popescu-Rohrlich-type
        # box wins every round, so delta = 0 is feasible.
        chsh = utility_of(lambda a, b, x, y: (a - b - x * y) % n_a == 0)
        # Bob guesses Alice's setting: b = x (mod n_b).  Bob's marginal cannot
        # depend on x, so this is infeasible iff delta < 1 - 1/min(n_x, n_b).
        other = utility_of(lambda a, b, x, y: b == x % n_b)
        threshold = 1 - Fraction(1, min(n_x, n_b))
        cases = [("chsh", chsh, Fraction(0)), ("guess", other, Fraction(2, 5)), ("guess", other, Fraction(3, 5))]
        for game, utility, delta in cases:
            cid = f"ns{size}-{game}-d{delta}".replace("/", "_")
            task = _write(workdir, f"task_{cid}.json", _task_json(thetas, hyps, utility))
            rows = ns_rows + _pl_rows(utility, Fraction(1, 2), delta)
            feasible = game == "chsh" or delta >= threshold
            calls.append(_config_call(
                workdir, cid, f"ns-{game}", ["feasible", "lp"], "feasible-lp",
                {"task": task, "polytope": poly, "epsilon": "1/2", "delta": str(delta)},
                rng.randrange(1 << 30), 1, _lp_check(variables, rows, feasible),
            ))
    return calls


# ---------------------------------------------------------------------------
# quantum: d-copy discrimination and the projection SDP decider


def delta_min(gamma: float, d: int) -> float:
    """Least worst-case error of a two-state test on d copies of pure states
    with overlap gamma (Helstrom): (1 - sqrt(1 - gamma^(2d))) / 2."""
    return (1.0 - math.sqrt(1.0 - gamma ** (2 * d))) / 2.0


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= FLOAT_TOL


def _discriminate_check(gamma: float, copies: list[int], delta: float):
    def check(report: dict) -> Outcome:
        out = Outcome()
        points = _report_points(report)
        if [pt["copies"] for pt in points] != copies:
            out.fail(f"copies {[pt['copies'] for pt in points]} != {copies}")
            return out
        for pt in points:
            d = pt["copies"]
            dist = 2.0 * math.sqrt(1.0 - gamma ** (2 * d))
            if not _close(pt["achieved"], pt["bound"]):
                out.fail(f"d={d}: achieved {pt['achieved']} != bound {pt['bound']}")
            if not (_close(pt["trace_distance"], pt["formula"]) and _close(pt["formula"], dist)):
                out.fail(f"d={d}: trace_distance {pt['trace_distance']} / formula {pt['formula']} != {dist}")
            if not (_close(pt["bound"], 1.0 + dist / 2.0) and _close(pt["delta_min"], delta_min(gamma, d))):
                out.fail(f"d={d}: bound or delta_min off the closed form")
        # d_min: the fewest copies whose least error is at most delta
        d_min = report["metrics"]["d_min"]
        if not (delta_min(gamma, d_min) <= delta and (d_min == 1 or delta_min(gamma, d_min - 1) > delta)):
            out.fail(f"d_min {d_min} is not the fewest copies reaching delta={delta}")
        return out

    return check


def _state_json(rho: np.ndarray) -> dict:
    return {"dim": rho.shape[0], "entries": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def _pure(ket) -> np.ndarray:
    v = np.asarray(ket, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _kron_power(rho: np.ndarray, d: int) -> np.ndarray:
    out = rho
    for _ in range(d - 1):
        out = np.kron(out, rho)
    return out


def _sdp_check(states, delta: Fraction, threshold: Fraction | float, d: int):
    feasible = delta >= threshold

    def check(report: dict) -> Outcome:
        out = Outcome()
        verdict = report["metrics"]["verdict"]
        if verdict == "undetermined":
            out.undecided_ops = 1
            return out
        if verdict not in ("feasible", "infeasible"):
            out.fail(f"unknown verdict {verdict!r}")
            return out
        if verdict == "feasible":
            # Re-validate the reported POVM: PSD, complete, and every
            # environment's success (identity task) within plab's documented
            # witness tolerance of 1 - delta.
            elems = [np.array([[complex(re, im) for re, im in row] for row in e])
                     for e in report["metrics"]["witness"]["elements"]]
            dim = elems[0].shape[0]
            if min(float(np.linalg.eigvalsh((e + e.conj().T) / 2).min()) for e in elems) < -FLOAT_TOL:
                out.fail("witness element is not PSD")
            if float(np.abs(sum(elems) - np.eye(dim)).max()) > FLOAT_TOL:
                out.fail("witness elements do not sum to the identity")
            worst = min(float(np.trace(e @ _kron_power(rho, d)).real) for e, rho in zip(elems, states))
            if worst < 1 - float(delta) - SDP_WITNESS_TOL:
                out.fail(f"witness success {worst:.9f} below 1-delta={1 - float(delta):.9f}")
        if verdict != ("feasible" if feasible else "infeasible"):
            out.fail(f"verdict {verdict!r} but delta={delta} is {'above' if feasible else 'below'} the threshold {float(threshold):.9f}")
        return out

    return check


def _identity_task(n: int) -> dict:
    return _task_json([f"t{i}" for i in range(n)], [f"h{i}" for i in range(n)],
                      [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def _random_unitary(rng: random.Random) -> np.ndarray:
    """Haar-distributed 2x2 unitary from four Gaussian draws."""
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)])
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_quantum(seed: int, workdir: str) -> list[Call]:
    rng = random.Random(f"quantum:{seed}")
    calls = []

    # Half 1: discrimination sweeps over copies 1..8 (tensor powers up to
    # dimension 256); the cost does not depend on the overlap.
    copies = list(range(1, 9))
    for i in range(10):
        gamma = round(rng.uniform(0.3, 0.95), 4)
        calls.append(_config_call(
            workdir, f"discriminate-{i}", "discriminate", ["quantum", "discriminate"], "quantum",
            {"op": "discriminate", "gamma": gamma, "copies": 1, "delta": 0.05, "sweep_copies": copies},
            rng.randrange(1 << 30), 1 + len(copies), _discriminate_check(gamma, [1, *copies], 0.05),
        ))

    # Half 2: SDP decisions with closed-form thresholds, each on both sides
    # of its threshold at a fixed relative margin.
    def sdp_call(cid, family, states, threshold, delta, d=1):
        sdir = f"states_{cid}"
        os.makedirs(os.path.join(workdir, sdir), exist_ok=True)
        for k, rho in enumerate(states):
            _write(workdir, os.path.join(sdir, f"t{k}.json"), _state_json(rho))
        task = _write(workdir, f"task_id{len(states)}.json", _identity_task(len(states)))
        return _config_call(
            workdir, cid, family, ["feasible", "sdp"], "feasible-sdp",
            {"task": task, "states": sdir, "copies": d, "epsilon": "1/2", "delta": str(delta)},
            rng.randrange(1 << 30), 1, _sdp_check(states, delta, threshold, d),
        )

    # Qubit pairs with overlap gamma at d copies: threshold delta_min(gamma, d).
    # The overlaps are fixed: the sweeps to a witness, hence the cost, depend
    # on them.
    for i, gamma in enumerate((0.85, 0.92)):
        pair = [_pure([1.0, 0.0]), _pure([gamma, math.sqrt(1.0 - gamma * gamma)])]
        for d in range(1, 7):
            th = delta_min(gamma, d)
            for side, factor in (("below", 0.9), ("above", 1.1)):
                delta = Fraction(f"{th * factor:.9f}")
                calls.append(sdp_call(f"sdp-pair{i}-d{d}-{side}", "sdp-pair", pair, th, delta, d))

    # Trine (threshold 1/3) and tetrahedron (1/2), randomly rotated.
    u = _random_unitary(rng)
    trine = [u @ _pure([math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)]) @ u.conj().T for k in range(3)]
    for text in ("0.3133", "0.3533", "0.3333", "0.333333"):
        calls.append(sdp_call(f"sdp-trine-d{text}", "sdp-trine", trine, Fraction(1, 3), Fraction(text)))
    u = _random_unitary(rng)
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    r2 = math.sqrt(2.0)
    bloch = [(0, 0, 1), (2 * r2 / 3, 0, -1 / 3), (-r2 / 3, math.sqrt(2 / 3), -1 / 3), (-r2 / 3, -math.sqrt(2 / 3), -1 / 3)]
    tet = [u @ ((np.eye(2) + sum(c * p for c, p in zip(v, paulis))) / 2) @ u.conj().T for v in bloch]
    for text in ("0.48", "0.52"):
        calls.append(sdp_call(f"sdp-tetra-d{text}", "sdp-tetra", tet, Fraction(1, 2), Fraction(text)))
    return calls


GENERATORS = {"learn": build_learn, "lp": build_lp, "quantum": build_quantum}


def build(name: str, seed: int, workdir: str) -> list[Call]:
    """Write the inputs of workload ``name`` into ``workdir`` and return its
    fixed call mix."""
    return GENERATORS[name](seed, workdir)
