"""The output checks bite: wrong verdicts, bad witnesses and off rates fail,
undetermined SDP answers count as undecided, and a registered known defect
is reported without failing the run."""

import json
from fractions import Fraction as F

import numpy as np

import run
import workloads


def _lp_report(verdict, witness=None):
    metrics = {"verdict": verdict}
    if witness is not None:
        metrics["witness"] = {k: str(v) for k, v in witness.items()}
    return {"metrics": metrics}


def test_lp_check_rejects_wrong_verdicts_and_bad_witnesses():
    variables = ["q[h0|t0]", "q[h1|t0]"]
    rows = workloads.kernel_rows(1, 2) + workloads._pl_rows([[F(1), F(0)]], F(1, 4), F(1, 5))
    check = workloads._lp_check(variables, rows, feasible=True)
    assert not check(_lp_report("feasible", {"q[h0|t0]": F(1), "q[h1|t0]": F(0)})).failed
    assert check(_lp_report("feasible", {"q[h0|t0]": F(1, 2), "q[h1|t0]": F(1, 2)})).failed
    assert check(_lp_report("infeasible")).failed
    assert not workloads._lp_check(variables, rows, feasible=False)(_lp_report("infeasible")).failed


def test_no_signaling_rows_accept_a_pr_box():
    variables, rows = workloads.no_signaling_rows(2, 2, 2, 2)
    box = {f"p[{a},{b}|{x},{y}]": F(1, 2) if (a ^ b) == x * y else F(0)
           for x in range(2) for y in range(2) for a in range(2) for b in range(2)}
    point = [box[v] for v in variables]
    assert all(workloads._satisfied(*row, point) for row in rows)


def test_rate_check_uses_the_exact_probability():
    weights = [F(1, 2), F(1, 4), F(1, 4)]
    p = workloads.quantile_success(weights, F(1, 3), 3)  # 7/8
    check = workloads._emx_check(weights, F(1, 3), F(1, 3), 400, [3])
    good = {"metrics": {"d": 3, "empirical_rate": 0.875, "bound": 1 - (2 / 3) ** 3, "sample_complexity": 3}}
    bad = {"metrics": {**good["metrics"], "empirical_rate": 0.70}}
    assert float(p) == 0.875
    assert not check(good).failed
    assert check(bad).failed


def _sdp_report(verdict, elements=None):
    metrics = {"verdict": verdict}
    if elements is not None:
        metrics["witness"] = {"elements": [[[[z.real, z.imag] for z in row] for row in e] for e in elements]}
    return {"metrics": metrics}


def test_sdp_check_sides_witnesses_and_undecided():
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    check = workloads._sdp_check([zero, one], F(1, 5), 0.0, 1)
    assert not check(_sdp_report("feasible", [zero, one])).failed
    assert check(_sdp_report("feasible", [np.eye(2) / 2, np.eye(2) / 2])).failed  # success 1/2 < 4/5
    assert check(_sdp_report("infeasible")).failed
    undecided = check(_sdp_report("undetermined"))
    assert undecided.undecided_ops == 1 and not undecided.failed


def _fake_call(cid, verdict):
    call = workloads.Call(cid, "sdp", [], 1, lambda report: workloads.Outcome(failed=report["metrics"]["verdict"] != "infeasible"))
    text = json.dumps({"metrics": {"verdict": verdict}})
    return call, text


def test_known_defect_is_reported_but_does_not_fail_the_run():
    (cid,) = workloads.KNOWN_DEFECTS
    call, text = _fake_call(cid, workloads.KNOWN_DEFECTS[cid])
    result = {"variants": {cid: [text]},
              "passes": [{"kind": k, "rcs": [0], "variant": [0]} for k in ("warmup", "timed", "timed")]}
    tally = run.check_calls([call], result)
    assert tally["correct"] and tally["failed"] == 0 and tally["known"] == 2
    assert tally["failed_share"] == 1.0 and tally["known_defects"] == [cid]

    other, text = _fake_call("some-other-call", "feasible")
    result["variants"] = {"some-other-call": [text]}
    tally = run.check_calls([other], result)
    assert not tally["correct"] and tally["failed"] == 2


def test_a_failed_check_without_a_verdict_fails_the_run():
    # emx, coarse, compress and discriminate reports carry no verdict; a
    # failed check on them must not pass for a known defect
    weights = [F(1, 2), F(1, 4), F(1, 4)]
    check = workloads._emx_check(weights, F(1, 3), F(1, 3), 400, [3])
    call = workloads.Call("emx-off-rate", "emx", [], 400, check)
    text = json.dumps({"metrics": {"d": 3, "empirical_rate": 0.70, "bound": 1 - (2 / 3) ** 3,
                                   "sample_complexity": 3}})
    result = {"variants": {call.id: [text]},
              "passes": [{"kind": k, "rcs": [0], "variant": [0]} for k in ("warmup", "timed")]}
    tally = run.check_calls([call], result)
    assert not tally["correct"] and tally["failed"] == call.ops and tally["known_defects"] == []

    malformed = {"variants": {call.id: ["{}"]}, "passes": result["passes"]}
    tally = run.check_calls([call], malformed)
    assert not tally["correct"] and tally["failed"] == call.ops and tally["known_defects"] == []


def test_a_crashing_call_fails_all_its_ops():
    call, _ = _fake_call("crash", "infeasible")
    call.ops = 5
    result = {"variants": {"crash": []},
              "passes": [{"kind": "timed", "rcs": ["raised RuntimeError: boom"], "variant": [-1]}]}
    tally = run.check_calls([call], result)
    assert not tally["correct"] and tally["failed"] == 5 and tally["attempted"] == 5
