"""Traced-run plumbing: wrappers reach every namespace that binds a name,
originals come back, and two traced runs of one seed count the same work."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import plab.cli  # noqa: F401  (imports every plab module)
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"

COUNTS = (
    "emx.mass.calls", "emx.mass.points_scanned", "emx.substream.calls", "coarse.map.calls",
    "compression.learner.calls", "compression.reconstruct.calls", "simplex.feasible_point.calls",
    "simplex.tableau_cells", "feasibility.sdp_feasible.calls", "feasibility.sdp.sweeps",
    "feasibility.sdp.eig_calls", "quantum.tensor_power.calls", "quantum.tensor_power.bytes_computed",
    "quantum.eig_calls", "cli.main.calls",
)


def _bindings() -> dict:
    """Identity of every attribute the tracer may replace."""
    out = {}
    for short in spans.PLAB_MODULES:
        mod = sys.modules[f"plab.{short}"]
        out.update({(short, k): v for k, v in vars(mod).items()})
        for cls_name, attrs in spans.METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            out.update({(short, cls_name, a): cls.__dict__[a] for a in attrs})
    out.update({("numpy", a): getattr(np.linalg, a) for a in spans.EIG_FUNCTIONS})
    return out


def test_wrappers_reach_every_binding_and_are_removed():
    before = _bindings()
    original = plab.quantum.tensor_power
    assert plab.feasibility.tensor_power is original
    with spans.Tracer():
        assert plab.quantum.tensor_power is plab.feasibility.tensor_power
        assert plab.quantum.tensor_power is not original
        assert plab.cli.verify_guarantee is plab.emx.verify_guarantee is not before[("emx", "verify_guarantee")]
        assert np.linalg.eigh is not before[("numpy", "eigh")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_spans_nest_and_attribute_eig_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("task_identity.json", "states/t0.json", "states/t1.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes((DATA / name).read_bytes())
    tracer = spans.Tracer()
    argv = ["feasible", "sdp", "--task", "task_identity.json", "--states", "states", "--delta", "0.2", "--out", "r.json"]
    with tracer:
        assert plab.cli.main(argv) == 0
    recorded = tracer.take()
    assert recorded[0][0] == "cli.main" and recorded[0][1] == -1
    assert all(-1 <= parent < i for i, (_, parent, *_rest) in enumerate(recorded))
    names = {rec[0] for rec in recorded}
    assert {"feasibility.sdp_feasible", "quantum.tensor_power", "numpy.eigh", "cli.write_report"} <= names
    metrics = spans.layer_metrics(recorded, recorded[0][3] - recorded[0][2])
    assert metrics["cli.main.calls"] == 1
    assert metrics["feasibility.sdp_feasible.calls"] == 1 and metrics["feasibility.sdp.sweeps"] > 0
    assert metrics["feasibility.sdp.eig_calls"] > 0 and metrics["quantum.eig_calls"] > 0
    assert metrics["cli.report_bytes"] == (tmp_path / "r.json").stat().st_size
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(("_s", ".calls")))


def _traced_counts(tmp_path: Path, name: str, seed: int) -> dict:
    inputs = tmp_path / "inputs"
    inputs.mkdir(parents=True)
    calls = workloads.build(name, seed, str(inputs))
    # the first (cheapest) call of each family keeps the test short
    first = {}
    for call in calls:
        first.setdefault(call.family, call)
    children = run.Children(ROOT, tmp_path, run.monotonic() + 170)
    result, _ = children.run({
        "mode": "trace", "workdir": str(inputs), "calls": [c.to_json() for c in first.values()],
        "passes": 2, "spans_out": str(tmp_path / "spans.jsonl"),
    })
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines and all(json.loads(line)["parent"] < json.loads(line)["i"] for line in lines[:1000])
    (layers,) = [p["layers"] for p in result["passes"] if p["kind"] == "traced"]
    return {k: layers[k] for k in COUNTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_count_the_same_work(tmp_path, name):
    a = _traced_counts(tmp_path / "a", name, 5)
    b = _traced_counts(tmp_path / "b", name, 5)
    assert a == b
    busy = {"learn": ("emx.mass.calls", "compression.reconstruct.calls", "coarse.map.calls"),
            "lp": ("simplex.feasible_point.calls", "simplex.tableau_cells"),
            "quantum": ("feasibility.sdp.sweeps", "quantum.tensor_power.calls")}[name]
    assert all(a[k] > 0 for k in busy), a
    # each workload bypasses the layers of the others
    idle = {"learn": ("simplex.feasible_point.calls", "quantum.tensor_power.calls", "feasibility.sdp_feasible.calls"),
            "lp": ("emx.mass.calls", "quantum.tensor_power.calls"),
            "quantum": ("emx.mass.calls", "simplex.feasible_point.calls")}[name]
    assert all(a[k] == 0 for k in idle), a


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / f"{name}{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        runs = [workloads.build(name, seed, str(d)) for seed, d in zip((7, 7, 8), dirs)]
        files = [{str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*.json"))} for d in dirs]
        assert [c.argv for c in runs[0]] == [c.argv for c in runs[1]]
        assert files[0] == files[1]
        assert files[0] != files[2]


def test_truth_helpers_match_closed_forms():
    from fractions import Fraction as F

    assert workloads.required_n(1) == 134 and workloads.required_n(2) == 230
    assert workloads.smallest_d(F(1, 20), F(1, 10)) == 45
    # P = (1/2, 1/4, 1/4), eps = 1/3: t* = 2, success = 1 - (1/2)^d
    assert workloads.quantile_success([F(1, 2), F(1, 4), F(1, 4)], F(1, 3), 3) == F(7, 8)
    assert workloads.delta_min(0.0, 1) == 0.0
