"""End-to-end benchmark of the plab command line.

Usage, from the repository root:

    python3 bench/run.py --workload {learn,lp,quantum} --seed N --seconds S --trace {0,1}

One run of one workload:

 1. replays the seven golden configs of tests/golden through plab.cli.main
    in a fresh child and fails unless every report matches its golden file
    byte for byte apart from wall_clock_s;
 2. writes the workload's inputs from ``--seed`` (bench/workloads.py);
 3. with ``--trace 0``, spawns children that only import plab, for set-up
    time, then one child that runs the workload's fixed mix of CLI calls: one
    warm-up pass, then enough timed passes of the workload's nominal length
    (workloads.PASS_S) to fill ``--seconds``, at least four;
    with ``--trace 1``, the child alternates untraced passes and passes traced
    by bench/spans.py instead;
 4. checks every report against the truth computed in bench/workloads.py;
 5. prints each metric with its unit, then one JSON line with ``correct``,
    ``attempted``, ``failed`` and the metrics named in BENCHMARK.json, and
    writes the full record to .bench_run/.

Times are in reference seconds: each call's wall time scaled by a
calibration kernel timed next to it (bench/timing.py).  Wall-clock figures
are printed and recorded beside them.

Children run one at a time with BLAS threads pinned to 1.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from timing import CAL_REF_S, scaled
from workloads import strip_clock

BENCH = Path(__file__).resolve().parent
# Set-up samples per run: children that only import plab, plus the
# workload child itself.
SETUP_SAMPLES = 12
DEADLINE_S = 170.0
TAIL_BEYOND = 10
# Timed passes per run: enough passes of the workload's nominal length to
# fill --seconds, so both commits of a comparison time the same calls, and
# at least four, since one 5-s SDP call dominates a quantum pass.
MIN_PASSES = 4

# Metric names this file computes; BENCHMARK.json must list exactly these
# together with the per-layer names of spans.layer_metrics.
END_TO_END = ("ops_per_s", "call_s.p50", "call_s.tail", "setup_s", "peak_rss_mb")
RUN_LAYER_METRICS = ("trace.overhead_share", "outcome.failed_share", "outcome.undecided_share")

GOLDEN_INPUTS = {"dist.json": "dist_abc.json", "points.json": "dist_points.json",
                 "task.json": "task_identity.json", "states": "states"}
SUBCOMMAND = {"emx": ["emx"], "coarse": ["coarse"], "compress": ["compress"],
              "quantum": ["quantum", "discriminate"], "feasible-lp": ["feasible", "lp"],
              "feasible-sdp": ["feasible", "sdp"]}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Children:
    """Spawns child.py one at a time against the checkout's plab sources and
    keeps every child inside the run's deadline."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.src = root / "src"
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PLAB_DIM_CAP"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            self.env[var] = "1"
        self.count = 0

    def run(self, spec: dict) -> tuple[dict, float]:
        """Run one child; return its result and its spawn time."""
        self.count += 1
        spec_path = self.workdir / f"spec{self.count}.json"
        spec["result"] = str(self.workdir / f"result{self.count}.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.workdir / f"child{self.count}.log"
        with open(log, "w", encoding="utf-8") as err:
            spawned = monotonic()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                    env=self.env, stdout=err, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{spec['mode']} child overran the {DEADLINE_S:.0f} s deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{spec['mode']} child exited with {code}:\n{tail}")
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if not Path(result["plab_file"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"child imported plab from {result['plab_file']}, not from {self.src}")
        return result, spawned


def golden_replay(root: Path, children: Children, workdir: Path) -> int:
    """Run every golden config through plab.cli.main and compare reports
    (and the emx sweep table) byte for byte, wall_clock_s aside."""
    golden, data = root / "tests" / "golden", root / "tests" / "data"
    calls, expected = [], []
    for path in sorted(golden.glob("*.json")):
        want = path.read_text(encoding="utf-8")
        config = json.loads(want)["config"]
        run_dir = workdir / "golden" / path.stem
        run_dir.mkdir(parents=True)
        for name, source in GOLDEN_INPUTS.items():
            copy = shutil.copytree if (data / source).is_dir() else shutil.copyfile
            copy(data / source, run_dir / name)
        (run_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [*SUBCOMMAND[config["kind"]], "--config", "config.json"]
        table = golden / f"{path.stem}_table.csv"
        if table.exists():
            argv += ["--table", "table.csv"]
        calls.append({"dir": str(run_dir), "argv": argv})
        expected.append((path, run_dir / config["out"], want, table))
    if not calls:
        raise BenchError(f"no golden reports under {golden}")
    result, _ = children.run({"mode": "golden", "calls": calls})
    for rc, (path, out, want, table) in zip(result["rcs"], expected):
        if rc != 0:
            raise BenchError(f"golden replay of {path.name} exited with {rc!r}")
        if strip_clock(out.read_text(encoding="utf-8")) != strip_clock(want):
            raise BenchError(f"golden replay of {path.name} differs from the frozen report")
        if table.exists() and (out.parent / "table.csv").read_text(encoding="utf-8") != table.read_text(encoding="utf-8"):
            raise BenchError(f"golden replay of {table.name} differs from the frozen table")
    return len(calls)


def check_calls(calls, result) -> dict:
    """Check every distinct report of every call; tally ops per pass."""
    outcomes = []
    for call in calls:
        per_variant = []
        for text in result["variants"][call.id]:
            try:
                report = json.loads(text)
                out = call.check(report)
                verdict = report["metrics"].get("verdict")
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                out, verdict = workloads.Outcome(), None
                out.fail(f"malformed report: {type(exc).__name__}: {exc}")
            expected_wrong = workloads.KNOWN_DEFECTS.get(call.id)
            out.known = expected_wrong is not None and out.failed and verdict == expected_wrong
            if expected_wrong is not None and not out.failed:
                out.notes.append(f"known defect fixed: no longer answers {expected_wrong!r}")
            per_variant.append(out)
        outcomes.append(per_variant)

    tally = {"attempted": 0, "completed": [], "failed": 0, "known": 0, "undecided": 0}
    notes: dict[str, set] = {}
    correct = True
    for p in result["passes"]:
        measured = p["kind"] != "warmup"
        completed = 0
        for call, per_variant, rc, v in zip(calls, outcomes, p["rcs"], p["variant"]):
            if rc != 0 or v < 0:
                failed, known, undecided = True, False, 0
                notes.setdefault(call.id, set()).add(f"exit {rc!r}")
            else:
                out = per_variant[v]
                failed, known, undecided = out.failed, out.known, out.undecided_ops
                notes.setdefault(call.id, set()).update(out.notes)
                completed += call.ops
            correct &= known or not failed
            if measured:
                tally["attempted"] += call.ops
                tally["failed"] += call.ops if failed and not known else 0
                tally["known"] += call.ops if known else 0
                tally["undecided"] += undecided
        if measured:
            tally["completed"].append(completed)
    tally["correct"] = correct
    tally["failed_share"] = (tally["failed"] + tally["known"]) / tally["attempted"]
    tally["undecided_share"] = tally["undecided"] / tally["attempted"]
    tally["notes"] = {cid: sorted(n) for cid, n in notes.items() if n}
    tally["known_defects"] = sorted(
        c.id for c, per_variant in zip(calls, outcomes) if any(o.known for o in per_variant)
    )
    return tally


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def calibrated(p: dict) -> list[float]:
    """Call durations of one pass in reference seconds (bench/timing.py)."""
    return [scaled(d, p["cals"][i], p["cals"][i + 1]) for i, d in enumerate(p["durs"])]


def end_to_end(result, tally, setup) -> tuple[dict, dict]:
    """Time metrics of the timed passes, in reference seconds."""
    timed = [p for p in result["passes"] if p["kind"] == "timed"]
    norm = [calibrated(p) for p in timed]
    samples = [d for n in norm for d in n]
    tail_s, tail_pct = tail(samples)
    setup_s = [raw * CAL_REF_S / cal for raw, cal in setup]
    metrics = {
        "ops_per_s": statistics.median(c / sum(n) for c, n in zip(tally["completed"], norm)),
        "call_s.p50": statistics.median(samples),
        "call_s.tail": tail_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    raw = [d for p in timed for d in p["durs"]]
    detail = {
        "timed_passes": len(timed), "tail_percentile": tail_pct, "tail_samples": len(samples),
        "setup_s": setup_s, "call_s": [list(col) for col in zip(*norm)],
        "wall_clock": {
            "ops_per_s": statistics.median(c / sum(p["durs"]) for c, p in zip(tally["completed"], timed)),
            "call_s.p50": statistics.median(raw), "call_s.tail": tail(raw)[0],
            "setup_s": statistics.median(r for r, _ in setup),
            "call_s": [list(col) for col in zip(*(p["durs"] for p in timed))],
        },
    }
    return metrics, detail


def per_layer(result, tally) -> tuple[dict, dict]:
    """Medians over the traced passes; layer times in reference seconds."""
    traced = [p for p in result["passes"] if p["kind"] == "traced"]
    plain = [p for p in result["passes"] if p["kind"] == "untraced"]
    for p in traced:
        factor = sum(calibrated(p)) / sum(p["durs"])
        p["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in p["layers"].items()}
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    traced_s = statistics.median(sum(calibrated(p)) for p in traced)
    plain_s = statistics.median(sum(calibrated(p)) for p in plain)
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    metrics["outcome.failed_share"] = tally["failed_share"]
    metrics["outcome.undecided_share"] = tally["undecided_share"]
    detail = {"traced_passes": len(traced), "untraced_passes": len(plain), "traced_pass_s": traced_s,
              "untraced_pass_s": plain_s}
    return metrics, detail


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def bench(args, root: Path) -> int:
    manifest = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for need in (root / "src" / "plab" / "cli.py", root / "tests" / "golden", root / "tests" / "data"):
        if not need.exists():
            raise BenchError(f"{need} is missing; run from the root of a plab checkout")
    record = {"provenance": provenance(args)}
    run_dir = root / ".bench_run"
    workdir = run_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        children = Children(root, workdir, monotonic() + DEADLINE_S)
        record["golden_replayed"] = golden_replay(root, children, workdir)
        inputs = workdir / "inputs"
        inputs.mkdir()
        calls = workloads.build(args.workload, args.seed, str(inputs))
        passes = max(MIN_PASSES, math.ceil(args.seconds / workloads.PASS_S[args.workload]))
        spec = {"workdir": str(inputs), "calls": [c.to_json() for c in calls], "passes": passes}
        if args.trace:
            spans_out = run_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
            result, _ = children.run({**spec, "mode": "trace", "spans_out": str(spans_out)})
            tally = check_calls(calls, result)
            metrics, detail = per_layer(result, tally)
            wanted = manifest["per_layer"]
        else:
            setup = []  # (seconds from spawn to imported, calibration after it)
            for _ in range(SETUP_SAMPLES - 1):
                res, spawned = children.run({"mode": "setup"})
                setup.append((res["imported_at"] - spawned, res["cal"]))
            result, spawned = children.run({**spec, "mode": "time"})
            setup.append((result["imported_at"] - spawned, result["cal"]))
            tally = check_calls(calls, result)
            metrics, detail = end_to_end(result, tally, setup)
            wanted = manifest["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise BenchError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    record.update(detail=detail, metrics=metrics, outcome={k: v for k, v in tally.items() if k != "completed"},
                  calls=[c.to_json() for c in calls])
    (run_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"golden reports replayed {record['golden_replayed']}  (times in reference seconds, bench/timing.py)")
    for name in units:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"  call_s.tail is p{detail['tail_percentile']:.1f} of {detail['tail_samples']} calls "
              f"over {detail['timed_passes']} timed passes")
        for name, value in detail["wall_clock"].items():
            if name != "call_s":
                print(f"  wall clock {name:29s} {value:.6g}")
    for name in ("failed_share", "undecided_share"):
        print(f"  {name:40s} {tally[name]:.6g} 1")
    for cid in tally["known_defects"]:
        print(f"  known defect, counted in failed_share only: {cid}: {'; '.join(tally['notes'][cid])}")
    for cid, notes in tally["notes"].items():
        if cid not in tally["known_defects"]:
            print(f"  {cid}: {'; '.join(notes)}")
    print(json.dumps({
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if tally["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return bench(args, Path.cwd())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
