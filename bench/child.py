"""Child process of the benchmark: imports ``plab`` and runs CLI calls.

Usage: python3 bench/child.py SPEC.json    (PYTHONPATH must name plab's src)

The first import after ``time`` is ``plab.cli`` (which imports every plab
module), so the recorded ``imported_at`` minus the parent's spawn time is
the set-up cost a user pays on every CLI call; a calibration
(bench/timing.py) follows it.  Modes (``spec["mode"]``):

  setup   import, report the import time, exit;
  golden  run each call once in its own directory;
  time    one warm-up pass, then ``spec["passes"]`` timed passes;
  trace   one warm-up pass, then ``spec["passes"]`` passes alternating
          untraced and traced; the traced passes give the per-layer metrics.

Every report is read back after its call, outside the timed region, and each
distinct text (minus ``wall_clock_s``) is returned for checking.
"""

import time

import plab.cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, layer_metrics, write_spans  # noqa: E402
from timing import calibrate  # noqa: E402
from workloads import strip_clock  # noqa: E402


def invoke(argv: list[str]):
    """plab.cli.main(argv): its exit code, or a description of what it raised."""
    try:
        return plab.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark crash
        return f"raised {type(exc).__name__}: {exc}"


def report_path(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


class Runner:
    def __init__(self, calls):
        self.calls = calls
        self.variants: dict[str, list[str]] = {c["id"]: [] for c in calls}

    def run_pass(self, kind: str) -> dict:
        """One pass through the mix; the calibration kernel runs before the
        first call and after every call."""
        durs, rcs, seen, cals = [], [], [], [calibrate()]
        for call in self.calls:
            out = report_path(call["argv"])
            if os.path.exists(out):
                os.remove(out)
            t0 = time.perf_counter()
            rc = invoke(call["argv"])
            durs.append(time.perf_counter() - t0)
            rcs.append(rc)
            seen.append(self._keep(call["id"], out) if rc == 0 else -1)
            cals.append(calibrate())
        return {"kind": kind, "durs": durs, "cals": cals, "rcs": rcs, "variant": seen}

    def _keep(self, cid: str, path: str) -> int:
        try:
            with open(path, encoding="utf-8") as fh:
                text = strip_clock(fh.read())
        except OSError:
            return -1
        known = self.variants[cid]
        if text not in known:
            known.append(text)
        return known.index(text)


def timed_passes(runner: Runner, count: int, kinds, tracer=None) -> list[dict]:
    """Run ``count`` passes cycling through ``kinds``.  Passes of kind
    "traced" run with ``tracer`` installed and carry their per-layer
    metrics; the last one also keeps its spans."""
    passes = []
    while len(passes) < count:
        kind = kinds[len(passes) % len(kinds)]
        if kind == "traced":
            with tracer:
                record = runner.run_pass(kind)
            for earlier in passes:  # keep the spans of the last traced pass only
                earlier.pop("spans", None)
            record["spans"] = tracer.take()
            record["layers"] = layer_metrics(record["spans"], sum(record["durs"]))
        else:
            record = runner.run_pass(kind)
        passes.append(record)
    return passes


def run(spec: dict) -> dict:
    mode = spec["mode"]
    result = {"imported_at": IMPORTED_AT, "plab_file": plab.cli.__file__}
    if mode in ("setup", "time"):
        result["cal"] = calibrate()
    if mode == "setup":
        return result
    if mode == "golden":
        rcs = []
        for call in spec["calls"]:
            os.chdir(call["dir"])
            rcs.append(invoke(call["argv"]))
        result["rcs"] = rcs
        return result

    os.chdir(spec["workdir"])
    runner = Runner(spec["calls"])
    warmup = runner.run_pass("warmup")
    if mode == "time":
        passes = timed_passes(runner, spec["passes"], ("timed",))
    elif mode == "trace":
        passes = timed_passes(runner, spec["passes"], ("untraced", "traced"), Tracer())
        (spans,) = [p.pop("spans") for p in passes if "spans" in p]
        write_spans(spans, spec["spans_out"])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["passes"] = [warmup, *passes]
    result["variants"] = runner.variants
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
