"""Byte identity past the goldens: every report of the benchmark's learn, lp and quantum workloads at
seeds 101-103, clock-stripped, hashes as ``golden/workload_reports.txt`` records.  A change that moves
report bytes on purpose rewrites that file and names the moved calls; this test never rewrites it."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from plab.cli import main

HERE = Path(__file__).parent
HASHES = HERE / "golden" / "workload_reports.txt"
SEEDS = (101, 102, 103)


def test_workload_reports_hash_as_recorded(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", HERE.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)  # loaded here, so collection loads no numpy
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read, never written
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses looks the module up
    spec.loader.exec_module(workloads)
    got = {}
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)  # the calls name their files relative to the workload's directory
            for call in workloads.build(name, seed, str(workdir)):
                assert main(call.argv) == 0, call.id
                text = (workdir / call.argv[call.argv.index("--out") + 1]).read_text(encoding="utf-8")
                got[f"{seed} {call.id}"] = hashlib.sha256(workloads.strip_clock(text).encode()).hexdigest()
    want = dict(line.rsplit(" ", 1) for line in HASHES.read_text().splitlines())
    moved = sorted(key for key in got.keys() & want.keys() if got[key] != want[key])
    assert not moved, f"reports moved: {moved}"
    assert got.keys() == want.keys(), f"calls differ: {sorted(got.keys() ^ want.keys())}"
