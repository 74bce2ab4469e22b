"""Byte identity and exact truth past the goldens: every report of the benchmark's learn, lp and
quantum workloads at seeds 101-103, from two passes through each workload's calls in one process.
Clock-stripped, the first pass hashes as ``golden/workload_reports.txt`` records, the second pass
repeats it byte for byte, and each report passes its call's check against the truth
``bench/workloads.py`` computes without plab.  A change that moves report bytes on purpose rewrites
the hash file and names the moved calls; this test never rewrites it, and the truth checks still
judge the new bytes."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from plab.cli import main

HERE = Path(__file__).parent
HASHES = HERE / "golden" / "workload_reports.txt"
SEEDS = (101, 102, 103)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """{"SEED CALL_ID": (the call, its clock-stripped report text in each pass)}."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        spec = importlib.util.spec_from_file_location("workloads", HERE.parent / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)  # loaded here, so collection loads no numpy
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is read, never written
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses looks the module up
        spec.loader.exec_module(workloads)
        got = {}
        for seed in SEEDS:
            for name in workloads.WORKLOADS:
                workdir = tmp_path_factory.mktemp(f"{name}-{seed}")
                monkeypatch.chdir(workdir)  # the calls name their files relative to the workload's directory
                calls = workloads.build(name, seed, str(workdir))
                for _ in range(2):  # the benchmark also runs the calls pass after pass in one process
                    for call in calls:
                        assert main(call.argv) == 0, call.id
                        out = workdir / call.argv[call.argv.index("--out") + 1]
                        text = workloads.strip_clock(out.read_text(encoding="utf-8"))
                        out.unlink()  # a run that writes no report cannot pass on the last pass's file
                        got.setdefault(f"{seed} {call.id}", (call, []))[1].append(text)
    return got


def test_workload_reports_hash_as_recorded(reports):
    got = {key: hashlib.sha256(texts[0].encode()).hexdigest() for key, (_, texts) in reports.items()}
    want = dict(line.rsplit(" ", 1) for line in HASHES.read_text().splitlines())
    moved = sorted(key for key in got.keys() & want.keys() if got[key] != want[key])
    assert not moved, f"reports moved: {moved}"
    assert got.keys() == want.keys(), f"calls differ: {sorted(got.keys() ^ want.keys())}"


def test_every_pass_writes_the_same_report(reports):
    varied = sorted(key for key, (_, texts) in reports.items() if len(set(texts)) > 1)
    assert not varied, f"reports differ between passes: {varied}"


def test_every_workload_report_passes_its_exact_truth_check(reports):
    """No call is exempt: the benchmark's known defect, sdp-trine-d0.333333, now answers right."""
    failed = {}
    for key, (call, texts) in reports.items():
        for text in dict.fromkeys(texts):
            outcome = call.check(json.loads(text))
            if outcome.failed:
                failed.setdefault(key, outcome.notes[0])
    assert not failed, f"reports fail their checks: {failed}"
