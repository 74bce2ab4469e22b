"""BENCHMARK.json meets the benchmark contract and names what the
benchmark really computes.

Run: python3 -m pytest bench/tests
"""

import json
import math
import re
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
BUDGET_S = 3420
# golden replay and set-up children, per run
FIXED_S = 5.0
# room for the machine running slower than when PASS_S was measured
MARGIN = 0.8


@pytest.fixture(scope="module")
def manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text(encoding="utf-8"))


def test_top_level_keys(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_names_units_and_directions(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_counts_and_keys(manifest):
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_setup_metric_has_the_largest_bound(manifest):
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_paths_and_command_resolve(manifest):
    paths = manifest["paths"]
    assert 1 <= len(paths) <= 16
    for p in paths:
        assert PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
        assert all(f.is_dir() or (f.is_file() and not f.is_symlink()) for f in (ROOT / p).rglob("*"))
    command = manifest["command"]
    assert 1 <= len(command) <= 32 and all(len(c) <= 200 for c in command)
    assert "/" not in command[0]
    for arg in command[1:]:
        assert not arg.startswith("/") and ".." not in arg.split("/")
        if (ROOT / arg).exists():
            assert any((ROOT / arg).resolve().is_relative_to((ROOT / p).resolve()) for p in paths), arg
    assert (ROOT / command[1]).resolve() == Path(run.__file__).resolve()


def test_run_budget(manifest):
    seconds = manifest["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    # a run: warm-up pass plus the timed passes, then the fixed costs
    per_run = {w: (max(run.MIN_PASSES, math.ceil(seconds / p)) + 1) * p + FIXED_S for w, p in workloads.PASS_S.items()}
    total = 22 * sum(per_run.values()) + 4 * max(per_run.values())
    assert total <= MARGIN * BUDGET_S, per_run


def test_every_name_is_what_the_benchmark_computes(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    layer_names = set(spans.layer_metrics([], 1.0)) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in manifest["per_layer"]} == layer_names
