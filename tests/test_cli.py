"""Command-line interface: config handling, report determinism, golden files.

Golden reports were frozen from the exact invocations below; the comparison
is byte for byte, minus the wall_clock_s line (the one intentionally
non-reproducible field).  Input files are staged under relative names so the
config echo inside each report is path-stable.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import discrimination_sum, pure_pair, substream
from reference_writer import matrix_to_json, pin

from plab import cli, coarse, emx, quantum
from plab.cli import (
    DEFAULT_SEED,
    _checked,
    main,
    run_config,
    validate,
    write_report,
)

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GOLDEN_RUNS = {
    "emx.json": ["emx", "--dist", "dist.json", "--epsilon", "1/3", "--delta", "1/3",
                 "--trials", "400", "--seed", "20177", "--d", "3", "--sweep-d", "1,2,3,4",
                 "--out", "report.json"],
    "coarse.json": ["coarse", "--bits", "6", "--dist", "points.json", "--trials", "200",
                    "--seed", "5", "--out", "report.json"],
    "compress_demo.json": ["compress", "--mode", "demo", "--domain", "a,b,c,d,e,f,g",
                           "--pair", "f,c", "--out", "report.json"],
    "compress_lemma1.json": ["compress", "--mode", "lemma1", "--dist", "dist.json",
                             "--n", "25", "--trials", "150", "--seed", "3",
                             "--sweep-n", "10,25", "--out", "report.json"],
    "quantum.json": ["quantum", "discriminate", "--gamma", "0.8", "--copies", "2",
                     "--delta", "0.05", "--sweep-gamma", "0.5,0.8,0.9",
                     "--out", "report.json"],
    "feasible_lp.json": ["feasible", "lp", "--task", "task.json", "--epsilon", "1/2",
                         "--delta", "0.2", "--out", "report.json"],
    "feasible_sdp.json": ["feasible", "sdp", "--task", "task.json", "--states", "states",
                          "--copies", "1", "--epsilon", "1/2", "--delta", "0.2",
                          "--out", "report.json"],
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Scratch directory holding the staged input files."""
    shutil.copy(DATA / "dist_abc.json", tmp_path / "dist.json")
    shutil.copy(DATA / "dist_points.json", tmp_path / "points.json")
    shutil.copy(DATA / "task_identity.json", tmp_path / "task.json")
    shutil.copytree(DATA / "states", tmp_path / "states")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def without_clock(obj: dict) -> dict:
    out = dict(obj)
    out.pop("wall_clock_s")
    return out


CLOCK_LINE = re.compile(r',\n  "wall_clock_s": [^\n]*')


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_RUNS))
def test_reports_match_frozen_goldens(workdir, golden_name):
    # Text, not parsed JSON: json.loads would take 1 for 1.0 and -0.0 for 0.0.
    assert main(GOLDEN_RUNS[golden_name]) == 0
    got = (workdir / "report.json").read_text()
    want = (GOLDEN / golden_name).read_text()
    assert CLOCK_LINE.sub("", got) == CLOCK_LINE.sub("", want)


SWEEP_RUNS = {
    "emx": ["emx", "--dist", "dist.json", "--trials", "50", "--sweep-d", "1,2,7"],
    "coarse": ["coarse", "--dist", "points.json", "--trials", "50", "--sweep-bits", "0,3,9"],
    "compress": ["compress", "--mode", "lemma1", "--dist", "dist.json", "--trials", "30", "--sweep-n", "4,12"],
    "quantum": ["quantum", "discriminate", "--gamma", "0.3468", "--delta", "1e-7",
                "--sweep-copies", "1,5,7,40"],
}


@pytest.mark.parametrize("argv", [
    ["emx", "--dist", "dist.json", "--d", "3", "--sweep-d", "3,1,1"],
    ["coarse", "--dist", "points.json", "--bits", "3", "--sweep-bits", "3,0,0"],
    ["compress", "--mode", "lemma1", "--dist", "dist.json", "--n", "12", "--sweep-n", "12,4,4"],
], ids=["emx", "coarse", "compress"])
def test_one_verify_guarantee_call_carries_each_distinct_point_once(workdir, monkeypatch, argv):
    """The run's own point comes first in the sweep, and the last two sweep
    points are equal: one ``verify_guarantee`` call of two points makes all
    four entries."""
    calls = []
    monkeypatch.setattr(cli, "verify_guarantee", lambda *args: calls.append(args) or emx.verify_guarantee(*args))
    assert main([*argv, "--trials", "40", "--out", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert len(calls) == 1
    assert [d for _, d in calls[0][0]] == {"emx": [3, 1], "coarse": [3, 3], "compress": [12, 4]}[argv[0]]
    first, *rest = report["sweep"]
    assert first == {key: report["metrics"][key] for key in first}
    assert rest[0] == rest[1]


def point_run(argv: list[str], flag: str, value) -> dict:
    """The metrics of ``argv`` run at the one point ``flag value``, without a sweep."""
    assert main([*argv, flag, str(value), "--out", "point.json"]) == 0
    return json.loads(Path("point.json").read_text())["metrics"]


def random_dist(rng: random.Random, exact: bool, unit: bool) -> dict:
    """A distribution file of 2 to 40 points: labels in [0,1] (``unit``) or
    strings, weights exact rational strings or floats."""
    n = rng.randint(2, 40)
    labels = sorted({round(rng.random(), 6) for _ in range(n)}) if unit else [f"p{i}" for i in range(n)]
    counts = [rng.randint(1, 9) for _ in labels]
    total = sum(counts)
    return {"labels": labels, "weights": [f"{c}/{total}" if exact else c / total for c in counts]}


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("run", ["emx", "coarse", "compress"])
def test_every_sweep_row_is_its_own_single_point_run(workdir, run, case):
    """Sweep rows and single-point runs, byte for byte, on seeded random
    exact (even cases) and float (odd cases) distributions, with compress
    keeping m = 1 (cases 0-2) and m = 2 (cases 3-5) points: a sweep point
    reads the first d draws of trial k's random(d_max), which are the draws
    of the point's own run."""
    rng = random.Random(f"{run}:{case}")
    Path("rand.json").write_text(json.dumps(random_dist(rng, case % 2 == 0, run == "coarse")))
    seed = str(rng.randrange(2**64))
    if run == "emx":
        argv = ["emx", "--dist", "rand.json", "--epsilon", "1/5", "--delta", "1/5", "--trials", "60", "--seed", seed]
        flag, sweep, key = "--d", rng.sample(range(1, 40), 4) + [1000], "d"
    elif run == "coarse":
        argv = ["coarse", "--dist", "rand.json", "--epsilon", "1/4", "--delta", "1/4", "--trials", "60", "--seed", seed]
        flag, sweep, key = "--bits", rng.sample(range(0, 30), 4) + [64], "bits"
    else:
        argv = ["compress", "--mode", "lemma1", "--m", str(1 + case // 3), "--dist", "rand.json", "--epsilon", "1/4",
                "--trials", "20", "--seed", seed]
        flag, sweep, key = "--n", rng.sample(range(2, 60), 4), "n"
    assert main([*argv, f"--sweep-{key}", ",".join(map(str, sweep)), "--out", "sweep.json"]) == 0
    rows = json.loads(Path("sweep.json").read_text())["sweep"]
    assert [row[key] for row in rows] == sweep
    for row, value in zip(rows, sweep):
        single = point_run(argv, flag, value)
        assert json.dumps(row, sort_keys=True) == json.dumps({k: single[k] for k in row}, sort_keys=True)


def test_a_sweep_builds_each_trials_generator_once(workdir, monkeypatch):
    """A 5-point run of 70 trials asks ``substreams`` once, for 70 keys, and
    builds 70 generators: trial k's draws serve every point."""
    requested, built = [], []
    substreams = emx.substreams

    def recording(seed, count):
        requested.append(count)
        for gen in substreams(seed, count):
            built.append(gen)
            yield gen

    monkeypatch.setattr(emx, "substreams", recording)
    for argv in (["emx", "--dist", "dist.json", "--sweep-d", "1,2,7,30"],
                 ["coarse", "--dist", "points.json", "--sweep-bits", "0,1,5,12"],
                 ["compress", "--mode", "lemma1", "--dist", "dist.json", "--n", "4", "--sweep-n", "5,6,9,12"]):
        requested.clear()
        built.clear()
        assert main([*argv, "--trials", "70", "--out", "r.json"]) == 0
        assert requested == [70] and len(built) == 70, argv


def test_each_distinct_discrimination_point_is_one_slice_of_one_stack(workdir, monkeypatch):
    stacks, d_mins = [], []
    monkeypatch.setattr(quantum, "pure_pair_helstrom", lambda points, f=quantum.pure_pair_helstrom:
                        stacks.append(list(points)) or f(points))
    monkeypatch.setattr(quantum, "copies_min", lambda g, delta, f=quantum.copies_min: d_mins.append(g) or f(g, delta))
    argv = ["quantum", "discriminate", "--gamma", "0.8", "--copies", "2", "--delta", "0.05", "--sweep-copies", "2,1,1"]
    assert main([*argv, "--out", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert stacks == [[(0.8, 2), (0.8, 1)]] and d_mins == [0.8]
    assert [pt["copies"] for pt in report["sweep"]] == [2, 1, 1]
    assert report["sweep"][0] == {k: v for k, v in report["metrics"].items() if k != "gamma"}


def test_discrimination_eigensolves_do_not_grow_with_the_sweep(workdir, monkeypatch):
    calls = []

    def counting(name):
        solve = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or solve(*args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    seen = []
    for sweep in ("2", ",".join(map(str, range(1, 61)))):
        calls.clear()
        assert main(["quantum", "discriminate", "--gamma", "0.7", "--delta", "0.05", "--sweep-copies", sweep]) == 0
        seen.append(sorted(calls))
    # one eigh of every difference; eigvalsh of every state, every POVM element, every POVM sum
    assert seen[0] == seen[1] == ["eigh", "eigvalsh", "eigvalsh", "eigvalsh"]


def test_a_300_point_copy_sweep_is_its_points_one_by_one(workdir):
    copies = list(range(1, 301))
    argv = ["quantum", "discriminate", "--gamma", "0.97", "--delta", "1e-6",
            "--sweep-copies", ",".join(map(str, copies))]
    assert main([*argv, "--out", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert [pt["copies"] for pt in report["sweep"]] == copies
    for pt in report["sweep"]:
        r0, r1 = pure_pair(0.97, pt["copies"])
        povm, distance = quantum.helstrom(r0, r1)
        assert pt["trace_distance"] == cli._leaf(distance)
        assert pt["bound"] == cli._leaf(1.0 + 0.5 * distance)
        assert pt["achieved"] == cli._leaf(discrimination_sum(povm, r0, r1))
        assert pt["delta_min"] == cli._leaf(quantum.delta_min(0.97, pt["copies"]))
        assert pt["d_min"] == quantum.copies_min(0.97, 1e-6)


def test_a_near_tie_past_exact_powers_prints_its_count(workdir):
    # 0.999^6000 has about 318 kbit; the printed delta_min(0.999, 3000) is one rounding below it
    argv = ["quantum", "discriminate", "--gamma", "0.999", "--delta", repr(quantum.delta_min(0.999, 3000))]
    assert main([*argv, "--out", "r.json"]) == 0
    assert json.loads((workdir / "r.json").read_text())["metrics"]["d_min"] == 3001


def test_a_gamma_sweep_through_overlap_0_reports_one_copy(workdir):
    # orthogonal states: one copy reaches any delta
    assert main(["quantum", "discriminate", "--gamma", "0.5", "--sweep-gamma", "0,0.5", "--delta", "0.1",
                 "--out", "r.json"]) == 0
    row = json.loads((workdir / "r.json").read_text())["sweep"][0]
    assert row["gamma"] == 0.0 and row["d_min"] == 1


def test_trace_distance_prints_as_the_formula_as_gamma_nears_1(workdir):
    argv = ["quantum", "discriminate", "--gamma", "0.9999999", "--sweep-copies", "1,2,3,5,8,13", "--out", "r.json"]
    assert main(argv) == 0
    report = json.loads((workdir / "r.json").read_text())
    rows = [report["metrics"], *report["sweep"]]
    assert len(rows) == 7 and all(row["trace_distance"] == row["formula"] for row in rows)


def test_repeated_runs_are_identical_up_to_wall_clock(workdir):
    argv = ["emx", "--dist", "dist.json", "--trials", "120", "--seed", "9", "--out", "a.json"]
    assert main(argv) == 0
    assert main(argv[:-1] + ["b.json"]) == 0
    a = json.loads((workdir / "a.json").read_text())
    b = json.loads((workdir / "b.json").read_text())
    a["config"].pop("out"), b["config"].pop("out")
    assert without_clock(a) == without_clock(b)


def test_different_seed_changes_metrics(workdir):
    base = ["emx", "--dist", "dist.json", "--trials", "120", "--out", "r.json", "--seed"]
    main(base + ["1"])
    first = json.loads((workdir / "r.json").read_text())
    main(base + ["2"])
    second = json.loads((workdir / "r.json").read_text())
    assert first["config"]["seed"] == 1 and second["config"]["seed"] == 2
    assert first["metrics"]["empirical_rate"] != second["metrics"]["empirical_rate"]


class TestConfigDict:
    def test_defaults(self):
        cfg = _checked({"kind": "emx", "parameters": {"dist": "d.json"}})
        assert cfg == {"kind": "emx", "parameters": {"dist": "d.json"}, "seed": 20177, "out": None}
        assert DEFAULT_SEED == 20177
        validate(cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            validate(_checked({"kind": "foo"}))

    def test_missing_required_parameters(self):
        with pytest.raises(ValueError, match="missing required"):
            validate(_checked({"kind": "feasible-sdp", "parameters": {"task": "t.json"}}))

    def test_json_roundtrip(self):
        raw = {"kind": "quantum", "parameters": {"gamma": 0.5}, "seed": 3, "out": "x.json"}
        cfg = _checked(raw)
        assert cfg == raw and cfg is not raw and cfg["parameters"] is not raw["parameters"]
        assert _checked(json.loads(json.dumps(cfg))) == cfg

    def test_run_config_echoes_the_checked_dict_and_leaves_its_argument(self):
        raw = {"kind": "quantum", "parameters": {"gamma": 0.5}}
        report = run_config(raw)
        assert report["config"] == {"kind": "quantum", "parameters": {"gamma": 0.5}, "seed": 20177, "out": None}
        assert raw == {"kind": "quantum", "parameters": {"gamma": 0.5}}
        assert report["config"]["parameters"] is not raw["parameters"]

    @pytest.mark.parametrize("cfg, error, needle", [
        ([1, 2], TypeError, "config must be a JSON object, got list"),
        ({"kind": "emx", "sed": 3}, TypeError, "unknown config key 'sed'"),
        ({"parameters": {}}, TypeError, "missing key 'kind'"),
        ({"kind": "emx", "parameters": None}, ValueError, "config key 'parameters' must be an object, got None"),
        ({"kind": "emx", "out": 3}, ValueError, "config key 'out' must be a string or null, got 3"),
        ({"kind": "emx", "out": ""}, ValueError, "config key 'out' must be a file path or null, got ''"),
    ], ids=["not-an-object", "unknown-key", "no-kind", "null-parameters", "out-not-a-string", "empty-out"])
    def test_run_config_refuses_a_bad_shape(self, cfg, error, needle):
        with pytest.raises(error, match=re.escape(needle)):
            run_config(cfg)


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_RUNS))
def test_a_reports_echoed_config_reruns_to_the_report(workdir, golden_name):
    """Through ``run_config`` and through ``--config``, which writes to the echoed ``out``."""
    want = (GOLDEN / golden_name).read_text()
    config = json.loads(want)["config"]
    write_report(run_config(config), "again.json")
    assert CLOCK_LINE.sub("", (workdir / "again.json").read_text()) == CLOCK_LINE.sub("", want)
    (workdir / "config.json").write_text(json.dumps(config))
    assert main([*cli._KINDS[config["kind"]].words, "--config", "config.json"]) == 0
    assert CLOCK_LINE.sub("", (workdir / config["out"]).read_text()) == CLOCK_LINE.sub("", want)


class TestConfigFileHandling:
    def test_config_file_drives_a_run(self, workdir):
        cfg = {"kind": "emx", "parameters": {"dist": "dist.json", "trials": 50}, "seed": 4}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["emx", "--config", "cfg.json", "--out", "r.json"]) == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["config"]["seed"] == 4
        assert report["config"]["parameters"]["trials"] == 50

    def test_flags_override_config_values(self, workdir):
        cfg = {"kind": "emx", "parameters": {"dist": "dist.json", "trials": 50}, "seed": 4}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["emx", "--config", "cfg.json", "--trials", "75", "--seed", "8",
                     "--out", "r.json"]) == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["config"]["seed"] == 8
        assert report["config"]["parameters"]["trials"] == 75

    def test_config_kind_must_match_subcommand(self, workdir, capsys):
        (workdir / "cfg.json").write_text(json.dumps({"kind": "coarse", "parameters": {}}))
        assert main(["emx", "--config", "cfg.json"]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_unknown_kind_in_config_fails_cleanly(self, workdir, capsys):
        (workdir / "cfg.json").write_text(json.dumps({"kind": "emx", "parameters": {}}))
        assert main(["emx", "--config", "cfg.json"]) == 1
        assert "missing required" in capsys.readouterr().err

    def test_run_config_rejects_unknown_kind_directly(self):
        with pytest.raises(ValueError):
            run_config({"kind": "foo"})


class TestCoarseBits:
    @pytest.mark.parametrize("bits", [1024, 1074])
    def test_bits_beyond_float_range_run(self, workdir, bits):
        rc = main(["coarse", "--dist", "points.json", "--bits", str(bits), "--trials", "2", "--out", "r.json"])
        assert rc == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["metrics"]["bits"] == bits


class TestErrorPaths:
    def test_missing_input_file(self, workdir, capsys):
        assert main(["emx", "--dist", "nope.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_compress_mode(self, workdir, capsys):
        assert main(["compress", "--mode", "demo", "--domain", "a,b", "--pair", "a,b,a"]) == 1
        assert "two points" in capsys.readouterr().err

    def test_copies_beyond_the_dimension_cap(self, workdir, capsys):
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "11"]) == 1
        assert "plab: error: dimension 2^11 exceeds cap 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--copies", "--sweep-copies"])
    @pytest.mark.parametrize("gamma", ["0.5", "1"])
    def test_copies_past_the_float_range(self, workdir, capsys, flag, gamma):
        # gamma^(2d) is a float power: 2d must convert to a float
        argv = ["quantum", "discriminate", "--gamma", gamma, "--out", "r.json", flag]
        largest = int(sys.float_info.max) // 2
        assert main(argv + [str(largest)]) == 0
        for d in (str(largest + 1), "9" * 330):
            assert main(argv + [d]) == 1
            assert capsys.readouterr().err == "plab: error: d must be at most 8.988465674311579e+307\n"

    def test_copy_count_too_close_to_a_tie(self, workdir, capsys):
        # about 3.2e18 copies: ln(4 delta (1 - delta)) / ln(gamma^2) is past 2^45, where a float ratio cannot settle d
        assert main(["quantum", "discriminate", "--gamma", "0.9999999999999999", "--delta", "1e-310",
                     "--out", "r.json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("plab: error: the least d near ") and "too close to a tie to settle within 2^18 bits" in err
        assert not (workdir / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["feasible", "lp", "--task", "task.json"],
        ["feasible", "sdp", "--task", "task.json", "--states", "states"],
        ["compress", "--mode", "lemma1", "--m", "1", "--dist", "dist.json", "--trials", "5"],
        ["emx", "--dist", "dist.json", "--trials", "5"],
        ["coarse", "--dist", "points.json", "--trials", "5"],
    ])
    def test_epsilon_outside_unit_interval(self, workdir, capsys, argv):
        assert main(argv + ["--epsilon", "2"]) == 1
        assert "plab: error: need epsilon in (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "8"])
    def test_dimension_cap_ignores_the_environment(self, workdir, capsys, monkeypatch, raw):
        # PLAB_DIM_CAP once set the cap; no value of it, valid or not, changes anything now
        monkeypatch.setenv("PLAB_DIM_CAP", raw)
        argv = ["feasible", "sdp", "--task", "task.json", "--states", "states"]
        assert main(argv + ["--copies", "4", "--out", "r.json"]) == 0
        assert main(argv + ["--copies", "11"]) == 1
        assert capsys.readouterr().err == "plab: error: dimension 2^11 exceeds cap 1024\n"

    def test_copies_of_a_state_at_the_trace_tolerance(self, workdir):
        # trace 1 + 9e-13 is within 1e-12; two copies carry the one check
        state = {"dim": 2, "entries": [[[0.5 + 9e-13, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        (workdir / "states" / "t0.json").write_text(json.dumps(state))
        argv = ["feasible", "sdp", "--task", "task.json", "--states", "states", "--out", "r.json"]
        assert main(argv + ["--copies", "1"]) == 0
        assert main(argv + ["--copies", "2"]) == 0

    @pytest.mark.parametrize("by_config", [False, True])
    def test_gamma_and_copy_sweeps_together_rejected(self, workdir, capsys, by_config):
        argv = ["quantum", "discriminate", "--gamma", "0.8", "--sweep-gamma", "0.5", "--sweep-copies", "2,3"]
        if by_config:
            params = {"gamma": 0.8, "sweep_gamma": [0.5], "sweep_copies": [2, 3]}
            (workdir / "cfg.json").write_text(json.dumps({"kind": "quantum", "parameters": params}))
            argv = ["quantum", "discriminate", "--config", "cfg.json"]
        assert main(argv + ["--out", "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("plab: error:") and "sweep_gamma" in err and "sweep_copies" in err
        assert not (workdir / "r.json").exists()

    def test_non_finite_state_file(self, workdir, capsys):
        state = {"dim": 2, "entries": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        (workdir / "states" / "t0.json").write_text(json.dumps(state))
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--out", "r.json"]) == 1
        assert capsys.readouterr().err == "plab: error: states/t0.json: state has a non-finite entry\n"
        assert not (workdir / "r.json").exists()

    @pytest.mark.parametrize("gamma", ["nan", "1.5"])
    def test_gamma_checked_before_any_state_is_built(self, workdir, capsys, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["quantum", "discriminate", "--gamma", gamma]) == 1
        assert "plab: error: overlap gamma must lie in [0,1]" in capsys.readouterr().err

    def test_discrimination_has_no_dimension_cap(self, workdir):
        # 2^40-dimensional d-copy states, discriminated in their two-dimensional span
        argv = ["quantum", "discriminate", "--gamma", "0.9", "--sweep-copies", "1,11,40", "--out", "r.json"]
        assert main(argv) == 0
        sweep = json.loads((workdir / "r.json").read_text())["sweep"]
        assert [pt["copies"] for pt in sweep] == [1, 11, 40]
        assert all(abs(pt["trace_distance"] - pt["formula"]) <= 1e-9 for pt in sweep)

    def test_non_finite_distribution_weight(self, workdir, capsys):
        (workdir / "nan.json").write_text('{"labels": ["a", "b"], "weights": [NaN, 1.0]}')
        assert main(["emx", "--dist", "nan.json", "--trials", "5", "--out", "r.json"]) == 1
        assert capsys.readouterr().err.startswith("plab: error:")
        assert not (workdir / "r.json").exists()

    def test_missing_state_file(self, workdir, capsys):
        (workdir / "states" / "t1.json").unlink()
        rc = main(["feasible", "sdp", "--task", "task.json", "--states", "states"])
        assert rc == 1
        assert "missing state" in capsys.readouterr().err


# Report payloads: every leaf type a runner returns, floats where the .12g and
# repr spellings differ, signed zeros, NaN, infinities, keys that str() collides
# (1 and "1"), non-ASCII text and characters JSON escapes.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, 1.0, -3.0, 1e-5, 1.5e-5, 1e12, 1e15, 1e16, 123456789012345.67]),
    st.floats(1e-6, 1e-4), st.floats(1e12, 1e16), st.floats(-1e16, -1e12),
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | \
    st.sampled_from(['"', "\\", "\n\t", "é", "\u2603", "\x00"])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT, st.fractions(),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
)
# Complex matrices as witnesses hold them: empty, one-row, one-column and non-square.
SHAPES = st.sampled_from([(0, 0), (2, 0), (0, 3), (1, 1), (2, 3), (3, 2)]) | \
    st.tuples(st.integers(0, 4), st.integers(0, 4))
MATRICES = SHAPES.flatmap(lambda shape: st.lists(
    FLOATS, min_size=2 * shape[0] * shape[1], max_size=2 * shape[0] * shape[1],
).map(lambda xs: np.array(xs, dtype=float).view(complex).reshape(shape)))
PAYLOADS = st.recursive(LEAVES | MATRICES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.sampled_from(["0", "1"]) | st.integers(0, 2) | TEXT, children, max_size=4),
), max_leaves=40)
# A 64x64 witness of about 300 KB of text, with signed zeros, NaN and infinities.
WIDE = np.random.default_rng(7).standard_normal((64, 128)).view(complex)
WIDE[0, :4] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(math.nan, math.inf), complex(-math.inf, 1e16)]


class TestReportPlumbing:
    def test_pin_rounds_to_12_significant_digits(self):
        assert pin(0.1 + 0.2) == 0.3
        assert pin(1.0 / 3.0) == 0.333333333333
        assert pin(Fraction(2, 3)) == "2/3"
        assert pin({"a": [1, None, True]}) == {"a": [1, None, True]}

    def test_pin_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            pin(object())
        with pytest.raises(TypeError):
            "".join(cli._parts({"a": [object()]}))

    @settings(max_examples=300, deadline=None)
    @given(obj=PAYLOADS)
    @example(obj={"witness": [WIDE]})  # its rows cross write_report's 64 KiB writes
    def test_render_equals_dumps_of_pinned_payload(self, obj, tmp_path_factory):
        assert "".join(cli._parts(obj)) == json.dumps(pin(obj), indent=2, sort_keys=True)
        rep = {"config": {}, "metrics": obj, "wall_clock_s": 0.5, "version": "0"}
        path = tmp_path_factory.getbasetemp() / "payload.json"
        write_report(rep, str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(pin(rep), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_arrays_other_than_matrices_rejected(self, shape):
        a = np.zeros(shape, dtype=complex)
        with pytest.raises(TypeError):
            pin({"a": a})
        with pytest.raises(TypeError):
            "".join(cli._parts({"a": [a]}))

    def test_render_of_infinities_equals_the_reference_writer(self):
        payload = {"a": [math.inf, -math.inf], "b": np.float64(-math.inf), "c": (np.float32(math.inf),)}
        text = "".join(cli._parts(payload))
        assert text == json.dumps(pin(payload), indent=2, sort_keys=True)
        assert text.count("-Infinity") == 2 and text.count("Infinity") == 4

    def test_witness_negative_zero_renders_negative(self, tmp_path):
        # 0.0 comes first, so text looked up by value would print -0.0 as 0.0
        m = np.array([[0.5, complex(-0.0, 0.0)], [complex(0.0, -0.0), 0.5]])
        rep = {"config": {}, "metrics": {"witness": {"elements": [matrix_to_json(m)] * 2}},
               "wall_clock_s": 0.0, "version": "0"}
        write_report(rep, str(tmp_path / "r.json"))
        for element in json.loads((tmp_path / "r.json").read_text())["metrics"]["witness"]["elements"]:
            assert [math.copysign(1.0, x) for row in element for pair in row for x in pair] == \
                [1, 1, -1, 1, 1, -1, 1, 1]

    def test_array_witness_negative_zero_renders_negative(self):
        # 0.0 comes first, so text looked up by value (not bits) would print -0.0 as 0.0
        m = np.array([[0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), complex(-0.0, 0.0)]])
        payload = {"witness": {"elements": [m]}}
        text = "".join(cli._parts(payload))
        assert text == json.dumps(pin(payload), indent=2, sort_keys=True)
        first = json.loads(text)["witness"]["elements"][0]
        assert [math.copysign(1.0, x) for row in first for pair in row for x in pair] == \
            [1, 1, -1, -1, 1, -1, -1, 1]

    def test_write_report_is_atomic(self, tmp_path):
        rep = {"config": {}, "metrics": {"x": 1.0}, "wall_clock_s": 0.1, "version": "0"}
        path = tmp_path / "r.json"
        write_report(rep, str(path))
        assert json.loads(path.read_text())["metrics"] == {"x": 1.0}
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_a_write_that_fails_part_way_keeps_the_old_report(self, tmp_path, monkeypatch):
        path = tmp_path / "r.json"
        path.write_text("the old report\n")
        # version sorts after metrics, so the witness rows reach the temp file before it fails
        rep = {"config": {}, "metrics": {"witness": WIDE}, "wall_clock_s": 0.0, "version": object()}
        written = []
        leaf = cli._leaf
        monkeypatch.setattr(cli, "_leaf", lambda obj: (written.append(os.path.getsize(f"{path}.tmp")), leaf(obj))[1])
        with pytest.raises(TypeError):
            write_report(rep, str(path))
        assert written[0] >= 1 << 16
        assert path.read_text() == "the old report\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_writing_a_report_does_not_hold_its_text(self, workdir, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "write_report", lambda report, path: written.append(report))
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "8",
                     "--out", "r.json"]) == 0
        (report,) = written
        tracemalloc.start()
        try:
            write_report(report, "r.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize("r.json")
        assert peak < size, (peak, size)  # one copy of the text is 1x; a whole-text writer holds 3x
        assert (workdir / "r.json").read_text() == "".join(cli._parts(report)) + "\n"

    def test_stdout_when_no_out_path(self, workdir, capsys):
        assert main(["quantum", "discriminate", "--gamma", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["delta_min"] == pytest.approx(0.0669872981078)

    def test_printing_a_report_does_not_hold_its_text(self, workdir, monkeypatch):
        # stdout is a real file: capsys would keep a copy of the text
        argv = ["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "8"]
        report = run_config(cli._config_from_args(cli._build_parser().parse_args(argv)))
        monkeypatch.setattr(cli, "run_config", lambda cfg: report)
        with open("printed.json", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = os.path.getsize("printed.json")
        assert peak < size, (peak, size)  # printing the joined text holds it at least once
        assert (workdir / "printed.json").read_text() == "".join(cli._parts(report)) + "\n"

    @pytest.mark.parametrize("argv", [*SWEEP_RUNS.values(), GOLDEN_RUNS["feasible_lp.json"][:-2],
                                      GOLDEN_RUNS["feasible_sdp.json"][:-2]],
                             ids=[*SWEEP_RUNS, "feasible-lp", "feasible-sdp"])
    def test_stdout_prints_the_report_that_out_writes(self, workdir, capsys, argv):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", "r.json"]) == 0
        assert capsys.readouterr().out == ""
        written = CLOCK_LINE.sub("", (workdir / "r.json").read_text())
        assert CLOCK_LINE.sub("", printed) == written.replace('"out": "r.json"', '"out": null', 1)

    @pytest.mark.parametrize("argv", [
        ["quantum", "discriminate", "--gamma", "0.5", "--out", "nodir/r.json"],
        ["quantum", "discriminate", "--gamma", "0.5", "--out", ""],
    ], ids=["out-in-missing-dir", "empty-out"])
    def test_a_failed_run_prints_nothing_and_leaves_no_temp_file(self, workdir, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("plab: error: ") and err.count("\n") == 1
        assert not list(workdir.rglob("*.tmp"))

    def test_sdp_report_text_equals_dumps_of_the_json_witness(self, workdir, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "write_report", lambda report, path: (written.append(report),
                                                                       write_report(report, path)))
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "4",
                     "--out", "r.json"]) == 0
        (report,) = written
        witness = report["metrics"]["witness"]
        assert report["metrics"]["verdict"] == "feasible" and "sweep" not in report
        assert [e.shape for e in witness["elements"]] == [(16, 16)] * 2
        assert (workdir / "r.json").read_text() == json.dumps(pin(report), indent=2, sort_keys=True) + "\n"

    def test_report_embeds_version_and_full_config(self, workdir):
        assert main(["feasible", "lp", "--task", "task.json", "--out", "r.json"]) == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["version"]
        assert report["config"]["kind"] == "feasible-lp"
        assert report["config"]["parameters"]["task"] == "task.json"
        assert report["metrics"]["verdict"] == "feasible"


EMX_PARAMS = {"dist": "dist.json", "trials": 20}

# (subcommand, config, text the error must contain): configs that crashed
# with a traceback, or ran with a silently ignored or coerced key.
BAD_CONFIGS = {
    "not-an-object": (["emx"], [1, 2], "JSON object"),
    "parameters-not-an-object": (["emx"], {"kind": "emx", "parameters": [1, 2]}, "'parameters'"),
    "null-seed": (["emx"], {"kind": "emx", "parameters": EMX_PARAMS, "seed": None}, "'seed'"),
    "negative-seed": (["emx"], {"kind": "emx", "parameters": EMX_PARAMS, "seed": -3}, "'seed' must be >= 0"),
    "kind-not-a-string": (["emx"], {"kind": 5, "parameters": EMX_PARAMS}, "'kind'"),
    "unknown-top-level-key": (["emx"], {"kind": "emx", "parameters": EMX_PARAMS, "sed": 3}, "'sed'"),
    "sweep-as-string": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "sweep_d": "1,2"}}, "'sweep_d'"),
    "unknown-parameter": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "epsilom": "1/2"}}, "'epsilom'"),
    "string-number": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "trials": "5"}}, "'trials'"),
    "trials-past-the-sample-limit": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "trials": 2**63}},
                                     "trials = 9223372036854775808 is above the limit of 16777216"),
    "float-for-int": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "d": 3.0}}, "'d'"),
    "bool-for-rational": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "epsilon": True}}, "'epsilon'"),
    "zero-denominator": (["emx"], {"kind": "emx", "parameters": {**EMX_PARAMS, "delta": "1/0"}}, "'delta'"),
    "integer-beyond-float": (["quantum", "discriminate"],
                             {"kind": "quantum", "parameters": {"gamma": 10**400}}, "'gamma'"),
    "mode-not-a-choice": (["compress"], {"kind": "compress", "parameters": {"mode": "demo2"}}, "'mode'"),
    "op-not-a-choice": (["quantum", "discriminate"],
                        {"kind": "quantum", "parameters": {"gamma": 0.5, "op": "estimate"}}, "'op'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_fails_at_the_boundary_naming_the_key(workdir, capsys, case):
    command, cfg, needle = BAD_CONFIGS[case]
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main([*command, "--config", "cfg.json", "--out", "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("plab: error:") and needle in err
    assert not (workdir / "r.json").exists()


def test_validate_names_the_mistyped_key():
    with pytest.raises(ValueError, match="'gamma' must be int or float"):
        validate(_checked({"kind": "quantum", "parameters": {"gamma": "0.5"}}))
    with pytest.raises(ValueError, match="'sweep_copies' must be a list of int"):
        validate(_checked({"kind": "quantum", "parameters": {"gamma": 0.5, "sweep_copies": [1, True]}}))
    with pytest.raises(ValueError, match="'seed' must be an integer"):
        run_config({"kind": "emx", "seed": True})


def test_null_parameter_means_absent(workdir):
    (workdir / "cfg.json").write_text(json.dumps({"kind": "emx", "parameters": {**EMX_PARAMS, "trials": None}}))
    assert main(["emx", "--config", "cfg.json", "--out", "null.json"]) == 0
    assert main(["emx", "--dist", "dist.json", "--trials", "1000", "--out", "default.json"]) == 0
    null = json.loads((workdir / "null.json").read_text())
    default = json.loads((workdir / "default.json").read_text())
    assert null["config"]["parameters"]["trials"] is None
    assert null["metrics"] == default["metrics"]


def test_mode_dependent_parameter_is_required(workdir, capsys):
    assert main(["compress", "--mode", "demo", "--domain", "a,b"]) == 1
    assert "missing required parameter 'pair'" in capsys.readouterr().err
    assert main(["compress", "--mode", "lemma1"]) == 1
    assert "missing required parameter 'dist'" in capsys.readouterr().err


def test_unwritable_report_path_fails_cleanly(workdir, capsys):
    assert main(["quantum", "discriminate", "--gamma", "0.5", "--out", "no_such_dir/r.json"]) == 1
    assert capsys.readouterr().err.startswith("plab: error:")


# (command line, file to write, its JSON content or raw bytes[, the error after "malformed FILE: "]):
# malformed input files whose parse raised TypeError, or read a string where a
# list belongs element by element, or failed in numpy on rows of unequal
# lengths, or turned a label that is not a string into a name; and text that is
# not UTF-8, nests too deep or holds a number past the int-string limit.
POLYTOPE = ["feasible", "lp", "--task", "task.json", "--polytope", "bad.json"]
STATES = ["feasible", "sdp", "--task", "task.json", "--states", "states"]
BAD_FILES = {
    "dist-weight-bool": (["emx", "--dist", "bad.json"], "bad.json",
                         {"labels": ["a", "b"], "weights": [True, "1/2"]}),
    "coarse-label-bool": (["coarse", "--dist", "bad.json"], "bad.json",
                          {"labels": [True, 0.5], "weights": ["1/2", "1/2"]}),
    "task-utility-null": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                          {"thetas": ["t0", "t1"], "hyps": ["h0", "h1"], "utility": None}),
    "task-is-a-list": (["feasible", "lp", "--task", "bad.json"], "bad.json", [1, 2]),
    "state-entries-not-pairs": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                                {"dim": 2, "entries": [[1, 0], [0, 0]]}),
    "state-entry-three-parts": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                                {"dim": 2, "entries": [[[1, 0, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    "state-entry-one-part": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                             {"dim": 2, "entries": [[[1], [0, 0]], [[0, 0], [0, 0]]]}),
    "state-entry-bool": (STATES, "states/t0.json",
                         {"dim": 2, "entries": [[[True, False], [False, False]], [[False, False], [False, False]]]},
                         "matrix entries must be [re, im] pairs"),
    "polytope-coefficient-bool": (POLYTOPE, "bad.json",
                                  {"variables": ["x"], "constraints": [{"coeffs": [True], "relation": ">=", "rhs": "0"}]}),
    "polytope-coeffs-string": (POLYTOPE, "bad.json",
                               {"variables": ["a", "b", "c", "d"],
                                "constraints": [{"coeffs": "1000", "relation": ">=", "rhs": "0"}]}),
    "polytope-variables-string": (POLYTOPE, "bad.json", {"variables": "abcd", "constraints": []}),
    "polytope-variables-not-strings": (POLYTOPE, "bad.json", {"variables": [1, 2, 3, 4], "constraints": []}),
    "task-utility-divides-by-zero": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                                     {"thetas": ["t0"], "hyps": ["h0"], "utility": [["1/0"]]}),
    "dist-weight-divides-by-zero": (["emx", "--dist", "bad.json"], "bad.json",
                                    {"labels": ["a", "b"], "weights": ["1/0", "1/2"]}),
    "polytope-rhs-divides-by-zero": (POLYTOPE, "bad.json",
                                     {"variables": ["a", "b", "c", "d"],
                                      "constraints": [{"coeffs": ["1", "0", "0", "0"], "relation": ">=",
                                                       "rhs": "1/0"}]}),
    "coarse-label-overflows-float": (["coarse", "--dist", "bad.json"], "bad.json",
                                     {"labels": ["1e400", 0.5], "weights": ["1/2", "1/2"]}),
    "dist-weight-not-a-rational": (["emx", "--dist", "bad.json"], "bad.json",
                                   {"labels": ["a", "b"], "weights": ["abc", "1/2"]}),
    "task-utility-nan": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                         {"thetas": ["t0", "t1"], "hyps": ["h0", "h1"], "utility": [[math.nan, 0], [0, 1]]}),
    "polytope-coefficient-infinity": (POLYTOPE, "bad.json",
                                      {"variables": ["a", "b", "c", "d"],
                                       "constraints": [{"coeffs": [math.inf, 0, 0, 0], "relation": ">=",
                                                        "rhs": "0"}]}),
    "coarse-label-nan": (["coarse", "--dist", "bad.json"], "bad.json",
                         {"labels": [math.nan, 0.5], "weights": ["1/2", "1/2"]}),
    "state-dim-not-integer": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                              {"dim": 2.5, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    "state-entries-ragged": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                             {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}),
    "task-thetas-string": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                           {"thetas": "ab", "hyps": "xy", "utility": ["10", "01"]}),
    "task-utility-row-string": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                                {"thetas": ["a", "b"], "hyps": ["x", "y"], "utility": [["1", "0"], "01"]}),
    "dist-labels-string": (["emx", "--dist", "bad.json"], "bad.json", {"labels": "ab", "weights": ["1/2", "1/2"]}),
    "dist-weights-string": (["emx", "--dist", "bad.json"], "bad.json", {"labels": ["a"], "weights": "1"}),
    "coarse-labels-string": (["coarse", "--dist", "bad.json"], "bad.json", {"labels": "01", "weights": ["1/2", "1/2"]}),
    "coarse-weights-string": (["coarse", "--dist", "bad.json"], "bad.json", {"labels": [0.5], "weights": "1"}),
    "task-theta-a-list": (["feasible", "lp", "--task", "bad.json"], "bad.json",
                          {"thetas": ["t0", ["t1"]], "hyps": ["h0", "h1"], "utility": [["1", "0"], ["0", "1"]]},
                          "'thetas' labels must be strings, not list"),
    "task-hypothesis-a-number": (["feasible", "sdp", "--task", "bad.json", "--states", "states"], "bad.json",
                                 {"thetas": ["t0", "t1"], "hyps": ["h0", 1], "utility": [["1", "0"], ["0", "1"]]},
                                 "'hyps' labels must be strings, not int"),
    "dist-weights-missing": (["emx", "--dist", "bad.json"], "bad.json", {"labels": ["a", "b"]},
                             "missing key 'weights'"),
    "state-entries-missing": (STATES, "states/t0.json", {"dim": 2}, "missing key 'entries'"),
    "polytope-relation-missing": (POLYTOPE, "bad.json",
                                  {"variables": ["a", "b", "c", "d"],
                                   "constraints": [{"coeffs": ["1", "0", "0", "0"], "rhs": "0"}]},
                                  "missing key 'relation'"),
    "polytope-rhs-missing": (POLYTOPE, "bad.json",
                             {"variables": ["a", "b", "c", "d"],
                              "constraints": [{"coeffs": ["1", "0", "0", "0"], "relation": ">="}]},
                             "missing key 'rhs'"),
    "config-key-unknown": (["emx", "--config", "bad.json"], "bad.json", {"kind": "emx", "sed": 3},
                           "unknown config key 'sed' (known: kind, parameters, seed, out)"),
    "config-kind-missing": (["emx", "--config", "bad.json"], "bad.json", {"parameters": {"dist": "dist.json"}},
                            "missing key 'kind'"),
    "dist-not-utf-8": (["emx", "--dist", "bad.json"], "bad.json", b'\xff{"labels": ["a"], "weights": ["1"]}'),
    "dist-nested-too-deep": (["emx", "--dist", "bad.json"], "bad.json", b"[" * 200_000),
    "config-nested-too-deep": (["emx", "--config", "bad.json"], "bad.json", b"[" * 200_000),
    "dist-weight-past-the-int-string-limit": (["emx", "--dist", "bad.json"], "bad.json",
                                              b'{"labels": ["a"], "weights": [1' + b"0" * 4999 + b"]}"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_input_file_fails_cleanly(workdir, capsys, case):
    argv, name, content, *message = BAD_FILES[case]
    if isinstance(content, bytes):
        (workdir / name).write_bytes(content)
    else:
        (workdir / name).write_text(json.dumps(content))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"plab: error: malformed {name}: ") and err.count("\n") == 1
    if message:
        assert err == f"plab: error: malformed {name}: {message[0]}\n"


# (command line, file to write, its JSON content[, the error after "FILE: "]):
# input files that parse but fail a check of their meaning; the error names the file.
MEANINGLESS_FILES = {
    "state-two-rows-of-three": (STATES, "states/t0.json", {"entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3]}),
    "state-not-hermitian": (STATES, "states/t0.json",
                            {"dim": 2, "entries": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}),
    "state-trace-two": (STATES, "states/t0.json", {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
    # eigenvalues of about +-1e308, which overflow to NaN in the check; a numpy warning fails the test
    "state-eigenvalues-overflow": (STATES, "states/t0.json",
                                   {"dim": 2, "entries": [[[1, 0], [1e308, 0]], [[1e308, 0], [0, 0]]]},
                                   "state has an eigenvalue below -1e-10"),
    "dist-weights-sum-to-5/6": (["emx", "--dist", "bad.json"], "bad.json",
                                {"labels": ["a", "b"], "weights": ["1/2", "1/3"]}),
}


@pytest.mark.parametrize("case", sorted(MEANINGLESS_FILES))
def test_input_file_failing_a_check_of_its_meaning_is_named(workdir, capsys, case):
    argv, name, content, *message = MEANINGLESS_FILES[case]
    (workdir / name).write_text(json.dumps(content))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"plab: error: {name}: ") and err.count("\n") == 1
    if message:
        assert err == f"plab: error: {name}: {message[0]}\n"


@pytest.mark.parametrize("text", ["", "{", "{}\n{}"], ids=["empty", "unclosed", "two-texts"])
def test_input_file_that_is_not_json_is_named(workdir, capsys, text):
    # the second state file: with two files read, a JSON error that names none is no help
    (workdir / "states" / "t1.json").write_text(text)
    assert main(STATES) == 1
    err = capsys.readouterr().err
    assert err.startswith("plab: error: malformed states/t1.json: ") and err.count("\n") == 1


def test_float_weights_are_summed_exactly(workdir):
    """Three float(1/6) add to exactly 0.5 in floats, but their exact sum is
    below 1/2: a segment wins at epsilon = 1/2 only from its fourth label,
    so the success rate at d = 2 is 1 - (1/2)^2 = 3/4, not 1 - (1/3)^2."""
    (workdir / "sixths.json").write_text(json.dumps({"labels": list("abcdef"), "weights": [1 / 6] * 6}))
    argv = ["emx", "--dist", "sixths.json", "--epsilon", "1/2", "--delta", "1/3", "--d", "2",
            "--trials", "400", "--seed", "5", "--out", "r.json"]
    assert main(argv) == 0
    rate = json.loads((workdir / "r.json").read_text())["metrics"]["empirical_rate"]
    assert abs(rate - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / 400)


def test_polytope_size_mismatch_names_both_counts_and_the_file(workdir, capsys):
    poly = {"variables": ["x", "y"], "constraints": [{"coeffs": ["1", "0"], "relation": ">=", "rhs": "0"}]}
    (workdir / "small.json").write_text(json.dumps(poly))
    assert main(["feasible", "lp", "--task", "task.json", "--polytope", "small.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("plab: error: small.json has 2 variables")
    assert "task.json has 2 x 2 = 4" in err


@pytest.mark.parametrize("delta, witness", [
    ("1/5", {"q[h0|t0]": "5/6", "q[h1|t0]": "1/6", "q[h0|t1]": "1/5", "q[h1|t1]": "4/5"}),
    ("1/10", None),
])
def test_polytope_with_non_integer_literals(workdir, delta, witness):
    # literals "1/2", "0.5", "-3", "2/6", "0" and "0.75"; the four equality
    # rows pin the one point (5/6, 1/6 | 1/5, 4/5), so the task's rows
    # q[h0|t0], q[h1|t1] >= 1 - delta hold iff delta >= 1/5
    argv = ["feasible", "lp", "--task", "task.json", "--polytope", str(DATA / "polytope_mixed_literals.json"),
            "--epsilon", "1/2", "--delta", delta, "--out", "r.json"]
    assert main(argv) == 0
    metrics = json.loads((workdir / "r.json").read_text())["metrics"]
    assert metrics["verdict"] == ("feasible" if witness else "infeasible")
    assert metrics.get("witness") == witness


def test_internal_type_error_is_not_reported_as_bad_input(workdir, monkeypatch):
    def broken(p, seed):
        raise TypeError("a defect in a runner")

    monkeypatch.setattr(cli, "_KINDS", {**cli._KINDS, "quantum": cli._KINDS["quantum"]._replace(run=broken)})
    with pytest.raises(TypeError, match="a defect in a runner"):
        main(["quantum", "discriminate", "--gamma", "0.5"])


def help_of(capsys, words: list) -> str:
    """``plab WORDS --help`` as printed, with all whitespace removed, so line
    wrapping (also at hyphens) cannot split what a test looks for."""
    with pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    assert exc.value.code == 0
    return "".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("kind", sorted(cli._KINDS), ids=lambda kind: " ".join(cli._KINDS[kind].words))
def test_leaf_help_lists_every_option_with_its_help(capsys, kind):
    spec = cli._KINDS[kind]
    parser = cli._build_parser()
    for word in spec.words:
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subparsers.choices[word]
    declared = {"--" + p.name.replace("_", "-") for p in spec.params if p.flag}
    assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help", "--config", "--seed", "--out",
                                                                      *declared}
    text = help_of(capsys, list(spec.words))
    for flag in ("--config", "--seed", "--out"):
        assert flag in text
    for p in spec.params:
        if p.flag:
            metavar = "{" + ",".join(p.choices) + "}" if p.choices else p.name.upper()
            assert "--" + p.name.replace("_", "-") + metavar + "".join(p.help.split()) in text


# The top level (no words) and every group of subcommands.
GROUP_HELP_WORDS = [[], *map(list, sorted({spec.words[:1] for spec in cli._KINDS.values() if len(spec.words) > 1}))]


@pytest.mark.parametrize("words", GROUP_HELP_WORDS, ids=lambda w: " ".join(w) or "plab")
def test_group_and_top_level_help_list_every_subcommand(capsys, words):
    text = help_of(capsys, words)
    below = [spec for spec in cli._KINDS.values() if list(spec.words[:len(words)]) == words]
    assert below
    for spec in below:
        word = spec.words[len(words)]
        about = spec.help if len(spec.words) == len(words) + 1 else cli._GROUP_HELP[word]
        assert word + "".join(about.split()) in text


def test_two_calls_in_one_process_build_the_parser_once(workdir, monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "plab":  # the top level, not a subcommand
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        assert main(["quantum", "discriminate", "--gamma", "0.5"]) == 0
        assert main(["compress", "--mode", "demo", "--domain", "a,b", "--pair", "a,b"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert len(built) == 1


PAST_BITS_LIMIT = ("is above the limit of 1074: every double in [0,1] is a multiple of 2^-1074, "
                   "so more bits separate no further points")


@pytest.mark.parametrize("argv, message", [
    (["emx", "--dist", "dist.json", "--trials", "5", "--d", "-1"], "sample size must be >= 0"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--sweep-d", "2,-1"], "sample size must be >= 0"),
    (["coarse", "--dist", "points.json", "--trials", "5", "--d", "-1"], "sample size must be >= 0"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--seed", "-1"], "config key 'seed' must be >= 0, got -1"),
    (["compress", "--mode", "demo", "--domain", "a,b,c", "--pair", "a,z"], "'z' not in domain"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--d", "0"], "empty sample: maximum index undefined"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--sweep-d", "0"], "empty sample: maximum index undefined"),
    (["coarse", "--dist", str(DATA / "dist_points_outside.json"), "--trials", "5"], "point 1.5 outside [0,1]"),
    (["emx", "--dist", "dist.json", "--epsilon", "1/1000000000", "--delta", "1/1000000000", "--trials", "1"],
     "sample size d = 20723265827 is above the limit of 16777216 points"),
    (["emx", "--dist", "dist.json", "--trials", str(10**20)],
     "trials = 100000000000000000000 is above the limit of 16777216"),
    (["compress", "--mode", "lemma1", "--m", str(10**309), "--dist", "dist.json", "--trials", "1"],
     "m must lie in [1, 2^53]"),
    (["compress", "--mode", "lemma1", "--m", "18", "--dist", "dist.json", "--trials", "1"],
     "m = 18 walks more than 65536 distinct value subtuples of the sample"),
    (["compress", "--mode", "lemma1", "--m", "200000", "--dist", "dist.json", "--trials", "1"],
     "sample size d = 20439031 is above the limit of 16777216 points"),
    (["compress", "--mode", "lemma1", "--m", "5338035485622270", "--dist", "dist.json", "--trials", "1"],
     "the least n for m = 5338035485622270 is too close to a float tie to settle"),
    (["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", str(10**12)],
     "dimension 2^1000000000000 exceeds cap 1024"),
    (["coarse", "--dist", "points.json", "--trials", "5", "--bits", "1075"], f"bits = 1075 {PAST_BITS_LIMIT}"),
    (["coarse", "--dist", "points.json", "--trials", "5", "--sweep-bits", "4,2000"], f"bits = 2000 {PAST_BITS_LIMIT}"),
], ids=["d", "sweep-d", "coarse-d", "seed", "pair-outside-domain", "d-zero", "sweep-d-zero", "coarse-point-outside",
        "d-past-the-sample-limit", "trials-past-the-sample-limit", "m-past-2^53", "m-walk-past-the-level-limit",
        "m-sample-past-the-sample-limit", "m-too-close-to-a-tie", "copies-far-past-the-cap",
        "bits-past-the-limit", "sweep-bits-past-the-limit"])
def test_out_of_range_input_fails_with_its_own_message(workdir, capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"plab: error: {message}\n"


def test_coarse_runs_a_sample_below_the_sample_complexity(workdir):
    """One rule for a d below sample_complexity(1/3, 1/3) = 3: ``plab coarse`` runs it, as ``plab emx``
    does, and reports that d with the rate and bound of the same point in a library call."""
    assert main(["coarse", "--dist", "points.json", "--trials", "300", "--d", "2", "--out", "r.json"]) == 0
    metrics = json.loads((workdir / "r.json").read_text())["metrics"]
    P = emx.FinSupportDist([float(Fraction(k, 20)) for k in range(1, 20, 2)], ["1/10"] * 10)
    pi = coarse.UniformBinsMap(8)
    [rep] = emx.verify_guarantee([(emx.SegmentLearner(pi.domain, pi), 2)], P, "1/3", "1/3", 300, DEFAULT_SEED)
    assert metrics["d"] == 2 and metrics["bits"] == 8
    assert (metrics["empirical_rate"], metrics["bound"]) == (cli._leaf(rep.empirical_rate), cli._leaf(rep.bound))
    # delta = 0 has no sample complexity, but a run given its d needs none
    assert main(["coarse", "--dist", "points.json", "--trials", "3", "--d", "4", "--delta", "0",
                 "--out", "r.json"]) == 0
    assert json.loads((workdir / "r.json").read_text())["metrics"]["d"] == 4


MULTI_WORD_RUNS = {
    "emx": ["emx", "--dist", "dist.json", "--epsilon", "1/3", "--delta", "1/3", "--d", "5",
            "--trials", "300", "--sweep-d", "1,9"],
    "coarse": ["coarse", "--bits", "6", "--dist", "points.json", "--trials", "200"],
    "compress-lemma1": ["compress", "--mode", "lemma1", "--dist", "dist.json", "--n", "25", "--trials", "100"],
}


@pytest.mark.parametrize("seed", ["0", "4294967296", "18446744073709551619"])
@pytest.mark.parametrize("run", sorted(MULTI_WORD_RUNS))
def test_batched_substreams_write_the_reports_of_one_substream_per_trial(workdir, monkeypatch, run, seed):
    """Seeds of one, two and three uint32 words: the report is the one that a
    separate ``substream(seed, k)`` per trial writes."""
    argv = MULTI_WORD_RUNS[run] + ["--seed", seed, "--out"]
    assert main(argv + ["batched.json"]) == 0
    monkeypatch.setattr(emx, "substreams", lambda s, n: (substream(s, k) for k in range(n)))
    assert main(argv + ["single.json"]) == 0
    batched, single = ((workdir / name).read_text() for name in ("batched.json", "single.json"))
    assert CLOCK_LINE.sub("", batched) == CLOCK_LINE.sub("", single.replace("single.json", "batched.json"))


def run_fresh(code: str, cwd=None) -> list[str]:
    """The words ``code`` prints in a fresh interpreter that imports plab from this tree."""
    src = str(HERE.parent / "src")
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
                          cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_module_entry_point_exits_with_mains_status(workdir):
    """``python -m plab.cli`` exits 0 on a run and 1 on bad input, with one error line."""
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    entry = [sys.executable, "-m", "plab.cli", "emx", "--dist", "dist.json", "--trials", "10"]
    ok = subprocess.run(entry, cwd=workdir, env=env, capture_output=True, text=True)
    assert ok.returncode == 0 and ok.stderr == "" and json.loads(ok.stdout)["metrics"]["d"] == 3
    bad = subprocess.run([*entry, "--epsilon", "2"], cwd=workdir, env=env, capture_output=True, text=True)
    assert bad.returncode == 1 and bad.stdout == ""
    assert bad.stderr.startswith("plab: error: need epsilon in (0,1)") and bad.stderr.count("\n") == 1


linux_rusage = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")


def sdp_peak(*argv: str, stdout=os.devnull) -> int:
    """Whole-process peak in bytes of ``python -m plab.cli feasible sdp`` on the identity task with
    ``argv`` and its stdout in the file ``stdout``, read from the run's ``os.wait4``.  Linux counts
    the memory of the process a child is spawned from in the child's ru_maxrss, so the run is the
    child of a small interpreter that prints its exit status and ru_maxrss in KiB, not of this one."""
    peak_of = ("import os, subprocess, sys\n"
               "with open(sys.argv[1], 'w') as out:\n"
               "    _, status, usage = os.wait4(subprocess.Popen(sys.argv[2:], stdout=out).pid, 0)\n"
               "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    run = [sys.executable, "-m", "plab.cli", "feasible", "sdp", "--task", str(DATA / "task_identity.json"),
           "--states", str(DATA / "states"), *argv]
    done = subprocess.run([sys.executable, "-c", peak_of, stdout, *run], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")})
    status, kib = map(int, done.stdout.split())
    assert status == 0, (argv, done.stderr)
    return kib * 1024


@pytest.fixture(scope="module")
def sdp9_written(tmp_path_factory):
    """(peak, report path) of the d = 9 run that writes its 42 MB witness report with --out."""
    path = tmp_path_factory.mktemp("sdp9") / "r.json"
    return sdp_peak("--copies", "9", "--out", str(path)), path


@linux_rusage
def test_a_d9_witness_report_is_written_within_memory(sdp9_written, tmp_path):
    """The d = 1 run's peak holds the interpreter, numpy and its BLAS, so what the d = 9 run adds
    over it is what its report costs.  A writer that holds the text whole needs nearly 4x the
    report's size; the streaming writer about 0.8x."""
    peak, path = sdp9_written
    grown = peak - sdp_peak("--copies", "1", "--out", str(tmp_path / "r.json"))
    size = path.stat().st_size
    assert grown < 1.5 * size, (grown, size)


@linux_rusage
def test_a_d9_report_printed_is_the_written_report_in_the_same_memory(sdp9_written, tmp_path):
    """Printing streams the text as --out does: printing the d = 9 text joined added about 69 MB.
    The texts are compared line by line, so neither is held whole here."""
    written_peak, written = sdp9_written
    printed = tmp_path / "printed.json"
    peak = sdp_peak("--copies", "9", stdout=str(printed))
    assert peak < written_peak + 10e6, (peak, written_peak)
    with open(printed, encoding="utf-8") as a, open(written, encoding="utf-8") as b:
        differ = [pair for pair in itertools.zip_longest(a, b)
                  if pair[0] != pair[1] and not all(line and line.startswith('  "wall_clock_s": ') for line in pair)]
    assert differ == [('    "out": null,\n', f'    "out": {json.dumps(str(written))},\n')]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy 2 loads numpy.random on first use, at about 20 ms; plab's start-up
    must not pay for it."""
    eager, after_cli = run_fresh("import numpy; eager = 'numpy.random' in sys.modules; "
                                 "import plab.cli; print(eager, 'numpy.random' in sys.modules)")
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert after_cli == "False"


def fresh_runs(workdir, runs: dict, before: str = "", after: str = "") -> list[str]:
    """Run each ``name: argv`` (written to report.json) through plab.cli.main in one fresh
    interpreter, after ``before`` and followed by ``after``, keeping each report as ``name``.
    Whether numpy.linalg, loaded with numpy itself, is in sys.modules after ``import plab.cli``
    and after each run, then what ``after`` prints."""
    return run_fresh(f"{before}\nimport os, plab.cli\nprint('numpy.linalg' in sys.modules)\n"
                     f"for name, argv in {list(runs.items())!r}:\n"
                     "    assert plab.cli.main(argv) == 0\n"
                     "    os.replace('report.json', name)\n"
                     f"    print('numpy.linalg' in sys.modules)\n{after}", cwd=workdir)


def assert_goldens(workdir, names):
    for name in names:
        assert CLOCK_LINE.sub("", (workdir / name).read_text()) == CLOCK_LINE.sub("", (GOLDEN / name).read_text())


EXACT_GOLDENS = ("feasible_lp.json", "compress_demo.json")


def test_exact_runs_never_load_numpy(workdir):
    """The exact LP and the 2->1 demo do no float work: plab binds numpy lazily, and
    their reports hold no numpy value, so numpy is never loaded."""
    shutil.copy(DATA / "polytope_mixed_literals.json", workdir / "poly.json")
    runs = {"feasible_lp.json": GOLDEN_RUNS["feasible_lp.json"],
            "delta0.out.json": ["feasible", "lp", "--task", "task.json", "--epsilon", "1/2", "--delta", "0",
                                "--out", "report.json"],
            "poly.out.json": ["feasible", "lp", "--task", "task.json", "--polytope", "poly.json",
                              "--epsilon", "1/2", "--delta", "1/5", "--out", "report.json"],
            "compress_demo.json": GOLDEN_RUNS["compress_demo.json"]}
    assert fresh_runs(workdir, runs) == ["False"] * 5
    assert_goldens(workdir, EXACT_GOLDENS)


def test_exact_runs_need_no_numpy(workdir):
    """With numpy blocked, plab.cli still imports and the exact runs write their golden reports."""
    runs = {name: GOLDEN_RUNS[name] for name in EXACT_GOLDENS}
    assert fresh_runs(workdir, runs, before="sys.modules['numpy'] = None") == ["False"] * 3
    assert_goldens(workdir, EXACT_GOLDENS)


def test_numpy_imported_first_is_the_numpy_plab_uses():
    got = run_fresh("import numpy, types\nimport plab.cli\n"
                    "print(type(numpy) is types.ModuleType, plab._np is numpy, "
                    "all(sys.modules[f'plab.{m}'].np is numpy for m in ('cli', 'emx', 'feasibility', 'quantum')))")
    assert got == ["True"] * 3


LAYERS = ("coarse", "compression", "feasibility", "quantum", "simplex", "tasks")


def executed(names: tuple) -> str:
    """Code that prints, for each plab module in ``names``, whether it has executed: a lazy one has not."""
    return f"import types\nprint(*(type(sys.modules['plab.' + m]) is types.ModuleType for m in {names!r}))"


def test_importing_the_cli_executes_no_layer():
    """Every layer is in sys.modules and bound on plab, unexecuted (still a lazy module); no record on the
    start-up path is a dataclass, so neither dataclasses nor inspect is loaded."""
    got = run_fresh(f"import plab.cli\n{executed(LAYERS)}\n"
                    f"print(*(getattr(plab, m) is sys.modules['plab.' + m] for m in {LAYERS!r}))\n"
                    "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert got == ["False"] * 6 + ["True"] * 6 + ["False", "False"]


def test_learner_and_quantum_runs_never_execute_the_deciders(workdir):
    """The emx, coarse, 2->1 demo and discrimination goldens in one interpreter: the LP and SDP
    deciders' modules are never executed, and every report is its golden."""
    names = ("emx.json", "coarse.json", "compress_demo.json", "quantum.json")
    got = fresh_runs(workdir, {name: GOLDEN_RUNS[name] for name in names},
                     after=executed(("feasibility", "simplex", "tasks")))
    assert got[-3:] == ["False"] * 3
    assert_goldens(workdir, names)


def test_decider_runs_load_no_dataclasses(workdir):
    """The deciders' records are named tuples: a feasible lp run loads neither dataclasses nor inspect,
    and a feasible sdp run, after an emx and a discrimination run in the same interpreter, loads no
    dataclasses (numpy itself imports inspect).  Every report is golden."""
    lp = fresh_runs(workdir, {"feasible_lp.json": GOLDEN_RUNS["feasible_lp.json"]},
                    after="print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    names = ("emx.json", "quantum.json", "feasible_sdp.json")
    others = fresh_runs(workdir, {name: GOLDEN_RUNS[name] for name in names},
                        after="print('dataclasses' in sys.modules)")
    assert lp[-2:] == ["False", "False"] and others[-1] == "False"
    assert_goldens(workdir, ("feasible_lp.json", *names))


def test_a_failing_run_executes_no_layer(workdir):
    """main's error clause names ResourceCapError from the package, so an emx run that fails still
    executes no layer."""
    got = run_fresh("import plab.cli\nassert plab.cli.main(['emx', '--dist', 'missing.json']) == 1\n"
                    f"{executed(LAYERS)}", cwd=workdir)
    assert got == ["False"] * 6


def test_a_layer_imported_first_is_the_layer_plab_uses():
    """feasibility imported before plab.cli executes quantum, simplex and tasks with it; plab.cli
    binds those modules, not new lazy ones."""
    bound = ("feasibility", "quantum", "tasks")
    got = run_fresh(f"import plab.feasibility, plab.cli\n{executed((*bound, 'simplex'))}\n"
                    f"print(*(getattr(plab.cli, m) is sys.modules['plab.' + m] for m in {bound!r}))")
    assert got == ["True"] * 7


def test_float_goldens_when_numpy_loads_inside_plab(workdir):
    """numpy first loaded by a plab call, not by an import: the float reports do not change."""
    names = ("quantum.json", "feasible_sdp.json")
    assert fresh_runs(workdir, {name: GOLDEN_RUNS[name] for name in names}) == ["False", "True", "True"]
    assert_goldens(workdir, names)
