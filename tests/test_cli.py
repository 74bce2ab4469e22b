"""Command-line interface: config handling, report determinism, golden files.

Golden reports were frozen from the exact invocations below; the comparison
is byte for byte, minus the wall_clock_s line (the one intentionally
non-reproducible field).  Input files are staged under relative names so the
config echo inside each report is path-stable.
"""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_writer import pin

from plab import cli, emx, quantum
from plab.cli import (
    DEFAULT_SEED,
    ExperimentConfig,
    RunReport,
    emit_table,
    main,
    run_config,
    write_report,
)

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GOLDEN_RUNS = {
    "emx.json": ["emx", "--dist", "dist.json", "--epsilon", "1/3", "--delta", "1/3",
                 "--trials", "400", "--seed", "20177", "--d", "3", "--sweep-d", "1,2,3,4",
                 "--out", "report.json", "--table", "table.csv"],
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


def test_sweep_table_matches_golden(workdir):
    assert main(GOLDEN_RUNS["emx.json"]) == 0
    got = (workdir / "table.csv").read_text()
    assert got == (GOLDEN / "emx_table.csv").read_text()


SWEEP_RUNS = {
    "emx": ["emx", "--dist", "dist.json", "--trials", "50", "--sweep-d", "1,2,7"],
    "coarse": ["coarse", "--dist", "points.json", "--trials", "50", "--sweep-bits", "0,3,9"],
    "compress": ["compress", "--mode", "lemma1", "--dist", "dist.json", "--trials", "30", "--sweep-n", "4,12"],
    "quantum": ["quantum", "discriminate", "--gamma", "0.3468", "--delta", "1e-7",
                "--sweep-copies", "1,5,7,40"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_RUNS))
def test_sweep_table_cells_are_the_report_sweep_as_text(workdir, name):
    assert main([*SWEEP_RUNS[name], "--out", "r.json", "--table", "t.csv"]) == 0
    sweep = json.loads((workdir / "r.json").read_text())["sweep"]
    with open(workdir / "t.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(sweep) >= 2
    assert rows == [{key: str(value) for key, value in point.items()} for point in sweep]


@pytest.mark.parametrize("argv", [
    ["emx", "--dist", "dist.json", "--d", "3", "--sweep-d", "3,1,1"],
    ["coarse", "--dist", "points.json", "--bits", "3", "--sweep-bits", "3,0,0"],
    ["compress", "--mode", "lemma1", "--dist", "dist.json", "--n", "12", "--sweep-n", "12,4,4"],
], ids=["emx", "coarse", "compress"])
def test_each_distinct_point_of_a_run_is_checked_once(workdir, monkeypatch, argv):
    """The run's own point comes first in the sweep, and the last two sweep
    points are equal: two ``verify_guarantee`` calls make all four entries."""
    calls = []
    monkeypatch.setattr(cli, "verify_guarantee", lambda *args: calls.append(args) or emx.verify_guarantee(*args))
    assert main([*argv, "--trials", "40", "--out", "r.json"]) == 0
    report = json.loads((workdir / "r.json").read_text())
    assert len(calls) == 2
    first, *rest = report["sweep"]
    assert first == {key: report["metrics"][key] for key in first}
    assert rest[0] == rest[1]


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


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(kind="emx", parameters={"dist": "d.json"})
        assert cfg.seed == DEFAULT_SEED == 20177
        cfg.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(kind="foo").validate()

    def test_missing_required_parameters(self):
        with pytest.raises(ValueError, match="missing required"):
            ExperimentConfig(kind="feasible-sdp", parameters={"task": "t.json"}).validate()

    def test_json_roundtrip(self):
        cfg = ExperimentConfig(kind="quantum", parameters={"gamma": 0.5}, seed=3, out="x.json")
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg


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
            run_config(ExperimentConfig(kind="foo"))


class TestCoarseBits:
    @pytest.mark.parametrize("bits", [1024, 1100])
    def test_bits_beyond_float_range_run(self, workdir, bits):
        rc = main(["coarse", "--dist", "points.json", "--bits", str(bits), "--trials", "2", "--out", "r.json"])
        assert rc == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["metrics"]["bits"] == bits


class TestErrorPaths:
    def test_missing_input_file(self, workdir, capsys):
        assert main(["emx", "--dist", "nope.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_table_without_sweep(self, workdir, capsys):
        rc = main(["emx", "--dist", "dist.json", "--trials", "10",
                   "--out", "r.json", "--table", "t.csv"])
        assert rc == 1
        assert "no sweep" in capsys.readouterr().err
        assert not (workdir / "t.csv").exists()

    def test_bad_compress_mode(self, workdir, capsys):
        assert main(["compress", "--mode", "demo", "--domain", "a,b", "--pair", "a,b,a"]) == 1
        assert "two points" in capsys.readouterr().err

    def test_copies_beyond_the_dimension_cap(self, workdir, capsys):
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "11"]) == 1
        assert "plab: error: dimension 2^11 exceeds cap 1024" in capsys.readouterr().err

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

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_dimension_cap_must_be_a_positive_integer(self, workdir, capsys, monkeypatch, raw):
        monkeypatch.setenv("PLAB_DIM_CAP", raw)
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states"]) == 1
        assert "plab: error: PLAB_DIM_CAP must be a positive integer" in capsys.readouterr().err

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
        assert capsys.readouterr().err.startswith("plab: error: state has a non-finite entry")
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
            cli._render({"a": [object()]})

    @settings(max_examples=300, deadline=None)
    @given(obj=PAYLOADS)
    def test_render_equals_dumps_of_pinned_payload(self, obj):
        assert cli._render(obj) == json.dumps(pin(obj), indent=2, sort_keys=True)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_arrays_other_than_matrices_rejected(self, shape):
        a = np.zeros(shape, dtype=complex)
        with pytest.raises(TypeError):
            pin({"a": a})
        with pytest.raises(TypeError):
            cli._render({"a": [a]})

    def test_witness_negative_zero_renders_negative(self, tmp_path):
        # 0.0 comes first, so text looked up by value would print -0.0 as 0.0
        m = np.array([[0.5, complex(-0.0, 0.0)], [complex(0.0, -0.0), 0.5]])
        rep = RunReport(config={}, metrics={"witness": {"elements": [quantum.matrix_to_json(m)] * 2}},
                        sweep=None, wall_clock_s=0.0, version="0")
        write_report(rep, str(tmp_path / "r.json"))
        for element in json.loads((tmp_path / "r.json").read_text())["metrics"]["witness"]["elements"]:
            assert [math.copysign(1.0, x) for row in element for pair in row for x in pair] == \
                [1, 1, -1, 1, 1, -1, 1, 1]

    def test_array_witness_negative_zero_renders_negative(self):
        # 0.0 comes first, so text looked up by value (not bits) would print -0.0 as 0.0
        m = np.array([[0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), complex(-0.0, 0.0)]])
        payload = {"witness": {"elements": [m]}}
        text = cli._render(payload)
        assert text == json.dumps(pin(payload), indent=2, sort_keys=True)
        first = json.loads(text)["witness"]["elements"][0]
        assert [math.copysign(1.0, x) for row in first for pair in row for x in pair] == \
            [1, 1, -1, -1, 1, -1, -1, 1]

    def test_write_report_is_atomic(self, tmp_path):
        rep = RunReport(config={}, metrics={"x": 1.0}, sweep=None, wall_clock_s=0.1, version="0")
        path = tmp_path / "r.json"
        write_report(rep, str(path))
        assert json.loads(path.read_text())["metrics"] == {"x": 1.0}
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_emit_table_requires_sweep(self, tmp_path):
        rep = RunReport(config={}, metrics={}, sweep=None, wall_clock_s=0.0, version="0")
        with pytest.raises(ValueError):
            emit_table(rep, str(tmp_path / "t.csv"))

    def test_stdout_when_no_out_path(self, workdir, capsys):
        assert main(["quantum", "discriminate", "--gamma", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["delta_min"] == pytest.approx(0.0669872981078)

    def test_sdp_report_text_equals_dumps_of_the_json_witness(self, workdir, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "write_report", lambda report, path: (written.append(report),
                                                                       write_report(report, path)))
        assert main(["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "4",
                     "--out", "r.json"]) == 0
        (report,) = written
        witness = report.metrics["witness"]
        assert report.metrics["verdict"] == "feasible"
        assert [e.shape for e in witness["elements"]] == [(16, 16)] * 2
        povm = quantum.Povm(witness["elements"], witness["labels"])
        reference = {k: v for k, v in vars(report).items() if k != "sweep"}
        reference["metrics"] = {**report.metrics, "witness": povm.to_json()}
        assert (workdir / "r.json").read_text() == json.dumps(pin(reference), indent=2, sort_keys=True) + "\n"

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
        ExperimentConfig(kind="quantum", parameters={"gamma": "0.5"}).validate()
    with pytest.raises(ValueError, match="'sweep_copies' must be a list of int"):
        ExperimentConfig(kind="quantum", parameters={"gamma": 0.5, "sweep_copies": [1, True]}).validate()
    with pytest.raises(ValueError, match="'seed' must be an integer"):
        ExperimentConfig(kind="emx", seed=True)


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


# (command line, file to write, its JSON content): malformed input files
# whose parse raised TypeError, or read a string where a list belongs
# element by element.
POLYTOPE = ["feasible", "lp", "--task", "task.json", "--polytope", "bad.json"]
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
    "state-dim-not-integer": (["feasible", "sdp", "--task", "task.json", "--states", "states"], "states/t0.json",
                              {"dim": 2.5, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_input_file_fails_cleanly(workdir, capsys, case):
    argv, name, content = BAD_FILES[case]
    (workdir / name).write_text(json.dumps(content))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"plab: error: malformed {name}: ")


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
    text = help_of(capsys, list(spec.words))
    for flag in ("--config", "--seed", "--out", "--table"):
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


@pytest.mark.parametrize("argv, message", [
    (["emx", "--dist", "dist.json", "--trials", "5", "--d", "-1"], "sample size must be >= 0"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--sweep-d", "2,-1"], "sample size must be >= 0"),
    (["coarse", "--dist", "points.json", "--trials", "5", "--d", "-1"], "sample size must be >= 0"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--seed", "-1"], "config key 'seed' must be >= 0, got -1"),
    (["compress", "--mode", "demo", "--domain", "a,b,c", "--pair", "a,z"], "'z' not in domain"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--d", "0"], "empty sample: maximum index undefined"),
    (["emx", "--dist", "dist.json", "--trials", "5", "--sweep-d", "0"], "empty sample: maximum index undefined"),
    (["coarse", "--dist", "points.json", "--trials", "5", "--d", "2"], "sample size 2 below required 3"),
    (["coarse", "--dist", str(DATA / "dist_points_outside.json"), "--trials", "5"], "point 1.5 outside [0,1]"),
], ids=["d", "sweep-d", "coarse-d", "seed", "pair-outside-domain", "d-zero", "sweep-d-zero", "coarse-d-below-need",
        "coarse-point-outside"])
def test_out_of_range_input_fails_with_its_own_message(workdir, capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"plab: error: {message}\n"


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
    monkeypatch.setattr(emx, "substreams", lambda s, n: (emx.substream(s, k) for k in range(n)))
    assert main(argv + ["single.json"]) == 0
    batched, single = ((workdir / name).read_text() for name in ("batched.json", "single.json"))
    assert CLOCK_LINE.sub("", batched) == CLOCK_LINE.sub("", single.replace("single.json", "batched.json"))


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy 2 loads numpy.random on first use, at about 20 ms; plab's start-up
    must not pay for it."""
    src = str(HERE.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; eager = 'numpy.random' in sys.modules; "
            "import plab.cli; print(eager, 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    eager, after_cli = done.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert after_cli == "False"
