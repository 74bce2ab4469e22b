"""Command-line interface: config handling, report determinism, golden files.

Golden reports were frozen from the exact invocations below; the comparison
drops wall_clock_s (the one intentionally non-reproducible field) and nothing
else.  Input files are staged under relative names so the config echo inside
each report is path-stable.
"""

import json
import math
import os
import shutil
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from plab import cli
from plab.cli import (
    DEFAULT_SEED,
    ExperimentConfig,
    RunReport,
    _pin,
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


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_RUNS))
def test_reports_match_frozen_goldens(workdir, golden_name):
    assert main(GOLDEN_RUNS[golden_name]) == 0
    got = json.loads((workdir / "report.json").read_text())
    want = json.loads((GOLDEN / golden_name).read_text())
    assert without_clock(got) == without_clock(want)


def test_sweep_table_matches_golden(workdir):
    assert main(GOLDEN_RUNS["emx.json"]) == 0
    got = (workdir / "table.csv").read_text()
    assert got == (GOLDEN / "emx_table.csv").read_text()


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


class TestReportPlumbing:
    def test_pin_rounds_to_12_significant_digits(self):
        assert _pin(0.1 + 0.2) == 0.3
        assert _pin(1.0 / 3.0) == 0.333333333333
        assert _pin(Fraction(2, 3)) == "2/3"
        assert _pin({"a": [1, None, True]}) == {"a": [1, None, True]}

    def test_pin_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            _pin(object())

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


def test_internal_type_error_is_not_reported_as_bad_input(workdir, monkeypatch):
    def broken(p, seed):
        raise TypeError("a defect in a runner")

    monkeypatch.setattr(cli, "_KINDS", {**cli._KINDS, "quantum": cli._KINDS["quantum"]._replace(run=broken)})
    with pytest.raises(TypeError, match="a defect in a runner"):
        main(["quantum", "discriminate", "--gamma", "0.5"])
