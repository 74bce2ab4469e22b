"""Every Python block of README.md runs as written.  Every ``plab`` command
line in its shell blocks, and its JSON config example, run without error on
the test data copied under the file names the README uses; every ``plab``
line of the CI workflow parses with the CLI's own parser.  Every backticked
dotted name in a ``plab`` module resolves, and the route the README gives
for a polytope built in Python runs end to end."""

import functools
import importlib
import itertools
import json
import pkgutil
import re
import shutil
from pathlib import Path

import pytest

import plab
from plab.cli import _KINDS, _build_parser, _checked, main, run_config, validate
from plab.feasibility import PolytopeSpec, no_signaling_polytope

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"
# Each input file name the README uses, and the test data copied there.
README_FILES = {"dist.json": "dist_abc.json", "points.json": "dist_points.json",
                "task.json": "task_identity.json", "states": "states"}
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SHELL = "".join(re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)).replace("\\\n", " ")
COMMANDS = [line.split()[1:] for line in SHELL.splitlines() if line.startswith("plab ")]
(CONFIG_EXAMPLE,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
WORKFLOW = (README.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
# Each workflow line that runs plab, up to a redirection or an ``||``.
WORKFLOW_COMMANDS = [re.split(r" \d?>| \|\|", line)[0].split()[1:]
                     for line in map(str.strip, WORKFLOW.splitlines()) if line.startswith("plab ")]
MODULES = "|".join(m.name for m in pkgutil.iter_modules(plab.__path__))
# Each dotted name inside a backticked span that starts at a plab module, such as `emx.substreams`
# or `plab.cli.run_config`, without the package prefix.
NAMES = sorted({name for span in re.findall(r"`([^`\n]+)`", TEXT)
                for name in re.findall(rf"(?<![\w./])(?:plab\.)?((?:{MODULES})(?:\.\w+)+)", span)})


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_commands_parse_and_cover_every_subcommand():
    parser = _build_parser()
    kinds = {parser.parse_args(argv).kind for argv in COMMANDS}
    assert kinds == set(_KINDS)


def test_workflow_commands_parse(capsys):
    parser = _build_parser()
    assert WORKFLOW_COMMANDS
    for argv in WORKFLOW_COMMANDS:
        if argv == ["--help"]:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 0
        else:
            assert parser.parse_args(argv).kind in _KINDS


def test_readme_config_example_validates():
    validate(_checked(json.loads(CONFIG_EXAMPLE)))


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """A line that names a file missing from ``README_FILES`` exits 1 here."""
    for name, source in README_FILES.items():
        copy = shutil.copytree if (DATA / source).is_dir() else shutil.copyfile
        copy(DATA / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == 0, f"plab {' '.join(argv)}: {capsys.readouterr().err}"
    assert run_config(json.loads(CONFIG_EXAMPLE))["metrics"]


def test_readme_names_resolve():
    assert len(NAMES) >= 12 and "feasibility.no_signaling_polytope" in NAMES
    missing = []
    for name in NAMES:
        module, *path = name.split(".")
        try:
            functools.reduce(getattr, path, importlib.import_module(f"plab.{module}"))
        except AttributeError:
            missing.append(name)
    assert not missing


def test_no_signaling_polytope_file_decides_chsh(tmp_path, monkeypatch, capsys):
    """The README's route for a polytope built in Python: ``PolytopeSpec.to_json`` of the no-signaling
    polytope, and CHSH as a task over setting pairs "x,y" and outcome pairs "a,b", won iff a XOR b = x AND y.
    At epsilon = 1/2 and delta = 0 the one witness is the PR box p[a,b|x,y]: 1/2 on every winning cell."""
    pairs = [f"{i},{j}" for i, j in itertools.product(range(2), repeat=2)]

    def wins(setting, outcome):
        (x, y), (a, b) = (map(int, s.split(",")) for s in (setting, outcome))
        return a ^ b == x & y

    (tmp_path / "ns.json").write_text(json.dumps(PolytopeSpec.to_json(no_signaling_polytope(2, 2, 2, 2))))
    task = {"thetas": pairs, "hyps": pairs, "utility": [["1" if wins(t, h) else "0" for h in pairs] for t in pairs]}
    (tmp_path / "chsh.json").write_text(json.dumps(task))
    monkeypatch.chdir(tmp_path)
    argv = ["feasible", "lp", "--task", "chsh.json", "--polytope", "ns.json", "--epsilon", "1/2", "--delta", "0",
            "--out", "r.json"]
    assert main(argv) == 0, capsys.readouterr().err
    metrics = json.loads((tmp_path / "r.json").read_text())["metrics"]
    assert metrics["verdict"] == "feasible"
    assert metrics["witness"] == {f"p[{h}|{t}]": "1/2" if wins(t, h) else "0" for t in pairs for h in pairs}
