"""Every Python block of README.md runs as written.  Every ``plab`` command
line in its shell blocks, and its JSON config example, run without error on
the test data copied under the file names the README uses; every ``plab``
line of the CI workflow parses with the CLI's own parser."""

import json
import re
import shutil
from pathlib import Path

import pytest

from plab.cli import _KINDS, _build_parser, _checked, main, run_config, validate

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
