"""Every Python block of README.md runs as written, and every ``plab``
command line in its shell blocks and in the CI workflow parses with the
CLI's own parser."""

import json
import re
from pathlib import Path

import pytest

from plab.cli import _KINDS, _build_parser, _checked, validate

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SHELL = "".join(re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)).replace("\\\n", " ")
COMMANDS = [line.split()[1:] for line in SHELL.splitlines() if line.startswith("plab ")]
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
    (example,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
    validate(_checked(json.loads(example)))
