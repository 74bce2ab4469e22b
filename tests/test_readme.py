"""Every Python block of README.md runs as written, and every ``plab``
command line in its shell blocks parses with the CLI's own parser."""

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


def test_readme_config_example_validates():
    (example,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
    validate(_checked(json.loads(example)))
