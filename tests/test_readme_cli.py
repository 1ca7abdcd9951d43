"""Every command of README's CLI block, run through ``cli.main``, prints
the recorded stdout and exits with the recorded code, and README's tables
list every constant of ``regionum.limits`` with its value.

The recordings live in ``readme_cli.json``, keyed by each command line
as ``shlex.join`` spells it.  After an intended output change, rewrite
them with ``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from regionum import limits
from regionum.cli import main

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
RECORDED = HERE / "readme_cli.json"


def readme_commands():
    """The command lines of README's ``## CLI`` code block, comments cut."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "regionum", line
            commands.append(shlex.join(argv))
    return commands


def run(command):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    return {"exit": code, "stdout": out.getvalue().splitlines(keepends=True)}


def test_readme_block_is_recorded():
    assert readme_commands() == list(json.loads(RECORDED.read_text(encoding="utf-8")))


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_output_is_unchanged(command):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[command]
    assert run(command) == recorded


def test_every_limit_is_in_the_readme_tables_with_its_value():
    # regionum.limits is the one table of size limits and reduction
    # budgets; the README lists each by name with its value
    text = README.read_text(encoding="utf-8")
    table = {k: v for k, v in vars(limits).items() if k.isupper() and isinstance(v, int)}
    assert len(table) == 9
    for name, value in table.items():
        row = re.search(rf"^\| `{name}` \| ([0-9 ]+) \|", text, re.MULTILINE)
        assert row and int(row[1].replace(" ", "")) == value, name


if __name__ == "__main__":
    recorded = {command: run(command) for command in readme_commands()}
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
