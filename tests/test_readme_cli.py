"""Every command of README's CLI block, run through ``cli.main``, prints
the recorded stdout and exits with the recorded code, README's library
quick tour evaluates to the values its comments give, and README's tables
list every constant of ``regionum.limits`` with its value.

The recordings live in ``readme_cli.json``, keyed by each command line
as ``shlex.join`` spells it.  After an intended output change, rewrite
them with ``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import ast
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


def test_readme_quick_tour_evaluates_to_its_commented_values():
    # each expression of the tour is followed by its value in a comment,
    # on the same line or the next, before any " (" or " ==" remark
    text = README.read_text(encoding="utf-8")
    source = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    source = source.split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    pinned = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        comment = comment or lines[node.end_lineno].strip()
        value = re.fullmatch(r"#\s*(\S.*?)(?: \(.*| ==.*)?", comment)[1]
        assert str(eval(code, namespace)) == value, code
        pinned.append(value)
    assert pinned == [
        "True",
        "[('q = np+1, p even, n odd', 3)]",
        "(6, 10, 12)",
        "Verdict.CERTIFIED",
        "2",
    ]


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
