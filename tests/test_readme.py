"""The README's examples against real output, trailing spaces stripped per line."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import omrev
from omrev.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# "`omrev <args>`:" followed by a fenced block of its output
COMMAND_BLOCKS = re.findall(r"^`omrev ([^`]*)`:\n\n```\n(.*?)```", README, re.M | re.S)


def _stripped(text):
    return [line.rstrip() for line in text.splitlines()]


def test_library_quick_start_comments():
    """Each commented value is the repr of what its line prints, or T's string."""
    (code,) = re.findall(r"^```python\n(.*?)```", README, re.M | re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, namespace)
    lines = [[part.strip() for part in line.split("#", 1)] for line in code.splitlines() if "#" in line]
    printed = [(stmt[len("print(") : -1], note) for stmt, note in lines if stmt.startswith("print(")]
    assert len(printed) == 4
    for expr, note in printed:
        assert repr(eval(expr, namespace)) == note.split("  - ")[0].strip(), expr
    (tutte_note,) = [note for stmt, note in lines if stmt.startswith("T =")]
    assert str(namespace["T"]) == tutte_note


def test_api_paragraph_names_exist():
    """Every backticked name in the API paragraph is a public attribute of omrev."""
    (paragraph,) = re.findall(r"^Builders: .*?the class\s+structure\.", README, re.M | re.S)
    names = re.findall(r"`([^`]*)`", paragraph)
    assert len(names) >= 15
    assert [name for name in names if not hasattr(omrev, name)] == []


def test_command_blocks_found():
    assert [args for args, _ in COMMAND_BLOCKS] == ["analyze u24", "survey --family u2k --max-n 7"]


@pytest.mark.parametrize("args, block", COMMAND_BLOCKS, ids=[a for a, _ in COMMAND_BLOCKS])
def test_command_block(args, block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(args)) == 0
    assert _stripped(out.getvalue()) == _stripped(block)
