"""The README's examples run: each line of its command-line block, and its library example."""

import re
import shlex
from pathlib import Path

import pytest

from betaplane.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str) -> str:
    """The first fenced code block in the README's section ``## heading``, without its fences."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


# each command with its bracketed optional parts dropped
COMMANDS = [re.sub(r"\s*\[[^]]*\]", "", line)
            for line in fenced_block("Command line").splitlines() if line.strip()]


def test_command_block_found():
    assert len(COMMANDS) >= 9
    assert all(line.startswith("betaplane ") and "[" not in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_library_example(capsys):
    exec(compile(fenced_block("Library example"), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
