"""README's examples run as written, so the documented API cannot go stale."""

import re
import shlex
from pathlib import Path

import pytest

from exle import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README text from the heading `## title` to the next heading."""
    text = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def library_block() -> str:
    """The first fenced python block of the Library section."""
    return re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)


def command_lines() -> list[str]:
    """The `exle ...` lines of the first fenced sh block of the Command line section."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("exle ")]


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    n_new, lo, hi, fold, mu1_min, sup_u, sup_v = map(float, capsys.readouterr().out.split())
    assert n_new > 2.0
    assert lo < fold < hi
    assert mu1_min >= 1.0 - 1e-6
    assert sup_u > 0.0 and sup_v > 0.0


def test_command_line_block_lists_every_command():
    assert sorted(shlex.split(line)[1] for line in command_lines()) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("line", command_lines(), ids=lambda line: shlex.split(line)[1])
def test_command_line_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
