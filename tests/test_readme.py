"""README stays runnable: its command lines and its library example."""

import re
import shlex
from pathlib import Path

import pytest

from strictfeas.cli import BUILTINS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _command_lines():
    """(argv, expected exit code) per line; the code is the comment's "exit N"."""
    out = []
    for line in _block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["strictfeas"]:
            continue
        stated = re.search(r"\bexit (\d+)", comment)
        out.append((argv[1:], int(stated.group(1)) if stated else 0))
    return out


def test_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _command_lines()
    assert commands
    for argv, code in commands:
        assert main(argv) == code, argv
    capsys.readouterr()


def test_library_example_runs(capsys):
    exec(_block("Library", "python"), {})
    objective = float(capsys.readouterr().out.split()[0])
    assert objective == pytest.approx(0.1803398875, abs=1e-8)


def test_builtin_export_targets_are_listed():
    # in the order `strictfeas export --help` shows them
    listed = re.search(r"Builtin export\s+targets:(.*?)\.\n", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == sorted(BUILTINS)
