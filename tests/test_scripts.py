"""The scripts and ``ckanbench`` commands README names exist and parse
their flags."""

import importlib.util
import os
import re
import shlex

import pytest

from ckanbench.cli import build_parser
from conftest import REPO_ROOT


def _readme() -> str:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_scripts() -> list[str]:
    text = _readme()
    section = text.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(scripts/[\w.-]+\.py)`", section)


def test_readme_names_scripts():
    assert _readme_scripts()


@pytest.mark.parametrize("rel", _readme_scripts())
def test_script_help_exits_zero(rel, capsys):
    path = os.path.join(REPO_ROOT, rel)
    assert os.path.isfile(path), f"README names missing {rel}"
    spec = importlib.util.spec_from_file_location(
        os.path.basename(rel)[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with pytest.raises(SystemExit) as exc:
        mod.main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def _readme_commands() -> list[str]:
    """Each ``ckanbench`` command of README's fenced shell blocks, with its
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ckanbench "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])
