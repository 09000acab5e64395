"""The scripts README names exist and parse their flags."""

import importlib.util
import os
import re

import pytest

from conftest import REPO_ROOT


def _readme_scripts() -> list[str]:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
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
