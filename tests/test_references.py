"""Names the package promises: every ``ckanbench`` attribute the benchmark
under ``perfbench/`` reads, and every entry of a module's ``__all__``;
and that the package root re-exports none of them.

The benchmark's traced probes reach some package functions only inside
function bodies, so a name deleted from ``src/`` would otherwise first
fail in a traced benchmark run.
"""

import ast
import importlib
import os

import pytest

from conftest import REPO_ROOT

PERFBENCH = os.path.join(REPO_ROOT, "perfbench")


def _perfbench_references():
    """(file:line, module, attribute) for each attribute read off a
    ``ckanbench`` module that a perfbench file imports, at any depth."""
    refs = []
    for fname in sorted(os.listdir(PERFBENCH)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ckanbench":
                for a in node.names:
                    aliases[a.asname or a.name] = f"ckanbench.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.append((f"{fname}:{node.lineno}", aliases[node.value.id],
                             node.attr))
    return refs


def test_perfbench_references_resolve():
    refs = _perfbench_references()
    assert refs, "no ckanbench reference found under perfbench/"
    missing = [f"{where}: {mod}.{attr}" for where, mod, attr in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_package_root_imports_nothing():
    # each name has one import path: the module that defines it
    path = os.path.join(REPO_ROOT, "src", "ckanbench", "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


@pytest.mark.parametrize("mod", ["ckanbench.evaluation", "ckanbench.splines"])
def test_all_names_exist(mod):
    module = importlib.import_module(mod)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
