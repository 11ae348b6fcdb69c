"""Every name a package module imports is used in that module.

A standard-library ``ast`` scan stands in for a linter: each name bound by
an import must appear as a ``Name`` node somewhere in the module (the base
of every attribute chain such as ``math.comb`` is one).  An import whose
line carries ``# noqa`` is kept on purpose and skipped.
"""

import ast
from pathlib import Path

import pytest

import gridguards

MODULES = sorted(Path(gridguards.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{name} (line {alias.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = ("from math import ceil, floor\n"
              "import os  # noqa: F401\n"
              "x = floor(1.5)\n")
    assert unused_imports(source) == ["ceil (line 1)"]
