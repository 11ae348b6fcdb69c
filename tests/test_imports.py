"""Every name a package module imports is used in that module, and every
public function or class of the package is used outside the tests.

A standard-library ``ast`` scan stands in for a linter: each name bound by
an import must appear as a ``Name`` node somewhere in the module (the base
of every attribute chain such as ``math.comb`` is one).  An import whose
line carries ``# noqa`` is kept on purpose and skipped.

A second scan lists the public top-level functions and classes of
``src/gridguards/`` and looks for a reference to each in the package and
in ``perfbench/``, outside the definition itself: a ``Name``, an
attribute, an imported name, or a word of a string (the benchmark tracer
names the bindings it wraps as ``"layer.function"`` strings).
"""

import ast
import re
from pathlib import Path

import pytest

import gridguards

MODULES = sorted(Path(gridguards.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
# public names whose only callers are tests: the brute-force optimum that
# the acceptance tests compare eh_solve against, and the pinhole fixture's
# wall-coverage probe
TEST_ONLY = {"brute_force_optimum", "missed_interval"}


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


def references(node):
    """Every name the node refers to: names, attributes, imported names
    and the words of its strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(re.findall(r"\w+", sub.value))
    return names


def unreferenced_public(package, others=()):
    """Public top-level functions and classes of the package sources that
    no top-level statement of any source refers to, other than their own
    definition."""
    trees = [ast.parse(src) for src in list(package) + list(others)]
    defs = [node for tree in trees[:len(package)] for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    refs = [(node, references(node)) for tree in trees for node in tree.body]
    return sorted(d.name for d in defs
                  if not any(d.name in names for node, names in refs
                             if node is not d))


def test_every_public_name_has_a_caller_outside_the_tests():
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unreferenced_public(package, bench) == sorted(TEST_ONLY)


def test_scan_finds_an_unreferenced_function():
    package = ['def used():\n    return helper()\n\n'
               'def helper():\n    return 1\n\n'
               'def lonely():\n    return lonely()\n\n'
               'def named():\n    pass\n\n'
               'class Kept:\n    pass\n\n'
               'def _private():\n    pass\n']
    bench = ['from m import used, Kept\nwrap("m.named")\n']
    assert unreferenced_public(package, bench) == ["lonely"]
