"""Every name a package module imports is used in that module, every
public function or class of the package is used outside the tests, every
parameter with a default is passed somewhere, every class member is
read somewhere, and every parameter is read by its function.

A standard-library ``ast`` scan stands in for a linter: each name bound by
an import must appear as a ``Name`` node somewhere in the module (the base
of every attribute chain such as ``math.comb`` is one).  An import whose
line carries ``# noqa`` is kept on purpose and skipped.

A second scan lists the public top-level functions and classes of
``src/gridguards/`` and looks for a reference to each in the package and
in ``perfbench/``, outside the definition itself: a ``Name``, an
attribute or an imported name.  A string is not a caller: the benchmark
tracer names the bindings it wraps, and its metrics, as
``"layer.function"`` strings, and a docstring that names a function does
not call it either.

A third scan finds the knobs nothing turns: a parameter with a default, of
any function, method or nested function of the package, or a dataclass
field with a default, that no call in the package or in ``perfbench/``
passes, by keyword or by position.  A call is matched by the name it
calls, so a call ``x.f(...)`` counts for every ``f`` of the package except
when ``x`` is a module imported from outside it (``math.comb`` is not
``generate.comb``).  A dataclass field that the package assigns or appends
to after construction holds state, not a setting, and is not a knob.
Tests do not count as callers: a test that sets a knob only to test that
knob proves nothing.

A fourth scan finds the members nothing reads: a dataclass field that no
attribute anywhere reads, tests included (tests read result fields to
check computed results), and a method or property with no reference in
the package or in ``perfbench/``.  Both scans match attributes by name
alone, so a member that shares its name with another class's member
passes as long as that one is read.

A fifth scan finds the parameters nothing reads: a parameter of any
function, method or nested function of the package, ``*args`` and
``**kwargs`` included, whose name the body never loads.  A read in a
nested function counts for the enclosing one.  Dunder methods are exempt,
since their signatures are fixed by the protocol they implement.
"""

import ast
from pathlib import Path

import pytest

import gridguards

MODULES = sorted(Path(gridguards.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
# public names whose only callers are tests: the pinhole
# fixture's wall-coverage probe, the paper's grid-replacement
# construction, which the acceptance tests check on 20 fixtures, and the
# rounding of one point to the grid (surrounding_grid rounds its defining
# points through the private lattice search that round_to_grid wraps)
TEST_ONLY = {"missed_interval", "grid_replacement", "round_to_grid"}
# parameters that only tests pass: the blocking fixture's tuned viewpoint
# lies off every sample, so this is the only way to check it
PARAMETERS_TEST_ONLY = {"check_limited_blocking.extra_points"}


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
    """Every name the node refers to: names, attributes and imported
    names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
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
               'def described():\n    pass\n\n'
               'def _private():\n    pass\n']
    bench = ['"""Calls described() in its docstring only."""\n'
             'from m import used, Kept\nwrap("m.named")\n\n'
             'def run():\n    """described() again."""\n']
    assert unreferenced_public(package, bench) == [
        "described", "lonely", "named"]


def is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def defaulted(tree):
    """Every parameter with a default of the tree's functions, methods,
    nested functions and dataclass constructors, as (qualified name, name
    of the callee, position in a call or None if keyword-only, whether it
    is a dataclass field)."""
    out = []

    def visit(node, prefix, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                if is_dataclass(sub):
                    fields = [f for f in sub.body
                              if isinstance(f, ast.AnnAssign)]
                    out.extend((f"{sub.name}.{f.target.id}", sub.name, i,
                                True) for i, f in enumerate(fields)
                               if f.value is not None)
                visit(sub, f"{sub.name}.", True)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a method's call skips self; a class's call is __init__'s
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in sub.decorator_list)
                callee = prefix[:-1] if sub.name == "__init__" else sub.name
                args = sub.args.posonlyargs + sub.args.args
                first = len(args) - len(sub.args.defaults)
                out.extend((f"{prefix}{sub.name}.{a.arg}", callee,
                            i - bound, False)
                           for i, a in enumerate(args) if i >= first)
                out.extend((f"{prefix}{sub.name}.{a.arg}", callee, None,
                            False)
                           for a, d in zip(sub.args.kwonlyargs,
                                           sub.args.kw_defaults)
                           if d is not None)
                visit(sub, f"{prefix}{sub.name}.", False)
            else:
                visit(sub, prefix, in_class)
    visit(tree, "", False)
    return out


def unset_parameters(package, others=()):
    """Qualified names of the package's parameters and dataclass fields
    with a default that no call in any source passes."""
    trees = [ast.parse(src) for src in list(package) + list(others)]
    calls, written = {}, set()
    for tree in trees:
        outside = {(a.asname or a.name).split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Store):
                written.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                calls.setdefault(f.id, []).append(node)
            elif isinstance(f, ast.Attribute):
                if isinstance(f.value, ast.Attribute):
                    written.add(f.value.attr)  # x.field.append(...)
                if not (isinstance(f.value, ast.Name)
                        and f.value.id in outside):
                    calls.setdefault(f.attr, []).append(node)

    def passes(call, position, name):
        return (any(k.arg in (name, None) for k in call.keywords)
                or position is not None
                and (len(call.args) > position
                     or any(isinstance(a, ast.Starred) for a in call.args)))

    return sorted(qual for tree in trees[:len(package)]
                  for qual, callee, position, field in defaulted(tree)
                  if not (field and qual.split(".")[-1] in written)
                  and not any(passes(c, position, qual.split(".")[-1])
                              for c in calls.get(callee, ())))


def test_every_parameter_with_a_default_is_passed_outside_the_tests():
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unset_parameters(package, bench) == sorted(PARAMETERS_TEST_ONLY)


def test_scan_finds_an_unset_parameter():
    package = ['import math\n'
               'from dataclasses import dataclass, field\n\n'
               'def f(a, by_pos=1, by_key=2, unset=3, *, kw=4, kw_unset=5):\n'
               '    def inner(x, knob=0):\n'
               '        return x\n'
               '    return inner(a)\n\n'
               'def comb(n, k=2):\n'
               '    return math.comb(n, k)\n\n'
               'class C:\n'
               '    def __init__(self, set_=0, unset=1):\n'
               '        pass\n\n'
               '    def m(self, a=0, unset=1):\n'
               '        pass\n\n'
               '@dataclass\n'
               'class D:\n'
               '    x: int\n'
               '    knob: int = 0\n'
               '    set_: int = 0\n'
               '    count: int = 0\n'
               '    items: list = field(default_factory=list)\n\n'
               'def g(d):\n'
               '    d.count += 1\n'
               '    d.items.append(d)\n']
    bench = ['f(1, 2, by_key=3, kw=4)\nC(1).m(2)\nD(0, set_=1)\n'
             'comb(3)\n']
    assert unset_parameters(package, bench) == [
        "C.__init__.unset", "C.m.unset", "D.knob", "comb.k", "f.inner.knob",
        "f.kw_unset", "f.unset"]


def loaded(trees):
    """The names of every attribute the trees read."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_members(package, others=(), tests=()):
    """Members of the package's classes, as "Class.member", that nothing
    reads: dataclass fields that no source, tests included, reads as an
    attribute, and methods and properties with no attribute reference
    outside the tests."""
    trees = [ast.parse(src) for src in list(package) + list(others)]
    used = loaded(trees)
    read = used | loaded(ast.parse(src) for src in tests)
    out = []
    for tree in trees[:len(package)]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and is_dataclass(cls):
                    if node.target.id not in read:
                        out.append(f"{cls.name}.{node.target.id}")
                elif (isinstance(node, ast.FunctionDef)
                      and not node.name.startswith("__")
                      and node.name not in used):
                    out.append(f"{cls.name}.{node.name}")
    return sorted(out)


def test_every_class_member_is_read():
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    tests = [p.read_text(encoding="utf-8")
             for p in sorted(Path(__file__).parent.glob("*.py"))]
    assert unread_members(package, bench, tests) == []


def test_scan_finds_an_unread_member():
    package = ['from dataclasses import dataclass\n\n'
               '@dataclass\n'
               'class Result:\n'
               '    value: int\n'
               '    checked: int\n'
               '    unread: int\n\n'
               '    @property\n'
               '    def doubled(self):\n'
               '        return 2 * self.value\n\n'
               '    def only_tested(self):\n'
               '        return self.value\n\n'
               '    def __repr__(self):\n'
               '        return "Result"\n']
    bench = ['print(r.doubled)\n']
    tests = ['assert r.checked == r.only_tested()\nr.unread = 1\n']
    assert unread_members(package, bench, tests) == [
        "Result.only_tested", "Result.unread"]


def unread_parameters(package):
    """Qualified names of the parameters of the package's functions,
    methods and nested functions, dunder methods aside, that their body
    never reads."""
    out = []

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}{sub.name}.")
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = sub.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p]
                read = {n.id for stmt in sub.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                if not (sub.name.startswith("__")
                        and sub.name.endswith("__")):
                    out.extend(f"{prefix}{sub.name}.{p.arg}"
                               for p in params if p.arg not in read)
                visit(sub, f"{prefix}{sub.name}.")
            else:
                visit(sub, prefix)
    for src in package:
        visit(ast.parse(src), "")
    return sorted(out)


def test_every_parameter_is_read():
    package = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unread_parameters(package) == []


def test_scan_finds_an_unread_parameter():
    package = ['def f(a, unread, *args, kw, **kwargs):\n'
               '    def inner(x, y):\n'
               '        return a + x\n'
               '    unread = 1\n'
               '    return inner(kw)\n\n'
               'class C:\n'
               '    def __init__(self, proto):\n'
               '        pass\n\n'
               '    def m(self, used, ignored=0):\n'
               '        return used\n']
    assert unread_parameters(package) == [
        "C.m.ignored", "C.m.self", "f.args", "f.inner.y", "f.kwargs",
        "f.unread"]
