"""Every name a module of effhom or of its tests imports is used there,
every parameter of an effhom function is read by its body, every
defaulted parameter is passed by some call of the library or of the
benchmark, and every top-level function or class of effhom is referred
to by the library or the benchmark."""

import ast
from pathlib import Path

import pytest

import effhom.cli

SRC = Path(effhom.cli.__file__).parent
TESTS = Path(__file__).parent
SOURCES = sorted(SRC.glob("*.py"))
MODULES = SOURCES + sorted(TESTS.glob("*.py"))
PERFBENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))
# what production runs: references from here keep a definition of effhom,
# references from the tests do not
PRODUCTION = SOURCES + PERFBENCH
# public entry points that nothing in PRODUCTION calls: `homotopy_group`
# is the library example of the README
PUBLIC = {"homotopy_group"}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as "tuple[CCx, StrongEq]"
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            inner = ast.parse(ann.value, mode="eval")
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _only_raises_not_implemented(fn):
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]                       # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unused_parameters(source: str):
    """(line, function, parameter) for every parameter a body never reads.

    Nested functions count as functions of their own, and a read inside a
    nested function counts for the parameter it closes over.  `self`,
    `cls`, names starting with `_` and bodies that only raise
    NotImplementedError are exempt.
    """
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs \
            + [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(fn.lineno, fn.name, p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return sorted(out)


def unreferenced_definitions(defining, referring, public):
    """(module, line, name) for every top-level function or class of the
    `defining` sources that no Name, Attribute or import of the `referring`
    sources names, outside the definition's own body, and that `public`
    does not list.

    `defining` and `referring` map a module name to its source text.
    """
    refs = {}                  # name -> {(module, top-level statement)}
    for module, source in referring.items():
        for i, top in enumerate(ast.parse(source).body):
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.split(".")[-1]
                else:
                    continue
                refs.setdefault(name, set()).add((module, i))
    out = []
    for module, source in defining.items():
        for i, top in enumerate(ast.parse(source).body):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    and top.name not in public \
                    and not refs.get(top.name, set()) - {(module, i)}:
                out.append((module, top.lineno, top.name))
    return sorted(out)


def unset_options(defining, calling):
    """(module, line, function, parameter) for every defaulted parameter of
    a function or method of the `defining` sources that no call in the
    `calling` sources passes, by keyword or by position.

    A call is matched by the name it calls (a Name or an Attribute), and
    `__init__` by its class's name; a method's call leaves out `self`.  A
    call through *args or **kwargs counts as passing every parameter.
    Both arguments map a module name to its source text.
    """
    calls = {}
    for source in calling.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, param, pos):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, param) for k in call.keywords)
                or pos is not None and len(call.args) > pos)

    out = []
    for module, source in defining.items():
        tree = ast.parse(source)
        owner = {fn: cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = fn in owner and not static       # self or cls
            name = owner[fn] if fn.name == "__init__" else fn.name
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            options = [(p.arg, i - skip) for i, p in enumerate(positional)
                       if i >= first]
            options += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                      a.kw_defaults)
                        if d is not None]
            out += [(module, fn.lineno, name, param)
                    for param, pos in options
                    if not any(passes(c, param, pos)
                               for c in calls.get(name, ()))]
    return sorted(out)


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"cli", "em", "ez", "reduction",
                                         "helpers", "test_em"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = ("from os import path, sep\nimport sys\nimport json\n"
           "def f(x: 'json.JSONDecoder') -> None:\n    print(sep, 'sys')\n")
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


def test_no_unreferenced_functions():
    assert PERFBENCH, "perfbench not found next to the tests"
    referring = {f"{p.parent.name}.{p.stem}": p.read_text()
                 for p in PRODUCTION}
    defining = {f"{SRC.name}.{p.stem}": referring[f"{SRC.name}.{p.stem}"]
                for p in SOURCES}
    assert unreferenced_definitions(defining, referring, PUBLIC) == []


def test_checker_flags_an_unreferenced_function():
    src = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Lonely:\n    pass\n"
           "def via_attribute():\n    pass\n"
           "def imported():\n    pass\n")
    other = ("import m\nfrom m import imported\n"
             "print(used(), m.via_attribute)\n")
    assert unreferenced_definitions({"m": src}, {"m": src, "n": other},
                                    set()) == \
        [("m", 3, "recursive"), ("m", 5, "Lonely")]
    # the guard leaves the tests out of the referring sources, so a
    # definition that only a tests module names is flagged, unless listed
    # as public
    lib = "def tested_only():\n    pass\ndef entry_point():\n    pass\n"
    assert unreferenced_definitions({"m": lib}, {"m": lib},
                                    {"entry_point"}) == \
        [("m", 1, "tested_only")]
    assert not any(p.parent == TESTS for p in PRODUCTION)


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_checker_flags_an_unused_parameter():
    src = ("class A:\n"
           "    def m(self, x, _y):\n        raise NotImplementedError\n"
           "    def n(self, x, *args, k=0, **kw):\n"
           "        def inner(a, b):\n            return a + x\n"
           "        return inner(k, kw)\n"
           "def f(cls, seed, samples):\n    return seed\n")
    assert unused_parameters(src) == [(4, "n", "args"), (5, "inner", "b"),
                                      (8, "f", "samples")]


# test hooks that only the tests set: `basis` samples complexes without a
# finite basis (`helpers.equipment_samples`), and `cols` gives the width of
# a matrix with no rows (`helpers.dense_smith_normal_form`)
TEST_HOOKS = {("check_reduction", "basis"), ("from_rows", "cols")}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unset_options(path):
    calling = {p.stem: p.read_text() for p in SOURCES + PERFBENCH}
    unset = unset_options({path.stem: path.read_text()}, calling)
    assert [u for u in unset if u[2:] not in TEST_HOOKS] == []


def test_checker_flags_an_unset_option():
    src = ("class A:\n"
           "    def __init__(self, x, y=0, z=1):\n        pass\n"
           "    def m(self, u=0, *, v=1, w=2):\n        pass\n"
           "def f(a, b=0, c=1):\n    return A(a, 2).m(1, w=2)\n"
           "def g(p=0, q=1):\n    return f(1, **{}), g(*())\n"
           "def h(r=0):\n    return A(r, z=r)\n")
    other = "def lone(s=0):\n    pass\n"
    assert unset_options({"m": src, "n": other}, {"m": src}) == [
        ("m", 4, "m", "v"), ("m", 10, "h", "r"), ("n", 1, "lone", "s")]
