"""Every name a module of effhom or of its tests imports is used there,
every parameter of an effhom function is read by its body, and every
top-level function or class of effhom is referred to somewhere."""

import ast
from pathlib import Path

import pytest

import effhom.cli

SRC = Path(effhom.cli.__file__).parent
TESTS = Path(__file__).parent
SOURCES = sorted(SRC.glob("*.py"))
MODULES = SOURCES + sorted(TESTS.glob("*.py"))
PERFBENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))


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


def unreferenced_definitions(defining, referring):
    """(module, line, name) for every top-level function or class of the
    `defining` sources that no Name, Attribute or import of the `referring`
    sources names, outside the definition's own body.

    Both arguments map a module name to its source text.
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
                    and not refs.get(top.name, set()) - {(module, i)}:
                out.append((module, top.lineno, top.name))
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
                 for p in MODULES + PERFBENCH}
    defining = {f"{SRC.name}.{p.stem}": referring[f"{SRC.name}.{p.stem}"]
                for p in SOURCES}
    assert unreferenced_definitions(defining, referring) == []


def test_checker_flags_an_unreferenced_function():
    src = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Lonely:\n    pass\n"
           "def via_attribute():\n    pass\n"
           "def imported():\n    pass\n")
    other = ("import m\nfrom m import imported\n"
             "print(used(), m.via_attribute)\n")
    assert unreferenced_definitions({"m": src}, {"m": src, "n": other}) == \
        [("m", 3, "recursive"), ("m", 5, "Lonely")]


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
