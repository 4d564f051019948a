"""Every name a module of effhom or of its tests imports is used there."""

import ast
from pathlib import Path

import pytest

import effhom.cli

SRC = Path(effhom.cli.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


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
