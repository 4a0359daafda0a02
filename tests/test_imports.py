"""No module of the package, its tests or its demos imports a name that it
never uses.

No linter is a dependency of the project, so this is the check of
pyflakes' F401 ("imported but unused") in the standard library's ``ast``.
A name counts as used when the module reads it anywhere, annotations
included (string ones too, such as ``-> "PairStencil"``). An import meant
as a re-export is marked ``# noqa: F401`` on one of its lines.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebwave"
MODULES = sorted([*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                  *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def _module_id(path):
    """A package module by its file name, a test or demo by its path."""
    return path.name if path.parent == PACKAGE else str(path.relative_to(ROOT))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    """Every name the tree reads, and those of its string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(bound)
    return unused


def test_checker_finds_unused_and_passes_annotations_and_noqa():
    source = ("from __future__ import annotations\n"
              "import math, os\n"
              "from a import (B,  # noqa: F401\n"
              "               C)\n"
              "from d import E, F\n"
              "def f(x: E) -> 'list[F]':\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", MODULES, ids=_module_id)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
