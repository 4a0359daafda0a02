"""Every name that the package exports or defines has a reader outside the
tests.

A name that ``ebwave/__init__.py`` exports, and every module-level function
and class of the package and every method of such a class that is not a
dunder, must be read, as a name, an attribute or an import, by code in a
module of the package other than ``__init__.py``, in ``demos/`` or in
``perfbench/``. An entry point that only a test calls belongs to the tests
(``tests/oracles.py`` and ``tests/drivers.py``), not to the package. A
reader is matched by name alone, so a method that shares its name with one
that is read elsewhere (such as ``copy``) passes. Checked in the standard
library's ``ast``, as ``test_imports`` checks imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebwave"


def names_read(source: str) -> set[str]:
    """The names, attributes and imported names that ``source`` reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def read_outside_the_tests() -> set[str]:
    readers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in readers if path.name != "__init__.py"))


def definitions(source: str) -> list[tuple[str, str]]:
    """(name, qualified name) of each module-level function and class of
    ``source`` and of each method of such a class that is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def test_every_export_has_a_reader_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = read_outside_the_tests()
    assert len(exported) > 30
    assert [name for name in exported if name not in read] == []


def test_every_function_class_and_method_has_a_reader_outside_the_tests():
    defined = [definition for path in sorted(PACKAGE.glob("*.py"))
               for definition in definitions(path.read_text(encoding="utf-8"))]
    read = read_outside_the_tests()
    assert len(defined) > 100
    assert [qualified for name, qualified in defined if name not in read] == []
