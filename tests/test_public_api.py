"""Every name that the package exports has a reader outside the tests.

A name that ``ebwave/__init__.py`` exports must be read, as a name, an
attribute or an import, by code in another module of the package, in
``demos/`` or in ``perfbench/``. An entry point that only a test calls
belongs to the tests (``tests/oracles.py`` and ``tests/drivers.py``), not
to the package. Checked in the standard library's ``ast``, as
``test_imports`` checks imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebwave"


def names_read(source: str) -> set[str]:
    """The names, attributes and imported names that ``source`` reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_has_a_reader_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in readers if path.name != "__init__.py"))
    assert len(exported) > 30
    assert [name for name in exported if name not in read] == []
