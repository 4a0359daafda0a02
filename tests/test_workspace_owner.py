"""Scratch memory has one owner, the caller of a kernel, and the Fourier
operators have one builder, ``build_operators``.

Every kernel takes the ``Workspace`` of its caller, so no parameter named
``workspace`` has a default, and a ``Workspace`` is built in one place
only: by ``StrangSolver``, for the whole Strang step. ``CirculantSolver`` and
``ConversionOperator`` are built in ``dispersive.build_operators`` only,
from the one ``fourier_harmonics`` table of the build.

Mapped memory has one owner too: only ``hyperbolic`` imports ``mmap``, and
only ``Workspace.__init__`` maps memory. That is a measured rule, not a
default to extend:
on the 65536-cell dam break, mapping the four Fourier multipliers as well
lowered the peak resident memory by 3.0 MiB in all, against about 2 for
the workspace alone, but took the set-up from 3.3 to 8 ms (+140 %), and
mapping the harmonics table and the snapshots too raised the peak again,
to 62.9 MiB.

The compiled kernel has one owner as well: only ``hyperbolic`` imports
``ctypes`` and ``subprocess``, to build and load ``fv_kernel.c``.

Checked in the standard library's ``ast``, as ``test_imports`` checks
imports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ebwave"
BUILDERS = {("splitting.py", "StrangSolver.__init__")}
OPERATORS = ("CirculantSolver", "ConversionOperator")


def _functions(tree):
    """(qualified name, node) of every function of ``tree``, methods as
    Class.method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def defaulted_workspaces(source: str) -> list[str]:
    """The functions of ``source`` whose ``workspace`` parameter has a default."""
    found = []
    for name, node in _functions(ast.parse(source)):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if any(a.arg == "workspace" for a in defaulted):
            found.append(name)
    return found


def builders(source: str, classes=("Workspace",)) -> set[str]:
    """The functions of ``source`` that call one of ``classes`` in their own
    body, nested functions excluded."""
    found = set()
    for name, node in _functions(ast.parse(source)):
        nested = {id(n) for _, f in _functions(node) for n in ast.walk(f)}
        for call in ast.walk(node):
            if id(call) in nested or not isinstance(call, ast.Call):
                continue
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) in classes:
                found.add(name)
    return found


def imports(source: str, module: str) -> bool:
    """Whether ``source`` imports ``module`` or a name from it."""
    return any(isinstance(node, ast.Import) and any(a.name == module for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == module
               for node in ast.walk(ast.parse(source)))


def test_checkers_find_defaults_and_builders():
    source = ("def f(x, workspace=None): pass\n"
              "def g(x, *, workspace=None): pass\n"
              "def h(x, workspace): pass\n"
              "class A:\n"
              "    def m(self, n):\n"
              "        return hyperbolic.Workspace(n)\n"
              "def k(n):\n"
              "    def inner():\n"
              "        return Workspace(n)\n")
    assert defaulted_workspaces(source) == ["f", "g"]
    assert builders(source) == {"A.m", "k.inner"}
    mapping = "import mmap\ndef f(n):\n    return mmap.mmap(-1, n)\n"
    assert imports(mapping, "mmap") and imports("from mmap import mmap\n", "mmap")
    assert not imports("import numpy as np\n", "mmap")
    assert builders(mapping, ("mmap",)) == {"f"}


def test_kernels_take_the_callers_workspace():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert defaulted_workspaces(source) == [], path.name
        found |= {(path.name, name) for name in builders(source)}
    assert found == BUILDERS


def test_operators_are_built_by_build_operators_only():
    # the subclass's super().__init__ is no call by name
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in builders(path.read_text(), OPERATORS)}
    assert found == {("dispersive.py", "build_operators")}


def test_only_the_workspace_maps_memory():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, source in sources.items() if imports(source, "mmap")} \
        == {"hyperbolic.py"}
    assert {(name, caller) for name, source in sources.items()
            for caller in builders(source, ("mmap",))} \
        == {("hyperbolic.py", "Workspace.__init__")}


def test_only_hyperbolic_builds_and_loads_compiled_code():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for module in ("ctypes", "subprocess"):
        assert {name for name, source in sources.items() if imports(source, module)} \
            == {"hyperbolic.py"}, module
