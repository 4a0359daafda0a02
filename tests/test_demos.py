"""The scripts in ``demos/`` against the package's API.

Every name that a demo imports from ``ebwave`` must exist, so a removal
from the API that would break a demo fails here rather than when someone
next runs it. The quickest demo also runs to completion.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def ebwave_imports(path: Path):
    """(module, name) for each name that ``path`` imports from ebwave, with
    name None for a plain ``import ebwave...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ebwave":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ebwave":
                    yield alias.name, None


def test_every_demo_is_checked():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_exist(demo):
    imports = list(ebwave_imports(demo))
    assert imports, f"{demo.name} imports nothing from ebwave"
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            # a submodule that the package has not imported yet
            importlib.import_module(f"{module}.{name}")


def test_dispersion_tuning_demo_runs(tmp_path):
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "01_dispersion_tuning.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "alpha* = " in done.stdout
