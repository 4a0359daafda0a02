"""The benchmark harness must keep running against the current sources.

``perfbench/`` imports names from ``src/`` and patches others for its
traced run. A change in ``src/`` that renames or moves one of them breaks
the benchmark without failing any solver test; its self-test catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
