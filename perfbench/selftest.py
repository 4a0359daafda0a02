"""Self-test of the benchmark harness; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Runs every workload cut to a few steps, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit, that no run
failed, and that the traced run left every patched name bound to its
original again.
"""

from __future__ import annotations

import json
import sys

import run

MEASURE_S = 0.5


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    before = tracing.originals()
    for workload in run.WORKLOADS:
        for trace, declared in sections.items():
            table = run.PER_LAYER if trace else run.END_TO_END
            info, result = run.run(workload, seed=1, seconds=MEASURE_S,
                                   trace=bool(trace), cut=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= len(info["configs"])
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in declared}, workload
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got["unit"])
                assert table[m["name"]][1] == m["better"], m["name"]
                assert isinstance(got["value"], (int, float)), m["name"]
            after = tracing.originals()
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before), \
                "a span wrapper is still installed"
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
