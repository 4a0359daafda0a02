"""Benchmark of the ebwave solver: one workload per invocation.

    python3 perfbench/run.py --workload head_on --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing. The workload is repeated
while another repetition still fits in ``--seconds`` (at least once) and
each timing is the median over repetitions.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; the span wrappers are installed only around the traced
ones. Every scenario run is gated on its physics (see ``workloads``); a run
that raises or fails its gate is counted in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload, its array sizes, the machine and the layer table.
Exit status is 0 after a completed run (even one with failures) and 2 when
the package or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"
WORKLOADS = ("head_on", "dam_break_64k")
SETUP_SAMPLES = 15


@dataclass
class Rep:
    """Timings and outcomes of one pass over a workload's configs."""

    wall: float = 0.0
    stepping: float = 0.0
    steps: int = 0
    cell_steps: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)


def run_rep(configs, full: bool = True, keep: bool = False) -> Rep:
    """Run every config through ``run_scenario`` and write its CSV.

    Both calls go through the module attributes so that installed span
    wrappers see them. Set-up ends at the t = 0 snapshot, which every
    workload config emits before its first step. Results are kept only when
    ``keep`` is set, so that peak memory does not grow with the repetitions.
    """
    from ebwave import scenarios
    from workloads import check_result

    rep = Rep()
    for config in configs:
        rep.attempted += 1
        marks: list[float] = []
        start = time.perf_counter()
        try:
            result = scenarios.run_scenario(
                config, on_snapshot=lambda *_: marks.append(time.perf_counter()))
            stepped = time.perf_counter()
            path = OUTDIR / f"{config.name}.csv"
            scenarios.write_snapshots_csv(result, path)
            rep.wall += time.perf_counter() - start
        except Exception:   # a failing run is counted and timing goes on
            rep.wall += time.perf_counter() - start
            rep.failures.append(f"{config.name}: {traceback.format_exc()}")
            continue
        rep.stepping += stepped - (marks[0] if marks else start)
        rep.steps += result.steps
        rep.cell_steps += result.steps * config.n_cells
        rows = sum(len(s.x) for s in result.snapshots)
        lines = path.read_bytes().count(b"\n")
        path.unlink()
        check = check_result(result, full)
        if not check.ok:
            rep.failures.append(check.reason)
        elif lines != rows + 1:
            rep.failures.append(f"{config.name}: CSV has {lines} lines, want {rows + 1}")
        if keep:
            rep.results.append(result)
    return rep


def sample_setup(configs, samples: list[list[float]]) -> None:
    """Time SETUP_SAMPLES repetitions of the set-up run_scenario does before
    its first step, once per config, appending to ``samples[i]``."""
    from ebwave.scenarios import initial_state
    from ebwave.splitting import RunState, StrangSolver

    for config, times in zip(configs, samples):
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            grid = config.grid()
            StrangSolver(grid, config.params(), config.model_variant(),
                         n_disp=config.n_disp, blowup_threshold=config.blowup_threshold)
            RunState.initial(initial_state(config), grid.dx)
            times.append(time.perf_counter() - start)


def repeat(seconds: float, body) -> None:
    """Call ``body`` until another call would end after ``seconds``."""
    start = time.perf_counter()
    calls = 0
    while True:
        body()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed * (calls + 1) / calls > seconds:
            return


def end_to_end(configs, seconds: float, full: bool = True) -> tuple[list[Rep], dict]:
    # set-up is sampled before every repetition, so that its median spans
    # the same stretch of the run as the repetitions do
    setup: list[list[float]] = [[] for _ in configs]
    reps: list[Rep] = []

    def body():
        sample_setup(configs, setup)
        reps.append(run_rep(configs, full))

    repeat(seconds, body)
    metrics = {
        "wall_s": statistics.median(r.wall for r in reps),
        "setup_s": sum(statistics.median(times) for times in setup),
        "us_per_cell_step": statistics.median(
            1e6 * r.stepping / r.cell_steps if r.cell_steps else 0.0 for r in reps),
        "steps": statistics.median_low(r.steps for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return reps, metrics


def limiter_active_frac(results) -> float:
    """Share of faces, over every snapshot of both fields, where the limiter
    changes the high-order variation by more than round-off."""
    import numpy as np
    from ebwave.hyperbolic import limiter, reconstruction_deltas

    active = faces = 0
    for result in results:
        for snap in result.snapshots:
            for u in (snap.zeta, snap.v):
                delta_plus, delta_minus = reconstruction_deltas(u)
                diff_down = u - np.roll(u, 1)
                diff_up = np.roll(u, -1) - u
                tol = 1e-12 * max(float(np.max(np.abs(u))), 1e-300)
                for slope, delta in ((limiter(diff_down, diff_up, delta_plus), delta_plus),
                                     (limiter(diff_up, diff_down, delta_minus), delta_minus)):
                    active += int(np.count_nonzero(np.abs(slope - delta) > tol))
                    faces += u.size
    return active / faces if faces else 0.0


def per_layer(configs, seconds: float, full: bool = True) -> tuple[list[Rep], dict]:
    from tracing import Tracer, installed

    tracer = Tracer()
    plain: list[Rep] = []
    traced: list[Rep] = []

    def pair():
        plain.append(run_rep(configs, full))
        with installed(tracer):
            traced.append(run_rep(configs, full, keep=True))

    repeat(seconds, pair)
    return plain + traced, layer_metrics(tracer, plain, traced)


def layer_metrics(tr, plain: list[Rep], traced: list[Rep]) -> dict:
    import numpy as np

    reps = len(traced)
    wall_ns = 1e9 * sum(r.wall for r in traced)

    def calls(name):
        return tr.calls[name] / reps

    def us_per_call(name, self_time=False):
        ns = (tr.self_ns if self_time else tr.total_ns)[name]
        return ns / tr.calls[name] / 1e3 if tr.calls[name] else 0.0

    def s_per_rep(name, self_time=False):
        return (tr.self_ns if self_time else tr.total_ns)[name] / reps / 1e9

    def share(layer):
        return sum(ns for name, ns in tr.self_ns.items()
                   if name.startswith(layer + ".")) / wall_ns

    steps = np.asarray(tr.durations["splitting.strang_step"], dtype=float) / 1e6
    # the highest percentile with at least ten steps beyond it
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / steps.size)) if steps.size else 0.0
    p50, tail = np.percentile(steps, [50.0, tail_pct]) if steps.size else (0.0, 0.0)
    csv_s = tr.total_ns["scenarios.write_snapshots_csv"] / 1e9
    return {
        "hyperbolic.hyperbolic_rhs.calls": calls("hyperbolic.hyperbolic_rhs"),
        "hyperbolic.hyperbolic_rhs.us_per_call": us_per_call("hyperbolic.hyperbolic_rhs"),
        "hyperbolic.hyperbolic_rhs.ns_per_cell":
            tr.self_ns["hyperbolic.hyperbolic_rhs"] / max(1, tr.work["hyperbolic.hyperbolic_rhs"]),
        "hyperbolic.rk4_fv_step.self_us_per_call": us_per_call("hyperbolic.rk4_fv_step", True),
        "hyperbolic.share": share("hyperbolic"),
        "hyperbolic.limiter_active_frac": limiter_active_frac(traced[-1].results),
        "dispersive.zeta_source_term.calls": calls("dispersive.zeta_source_term"),
        "dispersive.zeta_source_term.us_per_call": us_per_call("dispersive.zeta_source_term"),
        "dispersive.velocity_rate.calls": calls("dispersive.velocity_rate"),
        "dispersive.velocity_rate.us_per_call": us_per_call("dispersive.velocity_rate"),
        "dispersive.solve.us_per_call": us_per_call("dispersive.solve"),
        "dispersive.circulant_solves_per_step":
            tr.calls["dispersive.solve"] / max(1, tr.calls["splitting.strang_step"]),
        "dispersive.rk4_fd_step.self_us_per_call": us_per_call("dispersive.rk4_fd_step", True),
        "dispersive.share": share("dispersive"),
        "splitting.conversion_forward.us_per_call": us_per_call("splitting.conversion_forward"),
        "splitting.conversion_inverse.us_per_call": us_per_call("splitting.conversion_inverse"),
        "splitting.choose_dt.us_per_call": us_per_call("splitting.choose_dt"),
        "splitting.strang_step.self_us_per_call": us_per_call("splitting.strang_step", True),
        "splitting.strang_step.ms_p50": float(p50),
        "splitting.strang_step.ms_tail": float(tail),
        "splitting.strang_step.tail_pct": tail_pct,
        "splitting.strang_step.samples": int(steps.size),
        "splitting.share": share("splitting"),
        "scenarios.initial_state.s": s_per_rep("scenarios.initial_state"),
        "splitting.StrangSolver.s": s_per_rep("splitting.StrangSolver"),
        "analytic.corrected_solution.s": s_per_rep("analytic.corrected_solution"),
        "scenarios.write_snapshots_csv.s": s_per_rep("scenarios.write_snapshots_csv"),
        "scenarios.write_snapshots_csv.rows_per_s":
            tr.work["scenarios.write_snapshots_csv"] / csv_s if csv_s else 0.0,
        "scenarios.run_scenario.self_s": s_per_rep("scenarios.run_scenario", True),
        "scenarios.share": share("scenarios"),
        "trace.overhead_frac": statistics.median(r.wall for r in traced)
                               / statistics.median(r.wall for r in plain) - 1.0,
        "trace.coverage_frac": sum(tr.self_ns.values()) / wall_ns,
    }


# glibc sysconf names for the per-core L2 and the L3 size; glibc answers
# them from CPUID, so no file is read
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def machine() -> dict:
    """What the timings depend on. The CPU model comes from the kernel's
    CPU description and reads as null where that is absent, as do cache
    sizes the C library cannot report."""
    import numpy as np

    info = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "cpu_model": None, "numpy": np.__version__,
            "python": platform.python_version()}
    for key, name in (("l2_bytes", _SC_LEVEL2_CACHE_SIZE), ("l3_bytes", _SC_LEVEL3_CACHE_SIZE)):
        try:
            info[key] = os.sysconf(name) or None
        except (ValueError, OSError):
            info[key] = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def result_line(reps: list[Rep], metrics: dict, units: dict) -> dict:
    failures = [f for r in reps for f in r.failures]
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in reps),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        cut: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (info, result). ``cut`` stops every config
    after a few steps and skips the physics gates that need a full run."""
    from workloads import WHY, array_bytes, cut_configs, workload_configs

    configs = workload_configs(workload, seed)
    if cut:
        configs = cut_configs(configs)
    OUTDIR.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            reps, metrics = per_layer(configs, seconds, not cut)
        else:
            reps, metrics = end_to_end(configs, seconds, not cut)
    finally:
        shutil.rmtree(OUTDIR, ignore_errors=True)
    host = machine()
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "why": WHY[workload],
        "configs": [c.name for c in configs],
        "cells": [c.n_cells for c in configs],
        "array_bytes": array_bytes(configs),
        "repetitions": len(reps) // (2 if trace else 1),
        "rep_wall_s": [round(r.wall, 4) for r in reps],
        "machine": host,
        # a bandwidth figure needs arrays of at least 4x the last-level cache
        "bandwidth_bound_sized": bool(host["l3_bytes"])
                                 and array_bytes(configs) >= 4 * host["l3_bytes"],
        "layer_table": {name: moves for name, (_, _, moves) in PER_LAYER.items()},
    }
    return info, result_line(reps, metrics, PER_LAYER if trace else END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ebwave" / "__init__.py").is_file():
        print(f"ebwave sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
