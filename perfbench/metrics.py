"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; the self-test checks that the
two agree and that a run prints each of them.

``PER_LAYER`` maps each per-layer metric to (unit, better, what it should
move): the end-to-end metric and the workloads on which a change to that
layer should show. This is the layer -> end-to-end metric -> workload table
that later changes cite; it is printed with every run.
"""

from __future__ import annotations

ALL = "head_on, dam_break_64k"

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "us_per_cell_step": ("us", "lower"),
    "steps": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

_HYP = f"us_per_cell_step, wall_s on {ALL}"
_DISP = f"us_per_cell_step on {ALL} (capped at the 15-22% share)"
_SPLIT = f"us_per_cell_step by at most ~3% on {ALL}"
_SETUP = "setup_s, most on dam_break_64k"
_CSV = "wall_s on dam_break_64k (~12%); no change on head_on (<1%)"

PER_LAYER = {
    "hyperbolic.hyperbolic_rhs.calls": ("count", "lower", _HYP),
    "hyperbolic.hyperbolic_rhs.us_per_call": ("us", "lower", _HYP),
    "hyperbolic.hyperbolic_rhs.ns_per_cell": ("ns", "lower", _HYP),
    "hyperbolic.rk4_fv_step.self_us_per_call": ("us", "lower", _HYP),
    "hyperbolic.share": ("fraction", "lower", _HYP),
    "hyperbolic.limiter_active_frac": ("fraction", "lower",
                                       "none: characterises the inputs"),
    "dispersive.zeta_source_term.calls": ("count", "lower", _DISP),
    "dispersive.zeta_source_term.us_per_call": ("us", "lower", _DISP),
    "dispersive.velocity_rate.calls": ("count", "lower", _DISP),
    "dispersive.velocity_rate.us_per_call": ("us", "lower", _DISP),
    "dispersive.solve.us_per_call": ("us", "lower",
                                     "us_per_cell_step, most on dam_break_64k"),
    "dispersive.circulant_solves_per_step": ("count", "lower", _DISP),
    "dispersive.rk4_fd_step.self_us_per_call": ("us", "lower", _DISP),
    "dispersive.share": ("fraction", "lower", _DISP),
    "splitting.conversion_forward.us_per_call": ("us", "lower", _SPLIT),
    "splitting.conversion_inverse.us_per_call": ("us", "lower", _SPLIT),
    "splitting.choose_dt.us_per_call": ("us", "lower", _SPLIT),
    "splitting.strang_step.self_us_per_call": ("us", "lower", _SPLIT),
    "splitting.strang_step.ms_p50": ("ms", "lower", _HYP),
    "splitting.strang_step.ms_tail": ("ms", "lower", _HYP),
    "splitting.strang_step.tail_pct": ("%", "higher",
                                       "none: the percentile ms_tail reports"),
    "splitting.strang_step.samples": ("count", "higher",
                                      "none: the step count behind ms_p50/ms_tail"),
    "splitting.share": ("fraction", "lower", _SPLIT),
    "scenarios.initial_state.s": ("s", "lower", _SETUP),
    "splitting.StrangSolver.s": ("s", "lower", _SETUP),
    "analytic.corrected_solution.s": ("s", "lower", "setup_s on head_on only"),
    "scenarios.write_snapshots_csv.s": ("s", "lower", _CSV),
    "scenarios.write_snapshots_csv.rows_per_s": ("1/s", "higher", _CSV),
    "scenarios.run_scenario.self_s": ("s", "lower", f"wall_s on {ALL}"),
    "scenarios.share": ("fraction", "lower", _CSV),
    "trace.overhead_frac": ("fraction", "lower", "none: traced wall / untraced wall - 1"),
    "trace.coverage_frac": ("fraction", "higher",
                            "none: layer self times / traced wall"),
}
