"""Workload definitions and correctness gates of the ebwave benchmark.

A workload is a list of scenario configs built from the shipped built-ins.
Seed 0 reproduces the shipped configs exactly. A non-zero seed shifts the
domain by a seed-chosen fraction of a cell and, for ``head_on`` only,
jitters each solitary-wave amplitude by at most 1%.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ebwave.scenarios import (ScenarioConfig, builtin_scenario, choose_dt,
                              initial_state, track_crest)

WHY = {
    "head_on": "paper's headline nonlinear collision, N=1200, 9 output times; "
               "9.4 KiB arrays put it in the per-call-overhead regime",
    "dam_break_64k": "dam break at N=65536 with a short t_end; per-element regime "
                     "(512 KiB arrays, N log N FFTs), fully nonlinear, heaviest CSV "
                     "output and set-up",
}

MASS_DRIFT_MAX = 1e-11
CREST_DRIFT_MAX = 0.05      # criterion 08 of the acceptance suite

# Seed-0 values of ||zeta(T)|| / ||zeta(0)|| and ||v(T)|| / ||zeta(0)||, with T
# the last snapshot, and the relative tolerance each pair is checked to.
# Dividing by the initial surface norm removes the first-order effect of the
# head_on amplitude jitter, so one stored pair serves every seed. Each
# tolerance is well above the spread seen over seeds 0-3 (1.4e-4 for head_on,
# 1e-9 for the dam break) and far below what a wrong scheme would give.
REFERENCE_NORMS = {
    "head_on": (0.9903167899426362, 0.9799767593365235, 2e-3),
    "dam_break_64k": (0.9999368693116507, 0.029600425771985024, 1e-4),
}


def _shift(config: ScenarioConfig, frac: float) -> ScenarioConfig:
    dx = (config.x_max - config.x_min) / config.n_cells
    return replace(config, x_min=config.x_min + frac * dx,
                   x_max=config.x_max + frac * dx)


def _base(name: str) -> list[ScenarioConfig]:
    if name == "head_on":
        return [builtin_scenario("head_on")]
    if name == "dam_break_64k":
        return [replace(builtin_scenario("dam_break"), name="dam_break_64k",
                        n_cells=65536, t_end=0.1, output_times=(0.0, 0.05, 0.1))]
    raise KeyError(name)


def workload_configs(name: str, seed: int) -> list[ScenarioConfig]:
    """The scenario configs of one workload for one seed."""
    configs = _base(name)
    if seed == 0:
        return configs
    rng = np.random.default_rng(seed)
    frac = float(rng.uniform(0.0, 1.0))
    out = []
    for config in configs:
        config = _shift(config, frac)
        if name == "head_on":
            jitter = rng.uniform(-0.01, 0.01, size=len(config.amplitudes))
            config = replace(config, amplitudes=tuple(
                float(a * (1.0 + j)) for a, j in zip(config.amplitudes, jitter)))
        out.append(config)
    return out


def cut_configs(configs: list[ScenarioConfig], steps: int = 3) -> list[ScenarioConfig]:
    """The same configs stopped after about ``steps`` steps (self-test only)."""
    out = []
    for config in configs:
        dt = choose_dt(initial_state(config), config.params(),
                       (config.x_max - config.x_min) / config.n_cells, config.cfl)
        t_end = steps * dt
        out.append(replace(config, t_end=t_end, output_times=(0.0, t_end)))
    return out


def array_bytes(configs: list[ScenarioConfig]) -> int:
    """Bytes of one float64 field of the largest grid in the workload."""
    return 8 * max(c.n_cells for c in configs)


@dataclass
class Check:
    ok: bool
    reason: str = ""


def _norm_ratios(result) -> tuple[float, float]:
    first, last = result.snapshots[0], result.snapshots[-1]
    z0 = float(np.linalg.norm(first.zeta))
    return (float(np.linalg.norm(last.zeta)) / z0,
            float(np.linalg.norm(last.v)) / z0)


def check_result(result, full: bool = True) -> Check:
    """Gate one scenario result. ``full`` adds the physics checks that only
    hold for an uncut run."""
    config = result.config
    drift = abs(result.mass_final - result.mass_initial) / abs(result.mass_initial)
    if not drift <= MASS_DRIFT_MAX:
        return Check(False, f"{config.name}: mass drift {drift:.3g}")
    if result.blew_up != config.expect_blowup:
        return Check(False, f"{config.name}: blow-up {result.blowup_time}, "
                            f"expected {config.expect_blowup}")
    if not full:
        return Check(True)
    if not result.snapshots:
        return Check(False, f"{config.name}: no snapshots")
    if config.name == "head_on":
        first, last = result.snapshots[0], result.snapshots[-1]
        _, big0 = track_crest(first.x, first.zeta, lo=-100.0, hi=0.0)
        _, small0 = track_crest(first.x, first.zeta, lo=0.0, hi=100.0)
        _, big = track_crest(last.x, last.zeta, lo=0.0, hi=50.0)
        _, small = track_crest(last.x, last.zeta, lo=-50.0, hi=0.0)
        for label, before, after in (("big", big0, big), ("small", small0, small)):
            d = abs(after - before) / before
            if not d <= CREST_DRIFT_MAX:
                return Check(False, f"head_on: {label} crest drift {d:.3g}")

    *ref, rtol = REFERENCE_NORMS[config.name]
    for label, got, want in zip(("zeta", "v"), _norm_ratios(result), ref):
        if not abs(got - want) <= rtol * abs(want) + 1e-12:
            return Check(False, f"{config.name}: {label} norm ratio {got:.10g}, "
                                f"stored {want:.10g}")
    return Check(True)
