"""The benchmark's traced run must see every layer of the step path.

``perfbench/tracing.py`` wraps the names the solver looks up at call time.
A kernel that stops calling through one of them (say, ``hyperbolic_rhs``
bound locally instead of read from the module) drops that layer from the
traced table without any error; this test catches that.
"""

import sys
from dataclasses import replace
from pathlib import Path

from ebwave.scenarios import builtin_scenario, choose_dt, initial_state, run_scenario

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)

STEP_PATH_SPANS = (
    "hyperbolic.hyperbolic_rhs",
    "hyperbolic.rk4_fv_step",
    "dispersive.zeta_source_term",
    "dispersive.velocity_rate",
    "dispersive.solve",
    "splitting.conversion_forward",
    "splitting.conversion_inverse",
    "splitting.choose_dt",
    "splitting.strang_step",
)


def test_traced_head_on_records_every_step_path_span():
    config = builtin_scenario("head_on")
    dt = choose_dt(initial_state(config), config.params(),
                   (config.x_max - config.x_min) / config.n_cells, config.cfl)
    config = replace(config, t_end=3 * dt, output_times=(0.0, 3 * dt))
    before = tracing.originals()
    with tracing.installed(tracing.Tracer()) as tracer:
        result = run_scenario(config)
    after = tracing.originals()
    assert all(after[key] is before[key] for key in before)

    assert result.steps == 3 and not result.blew_up
    for span in STEP_PATH_SPANS:
        assert tracer.calls[span] > 0, span
    assert tracer.calls["splitting.strang_step"] == result.steps
    # one CFL step per step: the loop looks choose_dt up where the trace wraps it
    assert tracer.calls["splitting.choose_dt"] == result.steps
    assert tracer.calls["hyperbolic.hyperbolic_rhs"] == 8 * result.steps
    assert tracer.calls["hyperbolic.rk4_fv_step"] == 2 * result.steps
    # one P and one J solve for the zeta-only source, one K solve per stage
    assert tracer.calls["dispersive.solve"] == 6 * result.steps
    assert tracer.calls["dispersive.velocity_rate"] == 4 * result.steps
    assert tracer.calls["dispersive.zeta_source_term"] == result.steps
