"""Property tests of the stepping loop and of the config file format.

The loop runs random wet states, built from a few Fourier modes on grids
of 16 to 256 cells, to a random target time, with the CFL step or with a
fixed step below it. The config draws cover every field of
``ScenarioConfig`` with any value the constructor accepts.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ebwave.core import ConfigurationError, ModelVariant, PhysParams, State, build_grid
from ebwave.scenarios import (ScenarioConfig, choose_dt, read_config, strang_steps,
                              write_config)
from ebwave.splitting import RunState, StrangSolver

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def loop_cases(draw):
    """(solver, initial run, t_target, fixed_dt)."""
    n = draw(st.integers(16, 256))
    grid = build_grid(0.0, draw(st.floats(5.0, 20.0)), n)
    params = PhysParams.nondimensional(draw(st.floats(0.01, 1.0)))
    variant = draw(st.sampled_from([ModelVariant.FACTORIZED_ALL, ModelVariant.UNFACTORIZED]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = 2.0 * np.pi * grid.centers / grid.length
    zeta, v = (rng.uniform(-0.1, 0.1)
               + sum(rng.uniform(-0.1, 0.1) * np.cos(m * theta + rng.uniform(0, 2 * np.pi))
                     for m in rng.choice(np.arange(1, 6), size=3, replace=False))
               for _ in range(2))
    run = RunState.initial(State(zeta, v), grid.dx)
    cfl_dt = choose_dt(run.cells, params, grid.dx)
    fixed_dt = draw(st.sampled_from([0.0, draw(st.floats(0.25, 1.0)) * cfl_dt]))
    t_target = draw(st.floats(1e-3, 1.0))
    return StrangSolver(grid, params, variant), run, t_target, fixed_dt


@settings(max_examples=40, deadline=None)
@given(loop_cases())
def test_strang_steps_land_on_the_target_and_keep_mass(case):
    solver, run, t_target, fixed_dt = case
    initial = run
    for step in strang_steps(solver, run, t_target, fixed_dt=fixed_dt):
        assert step.t > run.t
        assert step.step_count == run.step_count + 1
        if fixed_dt:
            assert step.t == run.t + min(fixed_dt, t_target - run.t)
        run = step
    assert run.step_count > 0
    assert abs(run.t - t_target) <= 1e-12 * max(1.0, abs(t_target))
    assert abs(run.mass - initial.mass) <= 1e-11


@st.composite
def configs(draw):
    """Any config the constructor accepts."""
    kinds = {"str": st.text(max_size=8), "float": FINITE,
             "int": st.integers(-2**70, 2**70), "bool": st.booleans()}
    kwargs = {f.name: draw(kinds[f.type]) if f.type in kinds
              else tuple(draw(st.lists(FINITE, max_size=3)))
              for f in fields(ScenarioConfig)}
    kwargs["units"] = draw(st.sampled_from(["nondimensional", "si"]))
    kwargs["variant"] = draw(st.sampled_from([v.value for v in ModelVariant]))
    kwargs["t_end"] = draw(st.floats(0.0, 1e300))
    kwargs["output_times"] = tuple(sorted(draw(
        st.lists(st.floats(0.0, kwargs["t_end"]), max_size=4))))
    try:
        return ScenarioConfig(**kwargs)
    except ConfigurationError:
        reject()


@settings(max_examples=100, deadline=None)
@given(configs())
def test_config_file_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    write_config(config, path)
    assert read_config(path) == config
