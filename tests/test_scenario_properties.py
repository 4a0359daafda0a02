"""Property tests of the stepping loop and of the config file format.

The loop runs random wet states, built from a few Fourier modes on grids
of 16 to 256 cells, to a random target time with the CFL step. The config
draws cover every field of ``ScenarioConfig`` with any value the
constructor accepts, and the reader draws edit a valid config file with
arbitrary value text.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ebwave.core import ConfigurationError, Grid, ModelVariant, PhysParams, State
from ebwave.scenarios import (INITIAL_CONDITIONS, ScenarioConfig, builtin_scenario,
                              parse_config, read_config, strang_steps, write_config)
from ebwave.splitting import RunState, StrangSolver

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def loop_cases(draw):
    """(solver, initial run, t_target)."""
    n = draw(st.integers(16, 256))
    grid = Grid(0.0, draw(st.floats(5.0, 20.0)), n)
    params = PhysParams(draw(st.floats(0.01, 1.0)))
    variant = draw(st.sampled_from([ModelVariant.FACTORIZED_ALL, ModelVariant.UNFACTORIZED]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = 2.0 * np.pi * grid.centers / grid.length
    zeta, v = (rng.uniform(-0.1, 0.1)
               + sum(rng.uniform(-0.1, 0.1) * np.cos(m * theta + rng.uniform(0, 2 * np.pi))
                     for m in rng.choice(np.arange(1, 6), size=3, replace=False))
               for _ in range(2))
    run = RunState.initial(State(zeta, v), grid.dx)
    t_target = draw(st.floats(1e-3, 1.0))
    return StrangSolver(grid, params, variant), run, t_target


@settings(max_examples=40, deadline=None)
@given(loop_cases())
def test_strang_steps_land_on_the_target_and_keep_mass(case):
    solver, run, t_target = case
    initial = run
    for step in strang_steps(solver, run, t_target):
        assert step.t > run.t
        assert step.step_count == run.step_count + 1
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
    kwargs["variant"] = draw(st.sampled_from([v.value for v in ModelVariant]))
    kwargs["initial"] = draw(st.sampled_from(INITIAL_CONDITIONS))
    kwargs["t_end"] = draw(st.floats(0.0, 1e300))
    kwargs["cfl"] = draw(st.floats(0.0, 1.0, exclude_min=True))
    kwargs["blowup_threshold"] = draw(st.floats(0.0, 1e300, exclude_min=True))
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


KEYS = [f.name for f in fields(ScenarioConfig)]
VALUE_TEXT = st.one_of(st.text(max_size=12), st.integers(-10**6, 10**6).map(str),
                       st.floats().map(repr), st.sampled_from(["true", "false", "1,2", ""]))


@settings(max_examples=200, deadline=None)
@given(edits=st.dictionaries(st.sampled_from(KEYS), VALUE_TEXT, max_size=4),
       dropped=st.sets(st.sampled_from(KEYS), max_size=2),
       extra=st.lists(st.tuples(st.sampled_from(KEYS), VALUE_TEXT), max_size=2))
def test_config_reader_raises_only_configuration_errors(tmp_path_factory, edits, dropped,
                                                        extra):
    """``key = value`` lines over the known keys, starting from a valid file:
    the reader returns a config or raises ConfigurationError, nothing else."""
    path = tmp_path_factory.getbasetemp() / "reader.cfg"
    write_config(builtin_scenario("head_on"), path)
    entries = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
    entries.update(edits)
    lines = [(key, value) for key, value in entries.items() if key not in dropped] + extra
    try:
        config = parse_config("".join(f"{key} = {value}\n" for key, value in lines))
    except ConfigurationError:
        return
    assert isinstance(config, ScenarioConfig)
