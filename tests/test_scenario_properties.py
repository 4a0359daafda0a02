"""Property tests of the stepping loop, of one Strang step and of the
config file format.

The loop runs random wet states, built from a few Fourier modes on grids
of 16 to 256 cells, to a random target time with the CFL step. One Strang
step of every model variant, on such states with 16 to 96 cells, commutes
with a shift and with the reflection x -> -x, v -> -v, and keeps a
constant state. The config draws cover every field of ``ScenarioConfig``
with any value the constructor accepts, and the reader draws edit a valid
config file with arbitrary value text.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from ebwave.core import ConfigurationError, Grid, ModelVariant, PhysParams, State
from ebwave.scenarios import (INITIAL_CONDITIONS, ScenarioConfig, builtin_scenario,
                              parse_config, read_config, strang_steps, write_config)
from ebwave.splitting import RunState, StrangSolver, choose_dt

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def wet_state(draw, max_cells: int) -> tuple[Grid, State]:
    """A grid of 16 to ``max_cells`` cells and a state on it: a constant
    plus three of the first five Fourier modes per field, all of amplitude
    at most 0.1."""
    grid = Grid(0.0, draw(st.floats(5.0, 20.0)), draw(st.integers(16, max_cells)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = 2.0 * np.pi * grid.centers / grid.length
    zeta, v = (rng.uniform(-0.1, 0.1)
               + sum(rng.uniform(-0.1, 0.1) * np.cos(m * theta + rng.uniform(0, 2 * np.pi))
                     for m in rng.choice(np.arange(1, 6), size=3, replace=False))
               for _ in range(2))
    return grid, State(zeta, v)


@st.composite
def loop_cases(draw):
    """(solver, initial run, t_target)."""
    grid, state = wet_state(draw, 256)
    params = PhysParams(draw(st.floats(0.01, 1.0)))
    variant = draw(st.sampled_from([ModelVariant.FACTORIZED_ALL, ModelVariant.UNFACTORIZED]))
    run = RunState.initial(state, grid.dx)
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
def step_cases(draw):
    """(solver of any variant, state, its CFL step)."""
    grid, state = wet_state(draw, 96)
    solver = StrangSolver(grid, PhysParams(draw(st.floats(0.01, 1.0))),
                          draw(st.sampled_from(list(ModelVariant))))
    return solver, state, choose_dt(state, solver.params, grid.dx)


def strang_step(solver, state, dt):
    cells = solver.strang_step(RunState.initial(state, solver.grid.dx), dt).cells
    return cells.zeta, cells.v


# The FFT solves round differently on a shifted or reversed field, so the
# images agree to round-off in the max norm of the step's result. Measured
# worst over 250 draws per variant (more at the draws' bounds): 8.6e-16 for
# shifts, 7.9e-16 for reflections of the factorized variants, and 4.6e-14
# for reflections of the unfactorized one, whose explicit D3 and D5 terms
# round about 5000 times worse than the factorized ones (ROADMAP item 5).
STEP_TOLERANCE = 1e-13
UNFACTORIZED_REFLECTION_TOLERANCE = 1e-12


def assert_same_step(got, want, tolerance=STEP_TOLERANCE):
    scale = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= tolerance * scale


@settings(max_examples=60, deadline=None)
@given(step_cases(), st.integers(0, 2**31))
def test_strang_step_commutes_with_translation(case, shift):
    solver, state, dt = case
    shift %= state.zeta.size
    rolled = State(np.roll(state.zeta, shift), np.roll(state.v, shift))
    assert_same_step(strang_step(solver, rolled, dt),
                     [np.roll(w, shift) for w in strang_step(solver, state, dt)])


@settings(max_examples=60, deadline=None)
@given(step_cases())
def test_strang_step_commutes_with_reflection(case):
    # x -> -x maps cell i to cell N-1-i, keeps zeta and flips the sign of v
    solver, state, dt = case
    zeta, v = strang_step(solver, state, dt)
    tolerance = (UNFACTORIZED_REFLECTION_TOLERANCE
                 if solver.variant is ModelVariant.UNFACTORIZED else STEP_TOLERANCE)
    assert_same_step(strang_step(solver, State(state.zeta[::-1], -state.v[::-1]), dt),
                     (zeta[::-1], -v[::-1]), tolerance)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(16, 96), epsilon=st.floats(0.01, 1.0), height=st.floats(-0.9, 1.0),
       v=st.floats(-1.0, 1.0), variant=st.sampled_from(list(ModelVariant)))
def test_strang_steps_keep_a_constant_state(n, epsilon, height, v, variant):
    # zeta = height / epsilon keeps the water column h0 + eps zeta >= 0.1
    grid = Grid(0.0, 10.0, n)
    solver = StrangSolver(grid, PhysParams(epsilon), variant)
    zeta = height / epsilon
    run = RunState.initial(State(np.full(n, zeta), np.full(n, v)), grid.dx)
    for _ in range(10):
        run = solver.strang_step(run, choose_dt(run.cells, solver.params, grid.dx))
    assert np.max(np.abs(run.cells.zeta - zeta)) <= 1e-13 * max(1.0, abs(zeta))
    assert np.max(np.abs(run.cells.v - v)) <= 1e-13


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
