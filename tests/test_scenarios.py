import ast
import gc
import inspect
import math
import tracemalloc
import weakref
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebwave import scenarios
from ebwave.core import (BlowUpError, ConfigurationError, HyperbolicityError, PhysParams,
                         StallError)
from ebwave.dispersion import DispersionKind
from ebwave.hyperbolic import max_signal_speed
from ebwave.scenarios import (ALPHA_SCAN, CSV_BLOCK_ROWS, ROUNDING_TIES, ConvergenceReport,
                              ScenarioConfig, ScenarioResult, Snapshot, builtin_names,
                              builtin_scenario, choose_dt, csv_rows, dispersion_model,
                              formatter_cases, initial_state, local_maxima, parse_config,
                              read_config, run_convergence, run_dispersion_report,
                              run_scenario, strang_steps, track_crest,
                              write_convergence_csv, write_snapshots_csv)
from ebwave.splitting import CFL, RunState, StrangSolver
from drivers import write_config


def small_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="mini",
        x_min=-2.0, x_max=2.0, n_cells=64,
        epsilon=0.5, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="heap_low_freq",
        t_end=0.2, output_times=(0.0, 0.1, 0.2))
    base.update(overrides)
    return ScenarioConfig(**base)


def rowwise_csv(result) -> bytes:
    """Per-row f-string formatter (oracle for the block writer)."""
    fmt = "%.17g"
    lines = ["t,x,zeta,v\n"]
    for snap in result.snapshots:
        for xi, zi, vi in zip(snap.x, snap.zeta, snap.v):
            lines.append(f"{fmt % snap.t},{fmt % xi},{fmt % zi},{fmt % vi}\n")
    return "".join(lines).encode()


def synthetic_result(times, n, seed=0) -> ScenarioResult:
    rng = np.random.default_rng(seed)
    snaps = []
    for t in times:
        zeta = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        v = rng.standard_normal(n)
        v[:3] = (-0.0, 1e-300, 1e300)
        zeta[-3:] = (1e300, -0.0, 1e-300)
        snaps.append(Snapshot(t, np.linspace(-1.0, 1.0, n), zeta, v))
    return ScenarioResult(config=small_config(), snapshots=snaps, mass_initial=0.0,
                          mass_final=0.0, steps=0, failure=None)


def test_csv_writer_matches_rowwise_formatter(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 37
    result = synthetic_result([0.0, 0.1, 1.0 / 3.0], n)
    path = tmp_path / "sub" / "out.csv"
    write_snapshots_csv(result, path)
    assert path.read_bytes() == rowwise_csv(result)
    # short snapshots and an empty one
    result = synthetic_result([0.0, -0.0, 2.5], 5)
    result.snapshots.append(Snapshot(3.0, np.zeros(0), np.zeros(0), np.zeros(0)))
    write_snapshots_csv(result, path)
    assert path.read_bytes() == rowwise_csv(result)


def test_csv_writer_memory_stays_below_file_size(tmp_path):
    result = synthetic_result([0.0], 65536)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_snapshots_csv(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_csv_writer_memory_stays_below_file_size_on_the_fast_path(tmp_path):
    # the magnitudes of the dam break, every value inside the fast path's
    # exponent range: cell centres in [-700, 700], a surface near its 0.2
    # step and a velocity of order one
    rng = np.random.default_rng(1)
    x = np.linspace(-700.0, 700.0, 65536)
    zeta = 0.2 * np.tanh(x / 50.0) + 1e-3 * rng.standard_normal(x.size)
    v = rng.standard_normal(x.size)
    result = ScenarioResult(config=small_config(), snapshots=[Snapshot(0.05, x, zeta, v)],
                            mass_initial=0.0, mass_final=0.0, steps=0, failure=None)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_snapshots_csv(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
    assert path.read_bytes() == rowwise_csv(result)


def percent_lines(*columns) -> bytes:
    """The oracle of ``csv_rows``: one line per entry of ``columns``, each
    value through ``%`` in "%.17g"."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns)).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_rows_match_the_format_on_any_float(values):
    # st.floats() draws NaN, the infinities, both zeros and subnormals too
    assert csv_rows("", (values,)) == percent_lines(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=20),
       st.floats())
def test_csv_rows_put_the_prefix_before_every_line(rows, t):
    prefix = "%.17g," % t
    want = b"".join(prefix.encode() + line
                    for line in percent_lines(*zip(*rows)).splitlines(keepends=True))
    assert csv_rows(prefix, tuple(zip(*rows))) == want


def test_csv_rows_match_the_format_at_the_edges_of_the_fast_path():
    cases = formatter_cases()
    for tie in ROUNDING_TIES:       # 18 significant digits, the last a 5
        digits = Decimal(tie).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    for e in (-100, -99, -5, -4, 16, 17, 99, 100):
        assert float(f"1e{e}") in cases
    integers = np.concatenate([np.arange(-2048.0, 2049.0), 2.0 ** np.arange(54.0),
                               2.0 ** 53 - np.arange(1.0, 100.0)])
    for values in (cases, integers):
        assert csv_rows("", (values,)) == percent_lines(values)
    # log10 rounds many neighbours of a power of ten to the next exponent; the
    # correction by one keeps them on the fast path, all but a rounding tie
    powers = np.array([float(f"1e{k}") for k in range(-98, 99)])
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, math.inf)])
    assert list(near[~scenarios._decimal(near)[2]]) == [1e15 - 0.125]


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_csvs_match_the_rowwise_formatter(tmp_path, name):
    # each built-in cut to three of its first CFL steps
    config = builtin_scenario(name)
    dt = choose_dt(initial_state(config), config.params(),
                   (config.x_max - config.x_min) / config.n_cells, config.cfl)
    config = replace(config, t_end=3 * dt, output_times=(0.0, 3 * dt))
    result = run_scenario(config, outdir=tmp_path)
    assert result.failure is None and result.steps >= 3 and len(result.snapshots) == 2
    assert (tmp_path / f"{name}.csv").read_bytes() == rowwise_csv(result)


def test_convergence_csv_matches_the_format(tmp_path):
    # cell counts up to 2^53 and errors across the exponent range
    report = ConvergenceReport(n_cells=(100, 1600, 65536, 2 ** 53 - 1, 2 ** 53),
                               err_zeta=(2.9e-3, 1.0 / 3.0, 1e-100, 5e-324, 0.0),
                               err_v=(1e-4, 7.7e14 + 0.125, 1e100, math.inf, math.nan),
                               slope_zeta=2.0, slope_v=2.0, monotone=False)
    path = tmp_path / "convergence.csv"
    write_convergence_csv(report, path)
    assert path.read_bytes() == b"n,err_zeta,err_v\n" + percent_lines(
        report.n_cells, report.err_zeta, report.err_v)


def test_dispersion_csvs_match_the_format(tmp_path):
    curves, scan = run_dispersion_report("eb_factorized", 1.0555, 10.0,
                                         samples=50, outdir=tmp_path)
    assert np.isnan(scan[:, 1]).any()
    assert (tmp_path / "dispersion_eb_factorized_alpha1.0555.csv").read_bytes() \
        == b"k,Cp_model,Cg_model,Cp_stokes,Cg_stokes,ratio_p,ratio_g\n" + percent_lines(*curves.T)
    assert (tmp_path / "alpha_scan_eb_factorized_K10.csv").read_bytes() \
        == b"alpha,error\n" + percent_lines(*scan.T)


def test_builtin_configs_exist_and_roundtrip(tmp_path):
    for name in builtin_names():
        config = builtin_scenario(name)
        path = tmp_path / f"{name}.cfg"
        write_config(config, path)
        assert read_config(path) == config


def test_builtin_scenario_parameters_match_published_setups():
    solitary = builtin_scenario("solitary")
    assert (solitary.n_cells, solitary.epsilon, solitary.alpha) == (1600, 0.01, 1.0)
    assert solitary.output_times == (0.0, 10.0, 30.0, 50.0, 70.0)
    head_on = builtin_scenario("head_on")
    assert head_on.amplitudes == (0.4, 0.2)
    assert head_on.centers == (-50.0, 50.0)
    dam = builtin_scenario("dam_break")
    assert (dam.n_cells, dam.gravity, dam.ic_scale) == (2800, 9.81, 0.2091)
    heap = builtin_scenario("heap_hf")
    assert (heap.n_cells, heap.epsilon, heap.alpha) == (512, 0.1, 1.0555)
    assert builtin_scenario("heap_lf").epsilon == 0.5


def test_builtins_are_shared_frozen_values():
    for name in builtin_names():
        config = builtin_scenario(name)
        assert builtin_scenario(name) is config
        before = {f.name: getattr(config, f.name) for f in fields(config)}
        changed = replace(config, n_cells=config.n_cells + 8, amplitudes=(0.1,) * 3,
                          centers=(0.0,) * 3, directions=(1.0,) * 3)
        assert changed.n_cells != config.n_cells
        assert {f.name: getattr(config, f.name) for f in fields(config)} == before
        with pytest.raises(AttributeError):
            config.n_cells = 8


def test_strang_steps_take_the_cfl_step_at_the_scheme_constant():
    config = small_config()
    grid = config.grid()
    solver = StrangSolver(grid, config.params(), config.model_variant())
    run = RunState.initial(initial_state(config), grid.dx)
    first = next(strang_steps(solver, run, config.t_end))
    speed = float(np.max(max_signal_speed(run.cells.zeta, run.cells.v, solver.params)))
    assert first.t == choose_dt(run.cells, solver.params, grid.dx, CFL) == CFL * grid.dx / speed


def cfl_literals(tree):
    """The names, attributes, keywords and parameters holding "cfl" that
    ``tree`` binds a number literal to."""
    def number(node):
        return (isinstance(node, ast.Constant) and type(node.value) in (int, float)) or (
            isinstance(node, ast.UnaryOp) and number(node.operand))

    found = []
    for node in ast.walk(tree):
        bindings = []
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bindings = [(getattr(t, "id", getattr(t, "attr", "")), node.value) for t in targets]
        elif isinstance(node, ast.keyword):
            bindings = [(node.arg or "", node.value)]
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            bindings = list(zip([a.arg for a in positional[len(positional) - len(node.defaults):]],
                                node.defaults))
            bindings += [(a.arg, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d]
        found += [name for name, value in bindings if "cfl" in name.lower() and number(value)]
    return found


def test_the_cfl_number_is_stated_once():
    # splitting.CFL is the one statement of the CFL number: the config and
    # choose_dt read it, and no other number in src/ is bound to a CFL name
    assert ScenarioConfig.cfl is CFL and builtin_scenario("head_on").cfl is CFL
    assert inspect.signature(choose_dt).parameters["cfl"].default is CFL
    package = Path(scenarios.__file__).parent
    literals = {path.name: cfl_literals(ast.parse(path.read_text()))
                for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in literals.items() if found} == {
        "splitting.py": ["CFL"]}
    # the check sees a literal CFL wherever one would be written
    assert len(cfl_literals(ast.parse(
        "cfl = 0.4\nx.cfl = 1\nf(cfl=-0.5)\ndef g(a, cfl=0.4, *, b_cfl=2): pass"))) == 5


def test_unknown_builtin_raises():
    with pytest.raises(ConfigurationError):
        builtin_scenario("tsunami")


def test_parse_config_errors():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        parse_config("name = x\nbogus_key = 1")
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("name = x\nname = y")
    with pytest.raises(ConfigurationError, match="expected"):
        parse_config("name x")
    # missing required keys surface as configuration errors
    with pytest.raises(ConfigurationError):
        parse_config("name = x")


def test_parse_config_errors_name_the_line_and_key():
    with pytest.raises(ConfigurationError, match=r"^line 2: n_cells: invalid literal"):
        parse_config("name = x\nn_cells = 64.5")
    with pytest.raises(ConfigurationError, match=r"^line 3: x_min: could not convert"):
        parse_config("name = x\n# a comment\nx_min = abc")
    with pytest.raises(ConfigurationError, match=r"^line 2: expect_blowup: expected true"):
        parse_config("name = x\nexpect_blowup = 1")
    for key in ("bogus_key", "units", "corr_center", "fixed_dt", "n_disp", "dam_amplitude",
                "cfl"):
        with pytest.raises(ConfigurationError, match=rf"^line 2: unknown config key '{key}'"):
            parse_config(f"name = x\n{key} = 1")


def test_config_fields():
    names = {f.name for f in fields(ScenarioConfig)}
    assert len(names) == 18 and "cfl" not in names
    assert ScenarioConfig.n_disp == 1 and builtin_scenario("head_on").n_disp == 1
    assert ScenarioConfig.cfl == builtin_scenario("head_on").cfl == CFL


def test_unknown_variant_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="variant must be one of .*'spectral'"):
        small_config(variant="spectral")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(output_times=(0.2, 0.1))
    with pytest.raises(ConfigurationError):
        small_config(output_times=(0.0, 5.0))
    with pytest.raises(ValueError):
        small_config(variant="spectral")
    # text the config file would not read back as written
    for name in ("a#b", " padded ", "x\ny", "tab\t", "\ud800"):
        with pytest.raises(ConfigurationError, match="name must have no"):
            small_config(name=name)


@pytest.mark.parametrize("name,value", [
    ("n_cells", 64.5), ("n_cells", "64"), ("n_cells", True), ("n_cells", np.float64(64.0)),
    ("epsilon", "0.1"), ("epsilon", None), ("epsilon", False),
    ("output_times", [0.0, 0.1]), ("amplitudes", (0.1, "0.2")), ("amplitudes", (True,)),
    ("name", 3), ("expect_blowup", 1), ("expect_blowup", np.bool_(True))])
def test_config_rejects_mistyped_fields(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be "):
        replace(builtin_scenario("head_on"), **{name: value})


@pytest.mark.parametrize("name,value,message", [
    ("blowup_threshold", 0.0, "blowup_threshold must be positive, got 0.0"),
    ("blowup_threshold", -1.0, "blowup_threshold must be positive, got -1.0")])
def test_config_rejects_out_of_range_blowup_threshold(name, value, message):
    with pytest.raises(ConfigurationError, match=message):
        small_config(**{name: value})


@pytest.mark.parametrize("name,value,message", [
    ("epsilon", -0.5, r"epsilon must be in \[0, 1\], got -0.5"),
    ("epsilon", 2.0, r"epsilon must be in \[0, 1\], got 2.0"),
    ("alpha", 0.0, "alpha must be positive, got 0.0"),
    ("gravity", -1.0, "gravity must be positive, got -1.0"),
    ("depth", 0.0, "depth must be positive, got 0.0"),
    ("n_cells", 4, "n_cells = 4 is below the minimum of 8"),
    ("x_max", -5.0, "x_max must exceed x_min"),
    ("alpha", 1e31, r"alpha must lie in \[1e-30, 1e\+30\], got 1e\+31"),
    ("gravity", 1e-300, r"gravity must lie in \[1e-30, 1e\+30\], got 1e-300"),
    ("depth", 1e200, r"depth must lie in \[1e-30, 1e\+30\], got 1e\+200"),
    ("x_max", 1e300, r"x_max - x_min gives a cell size of \S+, outside \[1e-30, 1e\+30\]")])
def test_config_keys_the_model_and_grid_rules(name, value, message):
    with pytest.raises(ConfigurationError, match=message) as error:
        small_config(**{name: value})
    assert error.value.key == name
    # a solitary config meets them before its waves: epsilon, not amplitudes
    with pytest.raises(ConfigurationError, match=message) as error:
        replace(builtin_scenario("solitary"), **{name: value})
    assert error.value.key == name


def test_config_accepts_the_ends_of_the_ranges():
    assert small_config(blowup_threshold=1e-300).blowup_threshold == 1e-300
    assert small_config(alpha=1e30, gravity=1e-30, depth=1e30).alpha == 1e30
    for cell in (1e-30, 1e30):     # 64 cells: x_max / 64 rounds to the cell exactly
        assert small_config(x_min=0.0, x_max=64 * cell).grid().dx == cell


def test_config_accepts_integers_and_reals_of_any_kind():
    config = small_config(n_cells=np.int64(64), epsilon=1,
                          alpha=np.float32(1.0), output_times=(0, np.float64(0.1), 0.2))
    assert run_scenario(config).steps > 0
    with pytest.raises(ConfigurationError, match="epsilon must be finite"):
        small_config(epsilon=np.float32("nan"))


FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "float"]
TUPLE_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type.startswith("tuple")]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS + TUPLE_FIELDS)
def test_config_rejects_non_finite_values(name, bad):
    value = (0.0, bad) if name in TUPLE_FIELDS else bad
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        small_config(**{name: value})


def test_non_finite_field_lists_are_complete():
    assert {"x_min", "t_end", "ic_scale"} <= set(FLOAT_FIELDS)
    assert {"output_times", "amplitudes"} <= set(TUPLE_FIELDS)


def test_initial_state_selectors():
    config = small_config()
    state = initial_state(config)
    assert state.zeta.shape == (64,)
    assert np.max(state.zeta) == pytest.approx(0.7, abs=1e-2)
    assert np.all(state.v == 0.0)

    dam = small_config(initial="dam_break", x_min=-700.0, x_max=700.0, n_cells=128,
                       epsilon=1.0, ic_scale=0.2091)
    assert np.max(initial_state(dam).zeta) == pytest.approx(2 * 0.2091, rel=1e-6)

    with pytest.raises(ConfigurationError, match="initial must be one of"):
        small_config(initial="vortex")
    with pytest.raises(ConfigurationError):
        initial_state(small_config(initial="solitary", amplitudes=(0.2,)))


def test_initial_state_rejects_a_dry_bed():
    dam = dict(initial="dam_break", x_min=-700.0, x_max=700.0, n_cells=128, epsilon=1.0)
    heap = dict(initial="heap_high_freq", epsilon=0.1)
    for config in (small_config(ic_scale=-0.6, **dam),
                   small_config(ic_scale=-50.0, **heap)):
        with pytest.raises(ConfigurationError, match="dry bed at t = 0"):
            initial_state(config)
        with pytest.raises(ConfigurationError, match="dry bed at t = 0"):
            run_scenario(config)
    # wet everywhere, however little: accepted
    assert initial_state(small_config(ic_scale=-0.49, **dam)).zeta.min() > -1.0


def test_initial_state_scaling():
    from ebwave.analytic import heap_profile
    config = small_config(initial="heap_high_freq", ic_scale=0.5)
    expected = 0.5 * heap_profile("high_freq", config.grid().centers)
    assert np.allclose(initial_state(config).zeta, expected, atol=1e-15)


def test_run_scenario_snapshots_and_csv(tmp_path):
    config = small_config()
    result = run_scenario(config, outdir=tmp_path)
    assert [s.t for s in result.snapshots] == [0.0, pytest.approx(0.1), pytest.approx(0.2)]
    assert result.blowup_time is None
    assert result.steps > 0
    assert abs(result.mass_final - result.mass_initial) < 1e-12

    csv = (tmp_path / "mini.csv").read_text().splitlines()
    assert csv[0] == "t,x,zeta,v"
    assert len(csv) == 1 + 3 * 64


def test_snapshots_share_one_read_only_x():
    config = small_config()
    result = run_scenario(config)
    x = result.snapshots[0].x
    assert all(snap.x is x for snap in result.snapshots)
    assert not x.flags.writeable
    assert np.array_equal(x, config.grid().centers)


def test_run_scenario_deterministic_output(tmp_path):
    config = small_config()
    a = run_scenario(config, outdir=tmp_path / "a")
    b = run_scenario(config, outdir=tmp_path / "b")
    assert (tmp_path / "a" / "mini.csv").read_bytes() \
        == (tmp_path / "b" / "mini.csv").read_bytes()


def test_run_scenario_records_expected_blowup():
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     n_cells=256)
    result = run_scenario(config)
    assert result.blew_up
    assert result.blowup_time < 3.0

    # the same run as a plain loop: the result keeps the last finite state,
    # not the initial one, and the time of the step that blew up
    grid = config.grid()
    solver = StrangSolver(grid, config.params(), config.model_variant(),
                          n_disp=config.n_disp, blowup_threshold=config.blowup_threshold)
    run = RunState.initial(initial_state(config), grid.dx)
    snapshots = []
    with pytest.raises(BlowUpError) as blowup:
        for t_target in config.output_times:
            while run.t < t_target - 1e-12 * max(1.0, t_target):
                dt = choose_dt(run.cells, solver.params, grid.dx, config.cfl)
                run = solver.strang_step(run, min(dt, t_target - run.t))
            snapshots.append((run.t, run.cells.zeta.tobytes(), run.cells.v.tobytes()))
    assert result.steps == run.step_count > 0
    assert result.mass_final == run.mass
    assert result.blowup_time == blowup.value.time
    assert [(s.t, s.zeta.tobytes(), s.v.tobytes()) for s in result.snapshots] == snapshots


def test_a_failed_run_does_not_keep_its_solver(monkeypatch):
    # the failure's traceback would hold the frames of run_scenario and
    # strang_step, and with them the solver, its workspace and multipliers
    solvers = []

    def recorded(*args, **kwargs):
        solver = StrangSolver(*args, **kwargs)
        solvers.append(weakref.ref(solver))
        return solver

    monkeypatch.setattr(scenarios, "StrangSolver", recorded)
    result = run_scenario(builtin_scenario("stability_fifth_only_factorized"))
    gc.collect()
    assert result.blew_up and result.steps == 98
    assert len(solvers) == 1 and solvers[0]() is None


# small_config overrides of a heap that is wet at t = 0 (h >= 1) and dries in
# the flux after 765 steps, at t = 1.883
DRY_BED = dict(name="dry", x_min=-3.0, x_max=3.0, epsilon=1.0, ic_scale=20.0,
               blowup_threshold=1e6, t_end=3.0, output_times=(0.0, 3.0))


def strang_loop(config):
    """``config`` run as a plain ``strang_steps`` loop that raises: the
    last state yielded, the snapshots taken and the error."""
    grid = config.grid()
    solver = StrangSolver(grid, config.params(), config.model_variant(),
                          n_disp=config.n_disp, blowup_threshold=config.blowup_threshold)
    run = RunState.initial(initial_state(config), grid.dx)
    snapshots = []
    with pytest.raises(FloatingPointError) as error:
        for t_target in config.output_times:
            for run in strang_steps(solver, run, t_target):
                pass
            snapshots.append((run.t, run.cells.zeta.tobytes(), run.cells.v.tobytes()))
    return run, snapshots, error.value


@pytest.mark.parametrize("config, kind", [
    (small_config(**DRY_BED), HyperbolicityError),
    # with the blow-up guard raised, the fifth-only heap stalls at t = 0.506
    (replace(builtin_scenario("stability_fifth_only_factorized"), blowup_threshold=1e6),
     StallError)])
def test_run_scenario_returns_a_dry_bed_or_stall(tmp_path, config, kind):
    result = run_scenario(config, outdir=tmp_path)
    run, snapshots, error = strang_loop(config)
    assert type(result.failure) is type(error) is kind
    assert str(result.failure) == str(error)
    assert result.failure.__traceback__ is None
    assert not result.blew_up and result.blowup_time is None
    assert result.steps == run.step_count > 0
    assert result.mass_final == run.mass
    assert [(s.t, s.zeta.tobytes(), s.v.tobytes()) for s in result.snapshots] == snapshots
    csv = (tmp_path / f"{config.name}.csv").read_text().splitlines()
    assert len(csv) == 1 + len(snapshots) * config.n_cells


@pytest.mark.parametrize("kind", [BlowUpError, HyperbolicityError, StallError])
def test_run_convergence_names_the_failing_member(monkeypatch, kind):
    # a blow-up keeps its time
    extra = {"time": 0.125} if kind is BlowUpError else {}

    def fails(config):
        return ScenarioResult(config=config, snapshots=[], mass_initial=0.0,
                              mass_final=0.0, steps=3, failure=kind("it failed", **extra))

    monkeypatch.setattr(scenarios, "run_scenario", fails)
    with pytest.raises(kind, match=r"^convergence member N=100: it failed$") as error:
        run_convergence(builtin_scenario("solitary"), [100, 200], 0.25)
    assert vars(error.value) == extra


def test_run_convergence_small_ladder():
    base = replace(builtin_scenario("solitary"), name="conv")
    report = run_convergence(base, [100, 200], 0.25)
    assert report.n_cells == (100, 200)
    assert report.monotone
    assert report.err_zeta[0] > report.err_zeta[1]
    assert report.slope_zeta > 1.0


def test_run_convergence_rejects_non_solitary():
    with pytest.raises(ConfigurationError):
        run_convergence(small_config(), [64, 128], 0.1)


def test_dispersion_report(tmp_path):
    curves, scan = run_dispersion_report("eb_factorized", 1.0555, 10.0,
                                         samples=50, outdir=tmp_path)
    assert curves.shape == (50, 7)
    # ratios tend to one in the long-wave limit
    assert curves[0, 5] == pytest.approx(1.0, abs=1e-3)
    assert curves[0, 6] == pytest.approx(1.0, abs=1e-3)
    assert np.array_equal(scan[:, 0], ALPHA_SCAN)
    # alpha = 0.5 loses the real branch somewhere below K = 10, alpha = 1.05 keeps it
    assert (scan[0, 0], scan[55, 0]) == (0.5, 1.05)
    assert np.isnan(scan[0, 1])
    assert np.isfinite(scan[55, 1])

    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["alpha_scan_eb_factorized_K10.csv",
                     "dispersion_eb_factorized_alpha1.0555.csv"]
    header = (tmp_path / files[1]).read_text().splitlines()[0]
    assert header == "k,Cp_model,Cg_model,Cp_stokes,Cg_stokes,ratio_p,ratio_g"


def test_dispersion_model_rejects_unknown():
    with pytest.raises(ConfigurationError):
        dispersion_model("shallow_water")


def test_dispersion_model_kinds():
    for kind in (DispersionKind.EB_UNFACTORIZED, DispersionKind.EB_FACTORIZED):
        model = dispersion_model(kind.value, 1.2)
        assert model.kind is kind and model.params == PhysParams(epsilon=1.0, alpha=1.2)
    with pytest.raises(ConfigurationError,
                       match=r"\['eb_factorized', 'eb_unfactorized'\], got 'full_euler'"):
        dispersion_model("full_euler")


def test_track_crest_quadratic_exactness():
    x = np.linspace(0.0, 10.0, 101)
    peak_x, peak_h = 4.63, 2.5
    zeta = peak_h - 0.05 * (x - peak_x) ** 2
    got_x, got_h = track_crest(x, zeta)
    assert got_x == pytest.approx(peak_x, abs=1e-12)
    assert got_h == pytest.approx(peak_h, abs=1e-12)
    # a window separating two crests picks the one inside it
    two = zeta + 4.0 * np.exp(-((x - 8.5) / 0.3) ** 2)
    got_x, _ = track_crest(x, two, lo=0.0, hi=6.0)
    assert got_x == pytest.approx(peak_x, abs=1e-3)
    got_x, _ = track_crest(x, two, lo=6.0, hi=10.0)
    assert got_x == pytest.approx(8.5, abs=1e-2)


def test_local_maxima():
    z = np.array([0.0, 1.0, 0.5, 2.0, 1.5, 3.0, 0.0])
    assert list(local_maxima(z)) == [1, 3, 5]
    assert list(local_maxima(z, threshold=1.5)) == [3, 5]
    # prominence filters ripples on a plateau
    plateau = np.array([1.0, 1.0 + 1e-12, 1.0, 2.0, 1.0])
    assert list(local_maxima(plateau, prominence=1e-6)) == [3]
    assert list(local_maxima(plateau)) == [1, 3]
