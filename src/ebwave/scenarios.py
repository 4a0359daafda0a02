"""Bundled experiments, the convergence-study driver and CSV emission.

Each scenario is a flat key/value configuration that round-trips through a
small text format (one ``key = value`` per line, ``#`` comments). The
bundled set covers solitary wave propagation, a head-on collision of two
solitary waves, breaking heaps of water in the small and large wavenumber
regimes, a dimensional dam break, and the high frequency stability
demonstration that runs the same initial heap through all three model
variants.

CSV files use a header row and 17 significant digits so identical
configurations produce identical bytes.

``strang_steps`` is the package's one stepping loop: it owns the choice of
dt, the landing on each output time and, through ``StrangSolver``, the
blow-up check. It yields every step instead of returning the last one, so
a caller keeps the last state before a step that blows up, dries or
stalls, and it lives here rather than in ``splitting`` because the
benchmark's trace wraps the ``choose_dt`` that this module looks up.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analytic import (SolitaryWaveSpec, corrected_solution, dam_break_profile,
                       heap_profile)
from .core import (BlowUpError, ConfigurationError, Grid, HyperbolicityError, ModelVariant,
                   PhysParams, StallError, State, relative_l2_error, require_finite)
from .dispersion import (DispersionInstabilityError, DispersionKind, DispersionModel,
                         require_magnitude, stokes_reference, velocities, weighted_error)
from .splitting import RunState, StrangSolver, choose_dt

FLOAT_FMT = "%.17g"

# the ``initial`` selectors that ``initial_state`` dispatches on
INITIAL_CONDITIONS = ("solitary", "heap_high_freq", "heap_low_freq", "dam_break")

# the smallest ``cfl`` of a config: below it a run takes more than a thousand
# steps for the fastest wave to cross one cell, and near 1e-300 its steps
# round to zero or never reach t_end
CFL_MIN = 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Every run takes the CFL step that ``cfl``, at least CFL_MIN, sets;
    ``ic_scale`` scales the heap or dam profile that ``initial`` selects.
    ``n_disp``, the number of dispersive substeps per step, is a class
    attribute rather than a field: no config key sets it. A
    ConfigurationError's ``key`` names a rejected field.
    """

    name: str
    x_min: float
    x_max: float
    n_cells: int
    epsilon: float
    alpha: float
    gravity: float
    depth: float
    variant: str                    # ModelVariant value
    initial: str                    # initial-condition selector
    t_end: float
    output_times: tuple[float, ...]
    cfl: float = 0.4
    blowup_threshold: float = 100.0
    expect_blowup: bool = False
    amplitudes: tuple[float, ...] = ()
    centers: tuple[float, ...] = ()
    directions: tuple[float, ...] = ()
    ic_scale: float = 1.0
    n_disp = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _CODECS[f.type][2]
            items = value if f.type.startswith("tuple") else (value,)
            if not isinstance(items, tuple) or not all(
                    isinstance(x, kind) and (kind is bool or not isinstance(x, bool))
                    for x in items):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}",
                                         key=f.name)
            # the config file could not hold these: '#' starts a comment, a
            # line break ends the entry and the parser strips outer whitespace
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or "".join(value.splitlines()) != value):
                raise ConfigurationError(
                    f"{f.name} must have no '#', line break or leading or trailing "
                    f"whitespace, got {value!r}", key=f.name)
            if any(isinstance(x, (float, np.floating)) and not math.isfinite(x) for x in items):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}", key=f.name)
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError(f"cfl must be in (0, 1], got {self.cfl}", key="cfl")
        if self.cfl < CFL_MIN:
            raise ConfigurationError(
                f"cfl = {self.cfl} is below the minimum of {CFL_MIN:g}", key="cfl")
        if self.blowup_threshold <= 0.0:
            raise ConfigurationError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}",
                key="blowup_threshold")
        if sorted(self.output_times) != list(self.output_times):
            raise ConfigurationError("output_times must be sorted", key="output_times")
        if self.output_times and not (0.0 <= self.output_times[0]
                                      and self.output_times[-1] <= self.t_end):
            raise ConfigurationError("output_times must lie in [0, t_end]",
                                     key="output_times")
        for key, allowed in (("variant", [v.value for v in ModelVariant]),
                             ("initial", list(INITIAL_CONDITIONS))):
            if getattr(self, key) not in allowed:
                raise ConfigurationError(
                    f"{key} must be one of {allowed}, got {getattr(self, key)!r}", key=key)

    def params(self) -> PhysParams:
        return PhysParams(epsilon=self.epsilon, alpha=self.alpha,
                          gravity=self.gravity, depth=self.depth)

    def grid(self) -> Grid:
        return Grid(self.x_min, self.x_max, self.n_cells)

    def model_variant(self) -> ModelVariant:
        return ModelVariant(self.variant)


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ConfigurationError(f"expected true/false, got {value!r}")
    return value.lower() == "true"


# field annotation -> (parse, format) of its value in the config file and
# the type the constructor takes for it, or for each entry of a tuple (a
# bool only where the field is one)
_CODECS = {
    "str": (str, str, str),
    "int": (int, str, numbers.Integral),
    "float": (float, FLOAT_FMT.__mod__, numbers.Real),
    "bool": (_parse_bool, lambda value: "true" if value else "false", bool),
    "tuple[float, ...]": (lambda text: tuple(float(v) for v in text.split(",")) if text else (),
                          lambda value: ",".join(FLOAT_FMT % v for v in value), numbers.Real),
}


def write_config(config: ScenarioConfig, path) -> None:
    lines = [f"{f.name} = {_CODECS[f.type][1](getattr(config, f.name))}"
             for f in fields(ScenarioConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat key/value scenario format; unknown keys are errors,
    and an error in one entry, from its value's parser or from the
    ScenarioConfig constructor, names its line and key."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = lineno, value

    kwargs = {}
    known = {f.name: f.type for f in fields(ScenarioConfig)}
    for key, (lineno, value) in raw.items():
        if key not in known:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        try:
            kwargs[key] = _CODECS[known[key]][0](value)
        except ValueError as exc:   # a ConfigurationError too
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from None
    except ConfigurationError as exc:   # its message starts with the key
        raise ConfigurationError(f"line {raw[exc.key][0]}: {exc}") from None


def read_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _solitary_waves(config: ScenarioConfig) -> list[SolitaryWaveSpec]:
    """One wave per entry of the config's amplitudes, centers and directions."""
    if not (len(config.amplitudes) == len(config.centers) == len(config.directions)):
        raise ConfigurationError(
            "solitary initial data needs matching amplitudes/centers/directions")
    return [SolitaryWaveSpec(amplitude=a, epsilon=config.epsilon, x0=x0, direction=int(d))
            for a, x0, d in zip(config.amplitudes, config.centers, config.directions)]


def initial_state(config: ScenarioConfig) -> State:
    """Evaluate the configured initial condition at the cell centers; a
    water column h0 + eps*zeta that is not positive everywhere (a dry bed at
    t = 0) is a ConfigurationError."""
    x = config.grid().centers
    if config.initial == "solitary":
        zeta = np.zeros_like(x)
        v = np.zeros_like(x)
        for spec in _solitary_waves(config):
            zi, vi = corrected_solution(spec, 0.0, x)
            zeta += zi
            v += vi
        state = State(zeta, v)
    elif config.initial == "dam_break":
        state = State(dam_break_profile(config.ic_scale, x), np.zeros_like(x))
    else:                           # heap_high_freq or heap_low_freq
        kind = config.initial.removeprefix("heap_")
        state = State(config.ic_scale * heap_profile(kind, x), np.zeros_like(x))
    params = config.params()
    if not state.is_hyperbolic(params):
        raise ConfigurationError(
            "dry bed at t = 0: the water column h0 + eps*zeta falls to "
            f"{np.min(state.water_column(params)):g}")
    return state


@dataclass
class Snapshot:
    t: float
    x: np.ndarray
    zeta: np.ndarray
    v: np.ndarray


@dataclass
class ScenarioResult:
    """One run; ``failure`` is the error that ended it before t_end, or None."""

    config: ScenarioConfig
    snapshots: list[Snapshot]
    mass_initial: float
    mass_final: float
    steps: int
    failure: FloatingPointError | None

    @property
    def blew_up(self) -> bool:
        return isinstance(self.failure, BlowUpError)

    @property
    def blowup_time(self) -> float | None:
        return self.failure.time if self.blew_up else None


# a stall: a CFL step below this fraction of the first of a ``strang_steps``
# call. The built-ins keep above 0.8 of it, but the unstable fifth-only heap
# reaches 0.134 before its blow-up.
STALL_FRACTION = 1e-2


def strang_steps(solver: StrangSolver, run: RunState, t_target: float,
                 cfl: float = 0.4) -> Iterator[RunState]:
    """Step ``run`` to ``t_target``, yielding the state after every step.

    dt is the CFL step of the current state (``choose_dt``), and the last
    step is clipped to land on ``t_target``. A study at a fixed dt calls
    ``solver.strang_step(run, dt)`` directly. A CFL step, before clipping,
    below STALL_FRACTION of the call's first one is not taken but raises a
    StallError, since a growing signal speed can shrink dt without bound.
    It and a BlowUpError from a step propagate, and the caller's loop
    variable still holds the last state yielded before them.
    """
    dx = solver.grid.dx
    dt_first = None
    while run.t < t_target - 1e-12 * max(1.0, abs(t_target)):
        dt = choose_dt(run.cells, solver.params, dx, cfl)
        dt_first = dt_first or dt
        if dt < STALL_FRACTION * dt_first:
            raise StallError(f"CFL step {dt:g} fell below {STALL_FRACTION:g} of the first, "
                             f"{dt_first:g}, at t = {run.t:g} after {run.step_count} steps")
        run = solver.strang_step(run, min(dt, t_target - run.t))
        yield run


def run_scenario(config: ScenarioConfig, outdir=None,
                 on_snapshot=None) -> ScenarioResult:
    """Drive the splitting solver through the scenario.

    Snapshots of (t, x_i, zeta_i, v_i) are taken at each configured output
    time (and passed to ``on_snapshot`` when given). A blow-up, a dry bed
    or a stall ends the run as the result's ``failure``, not raised, and
    the CSV still holds the snapshots taken before it; scenarios built to
    demonstrate instabilities set ``expect_blowup``.
    """
    grid = config.grid()
    solver = StrangSolver(grid, config.params(), config.model_variant(),
                          n_disp=config.n_disp,
                          blowup_threshold=config.blowup_threshold)
    run = RunState.initial(initial_state(config), grid.dx)
    mass_initial = run.mass

    snapshots: list[Snapshot] = []
    x = grid.centers                # shared, read-only, by every snapshot
    x.flags.writeable = False

    def emit(state: RunState):
        snap = Snapshot(state.t, x, state.cells.zeta.copy(), state.cells.v.copy())
        snapshots.append(snap)
        if on_snapshot is not None:
            on_snapshot(snap.t, snap.x, snap.zeta, snap.v)

    failure = None
    targets = list(config.output_times) or [config.t_end]
    if targets[-1] < config.t_end:
        targets.append(config.t_end)
    try:
        for t_target in targets:
            for run in strang_steps(solver, run, t_target, config.cfl):
                pass
            if t_target in config.output_times or not config.output_times:
                emit(run)
    except (BlowUpError, HyperbolicityError, StallError) as exc:
        failure = exc
        if isinstance(exc, BlowUpError) and exc.time is None:
            exc.time = run.t

    result = ScenarioResult(config=config, snapshots=snapshots,
                            mass_initial=mass_initial, mass_final=run.mass,
                            steps=run.step_count, failure=failure)
    if outdir is not None:
        write_snapshots_csv(result, Path(outdir) / f"{config.name}.csv")
    return result


CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, tables) -> None:
    """``header``, then per (prefix, columns) of ``tables`` one row per entry
    of the equal-length ``columns``: the prefix, then the entries as
    FLOAT_FMT. One ``%`` formats a block of CSV_BLOCK_ROWS rows, so memory
    stays bounded by a block rather than by the file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(header + "\n")
        for prefix, columns in tables:
            row = prefix + ",".join([FLOAT_FMT] * len(columns)) + "\n"
            for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
                block = np.column_stack([a[start:start + CSV_BLOCK_ROWS] for a in columns])
                out.write(row * len(block) % tuple(block.ravel().tolist()))


def write_snapshots_csv(result: ScenarioResult, path) -> None:
    """One row (t, x_i, zeta_i, v_i) per cell and snapshot, under a header;
    a snapshot's t is formatted once, into its row template."""
    _write_csv(path, "t,x,zeta,v", ((FLOAT_FMT % s.t + ",", (s.x, s.zeta, s.v))
                                    for s in result.snapshots))


@dataclass
class ConvergenceReport:
    """Relative errors against the corrected solitary wave at t = T."""

    n_cells: tuple[int, ...]
    err_zeta: tuple[float, ...]
    err_v: tuple[float, ...]
    slope_zeta: float
    slope_v: float
    monotone: bool


def run_convergence(base: ScenarioConfig, n_list, t_final: float) -> ConvergenceReport:
    """Rerun the solitary scenario on a refinement ladder of at least two
    distinct cell counts and regress the error slopes against the corrected
    analytic solution."""
    if base.initial != "solitary" or len(base.amplitudes) != 1:
        raise ConfigurationError("convergence study needs a single solitary wave")
    n_list = sorted({int(n) for n in n_list})
    if len(n_list) < 2:
        raise ConfigurationError(
            f"a convergence slope needs at least two distinct cell counts, got {n_list}")
    (spec,) = _solitary_waves(base)
    errs_z, errs_v = [], []
    for n in n_list:
        config = replace(base, n_cells=n, t_end=t_final, output_times=(t_final,),
                         name=f"{base.name}_n{n}")
        result = run_scenario(config)
        if result.failure is not None:
            raise type(result.failure)(f"convergence member N={n}: {result.failure}")
        snap = result.snapshots[-1]
        zeta_ref, v_ref = corrected_solution(spec, t_final, snap.x)
        errs_z.append(relative_l2_error(snap.zeta, zeta_ref))
        errs_v.append(relative_l2_error(snap.v, v_ref))

    log_dx = np.log([(base.x_max - base.x_min) / n for n in n_list])
    slope_z = float(np.polyfit(log_dx, np.log(errs_z), 1)[0])
    slope_v = float(np.polyfit(log_dx, np.log(errs_v), 1)[0])
    monotone = all(a > b for a, b in zip(errs_z, errs_z[1:])) \
        and all(a > b for a, b in zip(errs_v, errs_v[1:]))
    return ConvergenceReport(n_cells=tuple(n_list),
                             err_zeta=tuple(errs_z), err_v=tuple(errs_v),
                             slope_zeta=slope_z, slope_v=slope_v,
                             monotone=monotone)


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    _write_csv(path, "n,err_zeta,err_v", [("", (report.n_cells, report.err_zeta, report.err_v))])


_MODEL_KINDS = ("eb_unfactorized", "eb_factorized")     # DispersionKind values


def dispersion_model(kind_name: str, alpha: float = 1.0) -> DispersionModel:
    if kind_name not in _MODEL_KINDS:
        raise ConfigurationError(
            f"model must be one of {sorted(_MODEL_KINDS)}, got {kind_name!r}")
    return DispersionModel(DispersionKind(kind_name), PhysParams(epsilon=1.0, alpha=alpha))


# the alphas of the error scan in ``run_dispersion_report``
ALPHA_SCAN = np.linspace(0.5, 1.5, 101)


def run_dispersion_report(kind_name: str, alpha: float, k_max: float,
                          samples: int = 400, outdir=None):
    """Velocity curves against the Stokes reference plus an error-vs-alpha scan.

    Returns (curves, scan) where curves has columns k, Cp_model, Cg_model,
    Cp_stokes, Cg_stokes, ratio_p, ratio_g and scan has columns alpha (the
    ALPHA_SCAN grid), error (NaN where the model loses its real branch).
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    require_finite(k_max=k_max)
    model = dispersion_model(kind_name, alpha)
    require_magnitude(alpha=alpha, k_max=k_max)
    k = np.linspace(k_max / samples, k_max, samples)
    cp, cg = velocities(model, k)
    cp_s, cg_s = velocities(stokes_reference(model), k)
    curves = np.column_stack([k, cp, cg, cp_s, cg_s, cp / cp_s, cg / cg_s])

    scan_err = []
    for a in ALPHA_SCAN:
        try:
            scan_err.append(weighted_error(model, float(a), k_max))
        except DispersionInstabilityError:
            scan_err.append(np.nan)
    scan = np.column_stack([ALPHA_SCAN, scan_err])

    if outdir is not None:
        outdir = Path(outdir)
        _write_csv(outdir / f"dispersion_{kind_name}_alpha{alpha:g}.csv",
                   "k,Cp_model,Cg_model,Cp_stokes,Cg_stokes,ratio_p,ratio_g", [("", curves.T)])
        _write_csv(outdir / f"alpha_scan_{kind_name}_K{k_max:g}.csv",
                   "alpha,error", [("", scan.T)])
    return curves, scan


def track_crest(x: np.ndarray, zeta: np.ndarray, lo: float | None = None,
                hi: float | None = None) -> tuple[float, float]:
    """Crest position and height by a quadratic fit through the maximum
    cell and its two neighbors, optionally restricted to x in [lo, hi]."""
    mask = np.ones_like(x, dtype=bool)
    if lo is not None:
        mask &= x >= lo
    if hi is not None:
        mask &= x <= hi
    idx = np.flatnonzero(mask)
    i = idx[np.argmax(zeta[idx])]
    n = len(x)
    ym, y0, yp = zeta[(i - 1) % n], zeta[i], zeta[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return float(x[i]), float(y0)
    shift = 0.5 * (ym - yp) / denom
    dx = x[1] - x[0]
    height = y0 - 0.25 * (ym - yp) * shift
    return float(x[i] + shift * dx), float(height)


def local_maxima(zeta: np.ndarray, threshold: float = -np.inf,
                 prominence: float = 0.0) -> np.ndarray:
    """Indices of strict interior local maxima above the threshold.

    ``prominence`` requires each maximum to exceed both neighbors by that
    margin, which filters round-off ripples on flat plateaus."""
    z = np.asarray(zeta)
    inner = (z[1:-1] > z[:-2] + prominence) & (z[1:-1] > z[2:] + prominence) \
        & (z[1:-1] > threshold)
    return np.flatnonzero(inner) + 1


# ---------------------------------------------------------------------------
# bundled scenarios


def _solitary() -> ScenarioConfig:
    return ScenarioConfig(
        name="solitary", x_min=0.0, x_max=100.0, n_cells=1600,
        epsilon=0.01, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="solitary",
        t_end=70.0, output_times=(0.0, 10.0, 30.0, 50.0, 70.0),
        amplitudes=(0.2,), centers=(20.0,), directions=(1.0,))


def _head_on() -> ScenarioConfig:
    return ScenarioConfig(
        name="head_on", x_min=-100.0, x_max=100.0, n_cells=1200,
        epsilon=0.1, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="solitary",
        t_end=70.0, output_times=(0.0, 43.0, 46.0, 49.0, 53.0, 55.0, 58.0, 60.0, 70.0),
        amplitudes=(0.4, 0.2), centers=(-50.0, 50.0), directions=(1.0, -1.0))


def _heap_hf(alpha: float, suffix: str = "") -> ScenarioConfig:
    return ScenarioConfig(
        name="heap_hf" + suffix, x_min=-2.0, x_max=2.0, n_cells=512,
        epsilon=0.1, alpha=alpha, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="heap_high_freq",
        t_end=3.0, output_times=(0.0, 3.0))


def _heap_lf() -> ScenarioConfig:
    return ScenarioConfig(
        name="heap_lf", x_min=-2.0, x_max=2.0, n_cells=512,
        epsilon=0.5, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="heap_low_freq",
        t_end=3.0, output_times=(0.0, 3.0))


def _dam_break() -> ScenarioConfig:
    # gravity and depth are not part of the published setup; g = 9.81 m/s^2
    # and h0 = 1 m are the documented assumptions.
    return ScenarioConfig(
        name="dam_break", x_min=-700.0, x_max=700.0, n_cells=2800,
        epsilon=1.0, alpha=1.0, gravity=9.81, depth=1.0,
        variant="factorized_all", initial="dam_break",
        t_end=65.0, output_times=(0.0, 20.0, 30.0, 65.0),
        ic_scale=0.2091)


def _stability(variant: ModelVariant) -> ScenarioConfig:
    # The high frequency heap scaled to peak deformation 0.6, run through the
    # fully nonlinear (dimensional, unit gravity/depth) system. Above the
    # ~0.2 bound of the fifth-only variant, below the ~0.63 bound of the
    # unfactorized one.
    return ScenarioConfig(
        name=f"stability_{variant.value}", x_min=-2.0, x_max=2.0, n_cells=512,
        epsilon=1.0, alpha=1.0, gravity=1.0, depth=1.0,
        variant=variant.value, initial="heap_high_freq",
        t_end=3.0, output_times=(0.0, 1.0, 2.0, 3.0),
        ic_scale=0.6 / 0.7, blowup_threshold=10.0,
        expect_blowup=(variant is ModelVariant.FIFTH_ONLY_FACTORIZED))


_BUILTINS = {
    "solitary": _solitary,
    "head_on": _head_on,
    "heap_hf": lambda: _heap_hf(1.0555),
    "heap_hf_alpha1": lambda: _heap_hf(1.0, "_alpha1"),
    "heap_lf": _heap_lf,
    "dam_break": _dam_break,
    "stability_factorized_all": lambda: _stability(ModelVariant.FACTORIZED_ALL),
    "stability_unfactorized": lambda: _stability(ModelVariant.UNFACTORIZED),
    "stability_fifth_only_factorized": lambda: _stability(ModelVariant.FIFTH_ONLY_FACTORIZED),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; built-ins: {', '.join(builtin_names())}")
    return _BUILTINS[name]()


def stability_demo(outdir=None) -> dict[str, ScenarioResult]:
    """Run the 0.6-amplitude heap through all three model variants.

    The fifth-only factorization is expected to blow up before t = 3 while
    the other two variants stay bounded."""
    return {v.value: run_scenario(_stability(v), outdir=outdir) for v in ModelVariant}
