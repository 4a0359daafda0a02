"""Bundled experiments, the convergence-study driver and CSV emission.

Each scenario is a flat key/value configuration that round-trips through a
small text format (one ``key = value`` per line, ``#`` comments). The
bundled set covers solitary wave propagation, a head-on collision of two
solitary waves, breaking heaps of water in the small and large wavenumber
regimes, a dimensional dam break, and the high frequency stability
demonstration that runs the same initial heap through all three model
variants.

CSV files use a header row and 17 significant digits so identical
configurations produce identical bytes: every value reads as
``FLOAT_FMT % value`` would write it, byte for byte. ``csv_rows`` builds
those bytes in numpy, a block of rows at a time. Its fast path scales a
finite value to a 17-digit integer with Dekker's error-free product
against a double-double table of powers of ten (error below 5e-15 on a
value of 1e16 to 1e17), rounds it and lays the digits out as ``%g`` does;
NaN, the infinities, decimal exponents beyond +-99 and the values within
1e-6 of a rounding tie take ``FLOAT_FMT`` itself. Files are written in
binary mode, so that lines end in "\n" on every OS (text mode wrote
"\r\n" on Windows).

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
                   PhysParams, StallError, State, relative_l2_error, require_magnitude)
from .dispersion import (DispersionInstabilityError, DispersionKind, DispersionModel,
                         stokes_reference, velocities, weighted_error)
from .dispersive import check_variant
from .splitting import CFL, RunState, StrangSolver, choose_dt

FLOAT_FMT = "%.17g"

# the ``initial`` selectors that ``initial_state`` dispatches on
INITIAL_CONDITIONS = ("solitary", "heap_high_freq", "heap_low_freq", "dam_break")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    ``name`` names the run's CSV in the output directory, so it is a plain
    file name: not empty, ``.`` or ``..``, and without a path separator.
    ``output_times`` are strictly increasing and lie in [0, t_end].
    ``ic_scale`` scales the heap or dam profile that ``initial`` selects.
    ``cfl``, the CFL number of every run (``splitting.CFL``), and
    ``n_disp``, the least number of dispersive substeps per step, are class
    attributes rather than fields: no config key sets them. The physical
    parameters, the grid and, for a solitary config, the waves are built
    here, and the variant's rules (``dispersive.check_variant``) checked,
    so that a config that cannot run is rejected with the config. A
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
    blowup_threshold: float = 100.0
    expect_blowup: bool = False
    amplitudes: tuple[float, ...] = ()
    centers: tuple[float, ...] = ()
    directions: tuple[float, ...] = ()
    ic_scale: float = 1.0
    cfl = CFL
    n_disp = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _CODECS[f.type][1]
            items = value if f.type.startswith("tuple") else (value,)
            if not isinstance(items, tuple) or not all(
                    isinstance(x, kind) and (kind is bool or not isinstance(x, bool))
                    for x in items):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}",
                                         key=f.name)
            # the config file could not hold these: '#' starts a comment, a
            # line break ends the entry, the parser strips outer whitespace
            # and the file is UTF-8, which encodes no lone surrogate
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or "".join(value.splitlines()) != value
                                           or value.encode(errors="replace").decode() != value):
                raise ConfigurationError(
                    f"{f.name} must have no '#', line break, lone surrogate or leading or "
                    f"trailing whitespace, got {value!r}", key=f.name)
            if any(isinstance(x, (float, np.floating)) and not math.isfinite(x) for x in items):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}", key=f.name)
        if self.blowup_threshold <= 0.0:
            raise ConfigurationError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}",
                key="blowup_threshold")
        if self.t_end < 0.0:
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}",
                                     key="t_end")
        # a plain file name is its own last path component
        if self.name in ("", ".", "..") or Path(self.name).name != self.name:
            raise ConfigurationError(
                f"name must be a plain file name, not empty, '.', '..' or a path, "
                f"got {self.name!r}", key="name")
        if sorted(self.output_times) != list(self.output_times):
            raise ConfigurationError("output_times must be sorted", key="output_times")
        if len(set(self.output_times)) < len(self.output_times):
            raise ConfigurationError(f"output_times must not repeat a time, got "
                                     f"{self.output_times}", key="output_times")
        if self.output_times and not (0.0 <= self.output_times[0]
                                      and self.output_times[-1] <= self.t_end):
            raise ConfigurationError("output_times must lie in [0, t_end]",
                                     key="output_times")
        for key, allowed in (("variant", [v.value for v in ModelVariant]),
                             ("initial", list(INITIAL_CONDITIONS))):
            if getattr(self, key) not in allowed:
                raise ConfigurationError(
                    f"{key} must be one of {allowed}, got {getattr(self, key)!r}", key=key)
        self.params()
        self.grid()
        check_variant(self.model_variant(), self.alpha, self.n_cells)
        if self.initial == "solitary":
            _solitary_waves(self)

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


# field annotation -> the parser of its value in the config file and the
# type the constructor takes for it, or for each entry of a tuple (a bool
# only where the field is one)
_CODECS = {
    "str": (str, str),
    "int": (int, numbers.Integral),
    "float": (float, numbers.Real),
    "bool": (_parse_bool, bool),
    "tuple[float, ...]": (lambda text: tuple(float(v) for v in text.split(",")) if text else (),
                          numbers.Real),
}


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
        if exc.key not in raw:          # a missing entry, such as centers
            raise
        raise ConfigurationError(f"line {raw[exc.key][0]}: {exc}") from None


def read_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _solitary_waves(config: ScenarioConfig) -> list[SolitaryWaveSpec]:
    """One wave per entry of the config's amplitudes, centers and directions;
    a ConfigurationError names the list at fault."""
    for key in ("centers", "directions"):
        if len(getattr(config, key)) != len(config.amplitudes):
            raise ConfigurationError(
                f"{key}: solitary initial data needs matching "
                "amplitudes/centers/directions", key=key)
    try:
        return [SolitaryWaveSpec(amplitude=a, epsilon=config.epsilon, x0=x0, direction=d)
                for a, x0, d in zip(config.amplitudes, config.centers, config.directions)]
    except ConfigurationError as exc:   # keyed by the spec's field, one entry of a list
        raise ConfigurationError(f"{exc.key}s: {exc}", key=f"{exc.key}s") from None


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
# reaches 0.138 before its blow-up.
STALL_FRACTION = 1e-2

# the most CFL steps of the first size that a ``strang_steps`` call may need
# to reach its last target; the longest built-in takes 1407 steps in all
STEP_LIMIT = 1e8


def strang_steps(solver: StrangSolver, run: RunState, t_target: float, *,
                 t_last: float | None = None) -> Iterator[RunState]:
    """Step ``run`` to ``t_target``, yielding the state after every step.

    dt is the CFL step of the current state at ``splitting.CFL``
    (``choose_dt``), and the last step is clipped to land on ``t_target``.
    The CFL step bounds dt by the hyperbolic signal speed only: the
    dispersive part of a step takes the RK4 substeps that its velocity
    gradient asks for (``StrangSolver.dispersive_step``), at most
    ``splitting.SUBSTEP_LIMIT``.
    A study at a fixed dt calls ``solver.strang_step(run, dt)`` directly.
    A CFL step, before clipping, below STALL_FRACTION of the call's first
    one is not taken but raises a StallError, since a growing signal speed
    can shrink dt without bound. It and a BlowUpError or StallError from a
    step propagate, and the caller's loop variable still holds the last
    state yielded before them. A last target ``t_last`` (by default
    ``t_target``; ``run_scenario`` passes the end of the run) more than
    STEP_LIMIT first steps away is a ConfigurationError, raised before any
    step: with the stall rules, that bounds the work of a call, and a run
    that cannot end fails before its first output time.
    """
    dx = solver.grid.dx
    t_last = t_target if t_last is None else t_last
    dt_first = None
    while run.t < t_target - 1e-12 * max(1.0, abs(t_target)):
        dt = choose_dt(run.cells, solver.params, dx)
        if dt_first is None:
            dt_first = dt
            if t_last - run.t > STEP_LIMIT * dt:
                raise ConfigurationError(
                    f"the remaining time {t_last - run.t:g} to t = {t_last:g} "
                    f"needs more than STEP_LIMIT = {STEP_LIMIT:g} CFL steps of {dt:g}")
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
    demonstrate instabilities set ``expect_blowup``. The failure is kept
    without its traceback, whose frames would hold the solver and its
    workspace for as long as the result lives.
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
            for run in strang_steps(solver, run, t_target, t_last=targets[-1]):
                pass
            if t_target in config.output_times or not config.output_times:
                emit(run)
    except (BlowUpError, HyperbolicityError, StallError) as exc:
        failure = exc.with_traceback(None)

    result = ScenarioResult(config=config, snapshots=snapshots,
                            mass_initial=mass_initial, mass_final=run.mass,
                            steps=run.step_count, failure=failure)
    if outdir is not None:
        write_snapshots_csv(result, Path(outdir) / f"{config.name}.csv")
    return result


# the rows that one pass of the CSV formatter takes: its temporaries take
# about 240 bytes per value, 0.7 MB for a block of x, zeta and v, so the
# memory of a write stays bounded by a block rather than by the file
CSV_BLOCK_ROWS = 1024

# FLOAT_FMT in numpy (``csv_rows``). A finite x != 0 of decimal exponent E in
# [-_E_MAX, _E_MAX] is scaled to y = |x| 10^(16 - E) in [1e16, 1e17) and
# rounded to the 17-digit integer D whose digits FLOAT_FMT prints. The table
# holds 10^(16 - E) as hi + lo to within 2^-106 of it, |x| hi is exact as
# Dekker's p + err, and |x| lo and its sum with err round once each, so y
# is off by at most 2^-104 y < 5e-15; its fraction then rounds once more, by
# at most 2^-53. A y whose fraction lies within _MARGIN of 1/2 could round
# either way (an exact tie takes round-half-even: 2.98023223876953125e-08,
# which is 2^-25, prints as 2.9802322387695312e-08) and takes FLOAT_FMT
# itself, as NaN, the infinities and every |E| > _E_MAX do.
_E_MAX = 99
_MARGIN = 1e-6
# the exponents of the power-of-ten table: floor(log10 |x|) may be one off
# E, and the correction of a value that leaves [1e16, 1e17) one off again
_E_TABLE = _E_MAX + 2
# Veltkamp's constant, 2^27 + 1: c = _SPLIT a, head = c - (c - a) splits a
# double into two halves of 26 bits whose products are exact
_SPLIT = 134217729.0
# the 8-byte words of one value's slot: [sign, "0.000", d0, point],
# the digits d1..d16 in four words of a digit and a point place each, and
# [exponent "e+XX", separator]. Unused bytes stay 0 and are dropped.
_SLOT_WORDS = 6
_SLOT = 8 * _SLOT_WORDS


def _power_of_ten(k: int) -> tuple[float, float]:
    """(hi, lo): hi = fl(10^k) and lo = fl(10^k - hi), each a quotient of
    exact integers rounded once, by ``int`` true division."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _ten_table() -> tuple[np.ndarray, ...]:
    """hi, its Veltkamp halves and lo of 10^(16 - E), indexed by E + _E_TABLE."""
    hi, lo = np.array([_power_of_ten(16 - e)
                       for e in range(-_E_TABLE, _E_TABLE + 1)]).T
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, lo


# a word of the slot, its first byte lowest on every platform
_WORD = np.dtype("<u8")


def _words(texts) -> np.ndarray:
    """Each of ``texts``, at most 8 characters, as a word padded with 0."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), _WORD)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """A group g of 4 digits as a word, its digits in bytes 0, 2, 4 and 6
    (the bytes between hold a point if any), and [i, g]: the place among
    d1..d16 of the last digit of group i that is not 0, where that group is
    g, and 0 for g = 0000."""
    g = np.arange(10000, dtype=np.int16)
    chars = np.zeros((10000, 8), np.uint8)
    last = np.zeros((4, 10000), np.int8)
    for j, power in enumerate((1000, 100, 10, 1)):
        digit = g // power % 10
        chars[:, 2 * j] = digit + ord("0")
        # digit j of group i is d(4i + j + 1); a later one that is not 0 wins
        last[:, digit != 0] = np.arange(j + 1, 17, 4, dtype=np.int8)[:, None]
    return chars.view(_WORD).ravel(), last


_TEN = _ten_table()
_GROUP, _LAST_DIGIT = _group_tables()
# [i, k]: the bytes of group i that hold the first k of the digits d0..d16
_GROUP_KEEP = np.array([[(1 << 8 * (2 * c - 1)) - 1 if c else 0
                         for c in np.clip(np.arange(18) - 1 - 4 * i, 0, 4)]
                        for i in range(4)], _WORD)
# bytes 1-5 of the first word: "0." and the zeros after it, for E = -1 .. -4
_LEAD = _words(["", *("\0" + "0." + "0" * i for i in range(4))])
# "e-99" .. "e+99" at E + _E_MAX + 1, and nothing at 0
_EXPONENT = _words(["", *(f"e{e:+03d}" for e in range(-_E_MAX, _E_MAX + 1))])


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) with s + t = a 10^(16 - e) to within 2^-104 of it and
    |t| <= ulp(s) / 2: Dekker's exact product of a with hi, plus a lo."""
    hi, head, tail, lo = (t.take(e + _E_TABLE) for t in _TEN)
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = a_head * head - p
    err += a_head * tail
    err += a_tail * head
    err += a_tail * tail            # p + err = a hi exactly
    err += a * lo
    s = p + err
    return s, err - (s - p)


def _in_range(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether y = s + t lies in [1e16 - 0.04, 1e17 + 0.4). A y that far
    below 1e16 or above 1e17 rounds to 10^16 or 10^17, as 10 y or y / 10
    does at the next exponent, so both give the same digits and E. (s -
    1e16 is exact where it matters, s being near 1e16.)"""
    return ((s - 1e16) + t >= -0.04) & ((s - 1e17) + t < 0.4)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, fast) for a in [10^-_E_MAX, 10^(_E_MAX + 1)): a rounded to 17
    significant digits is d 10^(e - 16), d in [1e16, 1e17), where ``fast``
    holds. Elsewhere d is 10^16 and e is 0, and FLOAT_FMT decides."""
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, e)
    inside = _in_range(s, t)
    if not inside.all():            # log10 put E one off
        redo = np.flatnonzero(~inside)
        e[redo] += np.where(s[redo] <= 1e16, -1, 1)     # y below the range, or above
        s[redo], t[redo] = s_redo, t_redo = _scaled(a[redo], e[redo])
        inside[redo] = _in_range(s_redo, t_redo)
    fraction = t - np.floor(t)
    d = s.astype(np.int64)          # s >= 1e16 > 2^53 is an integer
    d += np.rint(t).astype(np.int64)
    carry = d == 10 ** 17           # 9.99...95 rounds up to 10
    d[carry] = 10 ** 16
    e += carry
    fast = inside & (np.abs(fraction - 0.5) >= _MARGIN) & (np.abs(e) <= _E_MAX)
    d[~fast] = 10 ** 16
    e[~fast] = 0
    return d, e, fast


def _slots(x: np.ndarray) -> np.ndarray:
    """(len(x), _SLOT) bytes: FLOAT_FMT % x[i] in row i, between 0 bytes,
    and its last byte left 0 for a separator."""
    a = np.abs(x)
    zero = a == 0.0
    scalable = (a >= 10.0 ** -_E_MAX) & (a < 10.0 ** (_E_MAX + 1))
    # a zero is laid out as 1, and its digit then set to 0
    d, e, fast = _decimal(np.where(scalable, a, 1.0))
    fast &= scalable | zero
    # '%g' is fixed for -4 <= E < 17: ``point`` digits before the point
    # (0 after "0.0.."), and 1 before it in exponent form
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)
    first, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    groups = [*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4)]
    last = _LAST_DIGIT[0].take(groups[0])
    for table, g in zip(_LAST_DIGIT[1:], groups[1:]):
        np.maximum(last, table.take(g), out=last)
    length = last + 1               # digits up to the last that is not 0
    keep = np.maximum(length, point)

    words = np.empty((x.size, _SLOT_WORDS), _WORD)
    words[:, 0] = _LEAD.take(np.where(fixed & (e < 0), -e, 0))
    words[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    words[:, 0] |= (first.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(48)
    for i, (g, mask) in enumerate(zip(groups, _GROUP_KEEP), 1):
        words[:, i] = _GROUP.take(g) & mask.take(keep)
    words[:, -1] = _EXPONENT.take(np.where(fixed, 0, e + _E_MAX + 1))
    out = words.view(np.uint8)
    # the point after p digits takes the byte after digit p - 1: 7 after d0,
    # 9 after d1, and so on
    dotted = np.flatnonzero((point >= 1) & (length > point))
    out[dotted, 5 + 2 * point[dotted]] = ord(".")
    out[zero, 6] = ord("0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([(FLOAT_FMT % v).ljust(_SLOT - 1, "\0") for v in x[slow].tolist()])
        out[slow, :-1] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT - 1)
    return out


def csv_rows(prefix: str, columns) -> bytes:
    """One CSV line per entry of the equal-length ``columns``: ``prefix``,
    then the entries, as floats, in FLOAT_FMT and comma separated. The
    bytes are those of ``%`` with FLOAT_FMT; see ``_write_csv``."""
    block = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    rows, cols = block.shape
    cells = _slots(block.ravel()).reshape(rows, cols, _SLOT)
    cells[:, :-1, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    text = cells.tobytes().translate(None, b"\0")
    if not (prefix and rows):
        return text
    head = prefix.encode("ascii")
    return head + text[:-1].replace(b"\n", b"\n" + head) + b"\n"


# exact ties at the 17th digit, which FLOAT_FMT rounds half to even: down
# after an even digit (2^-25 = 2.98023223876953125e-08), up after an odd one
ROUNDING_TIES = (2.0 ** -25, 7.7e14 + 0.125, 7.7e14 + 0.375, 7.7e14 + 0.625,
                 7.7e14 + 0.875, 1e15 - 0.125, 1e15 + 0.25, 3e13 + 0.0625, 3e13 + 0.1875)


def formatter_cases() -> np.ndarray:
    """Floats at the edges of ``csv_rows``' fast path, with their negatives:
    zeros, NaN, the infinities, subnormals and the extremes, ROUNDING_TIES,
    integers up to 2^53, and every power of ten from 1e-101 to 1e101 with
    both of its neighbours, which covers E = -5, -4, 16, 17 and +-99, +-100."""
    special = [0.0, math.nan, math.inf, 5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308]
    integers = [1.0, 1200.0, 65536.0, 2.0 ** 53 - 1.0, 2.0 ** 53]
    powers = np.array([float(f"1e{k}") for k in range(-101, 102)])
    cases = np.concatenate([special, ROUNDING_TIES, integers, powers,
                            np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    return np.concatenate([cases, -cases])


def _write_csv(path, header: str, tables) -> None:
    """``header``, then per (prefix, columns) of ``tables`` one row per entry
    of the equal-length ``columns``: the prefix, then the entries as
    FLOAT_FMT, byte for byte.

    ``csv_rows`` formats a block of CSV_BLOCK_ROWS rows at a time, so that
    memory stays bounded by a block rather than by the file. Its fast path
    lays each value out from its 17 digits in numpy, with the exponent
    correction, the rounding margin and the error bound stated at _E_MAX;
    NaN, the infinities, exponents beyond +-_E_MAX and values too close to
    a rounding tie take FLOAT_FMT itself. The file is written in binary
    mode, so a line ends in "\n" on every OS.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as out:
        out.write(header.encode("ascii") + b"\n")
        for prefix, columns in tables:
            for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
                out.write(csv_rows(prefix, [c[start:start + CSV_BLOCK_ROWS] for c in columns]))


def write_snapshots_csv(result: ScenarioResult, path) -> None:
    """One row (t, x_i, zeta_i, v_i) per cell and snapshot, under a header;
    a snapshot's t is formatted once, into its row prefix."""
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
        if result.failure is not None:      # the same error, a blow-up's time included
            result.failure.args = (f"convergence member N={n}: {result.failure}",)
            raise result.failure
        snap = result.snapshots[-1]
        zeta_ref, v_ref = corrected_solution(spec, t_final, snap.x)
        errs_z.append(relative_l2_error(snap.zeta, zeta_ref))
        errs_v.append(relative_l2_error(snap.v, v_ref))
        if not (errs_z[-1] > 0.0 and errs_v[-1] > 0.0):
            raise ConfigurationError(
                f"convergence member N={n} has a zero error at t_final = {t_final:g}: "
                "a slope needs positive errors")

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
    ``k_max`` is checked against ``core.MAGNITUDES`` before the model is
    built, and ``alpha`` by ``PhysParams``.
    """
    if samples < 1:
        raise ConfigurationError(f"need at least one sample, got {samples}")
    require_magnitude(k_max=k_max)
    model = dispersion_model(kind_name, alpha)
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
        curves_path, scan_path = dispersion_csv_paths(kind_name, alpha, k_max, outdir)
        _write_csv(curves_path, "k,Cp_model,Cg_model,Cp_stokes,Cg_stokes,ratio_p,ratio_g",
                   [("", curves.T)])
        _write_csv(scan_path, "alpha,error", [("", scan.T)])
    return curves, scan


def dispersion_csv_paths(kind_name: str, alpha: float, k_max: float, outdir) -> tuple[Path, Path]:
    """The paths in ``outdir`` of the curves and the alpha scan that
    ``run_dispersion_report`` writes."""
    outdir = Path(outdir)
    return (outdir / f"dispersion_{kind_name}_alpha{alpha:g}.csv",
            outdir / f"alpha_scan_{kind_name}_K{k_max:g}.csv")


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


_HEAP = dict(x_min=-2.0, x_max=2.0, n_cells=512, gravity=1.0, depth=1.0,
             variant="factorized_all", t_end=3.0, output_times=(0.0, 3.0))

# frozen and built once: ``builtin_scenario`` hands out these instances
_BUILTINS = {config.name: config for config in (
    ScenarioConfig(
        name="solitary", x_min=0.0, x_max=100.0, n_cells=1600,
        epsilon=0.01, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="solitary",
        t_end=70.0, output_times=(0.0, 10.0, 30.0, 50.0, 70.0),
        amplitudes=(0.2,), centers=(20.0,), directions=(1.0,)),
    ScenarioConfig(
        name="head_on", x_min=-100.0, x_max=100.0, n_cells=1200,
        epsilon=0.1, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="solitary",
        t_end=70.0, output_times=(0.0, 43.0, 46.0, 49.0, 53.0, 55.0, 58.0, 60.0, 70.0),
        amplitudes=(0.4, 0.2), centers=(-50.0, 50.0), directions=(1.0, -1.0)),
    ScenarioConfig(name="heap_hf", epsilon=0.1, alpha=1.0555, initial="heap_high_freq",
                   **_HEAP),
    ScenarioConfig(name="heap_hf_alpha1", epsilon=0.1, alpha=1.0, initial="heap_high_freq",
                   **_HEAP),
    ScenarioConfig(name="heap_lf", epsilon=0.5, alpha=1.0, initial="heap_low_freq", **_HEAP),
    # gravity and depth are not part of the published setup; g = 9.81 m/s^2
    # and h0 = 1 m are the documented assumptions.
    ScenarioConfig(
        name="dam_break", x_min=-700.0, x_max=700.0, n_cells=2800,
        epsilon=1.0, alpha=1.0, gravity=9.81, depth=1.0,
        variant="factorized_all", initial="dam_break",
        t_end=65.0, output_times=(0.0, 20.0, 30.0, 65.0),
        ic_scale=0.2091),
    *(_stability(v) for v in ModelVariant),
)}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; built-ins: {', '.join(builtin_names())}")
    return _BUILTINS[name]


def stability_runs() -> dict[str, ScenarioConfig]:
    """The configs of ``stability_demo`` by variant value."""
    return {v.value: _stability(v) for v in ModelVariant}


def stability_demo(outdir=None) -> dict[str, ScenarioResult]:
    """Run the 0.6-amplitude heap through all three model variants.

    The fifth-only factorization is expected to blow up before t = 3 while
    the other two variants stay bounded."""
    return {name: run_scenario(config, outdir=outdir)
            for name, config in stability_runs().items()}
