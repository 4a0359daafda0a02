from contextlib import nullcontext
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from ebwave.core import (BlowUpError, ConfigurationError, Grid, ModelVariant,
                         PhysParams, StallError, State)
from ebwave.dispersive import (_PAIRS, _STENCILS, build_operators, fourier_harmonics,
                               rk4_fd_step, velocity_rate, zeta_source_term)
from ebwave.hyperbolic import FD_GHOSTS, Workspace
from ebwave import dispersive, splitting
from ebwave.scenarios import builtin_scenario, initial_state, strang_steps
from ebwave.splitting import ConversionOperator, RunState, StrangSolver

import drivers
import oracles
from oracles import dense_dispersive_rhs, dense_j_p, dense_matrix


def dispersive_rate(ops, zeta, v):
    """dv/dt of the dispersive part at the point values (zeta, v), in a
    workspace of its own."""
    ws = Workspace(ops.grid.n_cells)
    return velocity_rate(ops, v, zeta_source_term(ops, zeta, ws), ws)


def test_stencil_structure():
    for order in range(1, 6):
        coeffs = _STENCILS[order]
        assert sum(coeffs.values()) == pytest.approx(0.0, abs=1e-13)
        for m, c in coeffs.items():
            mirror = coeffs.get(-m, 0.0)
            if order % 2 == 0:
                assert mirror == pytest.approx(c)
            else:
                assert mirror == pytest.approx(-c)
        width = max(coeffs) - min(coeffs) + 1
        assert drivers.stencil(order, np.zeros(width), 0.1).shape == (width,)


@pytest.mark.parametrize("order", range(1, 6))
def test_generated_stencils_equal_the_typed_tables_bit_for_bit(order):
    generated = {m: c for m, c in _STENCILS[order].items() if c != 0.0}
    assert generated.keys() == oracles.STENCILS[order].keys()
    for m, c in generated.items():
        assert np.float64(c).tobytes() == np.float64(oracles.STENCILS[order][m]).tobytes()


def test_fd_ghosts_cover_the_widest_stencil():
    assert FD_GHOSTS == max(p.reach for p in _PAIRS.values())


@pytest.mark.parametrize("variant,min_n", [(ModelVariant.UNFACTORIZED, 9),
                                           (ModelVariant.FACTORIZED_ALL, 7),
                                           (ModelVariant.FIFTH_ONLY_FACTORIZED, 7)])
def test_minimum_grid_is_twice_the_widest_reach_plus_one(variant, min_n):
    # Grid takes no fewer than 8 cells, so a smaller one is a stand-in
    small = SimpleNamespace(n_cells=min_n - 1, dx=0.1)
    with pytest.raises(ConfigurationError,
                       match=f"{variant.value} needs at least {min_n} points, got {min_n - 1}"):
        build_operators(small, PhysParams(0.1), variant)
    assert build_operators(Grid(0.0, 1.0, max(min_n, 8)), PhysParams(0.1), variant)


def test_apply_stencil_constant_is_zero():
    # coefficients sum to zero; in floats the residual is round-off on the
    # coefficient magnitudes amplified by the dx^-order scaling
    grid = Grid(0.0, 1.0, 16)
    eps = np.finfo(float).eps
    for order in range(1, 6):
        coeffs = _STENCILS[order].values()
        out = drivers.stencil(order, np.full(16, 2.5), grid.dx)
        bound = 20 * eps * 2.5 * sum(abs(c) for c in coeffs) / grid.dx ** order
        assert np.max(np.abs(out)) <= bound
        assert sum(coeffs) == pytest.approx(0.0, abs=1e-14)


def test_apply_stencil_matches_dense_matrix():
    rng = np.random.default_rng(2)
    n, dx = 24, 0.17
    u = rng.standard_normal(n)
    for order in range(1, 6):
        got = drivers.stencil(order, u, dx)
        want = dense_matrix(order, n, dx) @ u
        assert np.allclose(got, want, rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_stencil_convergence_order(order):
    # grids coarse enough that truncation dominates the eps/dx^order
    # round-off floor of the high derivatives
    errs = []
    for n in [24, 48, 96]:
        length = 2 * np.pi
        x = (np.arange(n) + 0.5) * length / n
        dx = length / n
        got = drivers.stencil(order, np.sin(x), dx)
        exact = np.sin(x + order * np.pi / 2)  # n-th derivative of sin
        errs.append(np.max(np.abs(got - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.7


def test_fourth_derivative_discrete_symbol():
    # D4 acting on cos(theta*i) multiplies it by
    # (-2cos3t + 24cos2t - 78cost + 56) / (6 dx^4)
    n, dx = 48, 0.23
    i = np.arange(n)
    for mode in [1, 5, 11]:
        theta = 2 * np.pi * mode / n
        u = np.cos(theta * i)
        got = drivers.stencil(4, u, dx)
        sym = (-2 * np.cos(3 * theta) + 24 * np.cos(2 * theta)
               - 78 * np.cos(theta) + 56) / (6 * dx ** 4)
        assert np.allclose(got, sym * u, atol=1e-9 * max(1.0, sym))


def test_build_operators_identity_at_zero_epsilon():
    grid = Grid(0.0, 1.0, 32)
    ops = build_operators(grid, PhysParams(0.0), ModelVariant.FACTORIZED_ALL)
    b = np.random.default_rng(4).standard_normal(32)
    assert ops.j_solver.solve(b) is b
    assert ops.p_solver.solve(b) is b


def test_j_solve_matches_dense_lu():
    grid = Grid(0.0, 1.0, 32)
    params = PhysParams(0.1)
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    j, p = dense_j_p(grid, params)
    rng = np.random.default_rng(8)
    for _ in range(10):
        b = rng.standard_normal(32)
        assert np.allclose(ops.j_solver.solve(b), np.linalg.solve(j, b),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(ops.p_solver.solve(b), np.linalg.solve(p, b),
                           rtol=1e-12, atol=1e-12)


def test_j_solve_residual():
    grid = Grid(0.0, 4.0, 50)
    params = PhysParams(0.5, alpha=1.0555)
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    j, _ = dense_j_p(grid, params)
    b = np.random.default_rng(9).standard_normal(50)
    x = ops.j_solver.solve(b)
    assert np.linalg.norm(j @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_screened_symbols_exceed_one():
    # both corrections vanish on the constant mode (symbol exactly 1) and
    # are strictly positive on every oscillatory mode
    grid = Grid(0.0, 1.0, 64)
    ops = build_operators(grid, PhysParams(0.1), ModelVariant.FACTORIZED_ALL)
    for solver in (ops.j_solver, ops.p_solver):
        symbol = solver.stencil.symbol(fourier_harmonics(solver.n))
        mags = np.abs(symbol)
        assert mags[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(mags[1:] > 1.0)
        assert np.max(np.abs(symbol.imag)) < 1e-10


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_built_symbols_are_at_least_one(variant):
    # J and P are I plus stencils of nonnegative symbol, and the conversion's
    # symbol lies in [1, 149/120]: no build has an operator to check for a
    # vanishing symbol, whatever its parameters and cell size
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(9, 2000))
        alpha, gravity = 10.0 ** rng.uniform(-3, 3, 2)
        if variant is ModelVariant.FIFTH_ONLY_FACTORIZED:
            alpha = 1.0
        params = PhysParams(0.0 if trial == 0 else rng.uniform(0.0, 1.0), alpha=alpha,
                            gravity=gravity)
        grid = Grid(0.0, n * 10.0 ** rng.uniform(-29, 29), n)
        ops = build_operators(grid, params, variant)
        harmonics = fourier_harmonics(n)
        for solver in (ops.j_solver, ops.p_solver, ops.conversion):
            assert np.min(np.abs(solver.stencil.symbol(harmonics))) >= 1.0 - 1e-12


def test_operator_size_preconditions():
    with pytest.raises(ConfigurationError):
        build_operators(Grid(0.0, 1.0, 8), PhysParams(0.1), ModelVariant.UNFACTORIZED)
    with pytest.raises(ConfigurationError):
        build_operators(Grid(0.0, 1.0, 16), PhysParams(0.1, alpha=1.2),
                        ModelVariant.FIFTH_ONLY_FACTORIZED)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_dispersive_rhs_matches_dense_oracle(variant):
    grid = Grid(0.0, 3.0, 32)
    alpha = 1.0 if variant is ModelVariant.FIFTH_ONLY_FACTORIZED else 1.0555
    params = PhysParams(epsilon=0.2, alpha=alpha, gravity=1.3, depth=1.0)
    ops = build_operators(grid, params, variant)
    rng = np.random.default_rng(42)
    for _ in range(25):
        zeta = 0.3 * rng.standard_normal(32)
        v = 0.3 * rng.standard_normal(32)
        rate_v = dispersive_rate(ops, zeta, v)
        want = dense_dispersive_rhs(variant, zeta, v, grid, params)
        assert np.allclose(rate_v, want, rtol=1e-12, atol=1e-12)


def test_rhs_zero_cases():
    grid = Grid(0.0, 2.0, 24)
    params = PhysParams(0.3)
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    rate_v = dispersive_rate(ops, np.zeros(24), np.full(24, 0.8))
    assert np.allclose(rate_v, 0.0, atol=1e-14)


def test_linearized_rate_reproduces_dispersion_symbol():
    # small surface perturbation at a single Fourier mode: the velocity rate
    # must match the mode-wise composition of the stencil symbols
    n = 64
    grid = Grid(0.0, 2 * np.pi, n)
    params = PhysParams(0.1)
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    g, eps, alpha = params.gravity, params.epsilon, params.alpha

    def stencil_symbol(order):
        impulse = np.zeros(n)
        impulse[0] = 1.0
        return np.fft.fft(drivers.stencil(order, impulse, grid.dx))

    s1, s2, s4 = stencil_symbol(1), stencil_symbol(2), stencil_symbol(4)
    sj = 1.0 - eps * alpha / 3.0 * s2 + eps ** 2 * alpha / 45.0 * s4
    sp = 1.0 - eps * alpha / 3.0 * s2
    mult = (g / alpha) * s1 - (1.0 / sj) * ((g / alpha) * s1
                                            + 2 / 45 * eps ** 2 * s4 * (g * s1) / sp)
    delta = 1e-8
    for mode in [1, 3, 9]:
        zeta = delta * np.cos(2 * np.pi * mode * np.arange(n) / n)
        rate_v = dispersive_rate(ops, zeta, np.zeros(n))
        want = np.fft.ifft(mult * np.fft.fft(zeta)).real
        assert np.allclose(rate_v, want, atol=delta * 1e-10)


def test_rk4_fd_step_leaves_its_inputs_unchanged():
    grid = Grid(0.0, 2.0, 32)
    ops = build_operators(grid, PhysParams(0.4), ModelVariant.FACTORIZED_ALL)
    rng = np.random.default_rng(12)
    zeta, v = 0.3 * rng.standard_normal(32), 0.3 * rng.standard_normal(32)
    saved = zeta.copy(), v.copy()
    zeta.flags.writeable = v.flags.writeable = False    # a write would raise
    ws, out = Workspace(32), v
    for _ in range(10):
        out = rk4_fd_step(zeta, out, 0.01, ops, workspace=ws)
    assert np.array_equal(zeta, saved[0]) and np.array_equal(v, saved[1])
    assert not np.array_equal(out, v)
    assert not np.shares_memory(out, zeta) and not np.shares_memory(out, v)


def test_rk4_fd_step_velocity_invariant_at_zero_epsilon():
    grid = Grid(0.0, 2.0, 32)
    ops = build_operators(grid, PhysParams(0.0), ModelVariant.FACTORIZED_ALL)
    rng = np.random.default_rng(13)
    zeta, v = 0.5 * rng.standard_normal(32), 0.5 * rng.standard_normal(32)
    assert np.array_equal(rk4_fd_step(zeta, v, 0.05, ops, Workspace(32)), v)


def test_rk4_fd_step_preserves_parity():
    # zeta even and v odd about the domain center stay that way
    n = 64
    grid = Grid(0.0, 2 * np.pi, n)
    ops = build_operators(grid, PhysParams(0.3), ModelVariant.FACTORIZED_ALL)
    x = grid.centers
    zeta = 0.2 * np.cos(x - np.pi) + 0.1 * np.cos(3 * (x - np.pi))
    v = 0.1 * np.sin(x - np.pi)
    ws = Workspace(n)
    for _ in range(5):
        v = rk4_fd_step(zeta, v, 0.02, ops, ws)
    assert np.max(np.abs(zeta - zeta[::-1])) < 1e-12
    assert np.max(np.abs(v + v[::-1])) < 1e-12


def test_euler_and_rk4_time_orders():
    grid = Grid(0.0, 2 * np.pi, 64)
    ops = build_operators(grid, PhysParams(0.5), ModelVariant.FACTORIZED_ALL)
    x = grid.centers
    zeta, v0 = 0.3 * np.sin(x), 0.2 * np.cos(2 * x)
    ws = Workspace(64)

    def euler_step(v, dt):
        return v + dt * dispersive_rate(ops, zeta, v)

    def evolve(dt, t_end, euler):
        step = euler_step if euler else lambda v, dt: rk4_fd_step(zeta, v, dt, ops, ws)
        v = v0
        for _ in range(int(round(t_end / dt))):
            v = step(v, dt)
        return v

    ref = evolve(1 / 2048, 0.5, euler=False)
    for euler, lo, hi in [(True, 0.85, 1.2), (False, 3.5, 4.5)]:
        errs = [np.max(np.abs(evolve(dt, 0.5, euler) - ref))
                for dt in (1 / 16, 1 / 32, 1 / 64)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert lo < min(orders) and max(orders) < hi


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_blowup_detection_on_nonfinite(monkeypatch):
    grid = Grid(0.0, 2.0, 32)
    solver = StrangSolver(grid, PhysParams(0.4))
    v = np.zeros(32)
    v[5] = 1e200
    # the overflow's NaN passes through an rfft and a multiplier product, and
    # the kernel returns it: the step decides the blow-up
    with np.errstate(invalid="ignore"):
        v = rk4_fd_step(np.zeros(32), v, 1.0, solver.operators, solver.workspace)
    assert np.isnan(v).all()

    def inverse(*args, **kwargs):
        raise AssertionError("a non-finite velocity was converted back")

    monkeypatch.setattr(splitting, "rk4_fd_step", lambda *args, **kwargs: v)
    monkeypatch.setattr(ConversionOperator, "inverse", inverse)
    run = RunState(t=0.25, cells=State(np.zeros(32), np.zeros(32)), step_count=3)
    message = "^non-finite velocity after dispersive step$"
    with pytest.raises(BlowUpError, match=message) as blowup:
        solver.strang_step(run, 0.01)
    assert blowup.value.time == run.t


def test_high_frequency_instability_reproduction():
    # constant deformation 0.6 with a short-wave seed: the fifth-only
    # factorization grows without bound, the other two variants do not
    n = 256
    grid = Grid(0.0, 8 * np.pi, n)
    params = PhysParams(1.0, alpha=1.0, gravity=1.0, depth=1.0)
    x = grid.centers
    z0 = 0.6 + 1e-3 * np.cos(8.0 * x)
    v0 = 1e-3 * np.cos(8.0 * x)
    v_init = np.max(np.abs(v0))

    histories = {}
    for variant in ModelVariant:
        solver = StrangSolver(grid, params, variant, blowup_threshold=1e6)
        run = RunState.initial(State(z0.copy(), v0.copy()), grid.dx)
        hist = [v_init]
        while run.t < 2.0:
            run = solver.strang_step(run, 0.01)
            hist.append(float(np.max(np.abs(run.cells.v))))
        histories[variant] = hist

    unstable = histories[ModelVariant.FIFTH_ONLY_FACTORIZED]
    assert unstable[-1] > 10.0 * v_init
    quarters = [unstable[i * (len(unstable) - 1) // 4] for i in range(5)]
    assert all(a < b for a, b in zip(quarters[1:], quarters[2:]))
    for variant in (ModelVariant.FACTORIZED_ALL, ModelVariant.UNFACTORIZED):
        assert max(histories[variant]) < 5.0 * v_init


@pytest.mark.parametrize("seed", range(4))
def test_substep_bound_covers_the_dense_jacobian(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 129))
    grid = Grid(0.0, rng.uniform(1.0, 100.0), n)
    params = PhysParams(rng.uniform(0.05, 1.0), alpha=rng.uniform(0.5, 1.5))
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    v = rng.uniform(-1.0, 1.0) * rng.standard_normal(n)
    d1 = dense_matrix(1, n, grid.dx)
    j, _ = dense_j_p(grid, params)
    jacobian = -4.0 / 3.0 * params.epsilon ** 2 * np.linalg.solve(j, d1 @ np.diag(d1 @ v) @ d1)
    # the rate is quadratic in v, and its zeta-only source does not depend
    # on v, so a central difference of -K (D1 v)^2 is its Jacobian
    ws, step = Workspace(n), 1e-3 * max(1.0, float(np.max(np.abs(v))))

    def rate(u):
        return velocity_rate(ops, u, np.zeros(n), ws).copy()

    columns = [(rate(v + step * e) - rate(v - step * e)) / (2.0 * step) for e in np.eye(n)]
    assert np.max(np.abs(np.transpose(columns) - jacobian)) <= 1e-6 * np.max(np.abs(jacobian))
    # the circulants' eigenvalues are the FFTs of their first columns
    factor = np.max(np.abs(np.fft.fft(d1[:, 0])) ** 2 / np.fft.fft(j[:, 0]).real)
    assert ops.jacobian_bound == pytest.approx(4.0 / 3.0 * params.epsilon ** 2 * factor,
                                               rel=1e-10)
    eigenvalues = np.linalg.eigvals(jacobian)
    bound = ops.jacobian_bound * float(np.max(np.abs(drivers.stencil(1, v, grid.dx))))
    assert np.max(np.abs(eigenvalues.imag)) <= 1e-10 * bound
    assert np.max(np.abs(eigenvalues)) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("name, steps", [("stability_fifth_only_factorized", 98),
                                         ("stability_unfactorized", 240)],
                         ids=["stability_fifth_only_factorized", "stability_unfactorized"])
def test_substep_bound_times_dt_on_the_stability_runs(monkeypatch, name, steps):
    # the fifth-only run to its blow-up at t = 0.375, after 98 steps and
    # before its first output time, the unfactorized one to its first
    # output time, t = 1, in 240 steps. Over all their steps the two runs
    # reach 0.171 and 0.163, far inside RK4's stability limit of 2.785 on
    # the negative real axis, so the blow-up is the model's and one
    # substep suffices
    config = builtin_scenario(name)
    grid, params = config.grid(), config.params()
    solver = StrangSolver(grid, params, config.model_variant(),
                          blowup_threshold=config.blowup_threshold)
    products = []
    fd_step = splitting.rk4_fd_step

    def spy(zeta, v, dt, ops, workspace, **source):
        gradient = drivers.stencil(1, v, grid.dx)
        products.append(ops.jacobian_bound * float(np.max(np.abs(gradient))) * dt)
        return fd_step(zeta, v, dt, ops, workspace=workspace, **source)

    monkeypatch.setattr(splitting, "rk4_fd_step", spy)
    run = RunState.initial(initial_state(config), grid.dx)
    with pytest.raises(BlowUpError) if config.expect_blowup else nullcontext():
        for run in islice(strang_steps(solver, run, config.output_times[1]),
                          None if config.expect_blowup else steps):
            pass
    # one substep per step, the step that blows up included
    assert run.step_count == steps and len(products) == steps + config.expect_blowup
    assert max(products) < 0.3


def sawtooth(n: int):
    """A solver at eps = 0.1 on [0, 2 pi), zeta = 0 and a smoothed sawtooth
    v, with rho = ``jacobian_bound`` max|D1 v|. D1 v is steep and negative
    on the front and small and positive elsewhere, so the rate's Jacobian
    has eigenvalues near -rho but no mode that grows fast: the dispersive
    flow itself stays bounded over many steps of several 1/rho."""
    grid = Grid(0.0, 2.0 * np.pi, n)
    solver = StrangSolver(grid, PhysParams(0.1))
    x = grid.centers
    v = 0.1 * ((x - np.pi) / np.pi - np.tanh((x - np.pi) / (4.0 * grid.dx)))
    rho = solver.operators.jacobian_bound * float(np.max(np.abs(drivers.stencil(1, v, grid.dx))))
    return solver, np.zeros(n), v, rho


def spied_substeps(monkeypatch) -> list[float]:
    """The dt of every RK4 substep that ``StrangSolver`` takes from now."""
    substeps, fd_step = [], splitting.rk4_fd_step

    def spy(zeta, v, dt, ops, workspace, **source):
        substeps.append(dt)
        return fd_step(zeta, v, dt, ops, workspace=workspace, **source)

    monkeypatch.setattr(splitting, "rk4_fd_step", spy)
    return substeps


def test_a_dispersive_step_past_rk4s_limit_takes_substeps(monkeypatch):
    # at rho dt = 7, past RK4's limit of 2.785, one substep per dispersive
    # step diverges within five steps; the derived count, 4, stays bounded
    solver, zeta, v, rho = sawtooth(128)
    dt = 7.0 / rho
    substeps = spied_substeps(monkeypatch)
    # the frozen zeta's source term, once per dispersive step, not per substep
    sources, source_term = [], dispersive.zeta_source_term
    monkeypatch.setattr(dispersive, "zeta_source_term",
                        lambda *args: sources.append(args) or source_term(*args))
    one = split = v
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(5):
            one = rk4_fd_step(zeta, one, dt, solver.operators, workspace=Workspace(128))
            del sources[:]
            split = solver.dispersive_step(zeta, split, dt)
            assert len(sources) == 1
            if step == 0:
                assert substeps == [dt / 4] * 4
                # the bits of four steps that each compute the source term
                want = v
                for _ in range(4):
                    want = rk4_fd_step(zeta, want, dt / 4, solver.operators,
                                       workspace=Workspace(128))
                assert np.array_equal(split, want)
    assert not np.all(np.isfinite(one))
    assert np.all(np.isfinite(split)) and np.max(np.abs(split)) <= np.max(np.abs(v))


def test_a_dispersive_step_past_the_substep_limit_stalls(monkeypatch):
    solver, zeta, v, rho = sawtooth(64)
    substeps = spied_substeps(monkeypatch)
    limit = splitting.SUBSTEP_LIMIT
    with np.errstate(over="ignore", invalid="ignore"):   # the flow runs for a long time
        solver.dispersive_step(zeta, v, limit * 1.99 / rho)
    assert len(substeps) == limit
    with pytest.raises(StallError, match=f"needs {limit + 1} RK4 substeps"):
        solver.dispersive_step(zeta, v, (limit + 0.5) * 2.0 / rho)
    assert len(substeps) == limit
