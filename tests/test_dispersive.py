import numpy as np
import pytest

from ebwave.core import (BlowUpError, ConfigurationError, Grid, ModelVariant,
                         PhysParams, State)
from ebwave.dispersive import (_STENCILS, CirculantSolver, DispersiveOperators,
                               FDWorkspace, PairStencil, apply_stencil, build_operators,
                               fourier_harmonics, rk4_fd_step, velocity_rate,
                               zeta_source_term)
from ebwave.splitting import RunState, StrangSolver

from oracles import dense_dispersive_rhs, dense_j_p, dense_matrix


def dispersive_rate(ops, zeta, v):
    """dv/dt of the dispersive part at the point values (zeta, v)."""
    return velocity_rate(ops, v, zeta_source_term(ops, zeta))


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
        assert apply_stencil(order, np.zeros(width), 0.1).shape == (width,)
        with pytest.raises(ConfigurationError, match=f"{width}-point"):
            apply_stencil(order, np.zeros(width - 1), 0.1)


def test_apply_stencil_constant_is_zero():
    # coefficients sum to zero; in floats the residual is round-off on the
    # coefficient magnitudes amplified by the dx^-order scaling
    grid = Grid(0.0, 1.0, 16)
    eps = np.finfo(float).eps
    for order in range(1, 6):
        coeffs = _STENCILS[order].values()
        out = apply_stencil(order, np.full(16, 2.5), grid.dx)
        bound = 20 * eps * 2.5 * sum(abs(c) for c in coeffs) / grid.dx ** order
        assert np.max(np.abs(out)) <= bound
        assert sum(coeffs) == pytest.approx(0.0, abs=1e-14)


def test_apply_stencil_matches_dense_matrix():
    rng = np.random.default_rng(2)
    n, dx = 24, 0.17
    u = rng.standard_normal(n)
    for order in range(1, 6):
        got = apply_stencil(order, u, dx)
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
        got = apply_stencil(order, np.sin(x), dx)
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
        got = apply_stencil(4, u, dx)
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


def test_singular_circulant_reports_mode():
    with pytest.raises(ConfigurationError, match="mode 0"):
        CirculantSolver(PairStencil.of({-1: -0.5, 1: 0.5}), 16, "central difference")


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
        return np.fft.fft(apply_stencil(order, impulse, grid.dx))

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
    for ws in (None, FDWorkspace(32)):
        out = v
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
    assert np.array_equal(rk4_fd_step(zeta, v, 0.05, ops), v)


def test_rk4_fd_step_preserves_parity():
    # zeta even and v odd about the domain center stay that way
    n = 64
    grid = Grid(0.0, 2 * np.pi, n)
    ops = build_operators(grid, PhysParams(0.3), ModelVariant.FACTORIZED_ALL)
    x = grid.centers
    zeta = 0.2 * np.cos(x - np.pi) + 0.1 * np.cos(3 * (x - np.pi))
    v = 0.1 * np.sin(x - np.pi)
    for _ in range(5):
        v = rk4_fd_step(zeta, v, 0.02, ops)
    assert np.max(np.abs(zeta - zeta[::-1])) < 1e-12
    assert np.max(np.abs(v + v[::-1])) < 1e-12


def test_euler_and_rk4_time_orders():
    grid = Grid(0.0, 2 * np.pi, 64)
    ops = build_operators(grid, PhysParams(0.5), ModelVariant.FACTORIZED_ALL)
    x = grid.centers
    zeta, v0 = 0.3 * np.sin(x), 0.2 * np.cos(2 * x)

    def euler_step(v, dt):
        return v + dt * dispersive_rate(ops, zeta, v)

    def evolve(dt, t_end, euler):
        step = euler_step if euler else lambda v, dt: rk4_fd_step(zeta, v, dt, ops)
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
def test_blowup_detection_on_nonfinite():
    grid = Grid(0.0, 2.0, 32)
    ops = build_operators(grid, PhysParams(0.4), ModelVariant.FACTORIZED_ALL)
    v = np.zeros(32)
    v[5] = 1e200
    # the overflow's NaN then passes through an rfft and a multiplier product
    with pytest.raises(BlowUpError), np.errstate(invalid="ignore"):
        rk4_fd_step(np.zeros(32), v, 1.0, ops)


def test_high_frequency_instability_reproduction():
    # constant deformation 0.6 with a short-wave seed: the fifth-only
    # factorization grows without bound, the other two variants do not
    n = 256
    grid = Grid(0.0, 8 * np.pi, n)
    params = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=1.0)
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
