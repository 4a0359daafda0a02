import numpy as np
import pytest

from ebwave.analytic import SolitaryWaveSpec, corrected_solution
from ebwave.core import (BlowUpError, HyperbolicityError, ModelVariant, PhysParams,
                         State, build_grid)
from ebwave.dispersion import DispersionKind, DispersionModel, omega_squared
from ebwave.scenarios import strang_steps
from ebwave.splitting import (ConversionOperator, RunState, StrangSolver,
                              cell_to_nodal, choose_dt, nodal_to_cell)

from oracles import dense_conversion_matrix

ND = PhysParams.nondimensional


def test_conversion_constant():
    conv = ConversionOperator(32)
    out = conv.forward(np.full(32, 1.7))
    assert np.allclose(out, 1.7, atol=1e-13)
    assert np.allclose(conv.inverse(out), 1.7, atol=1e-13)


def test_conversion_roundtrip_identity():
    conv = ConversionOperator(64)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(64)
        back = conv.inverse(conv.forward(x))
        assert np.max(np.abs(back - x)) < 1e-12
        fwd = conv.forward(conv.inverse(x))
        assert np.max(np.abs(fwd - x)) < 1e-12


def test_conversion_against_dense_oracle():
    n = 32
    conv = ConversionOperator(n)
    mat = dense_conversion_matrix(n)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    assert np.allclose(conv.forward(x), mat @ x, atol=1e-13)
    assert np.allclose(conv.inverse(x), np.linalg.solve(mat, x), atol=1e-12)


def test_conversion_accuracy_order():
    # averages of sin -> point values at the centers, order from doubling
    errs = []
    for n in [32, 64, 128]:
        length = 2 * np.pi
        dx = length / n
        edges = np.arange(n + 1) * dx
        avg = (np.cos(edges[:-1]) - np.cos(edges[1:])) / dx
        pts = ConversionOperator(n).forward(avg)
        centers = (np.arange(n) + 0.5) * dx
        errs.append(np.max(np.abs(pts - np.sin(centers))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 4.7


def test_conversion_states():
    conv = ConversionOperator(16)
    rng = np.random.default_rng(2)
    cells = State(rng.standard_normal(16), rng.standard_normal(16))
    nodal = cell_to_nodal(cells, conv)
    assert isinstance(nodal, State)
    back = nodal_to_cell(nodal, conv)
    assert np.allclose(back.zeta, cells.zeta, atol=1e-12)
    assert np.allclose(back.v, cells.v, atol=1e-12)


def test_choose_dt_examples():
    params = ND(0.5)
    rest = State(np.zeros(8), np.zeros(8))
    assert choose_dt(rest, params, 0.25, cfl=0.4) == pytest.approx(0.1)
    assert choose_dt(rest, params, 0.125, cfl=0.4) == pytest.approx(0.05)
    # faster signals shrink the step
    moving = State(np.full(8, 0.5), np.full(8, 2.0))
    assert choose_dt(moving, params, 0.25, cfl=0.4) < 0.1
    with pytest.raises(ValueError):
        choose_dt(rest, params, 0.25, cfl=0.0)
    dry = State(np.full(8, -3.0), np.zeros(8))
    with pytest.raises(HyperbolicityError):
        choose_dt(dry, PhysParams(epsilon=1.0), 0.25)


def test_steady_state_preserved_through_strang_steps():
    grid = build_grid(0.0, 10.0, 64)
    solver = StrangSolver(grid, ND(0.1))
    run = RunState.initial(State(np.full(64, 0.3), np.zeros(64)), grid.dx)
    for _ in range(100):
        run = solver.strang_step(run, 0.05)
    assert np.max(np.abs(run.cells.zeta - 0.3)) < 1e-13
    assert np.max(np.abs(run.cells.v)) < 1e-13


def test_mass_conserved_at_zero_epsilon():
    grid = build_grid(0.0, 10.0, 64)
    solver = StrangSolver(grid, ND(0.0))
    x = grid.centers
    run = RunState.initial(State(0.3 * np.exp(-(x - 5) ** 2), np.zeros(64)), grid.dx)
    mass0 = run.mass
    for _ in range(50):
        run = solver.strang_step(run, 0.02)
    assert run.mass == pytest.approx(mass0, abs=1e-14 * abs(mass0))


def test_mass_invariance_on_nonlinear_run():
    grid = build_grid(-2.0, 2.0, 128)
    solver = StrangSolver(grid, ND(0.5))
    x = grid.centers
    run = RunState.initial(State(0.7 * np.exp(-0.4 * x * x), np.zeros(128)), grid.dx)
    mass0 = run.mass
    for _ in range(100):
        run = solver.strang_step(run, choose_dt(run.cells, solver.params, grid.dx))
    assert abs(run.mass - mass0) <= 1e-12 * abs(mass0)


def test_reflection_symmetry_through_strang_steps():
    # zeta even, v odd about the domain center stays that way
    n = 128
    grid = build_grid(-4.0, 4.0, n)
    solver = StrangSolver(grid, ND(0.3))
    x = grid.centers
    zeta = 0.4 * np.exp(-x * x) + 0.1 * np.exp(-3 * x * x)
    v = 0.2 * x * np.exp(-x * x)
    run = RunState.initial(State(zeta, v), grid.dx)
    for _ in range(20):
        run = solver.strang_step(run, choose_dt(run.cells, solver.params, grid.dx))
    assert np.max(np.abs(run.cells.zeta - run.cells.zeta[::-1])) < 1e-8
    assert np.max(np.abs(run.cells.v + run.cells.v[::-1])) < 1e-8


def test_strang_temporal_order_on_solitary_wave():
    grid = build_grid(0.0, 100.0, 400)
    params = ND(0.01)
    spec = SolitaryWaveSpec(amplitude=0.2, epsilon=0.01, x0=20.0)
    z0, v0 = corrected_solution(spec, 0.0, grid.centers)

    def run_fixed(dt):
        solver = StrangSolver(grid, params)
        run = RunState.initial(State(z0.copy(), v0.copy()), grid.dx)
        for run in strang_steps(solver, run, 2.0, fixed_dt=dt):
            pass
        return run

    ref = run_fixed(0.003125)
    errs = []
    for dt in [0.05, 0.025, 0.0125]:
        out = run_fixed(dt)
        errs.append(np.max(np.abs(out.cells.v - ref.cells.v)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_linear_mode_frequency_matches_dispersion_relation():
    # small standing wave: the oscillation frequency of one Fourier mode
    # reproduces the factorized model's dispersion relation
    n, kmode, eps = 256, 2, 0.1
    grid = build_grid(0.0, 2 * np.pi, n)
    x = grid.centers
    delta = 1e-5
    dim_model = DispersionModel(DispersionKind.EB_FACTORIZED,
                                PhysParams.dimensional(gravity=1.0, depth=1.0))
    # nondimensional frequency from the dimensional relation
    w_true = np.sqrt(omega_squared(dim_model, np.sqrt(eps) * kmode) / eps)

    solver = StrangSolver(grid, ND(eps))
    run = RunState.initial(State(delta * np.cos(kmode * x), np.zeros(n)), grid.dx)
    t_end = 1.0
    for run in strang_steps(solver, run, t_end, fixed_dt=0.01):
        pass
    amplitude = 2.0 / n * np.sum(run.cells.zeta * np.cos(kmode * x))
    w_num = np.arccos(np.clip(amplitude / delta, -1.0, 1.0)) / t_end
    assert w_num == pytest.approx(w_true, rel=1e-4)


def test_blowup_threshold_raises():
    grid = build_grid(0.0, 10.0, 64)
    solver = StrangSolver(grid, ND(0.1), blowup_threshold=0.2)
    x = grid.centers
    run = RunState.initial(State(0.5 * np.exp(-(x - 5) ** 2), np.zeros(64)), grid.dx)
    with pytest.raises(BlowUpError):
        solver.strang_step(run, 0.01)


def test_run_state_diagnostics():
    grid = build_grid(0.0, 1.0, 8)
    run = RunState.initial(State(np.full(8, 2.0), np.full(8, -3.0)), grid.dx)
    assert run.mass == pytest.approx(2.0)
    assert run.max_amplitude == pytest.approx(3.0)


def test_subcycled_dispersive_step_consistency():
    # n_disp substeps change the result only at the dispersive-step
    # truncation level
    grid = build_grid(-4.0, 4.0, 128)
    x = grid.centers
    state = State(0.4 * np.exp(-x * x), np.zeros(128))
    outs = []
    for n_disp in (1, 4):
        solver = StrangSolver(grid, ND(0.5), n_disp=n_disp)
        run = RunState.initial(state.copy(), grid.dx)
        for _ in range(10):
            run = solver.strang_step(run, 0.01)
        outs.append(run.cells.v.copy())
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-10
