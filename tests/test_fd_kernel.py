"""The dispersive (FD) workspace kernel against the allocating kernel and
a long double reference.

``oracles`` keeps the allocating dispersive kernel verbatim: stencils
summed offset by offset, symbols by rfft, solves that divide by the symbol.
The workspace kernel applies pair-form stencils with folded prefactors,
closed-form symbols and a K = 2/3 eps^2 J^{-1} D1 multiplier, so it agrees
with the oracle to round-off rather than bit for bit.

The offset-by-offset sum of a stencil rounds at the scale dx^-order |u|
sum |c_m|; the pair form rounds at the scale of the differences of
neighbors. On a grid of unit spacing the two scales are alike and both
kernels agree to 1e-12. On a fine grid the allocating kernel's own
round-off dominates their difference, so there both are measured against
``oracles.long_double_dispersive``, the same step in long double.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ebwave.core import ConfigurationError, Grid, ModelVariant, PhysParams, State
from ebwave.dispersive import (_CONVERSION, FDWorkspace, PairStencil, apply_stencil,
                               build_operators, fourier_harmonics, rk4_fd_step,
                               velocity_rate, zeta_source_term)
from ebwave.hyperbolic import FVWorkspace, rk4_fv_step
from ebwave.scenarios import builtin_scenario, choose_dt, initial_state
from ebwave.splitting import ConversionOperator, RunState, StrangSolver

import oracles

VARIANTS = list(ModelVariant)


def params_for(variant):
    alpha = 1.0 if variant is ModelVariant.FIFTH_ONLY_FACTORIZED else 1.0555
    return PhysParams(epsilon=0.3, alpha=alpha, gravity=1.3, depth=1.0)


def random_state(rng, n):
    return State(0.2 * rng.standard_normal(n), 0.2 * rng.standard_normal(n))


def assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n", [9, 32, 1200])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fd_kernel_matches_allocating_kernel(variant, n):
    grid = Grid(0.0, float(n), n)
    params = params_for(variant)
    ops = build_operators(grid, params, variant)
    want_ops = oracles.build_operators(grid, params, variant)
    rng = np.random.default_rng(n)
    reused = FDWorkspace(n)
    for _ in range(2):
        state = random_state(rng, n)
        source = oracles.zeta_source_term(want_ops, state.zeta)
        rate = oracles.velocity_rate(want_ops, state.v, source)
        want = oracles.rk4_fd_step(state, 0.05, want_ops)
        for ws in (None, FDWorkspace(n), reused):
            assert_close(zeta_source_term(ops, state.zeta, workspace=ws), source, 1e-12)
            assert_close(velocity_rate(ops, state.v, source, workspace=ws), rate, 1e-12)
            got = rk4_fd_step(state.zeta, state.v, 0.05, ops, workspace=ws)
            assert_close(got, want.v, 1e-12)


def dam_break_64k():
    """Grid, parameters, nodal initial state and first time step of the
    benchmark's 64k dam break."""
    config = replace(builtin_scenario("dam_break"), n_cells=65536, t_end=0.1,
                     output_times=(0.0, 0.1))
    grid, params = config.grid(), config.params()
    cells = initial_state(config)
    conv = ConversionOperator(grid.n_cells)
    state = State(conv.forward(cells.zeta), conv.forward(cells.v))
    return grid, params, state, choose_dt(cells, params, grid.dx, config.cfl)


def smooth_random_state(rng, grid, modes=5):
    x = grid.centers
    k = 2.0 * np.pi / grid.length

    def field():
        return sum(0.05 * rng.standard_normal() * np.cos(j * k * x + rng.uniform(0.0, 6.0))
                   for j in range(1, modes + 1))

    return State(field(), field())


# Round-off against the long double reference on a fine grid. The
# unfactorized variant applies D5 explicitly: on these states its term is
# ~dx^-4 = 1e8 times the source, so its round-off is 1e-8 of the source
# before J^{-1} damps it (the allocating kernel is 2e-9 off on the smooth
# state). The factorized variants keep every term near the scale of the
# source (measured <= 5e-13).
FINE_GRID_TOLERANCE = {ModelVariant.FACTORIZED_ALL: 1e-12,
                       ModelVariant.FIFTH_ONLY_FACTORIZED: 1e-12,
                       ModelVariant.UNFACTORIZED: 1e-8}


@pytest.mark.parametrize("variant", VARIANTS)
def test_fd_kernel_on_fine_grid_matches_long_double_reference(variant):
    n = 1200
    grid = Grid(0.0, 12.0, n)           # dx = 0.01
    params = params_for(variant)
    ops = build_operators(grid, params, variant)
    rel = FINE_GRID_TOLERANCE[variant]
    rng = np.random.default_rng(3)
    reused = FDWorkspace(n)
    for state in (random_state(rng, n), smooth_random_state(rng, grid)):
        source, v = oracles.long_double_dispersive(variant, state.zeta, state.v,
                                                    grid, params, dt=1e-4)
        for ws in (None, reused):
            assert_close(zeta_source_term(ops, state.zeta, workspace=ws), source, rel)
            assert_close(rk4_fd_step(state.zeta, state.v, 1e-4, ops, workspace=ws), v, rel)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fd_kernel_matches_on_dam_break_64k_initial_state(variant):
    grid, params, state, dt = dam_break_64k()
    ops = build_operators(grid, params, variant)
    source, v = oracles.long_double_dispersive(variant, state.zeta, state.v,
                                                grid, params, dt=dt)
    want_ops = oracles.build_operators(grid, params, variant)
    want_source = oracles.zeta_source_term(want_ops, state.zeta)
    want_v = oracles.rk4_fd_step(state, dt, want_ops).v
    reused = FDWorkspace(grid.n_cells)
    rk4_fd_step(state.zeta, state.v, dt, ops, workspace=reused)
    for ws in (None, reused):
        got_source = zeta_source_term(ops, state.zeta, workspace=ws)
        got_v = rk4_fd_step(state.zeta, state.v, dt, ops, workspace=ws)
        assert_close(got_source, source, 1e-9)
        assert_close(got_v, v, 1e-9)
        if variant is ModelVariant.UNFACTORIZED:
            # the allocating kernel's offset sums of D3 and D5 are 2e-8 off
            # the reference here (test_pair_stencils_beat_offset_sums)
            assert np.max(np.abs(want_source - source)) > 1e-9 * np.max(np.abs(source))
        else:
            assert_close(got_source, want_source, 1e-9)
            assert_close(got_v, want_v, 1e-9)


def test_pair_stencils_beat_offset_sums():
    # against the stencils with exact coefficients summed in long double,
    # on the steep dam-break surface and on a smooth field of a fine grid:
    # differences of neighbors are exact where the field is smooth, so the
    # pair form is at least 30 times closer than the offset-by-offset sum
    grid, _, state, _ = dam_break_64k()
    fine = Grid(0.0, 3.0, 1200)
    smooth = np.sin(2.0 * np.pi * fine.centers / 3.0) + 0.3 * np.cos(4.0 * np.pi * fine.centers / 3.0)
    for field, dx in ((state.zeta, grid.dx), (smooth, fine.dx)):
        for order in range(1, 6):
            op = oracles.StencilOperator.centered(order)
            exact = oracles.long_double_stencil(order, field, dx)
            pair = np.max(np.abs(apply_stencil(order, field, dx) - exact))
            offset_sum = np.max(np.abs(oracles.apply_stencil(op, field, dx) - exact))
            assert pair <= 0.1 * offset_sum


def test_solver_symbols_keep_relative_accuracy():
    # 1 - cos(m theta) keeps its relative accuracy where the terms of J's
    # symbol cancel; cos(m theta) (or an rfft) loses ~1e-16 dx^-4 there
    grid, params, _, _ = dam_break_64k()
    n = grid.n_cells
    ops = build_operators(grid, params, ModelVariant.FACTORIZED_ALL)
    delta = np.zeros(n)
    delta[0] = 1.0
    d2, d4 = (np.fft.rfft(oracles.long_double_stencil(k, delta, grid.dx)).real for k in (2, 4))
    eps_alpha = np.longdouble(params.epsilon) * np.longdouble(params.alpha)
    p = 1 - eps_alpha / 3 * d2
    j = p + eps_alpha * np.longdouble(params.epsilon) / 45 * d4
    for solver, want, rel in ((ops.p_solver, p, 1e-15), (ops.j_solver, j, 1e-12)):
        symbol = solver.stencil.symbol(fourier_harmonics(solver.n))
        assert np.max(np.abs(symbol - want) / want) <= rel


def test_public_stencils_and_symbols_match_allocating_kernel():
    rng = np.random.default_rng(11)
    for n in (9, 16, 1200, 65537):
        u = rng.standard_normal(n)
        for order in range(1, 6):
            op = oracles.StencilOperator.centered(order)
            assert_close(apply_stencil(order, u, 0.3), oracles.apply_stencil(op, u, 0.3), 1e-12)
        # symmetric and antisymmetric
        harmonics = fourier_harmonics(n, 4)
        for stencil in (*oracles._STENCILS.values(), _CONVERSION):
            total = 1.0 if stencil is _CONVERSION else 0.0
            got = PairStencil.of(stencil, total).symbol(harmonics)
            assert_close(np.asarray(got, dtype=complex),
                         oracles.circulant_symbol(stencil, n), 1e-14)


def test_odd_derivatives_of_a_constant_are_exactly_zero():
    for order in (1, 3, 5):
        out = apply_stencil(order, np.full(16, 1e200), 0.1)
        assert np.all(out == 0.0)


def fd_buffers(ws):
    return [ws.padded, ws.spectrum, ws.diffs, ws.source, ws.tmp, *ws.stage, *ws.rate, *ws.acc]


def test_fd_results_own_their_memory():
    n = 1200
    grid = Grid(0.0, 3.0, n)
    ops = build_operators(grid, params_for(ModelVariant.FACTORIZED_ALL),
                          ModelVariant.FACTORIZED_ALL)
    ws = FDWorkspace(n)
    state = random_state(np.random.default_rng(5), n)
    saved = state.copy()
    first = rk4_fd_step(state.zeta, state.v, 1e-3, ops, workspace=ws)
    second = rk4_fd_step(state.zeta, first, 1e-3, ops, workspace=ws)
    assert np.array_equal(state.zeta, saved.zeta) and np.array_equal(state.v, saved.v)
    outputs = [first, second]
    for i, a in enumerate(outputs):
        assert not any(np.shares_memory(a, b) for b in fd_buffers(ws))
        assert not any(np.shares_memory(a, b) for b in outputs[i + 1:])
        assert not any(np.shares_memory(a, b) for b in (state.zeta, state.v))


def test_rk4_fd_step_allocates_only_its_result():
    n = 65536
    grid = Grid(0.0, 2.0 * np.pi, n)
    ops = build_operators(grid, PhysParams(0.3), ModelVariant.FACTORIZED_ALL)
    ws = FDWorkspace(n)
    x = grid.centers
    state = State(0.2 * np.sin(x), 0.1 * np.cos(3.0 * x))
    rk4_fd_step(state.zeta, state.v, 1e-3, ops, workspace=ws)      # warm up
    tracemalloc.start()
    try:
        out = rk4_fd_step(state.zeta, state.v, 1e-3, ops, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 1 << 19
    assert peak < 1.5 * (1 << 19)


def test_fd_workspace_size_and_memory_checked():
    grid = Grid(0.0, 1.0, 16)
    ops = build_operators(grid, PhysParams(0.3), ModelVariant.FACTORIZED_ALL)
    with pytest.raises(ConfigurationError):
        zeta_source_term(ops, np.zeros(16), workspace=FDWorkspace(17))
    with pytest.raises(ConfigurationError):
        FDWorkspace(16, memory=np.empty(FDWorkspace.size(16) - 1))
    memory = np.empty(FDWorkspace.size(16))
    ws = FDWorkspace(16, memory=memory)
    assert all(np.shares_memory(b, memory) for b in fd_buffers(ws))


@pytest.mark.parametrize("variant", VARIANTS)
def test_strang_step_on_shared_workspace_memory(variant):
    # the solver's FD workspace is carved from its FV workspace's memory;
    # each step must equal the same kernels run on separate workspaces
    n = 64
    grid = Grid(0.0, 4.0 * np.pi, n)
    params = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=1.0)
    solver = StrangSolver(grid, params, variant, n_disp=2)
    assert np.shares_memory(solver.fd_workspace.source, solver.fv_workspace.memory)
    x = grid.centers
    run = RunState.initial(State(0.3 * np.cos(x) ** 2, 0.1 * np.sin(x)), grid.dx)
    conv = ConversionOperator(n)
    for _ in range(3):
        dt = 0.02
        cells = rk4_fv_step(run.cells, 0.5 * dt, params, grid.dx, workspace=FVWorkspace(n))
        zeta, v = conv.forward(cells.zeta), conv.forward(cells.v)
        for _ in range(2):
            v = rk4_fd_step(zeta, v, 0.5 * dt, solver.operators, workspace=FDWorkspace(n))
        cells = State(cells.zeta, conv.inverse(v))
        want = rk4_fv_step(cells, 0.5 * dt, params, grid.dx)
        run = solver.strang_step(run, dt)
        assert np.array_equal(run.cells.zeta, want.zeta)
        assert np.array_equal(run.cells.v, want.v)
