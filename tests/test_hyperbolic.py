import ctypes
import math
import subprocess
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ebwave import hyperbolic
from ebwave.core import (ConfigurationError, HyperbolicityError, KernelBuildError,
                         PhysParams, State)
from ebwave.hyperbolic import (Workspace, hyperbolic_rhs, limiter,
                               max_signal_speed, reconstruction_deltas,
                               rk4_fv_step, rk4_in_place)

import drivers
import oracles

BLOCK = drivers.block_width()


def dense_deltas(u):
    """Loop re-implementation of the high-order variations (oracle)."""
    n = len(u)
    dp = np.zeros(n)
    dm = np.zeros(n)
    for i in range(n):
        um2, um1, u0 = u[(i - 2) % n], u[(i - 1) % n], u[i]
        up1, up2 = u[(i + 1) % n], u[(i + 2) % n]
        fwd3 = -um1 + 3 * u0 - 3 * up1 + up2
        bwd3 = -um2 + 3 * um1 - 3 * u0 + up1
        dp[i] = 2 / 3 * (up1 - u0) + 1 / 3 * (u0 - um1) - fwd3 / 10 - bwd3 / 15
        dm[i] = 2 / 3 * (u0 - um1) + 1 / 3 * (up1 - u0) - bwd3 / 10 - fwd3 / 15
    return dp, dm


def test_jacobian_eigenvalues_by_finite_differences():
    # the Rusanov flux with equal sides is the exact flux F(U) bit for bit:
    # the halved sum of two equal terms is exact and the jump term is 0
    params = PhysParams(epsilon=0.3, gravity=2.0, depth=1.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        zeta, v = rng.uniform(-0.5, 0.5), rng.uniform(-1, 1)
        h0 = params.depth + params.epsilon * zeta
        assert drivers.flux(zeta, v, zeta, v, params) == (
            h0 * v, 0.5 * params.epsilon * v * v + params.gravity * zeta)
        h = 1e-7
        jac = np.zeros((2, 2))
        for j, (dz, dv) in enumerate([(h, 0.0), (0.0, h)]):
            fp = drivers.flux(zeta + dz, v + dv, zeta + dz, v + dv, params)
            fm = drivers.flux(zeta - dz, v - dv, zeta - dz, v - dv, params)
            jac[0, j] = (fp[0] - fm[0]) / (2 * h)
            jac[1, j] = (fp[1] - fm[1]) / (2 * h)
        eig = np.sort(np.linalg.eigvals(jac))
        depth = params.depth + params.epsilon * zeta
        c = np.sqrt(params.gravity * depth)
        assert eig[0] == pytest.approx(params.epsilon * v - c, abs=1e-5)
        assert eig[1] == pytest.approx(params.epsilon * v + c, abs=1e-5)


def test_reconstruction_deltas_trivial_cases():
    const = np.full(16, 3.7)
    dp, dm = reconstruction_deltas(const)
    assert np.allclose(dp, 0.0) and np.allclose(dm, 0.0)

    # arithmetic progression: both deltas equal the common difference.
    # periodic wrap pollutes the seam, so check interior cells only.
    s = 0.25
    lin = s * np.arange(32)
    dp, dm = reconstruction_deltas(lin)
    assert np.allclose(dp[3:-3], s, atol=1e-13)
    assert np.allclose(dm[3:-3], s, atol=1e-13)


def test_reconstruction_deltas_against_dense_oracle():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(37)
    dp, dm = reconstruction_deltas(u)
    dp_o, dm_o = dense_deltas(u)
    assert np.allclose(dp, dp_o, atol=1e-14)
    assert np.allclose(dm, dm_o, atol=1e-14)


def test_limiter_values():
    # smooth monotone data passes the high-order variation through
    assert limiter(1.0, 1.1, 0.45) == pytest.approx(0.45)
    # neighbor differences cap it
    assert limiter(1.0, 2.0, 0.5) == pytest.approx(0.5)
    assert limiter(0.2, 2.0, 3.0) == pytest.approx(0.4)
    # sign disagreement kills the slope
    assert limiter(1.0, -1.0, 5.0) == 0.0
    assert limiter(-2.0, -3.0, 0.5) == pytest.approx(-0.5)
    assert limiter(-0.1, -3.0, 5.0) == pytest.approx(-0.2)
    # sgn(0) = 0
    assert limiter(0.0, 1.0, 1.0) == 0.0
    assert limiter(1.0, 0.0, 1.0) == 0.0


def test_limiter_vectorized():
    u = np.array([1.0, 1.0, -2.0, 0.0])
    v = np.array([1.1, -1.0, -3.0, 1.0])
    w = np.array([0.45, 5.0, 0.5, 1.0])
    assert np.allclose(limiter(u, v, w), [0.45, 0.0, -0.5, 0.0])


def test_reconstruct_constant_field():
    state = State(np.full(16, 0.3), np.full(16, -1.2))
    zr, zl, vr, vl = drivers.faces(state.zeta, state.v)
    for arr, val in [(zr, 0.3), (zl, 0.3), (vr, -1.2), (vl, -1.2)]:
        assert np.allclose(arr, val, atol=1e-15)


def cell_averages(fun_antideriv, grid_n, length):
    dx = length / grid_n
    edges = np.arange(grid_n + 1) * dx
    return (fun_antideriv(edges[1:]) - fun_antideriv(edges[:-1])) / dx


def test_reconstruction_is_fifth_order_on_smooth_data():
    # the unlimited face value u_i + delta_plus/2 approximates the point
    # value at the right interface to fifth order
    length = 2 * np.pi
    errs = []
    for n in [32, 64, 128]:
        avg = cell_averages(lambda s: -np.cos(s), n, length)
        dp, _ = reconstruction_deltas(avg)
        faces = avg + 0.5 * dp
        x_right = (np.arange(n) + 1.0) * length / n
        errs.append(np.max(np.abs(faces - np.sin(x_right))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 4.5


def test_limited_faces_match_unlimited_away_from_extrema():
    length = 2 * np.pi
    n = 64
    avg = cell_averages(lambda s: -np.cos(s), n, length)
    dp, _ = reconstruction_deltas(avg)
    state = State(avg, np.zeros(n))
    zr, _, _, _ = drivers.faces(state.zeta, state.v)
    x = (np.arange(n) + 0.5) * length / n
    monotone = (np.abs(np.cos(x)) > 0.3)  # away from the two extrema
    assert np.allclose(zr[monotone], (avg + 0.5 * dp)[monotone], atol=1e-14)


def test_limited_faces_bounded_by_neighbors_on_rough_data():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.standard_normal(24)
        u[rng.integers(0, 24)] += rng.uniform(3, 10)  # jump
        state = State(u, u[::-1].copy())
        zr, zl, _, _ = drivers.faces(state.zeta, state.v)
        up1 = np.roll(u, -1)
        um1 = np.roll(u, 1)
        assert np.all(zr <= np.maximum(u, up1) + 1e-12)
        assert np.all(zr >= np.minimum(u, up1) - 1e-12)
        assert np.all(zl <= np.maximum(u, um1) + 1e-12)
        assert np.all(zl >= np.minimum(u, um1) - 1e-12)


def rusanov_oracle(zl, vl, zr, vr, params):
    """Scalar re-implementation of the two-point flux."""
    h_l = params.depth + params.epsilon * zl
    h_r = params.depth + params.epsilon * zr
    fl = (h_l * vl, 0.5 * params.epsilon * vl ** 2 + params.gravity * zl)
    fr = (h_r * vr, 0.5 * params.epsilon * vr ** 2 + params.gravity * zr)
    s = max(abs(params.epsilon * vl) + np.sqrt(params.gravity * h_l),
            abs(params.epsilon * vr) + np.sqrt(params.gravity * h_r))
    return (0.5 * (fl[0] + fr[0]) - 0.5 * s * (zr - zl),
            0.5 * (fl[1] + fr[1]) - 0.5 * s * (vr - vl))


def test_numerical_flux_consistency_and_rest():
    params = PhysParams(0.3)
    f1, f2 = drivers.flux(0.2, 0.4, 0.2, 0.4, params)
    # the exact flux F(U) = (h v, eps/2 v^2 + g zeta), h = h0 + eps zeta
    p1, p2 = (1.0 + 0.3 * 0.2) * 0.4, 0.5 * 0.3 * 0.4 ** 2 + 0.2
    assert f1 == pytest.approx(p1) and f2 == pytest.approx(p2)
    assert drivers.flux(0.0, 0.0, 0.0, 0.0, params) == (0.0, 0.0)


def test_numerical_flux_against_oracle():
    params = PhysParams(epsilon=0.7, gravity=3.0, depth=2.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        zl, zr = rng.uniform(-0.5, 1.0, 2)
        vl, vr = rng.uniform(-1.0, 1.0, 2)
        got = drivers.flux(zl, vl, zr, vr, params)
        want = rusanov_oracle(zl, vl, zr, vr, params)
        assert got[0] == pytest.approx(want[0], rel=1e-14)
        assert got[1] == pytest.approx(want[1], rel=1e-14)


def test_rhs_constant_state_and_steady_state():
    params = PhysParams(0.2)
    n = 32
    rz, rv = hyperbolic_rhs(State(np.full(n, 0.4), np.full(n, 0.7)), params, 0.1, Workspace(n))
    assert np.allclose(rz, 0.0, atol=1e-13) and np.allclose(rv, 0.0, atol=1e-13)
    # lake at rest: zeta = const, v = 0 is exactly steady
    rz, rv = hyperbolic_rhs(State(np.full(n, 0.4), np.zeros(n)), params, 0.1, Workspace(n))
    assert np.max(np.abs(rz)) == 0.0
    assert np.max(np.abs(rv)) == 0.0


def test_rhs_telescopes_to_zero_sum():
    params = PhysParams(0.4)
    rng = np.random.default_rng(23)
    state = State(0.3 * rng.standard_normal(64), 0.3 * rng.standard_normal(64))
    rz, rv = hyperbolic_rhs(state, params, 0.05, Workspace(64))
    assert abs(np.sum(rz)) < 1e-12 / 0.05
    assert abs(np.sum(rv)) < 1e-12 / 0.05


def test_rhs_translation_equivariance():
    params = PhysParams(0.4)
    rng = np.random.default_rng(29)
    zeta = 0.2 * rng.standard_normal(48)
    v = 0.2 * rng.standard_normal(48)
    rz, rv = hyperbolic_rhs(State(zeta, v), params, 0.1, Workspace(48))
    rz_s, rv_s = hyperbolic_rhs(State(np.roll(zeta, 5), np.roll(v, 5)), params, 0.1,
                                Workspace(48))
    assert np.array_equal(np.roll(rz, 5), rz_s)
    assert np.array_equal(np.roll(rv, 5), rv_s)


def test_rk4_step_exactness_order():
    # scalar linear ODE y' = lam*y: one-step error is O(dt^5)
    lam = -0.7
    errs = []
    for dt in [0.2, 0.1, 0.05]:
        ws = SimpleNamespace(stage=np.empty((1, 1)), rate=np.empty((1, 1)), acc=np.empty((1, 1)))

        def rhs(y):
            return (np.multiply(y[0], lam, out=ws.rate[0]),)

        (y1,) = rk4_in_place((np.array([1.0]),), dt, rhs, ws)
        errs.append(abs(float(y1[0]) - np.exp(lam * dt)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 4.7


def test_rk4_fv_step_preserves_constant_state_and_mass():
    params = PhysParams(0.3)
    n = 40
    state = State(np.full(n, 0.2), np.zeros(n))
    ws = Workspace(n)
    out = rk4_fv_step(state, 0.01, params, 0.1, ws)
    assert np.array_equal(out.zeta, state.zeta)
    assert np.allclose(out.v, 0.0, atol=1e-16)

    rng = np.random.default_rng(31)
    state = State(0.3 * rng.standard_normal(n), 0.3 * rng.standard_normal(n))
    out = rk4_fv_step(state, 0.005, params, 0.1, ws)
    assert np.sum(out.zeta) == pytest.approx(np.sum(state.zeta), abs=1e-13 * n)
    assert np.sum(out.v) == pytest.approx(np.sum(state.v), abs=1e-13 * n)


def test_rk4_fv_step_commutes_with_reflection():
    params = PhysParams(0.25)
    rng = np.random.default_rng(37)
    zeta = 0.2 * rng.standard_normal(50)
    v = 0.2 * rng.standard_normal(50)
    ws = Workspace(50)
    out = rk4_fv_step(State(zeta, v), 0.01, params, 0.1, ws)
    mirrored = rk4_fv_step(State(zeta[::-1].copy(), -v[::-1].copy()),
                           0.01, params, 0.1, ws)
    assert np.allclose(mirrored.zeta, out.zeta[::-1], atol=1e-12)
    assert np.allclose(mirrored.v, -out.v[::-1], atol=1e-12)


def test_max_signal_speed():
    params = PhysParams(0.5)
    assert max_signal_speed(0.0, 0.0, params) == pytest.approx(1.0)
    assert float(max_signal_speed(0.6, -2.0, params)) \
        == pytest.approx(1.0 + np.sqrt(1.3))


def loop_rhs(zeta, v, params, dx):
    """Per-cell loop re-implementation of hyperbolic_rhs (oracle).

    Neighbors come from modular indices instead of ghost cells. Every scalar
    expression is evaluated in the same order as the vectorized kernel, so
    the two agree bit for bit, wrap edges included.
    """
    n = len(zeta)
    eps, g, h0 = params.epsilon, params.gravity, params.depth

    def sgn(x):
        return float((x > 0.0) - (x < 0.0))

    def lim(a, b, w):
        sa = sgn(a)
        if sa != sgn(b) or sa == 0.0:
            return 0.0
        return min(min(2.0 * abs(a), 2.0 * abs(b)), abs(w)) * sa

    def faces(u, i):
        um2, um1, u0 = float(u[(i - 2) % n]), float(u[(i - 1) % n]), float(u[i])
        up1, up2 = float(u[(i + 1) % n]), float(u[(i + 2) % n])
        down, up = u0 - um1, up1 - u0
        fwd3 = -um1 + 3.0 * u0 - 3.0 * up1 + up2
        bwd3 = -um2 + 3.0 * um1 - 3.0 * u0 + up1
        dp = 2.0 / 3.0 * up + 1.0 / 3.0 * down - 0.1 * fwd3 - bwd3 / 15.0
        dm = 2.0 / 3.0 * down + 1.0 / 3.0 * up - 0.1 * bwd3 - fwd3 / 15.0
        return u0 + 0.5 * lim(down, up, dp), u0 - 0.5 * lim(up, down, dm)

    def flux(i):
        """Rusanov flux at interface i+1/2."""
        zl, _ = faces(zeta, i)
        vl, _ = faces(v, i)
        _, zr = faces(zeta, (i + 1) % n)
        _, vr = faces(v, (i + 1) % n)
        h_l, h_r = h0 + eps * zl, h0 + eps * zr
        if h_l <= 0.0 or h_r <= 0.0:
            raise HyperbolicityError("dry face")
        s = max(abs(eps * vl) + math.sqrt(g * h_l), abs(eps * vr) + math.sqrt(g * h_r))
        f2_l = 0.5 * eps * vl * vl + g * zl
        f2_r = 0.5 * eps * vr * vr + g * zr
        return (0.5 * (h_l * vl + h_r * vr) - 0.5 * s * (zr - zl),
                0.5 * (f2_l + f2_r) - 0.5 * s * (vr - vl))

    fluxes = [flux(i) for i in range(n)]
    rate_zeta = np.array([-(fluxes[i][0] - fluxes[i - 1][0]) / dx for i in range(n)])
    rate_v = np.array([-(fluxes[i][1] - fluxes[i - 1][1]) / dx for i in range(n)])
    return rate_zeta, rate_v


@pytest.mark.parametrize("n", [8, 13])
def test_rhs_matches_loop_oracle_exactly(n):
    rng = np.random.default_rng(41 + n)
    ws = Workspace(n)
    for params in (PhysParams(0.4), PhysParams(epsilon=1.0, gravity=9.81, depth=1.0),
                   PhysParams(epsilon=0.7, gravity=3.0, depth=2.0)):
        for _ in range(10):
            zeta = 0.15 * rng.standard_normal(n)
            v = rng.standard_normal(n)
            zeta[rng.integers(0, n)] = 0.0     # a vanishing difference
            got = hyperbolic_rhs(State(zeta, v), params, 0.05, ws)
            want = loop_rhs(zeta, v, params, 0.05)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("where", [0, -1])
def test_rhs_dry_cell_at_wrap_edge_raises(n, where):
    zeta = np.full(n, 0.1)
    zeta[where] = -1.5
    state = State(zeta, np.zeros(n))
    with pytest.raises(HyperbolicityError):
        hyperbolic_rhs(state, PhysParams(1.0), 0.1, Workspace(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_narrower_than_stencil_rejected(n):
    state = State(np.zeros(n), np.zeros(n))
    with pytest.raises(ConfigurationError):
        Workspace(n)
    with pytest.raises(ConfigurationError):
        drivers.faces(state.zeta, state.v)
    with pytest.raises(ConfigurationError):
        reconstruction_deltas(state.zeta)


# around one block, several blocks and a remainder, on either side of the
# C kernel's block width
STRIP_SIZES = [5, 8, 13, 1200, BLOCK - 1, BLOCK, BLOCK + 1,
               8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1, 16 * BLOCK + 7]
PARAMS = [PhysParams(0.4), PhysParams(epsilon=0.7, gravity=3.0, depth=2.0)]


def wet_state(rng, n):
    """Random wet state with flat stretches and exact zeros, so every
    branch of the limiter is taken."""
    zeta = 0.15 * rng.standard_normal(n)
    v = rng.standard_normal(n)
    zeta[rng.integers(0, n, size=max(1, n // 50))] = 0.0
    v[n // 3:n // 3 + n // 5] = 0.25
    return State(zeta, v)


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", STRIP_SIZES)
def test_kernel_matches_allocating_kernel_exactly(n):
    rng = np.random.default_rng(n)
    reused = Workspace(n)
    for params in PARAMS:
        for _ in range(2):
            state = wet_state(rng, n)
            want_rate = oracles.hyperbolic_rhs(state, params, 0.05)
            want = oracles.rk4_fv_step(state, 0.01, params, 0.05)
            for ws in (Workspace(n), reused):
                assert_same_bits(hyperbolic_rhs(state, params, 0.05, workspace=ws),
                                 want_rate)
                got = rk4_fv_step(state, 0.01, params, 0.05, workspace=ws)
                assert_same_bits((got.zeta, got.v), (want.zeta, want.v))


@pytest.mark.parametrize("n", STRIP_SIZES)
def test_public_kernels_match_allocating_kernel_exactly(n):
    rng = np.random.default_rng(100 + n)
    state = wet_state(rng, n)
    assert_same_bits(reconstruction_deltas(state.zeta),
                     oracles.reconstruction_deltas(state.zeta))
    assert_same_bits(drivers.faces(state.zeta, state.v), oracles.reconstruct_interfaces(state))
    u, v, w = rng.standard_normal((3, n))
    u[::7] = 0.0
    assert_same_bits([limiter(u, v, w)], [oracles.limiter(u, v, w)])
    sides = rng.uniform(-0.5, 1.0, (4, n))
    for params in PARAMS:
        assert_same_bits(drivers.flux(*sides, params),
                         oracles.numerical_flux(*sides, params))


@pytest.mark.parametrize("nan_at,dry_at", [(3, 10), (10, 3)])
def test_dry_face_beside_a_nan_in_one_strip_raises(nan_at, dry_at):
    # the dry check must see a nonpositive h past a NaN, which np.min would
    # return instead of the negative entry
    zeta = np.full(16, 0.1)
    zeta[nan_at], zeta[dry_at] = np.nan, -1.5
    with pytest.raises(HyperbolicityError):
        hyperbolic_rhs(State(zeta, np.zeros(16)), PhysParams(1.0), 0.1,
                       workspace=Workspace(16))


def test_dry_cell_in_last_strip_raises():
    n = 2 * BLOCK + 7
    ws = Workspace(n)
    zeta = np.full(n, 0.1)
    zeta[n - 3] = -1.5
    with pytest.raises(HyperbolicityError):
        hyperbolic_rhs(State(zeta, np.zeros(n)), PhysParams(1.0), 0.1, workspace=ws)
    with pytest.raises(HyperbolicityError):
        rk4_fv_step(State(zeta, np.zeros(n)), 0.01, PhysParams(1.0), 0.1, workspace=ws)
    # the workspace stays usable after the error
    state = wet_state(np.random.default_rng(3), n)
    got = rk4_fv_step(state, 0.01, PhysParams(0.4), 0.05, workspace=ws)
    want = oracles.rk4_fv_step(state, 0.01, PhysParams(0.4), 0.05)
    assert_same_bits((got.zeta, got.v), (want.zeta, want.v))


def test_workspace_size_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        hyperbolic_rhs(State(np.zeros(16), np.zeros(16)), PhysParams(0.4), 0.1, workspace=Workspace(17))


def workspace_buffers(ws):
    return [ws.memory, *ws.stage, *ws.rate, *ws.acc]


def test_rk4_fv_step_results_own_their_memory():
    n = BLOCK + 1
    ws = Workspace(n)
    state = wet_state(np.random.default_rng(5), n)
    saved = state.zeta.copy(), state.v.copy()
    first = rk4_fv_step(state, 0.01, PhysParams(0.4), 0.05, workspace=ws)
    second = rk4_fv_step(first, 0.01, PhysParams(0.4), 0.05, workspace=ws)
    assert_same_bits((state.zeta, state.v), saved)
    outputs = [first.zeta, first.v, second.zeta, second.v]
    for i, a in enumerate(outputs):
        assert not any(np.shares_memory(a, b) for b in workspace_buffers(ws))
        assert not any(np.shares_memory(a, b) for b in outputs[i + 1:])
        assert not any(np.shares_memory(a, b) for b in (state.zeta, state.v))


def test_rk4_fv_step_allocates_only_its_result():
    n = 65536
    ws = Workspace(n)
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    state = State(0.2 * np.sin(x), 0.1 * np.cos(3.0 * x))
    rk4_fv_step(state, 1e-3, PhysParams(0.3), 0.01, workspace=ws)     # warm up
    tracemalloc.start()
    try:
        out = rk4_fv_step(state, 1e-3, PhysParams(0.3), 0.01, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.zeta.nbytes + out.v.nbytes == 1 << 20
    assert peak < 1.5 * (1 << 20)


def test_a_changed_source_builds_under_a_new_key(tmp_path, monkeypatch):
    source, cache = tmp_path / "fv_kernel.c", tmp_path / "cache"
    code = hyperbolic.KERNEL_SOURCE.read_bytes()
    source.write_bytes(code)
    run, written, libraries = subprocess.run, [], []

    def compile_and_look(command, **kwargs):
        # the compiler writes a name of its own; the libraries in the cache
        # while it runs are the ones built before
        written.append(Path(command[command.index("-o") + 1]))
        libraries.append(sorted(cache.glob("*.so")))
        return run(command, **kwargs)

    monkeypatch.setattr(hyperbolic.subprocess, "run", compile_and_look)
    first = hyperbolic.build_kernel(source, cache)
    # the key is the bytes', not the path's: the package's own library
    assert first.name == hyperbolic.build_kernel(
        hyperbolic.KERNEL_SOURCE, hyperbolic.KERNEL_SOURCE.parent / "__pycache__").name
    assert len(written) == 1
    source.write_bytes(code + b"\n/* changed */\n")
    second = hyperbolic.build_kernel(source, cache)
    assert second != first and first.parent == second.parent == cache
    assert hyperbolic.build_kernel(source, cache) == second and len(written) == 2
    assert not {first, second} & set(written)
    assert libraries == [[], [first]]
    assert sorted(cache.iterdir()) == sorted([first, second])
    assert ctypes.c_long.in_dll(ctypes.CDLL(str(second)), "FV_BLOCK").value == BLOCK


def test_a_failed_build_is_named_and_leaves_no_file(tmp_path):
    source, cache = tmp_path / "broken.c", tmp_path / "cache"
    source.write_text("this is not C\n")
    with pytest.raises(KernelBuildError, match="broken.c") as failed:
        hyperbolic.build_kernel(source, cache)
    assert "\n" not in str(failed.value)
    assert list(cache.iterdir()) == []
