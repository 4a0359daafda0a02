"""Brute-force re-implementations used as test oracles.

The dense operators are assembled with explicit loops and numpy.linalg
solves, independent of the package's ghost-cell (periodic_pad) stencils and
FFT solves. The finite-volume section at the end is the plain allocating
kernel (one fresh array per numpy operation, whole grid at once), kept
verbatim as the reference the workspace/strip kernel must match bit for bit.
"""

import numpy as np

from ebwave.core import (CellState, ConfigurationError, HyperbolicityError,
                         ModelVariant, PhysParams)

# offset -> coefficient tables transcribed independently
STENCILS = {
    1: {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12},
    2: {2: -1 / 12, 1: 16 / 12, 0: -30 / 12, -1: 16 / 12, -2: -1 / 12},
    3: {3: -1 / 8, 2: 8 / 8, 1: -13 / 8, -1: 13 / 8, -2: -8 / 8, -3: 1 / 8},
    4: {3: -1 / 6, 2: 12 / 6, 1: -39 / 6, 0: 56 / 6, -1: -39 / 6, -2: 12 / 6, -3: -1 / 6},
    5: {4: -1 / 6, 3: 9 / 6, 2: -26 / 6, 1: 29 / 6, -1: -29 / 6, -2: 26 / 6, -3: -9 / 6, -4: 1 / 6},
}

CONVERSION_STENCIL = {-2: 27 / 5760, -1: -348 / 5760, 0: 6402 / 5760,
                      1: -348 / 5760, 2: 27 / 5760}


def dense_matrix(order: int, n: int, dx: float) -> np.ndarray:
    mat = np.zeros((n, n))
    for i in range(n):
        for off, c in STENCILS[order].items():
            mat[i, (i + off) % n] += c / dx ** order
    return mat


def dense_conversion_matrix(n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    for i in range(n):
        for off, c in CONVERSION_STENCIL.items():
            mat[i, (i + off) % n] += c
    return mat


def dense_j_p(grid, params):
    n, dx = grid.n_cells, grid.dx
    eye = np.eye(n)
    d2 = dense_matrix(2, n, dx)
    d4 = dense_matrix(4, n, dx)
    eps, alpha = params.epsilon, params.alpha
    j = eye - eps * alpha / 3.0 * d2 + eps ** 2 * alpha / 45.0 * d4
    p = eye - eps * alpha / 3.0 * d2
    return j, p


def dense_dispersive_rhs(variant, zeta, v, grid, params) -> np.ndarray:
    """Velocity rate of the dispersive step assembled with dense matrices."""
    n, dx = grid.n_cells, grid.dx
    d = {k: dense_matrix(k, n, dx) for k in range(1, 6)}
    j, p = dense_j_p(grid, params)
    g, eps, alpha = params.gravity, params.epsilon, params.alpha
    d1z = d[1] @ zeta
    grad = g / alpha * d1z
    if variant is ModelVariant.FACTORIZED_ALL:
        w = np.linalg.solve(p, g * d1z)
        bracket = (grad + 2 / 45 * eps ** 2 * (d[4] @ w)
                   + 2 / 3 * eps ** 2 * zeta * (d[2] @ w)
                   + eps ** 2 * d1z * (d[1] @ w))
    elif variant is ModelVariant.UNFACTORIZED:
        bracket = (grad + 2 / 45 * eps ** 2 * g * (d[5] @ zeta)
                   + 2 / 3 * eps ** 2 * g * zeta * (d[3] @ zeta)
                   + eps ** 2 * g * d1z * (d[2] @ zeta))
    elif variant is ModelVariant.FIFTH_ONLY_FACTORIZED:
        w = np.linalg.solve(p, g * d1z)
        bracket = (grad + 2 / 45 * eps ** 2 * (d[4] @ w)
                   + 2 / 3 * eps ** 2 * g * zeta * (d[3] @ zeta)
                   + eps ** 2 * g * d1z * (d[2] @ zeta))
    else:
        raise ValueError(variant)
    bracket = bracket + 2 / 3 * eps ** 2 * (d[1] @ ((d[1] @ v) ** 2))
    return grad - np.linalg.solve(j, bracket)


def cell_averages_of_sin(n: int, length: float) -> np.ndarray:
    dx = length / n
    edges = np.arange(n + 1) * dx
    return (np.cos(edges[:-1]) - np.cos(edges[1:])) / dx


# --- allocating finite-volume kernel (reference) ---------------------------

def periodic_pad(u: np.ndarray, g: int) -> np.ndarray:
    """``u`` with ``g`` periodic ghost cells on each side.

    Entry k of the result is u[(k - g) mod N], so a stencil with offsets in
    [-g, g] reads the neighbors of cell i from slices starting at i + g.
    Requires g <= N.
    """
    if g > u.shape[0]:
        raise ConfigurationError(
            f"cannot wrap {g} ghost cells around {u.shape[0]} points")
    return np.concatenate((u[u.shape[0] - g:], u, u[:g]))


STENCIL_WIDTH = 5      # cells i-2 .. i+2 feed the faces of cell i


def _check_width(n: int) -> None:
    if n < STENCIL_WIDTH:
        raise ConfigurationError(
            f"grid of {n} points is narrower than the "
            f"{STENCIL_WIDTH}-point reconstruction stencil")


def _variations(p: np.ndarray):
    """Neighbor differences and high-order variations of the cells p[2:-2]
    of a field padded with ghost cells.

    Returns (diff_down, diff_up, delta_plus, delta_minus) with
    diff_down = u_i - u_{i-1}, diff_up = u_{i+1} - u_i and

    delta_plus  = 2/3 (u_{i+1}-u_i) + 1/3 (u_i-u_{i-1})
                  - 1/10 (-u_{i-1}+3u_i-3u_{i+1}+u_{i+2})
                  - 1/15 (-u_{i-2}+3u_{i-1}-3u_i+u_{i+1})

    and delta_minus its mirror. The 2/3, 1/3, -1/10, -1/15 weights give
    the fifth-order interface values u_i +- delta/2 on smooth data.
    """
    d = p[1:] - p[:-1]
    # third differences starting at cells i-1 and i: the backward one of
    # cell i is the forward one of cell i-1
    d3 = -p[:-3] + 3.0 * p[1:-2] - 3.0 * p[2:-1] + p[3:]
    d3_fwd, d3_bwd = d3[1:], d3[:-1]
    diff_down, diff_up = d[1:-2], d[2:-1]
    delta_plus = (2.0 / 3.0 * diff_up + 1.0 / 3.0 * diff_down
                  - 0.1 * d3_fwd - d3_bwd / 15.0)
    delta_minus = (2.0 / 3.0 * diff_down + 1.0 / 3.0 * diff_up
                   - 0.1 * d3_bwd - d3_fwd / 15.0)
    return diff_down, diff_up, delta_plus, delta_minus


def reconstruction_deltas(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upwind/downwind high-order variations on the periodic 5-point stencil
    (see ``_variations``)."""
    u = np.asarray(u)
    _check_width(u.shape[0])
    _, _, delta_plus, delta_minus = _variations(periodic_pad(u, 2))
    return delta_plus, delta_minus


def limiter(u, v, w):
    """Three-argument slope limiter,

        L(u, v, w) = min(2|u|, 2|v|, |w|) sgn(u)  if sgn(u) = sgn(v), else 0,

    with sgn(0) = 0 so a vanishing difference kills the slope. In smooth
    monotone regions |w| is the smallest argument and the high-order
    variation passes through untouched; near a jump or an extremum the
    neighboring differences u and v cap it (or zero it on a sign change).
    Vectorized."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    su = np.sign(u)
    agree = (su == np.sign(v)) & (su != 0.0)
    mag = np.minimum(np.minimum(2.0 * np.abs(u), 2.0 * np.abs(v)), np.abs(w))
    return np.where(agree, mag * su, 0.0)


def _limited_faces(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Limited right/left face values of the cells p[2:-2] of a padded field."""
    diff_down, diff_up, delta_plus, delta_minus = _variations(p)
    u = p[2:-2]
    slope_plus = limiter(diff_down, diff_up, delta_plus)
    slope_minus = limiter(diff_up, diff_down, delta_minus)
    return u + 0.5 * slope_plus, u - 0.5 * slope_minus


def reconstruct_interfaces(state: CellState):
    """Limited face values for both components.

    Returns (zeta_right, zeta_left, v_right, v_left) where *_right is the
    value at the right face x_{i+1/2} seen from cell i and *_left the value
    at the left face x_{i-1/2} seen from cell i.
    """
    _check_width(state.zeta.shape[0])
    zr, zl = _limited_faces(periodic_pad(state.zeta, 2))
    vr, vl = _limited_faces(periodic_pad(state.v, 2))
    return zr, zl, vr, vl


def numerical_flux(zeta_l, v_l, zeta_r, v_r, params: PhysParams):
    """Rusanov two-point flux,

        F~ = (F(L) + F(R))/2 - s/2 (R - L),
        s  = max(|eps v_L| + sqrt(g h_L), |eps v_R| + sqrt(g h_R)).

    Raises HyperbolicityError if h <= 0 on either side.
    """
    eps, g = params.epsilon, params.gravity
    h_l = params.depth + eps * np.asarray(zeta_l)
    h_r = params.depth + eps * np.asarray(zeta_r)
    if np.any(h_l <= 0.0) or np.any(h_r <= 0.0):
        raise HyperbolicityError("nonpositive water column in flux evaluation")
    s = np.maximum(np.abs(eps * np.asarray(v_l)) + np.sqrt(g * h_l),
                   np.abs(eps * np.asarray(v_r)) + np.sqrt(g * h_r))
    f2_l = 0.5 * eps * v_l * v_l + g * zeta_l
    f2_r = 0.5 * eps * v_r * v_r + g * zeta_r
    flux_zeta = 0.5 * (h_l * v_l + h_r * v_r) - 0.5 * s * (zeta_r - zeta_l)
    flux_v = 0.5 * (f2_l + f2_r) - 0.5 * s * (v_r - v_l)
    return flux_zeta, flux_v


def hyperbolic_rhs(state: CellState, params: PhysParams, dx: float):
    """Semi-discrete rate -(F_{i+1/2} - F_{i-1/2})/dx with limited faces.

    Both fields are padded with three ghost cells, which is enough to
    reconstruct cells -1 .. N. Interface i+1/2, for i = -1 .. N-1, pairs
    the right face of cell i with the left face of cell i+1. Fluxes
    telescope over the periodic domain, so both component sums of the
    returned rate vanish to round-off.
    """
    _check_width(state.zeta.shape[0])
    zr, zl = _limited_faces(periodic_pad(state.zeta, 3))
    vr, vl = _limited_faces(periodic_pad(state.v, 3))
    flux_zeta, flux_v = numerical_flux(zr[:-1], vr[:-1], zl[1:], vl[1:], params)
    rate_zeta = -(flux_zeta[1:] - flux_zeta[:-1]) / dx
    rate_v = -(flux_v[1:] - flux_v[:-1]) / dx
    return rate_zeta, rate_v


def rk4_step(y, dt: float, rhs):
    """One classical fourth-order Runge-Kutta step for dy/dt = rhs(y).

    y is any pytree-like tuple of arrays; rhs must return matching shapes.
    """
    if isinstance(y, tuple):
        k1 = rhs(y)
        k2 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
        k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)))
        return tuple(a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_fv_step(state: CellState, dt: float, params: PhysParams, dx: float) -> CellState:
    """Advance the cell averages by one RK4 step of the shallow-water part."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def rhs(y):
        return hyperbolic_rhs(CellState(y[0], y[1]), params, dx)

    zeta, v = rk4_step((state.zeta, state.v), dt, rhs)
    return CellState(zeta, v)
