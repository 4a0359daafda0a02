"""Brute-force re-implementations used as test oracles.

The dense operators are assembled with explicit loops and numpy.linalg
solves, independent of the package's ghost-cell stencils and
FFT solves. The finite-volume section is the plain allocating kernel (one
fresh array per numpy operation, whole grid at once), kept verbatim as the
reference the compiled kernel (``fv_kernel.c``) must match bit for bit. The
finite-difference section at the end is the allocating dispersive kernel
(stencils summed offset by offset, symbols by rfft, one fresh array per
operation), kept verbatim as the reference the workspace kernel, its
pair-form stencils and its closed-form symbols must match to round-off.
The last section holds the dispersion relations of each model variant
linearized about a constant state, from which ``dispersion.stability_bound``
is derived, and the small-k series of the rest-state relations.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ebwave.core import (ConfigurationError, Grid, HyperbolicityError, ModelVariant,
                         PhysParams, State)

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


def _exact(c: float) -> np.longdouble:
    """A stencil coefficient k/12, k/8 or k/6 as the long double nearest
    the exact ratio, not the rounded double."""
    ratio = Fraction(c).limit_denominator(12)
    return np.longdouble(ratio.numerator) / np.longdouble(ratio.denominator)


def long_double_stencil(order: int, u: np.ndarray, dx: float) -> np.ndarray:
    """STENCILS[order] applied periodically in long double, with exact
    coefficients; returns a long double array."""
    u = np.asarray(u, dtype=np.longdouble)
    return sum(_exact(c) * np.roll(u, -m)
               for m, c in STENCILS[order].items()) / np.longdouble(dx) ** order


def long_double_dispersive(variant, zeta, v, grid, params, dt=None):
    """The dispersive rate of ``dense_dispersive_rhs`` evaluated in long
    double (eps 1.1e-19): periodic stencils with exact coefficients (every
    table is k/12, k/8 or k/6), J and P solved by long double FFTs.

    Returns the zeta-only source and, when ``dt`` is given, the velocity
    after one RK4 step of dv/dt = source - J^{-1} 2/3 eps^2 D1 (D1 v)^2,
    both rounded to double once at the end. A reference for the round-off
    of the double precision kernels on grids of any size.
    """
    ld = np.longdouble
    n = grid.n_cells
    g, eps, alpha = ld(params.gravity), ld(params.epsilon), ld(params.alpha)

    def d(k, u):
        return long_double_stencil(k, u, grid.dx)

    def circulant_symbol(k):
        delta = np.zeros(n, dtype=ld)
        delta[0] = 1
        return np.fft.rfft(d(k, delta))

    p_symbol = 1 - eps * alpha / 3 * circulant_symbol(2)
    j_symbol = p_symbol + eps ** 2 * alpha / 45 * circulant_symbol(4)

    def solve(sym, b):
        return np.fft.irfft(np.fft.rfft(b) / sym, n=n)

    zeta = zeta.astype(ld)
    d1z = d(1, zeta)
    grad = g / alpha * d1z
    if variant is ModelVariant.UNFACTORIZED:
        bracket = (grad + 2 * eps ** 2 * g / 45 * d(5, zeta)
                   + 2 * eps ** 2 * g / 3 * zeta * d(3, zeta)
                   + eps ** 2 * g * d1z * d(2, zeta))
    else:
        w = solve(p_symbol, g * d1z)
        bracket = grad + 2 * eps ** 2 / 45 * d(4, w)
        if variant is ModelVariant.FACTORIZED_ALL:
            bracket += 2 * eps ** 2 / 3 * zeta * d(2, w) + eps ** 2 * d1z * d(1, w)
        else:
            bracket += (2 * eps ** 2 * g / 3 * zeta * d(3, zeta)
                        + eps ** 2 * g * d1z * d(2, zeta))
    source = grad - solve(j_symbol, bracket)
    if dt is None:
        return source.astype(float)

    def rate(u):
        return source - solve(j_symbol, 2 * eps ** 2 / 3 * d(1, d(1, u) ** 2))

    dt, y = ld(dt), v.astype(ld)
    k1 = rate(y)
    k2 = rate(y + dt / 2 * k1)
    k3 = rate(y + dt / 2 * k2)
    k4 = rate(y + dt * k3)
    return source.astype(float), (y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)).astype(float)


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


def reconstruct_interfaces(state: State):
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


def hyperbolic_rhs(state: State, params: PhysParams, dx: float):
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


def rk4_fv_step(state: State, dt: float, params: PhysParams, dx: float) -> State:
    """Advance the cell averages by one RK4 step of the shallow-water part."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def rhs(y):
        return hyperbolic_rhs(State(y[0], y[1]), params, dx)

    zeta, v = rk4_step((state.zeta, state.v), dt, rhs)
    return State(zeta, v)


# --- allocating finite-difference kernel (reference) ------------------------

# the fourth-order centered stencils are STENCILS, scaled by dx^-order


@dataclass(frozen=True)
class StencilOperator:
    """Periodic centered difference of the given derivative order.

    Application is the convolution sum_m c_m u_{i+m} scaled by dx^-order.
    Coefficients sum to zero; odd orders are antisymmetric, even orders
    symmetric.
    """

    order: int
    offsets: tuple[int, ...]
    coefficients: tuple[float, ...]

    @classmethod
    def centered(cls, order: int) -> "StencilOperator":
        table = STENCILS[order]
        offs = tuple(sorted(table))
        return cls(order=order, offsets=offs,
                   coefficients=tuple(table[m] for m in offs))

    @property
    def width(self) -> int:
        return max(self.offsets) - min(self.offsets) + 1


def apply_stencil(op: StencilOperator, field: np.ndarray, dx: float) -> np.ndarray:
    """Apply the periodic stencil to a field, scaled by dx^-order."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] < op.width:
        raise ConfigurationError(
            f"grid of {field.shape[0]} points is narrower than the "
            f"{op.width}-point stencil")
    g = max(map(abs, op.offsets))
    padded = periodic_pad(field, g)
    n = field.shape[0]
    out = np.zeros_like(field)
    for m, c in zip(op.offsets, op.coefficients):
        out += c * padded[g + m:g + m + n]
    return out / dx ** op.order


def circulant_symbol(stencil: dict[int, float], n: int) -> np.ndarray:
    """Eigenvalues of the periodic convolution sum_m c_m u_{i+m} on the
    discrete Fourier modes used by rfft (length n//2 + 1)."""
    col = np.zeros(n)
    for m, c in stencil.items():
        col[(-m) % n] += c
    return np.fft.rfft(col)


class CirculantSolver:
    """Precomputed Fourier factorization of a periodic constant-stencil map.

    The symbol is checked at construction; a (near) zero eigenvalue at any
    discrete frequency makes the map singular on this grid.
    """

    def __init__(self, stencil: dict[int, float], n: int, name: str = "operator"):
        self.n = n
        self.symbol = circulant_symbol(stencil, n)
        small = np.abs(self.symbol) < 1e-12
        if np.any(small):
            mode = int(np.argmax(small))
            raise ConfigurationError(
                f"{name} is singular on N = {n}: symbol vanishes at "
                f"Fourier mode {mode}")
        self._identity = (len(stencil) == 1 and stencil.get(0) == 1.0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._identity:
            return b
        return np.fft.irfft(np.fft.rfft(b) / self.symbol, n=self.n)


@dataclass(frozen=True)
class DispersiveOperators:
    """Stencils and factorized elliptic operators for one grid and variant."""

    grid: Grid
    params: PhysParams
    variant: ModelVariant
    d1: StencilOperator
    d2: StencilOperator
    d3: StencilOperator | None
    d4: StencilOperator
    d5: StencilOperator | None
    j_solver: CirculantSolver
    p_solver: CirculantSolver

    def apply(self, order: int, field: np.ndarray) -> np.ndarray:
        op = {1: self.d1, 2: self.d2, 3: self.d3, 4: self.d4, 5: self.d5}[order]
        if op is None:
            raise ConfigurationError(f"D{order} not built for {self.variant}")
        return apply_stencil(op, field, self.grid.dx)


def _combine(parts: list[tuple[float, dict[int, float]]]) -> dict[int, float]:
    out: dict[int, float] = {}
    for scale, stencil in parts:
        for m, c in stencil.items():
            out[m] = out.get(m, 0.0) + scale * c
    return out


def build_operators(grid: Grid, params: PhysParams,
                    variant: ModelVariant) -> DispersiveOperators:
    """Assemble the stencils and factorize J and P once for the whole run.

    J = I - (eps alpha/3) D2 + (eps^2 alpha/45) D4 and
    P = I - (eps alpha/3) D2. Both symbols are >= 1 for eps, alpha >= 0
    because -D2 and +D4 have nonnegative symbols, so the factorizations
    cannot fail for physical parameters. With eps = 0 both operators reduce
    to the identity and their solves return the input unchanged.
    """
    n = grid.n_cells
    needs_d5 = variant is ModelVariant.UNFACTORIZED
    min_n = 9 if needs_d5 else 7
    if n < min_n:
        raise ConfigurationError(
            f"{variant.value} needs at least {min_n} points, got {n}")
    if variant is ModelVariant.FIFTH_ONLY_FACTORIZED and params.alpha != 1.0:
        raise ConfigurationError(
            "the fifth-only factorized variant is defined for alpha = 1")

    eps, alpha = params.epsilon, params.alpha
    dx = grid.dx
    j_stencil = _combine([(1.0, {0: 1.0}),
                          (-eps * alpha / (3.0 * dx ** 2), STENCILS[2]),
                          (eps ** 2 * alpha / (45.0 * dx ** 4), STENCILS[4])])
    p_stencil = _combine([(1.0, {0: 1.0}),
                          (-eps * alpha / (3.0 * dx ** 2), STENCILS[2])])
    if eps == 0.0:
        j_stencil = {0: 1.0}
        p_stencil = {0: 1.0}

    needs_d3 = variant in (ModelVariant.UNFACTORIZED,
                           ModelVariant.FIFTH_ONLY_FACTORIZED)
    return DispersiveOperators(
        grid=grid, params=params, variant=variant,
        d1=StencilOperator.centered(1),
        d2=StencilOperator.centered(2),
        d3=StencilOperator.centered(3) if needs_d3 else None,
        d4=StencilOperator.centered(4),
        d5=StencilOperator.centered(5) if needs_d5 else None,
        j_solver=CirculantSolver(j_stencil, n, "J = I - eps*alpha/3 D2 + eps^2*alpha/45 D4"),
        p_solver=CirculantSolver(p_stencil, n, "P = I - eps*alpha/3 D2"),
    )


def zeta_source_term(ops: DispersiveOperators, zeta: np.ndarray) -> np.ndarray:
    """Velocity rate contribution that depends on zeta only.

    Since zeta is frozen during the dispersive half step, this part is
    computed once per step and reused by every Runge-Kutta stage:

        source = g/alpha D1 zeta - J^{-1}[ g/alpha D1 zeta + high order terms ].
    """
    params = ops.params
    g, eps, alpha = params.gravity, params.epsilon, params.alpha
    d1z = ops.apply(1, zeta)
    gradient = g / alpha * d1z
    bracket = gradient.copy()

    if ops.variant is ModelVariant.FACTORIZED_ALL:
        w = ops.p_solver.solve(g * d1z)
        bracket += 2.0 / 45.0 * eps ** 2 * ops.apply(4, w)
        bracket += 2.0 / 3.0 * eps ** 2 * zeta * ops.apply(2, w)
        bracket += eps ** 2 * d1z * ops.apply(1, w)
    elif ops.variant is ModelVariant.UNFACTORIZED:
        bracket += 2.0 / 45.0 * eps ** 2 * g * ops.apply(5, zeta)
        bracket += 2.0 / 3.0 * eps ** 2 * g * zeta * ops.apply(3, zeta)
        bracket += eps ** 2 * g * d1z * ops.apply(2, zeta)
    elif ops.variant is ModelVariant.FIFTH_ONLY_FACTORIZED:
        w = ops.p_solver.solve(g * d1z)
        bracket += 2.0 / 45.0 * eps ** 2 * ops.apply(4, w)
        bracket += 2.0 / 3.0 * eps ** 2 * g * zeta * ops.apply(3, zeta)
        bracket += eps ** 2 * g * d1z * ops.apply(2, zeta)
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown variant {ops.variant}")

    return gradient - ops.j_solver.solve(bracket)


def velocity_rate(ops: DispersiveOperators, v: np.ndarray,
                  zeta_source: np.ndarray) -> np.ndarray:
    """dv/dt = zeta_source - J^{-1}[ 2/3 eps^2 D1((D1 v)^2) ]."""
    eps = ops.params.epsilon
    d1v = ops.apply(1, v)
    nonlinear = 2.0 / 3.0 * eps ** 2 * ops.apply(1, d1v * d1v)
    return zeta_source - ops.j_solver.solve(nonlinear)


def rk4_fd_step(state: State, dt: float, ops: DispersiveOperators) -> State:
    """Advance the nodal velocity by one RK4 step of the dispersive part.

    zeta is returned bit-identical to the input. The zeta-only part of the
    rate is evaluated once and shared by the four stages, which is exact
    because zeta does not move during this half step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    source = zeta_source_term(ops, state.zeta)
    v_new = rk4_step(state.v, dt, lambda v: velocity_rate(ops, v, source))
    return State(state.zeta.copy(), v_new)


# ---------------------------------------------------------------------------
# linearized dispersion relations (g = h0 = 1)


def _linearized(numerator):
    """The squared deviation (w - k v_b)^2 = (1 + zeta_b) k^2 num / den of a
    variant linearized about the constant state (zeta_b, v_b), with
    den = 1 + alpha k^2/3 + alpha k^4/45 and num = numerator(k^2, k^4,
    zeta_b, alpha), as a function of (k, zeta_b, alpha). v_b drops out; a
    negative value means complex roots, a state linearly unstable at k."""
    def omega_squared(k, zeta_b, alpha=1.0):
        k2 = k * k
        k4 = k2 * k2
        den = 1.0 + alpha / 3.0 * k2 + alpha / 45.0 * k4
        return (1.0 + zeta_b) * k2 * numerator(k2, k4, zeta_b, alpha) / den
    return omega_squared


# the unfactorized and fifth-only linearizations are stated for alpha = 1 only
LINEARIZED = {
    ModelVariant.UNFACTORIZED: _linearized(
        lambda k2, k4, zb, a: 1.0 - 2.0 / 3.0 * k2 * zb + 2.0 / 45.0 * k4),
    ModelVariant.FIFTH_ONLY_FACTORIZED: _linearized(
        lambda k2, k4, zb, a: 1.0 - 2.0 / 3.0 * k2 * zb + k4 / 45.0 * (2.0 / (1.0 + k2 / 3.0))),
    ModelVariant.FACTORIZED_ALL: _linearized(
        lambda k2, k4, zb, a: (1.0 + (a - 1.0) / 3.0 * k2
                               - 2.0 * k2 * zb / (3.0 * (1.0 + a * k2 / 3.0))
                               + (a - 1.0) / 45.0 * k4
                               + 2.0 * k4 / (45.0 * (1.0 + a * k2 / 3.0)))),
}

# |k| tanh|k| = k^2 (1 - k^2/3 + 2 k^4/15 - ...)
FULL_EULER_TAYLOR = (1.0, -1.0 / 3.0, 2.0 / 15.0)


def taylor_coefficients(alpha: float) -> tuple[float, float, float]:
    """Coefficients (c2, c4, c6) of k^2, k^4, k^6 in w^2/(g h0) of the
    unfactorized relation at small k, by exact series division of its
    rational form: c2 = 1 and c4 = -1/3 for every alpha, and c6 equals the
    water-wave 2/15 exactly when alpha = 1."""
    c4 = (alpha - 1.0) / 3.0 - alpha / 3.0
    return 1.0, c4, (alpha + 1.0) / 45.0 - alpha / 45.0 - alpha / 3.0 * c4
