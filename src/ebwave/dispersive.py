"""Finite-difference solver for the dispersive half of the splitting.

During this half step the surface is frozen (d zeta/dt = 0) and the
velocity evolves under

    J (dv/dt - g/alpha d_x zeta) + g/alpha d_x zeta + high order terms = 0,

where J = I - (eps alpha/3) D2 + (eps^2 alpha/45) D4 and the screening
operator P = I - (eps alpha/3) D2 are periodic circulant matrices built
from fixed fourth-order centered stencils. Both are diagonal in Fourier
space with symbols bounded below by 1, so they are factorized once (their
symbols are precomputed) and applied by FFT division at every stage.

The three model variants differ only in how the high order derivatives of
zeta enter the bracket: fully factorized through P^{-1}, fully explicit
through D3/D5 stencils, or a mix that factorizes the fifth derivative only
(alpha = 1; linearly unstable for large surface deformations, kept as a
demonstration case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BlowUpError, ConfigurationError, Grid, ModelVariant, NodalState,
                   PhysParams, periodic_pad)
from .hyperbolic import rk4_step

# fourth-order centered stencils, offset -> coefficient, to be scaled by dx^-order
_D1 = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
_D2 = {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}
_D3 = {-3: 1 / 8, -2: -8 / 8, -1: 13 / 8, 1: -13 / 8, 2: 8 / 8, 3: -1 / 8}
_D4 = {-3: -1 / 6, -2: 12 / 6, -1: -39 / 6, 0: 56 / 6, 1: -39 / 6, 2: 12 / 6, 3: -1 / 6}
_D5 = {-4: 1 / 6, -3: -9 / 6, -2: 26 / 6, -1: -29 / 6,
       1: 29 / 6, 2: -26 / 6, 3: 9 / 6, 4: -1 / 6}

_STENCILS = {1: _D1, 2: _D2, 3: _D3, 4: _D4, 5: _D5}


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
        table = _STENCILS[order]
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
                          (-eps * alpha / (3.0 * dx ** 2), _D2),
                          (eps ** 2 * alpha / (45.0 * dx ** 4), _D4)])
    p_stencil = _combine([(1.0, {0: 1.0}),
                          (-eps * alpha / (3.0 * dx ** 2), _D2)])
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


def dispersive_rhs(state: NodalState, ops: DispersiveOperators):
    """Full rate of the dispersive part: (d zeta/dt, dv/dt) with
    d zeta/dt identically zero."""
    source = zeta_source_term(ops, state.zeta)
    return np.zeros_like(state.zeta), velocity_rate(ops, state.v, source)


def rk4_fd_step(state: NodalState, dt: float, ops: DispersiveOperators) -> NodalState:
    """Advance the nodal velocity by one RK4 step of the dispersive part.

    zeta is returned bit-identical to the input. The zeta-only part of the
    rate is evaluated once and shared by the four stages, which is exact
    because zeta does not move during this half step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    source = zeta_source_term(ops, state.zeta)
    v_new = rk4_step(state.v, dt, lambda v: velocity_rate(ops, v, source))
    if not np.all(np.isfinite(v_new)):
        raise BlowUpError("non-finite velocity after dispersive step")
    return NodalState(state.zeta.copy(), v_new)
