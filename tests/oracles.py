"""Dense-matrix brute-force re-implementations used as test oracles.

Everything here is assembled with explicit loops and numpy.linalg solves,
independent of the package's ghost-cell (periodic_pad) stencils and
FFT solves.
"""

import numpy as np

from ebwave.core import ModelVariant

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
