"""Physical parameters, periodic grids and state containers shared by all solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Invalid parameter, grid or scenario setup; ``key`` names the config
    field at fault, where there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class HyperbolicityError(FloatingPointError):
    """Water column h0 + eps*zeta reached zero or below."""


class StallError(FloatingPointError):
    """The CFL time step collapsed: it fell below a fixed fraction
    (``scenarios.STALL_FRACTION``) of the first one of its stepping loop."""


class BlowUpError(FloatingPointError):
    """The solution left the configured bounds or became non-finite.

    ``time`` is the simulation time at which the blow-up was detected
    (None when unknown).
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of the wave model.

    Two conventions share the same code paths:

    * nondimensional runs, ``PhysParams(epsilon, alpha)``: ``gravity =
      depth = 1`` and ``epsilon`` is the nonlinearity parameter of the regime,
    * dimensional runs, ``PhysParams.dimensional``: ``epsilon = 1`` and
      ``gravity``, ``depth`` carry units.

    ``alpha`` is the dispersion correction parameter; it does not change the
    formal accuracy of the model, only its linear dispersion.
    """

    epsilon: float
    alpha: float = 1.0
    gravity: float = 1.0
    depth: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.alpha <= 0.0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.gravity <= 0.0:
            raise ConfigurationError(f"gravity must be positive, got {self.gravity}")
        if self.depth <= 0.0:
            raise ConfigurationError(f"depth must be positive, got {self.depth}")

    @classmethod
    def dimensional(cls, gravity: float = 9.81, depth: float = 1.0,
                    alpha: float = 1.0) -> "PhysParams":
        return cls(epsilon=1.0, alpha=alpha, gravity=gravity, depth=depth)


class ModelVariant(enum.Enum):
    """Which treatment of the high order dispersive terms the solver uses.

    FACTORIZED_ALL rewrites every high derivative of zeta through the inverse
    of the screened operator, UNFACTORIZED keeps explicit stencils up to the
    fifth derivative, FIFTH_ONLY_FACTORIZED factorizes only the fifth one
    (defined for alpha = 1 only; kept because it demonstrates the high
    frequency instability the full factorization removes).
    """

    FACTORIZED_ALL = "factorized_all"
    UNFACTORIZED = "unfactorized"
    FIFTH_ONLY_FACTORIZED = "fifth_only_factorized"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max).

    Built as ``Grid(x_min, x_max, n_cells)``. Cell i covers
    [x_min + i*dx, x_min + (i+1)*dx] with center x_min + (i+1/2)*dx.
    Finite-volume unknowns are cell averages; finite-difference (nodal)
    unknowns are point values at the same cell centers, so both
    representations share one index set.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ConfigurationError("x_max must exceed x_min")
        if self.n_cells < 8:
            raise ConfigurationError(f"n_cells = {self.n_cells} is below the minimum of 8")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class State:
    """Cell averages of the surface deformation and velocity on a periodic
    grid: the unknowns of the finite-volume step and of a run. The
    finite-difference step takes its point values as bare arrays.
    """

    zeta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.zeta.shape != self.v.shape or self.zeta.ndim != 1:
            raise ConfigurationError("zeta and v must be 1d arrays of equal length")

    @classmethod
    def rest(cls, n: int) -> "State":
        return cls(np.zeros(n), np.zeros(n))

    def copy(self) -> "State":
        return State(self.zeta.copy(), self.v.copy())

    def water_column(self, params: PhysParams) -> np.ndarray:
        return params.depth + params.epsilon * self.zeta

    def is_hyperbolic(self, params: PhysParams) -> bool:
        """True when the water column is strictly positive everywhere."""
        return bool(np.min(self.water_column(params)) > 0.0)


def periodic_pad(u: np.ndarray, g: int, out: np.ndarray | None = None) -> np.ndarray:
    """``u`` with ``g`` periodic ghost cells on each side.

    Entry k of the result is u[(k - g) mod N], so a stencil with offsets in
    [-g, g] reads the neighbors of cell i from slices starting at i + g.
    Requires g <= N. ``out``, if given, receives the result (N + 2g entries).
    """
    if g > u.shape[0]:
        raise ConfigurationError(
            f"cannot wrap {g} ghost cells around {u.shape[0]} points")
    return np.concatenate((u[u.shape[0] - g:], u, u[:g]), out=out)


def relative_l2_error(numerical: np.ndarray, reference: np.ndarray) -> float:
    """Relative error in the unweighted discrete Euclidean norm,
    ||num - ref||_2 / ||ref||_2."""
    numerical = np.asarray(numerical, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if numerical.shape != reference.shape:
        raise ValueError("arrays must have equal shape")
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise ValueError("reference norm is zero")
    return float(np.linalg.norm(numerical - reference) / ref_norm)
