"""Physical parameters, periodic grids, state containers and the exact
difference and quadrature weights (``central_weights``, ``simpson_weights``)."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


class ConfigurationError(ValueError):
    """Invalid parameter, grid or scenario setup; ``key`` names the config
    field at fault, where there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def require_finite(**values) -> None:
    """Raise a ConfigurationError that names the first of ``values`` (a
    number, or an ndarray checked entry by entry) that is NaN or infinite."""
    for name, value in values.items():
        finite = (np.isfinite(value).all() if isinstance(value, np.ndarray)
                  else math.isfinite(value))
        if not finite:
            raise ConfigurationError(f"{name} must be finite, got {value}")


# The magnitudes that alpha, gravity, depth and the cell size of a run may
# take, and the wavenumbers k and K and the alphas that the analysis entry
# points (``dispersion.stability_bound``, ``dispersion.weighted_error``,
# ``scenarios.run_dispersion_report``) accept. Inside this range the largest
# terms of the closed forms, alpha k^6 in ``dispersion.omega_squared`` and
# alpha^2 k^4 in ``dispersion.stability_bound``, stay below 1e210 and the
# smallest denominator, k^2, above 1e-60, so every relation, bound and
# velocity is finite; and the scales that ``dispersive.build_operators``
# folds into its stencils, such as eps^2 alpha^2 / g and dx^-5, stay finite
# and nonzero.
MAGNITUDES = (1e-30, 1e30)


def require_magnitude(**values) -> None:
    """Raise a ConfigurationError, keyed by its name, for the first of
    ``values`` (a number, or an ndarray checked entry by entry) that is not
    finite, with ``require_finite``'s message, or lies outside MAGNITUDES."""
    require_finite(**values)
    lo, hi = MAGNITUDES
    for name, value in values.items():
        inside = (np.all((lo <= value) & (value <= hi)) if isinstance(value, np.ndarray)
                  else lo <= value <= hi)
        if not inside:
            raise ConfigurationError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}",
                                     key=name)


class HyperbolicityError(FloatingPointError):
    """Water column h0 + eps*zeta reached zero or below."""


class KernelBuildError(RuntimeError):
    """The C kernel of the finite-volume rate could not be compiled: the
    compiler of ``hyperbolic.COMPILE_COMMAND`` is missing or failed."""


class StallError(FloatingPointError):
    """The time step collapsed: the CFL step fell below a fixed fraction
    (``scenarios.STALL_FRACTION``) of the first one of its stepping loop,
    or the dispersive step needed more than ``splitting.SUBSTEP_LIMIT``
    RK4 substeps."""


class BlowUpError(FloatingPointError):
    """The solution left the configured bounds or became non-finite.

    ``time`` is the simulation time at which the blow-up was detected; only
    ``StrangSolver.strang_step`` decides one.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of the wave model.

    A nondimensional run, ``PhysParams(epsilon, alpha)``, keeps ``gravity =
    depth = 1`` and takes ``epsilon`` as the nonlinearity parameter of its
    regime; a dimensional one, ``PhysParams(1.0, alpha=..., gravity=...,
    depth=...)``, sets ``epsilon = 1`` and gives ``gravity`` and ``depth``
    their units. Both take the same code paths.

    ``alpha`` is the dispersion correction parameter; it does not change the
    formal accuracy of the model, only its linear dispersion.

    ``epsilon`` lies in [0, 1]; ``alpha``, ``gravity`` and ``depth`` are
    positive and lie in MAGNITUDES. Each rule is a ConfigurationError keyed
    by its field.
    """

    epsilon: float
    alpha: float = 1.0
    gravity: float = 1.0
    depth: float = 1.0

    def __post_init__(self):
        require_finite(epsilon=self.epsilon, alpha=self.alpha,
                       gravity=self.gravity, depth=self.depth)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}",
                                     key="epsilon")
        lo, hi = MAGNITUDES
        for key in ("alpha", "gravity", "depth"):
            value = getattr(self, key)
            if value <= 0.0:
                raise ConfigurationError(f"{key} must be positive, got {value}", key=key)
            # a plain comparison, as set-up builds PhysParams twice per run;
            # require_magnitude raises with the shared message
            if not lo <= value <= hi:
                require_magnitude(**{key: value})


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

    At least 8 cells, and a cell size dx = (x_max - x_min) / n_cells in
    MAGNITUDES; each rule is a ConfigurationError keyed by its field, the
    cell size by ``x_max``.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        require_finite(x_min=self.x_min, x_max=self.x_max)
        if not isinstance(self.n_cells, numbers.Integral) or isinstance(self.n_cells, bool):
            raise ConfigurationError(f"n_cells must be an integer, got {self.n_cells!r}",
                                     key="n_cells")
        if self.x_max <= self.x_min:
            raise ConfigurationError("x_max must exceed x_min", key="x_max")
        if self.n_cells < 8:
            raise ConfigurationError(f"n_cells = {self.n_cells} is below the minimum of 8",
                                     key="n_cells")
        lo, hi, dx = *MAGNITUDES, self.dx
        if not lo <= dx <= hi:
            raise ConfigurationError(f"x_max - x_min gives a cell size of {dx:g}, "
                                     f"outside [{lo:g}, {hi:g}]", key="x_max")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

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

    def water_column(self, params: PhysParams) -> np.ndarray:
        return params.depth + params.epsilon * self.zeta

    def is_hyperbolic(self, params: PhysParams) -> bool:
        """True when the water column is strictly positive everywhere."""
        return bool(np.min(self.water_column(params)) > 0.0)


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


@lru_cache(maxsize=None)
def central_weights(order: int, half_width: int) -> tuple[float, ...]:
    """Weights of the centered difference for the ``order``-th derivative on
    offsets -half_width..half_width (unit spacing), each rounded once from
    its exact value: order! times the x^order coefficient of the node's
    Lagrange basis polynomial (Fornberg, Math. Comp. 51, 1988)."""
    offsets = range(-half_width, half_width + 1)
    if len(offsets) <= order:
        raise ValueError("stencil too narrow for this derivative order")
    weights = []
    for m in offsets:
        basis = [Fraction(1)]           # coefficients, constant term first
        for j in offsets:
            if j != m:                  # basis *= (x - j) / (m - j)
                basis = [(up - j * c) / (m - j) for up, c in zip([0, *basis], [*basis, 0])]
        weights.append(float(math.factorial(order) * basis[order]))
    return tuple(weights)


def simpson_weights(panels: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1, to be scaled by step / 3,
    on panels + panels % 2 + 1 nodes (an even number of panels)."""
    weights = np.ones(panels + panels % 2 + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return weights
