"""Linear dispersion relations, velocity errors against Stokes theory,
optimization of the dispersion correction parameter, and stability bounds.

All relations are written in dimensional variables (gravity g, still water
depth h0); nondimensional runs simply use g = h0 = 1. The unfactorized
model has

    w^2 = g h0 k^2 (1 + (a-1)/3 k^2 + (a+1)/45 k^4)
          / (1 + a/3 k^2 + a/45 k^4),          a = alpha,

the factorized one replaces the k^4 numerator weight by
(a - 1 + 2/(1 + a k^2/3))/45, and the reference is the water-wave relation
w^2 = g h0 |k| tanh|k|. The linearized-at-state variants describe small
perturbations of a constant state (zeta_b, v_b) and can turn negative,
which signals a high frequency instability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigurationError, ModelVariant, PhysParams, require_finite


class DispersionInstabilityError(ArithmeticError):
    """A squared frequency went negative where a real branch was required."""


class DispersionKind(enum.Enum):
    EB_UNFACTORIZED = "eb_unfactorized"
    EB_FACTORIZED = "eb_factorized"
    FULL_EULER = "full_euler"
    LIN_UNFACTORIZED = "linearized_unfactorized"
    LIN_FIFTH_ONLY = "linearized_fifth_only"
    LIN_FACTORIZED = "linearized_factorized"


_LINEARIZED = (DispersionKind.LIN_UNFACTORIZED,
               DispersionKind.LIN_FIFTH_ONLY,
               DispersionKind.LIN_FACTORIZED)

# The wavenumbers k and K and the alphas that the analysis entry points
# (``stability_bound``, ``weighted_error``, ``scenarios.run_dispersion_report``)
# accept. Inside this range the largest terms of the closed forms, alpha k^6
# in ``omega_squared`` and alpha^2 k^4 in ``stability_bound``, stay below
# 1e210 and the smallest denominator, k^2, above 1e-60, so every relation,
# bound and velocity is finite.
MAGNITUDES = (1e-30, 1e30)


def require_magnitude(**values) -> None:
    """Raise a ConfigurationError that names the first of ``values`` (a
    number, or an ndarray checked entry by entry) outside MAGNITUDES."""
    lo, hi = MAGNITUDES
    for name, value in values.items():
        if not np.all((lo <= value) & (value <= hi)):
            raise ConfigurationError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")


# The linearized relations for the unfactorized and fifth-only models are
# derived with alpha = 1; only the fully factorized one keeps alpha free.
_ALPHA_ONE_ONLY = (DispersionKind.LIN_UNFACTORIZED, DispersionKind.LIN_FIFTH_ONLY)


@dataclass(frozen=True)
class DispersionModel:
    """A dispersion relation plus the parameters it is evaluated with.

    ``background`` is the constant state (zeta_b, v_b) for the
    linearized-at-state kinds and is ignored otherwise.
    """

    kind: DispersionKind
    params: PhysParams
    background: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind in _ALPHA_ONE_ONLY and self.params.alpha != 1.0:
            raise ValueError(f"{self.kind.value} is defined for alpha = 1 only")

    def with_alpha(self, alpha: float) -> "DispersionModel":
        return replace(self, params=replace(self.params, alpha=alpha))


def omega_squared(model: DispersionModel, k):
    """Squared frequency of the model at wavenumber k (vectorized).

    For the rest-state relations this is w(k)^2 >= 0. For the
    linearized-at-state kinds the returned value is the squared deviation
    (w - k v_b)^2 as given by the closed forms; a negative value means the
    roots are complex, i.e. the state is linearly unstable at this k.
    """
    k = np.asarray(k, dtype=float)
    p = model.params
    g, h0, a = p.gravity, p.depth, p.alpha
    k2 = k * k
    k4 = k2 * k2

    if model.kind is DispersionKind.FULL_EULER:
        return g * h0 * np.abs(k) * np.tanh(np.abs(k))

    if model.kind is DispersionKind.EB_UNFACTORIZED:
        num = 1.0 + (a - 1.0) / 3.0 * k2 + (a + 1.0) / 45.0 * k4
        den = 1.0 + a / 3.0 * k2 + a / 45.0 * k4
        return g * h0 * k2 * num / den

    if model.kind is DispersionKind.EB_FACTORIZED:
        num = 1.0 + (a - 1.0) / 3.0 * k2 \
            + k4 / 45.0 * (a - 1.0 + 2.0 / (1.0 + a * k2 / 3.0))
        den = 1.0 + a / 3.0 * k2 + a / 45.0 * k4
        return g * h0 * k2 * num / den

    zb, _ = model.background
    h = h0 + zb
    if h <= 0.0:
        raise ValueError("background water column h0 + zeta_b must be positive")
    den = 1.0 + a / 3.0 * k2 + a / 45.0 * k4

    if model.kind is DispersionKind.LIN_UNFACTORIZED:
        num = 1.0 - 2.0 / 3.0 * k2 * zb + 2.0 / 45.0 * k4
    elif model.kind is DispersionKind.LIN_FIFTH_ONLY:
        num = 1.0 - 2.0 / 3.0 * k2 * zb + k4 / 45.0 * (2.0 / (1.0 + k2 / 3.0))
    elif model.kind is DispersionKind.LIN_FACTORIZED:
        screen = 1.0 + a * k2 / 3.0
        num = (1.0 + (a - 1.0) / 3.0 * k2 - 2.0 * k2 * zb / (3.0 * screen)
               + (a - 1.0) / 45.0 * k4 + 2.0 * k4 / (45.0 * screen))
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {model.kind}")
    return g * h * k2 * num / den


def omega(model: DispersionModel, k):
    """Frequency of the right-moving branch, odd in k.

    For the linearized kinds, w = k v_b + sign(k) sqrt((w - k v_b)^2).
    Returns NaN where the squared frequency is negative; callers that
    require a real branch should use :func:`velocities`.
    """
    k = np.asarray(k, dtype=float)
    w2 = omega_squared(model, np.abs(k))
    with np.errstate(invalid="ignore"):
        w = np.sign(k) * np.sqrt(w2)
    if model.kind in _LINEARIZED:
        w = w + k * model.background[1]
    return w


def velocities(model: DispersionModel, k):
    """Phase and group velocity at wavenumber k > 0 (vectorized).

    Phase is w/k on the right-moving branch, group velocity dw/dk by a
    fourth-order central difference with step max(1e-4, 1e-4 k); the odd
    extension of w makes it valid arbitrarily close to k = 0. Raises
    DispersionInstabilityError where no real branch exists.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("wavenumbers must be positive")
    phase = omega(model, k) / k
    h = np.maximum(1e-4, 1e-4 * k)
    group = (-omega(model, k + 2 * h) + 8.0 * omega(model, k + h)
             - 8.0 * omega(model, k - h) + omega(model, k - 2 * h)) / (12.0 * h)
    if not (np.all(np.isfinite(phase)) and np.all(np.isfinite(group))):
        bad = k[~(np.isfinite(phase) & np.isfinite(group))]
        raise DispersionInstabilityError(
            f"complex frequency (instability) near k = {float(np.atleast_1d(bad)[0]):g}")
    return phase, group


def taylor_coefficients(model: DispersionModel) -> tuple[float, float, float]:
    """Coefficients (c2, c4, c6) of k^2, k^4, k^6 in w^2/(g h0) at small k.

    Obtained by exact series division of the rational relation (resp. the
    tanh series for the water-wave reference), so both expansions satisfy
    c2 = 1 and c4 = -1/3, and the k^6 terms agree exactly when alpha = 1.
    """
    if model.kind is DispersionKind.FULL_EULER:
        # |k| tanh|k| = k^2 (1 - k^2/3 + 2 k^4/15 - ...)
        return 1.0, -1.0 / 3.0, 2.0 / 15.0
    if model.kind is not DispersionKind.EB_UNFACTORIZED:
        raise ValueError("small-k expansion is provided for the unfactorized "
                         "model and the water-wave reference only")
    a = model.params.alpha
    n1, n2 = (a - 1.0) / 3.0, (a + 1.0) / 45.0
    d1, d2 = a / 3.0, a / 45.0
    q1 = n1 - d1
    q2 = n2 - d2 - d1 * q1
    return 1.0, q1, q2


def stokes_reference(model: DispersionModel) -> DispersionModel:
    """Water-wave reference relation with the same gravity and depth."""
    return DispersionModel(DispersionKind.FULL_EULER, model.params)


# the lower limit of the ``weighted_error`` integral, which K must exceed
K_LOW = 1e-6


def weighted_error(model: DispersionModel, alpha: float, K: float,
                   panels: int = 2000) -> float:
    """Integrated squared relative velocity error of the model against the
    Stokes reference over wavenumbers (0, K],

        E(alpha) = int_0^K [ ((Cp - Cp_S)/Cp_S)^2 + ((Cg - Cg_S)/Cg_S)^2 ] dk,

    by composite Simpson on [K_LOW, K] over ``velocities``; both relative
    errors vanish as k -> 0 so the missing sliver is O(K_LOW^5). Raises
    DispersionInstabilityError where the model has no real branch in the
    range (this alpha is inadmissible on [0, K]), and a ConfigurationError
    for an alpha or K that is not finite or lies outside MAGNITUDES, or a
    K at or below K_LOW.
    """
    require_finite(K=K)
    require_magnitude(alpha=alpha, K=K)
    if K <= K_LOW:
        raise ConfigurationError(f"K must exceed {K_LOW:g}, the lower limit of the "
                                 f"error integral, got {K:g}")
    if panels < 2:
        raise ValueError("need at least 2 Simpson panels")
    panels += panels % 2
    m = model.with_alpha(alpha)
    k = np.linspace(K_LOW, K, panels + 1)

    cp, cg = velocities(m, k)
    cp_s, cg_s = velocities(stokes_reference(m), k)
    integrand = ((cp - cp_s) / cp_s) ** 2 + ((cg - cg_s) / cg_s) ** 2
    step = k[1] - k[0]
    weights = np.ones_like(k)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * np.sum(weights * integrand))


def optimize_alpha(model: DispersionModel, K: float,
                   bracket: tuple[float, float] = (0.1, 2.0),
                   tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section minimization of the weighted velocity error over alpha.

    Alphas for which the model loses its real branch somewhere in (0, K]
    are treated as infinitely bad. Returns (alpha_opt, error_min) with
    alpha_opt resolved to absolute tolerance ``tol``. An optimum within
    2 tol of an end of the bracket is a ConfigurationError: the true
    minimizer probably lies outside it.
    """
    lo, hi = bracket

    def objective(alpha: float) -> float:
        try:
            return weighted_error(model, alpha, K)
        except DispersionInstabilityError:
            return np.inf

    invgold = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invgold * (b - a)
    d = a + invgold * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invgold * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invgold * (b - a)
            fd = objective(d)
    alpha_opt = 0.5 * (a + b)
    if alpha_opt - lo < 2 * tol or hi - alpha_opt < 2 * tol:
        raise ConfigurationError(
            f"alpha optimum {alpha_opt:.5f} sits at the edge of the bracket "
            f"[{lo:g}, {hi:g}] for K = {K:g}; the minimizer probably lies outside it")
    err_min = objective(alpha_opt)
    return alpha_opt, err_min


def stability_bound(variant: ModelVariant, k: float, alpha: float = 1.0):
    """Largest background deformation zeta_b that keeps wavenumber k
    linearly stable for the given model variant.

    UNFACTORIZED and FIFTH_ONLY_FACTORIZED bounds hold for alpha = 1 (the
    only case their linearizations are stated for); the FACTORIZED_ALL
    bound is valid for any alpha > 0. Raises ValueError for alpha <= 0 and
    a ConfigurationError for a value that is not finite or lies outside
    MAGNITUDES.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha:g}")
    k = np.asarray(k, dtype=float)
    require_finite(alpha=alpha, k=k)
    require_magnitude(alpha=alpha, k=k)
    k2 = k * k
    k4 = k2 * k2
    if variant is ModelVariant.UNFACTORIZED:
        if alpha != 1.0:
            raise ValueError("the unfactorized bound is stated for alpha = 1")
        return (2.0 * k4 + 45.0) / (30.0 * k2)
    if variant is ModelVariant.FIFTH_ONLY_FACTORIZED:
        if alpha != 1.0:
            raise ValueError("the fifth-only bound is stated for alpha = 1")
        return (2.0 * k4 + 15.0 * k2 + 45.0) / (10.0 * k4 + 30.0 * k2)
    if variant is ModelVariant.FACTORIZED_ALL:
        a = alpha
        return (k2 * (a * ((a - 1.0) * k2 + 15.0 * a - 12.0) + 3.0) / 90.0
                + (90.0 * a - 45.0) / 90.0 + 3.0 / (2.0 * k2))
    raise ValueError(f"unknown variant {variant}")  # pragma: no cover
