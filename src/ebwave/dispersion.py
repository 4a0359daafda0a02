"""Linear dispersion relations, velocity errors against Stokes theory,
optimization of the dispersion correction parameter, and stability bounds.

All relations are written in dimensional variables (gravity g, still water
depth h0); nondimensional runs simply use g = h0 = 1. The unfactorized
model has

    w^2 = g h0 k^2 (1 + (a-1)/3 k^2 + (a+1)/45 k^4)
          / (1 + a/3 k^2 + a/45 k^4),          a = alpha,

the factorized one replaces the k^4 numerator weight by
(a - 1 + 2/(1 + a k^2/3))/45, and the reference is the water-wave relation
w^2 = g h0 |k| tanh|k|.

The stability bounds of the three model variants (``stability_bound``) are
the paper's closed forms, derived by linearizing each variant about a
constant state; those linearizations are not evaluated here. The tests
check the closed forms against them (``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigurationError, ModelVariant, PhysParams, require_magnitude, simpson_weights


class DispersionInstabilityError(ArithmeticError):
    """A squared frequency went negative where a real branch was required."""


class DispersionKind(enum.Enum):
    EB_UNFACTORIZED = "eb_unfactorized"
    EB_FACTORIZED = "eb_factorized"
    FULL_EULER = "full_euler"


@dataclass(frozen=True)
class DispersionModel:
    """A dispersion relation plus the parameters it is evaluated with."""

    kind: DispersionKind
    params: PhysParams

    def with_alpha(self, alpha: float) -> "DispersionModel":
        return replace(self, params=replace(self.params, alpha=alpha))


def omega_squared(model: DispersionModel, k):
    """Squared frequency w(k)^2 >= 0 of the model about the state of rest
    at wavenumber k (vectorized)."""
    k = np.asarray(k, dtype=float)
    p = model.params
    g, h0, a = p.gravity, p.depth, p.alpha
    k2 = k * k
    k4 = k2 * k2

    if model.kind is DispersionKind.FULL_EULER:
        return g * h0 * np.abs(k) * np.tanh(np.abs(k))

    den = 1.0 + a / 3.0 * k2 + a / 45.0 * k4
    if model.kind is DispersionKind.EB_UNFACTORIZED:
        num = 1.0 + (a - 1.0) / 3.0 * k2 + (a + 1.0) / 45.0 * k4
    else:
        num = 1.0 + (a - 1.0) / 3.0 * k2 \
            + k4 / 45.0 * (a - 1.0 + 2.0 / (1.0 + a * k2 / 3.0))
    return g * h0 * k2 * num / den


def omega(model: DispersionModel, k):
    """Frequency of the right-moving branch, sign(k) sqrt(w^2), odd in k.

    Returns NaN where the squared frequency is negative (an alpha at which
    the model loses its real branch); callers that require a real branch
    should use :func:`velocities`.
    """
    k = np.asarray(k, dtype=float)
    w2 = omega_squared(model, np.abs(k))
    with np.errstate(invalid="ignore"):
        return np.sign(k) * np.sqrt(w2)


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
    for an alpha or K that is not finite or lies outside
    ``core.MAGNITUDES``, or a K at or below K_LOW.
    """
    require_magnitude(alpha=alpha, K=K)
    if K <= K_LOW:
        raise ConfigurationError(f"K must exceed {K_LOW:g}, the lower limit of the "
                                 f"error integral, got {K:g}")
    if panels < 2:
        raise ValueError("need at least 2 Simpson panels")
    weights = simpson_weights(panels)
    m = model.with_alpha(alpha)
    k = np.linspace(K_LOW, K, weights.shape[0])

    cp, cg = velocities(m, k)
    cp_s, cg_s = velocities(stokes_reference(m), k)
    integrand = ((cp - cp_s) / cp_s) ** 2 + ((cg - cg_s) / cg_s) ** 2
    return float((k[1] - k[0]) / 3.0 * np.sum(weights * integrand))


# the alphas that ``optimize_alpha`` searches, and the absolute tolerance to
# which it resolves the optimum
ALPHA_BRACKET = (0.1, 2.0)
ALPHA_TOL = 1e-4


def optimize_alpha(model: DispersionModel, K: float) -> tuple[float, float]:
    """Golden-section minimization of the weighted velocity error over the
    alphas of ALPHA_BRACKET.

    Alphas for which the model loses its real branch somewhere in (0, K]
    are treated as infinitely bad. Returns (alpha_opt, error_min) with
    alpha_opt resolved to the absolute tolerance ALPHA_TOL. An optimum
    within 2 ALPHA_TOL of an end of the bracket is a ConfigurationError:
    the true minimizer probably lies outside it.
    """
    (lo, hi), tol = ALPHA_BRACKET, ALPHA_TOL

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

    These are the paper's closed forms, from the linearization of each
    variant about a constant state (zeta_b, v_b); the tests check them
    against those linearizations, which live in ``tests/oracles.py``.
    UNFACTORIZED and FIFTH_ONLY_FACTORIZED bounds hold for alpha = 1 (the
    only case their linearizations are stated for); the FACTORIZED_ALL
    bound is valid for any alpha > 0. Raises ValueError for alpha <= 0 and
    a ConfigurationError for a value that is not finite or lies outside
    ``core.MAGNITUDES``.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha:g}")
    k = np.asarray(k, dtype=float)
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
