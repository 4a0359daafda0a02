"""Closed-form reference solutions and initial profiles.

The nondimensional weakly nonlinear system admits the classical traveling
wave

    zeta1 = a sech^2(kappa (x - x0 - c t)),   v1 = c zeta1 / (1 + eps zeta1),

with kappa = sqrt(3a/4) and c = 1/sqrt(1 - a eps). Augmenting it with
second-order correctors transported along the unit-speed characteristics
(x - t) and (x + t), plus characteristic-line integrals of a source built
from derivatives of the base profile, yields a reference accurate to third
order in eps. That corrected solution initializes and scores the solitary
wave experiments.

Spatial derivatives of the base profiles are taken by eighth-order central
differences (``core.central_weights``) of the analytic expressions rather
than hand-expanded sech chains; the step is chosen large enough that the
fifth derivative stays out of the round-off floor (validated by a
Richardson check in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, central_weights, simpson_weights


@dataclass(frozen=True)
class SolitaryWaveSpec:
    """A single solitary wave: amplitude, regime, launch point, direction.
    A rejected wave raises a ConfigurationError keyed by the field at fault,
    ``amplitude`` or ``direction``."""

    amplitude: float
    epsilon: float
    x0: float = 0.0
    direction: int = 1

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ConfigurationError("amplitude must be positive", key="amplitude")
        if not 0.0 <= self.amplitude * self.epsilon < 1.0:
            raise ConfigurationError("need 0 <= a*eps < 1 for a real wave speed",
                                     key="amplitude")
        if self.direction not in (1, -1):
            raise ConfigurationError("direction must be +1 or -1", key="direction")

    @property
    def kappa(self) -> float:
        return np.sqrt(0.75 * self.amplitude)

    @property
    def speed(self) -> float:
        return np.sqrt(1.0 / (1.0 - self.amplitude * self.epsilon))


def _sech2(y):
    y = np.minimum(np.abs(y), 350.0)  # sech^2(350) underflows anyway
    s = 1.0 / np.cosh(y)
    return s * s


def base_wave(spec: SolitaryWaveSpec, t: float, x):
    """Exact traveling-wave profiles (zeta1, v1) at time t."""
    x = np.asarray(x, dtype=float)
    xi = x - spec.x0 - spec.direction * spec.speed * t
    zeta1 = spec.amplitude * _sech2(spec.kappa * xi)
    v1 = spec.direction * spec.speed * zeta1 / (1.0 + spec.epsilon * zeta1)
    return zeta1, v1


# the widest offset, in steps, that ``profile_derivative`` reads (order 5)
_MAX_OFFSET = (5 + 8) // 2


def profile_derivative(sample, order: int, step: float) -> np.ndarray:
    """Eighth-order centered difference of an analytic profile, given as
    ``sample(m)``: the profile at x + m ``step`` for the integer offset m.

    ``half_width = (order + 8) // 2`` points on each side give formal
    accuracy of at least eight for every order up to five.
    """
    half_width = (order + 8) // 2
    w = central_weights(order, half_width)
    acc = 0.0
    for m, c in zip(range(-half_width, half_width + 1), w):
        if c != 0.0:
            acc = acc + c * sample(m)
    return acc / step ** order


def _fd_step(spec: SolitaryWaveSpec) -> float:
    # Large enough to keep the fifth derivative out of the eps/h^5 round-off
    # floor, small enough that the eighth-order truncation is negligible for
    # sech^2 profiles of width 1/kappa.
    return min(1.0 / (16.0 * spec.kappa), 5e-2)


def corrector_source(spec: SolitaryWaveSpec, t: float, x):
    """Source term feeding the characteristic-line integrals of the
    corrected solution,

        f = d_x zeta1 d_x d_t v1 + 2/3 zeta1 d_x^2 d_t v1
            + 1/45 d_x^4 d_t v1 + 1/3 d_x(v1 v1_xx - v1_x^2),

    with every time derivative reduced through the traveling-wave identity
    d_t = -(direction) c d_x. Every derivative reads the base wave at the
    offsets -6 .. 6 steps (_MAX_OFFSET), so it is evaluated there once.
    """
    x = np.asarray(x, dtype=float)
    c_signed = spec.direction * spec.speed
    step = _fd_step(spec)

    table = {m: base_wave(spec, t, x + m * step)
             for m in range(-_MAX_OFFSET, _MAX_OFFSET + 1)}
    zeta1, v1 = table[0]
    dzeta = profile_derivative(lambda m: table[m][0], 1, step)
    dv = {n: profile_derivative(lambda m: table[m][1], n, step) for n in (1, 2, 3, 5)}

    advective = (dzeta * dv[2] + 2.0 / 3.0 * zeta1 * dv[3] + dv[5] / 45.0)
    # d_x(v1 v1_xx - v1_x^2) = v1 v1_xxx - v1_x v1_xx, by the product rule
    stress = v1 * dv[3] - dv[1] * dv[2]
    return -c_signed * advective + stress / 3.0


def gaussian_corrector_profile(x, center: float):
    """Default second-order corrector profile exp(-(3 pi (x-center)/10)^2)."""
    y = 3.0 * np.pi * (np.asarray(x, dtype=float) - center) / 10.0
    return np.exp(-y * y)


def corrected_solution(spec: SolitaryWaveSpec, t: float, x,
                       substep: float | None = None):
    """Solitary wave with second-order correctors at time t >= 0.

    zeta = zeta1 + eps^2/2 [ (z2+v2)(x-t) + (z2-v2)(x+t)
                             + int_0^t f(s, x-t+s) ds - int_0^t f(s, x+t-s) ds ]
    v    = v1    + eps^2/2 [ (z2+v2)(x-t) - (z2-v2)(x+t)
                             + int_0^t f(s, x-t+s) ds + int_0^t f(s, x+t-s) ds ]

    The corrector profiles z2 = v2 are the Gaussian
    ``gaussian_corrector_profile`` centered on the wave launch point
    spec.x0, so (z2-v2)(x+t) vanishes and the correction travels with the
    wave. The characteristic integrals are composite Simpson with substep
    min(0.05, t/10); ``substep`` overrides it, to check that the quadrature
    has converged.
    """
    x = np.asarray(x, dtype=float)
    if t < 0.0:
        raise ValueError("t must be nonnegative")

    zeta1, v1 = base_wave(spec, t, x)
    zsum = 2.0 * gaussian_corrector_profile(x - t, spec.x0)

    if t > 0.0:
        tau = min(0.05, t / 10.0) if substep is None else substep
        weights = simpson_weights(max(2, int(np.ceil(t / tau))))
        s = np.linspace(0.0, t, weights.shape[0])
        weights *= (s[1] - s[0]) / 3.0
        int_minus = np.zeros_like(x)
        int_plus = np.zeros_like(x)
        for sj, wj in zip(s, weights):
            int_minus += wj * corrector_source(spec, sj, x - t + sj)
            int_plus += wj * corrector_source(spec, sj, x + t - sj)
    else:
        int_minus = int_plus = np.zeros_like(x)

    half = 0.5 * spec.epsilon ** 2
    zeta = zeta1 + half * (zsum + int_minus - int_plus)
    v = v1 + half * (zsum + int_minus + int_plus)
    return zeta, v


def heap_profile(kind: str, x) -> np.ndarray:
    """Gaussian heap of water, 0.7 exp(-80 x^2) ("high_freq") or
    0.7 exp(-0.4 x^2) ("low_freq"); the companion velocity is zero."""
    x = np.asarray(x, dtype=float)
    widths = {"high_freq": 80.0, "low_freq": 0.4}
    if kind not in widths:
        raise ValueError(f"kind must be one of {sorted(widths)}, got {kind!r}")
    return 0.7 * np.exp(-widths[kind] * x * x)


def dam_break_profile(a: float, x) -> np.ndarray:
    """Smoothed dam of height 2a over |x| < 250, zeta = a (1 + tanh(250 - |x|))."""
    x = np.asarray(x, dtype=float)
    return a * (1.0 + np.tanh(250.0 - np.abs(x)))
