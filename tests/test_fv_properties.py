"""Property tests of the finite-volume rate on random wet states.

Grid sizes run from the narrowest stencil (5 cells) to two full strips and
a remainder, with extra weight on sizes around one strip, so the draws
cross strip boundaries and the periodic wrap.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ebwave.core import PhysParams, State
from ebwave.hyperbolic import FV_STRIP, FVWorkspace, hyperbolic_rhs

EPS = np.finfo(float).eps


@st.composite
def wet_states(draw):
    """(state, params, dx): h0 + eps zeta >= 0.1 everywhere, smooth waves
    plus noise of a drawn size, flat stretches and exact zeros."""
    n = draw(st.one_of(st.integers(5, 2 * FV_STRIP + 13),
                       st.integers(FV_STRIP - 3, FV_STRIP + 3)))
    epsilon = draw(st.floats(0.05, 1.0))
    noise = draw(st.sampled_from([0.0, 1e-9, 0.05, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.arange(n) * (2.0 * np.pi / n)
    zeta, v = (sum(rng.standard_normal() * np.cos(m * x + rng.uniform(0, 2 * np.pi))
                   for m in range(1, 4)) + noise * rng.standard_normal(n)
               for _ in range(2))
    # scale zeta so that the thinnest column is at least 0.1
    zeta *= 0.9 / (epsilon * max(np.max(np.abs(zeta)), 1e-300))
    zeta[rng.integers(0, n, size=max(1, n // 50))] = 0.0
    v[n // 3:n // 3 + n // 5] = 0.25
    return State(zeta, v), PhysParams.nondimensional(epsilon), draw(st.floats(1e-3, 1.0))


def rate(state, params, dx):
    """The rate as two arrays the caller owns."""
    return [r.copy() for r in hyperbolic_rhs(state, params, dx,
                                             workspace=FVWorkspace(state.zeta.size))]


@settings(max_examples=40, deadline=None)
@given(wet_states(), st.integers(0, 2**31))
def test_rate_commutes_with_translation_exactly(drawn, shift):
    state, params, dx = drawn
    shift %= state.zeta.size
    rolled = State(np.roll(state.zeta, shift), np.roll(state.v, shift))
    for got, want in zip(rate(rolled, params, dx), rate(state, params, dx)):
        assert got.tobytes() == np.roll(want, shift).tobytes()


@settings(max_examples=40, deadline=None)
@given(wet_states())
def test_rate_commutes_with_reflection(drawn):
    # x -> -x maps cell i to cell N-1-i, keeps zeta and flips the sign of v
    state, params, dx = drawn
    rz, rv = rate(state, params, dx)
    mz, mv = rate(State(state.zeta[::-1], -state.v[::-1]), params, dx)
    scale = max(np.max(np.abs(rz)), np.max(np.abs(rv)))
    assert np.max(np.abs(mz - rz[::-1])) <= 1e-14 * scale
    assert np.max(np.abs(mv + rv[::-1])) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(wet_states())
def test_zeta_rate_conserves_mass(drawn):
    # the fluxes telescope: the zeta rate sums to zero up to the rounding
    # of each difference and of the sum itself
    state, params, dx = drawn
    rz, _ = rate(state, params, dx)
    assert abs(np.sum(rz)) <= 4 * EPS * np.sum(np.abs(rz))
