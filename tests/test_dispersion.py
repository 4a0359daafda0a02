from fractions import Fraction

import numpy as np
import pytest

from ebwave.core import ConfigurationError, ModelVariant, PhysParams
from ebwave.dispersion import (DispersionInstabilityError, DispersionKind,
                               DispersionModel, omega,
                               omega_squared, optimize_alpha, stability_bound,
                               stokes_reference, taylor_coefficients, velocities,
                               weighted_error)

UNIT = PhysParams.dimensional(gravity=1.0, depth=1.0, alpha=1.0)


def model(kind, alpha=1.0, background=(0.0, 0.0), gravity=1.0, depth=1.0):
    params = PhysParams.dimensional(gravity=gravity, depth=depth, alpha=alpha)
    return DispersionModel(kind, params, background)


def rational_eb_omega2(k: Fraction, alpha: Fraction) -> Fraction:
    """Exact-arithmetic evaluation of the unfactorized relation (g=h0=1)."""
    k2 = k * k
    k4 = k2 * k2
    num = 1 + (alpha - 1) / 3 * k2 + (alpha + 1) / 45 * k4
    den = 1 + alpha / 3 * k2 + alpha / 45 * k4
    return k2 * num / den


def test_omega_squared_unfactorized_against_rational_oracle():
    for k, a in [(1, 1), (2, 1), (Fraction(1, 2), Fraction(1, 2)),
                 (3, Fraction(4529, 10000))]:
        expected = float(rational_eb_omega2(Fraction(k), Fraction(a)))
        got = omega_squared(model(DispersionKind.EB_UNFACTORIZED, alpha=float(a)), float(k))
        assert got == pytest.approx(expected, rel=1e-14)
    # spot value: alpha=1, k=1 gives 47/61
    assert omega_squared(model(DispersionKind.EB_UNFACTORIZED), 1.0) \
        == pytest.approx(47.0 / 61.0, rel=1e-14)


def test_omega_squared_full_euler():
    m = model(DispersionKind.FULL_EULER)
    assert omega_squared(m, 1.0) == pytest.approx(np.tanh(1.0), rel=1e-14)
    assert omega_squared(m, -1.0) == pytest.approx(np.tanh(1.0), rel=1e-14)
    m2 = model(DispersionKind.FULL_EULER, gravity=9.81, depth=2.0)
    assert omega_squared(m2, 0.7) == pytest.approx(9.81 * 2.0 * 0.7 * np.tanh(0.7))


def test_long_wave_limit_is_zero():
    for kind in DispersionKind:
        m = model(kind, background=(0.05, 0.0))
        assert omega_squared(m, 0.0) == 0.0


def test_rest_state_always_stable():
    k = np.linspace(0.01, 50.0, 800)
    for kind in DispersionKind:
        m = model(kind, background=(0.0, 0.0))
        assert np.all(omega_squared(m, k) >= 0.0)


def test_taylor_coefficients_printed_values():
    c2, c4, c6 = taylor_coefficients(model(DispersionKind.EB_UNFACTORIZED))
    assert (c2, c4) == (1.0, pytest.approx(-1.0 / 3.0, abs=1e-15))
    assert c6 == pytest.approx(2.0 / 15.0, abs=1e-15)
    assert taylor_coefficients(model(DispersionKind.EB_UNFACTORIZED, alpha=0.5))[2] \
        == pytest.approx(7.0 / 90.0, abs=1e-15)
    assert taylor_coefficients(model(DispersionKind.FULL_EULER))[2] \
        == pytest.approx(2.0 / 15.0, abs=1e-15)


def test_taylor_coefficients_against_small_k_fit():
    # independent oracle: least-squares fit of w^2/k^2 in powers of k^2
    for kind, alpha in [(DispersionKind.EB_UNFACTORIZED, 1.0),
                        (DispersionKind.EB_UNFACTORIZED, 0.8351),
                        (DispersionKind.FULL_EULER, 1.0)]:
        m = model(kind, alpha=alpha)
        k = np.linspace(1e-3, 2e-2, 40)
        u = k * k
        g = omega_squared(m, k) / u
        coef = np.polyfit(u, g, 3)
        c2, c4, c6 = taylor_coefficients(m)
        assert coef[3] == pytest.approx(c2, abs=1e-9)
        assert coef[2] == pytest.approx(c4, abs=1e-8)
        assert coef[1] == pytest.approx(c6, abs=1e-5)


def test_taylor_equivalence_only_at_alpha_one():
    fe = taylor_coefficients(model(DispersionKind.FULL_EULER))
    for alpha in [0.3, 0.8351, 1.0, 1.0555, 1.7]:
        eb = taylor_coefficients(model(DispersionKind.EB_UNFACTORIZED, alpha=alpha))
        assert abs(eb[0] - fe[0]) < 1e-10
        assert abs(eb[1] - fe[1]) < 1e-10
        if alpha == 1.0:
            assert abs(eb[2] - fe[2]) < 1e-10
        else:
            assert abs(eb[2] - fe[2]) > 1e-3


def test_velocities_shallow_water_limit():
    for gravity, depth in [(1.0, 1.0), (9.81, 2.5)]:
        m = model(DispersionKind.FULL_EULER, gravity=gravity, depth=depth)
        cp, cg = velocities(m, np.array([1e-6]))
        c0 = np.sqrt(gravity * depth)
        assert cp[0] == pytest.approx(c0, rel=1e-9)
        assert cg[0] == pytest.approx(c0, rel=1e-9)


def test_phase_velocity_from_omega():
    cp, _ = velocities(model(DispersionKind.EB_UNFACTORIZED), np.array([1.0]))
    assert cp[0] == pytest.approx(np.sqrt(47.0 / 61.0), rel=1e-12)


def test_group_velocity_against_closed_form():
    # full Euler group velocity: Cg = Cp/2 (1 + 2k/sinh(2k))
    k = np.array([0.3, 1.0, 2.5, 7.0])
    cp, cg = velocities(model(DispersionKind.FULL_EULER), k)
    expected = 0.5 * cp * (1.0 + 2.0 * k / np.sinh(2.0 * k))
    assert np.allclose(cg, expected, rtol=1e-9)


def test_factorized_phase_ratio_near_one():
    m = model(DispersionKind.EB_FACTORIZED, alpha=1.0555)
    k = np.linspace(0.02, 10.0, 500)
    cp, _ = velocities(m, k)
    cp_s, _ = velocities(stokes_reference(m), k)
    assert np.max(np.abs(cp / cp_s - 1.0)) < 0.05


def test_weighted_error_self_comparison_vanishes():
    assert weighted_error(model(DispersionKind.FULL_EULER), 1.0, 5.0) < 1e-20


def test_weighted_error_positive_and_finite():
    err = weighted_error(model(DispersionKind.EB_UNFACTORIZED), 0.8351, 1.0)
    assert 0.0 < err < 1e-3


def test_weighted_error_raises_where_unstable():
    with pytest.raises(DispersionInstabilityError):
        weighted_error(model(DispersionKind.EB_FACTORIZED), 0.2, 10.0)


def test_optimize_alpha_reproduces_reported_optima():
    a1, e1 = optimize_alpha(model(DispersionKind.EB_UNFACTORIZED), 1.0)
    assert a1 == pytest.approx(0.8351, abs=5e-3)
    assert e1 > 0.0
    a2, _ = optimize_alpha(model(DispersionKind.EB_FACTORIZED), 10.0)
    assert a2 == pytest.approx(1.0555, abs=2e-2)
    a3, _ = optimize_alpha(model(DispersionKind.EB_UNFACTORIZED), 2.0)
    assert a3 == pytest.approx(0.4529, abs=2e-2)


def test_optimize_alpha_matches_grid_scan():
    m = model(DispersionKind.EB_UNFACTORIZED)
    a_gold, _ = optimize_alpha(m, 1.0)
    alphas = np.linspace(0.1, 2.0, 10_000)
    errs = [weighted_error(m, a, 1.0, panels=400) for a in alphas]
    a_scan = alphas[int(np.argmin(errs))]
    assert abs(a_gold - a_scan) < 2e-3
    # continuity: neighboring samples never jump
    diffs = np.abs(np.diff(errs))
    assert np.max(diffs) < 1e-2


def test_optimize_alpha_rejects_bracket_edge():
    with pytest.raises(ConfigurationError, match=r"1\.500\d+ .*\[1\.5, 2\].*K = 1\b"):
        optimize_alpha(model(DispersionKind.EB_UNFACTORIZED), 1.0, bracket=(1.5, 2.0))


def test_stability_bound_printed_values():
    assert float(stability_bound(ModelVariant.UNFACTORIZED, 10.0)) \
        == pytest.approx(20045.0 / 3000.0, rel=1e-14)
    assert float(stability_bound(ModelVariant.FIFTH_ONLY_FACTORIZED, 10.0)) \
        == pytest.approx(21545.0 / 103000.0, rel=1e-14)
    # large-k limit of the fifth-only bound
    assert float(stability_bound(ModelVariant.FIFTH_ONLY_FACTORIZED, 1e4)) \
        == pytest.approx(0.2, abs=1e-6)
    # factorized bound at alpha=1 differs from the unfactorized one by 1/2
    k = 3.7
    assert float(stability_bound(ModelVariant.FACTORIZED_ALL, k, 1.0)) \
        == pytest.approx(float(stability_bound(ModelVariant.UNFACTORIZED, k)) + 0.5,
                         rel=1e-12)


_LIN_PAIRS = [
    (DispersionKind.LIN_UNFACTORIZED, ModelVariant.UNFACTORIZED, 1.0),
    (DispersionKind.LIN_FIFTH_ONLY, ModelVariant.FIFTH_ONLY_FACTORIZED, 1.0),
    (DispersionKind.LIN_FACTORIZED, ModelVariant.FACTORIZED_ALL, 1.0),
    (DispersionKind.LIN_FACTORIZED, ModelVariant.FACTORIZED_ALL, 1.0555),
]


@pytest.mark.parametrize("kind,variant,alpha", _LIN_PAIRS)
def test_instability_flag_matches_bound(kind, variant, alpha):
    # brute-force sign equivalence on a (k, zeta_b) grid
    for k in [0.5, 1.0, 2.0, 5.0, 10.0]:
        bound = float(stability_bound(variant, k, alpha))
        for zb in np.linspace(-0.5, 2.0 * min(bound, 4.0), 23):
            if abs(zb - bound) < 1e-9 or zb <= -1.0:
                continue
            m = model(kind, alpha=alpha, background=(zb, 0.0))
            unstable = omega_squared(m, k) < 0.0
            assert unstable == (zb > bound), (kind, k, zb, bound)


def test_velocities_signal_instability():
    m = model(DispersionKind.LIN_FIFTH_ONLY, background=(0.6, 0.0))
    with pytest.raises(DispersionInstabilityError):
        velocities(m, np.array([10.0]))


def test_linearized_doppler_shift():
    m = model(DispersionKind.LIN_UNFACTORIZED, background=(0.1, 0.3))
    m0 = model(DispersionKind.LIN_UNFACTORIZED, background=(0.1, 0.0))
    k = 2.0
    assert omega(m, k) == pytest.approx(omega(m0, k) + k * 0.3, rel=1e-12)


def test_linearized_relations_require_alpha_one():
    with pytest.raises(ValueError):
        model(DispersionKind.LIN_UNFACTORIZED, alpha=1.2)
    with pytest.raises(ValueError):
        model(DispersionKind.LIN_FIFTH_ONLY, alpha=0.9)
    model(DispersionKind.LIN_FACTORIZED, alpha=1.2)  # allowed
