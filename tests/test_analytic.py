import numpy as np
import pytest

from ebwave.analytic import (SolitaryWaveSpec, base_wave, corrected_solution,
                             corrector_source, dam_break_profile,
                             gaussian_corrector_profile, heap_profile,
                             profile_derivative)


def at(fun, x, step):
    """``fun`` sampled by offset, as ``profile_derivative`` takes it."""
    return lambda m: fun(x + m * step)


def test_wave_speed_examples():
    assert SolitaryWaveSpec(0.4, 0.1).speed == pytest.approx(1.0206, abs=5e-5)
    assert SolitaryWaveSpec(0.2, 0.1).speed == pytest.approx(1.0102, abs=5e-5)
    assert SolitaryWaveSpec(0.2, 0.1).kappa == pytest.approx(np.sqrt(0.15))


def test_spec_validation():
    with pytest.raises(ValueError):
        SolitaryWaveSpec(-0.1, 0.1)
    with pytest.raises(ValueError):
        SolitaryWaveSpec(amplitude=2.0, epsilon=0.6)  # a*eps >= 1
    with pytest.raises(ValueError):
        SolitaryWaveSpec(0.2, 0.1, direction=2)


def test_base_wave_peak_travels():
    spec = SolitaryWaveSpec(0.2, 0.01, x0=20.0)
    for t in [0.0, 3.7, 12.0]:
        crest = 20.0 + spec.speed * t
        zeta, v = base_wave(spec, t, np.array([crest]))
        assert zeta[0] == pytest.approx(0.2, rel=1e-12)
        assert v[0] == pytest.approx(spec.speed * 0.2 / (1 + 0.01 * 0.2), rel=1e-12)


def test_base_wave_direction_reflection():
    spec_r = SolitaryWaveSpec(0.3, 0.1, x0=0.0, direction=1)
    spec_l = SolitaryWaveSpec(0.3, 0.1, x0=0.0, direction=-1)
    x = np.linspace(-10, 10, 41)
    zr, vr = base_wave(spec_r, 1.5, x)
    zl, vl = base_wave(spec_l, 1.5, -x)
    assert np.allclose(zr, zl, atol=1e-14)
    assert np.allclose(vr, -vl, atol=1e-14)


def test_base_wave_no_overflow_far_away():
    spec = SolitaryWaveSpec(0.2, 0.01)
    with np.errstate(over="raise"):
        zeta, v = base_wave(spec, 0.0, np.array([1e6]))
    assert abs(zeta[0]) < 1e-300 and abs(v[0]) < 1e-300


def test_mass_flux_identity_is_exact():
    # d_t zeta + d_x((1+eps*zeta) v) = 0 holds exactly for the base wave
    spec = SolitaryWaveSpec(0.25, 0.2, x0=0.0)
    x = np.linspace(-8, 8, 101)
    step = 1e-3

    def flux(y):
        z, v = base_wave(spec, 0.0, y)
        return (1.0 + spec.epsilon * z) * v

    dflux = profile_derivative(at(flux, x, step), 1, step)
    dz_dt = spec.speed * profile_derivative(at(lambda y: base_wave(spec, 0.0, y)[0],
                                               x, step), 1, step)
    assert np.max(np.abs(-dz_dt + dflux)) < 1e-11


def test_momentum_residual_second_order_in_epsilon():
    # the base wave satisfies the weakly nonlinear momentum equation
    # (1 - eps/3 dxx) d_t v + d_x zeta + eps v d_x v = O(eps^2)
    x = np.linspace(-12, 12, 201)
    step = 2e-2
    residuals = []
    eps_list = [0.2, 0.1, 0.05]
    for eps in eps_list:
        spec = SolitaryWaveSpec(0.2, eps, x0=0.0)
        v_fun = lambda y: base_wave(spec, 0.0, y)[1]
        zeta_fun = lambda y: base_wave(spec, 0.0, y)[0]
        dt_v = -spec.speed * profile_derivative(at(v_fun, x, step), 1, step)
        dt_v_xx = -spec.speed * profile_derivative(at(v_fun, x, step), 3, step)
        res = (dt_v - eps / 3.0 * dt_v_xx
               + profile_derivative(at(zeta_fun, x, step), 1, step)
               + eps * v_fun(x) * profile_derivative(at(v_fun, x, step), 1, step))
        residuals.append(np.max(np.abs(res)))
    slopes = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(slopes) > 1.9


def test_profile_derivative_accuracy():
    x = np.linspace(-1.0, 1.0, 11)
    for order in range(1, 6):
        got = profile_derivative(at(np.sin, x, 0.05), order, 0.05)
        want = np.sin(x + order * np.pi / 2)
        assert np.allclose(got, want, atol=1e-8)


def test_corrector_source_decays():
    spec = SolitaryWaveSpec(0.2, 0.01, x0=0.0)
    far = corrector_source(spec, 0.0, np.array([-80.0, 80.0]))
    assert np.max(np.abs(far)) < 1e-12


def test_corrector_source_odd_about_crest():
    spec = SolitaryWaveSpec(0.2, 0.01, x0=5.0)
    t = 2.0
    crest = 5.0 + spec.speed * t
    s = np.linspace(0.1, 6.0, 25)
    left = corrector_source(spec, t, crest - s)
    right = corrector_source(spec, t, crest + s)
    assert np.max(np.abs(right + left)) < 1e-9


def nested_corrector_source(spec, t, x):
    """The source with its stress term d_x(v1 v1_xx - v1_x^2) taken as a
    nested difference of the differentiated profile (oracle for the
    product-rule form)."""
    import ebwave.analytic as analytic
    c_signed = spec.direction * spec.speed
    step = analytic._fd_step(spec)
    zeta_fun = lambda y: base_wave(spec, t, y)[0]
    v_fun = lambda y: base_wave(spec, t, y)[1]
    dzeta = profile_derivative(at(zeta_fun, x, step), 1, step)
    dv = [profile_derivative(at(v_fun, x, step), n, step) for n in range(6)]
    advective = (dzeta * dv[2] + 2.0 / 3.0 * zeta_fun(x) * dv[3] + dv[5] / 45.0)
    stress = lambda y: (v_fun(y) * profile_derivative(at(v_fun, y, step), 2, step)
                        - profile_derivative(at(v_fun, y, step), 1, step) ** 2)
    return -c_signed * advective + profile_derivative(at(stress, x, step), 1, step) / 3.0


@pytest.mark.parametrize("spec,x", [
    (SolitaryWaveSpec(0.2, 0.01, x0=20.0), np.linspace(0.0, 100.0, 401)),
    (SolitaryWaveSpec(0.4, 0.1, x0=-50.0), np.linspace(-100.0, 100.0, 401)),
    (SolitaryWaveSpec(0.2, 0.1, x0=50.0, direction=-1), np.linspace(-100.0, 100.0, 401))])
def test_corrector_source_matches_the_nested_stress_difference(spec, x):
    for t in (0.0, 1.3):
        oracle = nested_corrector_source(spec, t, x)
        assert np.max(np.abs(corrector_source(spec, t, x) - oracle)) \
            <= 1e-9 * np.max(np.abs(oracle))


def test_corrector_source_richardson_stability():
    import ebwave.analytic as analytic
    spec = SolitaryWaveSpec(0.2, 0.01, x0=0.0)
    probe = np.array([0.8])
    base_step = analytic._fd_step(spec)
    vals = {}
    orig = analytic._fd_step
    try:
        for scale in (1.0, 0.5):
            analytic._fd_step = lambda s: base_step * scale
            vals[scale] = float(corrector_source(spec, 0.0, probe)[0])
    finally:
        analytic._fd_step = orig
    assert abs(vals[1.0] - vals[0.5]) < 1e-8


def test_corrected_solution_at_time_zero():
    spec = SolitaryWaveSpec(0.2, 0.1, x0=20.0)
    x = np.linspace(0.0, 40.0, 81)
    zeta, v = corrected_solution(spec, 0.0, x)
    z1, v1 = base_wave(spec, 0.0, x)
    g = gaussian_corrector_profile(x, 20.0)
    assert np.allclose(zeta, z1 + 0.1 ** 2 * g, atol=1e-14)
    assert np.allclose(v, v1 + 0.1 ** 2 * g, atol=1e-14)


def test_corrected_solution_zero_epsilon_reduces_to_base():
    spec = SolitaryWaveSpec(0.2, 0.0, x0=0.0)
    x = np.linspace(-10, 10, 41)
    zeta, v = corrected_solution(spec, 1.5, x)
    z1, v1 = base_wave(spec, 1.5, x)
    assert np.array_equal(zeta, z1)
    assert np.array_equal(v, v1)


def test_corrected_solution_quadrature_refinement():
    spec = SolitaryWaveSpec(0.2, 0.01, x0=20.0)
    x = np.linspace(10.0, 30.0, 64)
    coarse, _ = corrected_solution(spec, 1.0, x)
    fine, _ = corrected_solution(spec, 1.0, x, substep=0.025)
    assert np.max(np.abs(coarse - fine)) < 1e-8


def test_heap_profiles():
    x = np.array([0.0, 0.5, 30.0])
    hf = heap_profile("high_freq", x)
    lf = heap_profile("low_freq", x)
    assert hf[0] == pytest.approx(0.7)
    assert lf[0] == pytest.approx(0.7)
    assert hf[1] == pytest.approx(0.7 * np.exp(-20.0))
    assert lf[1] == pytest.approx(0.7 * np.exp(-0.1))
    assert hf[2] < 1e-200 and lf[2] < 1e-100
    with pytest.raises(ValueError):
        heap_profile("medium", x)


def test_dam_break_profile():
    a = 0.2091
    x = np.linspace(-700, 700, 2801)
    zeta = dam_break_profile(a, x)
    assert dam_break_profile(a, np.array([0.0]))[0] == pytest.approx(2 * a, rel=1e-12)
    assert dam_break_profile(a, np.array([250.0]))[0] == pytest.approx(a)
    assert dam_break_profile(a, np.array([-250.0]))[0] == pytest.approx(a)
    assert np.array_equal(zeta, zeta[::-1])
