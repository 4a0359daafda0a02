import numpy as np
import pytest

from ebwave.core import (ConfigurationError, ModelVariant, PhysParams, State,
                         build_grid, periodic_pad, relative_l2_error)


def test_grid_spacing_examples():
    assert build_grid(-2.0, 2.0, 512).dx == pytest.approx(4.0 / 512)
    assert build_grid(-2.0, 2.0, 512).dx == pytest.approx(0.0078125)
    assert build_grid(-700.0, 700.0, 2800).dx == pytest.approx(0.5)


def test_grid_centers_and_interfaces():
    grid = build_grid(0.0, 1.0, 8)
    assert grid.n_cells == 8
    assert grid.centers[0] == pytest.approx(0.0625)
    assert grid.interfaces[0] == pytest.approx(0.125)
    assert grid.centers.shape == (8,)
    # uniform spacing
    assert np.allclose(np.diff(grid.centers), grid.dx)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 1.0, 7)
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 0.0, 64)


def test_phys_params_validation():
    PhysParams(epsilon=0.5, alpha=1.0)
    with pytest.raises(ConfigurationError):
        PhysParams(epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        PhysParams(epsilon=1.5)
    with pytest.raises(ConfigurationError):
        PhysParams(epsilon=0.5, alpha=0.0)
    with pytest.raises(ConfigurationError):
        PhysParams(epsilon=0.5, gravity=-1.0)
    with pytest.raises(ConfigurationError):
        PhysParams(epsilon=0.5, depth=0.0)


def test_param_constructors():
    nd = PhysParams.nondimensional(0.1, alpha=1.0555)
    assert (nd.gravity, nd.depth) == (1.0, 1.0)
    si = PhysParams.dimensional(gravity=9.81, depth=1.0)
    assert si.epsilon == 1.0


def test_positivity_predicate_is_pure():
    state = State(np.array([0.0, -0.5, 0.2]) , np.zeros(3))
    params = PhysParams(epsilon=1.0)
    before = state.zeta.copy()
    assert state.is_hyperbolic(params)  # h = 1 - 0.5 > 0
    assert state.is_hyperbolic(PhysParams(epsilon=1.0, depth=0.4)) is False
    assert np.array_equal(state.zeta, before)


def test_cell_state_shape_check():
    with pytest.raises(ConfigurationError):
        State(np.zeros(4), np.zeros(5))


def test_model_variant_values():
    assert ModelVariant("factorized_all") is ModelVariant.FACTORIZED_ALL
    assert ModelVariant("unfactorized") is ModelVariant.UNFACTORIZED
    assert ModelVariant("fifth_only_factorized") is ModelVariant.FIFTH_ONLY_FACTORIZED


def test_relative_l2_error_examples():
    ref = np.array([1.0, 2.0, -1.0])
    assert relative_l2_error(ref, ref) == 0.0
    assert relative_l2_error(2.0 * ref, ref) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_l2_error(ref, np.zeros(3))
    with pytest.raises(ValueError):
        relative_l2_error(ref, np.zeros(4))


def test_periodic_pad():
    u = np.arange(5.0)
    assert np.array_equal(periodic_pad(u, 2), [3, 4, 0, 1, 2, 3, 4, 0, 1])
    assert np.array_equal(periodic_pad(u, 5), np.tile(u, 3))
    assert np.array_equal(periodic_pad(u, 0), u)
    with pytest.raises(ConfigurationError):
        periodic_pad(u, 6)
