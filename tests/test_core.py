from fractions import Fraction

import numpy as np
import pytest

from ebwave.core import (ConfigurationError, Grid, ModelVariant, PhysParams, State,
                         central_weights, relative_l2_error, simpson_weights)


def test_grid_spacing_examples():
    assert Grid(-2.0, 2.0, 512).dx == pytest.approx(4.0 / 512)
    assert Grid(-2.0, 2.0, 512).dx == pytest.approx(0.0078125)
    assert Grid(-700.0, 700.0, 2800).dx == pytest.approx(0.5)


def test_grid_centers_and_interfaces():
    grid = Grid(0.0, 1.0, 8)
    assert grid.n_cells == 8
    assert grid.centers[0] == pytest.approx(0.0625)
    assert grid.centers[0] + 0.5 * grid.dx == pytest.approx(0.125)   # right interface
    assert grid.centers.shape == (8,)
    # uniform spacing
    assert np.allclose(np.diff(grid.centers), grid.dx)


def test_grid_validation():
    with pytest.raises(ConfigurationError, match="n_cells = 7 is below the minimum of 8"):
        Grid(0.0, 1.0, 7)
    assert Grid(0.0, 1.0, 8).n_cells == 8
    assert Grid(0.0, 1.0, np.int64(8)).n_cells == 8
    for bad in (float("nan"), 8.0, True):
        with pytest.raises(ConfigurationError, match="n_cells must be an integer"):
            Grid(0.0, 1.0, bad)
    with pytest.raises(ConfigurationError):
        Grid(1.0, 0.0, 64)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="x_min must be finite"):
            Grid(bad, 1.0, 16)
        with pytest.raises(ConfigurationError, match="x_max must be finite"):
            Grid(0.0, bad, 16)


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
    for name in ("epsilon", "alpha", "gravity", "depth"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                PhysParams(**{"epsilon": 0.5, name: bad})


def test_param_constructors():
    nd = PhysParams(0.1, alpha=1.0555)
    assert (nd.gravity, nd.depth) == (1.0, 1.0)


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


def test_central_weights_of_the_eighth_order_first_derivative_are_exact():
    exact = [Fraction(1, 280), Fraction(-4, 105), Fraction(1, 5), Fraction(-4, 5), 0,
             Fraction(4, 5), Fraction(-1, 5), Fraction(4, 105), Fraction(-1, 280)]
    weights = central_weights(1, 4)
    assert weights == tuple(float(w) for w in exact)
    assert all(type(w) is float for w in weights)


@pytest.mark.parametrize("order,half_width", [(3, 1), (5, 2), (2, 0)])
def test_central_weights_reject_a_stencil_too_narrow_for_the_order(order, half_width):
    with pytest.raises(ValueError, match="stencil too narrow"):
        central_weights(order, half_width)


@pytest.mark.parametrize("panels", [2, 3, 8, 11])
def test_simpson_weights_integrate_a_cubic_exactly(panels):
    weights = simpson_weights(panels)
    assert weights.shape == (panels + panels % 2 + 1,)
    s = np.linspace(-1.0, 2.0, weights.shape[0])
    step = s[1] - s[0]
    # int_{-1}^{2} (s^3 - 2 s^2 + 3) ds = 15/4 - 6 + 9
    assert step / 3.0 * np.sum(weights * (s ** 3 - 2.0 * s ** 2 + 3.0)) \
        == pytest.approx(6.75, rel=1e-14)
