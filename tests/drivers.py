"""Allocating drivers of the production kernels, and the config writer.

Each driver runs one kernel of the package as the solver runs it, on
scratch of its own, and returns arrays that the caller owns:

* ``stencil``: a centered difference, as the ``PairStencil`` of its order
  on a ``Workspace``;
* ``faces``: the limited faces, from the C kernel's ``fv_faces`` through
  ``hyperbolic.limited_faces``;
* ``flux``: the Rusanov flux, from the C kernel's ``fv_flux``;
* ``block_width``: the cells per block of the C kernel's rate, read from
  the library, where the number is stated;
* ``conversion``: the cell-to-nodal map of a grid, as ``build_operators``
  builds it.

``write_config`` writes a config in the ``key = value`` format that
``scenarios.read_config`` reads; the package itself only reads configs.
"""

import ctypes
from dataclasses import fields
from pathlib import Path

import numpy as np

from ebwave.core import Grid, HyperbolicityError, ModelVariant, PhysParams
from ebwave.dispersive import _PAIRS, ConversionOperator, build_operators
from ebwave.hyperbolic import Workspace, kernel, limited_faces
from ebwave.scenarios import FLOAT_FMT, ScenarioConfig


def stencil(order: int, field, dx: float) -> np.ndarray:
    """The fourth-order centered difference of derivative ``order`` (1 to 5)
    of the periodic ``field``, scaled by dx^-order."""
    field = np.asarray(field, dtype=float)
    ws = Workspace(field.shape[0])
    return _PAIRS[order].scaled(dx ** -order).apply(
        ws.pad(field), np.empty_like(field), ws.fd_tmp, ws.diffs)


def faces(zeta, v) -> tuple[np.ndarray, ...]:
    """(zeta_right, zeta_left, v_right, v_left) of two periodic fields:
    *_right is the limited value at the right face x_{i+1/2} seen from
    cell i, *_left the one at the left face x_{i-1/2}."""
    return (*limited_faces(zeta), *limited_faces(v))


def flux(zeta_l, v_l, zeta_r, v_r, params) -> tuple:
    """Rusanov flux (flux_zeta, flux_v) between the left and right states,
    broadcast against each other; scalars for scalar sides."""
    sides = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                  for a in (zeta_l, v_l, zeta_r, v_r)))
    shape, size = sides[0].shape, sides[0].size
    flat = [a.ravel() for a in sides]          # contiguous, copied where broadcast
    fluxes = np.empty((2, size))
    if kernel().fv_flux(*(a.ctypes.data for a in flat), size, params.epsilon,
                        params.gravity, params.depth, *(f.ctypes.data for f in fluxes)):
        raise HyperbolicityError("nonpositive water column in flux evaluation")
    return tuple(f.reshape(shape)[()] for f in fluxes)


def block_width() -> int:
    """Cells per block of the C kernel's rate, as the library states it."""
    return ctypes.c_long.in_dll(kernel(), "FV_BLOCK").value


def conversion(n: int) -> ConversionOperator:
    """The ``ConversionOperator`` of an n-cell grid, from ``build_operators``;
    it depends on n alone."""
    return build_operators(Grid(0.0, 1.0, n), PhysParams(0.0),
                           ModelVariant.FACTORIZED_ALL).conversion


# field annotation of ScenarioConfig -> the text of its value in the file
_FORMATS = {
    "str": str,
    "int": str,
    "float": FLOAT_FMT.__mod__,
    "bool": lambda value: "true" if value else "false",
    "tuple[float, ...]": lambda value: ",".join(FLOAT_FMT % v for v in value),
}


def write_config(config, path) -> None:
    """One ``key = value`` line per field of ``ScenarioConfig``, read from
    ``config`` as attributes, so that an object which no constructor has
    checked can be written too; floats as FLOAT_FMT, so that
    ``read_config`` returns an equal config."""
    lines = [f"{f.name} = {_FORMATS[f.type](getattr(config, f.name))}"
             for f in fields(ScenarioConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
