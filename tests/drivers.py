"""Allocating drivers of the production kernels, and the config writer.

Each driver runs one kernel of the package as the solver runs it, on
scratch of its own, and returns arrays that the caller owns:

* ``stencil``: a centered difference, as the ``PairStencil`` of its order
  on a ``Workspace``;
* ``faces``: the limited faces, as ``_FaceKernel.faces`` on the strips of
  a ``Workspace``;
* ``flux``: the Rusanov flux, as ``_rusanov`` on five scratch rows;
* ``conversion``: the cell-to-nodal map of a grid, as ``build_operators``
  builds it.

``write_config`` writes a config in the ``key = value`` format that
``scenarios.read_config`` reads; the package itself only reads configs.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np

from ebwave.core import Grid, ModelVariant, PhysParams
from ebwave.dispersive import _PAIRS, ConversionOperator, build_operators
from ebwave.hyperbolic import Workspace, _face_outputs, _FaceKernel, _rusanov
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
    return _face_outputs((zeta, v), _FaceKernel.faces)


def flux(zeta_l, v_l, zeta_r, v_r, params) -> tuple:
    """Rusanov flux (flux_zeta, flux_v) between the left and right states,
    broadcast against each other; scalars for scalar sides."""
    sides = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                  for a in (zeta_l, v_l, zeta_r, v_r)))
    shape, size = sides[0].shape, sides[0].size
    fluxes = _rusanov(*(a.ravel() for a in sides), params, tuple(np.empty((5, size))))
    return tuple(f.reshape(shape)[()] for f in fluxes)


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
