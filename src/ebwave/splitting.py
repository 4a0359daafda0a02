"""Strang composition of the shallow-water and dispersive solvers.

One time step is S1(dt/2) S2(dt) S1(dt/2): a finite-volume half step on
cell averages, a finite-difference full step on nodal point values, and a
second finite-volume half step. The switch between the two representations
is a high-order five-point map from cell averages to point values and its
exact circulant inverse, ``dispersive.ConversionOperator``: one more
periodic circulant of the finite-difference layer, built by
``build_operators`` with J, P and K and reached here as
``operators.conversion``. This module re-exports it, and the benchmark's
trace patches its ``forward`` and ``inverse`` through this module. The
dispersive step (``rk4_fd_step``) takes the point values of zeta and v as
bare arrays, returns the new v and leaves the surface untouched, so zeta
skips the conversion's inverse entirely and mass bookkeeping reduces to
the conservative finite-volume update.

This module takes one step at a time (``StrangSolver.strang_step``); the
loop that chooses dt and lands on output times is ``scenarios.strang_steps``,
the only one in the package. It looks ``choose_dt`` up in ``scenarios``,
where the benchmark's trace wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlowUpError, Grid, ModelVariant, PhysParams, State
# the conversion is defined with the other circulants and re-exported here,
# where the benchmark's trace patches its methods
from .dispersive import (ConversionOperator, DispersiveOperators,  # noqa: F401
                         build_operators, rk4_fd_step)
from .hyperbolic import Workspace, max_signal_speed, rk4_fv_step


# the CFL number of the scheme. Every run steps at it, so the a-priori bound
# on the dispersive substep, rho*dt <= 6*CFL/alpha, holds for every run:
# within RK4's real-axis limit of 2.785 for alpha >= 0.87
CFL = 0.4


def choose_dt(state: State, params: PhysParams, dx: float, cfl=CFL) -> float:
    """Hyperbolic CFL time step, dt = cfl dx / max(|eps v| + sqrt(g h))."""
    speed = float(np.max(max_signal_speed(state.zeta, state.v, params)))
    return cfl * dx / speed


@dataclass
class RunState:
    """Simulation clock plus the current cell-averaged state and diagnostics."""

    t: float
    cells: State
    step_count: int = 0
    mass: float = 0.0
    max_amplitude: float = 0.0

    @classmethod
    def initial(cls, cells: State, dx: float) -> "RunState":
        run = cls(t=0.0, cells=cells)
        run.update_diagnostics(dx)
        return run

    def update_diagnostics(self, dx: float):
        self.mass = float(np.sum(self.cells.zeta) * dx)
        # np.maximum, unlike max, keeps a NaN in either field
        self.max_amplitude = float(np.maximum(np.max(np.abs(self.cells.zeta)),
                                              np.max(np.abs(self.cells.v))))


class StrangSolver:
    """Owns the operators of one simulation and advances it step by step.

    ``n_disp`` splits the dispersive step into that many equal explicit
    substeps. Runs through ``scenarios.strang_steps`` take the CFL step and
    one substep (``ScenarioConfig.n_disp``); nothing derives the count from
    dt yet, so a caller of ``strang_step`` with a larger dt may ask for more.
    ``blowup_threshold`` terminates the run with a BlowUpError as soon as
    max(|zeta|, |v|) exceeds it, which is the expected outcome of the
    high frequency instability demonstrations. Both half steps run on
    one ``Workspace``, built here and kept as ``workspace``.
    """

    def __init__(self, grid: Grid, params: PhysParams,
                 variant: ModelVariant = ModelVariant.FACTORIZED_ALL,
                 n_disp: int = 1, blowup_threshold: float = 100.0):
        if n_disp < 1:
            raise ValueError("n_disp must be at least 1")
        self.grid = grid
        self.params = params
        self.variant = variant
        self.n_disp = n_disp
        self.blowup_threshold = blowup_threshold
        self.operators: DispersiveOperators = build_operators(grid, params, variant)
        self.workspace = Workspace(grid.n_cells)

    def strang_step(self, run: RunState, dt: float) -> RunState:
        """One S1(dt/2) S2(dt) S1(dt/2) step; returns a fresh RunState.

        The one place where a blow-up is decided: a BlowUpError at ``run.t``
        when the dispersive substeps leave a non-finite velocity (it is not
        converted back), else at the new time when max(|zeta|, |v|) is
        non-finite or above ``blowup_threshold``.
        """
        dx, ws = self.grid.dx, self.workspace
        cells = rk4_fv_step(run.cells, 0.5 * dt, self.params, dx, workspace=ws)

        conversion = self.operators.conversion
        zeta = conversion.forward(cells.zeta, ws)
        v = conversion.forward(cells.v, ws)
        for _ in range(self.n_disp):
            v = rk4_fd_step(zeta, v, dt / self.n_disp, self.operators, workspace=ws)
        # min and max propagate NaN and reach any infinity, without a mask array
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise BlowUpError("non-finite velocity after dispersive step", time=run.t)
        # d zeta/dt = 0 in the dispersive part: keep the cell-averaged zeta
        # as is instead of converting it forth and back.
        cells = State(cells.zeta, conversion.inverse(v, spectrum=ws.spectrum))

        cells = rk4_fv_step(cells, 0.5 * dt, self.params, dx, workspace=ws)

        out = RunState(t=run.t + dt, cells=cells, step_count=run.step_count + 1)
        out.update_diagnostics(dx)
        if not np.isfinite(out.max_amplitude) or out.max_amplitude > self.blowup_threshold:
            raise BlowUpError(
                f"amplitude {out.max_amplitude:g} exceeded threshold "
                f"{self.blowup_threshold:g} at t = {out.t:g}", time=out.t)
        return out
