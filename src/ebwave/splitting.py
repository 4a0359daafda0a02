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
where the benchmark's trace wraps it. dt is the hyperbolic CFL step; the
dispersive step splits it into as many RK4 substeps as the velocity
gradient entering it asks for (``StrangSolver.dispersive_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlowUpError, Grid, ModelVariant, PhysParams, StallError, State
from . import dispersive
# the conversion is defined with the other circulants and re-exported here,
# where the benchmark's trace patches its methods
from .dispersive import (ConversionOperator, DispersiveOperators,  # noqa: F401
                         build_operators, rk4_fd_step)
from .hyperbolic import Workspace, max_signal_speed, rk4_fv_step


# the CFL number of the scheme, and the one statement of it: every run steps
# at it. It bounds dt by the hyperbolic signal speed only; the dispersive
# step keeps its own stability by its substep count
# (``StrangSolver.dispersive_step``). At 0.8 rather than 0.4 the solitary
# errors move by under 2 %: the slope limiter, not the time step, sets the
# error on smooth waves (``tests/test_scheme_dispersion.py``)
CFL = 0.8

# the largest rho * dt of one RK4 substep of the dispersive step, where rho
# bounds the spectral radius of the rate's Jacobian
# (``StrangSolver.dispersive_step``): inside RK4's stability interval of
# [-2.785, 0] on the real axis
RHO_DT_MAX = 2.0

# the most RK4 substeps one dispersive step may take: a velocity gradient
# that asks for more has collapsed the step, as STALL_FRACTION of the CFL
# step does in ``scenarios.strang_steps``
SUBSTEP_LIMIT = 100


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

    ``n_disp`` is the least number of equal explicit RK4 substeps of the
    dispersive step; ``dispersive_step`` takes more where the step's
    velocity gradient asks for them. ``blowup_threshold`` terminates the
    run with a BlowUpError as soon as max(|zeta|, |v|) exceeds it, which is
    the expected outcome of the high frequency instability demonstrations.
    Both half steps run on one ``Workspace``, built here and kept as
    ``workspace``.
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
        v = self.dispersive_step(zeta, v, dt)
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

    def dispersive_step(self, zeta: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
        """The nodal v after the dispersive step of length dt over the frozen
        nodal zeta, in n equal RK4 substeps; returns the new v.

        With rho = ``operators.jacobian_bound`` max|D1 v| at the v entering
        the step, n is the least count at or above ``n_disp`` with
        rho dt / n <= RHO_DT_MAX, so each substep lies inside RK4's
        stability interval. A non-finite rho takes ``n_disp`` substeps,
        whose non-finite result ``strang_step`` reports as a blow-up, and an
        n above SUBSTEP_LIMIT is a StallError, raised before any substep.
        zeta is frozen, so its source term is computed once, looked up in
        ``dispersive`` where the benchmark's trace wraps it, and shared by
        the substeps.
        """
        ops, ws = self.operators, self.workspace
        gradient = ops.d1.apply(ws.pad(v), ws.rate[0], ws.fd_tmp, ws.diffs)
        rho_dt = ops.jacobian_bound * float(np.abs(gradient, out=gradient).max()) * dt
        n = self.n_disp
        if n * RHO_DT_MAX < rho_dt < math.inf:
            n = math.ceil(rho_dt / RHO_DT_MAX)
            if n > SUBSTEP_LIMIT:
                raise StallError(f"the dispersive step of {dt:g} needs {n} RK4 substeps, "
                                 f"more than SUBSTEP_LIMIT = {SUBSTEP_LIMIT}")
        source = dispersive.zeta_source_term(ops, zeta, ws)
        for _ in range(n):
            v = rk4_fd_step(zeta, v, dt / n, ops, workspace=ws, source=source)
        return v
