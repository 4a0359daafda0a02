"""Strang composition of the shallow-water and dispersive solvers.

One time step is S1(dt/2) S2(dt) S1(dt/2): a finite-volume half step on
cell averages, a finite-difference full step on nodal point values, and a
second finite-volume half step. The switch between the two representations
is a high-order five-point map from cell averages to point values and its
exact circulant inverse. Because the dispersive step leaves the surface
untouched, zeta skips the conversion round trip entirely and mass
bookkeeping reduces to the conservative finite-volume update.

This module takes one step at a time (``StrangSolver.strang_step``); the
loop that chooses dt and lands on output times is ``scenarios.strang_steps``,
the only one in the package. It looks ``choose_dt`` up in ``scenarios``,
where the benchmark's trace wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlowUpError, Grid, ModelVariant, PhysParams, State
from .dispersive import (CirculantSolver, DispersiveOperators, FDWorkspace, PairStencil,
                         build_operators, fd_workspace, fourier_harmonics, rk4_fd_step)
from .hyperbolic import FVWorkspace, max_signal_speed, rk4_fv_step

# cell averages -> point values at the cell centers (deconvolution of the
# sliding mean), symmetric five-point map exact through sixth order
_CONVERSION = {-2: 27 / 5760, -1: -348 / 5760, 0: 6402 / 5760,
               1: -348 / 5760, 2: 27 / 5760}
_CONVERSION_PAIRS = PairStencil.of(_CONVERSION, total=1.0)


class ConversionOperator:
    """Switch between cell-averaged and nodal (point value) representations.

    Nodal unknowns live at the cell centers, so the forward map is the
    symmetric deconvolution of the sliding cell average,

        U_i = (27 Ub_{i-2} - 348 Ub_{i-1} + 6402 Ub_i
               - 348 Ub_{i+1} + 27 Ub_{i+2}) / 5760,

    whose Fourier symbol increases monotonically from 1 to 149/120 over
    the resolved band, hence never vanishes: the map is invertible on any
    grid and the inverse is the precomputed circulant factorization, making
    the round trip the identity to round-off. The symmetry of the stencil
    is what lets reflection-symmetric states stay symmetric through the
    split scheme; a staggered (interface-based) switch cannot be both
    invertible and reflection-equivariant, because any stencil symmetric
    about a half-integer point annihilates the Nyquist mode.

    The forward map is applied in pair form and the inverse through the
    precomputed multiplier; both take their scratch from an ``FDWorkspace``
    (a new one when none is passed) and allocate only their result.
    """

    def __init__(self, n_cells: int):
        if n_cells < 5:
            raise ValueError("conversion stencil needs at least 5 cells")
        self.n = n_cells
        self._solver = CirculantSolver(_CONVERSION, n_cells, "cell-to-nodal map", total=1.0)

    def forward(self, field: np.ndarray, workspace: FDWorkspace | None = None) -> np.ndarray:
        ws = fd_workspace(self.n, workspace)
        return _CONVERSION_PAIRS.apply(ws.pad(field), np.empty(self.n), ws.tmp, ws.diffs)

    def inverse(self, field: np.ndarray, workspace: FDWorkspace | None = None) -> np.ndarray:
        spectrum = None if workspace is None else workspace.spectrum
        return self._solver.solve(field, spectrum=spectrum)


def cell_to_nodal(state: State, conv: ConversionOperator,
                  workspace: FDWorkspace | None = None) -> State:
    """Point values of both components at the cell centers."""
    return State(conv.forward(state.zeta, workspace),
                      conv.forward(state.v, workspace))


def nodal_to_cell(state: State, conv: ConversionOperator) -> State:
    """Exact inverse of :func:`cell_to_nodal` through the factorized map."""
    return State(conv.inverse(state.zeta), conv.inverse(state.v))


def choose_dt(state: State, params: PhysParams, dx: float,
              cfl: float = 0.4) -> float:
    """Hyperbolic CFL time step, dt = cfl dx / max(|eps v| + sqrt(g h))."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must be in (0, 1]")
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
        self.max_amplitude = float(max(np.max(np.abs(self.cells.zeta)),
                                       np.max(np.abs(self.cells.v))))


class StrangSolver:
    """Owns the operators of one simulation and advances it step by step.

    ``n_disp`` splits the dispersive step into that many equal explicit
    substeps (the hyperbolic CFL gives no bound for the dispersive part, so
    the knob exists; the default of 1 is adequate for every bundled case).
    ``blowup_threshold`` terminates the run with a BlowUpError as soon as
    max(|zeta|, |v|) exceeds it, which is the expected outcome of the
    high frequency instability demonstrations.
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
        self.conversion = ConversionOperator(grid.n_cells)
        # the symbols above shared one cos/sin table; the run needs it no more,
        # and kept it would add 0.75 MiB to the resident memory at N = 65536
        fourier_harmonics.cache_clear()
        # the dispersive step never overlaps the hyperbolic ones, so its
        # buffers reuse the FV workspace's memory instead of adding to it
        self.fv_workspace = FVWorkspace(grid.n_cells,
                                        memory_size=FDWorkspace.size(grid.n_cells))
        self.fd_workspace = FDWorkspace(grid.n_cells, memory=self.fv_workspace.memory)

    def strang_step(self, run: RunState, dt: float) -> RunState:
        """One S1(dt/2) S2(dt) S1(dt/2) step; returns a fresh RunState."""
        dx = self.grid.dx
        cells = rk4_fv_step(run.cells, 0.5 * dt, self.params, dx,
                            workspace=self.fv_workspace)

        nodal = cell_to_nodal(cells, self.conversion, self.fd_workspace)
        sub = dt / self.n_disp
        for _ in range(self.n_disp):
            nodal = rk4_fd_step(nodal, sub, self.operators, workspace=self.fd_workspace)
        # d zeta/dt = 0 in the dispersive part: keep the cell-averaged zeta
        # as is instead of converting it forth and back.
        cells = State(cells.zeta,
                          self.conversion.inverse(nodal.v, self.fd_workspace))

        cells = rk4_fv_step(cells, 0.5 * dt, self.params, dx,
                            workspace=self.fv_workspace)

        out = RunState(t=run.t + dt, cells=cells, step_count=run.step_count + 1)
        out.update_diagnostics(dx)
        if not np.isfinite(out.max_amplitude) or out.max_amplitude > self.blowup_threshold:
            raise BlowUpError(
                f"amplitude {out.max_amplitude:g} exceeded threshold "
                f"{self.blowup_threshold:g} at t = {out.t:g}", time=out.t)
        return out
