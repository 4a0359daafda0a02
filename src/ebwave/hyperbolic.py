"""Finite-volume solver for the shallow-water half of the splitting.

The conserved pair is U = (zeta, v) with flux

    F(U) = ( h v,  eps/2 v^2 + g zeta ),   h = h0 + eps zeta,

and Jacobian eigenvalues eps*v +- sqrt(g h). Interfaces are fed with
high-order reconstructed cell values run through a three-argument slope
limiter, and the interface flux is the Rusanov (local Lax-Friedrichs)
two-point flux. Everything is periodic: the neighbors of the first and
last cells are read across the wrap.

Workspace. Every buffer of a whole Strang step, both half steps, lives
in one ``Workspace``, built once per grid (``StrangSolver`` keeps one and
passes it to every kernel): the RK4 stage state, rate and running sum, each
one contiguous (2, n) block whose arithmetic runs as one flat pass over
both fields, and the buffers of the dispersive step, which sit in memory
that this step leaves idle (see ``Workspace``). The kernels write every
result through ``out=``, so a step allocates only its result arrays.
Without the workspace a step at N = 65536 allocated about a hundred
512 KiB temporaries per rate evaluation, and the page faults of handing
them back to the OS and taking them again cost more than the arithmetic.
The workspace is an anonymous memory mapping of its own, so a dropped
solver gives its pages back to the OS whatever the allocator did before
(see ``Workspace``).

Kernel. The rate is one call of ``fv_rate`` in ``fv_kernel.c``, the C
source beside this module, loaded through ``ctypes``. It walks the grid in
blocks of ``FV_BLOCK`` = 1024 cells; per block it computes the limited
faces of cells start-1 .. end of both fields (``fv_faces``), the Rusanov
flux of the block's interfaces (``fv_flux``) and -(F+ - F-)/dx into
``workspace.rate``. Its scratch, the faces and fluxes of one block and
the windows of the two blocks that wrap around the periodic ends (about
66 KiB), lives on the C stack; every other block reads the fields in
place. So it needs no padded copies and no N-sized scratch.

* Operation order. Every scalar operation of the C loop is the one of the
  plain allocating formulas (``reconstruction_deltas``, ``limiter``, and
  the faces and flux of the tests' allocating oracle), in their order, or
  one whose result IEEE arithmetic guarantees to be the same bits: b - a
  for -a + b, the two faces of a cell sharing the cap and the
  sign-agreement factor of L (symmetric in its first two arguments), the
  sign scaled by 1/2 instead of the slope (a slope min(..) sgn is
  +-min(..) exactly), and a slope times a 0/1 factor plus +0.0 for a
  masked zero. The rate therefore does not depend on the block width, and
  ``ebwave self-test`` checks the compiled faces against
  ``u +- limiter(..)/2`` from ``reconstruction_deltas``.
* Flags. ``COMPILE_COMMAND`` is ``cc -O3 -march=native -ffp-contract=off
  -fno-math-errno -shared -fPIC``: -march=native vectorizes the loops for
  the host, -ffp-contract=off forbids the fused multiply-adds that would
  change the bits, -fno-math-errno lets sqrt vectorize, and no fast-math
  flag may reassociate a sum. At N = 65536 one rate took about 1140 us
  with plain -O3, 620 us for x86-64-v3 and 530 us native, against 2800 us
  for the numpy strip kernel it replaced; at N = 1200, 12 us native
  against 85 us (gcc 12.2, AVX-512 Xeon, 2 vCPUs, medians of 7 rounds).
* Cache key. The library is built on the first ``Workspace`` of a
  process, never at import, into ``__pycache__/fv_kernel-<key>.so`` beside
  this module. The key is the sha256 of the source, the command and the
  flags line of /proc/cpuinfo (what -march=native compiles for), so a
  changed source, command or host builds anew. The compiler writes into
  a temporary directory, from which ``os.replace`` moves the library into
  place, so no process ever loads a partial file. A missing or failing compiler is a
  ``KernelBuildError``.
* Contiguity. The kernel reads raw pointers, so both fields go through
  ``np.ascontiguousarray(u, dtype=float)``: a view such as ``zeta[::-1]``
  is copied, not read as if its stride were one.
* NaN select. The minima are plain ``a < b ? a : b`` with the operand that
  can be NaN, |delta|, second, so a NaN passes through as it does in
  ``np.minimum``. numpy-exact selects (``a <= b || isnan(a)``) kept gcc
  from vectorizing the face loop, and so did numpy's three-way sign under
  AVX2 and SSE2; the kernel's sign is 0 for NaN. Neither matters, since a
  NaN difference makes both deltas of its cell NaN, and so its faces. A
  rate is NaN where numpy's is, though the vectorized loops may return the
  NaN of either operand, so its sign bit can differ. A face is dry where
  h <= 0, which is false for NaN, as in ``np.fmin.reduce``: NaN never
  counts as dry.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import mmap
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .core import ConfigurationError, HyperbolicityError, KernelBuildError, PhysParams, State


def max_signal_speed(zeta, v, params: PhysParams):
    """|eps v| + sqrt(g h), the spectral radius of the flux Jacobian."""
    h = params.depth + params.epsilon * np.asarray(zeta)
    if np.any(h <= 0.0):
        raise HyperbolicityError("nonpositive water column in speed evaluation")
    return np.abs(params.epsilon * np.asarray(v)) + np.sqrt(params.gravity * h)


STENCIL_WIDTH = 5      # cells i-2 .. i+2 feed the faces of cell i
FD_GHOSTS = 4          # ghost cells per side of the FD field: the reach of D5

KERNEL_SOURCE = Path(__file__).with_name("fv_kernel.c")
# the one command that compiles the kernel (see the module docstring)
COMPILE_COMMAND = ("cc", "-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
                   "-shared", "-fPIC")


def _cpu_flags() -> bytes:
    """The flags line of /proc/cpuinfo, or nothing where there is none."""
    try:
        with open("/proc/cpuinfo", "rb") as f:
            return next((line for line in f if line.startswith(b"flags")), b"")
    except OSError:
        return b""


def build_kernel(source: Path, cache: Path) -> Path:
    """The shared library of the C file ``source`` in the directory
    ``cache``, compiled by COMPILE_COMMAND unless one of the same key is
    there already (see the module docstring). Raises KernelBuildError where
    the compiler is missing or fails."""
    try:
        code = source.read_bytes()
        key = hashlib.sha256(b"\0".join((code, " ".join(COMPILE_COMMAND).encode(),
                                         _cpu_flags())))
        target = cache / f"{source.stem}-{key.hexdigest()}.so"
        if target.exists():
            return target
        cache.mkdir(parents=True, exist_ok=True)
        # the compiler writes into a directory of its own, which goes with
        # whatever a failed build left there
        with tempfile.TemporaryDirectory(prefix=f"{source.stem}-", dir=cache) as scratch:
            partial = os.path.join(scratch, target.name)
            subprocess.run([*COMPILE_COMMAND, "-x", "c", "-", "-o", partial], input=code,
                           capture_output=True, check=True)
            os.replace(partial, target)
        return target
    except OSError as exc:
        raise KernelBuildError(f"cannot build {source.name}: {exc}") from exc
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").splitlines() or [""]
        reason = next((line for line in lines if "error" in line), lines[0])
        raise KernelBuildError(f"{COMPILE_COMMAND[0]} exited with {exc.returncode} "
                               f"on {source.name}: {reason}") from exc


@functools.cache
def kernel() -> ctypes.CDLL:
    """The compiled ``fv_kernel.c``, built on the first call of a process
    (see ``build_kernel``), with the argument types of its functions."""
    lib = ctypes.CDLL(str(build_kernel(KERNEL_SOURCE, KERNEL_SOURCE.parent / "__pycache__")))
    pointer, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.fv_faces.argtypes = (pointer, size, pointer, pointer)
    lib.fv_faces.restype = None
    lib.fv_flux.argtypes = (pointer,) * 4 + (size,) + (real,) * 3 + (pointer,) * 2
    lib.fv_rate.argtypes = (pointer, pointer, size) + (real,) * 4 + (pointer,)
    lib.fv_flux.restype = lib.fv_rate.restype = ctypes.c_int
    return lib


def _check_width(n: int) -> None:
    if n < STENCIL_WIDTH:
        raise ConfigurationError(
            f"grid of {n} points is narrower than the "
            f"{STENCIL_WIDTH}-point reconstruction stencil")


def _ghosted(u: np.ndarray, ghosts: int, out=None) -> np.ndarray:
    """``u`` with ``ghosts`` <= len(u) periodic ghost cells per side."""
    return np.concatenate((u[u.shape[0] - ghosts:], u, u[:ghosts]), out=out)


class Workspace:
    """Preallocated buffers of one Strang step on a grid of n cells, and
    the compiled ``kernel`` of the FV rate.

    ``stage``, ``rate`` and ``acc`` are the RK4 stage state, the current
    rate and the running sum, each a (2, n) block of zeta and v rows; the
    dispersive RK4 of v alone runs on their first rows (see
    ``rk4_in_place``). The FV rate needs no scratch here: the kernel keeps
    its own on the C stack.

    The two half steps never run at the same time, so the buffers of the
    dispersive step lie in memory that the FV step leaves idle: ``source``,
    the zeta-only source, is ``stage[1]``; ``fd_tmp``, the stencil scratch,
    is row 1 of the second block; ``padded``, one field with FD_GHOSTS
    periodic ghost cells per side (``pad``), starts on row 1 of the third
    block, and ``diffs``, the first differences of a symmetric stencil,
    follows it. ``spectrum``, the complex scratch of the FFTs, shares the
    memory of ``diffs``, because a stencil and a solve never run at the
    same time. None of them overlaps row 0 of a block, whichever way
    ``rk4_in_place`` has swapped ``rate`` and ``acc``.

    All are carved from one flat array, ``memory``: a private anonymous
    ``mmap`` of its own, viewed as floats, which touches no page before the
    kernels write it and which the OS unmaps as soon as the last view of it
    goes. No result aliases the workspace, so that is when its
    ``StrangSolver`` is dropped. From ``np.empty``, glibc would serve a
    block above its mmap threshold (128 KiB at start) from a fresh mapping
    too, but it raises that threshold to the size of every such block
    freed, up to 32 MiB; after one large free, such as that of a CSV read
    back whole, every later workspace came from the heap and stayed
    resident there after its run. Mapped, the workspace of a 65536-cell
    run, 4.0 MiB while it held the scratch of the numpy rate, lowered that
    benchmark's peak resident memory by 2.2 MiB (medians of 10 alternating
    runs, 64.6 to 62.4 MiB), and a dropped 2^17-cell solver gives back its
    whole 7.0 MiB workspace every time. A mapping is page
    aligned, so ``spectrum`` is aligned for complex values.
    """

    def __init__(self, n: int):
        _check_width(n)
        self.n = n
        self.kernel = kernel()
        fd_size = n + 2 * FD_GHOSTS                   # entries of ``padded`` and ``diffs``
        padded_end = 5 * n + fd_size
        # ACCESS_COPY maps privately: a forked child gets its own copy
        self.memory = np.frombuffer(
            mmap.mmap(-1, 8 * (padded_end + fd_size), access=mmap.ACCESS_COPY), dtype=float)
        self.stage, self.rate, self.acc = self.memory[:6 * n].reshape(3, 2, n)
        self.source, self.fd_tmp = self.stage[1], self.rate[1]
        self.padded = self.memory[5 * n:padded_end]
        self.diffs = self.memory[padded_end:padded_end + fd_size]
        # diffs starts 48 n + 64 bytes in, aligned for complex values
        self.spectrum = self.diffs[:2 * (n // 2 + 1)].view(complex)

    def pad(self, u: np.ndarray) -> np.ndarray:
        """``u`` with FD_GHOSTS periodic ghost cells per side, in ``padded``."""
        return _ghosted(u, FD_GHOSTS, out=self.padded)


def workspace_for(n: int, workspace: Workspace) -> Workspace:
    """``workspace``, checked against a grid of n points."""
    if workspace.n != n:
        raise ConfigurationError(
            f"workspace for {workspace.n} points used on a grid of {n}")
    return workspace


def reconstruction_deltas(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upwind/downwind high-order variations of every cell of the periodic
    field ``u``,

        delta_plus  = 2/3 (u_{i+1}-u_i) + 1/3 (u_i-u_{i-1})
                      - 1/10 (-u_{i-1}+3u_i-3u_{i+1}+u_{i+2})
                      - 1/15 (-u_{i-2}+3u_{i-1}-3u_i+u_{i+1})

    and delta_minus its mirror, in the order of ``fv_faces``. The 2/3,
    1/3, -1/10, -1/15 weights give the fifth-order interface values
    u_i +- delta/2 on smooth data."""
    u = np.asarray(u, dtype=float)
    _check_width(u.shape[0])
    p = _ghosted(u, 2)
    d = p[1:] - p[:-1]
    # third differences starting at cells i-1 and i: the backward one of
    # cell i is the forward one of cell i-1
    d3 = ((3.0 * p[1:-2] - p[:-3]) - 3.0 * p[2:-1]) + p[3:]
    down, up, forward, backward = d[1:-2], d[2:-1], d3[1:], d3[:-1]
    delta_plus = ((up * (2.0 / 3.0) + down * (1.0 / 3.0)) - forward * 0.1) - backward / 15.0
    delta_minus = ((down * (2.0 / 3.0) + up * (1.0 / 3.0)) - backward * 0.1) - forward / 15.0
    return delta_plus, delta_minus


def limiter(u, v, w):
    """Three-argument slope limiter,

        L(u, v, w) = min(2|u|, 2|v|, |w|) sgn(u)  if sgn(u) = sgn(v), else 0,

    with sgn(0) = 0 so a vanishing difference kills the slope. In smooth
    monotone regions |w| is the smallest argument and the high-order
    variation passes through untouched; near a jump or an extremum the
    neighboring differences u and v cap it (or zero it on a sign change).
    Vectorized, in the order of ``fv_faces``: the slope is zeroed by a 0/1
    factor, and adding +0.0 turns the -0.0 of a negative slope times 0 into
    the +0.0 of the formula."""
    u, v, w = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u, v, w)))
    sign_u = np.sign(u)
    cap = np.minimum(np.abs(u) * 2.0, np.abs(v) * 2.0)
    agreement = np.maximum(sign_u * np.sign(v), 0.0)
    return np.minimum(cap, np.abs(w)) * sign_u * agreement + 0.0


def limited_faces(u) -> tuple[np.ndarray, np.ndarray]:
    """The limited right and left faces of every cell of the periodic field
    ``u``, u_i + L(down, up, delta_plus)/2 and u_i - L(up, down, delta_minus)/2,
    from the kernel's ``fv_faces``."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    _check_width(n)
    window = _ghosted(u, 2)
    right, left = np.empty(n), np.empty(n)
    kernel().fv_faces(window.ctypes.data, n, right.ctypes.data, left.ctypes.data)
    return right, left


def hyperbolic_rhs(state: State, params: PhysParams, dx: float, workspace: Workspace):
    """Semi-discrete rate -(F_{i+1/2} - F_{i-1/2})/dx with limited faces.

    Interface i+1/2, for i = -1 .. N-1, pairs the right face of cell i with
    the left face of cell i+1 (``limited_faces``), and its flux is the
    Rusanov flux

        F~ = (F(L) + F(R))/2 - s/2 (R - L),
        s  = max(|eps v_L| + sqrt(g h_L), |eps v_R| + sqrt(g h_R)).

    Fluxes telescope over the periodic domain, so both component sums of
    the returned rate vanish to round-off. Raises HyperbolicityError if
    h <= 0 on a side of a face. Runs the C kernel (see the module
    docstring).

    The rate is written into ``workspace.rate`` and returned as that
    (2, n) block of zeta and v rows, which the next call overwrites.
    """
    ws = workspace_for(state.zeta.shape[0], workspace)
    zeta = np.ascontiguousarray(state.zeta, dtype=float)
    v = np.ascontiguousarray(state.v, dtype=float)
    if ws.kernel.fv_rate(zeta.ctypes.data, v.ctypes.data, ws.n, params.epsilon,
                         params.gravity, params.depth, dx, ws.rate.ctypes.data):
        raise HyperbolicityError("nonpositive water column in flux evaluation")
    return ws.rate


def _set_stage(stage, y, c: float, k) -> None:
    """stage <- y + c k: the scaling over the whole block, y per field."""
    np.multiply(k, c, out=stage)
    for out, a in zip(stage, y):
        out += a


def _accumulate(acc, k, weight: float) -> None:
    """acc += weight k over the whole block; scales k in place."""
    if weight != 1.0:
        k *= weight
    acc += k


def rk4_in_place(y: tuple, dt: float, rhs, ws) -> tuple:
    """One classical RK4 step for dy/dt = rhs(y) on a tuple of fields.

    The step runs on the first len(y) rows of the ``stage``, ``rate`` and
    ``acc`` blocks of the ``Workspace`` ``ws``: both rows for the (zeta, v)
    of the FV step, row 0 for the v of the FD step. Each is contiguous, so
    its arithmetic runs as one flat pass. rhs(stage) writes its rate into
    those rows of ``ws.rate`` (read at call time), which is what the step
    reads back. The first rate becomes the running sum by swapping ``rate``
    and ``acc`` instead of being copied, and 2 k2, 2 k3 and k4 are then
    added in place in that order, which is the evaluation order of
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4). Only the returned arrays are
    allocated, so the result never aliases the workspace.
    """
    rhs(y)
    ws.rate, ws.acc = ws.acc, ws.rate
    rows = len(y)
    stage, rate, acc = ws.stage[:rows], ws.rate[:rows], ws.acc[:rows]
    # each stage is built before the weighting of the sum overwrites k
    _set_stage(stage, y, 0.5 * dt, acc)
    rhs(stage)
    _set_stage(stage, y, 0.5 * dt, rate)
    _accumulate(acc, rate, 2.0)
    rhs(stage)
    _set_stage(stage, y, dt, rate)
    _accumulate(acc, rate, 2.0)
    rhs(stage)
    _accumulate(acc, rate, 1.0)
    acc *= dt / 6.0
    return tuple(a + total for a, total in zip(y, acc))


def rk4_fv_step(state: State, dt: float, params: PhysParams, dx: float,
                workspace: Workspace) -> State:
    """Advance the cell averages by one RK4 step of the shallow-water part.

    The stages live in ``workspace`` and are combined by ``rk4_in_place``;
    only the two returned arrays are allocated. Each stage calls
    ``hyperbolic_rhs`` through the module global, where the benchmark's
    trace wraps it.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return State(*rk4_in_place(
        (state.zeta, state.v), dt,
        lambda y: hyperbolic_rhs(State(*y), params, dx, workspace), workspace))
