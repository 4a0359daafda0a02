"""Finite-volume solver for the shallow-water half of the splitting.

The conserved pair is U = (zeta, v) with flux

    F(U) = ( h v,  eps/2 v^2 + g zeta ),   h = h0 + eps zeta,

and Jacobian eigenvalues eps*v +- sqrt(g h). Interfaces are fed with
high-order reconstructed cell values run through a three-argument slope
limiter, and the interface flux is the Rusanov (local Lax-Friedrichs)
two-point flux. Everything is periodic: every neighbor is read as a slice
of a ghost-filled window.

Workspace. Every buffer of a whole Strang step, both half steps, lives
in one ``Workspace``, built once per grid (``StrangSolver`` keeps one and
passes it to every kernel): the RK4 stage state, rate and running sum, each
one contiguous (2, n) block whose arithmetic runs as one flat pass over
both fields, the scratch of one FV strip, and the buffers of the
dispersive step, which sit in memory that this step leaves idle (see
``Workspace``). The kernels write every result through ``out=``, so a
step allocates only its result arrays. Without the workspace a step at
N = 65536 allocated about a hundred 512 KiB temporaries per rate
evaluation, and the page faults of handing them back to the OS and taking
them again cost more than the arithmetic. The workspace is an anonymous
memory mapping of its own, so a dropped solver gives its pages back to the
OS whatever the allocator did before (see ``Workspace``). The allocating
``reconstruction_deltas`` runs the same strips on a workspace of its own.

Flat strip block. ``hyperbolic_rhs`` walks the grid in strips of at most
``FV_STRIP`` cells. For each strip one ``np.concatenate`` copies the
periodic window of zeta (cells start-3 .. end+2) and then the window of v
into one 1-D block, end to end, and the reconstruction and the limiter run
once over the whole block: each of their ~35 ufunc calls serves both
fields. Every kernel is pointwise on its stencil, so a face of zeta reads
zeta only and one of v reads v only; the four faces around the junction of
the two windows mix them and are computed but never read. The Rusanov flux
reads the zeta faces at offset 0 and the v faces at offset m, the window
length of one field. Stacking the fields as the rows of a (2, width)
window instead makes every operand a strided 2-D view, and such a ufunc
call costs about as much as two 1-D calls (a subtraction of shifted
windows of 1206 entries: 3.7 us strided (2, w), 0.8 us one 1-D row, 1.4
us flat over both), so a prototype of that layout ran the rate at
0.96-1.04x the per-field one at N = 1200 and 0.87-0.93x at N = 65536.

Views built once. Every slice of the scratch that the kernels read or
write is built with the workspace, one set per distinct strip width (at
most two: the full strips and the remainder). A call slices only the input
pieces of each window, because the state changes, and the rate rows it
writes, because ``rk4_in_place`` swaps the rate and sum blocks. Below a few
thousand cells the cost of a call is its count of numpy calls and slices,
not its arithmetic. Against two padded fields run one after the other, the
flat block and the prebuilt views took a rate evaluation from 115 to 81 us
at N = 1200 and from 3.37 to 2.84 ms at N = 65536 (medians of 15
interleaved rounds on 2 vCPUs); building the views costs ~12 us per strip
width.

Strips. The scratch is sized to one strip, so at 8192 cells its eight
float rows of 128 KiB stay in a 2 MiB L2 cache, while each
strip still holds enough work to hide the fixed cost of its ~80 numpy
calls. One ``rk4_fv_step`` at N = 65536 took 25.9 ms with strips of 4096
cells, 23.1 ms with 8192 and 22.7 ms with 16384 (medians of 9 interleaved
rounds); with one field per window, 2048 had been slower still and a
single whole-grid strip no faster but larger in memory. A grid of at most
``FV_STRIP`` cells is one strip.

The limiter is fused across the two faces of a cell: L(u, v, w) is
symmetric in u and v, so the signs, the cap min(2|u|, 2|v|) and the
sign-agreement factor are computed once for both. Every operation is the
one of the plain allocating formula, or one whose result IEEE arithmetic
guarantees to be the same bits (b - a for -a + b, x / (-dx) for
(-x) / dx, one product shared by two sums, swapped min arguments, a slope
times a 0/1 factor plus +0.0 for a masked zero), so results are
independent of the strip width, the block layout and the workspace.
"""

from __future__ import annotations

import mmap

import numpy as np

from .core import ConfigurationError, HyperbolicityError, PhysParams, State


def max_signal_speed(zeta, v, params: PhysParams):
    """|eps v| + sqrt(g h), the spectral radius of the flux Jacobian."""
    h = params.depth + params.epsilon * np.asarray(zeta)
    if np.any(h <= 0.0):
        raise HyperbolicityError("nonpositive water column in speed evaluation")
    return np.abs(params.epsilon * np.asarray(v)) + np.sqrt(params.gravity * h)


STENCIL_WIDTH = 5      # cells i-2 .. i+2 feed the faces of cell i
GHOSTS = 3             # ghost cells per side: enough for the faces of cells -1 .. N
FD_GHOSTS = 4          # ghost cells per side of the FD field: the reach of D5
FV_STRIP = 8192        # cells per strip of the rate kernel (see module docstring)


def _window(n: int, start: int, end: int, ghosts: int) -> tuple[slice, ...]:
    """Slices of a field of n >= ghosts cells that hold, end to end, the
    periodic window of cells start - ghosts .. end + ghosts - 1."""
    first, last = start - ghosts, end + ghosts
    pieces = [slice(max(first, 0), min(last, n))]
    if first < 0:
        pieces.insert(0, slice(n + first, n))
    if last > n:
        pieces.append(slice(0, last - n))
    return tuple(pieces)


class _FaceKernel:
    """The views of the rate kernel for strips of ``width`` cells, on the
    scratch of a ``Workspace`` (``block``, ``faces`` and the rows of ``tmp``).

    ``variations`` and ``faces`` reconstruct and limit the cells p[2:-2] of
    p = ``block`` into ``right`` and ``left``, one entry per cell; ``sides``,
    ``flux_tmp`` and ``flux_pairs`` serve the Rusanov flux. Every view is
    built here, once per width, so a call slices nothing.
    """

    def __init__(self, width: int, block, faces, tmp):
        m = width + 2 * GHOSTS              # window entries per field
        p = self.block = block[:2 * m]
        c = len(p) - 4
        right, left = (f[:c] for f in faces)
        d, d3, t, two_thirds, one_third = (b[:c + 3] for b in tmp)
        self.right, self.left, self.cells = right, left, p[2:-2]
        # neighbor differences d[k] = p[k+1] - p[k]: diff_down = u_i - u_{i-1}
        # of cell i is d[1:-2] and diff_up = u_{i+1} - u_i is d[2:-1]
        self.neighbors, self.d = (p[1:], p[:-1]), d
        # third differences starting at cells i-1 and i, from t = 3 p: the
        # backward one of cell i is the forward one of cell i-1
        self.triple, self.t = p[1:-1], t[:c + 2]
        self.d3_terms = t[:c + 1], p[:-3], t[1:c + 2], p[3:]
        self.d3 = d3[:c + 1]
        # each weighted difference serves both deltas; the tenths reuse t
        # and the fifteenths are d3 divided in place
        tenth, fifteenth = t[:c + 1], self.d3
        self.two_thirds, self.one_third, self.tenth = two_thirds, one_third, tenth
        self.deltas = (
            (right, (two_thirds[2:-1], one_third[1:-2], tenth[1:], fifteenth[:-1])),
            (left, (two_thirds[1:-2], one_third[2:-1], tenth[:-1], fifteenth[1:])))
        # the limiter overwrites d3, t and the weighted differences
        self.sign, self.abs2 = tmp[1][:c + 3], tmp[2][:c + 3]
        self.cap, self.agreement = tmp[3][:c], tmp[4][:c]
        self.pairs = ((self.abs2[1:-2], self.abs2[2:-1]),
                      (self.sign[1:-2], self.sign[2:-1]))
        # interface i+1/2 of the k at start-1/2 .. end-1/2 pairs the right face
        # of cell i with the left face of cell i+1; the faces of v start at m
        k = width + 1
        self.sides = right[:k], right[m:m + k], left[1:k + 1], left[m + 1:m + k + 1]
        self.flux_tmp = tuple(b[:k] for b in tmp)
        # _rusanov leaves the zeta and v fluxes in the first two rows
        self.flux_pairs = tuple((f[1:], f[:-1]) for f in self.flux_tmp[:2])

    def variations(self) -> None:
        """delta_plus into ``right`` and delta_minus into ``left``, where

        delta_plus  = 2/3 (u_{i+1}-u_i) + 1/3 (u_i-u_{i-1})
                      - 1/10 (-u_{i-1}+3u_i-3u_{i+1}+u_{i+2})
                      - 1/15 (-u_{i-2}+3u_{i-1}-3u_i+u_{i+1})

        and delta_minus its mirror. The 2/3, 1/3, -1/10, -1/15 weights give
        the fifth-order interface values u_i +- delta/2 on smooth data. The
        neighbor differences are left in ``d`` for the limiter.
        """
        d, d3 = self.d, self.d3
        np.subtract(*self.neighbors, out=d)
        np.multiply(self.triple, 3.0, out=self.t)
        t_lo, p_lo, t_hi, p_hi = self.d3_terms
        np.subtract(t_lo, p_lo, out=d3)
        d3 -= t_hi
        d3 += p_hi
        np.multiply(d, 2.0 / 3.0, out=self.two_thirds)
        np.multiply(d, 1.0 / 3.0, out=self.one_third)
        np.multiply(d3, 0.1, out=self.tenth)
        np.divide(d3, 15.0, out=d3)
        for delta, (two_thirds, one_third, tenth, fifteenth) in self.deltas:
            np.add(two_thirds, one_third, out=delta)
            delta -= tenth
            delta -= fifteenth

    def faces(self) -> None:
        """Limited right face values into ``right`` and left ones into
        ``left``."""
        self.variations()
        sign, abs2, cap, agreement = self.sign, self.abs2, self.cap, self.agreement
        (abs2_down, abs2_up), (sign_down, sign_up) = self.pairs
        np.sign(self.d, out=sign)
        np.abs(self.d, out=abs2)
        abs2 *= 2.0
        # right face: L(diff_down, diff_up, delta_plus); left face:
        # L(diff_up, diff_down, delta_minus). L is symmetric in its first two
        # arguments up to the sign it returns, so both faces share the cap and
        # the agreement factor.
        np.minimum(abs2_down, abs2_up, out=cap)
        _agreement(sign_down, sign_up, agreement)
        # u +- slope/2: a slope min(..) sgn is +-min(..) exactly, so scaling the
        # sign by 1/2 rounds like scaling the slope; zeroed faces stay 0.0
        sign *= 0.5
        _limit(self.right, sign_down, cap, agreement)
        _limit(self.left, sign_up, cap, agreement)
        self.right += self.cells
        np.subtract(self.cells, self.left, out=self.left)


class Workspace:
    """Preallocated buffers of one Strang step on a grid of n cells.

    ``stage``, ``rate`` and ``acc`` are the RK4 stage state, the current
    rate and the running sum, each a (2, n) block of zeta and v rows; the
    dispersive RK4 of v alone runs on their first rows (see
    ``rk4_in_place``). ``block`` (both windows of a strip end to end),
    ``faces`` (right and left faces of the block) and ``tmp`` are the
    scratch of one FV strip, and ``strips`` lists, per strip, the input
    slices of its window, its first and end cell and the ``_FaceKernel`` of
    its width.

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
    resident there after its run. Mapped, the 4.0 MiB workspace of a 65536-cell run
    lowered that benchmark's peak resident memory by 2.2 MiB (medians of 10
    alternating runs, 64.6 to 62.4 MiB), and a dropped 2^17-cell solver
    gives back its whole 7.0 MiB workspace every time. A mapping is page
    aligned, so ``spectrum`` is aligned for complex values.
    """

    def __init__(self, n: int):
        if n < STENCIL_WIDTH:
            raise ConfigurationError(
                f"grid of {n} points is narrower than the "
                f"{STENCIL_WIDTH}-point reconstruction stencil")
        self.n = n
        row = 2 * (min(n, FV_STRIP) + 2 * GHOSTS)     # both windows of the widest strip
        rk4_size = 6 * n
        fd_size = n + 2 * FD_GHOSTS                   # entries of ``padded`` and ``diffs``
        padded_end = 5 * n + fd_size
        size = max(rk4_size + 8 * row, padded_end + fd_size)
        # ACCESS_COPY maps privately: a forked child gets its own copy
        self.memory = np.frombuffer(mmap.mmap(-1, 8 * size, access=mmap.ACCESS_COPY),
                                    dtype=float)
        self.stage, self.rate, self.acc = self.memory[:rk4_size].reshape(3, 2, n)
        scratch = self.memory[rk4_size:rk4_size + 8 * row].reshape(8, row)
        self.block, self.faces, self.tmp = scratch[0], tuple(scratch[1:3]), tuple(scratch[3:])
        self.source, self.fd_tmp = self.stage[1], self.rate[1]
        self.padded = self.memory[5 * n:padded_end]
        self.diffs = self.memory[padded_end:padded_end + fd_size]
        # diffs starts 48 n + 64 bytes in, aligned for complex values
        self.spectrum = self.diffs[:2 * (n // 2 + 1)].view(complex)
        self.fd_window = _window(n, 0, n, FD_GHOSTS)
        kernels: dict[int, _FaceKernel] = {}
        strips = []
        for start in range(0, n, FV_STRIP):
            end = min(start + FV_STRIP, n)
            width = end - start
            if width not in kernels:
                kernels[width] = _FaceKernel(width, self.block, self.faces, self.tmp)
            strips.append((_window(n, start, end, GHOSTS), start, end, kernels[width]))
        self.strips = tuple(strips)

    def pad(self, u: np.ndarray) -> np.ndarray:
        """``u`` with FD_GHOSTS periodic ghost cells per side, in ``padded``."""
        return np.concatenate([u[s] for s in self.fd_window], out=self.padded)


def workspace_for(n: int, workspace: Workspace) -> Workspace:
    """``workspace``, checked against a grid of n points."""
    if workspace.n != n:
        raise ConfigurationError(
            f"workspace for {workspace.n} points used on a grid of {n}")
    return workspace


def _face_outputs(fields, kernel) -> tuple[np.ndarray, ...]:
    """The right and left outputs of ``kernel`` (a ``_FaceKernel`` method)
    for every cell of the two periodic ``fields``, as (right, left) of the
    first then of the second, run on the strips of a ``Workspace`` as
    ``hyperbolic_rhs`` runs them."""
    fields = [np.asarray(u, dtype=float) for u in fields]
    ws = Workspace(fields[0].shape[0])
    outputs = tuple(np.empty(ws.n) for _ in range(4))
    for pieces, start, end, strip in ws.strips:
        np.concatenate([u[s] for u in fields for s in pieces], out=strip.block)
        kernel(strip)
        # the faces of cell i of a field are at i - start + 1 of its window
        m = end - start + 2 * GHOSTS
        for i, out in enumerate(outputs):
            first = (i // 2) * m + 1
            faces = strip.left if i % 2 else strip.right
            out[start:end] = faces[first:first + end - start]
    return outputs


def reconstruction_deltas(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upwind/downwind high-order variations on the periodic 5-point stencil
    (see ``_FaceKernel.variations``)."""
    return _face_outputs((u, u), _FaceKernel.variations)[:2]


def _agreement(sign_u, sign_v, out) -> None:
    """out <- 1.0 where sgn u = sgn v != 0, else 0.0 (signs in {-1, 0, 1})."""
    np.multiply(sign_u, sign_v, out=out)
    np.maximum(out, 0.0, out=out)


def _limit(w, sign, cap, agreement) -> None:
    """w <- min(cap, |w|) sign where ``agreement`` is 1, else 0.0, in place.

    The slope is zeroed by the 0/1 factor, not by a masked assignment: a
    masked copy costs per run of its mask, about 8 times more on the random
    sign pattern of round-off noise than on smooth data. Adding +0.0 turns
    the -0.0 of a negative slope times 0 into the +0.0 of the formula.
    """
    np.abs(w, out=w)
    np.minimum(cap, w, out=w)
    w *= sign
    w *= agreement
    w += 0.0


def limiter(u, v, w):
    """Three-argument slope limiter,

        L(u, v, w) = min(2|u|, 2|v|, |w|) sgn(u)  if sgn(u) = sgn(v), else 0,

    with sgn(0) = 0 so a vanishing difference kills the slope. In smooth
    monotone regions |w| is the smallest argument and the high-order
    variation passes through untouched; near a jump or an extremum the
    neighboring differences u and v cap it (or zero it on a sign change).
    Vectorized."""
    u, v, w = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u, v, w)))
    sign_u = np.sign(u)
    cap = np.minimum(2.0 * np.abs(u), 2.0 * np.abs(v))
    agreement = np.empty(cap.shape)
    _agreement(sign_u, np.sign(v), agreement)
    out = np.array(w)
    _limit(out, sign_u, cap, agreement)
    return out


def _rusanov(zeta_l, v_l, zeta_r, v_r, params: PhysParams, tmp):
    """Rusanov two-point flux of len(zeta_l) >= 1 interfaces,

        F~ = (F(L) + F(R))/2 - s/2 (R - L),
        s  = max(|eps v_L| + sqrt(g h_L), |eps v_R| + sqrt(g h_R)),

    with F(U) = (h v, eps/2 v^2 + g zeta), on five scratch rows ``tmp`` of
    exactly that length. Returns (flux_zeta, flux_v) as tmp[0] and tmp[1].
    Raises HyperbolicityError if h <= 0 on either side.
    """
    eps, g = params.epsilon, params.gravity
    h_l, h_r, s, a, b = tmp
    for h, zeta in ((h_l, zeta_l), (h_r, zeta_r)):
        np.multiply(zeta, eps, out=h)
        h += params.depth
    for h in (h_l, h_r):
        # fmin skips NaN as the comparison h <= 0 does, where min would not
        if np.fmin.reduce(h) <= 0.0:
            raise HyperbolicityError("nonpositive water column in flux evaluation")
    # s/2, with s = max(|eps v_L| + sqrt(g h_L), |eps v_R| + sqrt(g h_R))
    for speed, h, v in ((s, h_l, v_l), (a, h_r, v_r)):
        np.multiply(v, eps, out=speed)
        np.abs(speed, out=speed)
        np.multiply(h, g, out=b)
        np.sqrt(b, out=b)
        speed += b
    np.maximum(s, a, out=s)
    s *= 0.5
    # (h_L v_L + h_R v_R)/2 - s/2 (zeta_R - zeta_L)
    flux_zeta = h_l
    flux_zeta *= v_l
    h_r *= v_r
    flux_zeta += h_r
    flux_zeta *= 0.5
    np.subtract(zeta_r, zeta_l, out=a)
    a *= s
    flux_zeta -= a
    # (f2(L) + f2(R))/2 - s/2 (v_R - v_L), f2 = eps/2 v^2 + g zeta
    flux_v = h_r
    for f2, zeta, v in ((flux_v, zeta_l, v_l), (b, zeta_r, v_r)):
        np.multiply(v, 0.5 * eps, out=f2)
        f2 *= v
        np.multiply(zeta, g, out=a)
        f2 += a
    flux_v += b
    flux_v *= 0.5
    np.subtract(v_r, v_l, out=a)
    a *= s
    flux_v -= a
    return flux_zeta, flux_v


def hyperbolic_rhs(state: State, params: PhysParams, dx: float, workspace: Workspace):
    """Semi-discrete rate -(F_{i+1/2} - F_{i-1/2})/dx with limited faces.

    Each strip's window holds three ghost cells per side, which is enough
    to reconstruct cells -1 .. N of the grid. Interface i+1/2, for
    i = -1 .. N-1, pairs the right face of cell i with the left face of
    cell i+1. Fluxes telescope over the periodic domain, so both component
    sums of the returned rate vanish to round-off.

    The rate is written into ``workspace.rate`` and returned as that
    (2, n) block of zeta and v rows, which the next call overwrites.
    """
    ws = workspace_for(state.zeta.shape[0], workspace)
    fields = (state.zeta, state.v)
    for pieces, start, end, strip in ws.strips:
        np.concatenate([u[s] for u in fields for s in pieces], out=strip.block)
        strip.faces()
        _rusanov(*strip.sides, params, strip.flux_tmp)
        for (after, before), rate in zip(strip.flux_pairs, ws.rate):
            out = rate[start:end]
            np.subtract(after, before, out=out)
            out /= -dx
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
