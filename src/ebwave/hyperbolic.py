"""Finite-volume solver for the shallow-water half of the splitting.

The conserved pair is U = (zeta, v) with flux

    F(U) = ( h v,  eps/2 v^2 + g zeta ),   h = h0 + eps zeta,

and Jacobian eigenvalues eps*v +- sqrt(g h). Interfaces are fed with
high-order reconstructed cell values run through a three-argument slope
limiter, and the interface flux is the Rusanov (local Lax-Friedrichs)
two-point flux. Everything is periodic: each field is wrapped once with
ghost cells (``periodic_pad``) and every neighbor is read as a slice.

Workspace. Every buffer of one RK4 step lives in an ``FVWorkspace``, built
once per grid (``StrangSolver`` keeps one): the two ghost-padded fields,
the RK4 stage state, rate and running sum, and the kernel scratch. The
kernels write every result through ``out=``, so a step allocates only its
two result arrays. Without the workspace a step at N = 65536 allocated
about a hundred 512 KiB temporaries per rate evaluation, and the page
faults of handing them back to the OS and taking them again cost more
than the arithmetic.

Strips. ``hyperbolic_rhs`` pads once, then walks the grid in strips of at
most ``FV_STRIP`` cells; each strip reconstructs, limits, takes the flux
and writes its slice of the rate. The scratch is sized to one strip, so at
8192 cells its nine float arrays of 64 KiB (plus two masks) stay in a
2 MiB L2 cache, while each strip still holds enough work to hide the fixed
cost of its ~110 ufunc calls: at N = 65536, strips of 2048 and 4096 cells
were slower, 16384 no faster, and a single whole-grid strip no faster but
larger in memory. A grid of at most ``FV_STRIP`` cells is one strip.

The limiter is fused across the two faces of a cell: L(u, v, w) is
symmetric in u and v, so the signs, the cap min(2|u|, 2|v|) and the
sign-agreement mask are computed once for both. Every operation is the
one of the plain allocating formula, or one whose result IEEE arithmetic
guarantees to be the same bits (b - a for -a + b, x / (-dx) for
(-x) / dx, one product shared by two sums, swapped min arguments), so
results are independent of the strip width and the workspace.
"""

from __future__ import annotations

import numpy as np

from .core import (CellState, ConfigurationError, HyperbolicityError, PhysParams,
                   periodic_pad)


def physical_flux(zeta, v, params: PhysParams):
    """Exact flux F(U) = (h v, eps/2 v^2 + g zeta). Raises if h <= 0."""
    h = params.depth + params.epsilon * np.asarray(zeta)
    if np.any(h <= 0.0):
        raise HyperbolicityError("nonpositive water column in flux evaluation")
    return h * v, 0.5 * params.epsilon * v * v + params.gravity * zeta


def max_signal_speed(zeta, v, params: PhysParams):
    """|eps v| + sqrt(g h), the spectral radius of the flux Jacobian."""
    h = params.depth + params.epsilon * np.asarray(zeta)
    if np.any(h <= 0.0):
        raise HyperbolicityError("nonpositive water column in speed evaluation")
    return np.abs(params.epsilon * np.asarray(v)) + np.sqrt(params.gravity * h)


STENCIL_WIDTH = 5      # cells i-2 .. i+2 feed the faces of cell i
GHOSTS = 3             # ghost cells per side: enough for the faces of cells -1 .. N
FV_STRIP = 8192        # cells per strip of the rate kernel (see module docstring)


def _check_width(n: int) -> None:
    if n < STENCIL_WIDTH:
        raise ConfigurationError(
            f"grid of {n} points is narrower than the "
            f"{STENCIL_WIDTH}-point reconstruction stencil")


def _scratch(width: int):
    """Kernel temporaries for windows of up to ``width`` entries: five float
    arrays and two boolean masks (rows of one block each)."""
    return tuple(np.empty((5, width))), tuple(np.empty((2, width), dtype=bool))


class FVWorkspace:
    """Preallocated buffers of the finite-volume step on a grid of n cells.

    ``padded`` holds both fields with GHOSTS periodic ghost cells per side;
    ``stage``, ``rate`` and ``acc`` are the RK4 stage state, the current
    rate and the running sum; ``faces`` (zeta right/left, v right/left),
    ``tmp`` and ``masks`` are the scratch of one strip. Every array is a
    row of one of a few ``np.empty`` blocks: building a workspace costs a
    handful of allocations and touches no page before the kernels write it.
    """

    def __init__(self, n: int):
        _check_width(n)
        self.n = n
        width = min(n, FV_STRIP) + 2 * GHOSTS
        self.padded = tuple(np.empty((2, n + 2 * GHOSTS)))
        rk4 = np.empty((6, n))
        self.stage, self.rate, self.acc = tuple(rk4[:2]), tuple(rk4[2:4]), tuple(rk4[4:])
        self.faces = tuple(np.empty((4, width)))
        self.tmp, self.masks = _scratch(width)

    def pad(self, state: CellState):
        """Both fields of ``state`` with ghost cells, in ``padded``."""
        return tuple(periodic_pad(u, GHOSTS, out=p)
                     for u, p in zip((state.zeta, state.v), self.padded))


def _workspace(n: int, workspace: FVWorkspace | None) -> FVWorkspace:
    if workspace is None:
        return FVWorkspace(n)
    if workspace.n != n:
        raise ConfigurationError(
            f"workspace for {workspace.n} cells used on a grid of {n}")
    return workspace


def _strips(n: int):
    """(first, end) cell indices of the strips covering a grid of n cells."""
    for start in range(0, n, FV_STRIP):
        yield start, min(start + FV_STRIP, n)


def _variations(p, plus, minus, tmp) -> None:
    """High-order variations of the cells p[2:-2] of a padded window.

    Writes delta_plus into ``plus`` and delta_minus into ``minus``
    (len(p) - 4 entries each), where, with diff_down = u_i - u_{i-1} and
    diff_up = u_{i+1} - u_i,

    delta_plus  = 2/3 (u_{i+1}-u_i) + 1/3 (u_i-u_{i-1})
                  - 1/10 (-u_{i-1}+3u_i-3u_{i+1}+u_{i+2})
                  - 1/15 (-u_{i-2}+3u_{i-1}-3u_i+u_{i+1})

    and delta_minus its mirror. The 2/3, 1/3, -1/10, -1/15 weights give
    the fifth-order interface values u_i +- delta/2 on smooth data. The
    neighbor differences d[k] = p[k+1] - p[k] are left in tmp[0], so that
    diff_down is d[1:-2] and diff_up is d[2:-1].
    """
    c = len(p) - 4
    d, d3, t, two_thirds, one_third = (b[:c + 3] for b in tmp)
    np.subtract(p[1:], p[:-1], out=d)
    # third differences starting at cells i-1 and i: the backward one of
    # cell i is the forward one of cell i-1
    d3, t = d3[:c + 1], t[:c + 2]
    np.multiply(p[1:-1], 3.0, out=t)
    np.subtract(t[:-1], p[:-3], out=d3)
    d3 -= t[1:]
    d3 += p[3:]
    t = t[:c + 1]
    # each weighted difference serves both deltas
    np.multiply(d, 2.0 / 3.0, out=two_thirds)
    np.multiply(d, 1.0 / 3.0, out=one_third)
    tenth, fifteenth = t, d3
    np.multiply(d3, 0.1, out=tenth)
    np.divide(d3, 15.0, out=fifteenth)
    np.add(two_thirds[2:-1], one_third[1:-2], out=plus)
    plus -= tenth[1:]
    plus -= fifteenth[:-1]
    np.add(two_thirds[1:-2], one_third[2:-1], out=minus)
    minus -= tenth[:-1]
    minus -= fifteenth[1:]


def reconstruction_deltas(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upwind/downwind high-order variations on the periodic 5-point stencil
    (see ``_variations``)."""
    u = np.asarray(u)
    n = u.shape[0]
    ws = FVWorkspace(n)
    p = periodic_pad(u, GHOSTS, out=ws.padded[0])
    plus, minus = np.empty(n), np.empty(n)
    for start, end in _strips(n):
        _variations(p[start + 1:end + 5], plus[start:end], minus[start:end], ws.tmp)
    return plus, minus


def _disagree(sign_u, sign_v, out, spare) -> None:
    """out <- not (sgn u = sgn v != 0): where the limiter returns 0."""
    np.not_equal(sign_u, sign_v, out=out)
    np.equal(sign_u, 0.0, out=spare)
    out |= spare


def _limit(w, sign, cap, disagree) -> None:
    """w <- min(cap, |w|) sign, zeroed where ``disagree``, in place."""
    np.abs(w, out=w)
    np.minimum(cap, w, out=w)
    w *= sign
    np.copyto(w, 0.0, where=disagree)


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
    disagree = np.empty(cap.shape, dtype=bool)
    _disagree(sign_u, np.sign(v), disagree, np.empty_like(disagree))
    out = np.array(w)
    _limit(out, sign_u, cap, disagree)
    return out


def _limited_faces(p, right, left, tmp, masks) -> None:
    """Limited right/left face values of the cells p[2:-2] of a padded
    window, written into ``right`` and ``left``."""
    c = len(p) - 4
    _variations(p, right, left, tmp)
    d = tmp[0][:c + 3]
    sign, abs2, cap = tmp[1][:c + 3], tmp[2][:c + 3], tmp[3][:c]
    np.sign(d, out=sign)
    np.abs(d, out=abs2)
    abs2 *= 2.0
    # right face: L(diff_down, diff_up, delta_plus); left face:
    # L(diff_up, diff_down, delta_minus). L is symmetric in its first two
    # arguments up to the sign it returns, so both faces share the cap and
    # the agreement mask.
    np.minimum(abs2[1:-2], abs2[2:-1], out=cap)
    disagree = masks[0][:c]
    _disagree(sign[1:-2], sign[2:-1], disagree, masks[1][:c])
    # u +- slope/2: a slope min(..) sgn is +-min(..) exactly, so scaling the
    # sign by 1/2 rounds like scaling the slope; zeroed faces stay 0.0
    sign *= 0.5
    _limit(right, sign[1:-2], cap, disagree)
    _limit(left, sign[2:-1], cap, disagree)
    u = p[2:-2]
    right += u
    np.subtract(u, left, out=left)


def reconstruct_interfaces(state: CellState):
    """Limited face values for both components.

    Returns (zeta_right, zeta_left, v_right, v_left) where *_right is the
    value at the right face x_{i+1/2} seen from cell i and *_left the value
    at the left face x_{i-1/2} seen from cell i.
    """
    n = state.zeta.shape[0]
    ws = FVWorkspace(n)
    faces = tuple(np.empty(n) for _ in range(4))
    for p, right, left in zip(ws.pad(state), faces[::2], faces[1::2]):
        for start, end in _strips(n):
            _limited_faces(p[start + 1:end + 5], right[start:end], left[start:end],
                           ws.tmp, ws.masks)
    return faces


def _rusanov(zeta_l, v_l, zeta_r, v_r, params: PhysParams, tmp, mask):
    """Rusanov flux of len(zeta_l) interfaces (see ``numerical_flux``).

    Returns (flux_zeta, flux_v) as views of tmp[0] and tmp[1].
    """
    k = len(zeta_l)
    eps, g = params.epsilon, params.gravity
    h_l, h_r, s, a, b = (t[:k] for t in tmp)
    mask = mask[:k]
    for h, zeta in ((h_l, zeta_l), (h_r, zeta_r)):
        np.multiply(zeta, eps, out=h)
        h += params.depth
    for h in (h_l, h_r):
        if np.less_equal(h, 0.0, out=mask).any():
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


def numerical_flux(zeta_l, v_l, zeta_r, v_r, params: PhysParams):
    """Rusanov two-point flux,

        F~ = (F(L) + F(R))/2 - s/2 (R - L),
        s  = max(|eps v_L| + sqrt(g h_L), |eps v_R| + sqrt(g h_R)).

    Raises HyperbolicityError if h <= 0 on either side.
    """
    sides = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                  for a in (zeta_l, v_l, zeta_r, v_r)))
    shape = sides[0].shape
    tmp, masks = _scratch(sides[0].size)
    fluxes = _rusanov(*(a.ravel() for a in sides), params, tmp, masks[0])
    return tuple(f.reshape(shape)[()] for f in fluxes)


def hyperbolic_rhs(state: CellState, params: PhysParams, dx: float,
                   workspace: FVWorkspace | None = None):
    """Semi-discrete rate -(F_{i+1/2} - F_{i-1/2})/dx with limited faces.

    Both fields are padded with three ghost cells, which is enough to
    reconstruct cells -1 .. N. Interface i+1/2, for i = -1 .. N-1, pairs
    the right face of cell i with the left face of cell i+1. Fluxes
    telescope over the periodic domain, so both component sums of the
    returned rate vanish to round-off.

    The rate is written into ``workspace.rate`` and returned as those
    arrays, which the next call overwrites; without a workspace a fresh
    one is built, so the returned arrays are the caller's own.
    """
    ws = _workspace(state.zeta.shape[0], workspace)
    zeta_pad, v_pad = ws.pad(state)
    zr, zl, vr, vl = ws.faces
    for start, end in _strips(ws.n):
        c = end - start + 2                     # cells start-1 .. end
        window = slice(start, end + 2 * GHOSTS)
        _limited_faces(zeta_pad[window], zr[:c], zl[:c], ws.tmp, ws.masks)
        _limited_faces(v_pad[window], vr[:c], vl[:c], ws.tmp, ws.masks)
        fluxes = _rusanov(zr[:c - 1], vr[:c - 1], zl[1:c], vl[1:c], params,
                          ws.tmp, ws.masks[0])
        for flux, rate in zip(fluxes, ws.rate):
            out = rate[start:end]
            np.subtract(flux[1:], flux[:-1], out=out)
            out /= -dx
    return ws.rate


def rk4_step(y: np.ndarray, dt: float, rhs):
    """One classical fourth-order Runge-Kutta step for dy/dt = rhs(y)."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _set_stage(stage, y, c: float, k) -> None:
    """stage <- y + c k, per field."""
    for out, a, b in zip(stage, y, k):
        np.multiply(b, c, out=out)
        out += a


def _accumulate(acc, k, weight: float) -> None:
    """acc += weight k, per field; scales k in place."""
    for total, b in zip(acc, k):
        if weight != 1.0:
            b *= weight
        total += b


def rk4_fv_step(state: CellState, dt: float, params: PhysParams, dx: float,
                workspace: FVWorkspace | None = None) -> CellState:
    """Advance the cell averages by one RK4 step of the shallow-water part.

    The stages live in ``workspace`` (built here when None). The sum
    k1 + 2 k2 + 2 k3 + k4 is accumulated in place in that order, which is
    the evaluation order of the plain formula, and only the two returned
    arrays are allocated, so the result never aliases the workspace.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    ws = _workspace(state.zeta.shape[0], workspace)
    y = (state.zeta, state.v)
    stage = CellState(*ws.stage)
    # each stage is built before the weighting of the sum overwrites k
    k = hyperbolic_rhs(state, params, dx, workspace=ws)
    for total, b in zip(ws.acc, k):
        np.copyto(total, b)
    _set_stage(ws.stage, y, 0.5 * dt, k)
    k = hyperbolic_rhs(stage, params, dx, workspace=ws)
    _set_stage(ws.stage, y, 0.5 * dt, k)
    _accumulate(ws.acc, k, 2.0)
    k = hyperbolic_rhs(stage, params, dx, workspace=ws)
    _set_stage(ws.stage, y, dt, k)
    _accumulate(ws.acc, k, 2.0)
    k = hyperbolic_rhs(stage, params, dx, workspace=ws)
    _accumulate(ws.acc, k, 1.0)
    for total in ws.acc:
        total *= dt / 6.0
    return CellState(*(a + total for a, total in zip(y, ws.acc)))
