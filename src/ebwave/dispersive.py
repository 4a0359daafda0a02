"""Finite-difference solver for the dispersive half of the splitting.

During this half step the surface is frozen (d zeta/dt = 0) and the
velocity evolves under

    J (dv/dt - g/alpha d_x zeta) + g/alpha d_x zeta + high order terms = 0,

where J = I - (eps alpha/3) D2 + (eps^2 alpha/45) D4 and the screening
operator P = I - (eps alpha/3) D2 are periodic circulant matrices built
from fixed fourth-order centered stencils. Both are diagonal in Fourier
space with symbols bounded below by 1, so they are factorized once (their
symbols are precomputed) and applied by FFT at every stage.

The three model variants differ only in how the high order derivatives of
zeta enter the bracket: fully factorized through P^{-1}, fully explicit
through D3/D5 stencils, or a mix that factorizes the fifth derivative only
(alpha = 1; linearly unstable for large surface deformations, kept as a
demonstration case).

Operators. Every constant-coefficient operator is built once per grid,
parameters and variant (``build_operators``), the map between cell
averages and point values (``ConversionOperator``) included, and applied
in one of two forms:

* a ``PairStencil``: the stencil in pair form, total u_i + sum_m c_m
  ((u_{i+m} - u_i) + (u_{i-m} - u_i)) when symmetric (total being the
  exact coefficient sum: 0 for a derivative, 1 for the cell-to-nodal map)
  and sum_m c_m (u_{i+m} - u_{i-m}) when antisymmetric, applied by one
  kernel, with dx^-order and the scalar prefactors of its bracket term
  (2/45 eps^2, 2/3 eps^2, eps^2, g/alpha) folded into the coefficients.
  Each field is ghost-filled once and every stencil on it reads the same
  padded copy. Every term is a difference of two neighbors, exact where
  they are close, so a derivative of a constant is exactly zero and the
  result rounds at the scale of the variation of the field, not of the
  field: on a fine grid, where dx^-order is large and neighbors are close,
  this is orders of magnitude less round-off than the offset-by-offset sum.
* a Fourier multiplier (``CirculantSolver``): b -> A^{-1} b, or
  A^{-1} N b for a numerator stencil N, as one complex array that the
  rfft of b is multiplied by. A and N are ``PairStencil``s too (P is
  ``IDENTITY`` plus a scaled D2, J is P plus a scaled D4), and their
  symbols are evaluated in closed form, sum_m c_m e^{i m theta_k}
  (``PairStencil.symbol``), from a table of 1 - cos and sin of m theta_k
  (``fourier_harmonics``) that ``build_operators`` makes once and passes
  to every operator it builds, so set-up takes no FFT. Written with
  1 - cos m theta, the same differences as the stencils, a symbol keeps
  its relative accuracy at low frequencies, where J's terms of order
  dx^-4 cancel.

J, P, K and the conversion are all ``CirculantSolver``s: the conversion
is the subclass whose ``forward`` applies its stencil in pair form and
whose ``inverse`` is the inherited ``solve``. ``StrangSolver.strang_step``
converts zeta and v to point values one field at a time, steps v alone
over the frozen zeta with ``rk4_fd_step``, which takes and returns bare
arrays, and converts only v back.

The nonlinear velocity term 2/3 eps^2 J^{-1} D1 (D1 v)^2 folds the outer
D1 into the J solve: circulants commute, so K = 2/3 eps^2 J^{-1} D1 is one
multiplier and the rate is zeta_source - K (D1 v)^2, one stencil and one
FFT pair per stage. K goes through ``CirculantSolver.solve`` like P and J,
so a step makes six solves (one P and one J for the zeta-only source, one
K per Runge-Kutta stage): the benchmark's trace wraps ``solve`` and counts
every one, as it did before the fold. The conversion's ``inverse`` is
counted on its own span, not as a seventh solve.

Workspace. Every buffer of one RK4 step lives in an ``FDWorkspace`` built
once per grid (``StrangSolver`` keeps one): the ghost-filled field, the
stencil scratch, the frozen zeta source, the RK4 stage, rate and running
sum of v, each a (1, n) block as the finite-volume ones are (2, n) blocks,
so that ``rk4_in_place`` has one layout, and one complex spectrum, which
the FFTs write into through ``out=``. The conversion and the allocating
``apply_stencil`` take their scratch from the same workspace (a new one
when none is passed). A step allocates only the new v, where the
allocating kernel took a fresh N-sized array for almost every numpy
operation. Its seven N-sized rows are 3.5 MiB at N = 65536, as much as
the allocating kernel's peak of temporaries, so the solver carves them
from the memory of its finite-volume workspace, which is idle during this
half step: then the dispersive step adds no resident memory at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlowUpError, ConfigurationError, Grid, ModelVariant, PhysParams, periodic_pad
from .hyperbolic import rk4_in_place, workspace_for

# fourth-order centered stencils, offset -> coefficient, to be scaled by dx^-order
_D1 = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
_D2 = {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}
_D3 = {-3: 1 / 8, -2: -8 / 8, -1: 13 / 8, 1: -13 / 8, 2: 8 / 8, 3: -1 / 8}
_D4 = {-3: -1 / 6, -2: 12 / 6, -1: -39 / 6, 0: 56 / 6, 1: -39 / 6, 2: 12 / 6, 3: -1 / 6}
_D5 = {-4: 1 / 6, -3: -9 / 6, -2: 26 / 6, -1: -29 / 6,
       1: 29 / 6, 2: -26 / 6, 3: 9 / 6, 4: -1 / 6}

_STENCILS = {1: _D1, 2: _D2, 3: _D3, 4: _D4, 5: _D5}

FD_GHOSTS = 4          # ghost cells per side: the reach of the widest stencil, D5


@dataclass(frozen=True)
class PairStencil:
    """A symmetric or antisymmetric periodic stencil in pair form. An
    antisymmetric stencil is applied to the field u as

        sum_{m=1..r} c_m (u_{i+m} - u_{i-m}),

    a symmetric one, with the exact sum of its coefficients ``total`` (0 for
    a derivative, 1 for the cell-to-nodal map), as

        total u_i + sum_{m=1..r} c_m (u_{i+m} + u_{i-m} - 2 u_i)
          = total u_i + sum_{k=0..r-1} a_k (d_{i+k} - d_{i-1-k}),

    with a_k = sum_{m>k} c_m, on the first differences d_j = u_{j+1} - u_j:
    the same pair form about the point i - 1/2. ``pairs`` holds (m, c_m) or
    (k, a_k), with every scale already in the coefficients.
    """

    total: float
    pairs: tuple[tuple[int, float], ...]
    antisymmetric: bool

    @classmethod
    def of(cls, stencil: dict[int, float], total: float = 0.0) -> "PairStencil":
        """Pair form of ``stencil`` (offset -> coefficient), whose
        coefficients sum to ``total`` up to their rounding."""
        reach = max(abs(m) for m in stencil)
        right = [stencil.get(m, 0.0) for m in range(1, reach + 1)]
        left = [stencil.get(-m, 0.0) for m in range(1, reach + 1)]
        if left == [-c for c in right] and stencil.get(0, 0.0) == 0.0:
            return cls(total=0.0, antisymmetric=True, pairs=tuple(enumerate(right, 1)))
        if left != right:
            raise ConfigurationError(f"stencil {stencil} is neither symmetric "
                                     "nor antisymmetric")
        if abs(math.fsum(stencil.values()) - total) > 1e-14 * sum(map(abs, stencil.values())):
            raise ConfigurationError(f"stencil {stencil} does not sum to {total}")
        return cls(total=total, antisymmetric=False,
                   pairs=tuple((k, math.fsum(right[k:])) for k in range(reach)))

    @property
    def reach(self) -> int:
        return len(self.pairs)

    def scaled(self, factor: float) -> "PairStencil":
        """This stencil times ``factor``."""
        return PairStencil(total=factor * self.total, antisymmetric=self.antisymmetric,
                           pairs=tuple((m, factor * c) for m, c in self.pairs))

    def __add__(self, other: "PairStencil") -> "PairStencil":
        """The sum of two stencils of the same symmetry."""
        if other.antisymmetric != self.antisymmetric:
            raise ConfigurationError("cannot add a symmetric and an antisymmetric stencil")
        pairs = dict(self.pairs)
        for m, c in other.pairs:
            pairs[m] = pairs.get(m, 0.0) + c
        return PairStencil(total=self.total + other.total, pairs=tuple(sorted(pairs.items())),
                           antisymmetric=self.antisymmetric)

    def symbol(self, harmonics: np.ndarray) -> np.ndarray:
        """Eigenvalues on the Fourier modes that rfft keeps, in closed form
        from a ``fourier_harmonics`` table of reach >= ``reach``: the real
        total - sum_m 2 c_m (1 - cos m theta) when symmetric, else
        i sum_m 2 c_m sin m theta. Since 1 - cos m theta is small at low
        frequencies, the rounding of large coefficients (J's are of order
        dx^-4) only enters where the symbol is large as well."""
        versine, sine = harmonics[:, :self.reach]
        coeffs = [c for _, c in self.pairs]
        if self.antisymmetric:
            return 1j * np.dot([2.0 * c for c in coeffs], sine)
        # c_m = a_{m-1} - a_m, with a_r = 0
        symbol = np.dot([2.0 * (a - b) for a, b in zip(coeffs, coeffs[1:] + [0.0])], versine)
        return np.subtract(self.total, symbol, out=symbol)

    def apply(self, padded: np.ndarray, out: np.ndarray, tmp: np.ndarray,
              diffs: np.ndarray) -> np.ndarray:
        """Write the stencil of the field held by ``padded`` into ``out``.

        ``padded`` is the field with the same number g >= reach of periodic
        ghost cells on each side (``periodic_pad``), so that it has
        len(out) + 2g entries; ``tmp`` is scratch of len(out) and ``diffs``
        of at least len(padded) - 1, for the first differences that a
        symmetric stencil reads. Returns out.

        Every term is a difference of two neighbors, or of two first
        differences, which is exact where they are close: a derivative of a
        constant is exactly zero, and on smooth data the result rounds at
        the scale of the variation of the field, not of the field itself.
        """
        n = out.shape[0]
        g = (padded.shape[0] - n) // 2
        if self.antisymmetric:
            source, shift = padded, 0
        else:
            source, shift = diffs[:padded.shape[0] - 1], 1
            np.subtract(padded[1:], padded[:-1], out=source)
        for i, (m, c) in enumerate(self.pairs):
            term = tmp if i else out
            np.subtract(source[g + m:g + m + n], source[g - m - shift:g - m - shift + n],
                        out=term)
            term *= c
            if i:
                out += term
        if self.total:
            u = padded[g:g + n]
            if self.total != 1.0:
                u = np.multiply(u, self.total, out=tmp)
            out += u
        return out


_PAIRS = {order: PairStencil.of(table) for order, table in _STENCILS.items()}
IDENTITY = PairStencil(total=1.0, pairs=(), antisymmetric=False)


def apply_stencil(order: int, field: np.ndarray, dx: float) -> np.ndarray:
    """Apply the fourth-order centered difference of the given derivative
    order (1 to 5) to a periodic field, scaled by dx^-order."""
    field = np.asarray(field, dtype=float)
    stencil = _PAIRS[order].scaled(dx ** -order)
    width = 2 * stencil.reach + 1
    if field.shape[0] < width:
        raise ConfigurationError(
            f"grid of {field.shape[0]} points is narrower than the "
            f"{width}-point stencil")
    ws = FDWorkspace(field.shape[0])
    return stencil.apply(ws.pad(field), np.empty_like(field), ws.tmp, ws.diffs)


def fourier_harmonics(n: int, reach: int = 3) -> np.ndarray:
    """1 - cos(m theta_k) and sin(m theta_k) for m = 1 .. reach at the
    frequencies theta_k = 2 pi k / n that rfft keeps, as rows m - 1 of the
    two halves of a read-only (2, reach, n//2 + 1) array. Reach 3 covers J,
    P, K, D1 and the cell-to-nodal map.

    Row 1 is 2 sin^2(theta/2) and sin(theta), so 1 - cos keeps its relative
    accuracy at low frequencies; the other rows follow from the Chebyshev
    recurrence x_{m+1} = 2 cos(theta) x_m - x_{m-1}, which for
    w_m = 1 - cos(m theta) reads w_{m+1} = 2 (w_1 + w_m - w_1 w_m) - w_{m-1}
    and is about five times cheaper than the trigonometric functions of
    m theta at N = 65536. ``build_operators`` makes one table and passes it
    to every operator of its grid.
    """
    theta = (2.0 * np.pi / n) * np.arange(n // 2 + 1)
    table = np.empty((2, reach, theta.shape[0]))
    versine, sine = table
    np.sin(0.5 * theta, out=versine[0])
    versine[0] *= versine[0]
    versine[0] *= 2.0
    np.sin(theta, out=sine[0])
    two_cos = 2.0 - 2.0 * versine[0]
    for m in range(1, reach):
        np.multiply(versine[0], versine[m - 1], out=versine[m])
        np.subtract(versine[m - 1], versine[m], out=versine[m])
        versine[m] += versine[0]
        versine[m] *= 2.0
        np.multiply(two_cos, sine[m - 1], out=sine[m])
        if m >= 2:                          # 1 - cos(0 t) = 0, sin(0 t) = 0
            versine[m] -= versine[m - 2]
            sine[m] -= sine[m - 2]
    table.flags.writeable = False
    return table


class CirculantSolver:
    """Precomputed Fourier factorization of a periodic constant-stencil map.

    ``solve(b)`` returns A^{-1} b for the map A given by ``stencil``, or
    A^{-1} N b when a ``numerator`` stencil N is given: one rfft, one
    product with the precomputed multiplier sigma_N / sigma_A (1 / sigma_A
    without a numerator) and one irfft. The symbols are read from
    ``harmonics``, a ``fourier_harmonics`` table for n points that reaches
    as far as both stencils (a new one of reach 3 or more when None).
    Multipliers are stored complex even where they are real, because numpy
    multiplies a complex array by a complex one several times faster than
    by a real one. The symbol sigma_A is checked at construction; a (near)
    zero eigenvalue at any discrete frequency makes A singular on this grid.
    sigma_A itself is ``stencil.symbol`` of the table.
    """

    def __init__(self, stencil: PairStencil, n: int, name: str = "operator", *,
                 numerator: PairStencil | None = None,
                 harmonics: np.ndarray | None = None):
        self.n = n
        self.stencil = stencil
        if harmonics is None:
            reach = max(3, stencil.reach, numerator.reach if numerator else 0)
            harmonics = fourier_harmonics(n, reach)
        symbol = stencil.symbol(harmonics)
        magnitude = np.abs(symbol)
        if magnitude.min() < 1e-12:
            mode = int(np.argmax(magnitude < 1e-12))
            raise ConfigurationError(
                f"{name} is singular on N = {n}: symbol vanishes at "
                f"Fourier mode {mode}")
        self._identity = stencil == IDENTITY and numerator is None
        multiplier = 1.0 / symbol
        if numerator is not None:
            multiplier = numerator.symbol(harmonics) * multiplier
        self.multiplier = multiplier.astype(complex)

    def solve(self, b: np.ndarray, out: np.ndarray | None = None,
              spectrum: np.ndarray | None = None) -> np.ndarray:
        """A^{-1} b (A^{-1} N b with a numerator), written into ``out``
        when given; ``spectrum`` is complex scratch of n//2 + 1 entries. The
        identity returns b itself."""
        if self._identity:
            return b
        spectrum = np.fft.rfft(b, out=spectrum)
        spectrum *= self.multiplier
        return np.fft.irfft(spectrum, n=self.n, out=out)


class FDWorkspace:
    """Preallocated buffers of the finite-difference step on a grid of n points.

    ``padded`` holds one field with FD_GHOSTS periodic ghost cells per side
    and ``tmp`` and ``diffs`` are the scratch of the stencils; ``source``
    keeps the zeta-only source for the whole step; ``stage``, ``rate`` and
    ``acc`` are the RK4 stage, rate and running sum of v, each a (1, n)
    block like the (2, n) ones of the ``FVWorkspace`` (see
    ``rk4_in_place``), which the zeta-only source borrows as scratch before
    the stages start; ``spectrum`` is the complex scratch of the
    FFTs. ``diffs`` and ``spectrum`` share their memory, because a stencil
    and a solve never run at the same time.

    All of them are carved from one flat float array of ``size(n)``
    entries (about seven N-sized rows): ``memory`` when given, so that
    memory another step owns but never uses at the same time serves both
    (the ``StrangSolver`` passes its ``FVWorkspace.memory``), else a new
    ``np.empty`` block, which touches no page before the kernels do.
    """

    def __init__(self, n: int, memory: np.ndarray | None = None):
        self.n = n
        padded_size = n + 2 * FD_GHOSTS
        size = self.size(n)
        if memory is None:
            memory = np.empty(size)
        elif (memory.dtype != float or memory.ndim != 1 or memory.shape[0] < size
              or not memory.flags.c_contiguous):
            raise ConfigurationError(
                f"FD workspace needs {size} contiguous float entries, got {memory.shape}")
        # the spectrum comes first, where the block is aligned for complex values
        self.spectrum = memory[:2 * (n // 2 + 1)].view(complex)
        self.diffs = memory[:padded_size]
        self.padded = memory[padded_size:2 * padded_size]
        rows = memory[2 * padded_size:size].reshape(5, n)
        self.source, self.tmp = rows[:2]
        self.stage, self.rate, self.acc = rows[2:].reshape(3, 1, n)

    @staticmethod
    def size(n: int) -> int:
        """Float entries of the buffers of a workspace for n points."""
        return 2 * (n + 2 * FD_GHOSTS) + 5 * n

    def pad(self, u: np.ndarray) -> np.ndarray:
        """``u`` with FD_GHOSTS ghost cells, in ``padded``."""
        return periodic_pad(u, FD_GHOSTS, out=self.padded)


# cell averages -> point values at the cell centers (deconvolution of the
# sliding mean), symmetric five-point map exact through sixth order
_CONVERSION = {-2: 27 / 5760, -1: -348 / 5760, 0: 6402 / 5760,
               1: -348 / 5760, 2: 27 / 5760}
_CONVERSION_PAIRS = PairStencil.of(_CONVERSION, total=1.0)


class ConversionOperator(CirculantSolver):
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

    ``forward`` applies the map in pair form with the scratch of an
    ``FDWorkspace`` (a new one when none is passed); ``inverse`` is the
    inherited ``solve``, whose complex scratch is passed as ``spectrum``.
    Given their scratch, both allocate only their result. ``harmonics`` is
    the table of the symbol, as for ``CirculantSolver``.
    """

    def __init__(self, n_cells: int, *, harmonics: np.ndarray | None = None):
        if n_cells < 5:
            raise ValueError("conversion stencil needs at least 5 cells")
        super().__init__(_CONVERSION_PAIRS, n_cells, "cell-to-nodal map",
                         harmonics=harmonics)

    def forward(self, field: np.ndarray, workspace: FDWorkspace | None = None) -> np.ndarray:
        ws = workspace_for(FDWorkspace, self.n, workspace)
        return self.stencil.apply(ws.pad(field), np.empty(self.n), ws.tmp, ws.diffs)

    inverse = CirculantSolver.solve


# what a bracket term is multiplied by, pointwise: nothing, zeta or the gradient
_PLAIN, _TIMES_ZETA, _TIMES_GRADIENT = range(3)


@dataclass(frozen=True)
class DispersiveOperators:
    """Stencils and factorized elliptic operators for one grid and variant.

    ``gradient`` is g/alpha D1. The bracket of the zeta-only source is the
    gradient plus three stencil terms, each with its prefactor folded in and
    optionally multiplied by zeta or by the gradient: ``zeta_terms`` act on
    zeta, ``u_terms`` on u = P^{-1} gradient. ``k_solver`` applies
    K = 2/3 eps^2 J^{-1} D1 and ``conversion`` switches between cell
    averages and point values.
    """

    grid: Grid
    params: PhysParams
    variant: ModelVariant
    d1: PairStencil
    gradient: PairStencil
    zeta_terms: tuple[tuple[PairStencil, int], ...]
    u_terms: tuple[tuple[PairStencil, int], ...]
    j_solver: CirculantSolver
    p_solver: CirculantSolver
    k_solver: CirculantSolver
    conversion: ConversionOperator


def build_operators(grid: Grid, params: PhysParams,
                    variant: ModelVariant) -> DispersiveOperators:
    """Assemble the stencils and factorize J, P, K and the cell-to-nodal map
    once for the whole run, all from one ``fourier_harmonics`` table, which
    is freed when the build returns.

    J = I - (eps alpha/3) D2 + (eps^2 alpha/45) D4 and
    P = I - (eps alpha/3) D2. Both symbols are >= 1 for eps, alpha >= 0
    because -D2 and +D4 have nonnegative symbols, so the factorizations
    cannot fail for physical parameters. With eps = 0 both operators reduce
    to the identity and their solves return the input unchanged.

    With gradient = g/alpha D1 zeta, the solve of P on g D1 zeta is alpha u
    with u = P^{-1} gradient, and eps^2 g D1 zeta = eps^2 alpha gradient,
    so every bracket term is a stencil on zeta or on u, scaled by a
    constant and multiplied by zeta, by the gradient or by nothing:

        factorized_all:  2/45 eps^2 alpha D4 u + zeta 2/3 eps^2 alpha D2 u
                         + gradient eps^2 alpha^2/g D1 u
        unfactorized:    2/45 eps^2 g D5 zeta + zeta 2/3 eps^2 g D3 zeta
                         + gradient eps^2 alpha D2 zeta
        fifth_only:      2/45 eps^2 alpha D4 u + zeta 2/3 eps^2 g D3 zeta
                         + gradient eps^2 alpha D2 zeta
    """
    n = grid.n_cells
    needs_d5 = variant is ModelVariant.UNFACTORIZED
    min_n = 9 if needs_d5 else 7
    if n < min_n:
        raise ConfigurationError(
            f"{variant.value} needs at least {min_n} points, got {n}")
    if variant is ModelVariant.FIFTH_ONLY_FACTORIZED and params.alpha != 1.0:
        raise ConfigurationError(
            "the fifth-only factorized variant is defined for alpha = 1")

    g, eps, alpha = params.gravity, params.epsilon, params.alpha
    dx = grid.dx

    def stencil(order: int, scale: float) -> PairStencil:
        return _PAIRS[order].scaled(scale / dx ** order)

    p_stencil = j_stencil = IDENTITY
    if eps != 0.0:
        p_stencil = IDENTITY + stencil(2, -eps * alpha / 3.0)
        j_stencil = p_stencil + stencil(4, eps ** 2 * alpha / 45.0)

    if variant is ModelVariant.UNFACTORIZED:
        zeta_terms = ((stencil(5, 2.0 / 45.0 * eps ** 2 * g), _PLAIN),)
        u_terms = ()
    else:
        zeta_terms = ()
        u_terms = ((stencil(4, 2.0 / 45.0 * eps ** 2 * alpha), _PLAIN),)
    if variant is ModelVariant.FACTORIZED_ALL:
        u_terms += ((stencil(2, 2.0 / 3.0 * eps ** 2 * alpha), _TIMES_ZETA),
                    (stencil(1, eps ** 2 * alpha ** 2 / g), _TIMES_GRADIENT))
    else:
        zeta_terms += ((stencil(3, 2.0 / 3.0 * eps ** 2 * g), _TIMES_ZETA),
                       (stencil(2, eps ** 2 * alpha), _TIMES_GRADIENT))

    j_name = "J = I - eps*alpha/3 D2 + eps^2*alpha/45 D4"
    harmonics = fourier_harmonics(n)
    return DispersiveOperators(
        grid=grid, params=params, variant=variant,
        d1=stencil(1, 1.0), gradient=stencil(1, g / alpha),
        zeta_terms=zeta_terms, u_terms=u_terms,
        j_solver=CirculantSolver(j_stencil, n, j_name, harmonics=harmonics),
        p_solver=CirculantSolver(p_stencil, n, "P = I - eps*alpha/3 D2",
                                 harmonics=harmonics),
        k_solver=CirculantSolver(j_stencil, n, j_name, harmonics=harmonics,
                                 numerator=stencil(1, 2.0 / 3.0 * eps ** 2)),
        conversion=ConversionOperator(n, harmonics=harmonics),
    )


def _add_terms(bracket, terms, padded, factors, term, ws) -> None:
    """bracket += each stencil term of the field in ``padded``, computed in
    ``term`` with the scratch of ``ws``."""
    for stencil, weight in terms:
        stencil.apply(padded, term, ws.tmp, ws.diffs)
        if weight != _PLAIN:
            term *= factors[weight]
        bracket += term


def zeta_source_term(ops: DispersiveOperators, zeta: np.ndarray,
                     workspace: FDWorkspace | None = None) -> np.ndarray:
    """Velocity rate contribution that depends on zeta only.

    Since zeta is frozen during the dispersive half step, this part is
    computed once per step and reused by every Runge-Kutta stage:

        source = g/alpha D1 zeta - J^{-1}[ g/alpha D1 zeta + high order terms ]

    (the terms are listed in ``build_operators``). The result is written
    into ``workspace.source`` and returned as that array; without a
    workspace a fresh one is built, so the returned array is the caller's.
    """
    ws = workspace_for(FDWorkspace, ops.grid.n_cells, workspace)
    # the gradient becomes the source in place; the RK4 rows are free here
    gradient, bracket, term = ws.source, ws.stage[0], ws.rate[0]
    factors = (None, zeta, gradient)
    padded = ws.pad(zeta)
    ops.gradient.apply(padded, gradient, ws.tmp, ws.diffs)
    np.copyto(bracket, gradient)
    _add_terms(bracket, ops.zeta_terms, padded, factors, term, ws)
    if ops.u_terms:
        u = ops.p_solver.solve(gradient, out=term, spectrum=ws.spectrum)
        _add_terms(bracket, ops.u_terms, ws.pad(u), factors, term, ws)
    solved = ops.j_solver.solve(bracket, out=bracket, spectrum=ws.spectrum)
    return np.subtract(gradient, solved, out=gradient)


def velocity_rate(ops: DispersiveOperators, v: np.ndarray, zeta_source: np.ndarray,
                  workspace: FDWorkspace | None = None) -> np.ndarray:
    """dv/dt = zeta_source - K (D1 v)^2, with K = 2/3 eps^2 J^{-1} D1.

    The rate is written into ``workspace.rate[0]`` and returned as that
    array; without a workspace a fresh one is built."""
    ws = workspace_for(FDWorkspace, ops.grid.n_cells, workspace)
    rate = ops.d1.apply(ws.pad(v), ws.rate[0], ws.tmp, ws.diffs)
    rate *= rate
    nonlinear = ops.k_solver.solve(rate, out=rate, spectrum=ws.spectrum)
    return np.subtract(zeta_source, nonlinear, out=rate)


def rk4_fd_step(zeta: np.ndarray, v: np.ndarray, dt: float, ops: DispersiveOperators,
                workspace: FDWorkspace | None = None) -> np.ndarray:
    """Advance the nodal velocity ``v`` by one RK4 step of the dispersive
    part over the frozen nodal surface ``zeta``; returns the new v.

    The zeta-only part of the rate is evaluated once and shared by the four
    stages, which is exact because zeta does not move during this half
    step. Neither input is written to. The stages live in ``workspace``
    (built here when None); only the returned array is allocated.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    ws = workspace_for(FDWorkspace, ops.grid.n_cells, workspace)
    source = zeta_source_term(ops, zeta, workspace=ws)
    (v_new,) = rk4_in_place(
        (v,), dt, lambda y: velocity_rate(ops, y[0], source, workspace=ws), ws)
    # min and max propagate NaN and reach any infinity, without a mask array
    if not (np.isfinite(v_new.min()) and np.isfinite(v_new.max())):
        raise BlowUpError("non-finite velocity after dispersive step")
    return v_new
