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
parameters and variant (``build_operators``) from the fourth-order
stencils D1-D5 that ``core.central_weights`` generates, the map between
cell averages and point values (``ConversionOperator``) included, and
applied in one of two forms:

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
whose ``inverse`` is the inherited ``solve``. ``build_operators`` alone
builds them, and each is invertible by construction: the symbols of J, P
and the conversion are at least 1 on every mode of every grid, so no
build checks for a vanishing one. ``StrangSolver.strang_step``
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

Workspace. The step runs on the ``hyperbolic.Workspace`` of the whole
Strang step, which every kernel takes from its caller (``StrangSolver``
keeps one): the RK4 of v uses row 0 of its stage, rate and sum blocks,
and the ghost-filled field, the stencil scratch, the frozen zeta source
and the complex spectrum, which the FFTs write into through ``out=``,
lie in memory that the finite-volume step leaves idle during this one.
The conversion takes its scratch from the same workspace. A step
allocates only the new v, where the allocating kernel took a fresh
N-sized array for almost every numpy operation, and adds no resident
memory to the finite-volume step's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Grid, ModelVariant, PhysParams, central_weights
from .hyperbolic import Workspace, rk4_in_place, workspace_for

# D1-D5 generated at fourth order, offset -> coefficient, to be scaled by dx^-order
_STENCILS = {order: dict(zip(range(-r, r + 1), central_weights(order, r)))
             for order in range(1, 6) for r in [(order + 3) // 2]}


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
        """Pair form of ``stencil`` (offset -> coefficient), a symmetric or
        antisymmetric table whose coefficients sum to ``total``: one of the
        module's constant tables, D1-D5 and the cell-to-nodal map."""
        reach = max(abs(m) for m in stencil)
        right = [stencil.get(m, 0.0) for m in range(1, reach + 1)]
        if [stencil.get(-m, 0.0) for m in range(1, reach + 1)] == [-c for c in right]:
            return cls(total=0.0, antisymmetric=True, pairs=tuple(enumerate(right, 1)))
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
        """The sum of two stencils of the same symmetry (``build_operators``
        adds symmetric ones only)."""
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
        ghost cells on each side (``Workspace.pad``), so that it has
        len(out) + 2g entries; ``tmp`` is scratch of len(out) and ``diffs``
        of at least len(padded) - 1, for the first differences that a
        symmetric stencil reads. Returns out. ``total`` is 0 or 1 for every
        stencil applied (a derivative or the cell-to-nodal map), so the
        field is added unscaled.

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
            out += padded[g:g + n]
        return out


_PAIRS = {order: PairStencil.of(table) for order, table in _STENCILS.items()}
IDENTITY = PairStencil(total=1.0, pairs=(), antisymmetric=False)


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
    ``harmonics``, the ``fourier_harmonics`` table of the build for n
    points, which reaches as far as both stencils. Multipliers are stored
    complex even where they are real, because numpy multiplies a complex
    array by a complex one several times faster than by a real one.

    Only ``build_operators`` builds one (``tests/test_workspace_owner.py``
    holds that), and every A it builds is invertible by construction: J and
    P are I plus stencils with nonnegative symbols, and the cell-to-nodal
    map's symbol lies in [1, 149/120], so |sigma_A| >= 1 on every mode of
    every grid (``test_dispersive.py::test_built_symbols_are_at_least_one``
    draws random builds of every variant). sigma_A itself is
    ``stencil.symbol`` of the table.
    """

    def __init__(self, stencil: PairStencil, n: int, *, harmonics: np.ndarray,
                 numerator: PairStencil | None = None):
        self.n = n
        self.stencil = stencil
        symbol = stencil.symbol(harmonics)
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

    ``forward`` applies the map in pair form with the scratch of the
    caller's ``Workspace``; ``inverse`` is the inherited ``solve``, whose
    complex scratch is passed as ``spectrum``.
    Given their scratch, both allocate only their result. ``harmonics`` is
    the table of the symbol, as for ``CirculantSolver``. ``build_operators``
    builds the one conversion of a grid, after ``check_variant`` has ruled
    out grids too small for the five-point stencil.
    """

    def __init__(self, n_cells: int, *, harmonics: np.ndarray):
        super().__init__(_CONVERSION_PAIRS, n_cells, harmonics=harmonics)

    def forward(self, field: np.ndarray, workspace: Workspace) -> np.ndarray:
        ws = workspace_for(self.n, workspace)
        return self.stencil.apply(ws.pad(field), np.empty(self.n), ws.fd_tmp, ws.diffs)

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

    ``jacobian_bound`` is 4/3 eps^2 max_k |sigma_D1(k)|^2 / sigma_J(k), so
    that rho = jacobian_bound max|D1 v| bounds the spectral radius of the
    Jacobian of the velocity rate at the nodal v. With w = D1 v that
    Jacobian is -4/3 eps^2 J^{-1} D1 diag(w) D1, similar through J^{1/2} to
    the symmetric 4/3 eps^2 B^T diag(w) B with B = D1 J^{-1/2} (J is
    symmetric positive definite, D1 antisymmetric, circulants commute), so
    its eigenvalues are real and at most rho in modulus.
    """

    grid: Grid
    d1: PairStencil
    gradient: PairStencil
    zeta_terms: tuple[tuple[PairStencil, int], ...]
    u_terms: tuple[tuple[PairStencil, int], ...]
    j_solver: CirculantSolver
    p_solver: CirculantSolver
    k_solver: CirculantSolver
    conversion: ConversionOperator
    jacobian_bound: float


# Each variant's bracket: for its plain, times-zeta and times-gradient term
# in turn, the order of the stencil and whether it acts on u (True) or zeta
_BRACKETS = {
    ModelVariant.FACTORIZED_ALL: ((4, True), (2, True), (1, True)),
    ModelVariant.UNFACTORIZED: ((5, False), (3, False), (2, False)),
    ModelVariant.FIFTH_ONLY_FACTORIZED: ((4, True), (3, False), (2, False)),
}


def check_variant(variant: ModelVariant, alpha: float, n_cells: int) -> None:
    """The rules of a variant, each a ConfigurationError keyed by the config
    field at fault: the fifth-only variant is defined for alpha = 1
    (``alpha``), and the 2 reach + 1 points of every stencil of its bracket
    must be distinct cells (``n_cells``). ``build_operators`` and
    ``ScenarioConfig`` both call it; it reads the stencil reaches only, so a
    config is checked without building an operator."""
    if variant is ModelVariant.FIFTH_ONLY_FACTORIZED and alpha != 1.0:
        raise ConfigurationError(
            "the fifth-only factorized variant is defined for alpha = 1", key="alpha")
    min_n = 2 * max(_PAIRS[order].reach for order, _ in _BRACKETS[variant]) + 1
    if n_cells < min_n:
        raise ConfigurationError(f"{variant.value} needs at least {min_n} points, "
                                 f"got {n_cells}", key="n_cells")


def build_operators(grid: Grid, params: PhysParams,
                    variant: ModelVariant) -> DispersiveOperators:
    """Assemble the stencils and factorize J, P, K and the cell-to-nodal map
    once for the whole run, all from one ``fourier_harmonics`` table, which
    is freed when the build returns. It is the only builder of
    ``CirculantSolver``s and of the ``ConversionOperator``.

    J = I - (eps alpha/3) D2 + (eps^2 alpha/45) D4 and
    P = I - (eps alpha/3) D2. Both symbols are >= 1 for eps, alpha >= 0
    because -D2 and +D4 have nonnegative symbols, and the conversion's lies
    in [1, 149/120], so no factorization can be singular and none is
    checked. With eps = 0 both operators reduce to the identity and their
    solves return the input unchanged.

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
    n, dx = grid.n_cells, grid.dx
    check_variant(variant, params.alpha, n)
    g, eps, alpha = params.gravity, params.epsilon, params.alpha

    def stencil(order: int, scale: float) -> PairStencil:
        return _PAIRS[order].scaled(scale / dx ** order)

    p_stencil = j_stencil = IDENTITY
    if eps != 0.0:
        p_stencil = IDENTITY + stencil(2, -eps * alpha / 3.0)
        j_stencil = p_stencil + stencil(4, eps ** 2 * alpha / 45.0)

    terms = ([], [])                        # on zeta, on u
    for weight, (order, on_u) in enumerate(_BRACKETS[variant]):
        if weight == _TIMES_GRADIENT:
            scale = eps ** 2 * alpha ** 2 / g if on_u else eps ** 2 * alpha
        else:
            scale = (2.0 / 45.0 if weight == _PLAIN else 2.0 / 3.0) * eps ** 2 \
                * (alpha if on_u else g)
        terms[on_u].append((stencil(order, scale), weight))
    zeta_terms, u_terms = map(tuple, terms)

    harmonics = fourier_harmonics(n)
    d1 = stencil(1, 1.0)
    k_solver = CirculantSolver(j_stencil, n, harmonics=harmonics,
                               numerator=stencil(1, 2.0 / 3.0 * eps ** 2))
    return DispersiveOperators(
        grid=grid, d1=d1, gradient=stencil(1, g / alpha),
        zeta_terms=zeta_terms, u_terms=u_terms,
        j_solver=CirculantSolver(j_stencil, n, harmonics=harmonics),
        p_solver=CirculantSolver(p_stencil, n, harmonics=harmonics),
        k_solver=k_solver,
        conversion=ConversionOperator(n, harmonics=harmonics),
        # K's multiplier is 2/3 eps^2 sigma_D1 / sigma_J; it and sigma_D1 are imaginary
        jacobian_bound=2.0 * float(np.max(np.abs(k_solver.multiplier.imag
                                                 * d1.symbol(harmonics).imag))),
    )


def _add_terms(bracket, terms, padded, factors, term, ws) -> None:
    """bracket += each stencil term of the field in ``padded``, computed in
    ``term`` with the scratch of ``ws``."""
    for stencil, weight in terms:
        stencil.apply(padded, term, ws.fd_tmp, ws.diffs)
        if weight != _PLAIN:
            term *= factors[weight]
        bracket += term


def zeta_source_term(ops: DispersiveOperators, zeta: np.ndarray,
                     workspace: Workspace) -> np.ndarray:
    """Velocity rate contribution that depends on zeta only.

    Since zeta is frozen during the dispersive half step, this part is
    computed once per step and reused by every Runge-Kutta stage:

        source = g/alpha D1 zeta - J^{-1}[ g/alpha D1 zeta + high order terms ]

    (the terms are listed in ``build_operators``). The result is written
    into ``workspace.source`` and returned as that array.
    """
    ws = workspace_for(ops.grid.n_cells, workspace)
    # the gradient becomes the source in place; the RK4 rows are free here
    gradient, bracket, term = ws.source, ws.stage[0], ws.rate[0]
    factors = (None, zeta, gradient)
    padded = ws.pad(zeta)
    ops.gradient.apply(padded, gradient, ws.fd_tmp, ws.diffs)
    np.copyto(bracket, gradient)
    _add_terms(bracket, ops.zeta_terms, padded, factors, term, ws)
    if ops.u_terms:
        u = ops.p_solver.solve(gradient, out=term, spectrum=ws.spectrum)
        _add_terms(bracket, ops.u_terms, ws.pad(u), factors, term, ws)
    solved = ops.j_solver.solve(bracket, out=bracket, spectrum=ws.spectrum)
    return np.subtract(gradient, solved, out=gradient)


def velocity_rate(ops: DispersiveOperators, v: np.ndarray, zeta_source: np.ndarray,
                  workspace: Workspace) -> np.ndarray:
    """dv/dt = zeta_source - K (D1 v)^2, with K = 2/3 eps^2 J^{-1} D1.

    The rate is written into ``workspace.rate[0]`` and returned as that
    array."""
    ws = workspace_for(ops.grid.n_cells, workspace)
    rate = ops.d1.apply(ws.pad(v), ws.rate[0], ws.fd_tmp, ws.diffs)
    rate *= rate
    nonlinear = ops.k_solver.solve(rate, out=rate, spectrum=ws.spectrum)
    return np.subtract(zeta_source, nonlinear, out=rate)


def rk4_fd_step(zeta: np.ndarray, v: np.ndarray, dt: float, ops: DispersiveOperators,
                workspace: Workspace, source: np.ndarray | None = None) -> np.ndarray:
    """Advance the nodal velocity ``v`` by one RK4 step of the dispersive
    part over the frozen nodal surface ``zeta``; returns the new v.

    The zeta-only part of the rate is evaluated once and shared by the four
    stages, which is exact because zeta does not move during this half
    step. A caller that takes several steps over the same zeta passes it as
    ``source``, ``zeta_source_term``'s result on this ``workspace``, which
    the stages leave as it is. No input is written to. The stages live in
    ``workspace``; only the returned array is allocated. A non-finite
    result is returned as it is: ``StrangSolver.strang_step`` decides
    whether a run blew up.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if source is None:
        source = zeta_source_term(ops, zeta, workspace)
    (v_new,) = rk4_in_place(
        (v,), dt, lambda y: velocity_rate(ops, y[0], source, workspace), workspace)
    return v_new
