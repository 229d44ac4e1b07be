"""Gauge transformation of the reduced two-photon ODE to Schroedinger form.

Changing variable z = -1/(kb y^2) and peeling off exp(-int W dy) with the
superpotential

    W(y) = k/y + (w2 - 2 w1) y / 4 - kc kb y^3 / 4

turns the reduced second-order operator into a one-dimensional
Schroedinger operator with a sextic polynomial potential.  The conjugation
is checked here exactly, in Laurent polynomials of y held as integer
numerators over one denominator, with the sign and normalization freedoms
of the construction searched explicitly: the identity holds for kinetic
term -d^2/dy^2 (not the halved form the potential is usually quoted with)
and the quoted constant term sits exactly one mode-2 frequency w2 above
the conjugated operator.  Both findings are derived per call, not
assumed.  The search stops each convention at the first of its three
identities that fails.  The check returns the W and V it builds, so one
`sextic` request with real couplings prints those and builds each once.

The sextic levels that `sextic --fd` matches come from Rayleigh-Ritz in
the harmonic-oscillator basis (MacDonald 1933; Turbiner 1988): x^2, x^4
and x^6 have closed-form matrix elements there, and each parity sector
is a seven-diagonal band matrix solved by LAPACK's dsbevd.  A WKB sum on
a grid sets the basis scale, and the basis doubles until two solves agree
to LEVEL_TOL.  By the gauge identity, block level j + w2 is level j of the
parity (-1)^k sector.

A deliberately simple finite-difference solver (three-point Laplacian,
Dirichlet box, the lowest levels of the tridiagonal matrix by LAPACK's
bisection dstebz) provides desk-scale spectra of any potential for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._lapack import band_eigenvalues, lowest_eigenvalues
from .errors import ConventionMismatch, NumericalFailure
from .exact import Polynomial, Rationalish, RationalComplex
from .oracle import checked_solve
from .reduction import shg_ode

# a Laurent polynomial in y: integer numerators by exponent over one positive denominator
Laurent = tuple[dict[int, int], int]


def _as_real(value: Rationalish, what: str) -> RationalComplex:
    rc = RationalComplex.coerce(value)
    if not rc.is_real:
        raise ValueError(f"{what} must be real for the gauge check, got {rc}")
    return rc


@dataclass(frozen=True)
class Superpotential:
    """W(y) = inverse_coeff / y + linear_coeff * y + cubic_coeff * y^3."""

    inverse_coeff: RationalComplex
    linear_coeff: RationalComplex
    cubic_coeff: RationalComplex


def gauge_superpotential(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    k: int,
) -> Superpotential:
    """Coefficients (k of 1/y, (w2-2w1)/4 of y, -kc*kb/4 of y^3)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    w1, w2, kc, kb = map(RationalComplex.coerce, (omega1, omega2, kappa_c, kappa_bar))
    return Superpotential(
        inverse_coeff=RationalComplex.coerce(k),
        linear_coeff=(w2 - w1 * 2) / 4,
        cubic_coeff=-(kc * kb) / 4,
    )


@dataclass(frozen=True)
class SexticPotential:
    """V(y) = c0 + c2 y^2 + c4 y^4 + c6 y^6 with exact coefficients.

    The coefficients are the quoted closed forms:

        c0 = ((2k+5) w2 - 2 w1) / 4
        c2 = ((w2 - 2 w1)^2 - 4 kc kb (2k+3)) / 16
        c4 = -kc kb (w2 - 2 w1) / 8
        c6 = kc^2 kb^2 / 16

    c6 >= 0 whenever kc*kb is real, so the potential confines.  The
    natural kinetic normalization of this potential is -d^2/dy^2; see
    _grid for the form matched to the -1/2 d^2/dx^2 solvers.
    """

    c0: RationalComplex
    c2: RationalComplex
    c4: RationalComplex
    c6: RationalComplex
    k: int

    def real_coeffs(self) -> tuple[float, float, float, float]:
        """The coefficients as floats; raises NumericalFailure for one that
        is not real, which the real solvers cannot take, and for one that
        does not fit in a double: too large, or nonzero but rounded to 0.0,
        which would change the shape of the potential."""
        named = {"c0": self.c0, "c2": self.c2, "c4": self.c4, "c6": self.c6}
        for name, c in named.items():
            if not c.is_real:
                raise NumericalFailure(f"sextic {name} at k={self.k} is not real: {c}", math.inf)
        try:
            floats = tuple(float(c.re) for c in named.values())
        except OverflowError:
            raise NumericalFailure("one of c0, c2, c4, c6 exceeds double range", math.inf) from None
        for (name, c), f in zip(named.items(), floats):
            if f == 0.0 and not c.is_zero:
                raise NumericalFailure(
                    f"{name} underflows double range: nonzero, it rounds to 0.0", math.inf
                )
        return floats

    def grid_potential(self):
        """The grid form v(x) = V(sqrt(2) x) as a function (see _grid)."""
        g0, g2, g4, g6 = _grid(self.real_coeffs())

        def v(x):
            x2 = np.asarray(x) ** 2
            return g0 + g2 * x2 + g4 * x2**2 + g6 * x2**3

        return v


def _grid(coeffs: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """V's real_coeffs() as those of v(x) = V(sqrt(2) x), c0, 2 c2, 4 c4, 8 c6:
    -1/2 d^2/dx^2 + v(x) has the spectrum of -d^2/dy^2 + V(y)."""
    c0, c2, c4, c6 = coeffs
    return c0, 2 * c2, 4 * c4, 8 * c6


def sextic_potential(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    k: int,
) -> SexticPotential:
    """Exact sextic potential coefficients for level parameter k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    w1, w2, kc, kb = map(RationalComplex.coerce, (omega1, omega2, kappa_c, kappa_bar))
    kk = kc * kb
    delta = w2 - w1 * 2
    return SexticPotential(
        c0=(w2 * (2 * k + 5) - w1 * 2) / 4,
        c2=(delta * delta - kk * (4 * (2 * k + 3))) / 16,
        c4=-kk * delta / 8,
        c6=kk * kk / 16,
        k=k,
    )


@dataclass(frozen=True)
class GaugeConvention:
    """One point of the searched convention set."""

    w_sign: int
    exponent_sign: int
    kinetic: float
    shift: float


@dataclass(frozen=True)
class GaugeIdentityResult:
    """Winning convention and its residual, plus the residual of every try,
    and the W and V the identity was checked with."""

    residual: float
    convention: GaugeConvention
    tried: dict[tuple[int, int, float], float]
    superpotential: Superpotential
    potential: SexticPotential


def _laurent(coeffs: dict[int, Fraction]) -> Laurent:
    """The rational coefficients by exponent over their least common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in coeffs.items() if c}, den


def _product(p: Laurent, q: Laurent) -> Laurent:
    out: dict[int, int] = {}
    for i, a in p[0].items():
        for j, b in q[0].items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out, p[1] * q[1]


def _derivative(p: Laurent) -> Laurent:
    return {e - 1: e * c for e, c in p[0].items() if e}, p[1]


def _combination(*terms: tuple[int, Laurent]) -> Laurent:
    """sum of scale * p over the (int scale, p) terms over their lcm denominator, zeros dropped."""
    den = math.lcm(*(d for _, (_, d) in terms))
    out: dict[int, int] = {}
    for scale, (num, d) in terms:
        factor = scale * (den // d)
        for e, c in num.items():
            out[e] = out.get(e, 0) + factor * c
    return {e: c for e, c in out.items() if c}, den


def _in_y(poly: Polynomial, z_coeff: Fraction) -> Laurent:
    """poly(z) at z = z_coeff / y^2, for a polynomial with real coefficients."""
    return _laurent({-2 * j: c.re * z_coeff**j for j, c in enumerate(poly.coeffs)})


def check_gauge_identity(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    k: int,
) -> GaugeIdentityResult:
    """Verify the conjugation identity between the two pictures exactly.

    With psi = exp(s int W) f(z(y)), s the sign of W times the sign in the
    exponent, the sextic operator -kin d^2/dy^2 + V maps psi to exp(s int W)
    times the reduced operator c3 z^3 f'' + c1(z) f' + c0(z) f plus a
    constant shift times f exactly when, as Laurent polynomials in y,

        -kin z'^2 = c3 z^3,
        -kin (z'' + 2 s W z') = c1(z),
        V - kin (s W' + W^2) - c0(z) = shift.

    The signs of W and of the exponent and the kinetic normalization (1 or
    1/2) are searched in a fixed order; the first convention that holds wins
    with residual 0.0 and its exact shift, which is w2: the quoted constant
    term sits one mode-2 frequency above the conjugated operator.  `tried`
    maps every convention to 0.0 if it holds and to inf if not.

    Raises ValueError for a non-real argument, then for k < 0, then for
    kappa_bar = 0; ConventionMismatch with those residuals when no
    convention holds, and NumericalFailure when the shift does not fit in a
    double.
    """
    w1 = _as_real(omega1, "omega1")
    w2 = _as_real(omega2, "omega2")
    kc = _as_real(kappa_c, "kappa_c")
    kb = _as_real(kappa_bar, "kappa_bar")
    w = gauge_superpotential(w1, w2, kc, kb, k)
    pot = sextic_potential(w1, w2, kc, kb, k)
    if kb.is_zero:
        raise ValueError("kappa_bar must be nonzero: the change of variable is z = -1/(kb y^2)")

    ode = shg_ode(w1, w2, kc, kb, k)
    z_coeff = -1 / kb.re
    dz = _derivative(_laurent({-2: z_coeff}))
    sup = _laurent({-1: w.inverse_coeff.re, 1: w.linear_coeff.re, 3: w.cubic_coeff.re})
    c3_z3 = _laurent({-6: ode.c3.re * z_coeff**3})
    potential = _laurent({0: pot.c0.re, 2: pot.c2.re, 4: pot.c4.re, 6: pot.c6.re})
    dz_sq, d2z, w_dz = _product(dz, dz), _derivative(dz), _product(sup, dz)
    dw, w_sq = _derivative(sup), _product(sup, sup)
    c1, c0 = _in_y(ode.c1, z_coeff), _in_y(ode.c0, z_coeff)

    # each identity, taken times m = 1/kin so every scale is an integer, depends on the
    # convention only through (s, kin), f2 on kin alone; a convention stops at its first miss
    shifts: dict[tuple[int, float], Fraction] = {}  # the conventions that hold
    for kinetic, m in ((1.0, 1), (0.5, 2)):
        if _combination((-1, dz_sq), (-m, c3_z3))[0]:
            continue
        for sign in (1, -1):
            if _combination((-1, d2z), (-2 * sign, w_dz), (-m, c1))[0]:
                continue
            f0, den = _combination((m, potential), (-sign, dw), (-1, w_sq), (-m, c0))
            if f0.keys() <= {0}:
                shifts[(sign, kinetic)] = Fraction(f0.get(0, 0), m * den)

    tried = {
        (w_sign, exp_sign, kinetic): 0.0 if (w_sign * exp_sign, kinetic) in shifts else math.inf
        for w_sign in (1, -1)
        for exp_sign in (1, -1)
        for kinetic in (1.0, 0.5)
    }
    winner = next((key for key, residual in tried.items() if not residual), None)
    if winner is None:
        raise ConventionMismatch(
            f"gauge identity at k={k} leaves a non-constant remainder under every convention",
            tried,
        )
    w_sign, exp_sign, kinetic = winner
    try:
        shift = float(shifts[(w_sign * exp_sign, kinetic)])
        convention = GaugeConvention(w_sign, exp_sign, kinetic, shift)
    except OverflowError:
        raise NumericalFailure(f"gauge shift at k={k} exceeds double range", math.inf) from None
    return GaugeIdentityResult(0.0, convention, tried, w, pot)


def fd_spectrum(potential, halfwidth: float, grid_points: int) -> np.ndarray:
    """Lowest Dirichlet eigenvalues of -1/2 psi'' + V psi on [-L, L].

    Second-order central differences on grid_points interior nodes; the
    matrix is tridiagonal and solved exactly for its 5 lowest levels.  A
    SexticPotential is solved through its spectrum-preserving grid form,
    any other potential is a callable V(y).  The halfwidth L must be
    finite and positive.  Raises
    NumericalFailure when a matrix entry does not fit in double precision
    (residual inf) or, with residual NaN, when the solver does not converge.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if not 0 < halfwidth < math.inf:
        raise ValueError("halfwidth must be finite and positive")
    vfun = potential.grid_potential() if isinstance(potential, SexticPotential) else potential
    h = 2 * halfwidth / (grid_points + 1)
    nodes = h * (np.arange(1, grid_points + 1) - (grid_points + 1) / 2)
    h2 = np.float64(h**2)  # numpy division: 1 / 0 is inf, refused below
    with np.errstate(all="ignore"):
        diag = 1.0 / h2 + np.asarray(vfun(nodes), dtype=float)
        off = np.full(grid_points - 1, -0.5 / h2)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailure(
            f"finite-difference matrix at halfwidth {halfwidth!r} exceeds double range", math.inf
        )
    with checked_solve("finite-difference"):
        return lowest_eigenvalues(diag, off, min(5, grid_points))


# two oscillator-basis solves whose levels differ by at most LEVEL_TOL *
# max(1, |level|) have settled: the package's 1e-9 agreement bound
LEVEL_TOL = 1e-9
# the first basis holds max(_MIN_BASIS, 4 * count) states; it doubles up to _MAX_BASIS
_MIN_BASIS, _MAX_BASIS = 40, 8192
# the basis reaches where the WKB exponent past the last allowed grid point is 40
_WKB_DECAY = 40.0
_WKB_CELLS = 256


def _basis_range(grid: tuple[float, float, float, float], energy: float) -> float:
    """x_max, where the WKB exponent int sqrt(2 (v - energy)) dx of the grid
    potential v (_grid), from the last grid point where v <= energy, reaches
    _WKB_DECAY, so that every classically allowed region stays in the basis.
    A point is allowed only where v - energy < 0 beyond its rounding bound,
    so terms of v that cancel open no forbidden point.

    The exponent is a trapezoid sum on _WKB_CELLS equal cells of [0, span].
    The span starts at sqrt(R), R Fujiwara's bound on the roots of
    v(sqrt(u)) - energy, so it holds every turning point; it doubles until
    the sum reaches _WKB_DECAY, then halves while x_max is in its lower
    half.  A halved span never doubles: if its sum falls short, x_max = span."""
    g0, g2, g4, g6 = grid
    squares = np.arange(_WKB_CELLS + 1.0) ** 2  # (x / h)^2 at the grid points, h the cell width
    # v - energy by Horner errs by at most gamma_6 + u ~ 7 * 2^-53 times the
    # sum of the terms' magnitudes (Higham, Accuracy and Stability, 2nd ed.,
    # eq. 5.3); 8 * 2^-52 doubles that, for second-order terms and rounding
    n0, n2, n4, n6 = (-8 * 2.0**-52 * abs(c) for c in (abs(g0) + abs(energy), g2, g4, g6))
    with np.errstate(all="ignore"):
        a = np.array(((g0 - energy) / 2, g2, g4, g6))  # Fujiwara's bound halves the constant
        degree = max(i for i in (1, 2, 3) if a[i])
        bound = 2 * max(abs(a[i] / a[degree]) ** (1 / (degree - i)) for i in range(degree))
        span, x_max = np.sqrt(bound) or np.float64(1.0), math.nan
        while 0 < span < math.inf:
            h = span / _WKB_CELLS
            u = h * h * squares
            gap = (((g6 * u + g4) * u + g2) * u + g0) - energy
            f = np.sqrt(2 * np.maximum(gap, 0.0))
            allowed = np.flatnonzero(gap <= ((n6 * u + n4) * u + n2) * u + n0)
            f[: allowed[-1] if allowed.size else 0] = 0.0
            total = np.concatenate(([0.0], np.cumsum(f[1:] + f[:-1]) * (0.5 * h)))
            if total[-1] >= _WKB_DECAY:
                i = int(np.searchsorted(total, _WKB_DECAY))
                x_max = h * (i - 1 + (_WKB_DECAY - total[i - 1]) / (total[i] - total[i - 1]))
                if x_max >= span / 2:
                    break
                span /= 2
            elif math.isnan(x_max):  # no span has reached the decay yet
                span *= 2
            else:
                x_max = span
                break
    if not 0 < x_max < math.inf:
        raise NumericalFailure(
            f"no oscillator basis reaches the WKB range of level {energy!r}", math.inf
        )
    return x_max


def _sector_levels(
    grid: tuple[float, float, float, float], size: int, x_max: float, parity: int, count: int
) -> np.ndarray:
    """The count lowest Rayleigh-Ritz levels of -1/2 d^2/dx^2 + v(x), v the
    grid potential (_grid), on the parity sector of size oscillator states
    whose frequency omega = (2 size + 1) / x_max^2 makes them reach x_max.

    H = omega (n + 1/2) + g0 + (g2 - omega^2 / 2) x^2 + g4 x^4 + g6 x^6,
    with x = X / sqrt(2 omega) and X = a + a+.  The powers of X have closed
    matrix elements <n|X^p|n + 2i>, with r_m = sqrt((n + 1) ... (n + m)):

        X^2: 2n + 1, r_2
        X^4: 6n^2 + 6n + 3, (4n + 6) r_2, r_4
        X^6: 20n^3 + 30n^2 + 40n + 15, (15n^2 + 45n + 45) r_2, (6n + 15) r_4, r_6

    so every entry is that of the infinite matrix up to rounding.  A parity
    sector keeps every other state, so its matrix has three diagonals below
    the main one."""
    g0, g2, g4, g6 = grid
    n = np.arange(parity, size, 2, dtype=float)
    with np.errstate(all="ignore"):
        omega = (2 * size + 1) / np.square(x_max)  # a numpy float: its powers never raise
        unit = 2 * omega  # x^2 = X^2 / unit
        a2, a4, a6 = (g2 - omega * omega / 2) / unit, g4 / unit**2, g6 / unit**3
        r2 = np.sqrt((n + 1) * (n + 2))
        r4 = r2 * np.sqrt((n + 3) * (n + 4))
        # the diagonals at offsets 0, 2, 4, 6 of the full basis: the sector's lower band storage
        bands = np.array([
            omega * (n + 0.5) + g0 + a2 * (2 * n + 1) + a4 * ((6 * n + 6) * n + 3)
            + a6 * (((20 * n + 30) * n + 40) * n + 15),
            (a2 + a4 * (4 * n + 6) + a6 * ((15 * n + 45) * n + 45)) * r2,
            (a4 + a6 * (6 * n + 15)) * r4,
            a6 * r4 * np.sqrt((n + 5) * (n + 6)),
        ])
    if not np.isfinite(bands).all():
        raise NumericalFailure(
            f"oscillator-basis matrix on {size} states exceeds double range", math.inf
        )
    with checked_solve("oscillator-basis"):
        return band_eigenvalues(bands)[:count]


def oscillator_levels(
    potential: SexticPotential, count: int, highest: float
) -> tuple[np.ndarray, np.ndarray]:
    """The count lowest levels of the parity (-1)^k sector of the sextic
    oscillator -d^2/dy^2 + V(y), with the last doubling difference of each.

    Rayleigh-Ritz in the harmonic-oscillator basis (MacDonald 1933), on the
    spectrum-preserving grid form -1/2 d^2/dx^2 + v(x).  The basis scale
    follows from highest, the highest level wanted: N states reach x_max
    (_basis_range), where the WKB exponent past the last grid point below
    that level is _WKB_DECAY.  N starts at max(_MIN_BASIS, 4 count) and
    doubles until two solves agree to LEVEL_TOL * max(1, |level|) on every
    level; the finer solve's levels come with their distance from the
    coarser one.
    By the gauge identity, block level j + w2 of the same k is level j.

    Raises NumericalFailure when 2N > _MAX_BASIS, when a coefficient of V is
    not real, when V does not confine (no bound states), when an entry does
    not fit in a double, with residual NaN when LAPACK does not converge,
    and when levels still move at _MAX_BASIS.
    """
    size = max(_MIN_BASIS, 4 * count)
    if 2 * size > _MAX_BASIS:
        raise NumericalFailure(
            f"{count} sextic levels at k={potential.k} need a basis of {2 * size} oscillator"
            f" states to settle, more than {_MAX_BASIS}",
            math.inf,
        )
    coeffs = potential.real_coeffs()
    _, c2, c4, c6 = coeffs
    # the highest nonzero of c6, c4, c2 sets the sign of v far out
    if not next((c for c in (c6, c4, c2) if c), 0.0) > 0:
        raise NumericalFailure(
            f"sextic potential at k={potential.k} does not confine"
            f" (c2={c2!r}, c4={c4!r}, c6={c6!r}): it has no bound states",
            math.inf,
        )
    grid = _grid(coeffs)
    x_max = _basis_range(grid, highest)
    parity = potential.k % 2
    levels = _sector_levels(grid, size, x_max, parity, count)
    while 2 * size <= _MAX_BASIS:  # at least once, by the refusal above
        size *= 2
        finer = _sector_levels(grid, size, x_max, parity, count)
        moved = np.abs(finer - levels)
        if (moved <= LEVEL_TOL * np.maximum(1.0, np.abs(finer))).all():
            return finer, moved
        levels = finer
    worst = float(moved.max())
    raise NumericalFailure(
        f"sextic levels at k={potential.k} do not settle within {_MAX_BASIS} oscillator"
        f" states (last move {worst!r})",
        worst,
    )
