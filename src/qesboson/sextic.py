"""Gauge transformation of the reduced two-photon ODE to Schroedinger form.

Changing variable z = -1/(kb y^2) and peeling off exp(-int W dy) with the
superpotential

    W(y) = k/y + (w2 - 2 w1) y / 4 - kc kb y^3 / 4

turns the reduced second-order operator into a one-dimensional
Schroedinger operator with a sextic polynomial potential.  The conjugation
is checked here exactly, in Laurent polynomials of y with rational
coefficients, with the sign and normalization freedoms of the construction
searched explicitly: the identity holds for kinetic term -d^2/dy^2 (not
the halved form the potential is usually quoted with) and the quoted
constant term sits exactly one mode-2 frequency w2 above the conjugated
operator.  Both findings are derived per call, not assumed.  The search
stops each convention at the first of its three identities that fails,
and W and V are formed once per argument set, so one `sextic` request
builds each once for its output and its gauge check.

The sextic levels that `sextic --fd` matches come from Rayleigh-Ritz in
the harmonic-oscillator basis (MacDonald 1933; Turbiner 1988): x is
tridiagonal there, so x^2, x^4 and x^6 are built band by band, and each
parity sector is a seven-diagonal band matrix solved by LAPACK's dsbevd.
The basis scale follows a WKB rule from the highest level wanted, and the
basis doubles until two solves agree to LEVEL_TOL.  By the gauge identity,
block level j + w2 is level j of the parity (-1)^k sector.

A deliberately simple finite-difference solver (three-point Laplacian,
Dirichlet box, the lowest levels of the tridiagonal matrix by LAPACK's
bisection dstebz) provides desk-scale spectra of any potential for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._lapack import band_eigenvalues, lowest_eigenvalues
from .errors import ConventionMismatch, NumericalFailure
from .exact import Polynomial, Rationalish, RationalComplex
from .oracle import checked_solve
from .reduction import shg_ode

# a Laurent polynomial in y: exponent -> nonzero rational coefficient
Laurent = dict[int, Fraction]


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
    """Coefficients (k of 1/y, (w2-2w1)/4 of y, -kc*kb/4 of y^3).

    Built once per exact argument set: the CLI and check_gauge_identity
    share the same instance within a request."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _superpotential(*map(RationalComplex.coerce, (omega1, omega2, kappa_c, kappa_bar)), k)


@lru_cache(maxsize=8, typed=True)
def _superpotential(
    w1: RationalComplex, w2: RationalComplex, kc: RationalComplex, kb: RationalComplex, k: int
) -> Superpotential:
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
        """The coefficients as floats; raises ValueError for one that is not
        real and NumericalFailure when one does not fit in a double: too
        large, or nonzero but rounded to 0.0, which would change the shape
        of the potential."""
        named = {"c0": self.c0, "c2": self.c2, "c4": self.c4, "c6": self.c6}
        for name, c in named.items():
            if not c.is_real:
                raise ValueError(f"{name} is not real: {c}")
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
    """Exact sextic potential coefficients for level parameter k, built once
    per exact argument set like gauge_superpotential's."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _sextic_potential(*map(RationalComplex.coerce, (omega1, omega2, kappa_c, kappa_bar)), k)


@lru_cache(maxsize=8, typed=True)
def _sextic_potential(
    w1: RationalComplex, w2: RationalComplex, kc: RationalComplex, kb: RationalComplex, k: int
) -> SexticPotential:
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
    """Winning convention and its residual, plus the residual of every try."""

    residual: float
    convention: GaugeConvention
    tried: dict[tuple[int, int, float], float]


def _product(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _derivative(p: Laurent) -> Laurent:
    return {e - 1: e * c for e, c in p.items() if e}


def _combination(*terms: tuple[Fraction, Laurent]) -> Laurent:
    """sum of scale * p over the (scale, p) terms, zero coefficients dropped."""
    out: Laurent = {}
    for scale, p in terms:
        for e, c in p.items():
            out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _in_y(poly: Polynomial, z_coeff: Fraction) -> Laurent:
    """poly(z) at z = z_coeff / y^2, for a polynomial with real coefficients."""
    return {-2 * j: c.re * z_coeff**j for j, c in enumerate(poly.coeffs)}


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

    Raises ConventionMismatch with those residuals when no convention holds,
    and NumericalFailure when the shift does not fit in a double.
    """
    w1 = _as_real(omega1, "omega1")
    w2 = _as_real(omega2, "omega2")
    kc = _as_real(kappa_c, "kappa_c")
    kb = _as_real(kappa_bar, "kappa_bar")
    if kb.is_zero:
        raise ValueError("kappa_bar must be nonzero: the change of variable is z = -1/(kb y^2)")

    ode = shg_ode(w1, w2, kc, kb, k)
    w = gauge_superpotential(w1, w2, kc, kb, k)
    pot = sextic_potential(w1, w2, kc, kb, k)
    z_coeff = -1 / kb.re
    dz = _derivative({-2: z_coeff})
    sup = {-1: w.inverse_coeff.re, 1: w.linear_coeff.re, 3: w.cubic_coeff.re}
    c3_z3 = {-6: ode.c3.re * z_coeff**3}
    potential = {0: pot.c0.re, 2: pot.c2.re, 4: pot.c4.re, 6: pot.c6.re}
    dz_sq, d2z, w_dz = _product(dz, dz), _derivative(dz), _product(sup, dz)
    dw, w_sq = _derivative(sup), _product(sup, sup)
    c1, c0 = _in_y(ode.c1, z_coeff), _in_y(ode.c0, z_coeff)

    # each identity depends on the convention only through (s, kin), f2 on kin
    # alone; a convention fails at its first identity that does not hold
    shifts: dict[tuple[int, float], Fraction] = {}  # the conventions that hold
    for kinetic in (1.0, 0.5):
        kin = Fraction(kinetic)
        if _combination((-kin, dz_sq), (-1, c3_z3)):
            continue
        for sign in (1, -1):
            if _combination((-kin, d2z), (-2 * sign * kin, w_dz), (-1, c1)):
                continue
            f0 = _combination((1, potential), (-sign * kin, dw), (-kin, w_sq), (-1, c0))
            if f0.keys() <= {0}:
                shifts[(sign, kinetic)] = f0.get(0, Fraction(0))

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
    return GaugeIdentityResult(residual=0.0, convention=convention, tried=tried)


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
# the basis reaches where the WKB exponent past the outer turning point is 40
_WKB_DECAY = 40.0
_WKB_CELLS = 256


def _turning_point(a: tuple[float, float, float, float]) -> float:
    """The largest u >= 0 where p(u) = a0 + a1 u + a2 u^2 + a3 u^3 vanishes,
    or 0.0 when p > 0 on u >= 0; the highest nonzero of a3, a2, a1 is
    positive.

    u = scale * w turns p into a monic q whose other coefficients lie in
    [-1, 1], so that no step overflows and every root has |w| <= 2
    (Fujiwara's bound).  Past its last critical point q rises, so its
    largest root lies there when q <= 0 at that point (or at 0, when the
    point is negative), and otherwise below it, on the rising stretch that
    starts at w = 0 when q(0) < 0.  Either way one sign change is bisected.
    """
    degree = max(i for i in (1, 2, 3) if a[i])
    lead = a[degree]
    scale = max((abs(a[i]) / lead) ** (1 / (degree - i)) for i in range(degree)) or 1.0
    b0, b1, b2, b3 = (a[i] / lead / scale ** (degree - i) if i <= degree else 0.0 for i in range(4))

    def q(w: float) -> float:
        return ((b3 * w + b2) * w + b1) * w + b0

    crit = -math.inf
    if b3 and b2 * b2 > 3 * b1:
        crit = (math.sqrt(b2 * b2 - 3 * b1) - b2) / 3
    elif not b3 and b2:
        crit = -b1 / 2
    lo = max(crit, 0.0)
    if q(lo) <= 0:
        hi = 2.0
    elif q(0.0) < 0:
        lo, hi = 0.0, crit
    else:
        return 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if q(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return scale * hi


def _basis_range(grid: tuple[float, float, float, float], energy: float) -> float:
    """x_max, where the WKB exponent int sqrt(2 (v - energy)) dx, taken from
    the outer turning point x_t of the grid potential v (_grid), reaches _WKB_DECAY.

    With x = x_t + s^2 the integrand 2 s sqrt(2 (v - energy)) is smooth at
    the turning point; it is summed by the trapezoid rule on _WKB_CELLS
    cells of s, over a span of x that starts at the linear-slope estimate
    and grows fourfold until the sum reaches _WKB_DECAY."""
    g0, g2, g4, g6 = grid
    with np.errstate(all="ignore"):
        u_t = _turning_point((g0 - energy, g2, g4, g6))
        x_t = math.sqrt(u_t)
        slope = 2 * x_t * ((3 * g6 * u_t + 2 * g4) * u_t + g2)  # v'(x_t)
        # v - energy ~ slope (x - x_t) reaches the decay at this span
        span = (1.5 * _WKB_DECAY / math.sqrt(2 * slope)) ** (2 / 3) if slope > 0 else 0.0
        if not 0 < span < math.inf:
            span = x_t or 1.0
        t = np.linspace(0.0, 1.0, _WKB_CELLS + 1)
        x_max = math.nan
        while span < math.inf:
            s = math.sqrt(span) * t
            u = (x_t + s * s) ** 2
            gap = np.maximum((((g6 * u + g4) * u + g2) * u + g0) - energy, 0.0)
            f = 2 * s * np.sqrt(2 * gap)
            total = np.concatenate(([0.0], np.cumsum(f[1:] + f[:-1]) * (0.5 * s[1])))
            if total[-1] >= _WKB_DECAY:
                i = int(np.searchsorted(total, _WKB_DECAY))
                end = s[i - 1] + s[1] * (_WKB_DECAY - total[i - 1]) / (total[i] - total[i - 1])
                x_max = x_t + end * end
                break
            span *= 4
    if not 0 < x_max < math.inf:
        raise NumericalFailure(
            f"no oscillator basis reaches the WKB range of level {energy!r}", math.inf
        )
    return x_max


def _x2_bands(size: int, omega: float) -> np.ndarray:
    """x^2 = (a^2 + a+^2 + 2n + 1) / (2 omega) on size oscillator states, as
    band rows in _band_product's layout: offsets -2, 0, 2."""
    n = np.arange(size, dtype=float)
    bands = np.zeros((3, size))
    bands[1] = (2 * n + 1) / (2 * omega)
    bands[2, :-2] = np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) / (2 * omega)
    bands[0, 2:] = bands[2, :-2]
    return bands


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two band matrices that couple only states an even
    distance apart.  Row k + i of a (2k + 1)-row array holds the diagonal at
    offset 2i: entry n is <n|M|n + 2i>, 0 where n + 2i is out of range.
    Then (AB)[n, n + 2(i + j)] gathers A[n, n + 2i] B[n + 2i, n + 2(i + j)]."""
    ka, kb = a.shape[0] // 2, b.shape[0] // 2
    size = a.shape[1]
    out = np.zeros((2 * (ka + kb) + 1, size))
    for i in range(-ka, ka + 1):
        t = 2 * i
        lo, hi = max(0, -t), min(size, size - t)
        out[ka + i : ka + i + 2 * kb + 1, lo:hi] += a[ka + i, lo:hi] * b[:, lo + t : hi + t]
    return out


def _sector_levels(
    grid: tuple[float, float, float, float], size: int, x_max: float, parity: int, count: int
) -> np.ndarray:
    """The count lowest Rayleigh-Ritz levels of -1/2 d^2/dx^2 + v(x), v the
    grid potential (_grid), on the parity sector of size oscillator states
    whose frequency omega = (2 size + 1) / x_max^2 makes them reach x_max.

    H = omega (n + 1/2) + g0 + (g2 - omega^2 / 2) x^2 + g4 x^4 + g6 x^6,
    with x^4 and x^6 multiplied out band by band on size + 8 states and
    cut to size, so every kept entry is exact up to rounding.  A parity
    sector keeps every other state, so its matrix has three diagonals
    below the main one."""
    g0, g2, g4, g6 = grid
    omega = (2 * size + 1) / (x_max * x_max)
    with np.errstate(all="ignore"):
        x2 = _x2_bands(size + 8, omega)
        x4 = _band_product(x2, x2)
        x6 = _band_product(x4, x2)
        # the diagonals at offsets 0, 2, 4, 6; the sector's lower band storage
        upper = g6 * x6[3:]
        upper[:3] += g4 * x4[2:]
        upper[:2] += (g2 - omega * omega / 2) * x2[1:]
        upper[0] += omega * (np.arange(size + 8) + 0.5) + g0
        bands = upper[:, parity:size:2]
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
    follows from highest, the highest level wanted: it makes N states reach
    x_max, where the WKB exponent past that level's outer turning point is
    _WKB_DECAY.  N starts at max(_MIN_BASIS, 4 count) and doubles until two
    solves agree to LEVEL_TOL * max(1, |level|) on every level; the finer
    solve's levels are returned with their distance from the coarser one.
    By the gauge identity, block level j + w2 of the same k is level j.

    Raises NumericalFailure when V does not confine (no bound states), when
    an entry does not fit in a double, with residual NaN when LAPACK does
    not converge, and when the levels have not settled at _MAX_BASIS states.
    """
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
    size = max(_MIN_BASIS, 4 * count)
    levels, worst = None, math.inf
    while size <= _MAX_BASIS:
        finer = _sector_levels(grid, size, x_max, parity, count)
        if levels is not None:
            moved = np.abs(finer - levels)
            if (moved <= LEVEL_TOL * np.maximum(1.0, np.abs(finer))).all():
                return finer, moved
            worst = float(moved.max())
        levels = finer
        size *= 2
    raise NumericalFailure(
        f"sextic levels at k={potential.k} do not settle within {_MAX_BASIS} oscillator"
        f" states (last move {worst!r})",
        worst,
    )
