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

A deliberately simple finite-difference solver (three-point Laplacian,
Dirichlet box, the lowest levels of the tridiagonal matrix by LAPACK's
bisection dstebz) provides desk-scale spectra
for cross-checking the block energies inside the sextic spectrum.  Its
nodes are mirror-symmetric, so an even potential (every sextic one) is
solved as the direct sum of its even and odd sectors: each level is
bisected on half the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._lapack import lowest_eigenvalues
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
    grid_potential for the form matched to the -1/2 d^2/dx^2 solver.
    """

    c0: RationalComplex
    c2: RationalComplex
    c4: RationalComplex
    c6: RationalComplex
    k: int

    def real_coeffs(self) -> tuple[float, float, float, float]:
        """The coefficients as floats; raises ValueError for one that is not
        real and NumericalFailure when one does not fit in a double."""
        named = {"c0": self.c0, "c2": self.c2, "c4": self.c4, "c6": self.c6}
        for name, c in named.items():
            if not c.is_real:
                raise ValueError(f"{name} is not real: {c}")
        try:
            return tuple(float(c.re) for c in named.values())
        except OverflowError:
            raise NumericalFailure("one of c0, c2, c4, c6 exceeds double range", math.inf) from None

    def __call__(self, y):
        c0, c2, c4, c6 = self.real_coeffs()
        y2 = np.asarray(y) ** 2
        return c0 + c2 * y2 + c4 * y2**2 + c6 * y2**3

    def grid_potential(self):
        """Potential rescaled for the -1/2 d^2/dx^2 kinetic convention.

        Substituting y = sqrt(2) x maps -d^2/dy^2 + V(y) onto
        -1/2 d^2/dx^2 + V(sqrt(2) x) with an identical spectrum, so the
        finite-difference solver can be reused without changing its
        kinetic term.
        """
        c0, c2, c4, c6 = self.real_coeffs()

        def v(x):
            x2 = np.asarray(x) ** 2
            return c0 + 2 * c2 * x2 + 4 * c4 * x2**2 + 8 * c6 * x2**3

        return v


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


def _check_grid(halfwidth: float, grid_points: int) -> None:
    """Raises ValueError unless fd_spectrum can lay out this grid."""
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if not 0 < halfwidth < math.inf:
        raise ValueError("halfwidth must be finite and positive")


def fd_spectrum(potential, halfwidth: float, grid_points: int) -> np.ndarray:
    """Lowest Dirichlet eigenvalues of -1/2 psi'' + V psi on [-L, L].

    Second-order central differences on grid_points interior nodes; the
    matrix is tridiagonal and solved exactly for the lowest levels: 5, or
    max(5, k + 2) for a SexticPotential of level k, which is solved through
    its spectrum-preserving grid form.  Any other potential is a callable
    V(y).  The halfwidth L must be finite and positive.  Raises
    NumericalFailure when a matrix entry does not fit in double precision
    (residual inf) or, with residual NaN, when the solver does not converge.

    The nodes h (i - (N + 1)/2), i = 1..N, are mirror-symmetric.  When the
    diagonal equals its own reverse, as for any even V, the matrix is the
    direct sum of the even and odd sectors, and that direct sum is solved:
    the same N rows with the coupling between the two halves set to 0.  For
    even N = 2m the two nodes next to the centre get d_m + e (even) and
    d_m - e (odd) on the diagonal; for odd N the centre node joins the even
    sector with coupling sqrt(2) e.  Any other V is solved unfolded.
    """
    _check_grid(halfwidth, grid_points)
    if isinstance(potential, SexticPotential):
        vfun, levels = potential.grid_potential(), max(5, potential.k + 2)
    else:
        vfun, levels = potential, 5
    h = 2 * halfwidth / (grid_points + 1)
    # mirror-symmetric nodes: an even V gives a bit-for-bit symmetric diagonal
    nodes = h * (np.arange(1, grid_points + 1) - (grid_points + 1) / 2)
    h2 = np.float64(h**2)  # numpy division: 1 / 0 is inf, refused below
    with np.errstate(all="ignore"):
        diag = 1.0 / h2 + np.asarray(vfun(nodes), dtype=float)
        off = np.full(grid_points - 1, -0.5 / h2)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailure(
            f"finite-difference matrix at halfwidth {halfwidth!r} exceeds double range", math.inf
        )
    if np.array_equal(diag, diag[::-1]):
        # the direct sum of the even sector (first rows) and the odd sector
        # (last rows): dstebz splits at the zero and bisects each half alone
        m = grid_points // 2
        if grid_points % 2:  # the centre node m joins the even sector
            off[m - 1] *= math.sqrt(2)
            off[m] = 0.0
        else:
            diag[m - 1] += off[m - 1]
            diag[m] -= off[m - 1]
            off[m - 1] = 0.0
    with checked_solve("finite-difference"):
        return lowest_eigenvalues(diag, off, min(levels, grid_points))


def constant_shift_match(
    candidates: np.ndarray, reference: np.ndarray
) -> tuple[float, float]:
    """Best constant shift placing every reference level on a candidate.

    Tries anchoring the lowest reference level to each candidate level and
    returns (shift, max deviation) for the anchoring that fits best, the
    first such candidate on ties.  Used to locate the block energies inside
    a finite-difference spectrum when the two operators are known to differ
    by a constant.  Both sides are finite levels.
    """
    candidates = np.asarray(candidates, dtype=float)
    reference = np.sort(np.asarray(reference, dtype=float))
    if candidates.size == 0 or reference.size == 0:
        raise ValueError("need at least one level on both sides")
    shifts = candidates - reference[0]
    # [anchor, reference level, candidate]: each shifted level's distance to
    # its nearest candidate, then the worst level of each anchoring
    placed = reference + shifts[:, None]
    devs = np.abs(candidates - placed[:, :, None]).min(axis=2).max(axis=1)
    best = int(np.argmin(devs))
    return float(shifts[best]), float(devs[best])
