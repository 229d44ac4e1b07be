"""Gauge transformation of the reduced two-photon ODE to Schroedinger form.

Changing variable z = -1/(kb y^2) and peeling off exp(-int W dy) with the
superpotential

    W(y) = k/y + (w2 - 2 w1) y / 4 - kc kb y^3 / 4

turns the reduced second-order operator into a one-dimensional
Schroedinger operator with a sextic polynomial potential.  The conjugation
is verified here numerically, on random polynomial test functions, with
the sign and normalization freedoms of the construction searched
explicitly: the identity holds exactly for kinetic term -d^2/dy^2 (not
the halved form the potential is usually quoted with) and the quoted
constant term sits a fixed mode-2 frequency above the conjugated
operator.  Both findings are reported, not assumed.

A deliberately simple finite-difference solver (three-point Laplacian,
Dirichlet box, dense tridiagonal eigensolve) provides desk-scale spectra
for cross-checking the block energies inside the sextic spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConventionMismatch, NumericalFailure
from .exact import Polynomial, Rationalish, RationalComplex
from .oracle import checked_solve
from .reduction import OdeCoefficients, shg_ode

# seven-point central second-derivative weights
STENCIL_D2 = (
    1.0 / 90.0,
    -3.0 / 20.0,
    1.5,
    -49.0 / 18.0,
    1.5,
    -3.0 / 20.0,
    1.0 / 90.0,
)

# the gauge check's random polynomial test functions (degree, count and
# generator seed), its sample points y in GAUGE_Y_RANGE and the largest
# residual it accepts
GAUGE_POLY_DEGREE = 3
GAUGE_POLY_COUNT = 5
GAUGE_SEED = 20260810
GAUGE_SAMPLES = 25
GAUGE_Y_RANGE = (0.5, 2.0)
GAUGE_TOLERANCE = 1e-6


def _real_floats(*named: tuple[str, RationalComplex]) -> tuple[float, ...]:
    """The named coefficients as floats; raises ValueError for one that is
    not real and NumericalFailure when one does not fit in a double."""
    for name, c in named:
        if not c.is_real:
            raise ValueError(f"{name} is not real: {c}")
    try:
        return tuple(float(c.re) for _, c in named)
    except OverflowError:
        names = ", ".join(name for name, _ in named)
        raise NumericalFailure(f"one of {names} exceeds double range", math.inf) from None


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

    @cached_property
    def _real_parts(self) -> tuple[float, float, float]:
        return _real_floats(
            ("inverse coefficient", self.inverse_coeff),
            ("linear coefficient", self.linear_coeff),
            ("cubic coefficient", self.cubic_coeff),
        )

    def __call__(self, y: float) -> float:
        a, b, c = self._real_parts
        return a / y + b * y + c * y**3

    def integral(self, y: float) -> float:
        """int W dy = inverse*log(y) + linear*y^2/2 + cubic*y^4/4 (y > 0)."""
        a, b, c = self._real_parts
        return a * math.log(y) + b * y**2 / 2 + c * y**4 / 4


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
    w1 = RationalComplex.coerce(omega1)
    w2 = RationalComplex.coerce(omega2)
    kk = RationalComplex.coerce(kappa_c) * RationalComplex.coerce(kappa_bar)
    return Superpotential(
        inverse_coeff=RationalComplex.coerce(k),
        linear_coeff=(w2 - w1 * 2) / 4,
        cubic_coeff=-kk / 4,
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
        return _real_floats(("c0", self.c0), ("c2", self.c2), ("c4", self.c4), ("c6", self.c6))

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
    """Exact sextic potential coefficients for level parameter k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    w1 = RationalComplex.coerce(omega1)
    w2 = RationalComplex.coerce(omega2)
    kk = RationalComplex.coerce(kappa_c) * RationalComplex.coerce(kappa_bar)
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


def second_derivative(fn, y: float, h: float) -> float:
    """Seven-point central-stencil second derivative."""
    return sum(
        w * fn(y + (i - 3) * h) for i, w in enumerate(STENCIL_D2)
    ) / h**2


def check_gauge_identity(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    k: int,
) -> GaugeIdentityResult:
    """Numerically verify the conjugation identity between the two pictures.

    For random polynomial test functions phi(z), the reduced operator
    applied to phi and mapped to the y picture is compared against the
    sextic Schroedinger operator applied to psi = exp(sign * int W)
    phi(z(y)), with the second derivative taken by a seven-point stencil
    at relative step 1e-3.  The overall sign of W, the sign in the
    exponent and the kinetic normalization (1 or 1/2) are searched; a
    single constant operator shift per convention is fitted by least
    squares and reported, since the quoted constant term is known to sit
    one mode-2 frequency above the conjugated operator.

    Raises ConventionMismatch with the per-convention residuals unless the
    best residual that is a number is at most GAUGE_TOLERANCE, and
    NumericalFailure when a sample does not fit in double precision.
    """
    w1 = _as_real(omega1, "omega1")
    w2 = _as_real(omega2, "omega2")
    kc = _as_real(kappa_c, "kappa_c")
    kb = _as_real(kappa_bar, "kappa_bar")
    if kb.is_zero:
        raise ValueError("kappa_bar must be nonzero: the change of variable is z = -1/(kb y^2)")
    if k < 0:
        raise ValueError("k must be non-negative")

    ode = shg_ode(w1, w2, kc, kb, k)
    w = gauge_superpotential(w1, w2, kc, kb, k)
    pot = sextic_potential(w1, w2, kc, kb, k)
    try:
        fits = _convention_fits(ode, w, pot, float(kb.re))
    except OverflowError:
        raise NumericalFailure(
            f"gauge check samples at k={k} do not fit in double precision", math.inf
        ) from None

    tried: dict[tuple[int, int, float], float] = {}
    best: tuple[float, GaugeConvention | None] = (math.nan, None)
    for w_sign in (1, -1):
        for exp_sign in (1, -1):
            for kinetic in (1.0, 0.5):
                residual, shift = fits[(w_sign * exp_sign, kinetic)]
                tried[(w_sign, exp_sign, kinetic)] = residual
                convention = GaugeConvention(w_sign, exp_sign, kinetic, shift)
                # a NaN residual wins only over NaN
                if residual < best[0] or math.isnan(best[0]):
                    best = (residual, convention)

    residual, convention = best
    if not residual <= GAUGE_TOLERANCE:
        raise ConventionMismatch(
            f"gauge identity fails under every convention; best residual"
            f" {residual:.3e} at {convention}",
            tried,
        )
    return GaugeIdentityResult(residual=residual, convention=convention, tried=tried)


@np.errstate(all="ignore")  # check_gauge_identity refuses NaN and inf residuals
def _convention_fits(
    ode: OdeCoefficients, w: Superpotential, pot: SexticPotential, kbf: float
) -> dict[tuple[int, float], tuple[float, float]]:
    """(residual, shift) of the gauge check's least-squares fit per (sign of
    W times sign of the exponent, kinetic factor); raises OverflowError
    when a sample does not fit in double precision."""
    c0, c2, c4, c6 = pot.real_coeffs()
    rng = np.random.default_rng(GAUGE_SEED)
    polys = [
        Polynomial.from_coeffs(
            [float(c) for c in rng.uniform(-1.0, 1.0, size=GAUGE_POLY_DEGREE + 1)]
        )
        for _ in range(GAUGE_POLY_COUNT)
    ]
    ys = np.linspace(*GAUGE_Y_RANGE, GAUGE_SAMPLES)

    def z_of(y: float) -> float:
        return -1.0 / (kbf * y * y)

    # only the sign of the exponent and the kinetic factor depend on the
    # convention, so the operator action and the potential are sampled once,
    # psi and its second derivative once per sign, and conventions sharing
    # (sign, kinetic) share one fit
    actions = [[ode.action(poly)(z_of(y)).real for y in ys] for poly in polys]
    potential = [c0 + c2 * y**2 + c4 * y**4 + c6 * y**6 for y in ys]
    samples = range(len(ys))
    fits: dict[tuple[int, float], tuple[float, float]] = {}
    for sign in (1, -1):
        gauges = [math.exp(sign * w.integral(y)) for y in ys]
        psis, d2s = [], []
        for poly in polys:
            def psi(y: float) -> float:
                return math.exp(sign * w.integral(y)) * poly.eval_complex(
                    z_of(y)
                ).real

            psis.append([psi(y) for y in ys])
            d2s.append([second_derivative(psi, y, 1e-3 * abs(y)) for y in ys])
        lhs_arr = np.array([gauges[i] * action[i] for action in actions for i in samples])
        psi_arr = np.array([p[i] for p in psis for i in samples])
        for kinetic in (1.0, 0.5):
            rhs_arr = np.array(
                [-kinetic * d2[i] + potential[i] * p[i] for p, d2 in zip(psis, d2s) for i in samples]
            )
            shift = float(np.dot(psi_arr, rhs_arr - lhs_arr) / np.dot(psi_arr, psi_arr))
            scale = float(np.max(np.abs(lhs_arr) + np.abs(rhs_arr)))
            residual = float(
                np.max(np.abs(rhs_arr - lhs_arr - shift * psi_arr)) / scale
            )
            fits[(sign, kinetic)] = (residual, shift)
    return fits


def fd_spectrum(potential, halfwidth: float, grid_points: int) -> np.ndarray:
    """Lowest Dirichlet eigenvalues of -1/2 psi'' + V psi on [-L, L].

    Second-order central differences on grid_points interior nodes; the
    matrix is tridiagonal and solved exactly for the lowest levels: 5, or
    max(5, k + 2) for a SexticPotential of level k, which is solved through
    its spectrum-preserving grid form.  Any other potential is a callable
    V(y).  The halfwidth L must be finite and positive.  Raises
    NumericalFailure when a matrix entry does not fit in double precision
    (residual inf) or, with residual NaN, when the solver does not converge.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if not 0 < halfwidth < math.inf:
        raise ValueError("halfwidth must be finite and positive")
    if isinstance(potential, SexticPotential):
        vfun, levels = potential.grid_potential(), max(5, potential.k + 2)
    else:
        vfun, levels = potential, 5
    h = 2 * halfwidth / (grid_points + 1)
    nodes = -halfwidth + h * np.arange(1, grid_points + 1)
    h2 = np.float64(h**2)  # numpy division: 1 / 0 is inf, refused below
    with np.errstate(all="ignore"):
        diag = 1.0 / h2 + np.asarray(vfun(nodes), dtype=float)
        off = np.full(grid_points - 1, -0.5 / h2)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailure(
            f"finite-difference matrix at halfwidth {halfwidth!r} exceeds double range", math.inf
        )
    last = min(levels, grid_points) - 1
    with checked_solve("finite-difference"):
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, last))[0]


def constant_shift_match(
    candidates: np.ndarray, reference: np.ndarray
) -> tuple[float, float]:
    """Best constant shift placing every reference level on a candidate.

    Tries anchoring the lowest reference level to each candidate level and
    returns (shift, max deviation) for the anchoring that fits best.  Used
    to locate the block energies inside a finite-difference spectrum when
    the two operators are known to differ by a constant.
    """
    candidates = np.asarray(candidates, dtype=float)
    reference = np.sort(np.asarray(reference, dtype=float))
    if candidates.size == 0 or reference.size == 0:
        raise ValueError("need at least one level on both sides")
    best: tuple[float, float] | None = None
    for anchor in candidates:
        shift = float(anchor - reference[0])
        dev = float(
            max(np.min(np.abs(candidates - (r + shift))) for r in reference)
        )
        if best is None or dev < best[1]:
            best = (shift, dev)
    return best
