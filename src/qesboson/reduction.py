"""Reduction of conserving two-mode Hamiltonians to single-variable form.

Within one charge block the second mode is slaved to the first: fixing
s*n1 + p*n2 = kappa makes n2 a function of n1.  A non-unitary similarity
transformation decouples the slaved mode, turning each conserving term
into a mode-1 ladder pair (m1, m2) dressed with its coupling times a
falling factorial of the slaved occupation.  Realizing the remaining mode
on monomials (a1 = d/dx, a1+ = x) gives a finite banded matrix per block,
isospectral to the exact Fock-space block.

The transformation built from powers of a2+ (the a2+ route,
matrix_element_reduction) is exactly the monomial realization,
R = D^-1 M D with D = diag(sqrt(n1! n2!)) and M the exact block matrix.
The banded matrix drives a scalar recurrence whose polynomial solutions
in the energy terminate at the block dimension; the roots of the
terminating member are the block spectrum.

R is far from normal (D spans hundreds of decades on large blocks), so a
small residual of R does not bound its eigenvalue error.  A block that
algebra._band_shape, the one exact decision on the band keys and columns,
finds tridiagonal with full off-diagonals b_i = R[i, i+1], c_i = R[i+1, i],
whose products b_i c_i are positive and whose diagonal is real, is therefore
solved as the symmetric Jacobi matrix with off-diagonals sqrt(b_i c_i), a
diagonal similarity of R (Golub & Welsch 1969); every other block keeps a
dense eig of R.  Like the oracle, this route hands J or R's own float
entries to the one solve (oracle._solve_block) as a band block
(oracle.FockBlock), so the routes differ in the block they pass, not in
the solver or its residual gate.

A block is assembled from h's coefficients as integer numerators over one
common denominator (algebra._integer_terms, the oracle's own integer form
of h) times two integer falling factorials, band by band: each band's
numerators come from one pass over the degrees (algebra._block_bands, the
oracle's own band assembly, read over the block's states in degree order).
The block keeps that band form from assembly to solve (ReducedBlock.bands).
Its float band block and J are formed straight from its integers, each
float by one correctly rounded integer division.  The energy polynomials
exist where _band_shape finds no entry right of the recurrence's
superdiagonal and none vanishing on it; their recurrence runs fraction-free
on the numerators, in Gaussian integers (energy_polynomial_table).

Closure is conservation, as on the oracle route: ReducedOperator, which
matrix_element_reduction builds, refuses terms that do not conserve the
charge (NonConservingHamiltonian), the one place this route decides it,
and a conserving term maps every degree of a block, where it does not
vanish, to a degree of the same block.

Every block, spectrum and polynomial table is the exact restriction of
the Hamiltonian it is given.  The as-published recurrence keeps an extra
mode-2 frequency w2 on the diagonal; that convention is a Hamiltonian, not
an option: paper_literal(h) = h + w2, whose spectra come out uniformly
shifted by w2, which is itself a reproducible diagnostic of this package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Mapping

import numpy as np

from .algebra import (
    ConservedCharge,
    FockState,
    OperatorPolynomial,
    _Bands,
    _band_shape,
    _block_bands,
    _IntegerTerms,
    _integer_terms,
    charge_weight,
    conserves,  # unused here; perfbench/spans.py looks it up in this module
    identity,
)
from .errors import (
    BandStructureUnsupported,
    DegreeOutsidePhysicalSector,
    NumericalFailure,
    ZeroVector,
)
from .exact import Polynomial, Rationalish, RationalComplex
from .oracle import (
    FockBlock,
    SpectrumReport,
    _block_run,
    _non_conserving,
    _solve_block,
    eigen_residual,  # unused here; perfbench/spans.py looks it up in this module
    enumerate_block,
)


def mode2_frequency(h: OperatorPolynomial) -> RationalComplex:
    """Coefficient of the a2+ a2 term (zero if absent)."""
    return h.coefficient(0, 0, 1, 1)


def paper_literal(h: OperatorPolynomial) -> OperatorPolynomial:
    """h + w2, with w2 the mode-2 frequency: the Hamiltonian whose reduced
    blocks carry w2 on every diagonal entry, the as-published recurrence
    convention.  Its spectra are those of h shifted by w2."""
    return h + identity(mode2_frequency(h))


@dataclass(frozen=True)
class ReducedOperator:
    """Single-variable image of a conserving Hamiltonian.

    terms are h's terms ((m1, m2, m3, m4), re, im), the coefficient of
    (a1+)^m1 (a1)^m2 (a2+)^m3 (a2)^m4 being (re + i*im) / denominator
    (algebra._integer_terms).  Each acts on the monomial x^n as the mode-1
    ladder pair (m1, m2) times its coefficient and the falling factorial
    (n2)_m4 of the slaved occupation n2(n) = (kappa - s*n)/p, a
    non-negative integer on every physical degree.  Raises
    NonConservingHamiltonian when a term does not conserve the charge, the
    one condition under which every block is closed under the terms.
    """

    terms: _IntegerTerms
    denominator: int
    charge: ConservedCharge

    def __post_init__(self) -> None:
        if any(charge_weight(self.charge, *key) for key, _, _ in self.terms):
            raise _non_conserving(self.charge)

    def block_entries(self, kappa: int) -> tuple[tuple[int, ...], _Bands, int]:
        """The block over the physical degrees (ascending) in band form, as
        (degrees, bands, D): algebra._block_bands over the block's states in
        degree order, shift -> (columns, real numerators, imaginary
        numerators or None), the entry in row column + shift being
        (re + i*im) / D.

        Each numerator is the terms' integer numerators times the two
        integer falling factorials (n)_m2 (n2)_m4, summed over the terms that
        shift the degree by the same m1 - m2; a term with n < m2 or n2 < m4
        contributes nothing, and entries that sum to zero are not listed.
        """
        n1s, n2s = _block_run(self.charge, kappa)
        degrees = n1s[::-1]
        return tuple(degrees), _block_bands(self.terms, degrees, n2s[::-1]), self.denominator


def matrix_element_reduction(
    h: OperatorPolynomial, charge: ConservedCharge
) -> ReducedOperator:
    """The a2+ route: the defining (monomial-basis) reduced operator.

    The similarity built from powers of a2+ turns every conserving term
    alpha (a1+)^m1 (a1)^m2 (a2+)^m3 (a2)^m4 into the ladder pair (m1, m2)
    with diagonal factor alpha (n2)_m4, the falling factorial
    n2 (n2-1) ... (n2-m4+1) of the slaved occupation.  That is the monomial
    realization: acting on x^n1 y^n2 with a_i = d, a_i+ = multiplication,
    every term contributes the product of per-mode falling factorials, so
    the block matrix equals D^-1 M D with M the exact Fock block and
    D = diag(sqrt(n1! n2!)).  No term shape restrictions.  The operator
    keeps h's terms as the integer numerators of algebra._integer_terms.
    Raises NonConservingHamiltonian (from ReducedOperator) unless h
    conserves the charge.
    """
    return ReducedOperator(*_integer_terms(h), charge=charge)


def _unrepresentable() -> NumericalFailure:
    return NumericalFailure(
        "a reduced block entry does not fit in double precision", math.inf
    )


@dataclass(frozen=True, eq=False)
class ReducedBlock:
    """Finite single-variable block: admissible degrees and the block in
    band form, bands as ReducedOperator.block_entries returns them, with
    integer numerators over one common denominator.  Its float band block
    (oracle.FockBlock) and that block's matrix are formed on first use."""

    degrees: tuple[int, ...]
    bands: _Bands
    denominator: int

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    @cached_property
    def _floats(self) -> FockBlock:
        """The complex band block of the entries complex(re / D, im / D).
        Integer true division is correctly rounded, so each float is the
        exact entry converted.  Raises NumericalFailure when an entry does
        not fit in a double."""
        d = self.denominator
        try:
            bands = {}
            for k, (cols, res, ims) in self.bands.items():
                values = [complex(re / d, im / d) for re, im in zip(res, ims or repeat(0))]
                bands[k] = cols, np.array(values)
        except OverflowError:
            raise _unrepresentable() from None
        return FockBlock(self.dimension, bands, complex)

    @property
    def matrix(self) -> np.ndarray:
        return self._floats.matrix


def reduced_block_matrix(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> ReducedBlock:
    """Square matrix of the reduced operator of the conserving h over the
    physical degrees of block kappa, isospectral to the Fock block.  Its
    bands come from ReducedOperator.block_entries.
    """
    return ReducedBlock(*matrix_element_reduction(h, charge).block_entries(kappa))


_LOG_TINY = math.log(sys.float_info.min)  # smallest normal double
_EPS = sys.float_info.epsilon


def _log_ratio(num: int, den: int) -> float:
    """Natural log of the positive rational num/den of any size, taken on
    its lowest terms as log(num) - log(den)."""
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


@dataclass(frozen=True, eq=False)
class _JacobiForm:
    """Symmetric tridiagonal J = S^-1 R S of a three-term block R.

    block is J, a real band block with bands 0, -1 and 1.  upper holds the
    numerators (re, im) of b_i = R[i, i+1] and products those of b_i c_i,
    both over powers of denominator.  S = diag(phase * exp(log_scale)) with
    s_0 = 1 and s_{i+1} = s_i sqrt(b_i c_i) / b_i; it is kept in log space
    because its range exceeds double precision on large blocks.  Only
    eigenvectors need S, so log_scale and phase are formed on first use: a
    spectrum never pays for them, and never fails for want of double range
    in them.
    """

    block: FockBlock
    upper: list[tuple[int, int]]
    products: list[int]
    denominator: int

    @cached_property
    def log_scale(self) -> np.ndarray:
        denom2 = self.denominator * self.denominator
        steps = [
            0.5 * (_log_ratio(product, denom2) - _log_ratio(br * br + bi * bi, denom2))
            for product, (br, bi) in zip(self.products, self.upper)
        ]
        return np.concatenate(([0.0], np.cumsum(steps)))

    @cached_property
    def phase(self) -> np.ndarray:
        """Raises NumericalFailure when some b_i does not fit in a double."""
        d = self.denominator
        try:
            upper = [complex(br / d, bi / d) for br, bi in self.upper]
        except OverflowError:
            raise _unrepresentable() from None
        return np.cumprod(np.array([1.0 + 0.0j] + [b.conjugate() / abs(b) for b in upper]))

    def monomial_vectors(self, vectors: np.ndarray, kappa: int) -> np.ndarray:
        """Eigenvectors S u of R with unit columns.

        Each column is scaled in log space so that its largest entry has
        modulus 1.  Raises NumericalFailure when an entry of u above
        rounding level would fall below the smallest normal double there,
        or when S's phase does not fit in double precision.
        """
        magnitude = np.abs(vectors)
        with np.errstate(divide="ignore"):
            log_v = self.log_scale[:, None] + np.log(magnitude)
        log_v -= log_v.max(axis=0)
        if np.any((log_v < _LOG_TINY) & (magnitude > _EPS)):
            decades = np.ptp(self.log_scale) / math.log(10)
            raise NumericalFailure(
                f"reduced block kappa={kappa} eigenvectors do not fit in double"
                f" precision: the monomial scaling spans {decades:.0f} decades",
                math.inf,
            )
        out = self.phase[:, None] * (np.sign(vectors) * np.exp(log_v))
        return out / np.linalg.norm(out, axis=0)


def _jacobi_form(bands: _Bands, denom: int, dim: int) -> _JacobiForm | None:
    """Jacobi form of a block of dimension dim in band form (as
    ReducedBlock.bands, numerators over denom), or None.

    Applies when the block is nonempty, algebra._band_shape finds it
    tridiagonal with full bands -1 (b_i) and 1 (c_i), its diagonal is
    real and every product b_i c_i is real and positive, all decided
    exactly on the integers before any float is formed; each float of J
    comes from one correctly rounded integer division.  Raises
    NumericalFailure when a float of J does not fit in a double.
    """
    shape = _band_shape(bands, dim)
    empty = [], [], None
    cols, res, ims = bands.get(0, empty)
    if not (dim and shape.tridiagonal and shape.full) or any(ims or ()):
        return None
    _, b_res, b_ims = bands.get(-1, empty)
    _, c_res, c_ims = bands.get(1, empty)
    upper = list(zip(b_res, b_ims or repeat(0)))
    lower = list(zip(c_res, c_ims or repeat(0)))
    # b_i c_i = (product + cross i) / denom^2
    products = [br * cr - bi * ci for (br, bi), (cr, ci) in zip(upper, lower)]
    if min(products, default=1) <= 0 or any(
        br * ci + bi * cr for (br, bi), (cr, ci) in zip(upper, lower)
    ):
        return None
    denom2 = denom * denom
    try:
        off = np.array([math.sqrt(product / denom2) for product in products])
        diagonal = np.array([re / denom for re in res])
    except OverflowError:
        raise _unrepresentable() from None
    bands = {0: (cols, diagonal), -1: (list(range(1, dim)), off), 1: (list(range(dim - 1)), off)}
    return _JacobiForm(FockBlock(dim, bands, float), upper, products, denom)


def _solve(
    block: ReducedBlock, name: str
) -> tuple[np.ndarray, np.ndarray, float, _JacobiForm | None]:
    """Eigenvalues, eigenvectors, worst residual and Jacobi form of a
    reduced block, by the oracle's block solve (oracle._solve_block); name
    names the block in its messages.

    A block with a Jacobi form (_jacobi_form) passes J as a Hermitian
    block, and the eigenvectors returned are those of J; any other block,
    the empty one included, passes its complex float block as a
    non-Hermitian one.
    """
    jacobi = _jacobi_form(block.bands, block.denominator, block.dimension)
    if jacobi is None:
        return (*_solve_block(name, block._floats, False), None)
    return (*_solve_block(name, jacobi.block, True), jacobi)


@dataclass(frozen=True)
class EnergyPolynomialTable:
    """Energy polynomials of one block's scalar recurrence.

    members[m] holds P_m in the integer form the recurrence gives it,
    (real numerators, imaginary numerators, scale): coefficient i of P_m is
    (re[i] + i*im[i]) / scale exactly, with scale a nonzero integer and
    degree exactly m.  polys[m] is P_m as an exact Polynomial, formed from
    members on first read; the last entry is the terminating member, whose
    roots are the block spectrum.  block is the reduced block R the
    polynomials were read from.  The recurrence matrix A, indexed by the
    slaved occupation ascending, is its order-reversing transpose,
    A[d-1-j][d-1-i] = R[i, j], so both share one spectrum, and spectrum()
    solves R itself.
    """

    kappa: int
    members: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    block: ReducedBlock

    @property
    def dimension(self) -> int:
        return self.block.dimension

    @cached_property
    def polys(self) -> tuple[Polynomial, ...]:
        return tuple(
            Polynomial.from_coeffs(
                RationalComplex(Fraction(x, scale), Fraction(y, scale)) for x, y in zip(re, im)
            )
            for re, im, scale in self.members
        )

    def spectrum(self) -> np.ndarray:
        """Recurrence eigenvalues, sorted ascending by (real, imag): the
        roots of the terminating polynomial, which are far better
        conditioned as eigenvalues than as roots of its monomial
        coefficients.

        They are the eigenvalues of the block's own solve, the one
        qes_spectrum runs, bit for bit.  Raises NumericalFailure when the
        oracle's block solve refuses the worst residual and, with residual
        NaN, when the LAPACK solver does not converge.
        """
        return _solve(self.block, f"recurrence kappa={self.kappa}")[0]


def energy_polynomial_table(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> EnergyPolynomialTable:
    """Generate the energy polynomials P_m(E) of the block recurrence.

    P_0 = 1 and each P_{m+1} is solved from row m of the recurrence
    matrix (indexed by the slaved occupation), which must have no entry
    right of its superdiagonal and none vanishing on it; models with a
    single interaction term are of this three-term kind.  Otherwise raises
    BandStructureUnsupported, naming the first entry that algebra._band_shape
    finds breaking it; no other route to the polynomials is tried.  Only
    the nonzero entries of each row enter.

    The recurrence runs fraction-free on the block's integer numerators
    a_mj = A[m][j] * D (band k, column j of block.bands is row d-1-j,
    column d-1-j-k, over block.denominator D), with
    u_m = a_{m,m+1} and U_m = u_0 ... u_{m-1}: Q_m = U_m P_m has
    Gaussian-integer coefficients,

        Q_{m+1} = D E Q_m - sum_{j<=m} a_mj (u_j ... u_{m-1}) Q_j,

    and the terminating member is P_d = Q_d / (D U_{d-1}).  The table keeps
    each member as Q_m's integers over one integer scale (a complex scale
    is folded in by multiplying with its conjugate), so no gcd is taken and
    no Fraction formed here; EnergyPolynomialTable.polys reduces them on
    first read.
    """
    block = reduced_block_matrix(h, charge, kappa)
    d = block.dimension
    _, _, above, gap = _band_shape(block.bands, d)
    if above or gap is not None:
        raise BandStructureUnsupported(
            "entry (%d,%d) above the first superdiagonal is nonzero" % above if above
            else f"superdiagonal entry ({gap},{gap + 1}) vanishes"
        )
    # numerators of each recurrence row: reverse the degree order (slaved
    # occupation ascending) and transpose
    rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(d)]
    for k, (cols, res, ims) in block.bands.items():
        for j, value in zip(cols, zip(res, ims or repeat(0))):
            rows[d - 1 - j][d - 1 - j - k] = value
    denom = block.denominator
    upper = [rows[m][m + 1] for m in range(d - 1)]
    qs = [([1], [0])]  # Q_m as (real, imaginary) integer coefficients, ascending
    for m, row in enumerate(rows):
        re, im = qs[m]
        acc_re, acc_im = [0, *(denom * c for c in re)], [0, *(denom * c for c in im)]
        wr, wi = 1, 0  # u_j ... u_{m-1}
        for j in range(m, min(row, default=m) - 1, -1):
            if j < m:
                ur, ui = upper[j]
                wr, wi = wr * ur - wi * ui, wr * ui + wi * ur
            if j in row:
                ar, ai = row[j]
                _subtract_multiple(acc_re, acc_im, ar * wr - ai * wi, ar * wi + ai * wr, *qs[j])
        qs.append((acc_re, acc_im))
    scales = [(1, 0)]  # U_m, then D U_{d-1} for the terminating member
    for ur, ui in upper:
        sr, si = scales[-1]
        scales.append((sr * ur - si * ui, sr * ui + si * ur))
    if d:
        sr, si = scales[-1]
        scales.append((denom * sr, denom * si))
    members = tuple(_over_integer(*q, *scale) for q, scale in zip(qs, scales))
    return EnergyPolynomialTable(kappa=kappa, members=members, block=block)


def _subtract_multiple(
    acc_re: list[int], acc_im: list[int], cr: int, ci: int, re: list[int], im: list[int]
) -> None:
    """acc -= (cr + i*ci) * (re + i*im) in place, coefficient by
    coefficient over the length of re."""
    n = len(re)
    acc_re[:n] = [a - cr * x + ci * y for a, x, y in zip(acc_re, re, im)]
    acc_im[:n] = [a - cr * y - ci * x for a, x, y in zip(acc_im, re, im)]


def _over_integer(
    re: list[int], im: list[int], sr: int, si: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(re + i*im) / (sr + i*si) as numerators over one integer scale: a
    complex scale is divided by multiplying with its conjugate over its
    squared modulus."""
    if not si:
        return tuple(re), tuple(im), sr
    return (
        tuple(x * sr + y * si for x, y in zip(re, im)),
        tuple(y * sr - x * si for x, y in zip(re, im)),
        sr * sr + si * si,
    )


def reduced_eigensystem(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> tuple[ReducedBlock, np.ndarray, np.ndarray, float]:
    """Eigenvalues and right eigenvectors of the reduced block matrix: the
    Jacobi matrix by dstevd where _jacobi_form applies, its eigenvectors
    mapped back through the diagonal similarity, else a dense eig.  Raises
    NumericalFailure if the oracle's block solve refuses the residual or if
    the eigenvectors do not fit in double precision."""
    block = reduced_block_matrix(h, charge, kappa)
    values, vectors, worst, jacobi = _solve(block, f"reduced block kappa={kappa}")
    if jacobi is not None:
        vectors = jacobi.monomial_vectors(vectors, kappa)
    return block, values, vectors, worst


def qes_spectrum(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> SpectrumReport:
    """Block spectrum from the reduced single-variable matrix: the Jacobi
    matrix by dstevd where _jacobi_form applies, else a dense eig, both
    better conditioned than the terminating energy polynomial's roots.
    The solve forms J's or R's eigenvectors for its residual gate but not
    the monomial-basis ones, so reduced_eigensystem's double-range refusal
    of those (trilinear3, kappa = 597) cannot reach it."""
    block = reduced_block_matrix(h, charge, kappa)
    values, _, worst, _ = _solve(block, f"reduced block kappa={kappa}")
    return SpectrumReport(tuple(values.tolist()), worst)


@lru_cache(maxsize=4)
def _fock_frame(
    charge: ConservedCharge, kappa: int
) -> tuple[tuple[FockState, ...], frozenset[int], tuple[int, ...], np.ndarray]:
    """Block basis, its set of n1 values, its n1 values in basis order and
    the read-only log-weights 0.5 * log(n1! n2!) per basis state;
    eigenvector_to_fock maps every column of one block through the same
    frame."""
    basis = enumerate_block(charge, kappa)
    n1s = tuple(st.n1 for st in basis)
    log_weight = np.array(
        [0.5 * (math.lgamma(st.n1 + 1) + math.lgamma(st.n2 + 1)) for st in basis]
    )
    log_weight.flags.writeable = False
    return basis, frozenset(n1s), n1s, log_weight


def eigenvector_to_fock(
    coeffs: Mapping[int, complex],
    charge: ConservedCharge,
    kappa: int,
) -> tuple[tuple[FockState, ...], np.ndarray]:
    """Map monomial-basis eigenvector coefficients to Fock amplitudes.

    The coefficient of x^n1 is rescaled by sqrt(n1! n2!) with n2 the
    slaved occupation, then the amplitude vector over the block basis
    (ordered by increasing n2) is l2-normalized.  Up to a global phase the
    result matches the corresponding exact block eigenvector.  The rescaling
    runs in log space (lgamma), so it never overflows.
    """
    basis, degrees, n1s, log_weight = _fock_frame(charge, kappa)
    if not coeffs.keys() <= degrees:
        degree = next(degree for degree in coeffs if degree not in degrees)
        raise DegreeOutsidePhysicalSector(
            f"degree {degree} outside block kappa={kappa}"
        )
    c = np.array(list(map(coeffs.get, n1s, repeat(0.0))), dtype=complex)
    nonzero = c != 0.0
    if not nonzero.any():
        raise ZeroVector("eigenvector coefficients are all zero")
    c = c[nonzero]
    magnitude = np.abs(c)
    log_amp = np.log(magnitude) + log_weight[nonzero]
    amplitudes = np.zeros(len(basis), dtype=complex)
    amplitudes[nonzero] = c / magnitude * np.exp(log_amp - log_amp.max())
    return basis, amplitudes / np.linalg.norm(amplitudes)


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficient polynomials of the reduced second-order ODE.

    The operator is  c3 * z^3 * d^2/dz^2  +  c1(z) * d/dz  +  c0(z),
    acting on functions of z, with the energy term -E kept out of c0.
    """

    c3: RationalComplex
    c1: Polynomial
    c0: Polynomial


def shg_ode(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    k: int,
) -> OdeCoefficients:
    """Reduced ODE of the two-photon (second-harmonic) model at level k.

    Returns the coefficients of

        4 kb z^3 phi'' + (kc + (w2 - 2 w1) z + 2 kb (3 - 2k) z^2) phi'
            + (C + kb k (k-1) z - E) phi = 0,

    with C = k*w1.  Collecting powers of z in this ODE reproduces the
    transpose of the energy-polynomial recurrence for block kappa = k of
    the (1, 2) charge; the as-published constant w2 + k*w1 is that of
    paper_literal(h), and shifts every recurrence eigenvalue up by w2.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    w1 = RationalComplex.coerce(omega1)
    w2 = RationalComplex.coerce(omega2)
    kc = RationalComplex.coerce(kappa_c)
    kb = RationalComplex.coerce(kappa_bar)
    c3 = kb * 4
    c1 = Polynomial.from_coeffs([kc, w2 - w1 * 2, kb * (2 * (3 - 2 * k))])
    c0 = Polynomial.from_coeffs([w1 * k, kb * (k * (k - 1))])
    return OdeCoefficients(c3=c3, c1=c1, c0=c0)
