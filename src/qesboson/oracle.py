"""Ground-truth spectra from exact finite charge blocks.

For a charge s*N1 + p*N2 with s, p >= 1, the set of Fock states with a
given charge eigenvalue kappa is finite, so a conserving Hamiltonian
restricts to an exactly finite matrix on each block.  There is no
truncation error anywhere: this is the central testing asset of the
package, and every reduced-route result is validated against it.

Every entry is exact until its one rounding: an integer numerator over one
common denominator of h's coefficients, times the square root of a ladder
ratio t1! t2! / (n1! n2!).  Every term moves a basis state by the same
number of places along the block, so build_block assembles it band by
band: algebra._block_bands, which the reduced route reads as well, forms
each band's numerators for all its columns at once (math.perm, the falling
factorial, in C), and build_block makes each entry a float by one correctly
rounded operation on exact integers of any size; _first_overflow walks the
exact amplitudes column by column to name the first that overflows a
double.  The block keeps that band form (FockBlock.bands: shift -> columns
and float values) and fills a dense matrix (FockBlock.matrix) or
enumerates its basis only on first use of either.

Closure is conservation, which build_block alone decides on this route:
it refuses a Hamiltonian that does not conserve the charge
(NonConservingHamiltonian) before it reads kappa, and a conserving one maps
the block into itself, so no entry is checked for leaving it.  Only
block_amplitudes, which takes any basis, reports a state that leaves its
basis (BlockClosureViolation).

Real coefficients give real (float64) blocks, solved and checked in real
arithmetic (eigh, or eig for non-Hermitian h); complex ones a complex
block and solve.  A real Hermitian block that algebra._band_shape, the
package's one decision on a block's shape, finds tridiagonal (every block
of a single-exchange model such as SHG) goes as its three bands straight
to LAPACK's divide-and-conquer solver dstevd (Gu & Eisenstat 1995, through
qesboson._lapack), the solver dense eigh runs after its Householder
reduction, which is the identity there: two O(n^3) no-op steps and the
dense matrix are skipped.

Such a block also takes its residual on its band, elementwise: every
nonzero entry the dense M @ v would multiply, in O(n^2) rather than
O(n^3), with no BLAS call, so the residual has the same bits at any BLAS
thread count.  Every other block takes its residual on the dense matrix.

Both routes hand this one solve, _solve_block, a band block (FockBlock):
the oracle its Fock block, the reduced route its Jacobi matrix or its
reduced block.  The solve alone packs bands for LAPACK, picks stevd, eigh
or eig and applies the one residual gate, RESIDUAL_TOL, so the routes
differ in the block they pass, not in the solver or the checks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import perm

import numpy as np

from ._lapack import stevd
from .algebra import (
    ConservedCharge,
    FockAmplitude,
    FockState,
    OperatorPolynomial,
    _band_shape,
    _block_bands,
    _integer_terms,
    apply_to_fock,
    conserves,
    is_hermitian,
)
from .errors import (
    BlockClosureViolation,
    NonConservingHamiltonian,
    NumericalFailure,
    ZeroVector,
)

RESIDUAL_TOL = 1e-8  # the largest residual a block solve may have; see _solve_block
MAX_DIMENSION = 8192  # the most states a block may have: a dense complex one takes 1 GiB


def _block_size(charge: ConservedCharge, kappa: int) -> tuple[int, int]:
    """The least n2 of block kappa >= 0 and its number of states, in O(1):
    n2 runs every s from the smallest n2 >= 0 with p*n2 = kappa (mod s) up
    to kappa // p."""
    s, p = charge.s, charge.p
    first = kappa * pow(p, -1, s) % s
    return first, (kappa // p - first) // s + 1


def _size_refusal(kappa: int, dim: int) -> NumericalFailure:
    return NumericalFailure(
        f"block kappa={kappa} has {dim} states, more than the {MAX_DIMENSION} a block may have",
        math.inf,
    )


def _block_run(charge: ConservedCharge, kappa: int) -> tuple[list[int], list[int]]:
    """The n1 and the n2 of every state with s*n1 + p*n2 = kappa, ordered by
    increasing n2 (so n1 falls by p and n2 rises by s from state to state).
    Lists, not ranges: the band assembly indexes them entry by entry, and a
    range forms a new int at every index.  Raises NumericalFailure, before
    any list is built, when there are more than MAX_DIMENSION states."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    first, dim = _block_size(charge, kappa)
    if dim > MAX_DIMENSION:
        raise _size_refusal(kappa, dim)
    s, p = charge.s, charge.p
    n2s = range(first, kappa // p + 1, s)
    top = (kappa - p * first) // s
    return list(range(top, top - p * len(n2s), -p)), list(n2s)


def oversized_block(charge: ConservedCharge, kappa_max: int) -> NumericalFailure | None:
    """The refusal _block_run raises for the least kappa <= kappa_max whose
    block has more than MAX_DIMENSION states, or None if there is none.

    That kappa is p * s * MAX_DIMENSION: below it kappa // p < s *
    MAX_DIMENSION leaves at most MAX_DIMENSION values of n2 a step s
    apart, and at it n2 runs from 0 to s * MAX_DIMENSION (_block_size).
    """
    kappa = charge.p * charge.s * MAX_DIMENSION
    return _size_refusal(kappa, _block_size(charge, kappa)[1]) if kappa <= kappa_max else None


def enumerate_block(charge: ConservedCharge, kappa: int) -> tuple[FockState, ...]:
    """All states with s*n1 + p*n2 = kappa, ordered by increasing n2.

    The list may be empty; ties are impossible because gcd(s, p) = 1.
    Raises NumericalFailure above MAX_DIMENSION states, as both routes do.
    """
    return tuple(map(FockState, *_block_run(charge, kappa)))


def block_amplitudes(
    h: OperatorPolynomial, basis: tuple[FockState, ...]
) -> dict[tuple[int, int], FockAmplitude]:
    """Exact block entries as (row, col) -> amplitude of basis[row] in h|basis[col]>.

    basis may be any tuple of distinct states (ValueError names a repeated
    one); entries run column by column, in apply_to_fock's target order.
    Raises BlockClosureViolation if h maps a state outside the basis, which
    a conserving h never does on a whole block.
    """
    index = {state: i for i, state in enumerate(basis)}
    if len(index) < len(basis):
        repeated = next(state for i, state in enumerate(basis) if index[state] != i)
        raise ValueError(f"the basis holds {repeated} more than once")
    entries: dict[tuple[int, int], FockAmplitude] = {}
    for col, state in enumerate(basis):
        for target, amp in apply_to_fock(h, state).items():
            row = index.get(target)
            if row is None:
                raise BlockClosureViolation(
                    f"h maps {state} to {target}, outside the block basis"
                )
            entries[(row, col)] = amp
    return entries


def block_matrix(h: OperatorPolynomial, charge: ConservedCharge, kappa: int) -> np.ndarray:
    """Dense matrix of h restricted to the block kappa, over the
    enumerate_block basis: build_block's bands filled in on first use of
    FockBlock.matrix, with build_block's dtype, entry bits and refusals."""
    return build_block(h, charge, kappa).matrix


def _first_overflow(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> NumericalFailure:
    """The first amplitude in block_amplitudes' order (column by column, in
    term order within a column) whose complex(amp) overflows, walked one
    column at a time; it and build_block round correctly, so both overflow
    on the same entries."""
    for state in enumerate_block(charge, kappa):
        for target, amp in apply_to_fock(h, state).items():
            try:
                complex(amp)
            except OverflowError:
                return _unrepresentable(state, target)
    raise AssertionError("build_block met no overflow")


def _non_conserving(charge: ConservedCharge) -> NonConservingHamiltonian:
    return NonConservingHamiltonian(
        f"Hamiltonian does not commute with {charge.s}*N1 + {charge.p}*N2"
    )


def _unrepresentable(state: FockState, target: FockState) -> NumericalFailure:
    return NumericalFailure(
        f"h maps {state} to {target} with an amplitude that does not fit in"
        " double precision",
        math.inf,
    )


@dataclass(frozen=True, eq=False)
class FockBlock:
    """The float band block of both routes, which _solve_block solves: its
    dimension and bands, shift -> (columns, values of dtype), the entry in
    row column + shift; h's restriction from build_block, or the reduced
    route's J or R.  matrix, zero off the bands, is formed on first use."""

    dimension: int
    bands: dict[int, tuple[list[int], np.ndarray]]
    dtype: type

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.zeros((self.dimension, self.dimension), dtype=self.dtype)
        for k, (nz, values) in self.bands.items():
            matrix[[j + k for j in nz], nz] = values
        return matrix


def build_block(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> FockBlock:
    """h restricted to the block kappa, over the enumerate_block basis, in
    band form: each band of algebra._block_bands with its ladder scales
    applied.  Raises NonConservingHamiltonian, before any entry is formed,
    unless h conserves the charge, then NumericalFailure for a block of
    more than MAX_DIMENSION states (_block_run).

    Each entry is formed from its integer numerators re, im over h's common
    denominator D and its unreduced ladder ratio num/den as
    complex(re / D, im / D) * (num / den) ** 0.5, or for real h as
    re / D * (num / den) ** 0.5, the real part of that product bit for
    bit.  Integer true division is correctly rounded, so this is bit for bit
    complex(amp) (its real part for real h) of the exact amplitude that
    block_amplitudes returns.  Raises NumericalFailure when an entry does
    not fit in a double, naming the first whose integer ratio overflows on
    conversion, column by column (_first_overflow), even where an earlier
    column holds a product that overflowed to inf; if none does, the first
    non-finite entry in row-major order.
    """
    if not conserves(h, charge):
        raise _non_conserving(charge)
    n1s, n2s = _block_run(charge, kappa)
    terms, denom = _integer_terms(h)
    dtype = complex if any(im for _, _, im in terms) else float
    s, p = charge.s, charge.p
    bands = {}
    try:
        for k, (nz, res, ims) in _block_bands(terms, n1s, n2s).items():
            # ladder ratio per mode: the rising occupation over the falling one
            if k >= 0:
                rise, fall, ups, downs = s * k, p * k, n2s, n1s
            else:
                rise, fall, ups, downs = -p * k, -s * k, n1s, n2s
            scales = [(perm(ups[j] + rise, rise) / perm(downs[j], fall)) ** 0.5 for j in nz]
            values = [re / denom * x for re, x in zip(res, scales)] if dtype is float else [
                complex(re / denom, im / denom) * x
                for re, im, x in zip(res, ims or repeat(0), scales)
            ]
            bands[k] = nz, np.array(values, dtype=dtype)
    except OverflowError:
        raise _first_overflow(h, charge, kappa) from None
    # (row, column) of every non-finite entry: the least is the first in row-major order
    bad = [
        (nz[j] + k, nz[j])
        for k, (nz, values) in bands.items()
        if not np.isfinite(values).all()
        for j in np.flatnonzero(~np.isfinite(values))
    ]
    if bad:
        row, col = min(bad)
        raise _unrepresentable(FockState(n1s[col], n2s[col]), FockState(n1s[row], n2s[row]))
    return FockBlock(len(n2s), bands, dtype)


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted block eigenvalues plus the worst eigenpair residual."""

    eigenvalues: tuple[complex, ...]
    max_residual: float


def eigen_residual(matrix, values, vectors):
    """||M v - lambda v||_2 / ||v||_2.

    Given one eigenvalue and a 1-D vector, returns that float; given an
    array of eigenvalues and a matrix whose columns are the eigenvectors,
    returns the array of column residuals, computed in one product.  The
    arithmetic is real when all three inputs are real (ints included) and
    complex otherwise.
    """
    matrix, values, vectors = np.asarray(matrix), np.asarray(values), np.asarray(vectors)
    dtype = np.result_type(matrix, values, vectors, float)
    matrix = matrix.astype(dtype, copy=False)
    vectors = vectors.astype(dtype, copy=False)
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise ZeroVector("eigenvector must be nonzero")
    diff = matrix @ vectors
    diff -= vectors * values
    residuals = np.linalg.norm(diff, axis=0) / norms
    return residuals if vectors.ndim == 2 else float(residuals)


_RESIDUAL_COLUMNS = 64  # eigenvector columns per _band_residuals step


def _band_residuals(
    diagonal: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
) -> np.ndarray:
    """eigen_residual of the tridiagonal matrix with this diagonal,
    subdiagonal lower and superdiagonal upper, for every column of vectors,
    without forming the matrix: elementwise on the band, with no BLAS call.
    The column norms are the sums numpy.linalg.norm(…, axis=0) forms, bit
    for bit, without a numpy.linalg call.

    The columns go _RESIDUAL_COLUMNS at a time, so that each step's
    temporaries stay in cache on large blocks; every column takes the same
    operations and the same reduction in any step, so the result does not
    depend on the step.
    """
    out = np.empty(vectors.shape[1])
    for start in range(0, vectors.shape[1], _RESIDUAL_COLUMNS):
        cols = slice(start, start + _RESIDUAL_COLUMNS)
        v = vectors[:, cols]
        r = diagonal[:, None] * v - v * values[cols]
        r[:-1] += upper[:, None] * v[1:]
        r[1:] += lower[:, None] * v[:-1]
        out[cols] = np.sqrt(np.add.reduce(r * r, axis=0)) / np.sqrt(np.add.reduce(v * v, axis=0))
    return out


@contextmanager
def checked_solve(block: str):
    """Runs a block eigensolve, turning an np.linalg.LinAlgError from LAPACK
    (a solver that did not converge) into NumericalFailure with residual
    NaN; left alone, the CLI would report that ValueError as a usage error.

    With the residual gate of _solve_block, this is the failure policy of
    every block solve; the sextic finite-difference solve shares it.
    """
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{block} eigensolve failed: {exc}", math.nan) from None


def sort_eigenpairs(
    values: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending by (real, imag); the package-wide eigenvalue order."""
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def diagonalize_block(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> tuple[FockBlock, np.ndarray, np.ndarray, str, float]:
    """Full eigensystem of one block: build_block's band block, solved by
    _solve_block as Hermitian when h is exactly Hermitian (real
    eigenvalues, orthonormal eigenvectors) and as general otherwise.
    Returns (block, values, vectors, method, max_residual) with the
    eigenpairs sorted ascending by (real, imag); values are complex,
    vectors have the dtype the solver returns (float64 for a real Hermitian
    block).  Raises NumericalFailure when _solve_block refuses the solve.
    """
    block = build_block(h, charge, kappa)
    hermitian = is_hermitian(h)
    values, vectors, max_residual = _solve_block(f"block kappa={kappa}", block, hermitian)
    return block, values, vectors, "hermitian" if hermitian else "general", max_residual


def _solve_block(
    name: str, block: FockBlock, hermitian: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, eigenvectors and worst eigenpair residual of one band
    block: the one solve of both routes and of EnergyPolynomialTable.spectrum.

    A real hermitian block that algebra._band_shape finds tridiagonal is
    packed here into its diagonal, subdiagonal and superdiagonal, solved by
    stevd on the first two with the residual taken on all three, and forms
    no dense matrix.  Every other block is solved on block.matrix, by eigh
    when hermitian and by eig otherwise, with the residual taken on it.
    The eigenvalues are complex and ascending by (real, imag), which is
    stevd's own order; the eigenvectors have the solver's dtype.  An empty
    block has no eigenpairs, residual 0 and vectors of its dtype.  Raises
    NumericalFailure, naming the block by name, when the worst residual
    exceeds RESIDUAL_TOL or is NaN, and, with residual NaN, when LAPACK does
    not converge (checked_solve).
    """
    dim = block.dimension
    if not dim:
        return np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=block.dtype), 0.0
    # entries above about 1e154 overflow the residual norm to inf, refused below
    with checked_solve(name), np.errstate(over="ignore"):
        if hermitian and block.dtype is float and _band_shape(block.bands, dim).tridiagonal:
            # row k % 3 holds band k: diagonal, subdiagonal (from column 0), superdiagonal (from 1)
            rows = np.zeros((3, dim))
            for k, (cols, values) in block.bands.items():
                rows[k, cols] = values
            diagonal, lower, upper = rows[0], rows[1, :-1], rows[2, 1:]
            values, vectors = stevd(diagonal, lower)
            residuals = _band_residuals(diagonal, lower, upper, values, vectors)
        else:
            solver = np.linalg.eigh if hermitian else np.linalg.eig
            values, vectors = sort_eigenpairs(*solver(block.matrix))
            residuals = eigen_residual(block.matrix, values, vectors)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL:
        raise NumericalFailure(
            f"{name} eigensolve residual {worst:.3e} exceeds {RESIDUAL_TOL:.3e}", worst
        )
    return values.astype(complex), vectors, worst


def block_spectrum(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> SpectrumReport:
    """Eigenvalues of h on the block with charge eigenvalue kappa."""
    _, values, _, _, max_residual = diagonalize_block(h, charge, kappa)
    return SpectrumReport(tuple(values.tolist()), max_residual)
