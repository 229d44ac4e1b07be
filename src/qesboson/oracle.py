"""Ground-truth spectra from exact finite charge blocks.

For a charge s*N1 + p*N2 with s, p >= 1, the set of Fock states with a
given charge eigenvalue kappa is finite, so a conserving Hamiltonian
restricts to an exactly finite matrix on each block.  There is no
truncation error anywhere: this is the central testing asset of the
package, and every reduced-route result is validated against it.

Matrix elements are assembled in exact arithmetic, each as a rational
coefficient times the square root of a ladder ratio t1! t2! / (n1! n2!)
built from the few integer factors between source and target occupations.
The coefficients are accumulated as integer numerators over one common
denominator of the Hamiltonian's coefficients, computed once per block,
and block_matrix forms each float entry directly from those integers and
the integer ladder ratio, with no exact rational object in between; the
exact amplitudes themselves come from block_amplitudes.

A Hamiltonian whose coefficients are all real has real blocks: block_matrix
returns them as float64, and they are diagonalized and checked in real
arithmetic (real symmetric eigh, or real eig for non-Hermitian h).  Complex
coefficients give complex blocks and a complex solve.  A real Hermitian
block that is exactly tridiagonal, as every block of a single-exchange
model such as SHG is, goes straight to LAPACK's tridiagonal
divide-and-conquer solver stevd (Gu & Eisenstat 1995), through
scipy.linalg.eigh_tridiagonal.  That is the solver dense eigh runs after
its Householder reduction, which on such a block is the identity, so it
skips two O(n^3) no-op steps.  The reduced route gives the same solver its
Jacobi matrix, built from the reduced entries alone, so on these blocks the
two routes differ in the matrix they solve, not in the solver.

Such a block also takes its residual on its band: d*v - lambda*v plus the
sub- and superdiagonal terms, elementwise, the form the reduced route takes
on its Jacobi matrix.  That is every nonzero entry the dense product
M @ v would multiply, in O(n^2) instead of O(n^3), and with no BLAS call, so
the residual has the same bits at any BLAS thread count and no second
thread pool wakes up right after stevd's.  Every other block takes its
residual on the full dense matrix.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ConservedCharge,
    FockAmplitude,
    FockState,
    OperatorPolynomial,
    _integer_image,
    _integer_terms,
    _ladder_ratio,
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

RESIDUAL_TOL = 1e-8  # the largest residual a block solve may have; see checked_residual


def enumerate_block(charge: ConservedCharge, kappa: int) -> tuple[FockState, ...]:
    """All states with s*n1 + p*n2 = kappa, ordered by increasing n2.

    The list may be empty; ties are impossible because gcd(s, p) = 1.
    """
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    states = []
    for n2 in range(kappa // charge.p + 1):
        rest = kappa - charge.p * n2
        if rest % charge.s == 0:
            states.append(FockState(rest // charge.s, n2))
    return tuple(states)


def block_amplitudes(
    h: OperatorPolynomial, basis: tuple[FockState, ...]
) -> dict[tuple[int, int], FockAmplitude]:
    """Exact block entries as (row, col) -> amplitude of basis[row] in h|basis[col]>.

    Raises BlockClosureViolation if h maps any basis state outside the
    basis, which means a non-conserving Hamiltonian slipped past the
    preconditions.
    """
    index = {state: i for i, state in enumerate(basis)}
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


def block_matrix(h: OperatorPolynomial, basis: tuple[FockState, ...]) -> np.ndarray:
    """Dense matrix of h restricted to the block basis: float64 when every
    coefficient of h is real, complex otherwise.

    Each entry is formed straight from its integer numerators re, im over
    h's common denominator D and its unreduced ladder ratio num/den as
    complex(re / D, im / D) * (num / den) ** 0.5, or for real h as
    re / D * (num / den) ** 0.5, the real part of that product bit for
    bit.  Integer true division is correctly rounded, so this is bit for bit
    complex(amp) (its real part for real h) of the exact amplitude that
    block_amplitudes returns.  Raises BlockClosureViolation as
    block_amplitudes does, and NumericalFailure when an entry does not fit
    in a double.
    """
    dim = len(basis)
    terms, denom = _integer_terms(h)
    real = not any(im for _, _, im in terms)
    matrix = np.zeros((dim, dim), dtype=float if real else complex)
    index = {(state.n1, state.n2): i for i, state in enumerate(basis)}
    try:
        for col, state in enumerate(basis):
            for target, (re, im) in _integer_image(terms, state.n1, state.n2).items():
                row = index.get(target)
                if row is None:
                    raise BlockClosureViolation(
                        f"h maps {state} to {FockState(*target)}, outside the block basis"
                    )
                num, den = _ladder_ratio(state, basis[row])
                value = re / denom if real else complex(re / denom, im / denom)
                matrix[row, col] = value * (num / den) ** 0.5
    except OverflowError:
        raise _unrepresentable(state, FockState(*target)) from None
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise _unrepresentable(basis[col], basis[row])
    return matrix


def _unrepresentable(state: FockState, target: FockState) -> NumericalFailure:
    return NumericalFailure(
        f"h maps {state} to {target} with an amplitude that does not fit in"
        " double precision",
        math.inf,
    )


@dataclass(frozen=True, eq=False)
class FockBlock:
    """A charge block: its kappa, ordered basis and exact restriction of h,
    a float64 matrix when h has real coefficients and complex otherwise."""

    charge: ConservedCharge
    kappa: int
    basis: tuple[FockState, ...]
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_block(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> FockBlock:
    """Enumerate the block and restrict h to it; requires conservation."""
    if not conserves(h, charge):
        raise NonConservingHamiltonian(
            f"Hamiltonian does not commute with {charge.s}*N1 + {charge.p}*N2"
        )
    basis = enumerate_block(charge, kappa)
    return FockBlock(charge, kappa, basis, block_matrix(h, basis))


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted block eigenvalues plus the worst eigenpair residual."""

    kappa: int
    dimension: int
    eigenvalues: tuple[complex, ...]
    method: str
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
    """
    r = diagonal[:, None] * vectors - vectors * values
    r[:-1] += upper[:, None] * vectors[1:]
    r[1:] += lower[:, None] * vectors[:-1]
    return np.linalg.norm(r, axis=0) / np.linalg.norm(vectors, axis=0)


def checked_residual(worst: float, block: str) -> float:
    """worst, the largest eigenpair residual of a block solve, if it is at
    most RESIDUAL_TOL; otherwise raises NumericalFailure.  A NaN residual is
    refused.

    This is the residual policy of both routes and of
    EnergyPolynomialTable.spectrum; block names the block in the message.
    """
    if not worst <= RESIDUAL_TOL:
        raise NumericalFailure(
            f"{block} eigensolve residual {worst:.3e} exceeds {RESIDUAL_TOL:.3e}",
            worst,
        )
    return worst


@contextmanager
def checked_solve(block: str):
    """Runs a block eigensolve, turning an np.linalg.LinAlgError from LAPACK
    (a solver that did not converge) into NumericalFailure with residual
    NaN; left alone, the CLI would report that ValueError as a usage error.

    With checked_residual, this is the failure policy of every block solve:
    the oracle's, the reduced route's and EnergyPolynomialTable.spectrum.
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
    """Full eigensystem of one block.

    Uses the Hermitian eigensolver when h is exactly Hermitian (real
    eigenvalues, orthonormal eigenvectors) and the general dense solver
    otherwise, in real arithmetic when the block is real.  A real Hermitian
    block that is zero outside its diagonal, subdiagonal and superdiagonal
    is solved by stevd on its diagonal and subdiagonal (the lower triangle
    eigh would read), and its residual is taken on that band; every other
    block is solved by dense eigh or eig, with the residual taken on the
    full matrix.  Both residuals multiply the same nonzero entries.  Returns
    (block, values, vectors, method, max_residual) with the eigenpairs
    sorted ascending by (real, imag); values are complex, vectors have the
    dtype the solver returns (float64 for a real Hermitian block).  Raises
    NumericalFailure unless checked_residual accepts max_residual, and,
    with residual NaN, when the LAPACK solver does not converge.
    """
    block = build_block(h, charge, kappa)
    hermitian = is_hermitian(h)
    method = "hermitian" if hermitian else "general"
    if block.dimension == 0:
        empty = np.zeros((0, 0), dtype=block.matrix.dtype)
        return block, np.zeros(0, dtype=complex), empty, method, 0.0
    name = f"block kappa={kappa}"
    with checked_solve(name):
        values, vectors, residuals = _eigensolve(block.matrix, hermitian)
    max_residual = checked_residual(float(residuals.max()), name)
    return block, values.astype(complex), vectors, method, max_residual


def _eigensolve(
    matrix: np.ndarray, hermitian: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted eigenvalues, eigenvectors and column residuals of a nonempty
    block: by stevd, with the residual on the band, when it is real,
    Hermitian and tridiagonal, else by eigh or eig, with the residual on the
    full matrix.  Each solver raises np.linalg.LinAlgError when LAPACK does
    not converge."""
    if not hermitian:
        values, vectors = sort_eigenpairs(*np.linalg.eig(matrix))
    elif matrix.dtype != float or np.tril(matrix, -2).any() or np.triu(matrix, 2).any():
        values, vectors = sort_eigenpairs(*np.linalg.eigh(matrix))
    else:
        # imported at the call, as reduction imports it, so the package
        # import is unchanged
        from scipy.linalg import eigh_tridiagonal

        diagonal, lower = np.diag(matrix), np.diag(matrix, -1)
        values, vectors = sort_eigenpairs(
            *eigh_tridiagonal(diagonal, lower, lapack_driver="stevd")
        )
        residuals = _band_residuals(diagonal, lower, np.diag(matrix, 1), values, vectors)
        return values, vectors, residuals
    return values, vectors, eigen_residual(matrix, values, vectors)


def block_spectrum(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> SpectrumReport:
    """Eigenvalues of h on the block with charge eigenvalue kappa."""
    block, values, _, method, max_residual = diagonalize_block(h, charge, kappa)
    return SpectrumReport(
        kappa=kappa,
        dimension=block.dimension,
        eigenvalues=tuple(complex(v) for v in values),
        method=method,
        max_residual=max_residual,
    )
