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
"""

from __future__ import annotations

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

DEFAULT_RESIDUAL_TOL = 1e-8


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
    """Dense complex matrix of h restricted to the block basis.

    Each entry is formed straight from its integer numerators re, im over
    h's common denominator D and its unreduced ladder ratio num/den as
    complex(re / D, im / D) * (num / den) ** 0.5.  Integer true division is
    correctly rounded, so this is bit for bit complex(amp) of the exact
    amplitude that block_amplitudes returns.  Raises BlockClosureViolation
    as block_amplitudes does.
    """
    dim = len(basis)
    matrix = np.zeros((dim, dim), dtype=complex)
    index = {(state.n1, state.n2): i for i, state in enumerate(basis)}
    terms, denom = _integer_terms(h)
    for col, state in enumerate(basis):
        for target, (re, im) in _integer_image(terms, state.n1, state.n2).items():
            row = index.get(target)
            if row is None:
                raise BlockClosureViolation(
                    f"h maps {state} to {FockState(*target)}, outside the block basis"
                )
            num, den = _ladder_ratio(state, basis[row])
            matrix[row, col] = complex(re / denom, im / denom) * (num / den) ** 0.5
    return matrix


@dataclass(frozen=True, eq=False)
class FockBlock:
    """A charge block: its kappa, ordered basis and exact restriction of h."""

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
    returns the array of column residuals, computed in one product.
    """
    matrix = np.asarray(matrix, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise ZeroVector("eigenvector must be nonzero")
    diff = matrix @ vectors
    diff -= vectors * values
    residuals = np.linalg.norm(diff, axis=0) / norms
    return residuals if vectors.ndim == 2 else float(residuals)


def sort_eigenpairs(
    values: np.ndarray, vectors: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending by (real, imag); the package-wide eigenvalue order."""
    order = np.lexsort((values.imag, values.real))
    if vectors is None:
        return values[order], None
    return values[order], vectors[:, order]


def diagonalize_block(
    h: OperatorPolynomial,
    charge: ConservedCharge,
    kappa: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> tuple[FockBlock, np.ndarray, np.ndarray, str, float]:
    """Full eigensystem of one block.

    Uses the Hermitian eigensolver when h is exactly Hermitian (real
    eigenvalues, orthonormal eigenvectors) and the general dense solver
    otherwise.  Returns (block, values, vectors, method, max_residual)
    with the eigenpairs sorted ascending by (real, imag).
    """
    block = build_block(h, charge, kappa)
    hermitian = is_hermitian(h)
    method = "hermitian" if hermitian else "general"
    if block.dimension == 0:
        return block, np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex), method, 0.0
    if hermitian:
        values, vectors = np.linalg.eigh(block.matrix)
        values = values.astype(complex)
    else:
        values, vectors = np.linalg.eig(block.matrix)
    values, vectors = sort_eigenpairs(values, vectors)
    max_residual = float(eigen_residual(block.matrix, values, vectors).max())
    if max_residual > residual_tol:
        raise NumericalFailure(
            f"block kappa={kappa} eigensolve residual {max_residual:.3e}"
            f" exceeds {residual_tol:.3e}",
            max_residual,
        )
    return block, values, vectors, method, max_residual


def block_spectrum(
    h: OperatorPolynomial,
    charge: ConservedCharge,
    kappa: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> SpectrumReport:
    """Eigenvalues of h on the block with charge eigenvalue kappa."""
    block, values, _, method, max_residual = diagonalize_block(
        h, charge, kappa, residual_tol
    )
    return SpectrumReport(
        kappa=kappa,
        dimension=block.dimension,
        eigenvalues=tuple(complex(v) for v in values),
        method=method,
        max_residual=max_residual,
    )
