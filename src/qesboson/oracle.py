"""Ground-truth spectra from exact finite charge blocks.

For a charge s*N1 + p*N2 with s, p >= 1, the set of Fock states with a
given charge eigenvalue kappa is finite, so a conserving Hamiltonian
restricts to an exactly finite matrix on each block.  There is no
truncation error anywhere: this is the central testing asset of the
package, and every reduced-route result is validated against it.

Matrix elements are assembled in exact arithmetic, each as a rational
coefficient times the square root of a ladder ratio t1! t2! / (n1! n2!)
built from the few integer factors between source and target occupations.
The coefficients are integer numerators over one common denominator of the
Hamiltonian's coefficients.  Every term moves a basis state by the same
number of places along the block, so block_matrix assembles the block band
by band: algebra._block_bands, which the reduced route reads as well, forms
each band's numerators for all its columns at once with list comprehensions
over math.perm (the falling factorial, in C); block_matrix divides each by
the denominator and multiplies it by the square root of its ladder ratio,
one correctly rounded operation per entry on exact Python integers of any
size, and fills the dense matrix with one fancy-index assignment.  No exact
rational object is formed; the exact amplitudes themselves come from
block_amplitudes, entry by entry.

Closure is conservation, which block_matrix alone decides on this route:
it refuses a Hamiltonian that does not conserve the charge
(NonConservingHamiltonian) before it reads kappa, and a conserving one maps
the block into itself, so no entry is checked for leaving it.  Only
block_amplitudes, which takes any basis, reports a state that leaves its
basis (BlockClosureViolation).  FockBlock builds its basis on first use.

A Hamiltonian whose coefficients are all real has real blocks: block_matrix
returns them as float64, and they are diagonalized and checked in real
arithmetic (real symmetric eigh, or real eig for non-Hermitian h).  Complex
coefficients give complex blocks and a complex solve.  A real Hermitian
block that is exactly tridiagonal, as every block of a single-exchange
model such as SHG is (decided on the few diagonals h's terms can fill),
goes straight to LAPACK's tridiagonal divide-and-conquer solver dstevd
(Gu & Eisenstat 1995), called through scipy's compiled wrapper by
qesboson._lapack.  That is the solver dense eigh runs after its
Householder reduction, which on such a block is the identity, so it
skips two O(n^3) no-op steps.

Such a block also takes its residual on its band: d*v - lambda*v plus the
sub- and superdiagonal terms, elementwise.  That is every nonzero entry the
dense product M @ v would multiply, in O(n^2) instead of O(n^3), and with
no BLAS call, so the residual has the same bits at any BLAS thread count
and no second thread pool wakes up right after stevd's.  Every other block
takes its residual on the full dense matrix.

Both routes share this one solve, _solve_block, and its one residual gate,
RESIDUAL_TOL: the oracle hands it the band of its tridiagonal blocks or the
dense Fock block, the reduced route the band of its Jacobi matrix, built
from the reduced entries alone, or the dense reduced block.  The two
routes differ in the matrix or band they pass, not in the solver or the
checks.
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
    _block_bands,
    _integer_image,
    _IntegerTerms,
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

RESIDUAL_TOL = 1e-8  # the largest residual a block solve may have; see _solve_block


def _block_run(charge: ConservedCharge, kappa: int) -> tuple[list[int], list[int]]:
    """The n1 and the n2 of every state with s*n1 + p*n2 = kappa, ordered by
    increasing n2 (so n1 falls by p and n2 rises by s from state to state).
    Lists, not ranges: the band assembly indexes them entry by entry, and a
    range forms a new int at every index."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    s, p = charge.s, charge.p
    # the smallest n2 >= 0 with p*n2 = kappa (mod s); the rest follow every s
    first = kappa * pow(p, -1, s) % s
    n2s = range(first, kappa // p + 1, s)
    top = (kappa - p * first) // s
    return list(range(top, top - p * len(n2s), -p)), list(n2s)


def enumerate_block(charge: ConservedCharge, kappa: int) -> tuple[FockState, ...]:
    """All states with s*n1 + p*n2 = kappa, ordered by increasing n2.

    The list may be empty; ties are impossible because gcd(s, p) = 1.
    """
    return tuple(map(FockState, *_block_run(charge, kappa)))


def block_amplitudes(
    h: OperatorPolynomial, basis: tuple[FockState, ...]
) -> dict[tuple[int, int], FockAmplitude]:
    """Exact block entries as (row, col) -> amplitude of basis[row] in h|basis[col]>.

    basis may be any tuple of states.  Raises BlockClosureViolation if h
    maps one of them outside it, which a conserving h never does on a whole
    block.
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


def block_matrix(h: OperatorPolynomial, charge: ConservedCharge, kappa: int) -> np.ndarray:
    """Dense matrix of h restricted to the block kappa, over the
    enumerate_block basis: float64 when every coefficient of h is real,
    complex otherwise.  Raises NonConservingHamiltonian unless h conserves
    the charge.

    Each entry is formed straight from its integer numerators re, im over
    h's common denominator D and its unreduced ladder ratio num/den as
    complex(re / D, im / D) * (num / den) ** 0.5, or for real h as
    re / D * (num / den) ** 0.5, the real part of that product bit for
    bit.  Integer true division is correctly rounded, so this is bit for bit
    complex(amp) (its real part for real h) of the exact amplitude that
    block_amplitudes returns.  Raises NumericalFailure when an entry does
    not fit in a double, naming the first such entry column by column.
    """
    if not conserves(h, charge):
        raise _non_conserving(charge)
    n1s, n2s = _block_run(charge, kappa)
    dim = len(n2s)
    terms, denom = _integer_terms(h)
    real = not any(im for _, _, im in terms)
    matrix = np.zeros((dim, dim), dtype=float if real else complex)
    s, p = charge.s, charge.p
    rows, cols, values = [], [], []
    try:
        for k, (nz, res, ims) in _block_bands(terms, n1s, n2s).items():
            # ladder ratio per mode: the rising occupation over the falling one
            if k >= 0:
                rise, fall, ups, downs = s * k, p * k, n2s, n1s
            else:
                rise, fall, ups, downs = -p * k, -s * k, n1s, n2s
            scales = [(perm(ups[j] + rise, rise) / perm(downs[j], fall)) ** 0.5 for j in nz]
            if real:
                values += [re / denom * x for re, x in zip(res, scales)]
            else:
                values += [
                    complex(re / denom, im / denom) * x
                    for re, im, x in zip(res, ims or repeat(0), scales)
                ]
            rows += [j + k for j in nz]
            cols += nz
    except OverflowError:
        raise _first_overflow(terms, denom, n1s, n2s) from None
    values = np.array(values, dtype=matrix.dtype)
    matrix[rows, cols] = values
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise _unrepresentable(FockState(n1s[col], n2s[col]), FockState(n1s[row], n2s[row]))
    return matrix


def _first_overflow(
    terms: _IntegerTerms, denom: int, n1s: list[int], n2s: list[int]
) -> NumericalFailure:
    """The overflow that assembling the block entry by entry meets first,
    column by column and in term order within a column; block_matrix calls
    it only once it has met one, so that it names the same entry."""
    for state in map(FockState, n1s, n2s):
        for target, (re, im) in _integer_image(terms, state.n1, state.n2).items():
            target = FockState(*target)
            num, den = _ladder_ratio(state, target)
            try:
                re / denom, im / denom, num / den
            except OverflowError:
                return _unrepresentable(state, target)
    raise AssertionError("block_matrix met no overflow")


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
    """A charge block: its kappa, exact restriction of h (float64 when h
    has real coefficients, complex otherwise) and, on first use, basis."""

    charge: ConservedCharge
    kappa: int
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @cached_property
    def basis(self) -> tuple[FockState, ...]:
        return enumerate_block(self.charge, self.kappa)


def build_block(
    h: OperatorPolynomial, charge: ConservedCharge, kappa: int
) -> FockBlock:
    """Restrict h to the block; requires conservation."""
    return FockBlock(charge, kappa, block_matrix(h, charge, kappa))


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
    """Full eigensystem of one block.

    Uses the Hermitian eigensolver when h is exactly Hermitian (real
    eigenvalues, orthonormal eigenvectors) and the general dense solver
    otherwise, in real arithmetic when the block is real.  A real Hermitian
    block that is zero outside its diagonal, subdiagonal and superdiagonal
    goes to _solve_block as that band, every other block as its dense
    matrix.  Returns (block, values, vectors, method, max_residual) with
    the eigenpairs sorted ascending by (real, imag); values are complex,
    vectors have the dtype the solver returns (float64 for a real Hermitian
    block).  Raises NumericalFailure when _solve_block refuses the solve.
    """
    block = build_block(h, charge, kappa)
    hermitian = is_hermitian(h)
    matrix = block.matrix
    # the diagonals h's terms can fill: a term moves a state (m3 - m4) / s
    # places along the basis
    offsets = {(m4 - m3) // charge.s for (_, _, m3, m4), _ in h.items()}
    form = matrix
    if hermitian and matrix.dtype == float and not any(
        np.diagonal(matrix, k).any() for k in offsets if abs(k) > 1
    ):
        form = np.diag(matrix), np.diag(matrix, -1), np.diag(matrix, 1)
    values, vectors, max_residual = _solve_block(f"block kappa={kappa}", form, hermitian)
    return block, values, vectors, "hermitian" if hermitian else "general", max_residual


def _solve_block(
    name: str, form: np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray], hermitian: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, eigenvectors and worst eigenpair residual of one block:
    the one solve of both routes and of EnergyPolynomialTable.spectrum.

    form is the band (diagonal, lower, upper) of a real symmetric
    tridiagonal matrix, solved by stevd on its diagonal and subdiagonal
    with the residual taken on the band, or a dense matrix, solved by eigh
    when hermitian and by eig otherwise with the residual taken on the full
    matrix.  The eigenvalues are complex and ascending by (real, imag),
    which is stevd's own order; the eigenvectors have the solver's dtype.
    An empty block has no eigenpairs, residual 0 and vectors of the dtype
    its solver would return.  Raises NumericalFailure, naming the block by
    name, when the worst residual exceeds RESIDUAL_TOL or is NaN, and, with
    residual NaN, when LAPACK does not converge (checked_solve).
    """
    band = isinstance(form, tuple)
    if not len(form[0] if band else form):
        empty = np.zeros((0, 0), dtype=float if band else form.dtype)
        return np.zeros(0, dtype=complex), empty, 0.0
    # entries above about 1e154 overflow the residual norm to inf, refused below
    with checked_solve(name), np.errstate(over="ignore"):
        if band:
            diagonal, lower, upper = form
            values, vectors = stevd(diagonal, lower)
            residuals = _band_residuals(diagonal, lower, upper, values, vectors)
        else:
            solver = np.linalg.eigh if hermitian else np.linalg.eig
            values, vectors = sort_eigenpairs(*solver(form))
            residuals = eigen_residual(form, values, vectors)
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
    block, values, _, method, max_residual = diagonalize_block(h, charge, kappa)
    return SpectrumReport(
        kappa=kappa,
        dimension=block.dimension,
        eigenvalues=tuple(complex(v) for v in values),
        method=method,
        max_residual=max_residual,
    )
