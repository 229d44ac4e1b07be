"""Exception types shared across the package."""

from __future__ import annotations


class QesBosonError(Exception):
    """Base class for package errors."""


class NonConservingHamiltonian(QesBosonError):
    """The Hamiltonian does not commute with the declared charge."""


class BlockClosureViolation(QesBosonError):
    """oracle.block_amplitudes was given a basis that the operator maps
    outside itself.  The block routes never raise it: they refuse an
    operator that does not conserve the charge (NonConservingHamiltonian),
    and a conserving one keeps every block."""


class NumericalFailure(QesBosonError):
    """A value that double precision cannot hold, or a result that misses
    its bound: a block solve's residual above oracle.RESIDUAL_TOL or LAPACK
    not converging; a block of more than oracle.MAX_DIMENSION states; a
    Fock or reduced block entry, or reduced monomial-basis eigenvectors,
    out of double range; a sextic coefficient not real or out of range; a
    gauge shift, finite-difference or oscillator-basis matrix out of range;
    a potential that does not confine; sextic levels that no oscillator
    basis reaches, that need too many states or that do not settle;
    non-real block levels for a sextic level to match; a sextic level off
    its block level + w2.

    residual keeps one rule at every site: inf when a value does not fit
    in a double, a block or basis is too large, or a potential is not real
    or has no bound states; NaN when LAPACK does not converge or the
    residual is NaN; otherwise the measured residual, deviation or last
    move that broke its bound (for non-real block levels, the solve's
    residual)."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ZeroVector(QesBosonError):
    """A nonzero vector was required."""


class BandStructureUnsupported(QesBosonError):
    """The reduced block has no scalar three-term-style recurrence, which
    energy_polynomial_table and so polys refuse (exit 4), naming the entry;
    nothing falls back to a characteristic polynomial.  spectrum, scan and
    qes_spectrum need no recurrence and still solve such blocks."""


class DegreeOutsidePhysicalSector(QesBosonError):
    """An eigenvector coefficient refers to a degree outside the block."""


class ParseError(QesBosonError):
    """Model file syntax error."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvalidOrder(QesBosonError):
    """Harmonic-generation order must be a positive integer."""


class ConventionMismatch(QesBosonError):
    """The exact gauge conjugation identity holds under no sign/normalization
    convention tried; carries each convention's residual (inf: fails)."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals
