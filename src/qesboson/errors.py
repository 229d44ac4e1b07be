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
    """An eigensolve residual exceeded oracle.RESIDUAL_TOL, its
    eigenvectors cannot be represented in double precision (residual inf),
    the LAPACK solver did not converge (residual nan), a spectrum that
    must be real to be compared is not (the solve's residual), a sextic
    level misses its block level + w2 (the deviation), or a block has more
    than oracle.MAX_DIMENSION states (residual inf)."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ZeroVector(QesBosonError):
    """A nonzero vector was required."""


class BandStructureUnsupported(QesBosonError):
    """The reduced matrix has no scalar three-term-style recurrence; fall
    back to the characteristic polynomial of the reduced block."""


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
