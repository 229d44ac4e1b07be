"""Exact finite-block spectra of two-mode bosonic Hamiltonians.

A conserving Hamiltonian splits over the eigenspaces of a weighted number
operator s*N1 + p*N2; each eigenspace is exactly finite, so its spectrum
is computable with zero truncation error.  The package provides the exact
operator algebra, the block oracle, a reduction to single-variable banded
matrices with energy polynomials, the gauge map to a sextic oscillator,
and a batch CLI, with every reduced result cross-checked against the
oracle.
"""

from .algebra import (
    BosonMonomial,
    ConservedCharge,
    FockAmplitude,
    FockState,
    OperatorPolynomial,
    annihilate,
    apply_to_fock,
    charge_operator,
    charge_weight,
    commutator,
    conserves,
    conserving_pairs,
    create,
    identity,
    is_hermitian,
    monomial,
    monomial_product,
    number,
)
from .errors import (
    BandStructureUnsupported,
    BlockClosureViolation,
    ConventionMismatch,
    DegreeOutsidePhysicalSector,
    InvalidOrder,
    NonConservingHamiltonian,
    NumericalFailure,
    ParseError,
    QesBosonError,
    ZeroVector,
)
from .exact import Polynomial, RationalComplex
from .models import (
    ModelFile,
    build_nth_harmonic,
    build_shg,
    parse_model_file,
    shg_charge,
    write_model_file,
)
from .oracle import (
    FockBlock,
    SpectrumReport,
    block_amplitudes,
    block_matrix,
    block_spectrum,
    build_block,
    diagonalize_block,
    eigen_residual,
    enumerate_block,
    sort_eigenpairs,
)
from .reduction import (
    EnergyPolynomialTable,
    OdeCoefficients,
    ReducedBlock,
    ReducedOperator,
    eigenvector_to_fock,
    energy_polynomial_table,
    matrix_element_reduction,
    paper_literal,
    physical_degrees,
    qes_spectrum,
    reduced_block_matrix,
    reduced_eigensystem,
    shg_ode,
    slaved_occupation,
)
from .sextic import (
    GaugeConvention,
    GaugeIdentityResult,
    SexticPotential,
    Superpotential,
    check_gauge_identity,
    fd_spectrum,
    gauge_superpotential,
    oscillator_levels,
    sextic_potential,
)

__version__ = "0.1.0"
