"""The package's public surface: the names it exports and the README's
Quick start, which is the first code a reader runs."""

import contextlib
import io
import re
import types
from pathlib import Path

import numpy as np

import qesboson

README = Path(__file__).resolve().parent.parent / "README.md"

# Adding or dropping a public name changes this set, and CHANGES.md records it.
PUBLIC_NAMES = {
    "BandStructureUnsupported", "BlockClosureViolation", "BosonMonomial",
    "ConservedCharge", "ConventionMismatch", "DegreeOutsidePhysicalSector",
    "EnergyPolynomialTable", "FockAmplitude", "FockBlock", "FockState",
    "GaugeConvention", "GaugeIdentityResult", "InvalidOrder", "ModelFile",
    "NonConservingHamiltonian", "NumericalFailure", "OdeCoefficients",
    "OperatorPolynomial", "ParseError", "Polynomial", "QesBosonError",
    "RationalComplex", "ReducedBlock", "ReducedOperator", "SexticPotential",
    "SpectrumReport", "Superpotential", "ZeroVector",
    "annihilate", "apply_to_fock", "block_amplitudes", "block_matrix",
    "block_spectrum", "build_block", "build_nth_harmonic", "build_shg",
    "charge_operator", "charge_weight", "check_gauge_identity", "commutator",
    "conserves", "conserving_pairs", "create", "diagonalize_block",
    "eigen_residual", "eigenvector_to_fock", "energy_polynomial_table",
    "enumerate_block", "fd_spectrum", "gauge_superpotential", "identity",
    "is_hermitian", "matrix_element_reduction", "monomial", "monomial_product",
    "number", "oscillator_levels", "paper_literal", "parse_model_file",
    "qes_spectrum", "reduced_block_matrix", "reduced_eigensystem",
    "sextic_potential", "shg_charge", "shg_ode", "sort_eigenpairs",
    "write_model_file",
}


def test_public_names_are_pinned():
    # submodules become attributes once imported, so they are left out
    public = {
        name for name in dir(qesboson)
        if not name.startswith("_") and not isinstance(getattr(qesboson, name), types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 67
    assert public == PUBLIC_NAMES


def test_readme_quick_start_runs():
    # the block's commented outputs hold: both routes give {2, 4, 6} and the
    # terminating polynomial prints as its comment says
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    for name in ("oracle", "reduced"):
        values = np.sort_complex(np.asarray(namespace[name].eigenvalues, dtype=complex))
        np.testing.assert_allclose(values, [2, 4, 6], rtol=0, atol=1e-12)
    poly_line = code.strip().splitlines()[-1]
    assert poly_line.partition("# ")[2] == "-8 + 22/3*E - 2*E^2 + 1/6*E^3"
    assert out.getvalue().splitlines()[-1] == "-8 + 22/3*E - 2*E^2 + 1/6*E^3"
