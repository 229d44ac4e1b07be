import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_entries, random_conserving_hamiltonian, spectral_deviation
from qesboson import (
    BandStructureUnsupported,
    ConservedCharge,
    DegreeOutsidePhysicalSector,
    FockState,
    NonConservingHamiltonian,
    NumericalFailure,
    Polynomial,
    RationalComplex,
    ReducedBlock,
    ZeroVector,
    block_amplitudes,
    build_nth_harmonic,
    build_shg,
    diagonalize_block,
    eigenvector_to_fock,
    energy_polynomial_table,
    enumerate_block,
    identity,
    matrix_element_reduction,
    monomial,
    number,
    paper_literal,
    qes_spectrum,
    reduced_block_matrix,
    reduced_eigensystem,
    shg_charge,
    shg_ode,
)
from qesboson import oracle
from qesboson.algebra import _integer_terms
from qesboson.exact import ONE, ZERO
from qesboson.oracle import block_spectrum


def sorted_reals(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]


class TestPhysicalSector:
    def test_degrees_bijective_with_block(self):
        # the reduced block's degrees are the Fock block's mode-1
        # occupations, ascending, one per basis state
        for s, p in [(1, 2), (1, 3), (2, 3), (3, 4)]:
            charge = ConservedCharge(s, p)
            h = number(1) + number(2)
            for kappa in range(30):
                degrees = reduced_block_matrix(h, charge, kappa).degrees
                basis = enumerate_block(charge, kappa)
                assert sorted(st.n1 for st in basis) == list(degrees)


class TestReduceViaS:
    """The a2+ route (similarity built from a2+ powers), which is
    matrix_element_reduction."""

    def test_shg_term_structure(self, shg):
        # h's coefficients as integer numerators over D = 2: w1 N1 = 1,
        # w2 N2 = 2, kc (a1+)^2 a2 = kb a1^2 a2+ = 1/2
        h, charge = shg
        op = matrix_element_reduction(h, charge)
        assert op.denominator == 2
        assert set(op.terms) == {
            ((1, 1, 0, 0), 2, 0),
            ((0, 0, 1, 1), 4, 0),
            ((2, 0, 0, 1), 1, 0),
            ((0, 2, 1, 0), 1, 0),
        }
        assert (op.terms, op.denominator) == _integer_terms(h)

    def test_mode2_free_term_unchanged(self):
        h = 3 * number(1)
        op = matrix_element_reduction(h, ConservedCharge(1, 2))
        assert (op.terms, op.denominator) == ((((1, 1, 0, 0), 3, 0),), 1)

    def test_mode2_number_gets_slaved_occupation(self):
        op = matrix_element_reduction(5 * number(2), ConservedCharge(1, 2))
        assert op.terms == (((0, 0, 1, 1), 5, 0),)
        # degrees 0, 2, 4 of kappa = 4 slave n2 = 2, 1, 0
        assert op.block_entries(4) == ((0, 2, 4), {0: ([0, 1], [10, 5], None)}, 1)

    def test_matches_defining_matrix_exactly(self, shg):
        # R = D^-1 M D entry by entry: the Fock amplitude coeff*sqrt(t!/n!)
        # times d_source/d_target, d = sqrt(n1! n2!), leaves exactly coeff
        h, charge = shg
        op = matrix_element_reduction(h, charge)
        for kappa in range(12):
            block = ReducedBlock(*op.block_entries(kappa))
            degrees, entries = block.degrees, exact_entries(block)
            pos = {n: i for i, n in enumerate(degrees)}
            basis = enumerate_block(charge, kappa)
            defining = {
                (pos[basis[row].n1], pos[basis[col].n1]): amp.coeff
                for (row, col), amp in block_amplitudes(h, basis).items()
                if not amp.coeff.is_zero
            }
            assert entries == defining

    def test_non_conserving_rejected(self, shg):
        h, _ = shg
        with pytest.raises(NonConservingHamiltonian):
            matrix_element_reduction(h, ConservedCharge(1, 1))


class TestReducedBlockMatrix:
    def test_shg_kappa_two(self, shg):
        h, charge = shg
        block = reduced_block_matrix(h, charge, 2)
        assert block.degrees == (0, 2)
        assert np.allclose(block.matrix, np.array([[2.0, 1.0], [0.5, 2.0]]))

    def test_shg_kappa_four_spectrum(self, shg):
        h, charge = shg
        block = reduced_block_matrix(h, charge, 4)
        assert block.degrees == (0, 2, 4)
        assert np.allclose(
            sorted_reals(np.linalg.eigvals(block.matrix)), [2, 4, 6], atol=1e-12
        )

    def test_vacuum_block(self, shg):
        h, charge = shg
        block = reduced_block_matrix(h, charge, 0)
        assert block.degrees == (0,)
        assert block.matrix[0, 0] == 0

    def test_d_conjugation_identity(self, shg):
        # R_ij * d_i == d_j * M_ij with d = sqrt(n1! n2!), up to 1e-12 rel.
        h, charge = shg
        for kappa in range(0, 22, 3):
            block = reduced_block_matrix(h, charge, kappa)
            basis = enumerate_block(charge, kappa)
            fock = {(st.n1, st.n2): i for i, st in enumerate(basis)}
            from qesboson import block_matrix

            m = block_matrix(h, charge, kappa)
            d = {}
            for state in basis:
                d[state.n1] = sqrt(factorial(state.n1) * factorial(state.n2))
            for i, ni in enumerate(block.degrees):
                for j, nj in enumerate(block.degrees):
                    fi = fock[(ni, (kappa - ni) // charge.p)]
                    fj = fock[(nj, (kappa - nj) // charge.p)]
                    lhs = block.matrix[i, j] * d[ni]
                    rhs = d[nj] * m[fi, fj]
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_paper_literal_mode_shifts_diagonal(self, shg):
        h, charge = shg
        base = reduced_block_matrix(h, charge, 6)
        literal = reduced_block_matrix(paper_literal(h), charge, 6)
        assert np.allclose(literal.matrix, base.matrix + 2.0 * np.eye(4))

    def test_paper_literal_drops_cancelled_diagonal(self):
        # at degree 2 of block 4 the diagonal w1*n1 + w2*n2 + w2 = 2 - 1 - 1
        # vanishes, so the block stores no entry there
        block = reduced_block_matrix(paper_literal(build_shg(1, -1, 1, 1)), shg_charge(), 4)
        assert 1 not in block.bands[0][0]  # band 0 has no column 1
        assert not any(value.is_zero for value in exact_entries(block).values())

    def test_paper_literal_adds_mode2_frequency(self, shg):
        h, _ = shg
        assert paper_literal(h) == h + identity(2)

    def test_paper_literal_without_mode2_number_is_h(self):
        # no a2+ a2 term: w2 = 0 and the as-published diagonal is h's own
        h = number(1) + monomial(Fraction(1, 2), 2, 0, 0, 1) + monomial(Fraction(1, 2), 0, 2, 1, 0)
        assert paper_literal(h) == h


class TestTerminationDegree:
    def test_shg_examples(self, shg):
        h, charge = shg
        assert reduced_block_matrix(h, charge, 2).dimension == 2
        assert reduced_block_matrix(h, charge, 5).dimension == 3

    def test_matches_floor_rule(self, shg):
        h, charge = shg
        for kappa in range(30):
            assert reduced_block_matrix(h, charge, kappa).dimension == kappa // 2 + 1

    def test_trilinear(self):
        h = number(1) + number(2)
        assert reduced_block_matrix(h, ConservedCharge(1, 3), 3).dimension == 2


class TestEnergyPolynomialTable:
    def test_shg_kappa_two_corrected(self, shg):
        h, charge = shg
        table = energy_polynomial_table(h, charge, 2)
        assert table.dimension == 2
        assert table.polys[0] == Polynomial.from_coeffs([1])
        assert table.polys[1] == Polynomial.from_coeffs([-2, 1])
        # termination: (E-2)^2 - 1/2, up to sign convention it is monic here
        assert table.polys[-1] == Polynomial.from_coeffs([Fraction(7, 2), -4, 1])
        roots = np.sort(table.spectrum().real)
        assert np.allclose(roots, [2 - sqrt(0.5), 2 + sqrt(0.5)], atol=1e-12)

    def test_shg_kappa_two_literal_shift(self, shg):
        h, charge = shg
        literal = energy_polynomial_table(paper_literal(h), charge, 2)
        roots = np.sort(literal.spectrum().real)
        assert np.allclose(roots, [4 - sqrt(0.5), 4 + sqrt(0.5)], atol=1e-12)

    def test_degree_structure(self, shg):
        h, charge = shg
        for kappa in (0, 1, 3, 7, 10):
            table = energy_polynomial_table(h, charge, kappa)
            assert len(table.polys) == table.dimension + 1
            for m, poly in enumerate(table.polys):
                assert len(poly.coeffs) - 1 == m
            assert len(table.polys[-1].coeffs) - 1 == table.dimension

    def test_dimension_one_block(self, shg):
        h, charge = shg
        table = energy_polynomial_table(h, charge, 1)
        assert table.dimension == 1
        # linear termination with root at the single diagonal entry
        assert len(table.polys[-1].coeffs) - 1 == 1
        assert np.allclose(table.spectrum(), [1.0])

    def test_solver_failure_is_numerical_failure(self, shg, monkeypatch):
        # np.linalg.LinAlgError is a ValueError, which the CLI reads as a
        # usage error; spectrum() must report it as NumericalFailure
        def fail_to_converge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        h, charge = shg
        table = energy_polynomial_table(h, charge, 4)
        monkeypatch.setattr(oracle, "stevd", fail_to_converge)
        message = "recurrence kappa=4 eigensolve failed: Eigenvalues did not converge"
        with pytest.raises(NumericalFailure, match=message) as info:
            table.spectrum()
        assert math.isnan(info.value.residual)

    def test_nan_eigenvalue_is_refused(self, shg, monkeypatch):
        # spectrum() used to return [nan, 4, 6] here, while qes_spectrum
        # refused the same block; both now pass through the oracle's residual gate
        solver = oracle.stevd

        def nan_first(*args, **kwargs):
            values, vectors = solver(*args, **kwargs)
            values[0] = math.nan
            return values, vectors

        h, charge = shg
        table = energy_polynomial_table(h, charge, 4)
        monkeypatch.setattr(oracle, "stevd", nan_first)
        with pytest.raises(NumericalFailure, match="recurrence kappa=4 eigensolve residual nan"):
            table.spectrum()
        with pytest.raises(NumericalFailure, match="reduced block kappa=4 eigensolve residual nan"):
            qes_spectrum(h, charge, 4)

    def test_transpose_duality_exact(self, shg):
        # recurrence matrix is the order-reversed transpose of the block
        h, charge = shg
        for kappa in range(12):
            block = reduced_block_matrix(h, charge, kappa)
            table = energy_polynomial_table(h, charge, kappa)
            assert np.allclose(
                sorted_reals(table.spectrum()),
                sorted_reals(np.linalg.eigvals(block.matrix)),
                atol=1e-9,
            )

    def test_termination_roots_equal_recurrence_spectrum(self, shg):
        # the terminating polynomial vanishes at every recurrence eigenvalue,
        # relative to the size of its terms there
        h, charge = shg
        for kappa in range(0, 13, 2):
            table = energy_polynomial_table(h, charge, kappa)
            coeffs = [complex(c) for c in table.polys[-1].coeffs]
            for value in table.spectrum():
                terms = [c * value**i for i, c in enumerate(coeffs)]
                assert abs(sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)

    def test_multiple_subdiagonals_supported(self):
        # one superdiagonal plus two subdiagonal bands: the recurrence
        # still solves row by row, and its roots track the oracle
        charge = ConservedCharge(1, 2)
        h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2)) + monomial(
            Fraction(1, 5), 4, 0, 0, 2
        )
        for kappa in (6, 9, 12):
            table = energy_polynomial_table(h, charge, kappa)
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            assert spectral_deviation(table.spectrum(), oracle) <= 1e-9

    def test_band_structure_guard(self):
        # two competing raising steps break the single-superdiagonal shape;
        # with a third, row 0 holds (0,2) and (0,3) and the guard names the
        # first
        charge = ConservedCharge(1, 2)
        h = (
            build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
            + monomial(1, 4, 0, 0, 2)
            + monomial(1, 0, 4, 2, 0)
        )
        for model in (h, h + monomial(1, 0, 6, 3, 0)):
            with pytest.raises(
                BandStructureUnsupported,
                match=r"^entry \(0,2\) above the first superdiagonal is nonzero$",
            ):
                energy_polynomial_table(model, charge, 8)

    def test_triangular_block_guard(self):
        # kappa_bar = 0 kills the recurrence superdiagonal entirely
        h = build_shg(1, 2, Fraction(1, 2), 0)
        with pytest.raises(
            BandStructureUnsupported, match=r"^superdiagonal entry \(0,1\) vanishes$"
        ):
            energy_polynomial_table(h, shg_charge(), 4)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero_fractions = fractions.filter(bool)
real_coefficients = st.builds(RationalComplex, fractions)
coefficients = real_coefficients | st.builds(RationalComplex, fractions, nonzero_fractions)
nonzero_coefficients = st.builds(RationalComplex, nonzero_fractions) | st.builds(
    RationalComplex, fractions, nonzero_fractions
)


@st.composite
def recurrence_models(draw):
    """A conserving n-th harmonic model (n = 2 or 3) whose recurrence has one
    nonvanishing superdiagonal: both couplings are nonzero, real or complex,
    so the superdiagonal is complex whenever its coupling is.  Some models
    get a weight-zero a1+ a1 a2+ a2 term, and some one or two terms
    (a1+)^(k n) (a2)^k, k = 2 or 3, which put bands k below the recurrence
    diagonal (a lower-Hessenberg recurrence)."""
    order = draw(st.sampled_from((2, 3)))
    h = build_nth_harmonic(
        draw(coefficients), draw(coefficients),
        draw(nonzero_coefficients), draw(nonzero_coefficients), order,
    )
    if draw(st.booleans()):
        h = h + monomial(draw(coefficients), 1, 1, 1, 1)
    for k in draw(st.lists(st.sampled_from((2, 3)), max_size=2, unique=True)):
        h = h + monomial(draw(nonzero_coefficients), k * order, 0, 0, k)
    return h, ConservedCharge(1, order), draw(st.integers(0, 30))


def combination(*terms) -> Polynomial:
    """The sum of c * E^k * P over the (c, k, P) in terms, coefficient by
    coefficient."""
    out = []
    for c, k, poly in terms:
        for i, x in enumerate(poly.coeffs, start=k):
            out.extend([ZERO] * (i + 1 - len(out)))
            out[i] = out[i] + c * x
    return Polynomial.from_coeffs(out)


@settings(max_examples=60, deadline=None)
@given(model=recurrence_models())
def test_energy_polynomials_satisfy_every_recurrence_row(model):
    # row m of the recurrence matrix A[d-1-j][d-1-i] = R[i, j], exactly in
    # RationalComplex on the block's own entries:
    # E P_m - sum_{j<=m} A[m][j] P_j = A[m][m+1] P_{m+1}, and P_d on the last row
    h, charge, kappa = model
    table = energy_polynomial_table(h, charge, kappa)
    d = table.dimension
    a = {(d - 1 - j, d - 1 - i): value for (i, j), value in exact_entries(table.block).items()}
    polys = table.polys
    assert len(polys) == d + 1 and polys[0] == Polynomial.from_coeffs([1])
    assert [len(poly.coeffs) - 1 for poly in polys] == list(range(d + 1))
    for m in range(d):
        lhs = combination(
            (ONE, 1, polys[m]), *((-a[(m, j)], 0, polys[j]) for j in range(m + 1) if (m, j) in a)
        )
        rhs = polys[d] if m == d - 1 else combination((a[(m, m + 1)], 0, polys[m + 1]))
        assert lhs == rhs


class TestQesSpectrum:
    def test_matches_oracle_small(self, shg):
        h, charge = shg
        for kappa in range(16):
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
            assert len(oracle) == len(reduced)
            if len(oracle):
                assert np.max(np.abs(oracle - reduced)) <= 1e-9

    def test_kappa_one(self, shg):
        h, charge = shg
        report = qes_spectrum(h, charge, 1)
        assert report.eigenvalues[0] == pytest.approx(1.0)

    def test_empty_block(self):
        h_diag = 2 * number(1) + 3 * number(2)
        report = qes_spectrum(h_diag, ConservedCharge(2, 3), 1)
        assert report.eigenvalues == ()

    def test_empty_block_eigensystems(self):
        # charge (2,3) has no states at kappa=1: every solve returns no
        # eigenpairs, residual 0 and (0, 0) vectors in the dtype its solver
        # would give, float64 for the oracle's real Hermitian block
        h_diag = 2 * number(1) + 3 * number(2)
        charge = ConservedCharge(2, 3)
        block, values, vectors, method, worst = diagonalize_block(h_diag, charge, 1)
        assert (block.dimension, method, worst) == (0, "hermitian", 0.0)
        assert values.shape == (0,) and values.dtype == np.complex128
        assert vectors.shape == (0, 0) and vectors.dtype == np.float64
        block, values, vectors, worst = reduced_eigensystem(h_diag, charge, 1)
        assert (block.dimension, worst) == (0, 0.0)
        assert values.shape == (0,) and values.dtype == np.complex128
        assert vectors.shape == (0, 0) and vectors.dtype == np.complex128
        table = energy_polynomial_table(h_diag, charge, 1)
        values = table.spectrum()
        assert table.dimension == 0
        assert values.shape == (0,) and values.dtype == np.complex128

    def test_random_hermitian_models_isospectral(self):
        # mixed term shapes included: the defining route must track the
        # oracle for any conserving Hamiltonian, not just the catalog
        rng = random.Random(53)
        for _ in range(50):
            charge = ConservedCharge(rng.randint(1, 3), rng.randint(1, 4))
            half = random_conserving_hamiltonian(rng, charge, n_terms=3, max_exp=3)
            h = half + half.adjoint()
            for kappa in range(0, 13, 3):
                oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
                reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
                if len(oracle):
                    scale = max(1.0, float(np.max(np.abs(oracle))))
                    assert np.max(np.abs(oracle - reduced)) <= 1e-9 * scale

    @pytest.mark.parametrize("n,kmax", [(1, 20), (4, 24)])
    def test_other_harmonic_orders(self, n, kmax):
        h = build_nth_harmonic(1, 3, Fraction(1, 3), Fraction(1, 3), n)
        charge = ConservedCharge(1, n)
        for kappa in range(kmax + 1):
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
            if len(oracle):
                assert np.max(np.abs(oracle - reduced)) <= 1e-9

    def test_matrix_element_route_handles_mixed_terms(self):
        # mixed mode-2 shapes go through the defining route unharmed
        charge = ConservedCharge(1, 1)
        h = (
            number(1)
            + 2 * number(2)
            + monomial(Fraction(1, 3), 0, 1, 2, 1)
            + monomial(Fraction(1, 3), 1, 0, 1, 2)
        )
        for kappa in range(10):
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
            assert spectral_deviation(oracle, reduced) <= 1e-9


class TestNegativeKappa:
    """The reduced route refuses kappa < 0 as the oracle does."""

    def test_physical_degrees(self, shg):
        h, charge = shg
        with pytest.raises(ValueError, match="kappa must be non-negative"):
            reduced_block_matrix(h, charge, -1).degrees

    def test_qes_spectrum(self, shg):
        h, charge = shg
        with pytest.raises(ValueError, match="kappa must be non-negative"):
            qes_spectrum(h, charge, -1)
        with pytest.raises(ValueError, match="kappa must be non-negative"):
            block_spectrum(h, charge, -1)

    def test_reduced_block_and_polynomials(self, shg):
        h, charge = shg
        with pytest.raises(ValueError, match="kappa must be non-negative"):
            reduced_block_matrix(h, charge, -2)
        with pytest.raises(ValueError, match="kappa must be non-negative"):
            energy_polynomial_table(h, charge, -2)


class TestEigenvectorToFock:
    def test_kappa_two_closed_form(self, shg):
        h, charge = shg
        basis, amps = eigenvector_to_fock(
            {0: 1.0, 2: 0.7071067811865475}, charge, 2
        )
        assert basis == (FockState(2, 0), FockState(0, 1))
        # x^0 maps to (0,1), x^2 maps to (2,0); both amplitudes 1/sqrt(2)
        assert np.allclose(np.abs(amps), [1 / sqrt(2), 1 / sqrt(2)])

    def test_kappa_four_eigenvector(self, shg):
        h, charge = shg
        basis, amps = eigenvector_to_fock({0: 1.0, 2: 2.0, 4: 0.5}, charge, 4)
        want = np.array([sqrt(6), 2 * sqrt(2), sqrt(2)])  # order n2 = 0, 1, 2
        want = want / np.linalg.norm(want)
        assert np.allclose(np.abs(amps), want)

    def test_dimension_one(self, shg):
        h, charge = shg
        _, amps = eigenvector_to_fock({1: 2.5}, charge, 1)
        assert np.allclose(np.abs(amps), [1.0])

    def test_unphysical_degree_rejected(self, shg):
        h, charge = shg
        with pytest.raises(DegreeOutsidePhysicalSector):
            eigenvector_to_fock({1: 1.0}, charge, 2)

    def test_repeated_and_interleaved_calls_identical(self, shg):
        _, charge = shg
        calls = [
            ({0: 1.0, 2: 2.0, 4: 0.5}, 4),
            ({1: 0.3 - 0.2j, 3: 1.5}, 3),
            ({0: -1.0, 4: 1e-3j}, 4),
            ({n: 1.0 / (n + 1) for n in range(0, 41, 2)}, 40),
        ]
        fresh = [eigenvector_to_fock(c, charge, k) for c, k in calls]
        # the same calls again, interleaved across blocks and reversed
        for (coeffs, kappa), (basis, amps) in reversed(list(zip(calls, fresh))):
            again_basis, again = eigenvector_to_fock(coeffs, charge, kappa)
            assert again_basis == basis
            assert again.tobytes() == amps.tobytes()
            assert again is not amps

    def test_errors_raised_after_block_is_cached(self, shg):
        _, charge = shg
        eigenvector_to_fock({0: 1.0}, charge, 6)
        with pytest.raises(DegreeOutsidePhysicalSector):
            eigenvector_to_fock({1: 1.0}, charge, 6)
        with pytest.raises(ZeroVector):
            eigenvector_to_fock({0: 0.0, 2: 0.0}, charge, 6)
        with pytest.raises(ZeroVector):
            eigenvector_to_fock({}, charge, 6)

    def test_roundtrip_against_oracle(self, shg):
        h, charge = shg
        for kappa in range(0, 13):
            _, o_vals, o_vecs, _, _ = diagonalize_block(h, charge, kappa)
            block, r_vals, r_vecs, _ = reduced_eigensystem(h, charge, kappa)
            for i in range(len(r_vals)):
                gaps = np.abs(o_vals - o_vals[i])
                gaps[i] = np.inf
                if gaps.min() < 1e-6:
                    continue
                coeffs = {
                    n: r_vecs[j, i] for j, n in enumerate(block.degrees)
                }
                _, mapped = eigenvector_to_fock(coeffs, charge, kappa)
                overlap = abs(np.vdot(mapped, o_vecs[:, i]))
                assert overlap >= 1 - 1e-8


def ode_recurrence(ode, dim: int) -> list[list[RationalComplex]]:
    """Dense exact matrix B of the ODE's coefficient recurrence on
    z^0 .. z^(dim-1): row m collects the coefficient of z^m after inserting
    a power series, so B is the transpose of the energy-polynomial
    recurrence matrix of the same block and shares its spectrum."""
    b = [[ZERO] * dim for _ in range(dim)]
    for m in range(dim):
        if m >= 1:
            b[m][m - 1] = b[m][m - 1] + ode.c3 * ((m - 1) * (m - 2))
        for r, f in enumerate(ode.c1.coeffs):
            j = m + 1 - r
            if 0 <= j < dim:
                b[m][j] = b[m][j] + f * j
        for r, g in enumerate(ode.c0.coeffs):
            j = m - r
            if 0 <= j < dim:
                b[m][j] = b[m][j] + g
    return b


class TestShgOde:
    def test_corrected_coefficients(self):
        ode = shg_ode(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert ode.c3 == RationalComplex.coerce(2)
        assert ode.c1 == Polynomial.from_coeffs([Fraction(1, 2), 0, -1])
        assert ode.c0 == Polynomial.from_coeffs([2, 1])

    def test_first_order_when_kb_zero(self):
        ode = shg_ode(1, 2, Fraction(1, 2), 0, 2)
        assert ode.c3.is_zero

    def test_recurrence_is_table_transpose(self, shg):
        h, charge = shg
        for kappa in range(0, 11):
            table = energy_polynomial_table(h, charge, kappa)
            ode = shg_ode(1, 2, Fraction(1, 2), Fraction(1, 2), kappa)
            d = table.dimension
            b = ode_recurrence(ode, d)
            entries = exact_entries(table.block)
            for i in range(d):
                for j in range(d):
                    expected = entries.get((d - 1 - i, d - 1 - j), ZERO)
                    assert b[i][j] == expected

    def test_ode_recurrence_roots_match_oracle(self, shg):
        h, charge = shg
        for kappa in (2, 5, 9):
            dim = reduced_block_matrix(h, charge, kappa).dimension
            ode = shg_ode(1, 2, Fraction(1, 2), Fraction(1, 2), kappa)
            vals = np.linalg.eigvals(np.array(ode_recurrence(ode, dim), dtype=complex))
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            assert np.allclose(sorted_reals(vals), sorted_reals(oracle), atol=1e-9)


def test_reduced_operator_refuses_non_conserving_terms():
    # an operator built by hand whose raising term does not conserve the
    # charge is refused when it is built, as matrix_element_reduction
    # refuses the Hamiltonian
    from qesboson.reduction import ReducedOperator

    with pytest.raises(NonConservingHamiltonian):
        ReducedOperator(
            terms=(((2, 0, 0, 0), 1, 0),),
            denominator=1,
            charge=ConservedCharge(1, 2),
        )


def test_energy_polynomials_demo_matches_golden():
    """demos/energy_polynomials.py prints
    tests/golden/demo_energy_polynomials.txt byte for byte: its polynomials
    are exact and every float it prints is rounded to at most 9 digits."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "energy_polynomials.py")],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "golden" / "demo_energy_polynomials.txt").read_bytes()
