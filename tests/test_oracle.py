import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    random_conserving_hamiltonian,
    random_rational,
    spectral_deviation,
)
from qesboson import (
    ConservedCharge,
    FockState,
    NonConservingHamiltonian,
    NumericalFailure,
    RationalComplex,
    SpectrumReport,
    ZeroVector,
    apply_to_fock,
    block_amplitudes,
    block_matrix,
    block_spectrum,
    build_block,
    build_nth_harmonic,
    build_shg,
    charge_operator,
    energy_polynomial_table,
    diagonalize_block,
    eigen_residual,
    enumerate_block,
    identity,
    is_hermitian,
    monomial,
    number,
    parse_model_file,
    qes_spectrum,
    reduced_block_matrix,
    reduced_eigensystem,
    shg_charge,
)
from qesboson import oracle
from qesboson.oracle import RESIDUAL_TOL, _band_residuals

MODELS = Path(__file__).resolve().parent.parent / "models"

# real Hermitian, charge N1 + N2, with bands +-1 and +-2: its blocks are
# pentadiagonal, so the oracle solves them with dense eigh
BANDED = (
    number(1)
    + 2 * number(2)
    + monomial(Fraction(1, 2), 1, 0, 0, 1)
    + monomial(Fraction(1, 2), 0, 1, 1, 0)
    + monomial(Fraction(1, 3), 2, 0, 0, 2)
    + monomial(Fraction(1, 3), 0, 2, 2, 0)
)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} must not be called for this block")

    return refuse


def _fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def stevd_info(info):
    """stevd as it fails when LAPACK dstevd returns info > 0."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(
            f"stevd (eigh_tridiagonal) did not converge (LAPACK info={info})"
        )

    return fail


class TestEnumerateBlock:
    def test_kappa_two(self):
        charge = ConservedCharge(1, 2)
        assert enumerate_block(charge, 2) == (FockState(2, 0), FockState(0, 1))

    def test_kappa_five(self):
        charge = ConservedCharge(1, 2)
        assert enumerate_block(charge, 5) == (
            FockState(5, 0),
            FockState(3, 1),
            FockState(1, 2),
        )

    def test_empty_block(self):
        assert enumerate_block(ConservedCharge(2, 3), 1) == ()

    def test_exhaustive_and_ordered(self):
        charge = ConservedCharge(2, 3)
        for kappa in range(25):
            basis = enumerate_block(charge, kappa)
            n2s = [st.n2 for st in basis]
            assert n2s == sorted(n2s)
            # brute-force enumeration over a box
            brute = {
                (n1, n2)
                for n1 in range(kappa + 1)
                for n2 in range(kappa + 1)
                if 2 * n1 + 3 * n2 == kappa
            }
            assert {(st.n1, st.n2) for st in basis} == brute


class TestSizeGuard:
    """A block of more than MAX_DIMENSION states is refused from its charge
    and kappa alone, before any list of its states is built."""

    @pytest.mark.parametrize("s,p", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4)])
    def test_refused_exactly_above_the_limit(self, monkeypatch, s, p):
        monkeypatch.setattr(oracle, "MAX_DIMENSION", 7)
        charge = ConservedCharge(s, p)
        for kappa in range(120):
            # brute-force count of the states with s*n1 + p*n2 = kappa
            dim = sum(1 for n2 in range(kappa // p + 1) if (kappa - p * n2) % s == 0)
            if dim > 7:
                with pytest.raises(NumericalFailure, match=f"kappa={kappa} has {dim} states"):
                    oracle._block_run(charge, kappa)
            else:
                assert len(enumerate_block(charge, kappa)) == dim

    def test_the_limit_itself(self):
        assert oracle.MAX_DIMENSION == 8192
        charge = ConservedCharge(1, 2)
        n1s, n2s = oracle._block_run(charge, 2 * 8191)
        assert len(n1s) == len(n2s) == 8192
        with pytest.raises(NumericalFailure, match="has 8193 states, more than the 8192"):
            oracle._block_run(charge, 2 * 8192)

    @pytest.mark.parametrize("kappa", [10**10, 10**30])
    def test_huge_kappa_is_refused_by_both_routes(self, kappa):
        # the dimension is computed, never enumerated: 10**30 states would not fit anywhere
        h, charge = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2)), shg_charge()
        message = f"block kappa={kappa} has {kappa // 2 + 1} states, more than the 8192"
        for build in (build_block, reduced_block_matrix, energy_polynomial_table, enumerate_block):
            args = (charge, kappa) if build is enumerate_block else (h, charge, kappa)
            with pytest.raises(NumericalFailure, match=message) as refused:
                build(*args)
            assert refused.value.residual == math.inf

    def test_conservation_is_decided_first(self):
        with pytest.raises(NonConservingHamiltonian):
            build_block(monomial(1, 0, 0, 1, 0), shg_charge(), 10**10)

    @pytest.mark.parametrize("s,p", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (5, 3)])
    def test_oversized_block_is_the_least_above_the_limit(self, monkeypatch, s, p):
        monkeypatch.setattr(oracle, "MAX_DIMENSION", 7)
        charge = ConservedCharge(s, p)
        sizes = [
            sum(1 for n2 in range(kappa // p + 1) if (kappa - p * n2) % s == 0)
            for kappa in range(400)
        ]
        first = next(kappa for kappa, dim in enumerate(sizes) if dim > 7)
        for kappa_max in (-1, 0, first - 1):
            assert oracle.oversized_block(charge, kappa_max) is None
        for kappa_max in (first, first + 1, 399, 10**30):
            refusal = oracle.oversized_block(charge, kappa_max)
            assert str(refusal) == (
                f"block kappa={first} has {sizes[first]} states, more than the 7 a block may have"
            )
            assert refusal.residual == math.inf

    def test_oversized_block_of_large_weights_at_once(self):
        # sized in O(1), never searched kappa by kappa
        s, p = 10**6, 10**6 - 1
        kappa = s * p * 8192
        assert oracle.oversized_block(ConservedCharge(s, p), kappa - 1) is None
        refusal = oracle.oversized_block(ConservedCharge(s, p), 10**30)
        assert str(refusal) == (
            f"block kappa={kappa} has 8193 states, more than the 8192 a block may have"
        )


class TestBlockMatrix:
    def test_shg_kappa_two(self, shg):
        h, charge = shg
        m = block_matrix(h, charge, 2)
        expected = np.array([[2.0, sqrt(2) / 2], [sqrt(2) / 2, 2.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_diagonal_model(self):
        h = 3 * number(1) + 5 * number(2)
        charge = ConservedCharge(1, 2)
        basis = enumerate_block(charge, 6)
        m = block_matrix(h, charge, 6)
        diag = [3 * st.n1 + 5 * st.n2 for st in basis]
        assert np.allclose(m, np.diag(diag))

    def test_vacuum_block(self, shg):
        h, charge = shg
        m = block_matrix(h, charge, 0)
        assert m.shape == (1, 1) and m[0, 0] == 0

    def test_closure_for_catalog(self):
        # catalog models never leak outside their blocks
        cases = [
            (build_shg(1, 2, Fraction(1, 2), Fraction(1, 2)), ConservedCharge(1, 2), 40),
            (build_nth_harmonic(1, 2, Fraction(1, 2), Fraction(1, 2), 3), ConservedCharge(1, 3), 30),
            (build_nth_harmonic(1, 3, Fraction(1, 4), Fraction(1, 4), 1), ConservedCharge(1, 1), 15),
        ]
        for h, charge, kmax in cases:
            for kappa in range(kmax + 1):
                basis = set(enumerate_block(charge, kappa))
                for state in basis:
                    assert set(apply_to_fock(h, state)) <= basis

    def test_hermitian_entries_symbolically(self, shg):
        # q_ij * rho_ij == conj(q_ji) exactly, entry by entry
        h, charge = shg
        for kappa in range(8):
            basis = enumerate_block(charge, kappa)
            entries = block_amplitudes(h, basis)
            for (i, j), amp in entries.items():
                mirror = entries[(j, i)]
                assert amp.coeff * amp.radicand == mirror.coeff.conjugate()

    @pytest.mark.parametrize("picks, repeated", [
        ((0, 1, 0), FockState(2, 0)),
        ((1, 0, 0, 1), FockState(0, 1)),
    ])
    def test_block_amplitudes_refuses_a_repeated_state(self, shg, picks, repeated):
        # with a state twice, one of its rows would never be filled and both
        # copies' columns would write into the other
        h, _ = shg
        states = (FockState(2, 0), FockState(0, 1))
        with pytest.raises(ValueError) as info:
            block_amplitudes(h, tuple(states[i] for i in picks))
        assert str(info.value) == f"the basis holds {repeated} more than once"

    def test_non_conserving_rejected(self, shg):
        h, _ = shg
        with pytest.raises(NonConservingHamiltonian):
            build_block(h, ConservedCharge(1, 1), 2)


class TestBlockSpectrum:
    def test_kappa_two_closed_form(self, shg):
        h, charge = shg
        report = block_spectrum(h, charge, 2)
        expected = [2 - sqrt(2) / 2, 2 + sqrt(2) / 2]
        assert np.allclose([v.real for v in report.eigenvalues], expected)
        assert report.max_residual <= 1e-12

    @pytest.mark.parametrize(
        "spectrum, solve",
        [(block_spectrum, lambda *a: diagonalize_block(*a)[1::3]),
         (qes_spectrum, lambda *a: reduced_eigensystem(*a)[1::2])],
        ids=["oracle", "reduced"],
    )
    def test_report_is_the_solve_values_and_residual(self, shg, spectrum, solve):
        # the report holds the solve's (values, worst residual), the values
        # as Python complex bit for bit, and compares and hashes by value
        h, charge = shg
        values, worst = solve(h, charge, 9)
        report = spectrum(h, charge, 9)
        assert [f.name for f in dataclasses.fields(report)] == ["eigenvalues", "max_residual"]
        assert all(type(v) is complex for v in report.eigenvalues)
        assert report == SpectrumReport(tuple(complex(v) for v in values), worst)
        assert hash(report) == hash(spectrum(h, charge, 9))
        assert len(report.eigenvalues) == len(enumerate_block(charge, 9))

    def test_kappa_four_closed_form(self, shg):
        h, charge = shg
        report = block_spectrum(h, charge, 4)
        assert np.allclose([v.real for v in report.eigenvalues], [2, 4, 6])

    def test_kappa_one_single_state(self, shg):
        h, charge = shg
        report = block_spectrum(h, charge, 1)
        assert len(report.eigenvalues) == 1
        assert report.eigenvalues[0] == pytest.approx(1.0)

    def test_empty_block_report(self):
        # charge (2,3) has no states at kappa=1
        h_diag = 2 * number(1) + 3 * number(2)
        report = block_spectrum(h_diag, ConservedCharge(2, 3), 1)
        assert report.eigenvalues == ()
        assert report.max_residual == 0.0

    def test_enumerates_no_basis(self, shg, monkeypatch):
        calls = []
        monkeypatch.setattr(
            oracle, "enumerate_block", lambda *args: calls.append(args) or enumerate_block(*args)
        )
        h, charge = shg
        assert len(block_spectrum(h, charge, 6).eigenvalues) == 4
        assert calls == []

    @pytest.mark.parametrize("charge, kappa", [(ConservedCharge(1, 2), 6), (ConservedCharge(2, 3), 1)])
    def test_diagonalized_block_keeps_basis(self, charge, kappa):
        # charge (2,3) has no states at kappa=1
        block = diagonalize_block(2 * number(1) + 3 * number(2), charge, kappa)[0]
        assert block.dimension == len(enumerate_block(charge, kappa)) == len(block.matrix)

    def test_hermitian_eigenvalues_real(self, shg):
        h, charge = shg
        assert is_hermitian(h)
        for kappa in range(12):
            report = block_spectrum(h, charge, kappa)
            assert all(abs(v.imag) <= 1e-12 for v in report.eigenvalues)

    def test_residuals_small_through_dim_50(self):
        h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
        report = block_spectrum(h, shg_charge(), 98)  # dimension 50
        assert len(report.eigenvalues) == 50
        assert report.max_residual <= 1e-10

    def test_scaling_equivariance(self):
        rng = random.Random(3)
        charge = ConservedCharge(1, 2)
        for _ in range(6):
            h = random_conserving_hamiltonian(rng, charge, n_terms=3, max_exp=3)
            c = random_rational(rng)
            if c == 0:
                c = Fraction(3, 2)
            base = np.array(block_spectrum(h, charge, 6).eigenvalues)
            scaled = np.array(block_spectrum(c * h, charge, 6).eigenvalues)
            assert spectral_deviation(scaled, float(c) * base) <= 1e-10

    def test_shift_by_charge_equivariance(self):
        rng = random.Random(9)
        charge = ConservedCharge(1, 2)
        k_op = charge_operator(charge)
        for _ in range(6):
            h = random_conserving_hamiltonian(rng, charge, n_terms=3, max_exp=3)
            c = Fraction(rng.randint(1, 5), 3)
            kappa = rng.randint(0, 8)
            base = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            shifted = np.array(block_spectrum(h + c * k_op, charge, kappa).eigenvalues)
            assert spectral_deviation(shifted, base + float(c) * kappa) <= 1e-10


class TestEigenResidual:
    def test_identity_matrix(self):
        assert eigen_residual(np.eye(3), 1.0, np.ones(3)) == 0.0

    def test_closed_form_pair(self):
        m = np.array([[2.0, sqrt(2) / 2], [sqrt(2) / 2, 2.0]])
        assert eigen_residual(m, 2.7071068, np.array([1.0, 1.0])) <= 1e-7

    def test_nilpotent_exact_null_vector(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert eigen_residual(m, 0.0, np.array([1.0, 0.0])) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            eigen_residual(np.eye(2), 1.0, np.zeros(2))

    def test_columns_match_single_pairs(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        values, vectors = rng.normal(size=6), rng.normal(size=(6, 6))
        columns = eigen_residual(m, values, vectors)
        singles = [eigen_residual(m, values[i], vectors[:, i]) for i in range(6)]
        assert np.allclose(columns, singles, rtol=1e-14, atol=0)
        with pytest.raises(ZeroVector):
            eigen_residual(m, values, np.zeros((6, 6)))


def test_diagonalize_block_orthonormal_vectors(shg):
    h, charge = shg
    block, values, vectors, method, _ = diagonalize_block(h, charge, 8)
    assert method == "hermitian"
    assert np.allclose(vectors.conj().T @ vectors, np.eye(block.dimension), atol=1e-12)
    assert np.allclose(block.matrix @ vectors, vectors @ np.diag(values), atol=1e-12)


def test_nan_eigenvalue_fails_residual_gate(shg, monkeypatch):
    # a NaN residual compares False with any tolerance; it must still refuse.
    # SHG blocks are real symmetric tridiagonal, so stevd solves them
    stevd = oracle.stevd

    def nan_values(*args, **kwargs):
        values, vectors = stevd(*args, **kwargs)
        values[0] = np.nan
        return values, vectors

    monkeypatch.setattr(oracle, "stevd", nan_values)
    monkeypatch.setattr(np.linalg, "eigh", _refuse("eigh"))
    h, charge = shg
    with pytest.raises(NumericalFailure) as info:
        diagonalize_block(h, charge, 4)
    assert math.isnan(info.value.residual)


def test_perturbed_eigenvector_fails_residual_gate(shg, monkeypatch):
    # a finite residual above RESIDUAL_TOL, taken on the band, must refuse:
    # u0 + 1e-6 u1 has residual 1e-6 (l1 - l0) / sqrt(1 + 1e-12)
    h, charge = shg
    exact = diagonalize_block(h, charge, 4)[1].real
    stevd = oracle.stevd

    def perturbed(*args, **kwargs):
        values, vectors = stevd(*args, **kwargs)
        vectors[:, 0] += 1e-6 * vectors[:, 1]
        return values, vectors

    monkeypatch.setattr(oracle, "stevd", perturbed)
    monkeypatch.setattr(oracle, "eigen_residual", _refuse("eigen_residual"))
    with pytest.raises(NumericalFailure, match="kappa=4 eigensolve residual") as info:
        diagonalize_block(h, charge, 4)
    assert RESIDUAL_TOL < info.value.residual < math.inf
    assert info.value.residual == pytest.approx(1e-6 * (exact[1] - exact[0]), rel=1e-6)


def test_nan_eigenvalue_fails_residual_gate_dense(monkeypatch):
    eigh = np.linalg.eigh

    def nan_eigh(matrix):
        values, vectors = eigh(matrix)
        values[0] = np.nan
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    monkeypatch.setattr(oracle, "stevd", _refuse("stevd"))
    with pytest.raises(NumericalFailure) as info:
        diagonalize_block(BANDED, ConservedCharge(1, 1), 6)
    assert math.isnan(info.value.residual)


class TestSolverFailure:
    """A LAPACK solver that does not converge is a NumericalFailure with a
    NaN residual, not the ValueError that np.linalg.LinAlgError is."""

    def test_dstevd_info(self, shg, monkeypatch):
        monkeypatch.setattr(oracle, "stevd", stevd_info(2))
        h, charge = shg
        message = (
            r"kappa=4 eigensolve failed: stevd \(eigh_tridiagonal\) did not converge"
            r" \(LAPACK info=2\)"
        )
        with pytest.raises(NumericalFailure, match=message) as info:
            diagonalize_block(h, charge, 4)
        assert math.isnan(info.value.residual)

    def test_dense_linalg_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", _fail_to_converge)
        with pytest.raises(NumericalFailure, match="did not converge") as info:
            diagonalize_block(BANDED, ConservedCharge(1, 1), 6)
        assert math.isnan(info.value.residual)


class TestTridiagonalSolver:
    """Real Hermitian tridiagonal blocks are solved by stevd; it must agree
    with dense eigh, and every other block keeps eigh or eig."""

    @staticmethod
    def assert_matches_eigh(block, values, vectors, eigh):
        expected = eigh(block.matrix)[0]
        scale = np.linalg.norm(block.matrix)
        assert np.abs(values - expected).max() <= 1e-13 * scale
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(block.dimension)).max() <= 1e-12

    @pytest.mark.parametrize("kappa, dim", [(0, 1), (1, 1), (2, 2), (4, 3), (1198, 600)])
    def test_matches_dense_eigh(self, shg, monkeypatch, kappa, dim):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", _refuse("eigh"))
        h, charge = shg
        block, values, vectors, method, _ = diagonalize_block(h, charge, kappa)
        assert block.dimension == dim
        assert (method, values.dtype, vectors.dtype) == ("hermitian", complex, float)
        self.assert_matches_eigh(block, values, vectors, eigh)

    def test_exactly_zero_coupling(self, monkeypatch):
        # the factor N2 - 2 makes the coupling of n2 = 2 to n2 = 1 exactly 0
        up = monomial(1, 2, 0, 0, 1) * (number(2) - identity(2))
        h = number(1) + number(2) + up + up.adjoint()
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", _refuse("eigh"))
        block, values, vectors, _, _ = diagonalize_block(h, shg_charge(), 10)
        assert np.diag(block.matrix, -1)[1] == 0.0
        assert np.count_nonzero(np.diag(block.matrix, -1)) == block.dimension - 2
        self.assert_matches_eigh(block, values, vectors, eigh)

    def test_complex_hermitian_keeps_eigh(self, monkeypatch):
        coupling = RationalComplex(Fraction(1, 2), Fraction(1, 3))
        h = build_shg(1, 2, coupling, coupling.conjugate())
        monkeypatch.setattr(oracle, "stevd", _refuse("stevd"))
        block, values, vectors, method, _ = diagonalize_block(h, shg_charge(), 10)
        assert not np.tril(block.matrix, -2).any()
        assert block.matrix.dtype == complex
        assert (method, values.dtype, vectors.dtype) == ("hermitian", complex, complex)
        expected = np.linalg.eigh(block.matrix)[0]
        assert np.abs(values - expected).max() <= 1e-13 * np.linalg.norm(block.matrix)

    def test_real_non_hermitian_keeps_eig(self, monkeypatch):
        h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 3))
        monkeypatch.setattr(oracle, "stevd", _refuse("stevd"))
        block, values, vectors, method, _ = diagonalize_block(h, shg_charge(), 10)
        assert not np.tril(block.matrix, -2).any()
        assert block.matrix.dtype == float
        assert (method, values.dtype) == ("general", complex)
        assert vectors.dtype == np.linalg.eig(block.matrix)[1].dtype


class TestBandResidual:
    """Real Hermitian tridiagonal blocks take their residual on the band,
    with no dense product; it must match the dense residual, and every
    other block keeps the dense one."""

    @pytest.mark.parametrize(
        "name, kappa, dim",
        [
            ("shg", 0, 1),
            ("shg", 2, 2),
            ("shg", 41, 21),
            ("shg", 598, 300),
            ("trilinear3", 1, 1),
            ("trilinear3", 3, 2),
            ("trilinear3", 62, 21),
            ("trilinear3", 897, 300),
        ],
    )
    def test_matches_dense_residual(self, monkeypatch, name, kappa, dim):
        model = parse_model_file((MODELS / f"{name}.qesb").read_text(encoding="utf-8"))
        monkeypatch.setattr(oracle, "eigen_residual", _refuse("eigen_residual"))
        block, values, vectors, _, max_residual = diagonalize_block(
            model.hamiltonian(), model.charge, kappa
        )
        matrix, values = block.matrix, values.real
        assert block.dimension == dim
        band = _band_residuals(
            np.diag(matrix), np.diag(matrix, -1), np.diag(matrix, 1), values, vectors
        )
        assert max_residual == band.max()
        bound = 4 * np.finfo(float).eps * max(1.0, np.linalg.norm(matrix))
        assert np.abs(band - eigen_residual(matrix, values, vectors)).max() <= bound

    @pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 129, 600])
    def test_column_blocks_match_the_whole_formula(self, dim):
        # the formula on all columns at once, as before the columns went in
        # steps: bit for bit the same on stevd's F-ordered eigenvectors
        rng = np.random.default_rng(dim)
        diagonal, off = rng.standard_normal(dim), rng.standard_normal(dim - 1)
        values, vectors = oracle.stevd(diagonal, off)
        assert vectors.flags.f_contiguous
        r = diagonal[:, None] * vectors - vectors * values
        r[:-1] += off[:, None] * vectors[1:]
        r[1:] += off[:, None] * vectors[:-1]
        whole = np.sqrt(np.add.reduce(r * r, axis=0)) / np.sqrt(
            np.add.reduce(vectors * vectors, axis=0)
        )
        assert np.array_equal(_band_residuals(diagonal, off, off, values, vectors), whole)

    def test_pentadiagonal_block_keeps_dense_residual(self, monkeypatch):
        dense = []

        def spy(matrix, values, vectors):
            dense.append((matrix, eigen_residual(matrix, values, vectors)))
            return dense[-1][1]

        monkeypatch.setattr(oracle, "eigen_residual", spy)
        monkeypatch.setattr(oracle, "_band_residuals", _refuse("_band_residuals"))
        block, _, _, _, max_residual = diagonalize_block(BANDED, ConservedCharge(1, 1), 6)
        assert np.tril(block.matrix, -2).any()
        [(matrix, residuals)] = dense
        assert matrix is block.matrix
        assert max_residual == residuals.max()


# charge N1 + N2 with bands +-1 and +-2 where both modes allow them; the CI
# smoke run scans the same model
PENTADIAGONAL = parse_model_file(
    "charge 1 1\n"
    "term 1 0 1 1 0 0\n"
    "term 2 0 0 0 1 1\n"
    "term 1/3 0 1 0 0 1\n"
    "term 1/3 0 0 1 1 0\n"
    "term 1/5 0 2 0 0 2\n"
    "term 1/5 0 0 2 2 0\n"
)


def _zero_coupling_model():
    # the factor N2 - 2 makes the coupling of n2 = 2 to n2 = 1 exactly 0
    up = monomial(1, 2, 0, 0, 1) * (number(2) - identity(2))
    return number(1) + number(2) + up + up.adjoint(), shg_charge()


class TestBandForm:
    """The oracle hands _solve_block its block as bands: a real Hermitian
    block whose band keys are among -1, 0 and 1 is packed there and solved
    by stevd with no dense matrix formed, and the three arrays it solves are
    the diagonals of the dense matrix the block forms on first use."""

    @staticmethod
    def solve_spied(monkeypatch, h, charge, kappa):
        """diagonalize_block's block, the block _solve_block was given, and
        the (diagonal, lower, upper) of every band residual it took."""
        solved, packed = [], []
        solve, residuals = oracle._solve_block, oracle._band_residuals

        def spy_solve(name, block, hermitian):
            solved.append(block)
            return solve(name, block, hermitian)

        def spy_residuals(diagonal, lower, upper, values, vectors):
            packed.append((diagonal, lower, upper))
            return residuals(diagonal, lower, upper, values, vectors)

        monkeypatch.setattr(oracle, "_solve_block", spy_solve)
        monkeypatch.setattr(oracle, "_band_residuals", spy_residuals)
        block, *_ = diagonalize_block(h, charge, kappa)
        assert solved == [block]
        return block, packed

    @pytest.mark.parametrize(
        "name, kappa, dim",
        [
            ("shg", 0, 1),
            ("shg", 2, 2),
            ("shg", 41, 21),
            ("shg", 598, 300),
            ("shg", 1198, 600),
            ("trilinear3", 1, 1),
            ("trilinear3", 3, 2),
            ("trilinear3", 62, 21),
            ("trilinear3", 897, 300),
            ("trilinear3", 1797, 600),
            ("zero coupling", 10, 6),
        ],
    )
    def test_tridiagonal_solve_reads_the_bands(self, monkeypatch, name, kappa, dim):
        if name == "zero coupling":
            h, charge = _zero_coupling_model()
        else:
            model = parse_model_file((MODELS / f"{name}.qesb").read_text(encoding="utf-8"))
            h, charge = model.hamiltonian(), model.charge
        stevd, calls = oracle.stevd, []

        def spy(diagonal, lower):
            calls.append((diagonal, lower))
            return stevd(diagonal, lower)

        monkeypatch.setattr(oracle, "stevd", spy)
        monkeypatch.setattr(np.linalg, "eigh", _refuse("eigh"))
        block, packed = self.solve_spied(monkeypatch, h, charge, kappa)
        assert block.dimension == dim
        assert "matrix" not in vars(block)
        [(diagonal, lower, upper)] = packed
        assert [(d is diagonal, e is lower) for d, e in calls] == [(True, True)]
        matrix = block.matrix
        for array, k in (diagonal, 0), (lower, -1), (upper, 1):
            expected = np.diag(matrix, k)
            assert array.dtype == expected.dtype == float
            assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kappa, keys", [(0, set()), (1, {-1, 0, 1})])
    def test_bands_within_one_go_to_stevd(self, monkeypatch, kappa, keys):
        # kappa = 1 has no +-2 band: both terms that would fill it vanish on
        # |1,0> and |0,1>
        monkeypatch.setattr(np.linalg, "eigh", _refuse("eigh"))
        block, packed = self.solve_spied(
            monkeypatch, PENTADIAGONAL.hamiltonian(), PENTADIAGONAL.charge, kappa
        )
        assert block.bands.keys() == keys
        assert len(packed) == 1
        assert "matrix" not in vars(block)
        if kappa == 0:
            assert [a.tolist() for a in packed[0]] == [[0.0], [], []]

    @pytest.mark.parametrize("kappa", [2, 6])
    def test_bands_beyond_one_keep_dense_eigh(self, monkeypatch, kappa):
        monkeypatch.setattr(oracle, "stevd", _refuse("stevd"))
        eigh, calls = np.linalg.eigh, []

        def spy(matrix):
            calls.append(matrix)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        block, packed = self.solve_spied(
            monkeypatch, PENTADIAGONAL.hamiltonian(), PENTADIAGONAL.charge, kappa
        )
        assert block.bands.keys() == {-2, -1, 0, 1, 2}
        assert packed == []
        assert [m is block.matrix for m in calls] == [True]


def test_block_spectra_demo_matches_golden():
    """demos/block_spectra.py prints tests/golden/demo_block_spectra.txt: the
    block structure, the kappa = 4 Fock and reduced matrices and the
    spectra table's eigenvalue columns byte for byte, and each deviation,
    which rests on LAPACK's last bits, within 1e-12."""
    root = MODELS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "block_spectra.py")],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.decode().splitlines()
    want = (root / "tests" / "golden" / "demo_block_spectra.txt").read_text().splitlines()
    # the first table row: after its title and its column header
    table = want.index("== spectra agree block by block ==") + 2
    assert got[:table] == want[:table]
    assert len(got) == len(want)
    for line, expected in zip(got[table:], want[table:]):
        head, _, deviation = line.rpartition(" ")
        want_head, _, want_deviation = expected.rpartition(" ")
        assert head == want_head
        assert abs(float(deviation) - float(want_deviation)) <= 1e-12
