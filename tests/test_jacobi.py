"""The reduced route's Jacobi path, its dense fallback and large blocks.

Large-kappa bounds are scaled by the block's spectral norm ||H||, which
for the Hermitian sample models is the largest oracle eigenvalue modulus.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import random_coeff, spectral_deviation
from qesboson import (
    BosonMonomial,
    ConservedCharge,
    NumericalFailure,
    OperatorPolynomial,
    RationalComplex,
    block_spectrum,
    build_shg,
    diagonalize_block,
    eigen_residual,
    eigenvector_to_fock,
    energy_polynomial_table,
    paper_literal,
    parse_model_file,
    qes_spectrum,
    reduced_block_matrix,
    reduced_eigensystem,
    shg_charge,
)
from qesboson import oracle, reduction
from qesboson.cli import main
from qesboson.exact import integer_numerators
from qesboson.oracle import _band_residuals
from qesboson.reduction import _jacobi_form

MODELS = Path(__file__).resolve().parent.parent / "models"
REL_TOL = 1e-12  # times ||H||; measured worst 7e-16 up to kappa=600


def load(name: str):
    model = parse_model_file((MODELS / f"{name}.qesb").read_text(encoding="utf-8"))
    return model.hamiltonian(), model.charge


def assert_roundtrip(h, charge, kappa):
    """Eigenvalues within REL_TOL*||H|| and every reduced eigenvector,
    mapped to Fock space, with overlap >= 1 - 1e-8 against the oracle."""
    _, o_vals, o_vecs, _, _ = diagonalize_block(h, charge, kappa)
    block, r_vals, r_vecs, _ = reduced_eigensystem(h, charge, kappa)
    assert np.max(np.abs(o_vals - r_vals)) <= REL_TOL * np.max(np.abs(o_vals))
    for i in range(len(r_vals)):
        coeffs = {n: r_vecs[j, i] for j, n in enumerate(block.degrees)}
        _, mapped = eigenvector_to_fock(coeffs, charge, kappa)
        overlap = abs(np.vdot(mapped, o_vecs[:, i]))
        assert overlap >= 1 - 1e-8, f"kappa={kappa} i={i} overlap={overlap}"


@pytest.mark.parametrize(
    "name,kappa",
    [("shg", 160), ("shg", 400), ("trilinear3", 450), ("trilinear3", 600)],
)
def test_large_blocks_match_oracle(name, kappa):
    # dense eig of the reduced matrix was off by up to 9e3 here, silently
    h, charge = load(name)
    oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
    reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
    assert np.all(reduced.imag == 0.0)
    assert spectral_deviation(oracle, reduced) <= REL_TOL * np.max(np.abs(oracle))
    if name == "shg":
        # the as-published diagonal keeps the block on the Jacobi route and
        # shifts every level by w2 = 2
        literal = np.array(qes_spectrum(paper_literal(h), charge, kappa).eigenvalues)
        assert np.all(literal.imag == 0.0)
        assert spectral_deviation(literal, reduced + 2.0) <= REL_TOL * np.max(np.abs(oracle))


@pytest.mark.parametrize(
    "name,kappa",
    [("shg", 98), ("shg", 154), ("shg", 214), ("shg", 298), ("trilinear3", 321)],
)
def test_large_block_eigenvector_roundtrip(name, kappa):
    # sqrt(n1! n2!) leaves double range from kappa=171 on
    h, charge = load(name)
    assert_roundtrip(h, charge, kappa)


def test_complex_couplings_roundtrip():
    # complex b_i with b_i c_i > 0: the similarity carries a phase
    h = build_shg(1, 2, Fraction(1, 3) + Fraction(1, 2) * 1j, Fraction(1, 3) - Fraction(1, 2) * 1j)
    charge = shg_charge()
    block = reduced_block_matrix(h, charge, 60)
    jacobi = _jacobi_form(block.bands, block.denominator, block.dimension)
    assert jacobi is not None and np.any(jacobi.phase.imag != 0.0)
    assert_roundtrip(h, charge, 60)


def test_unrepresentable_eigenvectors_raise_typed_error():
    h, charge = load("trilinear3")
    with pytest.raises(NumericalFailure) as info:
        reduced_eigensystem(h, charge, 597)
    assert str(info.value) == (
        "reduced block kappa=597 eigenvectors do not fit in double precision:"
        " the monomial scaling spans 514 decades"
    )
    report = qes_spectrum(h, charge, 597)
    assert len(report.eigenvalues) == 200 and report.max_residual <= 1e-8


# kb = 1e305 on (a1)^2 a2+, kc = 1e-305 on (a1+)^2 a2: b_i = R[i, i+1]
# leaves double range from kappa = 43 on, while b_i c_i is that of
# kb = kc = 1, a model similar to this one by the scaling a1 -> 10^152.5 a1
SCALED = "charge 1 2\nterm 1e305 0 0 2 1 0\nterm 1e-305 0 2 0 0 1\n"
UNIT = "charge 1 2\nterm 1 0 0 2 1 0\nterm 1 0 2 0 0 1\n"


def test_spectrum_needs_no_similarity(tmp_path, capsys):
    # J is formed from the products b_i c_i alone; the similarity S, which
    # needs b_i itself, is formed only for eigenvectors.  The spectrum
    # answers (exit 0 with --method reduced, where it used to exit 4), and
    # the eigenvectors are refused with a typed error.
    scaled = parse_model_file(SCALED)
    unit = parse_model_file(UNIT)
    charge = scaled.charge
    report = qes_spectrum(scaled.hamiltonian(), charge, 100)
    expected = qes_spectrum(unit.hamiltonian(), charge, 100).eigenvalues
    assert report.eigenvalues == expected
    truth = block_spectrum(unit.hamiltonian(), charge, 100).eigenvalues
    assert spectral_deviation(report.eigenvalues, truth) <= REL_TOL * max(map(abs, truth))
    with pytest.raises(NumericalFailure):
        reduced_eigensystem(scaled.hamiltonian(), charge, 100)

    path = tmp_path / "scaled.qesb"
    path.write_text(SCALED)
    assert main(["spectrum", str(path), "--kappa", "100", "--method", "reduced"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [complex(*pair) for pair in payload["reduced"]] == list(expected)
    # the oracle's Fock block itself does not fit in double precision
    assert main(["spectrum", str(path), "--kappa", "100", "--method", "both"]) == 4
    assert "does not fit in double precision" in capsys.readouterr().err


def test_eigenvector_to_fock_far_beyond_factorial_range():
    charge = shg_charge()
    degrees = range(0, 801, 2)
    basis, amps = eigenvector_to_fock({n: 1.0 for n in degrees}, charge, 800)
    assert np.all(np.isfinite(amps)) and np.linalg.norm(amps) == pytest.approx(1.0)
    # the largest weight sqrt(800!) sits on the state (800, 0)
    assert basis[int(np.argmax(np.abs(amps)))].n1 == 800


def test_termination_roots_match_oracle_at_kappa_100():
    # np.roots on the monomial coefficients was off by 74 here
    h, charge = load("shg")
    table = energy_polynomial_table(h, charge, 100)
    oracle = np.array(block_spectrum(h, charge, 100).eigenvalues)
    scale = np.max(np.abs(oracle))
    assert spectral_deviation(table.spectrum(), oracle) <= REL_TOL * scale


@pytest.mark.parametrize("kappa", [4, 21, 40])
def test_non_hermitian_shg_keeps_dense_eig(kappa):
    # kc * kb < 0 makes every off-diagonal product negative
    h = build_shg(1, 2, Fraction(1, 2), Fraction(-1, 2))
    charge = shg_charge()
    block = reduced_block_matrix(h, charge, kappa)
    assert _jacobi_form(block.bands, block.denominator, block.dimension) is None
    oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
    reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
    assert spectral_deviation(oracle, reduced) <= 1e-9 * max(1.0, np.max(np.abs(oracle)))
    table = energy_polynomial_table(h, charge, kappa)
    assert spectral_deviation(table.spectrum(), oracle) <= 1e-9 * max(
        1.0, np.max(np.abs(oracle))
    )


def _refuse(*args):
    raise AssertionError("the reduced route called a solver it must not call")


def _solves(monkeypatch):
    """The (block, hermitian) of every call the reduced route makes to the
    one block solve."""
    calls, solve = [], reduction._solve_block

    def spy(name, block, hermitian):
        calls.append((block, hermitian))
        return solve(name, block, hermitian)

    monkeypatch.setattr(reduction, "_solve_block", spy)
    return calls


@pytest.mark.parametrize("route", ["spectrum", "eigensystem", "polynomials"])
def test_jacobi_block_reaches_the_solve_as_float_bands(monkeypatch, route):
    # J goes to the solve as a real band block, which packs it for stevd
    # and forms no dense matrix
    h, charge = load("shg")
    calls = _solves(monkeypatch)
    stevd, packed = oracle.stevd, []
    monkeypatch.setattr(oracle, "stevd", lambda d, e: packed.append(len(d)) or stevd(d, e))
    monkeypatch.setattr(np.linalg, "eig", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    if route == "spectrum":
        qes_spectrum(h, charge, 41)
    elif route == "eigensystem":
        reduced_eigensystem(h, charge, 41)
    else:
        energy_polynomial_table(h, charge, 41).spectrum()
    [(block, hermitian)] = calls
    assert hermitian and block.dtype is float and block.bands.keys() == {-1, 0, 1}
    assert packed == [block.dimension] == [21]
    assert "matrix" not in vars(block)


def test_non_jacobi_block_reaches_the_solve_as_complex_dense(monkeypatch):
    # kc * kb < 0: R's own complex float entries go to the solve, which
    # solves the reduced block's dense matrix by eig
    h = build_shg(1, 2, Fraction(1, 2), Fraction(-1, 2))
    calls = _solves(monkeypatch)
    eig, solved = np.linalg.eig, []
    monkeypatch.setattr(oracle, "stevd", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "eig", lambda m: solved.append(m) or eig(m))
    reduced, *_ = reduced_eigensystem(h, shg_charge(), 21)
    [(block, hermitian)] = calls
    assert not hermitian and block.dtype is complex and block.dimension == 11
    assert [m is block.matrix for m in solved] == [True]
    assert reduced.matrix is block.matrix


# exponents (m1, m2, m3, m4) conserving N1 + N2; the last two move n1 by 2
PENTADIAGONAL_TERMS = (
    (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0),
    (1, 1, 1, 1), (2, 0, 0, 2), (0, 2, 2, 0),
)


@pytest.mark.parametrize("hermitian", [True, False])
def test_random_pentadiagonal_models_keep_dense_eig(hermitian):
    rng = random.Random(31 + hermitian)
    charge = ConservedCharge(1, 1)
    for _ in range(4):
        h = OperatorPolynomial.from_monomials(
            BosonMonomial(random_coeff(rng), *exps) for exps in PENTADIAGONAL_TERMS
        )
        if hermitian:
            h = h + h.adjoint()
        for kappa in (3, 8, 14):
            block = reduced_block_matrix(h, charge, kappa)
            assert _jacobi_form(block.bands, block.denominator, block.dimension) is None
            oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
            reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert spectral_deviation(oracle, reduced) <= 1e-9 * scale


def test_jacobi_residuals_match_dense_residuals():
    rng = np.random.default_rng(7)
    diagonal, off_diagonal = rng.normal(size=9), rng.uniform(0.5, 2.0, size=8)
    entries = {(i, i): RationalComplex(Fraction(a)) for i, a in enumerate(diagonal)}
    for i, e in enumerate(off_diagonal):
        # split e^2 unevenly between the paired off-diagonals
        entries[(i, i + 1)] = RationalComplex(Fraction(e) * 3)
        entries[(i + 1, i)] = RationalComplex(Fraction(e) / 3)
    pairs, denom = integer_numerators(entries.values())
    # band k = row - col holds column col, in column order
    bands = {}
    for (row, col), (re, im) in sorted(zip(entries, pairs), key=lambda item: item[0][1]):
        cols, res, ims = bands.setdefault(row - col, ([], [], []))
        cols.append(col)
        res.append(re)
        ims.append(im)
    dense = _jacobi_form(bands, denom, len(diagonal)).block.matrix
    diagonal, off = np.diag(dense), np.diag(dense, 1)
    assert np.array_equal(np.diag(dense, -1), off)
    assert np.allclose(off, off_diagonal, rtol=1e-15, atol=0)
    values, vectors = eigh_tridiagonal(diagonal, off)
    rows = {-1: np.append(0.0, off), 0: diagonal, 1: np.append(off, 0.0)}
    assert np.allclose(
        _band_residuals(rows, values, vectors),
        eigen_residual(dense, values, vectors),
        rtol=0,
        atol=1e-15,
    )


@pytest.mark.parametrize("kappa", [0, 1, 2, 41])
def test_jacobi_block_matrix_is_the_symmetrized_reduced_block(kappa):
    # d = 1 at kappa = 0 and 1 lists no column in bands -1 and 1, and the
    # zero diagonal of kappa = 0 none in band 0
    h, charge = load("shg")
    block = reduced_block_matrix(h, charge, kappa)
    j = _jacobi_form(block.bands, block.denominator, block.dimension).block.matrix
    r = block.matrix
    assert j.dtype == float and j.shape == r.shape and np.array_equal(j, j.T)
    assert not np.any(np.triu(j, 2))
    assert np.diag(j).tobytes() == np.diag(r).real.tobytes()
    products = (np.diag(r, 1) * np.diag(r, -1)).real
    assert np.allclose(np.diag(j, 1) ** 2, products, rtol=1e-14, atol=0)


def test_nan_eigenvalue_fails_residual_gate(monkeypatch):
    # a NaN residual compares False with any tolerance; it must still refuse
    stevd = oracle.stevd

    def nan_values(*args, **kwargs):
        values, vectors = stevd(*args, **kwargs)
        values[0] = np.nan
        return values, vectors

    monkeypatch.setattr(oracle, "stevd", nan_values)
    h, charge = load("shg")
    with pytest.raises(NumericalFailure) as info:
        qes_spectrum(h, charge, 10)
    assert math.isnan(info.value.residual)
