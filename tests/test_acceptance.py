"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import functools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np

from conftest import (
    ladder_chain_apply,
    monomial_basis_matrix,
    random_coeff,
    random_conserving_hamiltonian,
    random_monomial,
)
from qesboson import (
    BosonMonomial,
    ConservedCharge,
    OperatorPolynomial,
    RationalComplex,
    block_spectrum,
    build_nth_harmonic,
    build_shg,
    charge_operator,
    charge_weight,
    check_gauge_identity,
    commutator,
    conserves,
    diagonalize_block,
    eigenvector_to_fock,
    energy_polynomial_table,
    fd_spectrum,
    gauge_superpotential,
    monomial,
    paper_literal,
    qes_spectrum,
    reduced_eigensystem,
    sextic_potential,
    shg_charge,
)

SAMPLE_MODEL = Path(__file__).resolve().parent.parent / "models" / "shg.qesb"


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "SHG isospectrality kappa 0..40")
def test_criterion_1_shg_isospectrality():
    start = time.perf_counter()
    h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
    charge = shg_charge()
    worst = 0.0
    for kappa in range(41):
        oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
        reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
        assert len(oracle) == len(reduced) == kappa // 2 + 1
        worst = max(worst, float(np.max(np.abs(oracle - reduced))))
    assert worst <= 1e-9, f"max deviation {worst:.3e}"
    spot2 = np.array(qes_spectrum(h, charge, 2).eigenvalues).real
    assert np.allclose(spot2, [1.2928932, 2.7071068], atol=1e-7)
    spot4 = np.array(qes_spectrum(h, charge, 4).eigenvalues).real
    assert np.allclose(spot4, [2, 4, 6], atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(2, "trilinear n=3 isospectrality kappa 0..30")
def test_criterion_2_trilinear_family():
    start = time.perf_counter()
    w1, w2, kc = 1.0, 2.0, 0.5
    h = build_nth_harmonic(w1, w2, Fraction(1, 2), Fraction(1, 2), 3)
    charge = ConservedCharge(1, 3)
    worst = 0.0
    for kappa in range(31):
        oracle = np.array(block_spectrum(h, charge, kappa).eigenvalues)
        reduced = np.array(qes_spectrum(h, charge, kappa).eigenvalues)
        assert len(oracle) == len(reduced)
        if len(oracle):
            worst = max(worst, float(np.max(np.abs(oracle - reduced))))
    assert worst <= 1e-9, f"max deviation {worst:.3e}"
    # kappa=3 block is 2x2: (3w1+w2)/2 +- sqrt((3w1-w2)^2/4 + 6 kc^2)
    mid = (3 * w1 + w2) / 2
    split = sqrt((3 * w1 - w2) ** 2 / 4 + 6 * kc**2)
    got = np.array(block_spectrum(h, charge, 3).eigenvalues).real
    assert np.allclose(got, [mid - split, mid + split], atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(3, "conservation algebra exact")
def test_criterion_3_conservation_algebra():
    catalog = [
        (build_shg(1, 2, Fraction(1, 2), Fraction(1, 2)), shg_charge()),
        (
            build_nth_harmonic(1, 2, Fraction(1, 2), Fraction(1, 2), 3),
            ConservedCharge(1, 3),
        ),
    ]
    for h, charge in catalog:
        assert commutator(charge_operator(charge), h).is_zero
        assert conserves(h, charge)
    # term-wise weight identity on 100 random conserving Hamiltonians
    rng = random.Random(101)
    for _ in range(100):
        charge = ConservedCharge(rng.randint(1, 3), rng.randint(1, 4))
        h = random_conserving_hamiltonian(rng, charge, n_terms=4, max_exp=4)
        k_op = charge_operator(charge)
        assert commutator(k_op, h).is_zero
        expected = OperatorPolynomial.from_monomials(
            BosonMonomial(m.coeff * charge_weight(charge, *m.exponents), *m.exponents)
            for m in h.monomials()
        )
        assert commutator(k_op, h) == expected
        # a single weight-violating term is detected exactly
        bad = h + monomial(Fraction(1, 9973), 1, 0, 0, 0)
        assert not conserves(bad, charge)
        assert not commutator(k_op, bad).is_zero


@criterion(4, "eigenvector roundtrip kappa <= 20")
def test_criterion_4_eigenvector_roundtrip():
    h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
    charge = shg_charge()
    checked = 0
    for kappa in range(21):
        _, o_vals, o_vecs, _, _ = diagonalize_block(h, charge, kappa)
        block, r_vals, r_vecs, _ = reduced_eigensystem(h, charge, kappa)
        assert np.max(np.abs(o_vals - r_vals)) <= 1e-9
        for i in range(len(o_vals)):
            gaps = np.abs(o_vals - o_vals[i])
            gaps[i] = np.inf
            if gaps.min() < 1e-6:
                continue
            coeffs = {n: r_vecs[j, i] for j, n in enumerate(block.degrees)}
            _, mapped = eigenvector_to_fock(coeffs, charge, kappa)
            overlap = abs(np.vdot(mapped, o_vecs[:, i]))
            assert overlap >= 1 - 1e-8, f"kappa={kappa} i={i} overlap={overlap}"
            checked += 1
    assert checked >= 100


@criterion(5, "as-published recurrence shifted by w2")
def test_criterion_5_literal_shift_diagnosis():
    h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
    charge = shg_charge()
    w2 = 2.0
    for kappa in range(21):
        corrected = energy_polynomial_table(h, charge, kappa).spectrum()
        literal = energy_polynomial_table(paper_literal(h), charge, kappa).spectrum()
        assert np.max(np.abs(literal - (corrected + w2))) <= 1e-9
    spot = energy_polynomial_table(paper_literal(h), charge, 2)
    assert np.allclose(
        np.sort(spot.spectrum().real), [3.2928932, 4.7071068], atol=1e-7
    )
    assert np.allclose(
        np.sort(energy_polynomial_table(h, charge, 2).spectrum().real),
        [1.2928932, 2.7071068],
        atol=1e-7,
    )


@criterion(6, "sextic map: coefficients, FD solver, gauge identity")
def test_criterion_6_sextic_module():
    # exact coefficient identities on 50 random rational parameter sets,
    # checked against the superpotential Laurent expansion
    rng = random.Random(61)
    for _ in range(50):
        w1, w2 = random_coeff(rng), random_coeff(rng)
        kc, kb = random_coeff(rng), random_coeff(rng)
        k = rng.randint(0, 5)
        w = gauge_superpotential(w1, w2, kc, kb, k)
        a, b, c = w.inverse_coeff, w.linear_coeff, w.cubic_coeff
        pot = sextic_potential(w1, w2, kc, kb, k)
        assert (a * a - a - RationalComplex.coerce(k * (k - 1))).is_zero
        assert pot.c0 - w2 == 2 * a * b + b + w1 * k
        assert pot.c2 == b * b + 2 * a * c + 3 * c
        assert pot.c4 == 2 * b * c
        assert pot.c6 == c * c
    # harmonic oscillator levels
    vals = fd_spectrum(lambda y: y**2 / 2, 10.0, 2000)
    assert np.allclose(vals[:3], [0.5, 1.5, 2.5], atol=1e-3)
    # conjugation identity for k = 0..3 with the resolved convention logged
    for k in range(4):
        result = check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), k)
        conv = result.convention
        print(
            f"  gauge identity k={k}: residual={result.residual:.3e}"
            f" kinetic={conv.kinetic} w_sign={conv.w_sign:+d}"
            f" exponent_sign={conv.exponent_sign:+d} shift={conv.shift:.9f}"
        )
        assert result.residual == 0.0 and conv.shift == 2.0


@criterion(7, "normal ordering vs truncated ladder matrices")
def test_criterion_7_normal_ordering_oracle():
    rng = random.Random(71)
    sources = [(n1, n2) for n1 in range(7) for n2 in range(7)]
    for _ in range(200):
        p, q = random_monomial(rng), random_monomial(rng)
        canonical = monomial_basis_matrix(
            OperatorPolynomial.from_monomials([p])
            * OperatorPolynomial.from_monomials([q]),
            sources,
        )
        # truncated matrix product: apply q's column, then p, one ladder
        # factor at a time; sources are leakage-free by construction
        product: dict = {}
        for src in sources:
            col: dict = {}
            hit_q = ladder_chain_apply(q, src)
            if hit_q is not None:
                mid, w_q = hit_q
                hit_p = ladder_chain_apply(p, mid)
                if hit_p is not None:
                    tgt, w_p = hit_p
                    if not (w_p * w_q).is_zero:
                        col[tgt] = w_p * w_q
            product[src] = col
        assert canonical == product  # exact rational equality


@criterion(8, "CLI scan contract")
def test_criterion_8_cli_contract():
    cmd = [
        sys.executable,
        "-m",
        "qesboson.cli",
        "scan",
        str(SAMPLE_MODEL),
        "--kappa-max",
        "4",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reruns
    lines = first.stdout.strip().split("\n")
    assert lines[0] == "kappa,dim,index,eig_re,eig_im,deviation"
    assert len(lines) == 10  # header plus 1+1+2+2+3 eigenvalue rows
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-9
