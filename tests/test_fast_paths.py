"""Exactness of the small-operand fast paths in block assembly.

Every fast path is compared for exact equality against the general formula
it short-cuts: RationalComplex arithmetic, Polynomial Horner evaluation at
an integer, the oracle's ladder-ratio radicand and the exact image of a
state (apply_to_fock), operator products, the term-by-term
hermiticity check, the reduced route's integer entries and the energy
polynomials' sparse recurrence (against the dense one over every entry).
The float blocks and Jacobi data formed straight from integer numerators
are compared byte for byte against the conversion of the exact entries (its
real part, for the float64 blocks of real-coefficient operators), also at
d = 600 and with numerators beyond 2^63, and the oracle's real solve of those
blocks against the complex solve of the same matrix.  The band assembly of
both routes is also compared with the entry-by-entry loop it replaced,
overflow refusals included: the same exception type and message, naming the
same entry.  That one band assembly reads a block either way along it, as
the two routes do, to the same bands reflected.  Both routes refuse a
Hamiltonian exactly when it does not conserve the charge.  The one
band-shape decision both routes read gives, on either route's bands, the
facts of the nonzero pattern of the exact entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import linear_sum_assignment
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import exact_entries, spectral_deviation

from qesboson import (
    BandStructureUnsupported,
    BlockClosureViolation,
    BosonMonomial,
    ConservedCharge,
    FockAmplitude,
    FockState,
    NonConservingHamiltonian,
    NumericalFailure,
    OperatorPolynomial,
    Polynomial,
    RationalComplex,
    parse_model_file,
)
from qesboson import oracle
from qesboson.algebra import (
    _band_shape,
    _block_bands,
    _integer_terms,
    apply_to_fock,
    conserves,
    is_hermitian,
    ladder_radicand,
    monomial,
    monomial_product,
)
from qesboson.exact import ONE, ZERO
from qesboson.models import build_nth_harmonic
from qesboson.oracle import (
    _block_run,
    block_amplitudes,
    block_matrix,
    diagonalize_block,
    eigen_residual,
    enumerate_block,
    sort_eigenpairs,
)
from qesboson.reduction import (
    ReducedBlock,
    ReducedOperator,
    _jacobi_form,
    energy_polynomial_table,
    matrix_element_reduction,
    mode2_frequency,
    paper_literal,
    qes_spectrum,
    reduced_block_matrix,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=64)
ints = st.integers(min_value=-(10**6), max_value=10**6)
real_rcs = st.builds(RationalComplex, fractions)
complex_rcs = st.builds(RationalComplex, fractions, fractions)
rcs = st.one_of(real_rcs, complex_rcs)
operands = st.one_of(ints, fractions, real_rcs, complex_rcs)


def general_add(a: RationalComplex, b) -> RationalComplex:
    o = RationalComplex.coerce(b)
    return RationalComplex(a.re + o.re, a.im + o.im)


def general_mul(a: RationalComplex, b) -> RationalComplex:
    o = RationalComplex.coerce(b)
    return RationalComplex(a.re * o.re - a.im * o.im, a.re * o.im + a.im * o.re)


def assert_exact(value: RationalComplex, expected: RationalComplex) -> None:
    assert value == expected
    assert type(value.re) is Fraction and type(value.im) is Fraction


@settings(max_examples=100, deadline=None)
@given(rcs, operands)
def test_add_fast_paths_match_general_formula(a, b):
    assert_exact(a + b, general_add(a, b))
    assert_exact(b + a, general_add(a, b))


@settings(max_examples=100, deadline=None)
@given(rcs, operands)
def test_mul_fast_paths_match_general_formula(a, b):
    assert_exact(a * b, general_mul(a, b))
    assert_exact(b * a, general_mul(a, b))


@settings(max_examples=100, deadline=None)
@given(rcs, operands)
def test_sub_fast_paths_match_general_formula(a, b):
    o = RationalComplex.coerce(b)
    assert_exact(a - b, RationalComplex(a.re - o.re, a.im - o.im))
    assert_exact(b - a, RationalComplex(o.re - a.re, o.im - a.im))


polys = st.lists(rcs, max_size=7).map(Polynomial.from_coeffs)


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(min_value=-60, max_value=60))
def test_polynomial_at_int_matches_rational_complex_horner(poly, n):
    acc = ZERO
    v = RationalComplex(Fraction(n))
    for c in reversed(poly.coeffs):
        acc = RationalComplex(
            acc.re * v.re - acc.im * v.im, acc.re * v.im + acc.im * v.re
        )
        acc = RationalComplex(acc.re + c.re, acc.im + c.im)
    assert_exact(poly(n), acc)
    assert poly(n) == poly(v)


occupations = st.integers(min_value=0, max_value=400)


@settings(max_examples=100, deadline=None)
@given(occupations, occupations, occupations, occupations)
def test_ladder_radicand_matches_full_factorials(n1, n2, t1, t2):
    expected = Fraction(factorial(t1) * factorial(t2), factorial(n1) * factorial(n2))
    assert ladder_radicand(FockState(n1, n2), FockState(t1, t2)) == expected


def reference_apply_to_fock(h, state):
    """h|n1, n2> term by term: RationalComplex sums of coeff times the
    falling factorials, radicands from full factorials, zero sums dropped."""
    n1, n2 = state.n1, state.n2
    sums = {}
    for (m1, m2, m3, m4), coeff in h.items():
        if n1 < m2 or n2 < m4:
            continue
        weight = factorial(n1) // factorial(n1 - m2) * factorial(n2) // factorial(n2 - m4)
        target = (n1 - m2 + m1, n2 - m4 + m3)
        sums[target] = general_add(sums.get(target, ZERO), general_mul(coeff, weight))
    return {
        FockState(t1, t2): FockAmplitude(
            coeff, Fraction(factorial(t1) * factorial(t2), factorial(n1) * factorial(n2))
        )
        for (t1, t2), coeff in sums.items()
        if not coeff.is_zero
    }


exponent = st.integers(min_value=0, max_value=3)


@st.composite
def fock_cases(draw):
    """A random operator with complex coefficients whose real and imaginary
    parts have independent denominators, and a state with 0..6 quanta per
    mode, so terms often annihilate more quanta than the state holds.  Some
    operators get a term with one more a1+ a1 than another, scaled so that
    the two cancel exactly on their common target."""
    state = FockState(draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    keys = draw(st.lists(st.tuples(exponent, exponent, exponent, exponent), max_size=5, unique=True))
    terms = {key: draw(complex_rcs) for key in keys}
    if keys and draw(st.booleans()):
        m1, m2, m3, m4 = key = draw(st.sampled_from(keys))
        if state.n1 > m2:
            terms[(m1 + 1, m2 + 1, m3, m4)] = terms[key] * Fraction(-1, state.n1 - m2)
    return OperatorPolynomial(terms), state


@settings(max_examples=150, deadline=None)
@given(fock_cases())
def test_apply_to_fock_matches_termwise_reference(case):
    h, state = case
    image = apply_to_fock(h, state)
    expected = reference_apply_to_fock(h, state)
    assert image == expected
    assert list(image) == list(expected)
    for amp in image.values():
        assert not amp.coeff.is_zero
        assert type(amp.radicand) is Fraction
        assert type(amp.coeff.re) is Fraction and type(amp.coeff.im) is Fraction


def test_cancelling_terms_leave_no_target():
    # (3 + i/6) a1+ a1 - (9 + i/2) vanishes on |3, 1> and not on |2, 1>
    h = OperatorPolynomial({
        (1, 1, 0, 0): RationalComplex(Fraction(3), Fraction(1, 6)),
        (0, 0, 0, 0): RationalComplex(Fraction(-9), Fraction(-1, 2)),
    })
    assert apply_to_fock(h, FockState(3, 1)) == {}
    assert FockState(2, 1) in apply_to_fock(h, FockState(2, 1))


monomials = st.builds(
    BosonMonomial,
    rcs,
    *(st.integers(min_value=0, max_value=3) for _ in range(4)),
)
operators = st.lists(monomials, max_size=4).map(OperatorPolynomial.from_monomials)


@settings(max_examples=30, deadline=None)
@given(operators, operators)
def test_operator_product_matches_termwise_sum(a, b):
    expected = OperatorPolynomial()
    for lhs in a.monomials():
        for rhs in b.monomials():
            expected = expected + monomial_product(lhs, rhs)
    assert a * b == expected


@st.composite
def conserving_models(draw, coefficients=rcs):
    """Random conserving operator with exponents <= 3, its charge and a kappa.

    Coefficients are drawn from coefficients; by default they are real or
    complex with independent real and imaginary denominators.  Some
    operators get a second term on the same ladder pair (one more a2+ a2),
    scaled to cancel the first exactly on one source degree of the block.
    """
    charge = ConservedCharge(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    r = range(4)
    keys = [
        (m1, m2, m3, m4)
        for m1 in r
        for m2 in r
        for m3 in r
        for m4 in r
        if charge.s * (m1 - m2) + charge.p * (m3 - m4) == 0
    ]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=5, unique=True))
    terms = {key: draw(coefficients) for key in chosen}
    kappa = draw(st.integers(min_value=0, max_value=24))
    if draw(st.booleans()):
        m1, m2, m3, m4 = key = draw(st.sampled_from(chosen))
        slaved = [
            state.n2 for state in sorted(enumerate_block(charge, kappa))
            if state.n1 >= m2 and state.n2 > m4
        ]
        if slaved:
            # c ff(n2, m4) + c' ff(n2, m4 + 1) = 0 at the drawn n2
            n2 = draw(st.sampled_from(slaved))
            terms[(m1, m2, m3 + 1, m4 + 1)] = terms[key] * Fraction(-1, n2 - m4)
    h = OperatorPolynomial.from_monomials(
        BosonMonomial(coeff, *key) for key, coeff in terms.items()
    )
    return h, charge, kappa


def reference_block_entries(h, charge, kappa):
    """The per-entry evaluation the integer numerators replace: each term
    coeff * (n)_m2 * (n2)_m4 of h.items(), multiplied out factor by factor
    in RationalComplex, so a term annihilating more quanta than the degree
    holds vanishes through a zero factor.  h conserves the charge, so every
    term that does not vanish lands on a degree of the block.  The degrees
    are the mode-1 occupations of the oracle's basis, ascending."""
    states = sorted(enumerate_block(charge, kappa))
    degrees = tuple(state.n1 for state in states)
    pos = {n: i for i, n in enumerate(degrees)}
    entries = {}
    for j, (n, n2) in enumerate((state.n1, state.n2) for state in states):
        for (m1, m2, _, m4), coeff in h.items():
            amp = coeff
            for x, m in ((n, m2), (n2, m4)):
                for k in range(m):
                    amp = amp * RationalComplex(Fraction(x - k))
            if amp.is_zero:
                continue
            i = pos[n - m2 + m1]
            entries[(i, j)] = entries.get((i, j), ZERO) + amp
    return degrees, {k: v for k, v in entries.items() if not v.is_zero}


@settings(max_examples=30, deadline=None)
@given(model=conserving_models())
def test_block_entries_match_polynomial_evaluation(model):
    h, charge, kappa = model
    op = matrix_element_reduction(h, charge)
    block = ReducedBlock(kappa, *op.block_entries(kappa))
    degrees, entries = block.degrees, exact_entries(block)
    assert (degrees, entries) == reference_block_entries(h, charge, kappa)
    for value in entries.values():
        assert type(value.re) is Fraction and type(value.im) is Fraction


def _band_entries(bands):
    """(shift, column) -> (re, im) of every listed numerator, and the shifts
    whose imaginary numerators are listed."""
    entries = {
        (k, j): (re, im)
        for k, (cols, res, ims) in bands.items()
        for j, re, im in zip(cols, res, ims or [0] * len(cols))
    }
    return entries, {k for k, (_, _, ims) in bands.items() if ims is not None}


@settings(max_examples=60, deadline=None)
@given(model=conserving_models())
def test_block_bands_read_the_run_either_way(model):
    # the oracle reads the block n2 ascending, the reduced route n1
    # ascending: band k, column j of the one is band -k, column d-1-j of
    # the other, with the same numerators
    h, charge, kappa = model
    terms, _ = _integer_terms(h)
    n1s, n2s = _block_run(charge, kappa)
    d = len(n1s)
    by_n2, complex_n2 = _band_entries(_block_bands(terms, n1s, n2s))
    by_n1, complex_n1 = _band_entries(_block_bands(terms, n1s[::-1], n2s[::-1]))
    assert by_n2 == {(-k, d - 1 - j): value for (k, j), value in by_n1.items()}
    assert complex_n2 == {-k for k in complex_n1}
    assert all(re or im for re, im in by_n2.values())


@st.composite
def near_hermitian_operators(draw):
    """a + a^dagger, sometimes with one term dropped (its partner is left
    without one) or shifted by a random coefficient (its partner's is then
    usually not the conjugate)."""
    a = draw(operators)
    terms = dict((a + a.adjoint()).items())
    if terms and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(terms)))
        if draw(st.booleans()):
            del terms[key]
        else:
            terms[key] = terms[key] + draw(rcs)
    return OperatorPolynomial(terms)


@settings(max_examples=100, deadline=None)
@given(st.one_of(operators, near_hermitian_operators()))
def test_is_hermitian_matches_adjoint(h):
    assert is_hermitian(h) == (h.adjoint() == h)


def test_is_hermitian_needs_partner_with_conjugate_coefficient():
    c = RationalComplex(Fraction(1, 2), Fraction(-1, 3))
    hop = monomial(c, 2, 0, 0, 1)
    assert is_hermitian(hop + hop.adjoint())
    assert not is_hermitian(hop)  # partner term missing
    assert not is_hermitian(hop + monomial(c, 0, 2, 1, 0))  # partner not conjugated
    assert not is_hermitian(monomial(c, 1, 1, 0, 0))  # self-partner, complex


def complex_reference(h, basis):
    """complex(amp) of every exact block amplitude, in a complex matrix."""
    reference = np.zeros((len(basis), len(basis)), dtype=complex)
    for (row, col), amp in block_amplitudes(h, basis).items():
        reference[row, col] = complex(amp)
    return reference


def entrywise_block_matrix(h, basis):
    """The entry-by-entry assembly the band assembly replaced: column by
    column, each target of h's terms in the order they first reach it, its
    float formed on the spot from exact Fractions (float() of a Fraction is
    correctly rounded, as integer true division is).  h conserves the
    charge, so every target is in the basis.  The first part that does not
    fit in a double raises NumericalFailure; a product that overflows to
    inf is reported at the first non-finite entry in row-major order."""
    index = {state: i for i, state in enumerate(basis)}
    real = all(coeff.im == 0 for _, coeff in h.items())
    matrix = np.zeros((len(basis), len(basis)), dtype=float if real else complex)
    for col, state in enumerate(basis):
        n1, n2 = state.n1, state.n2
        sums = {}
        for (m1, m2, m3, m4), coeff in h.items():
            if n1 < m2 or n2 < m4:
                continue
            weight = math.perm(n1, m2) * math.perm(n2, m4)
            target = FockState(n1 - m2 + m1, n2 - m4 + m3)
            re, im = sums.get(target, (Fraction(0), Fraction(0)))
            sums[target] = (re + coeff.re * weight, im + coeff.im * weight)
        for target, (re, im) in sums.items():
            if not (re or im):
                continue
            radicand = Fraction(
                factorial(target.n1) * factorial(target.n2), factorial(n1) * factorial(n2)
            )
            try:
                value = float(re) if real else complex(float(re), float(im))
                scale = float(radicand) ** 0.5
            except OverflowError:
                raise NumericalFailure(
                    f"h maps {state} to {target} with an amplitude that does not fit in"
                    " double precision", math.inf,
                ) from None
            matrix[index[target], col] = value * scale
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise NumericalFailure(
            f"h maps {basis[col]} to {basis[row]} with an amplitude that does not fit in"
            " double precision", math.inf,
        )
    return matrix


def _outcome(assemble, *args):
    try:
        matrix = assemble(*args)
    except NumericalFailure as exc:
        return type(exc).__name__, str(exc)
    return matrix.dtype, matrix.tobytes()


@settings(max_examples=80, deadline=None)
@given(model=conserving_models(), scale=st.sampled_from((1, 10**300, 10**308)))
def test_block_matrix_matches_entrywise_assembly(model, scale):
    # a scale of 1e300 or 1e308 pushes entries past double range, in one
    # column or several: the same bits, or the same refusal
    h, charge, kappa = model
    h = scale * h
    basis = enumerate_block(charge, kappa)
    assert _outcome(block_matrix, h, charge, kappa) == _outcome(entrywise_block_matrix, h, basis)


@settings(max_examples=60, deadline=None)
@given(model=conserving_models(complex_rcs))
def test_block_matrix_bits_match_exact_amplitudes(model):
    h, charge, kappa = model
    assume(any(coeff.im for _, coeff in h.items()))
    basis = enumerate_block(charge, kappa)
    matrix = block_matrix(h, charge, kappa)
    assert matrix.dtype == np.complex128
    assert matrix.tobytes() == complex_reference(h, basis).tobytes()


@settings(max_examples=60, deadline=None)
@given(model=conserving_models(real_rcs))
def test_real_block_matrix_bits_match_real_parts_of_exact_amplitudes(model):
    h, charge, kappa = model
    basis = enumerate_block(charge, kappa)
    matrix = block_matrix(h, charge, kappa)
    reference = complex_reference(h, basis)
    assert matrix.dtype == np.float64
    assert matrix.tobytes() == reference.real.copy().tobytes()
    assert not reference.imag.any()


@settings(max_examples=60, deadline=None)
@given(
    model=conserving_models(real_rcs),
    hermitian=st.booleans(),
)
def test_real_oracle_solve_matches_complex_solve(model, hermitian):
    """Real blocks are solved in real arithmetic; the spectrum is that of
    the same matrix solved as a complex one, within 1e-12 max(1, ||H||)
    times each eigenvalue's condition number 1/|y^H x| (1 for Hermitian h:
    non-Hermitian blocks can be ill-conditioned, where any two backward
    stable solvers differ by that much)."""
    h, charge, kappa = model
    if hermitian:
        h = h + h.adjoint()
    # the absolute residual gate is not under test: ||H|| reaches 1e6 here
    with patch.object(oracle, "RESIDUAL_TOL", math.inf):
        block, values, vectors, method, _ = diagonalize_block(h, charge, kappa)
    assert block.matrix.dtype == np.float64 and values.dtype == np.complex128
    assert method == ("hermitian" if is_hermitian(h) else "general")
    if block.dimension == 0:
        return
    as_complex = block.matrix.astype(complex)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(as_complex, 2)))
    if method == "hermitian":
        assert vectors.dtype == np.float64
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(block.dimension)).max() <= 1e-12
        assert spectral_deviation(values, np.linalg.eigh(as_complex)[0]) <= tol
        return
    expected, left, right = scipy.linalg.eig(as_complex, left=True)
    with np.errstate(divide="ignore", over="ignore"):
        cond = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
    cost = np.abs(values[:, None] - expected[None, :]) / (tol * cond[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1.0


small_ints = st.integers(-9, 9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(small_ints, min_size=n, max_size=n),
        small_ints,
    )
))
def test_eigen_residual_int_and_list_inputs_keep_values(case):
    """Integer inputs, as lists or arrays, give the residual of the same
    entries as complex arrays; exact here, since every sum is an integer."""
    matrix, vector, value = case
    assume(any(vector))
    expected = eigen_residual(
        np.array(matrix, dtype=complex), complex(value), np.array(vector, dtype=complex)
    )
    assert eigen_residual(matrix, value, vector) == expected
    assert eigen_residual(np.array(matrix), value, np.array(vector)) == expected
    columns = np.array([vector, vector]).T
    assert eigen_residual(matrix, [value, value], columns).tolist() == [expected] * 2


def test_block_matrix_reports_closure_violation():
    # a2+ alone leaves every block: the exact amplitudes, which take any
    # basis, report the state it leaves; the float path refuses h up front
    h = monomial(1, 0, 0, 1, 0)
    charge = ConservedCharge(1, 2)
    with pytest.raises(BlockClosureViolation):
        block_amplitudes(h, enumerate_block(charge, 4))
    with pytest.raises(NonConservingHamiltonian):
        block_matrix(h, charge, 4)


def _log(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


def reference_jacobi_form(entries, dim):
    """Jacobi data formed from exact RationalComplex entries: exact products
    b_i c_i, logs of their lowest-terms Fractions and complex() of each
    entry; None where the block is not of Jacobi form."""
    if any(abs(i - j) > 1 for i, j in entries):
        return None
    diag = [entries.get((i, i), ZERO) for i in range(dim)]
    if not all(a.is_real for a in diag):
        return None
    off, log_steps, phase_steps = [], [], []
    for i in range(dim - 1):
        b = entries.get((i, i + 1), ZERO)
        product = b * entries.get((i + 1, i), ZERO)
        if not product.is_real or product.re <= 0:
            return None
        off.append(math.sqrt(product.re))
        log_steps.append(0.5 * (_log(product.re) - _log(b.re * b.re + b.im * b.im)))
        bf = complex(b)
        phase_steps.append(bf.conjugate() / abs(bf))
    return {
        "diagonal": np.array([float(a.re) for a in diag]),
        "off": np.array(off),
        "log_scale": np.concatenate(([0.0], np.cumsum(log_steps))),
        "phase": np.cumprod(np.array([1.0 + 0.0j] + phase_steps)),
    }


nonzero_fractions = fractions.filter(bool)


@st.composite
def three_term_models(draw):
    """An n-th harmonic model (n = 2 or 3) with rational frequencies and a
    complex coupling kc with both parts nonzero; kb is conj(kc) (Hermitian)
    or another nonzero complex value (usually not of Jacobi form), so the
    energy polynomials always exist."""
    order = draw(st.sampled_from((2, 3)))
    kc = complex(draw(nonzero_fractions), draw(nonzero_fractions))
    kb = kc.conjugate() if draw(st.booleans()) else complex(draw(nonzero_fractions), draw(fractions))
    h = build_nth_harmonic(draw(fractions), draw(fractions), kc, kb, order)
    return h, ConservedCharge(1, order), draw(st.integers(0, 40))


@pytest.mark.parametrize("mode", ["corrected", "paper-literal"])
@settings(max_examples=40, deadline=None)
@given(model=three_term_models())
def test_reduced_float_data_bits_match_exact_entries(mode, model):
    h, charge, kappa = model
    degrees, entries = reference_block_entries(h, charge, kappa)
    if mode == "paper-literal":
        w2 = mode2_frequency(h)
        if not w2.is_zero:
            for i in range(len(degrees)):
                entries[(i, i)] = entries.get((i, i), ZERO) + w2
            entries = {k: v for k, v in entries.items() if not v.is_zero}
        h = paper_literal(h)
    block = reduced_block_matrix(h, charge, kappa)
    assert block.degrees == degrees and exact_entries(block) == entries
    dense = np.zeros((len(degrees), len(degrees)), dtype=complex)
    for (i, j), value in entries.items():
        dense[i, j] = complex(value)
    assert block.matrix.tobytes() == dense.tobytes()

    jacobi = _jacobi_form(block.bands, block.denominator, block.dimension)
    expected = reference_jacobi_form(entries, len(degrees))
    assert (jacobi is None) == (expected is None)
    if expected is not None:
        for name, value in expected.items():
            got = getattr(jacobi, name)
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name

    # qes_spectrum and the energy polynomials' spectrum both run the
    # block's own solve on exactly this data
    table = energy_polynomial_table(h, charge, kappa)
    if not degrees:
        return
    if expected is not None:
        values = eigh_tridiagonal(expected["diagonal"], expected["off"])[0].astype(complex)
    else:
        values = sort_eigenpairs(*np.linalg.eig(dense))[0]
    assert table.spectrum().tobytes() == values.tobytes()
    assert np.array(qes_spectrum(h, charge, kappa).eigenvalues).tobytes() == values.tobytes()


def reference_energy_polynomials(entries, d):
    """P_0 .. P_d by the dense recurrence: the full d x d matrix
    A[d-1-j][d-1-i] = R[i, j] of exact entries, both band guards on every
    entry, and polys[j] * A[m][j] subtracted for every j <= m, zeros
    included."""
    a = [[ZERO] * d for _ in range(d)]
    for (i, j), value in entries.items():
        a[d - 1 - j][d - 1 - i] = value
    for m in range(d):
        for mp in range(m + 2, d):
            if not a[m][mp].is_zero:
                raise BandStructureUnsupported(
                    f"entry ({m},{mp}) above the first superdiagonal is nonzero"
                )
    for m in range(d - 1):
        if a[m][m + 1].is_zero:
            raise BandStructureUnsupported(f"superdiagonal entry ({m},{m + 1}) vanishes")
    polys = [[ONE]]  # ascending coefficient lists
    for m in range(d):
        acc = [ZERO, *polys[m]]  # E P_m
        for j in range(m + 1):
            for k, c in enumerate(polys[j]):
                acc[k] = acc[k] - c * a[m][j]
        if m < d - 1:
            acc = [c / a[m][m + 1] for c in acc]
        polys.append(acc)
    return tuple(map(Polynomial.from_coeffs, polys))


@st.composite
def banded_models(draw):
    """A three_term_models() model plus one or two terms (a1+)^(k n) (a2)^k
    or (a1)^(k n) (a2+)^k, k = 2 or 3, with complex coefficients: extra
    bands k below the recurrence diagonal, which still solves row by row,
    or k above it, which the band guard refuses."""
    h, charge, kappa = draw(three_term_models())
    for k in draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=2, unique=True)):
        if draw(st.booleans()):
            h = h + monomial(draw(complex_rcs), k * charge.p, 0, 0, k)
        else:
            h = h + monomial(draw(complex_rcs), 0, k * charge.p, k, 0)
    return h, charge, kappa


@pytest.mark.parametrize("mode", ["corrected", "paper-literal"])
@settings(max_examples=40, deadline=None)
@given(model=st.one_of(three_term_models(), banded_models(), conserving_models()))
def test_energy_polynomials_match_dense_recurrence(mode, model):
    # random conserving models mostly break the band shape: the guards must
    # then raise with the dense reference's message
    h, charge, kappa = model
    if mode == "paper-literal":
        h = paper_literal(h)
    block = reduced_block_matrix(h, charge, kappa)
    try:
        expected = reference_energy_polynomials(exact_entries(block), block.dimension)
    except BandStructureUnsupported as exc:
        with pytest.raises(BandStructureUnsupported) as refused:
            energy_polynomial_table(h, charge, kappa)
        assert str(refused.value) == str(exc)
        return
    table = energy_polynomial_table(h, charge, kappa)
    assert len(table.polys) == len(expected)
    for got, want in zip(table.polys, expected):
        assert got == want


# ---------------------------------------------------------------------------
# The band assembly at the sizes it has to carry: d = 600 blocks of the
# shipped models and of a model whose coefficients have 30-digit numerators
# and denominators, so that h's common denominator, the numerators and their
# products with the falling factorials all pass 2^63.

MODELS = Path(__file__).resolve().parent.parent / "models"


def _shipped(name):
    model = parse_model_file((MODELS / f"{name}.qesb").read_text(encoding="utf-8"))
    return model.hamiltonian(), model.charge


def _thirty_digit_shg():
    """A Hermitian SHG model with complex couplings: its blocks are complex."""
    def big(a, b):
        return Fraction(10**29 + a, 3 * 10**29 + b)

    kc = RationalComplex(big(7, 1), big(-11, 13))
    h = build_nth_harmonic(big(17, 19), big(23, -29), kc, kc.conjugate(), 2)
    return h, ConservedCharge(1, 2)


LARGE_BLOCKS = {
    "shg-1198": (*_shipped("shg"), 1198),
    "trilinear3-1797": (*_shipped("trilinear3"), 1797),
    "thirty-digit-shg-1198": (*_thirty_digit_shg(), 1198),
}


@pytest.mark.parametrize("name", sorted(LARGE_BLOCKS))
def test_large_block_matrix_bits_match_exact_amplitudes(name):
    h, charge, kappa = LARGE_BLOCKS[name]
    basis = enumerate_block(charge, kappa)
    assert len(basis) == 600
    matrix = block_matrix(h, charge, kappa)
    reference = complex_reference(h, basis)
    if matrix.dtype == np.float64:
        assert not reference.imag.any()
        reference = reference.real.copy()
    else:
        assert name.startswith("thirty-digit")
    assert matrix.tobytes() == reference.tobytes()


@pytest.mark.parametrize("name", sorted(LARGE_BLOCKS))
def test_large_block_entries_and_jacobi_data_match_exact_entries(name):
    h, charge, kappa = LARGE_BLOCKS[name]
    op = matrix_element_reduction(h, charge)
    if name.startswith("thirty-digit"):
        assert op.denominator > 2**63
    block = ReducedBlock(kappa, *op.block_entries(kappa))
    degrees, entries = reference_block_entries(h, charge, kappa)
    assert (block.degrees, exact_entries(block)) == (degrees, entries)
    jacobi = _jacobi_form(block.bands, block.denominator, block.dimension)
    for key, value in reference_jacobi_form(entries, len(degrees)).items():
        got = getattr(jacobi, key)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), key


# Refusal messages: a Hamiltonian that does not conserve the charge is
# refused before any entry is formed, even where an entry would overflow;
# an overflow names the first failing entry in the order of the
# entry-by-entry assembly: column by column, then in term order.
C12 = ConservedCharge(1, 2)
SHG = build_nth_harmonic(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
HUGE = Fraction(3, 2) * 10**308
NOT_CONSERVED = "Hamiltonian does not commute with 1*N1 + 2*N2"


@pytest.mark.parametrize("h,kappa,error,message", [
    (SHG + monomial(1, 0, 0, 0, 3) + monomial(Fraction(1, 3), 1, 0, 0, 0), 8,
     NonConservingHamiltonian, NOT_CONSERVED),
    (SHG + monomial(1, 0, 0, 0, 3), 8, NonConservingHamiltonian, NOT_CONSERVED),
    (monomial(1, 0, 0, 1, 0), 4, NonConservingHamiltonian, NOT_CONSERVED),
    (monomial(HUGE, 2, 0, 0, 1) + monomial(1, 0, 0, 0, 3), 8, NonConservingHamiltonian,
     NOT_CONSERVED),
    # re / D overflows
    (monomial(HUGE, 2, 0, 0, 1), 4, NumericalFailure,
     "h maps FockState(n1=0, n2=2) to FockState(n1=2, n2=1) with an amplitude that"
     " does not fit in double precision"),
    # only the product with the ladder factor sqrt(2) overflows, to inf: the
    # first non-finite entry in row-major order is named
    (monomial(HUGE, 2, 0, 0, 1), 2, NumericalFailure,
     "h maps FockState(n1=0, n2=1) to FockState(n1=2, n2=0) with an amplitude that"
     " does not fit in double precision"),
    # re / D = 2e308 overflows on |4,2> -> |6,1>, named before the inf
    # products of earlier columns
    (monomial(Fraction(10**308), 2, 0, 0, 1) + monomial(1, 0, 2, 1, 0), 8, NumericalFailure,
     "h maps FockState(n1=4, n2=2) to FockState(n1=6, n2=1) with an amplitude that"
     " does not fit in double precision"),
    (monomial(RationalComplex(Fraction(1), Fraction(10**308)), 2, 0, 0, 1), 8, NumericalFailure,
     "h maps FockState(n1=4, n2=2) to FockState(n1=6, n2=1) with an amplitude that"
     " does not fit in double precision"),
    # two entries of the column |8,0> overflow: the earlier term names its target
    (monomial(10**308, 1, 1, 0, 0) + monomial(10**308, 0, 2, 1, 0), 8, NumericalFailure,
     "h maps FockState(n1=8, n2=0) to FockState(n1=8, n2=0) with an amplitude that"
     " does not fit in double precision"),
    (monomial(10**308, 0, 2, 1, 0) + monomial(10**308, 1, 1, 0, 0), 8, NumericalFailure,
     "h maps FockState(n1=8, n2=0) to FockState(n1=6, n2=1) with an amplitude that"
     " does not fit in double precision"),
])
def test_block_matrix_refusal_messages(h, kappa, error, message):
    with pytest.raises(error) as info:
        block_matrix(h, C12, kappa)
    assert str(info.value) == message


def test_block_matrix_overflow_walk_stops_at_its_column(monkeypatch):
    # the overflow sits in column 0 of the d = 600 block: one exact column
    # names it, where the whole block's 600 were walked before
    h, charge = _shipped("shg")
    h = h + monomial(10**306, 1, 1, 0, 0)
    calls = []

    def counted(h, state):
        calls.append(state)
        return apply_to_fock(h, state)

    monkeypatch.setattr(oracle, "apply_to_fock", counted)
    with pytest.raises(NumericalFailure) as info:
        block_matrix(h, charge, 1198)
    assert str(info.value) == (
        "h maps FockState(n1=1198, n2=0) to FockState(n1=1198, n2=0) with an"
        " amplitude that does not fit in double precision"
    )
    assert len(calls) == 1


@pytest.mark.parametrize("terms", [
    (((2, 0, 0, 0), 1, 0),),
    (((0, 0, 0, 0), 1, 0), ((1, 0, 0, 0), 1, 0), ((0, 1, 0, 2), 1, 0), ((4, 0, 0, 1), 2, 0)),
    # a lone a2, which no degree of a block keeps
    (((0, 0, 0, 1), 1, 0),),
])
def test_reduced_operator_refusal_messages(terms):
    with pytest.raises(NonConservingHamiltonian) as info:
        ReducedOperator(terms=terms, denominator=1, charge=C12)
    assert str(info.value) == NOT_CONSERVED


@settings(max_examples=80, deadline=None)
@given(model=conserving_models(), extra=st.one_of(st.none(), operators))
# a lone a2, and SHG + a2^3 at kappa = 2, where a2^3 vanishes on every state
@example(model=(OperatorPolynomial(), C12, 4), extra=monomial(1, 0, 0, 0, 1))
@example(model=(SHG, C12, 2), extra=monomial(1, 0, 0, 0, 3))
def test_conservation_is_the_one_closure_rule(model, extra):
    """block_matrix, reduced_block_matrix and a ReducedOperator built
    directly all refuse h exactly when it does not conserve the charge,
    also where every non-conserving term vanishes on the block."""
    h, charge, kappa = model
    if extra is not None:
        h = h + extra
    routes = (
        lambda: block_matrix(h, charge, kappa),
        lambda: reduced_block_matrix(h, charge, kappa),
        lambda: ReducedOperator(*_integer_terms(h), charge=charge).block_entries(kappa),
    )
    if conserves(h, charge):
        degrees, bands, denom = routes[2]()
        block = ReducedBlock(kappa, degrees, bands, denom)
        assert (block.degrees, exact_entries(block)) == reference_block_entries(h, charge, kappa)
        assert block_matrix(h, charge, kappa).shape == (len(degrees),) * 2
        assert reduced_block_matrix(h, charge, kappa).bands == bands
        return
    for route in routes:
        with pytest.raises(NonConservingHamiltonian) as info:
            route()
        assert str(info.value) == (
            f"Hamiltonian does not commute with {charge.s}*N1 + {charge.p}*N2"
        )


def test_unrepresentable_reduced_entry_message():
    with pytest.raises(NumericalFailure) as info:
        qes_spectrum(monomial(HUGE, 2, 0, 0, 1), C12, 4)
    assert str(info.value) == "a reduced block entry does not fit in double precision"
    assert info.value.residual == math.inf


# ---------------------------------------------------------------------------
# The one band-shape decision both routes read (algebra._band_shape): its
# facts are the nonzero pattern of the exact entries, on either route's bands.


def reference_band_shape(pattern, dim):
    """algebra._band_shape's facts read entry by entry off the set of
    (row, col) positions of a block's nonzero exact entries: the offsets
    row - col, both off-diagonals position by position, and the two
    recurrence guards scanned row by row over A[dim-1-col][dim-1-row], as
    reference_energy_polynomials scans them."""
    rows = [set() for _ in range(dim)]
    for i, j in pattern:
        rows[dim - 1 - j].add(dim - 1 - i)
    wide = [(m, min(c for c in row if c > m + 1)) for m, row in enumerate(rows)
            if any(c > m + 1 for c in row)]
    return (
        all(abs(i - j) <= 1 for i, j in pattern),
        all({(i, i + 1), (i + 1, i)} <= pattern for i in range(dim - 1)),
        wide[0] if wide else None,
        next((m for m in range(dim - 1) if m + 1 not in rows[m]), None),
    )


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(three_term_models(), banded_models(), conserving_models()))
# a coupling that is exactly zero: one off-diagonal band is missing entirely
@example(model=(build_nth_harmonic(1, 2, 0, Fraction(1, 2), 2), C12, 9))
@example(model=(build_nth_harmonic(1, 2, Fraction(1, 2), 0, 2), C12, 9))
# kb/2 + c' n2 vanishes at n2 = 3: band -1 of the reduced block (band 1 of
# the Fock block) misses one column
@example(model=(SHG + monomial(Fraction(-1, 6), 0, 2, 2, 1), C12, 10))
# reduced bands {-2, -1, 0, 1}: the Fock block holds the mirror, {-1, 0, 1, 2}
@example(model=(SHG + monomial(Fraction(1, 3), 0, 4, 2, 0), C12, 12))
@example(model=(SHG + monomial(Fraction(1, 3), 4, 0, 0, 2), C12, 12))
def test_band_shape_is_the_exact_nonzero_pattern(model):
    h, charge, kappa = model
    reduced = reduced_block_matrix(h, charge, kappa)
    fock = oracle.build_block(h, charge, kappa)
    amplitudes = block_amplitudes(h, enumerate_block(charge, kappa))
    for bands, pattern in (
        (reduced.bands, set(exact_entries(reduced))),
        (fock.bands, {key for key, amp in amplitudes.items() if not amp.coeff.is_zero}),
    ):
        assert _band_shape(bands, reduced.dimension) == reference_band_shape(
            pattern, reduced.dimension
        )
