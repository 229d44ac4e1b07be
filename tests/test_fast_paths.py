"""Exactness of the small-operand fast paths in block assembly.

Every fast path is compared for exact equality against the general formula
it short-cuts: RationalComplex arithmetic, Horner evaluation at an integer,
the oracle's ladder-ratio radicand and its integer accumulation over one
common denominator, operator products and the reduced route's integer
entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesboson import (
    BlockClosureViolation,
    BosonMonomial,
    ConservedCharge,
    FockAmplitude,
    FockState,
    OperatorPolynomial,
    Polynomial,
    RationalComplex,
)
from qesboson.algebra import apply_to_fock, ladder_radicand, monomial_product
from qesboson.exact import ZERO, falling_factorial_poly
from qesboson.reduction import (
    matrix_element_reduction,
    physical_degrees,
    reduce_via_t,
    slaved_occupation,
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


@settings(max_examples=50, deadline=None)
@given(polys, st.complex_numbers(max_magnitude=10, allow_nan=False))
def test_cached_float_coefficients_keep_horner_bits(poly, z):
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * z + complex(c)
    assert poly.eval_complex(z) == acc
    assert poly.eval_complex(z) == acc  # second call reads the cache
    assert poly.complex_coeffs() == [complex(c) for c in poly.coeffs]


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
        assert not amp.is_zero
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
    expected = OperatorPolynomial.zero()
    for lhs in a.monomials():
        for rhs in b.monomials():
            expected = expected + monomial_product(lhs, rhs)
    assert a * b == expected


@st.composite
def conserving_models(draw):
    """Random conserving operator with exponents <= 3, its charge and a kappa.

    Coefficients have independent real and imaginary denominators.  Some
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
    terms = {key: draw(rcs) for key in chosen}
    kappa = draw(st.integers(min_value=0, max_value=24))
    if draw(st.booleans()):
        m1, m2, m3, m4 = key = draw(st.sampled_from(chosen))
        slaved = [
            slaved_occupation(charge, kappa, n)
            for n in physical_degrees(charge, kappa)
            if n >= m2
        ]
        slaved = [n2 for n2 in slaved if n2 > m4]
        if slaved:
            # c ff(n2, m4) + c' ff(n2, m4 + 1) = 0 at the drawn n2
            n2 = draw(st.sampled_from(slaved))
            terms[(m1, m2, m3 + 1, m4 + 1)] = terms[key] * Fraction(-1, n2 - m4)
    h = OperatorPolynomial.from_monomials(
        BosonMonomial(coeff, *key) for key, coeff in terms.items()
    )
    return h, charge, kappa


def reference_block_entries(op, kappa):
    """The per-entry evaluation the integer falling factorial replaces:
    term.diag(n2) * falling_factorial_poly(m2)(n), by RationalComplex Horner."""
    degrees = physical_degrees(op.charge, kappa)
    pos = {n: i for i, n in enumerate(degrees)}
    entries = {}
    for j, n in enumerate(degrees):
        n2 = RationalComplex(Fraction(slaved_occupation(op.charge, kappa, n)))
        for term in op.terms:
            if n < term.m2:
                continue
            amp = term.diag(n2) * falling_factorial_poly(term.m2)(RationalComplex(Fraction(n)))
            if amp.is_zero:
                continue
            i = pos.get(n - term.m2 + term.m1)
            if i is None:
                if op.clip_edges:
                    continue
                raise BlockClosureViolation("reference: leaves the block")
            entries[(i, j)] = entries.get((i, j), ZERO) + amp
    return degrees, {k: v for k, v in entries.items() if not v.is_zero}


def _supported_shapes(h: OperatorPolynomial) -> OperatorPolynomial:
    return OperatorPolynomial(
        {k: c for k, c in h.items() if k[2] == 0 or k[3] == 0 or k[2] == k[3]}
    )


ROUTES = {
    "matrix-element": matrix_element_reduction,
    "t": lambda h, c: reduce_via_t(_supported_shapes(h), c),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=30, deadline=None)
@given(model=conserving_models())
def test_block_entries_match_polynomial_evaluation(route, model):
    h, charge, kappa = model
    op = ROUTES[route](h, charge)
    try:
        expected = reference_block_entries(op, kappa)
    except BlockClosureViolation:
        with pytest.raises(BlockClosureViolation):
            op.block_entries(kappa)
        return
    degrees, entries = op.block_entries(kappa)
    assert (degrees, entries) == expected
    for value in entries.values():
        assert type(value.re) is Fraction and type(value.im) is Fraction
