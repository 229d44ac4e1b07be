from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesboson import Polynomial, RationalComplex
from qesboson.exact import integer_numerators


def test_rational_complex_arithmetic():
    a = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    b = RationalComplex(Fraction(-2), Fraction(1))
    assert a + b == RationalComplex(Fraction(-3, 2), Fraction(4, 3))
    assert a * b == RationalComplex(
        Fraction(1, 2) * -2 - Fraction(1, 3),
        Fraction(1, 2) + Fraction(1, 3) * -2,
    )
    assert (a / b) * b == a
    assert a.conjugate().im == -a.im
    assert complex(RationalComplex(Fraction(1, 4))) == 0.25


def test_coerce_is_exact():
    assert RationalComplex.coerce(0.5) == RationalComplex(Fraction(1, 2))
    assert RationalComplex.coerce(complex(0, 0.25)) == RationalComplex(
        Fraction(0), Fraction(1, 4)
    )
    assert RationalComplex.coerce(Fraction(2, 6)) == RationalComplex(Fraction(1, 3))


def test_scalar_dispatch_with_builtin_numbers():
    a = RationalComplex(Fraction(1, 2))
    assert 2 * a == RationalComplex(Fraction(1))
    assert a + 1 == RationalComplex(Fraction(3, 2))
    assert 1 - a == RationalComplex(Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(RationalComplex, st.fractions(), st.fractions()), max_size=8))
def test_integer_numerators_are_exact_over_the_lcm(values):
    pairs, denom = integer_numerators(values)
    assert denom == lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    assert len(pairs) == len(values)
    for (re, im), v in zip(pairs, values):
        assert Fraction(re, denom) == v.re and Fraction(im, denom) == v.im


# real (im = 0) and complex operands, so both the fast and the general paths run
rational_complexes = st.builds(
    RationalComplex, st.fractions(), st.one_of(st.just(Fraction(0)), st.fractions())
)


@settings(max_examples=200, deadline=None)
@given(
    a=rational_complexes,
    b=rational_complexes,
    n=st.integers(min_value=-(10**20), max_value=10**20),
)
def test_products_and_int_quotients_are_the_general_formulas(a, b, n):
    def same(got, re, im):
        return (type(got.re), type(got.im), got) == (Fraction, Fraction, RationalComplex(re, im))

    assert same(a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    assert same(a * n, a.re * n, a.im * n) and same(n * a, a.re * n, a.im * n)
    if n:
        assert same(a / n, a.re / n, a.im / n)


def test_integer_numerators_of_nothing():
    assert integer_numerators([]) == ([], 1)


def test_polynomial_product_and_eval():
    p = Polynomial.from_coeffs([1, -2, 1])  # (E-1)^2
    q = Polynomial.from_coeffs([-1, 1])
    assert q * q == p
    assert p(1) == RationalComplex.coerce(0)
    assert p(3) == RationalComplex.coerce(4)


def test_polynomial_trims_leading_zeros():
    p = Polynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (RationalComplex.coerce(1), RationalComplex.coerce(2))
    assert Polynomial.from_coeffs([0, 0]).is_zero


def test_polynomial_render():
    p = Polynomial.from_coeffs([Fraction(7, 2), -4, 1])
    assert p.render() == "7/2 - 4*E + E^2"
    assert Polynomial.from_coeffs([0]).render() == "0"


def test_division_by_zero_rational_complex():
    with pytest.raises(ZeroDivisionError):
        RationalComplex.coerce(1) / RationalComplex.coerce(0)
