"""Exact scalars and polynomials used throughout the package.

All algebraic identities (conservation, hermiticity, vanishing commutators,
recurrence coefficients) are checked in exact rational arithmetic; floating
point enters only when a matrix is handed to an eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Rationalish = Union["RationalComplex", Fraction, int, float, complex]


@dataclass(frozen=True)
class RationalComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: Rationalish) -> "RationalComplex":
        """Convert a number to RationalComplex without loss of precision."""
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return RationalComplex(Fraction(value.real), Fraction(value.imag))
        return RationalComplex(Fraction(value))

    @staticmethod
    def _try_coerce(value) -> "RationalComplex | None":
        try:
            return RationalComplex.coerce(value)
        except (TypeError, ValueError):
            return None

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __add__(self, other: Rationalish) -> "RationalComplex":
        o = other if isinstance(other, RationalComplex) else RationalComplex._try_coerce(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Rationalish) -> "RationalComplex":
        o = other if isinstance(other, RationalComplex) else RationalComplex._try_coerce(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Rationalish) -> "RationalComplex":
        o = RationalComplex._try_coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other: Rationalish) -> "RationalComplex":
        # int scales: apply_to_fock's falling factorials, the charge weights;
        # real operands (the sextic builders') skip the imaginary arithmetic
        if isinstance(other, int):
            if not self.im:
                return RationalComplex(self.re * other)
            return RationalComplex(self.re * other, self.im * other)
        o = other if isinstance(other, RationalComplex) else RationalComplex._try_coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return RationalComplex(self.re * o.re)
        return RationalComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "RationalComplex":
        # int divisors: the sextic coefficients' /4, /8 and /16
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division by zero RationalComplex")
            if not self.im:
                return RationalComplex(self.re / other)
            return RationalComplex(self.re / other, self.im / other)
        o = RationalComplex.coerce(other)
        denom = o.re * o.re + o.im * o.im
        if not denom:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = RationalComplex()
ONE = RationalComplex(Fraction(1))


def integer_numerators(
    values: Iterable[RationalComplex],
) -> tuple[list[tuple[int, int]], int]:
    """The values as integer pairs (re, im) over their least common
    denominator D, in input order, and D (1 for no values).

    Both block routes hand their exact coefficients to the eigensolver
    through this one conversion: value = (re + i*im) / D exactly.
    """
    values = tuple(values)
    denom = lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    return [
        (
            v.re.numerator * (denom // v.re.denominator),
            v.im.numerator * (denom // v.im.denominator),
        )
        for v in values
    ], denom


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with RationalComplex coefficients (ascending):
    a value built by from_coeffs and read through coeffs, is_zero and render."""

    coeffs: tuple[RationalComplex, ...] = ()

    @staticmethod
    def from_coeffs(values: Iterable[Rationalish]) -> "Polynomial":
        coeffs = [RationalComplex.coerce(v) for v in values]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # __mul__ and __call__ have no package caller; perfbench/spans.py counts them
    def __mul__(self, other: Union["Polynomial", Rationalish]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = RationalComplex.coerce(other)
            return Polynomial.from_coeffs([c * s for c in self.coeffs])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial.from_coeffs(out)

    def __call__(self, value: Rationalish) -> RationalComplex:
        """Exact Horner evaluation."""
        v = RationalComplex.coerce(value)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def render(self) -> str:
        """Human-readable form in the energy E, lowest power first."""
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                power = "E" if i == 1 else f"E^{i}"
                if c == ONE:
                    parts.append(power)
                elif c == -ONE:
                    parts.append(f"-{power}")
                else:
                    body = str(c)
                    if not c.is_real:
                        body = f"({body})"
                    parts.append(f"{body}*{power}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

