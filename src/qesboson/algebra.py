"""Exact normal-ordered algebra of two-mode boson operators.

Operators are sums of normal-ordered monomials

    coeff * (a1+)^m1 (a1)^m2 (a2+)^m3 (a2)^m4

with the two modes satisfying [a_i, a_j+] = delta_ij and all cross-mode
commutators vanishing.  Products are rewritten into this canonical form
with the single-mode reordering identity

    a^m (a+)^n = sum_j C(m,j) C(n,j) j! (a+)^(n-j) a^(m-j),

applied independently per mode.  Coefficients stay exact complex rationals,
so conservation, hermiticity and commutator checks are exact, never
tolerance-based.

Both block routes read a conserving h through one integer form: its
coefficients as integer numerators over one common denominator
(_integer_terms), summed band by band over a run of a block's states with
integer falling factorials (_block_bands).  Conservation is the only
closure check either route makes, and _band_shape, exact on the band
keys and columns, the only decision on a block's shape.  The exact image
of one state, apply_to_fock, stays in plain exact rationals.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, factorial, gcd, perm
from operator import or_
from typing import Iterable, Mapping, Sequence

from .exact import ZERO, Rationalish, RationalComplex, integer_numerators

ExponentKey = tuple[int, int, int, int]


@dataclass(frozen=True, order=True)
class FockState:
    """Occupation-number state |n1, n2> of the two modes."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(f"occupations must be non-negative, got {self}")


@dataclass(frozen=True)
class ConservedCharge:
    """Weighted number operator s*N1 + p*N2, stored with gcd(s, p) = 1."""

    s: int
    p: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.p < 1:
            raise ValueError(f"charge weights must be positive, got ({self.s}, {self.p})")
        g = gcd(self.s, self.p)
        if g > 1:
            object.__setattr__(self, "s", self.s // g)
            object.__setattr__(self, "p", self.p // g)


@dataclass(frozen=True)
class BosonMonomial:
    """One normal-ordered term coeff * (a1+)^m1 (a1)^m2 (a2+)^m3 (a2)^m4."""

    coeff: RationalComplex
    m1: int
    m2: int
    m3: int
    m4: int

    def __post_init__(self) -> None:
        for m in (self.m1, self.m2, self.m3, self.m4):
            if m < 0 or not isinstance(m, int):
                raise ValueError(f"exponents must be non-negative integers, got {self}")

    @property
    def exponents(self) -> ExponentKey:
        return (self.m1, self.m2, self.m3, self.m4)

    def adjoint(self) -> "BosonMonomial":
        """Hermitian conjugate; swaps raising/lowering exponents per mode."""
        return BosonMonomial(self.coeff.conjugate(), self.m2, self.m1, self.m4, self.m3)


class OperatorPolynomial:
    """Canonical sum of normal-ordered monomials, keyed by exponent tuple.

    Values are immutable after construction; all arithmetic returns new
    instances, so they are safe to share across workers.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentKey, RationalComplex] | None = None):
        clean: dict[ExponentKey, RationalComplex] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero:
                    clean[key] = coeff
        self._terms = clean

    @staticmethod
    def from_monomials(monomials: Iterable[BosonMonomial]) -> "OperatorPolynomial":
        terms: dict[ExponentKey, RationalComplex] = {}
        for mono in monomials:
            key = mono.exponents
            terms[key] = terms.get(key, ZERO) + mono.coeff
        return OperatorPolynomial(terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, m1: int, m2: int, m3: int, m4: int) -> RationalComplex:
        return self._terms.get((m1, m2, m3, m4), ZERO)

    def monomials(self) -> tuple[BosonMonomial, ...]:
        """Terms in canonical ascending exponent order."""
        return tuple(
            BosonMonomial(self._terms[key], *key) for key in sorted(self._terms)
        )

    def items(self) -> Iterable[tuple[ExponentKey, RationalComplex]]:
        return self._terms.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            terms[key] = terms.get(key, ZERO) + coeff
        return OperatorPolynomial(terms)

    def __sub__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return self + (-other)

    def __neg__(self) -> "OperatorPolynomial":
        return OperatorPolynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other) -> "OperatorPolynomial":
        if isinstance(other, OperatorPolynomial):
            terms: dict[ExponentKey, RationalComplex] = {}
            for lk, lc in self._terms.items():
                for rk, rc in other._terms.items():
                    product = monomial_product(
                        BosonMonomial(lc, *lk), BosonMonomial(rc, *rk)
                    )
                    for key, coeff in product.items():
                        terms[key] = terms.get(key, ZERO) + coeff
            return OperatorPolynomial(terms)
        scale = RationalComplex.coerce(other)
        return OperatorPolynomial({k: c * scale for k, c in self._terms.items()})

    def __rmul__(self, other: Rationalish) -> "OperatorPolynomial":
        return self * other

    def adjoint(self) -> "OperatorPolynomial":
        """Hermitian conjugate; normal order is preserved term by term."""
        return OperatorPolynomial.from_monomials(
            mono.adjoint() for mono in self.monomials()
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono in self.monomials():
            factors = []
            for label, m in zip(("a1+", "a1", "a2+", "a2"), mono.exponents):
                if m == 1:
                    factors.append(label)
                elif m > 1:
                    factors.append(f"{label}^{m}")
            body = " ".join(factors) if factors else "1"
            parts.append(f"({mono.coeff}) {body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"OperatorPolynomial({self})"


def monomial(coeff: Rationalish, m1: int, m2: int, m3: int, m4: int) -> OperatorPolynomial:
    """Single normal-ordered term as an OperatorPolynomial."""
    return OperatorPolynomial.from_monomials(
        [BosonMonomial(RationalComplex.coerce(coeff), m1, m2, m3, m4)]
    )


def create(mode: int) -> OperatorPolynomial:
    """a1+ or a2+."""
    return monomial(1, 1, 0, 0, 0) if mode == 1 else monomial(1, 0, 0, 1, 0)


def annihilate(mode: int) -> OperatorPolynomial:
    """a1 or a2."""
    return monomial(1, 0, 1, 0, 0) if mode == 1 else monomial(1, 0, 0, 0, 1)


def number(mode: int) -> OperatorPolynomial:
    """a1+ a1 or a2+ a2."""
    return monomial(1, 1, 1, 0, 0) if mode == 1 else monomial(1, 0, 0, 1, 1)


def identity(scale: Rationalish = 1) -> OperatorPolynomial:
    return monomial(scale, 0, 0, 0, 0)


def charge_operator(charge: ConservedCharge) -> OperatorPolynomial:
    """The conserved charge s*N1 + p*N2 as an operator."""
    return charge.s * number(1) + charge.p * number(2)


def _reorder_single_mode(m_low: int, n_raise: int) -> list[tuple[int, int, int]]:
    """Normal-order a^m (a+)^n for one mode.

    Returns (j_weight, raise_exp, lower_exp) triples with integer weight
    C(m,j) C(n,j) j! so that a^m (a+)^n = sum w (a+)^(n-j) a^(m-j).
    """
    out = []
    for j in range(min(m_low, n_raise) + 1):
        w = comb(m_low, j) * comb(n_raise, j) * factorial(j)
        out.append((w, n_raise - j, m_low - j))
    return out


def monomial_product(lhs: BosonMonomial, rhs: BosonMonomial) -> OperatorPolynomial:
    """Normal-ordered canonical form of lhs * rhs.

    The two modes commute, so the mode-1 and mode-2 reorderings factor
    independently.  Coefficients stay exact; arbitrary-precision integers
    absorb the factorial-scale reordering weights.
    """
    coeff = lhs.coeff * rhs.coeff
    terms: dict[ExponentKey, RationalComplex] = {}
    for w1, r1, l1 in _reorder_single_mode(lhs.m2, rhs.m1):
        for w2, r2, l2 in _reorder_single_mode(lhs.m4, rhs.m3):
            key = (lhs.m1 + r1, l1 + rhs.m2, lhs.m3 + r2, l2 + rhs.m4)
            terms[key] = terms.get(key, ZERO) + coeff * (w1 * w2)
    return OperatorPolynomial(terms)


def commutator(a: OperatorPolynomial, b: OperatorPolynomial) -> OperatorPolynomial:
    """[a, b] = ab - ba in canonical form (exact cancellation)."""
    return a * b - b * a


def charge_weight(charge: ConservedCharge, m1: int, m2: int, m3: int, m4: int) -> int:
    """s (m1 - m2) + p (m3 - m4); zero iff the term commutes with the charge."""
    return charge.s * (m1 - m2) + charge.p * (m3 - m4)


def conserves(h: OperatorPolynomial, charge: ConservedCharge) -> bool:
    """True iff every term of h has vanishing charge weight.

    Equivalent to commutator(charge_operator(charge), h) being the zero
    polynomial, but decided term by term without any reordering; that
    commutator itself is _charge_commutator(h, charge).
    """
    return all(charge_weight(charge, *key) == 0 for key, _ in h.items())


def _charge_commutator(h: OperatorPolynomial, charge: ConservedCharge) -> OperatorPolynomial:
    """[K, h] for K = s*N1 + p*N2, equal to commutator(charge_operator(charge), h).

    [N1, t] = (m1 - m2) t and [N2, t] = (m3 - m4) t for every normal-ordered
    term t, so [K, h] is each term of h times its charge weight, formed
    without any operator product; the terms that conserve the charge drop out.
    """
    return OperatorPolynomial(
        {key: coeff * charge_weight(charge, *key) for key, coeff in h.items()}
    )


PAIR_LIMIT = 12  # the largest weight s or p that conserving_pairs tries


def conserving_pairs(h: OperatorPolynomial) -> list[tuple[int, int]]:
    """All raw (s, p) with 1 <= s, p <= PAIR_LIMIT under which h conserves,
    s ascending.

    A term of shift (d1, d2) = (m1 - m2, m3 - m4) conserves s*N1 + p*N2 iff
    s*d1 + p*d2 = 0.  With no nonzero shift every pair conserves.  Otherwise
    any one nonzero shift admits no pair unless d1 and d2 have opposite
    signs, and then only the multiples of s : p = |d2| : |d1| in lowest
    terms, which every other shift is checked against once.
    """
    shifts = {(m1 - m2, m3 - m4) for (m1, m2, m3, m4), _ in h.items()} - {(0, 0)}
    if not shifts:
        return [(s, p) for s in range(1, PAIR_LIMIT + 1) for p in range(1, PAIR_LIMIT + 1)]
    d1, d2 = next(iter(shifts))
    if d1 * d2 >= 0:
        return []
    g = gcd(d1, d2)
    s, p = abs(d2) // g, abs(d1) // g
    if any(s * e1 + p * e2 for e1, e2 in shifts):
        return []
    return [(k * s, k * p) for k in range(1, PAIR_LIMIT // max(s, p) + 1)]


def is_hermitian(h: OperatorPolynomial) -> bool:
    """Exact check that the adjoint equals h.

    The adjoint maps the term (m1, m2, m3, m4) to (m2, m1, m4, m3) with the
    conjugate coefficient, an involution on the support, so h is Hermitian
    iff every term's partner has the conjugate coefficient.
    """
    for (m1, m2, m3, m4), coeff in h.items():
        partner = h.coefficient(m2, m1, m4, m3)
        if partner.re != coeff.re or partner.im != -coeff.im:
            return False
    return True


@dataclass(frozen=True)
class FockAmplitude:
    """Exact amplitude coeff * sqrt(radicand).

    Every ladder amplitude from |src> to |tgt> has the radicand
    tgt_factorials / src_factorials (in lowest terms), so apply_to_fock sums
    the contributions to one target in coeff alone.  Equality and hash read
    both fields, exactly; apply_to_fock returns no zero amplitude.
    """

    coeff: RationalComplex
    radicand: Fraction = Fraction(1)

    def __complex__(self) -> complex:
        return complex(self.coeff) * float(self.radicand) ** 0.5


def ladder_radicand(state: FockState, target: FockState) -> Fraction:
    """t1! t2! / (n1! n2!) for |n1, n2> -> |t1, t2>, in lowest terms.

    Per mode, t!/n! is the product of the |t - n| factors between the two
    occupations, the falling factorial math.perm, so the full factorials are
    never formed.
    """
    num = den = 1
    for n, t in ((state.n1, target.n1), (state.n2, target.n2)):
        if t >= n:
            num *= perm(t, t - n)
        else:
            den *= perm(n, n - t)
    return Fraction(num, den)


_IntegerTerms = tuple[tuple[ExponentKey, int, int], ...]
_Bands = dict[int, tuple[list[int], list[int], list[int] | None]]


def _integer_terms(h: OperatorPolynomial) -> tuple[_IntegerTerms, int]:
    """h's terms as (exponents, real numerator, imaginary numerator) over
    one common denominator D of all its coefficients, and D."""
    items = tuple(h.items())
    pairs, denom = integer_numerators(coeff for _, coeff in items)
    return tuple((key, *pair) for (key, _), pair in zip(items, pairs)), denom


def _block_bands(terms: _IntegerTerms, n1s: Sequence[int], n2s: Sequence[int]) -> _Bands:
    """The nonzero bands of the block of a conserving h, given by
    _integer_terms, over the run of its states (n1s[j], n2s[j]), as
    shift -> (columns, real numerators, imaginary numerators or None): the
    entry in row column + shift is (re + i*im) / D times the ladder factor.

    The run goes either way along the block, n2 ascending (the oracle's
    basis) or n1 ascending (the reduced route's degrees): a term moves a
    state by m3 - m4 in n2, which is the same number of places at every
    state of the run.  Conservation is what keeps every nonzero band inside
    the block: a term that does not vanish at a state maps it to a state of
    the same charge, so no column is checked for closure here.
    """
    groups: dict[int, list] = {}
    for term in terms:
        (_, _, m3, m4), _, _ = term
        groups.setdefault(m3 - m4, []).append(term)
    # a single state has only its diagonal band: every other term vanishes there
    step = n2s[1] - n2s[0] if len(n2s) > 1 else 1
    bands = {}
    for d2, group in groups.items():
        res, ims = _band_numerators(group, n1s, n2s)
        cols = list(compress(range(len(res)), res if ims is None else map(or_, res, ims)))
        if cols:
            bands[d2 // step] = (
                cols,
                [res[j] for j in cols],
                None if ims is None else [ims[j] for j in cols],
            )
    return bands


_BandShape = namedtuple("_BandShape", "tridiagonal full above gap")


def _band_shape(bands: Mapping[int, tuple], dim: int) -> _BandShape:
    """The exact shape of a block of dimension dim in band form, shift ->
    (ascending columns, ...) as _block_bands, FockBlock.bands and
    ReducedBlock.bands hold it, read off the keys and columns: tridiagonal,
    no key but -1, 0, 1; full, bands -1 and 1 list all dim - 1 columns.  In
    the energy recurrence's rows m = dim - 1 - column, above = (m, column) is
    the first entry right of a superdiagonal (a key below -1) and gap the
    first m whose superdiagonal entry is missing from band -1, or None."""
    lower, upper = (bands[k][0] if k in bands else () for k in (-1, 1))
    # the last column listed under a key below -1 and the largest such key; (dim, 0) if none
    last, k = max(((bands[k][0][-1], k) for k in bands if k < -1), default=(dim, 0))
    above = (dim - 1 - last, dim - 1 - last - k) if last < dim else None
    gap = dim - 1 - max(set(range(1, dim)).difference(lower)) if len(lower) < dim - 1 else None
    full = gap is None and len(upper) == max(dim - 1, 0)
    return _BandShape(bands.keys() <= {-1, 0, 1}, full, above, gap)


def _band_numerators(
    terms: Iterable[tuple[ExponentKey, int, int]],
    n1s: Sequence[int],
    n2s: Sequence[int],
) -> tuple[list[int], list[int] | None]:
    """Summed numerators of terms at every occupation pair (n1s[j], n2s[j]):
    the lists of sum(re * (n1)_m2 (n2)_m4) and sum(im * (n1)_m2 (n2)_m4)
    over the terms, the second None when every im is 0.

    _block_bands fills one band from it, with the terms that move a state
    to the same place.  math.perm is the falling factorial on non-negative
    integers and 0 where a term needs more annihilations than the occupation
    holds, so such a term contributes nothing there.
    """
    res = ims = None
    for (_, m2, _, m4), re, im in terms:
        if not m4:
            weights = [perm(a, m2) for a in n1s]
        elif not m2:
            weights = [perm(b, m4) for b in n2s]
        else:
            weights = [perm(a, m2) * perm(b, m4) for a, b in zip(n1s, n2s)]
        res = _accumulate(res, re, weights)
        if im:
            ims = _accumulate(ims, im, weights)
    return res, ims


def _accumulate(acc: list[int] | None, c: int, weights: list[int]) -> list[int]:
    if acc is None:
        return [c * w for w in weights]
    return [a + c * w for a, w in zip(acc, weights)]


def apply_to_fock(
    h: OperatorPolynomial, state: FockState
) -> dict[FockState, FockAmplitude]:
    """Exact image of |n1, n2> under h as target -> amplitude, targets in
    the order h's terms first reach them.  A term adds coeff * (n1)_m2 *
    (n2)_m4 (falling factorials) to its target's sum, or nothing where it
    needs more annihilations than the occupation holds; each nonzero sum
    times sqrt(ladder_radicand(state, target)) is an amplitude."""
    n1, n2 = state.n1, state.n2
    sums: dict[FockState, RationalComplex] = {}
    for (m1, m2, m3, m4), coeff in h.items():
        if n1 < m2 or n2 < m4:
            continue
        target = FockState(n1 - m2 + m1, n2 - m4 + m3)
        term = coeff * (perm(n1, m2) * perm(n2, m4))
        prev = sums.get(target)
        sums[target] = term if prev is None else prev + term
    return {
        target: FockAmplitude(coeff, ladder_radicand(state, target))
        for target, coeff in sums.items()
        if not coeff.is_zero
    }
