"""Shared helpers: random exact operators and an independent ladder oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest

from qesboson import (
    BosonMonomial,
    ConservedCharge,
    OperatorPolynomial,
    RationalComplex,
    build_shg,
    shg_charge,
)
from qesboson._lapack import paired_distances


def spectral_deviation(a, b) -> float:
    """Multiset distance between two spectra via optimal pairing.

    Positional comparison after a (real, imag) sort is unstable for
    complex-conjugate pairs whose real parts differ only by rounding, so
    tests pair eigenvalues by minimum-cost assignment instead, the pairing
    the CLI's route comparison uses for complex spectra.
    """
    assert np.shape(a) == np.shape(b)
    return float(paired_distances(a, b).max(initial=0.0))


def exact_entries(block) -> dict[tuple[int, int], RationalComplex]:
    """A reduced block's nonzero entries as (row, col) -> exact value: band
    k, column j is the entry (j + k, j), each integer numerator pair
    (re, im) over the block's common denominator."""
    d = block.denominator
    return {
        (j + k, j): RationalComplex(Fraction(re, d), Fraction(im, d))
        for k, (cols, res, ims) in block.bands.items()
        for j, re, im in zip(cols, res, ims or repeat(0))
    }


def random_rational(rng: random.Random, span: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), den)


def random_coeff(rng: random.Random, complex_parts: bool = True) -> RationalComplex:
    re = random_rational(rng)
    im = random_rational(rng) if complex_parts else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return RationalComplex(re, im)


def random_monomial(rng: random.Random, max_exp: int = 4) -> BosonMonomial:
    return BosonMonomial(
        random_coeff(rng),
        rng.randint(0, max_exp),
        rng.randint(0, max_exp),
        rng.randint(0, max_exp),
        rng.randint(0, max_exp),
    )


def random_conserving_hamiltonian(
    rng: random.Random,
    charge: ConservedCharge,
    n_terms: int = 4,
    max_exp: int = 4,
) -> OperatorPolynomial:
    """Random operator whose every term has vanishing charge weight."""
    monos = []
    while len(monos) < n_terms:
        m1 = rng.randint(0, max_exp)
        m2 = rng.randint(0, max_exp)
        m3 = rng.randint(0, max_exp)
        num = charge.s * (m1 - m2)
        if num % charge.p:
            continue
        m4 = m3 + num // charge.p
        if not 0 <= m4 <= max_exp:
            continue
        monos.append(BosonMonomial(random_coeff(rng), m1, m2, m3, m4))
    return OperatorPolynomial.from_monomials(monos)


# ---------------------------------------------------------------------------
# Independent ladder oracle: operators as sparse exact matrices over the
# monomial basis x^n1 y^n2, built from one elementary ladder step at a time
# (a lowers a degree and multiplies by it, a+ raises it).  This never uses
# the package's reordering identity or falling-factorial shortcuts.


def elementary_step(op: str, state: tuple[int, int]):
    n1, n2 = state
    if op == "a1":
        return ((n1 - 1, n2), n1) if n1 > 0 else None
    if op == "c1":
        return ((n1 + 1, n2), 1)
    if op == "a2":
        return ((n1, n2 - 1), n2) if n2 > 0 else None
    if op == "c2":
        return ((n1, n2 + 1), 1)
    raise ValueError(op)


def ladder_chain_apply(
    mono: BosonMonomial, state: tuple[int, int]
) -> tuple[tuple[int, int], RationalComplex] | None:
    """Apply one normal-ordered term by its elementary factor sequence."""
    ops = (
        ["a2"] * mono.m4 + ["c2"] * mono.m3 + ["a1"] * mono.m2 + ["c1"] * mono.m1
    )
    weight = RationalComplex.coerce(1)
    for op in ops:
        step = elementary_step(op, state)
        if step is None:
            return None
        state, factor = step
        weight = weight * factor
    return state, weight * mono.coeff


def monomial_basis_matrix(
    h: OperatorPolynomial, sources: list[tuple[int, int]]
) -> dict[tuple[int, int], dict[tuple[int, int], RationalComplex]]:
    """Columns of h over the monomial basis, exact, via the ladder chains."""
    columns: dict[tuple[int, int], dict[tuple[int, int], RationalComplex]] = {}
    zero = RationalComplex.coerce(0)
    for src in sources:
        col: dict[tuple[int, int], RationalComplex] = {}
        for mono in h.monomials():
            hit = ladder_chain_apply(mono, src)
            if hit is None:
                continue
            tgt, weight = hit
            col[tgt] = col.get(tgt, zero) + weight
        columns[src] = {t: w for t, w in col.items() if not w.is_zero}
    return columns


@pytest.fixture
def shg():
    h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
    return h, shg_charge()
