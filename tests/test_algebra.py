import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ladder_chain_apply,
    monomial_basis_matrix,
    random_conserving_hamiltonian,
    random_monomial,
)
from qesboson import (
    BosonMonomial,
    ConservedCharge,
    FockAmplitude,
    FockState,
    OperatorPolynomial,
    RationalComplex,
    annihilate,
    apply_to_fock,
    build_shg,
    charge_operator,
    charge_weight,
    commutator,
    conserves,
    conserving_pairs,
    create,
    identity,
    is_hermitian,
    monomial,
    monomial_product,
    number,
)
from qesboson.algebra import PAIR_LIMIT, _charge_commutator
from qesboson.exact import ZERO


def mono(coeff, m1, m2, m3, m4) -> BosonMonomial:
    return BosonMonomial(RationalComplex.coerce(coeff), m1, m2, m3, m4)


class TestNormalOrdering:
    def test_a_adag_single_mode(self):
        # a1 a1+ = a1+ a1 + 1
        assert annihilate(1) * create(1) == number(1) + identity()

    def test_a2_adag2(self):
        # a1^2 (a1+)^2 = (a1+)^2 a1^2 + 4 a1+ a1 + 2
        product = monomial(1, 0, 2, 0, 0) * monomial(1, 2, 0, 0, 0)
        expected = monomial(1, 2, 2, 0, 0) + 4 * number(1) + identity(2)
        assert product == expected

    def test_cross_mode_factors_commute(self):
        # a2+ a1 is a single normal-ordered term
        product = monomial_product(mono(1, 0, 0, 1, 0), mono(1, 0, 1, 0, 0))
        assert product == monomial(1, 0, 1, 1, 0)

    def test_against_ladder_chain_oracle(self):
        # canonical product reproduces one-step-at-a-time ladder application
        rng = random.Random(11)
        for _ in range(40):
            p, q = random_monomial(rng), random_monomial(rng)
            product = monomial_product(p, q)
            sources = [(n1, n2) for n1 in range(7) for n2 in range(7)]
            direct = monomial_basis_matrix(product, sources)
            chained: dict = {}
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
                chained[src] = col
            assert direct == chained

    def test_associativity_exact(self):
        rng = random.Random(5)
        for _ in range(25):
            p = OperatorPolynomial.from_monomials([random_monomial(rng)])
            q = OperatorPolynomial.from_monomials([random_monomial(rng)])
            r = OperatorPolynomial.from_monomials([random_monomial(rng)])
            assert (p * q) * r == p * (q * r)


class TestCommutators:
    @pytest.mark.parametrize("s,p", [(1, 2), (1, 3), (2, 3), (3, 5), (1, 1)])
    def test_charge_ladder_commutators(self, s, p):
        charge = ConservedCharge(s, p)
        k = charge_operator(charge)
        assert commutator(k, create(1)) == charge.s * create(1)
        assert commutator(k, annihilate(1)) == -charge.s * annihilate(1)
        assert commutator(k, create(2)) == charge.p * create(2)
        assert commutator(k, annihilate(2)) == -charge.p * annihilate(2)

    def test_self_commutator_vanishes(self, shg):
        h, _ = shg
        assert commutator(h, h).is_zero

    def test_termwise_charge_commutator_identity(self):
        # [K, H] carries the weight s(m1-m2)+p(m3-m4) on every term
        rng = random.Random(23)
        charge = ConservedCharge(2, 3)
        k = charge_operator(charge)
        for _ in range(30):
            h = OperatorPolynomial.from_monomials(
                random_monomial(rng) for _ in range(4)
            )
            expected = OperatorPolynomial.from_monomials(
                BosonMonomial(
                    m.coeff * charge_weight(charge, *m.exponents), *m.exponents
                )
                for m in h.monomials()
            )
            assert commutator(k, h) == expected


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=30)
coefficients = st.builds(RationalComplex, fractions, fractions | st.just(Fraction(0)))
operators = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(4))), coefficients, max_size=6
).map(OperatorPolynomial)
charges = st.builds(ConservedCharge, st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(h=operators, charge=charges)
def test_charge_commutator_is_the_operator_commutator(h, charge):
    # [K, h] from the charge weights alone is the normal-ordered product
    # difference K h - h K, term for term and in its printed form
    expected = commutator(charge_operator(charge), h)
    got = _charge_commutator(h, charge)
    assert got == expected
    assert str(got) == str(expected)
    assert got.is_zero == conserves(h, charge)


def reference_pairs(h: OperatorPolynomial) -> list[tuple[int, int]]:
    """The 144-pair loop: every (s, p) with 1 <= s, p <= PAIR_LIMIT, in that
    order, kept when s (m1 - m2) + p (m3 - m4) vanishes on every term."""
    return [
        (s, p)
        for s in range(1, PAIR_LIMIT + 1)
        for p in range(1, PAIR_LIMIT + 1)
        if all(s * (k[0] - k[1]) + p * (k[2] - k[3]) == 0 for k, _ in h.items())
    ]


exponent_keys = st.tuples(*(st.integers(0, 3) for _ in range(4)))


def unit_terms(keys) -> OperatorPolynomial:
    """The sum of the terms with these exponents, each with coefficient 1:
    which pairs conserve depends on the exponents alone."""
    return OperatorPolynomial(dict.fromkeys(keys, RationalComplex(Fraction(1))))


@st.composite
def shift_models(draw):
    """Operators whose terms mostly share one ratio of shifts: terms of shift
    k (p, -s) for one drawn s, p <= PAIR_LIMIT + 1 and k in -2..2, k = 0
    being a weight-zero term, and sometimes terms of any shift."""
    s, p = draw(st.integers(1, PAIR_LIMIT + 1)), draw(st.integers(1, PAIR_LIMIT + 1))
    keys = []
    for k in draw(st.lists(st.integers(-2, 2), max_size=4)):
        b1, b2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        d1, d2 = k * p, -k * s
        keys.append((max(d1, 0) + b1, max(-d1, 0) + b1, max(d2, 0) + b2, max(-d2, 0) + b2))
    return unit_terms(keys + draw(st.lists(exponent_keys, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(h=st.one_of(st.lists(exponent_keys, max_size=6).map(unit_terms), shift_models()))
@example(h=number(1) + number(2) + identity(3))  # all 144 pairs
@example(h=monomial(1, 1, 0, 1, 0))  # shift (1, 1): same signs
@example(h=monomial(1, 0, 2, 0, 0))  # shift (-2, 0): one zero component
@example(h=monomial(1, 6, 0, 0, 1) + number(1))  # shift (6, -1): (1, 6) and (2, 12)
@example(h=build_shg(1, 2, 1, 1) + monomial(1, 3, 0, 0, 1))  # ratios 1:2 and 1:3
@example(h=OperatorPolynomial())
def test_conserving_pairs_match_the_full_loop(h):
    assert conserving_pairs(h) == reference_pairs(h)


class TestConservation:
    def test_shg_conserves_1_2(self, shg):
        h, charge = shg
        assert conserves(h, charge)

    def test_shg_fails_1_1(self, shg):
        h, _ = shg
        assert not conserves(h, ConservedCharge(1, 1))

    def test_diagonal_term_conserves_anything(self):
        h = number(1)
        for s in range(1, 5):
            for p in range(1, 5):
                assert conserves(h, ConservedCharge(s, p))

    def test_matches_commutator_zero(self):
        rng = random.Random(31)
        charge = ConservedCharge(1, 2)
        k = charge_operator(charge)
        conserving = non_conserving = 0
        for _ in range(100):
            if rng.random() < 0.5:
                h = random_conserving_hamiltonian(rng, charge)
            else:
                h = OperatorPolynomial.from_monomials(
                    random_monomial(rng) for _ in range(4)
                )
            flag = conserves(h, charge)
            assert flag == commutator(k, h).is_zero
            conserving += flag
            non_conserving += not flag
        assert conserving > 5 and non_conserving > 5

    def test_single_perturbing_term_detected(self, shg):
        h, charge = shg
        assert not conserves(h + monomial(Fraction(1, 7), 1, 0, 0, 0), charge)


class TestHermiticity:
    def test_shg_real_couplings(self):
        assert is_hermitian(build_shg(1, 2, 0.5, 0.5))

    def test_lone_interaction_term_not_hermitian(self):
        assert not is_hermitian(monomial(0.5, 2, 0, 0, 1))

    def test_complex_coupling_pair(self):
        h = build_shg(1, 2, complex(0, 0.5), complex(0, -0.5))
        assert is_hermitian(h)
        assert not is_hermitian(build_shg(1, 2, complex(0, 0.5), complex(0, 0.5)))

    def test_adjoint_against_reordering_oracle(self):
        # adjoint built by multiplying reversed daggered factors one by one
        rng = random.Random(7)
        for _ in range(20):
            m = random_monomial(rng)
            factors = (
                [create(1)] * m.m1
                + [annihilate(1)] * m.m2
                + [create(2)] * m.m3
                + [annihilate(2)] * m.m4
            )
            rebuilt = identity(m.coeff.conjugate())
            for factor in reversed(factors):
                rebuilt = rebuilt * factor.adjoint()
            direct = OperatorPolynomial.from_monomials([m]).adjoint()
            assert rebuilt == direct


class TestFockAction:
    def test_lowering_pair_example(self):
        # kb a2+ a1^2 sends |2,0> to kb sqrt(2) |0,1>
        h = monomial(Fraction(1, 2), 0, 2, 1, 0)
        out = apply_to_fock(h, FockState(2, 0))
        assert set(out) == {FockState(0, 1)}
        amp = out[FockState(0, 1)]
        value = complex(amp)
        assert abs(value - 0.5 * 2**0.5) < 1e-15
        # exact content: coeff * sqrt(radicand) with radicand 0!1!/2!0!
        assert amp.radicand == Fraction(1, 2)
        assert amp.coeff == RationalComplex.coerce(1)

    def test_annihilating_vacuum(self):
        assert apply_to_fock(annihilate(1), FockState(0, 0)) == {}

    def test_charge_is_diagonal(self):
        charge = ConservedCharge(1, 2)
        out = apply_to_fock(charge_operator(charge), FockState(1, 1))
        assert set(out) == {FockState(1, 1)}
        assert complex(out[FockState(1, 1)]) == 3.0

    def test_matrix_faithfulness_exact(self):
        # applying P*Q equals applying Q then P, with exact amplitudes
        rng = random.Random(13)
        for _ in range(25):
            p = OperatorPolynomial.from_monomials([random_monomial(rng)])
            q = OperatorPolynomial.from_monomials([random_monomial(rng)])
            state = FockState(rng.randint(0, 6), rng.randint(0, 6))
            combined = apply_to_fock(p * q, state)
            # coeff and radicand of every path into one target: the
            # radicands of a path's two hops multiply, and all paths into
            # one target share the radicand
            chained = {}
            for middle, amp in apply_to_fock(q, state).items():
                for target, hop in apply_to_fock(p, middle).items():
                    radicand = hop.radicand * amp.radicand
                    coeff, prev_radicand = chained.get(target, (ZERO, radicand))
                    assert prev_radicand == radicand
                    chained[target] = (coeff + hop.coeff * amp.coeff, radicand)
            assert combined == {
                t: FockAmplitude(c, r) for t, (c, r) in chained.items() if not c.is_zero
            }


# few distinct values, so that equal coefficients, zero coefficients and
# unequal radicands all come up often
small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
amplitudes = st.builds(
    FockAmplitude,
    st.one_of(st.just(ZERO), st.builds(RationalComplex, small_fractions, small_fractions)),
    st.fractions(min_value=1, max_value=3, max_denominator=2),
)


@settings(deadline=None)
@given(amplitudes, amplitudes)
@example(FockAmplitude(ZERO, Fraction(1)), FockAmplitude(ZERO, Fraction(2)))
def test_fock_amplitude_equality_agrees_with_hash(a, b):
    # equal amplitudes hash equal, so a set or dict key holds one of them
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert (a == b) == ((a.coeff, a.radicand) == (b.coeff, b.radicand))


# few keys and values, so that equal polynomials, terms that vanish and
# terms entered in another order all come up often
term_lists = st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, 1) for _ in range(4))),
        st.one_of(st.just(ZERO), st.builds(RationalComplex, small_fractions, small_fractions)),
    ),
    max_size=4,
)


@settings(deadline=None)
@given(term_lists, term_lists)
@example(  # equal, built in opposite orders, one with a vanishing term
    [((1, 0, 0, 0), RationalComplex.coerce(1)), ((0, 1, 0, 0), RationalComplex.coerce(2))],
    [((0, 0, 1, 0), ZERO), ((1, 0, 0, 0), RationalComplex.coerce(1)),
     ((0, 1, 0, 0), RationalComplex.coerce(2))],
)
def test_operator_polynomial_equality_agrees_with_hash(a_terms, b_terms):
    # equal polynomials hash equal whatever their term order, so a model
    # holding one is a set or dict key
    a, b = OperatorPolynomial(dict(a_terms)), OperatorPolynomial(dict(reversed(b_terms)))
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    nonzero_a = {k: c for k, c in dict(a_terms).items() if not c.is_zero}
    nonzero_b = {k: c for k, c in dict(reversed(b_terms)).items() if not c.is_zero}
    assert (a == b) == (nonzero_a == nonzero_b)


class TestChargeNormalization:
    def test_gcd_divided_out(self):
        charge = ConservedCharge(2, 4)
        assert (charge.s, charge.p) == (1, 2)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            ConservedCharge(0, 2)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            FockState(-1, 0)


def test_operator_algebra_demo_matches_golden():
    """demos/operator_algebra.py, the one caller of apply_to_fock outside
    the tests, prints tests/golden/demo_operator_algebra.txt byte for byte."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "operator_algebra.py")],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "golden" / "demo_operator_algebra.txt").read_bytes()
