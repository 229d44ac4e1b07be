import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_coeff
from qesboson import (
    BosonMonomial,
    ConservedCharge,
    InvalidOrder,
    ModelFile,
    OperatorPolynomial,
    ParseError,
    RationalComplex,
    block_spectrum,
    build_nth_harmonic,
    build_shg,
    conserves,
    monomial,
    parse_model_file,
    shg_charge,
    write_model_file,
)
from qesboson.models import _parse_fraction

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "models"


class TestBuilders:
    def test_shg_terms(self):
        h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
        assert h.coefficient(1, 1, 0, 0) == RationalComplex.coerce(1)
        assert h.coefficient(0, 0, 1, 1) == RationalComplex.coerce(2)
        assert h.coefficient(2, 0, 0, 1) == RationalComplex.coerce(Fraction(1, 2))
        assert h.coefficient(0, 2, 1, 0) == RationalComplex.coerce(Fraction(1, 2))
        assert len(h.monomials()) == 4

    def test_shg_conserves_its_charge(self):
        h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
        assert conserves(h, shg_charge())
        assert not conserves(h, ConservedCharge(1, 3))

    def test_hermitian_for_conjugate_pair(self):
        from qesboson import is_hermitian

        assert is_hermitian(build_shg(1, 2, Fraction(1, 2), Fraction(1, 2)))

    def test_n2_equals_shg(self):
        a = build_nth_harmonic(3, 5, Fraction(1, 3), Fraction(1, 3), 2)
        b = build_shg(3, 5, Fraction(1, 3), Fraction(1, 3))
        assert a == b

    def test_n3_conserves_1_3(self):
        h = build_nth_harmonic(1, 2, Fraction(1, 2), Fraction(1, 2), 3)
        assert conserves(h, ConservedCharge(1, 3))

    def test_catalog_fails_perturbed_charge(self):
        for n in (1, 2, 3, 4):
            h = build_nth_harmonic(1, 2, Fraction(1, 2), Fraction(1, 2), n)
            charge = ConservedCharge(1, n)
            assert conserves(h, charge)
            assert not conserves(h, ConservedCharge(charge.s, charge.p + 1))

    def test_linear_coupler_closed_form(self):
        # n = 1: block kappa=1 is 2x2 with (w1+w2)/2 +- sqrt((w1-w2)^2/4 + k^2)
        w1, w2, k = 1.0, 3.0, 0.75
        h = build_nth_harmonic(w1, w2, k, k, 1)
        report = block_spectrum(h, ConservedCharge(1, 1), 1)
        mid = (w1 + w2) / 2
        split = np.sqrt((w1 - w2) ** 2 / 4 + k**2)
        assert np.allclose(
            [v.real for v in report.eigenvalues], [mid - split, mid + split]
        )

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            build_nth_harmonic(1, 2, 0.5, 0.5, 0)


class TestParsing:
    def test_sample_file(self):
        model = parse_model_file((SAMPLE_DIR / "shg.qesb").read_text())
        assert (model.charge.s, model.charge.p) == (1, 2)
        assert len(model.h.monomials()) == 4
        assert model.hamiltonian() == build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))

    def test_duplicate_terms_summed(self):
        text = "charge 1 2\nterm 1/4 0 1 1 0 0\nterm 1/4 0 1 1 0 0\n"
        model = parse_model_file(text)
        assert model.h.monomials() == (
            BosonMonomial(RationalComplex.coerce(Fraction(1, 2)), 1, 1, 0, 0),
        )

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ncharge 1 2  # trailing\nterm 1 0 1 1 0 0\n"
        model = parse_model_file(text)
        assert len(model.h.monomials()) == 1

    def test_arity_error(self):
        with pytest.raises(ParseError) as err:
            parse_model_file("charge 1 2\nterm 1 0 1 1 0\n")
        assert err.value.line_no == 2
        assert "6 fields" in err.value.reason

    def test_negative_exponent(self):
        with pytest.raises(ParseError) as err:
            parse_model_file("charge 1 2\nterm 1 0 1 -1 0 0\n")
        assert "negative exponent" in err.value.reason

    def test_bad_coefficient(self):
        with pytest.raises(ParseError) as err:
            parse_model_file("charge 1 2\nterm x 0 1 1 0 0\n")
        assert "non-numeric" in err.value.reason

    def test_missing_charge(self):
        with pytest.raises(ParseError) as err:
            parse_model_file("term 1 0 1 1 0 0\n")
        assert "missing charge" in err.value.reason

    def test_duplicate_charge(self):
        with pytest.raises(ParseError):
            parse_model_file("charge 1 2\ncharge 1 2\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_model_file("charge 1 2\nfrobnicate 1\n")
        assert "unknown directive" in err.value.reason

    def test_leading_byte_order_mark_dropped(self):
        text = (SAMPLE_DIR / "shg.qesb").read_text(encoding="utf-8")
        model = parse_model_file("\ufeff" + text, name="shg.qesb")
        assert model == parse_model_file(text, name="shg.qesb")
        assert model.hamiltonian() == parse_model_file(text).hamiltonian()

    @pytest.mark.parametrize("text", [
        "\ufeff\ufeffcharge 1 2\n",  # only one mark is dropped
        "charge 1 2\n\ufeffterm 1 0 1 1 0 0\n",  # and only at the start of the file
        " \ufeffcharge 1 2\n",
    ])
    def test_other_byte_order_marks_refused(self, text):
        with pytest.raises(ParseError) as err:
            parse_model_file(text)
        assert "unknown directive" in err.value.reason

    def test_rational_and_decimal_literals(self):
        model = parse_model_file(
            "charge 1 2\nterm 1/3 -0.25 1 1 0 0\n"
        )
        coeff = model.h.coefficient(1, 1, 0, 0)
        assert coeff == RationalComplex(Fraction(1, 3), Fraction(-1, 4))


class TestParsedHamiltonian:
    """parse_model_file sums the terms into the one Hamiltonian it keeps."""

    MODELS = (
        (SAMPLE_DIR / "shg.qesb").read_text(),
        (SAMPLE_DIR / "trilinear3.qesb").read_text(),
        "charge 1 2\nterm 1/3 -1/7 2 0 0 1\nterm 2 1/3 0 0 1 1\nterm 1 0 1 1 0 0\n"
        "term 1/2 1/5 0 2 1 0\nterm 1/4 0 0 0 1 1\nterm 5 0 3 3 0 0\nterm -5 0 3 3 0 0\n",
    )

    @pytest.mark.parametrize("text", MODELS)
    def test_hamiltonian_is_the_sum_of_the_terms(self, text):
        model = parse_model_file(text, name="m.qesb")
        h = model.hamiltonian()
        summed = OperatorPolynomial.from_monomials(
            BosonMonomial(RationalComplex(Fraction(re), Fraction(im)), *map(int, exps))
            for _, re, im, *exps in (
                line.split() for line in text.splitlines() if line.startswith("term")
            )
        )
        assert h is model.h
        assert h == summed and str(h) == str(summed)
        # in canonical term order, which the integer form reads
        assert list(h.items()) == sorted(summed.items())

    @pytest.mark.parametrize("text", MODELS)
    def test_equal_models_hash_equal(self, text):
        parsed = parse_model_file(text, name="m.qesb")
        # the same terms entered in the opposite order
        reordered = OperatorPolynomial(dict(reversed(list(parsed.h.items()))))
        built = ModelFile(parsed.charge, reordered, "m.qesb")
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert parse_model_file(write_model_file(parsed)) == ModelFile(parsed.charge, parsed.h)
        assert built.hamiltonian() == parsed.hamiltonian()


# few exponents, so that duplicate exponent lines, some of which cancel,
# come up often
term_lines = st.lists(
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.tuples(*(st.integers(0, 2) for _ in range(4))),
    ),
    max_size=8,
)


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), term_lines)
@example(1, 2, [(Fraction(1), Fraction(0), (1, 1, 0, 0)), (Fraction(-1), Fraction(0), (1, 1, 0, 0))])
def test_parse_write_parse_round_trip(s, p, lines):
    text = f"charge {s} {p}\n" + "".join(
        f"term {re} {im} {' '.join(map(str, exps))}\n" for re, im, exps in lines
    )
    parsed = parse_model_file(text)
    summed = OperatorPolynomial.from_monomials(
        BosonMonomial(RationalComplex(re, im), *exps) for re, im, exps in lines
    )
    assert parsed == ModelFile(ConservedCharge(s, p), summed)
    again = parse_model_file(write_model_file(parsed))
    assert again == parsed and hash(again) == hash(parsed)
    assert write_model_file(again) == write_model_file(parsed)


# pieces of coefficient literals, drawn often: signs, slashes, underscores,
# decimal points, exponents, whitespace, and digits int and Fraction read
# (Arabic-Indic, fullwidth) or both refuse (superscript two)
LITERAL_PIECES = st.sampled_from([
    "-", "+", "/", "_", ".", "e", "E", " ", "\t", "\u00a0",
    "0", "1", "7", "10", "\u0663", "\uff12", "\u00b2", "x",
])
literal_tokens = st.one_of(
    st.lists(LITERAL_PIECES, max_size=8).map("".join),
    st.builds("{}/{}{}".format, st.integers(-9, 9), st.sampled_from(["", "-", "+", " "]),
              st.integers(0, 9)),
    st.text(max_size=6),
)


@settings(max_examples=600)
@given(literal_tokens)
@example("1/-2")
@example("1/+2")
@example("1 /2")
@example("1/ 2")
@example(" -3/4 ")
@example("1_0/2_0")
@example("1_/2")
@example("1/0")
@example("\u0663/\u0662")
@example("1" * 5000)
def test_parse_fraction_is_fraction(token):
    """Same value as Fraction(token), or a refusal where Fraction refuses."""
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        value = _parse_fraction(token, 3, "real part")
    except ParseError as err:
        assert expected is None
        assert (err.line_no, err.reason) == (3, f"non-numeric real part {token!r}")
    else:
        assert type(value) is Fraction and value == expected


def int_exponents(tokens):
    """What parse_model_file read from four exponent tokens when it took
    int() of each in turn: the tuple, or the reason for the first bad one."""
    values = []
    for tok in tokens:
        try:
            value = int(tok)
        except ValueError:
            return f"non-integer exponent {tok!r}"
        if value < 0:
            return f"negative exponent {value}"
        values.append(value)
    return tuple(values)


EXPONENT_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.lists(st.sampled_from(["-", "+", "_", "0", "1", "2", "\u0663", "\u00b2", ".", "x"]),
             min_size=1, max_size=4).map("".join),
)


@given(st.lists(EXPONENT_TOKENS, min_size=4, max_size=4))
@example(["1", "-1", "x", "0"])
@example(["x", "-1", "0", "0"])
@example(["+1", "1_0", "\u0663", "-0"])
def test_term_exponents_parse_as_int(tokens):
    expected = int_exponents(tokens)
    try:
        model = parse_model_file(f"charge 1 1\nterm 1 0 {' '.join(tokens)}\n")
    except ParseError as err:
        assert (err.line_no, err.reason) == (2, expected)
    else:
        assert [(m.m1, m.m2, m.m3, m.m4) for m in model.h.monomials()] == [expected]


class TestSerialization:
    def test_sample_roundtrip_byte_identical(self):
        text = (SAMPLE_DIR / "shg.qesb").read_text()
        assert write_model_file(parse_model_file(text)) == text

    def test_terms_sorted_and_zero_dropped(self):
        h = monomial(1, 2, 0, 0, 1) + monomial(1, 1, 1, 0, 0) + monomial(0, 0, 0, 1, 1)
        model = ModelFile(ConservedCharge(1, 2), h)
        text = write_model_file(model)
        lines = [l for l in text.splitlines() if l.startswith("term")]
        assert lines == ["term 1 0 1 1 0 0", "term 1 0 2 0 0 1"]

    def test_random_roundtrip(self):
        rng = random.Random(17)
        for _ in range(40):
            monos = [
                BosonMonomial(
                    random_coeff(rng),
                    rng.randint(0, 5),
                    rng.randint(0, 5),
                    rng.randint(0, 5),
                    rng.randint(0, 5),
                )
                for _ in range(rng.randint(1, 6))
            ]
            h = OperatorPolynomial.from_monomials(monos)
            if h.is_zero:
                continue
            model = ModelFile(ConservedCharge(rng.randint(1, 6), rng.randint(1, 6)), h)
            again = parse_model_file(write_model_file(model))
            assert again.charge == model.charge
            assert again.h.monomials() == model.h.monomials()
