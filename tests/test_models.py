import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

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
        assert len(model.terms) == 4
        assert model.hamiltonian() == build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))

    def test_duplicate_terms_summed(self):
        text = "charge 1 2\nterm 1/4 0 1 1 0 0\nterm 1/4 0 1 1 0 0\n"
        model = parse_model_file(text)
        assert model.terms == (
            BosonMonomial(RationalComplex.coerce(Fraction(1, 2)), 1, 1, 0, 0),
        )

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ncharge 1 2  # trailing\nterm 1 0 1 1 0 0\n"
        model = parse_model_file(text)
        assert len(model.terms) == 1

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
        coeff = model.terms[0].coeff
        assert coeff == RationalComplex(Fraction(1, 3), Fraction(-1, 4))


class TestParsedHamiltonian:
    """parse_model_file keeps the Hamiltonian it sums the terms into."""

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
        summed = OperatorPolynomial.from_monomials(model.terms)
        assert h == summed and str(h) == str(summed)
        # the same canonical term order, which the integer form reads
        assert list(h.items()) == list(summed.items())
        assert model.hamiltonian() is h

    @pytest.mark.parametrize("text", MODELS)
    def test_equality_hash_and_repr_ignore_it(self, text):
        parsed = parse_model_file(text, name="m.qesb")
        built = ModelFile(parsed.charge, parsed.terms, "m.qesb")
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert parse_model_file(write_model_file(parsed)) == ModelFile(parsed.charge, parsed.terms)
        assert built.hamiltonian() == parsed.hamiltonian()

    def test_replace_does_not_carry_it(self):
        parsed = parse_model_file(self.MODELS[0])
        other = dataclasses.replace(parsed, terms=parsed.terms[:1])
        assert other.hamiltonian() == OperatorPolynomial.from_monomials(parsed.terms[:1])


class TestSerialization:
    def test_sample_roundtrip_byte_identical(self):
        text = (SAMPLE_DIR / "shg.qesb").read_text()
        assert write_model_file(parse_model_file(text)) == text

    def test_terms_sorted_and_zero_dropped(self):
        h = monomial(1, 2, 0, 0, 1) + monomial(1, 1, 1, 0, 0) + monomial(0, 0, 0, 1, 1)
        model = ModelFile(ConservedCharge(1, 2), h.monomials())
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
            from qesboson import OperatorPolynomial

            h = OperatorPolynomial.from_monomials(monos)
            if h.is_zero:
                continue
            model = ModelFile(
                ConservedCharge(rng.randint(1, 6), rng.randint(1, 6)), h.monomials()
            )
            again = parse_model_file(write_model_file(model))
            assert again.charge == model.charge
            assert again.terms == model.terms
