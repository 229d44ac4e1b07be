"""Catalog Hamiltonians and the line-oriented model file format.

File format (UTF-8, '#' comments, blank lines and a leading byte-order
mark ignored):

    # qesb v1
    charge <s:int> <p:int>
    term <re> <im> <m1> <m2> <m3> <m4>

Coefficients are read exactly in Fraction's string grammar: integers
("-3", "1_000"), ratios with an unsigned denominator ("1/3", not
"1/-3") and decimals ("0.25", "1e-3").  Duplicate exponent tuples are
summed on load, and writing emits a canonical form: version header,
charge line, then terms sorted ascending by exponent tuple with zero
coefficients omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ConservedCharge, OperatorPolynomial
from .errors import InvalidOrder, ParseError
from .exact import Rationalish, RationalComplex

FORMAT_HEADER = "# qesb v1"


def build_shg(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
) -> OperatorPolynomial:
    """Two-photon down/up-conversion model (second-harmonic generation).

    w1 N1 + w2 N2 + kc (a1+)^2 a2 + kb a2+ (a1)^2; conserves N1 + 2 N2.
    """
    return build_nth_harmonic(omega1, omega2, kappa_c, kappa_bar, 2)


def build_nth_harmonic(
    omega1: Rationalish,
    omega2: Rationalish,
    kappa_c: Rationalish,
    kappa_bar: Rationalish,
    n: int,
) -> OperatorPolynomial:
    """n-quantum exchange model: n mode-1 quanta trade against one of mode 2.

    w1 N1 + w2 N2 + kc (a1+)^n a2 + kb a2+ (a1)^n; conserves N1 + n N2.
    Raises InvalidOrder for n < 1.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
    return OperatorPolynomial({
        (1, 1, 0, 0): RationalComplex.coerce(omega1),
        (0, 0, 1, 1): RationalComplex.coerce(omega2),
        (n, 0, 0, 1): RationalComplex.coerce(kappa_c),
        (0, n, 1, 0): RationalComplex.coerce(kappa_bar),
    })


def shg_charge() -> ConservedCharge:
    return ConservedCharge(1, 2)


@dataclass(frozen=True)
class ModelFile:
    """Parsed model: charge plus the Hamiltonian its terms sum to.

    The optional name is an in-memory label only; the file format carries
    no name directive.
    """

    charge: ConservedCharge
    h: OperatorPolynomial
    name: str | None = None

    def hamiltonian(self) -> OperatorPolynomial:
        return self.h


def _parse_fraction(token: str, line_no: int, what: str) -> Fraction:
    num, slash, den = token.partition("/")
    try:
        try:
            # int reads what Fraction reads of an integer, and of each side of
            # a slash between digits ("1 /2" and "1/-2" are Fraction's to refuse)
            if slash and num[-1:].isdecimal() and den[:1].isdecimal():
                return Fraction(int(num), int(den))
            return Fraction(int(token))
        except ValueError:  # decimals, exponents and every refusal
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"non-numeric {what} {token!r}") from None


def _parse_exponent(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"non-integer exponent {token!r}") from None
    if value < 0:
        raise ParseError(line_no, f"negative exponent {value}")
    return value


def parse_model_file(text: str, name: str | None = None) -> ModelFile:
    """Parse the line format into the charge and the summed Hamiltonian,
    labelling the model name; one leading byte-order mark is dropped, and
    unknown directives are rejected."""
    charge: ConservedCharge | None = None
    terms: dict[tuple[int, int, int, int], RationalComplex] = {}
    for line_no, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        directive = fields[0]
        if directive == "charge":
            if charge is not None:
                raise ParseError(line_no, "duplicate charge line")
            if len(fields) != 3:
                raise ParseError(line_no, "charge line needs exactly 2 integers")
            try:
                s, p = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(line_no, "charge weights must be integers") from None
            if s < 1 or p < 1:
                raise ParseError(line_no, "charge weights must be positive")
            charge = ConservedCharge(s, p)
        elif directive == "term":
            if len(fields) != 7:
                raise ParseError(
                    line_no, f"term line needs 6 fields, got {len(fields) - 1}"
                )
            re = _parse_fraction(fields[1], line_no, "real part")
            im = _parse_fraction(fields[2], line_no, "imaginary part")
            try:
                exps = tuple(map(int, fields[3:]))
                if min(exps) < 0:
                    raise ValueError
            except ValueError:  # _parse_exponent words the first bad token
                exps = tuple(_parse_exponent(tok, line_no) for tok in fields[3:])
            coeff = RationalComplex(re, im)
            prev = terms.get(exps)
            terms[exps] = coeff if prev is None else prev + coeff
        else:
            raise ParseError(line_no, f"unknown directive {directive!r}")
    if charge is None:
        raise ParseError(0, "missing charge line")
    # canonical term order: the routes read h's terms in this order
    return ModelFile(charge, OperatorPolynomial(dict(sorted(terms.items()))), name)


def write_model_file(model: ModelFile) -> str:
    """Canonical serialization; parse(write(m)) == m up to the name label."""
    lines = [FORMAT_HEADER, f"charge {model.charge.s} {model.charge.p}"]
    h = model.hamiltonian()
    for mono in h.monomials():
        lines.append(
            f"term {mono.coeff.re} {mono.coeff.im}"
            f" {mono.m1} {mono.m2} {mono.m3} {mono.m4}"
        )
    return "\n".join(lines) + "\n"
