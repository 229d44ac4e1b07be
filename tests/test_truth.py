"""Exit 0 implies correct digits: every spectrum the CLI prints with exit 0
lies within its --tol of a reference that shares no code with either route.

The reference assembles the exact rational reduced block R[i, j] of the
model's terms here, in Fraction arithmetic, straight from the definition
(coeff * (n)_m2 * (n2)_m4 at row n - m2 + m1), and takes its eigenvalues
with mpmath at 50 digits.  R is isospectral to the Fock block, so it is the
truth for the oracle's eigenvalues as well as for the reduced route's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import spectral_deviation

from qesboson import (
    BosonMonomial,
    ConservedCharge,
    OperatorPolynomial,
    RationalComplex,
    cli,
)
from qesboson.models import ModelFile, write_model_file

TOL = 1e-9  # the CLI's default --tol, passed explicitly below
MAX_DIM = 10
CHARGES = [(s, p) for s in (1, 2, 3) for p in (1, 2, 3) if math.gcd(s, p) == 1]

small = st.integers(-4, 4)
rationals = st.builds(Fraction, small, st.sampled_from((1, 2, 3, 7)))
# tiny couplings split degenerate levels by little: near-degenerate spectra
tiny = st.builds(Fraction, st.sampled_from((-1, 1)), st.sampled_from((10**4, 10**8)))
couplings = st.one_of(rationals, tiny)


def coefficients(real: bool):
    parts = st.tuples(couplings, st.just(Fraction(0)) if real else couplings)
    return parts.map(lambda pair: RationalComplex(*pair))


@st.composite
def conserving_models(draw):
    """(h, charge, kappa): a diagonal part, either a multiple of the charge
    (every level of a block degenerate, so the couplings alone split them)
    or random number-operator terms, plus one to three conserving couplings.
    Hermitian models are (h + h^dagger) / 2; raw ones keep each coupling
    without its partner, which makes products b_i c_i exactly zero."""
    s, p = draw(st.sampled_from(CHARGES))
    charge = ConservedCharge(s, p)
    real = draw(st.booleans())
    monomials = []
    if draw(st.booleans()):
        w = draw(rationals)
        monomials += [
            BosonMonomial(RationalComplex(w * s), 1, 1, 0, 0),
            BosonMonomial(RationalComplex(w * p), 0, 0, 1, 1),
        ]
    else:
        for key in draw(st.lists(st.sampled_from(
            ((1, 1, 0, 0), (0, 0, 1, 1), (2, 2, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0))
        ), max_size=3, unique=True)):
            monomials.append(BosonMonomial(RationalComplex(draw(rationals)), *key))
    for _ in range(draw(st.integers(1, 3))):
        # a conserving term moves n1 by p*t and n2 by -s*t
        t = draw(st.sampled_from((-2, -1, 1, 2) if s * p <= 2 else (-1, 1)))
        a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        exponents = (a + max(p * t, 0), a + max(-p * t, 0), b + max(-s * t, 0), b + max(s * t, 0))
        monomials.append(BosonMonomial(draw(coefficients(real)), *exponents))
    h = OperatorPolynomial.from_monomials(monomials)
    if draw(st.booleans()):
        h = (h + h.adjoint()) * Fraction(1, 2)
    dim = draw(st.integers(2, MAX_DIM))
    kappas = [k for k in range(s * p * MAX_DIM) if len(_degrees(charge, k)) == dim]
    return h, charge, draw(st.sampled_from(kappas))


def _degrees(charge: ConservedCharge, kappa: int) -> list[int]:
    return [n for n in range(kappa // charge.s + 1) if (kappa - charge.s * n) % charge.p == 0]


def _falling(x: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= x - i
    return out


def reference_spectrum(h: OperatorPolynomial, charge: ConservedCharge, kappa: int) -> np.ndarray:
    """Eigenvalues of the exact reduced block, by mpmath at 50 digits.

    The block is first split, on its exact nonzero pattern, into the
    diagonal blocks of its block-triangular form (the strongly connected
    components of its graph), whose spectra together are the block's.  A
    one-way coupling makes the block triangular: its eigenvalues are then
    exactly the diagonal, where a dense solve of the defective whole would
    lose all but 50/k digits to a Jordan chain of length k.
    """
    degrees = _degrees(charge, kappa)
    pos = {n: i for i, n in enumerate(degrees)}
    d = len(degrees)
    entries: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for j, n in enumerate(degrees):
        n2 = (kappa - charge.s * n) // charge.p
        for (m1, m2, _, m4), coeff in h.items():
            weight = _falling(n, m2) * _falling(n2, m4)
            if weight:
                i = pos[n - m2 + m1]
                re, im = entries.get((i, j), (Fraction(0), Fraction(0)))
                entries[(i, j)] = (re + coeff.re * weight, im + coeff.im * weight)
    entries = {k: v for k, v in entries.items() if any(v)}
    # reach[i][j]: j is reachable from i along nonzero entries
    reach = [[i == j or (i, j) in entries for j in range(d)] for i in range(d)]
    for k in range(d):
        for i in range(d):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    components = {tuple(j for j in range(d) if reach[i][j] and reach[j][i]) for i in range(d)}
    values = []
    with mpmath.workdps(50):
        for component in components:
            matrix = mpmath.matrix(len(component), len(component))
            for a, i in enumerate(component):
                for b, j in enumerate(component):
                    re, im = entries.get((i, j), (Fraction(0), Fraction(0)))
                    matrix[a, b] = mpmath.mpc(
                        mpmath.mpf(re.numerator) / re.denominator,
                        mpmath.mpf(im.numerator) / im.denominator,
                    )
            if len(component) == 1:
                values.append(matrix[0, 0])
            else:
                values += mpmath.eig(matrix, left=False, right=False)
        return np.array([complex(v) for v in values])


def test_exit_zero_means_correct_digits():
    outcomes: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.qesb"

        @settings(
            max_examples=200,
            derandomize=True,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        )
        @given(model=conserving_models())
        def check(model):
            h, charge, kappa = model
            path.write_text(write_model_file(ModelFile(charge, h)))
            argv = ["spectrum", str(path), "--kappa", str(kappa), "--method", "both",
                    "--tol", repr(TOL)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            outcomes[code] += 1
            assert code in (0, 4)
            if code:
                return
            payload = json.loads(out.getvalue())
            truth = reference_spectrum(h, charge, kappa)
            for route in ("oracle", "reduced"):
                printed = np.array([complex(re, im) for re, im in payload[route]])
                assert spectral_deviation(printed, truth) <= TOL, (route, h, charge, kappa)

        check()
    total = sum(outcomes.values())
    print(f"truth test: {outcomes[4]} of {total} requests refused (exit 4)")
