import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

from conftest import random_coeff
from qesboson import (
    ConventionMismatch,
    RationalComplex,
    build_shg,
    check_gauge_identity,
    constant_shift_match,
    fd_spectrum,
    gauge_superpotential,
    qes_spectrum,
    sextic_potential,
    shg_charge,
)
from qesboson import sextic
from qesboson.sextic import second_derivative


class TestSuperpotential:
    def test_reference_values(self):
        w = gauge_superpotential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert w.inverse_coeff == RationalComplex.coerce(2)
        assert w.linear_coeff == RationalComplex.coerce(0)
        assert w.cubic_coeff == RationalComplex.coerce(Fraction(-1, 16))
        assert w(2.0) == pytest.approx(2 / 2.0 - 8 / 16)

    def test_only_cubic_survives(self):
        w = gauge_superpotential(1, 2, Fraction(1, 2), Fraction(1, 2), 0)
        assert w.inverse_coeff.is_zero and w.linear_coeff.is_zero
        assert not w.cubic_coeff.is_zero

    def test_negative_level_rejected(self):
        for build in (gauge_superpotential, sextic_potential):
            with pytest.raises(ValueError, match="k must be non-negative"):
                build(1, 2, Fraction(1, 2), Fraction(1, 2), -1)

    def test_no_cubic_without_both_couplings(self):
        w = gauge_superpotential(1, 3, 0, Fraction(1, 2), 2)
        assert w.cubic_coeff.is_zero


class TestSexticPotential:
    def test_reference_values(self):
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert pot.c0 == RationalComplex.coerce(4)
        assert pot.c2 == RationalComplex.coerce(Fraction(-7, 16))
        assert pot.c4 == RationalComplex.coerce(0)
        assert pot.c6 == RationalComplex.coerce(Fraction(1, 256))

    def test_degenerate_frequency_kills_c4(self):
        pot = sextic_potential(1, 2, Fraction(1, 3), Fraction(1, 5), 3)
        assert pot.c4.is_zero

    def test_zero_coupling(self):
        pot = sextic_potential(1, 3, 0, Fraction(1, 2), 1)
        assert pot.c2 == RationalComplex.coerce(Fraction(1, 16))
        assert pot.c4.is_zero and pot.c6.is_zero

    def test_coefficients_against_superpotential_identity(self):
        # independent oracle: the potential is W^2 + W' + k w1 - k(k-1)/y^2
        # (an exact Laurent identity), with the quoted c0 one mode-2
        # frequency above the identity's constant term
        rng = random.Random(29)
        for _ in range(50):
            w1 = random_coeff(rng)
            w2 = random_coeff(rng)
            kc = random_coeff(rng)
            kb = random_coeff(rng)
            k = rng.randint(0, 6)
            wpot = gauge_superpotential(w1, w2, kc, kb, k)
            a, b, c = wpot.inverse_coeff, wpot.linear_coeff, wpot.cubic_coeff
            # Laurent coefficients of W^2 + W' + k w1 - k(k-1)/y^2
            inv_y2 = a * a - a - RationalComplex.coerce(k * (k - 1))
            const = 2 * a * b + b + w1 * k
            y2 = b * b + 2 * a * c + 3 * c
            y4 = 2 * b * c
            y6 = c * c
            pot = sextic_potential(w1, w2, kc, kb, k)
            assert inv_y2.is_zero
            assert pot.c0 - w2 == const
            assert pot.c2 == y2
            assert pot.c4 == y4
            assert pot.c6 == y6

    def test_grid_potential_rescaling(self):
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        v = pot.grid_potential()
        x = 1.3
        assert v(x) == pytest.approx(pot(math.sqrt(2) * x))


class TestGaugeIdentity:
    def test_residual_small_for_low_levels(self):
        for k in range(4):
            result = check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), k)
            assert result.residual <= 1e-6
            conv = result.convention
            # resolved convention: unit-mass kinetic term, quoted constant
            # sits one mode-2 frequency above the conjugated operator
            assert conv.kinetic == 1.0
            assert conv.w_sign * conv.exponent_sign == 1
            assert abs(conv.shift - 2.0) <= 1e-6

    def test_all_conventions_reported(self):
        result = check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), 1)
        assert len(result.tried) == 8
        assert result.residual == min(result.tried.values())

    def test_mismatch_raised_when_tolerance_unreachable(self):
        with patch.object(sextic, "GAUGE_TOLERANCE", 1e-30), pytest.raises(
            ConventionMismatch
        ) as err:
            check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert len(err.value.residuals) == 8

    def test_residual_wrapper(self):
        assert check_gauge_identity(1, 2, 0.5, 0.5, 0).residual <= 1e-6

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            check_gauge_identity(1, 2, 0.5, 0, 1)

    def test_stencil_accuracy(self):
        # pure-kinetic degenerate case: the error is differentiation error
        got = second_derivative(math.sin, 1.0, 1e-3)
        assert abs(got + math.sin(1.0)) <= 1e-8


class TestFdSpectrum:
    def test_harmonic_oscillator_levels(self):
        vals = fd_spectrum(lambda y: y**2 / 2, 10.0, 2000)
        assert np.allclose(vals, np.arange(5) + 0.5, atol=1e-3)

    def test_second_order_convergence(self):
        exact = np.arange(5) + 0.5
        coarse = fd_spectrum(lambda y: y**2 / 2, 10.0, 500)
        fine = fd_spectrum(lambda y: y**2 / 2, 10.0, 1000)
        ratio = np.abs(coarse - exact) / np.abs(fine - exact)
        assert np.all((3.5 <= ratio) & (ratio <= 4.5))

    def test_confining_even_potential_monotone_nondegenerate(self):
        # c4 = 0, c2 > 0, c6 > 0: spectrum strictly increasing
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(-1, 2), 1)
        c0, c2, c4, c6 = pot.real_coeffs()
        assert c4 == 0 and c2 > 0 and c6 > 0
        vals = fd_spectrum(pot, 8.0, 1500)
        assert np.all(np.diff(vals) > 1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fd_spectrum(lambda y: y**2, -1.0, 100)
        with pytest.raises(ValueError):
            fd_spectrum(lambda y: y**2, 1.0, 2)
        for halfwidth in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="halfwidth must be finite and positive"):
                fd_spectrum(lambda y: y**2, halfwidth, 100)


def test_block_levels_inside_sextic_spectrum():
    # the finite-difference sextic spectrum contains the block energies up
    # to one constant shift (measured, close to the mode-2 frequency)
    h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
    levels = qes_spectrum(h, shg_charge(), 2)
    reference = np.array([v.real for v in levels.eigenvalues])
    pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
    fd_levels = fd_spectrum(pot, 6.0, 4000)
    shift, max_dev = constant_shift_match(fd_levels, reference)
    assert max_dev <= 1e-3
    assert abs(shift - 2.0) <= 1e-3
