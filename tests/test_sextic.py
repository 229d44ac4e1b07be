import dataclasses
import math
import random
import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_coeff
from qesboson import (
    ConventionMismatch,
    NumericalFailure,
    RationalComplex,
    build_shg,
    check_gauge_identity,
    fd_spectrum,
    gauge_superpotential,
    oscillator_levels,
    qes_spectrum,
    sextic_potential,
    shg_charge,
)
from qesboson import sextic
from qesboson._lapack import lowest_eigenvalues
from qesboson.sextic import LEVEL_TOL
from qesboson.reduction import shg_ode

RESOLVED = (1, 1, 1.0)  # (w_sign, exponent_sign, kinetic) the check reports

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=50)


class TestSuperpotential:
    def test_reference_values(self):
        w = gauge_superpotential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert w.inverse_coeff == RationalComplex.coerce(2)
        assert w.linear_coeff == RationalComplex.coerce(0)
        assert w.cubic_coeff == RationalComplex.coerce(Fraction(-1, 16))

    def test_only_cubic_survives(self):
        w = gauge_superpotential(1, 2, Fraction(1, 2), Fraction(1, 2), 0)
        assert w.inverse_coeff.is_zero and w.linear_coeff.is_zero
        assert not w.cubic_coeff.is_zero

    def test_negative_level_rejected(self):
        # the gauge check, which needs kappa_bar != 0, refuses k < 0 first
        for build in (gauge_superpotential, sextic_potential, check_gauge_identity):
            with pytest.raises(ValueError, match="k must be non-negative"):
                build(1, 2, Fraction(1, 2), 0, -1)

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
        c0, c2, c4, c6 = pot.real_coeffs()
        y = math.sqrt(2) * 1.3
        assert pot.grid_potential()(1.3) == pytest.approx(c0 + c2 * y**2 + c4 * y**4 + c6 * y**6)


def assert_exact_shift(w1, w2, kc, kb, k):
    result = check_gauge_identity(w1, w2, kc, kb, k)
    conv = result.convention
    # resolved convention: unit-mass kinetic term, quoted constant sits
    # exactly one mode-2 frequency above the conjugated operator
    assert result.residual == 0.0
    assert (conv.w_sign, conv.exponent_sign, conv.kinetic) == RESOLVED
    assert conv.shift == float(w2)
    assert len(result.tried) == 8
    # w_sign and exponent_sign enter only through their product, and not at
    # all when W = k/y + (w2 - 2 w1) y / 4 - kc kb y^3 / 4 vanishes identically
    exact = [key for key, r in result.tried.items() if r == 0.0]
    if k == 0 and w2 == 2 * w1 and kc * kb == 0:
        assert exact == [RESOLVED, (1, -1, 1.0), (-1, 1, 1.0), (-1, -1, 1.0)]
    else:
        assert exact == [RESOLVED, (-1, -1, 1.0)]
    assert all(r in (0.0, math.inf) for r in result.tried.values())
    # the W and V the identity holds for are the public builders'
    assert result.superpotential == gauge_superpotential(w1, w2, kc, kb, k)
    assert result.potential == sextic_potential(w1, w2, kc, kb, k)


class TestGaugeIdentity:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 100, 500, 10**6])
    def test_shift_is_exactly_w2(self, k):
        assert_exact_shift(1, 2, Fraction(1, 2), Fraction(1, 2), k)

    def test_negative_kappa_bar(self):
        for k in (0, 3, 7):
            assert_exact_shift(1, 2, Fraction(1, 2), Fraction(-1, 2), k)

    def test_generic_rational_couplings(self):
        for k in (0, 1, 5):
            assert_exact_shift(Fraction(3, 7), Fraction(5, 3), Fraction(-2, 9), Fraction(4, 11), k)

    @settings(deadline=None)
    @given(
        w1=rationals,
        w2=rationals,
        kc=rationals,
        kb=rationals.filter(lambda q: q != 0),
        k=st.integers(min_value=0, max_value=50),
    )
    @example(w1=Fraction(0), w2=Fraction(0), kc=Fraction(0), kb=Fraction(1), k=0)  # W = 0
    def test_shift_is_w2_for_random_couplings(self, w1, w2, kc, kb, k):
        assert_exact_shift(w1, w2, kc, kb, k)

    def test_all_conventions_reported(self):
        result = check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), 1)
        assert len(result.tried) == 8
        assert result.residual == min(result.tried.values())

    def test_mismatch_raised_when_no_convention_holds(self):
        real_potential = sextic.sextic_potential

        def perturbed(*args):
            pot = real_potential(*args)
            return dataclasses.replace(pot, c2=pot.c2 + 1)

        with patch.object(sextic, "sextic_potential", perturbed), pytest.raises(
            ConventionMismatch
        ) as err:
            check_gauge_identity(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        assert len(err.value.residuals) == 8
        assert all(r == math.inf for r in err.value.residuals.values())

    def test_shift_beyond_double_range_is_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="exceeds double range"):
            check_gauge_identity(1, Fraction(10**400), Fraction(1, 2), Fraction(1, 2), 1)

    def test_residual_wrapper(self):
        assert check_gauge_identity(1, 2, 0.5, 0.5, 0).residual == 0.0

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            check_gauge_identity(1, 2, 0.5, 0, 1)


# Laurent polynomials in y as {exponent: Fraction}, independent of the
# integer-numerator arithmetic check_gauge_identity runs on
def laurent_product(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def laurent_derivative(p):
    return {e - 1: e * c for e, c in p.items() if e}


def laurent_combination(*terms):
    """sum of scale * p over the (scale, p) terms, zero coefficients dropped."""
    out = {}
    for scale, p in terms:
        for e, c in p.items():
            out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def laurent_in_y(poly, z_coeff):
    """poly(z) at z = z_coeff / y^2, for a polynomial with real coefficients."""
    return {-2 * j: c.re * z_coeff**j for j, c in enumerate(poly.coeffs)}


def full_convention_search(w1, w2, kc, kb, k):
    """check_gauge_identity's (tried, exact shift per (s, kin) that holds),
    with f2, f1 and f0 evaluated in full under all four (sign, kinetic)
    conventions; W and V come from the module's builders, patched or not."""
    ode = shg_ode(w1, w2, kc, kb, k)
    w = sextic.gauge_superpotential(w1, w2, kc, kb, k)
    pot = sextic.sextic_potential(w1, w2, kc, kb, k)
    z_coeff = -1 / Fraction(kb)
    dz = laurent_derivative({-2: z_coeff})
    sup = {-1: w.inverse_coeff.re, 1: w.linear_coeff.re, 3: w.cubic_coeff.re}
    c3_z3 = {-6: ode.c3.re * z_coeff**3}
    potential = {0: pot.c0.re, 2: pot.c2.re, 4: pot.c4.re, 6: pot.c6.re}
    c1, c0 = laurent_in_y(ode.c1, z_coeff), laurent_in_y(ode.c0, z_coeff)
    shifts = {}
    for sign in (1, -1):
        for kinetic in (1.0, 0.5):
            kin = Fraction(kinetic)
            f2 = laurent_combination((-kin, laurent_product(dz, dz)), (-1, c3_z3))
            f1 = laurent_combination(
                (-kin, laurent_derivative(dz)),
                (-2 * sign * kin, laurent_product(sup, dz)),
                (-1, c1),
            )
            f0 = laurent_combination(
                (1, potential), (-sign * kin, laurent_derivative(sup)),
                (-kin, laurent_product(sup, sup)), (-1, c0),
            )
            if not f2 and not f1 and f0.keys() <= {0}:
                shifts[(sign, kinetic)] = f0.get(0, Fraction(0))
    tried = {
        (w_sign, exp_sign, kinetic): 0.0 if (w_sign * exp_sign, kinetic) in shifts else math.inf
        for w_sign in (1, -1)
        for exp_sign in (1, -1)
        for kinetic in (1.0, 0.5)
    }
    return tried, shifts


# real rationals: zero, negative, 1/7-scaled and 1e308-scale
gauge_reals = st.builds(
    lambda q, scale: q * scale, rationals, st.sampled_from([1, Fraction(1, 7), 10**308])
)


@settings(deadline=None, max_examples=60)
@given(
    w1=gauge_reals,
    w2=gauge_reals,
    kc=gauge_reals,
    kb=gauge_reals.filter(lambda q: q != 0),
    k=st.integers(min_value=0, max_value=600),
    perturb=st.sampled_from([None, "c0", "c2"]),
)
@example(w1=Fraction(1), w2=Fraction(2), kc=Fraction(0), kb=Fraction(1), k=0, perturb=None)  # W = 0
@example(w1=Fraction(1), w2=Fraction(2), kc=Fraction(-1, 2), kb=Fraction(-3, 4), k=600, perturb=None)
@example(w1=Fraction(1), w2=Fraction(3 * 10**308), kc=Fraction(1), kb=Fraction(1), k=1, perturb=None)
def test_gauge_search_matches_the_full_four_convention_search(w1, w2, kc, kb, k, perturb):
    # c0 + 1 moves the exact shift; c2 + 1 leaves a y^2 remainder under every convention
    real_potential = sextic.sextic_potential

    def potential(*args):
        pot = real_potential(*args)
        return pot if perturb is None else dataclasses.replace(pot, **{perturb: getattr(pot, perturb) + 1})

    with patch.object(sextic, "sextic_potential", potential):
        tried, shifts = full_convention_search(w1, w2, kc, kb, k)
        winner = next((key for key, r in tried.items() if not r), None)
        if winner is None:
            with pytest.raises(ConventionMismatch) as err:
                check_gauge_identity(w1, w2, kc, kb, k)
            assert err.value.residuals == tried
            return
        shift = shifts[(winner[0] * winner[1], winner[2])]
        assert shift == w2 + (perturb == "c0")
        if abs(shift) > sys.float_info.max:
            with pytest.raises(NumericalFailure, match="exceeds double range"):
                check_gauge_identity(w1, w2, kc, kb, k)
            return
        result = check_gauge_identity(w1, w2, kc, kb, k)
    conv = result.convention
    assert result.residual == 0.0
    assert result.tried == tried
    assert result.potential == potential(w1, w2, kc, kb, k)  # the patched builder's V
    assert (conv.w_sign, conv.exponent_sign, conv.kinetic) == winner
    assert conv.shift == float(shift)


def fd_matrix(potential, halfwidth, grid):
    """The three-point matrix fd_spectrum builds."""
    v = potential.grid_potential() if isinstance(potential, sextic.SexticPotential) else potential
    h = 2 * halfwidth / (grid + 1)
    h2 = np.float64(h**2)
    diag = 1.0 / h2 + np.asarray(v(h * (np.arange(1, grid + 1) - (grid + 1) / 2)), dtype=float)
    return diag, np.full(grid - 1, -0.5 / h2)


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

    @pytest.mark.parametrize(
        ("potential", "grid"),
        [
            (sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 3), 4000),
            (lambda y: y**2 / 2 + y**4, 4000),
            (sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 3), 4001),
            (lambda y: y**2 / 2 + y**4, 4001),
        ],
        ids=["sextic", "callable", "sextic-odd-grid", "callable-odd-grid"],
    )
    def test_levels_match_the_solve_with_eigenvectors(self, potential, grid):
        # eigenvalues alone skip stein; the levels come from stebz either way
        def with_vectors(diag, off, count):
            return scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))[0]

        with patch.object(sextic, "lowest_eigenvalues", with_vectors):
            reference = fd_spectrum(potential, 6.0, grid)
        assert np.array_equal(fd_spectrum(potential, 6.0, grid), reference)

    @pytest.mark.parametrize("grid", [3, 4, 301, 302])
    @pytest.mark.parametrize(
        ("potential", "halfwidth"),
        [(sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 7), 6.0), (lambda y: y**2 / 2, 10.0)],
        ids=["sextic-k7", "harmonic"],
    )
    def test_levels_match_the_dense_matrix(self, potential, halfwidth, grid):
        # at k = 7 the grid holds the near-degenerate doublet 4.2097 / 4.2104
        diag, off = fd_matrix(potential, halfwidth, grid)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        levels = fd_spectrum(potential, halfwidth, grid)
        np.testing.assert_allclose(levels, dense[: levels.size], rtol=0, atol=1e-14 * np.abs(dense).max())
        if grid > 300 and isinstance(potential, sextic.SexticPotential):
            assert levels[1] - levels[0] < 1e-3

    def test_asymmetric_potential_is_solved_unfolded(self):
        def cubic(y):
            return y**2 / 2 + y**3 / 10

        diag, off = fd_matrix(cubic, 6.0, 4000)
        assert np.array_equal(fd_spectrum(cubic, 6.0, 4000), lowest_eigenvalues(diag, off, 5))

    def test_matrix_guards(self):
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 3)
        for halfwidth in (1e-300, 1e-160, 1e100):
            with pytest.raises(NumericalFailure, match="exceeds double range"):
                fd_spectrum(pot, halfwidth, 4000)
        with pytest.raises(NumericalFailure, match="finite-difference eigensolve failed"):
            fd_spectrum(pot, 1e-150, 4000)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fd_spectrum(lambda y: y**2, -1.0, 100)
        with pytest.raises(ValueError):
            fd_spectrum(lambda y: y**2, 1.0, 2)
        for halfwidth in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="halfwidth must be finite and positive"):
                fd_spectrum(lambda y: y**2, halfwidth, 100)


def block_levels(w1, w2, kc, kb, k):
    """The block levels of SHG at kappa = k, which are real for kc kb > 0."""
    report = qes_spectrum(build_shg(w1, w2, kc, kb), shg_charge(), k)
    assert not any(v.imag for v in report.eigenvalues)
    return np.array([v.real for v in report.eigenvalues])


def assert_levels_match(w1, w2, kc, kb, k):
    """Block level j + w2 is oscillator level j within the gate sextic
    --fd applies: LEVEL_TOL * max(1, |E|) plus the last doubling difference."""
    expected = block_levels(w1, w2, kc, kb, k) + float(w2)
    levels, moved = oscillator_levels(sextic_potential(w1, w2, kc, kb, k), len(expected), expected.max())
    assert levels.shape == moved.shape == expected.shape
    assert (moved <= LEVEL_TOL * np.maximum(1.0, np.abs(levels))).all()
    assert (np.abs(levels - expected) <= LEVEL_TOL * np.maximum(1.0, np.abs(expected)) + moved).all()
    return levels


dyadics = st.integers(min_value=1, max_value=32).map(lambda i: Fraction(i, 8))


def fujiwara_root(grid, energy):
    """sqrt(R) in doubles, R = 2 max |a_i / a_d|^(1 / (d - i)) Fujiwara's bound
    on the roots of v(sqrt(u)) - energy = a_0 + ... + a_d u^d, a_0 halved."""
    a = np.array(((grid[0] - energy) / 2, *grid[1:]))
    d = max(i for i in (1, 2, 3) if a[i])
    with np.errstate(all="ignore"):
        return np.sqrt(2 * max(abs(a[i] / a[d]) ** (1 / (d - i)) for i in range(d))) or 1.0


def wkb_reach(grid, energy, span):
    """Where the trapezoid sum of sqrt(2 (v - energy)) over 256 equal cells of
    [0, span], from the last grid point where v - energy is below 0 by more
    than 8 eps times the magnitudes of its terms, reaches 40; None when it
    falls short."""
    g0, g2, g4, g6 = grid
    h = span / 256
    with np.errstate(all="ignore"):
        u = h * h * np.arange(257.0) ** 2
        gap = (((g6 * u + g4) * u + g2) * u + g0) - energy
        # a zero coefficient adds no term: 0 * inf, where u^3 overflows, is NaN
        terms = sum(abs(c) * u**p for c, p in ((g6, 3), (g4, 2), (g2, 1)) if c)
        terms = terms + abs(g0) + abs(energy)
        f = np.sqrt(2 * np.maximum(gap, 0.0))
    allowed = gap <= -8 * np.finfo(float).eps * terms
    total = 0.0
    for i in range(max(np.flatnonzero(allowed), default=0), 256):
        cell = (f[i] + f[i + 1]) * h / 2
        if total + cell >= 40:
            return h * (i + (40 - total) / cell)
        total += cell
    return None


decades = st.builds(lambda m, e: m * 10.0**e, st.floats(1, 10), st.integers(-300, 300))
signed = st.builds(lambda s, x: s * x, st.sampled_from([1, -1]), decades)
signed_or_zero = st.one_of(st.just(0.0), signed)


@st.composite
def potentials_and_levels(draw):
    """Sextic coefficients whose ratios span +-300 decades, and a level at,
    below or above V(0)."""
    c0, c2, c4 = (draw(signed_or_zero) for _ in range(3))
    c6 = draw(st.one_of(st.just(0.0), decades))
    return (c0, c2, c4, c6), c0 + draw(signed_or_zero)


def cli_case(w1, w2, kc, kb, k, highest):
    """The potential and highest level that sextic --fd hands to oscillator_levels."""
    return sextic_potential(w1, w2, Fraction(kc), Fraction(kb), k).real_coeffs(), highest


class TestOscillatorLevels:
    @settings(max_examples=40, deadline=None)
    @given(w1=dyadics, w2=dyadics, kc=dyadics, kb=dyadics, sign=st.sampled_from([1, -1]),
           k=st.integers(min_value=0, max_value=7))
    @example(w1=Fraction(3, 4), w2=Fraction(3, 2), kc=Fraction(1, 4), kb=Fraction(7, 8), sign=1, k=7)
    @example(w1=Fraction(1, 2), w2=2, kc=Fraction(1, 8), kb=1, sign=1, k=0)  # a double well
    def test_block_levels_are_the_sector_levels(self, w1, w2, kc, kb, sign, k):
        assert_levels_match(w1, w2, sign * kc, sign * kb, k)

    @pytest.mark.parametrize("k", [20, 41, 100, 200])
    def test_large_k(self, k):
        # the 4000-node box deviated by 0.218 at k = 100 and could not hold k = 200
        levels = assert_levels_match(1, 2, Fraction(1, 2), Fraction(1, 2), k)
        assert len(levels) == k // 2 + 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_sector_levels_are_every_other_full_level(self, k):
        # the parity (-1)^k sector: the even levels of the full spectrum for
        # even k, the odd ones for odd k, here against the finite-difference box
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), k)
        full = fd_spectrum(pot, 6.0, 4000)
        levels, _ = oscillator_levels(pot, 2, 10.0)
        np.testing.assert_allclose(levels, full[k % 2 :: 2][:2], rtol=0, atol=1e-4)

    def test_coefficient_that_underflows_is_refused(self):
        # c6 = (kc kb)^2 / 16 = 6.25e-402 rounds to 0.0, which would leave a
        # quartic double well whose levels miss the block levels by 100 %
        pot = sextic_potential(*[Fraction(1, 10**100)] * 4, 3)
        with pytest.raises(NumericalFailure, match="^c6 underflows double range: nonzero, it rounds"):
            oscillator_levels(pot, 2, 1e-99)

    def test_non_confining_potential_is_refused(self):
        # W = 0 and V = 0: the free particle has no bound state
        with pytest.raises(NumericalFailure, match="does not confine"):
            oscillator_levels(sextic_potential(0, 0, 0, 1, 0), 1, 1.0)

    def test_levels_that_do_not_settle_are_refused(self):
        # a basis stretched to the WKB range of a level at 1e20 is far too
        # coarse for the two lowest levels, near 3.3 and 4.7: up to 8192
        # states they still move by more than 1
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
        message = "do not settle within 8192 oscillator states"
        with pytest.raises(NumericalFailure, match=message) as err:
            oscillator_levels(pot, 2, 1e20)
        assert 1.0 < err.value.residual < math.inf

    @pytest.mark.parametrize(("k", "count", "basis"), [(2048, 1025, 8200), (4096, 2049, 16392)])
    def test_levels_whose_second_basis_exceeds_the_cap_are_refused_up_front(
        self, monkeypatch, k, count, basis
    ):
        def refuse(*args):
            raise AssertionError("an oscillator basis was solved")

        monkeypatch.setattr(sextic, "_sector_levels", refuse)
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), k)
        message = (
            f"^{count} sextic levels at k={k} need a basis of {basis} oscillator"
            " states to settle, more than 8192$"
        )
        with pytest.raises(NumericalFailure, match=message) as err:
            oscillator_levels(pot, count, 1e4)
        assert err.value.residual == math.inf

    def test_largest_level_count_solves_both_capped_bases(self, monkeypatch):
        # 1024 levels start at 4096 states and settle at the 8192 cap
        sizes = []

        def constant_levels(grid, size, x_max, parity, count):
            sizes.append(size)
            return np.zeros(count)

        monkeypatch.setattr(sextic, "_sector_levels", constant_levels)
        pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2046)
        levels, moved = oscillator_levels(pot, 1024, 1e4)
        assert sizes == [4096, 8192] and levels.shape == moved.shape == (1024,)

    def test_matrix_beyond_double_range_is_refused(self):
        with pytest.raises(NumericalFailure, match="exceeds double range"):
            sextic._sector_levels(sextic._grid((0.0, 0.5, 0.0, 1e300)), 40, 1e10, 0, 1)

    @pytest.mark.parametrize("omega", [0.5, 3.0], ids=["g2-above", "g2-below"])
    @pytest.mark.parametrize("size", [40, 41, 80])
    def test_sector_bands_are_the_dense_ladder_product(self, monkeypatch, size, omega):
        # x = (a + a+) / sqrt(2 omega) as a dense ladder matrix on size + 8
        # states, H multiplied out densely; g2 - omega^2 / 2 is 2.875 at
        # omega = 0.5 and -1.5 at omega = 3
        coeffs = (0.75, 1.5, 0.125, 0.5)
        x_max = math.sqrt((2 * size + 1) / omega)
        n = size + 8
        x = np.diag(np.sqrt(np.arange(1, n) / (2 * omega)), 1)
        x = x + x.T
        x2 = x @ x
        g0, g2, g4, g6 = sextic._grid(coeffs)
        h = omega * np.diag(np.arange(n) + 0.5) + g0 * np.eye(n) + (g2 - omega**2 / 2) * x2
        h += g4 * x2 @ x2 + g6 * x2 @ x2 @ x2
        seen = []

        def capture(bands):
            seen.append(bands.copy())
            return scipy.linalg.eig_banded(bands, lower=True, eigvals_only=True)

        monkeypatch.setattr(sextic, "band_eigenvalues", capture)
        for parity in (0, 1):
            keep = np.arange(parity, size, 2)
            sector = h[np.ix_(keep, keep)]
            got = sextic._sector_levels(sextic._grid(coeffs), size, x_max, parity, 6)
            bands = seen.pop()
            assert bands.shape == (4, keep.size)
            for r in range(4):
                # row r holds the entries (j + r, j); LAPACK reads all but its last r
                dense = np.diagonal(sector, -r)
                np.testing.assert_allclose(bands[r, : dense.size], dense, rtol=1e-14)
            # the levels to rounding in the largest entry, up to 4e7 at omega = 0.5
            dense = np.linalg.eigvalsh(sector)[:6]
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-14 * np.abs(sector).max())

    @pytest.mark.parametrize("size", [40, 41])
    def test_sector_matrix_is_the_dense_product(self, size):
        # x^6 from ladder matrices on size + 8 states, multiplied densely
        coeffs, omega = (0.75, -0.25, 0.125, 0.5), 3.0
        x_max = math.sqrt((2 * size + 1) / omega)
        n = size + 8
        x = np.diag(np.sqrt(np.arange(1, n) / (2 * omega)), 1)
        x = x + x.T
        p2 = omega * np.diag(np.arange(n) + 0.5) - omega**2 / 2 * (x @ x)
        c0, c2, c4, c6 = coeffs
        x2 = x @ x
        h = p2 + c0 * np.eye(n) + 2 * c2 * x2 + 4 * c4 * x2 @ x2 + 8 * c6 * x2 @ x2 @ x2
        for parity in (0, 1):
            keep = np.arange(parity, size, 2)
            dense = np.linalg.eigvalsh(h[np.ix_(keep, keep)])[:6]
            got = sextic._sector_levels(sextic._grid(coeffs), size, x_max, parity, 6)
            np.testing.assert_allclose(got, dense, rtol=1e-13)

    @settings(max_examples=120, deadline=None)
    @given(case=potentials_and_levels(), k=st.integers(0, 1), count=st.integers(1, 3))
    # c4 / c6 = -2e120: v - E >= 0.75 everywhere, but at x = 7.07e59 its
    # terms of about 1e119 cancel to -1.4e103, which is rounding alone
    @example(case=cli_case(1, 3, 1e-60, 1e-60, 1, 4.0), k=1, count=1)
    @example(case=cli_case(1, 2, -0.5, 0.5, 1, 3.0), k=1, count=1)  # kc kb < 0, E = V(0)
    @example(case=cli_case(1, 2, -0.5, 0.5, 0, 2.0), k=0, count=1)
    @example(case=((0.0, -1.0, 0.0, 1.0), -0.1), k=0, count=2)  # a double well
    @example(case=((0.0, 1.0, -3.0, 1.0), 0.05), k=0, count=2)  # a barrier, then an outer well
    # E = V(0), where the halved span's sum falls short of the coarser one's crossing
    @example(case=((0.0, 0.007318622200453623, 8.149736284549615e20, 569170129914901.6), 0.0), k=0, count=1)
    # c6 = 0 and u^3 beyond double range near the outer turning point
    @example(case=((0.0, -1e108, 1.0, 0.0), -1.0), k=0, count=1)
    def test_basis_reaches_the_wkb_range_on_every_scale(self, case, k, count):
        # finite levels or NumericalFailure, never another exception; every
        # basis reaches the WKB crossing on the grid of the span sqrt(R) 2^j
        # whose upper half holds it, or that whole span when a halved span
        # falls short
        coeffs, energy = case
        pot = sextic.SexticPotential(*map(RationalComplex.coerce, coeffs), k)
        solve, ranges = sextic._sector_levels, []

        def recorded(grid, size, x_max, parity, count):
            ranges.append((grid, x_max))
            return solve(grid, size, x_max, parity, count)

        with patch.object(sextic, "_sector_levels", recorded):
            try:
                levels, moved = oscillator_levels(pot, count, energy)
                assert np.isfinite(levels).all() and np.isfinite(moved).all()
            except NumericalFailure:
                pass
        for grid, x_max in ranges:
            root, x_max = float(fujiwara_root(grid, energy)), float(x_max)
            j = math.ceil(math.log2(x_max / root))
            j += math.ldexp(root, j) < x_max
            j -= math.ldexp(root, j - 1) >= x_max
            span = math.ldexp(root, j)
            reach = wkb_reach(grid, energy, span)
            assert x_max == span if reach is None else math.isclose(reach, x_max, rel_tol=1e-9)


def test_block_levels_inside_sextic_spectrum():
    # the finite-difference sextic spectrum contains every block level
    # raised by the exact gauge shift w2, to the grid's accuracy
    reference = block_levels(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
    pot = sextic_potential(1, 2, Fraction(1, 2), Fraction(1, 2), 2)
    fd_levels = fd_spectrum(pot, 6.0, 4000)
    assert max(np.abs(fd_levels - (e + 2)).min() for e in reference) <= 1e-3
