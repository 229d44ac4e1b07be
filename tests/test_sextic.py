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
    constant_shift_match,
    fd_spectrum,
    gauge_superpotential,
    qes_spectrum,
    sextic_potential,
    shg_charge,
)
from qesboson import sextic
from qesboson._lapack import lowest_eigenvalues
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


def full_convention_search(w1, w2, kc, kb, k):
    """check_gauge_identity's (tried, exact shift per (s, kin) that holds),
    with f2, f1 and f0 evaluated in full under all four (sign, kinetic)
    conventions; W and V come from the module's builders, patched or not."""
    ode = shg_ode(w1, w2, kc, kb, k)
    w = sextic.gauge_superpotential(w1, w2, kc, kb, k)
    pot = sextic.sextic_potential(w1, w2, kc, kb, k)
    z_coeff = -1 / Fraction(kb)
    dz = sextic._derivative({-2: z_coeff})
    sup = {-1: w.inverse_coeff.re, 1: w.linear_coeff.re, 3: w.cubic_coeff.re}
    c3_z3 = {-6: ode.c3.re * z_coeff**3}
    potential = {0: pot.c0.re, 2: pot.c2.re, 4: pot.c4.re, 6: pot.c6.re}
    c1, c0 = sextic._in_y(ode.c1, z_coeff), sextic._in_y(ode.c0, z_coeff)
    shifts = {}
    for sign in (1, -1):
        for kinetic in (1.0, 0.5):
            kin = Fraction(kinetic)
            f2 = sextic._combination((-kin, sextic._product(dz, dz)), (-1, c3_z3))
            f1 = sextic._combination(
                (-kin, sextic._derivative(dz)), (-2 * sign * kin, sextic._product(sup, dz)), (-1, c1)
            )
            f0 = sextic._combination(
                (1, potential), (-sign * kin, sextic._derivative(sup)),
                (-kin, sextic._product(sup, sup)), (-1, c0),
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
    assert (conv.w_sign, conv.exponent_sign, conv.kinetic) == winner
    assert conv.shift == float(shift)


def unfolded_matrix(potential, halfwidth, grid):
    """The three-point matrix fd_spectrum builds, before any fold."""
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
    def test_folded_levels_match_the_dense_unfolded_matrix(self, potential, halfwidth, grid):
        # an even V is solved as the direct sum of its even and odd sectors;
        # at k = 7 the near-degenerate doublet 4.2097 / 4.2104 is split
        # between them
        diag, off = unfolded_matrix(potential, halfwidth, grid)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        solved = []

        def recording(d, e, count):
            solved.append((d, e))
            return lowest_eigenvalues(d, e, count)

        with patch.object(sextic, "lowest_eigenvalues", recording):
            levels = fd_spectrum(potential, halfwidth, grid)
        (folded_diag, folded_off), = solved
        split = grid // 2 - (grid % 2 == 0)  # the coupling between the sectors
        assert folded_off[split] == 0.0 and np.count_nonzero(folded_off) == grid - 2
        np.testing.assert_allclose(levels, dense[: levels.size], rtol=0, atol=1e-14 * np.abs(dense).max())
        if grid > 300 and isinstance(potential, sextic.SexticPotential):
            even = lowest_eigenvalues(folded_diag[: split + 1], folded_off[:split], 2)
            assert levels[1] - levels[0] < 1e-3
            assert even[0] == pytest.approx(levels[0], rel=1e-12) and even[1] > levels[1] + 1

    def test_asymmetric_potential_is_solved_unfolded(self):
        def cubic(y):
            return y**2 / 2 + y**3 / 10

        diag, off = unfolded_matrix(cubic, 6.0, 4000)
        assert np.array_equal(fd_spectrum(cubic, 6.0, 4000), lowest_eigenvalues(diag, off, 5))

    def test_matrix_guards_hold_below_the_box_check(self):
        # the CLI refuses these boxes before the solve; the solver keeps its own guards
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


def anchor_loop_shift_match(candidates, reference):
    """constant_shift_match as one Python pass over the anchors: the best
    (shift, max deviation), the first anchor on ties."""
    candidates = np.asarray(candidates, dtype=float)
    reference = np.sort(np.asarray(reference, dtype=float))
    best = None
    for anchor in candidates:
        shift = float(anchor - reference[0])
        dev = float(max(np.min(np.abs(candidates - (r + shift))) for r in reference))
        if best is None or dev < best[1]:
            best = (shift, dev)
    return best


# quarter steps make tied anchorings common; wide floats make them rare
levels = st.one_of(
    st.integers(min_value=-12, max_value=12).map(lambda i: i / 4),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@given(
    candidates=st.lists(levels, min_size=1, max_size=12),
    reference=st.lists(levels, min_size=1, max_size=8),
)
def test_shift_match_equals_the_anchor_loop(candidates, reference):
    got = constant_shift_match(candidates, reference)
    assert tuple(map(type, got)) == (float, float)
    assert list(map(repr, got)) == list(map(repr, anchor_loop_shift_match(candidates, reference)))


def test_shift_match_ties_go_to_the_first_anchor():
    # three exact anchorings each
    assert constant_shift_match([0.0, 1.0, 2.0, 3.0], [1.0, 0.0]) == (0.0, 0.0)
    assert constant_shift_match([3.0, 2.0, 1.0, 0.0], [0.0, 1.0]) == (2.0, 0.0)


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
