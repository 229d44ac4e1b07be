"""From the reduced ODE to a sextic oscillator, with every step checked.

A change of variable plus a superpotential gauge factor turns the reduced
second-order operator into a Schroedinger operator with a sextic
potential.  The conjugation identity is checked exactly, as Laurent
polynomials in y with rational coefficients; the search over
sign/normalization conventions reports that the identity holds with a
unit-mass kinetic term and that the quoted constant term sits exactly one
mode-2 frequency above the conjugated operator.  Rayleigh-Ritz in a
harmonic-oscillator basis then finds every block energy, raised by that
same constant, as the level of the same index in the sextic spectrum's
parity (-1)^k sector.  A finite-difference box solver checks the
oscillator basis on the harmonic oscillator and on the sextic spectrum.
"""

from fractions import Fraction

import numpy as np

from qesboson import (
    build_shg,
    check_gauge_identity,
    fd_spectrum,
    gauge_superpotential,
    oscillator_levels,
    qes_spectrum,
    sextic_potential,
    shg_charge,
)

W1, W2, KC, KB = 1, 2, Fraction(1, 2), Fraction(1, 2)

print("== superpotential and sextic coefficients (k = 2) ==")
w = gauge_superpotential(W1, W2, KC, KB, 2)
print(f"W(y) = ({w.inverse_coeff})/y + ({w.linear_coeff})*y + ({w.cubic_coeff})*y^3")
pot = sextic_potential(W1, W2, KC, KB, 2)
print(f"V(y) = {pot.c0} + ({pot.c2})*y^2 + ({pot.c4})*y^4 + ({pot.c6})*y^6")

print()
print("== conjugation identity, exact convention search ==")
for k in range(4):
    result = check_gauge_identity(W1, W2, KC, KB, k)
    conv = result.convention
    print(
        f"k={k}: residual {result.residual:.2e}  kinetic={conv.kinetic}"
        f"  exponent sign {conv.w_sign * conv.exponent_sign:+d}"
        f"  constant offset {conv.shift:.9f}"
    )
print("(offset equals w2: the quoted constant term carries the same extra")
print(" mode-2 frequency as the as-published recurrence diagonal)")

print()
print("== sanity: harmonic oscillator through the FD solver ==")
ho = fd_spectrum(lambda y: y**2 / 2, 10.0, 2000)
print("lowest levels:", np.round(ho, 5), " (expect n + 1/2)")

print()
print("== block energies inside the sextic spectrum (k = 2) ==")
h = build_shg(W1, W2, KC, KB)
block_levels = np.array(
    [v.real for v in qes_spectrum(h, shg_charge(), 2).eigenvalues]
)
levels, moved = oscillator_levels(pot, len(block_levels), block_levels.max() + W2)
fd_levels = fd_spectrum(pot, 6.0, 4000)
print("block levels:          ", np.round(block_levels, 7))
print("even sector levels:    ", np.round(levels, 7))
print("fd box levels:         ", np.round(fd_levels, 7))
print(f"worst match under w2:   {np.abs(block_levels + W2 - levels).max():.2e}"
      f"  (error estimate {moved.max():.1e})")
print(f"fd box distance:        {max(np.abs(fd_levels - e).min() for e in levels):.2e}")
