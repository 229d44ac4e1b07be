"""Energy polynomials, their terminating member, and the diagonal-offset
diagnosis of the as-published recurrence.

The block recurrence generates polynomials P_m(E) with exact rational
coefficients; the terminating member's roots are the block spectrum.  The
as-published recurrence carries an extra mode-2 frequency on the diagonal:
it is the recurrence of paper_literal(h) = h + w2, so its spectra come out
uniformly shifted by exactly that frequency.
"""

from fractions import Fraction

import numpy as np

from qesboson import (
    build_shg,
    energy_polynomial_table,
    paper_literal,
    qes_spectrum,
    shg_charge,
)

h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
charge = shg_charge()

print("== energy polynomials for kappa = 6 (corrected convention) ==")
table = energy_polynomial_table(h, charge, 6)
for m, poly in enumerate(table.polys):
    print(f"P_{m}(E) = {poly.render()}")
print(f"termination degree: {table.dimension}")
print("roots of the last polynomial:", np.round(table.spectrum().real, 9))
print("block spectrum (dense solve): ",
      np.round(np.array(qes_spectrum(h, charge, 6).eigenvalues).real, 9))

print()
print("== the recurrence matrix is banded (three-term here) ==")
print(np.round(table.block.matrix[::-1, ::-1].T.real, 6))

print()
print("== as-published convention: every level shifts by w2 = 2 ==")
print(f"{'kappa':>5} {'corrected levels':>34} {'as-published levels':>34} {'shift':>8}")
for kappa in (2, 3, 5, 8):
    corr = energy_polynomial_table(h, charge, kappa).spectrum().real
    lit = energy_polynomial_table(paper_literal(h), charge, kappa).spectrum().real
    shift = np.unique(np.round(lit - corr, 9))
    corr_s = ", ".join(f"{v:.5f}" for v in corr[:3]) + (", ..." if len(corr) > 3 else "")
    lit_s = ", ".join(f"{v:.5f}" for v in lit[:3]) + (", ..." if len(lit) > 3 else "")
    print(f"{kappa:>5} {corr_s:>34} {lit_s:>34} {shift}")
print()
print("The constant offset equals the coefficient of the mode-2 number")
print("operator; removing it from the recurrence diagonal reproduces the")
print("exact block spectrum, which is how the corrected convention is set.")
