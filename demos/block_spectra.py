"""Exact finite blocks and the two independent routes to their spectra.

A conserving Hamiltonian never mixes states with different charge
eigenvalues, so each charge value labels a finite invariant subspace.
The oracle diagonalizes the exact restriction of H to that subspace; the
reduced route first eliminates the slaved mode and diagonalizes a banded
single-variable matrix.  The two must agree to near machine precision,
block by block.
"""

from fractions import Fraction

import numpy as np

from qesboson import (
    block_spectrum,
    build_block,
    build_shg,
    enumerate_block,
    qes_spectrum,
    reduced_block_matrix,
    shg_charge,
)

h = build_shg(1, 2, Fraction(1, 2), Fraction(1, 2))
charge = shg_charge()

print("== block structure of the two-photon model, charge N1 + 2 N2 ==")
for kappa in range(7):
    basis = enumerate_block(charge, kappa)
    states = " ".join(f"|{s.n1},{s.n2}>" for s in basis)
    print(f"kappa={kappa}: dimension {len(basis)}  {states}")

print()
print("== the kappa=4 block, both pictures ==")
block = build_block(h, charge, 4)
print("Fock matrix (basis ordered by n2):")
print(np.round(block.matrix.real, 6))
reduced = reduced_block_matrix(h, charge, 4)
print(f"reduced matrix on monomial degrees {reduced.degrees}:")
print(np.round(reduced.matrix.real, 6))

print()
print("== spectra agree block by block ==")
print(f"{'kappa':>5} {'dim':>4} {'oracle':>34} {'max |oracle - reduced|':>24}")
worst = 0.0
for kappa in range(16):
    oracle = block_spectrum(h, charge, kappa)
    reduced_report = qes_spectrum(h, charge, kappa)
    deviation = max(
        abs(a - b)
        for a, b in zip(oracle.eigenvalues, reduced_report.eigenvalues)
    )
    worst = max(worst, deviation)
    shown = ", ".join(f"{v.real:.6f}" for v in oracle.eigenvalues[:4])
    if len(oracle.eigenvalues) > 4:
        shown += ", ..."
    print(f"{kappa:>5} {len(oracle.eigenvalues):>4} {shown:>34} {deviation:>24.3e}")
print(f"worst deviation over kappa <= 15: {worst:.3e}")
