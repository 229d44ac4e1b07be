"""LAPACK's real symmetric tridiagonal eigensolvers, dstevd and dstebz.

Every real symmetric tridiagonal solve of the package runs one of them: the
oracle's tridiagonal blocks, the reduced Jacobi matrices, the energy
polynomials and the sextic grid.  Dense blocks go to numpy's eigh and eig,
so these routines are all the package needs from scipy.  They are called
through scipy's compiled f2py wrapper, scipy.linalg._flapack, which this
module loads by itself: it finds the extension file inside scipy's installed
package directory and executes it, without running the `scipy` or
`scipy.linalg` package code.  Importing the scipy.linalg package would also
import numpy's f2py, testing, ma and random packages, and costs more per
process than most commands spend solving.  The extension is registered under
its own name in sys.modules, so an `import scipy.linalg` later in the same
process reuses it, and one imported before is reused here.  scipy >= 1.10
always ships it; if it is missing, importing this module raises ImportError.

Both functions keep the checks scipy.linalg.eigh_tridiagonal makes and raise
its errors with its texts, so callers see the same failures: ValueError for
a non-finite entry, a malformed input or an illegal LAPACK argument, and
np.linalg.LinAlgError when LAPACK does not converge.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("qesboson needs scipy for its LAPACK wrapper")
    linalg = [os.path.join(location, "linalg") for location in scipy.submodule_search_locations]
    spec = PathFinder.find_spec(_FLAPACK, linalg)
    if spec is None:
        raise ImportError(f"scipy {scipy.origin} has no compiled LAPACK wrapper {_FLAPACK}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


_flapack = _load_flapack()


def _validated(d, e) -> tuple[np.ndarray, np.ndarray]:
    """d and e as finite float64 arrays of n and n - 1 entries, n >= 1."""
    d = np.asarray_chkfinite(d, dtype=np.float64)
    e = np.asarray_chkfinite(e, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    return d, e


def _check_info(info: int, driver: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def stevd(d, e) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues, ascending, and orthonormal eigenvectors (columns) of
    the symmetric tridiagonal matrix with diagonal d and off-diagonal e, by
    dstevd: what eigh_tridiagonal(d, e, lapack_driver="stevd") returns."""
    d, e = _validated(d, e)
    if d.size == 1:  # the f2py wrapper refuses an empty e
        return d.copy(), np.ones((1, 1))
    values, vectors, info = _flapack.dstevd(d, e)
    _check_info(info, "stevd (eigh_tridiagonal)")
    return values, vectors


def lowest_eigenvalues(d, e, count: int) -> np.ndarray:
    """The count lowest eigenvalues, ascending, of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, by dstebz (bisection): what
    eigh_tridiagonal(d, e, eigvals_only=True, select="i",
    select_range=(0, count - 1)) returns."""
    d, e = _validated(d, e)
    if not 1 <= count <= d.size:
        raise ValueError("select_range out of bounds")
    if d.size == 1:
        return d.copy()
    found, values, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, count, 0.0, "E")
    _check_info(info, "stebz (eigh_tridiagonal)")
    return values[:found]
