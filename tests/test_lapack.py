"""The package's LAPACK wrapper against scipy.linalg.eigh_tridiagonal and
eig_banded, and the import guard: no CLI command loads the scipy.linalg
package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qesboson import _lapack
from qesboson._lapack import band_eigenvalues, lowest_eigenvalues, stevd

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SHG = str(ROOT / "models" / "shg.qesb")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


@st.composite
def tridiagonals(draw):
    """(d, e) of a symmetric tridiagonal matrix: dimension 1, 2 or up to
    600, random, zero couplings or an equal diagonal, at scales 1e-150 to
    1e150."""
    n = draw(st.one_of(st.sampled_from([1, 2, 600]), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    d = rng.uniform(-1.0, 1.0, n) * scale
    e = rng.uniform(-1.0, 1.0, n - 1) * scale
    kind = draw(st.sampled_from(["random", "zero couplings", "equal diagonal"]))
    if kind == "zero couplings":
        e[:] = 0.0
    elif kind == "equal diagonal":
        d[:] = d[0]
    return d, e


@settings(max_examples=60, deadline=None)
@given(tridiagonals(), st.integers(1, 12))
def test_bit_identical_to_eigh_tridiagonal(matrix, count):
    d, e = matrix
    values, vectors = stevd(d, e)
    expected_values, expected_vectors = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
    assert values.tobytes() == expected_values.tobytes()
    assert vectors.tobytes() == expected_vectors.tobytes()
    count = min(count, d.size)
    lowest = lowest_eigenvalues(d, e, count)
    expected = scipy.linalg.eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    assert lowest.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(0, 3),
    st.integers(-150, 150),
    st.integers(0, 2**32 - 1),
)
def test_band_bit_identical_to_eig_banded(n, below, exponent, seed):
    bands = np.random.default_rng(seed).uniform(-1.0, 1.0, (below + 1, n)) * 10.0**exponent
    before = bands.copy()
    values = band_eigenvalues(bands)
    expected = scipy.linalg.eig_banded(bands, lower=True, eigvals_only=True)
    assert values.tobytes() == expected.tobytes()
    assert np.array_equal(bands, before)


def test_band_rows_past_the_matrix_are_not_read():
    # row r's last r entries lie outside the matrix
    bands = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
    unread = bands.copy()
    unread[1, 2] = 7.0
    assert np.array_equal(band_eigenvalues(unread), band_eigenvalues(bands))
    np.testing.assert_allclose(band_eigenvalues(bands), [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(bad):
    for d, e in (([1.0, bad], [0.5]), ([1.0, 2.0], [bad])):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            stevd(d, e)
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            lowest_eigenvalues(d, e, 1)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        stevd([bad], [])
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        band_eigenvalues([[1.0, bad], [0.5, 0.0]])


def test_malformed_input_is_refused():
    with pytest.raises(ValueError, match=r"d \(3\) must have one more element than e \(1\)"):
        stevd([1.0, 2.0, 3.0], [1.0])
    with pytest.raises(ValueError, match="expected a 1-D array"):
        stevd(np.eye(2), [1.0])
    with pytest.raises(ValueError, match="select_range out of bounds"):
        lowest_eigenvalues([1.0, 2.0], [1.0], 3)
    with pytest.raises(ValueError, match="expected a 2-D array"):
        band_eigenvalues([1.0, 2.0])


class _FailingLapack:
    """dstevd, dstebz and dsbevd as they return when LAPACK reports info."""

    def __init__(self, info):
        self.info = info

    def dstevd(self, d, e):
        return d, np.eye(d.size), self.info

    def dstebz(self, d, e, *args):
        return d.size, d, None, None, self.info

    def dsbevd(self, ab, **kwargs):
        return ab[0], None, self.info


def test_no_convergence_is_linalg_error(monkeypatch):
    monkeypatch.setattr(_lapack, "_flapack", _FailingLapack(3))
    with pytest.raises(np.linalg.LinAlgError) as info:
        stevd([1.0, 2.0], [1.0])
    assert str(info.value) == "stevd (eigh_tridiagonal) did not converge (LAPACK info=3)"
    with pytest.raises(np.linalg.LinAlgError) as info:
        lowest_eigenvalues([1.0, 2.0], [1.0], 1)
    assert str(info.value) == "stebz (eigh_tridiagonal) did not converge (LAPACK info=3)"
    with pytest.raises(np.linalg.LinAlgError) as info:
        band_eigenvalues([[1.0, 2.0], [1.0, 0.0]])
    assert str(info.value) == "sbevd did not converge (LAPACK info=3)"


def test_illegal_argument_is_value_error(monkeypatch):
    monkeypatch.setattr(_lapack, "_flapack", _FailingLapack(-2))
    with pytest.raises(ValueError, match="illegal value in argument 2 of internal stevd"):
        stevd([1.0, 2.0], [1.0])


CHECK_SAME_SOLVE = """
import numpy as np
d, e = np.linspace(-1.0, 2.0, 40), np.linspace(0.5, 1.5, 39)
values, vectors = _lapack.stevd(d, e)
expected = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
assert values.tobytes() == expected[0].tobytes()
assert vectors.tobytes() == expected[1].tobytes()
from scipy.linalg import _flapack, lapack
assert _flapack is _lapack._flapack is sys.modules["scipy.linalg._flapack"]
assert lapack.get_lapack_funcs(("stevd",), (d, e))[0] is _lapack._flapack.dstevd
"""


def test_scipy_linalg_imported_first():
    run_python("import sys, scipy.linalg\nfrom qesboson import _lapack\n" + CHECK_SAME_SOLVE)


def test_scipy_linalg_imported_after():
    run_python(
        "import sys\nfrom qesboson import _lapack\n"
        'assert "scipy" not in sys.modules\n'
        'assert "scipy.linalg._flapack" in sys.modules\n'
        "import scipy.linalg\n" + CHECK_SAME_SOLVE
    )


CHECK_SAME_PAIRING = """
import numpy as np
a, b = np.array([1 + 2j, 1 - 2j, 3.0]), np.array([1 - 2j, 3.0, 1 + 2j + 1e-9])
from scipy.optimize import _lsap, linear_sum_assignment
assert _lsap is sys.modules["scipy.optimize._lsap"]
cost = np.abs(a[:, None] - b[None, :])
rows, cols = linear_sum_assignment(cost)
assert _lapack.paired_distances(a, b).tobytes() == cost[rows, cols].tobytes()
assert _lapack._load("scipy.optimize._lsap") is _lsap
"""


def test_scipy_optimize_imported_first():
    run_python("import sys, scipy.optimize\nfrom qesboson import _lapack\n" + CHECK_SAME_PAIRING)


def test_scipy_optimize_imported_after():
    run_python(
        "import sys\nfrom qesboson import _lapack\n"
        'assert "scipy.optimize._lsap" not in sys.modules\n'  # loaded on first use
        "_lapack.paired_distances([1j], [-1j])\n"
        'assert "scipy" not in sys.modules\n'
        'assert "scipy.optimize._lsap" in sys.modules\n'
        "import scipy.optimize\n" + CHECK_SAME_PAIRING
    )


def test_cli_does_not_import_scipy_packages(tmp_path):
    """Every kind of solve the CLI runs (stevd on both routes, dense eig on
    a non-Hermitian block, dsbevd in sextic --fd) goes through the wrapper,
    so no command loads scipy.linalg, scipy.optimize or scipy.sparse."""
    non_hermitian = tmp_path / "non_hermitian.qesb"
    # b_i c_i < 0 on every block: both routes take a dense general eig
    non_hermitian.write_text(Path(SHG).read_text().replace("term 1/2 0 0 2 1 0", "term -1/2 0 0 2 1 0"))
    commands = [
        ["check", SHG],
        ["spectrum", SHG, "--kappa", "40", "--method", "both"],
        ["spectrum", str(non_hermitian), "--kappa", "5", "--method", "both"],
        ["scan", SHG, "--kappa-max", "12"],
        ["polys", SHG, "--kappa", "8", "--output", "json"],
        ["sextic", "--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "0.5", "--k", "3", "--fd"],
    ]
    proc = run_python(
        "import contextlib, io, sys\n"
        "from qesboson import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(cli.main(argv), file=sys.stderr)\n"
        'print(sorted({"scipy.linalg", "scipy.optimize", "scipy.sparse"} & sys.modules.keys()))\n'
    )
    assert proc.stderr.split() == ["0"] * len(commands)
    assert proc.stdout == "[]\n"
