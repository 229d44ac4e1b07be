"""The CLI contract as one table.  Each row runs cli.main in process on its
argv, with numpy's RuntimeWarnings raised as errors and help text wrapped
to 80 columns, and pins the exit code, the whole of stderr, and bytes that
stdout must hold or the golden file it must equal.  Requests that need
their own process (BLAS thread counts, a closed stdout pipe, the modules a
command imports, the demos) are tested next to the code they exercise."""

from pathlib import Path

import pytest

from qesboson.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SHG = str(ROOT / "models" / "shg.qesb")
TRILINEAR3 = str(ROOT / "models" / "trilinear3.qesb")
# the word in argv that stands for the path of the row's model text
MODEL = "{model}"
# a real Hermitian model with bands +-2: its blocks from kappa = 2 on take
# the oracle's dense eigh, kappa = 1 (bands -1, 0, 1) stevd.  Dense blocks
# print BLAS-thread-dependent last digits from d = 89 on, so no row pins them
PENTA = (
    "charge 1 1\nterm 1 0 1 1 0 0\nterm 2 0 0 0 1 1\nterm 1/3 0 1 0 0 1\n"
    "term 1/3 0 0 1 1 0\nterm 1/5 0 2 0 0 2\nterm 1/5 0 0 2 2 0\n"
)
SHG_1E10 = (
    "charge 1 2\nterm 20000000000 0 0 0 1 1\nterm 5000000000 0 0 2 1 0\n"
    "term 10000000000 0 1 1 0 0\nterm 5000000000 0 2 0 0 1\n"
)
# complex couplings on both off-diagonals: the integer recurrence's complex path
COMPLEX = "charge 1 2\nterm 2 1/3 0 0 1 1\nterm 1/2 1/5 0 2 1 0\nterm 1 0 1 1 0 0\nterm 1/3 -1/7 2 0 0 1\n"
# 1.5e308 on the |0,2> -> |2,1> hop: the entry overflows a double during assembly
HUGE = "charge 1 2\nterm 15e307 0 2 0 0 1\n"
OVERFLOW = (
    "numerical failure: h maps FockState(n1=0, n2=2) to FockState(n1=2, n2=1)"
    " with an amplitude that does not fit in double precision\n"
)
SEXTIC = ["sextic", "--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "0.5", "--k", "1"]

# name: (argv, model text or None, exit code, stderr, stdout bytes or golden or None)
CONTRACT = {
    "spectrum-shg-k400": (["spectrum", SHG, "--kappa", "400", "--method", "both"], None, 0, "", None),
    "spectrum-shg-k0": (["spectrum", SHG, "--kappa", "0", "--method", "both"], None, 0, "", None),
    "spectrum-shg-k400-reduced-literal": (
        ["spectrum", SHG, "--kappa", "400", "--method", "reduced", "--mode", "paper-literal"],
        None, 0, "", None,
    ),
    # paper-literal is w2 off the oracle by design
    "scan-shg-literal": (["scan", SHG, "--kappa-max", "40", "--mode", "paper-literal"], None, 4, "", None),
    "scan-trilinear3-k120": (["scan", TRILINEAR3, "--kappa-max", "120"], None, 0, "", None),
    "polys-trilinear3-k60-literal": (
        ["polys", TRILINEAR3, "--kappa", "60", "--mode", "paper-literal"], None, 0, "", None
    ),
    "polys-complex-k40": (["polys", MODEL, "--kappa", "40"], COMPLEX, 0, "", None),
    "scan-penta": (["scan", MODEL, "--kappa-max", "30"], PENTA, 0, "", None),
    "spectrum-penta-k1": (["spectrum", MODEL, "--kappa", "1", "--method", "both"], PENTA, 0, "", None),
    # the reduced route's dense eig of the non-normal R is off the oracle by
    # 4.8e-7 (d = 61): the deviation gate refuses it.  ROADMAP item 3's
    # symmetrized form for banded Hermitian blocks flips this row to exit 0
    "spectrum-penta-k60": (["spectrum", MODEL, "--kappa", "60", "--method", "both"], PENTA, 4, "", None),
    # SHG with every coefficient times 1e10: its spectrum is exactly 1e10
    # times SHG's, which exits 0, but at max|lambda| = 1.8e11 the oracle's
    # residual breaks the absolute 1e-8 gate.  The tridiagonal solve and its
    # band residual call no BLAS: the same bytes at 1 and 2 OpenBLAS threads.
    # ROADMAP item 22's verdict, scaled with max|lambda|, flips this row
    "spectrum-shg-1e10-k10": (
        ["spectrum", MODEL, "--kappa", "10", "--method", "both"], SHG_1E10, 4,
        "numerical failure: block kappa=10 eigensolve residual 5.104e-05 exceeds 1.000e-08\n",
        None,
    ),
    # blocks the energy recurrence cannot solve row by row: a band above the
    # first superdiagonal, and a superdiagonal entry that vanishes
    "polys-wide-band": (
        ["polys", MODEL, "--kappa", "4"],
        "charge 1 1\nterm 1 0 1 0 0 1\nterm 1 0 0 1 1 0\nterm 1 0 0 2 2 0\n", 4,
        "numerical failure: entry (0,2) above the first superdiagonal is nonzero\n", None,
    ),
    "polys-vanishing-superdiagonal": (
        ["polys", MODEL, "--kappa", "4"], "charge 1 2\nterm 1 0 2 0 0 1\nterm 1 0 1 1 0 0\n", 4,
        "numerical failure: superdiagonal entry (0,1) vanishes\n", None,
    ),
    "spectrum-overflow-oracle": (
        ["spectrum", MODEL, "--kappa", "4", "--method", "oracle"], HUGE, 4, OVERFLOW, None
    ),
    "spectrum-overflow-both": (
        ["spectrum", MODEL, "--kappa", "4", "--method", "both"], HUGE, 4, OVERFLOW, None
    ),
    # a signed denominator, which int() would read, is refused
    "check-signed-denominator": (
        ["check", MODEL], "charge 1 2\nterm 1/-2 0 1 1 0 0\n", 2,
        "parse error: line 2: non-numeric real part '1/-2'\n", None,
    ),
    "help": (["--help"], None, 0, "", GOLDEN / "help.txt"),
    "check-help": (["check", "--help"], None, 0, "", GOLDEN / "help_check.txt"),
    # one leading -- ends the options before a command
    "dashes-check": (["--", "check", SHG], None, 0, "", "model: shg.qesb\nconserves: yes (1,2)\n"),
    "dashes-sextic": (
        ["--", *SEXTIC], None, 0, "",
        "gauge identity: residual=0.0 kinetic=1.0 w_sign=+1 exponent_sign=+1 shift=2.0\n",
    ),
}


@pytest.mark.parametrize("name", CONTRACT)
def test_cli_contract(capsys, monkeypatch, tmp_path, name):
    argv, model, code, err, out = CONTRACT[name]
    if model is not None:
        (tmp_path / "model.qesb").write_text(model, encoding="utf-8")
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    try:
        got = main([str(tmp_path / "model.qesb") if word == MODEL else word for word in argv])
    except SystemExit as exc:  # argparse ends --help with SystemExit(0)
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    if isinstance(out, Path):
        assert captured.out == out.read_text(encoding="utf-8")
    elif out is not None:
        assert out in captured.out
