import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesboson import SpectrumReport, cli, oracle
from qesboson.cli import main

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "models"
SHG = str(SAMPLE_DIR / "shg.qesb")
SHG_COUPLINGS = ["--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "0.5"]
HUGE_COUPLINGS = ["--w1", "1e308", "--w2", "1e308", "--kre", "1e308", "--kbre", "1e308"]
GOLDEN = Path(__file__).resolve().parent / "golden"
# sextic parameter sets whose output tests/golden/sextic_<name>.{txt,json} pins byte for byte
SEXTIC_GOLDEN = {
    "real": [*SHG_COUPLINGS, "--k", "3"],
    "complex": ["--w1", "1", "--w2", "2", "--kre", "0.5", "--kim", "0.25",
                "--kbre", "0.5", "--kbim", "-0.25", "--k", "2"],
    "w0": ["--w1", "0", "--w2", "0", "--kre", "0", "--kbre", "1", "--k", "0"],  # W(y) = 0
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_shg_sample(self, capsys):
        code, out, _ = run(capsys, "check", SHG)
        assert code == 0
        assert "conserves: yes (1,2)" in out
        assert "hermitian: yes" in out
        assert "(1,2)" in out and "(2,4)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", SHG, "--output", "json")
        payload = json.loads(out)
        assert payload["conserves"] is True
        assert payload["hermitian"] is True
        assert [1, 2] in payload["conserving_charges"]
        assert payload["commutator"] is None

    def test_wrong_charge_exits_3_and_prints_commutator(self, capsys, tmp_path):
        bad = tmp_path / "bad.qesb"
        text = Path(SHG).read_text().replace("charge 1 2", "charge 1 1")
        bad.write_text(text)
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 3
        assert "conserves: no" in out
        assert "[K,H] =" in out and "a1+^2 a2" in out

    def test_diagonal_model_conserves_everything(self, capsys, tmp_path):
        path = tmp_path / "diag.qesb"
        path.write_text("charge 1 2\nterm 1 0 1 1 0 0\nterm 2 0 0 0 1 1\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        for s in range(1, 13):
            for p in range(1, 13):
                assert f"({s},{p})" in out


class TestSpectrum:
    def test_kappa_two_both_methods(self, capsys):
        code, out, _ = run(capsys, "spectrum", SHG, "--kappa", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 2
        assert payload["dimension"] == 2
        assert payload["basis"] == [[2, 0], [0, 1]]
        oracle = [pair[0] for pair in payload["oracle"]]
        assert oracle == pytest.approx([1.2928932188134525, 2.7071067811865475])
        reduced = [pair[0] for pair in payload["reduced"]]
        assert reduced == pytest.approx(oracle)
        assert payload["max_deviation"] <= 1e-12
        assert payload["residuals"]["oracle"] <= 1e-12

    def test_kappa_four(self, capsys):
        code, out, _ = run(capsys, "spectrum", SHG, "--kappa", "4")
        payload = json.loads(out)
        assert [p[0] for p in payload["oracle"]] == pytest.approx([2, 4, 6])

    def test_empty_block_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "diag23.qesb"
        path.write_text("charge 2 3\nterm 1 0 1 1 0 0\n")
        code, out, _ = run(capsys, "spectrum", str(path), "--kappa", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["dimension"] == 0
        assert payload["oracle"] == [] and payload["reduced"] == []

    def test_oracle_only(self, capsys):
        code, out, _ = run(capsys, "spectrum", SHG, "--kappa", "2", "--method", "oracle")
        payload = json.loads(out)
        assert code == 0
        assert payload["reduced"] is None
        assert payload["max_deviation"] is None

    def test_paper_literal_mode_trips_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", SHG, "--kappa", "2", "--mode", "paper-literal"
        )
        payload = json.loads(out)
        assert code == 4
        assert payload["max_deviation"] == pytest.approx(2.0)


class TestScan:
    def test_kappa_max_four_contract(self, capsys):
        code, out, _ = run(capsys, "scan", SHG, "--kappa-max", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kappa,dim,index,eig_re,eig_im,deviation"
        assert len(lines) == 10  # header plus one row per eigenvalue
        data = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in data] == "0 1 2 2 3 3 4 4 4".split()
        assert all(float(row[5]) <= 1e-9 for row in data)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "scan", SHG, "--kappa-max", "4")
        _, second, _ = run(capsys, "scan", SHG, "--kappa-max", "4")
        assert first == second

    def test_kappa_max_zero(self, capsys):
        code, out, _ = run(capsys, "scan", SHG, "--kappa-max", "0")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 2
        assert lines[1].startswith("0,1,0,")

    def test_literal_mode_exits_4(self, capsys):
        code, out, _ = run(capsys, "scan", SHG, "--kappa-max", "3", "--mode", "paper-literal")
        assert code == 4

    def test_deviations_are_spectrum_deviations(self, capsys, tmp_path):
        # a non-Hermitian SHG: the kappa = 4 block is 4, 4 - 2i, 4 + 2i, and
        # Python's complex abs gives another last bit than numpy's for row 0
        path = tmp_path / "nonhermitian.qesb"
        path.write_text(Path(SHG).read_text().replace("term 1/2 0 0 2 1 0", "term -1/2 0 0 2 1 0"))
        _, out, _ = run(capsys, "scan", str(path), "--kappa-max", "4")
        column = [float(row.split(",")[5]) for row in out.split()[1:] if row.startswith("4,")]
        _, out, _ = run(capsys, "spectrum", str(path), "--kappa", "4", "--method", "both")
        payload = json.loads(out)
        oracle_vals, reduced_vals = (
            np.array([complex(*pair) for pair in payload[name]]) for name in ("oracle", "reduced")
        )
        assert any(v.imag for v in oracle_vals)
        assert column == np.abs(oracle_vals - reduced_vals).tolist()
        assert max(column) == payload["max_deviation"]


class TestPolys:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "polys", SHG, "--kappa", "2")
        assert code == 0
        assert "P_0(E) = 1" in out
        assert "P_1(E) = -2 + E" in out
        assert "P_2(E) = 7/2 - 4*E + E^2" in out
        assert "termination degree 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "polys", SHG, "--kappa", "2", "--output", "json")
        payload = json.loads(out)
        assert payload["dimension"] == 2
        assert payload["termination_degree"] == 2
        assert payload["polys"][0] == [["1", "0"]]
        assert payload["polys"][1] == [["-2", "0"], ["1", "0"]]
        assert payload["polys"][2] == [["7/2", "0"], ["-4", "0"], ["1", "0"]]

    def test_literal_mode(self, capsys):
        code, out, _ = run(
            capsys, "polys", SHG, "--kappa", "2", "--mode", "paper-literal"
        )
        assert "P_1(E) = -4 + E" in out


class TestSextic:
    def test_reference_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "sextic", "--w1", "1", "--w2", "2",
            "--kre", "0.5", "--kbre", "0.5", "--k", "2",
        )
        assert code == 0
        assert "c0=4" in out and "c2=-7/16" in out and "c4=0" in out and "c6=1/256" in out
        assert "W(y) = (2)/y + (0)*y + (-1/16)*y^3" in out
        assert "kinetic=1.0" in out

    def test_complex_couplings_skip_gauge_check(self, capsys):
        code, out, _ = run(
            capsys, "sextic", "--w1", "1", "--w2", "2",
            "--kre", "0", "--kim", "0.5", "--kbre", "0", "--kbim", "-0.5",
            "--k", "1",
        )
        assert code == 0
        assert "gauge identity: skipped" in out
        # kc*kb = 1/4: the coefficients still come out real and exact
        assert "c6=1/256" in out

    def test_json_with_fd(self, capsys):
        code, out, _ = run(
            capsys, "sextic", "--w1", "1", "--w2", "2",
            "--kre", "0.5", "--kbre", "0.5", "--k", "2",
            "--fd", "--fd-grid", "2000", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["potential"]["c0"] == ["4", "0"]
        assert payload["gauge_identity"]["residual"] == 0.0
        assert payload["gauge_identity"]["kinetic"] == 1.0
        assert payload["gauge_identity"]["shift"] == 2.0
        assert payload["fd"]["shift"] == pytest.approx(2.0, abs=5e-3)
        assert payload["fd"]["max_deviation"] <= 5e-3
        assert payload["fd"]["block_levels"] == pytest.approx(
            [1.2928932188134525, 2.7071067811865475]
        )

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(SEXTIC_GOLDEN))
    def test_golden_output(self, capsys, name, output):
        code, out, err = run(capsys, "sextic", *SEXTIC_GOLDEN[name], "--output", output)
        assert (code, err) == (0, "")
        suffix = "txt" if output == "text" else "json"
        assert out == (GOLDEN / f"sextic_{name}.{suffix}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(SEXTIC_GOLDEN))
    def test_fd_output_extends_golden(self, capsys, name):
        # the FD floats depend on the LAPACK build: pin the keys, the exact
        # part, and the text lines as formatted from the same run's JSON
        argv = ["sextic", *SEXTIC_GOLDEN[name], "--fd", "--fd-grid", "2000"]
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        golden = json.loads((GOLDEN / f"sextic_{name}.json").read_text(encoding="utf-8"))
        assert list(payload) == list(golden) == ["superpotential", "potential", "gauge_identity", "fd"]
        assert list(payload["fd"]) == ["block_levels", "fd_levels", "shift", "max_deviation"]
        assert {**payload, "fd": None} == golden
        fd = payload["fd"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"sextic_{name}.txt").read_text(encoding="utf-8") + (
            f"block levels: {fd['block_levels']}\n"
            f"fd levels: {fd['fd_levels']}\n"
            f"fd shift estimate: {fd['shift']!r} max deviation: {fd['max_deviation']!r}\n"
        )

    @pytest.mark.parametrize("flag", ["--w1", "--w2", "--kre", "--kim", "--kbre", "--kbim"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_coupling_must_be_finite(self, capsys, flag, value):
        # an infinite coupling used to end in an OverflowError traceback
        values = dict.fromkeys(("--w1", "--w2", "--kre", "--kbre"), "1") | {flag: value}
        code, out, err = run(capsys, "sextic", *(f"{f}={v}" for f, v in values.items()), "--k", "1")
        assert (code, out) == (1, "")
        assert err == f"usage error: argument {flag}: must be a finite number, got '{value}'\n"

    def test_negative_level_with_complex_couplings(self, capsys):
        # used to print W(y) = (-1)/y ... and exit 0, although real couplings
        # refused the same level
        for kim in ("0", "1"):
            code, out, err = run(
                capsys, "sextic", "--w1", "1", "--w2", "2",
                "--kre", "1", "--kim", kim, "--kbre", "1", "--k", "-1",
            )
            assert (code, out, err) == (1, "", "usage error: k must be non-negative\n")

    @pytest.mark.parametrize("halfwidth", ["nan", "inf"])
    def test_fd_halfwidth_must_be_finite(self, capsys, halfwidth):
        # used to report scipy's "array must not contain infs or NaNs"
        code, out, err = run(
            capsys, "sextic", "--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "0.5",
            "--k", "2", "--fd", "--fd-halfwidth", halfwidth,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"usage error: argument --fd-halfwidth: must be a finite number, got '{halfwidth}'\n"
        )
        code, out, err = run(
            capsys, "sextic", "--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "0.5",
            "--k", "2", "--fd", "--fd-halfwidth", "-1",
        )
        assert (code, out, err) == (1, "", "usage error: halfwidth must be finite and positive\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # the gauge identity is algebraic: large levels need no double
            *([*SHG_COUPLINGS, "--k", k] for k in
              ("100", "200", "300", "500", "514", "515", "600", "1000", "1500", "2000", "100000")),
            # the exact coefficients need no double; only the FD solve does
            [*HUGE_COUPLINGS, "--k", "1"],
        ],
        ids=" ".join,
    )
    def test_exact_gauge_shift_at_any_level(self, capsys, argv):
        code, out, err = run(capsys, "sextic", *argv)
        assert (code, err) == (0, "")
        w2 = argv[argv.index("--w2") + 1]
        assert (
            f"gauge identity: residual=0.0 kinetic=1.0 w_sign=+1 exponent_sign=+1"
            f" shift={float(w2)!r}\n"
        ) in out

    @pytest.mark.parametrize(
        "argv",
        [
            # a potential coefficient beyond double range: OverflowError traceback
            [*HUGE_COUPLINGS, "--k", "1", "--fd"],
            # grid step squared underflows to 0: ZeroDivisionError traceback
            *([*SHG_COUPLINGS, "--k", "3", "--fd", "--fd-halfwidth", w] for w in ("1e-300", "1e-160")),
            # infinite potential samples: scipy's "array must not contain infs"
            [*SHG_COUPLINGS, "--k", "3", "--fd", "--fd-halfwidth", "1e100"],
            # stebz does not converge: reported as a usage error
            [*SHG_COUPLINGS, "--k", "3", "--fd", "--fd-halfwidth", "1e-150"],
            # block levels not real (5, 5 +- 2.83i for kc*kb < 0): their real
            # parts were all "located" on one FD level with exit 0
            ["--w1", "1", "--w2", "2", "--kre", "0.5", "--kbre", "-0.5", "--k", "5", "--fd"],
            ["--w1", "1", "--w2", "2", "--kre", "0", "--kim", "0.5", "--kbre", "0", "--kbim", "0.5",
             "--k", "3", "--fd"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_input_is_numerical_failure(self, capsys, argv):
        code, out, err = run(capsys, "sextic", *argv)
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: ")


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, err = run(capsys, "spectrum", SHG)  # missing --kappa
        assert code == 1
        assert "usage error" in err

    def test_unknown_command_is_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_parse_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "broken.qesb"
        path.write_text("charge 1 2\nterm 1 0 1 1 0\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.qesb")
        assert code == 2

    def test_directory_is_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("cannot read model file: ")

    def test_non_utf8_file_is_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.qesb"
        path.write_bytes("# mod\xe8le\ncharge 1 2\n".encode("latin-1"))
        code, out, err = run(capsys, "spectrum", str(path), "--kappa", "2")
        assert (code, out) == (2, "")
        assert err.startswith("cannot read model file: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("argv", [
        *(("spectrum", "--kappa", kappa, "--method", method)
          for kappa in ("2", "-1") for method in ("oracle", "reduced", "both")),
        ("scan", "--kappa-max", "2"),
        ("scan", "--kappa-max", "-3"),
        ("polys", "--kappa", "2"),
        ("polys", "--kappa", "-1"),
    ], ids=" ".join)
    def test_non_conserving_is_3(self, capsys, tmp_path, argv):
        # the routes refuse the model before they read kappa: exit 3 wins
        # over the usage error of a negative kappa
        bad = tmp_path / "bad.qesb"
        bad.write_text(Path(SHG).read_text().replace("charge 1 2", "charge 1 1"))
        command, *options = argv
        code, out, err = run(capsys, command, str(bad), *options)
        assert (code, out) == (3, "")
        assert err == "non-conserving model: Hamiltonian does not commute with 1*N1 + 1*N2\n"

    def test_unsupported_band_structure_is_4(self, capsys, tmp_path):
        # one-way coupling: the recurrence has no superdiagonal to solve for
        path = tmp_path / "oneway.qesb"
        path.write_text("charge 1 2\nterm 1 0 1 1 0 0\nterm 1/2 0 2 0 0 1\n")
        code, _, err = run(capsys, "polys", str(path), "--kappa", "4")
        assert code == 4
        assert "numerical failure" in err

    def test_negative_kappa_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", SHG, "--kappa", "-1")
        assert code == 1

    def test_negative_kappa_polys_is_usage_error(self, capsys):
        code, out, err = run(capsys, "polys", SHG, "--kappa", "-2")
        assert code == 1
        assert out == ""
        assert "usage error: kappa must be non-negative" in err

    def test_negative_kappa_max_scan_is_usage_error(self, capsys):
        # an empty range used to print only the CSV header and exit 0
        code, out, err = run(capsys, "scan", SHG, "--kappa-max", "-3")
        assert code == 1
        assert out == ""
        assert "usage error: kappa must be non-negative" in err

    @pytest.mark.parametrize("command,kappa_flag", [("spectrum", "--kappa"), ("scan", "--kappa-max")])
    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_must_be_non_negative_number(self, capsys, command, kappa_flag, tol):
        # NaN would make every `deviation > tol` False and switch the gate off
        code, out, err = run(capsys, command, SHG, kappa_flag, "2", "--tol", tol)
        assert code == 1
        assert out == ""
        assert f"usage error: argument --tol: must be a non-negative number, got '{tol}'" in err

    def test_bad_mode_rejected(self, capsys):
        for argv in (
            ("spectrum", SHG, "--kappa", "2"),
            ("scan", SHG, "--kappa-max", "2"),
            ("polys", SHG, "--kappa", "2"),
        ):
            code, out, err = run(capsys, *argv, "--mode", "verbatim")
            assert (code, out) == (1, "")
            assert err.startswith("usage error: argument --mode: invalid choice: 'verbatim'")

    def test_non_numeric_tol_message_unchanged(self, capsys):
        code, _, err = run(capsys, "spectrum", SHG, "--kappa", "2", "--tol", "abc")
        assert code == 1
        assert "usage error: argument --tol: invalid float value: 'abc'" in err


def test_parser_reused_across_calls(capsys):
    """A usage error followed by a valid call in one process prints what
    two fresh processes print."""
    calls = (["spectrum", SHG, "--kappa", "2", "--tol", "nan"], ["spectrum", SHG, "--kappa", "2"])
    in_process = [run(capsys, *argv) for argv in calls]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "qesboson.cli", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [1, 0]


@pytest.mark.parametrize("model, kappa", [("trilinear3.qesb", "1797"), ("shg.qesb", "1198")])
def test_stdout_independent_of_blas_threads(model, kappa):
    """The d = 600 blocks print the same bytes at 1 and at 2 BLAS threads,
    residuals included; a dense residual product changed the last digits
    of residuals.oracle at SHG kappa = 1198."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "qesboson.cli", "spectrum", str(SAMPLE_DIR / model)]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [*argv, "--kappa", kappa, "--method", "both"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# a coupling at 1.5e308: single, or with its adjoint (a Hermitian pair);
# some block entry of each case overflows a double on both routes
HUGE_MODELS = {
    "single": "charge 1 2\nterm 1.5e308 0 2 0 0 1\n",
    "pair": "charge 1 2\nterm 1.5e308 0 2 0 0 1\nterm 1.5e308 0 0 2 1 0\n",
}


# 1e300 couplings on the tridiagonal band, and with a pair off it
OVERFLOWING_RESIDUAL_MODELS = {
    "band": "charge 1 2\nterm 1e300 0 0 2 1 0\nterm 1e300 0 2 0 0 1\n",
}
OVERFLOWING_RESIDUAL_MODELS["wide"] = (
    OVERFLOWING_RESIDUAL_MODELS["band"] + "term 1e300 0 0 4 2 0\nterm 1e300 0 4 0 0 2\n"
)


class TestUnrepresentableBlocks:
    """Entries beyond double range are a numerical failure (exit 4), not a
    traceback or a usage error."""

    @pytest.mark.parametrize("model,kappa", [("single", "4"), ("pair", "2")])
    @pytest.mark.parametrize("method", ["oracle", "reduced", "both"])
    def test_spectrum_exits_4(self, capsys, tmp_path, model, kappa, method):
        path = tmp_path / "huge.qesb"
        path.write_text(HUGE_MODELS[model])
        code, out, err = run(capsys, "spectrum", str(path), "--kappa", kappa, "--method", method)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "does not fit in double precision" in err

    @pytest.mark.parametrize("model", sorted(HUGE_MODELS))
    def test_scan_exits_4(self, capsys, tmp_path, model):
        path = tmp_path / "huge.qesb"
        path.write_text(HUGE_MODELS[model])
        code, out, err = run(capsys, "scan", str(path), "--kappa-max", "4")
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "does not fit in double precision" in err


    # every entry fits in a double; the residual norm of the oracle's block
    # (and of the dense reduced block of the wide model) overflows to inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "model,method,err",
        [
            ("band", "oracle", "block kappa=10 eigensolve residual inf exceeds 1.000e-08"),
            ("band", "both", "block kappa=10 eigensolve residual inf exceeds 1.000e-08"),
            ("band", "reduced", "a reduced block entry does not fit in double precision"),
            ("wide", "oracle", "block kappa=10 eigensolve residual inf exceeds 1.000e-08"),
            ("wide", "both", "block kappa=10 eigensolve residual inf exceeds 1.000e-08"),
            ("wide", "reduced", "reduced block kappa=10 eigensolve residual inf exceeds 1.000e-08"),
        ],
    )
    def test_overflowing_residual_exits_4_without_warning(
        self, capsys, tmp_path, model, method, err
    ):
        # numpy's overflow warning used to reach stderr before the message
        path = tmp_path / "big.qesb"
        path.write_text(OVERFLOWING_RESIDUAL_MODELS[model])
        result = run(capsys, "spectrum", str(path), "--kappa", "10", "--method", method)
        assert result == (4, "", f"numerical failure: {err}\n")


def _nan_first_eigenvalue(qes_spectrum):
    def patched(*args, **kwargs):
        report = qes_spectrum(*args, **kwargs)
        values = (complex("nan"),) + report.eigenvalues[1:]
        return SpectrumReport(report.kappa, report.dimension, values, report.method, 0.0)

    return patched


class TestNanDeviation:
    """A NaN eigenvalue makes the deviation NaN, which exceeds every --tol."""

    def test_spectrum_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "qes_spectrum", _nan_first_eigenvalue(cli.qes_spectrum))
        code, out, _ = run(capsys, "spectrum", SHG, "--kappa", "2")
        assert code == 4
        assert json.loads(out)["max_deviation"] != json.loads(out)["max_deviation"]

    def test_scan_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "qes_spectrum", _nan_first_eigenvalue(cli.qes_spectrum))
        code, out, _ = run(capsys, "scan", SHG, "--kappa-max", "2")
        assert code == 4
        assert out.strip().split("\n")[1].endswith(",nan")


def _fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestSolverFailure:
    """LAPACK non-convergence is a numerical failure (exit 4) on either
    route, although np.linalg.LinAlgError is a ValueError."""

    def test_oracle_exits_4(self, capsys, monkeypatch):
        def stevd_info(*args, **kwargs):
            raise np.linalg.LinAlgError("stevd (eigh_tridiagonal) did not converge (LAPACK info=1)")

        monkeypatch.setattr(oracle, "stevd", stevd_info)
        code, out, err = run(capsys, "spectrum", SHG, "--kappa", "4", "--method", "oracle")
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: block kappa=4 eigensolve failed:"
            " stevd (eigh_tridiagonal) did not converge (LAPACK info=1)\n"
        )

    def test_reduced_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "stevd", _fail_to_converge)
        code, out, err = run(capsys, "spectrum", SHG, "--kappa", "4", "--method", "reduced")
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: reduced block kappa=4 eigensolve failed:"
            " Eigenvalues did not converge\n"
        )


numbers = st.one_of(st.floats(), st.integers(-(10**30), 10**30), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(numbers, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=16,
)
pair_lists = st.lists(
    st.lists(st.one_of(numbers, numbers, json_values), min_size=2, max_size=2), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.dictionaries(st.text(max_size=8), st.one_of(pair_lists, json_values), max_size=6),
    json_values,
))
def test_json_writer_matches_indent_2_dumps(payload):
    """Byte for byte json.dumps(payload, indent=2): NaN, +-inf, ints, bools,
    None, empty and ragged lists, pairs holding strings, lists or objects,
    and nested objects included."""
    assert cli._json_text(payload) == json.dumps(payload, indent=2)
