import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qesboson import SpectrumReport, cli, energy_polynomial_table, oracle, parse_model_file, sextic
from qesboson._lapack import paired_distances
from qesboson.cli import main
from test_cli_contract import PENTA

# a numpy RuntimeWarning (an overflow, say) that a command lets out is an error
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
# the sextic --fd request whose output tests/golden/sextic_fd_k7.{txt,json} pins
SEXTIC_FD_K7 = ["--w1", "0.75", "--w2", "1.5", "--kre", "0.25", "--kbre", "0.875", "--k", "7"]
# SHG with the a1^2 a2+ coefficient -1/2: complex-conjugate pairs from kappa = 4 on
SHG_NEGATIVE = Path(SHG).read_text().replace("term 1/2 0 0 2 1 0", "term -1/2 0 0 2 1 0")
# SHG with w2 - 2 w1 = 1 and coupling product -1/8: the kappa = 2 block is a 2x2
# Jordan block at 5/2 (an exceptional point), larger blocks have conjugate pairs
EXCEPTIONAL_POINT = (
    "charge 1 2\nterm 1 0 1 1 0 0\nterm 3 0 0 0 1 1\nterm 1/2 0 2 0 0 1\nterm -1/4 0 0 2 1 0\n"
)
# model files written by the polys and check golden tests: complex couplings on
# both off-diagonals, and a model whose terms have charge weights 0, 1, 4 and -1
COMPLEX_MODEL = (
    "# qesb v1\ncharge 1 2\nterm 2 1/3 0 0 1 1\nterm 1/2 1/5 0 2 1 0\n"
    "term 1 0 1 1 0 0\nterm 1/3 -1/7 2 0 0 1\n"
)
NON_CONSERVING_MODEL = (
    "# qesb v1\ncharge 1 2\nterm 2 0 1 1 0 0\nterm 1/2 1/3 2 0 0 1\n"
    "term 1/2 -1/3 0 2 1 0\nterm 3/4 0 1 0 0 0\nterm -5/6 1/7 0 0 2 0\n"
    "term 1/9 -2 0 3 1 0\n"
)
# polys requests whose output tests/golden/polys_<name>.{txt,json} pins byte for
# byte; a model of None is the complex one above
POLYS_GOLDEN = {
    "shg_k40": (SHG, ["--kappa", "40"]),
    "trilinear3_k40_literal": (
        str(SAMPLE_DIR / "trilinear3.qesb"), ["--kappa", "40", "--mode", "paper-literal"]
    ),
    "complex_k20": (None, ["--kappa", "20"]),
}


def sextic_fd_lines(fd):
    """The text lines sextic --fd prints for the JSON "fd" payload fd."""
    return (
        f"block levels: {fd['block_levels']}\n"
        f"fd levels: {fd['fd_levels']}\n"
        f"fd shift: {fd['shift']!r} max deviation: {fd['max_deviation']!r}"
        f" error estimate: {fd['error_estimate']!r}\n"
    )


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
        assert "\n[K,H] = " in out and "a1+^2 a2" in out

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        """A model file saved with a UTF-8 byte-order mark checks as the
        plain file of the same name does."""
        text = Path(SHG).read_bytes()
        for folder, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "shg.qesb").write_bytes(data)
        plain = run(capsys, "check", str(tmp_path / "plain" / "shg.qesb"), "--output", "json")
        bom = run(capsys, "check", str(tmp_path / "bom" / "shg.qesb"), "--output", "json")
        assert plain[0] == 0
        assert bom == plain

    def test_diagonal_model_conserves_everything(self, capsys, tmp_path):
        path = tmp_path / "diag.qesb"
        path.write_text("charge 1 2\nterm 1 0 1 1 0 0\nterm 2 0 0 0 1 1\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        for s in range(1, 13):
            for p in range(1, 13):
                assert f"({s},{p})" in out


    @pytest.mark.parametrize("output", ["text", "json"])
    def test_non_conserving_golden_output(self, capsys, tmp_path, output):
        path = tmp_path / "nonconserving.qesb"
        path.write_text(NON_CONSERVING_MODEL)
        code, out, err = run(capsys, "check", str(path), "--output", output)
        assert (code, err) == (3, "")
        suffix = "txt" if output == "text" else "json"
        assert out == (GOLDEN / f"check_nonconserving.{suffix}").read_text(encoding="utf-8")

    def test_every_literal_form_golden_output(self, capsys):
        # the commutator prints the value each coefficient literal parsed to
        code, out, err = run(capsys, "check", str(GOLDEN / "literals.qesb"), "--output", "json")
        assert (code, err) == (3, "")
        assert out == (GOLDEN / "check_literals.json").read_text(encoding="utf-8")


class TestSpectrum:
    def test_golden_output(self, capsys):
        """spectrum prints tests/golden/spectrum_shg_k12.json: all before
        max_deviation byte for byte, and max_deviation and the residuals,
        which rest on LAPACK's last bits, within 1e-12."""
        code, out, err = run(capsys, "spectrum", SHG, "--kappa", "12", "--method", "both")
        assert (code, err) == (0, "")
        golden = (GOLDEN / "spectrum_shg_k12.json").read_text(encoding="utf-8")
        assert out.partition('  "max_deviation"')[0] == golden.partition('  "max_deviation"')[0]
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

        def lapack_scalars(text):
            payload = json.loads(text)
            return [payload["max_deviation"], *payload["residuals"].values()]

        np.testing.assert_allclose(lapack_scalars(out), lapack_scalars(golden), rtol=0, atol=1e-12)

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


def spectrum_pair(payload):
    """The oracle's and the reduced route's eigenvalues of a spectrum payload."""
    return [np.array([complex(*pair) for pair in payload[name]]) for name in ("oracle", "reduced")]


class TestComplexSpectra:
    """Conjugate pairs whose real parts differ by rounding sort differently
    on the two routes; the routes are compared by min-cost pairing there."""

    @pytest.mark.parametrize(
        "model, kappa",
        [(SHG_NEGATIVE, 6), (SHG_NEGATIVE, 8)]
        + [(EXCEPTIONAL_POINT, kappa) for kappa in (4, 5, 6, 8, 10)],
    )
    def test_conjugate_pairs_exit_0(self, capsys, tmp_path, model, kappa):
        path = tmp_path / "complex.qesb"
        path.write_text(model)
        code, out, err = run(capsys, "spectrum", str(path), "--kappa", str(kappa), "--method", "both")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        oracle_vals, reduced_vals = spectrum_pair(payload)
        assert oracle_vals.imag.any()
        assert np.abs(oracle_vals - reduced_vals).max() > 1.0
        assert payload["max_deviation"] <= 1e-13

    def test_defective_block_still_exits_4(self, capsys, tmp_path):
        # a 2x2 Jordan block: the reduced route's 5/2 +- 1.8e-8 is the sqrt(eps)
        # a backward-stable solver may give, and no pairing brings it within 1e-9
        path = tmp_path / "exceptional.qesb"
        path.write_text(EXCEPTIONAL_POINT)
        code, out, err = run(capsys, "spectrum", str(path), "--kappa", "2", "--method", "both")
        assert (code, err) == (4, "")
        assert 1e-9 < json.loads(out)["max_deviation"] < 1e-7

    def test_scan_deviations_are_paired_distances(self, capsys, tmp_path):
        path = tmp_path / "negative.qesb"
        path.write_text(SHG_NEGATIVE)
        code, scan, err = run(capsys, "scan", str(path), "--kappa-max", "10")
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in scan.split()[1:]]
        for kappa in range(6, 11):
            column = [float(row[5]) for row in rows if row[0] == str(kappa)]
            _, out, _ = run(capsys, "spectrum", str(path), "--kappa", str(kappa), "--method", "both")
            oracle_vals, reduced_vals = spectrum_pair(json.loads(out))
            assert column == paired_distances(oracle_vals, reduced_vals).tolist()
            assert max(column) <= 1e-13


@st.composite
def route_spectra(draw):
    """Two equally long spectra in the routes' shared (real, imag) order: the
    second a permutation of the first, perturbed; real or with conjugate pairs."""
    parts = st.integers(-8, 8).map(lambda n: n / 4)
    real = draw(st.booleans())
    half = draw(st.lists(st.tuples(parts, parts), max_size=5))
    first = [complex(x, 0.0) for x, _ in half] if real else [
        complex(x, s * y) for x, y in half for s in (1, -1)
    ]
    noise = st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, 0.5])
    order = draw(st.permutations(range(len(first))))
    second = [
        first[i] + complex(draw(noise), 0.0 if real else draw(noise)) for i in order
    ]
    key = lambda v: (v.real, v.imag)  # noqa: E731
    return sorted(first, key=key), sorted(second, key=key)


@settings(max_examples=200, deadline=None)
@given(route_spectra(), st.sampled_from([0.0, 1e-9, 0.3]))
def test_paired_deviation_never_exceeds_positional(spectra, tol):
    first, second = spectra

    def report(values):
        return SpectrumReport(tuple(values), 0.0)

    deviations, within = cli._compare_routes(report(first), report(second), tol)
    positional = np.abs(np.array(tuple(first)) - np.array(tuple(second)))
    assert deviations.max(initial=0.0) <= positional.max(initial=0.0)
    assert within == bool((deviations <= tol).all())
    if not any(v.imag for v in first + second):
        assert deviations.tobytes() == positional.tobytes()


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


    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(POLYS_GOLDEN))
    def test_golden_output(self, capsys, tmp_path, name, output):
        model, argv = POLYS_GOLDEN[name]
        if model is None:
            model = tmp_path / "complex.qesb"
            model.write_text(COMPLEX_MODEL)
        code, out, err = run(capsys, "polys", str(model), *argv, "--output", output)
        assert (code, err) == (0, "")
        suffix = "txt" if output == "text" else "json"
        assert out == (GOLDEN / f"polys_{name}.{suffix}").read_text(encoding="utf-8")


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
            "--fd", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["potential"]["c0"] == ["4", "0"]
        assert payload["gauge_identity"]["residual"] == 0.0
        assert payload["gauge_identity"]["kinetic"] == 1.0
        assert payload["gauge_identity"]["shift"] == 2.0
        assert payload["fd"]["shift"] == 2.0
        assert payload["fd"]["max_deviation"] <= 5e-3
        assert payload["fd"]["block_levels"] == pytest.approx(
            [1.2928932188134525, 2.7071067811865475]
        )
        np.testing.assert_allclose(
            payload["fd"]["fd_levels"], np.add(payload["fd"]["block_levels"], 2.0), rtol=1e-12
        )

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(SEXTIC_GOLDEN))
    def test_golden_output(self, capsys, name, output):
        code, out, err = run(capsys, "sextic", *SEXTIC_GOLDEN[name], "--output", output)
        assert (code, err) == (0, "")
        suffix = "txt" if output == "text" else "json"
        assert out == (GOLDEN / f"sextic_{name}.{suffix}").read_text(encoding="utf-8")

    def test_fd_k7_golden(self, capsys):
        # the analytic benchmark's largest request class: 4 block levels and
        # the 4 sector levels they match.  The exact part is pinned byte for
        # byte; the floats, which depend on the LAPACK build, to 1e-9, and
        # the text lines to this run's JSON
        argv = ["sextic", *SEXTIC_FD_K7, "--fd"]
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        golden = json.loads((GOLDEN / "sextic_fd_k7.json").read_text(encoding="utf-8"))
        assert list(payload) == list(golden)
        assert {**payload, "fd": None} == {**golden, "fd": None}
        fd, golden_fd = payload["fd"], golden["fd"]
        assert list(fd) == list(golden_fd)
        for key in fd:
            np.testing.assert_allclose(fd[key], golden_fd[key], rtol=0, atol=1e-9)
        assert (len(fd["block_levels"]), len(fd["fd_levels"])) == (4, 4)
        # the gauge identity, independent of the golden file
        np.testing.assert_allclose(fd["fd_levels"], np.add(fd["block_levels"], 1.5), rtol=1e-12)
        golden_text = (GOLDEN / "sextic_fd_k7.txt").read_text(encoding="utf-8").splitlines(True)
        exact_lines, fd_lines = "".join(golden_text[:3]), "".join(golden_text[3:])
        assert fd_lines == sextic_fd_lines(golden_fd)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == exact_lines + sextic_fd_lines(fd)

    def test_fd_request_builds_w_and_v_once(self, capsys, monkeypatch):
        built = []

        @dataclasses.dataclass(frozen=True)
        class CountedW(sextic.Superpotential):
            def __post_init__(self):
                built.append("W")

        @dataclasses.dataclass(frozen=True)
        class CountedV(sextic.SexticPotential):
            def __post_init__(self):
                built.append("V")

        monkeypatch.setattr(sextic, "Superpotential", CountedW)
        monkeypatch.setattr(sextic, "SexticPotential", CountedV)
        # couplings no other test uses, so no earlier call has built W or V
        argv = ["--w1", "0.625", "--w2", "1.375", "--kre", "0.375", "--kbre", "0.625", "--k", "4"]
        code, out, err = run(capsys, "sextic", *argv, "--fd", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["gauge_identity"]["shift"] == 1.375
        assert sorted(built) == ["V", "W"]

    @pytest.mark.parametrize("name", ["complex", "real"])
    def test_fd_output_extends_golden(self, capsys, name):
        # the sextic floats depend on the LAPACK build: pin the keys, the
        # exact part, and the text lines as formatted from the same run's JSON
        argv = ["sextic", *SEXTIC_GOLDEN[name], "--fd"]
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        golden = json.loads((GOLDEN / f"sextic_{name}.json").read_text(encoding="utf-8"))
        assert list(payload) == list(golden) == ["superpotential", "potential", "gauge_identity", "fd"]
        assert list(payload["fd"]) == [
            "block_levels", "fd_levels", "shift", "max_deviation", "error_estimate"
        ]
        assert {**payload, "fd": None} == golden
        fd = payload["fd"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"sextic_{name}.txt").read_text(encoding="utf-8") + sextic_fd_lines(fd)

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_one_level_fd_match_uses_the_gauge_shift(self, capsys, k):
        # one block level is matched like any other: to sector level 0 under
        # the exact gauge shift w2
        code, out, err = run(capsys, "sextic", *SHG_COUPLINGS, "--k", k, "--fd", "--output", "json")
        assert (code, err) == (0, "")
        fd = json.loads(out)["fd"]
        (level,) = fd["block_levels"]
        assert fd["shift"] == 2.0
        assert fd["max_deviation"] == abs(fd["fd_levels"][0] - (level + 2.0))
        assert fd["max_deviation"] <= 1e-9 * max(1.0, abs(level + 2.0))

    def test_non_confining_potential_is_refused(self, capsys):
        # W = 0 and V = 0: used to exit 0 with the box's ground state 0.034
        # as a level of a potential that has none
        code, out, err = run(capsys, "sextic", *SEXTIC_GOLDEN["w0"], "--fd")
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: sextic potential at k=0 does not confine"
            " (c2=0.0, c4=0.0, c6=0.0): it has no bound states\n"
        )

    @pytest.mark.parametrize(("k", "count", "basis"), [(2048, 1025, 8200), (4096, 2049, 16392)])
    def test_too_many_levels_are_refused_before_any_basis_solve(
        self, capsys, monkeypatch, k, count, basis
    ):
        # the second basis of 2 * 4 * count states exceeds the 8192 cap: this
        # used to solve one futile 8192-state sector (k < 4096) or none, and
        # then claim the levels "do not settle (last move inf)"
        def refuse(*args):
            raise AssertionError("an oscillator basis was solved")

        monkeypatch.setattr(sextic, "_sector_levels", refuse)
        code, out, err = run(capsys, "sextic", *SHG_COUPLINGS, "--k", str(k), "--fd")
        assert (code, out) == (4, "")
        assert err == (
            f"numerical failure: {count} sextic levels at k={k} need a basis of {basis}"
            " oscillator states to settle, more than 8192\n"
        )

    def test_coefficient_that_dwarfs_the_leading_one_is_refused(self, capsys):
        # c4 / c6 = -2e120: the turning-point solver's scale ** 3 overflowed
        # here, and the command ended in a traceback with exit 1; then a
        # grid point that only rounding put below the level stretched the
        # basis beyond double range.  The block level + w2 = 4.0 lies below
        # min V = 4.75, so no sector level matches it
        argv = ["--w1", "1", "--w2", "3", "--kre", "1e-60", "--kbre", "1e-60", "--k", "1", "--fd"]
        code, out, err = run(capsys, "sextic", *argv)
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: sextic level 0 at k=1 is 5.5 and block level + w2 is 4.0:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(("k", "message"), [
        # the 1 x 1 block's level is real, the potential is not: these were
        # usage errors with exit 1
        ("0", "sextic c2 at k=0 is not real: -3/16-3/16i"),
        ("1", "sextic c2 at k=1 is not real: -5/16-5/16i"),
        # non-real block levels are refused first
        ("2", "block kappa=2 has non-real levels, which no sextic level can match"),
    ])
    def test_complex_potential_is_refused(self, capsys, k, message):
        argv = ["--w1", "1", "--w2", "2", "--kre", "0.5", "--kim", "0.5", "--kbre", "0.5", "--k", k]
        code, out, err = run(capsys, "sextic", *argv, "--fd")
        assert (code, out, err) == (4, "", f"numerical failure: {message}\n")

    @pytest.mark.parametrize(("k", "level"), [("1", "3.0"), ("0", "2.0")])
    def test_opposite_couplings_are_refused_as_a_mismatch(self, capsys, monkeypatch, k, level):
        # with kc kb < 0, e^{int W} is not normalizable: the block level + w2
        # sits at V(0) and matches no sector level.  The turning-point
        # bisection returned a subnormal root there, and bases up to 8192
        # states were solved before a false "do not settle"
        sizes, solve = [], sextic._sector_levels

        def counted(grid, size, *args):
            sizes.append(size)
            return solve(grid, size, *args)

        monkeypatch.setattr(sextic, "_sector_levels", counted)
        argv = ["--w1", "1", "--w2", "2", "--kre", "-0.5", "--kbre", "0.5", "--k", k, "--fd"]
        code, out, err = run(capsys, "sextic", *argv)
        assert (code, out, sizes) == (4, "", [40, 80])
        assert err.startswith(f"numerical failure: sextic level 0 at k={k} is ")
        assert f" and block level + w2 is {level}: they differ by " in err
        assert err.count("\n") == 1

    def test_fd_request_calls_no_numpy_linalg(self, capsys, monkeypatch):
        # numpy's threaded eigensolvers can stall a fresh process; the block
        # levels and the sextic levels go through qesboson._lapack alone
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        argv = ["--w1", "0.875", "--w2", "1.625", "--kre", "0.375", "--kbre", "0.75", "--k", "6"]
        code, out, err = run(capsys, "sextic", *argv, "--fd", "--output", "json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["fd"]["fd_levels"]) == 4

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
        # refused the same level; the gauge check, which needs kappa_bar != 0,
        # refuses k < 0 first
        for kim, kbre in (("0", "1"), ("1", "1"), ("0", "0")):
            code, out, err = run(
                capsys, "sextic", "--w1", "1", "--w2", "2",
                "--kre", "1", "--kim", kim, "--kbre", kbre, "--k", "-1",
            )
            assert (code, out, err) == (1, "", "usage error: k must be non-negative\n")

    @pytest.mark.parametrize("option", ["--fd-halfwidth", "--fd-grid"])
    def test_finite_difference_box_options_are_gone(self, capsys, option):
        code, out, err = run(capsys, "sextic", *SHG_COUPLINGS, "--k", "2", "--fd", option, "6")
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: {option} 6\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # the gauge identity is algebraic: large levels need no double
            *([*SHG_COUPLINGS, "--k", k] for k in
              ("100", "200", "300", "500", "514", "515", "600", "1000", "1500", "2000", "100000")),
            # the exact coefficients need no double; only the sextic levels do
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
            # c6 = (kc kb)^2 / 16 underflows to 0.0: used to exit 0 with the
            # levels of a quartic, 7.5e-100 off block levels of size 5e-100
            ["--w1", "1e-100", "--w2", "1e-100", "--kre", "1e-100", "--kbre", "1e-100", "--k", "3", "--fd"],
            # a constant V (kc kb = 0 and w2 = 2 w1): no bound states
            [*SEXTIC_GOLDEN["w0"], "--fd"],
            ["--w1", "1", "--w2", "2", "--kre", "0", "--kbre", "0.5", "--k", "3", "--fd"],
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

    @pytest.mark.parametrize("k", ["30", "100", "200"])
    def test_large_k_levels_match(self, capsys, k):
        # the 4000-node box used to exit 0 with max deviation 2.05 at k = 30
        # in a box of halfwidth 4 and 0.218 at k = 100, and could not hold k = 200
        code, out, err = run(capsys, "sextic", *SHG_COUPLINGS, "--k", k, "--fd", "--output", "json")
        assert (code, err) == (0, "")
        fd = json.loads(out)["fd"]
        expected = np.add(fd["block_levels"], 2.0)
        assert len(expected) == int(k) // 2 + 1
        deviations = np.abs(np.subtract(fd["fd_levels"], expected))
        assert fd["max_deviation"] == deviations.max()
        assert (deviations <= 1e-9 * np.maximum(1.0, np.abs(expected))).all()

    def test_gate_failure_is_numerical_failure(self, capsys, monkeypatch):
        # a sextic level off its block level + w2 by more than the gate
        levels = cli.oscillator_levels

        def shifted(*args):
            found, moved = levels(*args)
            return found + np.where(np.arange(found.size) == 1, 1e-6, 0.0), moved

        monkeypatch.setattr(cli, "oscillator_levels", shifted)
        code, out, err = run(capsys, "sextic", *SHG_COUPLINGS, "--k", "3", "--fd")
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: sextic level 1 at k=3 is ")
        assert err.count("\n") == 1 and " more than " in err


HUGE_BLOCK = (
    "numerical failure: block kappa=10000000000 has 5000000001 states, more than the 8192"
    " a block may have\n"
)


class TestSizeGuard:
    """A block of more than oracle.MAX_DIMENSION states is refused with exit
    4 and one stderr line, before any of it is built."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", SHG, "--kappa", "10000000000", "--method", "both"],
        ["spectrum", SHG, "--kappa", "10000000000", "--method", "oracle"],
        ["spectrum", SHG, "--kappa", "10000000000", "--method", "reduced"],
        ["polys", SHG, "--kappa", "10000000000"],
        ["sextic", *SHG_COUPLINGS, "--k", "10000000000", "--fd"],
    ])
    def test_huge_block_is_refused_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (4, "", HUGE_BLOCK)
        assert peak < 2**20

    def test_scan_is_refused_at_the_first_block_above(self, capsys, monkeypatch):
        # refused before any block is solved
        monkeypatch.setattr(oracle, "MAX_DIMENSION", 5)
        solves = []
        monkeypatch.setattr(cli, "block_spectrum", lambda *a: solves.append(a))
        code, out, err = run(capsys, "scan", SHG, "--kappa-max", "20")
        assert (code, out, solves) == (4, "", [])
        assert err == (
            "numerical failure: block kappa=10 has 6 states, more than the 5 a block may have\n"
        )

    def test_scan_refuses_a_huge_kappa_max_at_once(self, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "block_spectrum", lambda *a: solves.append(a))
        code, out, err = run(capsys, "scan", SHG, "--kappa-max", "10000000000")
        assert (code, out, solves) == (4, "", [])
        assert err == (
            "numerical failure: block kappa=16384 has 8193 states,"
            " more than the 8192 a block may have\n"
        )

    def test_scan_refuses_a_non_conserving_model_first(self, capsys, tmp_path):
        bad = tmp_path / "bad.qesb"
        bad.write_text(Path(SHG).read_text().replace("charge 1 2", "charge 1 1"))
        code, out, err = run(capsys, "scan", str(bad), "--kappa-max", "10000000000")
        assert (code, out) == (3, "")
        assert err == "non-conserving model: Hamiltonian does not commute with 1*N1 + 1*N2\n"


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

    @pytest.mark.parametrize("path", ["", "./no-such.qesb", "no-such-dir//x.qesb"])
    def test_unreadable_path_is_named_as_given(self, capsys, path):
        # "" used to be read as the directory "." and named so; "a//b"
        # and "./x" were normalized to "a/b" and "x"
        code, out, err = run(capsys, "spectrum", path, "--kappa", "2")
        assert (code, out) == (2, "")
        assert err == f"cannot read model file: [Errno 2] No such file or directory: {path!r}\n"

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
        ("scan", "--kappa-max", "3"),
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


# argv that main hands to a command's own parser or, when the first argument
# names no command, to the top-level parser
DISPATCH_CORPUS = [
    # every command, with options as separate words, as --opt=value and abbreviated
    ["check", SHG], ["check", SHG, "--output", "json"], ["check", SHG, "--out=json"],
    ["spectrum", SHG, "--kappa", "2"], ["spectrum", SHG, "--kap", "2", "--meth", "oracle"],
    ["spectrum", SHG, "--kappa=3", "--method=reduced", "--mode=paper-literal", "--tol=1e-6"],
    ["scan", SHG, "--kappa-max", "2"], ["scan", "--kappa-m=1", SHG],
    ["polys", SHG, "--kappa", "2", "--output", "json"], ["polys", SHG, "--kappa", "-1"],
    ["sextic", *SHG_COUPLINGS, "--k", "1"],
    ["sextic", *SHG_COUPLINGS, "--k=0", "--fd", "--out", "json"],
    # usage errors: a missing option or positional, a missing value, a bad
    # choice, type or value, an ambiguous or unknown option, extra words
    ["spectrum", SHG], ["check"], ["spectrum", SHG, "--kappa"],
    ["spectrum", SHG, "--kappa", "2", "--method", "exact"], ["spectrum", SHG, "--kappa", "two"],
    ["spectrum", SHG, "--kappa", "2", "--tol", "nan"],
    ["sextic", *SHG_COUPLINGS, "--k", "1", "--w1", "inf"],
    ["spectrum", SHG, "--kappa", "2", "--m", "oracle"], ["check", SHG, "--bogus"],
    ["check", SHG, "extra", "words"], ["sextic", *SHG_COUPLINGS, "--k", "1", "--fd=yes"],
    ["check", "--", SHG], ["check", "--", "--output"], ["scan", SHG],
    # help at both levels, spelled out and abbreviated
    ["-h"], ["--help"], ["--he"], ["check", "-h"], ["spectrum", "--help"],
    ["sextic", "--he"], ["polys", SHG, "--kappa", "nan", "-h"],
    # no command, an unknown or abbreviated one, or an option first
    [], ["frobnicate"], ["chec", SHG], ["CHECK", SHG],
    ["--kappa", "2"], ["-x"], ["--output=json", "check", SHG],
    # a leading -- before anything but a command name (main reads -- and a
    # command as that command; tests/test_cli_contract.py runs it)
    ["--"], ["--", "frobnicate"], ["--", "-h"], ["--", "--", "check", SHG],
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); help ends in SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    direct = outcome(capsys, list(argv))
    with monkeypatch.context() as patch:
        # with no command to look up, every argv goes to _PARSER.parse_args
        patch.setattr(cli, "_COMMANDS", {})
        assert outcome(capsys, list(argv)) == direct
    monkeypatch.setattr(sys, "argv", ["qesboson", *argv])
    assert outcome(capsys, None) == direct


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


@pytest.mark.parametrize("argv", [
    ["spectrum", str(SAMPLE_DIR / "trilinear3.qesb"), "--kappa", "1797", "--method", "both"],
    ["spectrum", SHG, "--kappa", "1198", "--method", "both"],
    ["polys", SHG, "--kappa", "200", "--output", "json"],
    ["sextic", *SHG_COUPLINGS, "--k", "3", "--fd", "--output", "json"],
    # the analytic benchmark's largest request class: 4 block levels, 4 sector levels
    ["sextic", *SEXTIC_FD_K7, "--fd", "--output", "json"],
    # d = 89, dense eigh: the eigenvalues match at 1 and 2 threads here,
    # and a dense residual product printed residuals.oracle 1.3617e-12
    # at 1 thread and 1.3347e-12 at 2
    ["spectrum", PENTA, "--kappa", "88", "--method", "oracle"],
], ids=["trilinear3-k1797", "shg-k1198", "polys-shg-k200", "sextic-k3", "sextic-k7", "penta-k88"])
def test_stdout_independent_of_blas_threads(argv, tmp_path):
    """The d = 600 blocks, the energy polynomials and the sextic levels, all
    solved through qesboson._lapack, and the residuals of every block, taken
    on its bands, print the same bytes at 1 and at 2 BLAS threads; a dense
    residual product changed the last digits of residuals.oracle at SHG
    kappa = 1198 and at PENTA kappa = 88."""
    model = tmp_path / "penta.qesb"
    model.write_text(PENTA)
    argv = [str(model) if arg == PENTA else arg for arg in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   PYTHONWARNINGS="error::RuntimeWarning")
        proc = subprocess.run(
            [sys.executable, "-m", "qesboson.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    # 7 KB of JSON, which fit the 8 KB stdout buffer: the pipe sees them
    # only when stdout is flushed
    ["spectrum", SHG, "--kappa", "100", "--method", "both"],
    # 22 KB of CSV, which a print writes while the command runs
    ["scan", SHG, "--kappa-max", "40"],
    # 122 bytes, which stay buffered after the failed flush: the
    # interpreter's exit flush passes only with stdout on /dev/null
    ["check", SHG],
])
def test_closed_stdout_pipe_exits_1_without_traceback(argv):
    """A stdout pipe whose reader has gone (its read end is closed before
    the command starts) ends the command with exit 1 and nothing on stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    # stdout block-buffered, as it is on a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qesboson.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


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
        return SpectrumReport(values, 0.0)

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


pair_numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(),
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), -float("inf")]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.none(), st.lists(st.lists(pair_numbers, min_size=2, max_size=2), max_size=6)
))
def test_pair_writer_matches_indent_2_dumps(pairs):
    """The pair writer gives pairs' slot in json.dumps({"k": pairs}, indent=2)
    byte for byte: None, [], ints beyond 2**63, -0.0, subnormal and largest
    floats, NaN and +-inf included."""
    assert '{\n  "k": ' + cli._pairs_json(pairs) + "\n}" == json.dumps({"k": pairs}, indent=2)


# JSON requests, with their exit codes, whose output must be exactly
# json.dumps(payload, indent=2); the relative model paths are written by the test
JSON_LAYOUT_CASES = {
    "spectrum_shg_k1198": (0, ["spectrum", SHG, "--kappa", "1198", "--method", "both"]),
    "spectrum_trilinear3_k30_oracle": (
        0, ["spectrum", str(SAMPLE_DIR / "trilinear3.qesb"), "--kappa", "30", "--method", "oracle"]
    ),
    "spectrum_trilinear3_k30_reduced": (
        0, ["spectrum", str(SAMPLE_DIR / "trilinear3.qesb"), "--kappa", "30", "--method", "reduced"]
    ),
    "spectrum_empty_block": (0, ["spectrum", "empty.qesb", "--kappa", "1"]),
    "polys_shg_k200": (0, ["polys", SHG, "--kappa", "200", "--output", "json"]),
    "polys_complex_k40": (0, ["polys", "complex.qesb", "--kappa", "40", "--output", "json"]),
    # oracle and reduced agree as multisets but not in their sorted order; min-cost
    # pairing matches them: exit 0
    "spectrum_non_hermitian_k8": (0, ["spectrum", "non_hermitian.qesb", "--kappa", "8"]),
    "check": (0, ["check", SHG, "--output", "json"]),
    "sextic_fd": (0, ["sextic", *SHG_COUPLINGS, "--k", "3", "--fd", "--output", "json"]),
}


@pytest.mark.parametrize("name", sorted(JSON_LAYOUT_CASES))
def test_json_output_is_indent_2_dumps(capsys, tmp_path, monkeypatch, name):
    code, argv = JSON_LAYOUT_CASES[name]
    (tmp_path / "empty.qesb").write_text("charge 2 3\nterm 1 0 1 1 0 0\n")
    (tmp_path / "complex.qesb").write_text(COMPLEX_MODEL)
    # models/shg.qesb with one coupling negated: not Hermitian, complex-conjugate levels
    (tmp_path / "non_hermitian.qesb").write_text(
        Path(SHG).read_text().replace("term 1/2 0 0 2 1 0", "term -1/2 0 0 2 1 0")
    )
    monkeypatch.chdir(tmp_path)
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(), st.integers(-(10**60), 10**60), st.just(0)),
    st.one_of(st.integers(-(10**40), 10**40), st.integers(-3, 3)).filter(bool),
)
def test_fraction_text_is_str_of_fraction(num, den):
    assert cli._fraction_text(num, den) == str(Fraction(num, den))


coupling_parts = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    order=st.sampled_from((1, 2, 3)),
    w=st.tuples(coupling_parts, coupling_parts),
    kc=st.tuples(coupling_parts.filter(bool), coupling_parts),
    kb=st.tuples(coupling_parts.filter(bool), coupling_parts),
    real=st.booleans(),
    kappa=st.integers(0, 60),
    mode=st.sampled_from(["corrected", "paper-literal"]),
)
def test_polys_json_is_the_fraction_rendered_table(
    capsys, tmp_path, order, w, kc, kb, real, kappa, mode
):
    """polys --output json of a random three-term model, real or complex, is
    json.dumps of its table with every coefficient part a reduced Fraction."""
    if real:
        kc, kb = (kc[0], 0), (kb[0], 0)
    path = tmp_path / "three_term.qesb"
    path.write_text(
        f"charge 1 {order}\nterm {w[0]} 0 1 1 0 0\nterm {w[1]} 0 0 0 1 1\n"
        f"term {kc[0]} {kc[1]} {order} 0 0 1\nterm {kb[0]} {kb[1]} 0 {order} 1 0\n"
    )
    model = parse_model_file(path.read_text())
    h = cli._reduced_hamiltonian(model.hamiltonian(), mode)
    table = energy_polynomial_table(h, model.charge, kappa)
    expected = {
        "kappa": kappa,
        "mode": mode,
        "dimension": table.dimension,
        "termination_degree": table.dimension,
        "polys": [[[str(c.re), str(c.im)] for c in poly.coeffs] for poly in table.polys],
    }
    code, out, err = run(capsys, "polys", str(path), "--kappa", str(kappa), "--output", "json",
                         "--mode", mode)
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2) + "\n"
