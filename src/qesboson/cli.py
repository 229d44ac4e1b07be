"""Batch front-end: model checks, block spectra, scans and the sextic map.

Exit codes are a stable contract: 0 success, 1 usage error, 2 model file
unreadable as UTF-8 text or unparsable, 3 declared charge not conserved
(NonConservingHamiltonian, which each block route raises before it reads
kappa), 4 numerical failure or tolerance exceeded; a closed output pipe
(the reader of stdout has gone) ends with exit 1 and no traceback.  Output is
deterministic: fixed key order, fixed sort orders, floats serialized with
full double precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._lapack import paired_distances
from .algebra import (
    PAIR_LIMIT,
    OperatorPolynomial,
    _charge_commutator,
    conserves,
    conserving_pairs,
    is_hermitian,
)
from .errors import (
    NonConservingHamiltonian,
    NumericalFailure,
    ParseError,
    QesBosonError,
)
from .models import ModelFile, build_shg, parse_model_file, shg_charge
from .oracle import (
    SpectrumReport,
    _non_conserving,
    block_spectrum,
    enumerate_block,
    oversized_block,
)
from .reduction import energy_polynomial_table, paper_literal, qes_spectrum
from .sextic import (
    LEVEL_TOL,
    check_gauge_identity,
    fd_spectrum,  # noqa: F401 - not called here; perfbench/spans.py wraps cli.fd_spectrum
    gauge_superpotential,
    oscillator_levels,
    sextic_potential,
)


class _UsageError(Exception):
    pass


class _UnreadableModel(Exception):
    """A model file that cannot be read as UTF-8 text: missing, a
    directory, unreadable or not UTF-8.  Exit 2, as a parse error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    """--tol value: a non-negative float; NaN would switch the gate off."""
    value = _float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def _finite(text: str) -> float:
    """A coupling or width: a finite float, which the exact algebra can hold."""
    value = _float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _reduced_hamiltonian(h: OperatorPolynomial, mode: str) -> OperatorPolynomial:
    """The Hamiltonian the reduced route is given under --mode."""
    return paper_literal(h) if mode == "paper-literal" else h


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="qesboson", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="conservation and hermiticity report")
    check.add_argument("model", help="model file path")
    check.add_argument("--output", choices=("text", "json"), default="text")

    spectrum = sub.add_parser("spectrum", help="spectrum of one charge block")
    spectrum.add_argument("model")
    spectrum.add_argument("--kappa", type=int, required=True)
    spectrum.add_argument("--method", choices=("oracle", "reduced", "both"), default="both")
    spectrum.add_argument("--tol", type=_tolerance, default=1e-9)
    spectrum.add_argument("--mode", choices=("corrected", "paper-literal"), default="corrected")

    scan = sub.add_parser("scan", help="CSV scan comparing both methods per block")
    scan.add_argument("model")
    scan.add_argument("--kappa-max", type=int, required=True)
    scan.add_argument("--tol", type=_tolerance, default=1e-9)
    scan.add_argument("--mode", choices=("corrected", "paper-literal"), default="corrected")

    polys = sub.add_parser("polys", help="energy polynomials of one block")
    polys.add_argument("model")
    polys.add_argument("--kappa", type=int, required=True)
    polys.add_argument("--mode", choices=("corrected", "paper-literal"), default="corrected")
    polys.add_argument("--output", choices=("text", "json"), default="text")

    sextic = sub.add_parser("sextic", help="superpotential, sextic coefficients, gauge check")
    sextic.add_argument("--w1", type=_finite, required=True)
    sextic.add_argument("--w2", type=_finite, required=True)
    sextic.add_argument("--kre", type=_finite, required=True)
    sextic.add_argument("--kim", type=_finite, default=0.0)
    sextic.add_argument("--kbre", type=_finite, required=True)
    sextic.add_argument("--kbim", type=_finite, default=0.0)
    sextic.add_argument("--k", type=int, required=True)
    sextic.add_argument(
        "--fd",
        action="store_true",
        help="match the block levels + w2 to the sextic levels of an oscillator basis; exit 4"
        f" when a level differs by more than {LEVEL_TOL:g}*max(1, |E|) plus its error estimate",
    )
    sextic.add_argument("--output", choices=("text", "json"), default="text")

    return parser, sub.choices


# parsing leaves the parser unchanged, so one per process serves every call;
# it is built at import, together with argparse's one-time gettext set-up
# (which imports locale), rather than inside the first call
_PARSER, _COMMANDS = _build_parser()


def _load_model(path: str) -> ModelFile:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:  # the latter is a ValueError
        raise _UnreadableModel(exc) from None
    return parse_model_file(text, name=os.path.basename(path))


def _pairs_json(pairs) -> str:
    """json.dumps(pairs, indent=2) at depth 1 of an object, for pairs None,
    [] or a list of [number, number] lists (basis states, eigenvalues).

    The numbers go through one C-encoded dump of the flat list and are
    laid out in the fixed indent-2 form, without json's pure-Python
    indent encoder.
    """
    if not pairs:
        return json.dumps(pairs)
    numbers = iter(json.dumps([x for pair in pairs for x in pair])[1:-1].split(", "))
    rows = ",\n    ".join(f"[\n      {a},\n      {b}\n    ]" for a, b in zip(numbers, numbers))
    return f"[\n    {rows}\n  ]"


def _fraction_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a nonzero den: lowest terms, the sign on
    the numerator, and no "/1"."""
    if not num:
        return "0"
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    den //= g
    return str(num // g) if den == 1 else f"{num // g}/{den}"


def _polys_json(members) -> str:
    """json.dumps(polys, indent=2) at depth 1 of an object, for polys the
    list over EnergyPolynomialTable.members of each member's coefficients
    as [real, imaginary] strings, each part its numerator over the
    member's scale in _fraction_text's form.  Those strings hold only
    digits, "-" and "/", which JSON does not escape."""
    rows = []
    for re, im, scale in members:
        coeffs = ",\n      ".join(
            f'[\n        "{_fraction_text(x, scale)}",\n        "{_fraction_text(y, scale)}"\n      ]'
            for x, y in zip(re, im)
        )
        rows.append(f"[\n      {coeffs}\n    ]")
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def _compare_routes(
    oracle: SpectrumReport, reduced: SpectrumReport, tol: float
) -> tuple[np.ndarray, bool]:
    """The one comparison of the two routes, for spectrum and scan alike:
    |oracle - reduced| per eigenvalue in the shared (real, imag) order, and
    whether every one is within tol (a NaN deviation exceeds every tol).

    Sorted order pairs real spectra best, but it can split a complex
    spectrum's conjugate pairs differently on the two routes when their real
    parts differ by rounding.  So a finite complex spectrum takes each oracle
    eigenvalue's distance from its min-cost partner instead
    (_lapack.paired_distances) wherever that lowers the largest one."""
    a, b = np.array(oracle.eigenvalues), np.array(reduced.eigenvalues)
    deviations = np.abs(a - b)
    if (a.imag.any() or b.imag.any()) and np.isfinite(deviations).all():
        paired = paired_distances(a, b)
        if paired.max() < deviations.max():
            deviations = paired
    return deviations, bool((deviations <= tol).all())


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    h = model.hamiltonian()
    ok = conserves(h, model.charge)
    herm = is_hermitian(h)
    pairs = conserving_pairs(h)
    comm = None
    if not ok:
        comm = str(_charge_commutator(h, model.charge))
    if args.output == "json":
        print(json.dumps({
            "model": model.name,
            "charge": [model.charge.s, model.charge.p],
            "conserves": ok,
            "hermitian": herm,
            "conserving_charges": [list(pair) for pair in pairs],
            "commutator": comm,
        }, indent=2))
    else:
        print(f"model: {model.name}")
        yn = "yes" if ok else "no"
        print(f"conserves: {yn} ({model.charge.s},{model.charge.p})")
        print(f"hermitian: {'yes' if herm else 'no'}")
        charges = " ".join(f"({s},{p})" for s, p in pairs)
        print(f"conserving charges (s,p <= {PAIR_LIMIT}): {charges if charges else 'none'}")
        if comm is not None:
            print(f"[K,H] = {comm}")
    return 0 if ok else 3


def _cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    h = model.hamiltonian()
    # each route refuses a non-conserving h (exit 3), then a negative kappa
    reports = {"oracle": None, "reduced": None}
    if args.method != "reduced":
        reports["oracle"] = block_spectrum(h, model.charge, args.kappa)
    if args.method != "oracle":
        reduced_h = _reduced_hamiltonian(h, args.mode)
        reports["reduced"] = qes_spectrum(reduced_h, model.charge, args.kappa)
    basis = enumerate_block(model.charge, args.kappa)
    max_deviation, code = None, 0
    if args.method == "both":
        deviations, within = _compare_routes(reports["oracle"], reports["reduced"], args.tol)
        max_deviation = float(deviations.max(initial=0.0))
        code = 0 if within else 4
    pairs = {
        name: None if report is None else [[v.real, v.imag] for v in report.eigenvalues]
        for name, report in reports.items()
    }
    residuals = {
        name: None if report is None else report.max_residual for name, report in reports.items()
    }
    print(
        f'{{\n  "kappa": {args.kappa},\n  "dimension": {len(basis)},\n'
        f'  "basis": {_pairs_json([[st.n1, st.n2] for st in basis])},\n'
        f'  "oracle": {_pairs_json(pairs["oracle"])},\n'
        f'  "reduced": {_pairs_json(pairs["reduced"])},\n'
        f'  "max_deviation": {json.dumps(max_deviation)},\n'
        f'  "residuals": {{\n    "oracle": {json.dumps(residuals["oracle"])},\n'
        f'    "reduced": {json.dumps(residuals["reduced"])}\n  }}\n}}'
    )
    return code


def _cmd_scan(args) -> int:
    model = _load_model(args.model)
    h = model.hamiltonian()
    refusal = oversized_block(model.charge, args.kappa_max)
    if refusal is not None:
        # refused before any block is solved; as the routes do, a
        # non-conserving h is refused first
        if not conserves(h, model.charge):
            raise _non_conserving(model.charge)
        raise refusal
    reduced_h = _reduced_hamiltonian(h, args.mode)
    lines = ["kappa,dim,index,eig_re,eig_im,deviation"]
    code = 0
    # a negative kappa_max is scanned as that one block, which the routes
    # refuse as for spectrum: a non-conserving h (exit 3), then the kappa
    for kappa in range(min(args.kappa_max, 0), args.kappa_max + 1):
        oracle = block_spectrum(h, model.charge, kappa)
        reduced = qes_spectrum(reduced_h, model.charge, kappa)
        deviations, within = _compare_routes(oracle, reduced, args.tol)
        if not within:
            code = 4
        lines += [
            f"{kappa},{len(oracle.eigenvalues)},{index},{ev.real!r},{ev.imag!r},{deviation!r}"
            for index, (ev, deviation) in enumerate(zip(oracle.eigenvalues, deviations.tolist()))
        ]
    print("\n".join(lines))
    return code


def _render_rational(value) -> list[str]:
    return [str(value.re), str(value.im)]


def _cmd_polys(args) -> int:
    model = _load_model(args.model)
    table = energy_polynomial_table(
        _reduced_hamiltonian(model.hamiltonian(), args.mode), model.charge, args.kappa
    )
    if args.output == "json":
        print(
            f'{{\n  "kappa": {table.kappa},\n  "mode": {json.dumps(args.mode)},\n'
            f'  "dimension": {table.dimension},\n  "termination_degree": {table.dimension},\n'
            f'  "polys": {_polys_json(table.members)}\n}}'
        )
    else:
        print(
            f"# energy polynomials: kappa={table.kappa}"
            f" dimension={table.dimension} mode={args.mode}"
        )
        for m, poly in enumerate(table.polys):
            print(f"P_{m}(E) = {poly.render()}")
        print(
            f"# termination degree {table.dimension};"
            " roots of the last polynomial are the block spectrum"
        )
    return 0


def _cmd_sextic(args) -> int:
    kc, kb = complex(args.kre, args.kim), complex(args.kbre, args.kbim)
    gauge_payload = None
    if args.kim or args.kbim:
        # the change of variable behind the identity needs real couplings
        w = gauge_superpotential(args.w1, args.w2, kc, kb, args.k)
        pot = sextic_potential(args.w1, args.w2, kc, kb, args.k)
    else:
        result = check_gauge_identity(args.w1, args.w2, args.kre, args.kbre, args.k)
        w, pot = result.superpotential, result.potential
        gauge_payload = {
            "residual": result.residual,
            "kinetic": result.convention.kinetic,
            "w_sign": result.convention.w_sign,
            "exponent_sign": result.convention.exponent_sign,
            "shift": result.convention.shift,
        }
    fd_payload = None
    if args.fd:
        block_levels = qes_spectrum(build_shg(args.w1, args.w2, kc, kb), shg_charge(), args.k)
        if any(v.imag for v in block_levels.eigenvalues):
            # the levels of the sextic oscillator are real
            raise NumericalFailure(
                f"block kappa={args.k} has non-real levels, which no"
                " sextic level can match",
                block_levels.max_residual,
            )
        reference = np.array([v.real for v in block_levels.eigenvalues])
        # by the gauge identity block level j + w2 is exactly sextic level j
        # of the parity (-1)^k sector
        levels, moved = oscillator_levels(pot, len(reference), float(reference.max()) + args.w2)
        expected = reference + args.w2
        deviations = np.abs(expected - levels)
        gate = LEVEL_TOL * np.maximum(1.0, np.abs(expected)) + moved
        if not (deviations <= gate).all():
            j = int(np.argmax(deviations - gate))
            level, block, dev, bound = map(float, (levels[j], expected[j], deviations[j], gate[j]))
            raise NumericalFailure(
                f"sextic level {j} at k={args.k} is {level!r} and block level + w2 is"
                f" {block!r}: they differ by {dev!r}, more than {bound!r}",
                dev,
            )
        fd_payload = {
            "block_levels": [float(v) for v in reference],
            "fd_levels": [float(v) for v in levels],
            "shift": args.w2,
            "max_deviation": float(deviations.max()),
            "error_estimate": float(moved.max()),
        }
    if args.output == "json":
        print(json.dumps({
            "superpotential": {
                "inverse": _render_rational(w.inverse_coeff),
                "linear": _render_rational(w.linear_coeff),
                "cubic": _render_rational(w.cubic_coeff),
            },
            "potential": {
                "c0": _render_rational(pot.c0),
                "c2": _render_rational(pot.c2),
                "c4": _render_rational(pot.c4),
                "c6": _render_rational(pot.c6),
            },
            "gauge_identity": gauge_payload,
            "fd": fd_payload,
        }, indent=2))
        return 0
    print(
        f"superpotential: W(y) = ({w.inverse_coeff})/y"
        f" + ({w.linear_coeff})*y + ({w.cubic_coeff})*y^3"
    )
    print(f"potential: c0={pot.c0} c2={pot.c2} c4={pot.c4} c6={pot.c6}")
    if gauge_payload is None:
        print("gauge identity: skipped (needs real couplings)")
    else:
        print(
            f"gauge identity: residual={gauge_payload['residual']!r}"
            f" kinetic={gauge_payload['kinetic']}"
            f" w_sign={gauge_payload['w_sign']:+d}"
            f" exponent_sign={gauge_payload['exponent_sign']:+d}"
            f" shift={gauge_payload['shift']!r}"
        )
    if fd_payload is not None:
        print(f"block levels: {fd_payload['block_levels']}")
        print(f"fd levels: {fd_payload['fd_levels']}")
        print(
            f"fd shift: {fd_payload['shift']!r}"
            f" max deviation: {fd_payload['max_deviation']!r}"
            f" error estimate: {fd_payload['error_estimate']!r}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        argv = argv[1:]  # a leading -- ends the options before the command
    try:
        # a command's own parser reads the rest in one pass, with the prog and
        # error() it has under _PARSER; none, -h, -- or another word go to _PARSER
        parser = _COMMANDS.get(argv[0]) if argv else None
        args = (_PARSER.parse_args(argv) if parser is None
                else parser.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
        handler = {"check": _cmd_check, "spectrum": _cmd_spectrum, "scan": _cmd_scan,
                   "polys": _cmd_polys, "sextic": _cmd_sextic}[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at /dev/null so that the
        # interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _UnreadableModel as exc:
        print(f"cannot read model file: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NonConservingHamiltonian as exc:
        print(f"non-conserving model: {exc}", file=sys.stderr)
        return 3
    except QesBosonError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
