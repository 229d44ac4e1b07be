"""Batch front-end: model checks, block spectra, scans and the sextic map.

Exit codes are a stable contract: 0 success, 1 usage error, 2 model file
unreadable as UTF-8 text or unparsable, 3 declared charge not conserved
(NonConservingHamiltonian, which each block route raises before it reads
kappa), 4 numerical failure or tolerance exceeded.  Output is
deterministic: fixed key order, fixed sort orders, floats serialized with
full double precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import (
    OperatorPolynomial,
    charge_operator,
    commutator,
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
from .oracle import SpectrumReport, block_spectrum, enumerate_block
from .reduction import energy_polynomial_table, paper_literal, qes_spectrum
from .sextic import (
    check_gauge_identity,
    constant_shift_match,
    fd_spectrum,
    gauge_superpotential,
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


def _build_parser() -> _Parser:
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
    sextic.add_argument("--fd", action="store_true", help="run the finite-difference comparison")
    sextic.add_argument("--fd-halfwidth", type=_finite, default=6.0)
    sextic.add_argument("--fd-grid", type=int, default=4000)
    sextic.add_argument("--output", choices=("text", "json"), default="text")

    return parser


# parsing leaves the parser unchanged, so one per process serves every call;
# it is built at import, together with argparse's one-time gettext set-up
# (which imports locale), rather than inside the first call
_PARSER = _build_parser()


def _load_model(path: str) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # the latter is a ValueError
        raise _UnreadableModel(exc) from None
    model = parse_model_file(text)
    return ModelFile(charge=model.charge, terms=model.terms, name=Path(path).name)


def _pair_list_json(value) -> str | None:
    """json.dumps(value, indent=2) at depth 1 of an object when value is a
    list of two-element lists of numbers (or None), else None.

    The numbers go through one C-encoded dump of the flat list and are
    laid out in the fixed indent-2 form; a string, list or object among
    them shows as a quote or bracket in that dump.
    """
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    ):
        return None
    if not value:
        return "[]"
    flat = json.dumps([x for pair in value for x in pair])[1:-1]
    if "[" in flat or "{" in flat or '"' in flat:
        return None
    numbers = iter(flat.split(", "))
    rows = ",\n    ".join(
        f"[\n      {a},\n      {b}\n    ]" for a, b in zip(numbers, numbers)
    )
    return f"[\n    {rows}\n  ]"


def _json_text(payload) -> str:
    """Exactly json.dumps(payload, indent=2).

    The encoder behind indent is pure Python; the long lists of number
    pairs (basis states, eigenvalues, charges) at the top level of an
    object are written through the C encoder instead.
    """
    if not isinstance(payload, dict) or not payload or not all(
        isinstance(key, str) for key in payload
    ):
        return json.dumps(payload, indent=2)
    items = []
    for key, value in payload.items():
        text = _pair_list_json(value)
        if text is None:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _dump_json(payload) -> None:
    print(_json_text(payload))


def _eig_pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def _compare_routes(
    oracle: SpectrumReport, reduced: SpectrumReport, tol: float
) -> tuple[np.ndarray, bool]:
    """The one comparison of the two routes, for spectrum and scan alike:
    |oracle - reduced| per eigenvalue in the shared (real, imag) order, and
    whether every one is within tol (a NaN deviation exceeds every tol)."""
    deviations = np.abs(np.array(oracle.eigenvalues) - np.array(reduced.eigenvalues))
    return deviations, bool((deviations <= tol).all())


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    h = model.hamiltonian()
    ok = conserves(h, model.charge)
    herm = is_hermitian(h)
    pairs = conserving_pairs(h)
    comm = None
    if not ok:
        comm = str(commutator(charge_operator(model.charge), h))
    if args.output == "json":
        _dump_json(
            {
                "model": model.name,
                "charge": [model.charge.s, model.charge.p],
                "conserves": ok,
                "hermitian": herm,
                "conserving_charges": [list(pair) for pair in pairs],
                "commutator": comm,
            }
        )
    else:
        print(f"model: {model.name}")
        yn = "yes" if ok else "no"
        print(f"conserves: {yn} ({model.charge.s},{model.charge.p})")
        print(f"hermitian: {'yes' if herm else 'no'}")
        charges = " ".join(f"({s},{p})" for s, p in pairs)
        print(f"conserving charges (s,p <= 12): {charges if charges else 'none'}")
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
    payload = {
        "kappa": args.kappa,
        "dimension": len(basis),
        "basis": [[st.n1, st.n2] for st in basis],
        "oracle": None,
        "reduced": None,
        "max_deviation": None,
        "residuals": {"oracle": None, "reduced": None},
    }
    for name, report in reports.items():
        if report is not None:
            payload[name] = _eig_pairs(report.eigenvalues)
            payload["residuals"][name] = report.max_residual
    code = 0
    if args.method == "both":
        deviations, within = _compare_routes(reports["oracle"], reports["reduced"], args.tol)
        payload["max_deviation"] = float(deviations.max(initial=0.0))
        code = 0 if within else 4
    _dump_json(payload)
    return code


def _cmd_scan(args) -> int:
    model = _load_model(args.model)
    h = model.hamiltonian()
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
            f"{kappa},{oracle.dimension},{index},{ev.real!r},{ev.imag!r},{deviation!r}"
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
        _dump_json(
            {
                "kappa": table.kappa,
                "mode": args.mode,
                "dimension": table.dimension,
                "termination_degree": table.dimension,
                "polys": [
                    [_render_rational(c) for c in poly.coeffs] for poly in table.polys
                ],
            }
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
    w = gauge_superpotential(args.w1, args.w2, kc, kb, args.k)
    pot = sextic_potential(args.w1, args.w2, kc, kb, args.k)
    gauge_payload = None
    if args.kim == 0.0 and args.kbim == 0.0:
        # the change of variable behind the identity needs real couplings
        result = check_gauge_identity(args.w1, args.w2, args.kre, args.kbre, args.k)
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
            # the FD levels of the sextic potential are real
            raise NumericalFailure(
                f"block kappa={args.k} has non-real levels, which no"
                " finite-difference level can match",
                block_levels.max_residual,
            )
        reference = np.array([v.real for v in block_levels.eigenvalues])
        fd_levels = fd_spectrum(pot, args.fd_halfwidth, args.fd_grid)
        shift, max_dev = constant_shift_match(fd_levels, reference)
        fd_payload = {
            "block_levels": [float(v) for v in reference],
            "fd_levels": [float(v) for v in fd_levels],
            "shift": shift,
            "max_deviation": max_dev,
        }
    if args.output == "json":
        _dump_json(
            {
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
            }
        )
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
            f"fd shift estimate: {fd_payload['shift']!r}"
            f" max deviation: {fd_payload['max_deviation']!r}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        handler = {
            "check": _cmd_check,
            "spectrum": _cmd_spectrum,
            "scan": _cmd_scan,
            "polys": _cmd_polys,
            "sextic": _cmd_sextic,
        }[args.command]
        return handler(args)
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
