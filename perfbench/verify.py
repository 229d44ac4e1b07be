"""Independent verifier: the benchmark's own model reader, block assembly,
exact traces and answer checks.

Nothing here imports the package under test.  Blocks are assembled from the
model terms with plain integer ladder factors, exact quantities use
`fractions.Fraction` (complex numbers as (re, im) pairs), and spectra are
compared to a reference by minimum-cost pairing, never by position.

An eigenvalue counts as correct when it lies within
REL_TOL * cond * ||H||_F of its paired reference value, where cond is the
reference eigenvalue's condition number (1 for Hermitian blocks).  Correct
digits are -log10 of the worst paired error over ||H||_F, capped at 16.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9
MAX_DIGITS = 16.0
EIGVEC_REL_RESIDUAL = 1e-8
EIGVEC_MIN_OVERLAP = 1 - 1e-8
FD_TOL = 5e-3  # finite-difference level tolerance, relative to max(1, |level|)
GAUGE_RESIDUAL = 1e-6

Key = tuple[int, int, int, int]
CFrac = tuple[Fraction, Fraction]


def cmul(a: CFrac, b: CFrac) -> CFrac:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def cadd(a: CFrac, b: CFrac) -> CFrac:
    return a[0] + b[0], a[1] + b[1]


def falling(n: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= n - i
    return out


@dataclass
class Model:
    charge: tuple[int, int]
    terms: dict[Key, CFrac] = field(default_factory=dict)

    def weight(self, key: Key, charge=None) -> int:
        s, p = charge or self.charge
        return s * (key[0] - key[1]) + p * (key[2] - key[3])

    def adjoint_terms(self) -> dict[Key, CFrac]:
        return {(b, a, d, c): (re, -im) for (a, b, c, d), (re, im) in self.terms.items()}

    def hermitian_part(self) -> "Model":
        """h + h^dagger."""
        out = dict(self.terms)
        for key, coeff in self.adjoint_terms().items():
            out[key] = cadd(out.get(key, (Fraction(0), Fraction(0))), coeff)
        return Model(self.charge, {k: c for k, c in out.items() if any(c)})

    def is_hermitian(self) -> bool:
        return self.terms == self.adjoint_terms()

    def write(self, path: Path) -> str:
        lines = ["# qesb v1", f"charge {self.charge[0]} {self.charge[1]}"]
        for key in sorted(self.terms):
            re_, im = self.terms[key]
            lines.append(f"term {re_} {im} {key[0]} {key[1]} {key[2]} {key[3]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)


def read_model(path: str) -> Model:
    charge = None
    terms: dict[Key, CFrac] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "charge":
            s, p = int(fields[1]), int(fields[2])
            g = math.gcd(s, p)
            charge = (s // g, p // g)
        elif fields[0] == "term":
            key = tuple(int(x) for x in fields[3:7])
            coeff = (Fraction(fields[1]), Fraction(fields[2]))
            terms[key] = cadd(terms.get(key, (Fraction(0), Fraction(0))), coeff)
        else:
            raise ValueError(f"{path}: unknown directive {fields[0]!r}")
    if charge is None:
        raise ValueError(f"{path}: no charge line")
    return Model(charge, {k: c for k, c in terms.items() if any(c)})


def basis(charge: tuple[int, int], kappa: int) -> list[tuple[int, int]]:
    s, p = charge
    return [((kappa - p * n2) // s, n2) for n2 in range(kappa // p + 1) if (kappa - p * n2) % s == 0]


def block_dimension(charge: tuple[int, int], kappa: int) -> int:
    return len(basis(charge, kappa))


def _hops(model: Model, states: list[tuple[int, int]]):
    """(row, col, key, coeff) for every term taking basis[col] to basis[row]."""
    index = {st: i for i, st in enumerate(states)}
    for col, (n1, n2) in enumerate(states):
        for key, coeff in model.terms.items():
            m1, m2, m3, m4 = key
            if n1 < m2 or n2 < m4:
                continue
            row = index.get((n1 - m2 + m1, n2 - m4 + m3))
            if row is None:
                raise ValueError(f"term {key} leaves the block")
            yield row, col, key, coeff


def block_matrix(model: Model, kappa: int) -> np.ndarray:
    states = basis(model.charge, kappa)
    h = np.zeros((len(states), len(states)), dtype=complex)
    for row, col, (m1, m2, m3, m4), (re_, im) in _hops(model, states):
        (n1, n2), (t1, t2) = states[col], states[row]
        ladder = math.sqrt(falling(n1, m2) * falling(t1, m1)) * math.sqrt(falling(n2, m4) * falling(t2, m3))
        h[row, col] += complex(float(re_), float(im)) * ladder
    return h


def exact_traces(model: Model, kappa: int) -> tuple[CFrac, CFrac]:
    """(tr H, tr H^2) of the block, exactly.

    With A[i][j] the sum over terms j -> i of coeff * (n1_j)_m2 * (n2_j)_m4,
    H[i][j] * H[j][i] = A[i][j] * A[j][i]: the square-root factors cancel.
    """
    states = basis(model.charge, kappa)
    a: dict[tuple[int, int], CFrac] = {}
    for row, col, (m1, m2, m3, m4), coeff in _hops(model, states):
        n1, n2 = states[col]
        w = Fraction(falling(n1, m2) * falling(n2, m4))
        a[(row, col)] = cadd(a.get((row, col), (Fraction(0), Fraction(0))), (coeff[0] * w, coeff[1] * w))
    zero = (Fraction(0), Fraction(0))
    tr, tr2 = zero, zero
    for (i, j), v in a.items():
        if i == j:
            tr = cadd(tr, v)
        back = a.get((j, i))
        if back is not None:
            tr2 = cadd(tr2, cmul(v, back))
    return tr, tr2


@dataclass
class Reference:
    values: np.ndarray
    cond: np.ndarray
    matrix: np.ndarray
    norm: float
    trace: CFrac


def reference(model: Model, kappa: int) -> Reference:
    h = block_matrix(model, kappa)
    trace, _ = exact_traces(model, kappa)
    if h.shape[0] == 0:
        return Reference(np.zeros(0, complex), np.zeros(0), h, 0.0, trace)
    if model.is_hermitian():
        values = np.linalg.eigvalsh(h).astype(complex)
        cond = np.ones(len(values))
    else:
        values, left, right = scipy.linalg.eig(h, left=True, right=True)
        dots = np.abs(np.sum(left.conj() * right, axis=0))
        norms = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
        cond = norms / np.maximum(dots, np.finfo(float).tiny)
    norm = float(np.linalg.norm(h))
    ref = Reference(values, cond, h, norm, trace)
    if not trace_ok(ref, values, 1e-3 * REL_TOL):
        raise VerifierError(f"reference for kappa={kappa} misses the exact trace")
    return ref


class VerifierError(Exception):
    """The verifier could not establish a trustworthy reference."""


def _scale(ref: Reference) -> float:
    return max(ref.norm, np.finfo(float).tiny)


def trace_ok(ref: Reference, values: np.ndarray, rel_tol: float = REL_TOL) -> bool:
    tr = complex(float(ref.trace[0]), float(ref.trace[1]))
    n = max(len(values), 1)
    return abs(complex(np.sum(values)) - tr) <= rel_tol * n * float(np.max(ref.cond, initial=1.0)) * _scale(ref)


def compare_spectrum(ref: Reference, values) -> tuple[bool, float]:
    """(correct, digits) of a returned spectrum against the reference."""
    values = np.asarray(values, dtype=complex)
    if values.shape != ref.values.shape:
        return False, 0.0
    if values.size == 0:
        return True, MAX_DIGITS
    cost = np.abs(values[:, None] - ref.values[None, :])
    rows, cols = linear_sum_assignment(cost)
    err = cost[rows, cols]
    ok = bool(np.all(err <= REL_TOL * ref.cond[cols] * _scale(ref))) and trace_ok(ref, values)
    rel = float(err.max()) / _scale(ref)
    digits = MAX_DIGITS if rel <= 10 ** -MAX_DIGITS else -math.log10(rel)
    return ok, digits


def pairs_to_complex(pairs) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in pairs], dtype=complex)


@dataclass
class Verdict:
    ok: bool
    digits: list[float] = field(default_factory=list)  # one per returned spectrum
    reduced_ok: bool | None = None  # None when no reduced-route answer applies
    note: str = ""


class Verifier:
    """Checks answers; caches references per (model, kappa) within a run."""

    def __init__(self):
        self._models: dict[str, Model] = {}
        self._refs: dict[tuple[str, int], Reference] = {}

    def model(self, path: str) -> Model:
        if path not in self._models:
            self._models[path] = read_model(path)
        return self._models[path]

    def ref(self, path: str, kappa: int) -> Reference:
        key = (path, kappa)
        if key not in self._refs:
            self._refs[key] = reference(self.model(path), kappa)
        return self._refs[key]

    def check(self, spec: dict, result: dict) -> Verdict:
        kind = spec["type"]
        if kind == "eigvec":
            return self._eigvec(spec, result)
        try:
            payload = json.loads(result["stdout"])
        except (ValueError, TypeError):
            return Verdict(False, note="no JSON answer", reduced_ok=False if kind == "spectrum" else None)
        try:
            return getattr(self, "_" + kind)(spec, payload)
        except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
            return Verdict(False, note=f"malformed answer: {exc!r}")

    def _spectrum(self, spec, payload) -> Verdict:
        ref = self.ref(spec["model"], spec["kappa"])
        states = basis(self.model(spec["model"]).charge, spec["kappa"])
        ok = payload.get("dimension") == len(states) and payload.get("basis") == [list(s) for s in states]
        digits, reduced_ok = [], False
        for route in ("oracle", "reduced"):
            if payload.get(route) is None:
                ok = False
                continue
            good, d = compare_spectrum(ref, pairs_to_complex(payload[route]))
            digits.append(d)
            ok = ok and good
            if route == "reduced":
                reduced_ok = good
        return Verdict(ok, digits, reduced_ok)

    def _eigvec(self, spec, result) -> Verdict:
        ref = self.ref(spec["model"], spec["kappa"])
        values = pairs_to_complex(result["values"])
        ok, digits = compare_spectrum(ref, values)
        reduced_ok = ok
        vectors = np.load(result["vectors"])
        residual = np.linalg.norm(ref.matrix @ vectors - vectors * values[None, :], axis=0)
        ok = ok and bool(np.all(residual <= EIGVEC_REL_RESIDUAL * _scale(ref)))
        ok = ok and min(result["overlaps"], default=1.0) >= EIGVEC_MIN_OVERLAP
        return Verdict(ok, [digits], reduced_ok)

    def _polys(self, spec, payload) -> Verdict:
        model = self.model(spec["model"])
        kappa = spec["kappa"]
        d = block_dimension(model.charge, kappa)
        polys = [[(Fraction(re_), Fraction(im)) for re_, im in poly] for poly in payload.get("polys", [])]
        ok = (payload.get("dimension") == d and payload.get("termination_degree") == d
              and len(polys) == d + 1 and all(len(p) == m + 1 for m, p in enumerate(polys))
              and polys[0] == [(Fraction(1), Fraction(0))])
        if ok and d >= 1:
            tr, tr2 = exact_traces(model, kappa)
            last = polys[-1]
            lead = last[d]
            # -c[d-1]/c[d] = sum of roots = tr H
            ok = cmul(tr, lead) == (-last[d - 1][0], -last[d - 1][1])
            if ok and d >= 2:
                # c[d-2]/c[d] = e2 = (tr^2 - tr H^2) / 2
                sq = cmul(tr, tr)
                e2 = ((sq[0] - tr2[0]) / 2, (sq[1] - tr2[1]) / 2)
                ok = cmul(e2, lead) == last[d - 2]
        return Verdict(bool(ok))

    def _check(self, spec, payload) -> Verdict:
        model = self.model(spec["model"])
        conserves = all(model.weight(k) == 0 for k in model.terms)
        pairs = [[s, p] for s in range(1, 13) for p in range(1, 13)
                 if all(model.weight(k, (s, p)) == 0 for k in model.terms)]
        ok = (payload.get("model") == Path(spec["model"]).name
              and payload.get("charge") == list(model.charge)
              and payload.get("conserves") is conserves
              and payload.get("hermitian") is model.is_hermitian()
              and payload.get("conserving_charges") == pairs)
        if conserves:
            ok = ok and payload.get("commutator") is None
        else:
            expected = {k: (c[0] * model.weight(k), c[1] * model.weight(k))
                        for k, c in model.terms.items() if model.weight(k)}
            ok = ok and parse_operator(payload.get("commutator") or "") == expected
        return Verdict(bool(ok))

    def _sextic(self, spec, payload) -> Verdict:
        w1, w2, kc, kb = (Fraction(spec[x]) for x in ("w1", "w2", "kc", "kb"))
        k = spec["k"]
        kk, delta = kc * kb, w2 - 2 * w1

        def exact(obj, value) -> bool:
            return [Fraction(obj[0]), Fraction(obj[1])] == [Fraction(value), Fraction(0)]

        sp, pot = payload["superpotential"], payload["potential"]
        ok = (exact(sp["inverse"], k) and exact(sp["linear"], delta / 4) and exact(sp["cubic"], -kk / 4)
              and exact(pot["c0"], ((2 * k + 5) * w2 - 2 * w1) / 4)
              and exact(pot["c2"], (delta * delta - 4 * kk * (2 * k + 3)) / 16)
              and exact(pot["c4"], -kk * delta / 8) and exact(pot["c6"], kk * kk / 16))
        gauge = payload["gauge_identity"]
        ok = (ok and gauge is not None and gauge["residual"] <= GAUGE_RESIDUAL
              and gauge["kinetic"] == 1.0 and abs(gauge["shift"] - float(w2)) <= 1e-6 * max(1.0, float(w2)))
        shg = Model((1, 2), {(1, 1, 0, 0): (w1, Fraction(0)), (0, 0, 1, 1): (w2, Fraction(0)),
                             (2, 0, 0, 1): (kc, Fraction(0)), (0, 2, 1, 0): (kb, Fraction(0))})
        self._models.setdefault(f"sextic:{w1}:{w2}:{kc}:{kb}", shg)
        ref = self.ref(f"sextic:{w1}:{w2}:{kc}:{kb}", k)
        fd = payload["fd"]
        levels = np.array(fd["block_levels"], dtype=float)
        reduced_ok, digits = compare_spectrum(ref, levels.astype(complex))
        fd_levels = np.array(fd["fd_levels"], dtype=float)
        # every block level, raised by the gauge constant w2, is an FD level
        located = all(np.min(np.abs(fd_levels - (e + float(w2)))) <= FD_TOL * max(1.0, abs(e)) for e in levels)
        # the shift estimate is only identifiable with two or more levels
        shift_ok = len(levels) < 2 or (abs(fd["shift"] - float(w2)) <= FD_TOL * max(1.0, float(w2))
                                       and fd["max_deviation"] <= FD_TOL * max(1.0, float(np.max(np.abs(levels)))))
        return Verdict(bool(ok and reduced_ok and located and shift_ok), [digits], reduced_ok)


_FRAC = r"-?\d+(?:/\d+)?"
_COEFF = re.compile(rf"^({_FRAC})?(?:([+-]?{_FRAC[2:]})i)?$")
_LABELS = {"a1+": 0, "a1": 1, "a2+": 2, "a2": 3}


def parse_operator(text: str) -> dict[Key, CFrac] | None:
    """Parse the package's rendering '(c) a1+^2 a2 + (c) 1' into terms."""
    if text in ("", "0"):
        return {}
    out: dict[Key, CFrac] = {}
    for part in text[1:].split(" + ("):
        coeff, _, body = part.partition(") ")
        m = _COEFF.match(coeff)
        if m is None or not coeff:
            return None
        re_ = Fraction(m.group(1)) if m.group(1) else Fraction(0)
        im = Fraction(m.group(2)) if m.group(2) else Fraction(0)
        exps = [0, 0, 0, 0]
        if body != "1":
            for factor in body.split():
                label, _, power = factor.partition("^")
                if label not in _LABELS:
                    return None
                exps[_LABELS[label]] = int(power or 1)
        out[tuple(exps)] = (re_, im)
    return out
