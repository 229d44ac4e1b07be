"""One benchmark pass: a fresh interpreter that sets up, says "ready", then
runs its request list as a closed loop (one request in flight).

    python3 perfbench/worker.py REQUESTS.json RESULTS.json [--trace SPANS.json] [--setup-only]

Run from the checkout root with PYTHONPATH=src.  Set-up is what a user pays
before the first request: importing qesboson, parsing a model and checking
its conservation.  CLI requests call `qesboson.cli.main` in-process with
stdout captured; eigenvector requests use the Python API.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import qesboson
from qesboson import algebra, cli, models, oracle, reduction


def eigvec_roundtrip(path: str, kappa: int):
    """Reduced eigenvectors mapped to Fock space, with their overlaps with
    the oracle eigenvectors of the same index."""
    model = models.parse_model_file(Path(path).read_text(encoding="utf-8"))
    h = model.hamiltonian()
    block, values, vectors, _ = reduction.reduced_eigensystem(h, model.charge, kappa)
    fock = np.zeros((block.dimension, block.dimension), dtype=complex)
    for j in range(block.dimension):
        coeffs = {n: vectors[i, j] for i, n in enumerate(block.degrees)}
        _, fock[:, j] = reduction.eigenvector_to_fock(coeffs, model.charge, kappa)
    _, _, oracle_vectors, _, _ = oracle.diagonalize_block(h, model.charge, kappa)
    overlaps = np.abs(np.sum(fock.conj() * oracle_vectors, axis=0))
    return values, overlaps, fock


def main(argv: list[str]) -> int:
    tracer = None
    if "--trace" in argv:  # traced workers also trace their set-up
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qesboson)
    model = models.parse_model_file(Path("models/shg.qesb").read_text(encoding="utf-8"))
    algebra.conserves(model.hamiltonian(), model.charge)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    root = Path.cwd().resolve()
    if root / "src" not in Path(qesboson.__file__).resolve().parents:
        print(f"qesboson imported from {qesboson.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3
    requests = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    results_path = Path(argv[2])
    results, answers = [], {}
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        if tracer is not None:
            tracer.request = req["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req["kind"] == "cli":
                    code = cli.main(req["argv"])
                else:
                    answers[req["id"]] = eigvec_roundtrip(req["model"], req["kappa"])
        except Exception as e:  # a request that raises is a recorded failure
            exc = f"{type(e).__name__}: {e}"[:300]
        latency = time.perf_counter() - start
        results.append({"id": req["id"], "latency": latency, "exit": code, "exc": exc,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[:300]})
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for res in results:
        if res["id"] in answers:
            values, overlaps, fock = answers[res["id"]]
            vec_path = results_path.with_name(f"{results_path.stem}-{res['id']}.npy")
            np.save(vec_path, fock)
            res.update(values=[[v.real, v.imag] for v in values],
                       overlaps=overlaps.tolist(), vectors=str(vec_path))
    results_path.write_text(json.dumps({"results": results, "peak_rss_kb": peak_rss_kb}), encoding="utf-8")
    if tracer is not None:
        tracer.dump(argv[argv.index("--trace") + 1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
