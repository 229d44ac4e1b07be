"""Closed-loop benchmark of the qesboson CLI and eigenvector API.

    python3 perfbench/run.py --workload scan|large-block|analytic --seed N \
        --seconds S --trace 0|1

Run from the root of a qesboson checkout.  The run is split into passes;
each pass is a fresh worker process (perfbench/worker.py) with its own
seeded request list, sent one at a time.  Every answer is checked by
perfbench/verify.py, which does not import the package.  The last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics (from a traced twin of every pass) with --trace 1.  Lines before it,
starting with '#', record the environment and the failures by kind.

A request fails when it raises (kind "raised", or "overflow" for
OverflowError), exits with another code than expected ("exit_code"), or
returns an answer that fails the independent check ("wrong_answer").
"correct" is false when the verifier could not build a trusted reference for
some request; the program's own failures are counted in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import workloads
from spans import layer_metrics
from verify import Verdict, Verifier, VerifierError

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 7  # fresh interpreter starts per untraced run, passes included
TAIL_BEYOND = 10  # latency_tail_ms: the latency with this many samples above it
DEADLINE_S = 170.0
REDUCED_CHECKS = ("spectrum", "eigvec", "sextic")
UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_frac": "frac", "_bytes": "bytes", "_digits": "digits"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Runner:
    """Starts workers one at a time and enforces the run's deadline."""

    def __init__(self, root: Path, out: Path, blas_threads: int):
        self.root, self.out = root, out
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every worker
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def child(self, *args: str) -> float:
        """Run one worker to completion; return its set-up time."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            _, err = proc.communicate(timeout=self.remaining())
        except BaseException as exc:  # also on SIGTERM: never leave a worker running
            proc.kill()
            proc.communicate()
            if isinstance(exc, (subprocess.TimeoutExpired, BenchError)):
                raise BenchError("worker timed out") from None
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        return setup

    def run_pass(self, name: str, requests: list[dict], traced: bool) -> tuple[float, dict, dict | None]:
        req_path = self.out / f"{name}-requests.json"
        res_path = self.out / f"{name}-results.json"
        span_path = self.out / f"{name}-spans.json"
        child_view = [{k: v for k, v in r.items() if k not in ("check", "expect")} for r in requests]
        req_path.write_text(json.dumps(child_view), encoding="utf-8")
        extra = ("--trace", str(span_path)) if traced else ()
        setup = self.child(str(req_path), str(res_path), *extra)
        results = json.loads(res_path.read_text(encoding="utf-8"))
        spans = json.loads(span_path.read_text(encoding="utf-8")) if traced else None
        return setup, results, spans


@dataclass
class Passes:
    """What the workers measured: untraced passes always, traced twins with --trace 1."""

    setups: list[float] = field(default_factory=list)
    solve: list[float] = field(default_factory=list)
    traced_solve: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    results: list[tuple[dict, dict]] = field(default_factory=list)  # (request, result) pairs to verify


def run_passes(runner: Runner, plan: list[list[dict]], traced: bool) -> Passes:
    """Each pass once; with tracing, also a traced twin, alternating which goes first.
    The twin's answers are the ones verified."""
    out = Passes()
    for i, requests in enumerate(plan):
        order = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
        for with_trace in order:
            setup, res, spans = runner.run_pass(f"pass{i}{'-traced' if with_trace else ''}", requests, with_trace)
            solve = sum(r["latency"] for r in res["results"])
            if with_trace:
                out.traced_solve.append(solve)
                out.traces.append(spans)
            else:
                out.solve.append(solve)
                out.setups.append(setup)
                out.rss_mb.append(res["peak_rss_kb"] / 1024)
            if with_trace == traced:
                out.results.extend(zip(requests, res["results"]))
    if not traced:
        for _ in range(max(0, SETUP_STARTS - len(plan))):
            out.setups.append(runner.child("--setup-only"))
    return out


def classify(req: dict, res: dict, verifier: Verifier) -> tuple[str, Verdict]:
    """(outcome, verdict): outcome is "ok" or a failure kind."""
    if res["exc"] is not None:
        kind = "overflow" if res["exc"].startswith("OverflowError") else "raised"
        return kind, Verdict(False, reduced_ok=False if req["check"]["type"] in REDUCED_CHECKS else None)
    verdict = verifier.check(req["check"], res)
    if req["kind"] == "cli" and res["exit"] != req["expect"]:
        return "exit_code", verdict
    return ("ok" if verdict.ok else "wrong_answer"), verdict


@dataclass
class Tally:
    correct: bool = True
    kinds: Counter = field(default_factory=Counter)
    digits: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    mismatch: int = 0
    reduced_attempts: int = 0
    reduced_good: int = 0


def verify_all(results: list[tuple[dict, dict]], out: Path) -> Tally:
    """Classify every request; write the per-request outcomes to out/."""
    verifier, tally, records = Verifier(), Tally(), []
    for req, res in results:
        try:
            outcome, verdict = classify(req, res, verifier)
        except VerifierError as exc:
            tally.correct = False
            outcome, verdict = "unverified", None
            print(f"# verifier: {req['id']}: {exc}")
        tally.kinds[outcome] += 1
        tally.latencies.append(res["latency"])
        # the expected exit code, or a normal return from the API, signals success
        returned = res["exc"] is None and (req["kind"] != "cli" or res["exit"] == req["expect"])
        if verdict is not None:
            if returned:
                tally.digits.extend(verdict.digits)
            if res["exc"] is None and returned != verdict.ok:
                tally.mismatch += 1
            if req["check"]["type"] in REDUCED_CHECKS:
                tally.reduced_attempts += 1
                tally.reduced_good += bool(verdict.reduced_ok)
        if "vectors" in res:
            Path(res["vectors"]).unlink(missing_ok=True)
        records.append({"id": req["id"], "check": req["check"], "outcome": outcome,
                        "exit": res["exit"], "exc": res["exc"], "latency": res["latency"],
                        "digits": verdict.digits if verdict else None, "note": verdict.note if verdict else ""})
    (out / "outcomes.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    tally.latencies.sort()
    return tally


def end_to_end(passes: Passes, tally: Tally, tail_index: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(passes.setups),
        "solve_s": statistics.median(passes.solve),
        "latency_p50_ms": 1000 * statistics.median(tally.latencies),
        "latency_tail_ms": 1000 * tally.latencies[tail_index],
        "verified_frac": tally.kinds["ok"] / len(tally.latencies),
        "min_correct_digits": min(tally.digits, default=0.0),
        "peak_rss_mb": statistics.median(passes.rss_mb),
    }


def per_layer(passes: Passes, tally: Tally) -> dict[str, float]:
    t = layer_metrics(passes.traces)
    return {
        "models.parse_s": t["models.parse:s"],
        "algebra.apply_to_fock_s": t["algebra.apply_to_fock:s"],
        "algebra.apply_to_fock_calls": t["algebra.apply_to_fock:n"],
        "algebra.checks_s": t["algebra.checks:s"],
        "algebra.checks_per_request": t["algebra.checks:n"] / len(tally.latencies),
        "algebra.product_s": t["algebra.product:s"],
        "algebra.monomial_products": t["algebra.monomial_products"],
        "exact.rc_ops": t["exact.rc_ops"],
        "exact.poly_ops": t["exact.poly_ops"],
        "oracle.enumerate_s": t["oracle.enumerate:s"],
        "oracle.assemble_s": t["oracle.assemble:s"],
        "oracle.to_float_s": t["oracle.block_matrix:self"],
        "oracle.eigensolve_s": t["oracle.eigensolve_s"],
        "oracle.residual_s": t["oracle.residual:s"],
        "oracle.blocks": t["oracle.diagonalize:n"],
        "oracle.dim_sum": t["oracle.diagonalize:info"],
        "reduction.entries_s": t["reduction.entries:s"],
        "reduction.to_float_s": t["reduction.block_matrix:self"],
        "reduction.eigensolve_s": t["reduction.eigensolve_s"],
        "reduction.residual_s": t["reduction.residual:s"],
        "reduction.to_fock_s": t["reduction.to_fock:s"],
        "reduction.polys_s": t["reduction.polys:s"],
        "reduction.accurate_frac": tally.reduced_good / tally.reduced_attempts if tally.reduced_attempts else 1.0,
        "sextic.gauge_s": t["sextic.gauge:s"],
        "sextic.conventions_tried": t["sextic.gauge:info"],
        "sextic.fd_s": t["sextic.fd:s"],
        "sextic.fd_points": t["sextic.fd:info"],
        "cli.self_s": t["cli.main:self"],
        "cli.output_bytes": sum(len(res["stdout"].encode()) for _, res in passes.results),
        "cli.exit_mismatch": tally.mismatch,
        "trace.overhead_frac": statistics.median(passes.traced_solve) / statistics.median(passes.solve) - 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    needed = ["src/qesboson/__init__.py", "src/qesboson/cli.py", *workloads.SHIPPED]
    missing = [p for p in needed if not (root / p).is_file()]
    if missing:
        print(f"run from the root of a qesboson checkout; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    out = HERE.relative_to(root) / "out" / f"{args.workload}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    blas_threads = min(2, nproc())
    plan = workloads.build(args.workload, args.seed, workloads.pass_count(args.workload, args.seconds),
                           out / "models")
    passes = run_passes(Runner(root, out, blas_threads), plan, bool(args.trace))
    tally = verify_all(passes.results, out)

    n = len(tally.latencies)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    print(f"# env nproc={nproc()} blas_threads={blas_threads} python={platform.python_version()}"
          f" numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"# workload={args.workload} seed={args.seed} passes={len(plan)} requests={n}"
          f" latency_tail=p{100 * (tail_index + 1) / n:.1f} ({n - tail_index - 1} of {n} beyond)"
          f" setup_starts={len(passes.setups)}")
    print(f"# failures by kind: {json.dumps({k: v for k, v in sorted(tally.kinds.items()) if k != 'ok'})}")
    values = per_layer(passes, tally) if args.trace else end_to_end(passes, tally, tail_index)
    metrics = {name: {"value": float(v), "unit": unit_of(name)} for name, v in values.items()}
    print(json.dumps({"correct": tally.correct, "attempted": n, "failed": n - tally.kinds["ok"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
