"""driftchain benchmark: seeded workloads, end-to-end CLI metrics, traced layers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

``--trace 0`` runs the CLI pipeline (``build``, ``spectral``, ``bayes``,
``paths``, ``evolve``, then ``synth``) in rounds, one process per command,
until ``--seconds`` would be exceeded by another round, and reports the
median over rounds of each end-to-end metric in BENCHMARK.json.  Set-up
time is ``driftchain --help``, timed once per round.  ``--trace 1`` runs
one CLI round for the per-command CPU, memory and output figures, then
the traced in-process pipeline for the per-layer metrics, and writes the
spans to ``.bench_tmp/traces/``.

Inputs are generated from the seed into a temporary directory under
``.bench_tmp/`` in the checkout, which is removed at the end.  The last
line of standard output is the JSON result; the exit code is 0 only when
every operation succeeded and every output check passed.

``python3 bench/selftest.py`` checks the benchmark itself at a tiny size.
Which layer metric should move which end-to-end metric, and on which
workload, is recorded in ``bench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import e2e
import traced
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
PER_ROUND = ("pipeline_s", "build_s", "spectral_s", "bayes_s", "paths_s", "evolve_s",
             "synth_s", "peak_rss_mb", "setup_s")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version numpy was built with, and its live thread count."""
    import ctypes

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
    except (TypeError, KeyError):
        version = "?"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return str(version), threads


def environment(workload: str, seed: int, digest: str) -> dict:
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "?")
    except OSError:
        pass
    blas_version, blas_threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "input_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(ROOT),
    }


def _median_rounds(rounds: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in PER_ROUND}


def _cli_layer_metrics(results: list[e2e.CommandResult]) -> dict[str, float]:
    m = {}
    for r in results:
        if r.name != "help":
            m[f"cli.{r.name}.cpu_s"] = r.cpu_s
            m[f"cli.{r.name}.rss_mb"] = r.rss_mb
            m[f"cli.{r.name}.out_bytes"] = r.out_bytes
    return m


def run_workload(w: workloads.Workload, seed: int, seconds: float, trace: bool):
    """Generate, run and check one workload; returns (result dict, env dict)."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=base))
    try:
        inputs = workloads.generate(w, seed, work)
        session = e2e.Session(ROOT, work, inputs, w)
        extra_failed = 0
        rounds = []
        if not trace:
            start = perf_counter()
            while True:
                t0 = perf_counter()
                rounds.append(session.round())
                if perf_counter() - start + (perf_counter() - t0) > seconds:
                    break
            metrics = _median_rounds(rounds)
        else:
            rnd = _median_rounds([session.round()])
            metrics = _cli_layer_metrics(session.results)
            tracer = Tracer()
            try:
                metrics.update(traced.run_traced(inputs, w, work, tracer))
                pipeline = sum(end - start for name, start, end, parent in tracer.spans
                               if parent < 0 and name != "cmd.synth")
                metrics["trace.pipeline_s"] = pipeline
                metrics["trace.overhead_ratio"] = pipeline / (rnd["pipeline_s"] - 5 * rnd["setup_s"])
            except Exception:   # a failing layer call is a failed operation, not a crash
                traceback.print_exc()
                extra_failed = 1
            finally:
                traces = base / "traces"
                traces.mkdir(exist_ok=True)
                tracer.write(traces / f"{w.name}-seed{seed}.json")
        results = session.results
        problems = [p for r in results for p in r.problems]
        result = {
            "attempted": len(results) + int(trace),
            "failed": sum(not r.ok for r in results) + extra_failed,
            "problems": problems,
            "rounds": rounds,
            "metrics": metrics,
        }
        return result, environment(w.name, seed, inputs.digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(name: str, result: dict, declared: dict[str, str]) -> dict:
    """Print one workload's metrics by name and unit; return the JSON metrics."""
    out = {}
    for metric, unit in declared.items():
        value = result["metrics"][metric]
        out[metric] = {"value": value, "unit": unit}
        print(f"{name:18s} {metric:38s} {value:14.6g} {unit}")
    rate = result["failed"] / result["attempted"]
    print(f"{name:18s} {'error_rate':38s} {rate:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for p in result["problems"]:
        print(f"{name:18s} FAILED CHECK: {p}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "driftchain" / "cli.py").is_file():
        print(f"error: no driftchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Python has no build step; byte-compiling first keeps the one-off
    # compile of a fresh checkout out of the first timed command.
    compileall.compile_dir(ROOT / "src", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    declared = declared_metrics(bool(args.trace))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    metrics = {}
    for name in names:
        result, env = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace))
        print("env " + json.dumps(env, sort_keys=True))
        if not args.trace:
            rounds = result["rounds"]
            print(f"{name:18s} {len(rounds)} rounds; per round:")
            for k in PER_ROUND:
                print(f"{name:18s}   {k:14s} " + " ".join(f"{r[k]:.4g}" for r in rounds))
        reported = _report(name, result, declared)
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = reported
        else:
            metrics.update({f"{name}/{k}": v for k, v in reported.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
