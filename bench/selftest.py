"""Self-test of the benchmark at a tiny size; runs in well under a minute.

Usage (from the root of a checkout): python3 bench/selftest.py

It checks that
- the generator is deterministic: one seed gives byte-identical inputs,
  another seed gives different ones;
- both run modes report exactly the metrics BENCHMARK.json declares, and
  the layer map names only declared metrics;
- a corrupted output (a posterior that does not sum to 1) and commands
  that exit with code 2 or 3 count as failed operations.
The failure cases run the real measuring and checking code against a
stand-in ``driftchain.cli`` that misbehaves on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import e2e
import run
import workloads

TINY = replace(
    workloads.WORKLOADS["drifter-archive"],
    name="tiny", nx=6, ny=6, n_drifters=150, fixes_per_step=2, n_candidates=4,
    obs_steps=(20, 30), window_steps=1, evolve_steps=2,
)

# Stand-in CLI: `bayes` rescales the posterior column of the real output
# left by the previous run; `build` and `spectral` fail with exit codes 2, 3.
BROKEN_CLI = '''
import sys
from pathlib import Path

cmd = sys.argv[1]
if cmd == "bayes":
    post = Path(sys.argv[sys.argv.index("--config") + 1]).parent / "out" / "posterior.csv"
    head, *rows = post.read_text().splitlines()
    i = head.split(",").index("posterior")
    fixed = []
    for row in rows:
        fields = row.split(",")
        fields[i] = repr(1.5 * float(fields[i]))
        fixed.append(",".join(fields))
    post.write_text("\\n".join([head, *fixed]) + "\\n")
    sys.exit(0)
sys.exit({"build": 2, "spectral": 3}.get(cmd, 0))
'''


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_determinism(tmp: Path) -> None:
    a = workloads.generate(TINY, 5, tmp / "a")
    b = workloads.generate(TINY, 5, tmp / "b")
    c = workloads.generate(TINY, 6, tmp / "c")
    same = all((a.case_dir / p.name).read_bytes() == p.read_bytes() for p in b.case_dir.iterdir())
    check(a.digest == b.digest and same, "same seed gives byte-identical inputs")
    check(a.digest != c.digest, "another seed gives different inputs")


def test_metric_names() -> None:
    layer_map = json.loads((Path(__file__).with_name("layer_map.json")).read_text("utf-8"))
    declared_layer = run.declared_metrics(True)
    declared_e2e = run.declared_metrics(False)
    for mode, declared in ((0, declared_e2e), (1, declared_layer)):
        result, env = run.run_workload(TINY, 7, 0.0, bool(mode))
        check(result["failed"] == 0, f"trace {mode}: tiny run passes every check {result['problems']}")
        missing = sorted(set(declared) - set(result["metrics"]))
        check(not missing, f"trace {mode}: every declared metric is measured {missing}")
        check(env["seed"] == 7 and len(env["input_sha256"]) == 64, f"trace {mode}: env records seed and digest")
    named = {m for row in layer_map["rows"] for m in row["layer_metrics"]}
    moved = {m for row in layer_map["rows"] for m in row["should_move"]}
    check(named <= set(declared_layer), "layer map names only declared per-layer metrics")
    check(moved <= set(declared_e2e), "layer map names only declared end-to-end metrics")


def test_failures_count(tmp: Path) -> None:
    inputs = workloads.generate(TINY, 8, tmp / "run")
    good = e2e.Session(run.ROOT, tmp / "run", inputs, TINY)
    good.round()
    check(all(r.ok for r in good.results), "tiny pipeline passes on the real program")

    fake = tmp / "fake"
    (fake / "src" / "driftchain").mkdir(parents=True)
    (fake / "src" / "driftchain" / "__init__.py").write_text("", encoding="utf-8")
    (fake / "src" / "driftchain" / "cli.py").write_text(BROKEN_CLI, encoding="utf-8")
    broken = e2e.Session(fake, tmp / "run", inputs, TINY)
    bayes = broken.command("bayes")
    check(bayes.exit_code == 0 and not bayes.ok and any("posterior" in p for p in bayes.problems),
          "a posterior that does not sum to 1 is a failed operation")
    build = broken.command("build")
    check(build.exit_code == 2 and not build.ok, "exit code 2 is a failed operation")
    spectral = broken.command("spectral")
    check(spectral.exit_code == 3 and not spectral.ok, "exit code 3 is a failed operation")


def main() -> int:
    if not (run.ROOT / "src" / "driftchain" / "cli.py").is_file():
        print("error: run from a checkout with src/driftchain", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    base = run.ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        test_determinism(tmp)
        test_failures_count(tmp)
        test_metric_names()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
