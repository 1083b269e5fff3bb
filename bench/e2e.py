"""End-to-end run: the driftchain CLI as users run it.

Each command is one fresh ``python -m driftchain.cli`` process, started
only after the previous one has ended (one client, closed loop).  The
child's wall time, peak RSS and CPU time come from ``os.wait4`` in a small
launcher process (see ``launch.py``), so they belong to that child alone.
An operation is one command plus the checks on its output; a nonzero
exit or a failed check makes it a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import SYNTH_DRIFTERS, SYNTH_OBSERVATIONS, Inputs, Workload

PIPELINE = ("build", "spectral", "bayes", "paths", "evolve")
COMMAND_TIMEOUT_S = 150.0
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass
class CommandResult:
    name: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    output: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def _snapshot(d: Path | None) -> dict[Path, tuple[int, int]]:
    if d is None or not d.is_dir():
        return {}
    return {p: (st.st_size, st.st_mtime_ns)
            for p in d.iterdir() if p.is_file() for st in [p.stat()]}


def run_command(name: str, args: list[str], env: dict, log: Path,
                out_dir: Path | None = None) -> CommandResult:
    """Run one CLI command to completion and measure it.

    ``out_bytes`` is the size of the files in ``out_dir`` that the command
    created or rewrote.
    """
    before = _snapshot(out_dir)
    measured = log.with_suffix(".cost.json")
    measured.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        subprocess.run([sys.executable, "-S", str(LAUNCHER), str(measured),
                        str(COMMAND_TIMEOUT_S), sys.executable, "-m", "driftchain.cli", *args],
                       stdout=fh, stderr=subprocess.STDOUT, env=env,
                       timeout=COMMAND_TIMEOUT_S + 20.0, check=False)
    output = log.read_text(encoding="utf-8", errors="replace")
    if not measured.is_file():
        raise RuntimeError(f"launcher failed for {name}: {output[-300:]}")
    cost = json.loads(measured.read_text(encoding="utf-8"))
    after = _snapshot(out_dir)
    written = sum(size for p, (size, mtime) in after.items() if before.get(p) != (size, mtime))
    return CommandResult(
        name=name,
        exit_code=cost["exit_code"],
        wall_s=cost["wall_s"],
        cpu_s=cost["cpu_s"],
        rss_mb=cost["maxrss_kib"] / 1024.0,   # ru_maxrss is in KiB on Linux
        out_bytes=written,
        output=output,
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Session:
    """Runs and checks commands for one workload's inputs."""

    def __init__(self, root: Path, work: Path, inputs: Inputs, w: Workload):
        self.env = child_env(root)
        self.work = work
        self.inputs = inputs
        self.w = w
        self.cfg = inputs.case_dir / "run.cfg"
        self.out = inputs.case_dir / "out"
        self.synth_out = work / "synth_out"
        self.results: list[CommandResult] = []

    def _run(self, name: str, args: list[str], out_dir: Path | None, check) -> CommandResult:
        r = run_command(name, args, self.env, self.work / f"{name}.log", out_dir)
        if r.exit_code != 0:
            r.problems.append(f"{name}: exit code {r.exit_code}: {r.output.strip()[-300:]}")
        else:
            r.problems.extend(check(r))
        self.results.append(r)
        return r

    def help(self) -> CommandResult:
        return self._run("help", ["--help"], None, lambda r: checks.check_help(r.output))

    def command(self, name: str) -> CommandResult:
        inp, w = self.inputs, self.w
        cfg = ["--config", str(self.cfg)]
        if name == "build":
            return self._run(name, ["build", *cfg], self.out,
                             lambda _: checks.check_build(self.out, inp.n_states))
        if name == "spectral":
            return self._run(name, ["spectral", *cfg], self.out,
                             lambda _: checks.check_spectral(self.out))
        if name == "bayes":
            return self._run(name, ["bayes", *cfg], self.out,
                             lambda _: checks.check_bayes(self.out, inp.roles.candidates))
        if name == "paths":
            return self._run(name, ["paths", *cfg], self.out,
                             lambda _: checks.check_paths(self.out, inp.observations,
                                                        inp.roles.candidates))
        if name == "evolve":
            args = ["evolve", *cfg, "--state", "0", "--steps", str(w.evolve_steps),
                    "--matrix", "annual"]
            return self._run(name, args, self.out,
                             lambda _: checks.check_evolve(self.out, w.evolve_steps,
                                                         inp.n_states, 0))
        if name == "synth":
            shutil.rmtree(self.synth_out, ignore_errors=True)
            args = ["synth", "--spec", str(inp.spec_path), "--out", str(self.synth_out)]
            return self._run(name, args, self.synth_out,
                             lambda _: checks.check_synth(self.synth_out, SYNTH_DRIFTERS,
                                                        SYNTH_OBSERVATIONS))
        raise ValueError(f"unknown command {name}")

    def round(self) -> dict[str, float]:
        """One pass: set-up probe, the five pipeline commands, then synth."""
        shutil.rmtree(self.out, ignore_errors=True)
        probe = self.help()
        times = {name: self.command(name) for name in (*PIPELINE, "synth")}
        return {
            **{f"{name}_s": r.wall_s for name, r in times.items()},
            "pipeline_s": sum(times[name].wall_s for name in PIPELINE),
            "peak_rss_mb": max(r.rss_mb for r in (*times.values(), probe)),
            "setup_s": probe.wall_s,
        }
