"""Checks on the user-visible outputs of each CLI command.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  The checks read only what a user reads (reports,
``posterior.csv``, ``paths_summary.csv``, the path GeoJSON and
``evolve_step*.csv``), never internal artifacts such as
``matrix_annual.txt``.  Where a check is cheap and independent of the
program, it compares against a reference computed here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator, eigs

from workloads import SEASON_EXPONENT

POSTERIOR_TOL = 1e-9
LAMBDA_REL_TOL = 1e-7
MASS_TOL = 1e-12


def read_report(path: Path) -> dict[str, list[str]]:
    """`key value...` report lines keyed by their first field."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, *rest = line.split()
            out[key] = rest
    return out


def _guard(fn):
    """Turn a missing file or malformed field into a reported problem."""
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, KeyError, IndexError, StopIteration, ValueError, RuntimeError) as exc:
            return [f"{fn.__name__}: unreadable output ({type(exc).__name__}: {exc})"]
    wrapper.__name__ = fn.__name__
    return wrapper


@_guard
def check_help(log_text: str) -> list[str]:
    return [] if "Usage:" in log_text else ["help: no usage text"]


@_guard
def check_build(out: Path, n_states: int) -> list[str]:
    rep = read_report(out / "build_report.txt")
    problems = []
    if int(rep["n_states"][0]) != n_states:
        problems.append(f"build: n_states {rep['n_states'][0]} != {n_states}")
    if int(rep["total_pairs"][0]) <= 0:
        problems.append("build: no transition pairs")
    for season in ("W", "S", "SF"):
        lo = float(rep[f"row_sum_min_{season}"][0])
        hi = float(rep[f"row_sum_max_{season}"][0])
        if not 0.0 <= lo <= hi <= 1.0 + 1e-12:
            problems.append(f"build: row sums of {season} outside [0, 1]: {lo}..{hi}")
    return problems


def read_triplet_matrix(path: Path) -> sparse.csr_matrix:
    """Parse a `# transition-matrix v1` file into a CSR matrix."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n = int(next(ln.split()[1] for ln in lines if ln.startswith("n_states ")))
    body = lines[lines.index("i,j,value") + 1:]
    if not body:
        return sparse.csr_matrix((n, n))
    ijv = np.loadtxt(body, delimiter=",", ndmin=2)
    return sparse.csr_matrix((ijv[:, 2], (ijv[:, 0].astype(int), ijv[:, 1].astype(int))),
                             shape=(n, n))


def reference_lambda1(out: Path) -> float:
    """|lambda_1| of the annual operator from the run's seasonal matrices.

    Applies the 72 sparse factors W^e SF^e S^e SF^e one by one (the
    product is never formed) and lets ARPACK find the dominant eigenvalue.
    """
    w, s, sf = (read_triplet_matrix(out / f"matrix_{x}.txt") for x in ("W", "S", "SF"))
    factors = [w] * SEASON_EXPONENT + [sf] * SEASON_EXPONENT + [s] * SEASON_EXPONENT \
        + [sf] * SEASON_EXPONENT

    def matvec(x):
        x = np.asarray(x).ravel()
        for f in reversed(factors):
            x = f @ x
        return x

    n = w.shape[0]
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.full(n, 1.0 / n)
    vals = eigs(op, k=1, which="LM", v0=v0, tol=1e-13, return_eigenvectors=False)
    return float(np.abs(vals[0]))


@_guard
def check_spectral(out: Path) -> list[str]:
    rep = read_report(out / "spectral_report.txt")
    lams = sorted(k for k in rep if k.startswith("lambda_") and k.endswith("_modulus"))
    problems = []
    if not lams:
        return ["spectral: no eigenpairs reported"]
    for key in lams:
        if rep[key][1] != "converged":
            problems.append(f"spectral: {key} not converged")
    lam1 = float(rep["lambda_1_modulus"][0])
    if not 0.0 < lam1 <= 1.0:
        problems.append(f"spectral: lambda_1 modulus {lam1} outside (0, 1]")
    ref_lambda1 = reference_lambda1(out)
    if abs(lam1 - ref_lambda1) > LAMBDA_REL_TOL * ref_lambda1:
        problems.append(f"spectral: lambda_1 {lam1!r} differs from the reference {ref_lambda1!r}")
    return problems


@_guard
def check_bayes(out: Path, candidates: tuple[int, ...]) -> list[str]:
    with open(out / "posterior.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = read_report(out / "bayes_summary.txt")
    problems = []
    if len(rows) != len(candidates):
        problems.append(f"bayes: {len(rows)} posterior rows for {len(candidates)} candidates")
    post = np.array([float(r["posterior"]) for r in rows])
    if post.size == 0 or post.min() < 0 or abs(post.sum() - 1.0) > POSTERIOR_TOL:
        problems.append(f"bayes: posterior sums to {post.sum()!r}, not 1")
    c_max = int(summary["c_max_state"][0])
    if c_max not in candidates:
        problems.append(f"bayes: c_max {c_max} is not a candidate")
    if post.size:
        best = rows[int(np.argmax(post))]
        if (float(best["lat"]), float(best["lon"])) != (
                float(summary["c_max_lat"][0]), float(summary["c_max_lon"][0])):
            problems.append("bayes: c_max is not the posterior mode")
    return problems


@_guard
def check_paths(out: Path, observations: tuple[tuple[int, int], ...],
                candidates: tuple[int, ...]) -> list[str]:
    with open(out / "paths_summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != len(observations):
        return [f"paths: {len(rows)} summary rows for {len(observations)} observations"]
    for idx, (row, (label, k)) in enumerate(zip(rows, observations), start=1):
        if int(row["target"]) != label or int(row["steps"]) != k:
            problems.append(f"paths: row {idx} is not target {label} at {k} steps")
            continue
        if not row["best_source"]:
            problems.append(f"paths: observation {idx} has no feasible path")
            continue
        logp = float(row["log_prob"])
        if not (math.isfinite(logp) and logp <= 0.0):
            problems.append(f"paths: observation {idx} log-probability {logp} not finite and <= 0")
        if int(row["best_source"]) not in candidates:
            problems.append(f"paths: best source {row['best_source']} is not a candidate")
        doc = json.loads((out / f"paths_obs{idx}_target{label}.geojson").read_text("utf-8"))
        best = [f["properties"] for f in doc["features"] if f["properties"].get("is_best")]
        if len(best) != 1:
            problems.append(f"paths: observation {idx} has {len(best)} best paths")
            continue
        props = best[0]
        if len(props["states"]) != k + 1:
            problems.append(f"paths: best path {idx} has {len(props['states'])} states, not {k + 1}")
        if props["log_prob"] != logp or not math.isclose(
                math.fsum(props["step_log_probs"]), logp, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"paths: best path {idx} log-probability disagrees with its steps")
    return problems


@_guard
def check_evolve(out: Path, steps: int, n_states: int, start_state: int) -> list[str]:
    problems = []
    prev = None
    for k in range(steps + 1):
        data = np.loadtxt(out / f"evolve_step{k:04d}.csv", delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != n_states:
            problems.append(f"evolve: step {k} has {data.shape[0]} states, not {n_states}")
            continue
        mass = data[:, 1]
        if mass.min() < 0:
            problems.append(f"evolve: negative mass at step {k}")
        if k == 0 and (mass[start_state] != 1.0 or mass.sum() != 1.0):
            problems.append("evolve: step 0 is not a point mass at the start state")
        if prev is not None and mass.sum() > prev + MASS_TOL:
            problems.append(f"evolve: total mass grows at step {k}")
        prev = mass.sum()
    return problems


@_guard
def check_synth(out: Path, n_drifters: int, n_observations: int) -> list[str]:
    problems = []
    with open(out / "trajectories.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
        ids = {line.split(",", 1)[0] for line in fh}
    if header != "id,time_days,lon,lat":
        problems.append(f"synth: unexpected track header {header!r}")
    if len(ids) != n_drifters:
        problems.append(f"synth: {len(ids)} drifters written, spec asks for {n_drifters}")
    obs = (out / "observations.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(obs) != n_observations:
        problems.append(f"synth: {len(obs)} observations, spec asks for {n_observations}")
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
    if len(truth["sampled_observations"]) != n_observations:
        problems.append("synth: truth sidecar disagrees with observations.csv")
    for name in ("grid.cfg", "roles.csv", "run.cfg"):
        if not (out / name).is_file():
            problems.append(f"synth: {name} missing")
    return problems
