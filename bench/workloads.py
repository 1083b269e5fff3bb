"""Seeded synthetic inputs for the driftchain benchmark.

One generator serves every workload.  It builds a sparse 5-point
drift-diffusion stencil per season (W, S, SF) on 0.25-degree cells, with
reflecting north and south walls, a leaky east edge and a sticky west
coast that carries four debris sites.  Drifters walk on those true
kernels; the walks are written as the files the CLI reads:
``trajectories.csv``, ``grid.cfg``, ``roles.csv``, ``observations.csv``
and ``run.cfg``, plus a dense JSON spec for ``driftchain synth``.

Only the seed varies between runs of one workload: it moves the drifters,
the debris sites, the candidate set and the planted source.  Problem
sizes (states, drifters, candidates, path lengths) are fixed per
workload, so the work a run does barely depends on the seed.

This module reads nothing from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CELL = 0.25
LON0, LAT0 = 40.0, -30.0
LAG_DAYS = 5.0
SEASON_EXPONENT = 18
CRASH_DATE = date(2014, 3, 8)
DURATION_DAYS = 360.0
SEASONS = ("W", "S", "SF")
N_DEBRIS = 4
COAST_STICKY = 0.08
DEBRIS_STICKY = 0.3
# Every workload runs `driftchain synth` on the same dense 256-state spec,
# so synth_s means the same thing everywhere; only drifter-archive is
# predicted to show a change in it.
SYNTH_NX = SYNTH_NY = 16
SYNTH_DRIFTERS = 400
SYNTH_OBSERVATIONS = 2

# Mean drift (east, north) in cells per step, and the diffusive share
# that goes to each of the four neighbours.  W drives mass to the west
# coast, S pushes it back east, SF sits between.
_DRIFT = {"W": (-0.22, 0.05), "S": (0.12, -0.06), "SF": (-0.06, 0.02)}
_DIFFUSE = 0.12


@dataclass(frozen=True)
class Workload:
    """Fixed problem sizes of one workload; the seed supplies the rest."""

    name: str
    why: str
    nx: int
    ny: int
    n_drifters: int
    fixes_per_step: int          # trajectory fixes per 5-day step
    n_candidates: int
    # K of each observation, in steps.  Step K-1 falls in W or SF, when the
    # westward drift keeps the coastal boxes well sampled; in S the coast
    # empties and a box there can go unobserved, which makes an exact
    # K-step beaching impossible in the estimated chain.
    obs_steps: tuple[int, ...]
    window_steps: int
    evolve_steps: int
    archive_noise: bool          # drogued column, malformed and duplicate rows

    @property
    def n_states(self) -> int:
        return self.nx * self.ny


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="drifter-archive",
            why="ingest-heavy: 6-hourly fixes with drogued, malformed and duplicate rows "
                "on 256 states; synth writes the same track format build reads",
            nx=16, ny=16, n_drifters=500, fixes_per_step=20,
            n_candidates=12, obs_steps=(50, 70), window_steps=0, evolve_steps=3,
            archive_noise=True,
        ),
        Workload(
            name="basin-spectral",
            why="annual operator and eigensolve: 484 states whose annual product is "
                "nearly dense, written and read back as text, then subspace-iterated",
            nx=22, ny=22, n_drifters=1000, fixes_per_step=1,
            n_candidates=20, obs_steps=(50, 70), window_steps=0, evolve_steps=3,
            archive_noise=False,
        ),
        Workload(
            name="source-inversion",
            why="likelihood sweep and path DP: 256 states, 40 candidate sources, "
                "observations at 55, 75 and 95 steps with a 2-step window",
            nx=16, ny=16, n_drifters=1200, fixes_per_step=1,
            n_candidates=40, obs_steps=(55, 75, 95), window_steps=2, evolve_steps=3,
            archive_noise=False,
        ),
    )
}


# ------------------------------------------------------------- kernels

def stencil(nx: int, ny: int):
    """True seasonal kernels as neighbour tables.

    Returns ``(dest, probs)``: ``dest`` is (n, 5) with the destination
    state of the moves [stay, east, west, north, south] (-1 = leaves the
    domain), ``probs`` maps each season to the (n, 5) move probabilities.
    States follow the package's raster order, ``iy * nx + ix``.
    """
    n = nx * ny
    ix = np.tile(np.arange(nx), ny)
    iy = np.repeat(np.arange(ny), nx)
    state = np.arange(n)
    dest = np.stack([
        state,
        np.where(ix < nx - 1, state + 1, -1),   # the east edge leaks
        np.where(ix > 0, state - 1, state),     # the west coast reflects
        np.where(iy < ny - 1, state + nx, state),
        np.where(iy > 0, state - nx, state),
    ], axis=1)
    # A meridional shear (northward in the west, southward in the east)
    # turns the drift into a slow gyre, so the leading eigenvalues are close.
    shear = 0.08 * np.cos(np.pi * (ix + 0.5) / nx)
    probs = {}
    for season in SEASONS:
        u, v = _DRIFT[season]
        v = v + shear
        p = np.stack([
            np.zeros(n),
            np.full(n, _DIFFUSE + max(u, 0.0)),
            np.full(n, _DIFFUSE + max(-u, 0.0)),
            _DIFFUSE + np.clip(v, 0.0, None),
            _DIFFUSE + np.clip(-v, 0.0, None),
        ], axis=1)
        p[:, 0] = 1.0 - p[:, 1:].sum(axis=1)
        probs[season] = p
    return dest, probs


def dense_kernel(dest: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = dest.shape[0]
    k = np.zeros((n, n))
    rows = np.repeat(np.arange(n), 5)
    cols = dest.ravel()
    keep = cols >= 0
    np.add.at(k, (rows[keep], cols[keep]), p.ravel()[keep])
    return k


def season_of_day(day: float) -> str:
    month = (CRASH_DATE + timedelta(days=math.floor(day))).month
    if month <= 3:
        return "W"
    if 7 <= month <= 9:
        return "S"
    return "SF"


# --------------------------------------------------------------- roles

@dataclass(frozen=True)
class Roles:
    leaky: tuple[int, ...]
    sticky: dict[int, float]
    debris: tuple[int, ...]      # state of target label m at index m-1
    candidates: tuple[int, ...]
    source: int                  # planted source, one of the candidates


def make_roles(nx: int, ny: int, n_candidates: int, rng) -> Roles:
    leaky = tuple(iy * nx + nx - 1 for iy in range(ny))
    coast = [iy * nx for iy in range(ny)]
    # Four debris sites spread along the northern half of the coast, each
    # nudged by the seed.  The coastal current runs north, so the southern
    # coast is thinly sampled and a site there can go unobserved.
    lo = ny // 2 - 1
    rows = [int(round(r)) + int(rng.integers(-1, 2))
            for r in np.linspace(lo, ny - 2, N_DEBRIS)]
    debris = tuple(min(max(r, lo), ny - 1) * nx for r in rows)
    sticky = {s: COAST_STICKY for s in coast}
    for s in debris:
        sticky[s] = DEBRIS_STICKY
    # Candidates come from the open sea between the coast and the leaky edge.
    pool = np.array([iy * nx + ix for iy in range(ny) for ix in range(2, nx - 2)])
    candidates = tuple(int(s) for s in rng.choice(pool, size=n_candidates, replace=False))
    source = candidates[int(rng.integers(n_candidates))]
    return Roles(leaky=leaky, sticky=sticky, debris=debris,
                 candidates=candidates, source=source)


def augmented(dest, probs, roles: Roles, n: int) -> dict[str, np.ndarray]:
    """Dense true chains with a cemetery and one absorbing state per site."""
    m = len(roles.debris)
    out = {}
    for season in SEASONS:
        a = np.zeros((n + 1 + m, n + 1 + m))
        a[:n, :n] = dense_kernel(dest, probs[season])
        a[:n, n] = 1.0 - a[:n, :n].sum(axis=1)
        for s, ell in roles.sticky.items():
            a[s, :n + 1] *= 1.0 - ell
            if s in roles.debris:
                labels = [i for i, d in enumerate(roles.debris) if d == s]
                for i in labels:
                    a[s, n + 1 + i] += ell / len(labels)
            else:
                a[s, n] += ell
        a[n, n] = 1.0
        for i in range(m):
            a[n + 1 + i, n + 1 + i] = 1.0
        out[season] = a
    return out


def draw_observations(chains, roles: Roles, n: int, obs_steps, rng) -> list[tuple[int, int]]:
    """Target label per observation step, drawn from the planted source.

    Label m is drawn with probability proportional to the chance that the
    source's debris first beaches at site m exactly at that step.
    """
    horizon = max(obs_steps)
    f = np.zeros(n + 1 + len(roles.debris))
    f[roles.source] = 1.0
    cdf = [f[n + 1:].copy()]
    for k in range(horizon):
        f = f @ chains[season_of_day(k * LAG_DAYS)]
        cdf.append(f[n + 1:].copy())
    cdf = np.array(cdf)
    out = []
    for k in obs_steps:
        pmf = np.clip(cdf[k] - cdf[k - 1], 0.0, None)
        if pmf.sum() <= 0:
            raise RuntimeError(f"planted source {roles.source} cannot beach at step {k}")
        out.append((int(rng.choice(len(pmf), p=pmf / pmf.sum())) + 1, int(k)))
    return out


# ------------------------------------------------------------ drifters

def walk_drifters(dest, probs, n_drifters: int, fixes_per_step: int, rng):
    """Per-drifter (fix times, state per fix, exit time or None) on the true kernels.

    Each drifter starts in a uniform random box at a random step of the
    year and moves once per step; its fixes within a step stay in that
    step's box.  A drifter whose move leaves the domain gets one last fix
    just east of it and stops.
    """
    n = dest.shape[0]
    max_steps = int(DURATION_DAYS / LAG_DAYS)
    step_season = [season_of_day(k * LAG_DAYS) for k in range(max_steps)]
    cum = {s: np.cumsum(probs[s], axis=1) for s in SEASONS}
    dt = LAG_DAYS / fixes_per_step
    walks = []
    for _ in range(n_drifters):
        start = int(rng.integers(max_steps))
        state = int(rng.integers(n))
        states = []
        for k in range(start, max_steps):
            states.append(state)
            move = int(np.searchsorted(cum[step_season[k]][state], rng.random(), side="right"))
            state = int(dest[state, min(move, 4)])
            if state < 0:
                break
        fix_states = np.repeat(np.array(states, dtype=np.int64), fixes_per_step)
        times = start * LAG_DAYS + dt * np.arange(len(fix_states))
        exit_time = (start + len(states)) * LAG_DAYS if state < 0 else None
        walks.append((times, fix_states, exit_time))
    return walks


def _format_rows(ids, times, lons, lats, drogued) -> list[str]:
    if drogued is None:
        return [f"{i},{t:.4f},{x:.5f},{y:.5f}" for i, t, x, y in zip(ids, times, lons, lats)]
    return [f"{i},{t:.4f},{x:.5f},{y:.5f},{d}"
            for i, t, x, y, d in zip(ids, times, lons, lats, drogued)]


def write_trajectories(path: Path, walks, nx: int, archive_noise: bool, rng) -> None:
    """Write the trajectory CSV."""
    ids, times, states = [], [], []
    exit_ids, exit_times = [], []
    for d, (t, s, exit_time) in enumerate(walks):
        name = f"D{d:05d}"
        ids.extend([name] * len(t))
        times.append(t)
        states.append(s)
        if exit_time is not None:
            exit_ids.append(name)
            exit_times.append(exit_time)
    times = np.concatenate(times)
    states = np.concatenate(states)
    lons = LON0 + (states % nx + 0.5 + rng.uniform(-0.45, 0.45, len(states))) * CELL
    lats = LAT0 + (states // nx + 0.5 + rng.uniform(-0.45, 0.45, len(states))) * CELL
    out_lon = LON0 + (nx + 0.5) * CELL
    out_lat = float(np.mean(lats))
    drogued = None
    if archive_noise:
        # Roughly 2 % of the fixes carry a drogue flag; they are dropped.
        drogued = (rng.random(len(times)) < 0.02).astype(np.int64)
    rows = _format_rows(ids, times, lons, lats, drogued)
    suffix = ",0" if archive_noise else ""
    rows += [f"{i},{t:.4f},{out_lon:.5f},{out_lat:.5f}{suffix}"
             for i, t in zip(exit_ids, exit_times)]
    header = "id,time_days,lon,lat" + (",drogued" if archive_noise else "")
    if archive_noise:
        picks = rng.choice(len(rows), size=200, replace=False)
        dups = [rows[i] for i in picks[:150]]          # repeated timestamps
        bad = [rows[i].rsplit(",", 2)[0] for i in picks[150:175]]   # missing fields
        bad += [rows[i].replace(".", "x", 1) for i in picks[175:]]  # unparsable
        rows += dups + bad
        order = rng.permutation(len(rows))
        rows = [rows[i] for i in order]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


# -------------------------------------------------------------- writer

def _box(s: int, nx: int) -> str:
    return f"{s % nx},{s // nx}"


def write_grid(path: Path, nx: int, ny: int) -> None:
    path.write_text(
        f"lon_min = {LON0:.17g}\nlon_max = {LON0 + nx * CELL:.17g}\n"
        f"lat_min = {LAT0:.17g}\nlat_max = {LAT0 + ny * CELL:.17g}\n"
        f"cell_size = {CELL:.17g}\n",
        encoding="utf-8",
    )


def write_roles(path: Path, roles: Roles, nx: int) -> None:
    lines = [f"leaky: {_box(s, nx)}" for s in roles.leaky]
    lines += [f"sticky: {_box(s, nx)},{ell:.17g}" for s, ell in sorted(roles.sticky.items())]
    lines += [f"debris: {_box(s, nx)},{m}" for m, s in enumerate(roles.debris, start=1)]
    lines += [f"source: {_box(s, nx)}" for s in roles.candidates]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_synth_spec(path: Path, seed: int, rng) -> None:
    """Dense JSON spec for `driftchain synth`."""
    dest, probs = stencil(SYNTH_NX, SYNTH_NY)
    roles = make_roles(SYNTH_NX, SYNTH_NY, 4, rng)
    spec = {
        "bounds": [LON0, LON0 + SYNTH_NX * CELL, LAT0, LAT0 + SYNTH_NY * CELL],
        "cell_size": CELL,
        "kernels": {s: dense_kernel(dest, probs[s]).round(12).tolist() for s in SEASONS},
        "n_drifters": SYNTH_DRIFTERS,
        "duration_days": DURATION_DAYS,
        "sample_interval_days": LAG_DAYS,
        "seed": seed,
        "start_date": CRASH_DATE.isoformat(),
        "source_state": roles.source,
        "leaky": list(roles.leaky),
        "sticky": {str(s): ell for s, ell in sorted(roles.sticky.items())},
        "debris": list(roles.debris),
        "candidate_sources": list(roles.candidates),
        "sample_observations": SYNTH_OBSERVATIONS,
        "max_observation_steps": 200,
    }
    path.write_text(json.dumps(spec), encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    """What the generator wrote, plus the truth the checks compare against."""

    case_dir: Path
    spec_path: Path
    n_states: int
    roles: Roles
    observations: tuple[tuple[int, int], ...]   # (target label, step)
    digest: str


def generate(w: Workload, seed: int, root: Path) -> Inputs:
    """Write the workload's input files under ``root``; same seed, same bytes."""
    rng = np.random.default_rng([seed, 0x44726966])
    case = root / "case"
    case.mkdir(parents=True, exist_ok=True)
    dest, probs = stencil(w.nx, w.ny)
    roles = make_roles(w.nx, w.ny, w.n_candidates, rng)
    chains = augmented(dest, probs, roles, w.n_states)
    observations = draw_observations(chains, roles, w.n_states, w.obs_steps, rng)

    walks = walk_drifters(dest, probs, w.n_drifters, w.fixes_per_step, rng)
    write_trajectories(case / "trajectories.csv", walks, w.nx, w.archive_noise, rng)
    write_grid(case / "grid.cfg", w.nx, w.ny)
    write_roles(case / "roles.csv", roles, w.nx)
    (case / "observations.csv").write_text(
        "target_label,days_since_crash,name\n"
        + "".join(f"{m},{k * LAG_DAYS:.17g},obs{i}\n"
                  for i, (m, k) in enumerate(observations, start=1)),
        encoding="utf-8",
    )
    (case / "run.cfg").write_text(
        "grid = grid.cfg\ntrajectories = trajectories.csv\nroles = roles.csv\n"
        "observations = observations.csv\n"
        f"lag_days = {LAG_DAYS:.17g}\nseason_exponent = {SEASON_EXPONENT}\n"
        f"crash_date = {CRASH_DATE.isoformat()}\nwindow_steps = {w.window_steps}\n"
        "seed = 0\nout_dir = out\n",
        encoding="utf-8",
    )
    spec_path = root / "synth_spec.json"
    write_synth_spec(spec_path, seed, rng)
    return Inputs(
        case_dir=case,
        spec_path=spec_path,
        n_states=w.n_states,
        roles=roles,
        observations=tuple(observations),
        digest=digest([*sorted(case.iterdir()), spec_path]),
    )


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()
