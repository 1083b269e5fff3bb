"""Synthetic ground-truth generator.

Produces everything the pipeline consumes — trajectory CSVs, role files,
grid configs, observation files — from explicit small seasonal kernels,
so each estimation stage can be checked against the truth that generated
its input.  All randomness flows from one seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import GridCovering, build_grid
from .ingest import DEFAULT_EPOCH, SEASONS, Season, TransitionPairs, season_of_day
from .schedule import ChainSchedule

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground truth for a synthetic run.

    ``kernels`` maps each season to an (n, n) row-substochastic array
    over the grid's states; row deficits are exit probabilities.  Role
    and observation entries use state indices; ``sample_observations``
    requests that many simulated debris discoveries from the true source
    instead of explicit ones.
    """

    bounds: tuple[float, float, float, float]
    cell_size: float
    kernels: dict[Season, np.ndarray]
    n_drifters: int = 100
    duration_days: float = 360.0
    sample_interval_days: float = 5.0
    seed: int = 0
    start_date: date = DEFAULT_EPOCH
    source_state: int | None = None
    leaky: tuple[int, ...] = ()
    sticky: dict[int, float] = field(default_factory=dict)
    debris: tuple[int, ...] = ()
    candidate_sources: tuple[int, ...] = ()
    observations: tuple[dict, ...] = ()
    sample_observations: int = 0
    max_observation_steps: int = 200

    def __post_init__(self):
        for season in Season:
            if season not in self.kernels:
                raise ConfigError(f"synthetic spec lacks a kernel for season {season}")
        shapes = {k.shape for k in self.kernels.values()}
        if len(shapes) != 1:
            raise ConfigError("seasonal kernels must share one shape")
        for season, k in self.kernels.items():
            validate_kernel(k, str(season))
        if self.n_drifters < 0:
            raise ConfigError("n_drifters must be nonnegative")
        if not (math.isfinite(self.sample_interval_days) and self.sample_interval_days > 0):
            raise ConfigError("sample interval must be positive and finite")
        if not math.isfinite(self.duration_days):
            raise ConfigError(f"duration_days must be finite, got {self.duration_days}")
        if self.sample_observations > 0:
            if self.source_state is None:
                raise ConfigError("sample_observations requires source_state")
            if self.max_observation_steps < 1:
                raise ConfigError("max_observation_steps must be at least 1 to sample observations")

    @property
    def n_states(self) -> int:
        return next(iter(self.kernels.values())).shape[0]

    def grid(self) -> GridCovering:
        g = build_grid(self.bounds, self.cell_size)
        if g.n_states != self.n_states:
            raise ConfigError(
                f"kernels are {self.n_states}-state but the grid has {g.n_states} boxes"
            )
        return g


def validate_kernel(k: np.ndarray, name: str) -> None:
    k = np.asarray(k)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ConfigError(f"kernel {name} must be square, got {k.shape}")
    if not np.isfinite(k).all():
        raise ConfigError(f"kernel {name} has non-finite entries")
    if k.size and k.min() < 0:
        raise ConfigError(f"kernel {name} has negative entries")
    sums = k.sum(axis=1)
    if sums.size and sums.max() > 1 + _ROW_TOL:
        raise ConfigError(f"kernel {name} row sums exceed 1 (max {sums.max()})")


def load_spec(path: str | Path) -> SyntheticSpec:
    """Read a SyntheticSpec from its JSON description."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        bounds = tuple(float(raw["bounds"][i]) for i in range(4))
        kernels = {
            Season(name): np.asarray(mat, dtype=float)
            for name, mat in raw["kernels"].items()
        }
        spec = SyntheticSpec(
            bounds=bounds,
            cell_size=float(raw["cell_size"]),
            kernels=kernels,
            n_drifters=int(raw.get("n_drifters", 100)),
            duration_days=float(raw.get("duration_days", 360.0)),
            sample_interval_days=float(raw.get("sample_interval_days", 5.0)),
            seed=int(raw.get("seed", 0)),
            start_date=date.fromisoformat(raw.get("start_date", "2014-03-08")),
            source_state=None if raw.get("source_state") is None else int(raw["source_state"]),
            leaky=tuple(int(i) for i in raw.get("leaky", [])),
            sticky={int(i): float(l) for i, l in raw.get("sticky", {}).items()},
            debris=tuple(int(i) for i in raw.get("debris", [])),
            candidate_sources=tuple(int(i) for i in raw.get("candidate_sources", [])),
            observations=tuple(raw.get("observations", [])),
            sample_observations=int(raw.get("sample_observations", 0)),
            max_observation_steps=int(raw.get("max_observation_steps", 200)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid synthetic spec ({exc})") from None
    return spec


def sample_pairs(
    kernels: dict[Season, np.ndarray] | np.ndarray,
    n_pairs: int,
    seed: int = 0,
) -> TransitionPairs:
    """Draw independent lag-T transition pairs straight from kernels.

    Start states are uniform; seasons are drawn uniformly when several
    kernels are given.  Row deficits materialize as out-of-domain endings
    (to_state -1).  This bypasses trajectory assembly: it is the sampling
    model Ulam counting inverts, so the estimator must converge to the
    kernel as n_pairs grows.
    """
    if isinstance(kernels, np.ndarray):
        kernels = {Season.W: kernels, Season.S: kernels, Season.SF: kernels}
    for season, k in kernels.items():
        validate_kernel(k, str(season))
    seasons = sorted(kernels, key=lambda s: s.value)
    n = kernels[seasons[0]].shape[0]
    rng = np.random.default_rng(seed)

    starts = rng.choice(n, size=n_pairs)
    season_idx = rng.integers(len(seasons), size=n_pairs)
    u = rng.random(n_pairs)

    ends = np.empty(n_pairs, dtype=np.int64)
    for si, s in enumerate(seasons):
        sel = season_idx == si
        if not sel.any():
            continue
        cum, targets = _draw_table(kernels[s])
        rows = starts[sel]
        ends[sel] = targets[rows, np.sum(u[sel, None] >= cum[rows], axis=1)]
    season_code = np.array([SEASONS.index(s) for s in seasons], dtype=np.int8)
    return TransitionPairs(
        from_state=starts,
        to_state=ends,
        start_date=np.zeros(n_pairs),
        season=season_code[season_idx],
    )


def _draw_table(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row running sums over the nonzero entries, and their columns.

    ``cum[i]`` holds row i's running sums in column order, padded to the
    longest row's nonzero count r with the row total; ``targets[i]``
    holds the matching columns, padded with -1 to width r + 1.  A draw u
    moves state i to ``targets[i, count of cum[i] <= u]``: the first
    column whose running sum exceeds u, or -1 (an exit) when u reaches
    the row total.  Entries are nonnegative, so skipping the zeros never
    changes a running sum, and the move equals the dense-row rule.
    """
    rows, cols = np.nonzero(kernel)
    counts = np.bincount(rows, minlength=kernel.shape[0])
    width = int(counts.max(initial=0))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    vals = np.zeros((kernel.shape[0], width))
    vals[rows, slot] = kernel[rows, cols]
    targets = np.full((kernel.shape[0], width + 1), -1, dtype=np.int64)
    targets[rows, slot] = cols
    return np.cumsum(vals, axis=1), targets


@dataclass(frozen=True)
class SimulatedTrack:
    drifter_id: int
    times: np.ndarray
    lons: np.ndarray
    lats: np.ndarray
    states: np.ndarray  # -1 marks the final out-of-domain sample


def simulate_tracks(spec: SyntheticSpec) -> list[SimulatedTrack]:
    """Walk virtual drifters through the true seasonal kernels.

    Each drifter starts in a uniform random box at a random step-aligned
    day, reports one jittered in-box position per step, and —
    when its kernel row's deficit fires — one final position just outside
    the domain before vanishing.  A move costs O(log r) for r the longest
    row's nonzero count (see ``_draw_table``).
    """
    g = spec.grid()
    rng = np.random.default_rng(spec.seed)
    dt = spec.sample_interval_days
    n = g.n_states
    max_steps = max(int(math.floor(spec.duration_days / dt)), 1)
    out_lon = g.lon_max + spec.cell_size
    out_lat = (g.lat_min + g.lat_max) / 2.0
    tables = {s: _draw_table(spec.kernels[s]) for s in Season}
    step_tables = [tables[season_of_day(step * dt, spec.start_date)]
                   for step in range(max_steps)]
    tracks = []
    for did in range(spec.n_drifters):
        start_step = int(rng.integers(max_steps))
        state = int(rng.integers(n))
        times, lons, lats, states = [], [], [], []
        step = start_step
        while step <= max_steps and state >= 0:
            lon, lat = _jittered_position(g, state, rng)
            times.append(step * dt)
            lons.append(lon)
            lats.append(lat)
            states.append(state)
            if step == max_steps:
                break
            cum, targets = step_tables[step]
            state = int(targets[state, cum[state].searchsorted(rng.random(), side="right")])
            step += 1
        if state < 0 and step <= max_steps:
            times.append(step * dt)
            lons.append(out_lon)
            lats.append(out_lat)
            states.append(-1)
        tracks.append(SimulatedTrack(
            drifter_id=did,
            times=np.asarray(times),
            lons=np.asarray(lons),
            lats=np.asarray(lats),
            states=np.asarray(states, dtype=np.int64),
        ))
    return tracks


def _jittered_position(g: GridCovering, state: int, rng) -> tuple[float, float]:
    lon, lat = g.box_center(state)
    half = 0.45 * g.cell_size
    return (
        lon + half * (2.0 * rng.random() - 1.0),
        lat + half * (2.0 * rng.random() - 1.0),
    )


def write_tracks_csv(tracks: list[SimulatedTrack], path: str | Path) -> None:
    """Emit the ingest-format trajectory CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,time_days,lon,lat\n")
        for tr in tracks:
            for t, lon, lat in zip(tr.times, tr.lons, tr.lats):
                fh.write(f"{tr.drifter_id},{t:.17g},{lon:.17g},{lat:.17g}\n")


def sample_observations(
    schedule: ChainSchedule,
    source: int,
    count: int,
    seed: int = 0,
    max_steps: int = 200,
) -> list[tuple[int, int]]:
    """Simulate debris discoveries: (target label, absorption step) pairs.

    Walks the augmented chain from the source until a target absorbs the
    walker; cemetery deaths and walks exceeding ``max_steps`` are
    discarded and retried.  Raises after too many consecutive failures
    (the source may not reach any target).
    """
    rng = np.random.default_rng(seed)
    n = schedule.n_grid_states
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside the grid state range")
    out: list[tuple[int, int]] = []
    failures = 0
    while len(out) < count:
        hit = _one_absorption(schedule, source, rng, max_steps)
        if hit is None:
            failures += 1
            if failures >= 1000:
                raise ConfigError(
                    f"source {source}: no beaching in 1000 consecutive walks"
                )
            continue
        failures = 0
        out.append(hit)
    return out


def _one_absorption(schedule, source: int, rng, max_steps: int):
    state = source
    cemetery = schedule.cemetery
    for k in range(1, max_steps + 1):
        m = schedule.matrix_for_step(k - 1)
        lo, hi = m.indptr[state], m.indptr[state + 1]
        nbrs = m.indices[lo:hi]
        probs = m.data[lo:hi]
        # Rows of an augmented chain sum to 1, so this draw is total.
        state = int(rng.choice(nbrs, p=probs / probs.sum()))
        if state == cemetery:
            return None
        if state > cemetery:
            return state - cemetery, k
    return None


def write_observations_csv(
    rows: list[tuple[int, int]] | list[dict],
    transition_time: float,
    path: str | Path,
) -> None:
    """Write `target_label,days_since_crash,name` from (label, step) pairs
    or explicit observation dicts."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("target_label,days_since_crash,name\n")
        for i, row in enumerate(rows, start=1):
            if isinstance(row, dict):
                label = int(row["target_label"])
                days = float(row["days_since_crash"])
                name = str(row.get("name", f"obs{i}"))
            else:
                label, k = row
                days = k * transition_time
                name = f"obs{i}"
            fh.write(f"{label},{days:.17g},{name}\n")


def write_roles_csv(spec: SyntheticSpec, g: GridCovering, path: str | Path) -> None:
    """Emit the role file for the spec's state-indexed role sets."""
    def box(i: int) -> str:
        ix, iy = g.box_of_state(i)
        return f"{ix},{iy}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in spec.leaky:
            fh.write(f"leaky: {box(i)}\n")
        for i, ell in sorted(spec.sticky.items()):
            fh.write(f"sticky: {box(i)},{ell:.17g}\n")
        for m, i in enumerate(spec.debris, start=1):
            fh.write(f"debris: {box(i)},{m}\n")
        for i in spec.candidate_sources:
            fh.write(f"source: {box(i)}\n")


def write_grid_config(spec: SyntheticSpec, path: str | Path) -> None:
    lon_min, lon_max, lat_min, lat_max = spec.bounds
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"lon_min = {lon_min:.17g}\n")
        fh.write(f"lon_max = {lon_max:.17g}\n")
        fh.write(f"lat_min = {lat_min:.17g}\n")
        fh.write(f"lat_max = {lat_max:.17g}\n")
        fh.write(f"cell_size = {spec.cell_size:.17g}\n")


def write_truth_sidecar(spec: SyntheticSpec, path: str | Path,
                        sampled_obs: list[tuple[int, int]] | None = None) -> None:
    """Ground-truth JSON sidecar for oracle comparison."""
    # json's indent encoder is pure Python and the kernels are nearly all of
    # the payload, so they go in as placeholders and are encoded apart.
    tokens = {s: f"\0kernel {s}" for s in Season}
    payload = {
        "seed": spec.seed,
        "source_state": spec.source_state,
        "n_drifters": spec.n_drifters,
        "duration_days": spec.duration_days,
        "sample_interval_days": spec.sample_interval_days,
        "start_date": spec.start_date.isoformat(),
        "bounds": list(spec.bounds),
        "cell_size": spec.cell_size,
        "kernels": {str(s): tokens[s] for s in Season},
        "leaky": list(spec.leaky),
        "sticky": {str(i): l for i, l in sorted(spec.sticky.items())},
        "debris": list(spec.debris),
        "candidate_sources": list(spec.candidate_sources),
        "sampled_observations": sampled_obs,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    for s, token in tokens.items():
        text = text.replace(json.dumps(token), _json_matrix(spec.kernels[s].tolist(), level=2))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _json_matrix(rows: list[list[float]], level: int) -> str:
    """``json.dumps(rows, indent=2)`` of a list of lists of finite floats
    (or ints), opened ``level`` indents deep, without json's pure-Python
    indent encoder."""
    if not rows:
        return "[]"
    outer = "\n" + "  " * (level + 1)
    inner = ",\n" + "  " * (level + 2)
    items = [
        "[" + inner[1:] + inner.join(map(repr, row)) + outer + "]" if row else "[]"
        for row in rows
    ]
    return "[" + outer + ("," + outer).join(items) + "\n" + "  " * level + "]"


def two_gyre_kernel(n_per_gyre: int, leak: float = 0.3,
                    coupling: float = 0.05, retention: float = 0.9) -> np.ndarray:
    """Two cyclic gyres, the first leak-shielded, weakly coupled.

    States 0..n-1 form the attracting gyre (no leaks); states n..2n-1
    leak mass out at ``leak`` per step.  ``coupling`` carries mass from
    the leaky gyre into the attracting one, so the dominant right
    eigenvector separates the basins.
    """
    n = n_per_gyre
    if n < 2:
        raise ValueError("each gyre needs at least 2 states")
    if not 0 < retention - coupling - leak:
        raise ValueError("retention must exceed coupling + leak")
    k = np.zeros((2 * n, 2 * n))
    for i in range(n):
        k[i, i] = 1.0 - retention
        k[i, (i + 1) % n] = retention
    for i in range(n):
        s = n + i
        k[s, n + (i + 1) % n] = retention - coupling - leak
        k[s, (i + 1) % n] = coupling
        k[s, s] = 1.0 - retention
    return k
