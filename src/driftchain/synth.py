"""Synthetic ground-truth generator.

Produces everything the pipeline consumes — trajectory CSVs, role files,
grid configs, observation files — from explicit small seasonal kernels,
so each estimation stage can be checked against the truth that generated
its input.  All randomness flows from one seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .bayes import Observation
from .csr import Csr
from .errors import ConfigError
from .grid import GridCovering, StateRoles, build_grid
from .ingest import DEFAULT_EPOCH, SEASONS, Season, TransitionPairs, season_of_day
from .schedule import SeasonalSchedule
from .textio import write_rows
from .ulam import TransitionMatrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground truth for a synthetic run.

    ``kernels`` maps each season to an (n, n) row-substochastic array
    over the grid's states; row deficits are exit probabilities.  Role
    and observation entries use state indices; ``sample_observations``
    requests that many simulated debris discoveries from the true source
    instead of explicit ones.  Each field is checked by the rule a later
    command reads it by (``matrices`` holds each kernel as `build`'s matrix),
    so `synth` rejects a spec a later command would reject before any write.
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
    matrices: dict[Season, TransitionMatrix] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for season in Season:
            if season not in self.kernels:
                raise ConfigError(f"synthetic spec lacks a kernel for season {season}")
        shapes = {k.shape for k in self.kernels.values()}
        if len(shapes) != 1:
            raise ConfigError("seasonal kernels must share one shape")
        object.__setattr__(self, "matrices",
                           _transition_matrices(self.kernels, self.sample_interval_days))
        if self.n_drifters < 0:
            raise ConfigError("n_drifters must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.sample_interval_days) and self.sample_interval_days > 0):
            raise ConfigError("sample interval must be positive and finite")
        if not math.isfinite(self.duration_days):
            raise ConfigError(f"duration_days must be finite, got {self.duration_days}")
        if self.sample_observations > 0:
            if self.source_state is None:
                raise ConfigError("sample_observations requires source_state")
            if self.max_observation_steps < 1:
                raise ConfigError("max_observation_steps must be at least 1 to sample observations")
            if not self.debris:
                raise ConfigError("sample_observations requires at least one debris state")
        for name in ("leaky", "candidate_sources"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ConfigError(f"{name} repeats a state")
        self.roles().check_states(self.n_states)
        if self.source_state is not None and not 0 <= self.source_state < self.n_states:
            raise ConfigError(
                f"source_state {self.source_state} outside 0..{self.n_states - 1}"
            )
        for i, row in enumerate(self.observations, start=1):
            try:
                obs = Observation(int(row["target_label"]), float(row["days_since_crash"]),
                                  str(row.get("name", f"obs{i}")))
                obs.steps(self.sample_interval_days)
            except KeyError as exc:
                raise ConfigError(f"explicit observation {i} lacks {exc}") from None
            except (ConfigError, TypeError, ValueError) as exc:
                raise ConfigError(f"explicit observation {i}: {exc}") from None
            if obs.name != obs.name.strip():
                raise ConfigError(f"explicit observation {i}: name {obs.name!r} has leading "
                                  f"or trailing blanks, which `bayes` strips on reading")
            if obs.target_label > len(self.debris):
                raise ConfigError(
                    f"explicit observation {i} targets label {obs.target_label}, "
                    f"but the spec has {len(self.debris)} debris states"
                )

    @property
    def n_states(self) -> int:
        return next(iter(self.kernels.values())).shape[0]

    def roles(self) -> StateRoles:
        return StateRoles(
            leaky=frozenset(self.leaky),
            sticky=dict(self.sticky),
            debris=tuple(self.debris),
            candidate_sources=tuple(self.candidate_sources),
        )

    def grid(self) -> GridCovering:
        g = build_grid(self.bounds, self.cell_size)
        if g.n_states != self.n_states:
            raise ConfigError(
                f"kernels are {self.n_states}-state but the grid has {g.n_states} boxes"
            )
        return g


def _transition_matrices(kernels: dict[Season, np.ndarray],
                         transition_time: float) -> dict[Season, TransitionMatrix]:
    """Each kernel as a TransitionMatrix; one it rejects raises ConfigError naming its season."""
    out = {}
    for season, k in kernels.items():
        try:
            out[season] = TransitionMatrix(k, transition_time, season.value)
        except ValueError as exc:
            raise ConfigError(f"kernel {season}: {exc}") from None
    return out


#: Each spec key's parser.  A key the spec leaves out takes SyntheticSpec's
#: default; a key not named here is rejected.
_SPEC_KEYS = {
    "bounds": lambda v: tuple(float(v[i]) for i in range(4)),
    "cell_size": float,
    "kernels": lambda v: {Season(name): np.asarray(mat, dtype=float) for name, mat in v.items()},
    "n_drifters": int,
    "duration_days": float,
    "sample_interval_days": float,
    "seed": int,
    "start_date": date.fromisoformat,
    "source_state": lambda v: None if v is None else int(v),
    "leaky": lambda v: tuple(map(int, v)),
    "sticky": lambda v: {int(i): float(ell) for i, ell in v.items()},
    "debris": lambda v: tuple(map(int, v)),
    "candidate_sources": lambda v: tuple(map(int, v)),
    "observations": tuple,
    "sample_observations": int,
    "max_observation_steps": int,
}


def load_spec(path: str | Path) -> SyntheticSpec:
    """Read a SyntheticSpec from its JSON description."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a synthetic spec is a JSON object")
    for key in raw:
        if key not in _SPEC_KEYS:
            raise ConfigError(f"{path}: unknown synthetic spec key {key!r}")
    try:
        return SyntheticSpec(**{key: _SPEC_KEYS[key](value) for key, value in raw.items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid synthetic spec ({exc})") from None


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
    matrices = _transition_matrices(kernels, 1.0)  # the lag does not enter a draw
    seasons = sorted(kernels, key=lambda s: s.value)
    n = matrices[seasons[0]].n_states
    rng = np.random.default_rng(seed)

    starts = rng.choice(n, size=n_pairs)
    season_idx = rng.integers(len(seasons), size=n_pairs)
    u = rng.random(n_pairs)

    ends = np.empty(n_pairs, dtype=np.int64)
    for si, s in enumerate(seasons):
        sel = season_idx == si
        if not sel.any():
            continue
        cum, targets = _draw_table(matrices[s].matrix)
        rows = starts[sel]
        ends[sel] = targets[rows, np.sum(u[sel, None] >= cum[rows], axis=1)]
    season_code = np.array([SEASONS.index(s) for s in seasons], dtype=np.int8)
    return TransitionPairs(
        from_state=starts,
        to_state=ends,
        start_date=np.zeros(n_pairs),
        season=season_code[season_idx],
    )


def _draw_table(kernel: Csr) -> tuple[np.ndarray, np.ndarray]:
    """Per-row running sums over the stored entries, and their columns.

    ``cum[i]`` holds row i's running sums in column order, padded to the
    longest row's entry count r with the row total; ``targets[i]``
    holds the matching columns, padded with -1 to width r + 1.  A draw u
    moves state i to ``targets[i, count of cum[i] <= u]``: the first
    column whose running sum exceeds u, or -1 (an exit) when u reaches
    the row total.  Entries are nonnegative, so skipping the zeros never
    changes a running sum (nor is a stored zero ever drawn), and the move
    equals the dense-row rule.
    """
    rows, cols, data = kernel.triplets()
    counts = np.diff(kernel.indptr)
    width = int(counts.max(initial=0))
    slot = np.arange(len(rows)) - np.repeat(kernel.indptr[:-1], counts)
    vals = np.zeros((kernel.shape[0], width))
    vals[rows, slot] = data
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

    The seeded stream is consumed as one scalar draw per use would: per
    drifter, two ``integers`` (start step, start box), then per sample a
    lon jitter, a lat jitter and, unless the last step is reached, a move.
    A drifter draws those uniforms as one block, sized for a walk that
    never exits; an exit rewinds the generator and redraws only the
    count used.  The draw tables are held as Python lists (n·r floats per
    season), where ``bisect_right`` is about four times cheaper per step
    than ``searchsorted`` on an array row.
    """
    g = spec.grid()
    rng = np.random.default_rng(spec.seed)
    dt = spec.sample_interval_days
    n = g.n_states
    max_steps = max(int(math.floor(spec.duration_days / dt)), 1)
    tables = {s: tuple(a.tolist() for a in _draw_table(spec.matrices[s].matrix))
              for s in Season}
    step_tables = [tables[season_of_day(step * dt, spec.start_date)]
                   for step in range(max_steps)]
    first_steps, walks, lon_draws, lat_draws = [], [], [], []
    for _ in range(spec.n_drifters):
        start_step = int(rng.integers(max_steps))
        state = int(rng.integers(n))
        before = rng.bit_generator.state
        u = rng.random(3 * (max_steps - start_step) + 2)
        walk = [state]
        for (cum, targets), x in zip(step_tables[start_step:], u[2::3].tolist()):
            state = targets[state][bisect_right(cum[state], x)]
            if state < 0:
                break
            walk.append(state)
        m = len(walk)
        if state < 0:
            rng.bit_generator.state = before
            rng.random(3 * m)
            walk.append(-1)
        lon_draws.append(u[0:3 * m:3])
        lat_draws.append(u[1:3 * m:3])
        first_steps.append(start_step)
        walks.append(walk)
    if not walks:
        return []

    counts = np.array([len(w) for w in walks])
    states = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64,
                         count=int(counts.sum()))
    inside = states >= 0
    half = 0.45 * g.cell_size
    centers = g.box_centers(states[inside])
    lons = np.full(len(states), g.lon_max + spec.cell_size)
    lats = np.full(len(states), (g.lat_min + g.lat_max) / 2.0)
    lons[inside] = centers[:, 0] + half * (2.0 * np.concatenate(lon_draws) - 1.0)
    lats[inside] = centers[:, 1] + half * (2.0 * np.concatenate(lat_draws) - 1.0)
    offsets = np.cumsum(counts) - counts
    # a drifter's k-th sample is taken at its start step + k
    times = (np.repeat(np.array(first_steps) - offsets, counts) + np.arange(len(states))) * dt
    splits = offsets[1:]
    return [
        SimulatedTrack(drifter_id=did, times=t, lons=lo, lats=la, states=st)
        for did, (t, lo, la, st) in enumerate(zip(
            np.split(times, splits), np.split(lons, splits),
            np.split(lats, splits), np.split(states, splits)))
    ]


def write_tracks_csv(tracks: list[SimulatedTrack], path: str | Path) -> None:
    """Emit the ingest-format trajectory CSV, every value at 17 significant digits."""
    columns = [np.repeat([tr.drifter_id for tr in tracks], [len(tr.times) for tr in tracks])]
    columns += [np.concatenate([getattr(tr, name) for tr in tracks] or [np.empty(0)])
                for name in ("times", "lons", "lats")]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,time_days,lon,lat\n")
        write_rows(fh, "%d,%.17g,%.17g,%.17g\n", columns)


def sample_observations(
    schedule: SeasonalSchedule,
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
    or explicit observation dicts; a name is CSV-quoted where `csv.reader`
    needs it to read the name back whole."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["target_label", "days_since_crash", "name"])
        for i, row in enumerate(rows, start=1):
            if isinstance(row, dict):
                label = int(row["target_label"])
                days = float(row["days_since_crash"])
                name = str(row.get("name", f"obs{i}"))
            else:
                label, k = row
                days = k * transition_time
                name = f"obs{i}"
            writer.writerow([label, f"{days:.17g}", name])


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
        text = text.replace(json.dumps(token), _json_matrix(spec.kernels[s], level=2))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _json_matrix(rows, level: int) -> str:
    """``json.dumps(rows, indent=2)`` of rows of finite numbers (a 2-D array
    or lists), opened ``level`` indents deep, without json's pure-Python
    indent encoder."""
    if not len(rows):
        return "[]"
    outer = "\n" + "  " * (level + 1)
    inner = ",\n" + "  " * (level + 2)
    items = [
        "[" + inner[1:] + inner.join(_entry_texts(row)) + outer + "]" if len(row) else "[]"
        for row in rows
    ]
    return "[" + outer + ("," + outer).join(items) + "\n" + "  " * level + "]"


def _entry_texts(row) -> list[str]:
    """``repr`` of each entry of a row.  Kernel rows are mostly zero, so only
    entries that are nonzero or carry the sign bit (-0.0) are formatted."""
    row = np.asarray(row)
    texts = [repr(row.dtype.type().item())] * len(row)
    hot = np.flatnonzero(np.signbit(row) | (row != 0))
    for i, v in zip(hot.tolist(), row[hot].tolist()):
        texts[i] = repr(v)
    return texts


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
