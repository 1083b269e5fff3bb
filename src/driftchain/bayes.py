"""Bayesian source inversion from absorption observations.

Debris found at target b after t^b days pins the chain's absorption time
into that target at k^b = round(t^b / T) steps.  For every candidate
source box c the chain gives the probability of first absorption into b
exactly at step k^b; treating the M discoveries as independent yields a
joint likelihood over candidates and, with a prior, a posterior over the
candidate set.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, ZeroEvidenceError
from .grid import GridCovering
from .schedule import SeasonalSchedule
from .textio import is_blank, read_text
from .ulam import propagate

log = logging.getLogger(__name__)

_PMF_TOL = 1e-12


@dataclass(frozen=True)
class Observation:
    """One debris discovery: target label, elapsed days, display name."""

    target_label: int
    days_since_crash: float
    name: str = ""

    def __post_init__(self):
        if self.target_label < 1:
            raise ConfigError(f"target label must be >= 1, got {self.target_label}")
        if not (math.isfinite(self.days_since_crash) and self.days_since_crash > 0):
            raise ConfigError(
                f"days_since_crash must be positive and finite, got {self.days_since_crash}"
            )

    def steps(self, transition_time: float) -> int:
        """Observation time in whole steps: round(days / T), half away from zero."""
        if transition_time <= 0:
            raise ValueError("transition time must be positive")
        k = int(math.floor(self.days_since_crash / transition_time + 0.5))
        if k < 1:
            raise ConfigError(
                f"observation {self.name!r} at {self.days_since_crash} d is below "
                f"one transition time ({transition_time} d)"
            )
        return k


def load_observations(path: str | Path) -> list[Observation]:
    """Read a `target_label,days_since_crash,name` CSV; a bad row's error names `path:line`.

    A row is skipped only when it is one field that :func:`textio.is_blank`.
    """
    out = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty observations file") from None
    if [h.strip() for h in header[:2]] != ["target_label", "days_since_crash"]:
        raise ConfigError(f"{path}: expected header target_label,days_since_crash,name")
    next_line = reader.line_num + 1
    for row in reader:
        # A quoted field may span lines: a row is numbered by its first one.
        lineno, next_line = next_line, reader.line_num + 1
        if not row or (len(row) == 1 and is_blank(row[0])):
            continue
        if len(row) < 2:
            raise ConfigError(f"{path}:{lineno}: expected at least 2 fields")
        try:
            label = int(row[0])
            days = float(row[1])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed observation row") from None
        name = row[2].strip() if len(row) > 2 else ""
        try:
            out.append(Observation(target_label=label, days_since_crash=days, name=name))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise ConfigError(f"{path}: no observations")
    return out


def observation_steps(schedule: SeasonalSchedule, observations: list[Observation]) -> list[int]:
    """Each observation's elapsed steps on the schedule, after checking
    that every target label is one of the chains' targets."""
    for o in observations:
        if o.target_label > schedule.n_targets:
            raise ConfigError(
                f"observation {o.name!r} targets label {o.target_label}, but the "
                f"chain has {schedule.n_targets} targets"
            )
    return [o.steps(schedule.transition_time) for o in observations]


def absorption_cdf_all(schedule: SeasonalSchedule, candidates, n_steps: int) -> np.ndarray:
    """Cumulative absorption into every target, per step and candidate.

    Entry ``[k, m-1, i]`` is the mass on target label m after k scheduled
    steps from box ``candidates[i]``; it is nondecreasing in k.  One sweep
    carries a column per candidate: the iterate takes (n+1+M)·C·8 bytes,
    96 KB for 40 candidates at 256 states and 32 MB at 10^5 states.
    """
    n = schedule.n_grid_states
    cand = np.asarray(candidates, dtype=np.int64)
    if ((cand < 0) | (cand >= n)).any():
        raise ValueError(f"candidates {cand.tolist()} leave the grid state range 0..{n - 1}")
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    f = np.zeros((schedule.n_states, cand.size))
    f[cand, np.arange(cand.size)] = 1.0
    out = np.empty((n_steps + 1, schedule.n_targets, cand.size))
    matrices = (schedule.matrix_for_step(k) for k in range(n_steps))
    for k, fk in enumerate(propagate(f, matrices)):
        out[k] = fk[n + 1:]
    return out


def first_absorption_pmf(cdf: np.ndarray) -> np.ndarray:
    """Difference a cumulative absorption curve into per-step increments.

    Accepts a (K+1,) vector or a (K+1, M) stack of curves; entry 0 of the
    input must be 0 and the curve nondecreasing.
    """
    arr = np.asarray(cdf, dtype=float)
    if arr.shape[0] < 1:
        raise ValueError("cdf must include the k = 0 entry")
    if np.max(np.abs(arr[0]), initial=0.0) > _PMF_TOL:
        raise NumericalError("cdf(0) must be 0: nothing is absorbed before step 1")
    inc = np.diff(arr, axis=0)
    if inc.size and inc.min() < -_PMF_TOL:
        raise NumericalError(f"cdf decreases by {-inc.min():.3e}; invariant breach")
    out = np.zeros_like(arr)
    out[1:] = np.clip(inc, 0.0, None)
    return out


@dataclass(frozen=True)
class PosteriorResult:
    """Posterior over candidate source boxes.

    ``single_posteriors`` holds one column per observation: the posterior
    that observation alone gives.  ``interval`` holds the central-interval
    latitude endpoints at ``level`` when candidate latitudes are known,
    else None.
    """

    candidates: np.ndarray
    log_likelihood: np.ndarray
    posterior: np.ndarray
    single_posteriors: np.ndarray
    c_max: int
    c_max_index: int
    level: float
    interval: tuple[float, float] | None = None
    latitudes: np.ndarray | None = None
    longitudes: np.ndarray | None = None


def posterior(
    obs_log: np.ndarray,
    candidates: np.ndarray,
    prior: np.ndarray | None = None,
    level: float = 0.95,
    *,
    latitudes: np.ndarray | None = None,
    longitudes: np.ndarray | None = None,
) -> PosteriorResult:
    """Normalize likelihood x prior into the posterior over candidates.

    ``obs_log[i, j]`` is the log of observation j's factor for
    ``candidates[i]``; the joint log-likelihood is its row sum.  The
    normalization shifts by the largest finite log-likelihood before
    exponentiating, so only likelihood ratios matter.  Raises
    ZeroEvidenceError when every candidate has zero posterior mass.
    """
    cand = np.asarray(candidates)
    obs_log = np.asarray(obs_log, dtype=float)
    n = len(cand)
    if n == 0:
        raise ValueError("no candidates")
    if obs_log.ndim != 2 or obs_log.shape[0] != n:
        raise ValueError("obs_log must hold one row of per-observation logs per candidate")
    if not 0 < level < 1:
        raise ValueError(f"interval level must be in (0, 1), got {level}")
    if prior is None:
        pri = np.full(n, 1.0 / n)
    else:
        pri = np.asarray(prior, dtype=float)
        if pri.shape != (n,):
            raise ValueError("prior length must match the candidate count")
        if pri.min() < 0:
            raise ValueError("prior entries must be nonnegative")
        total = pri.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"prior must sum to 1, got {total}")
        pri = pri / total

    logl = obs_log.sum(axis=1)
    post = _normalize(logl, pri)
    idx = int(np.argmax(post))

    interval = None
    if latitudes is not None:
        latitudes = np.asarray(latitudes, dtype=float)
        interval = central_interval(post, latitudes, level)

    singles = np.empty_like(obs_log)
    for j in range(obs_log.shape[1]):
        try:
            singles[:, j] = _normalize(obs_log[:, j], pri)
        except ZeroEvidenceError:
            log.warning("observation %d has zero evidence on all candidates", j + 1)
            singles[:, j] = np.nan

    return PosteriorResult(
        candidates=cand,
        log_likelihood=logl,
        posterior=post,
        single_posteriors=singles,
        c_max=int(cand[idx]),
        c_max_index=idx,
        level=level,
        interval=interval,
        latitudes=latitudes,
        longitudes=None if longitudes is None else np.asarray(longitudes, dtype=float),
    )


def _normalize(logl: np.ndarray, prior: np.ndarray) -> np.ndarray:
    live = prior > 0
    m = np.max(logl[live], initial=-np.inf)
    if not np.isfinite(m):
        raise ZeroEvidenceError(
            "all candidates have zero evidence; the posterior is undefined"
        )
    w = np.zeros_like(prior)
    w[live] = np.exp(logl[live] - m) * prior[live]
    z = w.sum()
    if z <= 0:
        raise ZeroEvidenceError(
            "all candidates have zero evidence; the posterior is undefined"
        )
    return w / z


def central_interval(
    posterior_mass: np.ndarray, latitudes: np.ndarray, level: float = 0.95
) -> tuple[float, float]:
    """Central posterior interval endpoints along the latitude axis.

    Candidates are ordered by latitude (ties by input order), posterior
    mass is accumulated, and the latitudes where the running total first
    reaches (1-level)/2 and 1-(1-level)/2 are reported.
    """
    alpha = (1.0 - level) / 2.0
    order = np.argsort(latitudes, kind="stable")
    cum = np.cumsum(posterior_mass[order])
    lats = latitudes[order]
    lo = lats[min(np.searchsorted(cum, alpha, side="left"), len(lats) - 1)]
    hi = lats[min(np.searchsorted(cum, 1.0 - alpha, side="left"), len(lats) - 1)]
    return float(lo), float(hi)


def estimate_source(
    schedule: SeasonalSchedule,
    observations: list[Observation],
    *,
    candidates: np.ndarray | None = None,
    grid: GridCovering | None = None,
    prior: np.ndarray | None = None,
    level: float = 0.95,
    window_steps: int = 0,
) -> PosteriorResult:
    """Full inversion: one absorption sweep over all candidates -> posterior.

    Candidates default to the roles' declared source set.  With ``grid``
    the result carries candidate coordinates and the latitude interval.
    """
    if not observations:
        raise ConfigError("no observations supplied")
    roles = schedule.roles
    if candidates is None:
        if not roles.candidate_sources:
            raise ConfigError("no candidate sources declared in the roles")
        cand = np.asarray(roles.candidate_sources, dtype=np.int64)
    else:
        cand = np.asarray(candidates, dtype=np.int64)

    if window_steps < 0:
        raise ValueError("window half-width must be nonnegative")
    steps = observation_steps(schedule, observations)
    horizon = max(steps) + window_steps

    # Steps contiguous per (target, candidate): each factor column is one
    # row sum, added pairwise like a sum over that candidate's own curve.
    pmf = first_absorption_pmf(absorption_cdf_all(schedule, cand, horizon))
    pmf = np.ascontiguousarray(pmf.transpose(1, 2, 0))
    factors = np.empty((len(cand), len(observations)))
    for oi, (o, k) in enumerate(zip(observations, steps)):
        window = pmf[o.target_label - 1, :, max(1, k - window_steps):k + window_steps + 1]
        factors[:, oi] = window.sum(axis=1)

    with np.errstate(divide="ignore"):
        obs_log = np.log(factors)

    lons, lats = (None, None) if grid is None else grid.box_centers(cand).T
    return posterior(obs_log, cand, prior, level, latitudes=lats, longitudes=lons)


@dataclass(frozen=True)
class StickyFitSurface:
    """First-beaching probability over (sticky state, step) pairs.

    ``mass[k, i]`` is the probability that a walker started at the
    candidate beaches at ``states[i]`` exactly on step k.
    """

    states: np.ndarray
    mass: np.ndarray

    def total(self) -> float:
        return float(self.mass.sum())


def sticky_fit_map(schedule: SeasonalSchedule, c: int, n_steps: int) -> StickyFitSurface:
    """Joint (site, time) surface of first beaching for one candidate.

    The mass landing at sticky state s on step k is the occupancy of s
    after k-1 steps times the per-step landing probability ell(s); debris
    and non-debris sticky states are both included.
    """
    roles = schedule.roles
    states = np.array(sorted(roles.sticky), dtype=np.int64)
    ells = np.array([roles.sticky[int(s)] for s in states])
    mass = np.zeros((n_steps + 1, len(states)))
    if len(states) == 0:
        return StickyFitSurface(states=states, mass=mass)
    n = schedule.n_grid_states
    if not 0 <= c < n:
        raise ValueError(f"candidate {c} outside the grid state range 0..{n - 1}")
    f = np.zeros(schedule.n_states)
    f[c] = 1.0
    matrices = (schedule.matrix_for_step(k) for k in range(n_steps - 1))
    for k, fk in zip(range(1, n_steps + 1), propagate(f, matrices)):
        mass[k] = fk[states] * ells
    return StickyFitSurface(states=states, mass=mass)
