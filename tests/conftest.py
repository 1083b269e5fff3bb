"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from driftchain.absorb import augment
from driftchain.grid import StateRoles, build_grid
from driftchain.ingest import Season
from driftchain.schedule import SeasonalSchedule
from driftchain.ulam import TransitionMatrix

from oracles import random_substochastic


def dense_tm(a, transition_time=5.0, label="pooled", row_counts=None) -> TransitionMatrix:
    """Wrap a dense array as a TransitionMatrix."""
    a = np.asarray(a, dtype=float)
    return TransitionMatrix(
        matrix=sparse.csr_matrix(a),
        transition_time=float(transition_time),
        label=label,
        row_counts=row_counts,
    )


def seasonal_tms(rng, n, min_row=0.97, density=0.3) -> dict[str, TransitionMatrix]:
    """Random sparse W, S and SF matrices; rows near 1 keep 72-factor products O(1)."""
    return {lbl: dense_tm(random_substochastic(rng, n, min_row=min_row, density=density),
                          label=lbl)
            for lbl in ("W", "S", "SF")}


def write_mask(path, mask: dict):
    """Write a ``{(ix, iy): wet}`` dict as a wet mask file, one `ix,iy,wet` line
    per box in dict order, and return ``path``."""
    path.write_text("".join(f"{ix},{iy},{int(wet)}\n" for (ix, iy), wet in mask.items()),
                    encoding="utf-8")
    return path


def make_roles(n, leaky=(), sticky=None, debris=(), candidates=None) -> StateRoles:
    """StateRoles with sensible defaults for toy chains."""
    if candidates is None:
        candidates = tuple(range(n))
    return StateRoles(
        leaky=frozenset(leaky),
        sticky=dict(sticky or {}),
        debris=tuple(debris),
        candidate_sources=tuple(candidates),
    )


def make_chain(a, roles, transition_time=5.0, label="W"):
    """Fully augmented chain from a dense substochastic array."""
    return augment(dense_tm(a, transition_time, label), roles)


def chain_dense(chain) -> np.ndarray:
    return chain.matrix.toarray()


def autonomous(a, roles, transition_time=5.0):
    """Time-homogeneous schedule: the same chain in every season."""
    return SeasonalSchedule(chains=dict.fromkeys(Season, make_chain(a, roles, transition_time)))


def seasonal(mats, roles, transition_time=5.0, start_date=None):
    """SeasonalSchedule from dense per-season arrays {"W": ..., "S": ..., "SF": ...}."""
    chains = {
        Season[k]: make_chain(v, roles, transition_time, label=k) for k, v in mats.items()
    }
    kwargs = {} if start_date is None else {"start_date": start_date}
    return SeasonalSchedule(chains=chains, **kwargs)


def schedule_step_mats(schedule, n_steps) -> list[np.ndarray]:
    """Dense per-step matrices, as the enumeration oracles expect."""
    return [schedule.matrix_for_step(k).toarray() for k in range(n_steps)]


def random_roles(rng, n, max_targets=2):
    """Random roles over an n-state chain: some sticky boxes, >=1 debris."""
    n_sticky = int(rng.integers(1, max(2, n // 2) + 1))
    sticky_states = rng.choice(n, size=n_sticky, replace=False)
    sticky = {int(s): float(rng.uniform(0.05, 0.95)) for s in sticky_states}
    n_targets = int(rng.integers(1, max_targets + 1))
    debris = tuple(int(rng.choice(list(sticky))) for _ in range(n_targets))
    n_leaky = int(rng.integers(0, n + 1))
    leaky = frozenset(int(s) for s in rng.choice(n, size=n_leaky, replace=False))
    return make_roles(n, leaky=leaky, sticky=sticky, debris=debris)


@pytest.fixture
def line_grid():
    """1-degree boxes along a single latitude row: states 0..5 west->east."""
    return build_grid((40.0, 46.0, -30.0, -29.0), cell_size=1.0)


@pytest.fixture
def square_grid():
    """4x4 grid of 1-degree boxes, states in south-to-north raster order."""
    return build_grid((40.0, 44.0, -32.0, -28.0), cell_size=1.0)
