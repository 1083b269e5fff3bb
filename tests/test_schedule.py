from datetime import date

import numpy as np
import pytest

from conftest import autonomous, make_chain, make_roles, seasonal

from driftchain.ingest import Season
from driftchain.schedule import SeasonalSchedule


def three_season_mats(n=2):
    rng = np.random.default_rng(6)
    out = {}
    for name in ("W", "S", "SF"):
        a = rng.random((n, n))
        out[name] = 0.9 * a / a.sum(axis=1)[:, None]
    return out


class TestAutonomous:
    def test_same_matrix_every_step(self):
        roles = make_roles(2, leaky=(0, 1))
        sched = autonomous(np.array([[0.4, 0.4], [0.2, 0.2]]), roles)
        m0 = sched.matrix_for_step(0)
        assert sched.matrix_for_step(17) is m0
        assert sched.season_label(3) == sched.chain.label
        assert sched.n_grid_states == 2
        assert sched.cemetery == 2

    def test_pooled_chain_keeps_its_label_and_matrix(self):
        # One chain in every season: each step reports the chain's own
        # label, and the one matrix object (paths caches layouts by id).
        roles = make_roles(2, leaky=(0, 1))
        chain = make_chain(0.5 * np.eye(2), roles, label="pooled")
        sched = SeasonalSchedule(chains=dict.fromkeys(Season, chain), start_date=date(2014, 3, 8))
        assert sched.season_of_step(23) is Season.S
        assert sched.season_label(23) == "pooled"
        assert all(sched.matrix_for_step(k) is chain.matrix for k in range(72))

    def test_delegated_properties(self):
        roles = make_roles(3, sticky={1: 0.5}, debris=(1,))
        sched = autonomous(0.8 * np.eye(3), roles)
        assert sched.n_states == 5
        assert sched.n_targets == 1
        assert sched.target_state(1) == 4
        assert sched.roles is roles


class TestSeasonal:
    def test_requires_all_three_seasons(self):
        mats = three_season_mats()
        roles = make_roles(2, leaky=(0, 1))
        chains = {
            Season.W: make_chain(mats["W"], roles, label="W"),
            Season.S: make_chain(mats["S"], roles, label="S"),
        }
        with pytest.raises(ValueError):
            SeasonalSchedule(chains=chains)

    def test_mismatched_shapes_rejected(self):
        roles2 = make_roles(2, leaky=(0, 1))
        roles3 = make_roles(3, leaky=(0, 1, 2))
        chains = {
            Season.W: make_chain(0.5 * np.eye(2), roles2, label="W"),
            Season.S: make_chain(0.5 * np.eye(3), roles3, label="S"),
            Season.SF: make_chain(0.5 * np.eye(2), roles2, label="SF"),
        }
        with pytest.raises(ValueError):
            SeasonalSchedule(chains=chains)

    def test_mismatched_transition_time_rejected(self):
        roles = make_roles(2, leaky=(0, 1))
        chains = {
            Season.W: make_chain(0.5 * np.eye(2), roles, transition_time=5.0, label="W"),
            Season.S: make_chain(0.5 * np.eye(2), roles, transition_time=6.0, label="S"),
            Season.SF: make_chain(0.5 * np.eye(2), roles, transition_time=5.0, label="SF"),
        }
        with pytest.raises(ValueError):
            SeasonalSchedule(chains=chains)

    def test_step_seasons_follow_calendar(self):
        roles = make_roles(2, leaky=(0, 1))
        sched = seasonal(three_season_mats(), roles, start_date=date(2014, 3, 8))
        # 5-day steps from March 8: March is W, April-June SF, July S.
        assert sched.season_of_step(0) is Season.W          # Mar 8
        assert sched.season_of_step(4) is Season.W          # Mar 28
        assert sched.season_of_step(5) is Season.SF         # Apr 2
        assert sched.season_of_step(23) is Season.S         # Jul 1
        assert sched.season_label(23) == "S"
        # A full 360-day year later the cycle repeats.
        assert sched.season_of_step(72) is sched.season_of_step(0)

    def test_matrix_selection_matches_season(self):
        roles = make_roles(2, leaky=(0, 1))
        mats = three_season_mats()
        sched = seasonal(mats, roles)
        w = sched.matrix_for_step(0).toarray()
        sf = sched.matrix_for_step(5).toarray()
        assert np.allclose(w[:2, :2], (1 - 0) * mats["W"])
        assert np.allclose(sf[:2, :2], mats["SF"])
        assert not np.allclose(w, sf)

    def test_start_date_shifts_selection(self):
        roles = make_roles(2, leaky=(0, 1))
        sched_jul = seasonal(three_season_mats(), roles, start_date=date(2014, 7, 2))
        assert sched_jul.season_of_step(0) is Season.S

    def test_chain_property_returns_winter(self):
        roles = make_roles(2, leaky=(0, 1))
        sched = seasonal(three_season_mats(), roles)
        assert sched.chain.label == "W"
