import importlib.resources
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import (
    autonomous,
    make_roles,
    random_roles,
    schedule_step_mats,
    seasonal,
)
from oracles import (
    enumerate_first_absorption,
    enumerate_posterior,
    per_candidate_absorption_cdf,
    per_candidate_log_likelihood,
    per_step_sticky_mass,
    random_substochastic,
)

from driftchain.bayes import (
    Observation,
    absorption_cdf_all,
    central_interval,
    estimate_source,
    first_absorption_pmf,
    load_observations,
    posterior,
    sticky_fit_map,
)
from driftchain.errors import ConfigError, NumericalError, ZeroEvidenceError
from driftchain.grid import build_grid


def corridor_schedule():
    """Two boxes: 0 feeds 1, 1 self-loops and beaches with ell = 0.5.

    Analytic first-absorption pmf from box 0 is 0.5**(k-1) for k >= 2.
    """
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    roles = make_roles(2, leaky=(), sticky={1: 0.5}, debris=(1,), candidates=(0, 1))
    return autonomous(a, roles)


class TestSteps:
    def test_rounding_half_up(self):
        def steps(days):
            return Observation(target_label=1, days_since_crash=days).steps(5.0)
        assert steps(12.4) == 2
        assert steps(12.5) == 3
        assert steps(5.0) == 1
        assert steps(508.0) == 102

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            Observation(target_label=1, days_since_crash=0.0)
        with pytest.raises(ValueError):
            Observation(target_label=1, days_since_crash=5.0).steps(0.0)

    def test_observation_below_one_step_rejected(self):
        with pytest.raises(ConfigError):
            Observation(target_label=1, days_since_crash=2.0).steps(5.0)

    def test_observation_validation(self):
        with pytest.raises(ConfigError):
            Observation(target_label=0, days_since_crash=10.0)
        with pytest.raises(ConfigError):
            Observation(target_label=1, days_since_crash=-3.0)
        for days in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                Observation(target_label=1, days_since_crash=days)


def test_bundled_observation_table():
    path = importlib.resources.files("driftchain") / "data" / "observations_2015_2016.csv"
    obs = load_observations(str(path))
    assert len(obs) == 8
    assert [o.target_label for o in obs] == list(range(1, 9))
    days = [o.days_since_crash for o in obs]
    assert days == sorted(days)
    assert obs[0].days_since_crash == 508.0
    assert all(o.name for o in obs)


def test_load_observations_rejects_bad_files(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_observations(empty)
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("label,days\n1,5\n")
    with pytest.raises(ConfigError):
        load_observations(bad_header)
    # malformed rows, and rows that parse but are out of range, name their line;
    # a row is skipped only when it is one blank field (not \x1c or \x85)
    for row, message in [("one,5,x", "malformed observation row"),
                         ("\x1c", "expected at least 2 fields"),
                         ("\x85", "expected at least 2 fields"),
                         ("0,5,x", "target label must be >= 1, got 0"),
                         ("1,0,x", "days_since_crash must be positive and finite, got 0.0"),
                         ("1,-5,x", "days_since_crash must be positive and finite, got -5.0"),
                         ("1,nan,x", "days_since_crash must be positive and finite, got nan"),
                         ("1,inf,x", "days_since_crash must be positive and finite, got inf")]:
        bad_row = tmp_path / "r.csv"
        bad_row.write_text(f"target_label,days_since_crash,name\n1,5,ok\n\n{row}\n",
                           encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_observations(bad_row)
        assert str(err.value) == f"{bad_row}:4: {message}"


@pytest.mark.parametrize("rows, line", [
    ('1,5,"two\nlines"\n0,5,x\n', 4), ('0,5,"two\r\nlines"\n1,5,x\n', 2),
    ('1,5,"a\rb\rc"\r\r0,5,x\r', 6),
], ids=["after-quoted-break", "spans-lines", "cr-breaks"])
def test_observation_rows_are_numbered_by_their_first_line(tmp_path, rows, line):
    # A quoted name may hold line breaks: a row's number is the line it starts on.
    path = tmp_path / "obs.csv"
    path.write_bytes(("target_label,days_since_crash,name\n" + rows).encode())
    with pytest.raises(ConfigError) as err:
        load_observations(path)
    assert str(err.value) == f"{path}:{line}: target label must be >= 1, got 0"


class TestAbsorptionCurves:
    def test_corridor_closed_form(self):
        sched = corridor_schedule()
        cdf = absorption_cdf_all(sched, [0], 6)[:, 0, 0]
        want = np.array([0.0, 0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875])
        assert np.allclose(cdf, want, atol=1e-15)
        pmf = first_absorption_pmf(cdf)
        assert np.allclose(pmf[2:], 0.5 ** np.arange(1, 6), atol=1e-15)
        assert pmf[0] == pmf[1] == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(33)
        a = random_substochastic(rng, 4, min_row=0.4)
        roles = make_roles(4, leaky=range(4), sticky={2: 0.3, 3: 0.6}, debris=(2, 3))
        sched = autonomous(a, roles)
        mats = schedule_step_mats(sched, 5)
        for b in (1, 2):
            got = first_absorption_pmf(absorption_cdf_all(sched, [1], 5)[:, b - 1, 0])
            want = enumerate_first_absorption(
                mats, c=1, target_col=sched.target_state(b),
                transient=list(range(4)), n_steps=5,
            )
            assert np.abs(got - want).max() < 1e-13

    def test_cdf_monotone_for_random_chains(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            a = random_substochastic(rng, n, min_row=0.3)
            sticky = {int(s): float(rng.uniform(0.1, 0.9))
                      for s in rng.choice(n, size=2, replace=False)}
            roles = make_roles(n, leaky=range(n), sticky=sticky,
                               debris=(min(sticky),))
            sched = autonomous(a, roles)
            cdf = absorption_cdf_all(sched, [int(rng.integers(n))], 10)
            assert cdf[0].max() == 0.0
            assert (np.diff(cdf, axis=0) >= -1e-15).all()
            assert cdf.max() <= 1.0 + 1e-12

    def test_input_validation(self):
        sched = corridor_schedule()
        with pytest.raises(ValueError):
            absorption_cdf_all(sched, candidates=[2], n_steps=3)  # cemetery is not a start
        with pytest.raises(ValueError):
            absorption_cdf_all(sched, candidates=[0], n_steps=-1)


class TestPmf:
    def test_rejects_nonzero_start(self):
        with pytest.raises(NumericalError):
            first_absorption_pmf(np.array([0.1, 0.2]))

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(NumericalError):
            first_absorption_pmf(np.array([0.0, 0.5, 0.3]))

    def test_roundoff_dip_clipped(self):
        pmf = first_absorption_pmf(np.array([0.0, 0.5, 0.5 - 1e-15]))
        assert pmf[2] == 0.0


class TestPosterior:
    def test_flat_likelihood_returns_prior(self):
        prior = np.array([0.7, 0.2, 0.1])
        res = posterior(np.zeros((3, 1)), np.arange(3), prior)
        assert np.allclose(res.posterior, prior, atol=1e-15)

    def test_invariant_under_likelihood_scaling(self):
        logl = np.array([[-5.0], [-7.0], [-2.0]])
        a = posterior(logl, np.arange(3)).posterior
        b = posterior(logl + 123.0, np.arange(3)).posterior
        assert np.allclose(a, b, atol=1e-14)

    def test_zero_prior_candidate_excluded(self):
        logl = np.array([[100.0], [-1.0]])
        prior = np.array([0.0, 1.0])
        res = posterior(logl, np.arange(2), prior)
        assert res.posterior.tolist() == [0.0, 1.0]
        assert res.c_max == 1

    def test_all_zero_evidence_raises(self):
        with pytest.raises(ZeroEvidenceError):
            posterior(np.full((2, 1), -np.inf), np.arange(2))

    def test_c_max_is_argmax(self):
        res = posterior(np.array([[-2.0], [-1.0], [-3.0]]), np.array([7, 9, 11]))
        assert res.c_max == 9
        assert res.c_max_index == 1


class TestCentralInterval:
    def test_hand_case(self):
        lats = np.array([-35.0, -34.0, -33.0, -32.0])
        mass = np.array([0.1, 0.4, 0.4, 0.1])
        assert central_interval(mass, lats, level=0.5) == (-34.0, -33.0)

    def test_point_mass(self):
        lats = np.array([-35.0, -30.0, -25.0])
        mass = np.array([0.0, 1.0, 0.0])
        assert central_interval(mass, lats, level=0.95) == (-30.0, -30.0)

    def test_order_independence(self):
        lats = np.array([-32.0, -35.0, -33.0, -34.0])
        mass = np.array([0.1, 0.1, 0.4, 0.4])
        assert central_interval(mass, lats, level=0.5) == (-34.0, -33.0)


class TestEstimateSource:
    def test_corridor_analytic_posterior(self):
        sched = corridor_schedule()
        obs = [Observation(target_label=1, days_since_crash=10.0)]
        res = estimate_source(sched, obs)
        # L(0) = pmf0[2] = 0.5, L(1) = pmf1[2] = 0.25 -> posterior (2/3, 1/3).
        assert np.allclose(res.posterior, [2 / 3, 1 / 3], atol=1e-14)
        assert res.c_max == 0

    def test_multiple_observations_multiply(self):
        sched = corridor_schedule()
        obs = [
            Observation(target_label=1, days_since_crash=10.0),
            Observation(target_label=1, days_since_crash=15.0),
        ]
        res = estimate_source(sched, obs)
        # L(0) = 0.5 * 0.25, L(1) = 0.25 * 0.125 -> posterior (0.8, 0.2).
        assert np.allclose(res.posterior, [0.8, 0.2], atol=1e-14)
        assert res.single_posteriors.shape == (2, 2)
        assert np.allclose(res.single_posteriors[:, 0], [2 / 3, 1 / 3], atol=1e-14)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(51)
        mats = {}
        for name in ("W", "S", "SF"):
            mats[name] = random_substochastic(rng, 4, min_row=0.5)
        roles = make_roles(4, leaky=range(4), sticky={1: 0.4, 3: 0.25},
                           debris=(3, 1), candidates=(0, 2))
        sched = seasonal(mats, roles, start_date=date(2014, 3, 28))
        obs = [
            Observation(target_label=1, days_since_crash=15.0),
            Observation(target_label=2, days_since_crash=20.0),
        ]
        res = estimate_source(sched, obs)
        step_mats = schedule_step_mats(sched, 4)
        want = enumerate_posterior(
            step_mats,
            candidates=[0, 2],
            observation_pairs=[(1, 3), (2, 4)],
            target_col_of={1: sched.target_state(1), 2: sched.target_state(2)},
            transient=list(range(4)),
        )
        assert np.abs(res.posterior - want).max() < 1e-12

    def test_grid_metadata_and_interval(self):
        sched = corridor_schedule()
        g = build_grid((40.0, 42.0, -31.0, -30.0), cell_size=1.0)
        obs = [Observation(target_label=1, days_since_crash=10.0)]
        res = estimate_source(sched, obs, grid=g, level=0.5)
        assert res.latitudes.tolist() == [-30.5, -30.5]
        assert res.longitudes.tolist() == [40.5, 41.5]
        assert res.interval == (-30.5, -30.5)

    def test_unknown_target_rejected(self):
        sched = corridor_schedule()
        with pytest.raises(ConfigError):
            estimate_source(
                sched, [Observation(target_label=2, days_since_crash=10.0)]
            )

    def test_no_observations_rejected(self):
        with pytest.raises(ConfigError):
            estimate_source(corridor_schedule(), [])

    def test_product_in_log_space(self):
        # Factors at steps 2 and 3: 0.5 and 0.25 from box 0, 0.25 and 0.125 from box 1.
        sched = corridor_schedule()
        obs = [Observation(target_label=1, days_since_crash=10.0),
               Observation(target_label=1, days_since_crash=15.0)]
        res = estimate_source(sched, obs)
        assert res.log_likelihood[0] == pytest.approx(np.log(0.5 * 0.25))
        assert res.log_likelihood[1] == pytest.approx(np.log(0.25 * 0.125))

    def test_zero_factor_gives_minus_inf(self):
        # Only box 1 can beach on step 1; box 0 keeps no posterior mass.
        sched = corridor_schedule()
        res = estimate_source(sched, [Observation(target_label=1, days_since_crash=5.0)])
        assert res.log_likelihood.tolist() == [-np.inf, np.log(0.5)]
        assert res.posterior.tolist() == [0.0, 1.0]

    def test_impossible_observation_raises_zero_evidence(self):
        sched = corridor_schedule()
        # Nothing can reach the coast by step 1 when starting from box 0.
        obs = [Observation(target_label=1, days_since_crash=5.0)]
        with pytest.raises(ZeroEvidenceError):
            estimate_source(sched, obs, candidates=np.array([0]))

    def test_window_widens_factors(self):
        sched = corridor_schedule()
        obs = [Observation(target_label=1, days_since_crash=10.0)]
        wide = estimate_source(sched, obs, window_steps=1)
        # With the window the factors sum pmf over steps 1..3:
        # c=0 -> 0.5 + 0.25 = 0.75, c=1 -> 0.5 + 0.25 + 0.125 = 0.875.
        want = np.array([0.75, 0.875])
        want = want / want.sum()
        assert np.allclose(wide.posterior, want, atol=1e-14)


class TestStickyFitMap:
    def test_corridor_surface(self):
        sched = corridor_schedule()
        surf = sticky_fit_map(sched, c=0, n_steps=4)
        assert surf.states.tolist() == [1]
        want = np.array([0.0, 0.0, 0.5, 0.25, 0.125])
        assert np.allclose(surf.mass[:, 0], want, atol=1e-15)
        assert surf.total() == pytest.approx(want.sum())

    def test_total_eventually_reaches_absorbed_mass(self):
        sched = corridor_schedule()
        surf = sticky_fit_map(sched, c=0, n_steps=60)
        cdf = absorption_cdf_all(sched, [0], 60)[:, 0, 0]
        assert surf.total() == pytest.approx(cdf[-1], abs=1e-12)

    def test_no_sticky_states(self):
        roles = make_roles(2, leaky=(0, 1))
        sched = autonomous(0.5 * np.eye(2), roles)
        surf = sticky_fit_map(sched, c=0, n_steps=3)
        assert surf.mass.shape == (4, 0)
        assert surf.total() == 0.0


def random_seasonal(rng, n, roles=None, min_row=0.6):
    """Seasonal schedule of random dense chains, started on a random day."""
    mats = {name: random_substochastic(rng, n, min_row=min_row) for name in ("W", "S", "SF")}
    start = date(2014, 1, 1) + timedelta(days=int(rng.integers(365)))
    return seasonal(mats, roles or random_roles(rng, n), start_date=start)


class TestBatchedSweep:
    """One sweep over all candidates equals one sweep per candidate, bitwise."""

    def test_each_column_matches_its_own_sweep(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            sched = random_seasonal(rng, n)
            n_steps = int(rng.integers(0, 40))
            for cand in (rng.permutation(n), rng.integers(n, size=n + 2)):
                cdf = absorption_cdf_all(sched, cand, n_steps)
                assert cdf.shape == (n_steps + 1, sched.n_targets, len(cand))
                for i, c in enumerate(cand):
                    want = per_candidate_absorption_cdf(sched, int(c), n_steps)
                    assert np.array_equal(cdf[:, :, i], want)

    @pytest.mark.parametrize("window_steps", [0, 2, 4, 6])
    def test_log_likelihood_matches_per_candidate_loop(self, window_steps):
        # From a window of 4 the factor sums 9 or more pmf values, where
        # numpy's pairwise summation no longer adds left to right.  A log
        # hides a last-bit change of a small factor, so the chains beach
        # slowly and the window starts near step 1: factors stay large.
        # After 30 trials the observations fall at k <= w, so the window is
        # cut at step 1.
        rng = np.random.default_rng(405 + window_steps)
        for trial in range(60 if window_steps else 30):
            n = int(rng.integers(3, 8))
            sticky = {int(s): float(rng.uniform(0.05, 0.3))
                      for s in rng.choice(n, size=2, replace=False)}
            roles = make_roles(n, leaky=range(n), sticky=sticky, debris=tuple(sticky))
            sched = random_seasonal(rng, n, roles, min_row=0.98)
            low, high = (1 - window_steps, 1) if trial >= 30 else (2, 6)
            obs = [Observation(target_label=int(rng.integers(1, 3)),
                               days_since_crash=5.0 * (window_steps + int(rng.integers(low, high))))
                   for _ in range(3)]
            cand = rng.permutation(n)
            got = estimate_source(sched, obs, candidates=cand, window_steps=window_steps)
            want = per_candidate_log_likelihood(sched, obs, cand, window_steps)
            assert np.array_equal(got.log_likelihood, want)

    @pytest.mark.parametrize("n_steps", [0, 1, 60])
    def test_sticky_fit_map_matches_step_loop(self, n_steps):
        rng = np.random.default_rng(406)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sched = random_seasonal(rng, n)
            c = int(rng.integers(n))
            surf = sticky_fit_map(sched, c, n_steps)
            assert surf.states.tolist() == sorted(sched.roles.sticky)
            assert np.array_equal(surf.mass, per_step_sticky_mass(sched, c, n_steps))

    def test_candidate_outside_grid_raises(self):
        rng = np.random.default_rng(407)
        sched = random_seasonal(rng, 4)
        for bad in ([0, 4], [-1, 2], [sched.cemetery]):
            with pytest.raises(ValueError):
                absorption_cdf_all(sched, bad, 5)
        obs = [Observation(target_label=1, days_since_crash=20.0)]
        with pytest.raises(ValueError):
            estimate_source(sched, obs, candidates=np.array([1, 4]))
