import dataclasses
import json

import numpy as np
import pytest

from conftest import autonomous, make_roles
from oracles import dense_row_pairs, dense_walk_tracks, random_substochastic

from driftchain.bayes import load_observations
from driftchain.errors import ConfigError
from driftchain.grid import load_roles
from driftchain.ingest import (
    SEASONS,
    Season,
    extract_pairs,
    parse_trajectories,
    season_of_day,
    season_split,
)
from driftchain.spectral import basin_of_attraction, dominant_eigs
from driftchain.synth import (
    SimulatedTrack,
    SyntheticSpec,
    _json_matrix,
    load_spec,
    sample_observations,
    sample_pairs,
    simulate_tracks,
    two_gyre_kernel,
    write_observations_csv,
    write_roles_csv,
    write_tracks_csv,
    write_truth_sidecar,
)
from driftchain.ulam import estimate


def toy_spec(**overrides):
    kernel = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    fields = dict(
        bounds=(40.0, 43.0, -30.0, -29.0),
        cell_size=1.0,
        kernels={s: kernel for s in Season},
        n_drifters=8,
        duration_days=50.0,
        sample_interval_days=5.0,
        seed=3,
        leaky=(0,),
        sticky={2: 0.5},
        debris=(2,),
        candidate_sources=(0, 1),
    )
    fields.update(overrides)
    return SyntheticSpec(**fields)


def awkward_kernel(rng, n: int) -> np.ndarray:
    """Substochastic kernel with interior zeros, row deficits, all-zero rows
    and rows that hold a single exact 1."""
    k = random_substochastic(rng, n, min_row=0.3, max_row=1.0, density=0.4)
    rows = rng.permutation(n)
    k[rows[: n // 4]] = 0.0
    one_hot = rows[n // 4: n // 2]
    k[one_hot] = 0.0
    k[one_hot, rng.integers(n, size=len(one_hot))] = 1.0
    return k


class TestSamplePairs:
    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (9, 2), (40, 3)])
    def test_matches_dense_rule(self, n, seed):
        if n == 1:
            kernels = {Season.W: np.ones((1, 1)), Season.S: np.full((1, 1), 0.5),
                       Season.SF: np.zeros((1, 1))}
        else:
            rng = np.random.default_rng(seed)
            kernels = {s: awkward_kernel(rng, n) for s in Season}
        pairs = sample_pairs(kernels, 5000, seed=seed)
        order = sorted(kernels, key=lambda s: s.value)
        starts, ends, season_idx = dense_row_pairs([kernels[s] for s in order], 5000, seed)
        codes = np.array([SEASONS.index(s) for s in order], dtype=np.int8)
        assert np.array_equal(pairs.from_state, starts)
        assert np.array_equal(pairs.to_state, ends)
        assert np.array_equal(pairs.season, codes[season_idx])
        assert np.array_equal(pairs.start_date, np.zeros(5000))

    def test_deterministic(self):
        k = np.array([[0.5, 0.4], [0.3, 0.3]])
        a = sample_pairs(k, 500, seed=9)
        b = sample_pairs(k, 500, seed=9)
        assert np.array_equal(a.from_state, b.from_state)
        assert np.array_equal(a.to_state, b.to_state)

    def test_deficit_becomes_out_of_domain(self):
        k = np.array([[0.0, 0.25], [0.0, 0.0]])  # row 1 always exits
        pairs = sample_pairs(k, 4000, seed=1)
        exits = pairs.to_state == -1
        from1 = pairs.from_state == 1
        assert exits[from1].all()
        frac0 = np.count_nonzero(exits & (pairs.from_state == 0)) / np.count_nonzero(~from1)
        assert frac0 == pytest.approx(0.75, abs=0.05)

    def test_seasonal_kernels_tagged(self):
        kernels = {
            Season.W: np.array([[1.0]]),
            Season.S: np.array([[0.5]]),
            Season.SF: np.array([[0.0]]),
        }
        pairs = sample_pairs(kernels, 3000, seed=5)
        split = season_split(pairs)
        # SF always exits, W never does; the tags must match the draw.
        assert (split[Season.SF].to_state == -1).all()
        assert (split[Season.W].to_state == 0).all()
        assert 0 < np.count_nonzero(split[Season.S].to_state == -1) < len(split[Season.S])

    def test_estimator_inverts_sampler_per_season(self):
        kernels = {
            Season.W: np.array([[0.8, 0.1], [0.3, 0.6]]),
            Season.S: np.array([[0.2, 0.7], [0.5, 0.4]]),
            Season.SF: np.array([[0.5, 0.5], [0.1, 0.8]]),
        }
        pairs = sample_pairs(kernels, 120_000, seed=11)
        for season, group in season_split(pairs).items():
            tm = estimate(group, 2, 5.0, str(season))
            assert np.abs(tm.matrix.toarray() - kernels[season]).max() < 0.02


def assert_matches_dense_walk(spec):
    """``simulate_tracks(spec)``, checked bitwise against the dense-row oracle."""
    got = simulate_tracks(spec)
    want = dense_walk_tracks(spec, season_of_day)
    assert len(got) == len(want)
    for tr, (times, lons, lats, states) in zip(got, want):
        assert np.array_equal(tr.times, times)
        assert np.array_equal(tr.lons, lons)
        assert np.array_equal(tr.lats, lats)
        assert np.array_equal(tr.states, states)
        assert tr.states.dtype == states.dtype
    return got


class TestSimulateTracks:
    def test_positions_stay_in_start_box_for_identity_kernel(self):
        spec = toy_spec(kernels={s: np.eye(3) for s in Season}, sticky={}, debris=())
        g = spec.grid()
        for tr in simulate_tracks(spec):
            assert (tr.states >= 0).all()
            states = {g.point_to_state(lon, lat) for lon, lat in zip(tr.lons, tr.lats)}
            assert states == {int(tr.states[0])}

    def test_deterministic_given_seed(self):
        a = simulate_tracks(toy_spec())
        b = simulate_tracks(toy_spec())
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.times, tb.times)
            assert np.array_equal(ta.lons, tb.lons)

    def test_exit_emits_one_out_of_domain_sample(self):
        kernel = np.zeros((3, 3))  # every step exits immediately
        spec = toy_spec(kernels={s: kernel for s in Season}, sticky={}, debris=())
        g = spec.grid()
        for tr in simulate_tracks(spec):
            assert tr.states[-1] == -1
            assert (tr.states[:-1] >= 0).all()
            assert tr.lons[-1] == g.lon_max + spec.cell_size
            assert g.point_to_state(tr.lons[-1], tr.lats[-1]) == -1

    @pytest.mark.parametrize("nx, ny, seed", [(1, 1, 0), (1, 1, 1), (3, 1, 2),
                                              (4, 3, 3), (8, 5, 4)])
    def test_matches_dense_walk(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        n = nx * ny
        if n == 1:
            values = rng.permutation([0.0, 0.5, 1.0])
            kernels = {s: np.full((1, 1), v) for s, v in zip(Season, values)}
        else:
            kernels = {s: awkward_kernel(rng, n) for s in Season}
        spec = toy_spec(bounds=(40.0, 40.0 + nx, -30.0, -30.0 + ny), kernels=kernels,
                        n_drifters=60, duration_days=400.0, seed=seed,
                        leaky=(), sticky={}, debris=(), candidate_sources=())
        assert len(assert_matches_dense_walk(spec)) == 60

    @pytest.mark.parametrize("duration_days, n_drifters", [
        (10.0, 80),   # two steps: walks start on the last step that has a move
        (4.0, 40),    # shorter than one step: one step, every walk starts on it
        (0.0, 40),
        (50.0, 0),
    ])
    def test_edge_walks_match_dense_walk(self, duration_days, n_drifters):
        # one box that keeps half its mass: exits and survivals both happen
        kernels = {s: np.full((1, 1), 0.5) for s in Season}
        spec = toy_spec(bounds=(40.0, 41.0, -30.0, -29.0), kernels=kernels,
                        n_drifters=n_drifters, duration_days=duration_days, seed=5,
                        leaky=(), sticky={}, debris=(), candidate_sources=())
        tracks = assert_matches_dense_walk(spec)
        assert len(tracks) == n_drifters
        if not n_drifters:
            return
        max_steps = max(int(duration_days // 5.0), 1)
        last = [(tr.times[0], tr.times[-1], tr.states[-1]) for tr in tracks]
        # some walk starts on the last step that has a move and exits on it,
        # and some walk from there survives to the end
        assert ((max_steps - 1) * 5.0, max_steps * 5.0, -1) in last
        assert ((max_steps - 1) * 5.0, max_steps * 5.0, 0) in last

    def test_round_trip_through_ingest_recovers_kernel(self, tmp_path):
        # The cyclic permutation kernel makes transitions deterministic,
        # so Ulam counting recovers it exactly from simulated tracks.
        spec = toy_spec(n_drifters=30, duration_days=100.0, sticky={}, debris=())
        tracks = simulate_tracks(spec)
        path = tmp_path / "tracks.csv"
        write_tracks_csv(tracks, path)
        trajs, report = parse_trajectories(path)
        assert report.skipped_rows == 0
        pairs = extract_pairs(trajs, spec.grid(), spec.sample_interval_days)
        tm = estimate(pairs, 3, spec.sample_interval_days, "pooled")
        assert np.array_equal(tm.matrix.toarray(), spec.kernels[Season.W])


class TestGeneratorStream:
    @pytest.mark.parametrize("seed, used", [(0, 0), (1, 1), (2, 3), (3, 61), (4, 122)])
    def test_block_draw_equals_scalar_draws(self, seed, used):
        # simulate_tracks rests on this: after `integers` draws, one random(n)
        # call gives the values of n scalar random() calls, and rewinding the
        # state then redrawing `used` values leaves the stream where `used`
        # scalar calls do
        block, scalar, walk = (np.random.default_rng(seed) for _ in range(3))
        for rng in (block, scalar, walk):
            rng.integers(72)
            rng.integers(256)
        before = block.bit_generator.state
        u = block.random(122)
        assert u.tolist() == [scalar.random() for _ in range(122)]
        block.bit_generator.state = before
        block.random(used)
        for _ in range(used):
            walk.random()
        assert block.bit_generator.state == walk.bit_generator.state
        assert block.integers(1000, size=4).tolist() == walk.integers(1000, size=4).tolist()
        assert block.random() == walk.random()


class TestSampleObservations:
    def corridor(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        roles = make_roles(2, sticky={1: 0.5}, debris=(1,), candidates=(0,))
        return autonomous(a, roles)

    def test_labels_and_steps_valid(self):
        sched = self.corridor()
        obs = sample_observations(sched, source=0, count=25, seed=2)
        assert len(obs) == 25
        assert all(label == 1 for label, _ in obs)
        # From box 0 the earliest possible beaching is step 2.
        assert all(k >= 2 for _, k in obs)

    def test_deterministic(self):
        sched = self.corridor()
        assert sample_observations(sched, 0, 10, seed=4) == sample_observations(
            sched, 0, 10, seed=4
        )

    def test_unreachable_target_raises(self):
        roles = make_roles(1, leaky=(0,))
        sched = autonomous(np.zeros((1, 1)), roles)
        with pytest.raises(ConfigError):
            sample_observations(sched, 0, 1, seed=0, max_steps=5)

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            sample_observations(self.corridor(), source=5, count=1)


class TestWriters:
    def test_observation_csv_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_observations_csv([(1, 3), (2, 7)], transition_time=5.0, path=path)
        obs = load_observations(path)
        assert [(o.target_label, o.days_since_crash) for o in obs] == [
            (1, 15.0),
            (2, 35.0),
        ]
        assert obs[0].name == "obs1"

    def test_observation_csv_accepts_dicts(self, tmp_path):
        path = tmp_path / "obs.csv"
        rows = [{"target_label": 1, "days_since_crash": 508.0, "name": "flaperon"}]
        write_observations_csv(rows, 5.0, path)
        obs = load_observations(path)
        assert obs[0].name == "flaperon"
        assert obs[0].days_since_crash == 508.0

    def test_roles_csv_round_trip(self, tmp_path):
        spec = toy_spec()
        g = spec.grid()
        path = tmp_path / "roles.csv"
        write_roles_csv(spec, g, path)
        roles = load_roles(g, path)
        assert roles.leaky == frozenset(spec.leaky)
        assert roles.sticky == spec.sticky
        assert roles.debris == spec.debris
        assert roles.candidate_sources == spec.candidate_sources

    def test_truth_sidecar_is_stable_json(self, tmp_path):
        spec = toy_spec()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_truth_sidecar(spec, p1, sampled_obs=[(1, 4)])
        write_truth_sidecar(spec, p2, sampled_obs=[(1, 4)])
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["source_state"] is None
        assert payload["sampled_observations"] == [[1, 4]]

    def test_truth_sidecar_bytes_match_json_encoder(self, tmp_path):
        kernel = np.array([[1e-05, 0.1 + 0.2, 5e-324], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        spec = toy_spec(kernels={Season.W: kernel, Season.S: kernel[::-1].copy(),
                                 Season.SF: np.eye(3)}, source_state=1)
        path = tmp_path / "truth.json"
        write_truth_sidecar(spec, path, sampled_obs=[(1, 4), (1, 9)])
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["kernels"] == {str(s): spec.kernels[s].tolist() for s in Season}
        want = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_truth_sidecar_edge_values_match_json_encoder(self, tmp_path):
        kernel = np.array([[-0.0, 5e-324, 0.5], [0.0, 0.0, 0.0], [0.0, -0.0, 1.0]])
        spec = toy_spec(kernels={Season.W: kernel, Season.S: np.zeros((3, 3)),
                                 Season.SF: -np.zeros((3, 3))}, duration_days=1e+16)
        path = tmp_path / "truth.json"
        write_truth_sidecar(spec, path)
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert data["kernels"] == {str(s): spec.kernels[s].tolist() for s in Season}
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert '"duration_days": 1e+16' in text
        assert "-0.0" in text and "5e-324" in text

    def test_tracks_csv_follows_row_rule(self, tmp_path):
        # a repeated time is formatted once, and 0.0 and -0.0 keep their texts
        tracks = simulate_tracks(toy_spec(n_drifters=20)) + [
            SimulatedTrack(drifter_id=20, times=np.array([-0.0, 0.0, 0.1 + 0.2, -0.0, 1e+16]),
                           lons=np.array([0.0, -0.0, 5e-324, 1 / 3, 40.5]),
                           lats=np.array([-29.5, 2.5e-17, -0.0, 0.0, -1e-300]),
                           states=np.array([0, 0, 1, 1, -1])),
            SimulatedTrack(drifter_id=21, times=np.array([0.0, 5.0]),
                           lons=np.array([40.5, 41.5]), lats=np.array([-29.5, -29.5]),
                           states=np.array([0, 1])),
        ]
        path = tmp_path / "tracks.csv"
        write_tracks_csv(tracks, path)
        want = "id,time_days,lon,lat\n" + "".join(
            f"{tr.drifter_id},{t:.17g},{lon:.17g},{lat:.17g}\n"
            for tr in tracks for t, lon, lat in zip(tr.times, tr.lons, tr.lats))
        assert path.read_text(encoding="utf-8") == want
        assert "\n20,-0,0,-29.5\n20,0,-0," in want

    @pytest.mark.parametrize("rows", [
        [], [[]], [[0.0]], [[1e+16, 1e-05], [0.1 + 0.2, 5e-324]], [[], [1.0, 2.5e-17]],
        [[-0.0, 0.0], [0.0, 0.0]],
    ])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_json_matrix_matches_json_encoder(self, rows, level):
        # json's text for the list nested `level` dicts deep, cut back out
        nested = rows
        for _ in range(level):
            nested = {"k": nested}
        text = json.dumps(nested, indent=2)
        start = text.rfind('"k": ') + 5 if level else 0
        closing = "".join("\n" + "  " * i + "}" for i in reversed(range(level)))
        assert _json_matrix(rows, level) == text[start:len(text) - len(closing)]


class TestSpecParsing:
    def test_load_spec_round_trip(self, tmp_path):
        raw = {
            "bounds": [40.0, 42.0, -30.0, -29.0],
            "cell_size": 1.0,
            "kernels": {
                "W": [[0.5, 0.5], [0.0, 1.0]],
                "S": [[0.9, 0.0], [0.1, 0.8]],
                "SF": [[0.2, 0.2], [0.2, 0.2]],
            },
            "sticky": {"1": 0.25},
            "debris": [1],
            "source_state": 0,
            "sample_observations": 3,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = load_spec(path)
        assert spec.n_states == 2
        assert spec.sticky == {1: 0.25}
        assert spec.source_state == 0
        assert np.array_equal(spec.kernels[Season.S], np.array(raw["kernels"]["S"]))

    def test_omitted_keys_take_spec_defaults(self, tmp_path):
        # load_spec passes only the keys present, so each default is SyntheticSpec's
        raw = {"bounds": [40.0, 42.0, -30.0, -29.0], "cell_size": 1.0,
               "kernels": {s.value: np.eye(2).tolist() for s in Season}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = load_spec(path)
        defaults = [f for f in dataclasses.fields(SyntheticSpec) if f.init and f.name not in raw]
        assert len(defaults) == 13
        for f in defaults:
            want = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(spec, f.name) == want, f.name

    @pytest.mark.parametrize("raw, message", [
        ([{"bounds": [0, 1, 0, 1]}], "a synthetic spec is a JSON object"),
        ({"cell_size": 1.0}, "invalid synthetic spec .*'bounds' and 'kernels'"),
        ({"cell_size": 1.0, "sticky": [3]}, "invalid synthetic spec .*no attribute 'items'"),
    ])
    def test_malformed_spec_rejected(self, tmp_path, raw, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=message):
            load_spec(path)

    def test_missing_season_rejected(self, tmp_path):
        raw = {
            "bounds": [0, 1, 0, 1],
            "cell_size": 1.0,
            "kernels": {"W": [[1.0]], "S": [[1.0]]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_super_stochastic_kernel_rejected(self):
        with pytest.raises(ConfigError):
            toy_spec(kernels={s: np.full((3, 3), 0.4) for s in Season})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        kernel = np.array([[0.5, bad], [0.2, 0.3]])
        with pytest.raises(ConfigError, match="kernel S: transition matrix entries must be finite"):
            toy_spec(bounds=(40.0, 42.0, -30.0, -29.0),
                     kernels={s: kernel if s is Season.S else np.eye(2) for s in Season},
                     leaky=(), sticky={}, debris=(), candidate_sources=())
        with pytest.raises(ConfigError):
            sample_pairs(kernel, 10)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            toy_spec(seed=-1)

    def test_padded_observation_name_rejected(self):
        # bayes.load_observations strips names, so this one would not come back whole.
        with pytest.raises(ConfigError, match="explicit observation 2: name '  padded '"):
            toy_spec(observations=({"target_label": 1, "days_since_crash": 30.0},
                                   {"target_label": 1, "days_since_crash": 35.0,
                                    "name": "  padded "}))

    def test_grid_mismatch_rejected(self):
        spec = toy_spec(bounds=(40.0, 44.0, -30.0, -29.0))
        with pytest.raises(ConfigError):
            spec.grid()


class TestTwoGyreKernel:
    def test_structure(self):
        k = two_gyre_kernel(3, leak=0.3, coupling=0.05, retention=0.9)
        assert k.shape == (6, 6)
        sums = k.sum(axis=1)
        assert np.allclose(sums[:3], 1.0)
        assert np.allclose(sums[3:], 1.0 - 0.3)

    def test_right_vector_separates_gyres(self):
        k = two_gyre_kernel(4)
        res = dominant_eigs(k, k=1)
        r = res.right_vectors[0]
        members = basin_of_attraction(r, threshold=0.5)
        assert members.tolist() == [0, 1, 2, 3]
        # Leaky-gyre survival is coupling / (coupling + leak) = 1/7.
        assert np.allclose(r[4:], 1 / 7, atol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            two_gyre_kernel(1)
        with pytest.raises(ValueError):
            two_gyre_kernel(3, leak=0.5, coupling=0.5, retention=0.9)
