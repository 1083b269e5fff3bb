"""End-to-end tests of the command-line pipeline.

A small synthetic world (4 boxes in a line, eastward drift with backflow,
one beaching coast) is generated with `synth` and then pushed through
build/spectral/bayes/paths/evolve, checking the emitted files and the
documented exit codes (0 ok, 2 config error, 3 numerical failure).
"""

import itertools
import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from driftchain import spectral, ulam
from driftchain.cli import main

from oracles import dense_power_product

# Dyadic entries so every row sums to exactly 1.0 and the truth kernels
# survive the JSON round trip bit-for-bit.
SPEC = {
    "bounds": [40.0, 44.0, -30.0, -29.0],
    "cell_size": 1.0,
    "kernels": {
        "W": [[0.25, 0.75, 0.0, 0.0],
              [0.25, 0.25, 0.5, 0.0],
              [0.0, 0.375, 0.25, 0.375],
              [0.0, 0.0, 0.5, 0.5]],
        "S": [[0.375, 0.625, 0.0, 0.0],
              [0.125, 0.375, 0.5, 0.0],
              [0.0, 0.25, 0.375, 0.375],
              [0.0, 0.0, 0.375, 0.625]],
        "SF": [[0.3125, 0.6875, 0.0, 0.0],
               [0.1875, 0.3125, 0.5, 0.0],
               [0.0, 0.3125, 0.3125, 0.375],
               [0.0, 0.0, 0.4375, 0.5625]],
    },
    "n_drifters": 60,
    "duration_days": 360.0,
    "sample_interval_days": 5.0,
    "seed": 11,
    "start_date": "2014-03-08",
    "source_state": 0,
    "sticky": {"3": 0.5},
    "debris": [3],
    "candidate_sources": [0, 1],
    "sample_observations": 3,
    "max_observation_steps": 60,
}


def invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def all_output(result):
    text = result.output
    try:
        text += result.stderr
    except ValueError:
        pass
    return text


def report_dict(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, value = line.split(" ", 1)
        out[key] = value
    return out


def set_keys(path, **values):
    """Rewrite a `key = value` config file with ``values`` in place of those keys."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.partition("=")[0].strip() not in values]
    lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def annual_operator(case):
    """The annual operator over the case's seasonal matrices."""
    w, s, sf = (ulam.load_matrix(case / f"matrix_{x}.txt") for x in ("W", "S", "SF"))
    return ulam.annual_operator(w, s, sf, exponent=18)


def dense_annual(case):
    """The annual map as the dense product of its 72 seasonal factors."""
    m = {s: ulam.load_matrix(case / f"matrix_{s}.txt").matrix.toarray() for s in ("W", "S", "SF")}
    return dense_power_product([m["W"]] * 18 + [m["SF"]] * 18 + [m["S"]] * 18 + [m["SF"]] * 18)


def run_pipeline(root, spec=SPEC, stages=("build", "spectral", "bayes", "paths")):
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    case = root / "case"
    r = invoke(["synth", "--spec", str(spec_path), "--out", str(case)])
    assert r.exit_code == 0, all_output(r)
    for stage in stages:
        r = invoke([stage, "--config", str(case / "run.cfg")])
        assert r.exit_code == 0, all_output(r)
    return case


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """Full synth -> build -> spectral -> bayes -> paths run, shared read-only."""
    return run_pipeline(tmp_path_factory.mktemp("cli_case"))


@pytest.fixture
def copy(case, tmp_path):
    """A private copy of the full case, free to modify."""
    dst = tmp_path / "case"
    shutil.copytree(case, dst)
    return dst


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.fixture(scope="module")
def bare_case(tmp_path_factory):
    """Synth output with no observations and no build artifacts."""
    root = tmp_path_factory.mktemp("cli_bare")
    spec = dict(SPEC)
    del spec["source_state"], spec["sample_observations"]
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    case = root / "case"
    r = invoke(["synth", "--spec", str(spec_path), "--out", str(case)])
    assert r.exit_code == 0, all_output(r)
    return case


class TestSynth:
    def test_writes_complete_input_set(self, case):
        for name in ("trajectories.csv", "grid.cfg", "roles.csv",
                     "observations.csv", "truth.json", "run.cfg"):
            assert (case / name).is_file(), name

    def test_run_config_contents(self, case):
        expected = (
            "grid = grid.cfg\n"
            "trajectories = trajectories.csv\n"
            "roles = roles.csv\n"
            "observations = observations.csv\n"
            "lag_days = 5\n"
            "crash_date = 2014-03-08\n"
            "season_exponent = 18\n"
            "seed = 11\n"
            "out_dir = .\n"
        )
        assert (case / "run.cfg").read_text(encoding="utf-8") == expected

    def test_truth_sidecar(self, case):
        data = json.loads((case / "truth.json").read_text(encoding="utf-8"))
        assert data["seed"] == 11
        assert data["source_state"] == 0
        assert data["kernels"]["W"] == SPEC["kernels"]["W"]
        sampled = data["sampled_observations"]
        assert len(sampled) == 3
        assert all(label == 1 and k >= 1 for label, k in sampled)

    def test_observations_match_sidecar(self, case):
        data = json.loads((case / "truth.json").read_text(encoding="utf-8"))
        header, rows = read_csv(case / "observations.csv")
        assert header == ["target_label", "days_since_crash", "name"]
        assert [[int(r[0]), float(r[1])] for r in rows] == [
            [label, k * 5.0] for label, k in data["sampled_observations"]
        ]

    def test_seed_override(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path),
                    "--out", str(tmp_path / "a"), "--seed", "99"])
        assert r.exit_code == 0
        truth = json.loads((tmp_path / "a" / "truth.json").read_text(encoding="utf-8"))
        assert truth["seed"] == 99
        assert "seed = 99" in (tmp_path / "a" / "run.cfg").read_text(encoding="utf-8")

    def test_sampling_without_source_rejected(self, tmp_path):
        spec = dict(SPEC)
        del spec["source_state"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert "source_state" in all_output(r)
        # rejected before any write: no partial input set is left behind
        assert not (tmp_path / "a").exists()

    def test_missing_season_kernel_rejected(self, tmp_path):
        spec = dict(SPEC)
        spec["kernels"] = {k: v for k, v in SPEC["kernels"].items() if k != "S"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2

    def test_nan_kernel_entry_rejected(self, tmp_path):
        spec = dict(SPEC, kernels=dict(SPEC["kernels"]))
        spec["kernels"]["S"] = [[float("nan")] + row[1:] for row in SPEC["kernels"]["S"]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert "kernel S has non-finite entries" in all_output(r)
        assert not (tmp_path / "a").exists()

    def test_lag_that_does_not_tile_a_season_rejected(self, tmp_path):
        # No exponent makes 7-day steps fill the 90-day season block, so
        # every later command would reject the run.cfg.
        spec = dict(SPEC, sample_interval_days=7.0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert "season_exponent x lag_days must equal 90 days" in all_output(r)
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"duration_days": float("nan")}, "duration_days must be finite"),
        ({"duration_days": float("inf")}, "duration_days must be finite"),
        ({"max_observation_steps": 0}, "max_observation_steps must be at least 1"),
    ])
    def test_unusable_spec_rejected_before_writing(self, tmp_path, changes, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, **changes)), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert message in all_output(r)
        assert not (tmp_path / "a").exists()

    def test_no_observations_file_when_none_requested(self, bare_case):
        assert not (bare_case / "observations.csv").exists()
        assert "observations" not in (bare_case / "run.cfg").read_text(encoding="utf-8")


class TestBuild:
    def test_artifacts_and_echo(self, case):
        for name in ("matrix_W.txt", "matrix_S.txt", "matrix_SF.txt",
                     "chain_W.txt", "chain_S.txt", "chain_SF.txt", "build_report.txt"):
            assert (case / name).is_file(), name
        # spectral and evolve apply the seasonal factors; the product is not written
        assert not (case / "matrix_annual.txt").exists()

    def test_report_accounting(self, case):
        rep = report_dict(case / "build_report.txt")
        assert rep["n_states"] == "4"
        assert float(rep["lag_days"]) == 5.0
        assert rep["drifters"] == "60"
        assert rep["skipped_rows"] == "0"
        data_rows = len(
            (case / "trajectories.csv").read_text(encoding="utf-8").splitlines()
        ) - 1
        valid = int(rep["valid_rows"])
        assert valid == data_rows
        # deployments are staggered but gap-free and step-aligned, so every
        # consecutive sample pair becomes a transition: one fewer per track
        total = sum(int(rep[f"pairs_{s}"]) for s in ("W", "S", "SF"))
        assert int(rep["total_pairs"]) == total == valid - 60
        assert int(rep["total_rows"]) == data_rows
        assert float(rep["annual_transition_days"]) == 360.0
        for s in ("W", "S", "SF"):
            assert 0.0 <= float(rep[f"empty_row_fraction_{s}"]) < 1.0
            assert float(rep[f"row_sum_max_{s}"]) <= 1.0 + 1e-12
            nnz = ulam.load_matrix(case / f"matrix_{s}.txt").matrix.nnz
            assert int(rep[f"nnz_{s}"]) == nnz > 0

    def test_report_counts_rows_the_parse_skips(self, case, tmp_path):
        copy = tmp_path / "case"
        shutil.copytree(case, copy)
        with open(copy / "trajectories.csv", "a", encoding="utf-8") as fh:
            fh.write("\nd0,x,40.5,-29.5\nd0,5,nan,-29.5\n")
        r = invoke(["build", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 0, all_output(r)
        rep, before = report_dict(copy / "build_report.txt"), report_dict(case / "build_report.txt")
        assert int(rep["total_rows"]) == int(before["total_rows"]) + 2
        assert rep["skipped_rows"] == "2"
        assert rep["valid_rows"] == before["valid_rows"]

    def test_estimates_are_plausible(self, case):
        # recurrent truth kernels keep every row sampled all year round
        tm = ulam.load_matrix(case / "matrix_W.txt")
        est = tm.matrix.toarray()
        truth = np.array(SPEC["kernels"]["W"])
        assert est.shape == (4, 4)
        assert np.all(est[truth == 0.0] == 0.0)
        assert np.max(np.abs(est - truth)) < 0.25

    def test_annual_is_ordered_seasonal_product(self, case):
        op = annual_operator(case)
        assert op.transition_time == 360.0
        np.testing.assert_allclose(op @ np.eye(4), dense_annual(case), atol=1e-13)

    def test_lag_override_must_tile_seasons(self, case):
        r = invoke(["build", "--config", str(case / "run.cfg"), "--lag-days", "7"])
        assert r.exit_code == 2

    def test_missing_config_file(self, tmp_path):
        r = invoke(["build", "--config", str(tmp_path / "nope.cfg")])
        assert r.exit_code == 2


class TestNonFiniteSettings:
    """NaN and infinite settings exit 2 before any artifact is written."""

    def test_nan_lag_rejected(self, copy):
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        r = invoke(["build", "--config", str(copy / "run.cfg"), "--lag-days", "nan"])
        assert r.exit_code == 2
        assert "lag_days must be finite" in all_output(r)
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    @pytest.mark.parametrize("key", ["eigen_tol", "basin_threshold"])
    def test_nan_spectral_setting_rejected(self, copy, key):
        # A short iteration cap keeps a solve that ignores the NaN brief.
        set_keys(copy / "run.cfg", eigen_max_iter=50, **{key: "nan"})
        r = invoke(["spectral", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"{key} must be finite" in all_output(r)

    def test_nan_basin_threshold_flag_rejected(self, copy):
        r = invoke(["spectral", "--config", str(copy / "run.cfg"), "--basin-threshold", "nan"])
        assert r.exit_code == 2
        assert "basin_threshold must be finite" in all_output(r)

    @pytest.mark.parametrize("key, value", [("cell_size", "nan"), ("lon_max", "inf")])
    def test_non_finite_grid_rejected(self, copy, key, value):
        set_keys(copy / "grid.cfg", **{key: value})
        r = invoke(["build", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "must be finite" in all_output(r)


class TestOutOfRangeInputs:
    """Inputs no command can use exit 2 before any artifact is written."""

    @pytest.mark.parametrize("threshold", ["1", "5"])
    def test_threshold_that_empties_the_basin_rejected(self, copy, threshold):
        # right vectors peak at exactly 1, so no state exceeds 1 or more
        before = snapshot(copy)
        r = invoke(["spectral", "--config", str(copy / "run.cfg"),
                    "--basin-threshold", threshold])
        assert r.exit_code == 2
        assert "basin_threshold must be below 1" in all_output(r)
        assert snapshot(copy) == before

    def test_zero_eigenpairs_rejected(self, copy):
        before = snapshot(copy)
        r = invoke(["spectral", "--config", str(copy / "run.cfg"), "--k-eigs", "0"])
        assert r.exit_code == 2
        assert "--k-eigs" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    @pytest.mark.parametrize("days", ["nan", "inf"])
    def test_non_finite_observation_days_rejected(self, copy, command, days):
        (copy / "observations.csv").write_text(
            f"target_label,days_since_crash,name\n1,{days},bad\n", encoding="utf-8")
        before = snapshot(copy)
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "days_since_crash must be positive and finite" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("mass", ["nan", "inf"])
    def test_non_finite_initial_mass_rejected(self, copy, tmp_path, mass):
        init = tmp_path / "init.csv"
        init.write_text(f"state,mass\n1,0\n0,{mass}\n", encoding="utf-8")
        before = snapshot(copy)
        r = invoke(["evolve", "--config", str(copy / "run.cfg"), "--initial", str(init)])
        assert r.exit_code == 2
        assert f"{init}:3: mass '{mass}' is not finite" in all_output(r)
        assert snapshot(copy) == before


class TestSpectral:
    def test_artifacts(self, case):
        for name in ("left_1.csv", "left_2.csv", "right_1.csv", "right_2.csv",
                     "zonal.csv", "basin.geojson", "spectral_report.txt"):
            assert (case / name).is_file(), name

    def test_eigvector_csvs(self, case):
        header, rows = read_csv(case / "left_1.csv")
        assert header == ["state", "lon_center", "lat_center", "value"]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert [float(r[2]) for r in rows] == [-29.5] * 4
        left = np.array([float(r[3]) for r in rows])
        assert abs(left.sum() - 1.0) < 1e-8
        _, rows = read_csv(case / "right_1.csv")
        right = np.array([float(r[3]) for r in rows])
        # seasonal estimates are stochastic, so the annual product is too
        np.testing.assert_allclose(right, 1.0, atol=1e-8)

    def test_report(self, case):
        rep = report_dict(case / "spectral_report.txt")
        lam1 = rep["lambda_1_modulus"].split()
        assert abs(float(lam1[0]) - 1.0) < 1e-10
        assert lam1[1] == "converged"
        assert rep["basin_size"] == "4"
        assert abs(float(rep["lambda_basin"]) - 1.0) < 1e-10
        retention = rep["retention_days"]
        assert retention == "inf" or float(retention) > 1e5

    def test_report_counts_eigen_work(self, case):
        rep = report_dict(case / "spectral_report.txt")
        eigs = spectral.dominant_eigs(annual_operator(case), k=2, tol=1e-10, seed=11)
        assert rep["eigen_iterations"] == str(eigs.iterations)
        assert float(rep["eigen_max_residual"]) == eigs.max_residual <= 1e-10

    def test_basin_geojson(self, case):
        doc = json.loads((case / "basin.geojson").read_text(encoding="utf-8"))
        assert doc["geometry"]["type"] == "MultiPolygon"
        assert doc["properties"]["states"] == [0, 1, 2, 3]
        assert len(doc["geometry"]["coordinates"]) == 4

    def test_zonal_profile(self, case):
        header, rows = read_csv(case / "zonal.csv")
        assert header == ["lat", "mean", "deriv"]
        assert len(rows) == 1
        assert float(rows[0][0]) == -29.5
        assert abs(float(rows[0][1]) - 1.0) < 1e-8

    def test_requires_build(self, bare_case):
        r = invoke(["spectral", "--config", str(bare_case / "run.cfg")])
        assert r.exit_code == 2
        assert "build" in all_output(r)


class TestBayes:
    def test_posterior_csv(self, case):
        header, rows = read_csv(case / "posterior.csv")
        assert header == ["lat", "lon", "logL", "posterior",
                          "single_b1", "single_b2", "single_b3"]
        assert len(rows) == 2  # candidate sources 0 and 1
        assert [float(r[1]) for r in rows] == [40.5, 41.5]
        post = np.array([float(r[3]) for r in rows])
        assert abs(post.sum() - 1.0) < 1e-12
        assert np.all(post >= 0)
        singles = np.array([[float(r[c]) for c in (4, 5, 6)] for r in rows])
        np.testing.assert_allclose(singles.sum(axis=0), 1.0, atol=1e-12)

    def test_summary(self, case):
        rep = report_dict(case / "bayes_summary.txt")
        assert rep["n_candidates"] == "2"
        assert rep["n_observations"] == "3"
        assert int(rep["c_max_state"]) in (0, 1)
        assert float(rep["c_max_lat"]) == -29.5
        # single-latitude grid: the central interval is degenerate
        assert float(rep["cpi_lat_low"]) == -29.5
        assert float(rep["cpi_lat_high"]) == -29.5
        _, rows = read_csv(case / "posterior.csv")
        best = max(float(r[3]) for r in rows)
        assert float(rep["c_max_posterior"]) == best

    def test_requires_observations(self, bare_case):
        r = invoke(["bayes", "--config", str(bare_case / "run.cfg")])
        assert r.exit_code == 2
        assert "observations" in all_output(r)

    def test_impossible_observation_exits_3(self, case):
        # one-step absorption is unreachable from either candidate, so every
        # source has zero evidence -- a numerical failure, not a config error
        (case / "obs_bad.csv").write_text(
            "target_label,days_since_crash,name\n1,5,impossible\n",
            encoding="utf-8",
        )
        cfg = (case / "run.cfg").read_text(encoding="utf-8").replace(
            "observations = observations.csv", "observations = obs_bad.csv"
        )
        (case / "run_bad.cfg").write_text(cfg, encoding="utf-8")
        r = invoke(["bayes", "--config", str(case / "run_bad.cfg")])
        assert r.exit_code == 3


class TestPaths:
    def test_summary_csv(self, case):
        header, rows = read_csv(case / "paths_summary.csv")
        assert header == ["observation", "target", "steps", "best_source", "log_prob"]
        assert len(rows) == 3
        for i, row in enumerate(rows, start=1):
            assert int(row[0]) == i
            assert int(row[1]) == 1
            assert int(row[2]) >= 1
            assert int(row[3]) in (0, 1)
            assert float(row[4]) < 0.0

    def test_geojson_per_observation(self, case):
        _, rows = read_csv(case / "paths_summary.csv")
        for i, row in enumerate(rows, start=1):
            doc = json.loads(
                (case / f"paths_obs{i}_target1.geojson").read_text(encoding="utf-8")
            )
            assert doc["name"] == f"target_1_obs_{i}"
            feats = doc["features"]
            assert len(feats) == 2  # one candidate route each
            best = [f for f in feats if f["properties"]["is_best"]]
            assert len(best) == 1
            assert best[0]["properties"]["source_state"] == int(row[3])
            k = int(row[2])
            coords = best[0]["geometry"]["coordinates"]
            # k transient box centers, then the landing box center again
            assert len(coords) == k + 1
            assert coords[-1] == coords[-2]

    def test_shared_source_report(self, case):
        text = (case / "paths_report.txt").read_text(encoding="utf-8")
        # single target label: no cross-target sharing is possible
        assert "shared_source none" in text

    def test_requires_observations(self, bare_case):
        r = invoke(["paths", "--config", str(bare_case / "run.cfg")])
        assert r.exit_code == 2


class TestEvolve:
    def test_point_mass_steps(self, case):
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "0", "--steps", "2"])
        assert r.exit_code == 0, all_output(r)
        a = dense_annual(case)
        f = np.zeros(4)
        f[0] = 1.0
        for k in range(3):
            header, rows = read_csv(case / f"evolve_step{k:04d}.csv")
            assert header == ["state", "mass"]
            got = np.array([float(row[1]) for row in rows])
            np.testing.assert_allclose(got, f, atol=1e-12)
            f = f @ a

    @pytest.mark.parametrize("label", ["annual", "W"])
    def test_steps_equal_iterated_push_forward(self, case, label):
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "1", "--steps", "6", "--matrix", label])
        assert r.exit_code == 0, all_output(r)
        f = np.zeros(4)
        f[1] = 1.0
        if label == "annual":
            expected = list(ulam.propagate(f, itertools.repeat(annual_operator(case), 6)))
        else:
            tm = ulam.load_matrix(case / f"matrix_{label}.txt")
            expected = [f]
            for _ in range(6):
                expected.append(ulam.push_forward(expected[-1], tm, 1))
        for k in range(7):
            _, rows = read_csv(case / f"evolve_step{k:04d}.csv")
            assert np.array_equal([float(row[1]) for row in rows], expected[k])

    def test_initial_distribution_file(self, case, tmp_path):
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n0,0.5\n3,0.5\n", encoding="utf-8")
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--initial", str(init), "--steps", "0", "--matrix", "W"])
        assert r.exit_code == 0, all_output(r)
        _, rows = read_csv(case / "evolve_step0000.csv")
        assert [float(row[1]) for row in rows] == [0.5, 0.0, 0.0, 0.5]

    def test_state_and_initial_are_exclusive(self, case, tmp_path):
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n0,1\n", encoding="utf-8")
        both = invoke(["evolve", "--config", str(case / "run.cfg"),
                       "--state", "0", "--initial", str(init)])
        neither = invoke(["evolve", "--config", str(case / "run.cfg")])
        assert both.exit_code == 2
        assert neither.exit_code == 2
        assert "exactly one" in all_output(both)

    def test_bad_inputs(self, case):
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "9", "--steps", "1"])
        assert r.exit_code == 2
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "0", "--steps", "-1"])
        assert r.exit_code == 2

    def test_malformed_distribution(self, case, tmp_path):
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n0,half\n", encoding="utf-8")
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--initial", str(init)])
        assert r.exit_code == 2
        assert "malformed" in all_output(r)

    def test_out_override_points_at_empty_dir(self, case, tmp_path):
        # --out moves the whole artifact directory, so the matrix is missing
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "0", "--out", str(tmp_path / "fresh")])
        assert r.exit_code == 2
        assert "build" in all_output(r)

    def test_requires_build(self, bare_case):
        r = invoke(["evolve", "--config", str(bare_case / "run.cfg"), "--state", "0"])
        assert r.exit_code == 2


class TestMalformedTriplets:
    @pytest.fixture()
    def corrupt(self, case, tmp_path):
        """Copy of the built case with one triplet line of a file replaced."""

        def make(name, entry="3,x,0.5"):
            copy = tmp_path / "case"
            shutil.copytree(case, copy)
            path = copy / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lineno = lines.index("i,j,value\n") + 2
            lines[lineno - 1] = entry + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            return copy, f"{name}:{lineno}"

        return make

    @pytest.mark.parametrize("args", [["spectral"], ["evolve", "--state", "0"]])
    def test_annual_matrix_exits_2(self, corrupt, args):
        # both read the annual operator's seasonal factors
        copy, where = corrupt("matrix_W.txt")
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert where in all_output(r)

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    def test_chain_exits_2(self, corrupt, command):
        copy, where = corrupt("chain_W.txt")
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert where in all_output(r)

    @pytest.mark.parametrize("name, command", [("matrix_W.txt", "spectral"),
                                               ("chain_W.txt", "bayes")])
    def test_negative_entry_exits_2(self, corrupt, name, command):
        # row 0 has no other entry in column 3, so the parsed value stays negative
        copy, _ = corrupt(name, entry="0,3,-0.5")
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert name in all_output(r)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
