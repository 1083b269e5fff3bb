"""End-to-end tests of the command-line pipeline.

A small synthetic world (4 boxes in a line, eastward drift with backflow,
one beaching coast) is generated with `synth` and then pushed through
build/spectral/bayes/paths/evolve, checking the emitted files and the
documented exit codes (0 ok, 2 config error, 3 numerical failure).
"""

import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from driftchain import absorb, bayes, cli, csr, paths, spectral, ulam
from driftchain.cli import main
from driftchain.config import _RUN_KEYS
from driftchain.csr import Csr
from driftchain.grid import build_grid, load_roles

from conftest import make_roles, seasonal_tms
from oracles import dense_power_product, scipy_row_steps

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
        # The spec is synth's one source of settings, so no flag restates its seed.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path),
                    "--out", str(tmp_path / "a"), "--seed", "99"])
        assert r.exit_code == 2
        assert "No such option '--seed'" in all_output(r)
        assert not (tmp_path / "a").exists()

    def test_observation_names_survive_the_round_trip(self, tmp_path):
        named = [{"target_label": 1, "days_since_crash": 30.0, "name": 'early, quoted "x"'},
                 {"target_label": 1, "days_since_crash": 47.5, "name": "plain"}]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, observations=named, sample_observations=0)),
                             encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 0, all_output(r)
        got = bayes.load_observations(tmp_path / "a" / "observations.csv")
        assert [(o.target_label, o.days_since_crash, o.name) for o in got] == [
            (1, 30.0, 'early, quoted "x"'), (1, 47.5, "plain")]

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
        assert "kernel S: transition matrix entries must be finite" in all_output(r)
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
        ({"seed": -4}, "seed must be nonnegative, got -4"),
        ({"sticky": {"3": 1.5}}, "land fraction for state 3 must lie strictly in (0, 1)"),
        ({"sticky": {"2": 0.5}}, "debris states not marked sticky: [3]"),
        ({"candidate_sources": [0, 9]}, "role references state 9 but chain has 4 states"),
        ({"leaky": [1, 1]}, "leaky repeats a state"),
        ({"source_state": 9}, "source_state 9 outside 0..3"),
        ({"observations": [{"days_since_crash": 30.0}]},
         "explicit observation 1 lacks 'target_label'"),
        ({"observations": [{"target_label": 2, "days_since_crash": 30.0}]},
         "explicit observation 1 targets label 2, but the spec has 1 debris states"),
        ({"observations": [{"target_label": 1, "days_since_crash": "nan"}]},
         "days_since_crash must be positive and finite, got nan"),
        ({"sticky": {}, "debris": []}, "sample_observations requires at least one debris state"),
        # the debris box is three steps from the source, so no walk beaches
        ({"max_observation_steps": 1}, "source 0: no beaching in 1000 consecutive walks"),
        # bayes and paths reject an observation less than one step after the crash
        ({"observations": [{"target_label": 1, "days_since_crash": 2.0, "name": "early"}]},
         "explicit observation 1: observation 'early' at 2.0 d is below one transition "
         "time (5.0 d)"),
        # bayes strips a name's blanks on reading
        ({"observations": [{"target_label": 1, "days_since_crash": 30.0, "name": "padded\t"}]},
         "explicit observation 1: name 'padded\\t' has leading or trailing blanks"),
        # a misspelt key would otherwise leave its field at the default
        ({"n_drifter": 5}, "unknown synthetic spec key 'n_drifter'"),
    ])
    def test_unusable_spec_rejected_before_writing(self, tmp_path, changes, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, **changes)), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert message in all_output(r)
        assert not (tmp_path / "a").exists()

    def test_negative_seed_flag_rejected_before_writing(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, seed=-1)), encoding="utf-8")
        r = invoke(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
        assert r.exit_code == 2
        assert "seed must be nonnegative, got -1" in all_output(r)
        assert not (tmp_path / "a").exists()

    def test_no_observations_file_when_none_requested(self, bare_case):
        assert not (bare_case / "observations.csv").exists()
        assert "observations" not in (bare_case / "run.cfg").read_text(encoding="utf-8")


class TestBuild:
    def test_artifacts_and_echo(self, bare_case, tmp_path):
        out = tmp_path / "built"
        r = invoke(["build", "--config", str(bare_case / "run.cfg"), "--out", str(out)])
        assert r.exit_code == 0, all_output(r)
        assert r.output == f"built 3 matrices in {out}\n"
        # spectral and evolve apply the seasonal factors, and bayes and paths
        # close them with roles.csv: neither the product nor a chain is written
        assert sorted(p.name for p in out.iterdir()) == [
            "build_report.txt", "matrix_S.txt", "matrix_SF.txt", "matrix_W.txt"]

    def test_roles_file_is_not_read(self, copy):
        before = snapshot(copy)
        (copy / "roles.csv").write_text("swimmer: 0,0\n", encoding="utf-8")
        r = invoke(["build", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 0, all_output(r)
        for name in ("matrix_W.txt", "matrix_S.txt", "matrix_SF.txt", "build_report.txt"):
            assert (copy / name).read_bytes() == before[name], name

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

    def test_missing_config_file(self, tmp_path):
        r = invoke(["build", "--config", str(tmp_path / "nope.cfg")])
        assert r.exit_code == 2


class TestRunSettingsSource:
    """Each command reads its run settings from `run.cfg` alone; `--out` is the one override."""

    def test_no_flag_restates_a_run_key(self):
        restated = []
        for name, command in main.commands.items():
            if not any(p.name == "config_path" for p in command.params):
                continue  # `synth` writes run.cfg but does not read it
            for param in command.params:
                spelled = {param.name} | {o.lstrip("-").replace("-", "_") for o in param.opts}
                if param.name != "out_dir" and spelled & _RUN_KEYS.keys():
                    restated.append(f"{name} {'/'.join(param.opts)}")
        assert restated == []

    @pytest.mark.parametrize("command, flag", [
        ("build", "--crash-date"), ("spectral", "--basin-threshold"),
        ("bayes", "--cpi-level"), ("bayes", "--window-steps"),
    ])
    def test_run_key_flag_is_unknown(self, command, flag):
        r = invoke([command, "--config", "run.cfg", flag, "1"])
        assert r.exit_code == 2
        assert f"No such option '{flag}'" in all_output(r)


class TestNonFiniteSettings:
    """NaN and infinite settings exit 2 before any artifact is written."""

    def test_nan_lag_rejected(self, copy):
        set_keys(copy / "run.cfg", lag_days="nan")
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        r = invoke(["build", "--config", str(copy / "run.cfg")])
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
        set_keys(copy / "run.cfg", basin_threshold=threshold)
        before = snapshot(copy)
        r = invoke(["spectral", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "basin_threshold must be below 1" in all_output(r)
        assert snapshot(copy) == before

    def test_zero_eigenpairs_rejected(self, copy):
        # The report's eigenpair count is a constant, so no flag can ask for zero.
        before = snapshot(copy)
        r = invoke(["spectral", "--config", str(copy / "run.cfg"), "--k-eigs", "0"])
        assert r.exit_code == 2
        assert "No such option '--k-eigs'" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    @pytest.mark.parametrize("days", ["nan", "inf"])
    def test_non_finite_observation_days_rejected(self, copy, command, days):
        (copy / "observations.csv").write_text(
            f"target_label,days_since_crash,name\n1,{days},bad\n", encoding="utf-8")
        before = snapshot(copy)
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"observations.csv:2: days_since_crash must be positive and finite, got {days}" \
            in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    def test_unknown_target_label_rejected(self, copy, command):
        # the case's chains have one debris target
        (copy / "observations.csv").write_text(
            "target_label,days_since_crash,name\n1,50,ok\n2,50,far\n", encoding="utf-8")
        before = snapshot(copy)
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "observation 'far' targets label 2, but the chain has 1 targets" in all_output(r)
        assert snapshot(copy) == before

    def test_invalid_crash_date_flag_rejected(self, copy):
        set_keys(copy / "run.cfg", crash_date="2014-13-01")
        before = snapshot(copy)
        r = invoke(["build", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "crash_date: month must be in 1..12" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    @pytest.mark.parametrize("lon_max", ["42", "48"])
    def test_chains_that_do_not_match_the_grid_rejected(self, copy, command, lon_max):
        # the matrices the chains close were built on 4 boxes; the grid now has 2 or 8
        set_keys(copy / "grid.cfg", lon_max=lon_max)
        before = snapshot(copy)
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "seasonal matrices do not match the configured grid: " in all_output(r)
        assert "matrix_W.txt was built on lon_min=40 lon_max=44 " in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0", "--matrix", "W"]])
    def test_wet_mask_changed_after_build_rejected(self, copy, args):
        # the same bounds as built, so only the state count can tell
        (copy / "mask.csv").write_text("0,0,1\n1,0,1\n2,0,1\n3,0,0\n", encoding="utf-8")
        set_keys(copy / "grid.cfg", wet_mask="mask.csv")
        before = snapshot(copy)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert "seasonal matrices do not match the configured grid: " in all_output(r)
        assert f"matrix_W.txt has 4 states, but {copy / 'grid.cfg'} gives 3" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("records, line, message", [
        ("0,0,1\n1,0,1\n7,5,1\n", 3, "box (7, 5) lies outside the 4 x 1 grid"),
        ("0,0,1\n3,0,1\n1,0,1\n3,0,0\n", 4, "box (3, 0) repeats line 2"),
        ("7,5,1\n", 1, "box (7, 5) lies outside the 4 x 1 grid"),
    ], ids=["outside", "repeated", "only-wet-box-outside"])
    def test_bad_wet_mask_record_names_its_line(self, copy, records, line, message):
        (copy / "mask.csv").write_text(records, encoding="utf-8")
        set_keys(copy / "grid.cfg", wet_mask="mask.csv")
        before = snapshot(copy)
        r = invoke(["build", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"{copy / 'mask.csv'}:{line}: {message}" in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0"]])
    def test_grid_moved_after_build_rejected(self, copy, args):
        # the same 4 boxes as built, one degree east: the box count cannot tell
        set_keys(copy / "grid.cfg", lon_min=41, lon_max=45)
        before = snapshot(copy)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert "matrix_W.txt was built on lon_min=40 lon_max=44 " in all_output(r)
        assert "grid.cfg gives lon_min=41 lon_max=45 " in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0", "--matrix", "W"]])
    def test_lag_changed_after_build_rejected(self, copy, args):
        # still one 90-day season block, so only the matrices' header can tell
        set_keys(copy / "run.cfg", lag_days=3, season_exponent=30)
        before = snapshot(copy)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert "seasonal matrices do not match the run config: " in all_output(r)
        assert ("matrix_W.txt was built with transition_time_days 5, but lag_days is 3; "
                "rerun `driftchain build`") in all_output(r)
        assert snapshot(copy) == before

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0", "--matrix", "W"]])
    def test_crash_date_changed_after_build_rejected(self, copy, args):
        # the season calendar moves, so each matrix's pairs carry the wrong season
        set_keys(copy / "run.cfg", crash_date="2014-08-01")
        before = snapshot(copy)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert "seasonal matrices do not match the run config: " in all_output(r)
        assert ("matrix_W.txt was built with crash_date 2014-03-08, but crash_date is "
                "2014-08-01; rerun `driftchain build`") in all_output(r)
        assert snapshot(copy) == before

    def test_matrix_without_crash_date_line_read_unchecked(self, copy):
        # a file saved without the line, as a grid-less one is
        for season in ("W", "S", "SF"):
            path = copy / f"matrix_{season}.txt"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            assert "crash_date 2014-03-08\n" in lines
            path.write_text("".join(x for x in lines if not x.startswith("crash_date ")),
                            encoding="utf-8")
        set_keys(copy / "run.cfg", crash_date="2014-08-01")
        r = invoke(["spectral", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 0, all_output(r)

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0", "--matrix", "W"]])
    def test_swapped_matrix_files_rejected(self, copy, args):
        (copy / "matrix_W.txt").rename(copy / "matrix_tmp.txt")
        (copy / "matrix_S.txt").rename(copy / "matrix_W.txt")
        (copy / "matrix_tmp.txt").rename(copy / "matrix_S.txt")
        before = snapshot(copy)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert (f"{copy / 'matrix_W.txt'} holds the matrix labelled S, but its name gives "
                "season W; rerun `driftchain build`") in all_output(r)
        assert snapshot(copy) == before

    def test_negative_seed_rejected(self, copy):
        set_keys(copy / "run.cfg", seed=-3)
        before = snapshot(copy)
        r = invoke(["spectral", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert "seed must be nonnegative, got -3" in all_output(r)
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


SPECTRAL_OUTPUTS = ("left_1.csv", "left_2.csv", "right_1.csv", "right_2.csv",
                    "zonal.csv", "basin.geojson", "spectral_report.txt")


class TestSpectral:
    def test_artifacts(self, case):
        for name in SPECTRAL_OUTPUTS:
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
        op = annual_operator(case)
        eigs = spectral.dominant_eigs(op, k=2, tol=1e-10, seed=11)
        basin = spectral.analyze_basin(op, tol=1e-10, seed=11, eigs=eigs)
        assert rep["eigen_products"] == str(eigs.products + basin.products)
        assert float(rep["eigen_max_residual"]) == eigs.max_residual <= 1e-10

    def test_report_counts_block_products(self, case):
        rep = report_dict(case / "spectral_report.txt")
        op = annual_operator(case)
        eigs = spectral.dominant_eigs(op, k=2, tol=1e-10, seed=11)
        basin = spectral.analyze_basin(op, tol=1e-10, seed=11, eigs=eigs)
        assert rep["eigen_block_products"] == str(eigs.block_products + basin.block_products)
        assert 0 < int(rep["eigen_block_products"]) <= int(rep["eigen_products"])

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

    def test_closed_basin_retains_forever(self, tmp_path):
        # every box drifts into box 0 and stays, so the basin leaks nothing
        spec = dict(SPEC, kernels={s: [[1.0, 0.0, 0.0, 0.0]] * 4 for s in ("W", "S", "SF")})
        del spec["source_state"], spec["sample_observations"]
        case = run_pipeline(tmp_path, spec, stages=("build", "spectral"))
        rep = report_dict(case / "spectral_report.txt")
        assert rep["lambda_basin"] == "1"
        assert rep["retention_days"] == rep["retention_years"] == "inf"


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

    def test_repeated_out_of_order_observations_match_single_calls(self, copy):
        # K = 95, 55, 95 at 5 days a step: one shared pass serves all three.
        (copy / "observations.csv").write_text(
            "target_label,days_since_crash,name\n1,475,a\n1,275,b\n1,475,c\n",
            encoding="utf-8")
        r = invoke(["paths", "--config", str(copy / "run.cfg")])
        assert r.exit_code == 0, all_output(r)
        cfg, g = cli._load_run(copy / "run.cfg", None)
        sched = cli._load_schedule(cfg, g)
        sources = sched.roles.candidate_sources
        _, rows = read_csv(copy / "paths_summary.csv")
        assert [row[:3] for row in rows] == [["1", "1", "95"], ["2", "1", "55"], ["3", "1", "95"]]
        for i, row in enumerate(rows, start=1):
            ps = paths.most_probable_path(sched, sources, 1, int(row[2]))
            assert row[3:] == [str(ps.best.source), cli.FMT % ps.best.log_prob]
            features = []
            for source, res in zip(ps.sources, ps.results):
                feat = paths.path_to_geojson(res, g)
                feat["properties"].update(is_best=res is ps.best, source_state=source)
                features.append(feat)
            doc = json.loads((copy / f"paths_obs{i}_target1.geojson").read_text(encoding="utf-8"))
            assert doc == {"type": "FeatureCollection", "features": features,
                           "name": f"target_1_obs_{i}"}


class TestRolesAtRunTime:
    """`bayes` and `paths` close `build`'s matrices with `roles.csv` as it reads when they run."""

    @staticmethod
    def edit_roles(case):
        # move candidate source (1, 0) to (2, 0) and halve the land fraction
        path = case / "roles.csv"
        text = path.read_text(encoding="utf-8").replace("source: 1,0", "source: 2,0")
        path.write_text(text.replace("sticky: 3,0,0.5", "sticky: 3,0,0.25"), encoding="utf-8")

    def test_roles_edited_after_build_take_effect(self, case, tmp_path):
        edited, rebuilt = tmp_path / "edited", tmp_path / "rebuilt"
        shutil.copytree(case, edited)
        shutil.copytree(case, rebuilt)
        self.edit_roles(edited)
        self.edit_roles(rebuilt)
        for directory, commands in ((edited, ["bayes", "paths"]),
                                    (rebuilt, ["build", "bayes", "paths"])):
            for command in commands:
                r = invoke([command, "--config", str(directory / "run.cfg")])
                assert r.exit_code == 0, all_output(r)

        _, rows = read_csv(edited / "posterior.csv")
        assert [float(r[1]) for r in rows] == [40.5, 42.5]
        doc = json.loads((edited / "paths_obs1_target1.geojson").read_text(encoding="utf-8"))
        assert [f["properties"]["source_state"] for f in doc["features"]] == [0, 2]
        # the unmoved candidate's likelihood changes with the land fraction alone
        _, before = read_csv(case / "posterior.csv")
        assert rows[0][2] != before[0][2]
        outputs = sorted(p.name for p in rebuilt.glob("paths_*"))
        assert len(outputs) == 5
        for name in ["posterior.csv", "bayes_summary.txt", *outputs]:
            assert (edited / name).read_bytes() == (rebuilt / name).read_bytes(), name

    @staticmethod
    def chain_file_round_trip(tm, roles, path):
        absorb.save_chain(absorb.augment(tm, roles), path)
        return absorb.load_chain(path)

    @staticmethod
    def assert_bitwise_equal(got, want):
        for key in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, key), getattr(want.matrix, key)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        assert got.matrix.shape == want.matrix.shape
        assert got.roles == want.roles
        assert (got.transition_time, got.label) == (want.transition_time, want.label)

    def test_case_schedule_matches_chain_files(self, case, tmp_path):
        cfg, g = cli._load_run(case / "run.cfg", None)
        sched = cli._load_schedule(cfg, g)
        roles = load_roles(g, cfg.roles)
        for season, chain in sched.chains.items():
            tm = ulam.load_matrix(case / f"matrix_{season.value}.txt")
            want = self.chain_file_round_trip(tm, roles, tmp_path / f"chain_{season.value}.txt")
            self.assert_bitwise_equal(chain, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_schedule_matches_chain_files(self, tmp_path, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 13))
        g = build_grid((0.0, float(n), 0.0, 1.0), cell_size=1.0)
        (tmp_path / "grid.cfg").write_text(
            f"lon_min = 0\nlon_max = {n}\nlat_min = 0\nlat_max = 1\ncell_size = 1\n",
            encoding="utf-8")
        tms = seasonal_tms(rng, n, min_row=0.5, density=rng.uniform(0.1, 1.0))
        for label, tm in tms.items():
            ulam.save_matrix(tm, tmp_path / f"matrix_{label}.txt", grid=g)
        sticky = {int(s): float(rng.uniform(0.01, 0.99))
                  for s in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
        # debris sites may repeat: co-located targets split the landed mass
        roles = make_roles(
            n, leaky=rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist(),
            sticky=sticky, debris=rng.choice(list(sticky), size=int(rng.integers(0, 4))).tolist(),
            candidates=rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist())
        lines = [f"leaky: {s},0" for s in roles.leaky]
        lines += [f"sticky: {s},0,{ell!r}" for s, ell in roles.sticky.items()]
        lines += [f"debris: {s},0,{m}" for m, s in enumerate(roles.debris, start=1)]
        lines += [f"source: {s},0" for s in roles.candidate_sources]
        (tmp_path / "roles.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "run.cfg").write_text("grid = grid.cfg\nroles = roles.csv\nout_dir = .\n",
                                          encoding="utf-8")
        sched = cli._load_schedule(*cli._load_run(tmp_path / "run.cfg", None))
        for season, chain in sched.chains.items():
            want = self.chain_file_round_trip(tms[season.value], roles,
                                              tmp_path / f"chain_{season.value}.txt")
            self.assert_bitwise_equal(chain, want)


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
        # each step is the seasonal matrices' products taken by scipy, bit for bit
        r = invoke(["evolve", "--config", str(case / "run.cfg"),
                    "--state", "1", "--steps", "6", "--matrix", label])
        assert r.exit_code == 0, all_output(r)
        f = np.zeros(4)
        f[1] = 1.0
        m = {s: ulam.load_matrix(case / f"matrix_{s}.txt").matrix for s in ("W", "S", "SF")}
        factors = [m["W"]] * 18 + [m["SF"]] * 18 + [m["S"]] * 18 + [m["SF"]] * 18 \
            if label == "annual" else [m[label]]
        expected = scipy_row_steps(f, factors, 6)
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

    def test_shorter_run_clears_step_files_of_a_longer_one(self, case, copy, tmp_path):
        others = ("evolve_step.csv", "evolve_step2a.csv", "evolve_step0002.txt", "notes.csv")
        for name in others:
            (copy / name).write_text("kept\n", encoding="utf-8")
        for steps in ("2", "1"):
            r = invoke(["evolve", "--config", str(copy / "run.cfg"),
                        "--state", "0", "--steps", steps, "--matrix", "W"])
            assert r.exit_code == 0, all_output(r)
        fresh = tmp_path / "fresh"
        shutil.copytree(case, fresh)
        for old in fresh.glob("evolve_step*.csv"):
            old.unlink()
        r = invoke(["evolve", "--config", str(fresh / "run.cfg"),
                    "--state", "0", "--steps", "1", "--matrix", "W"])
        assert r.exit_code == 0, all_output(r)
        steps = sorted(p.name for p in copy.glob("evolve_step*.csv"))
        assert steps == sorted(["evolve_step0000.csv", "evolve_step0001.csv",
                                "evolve_step.csv", "evolve_step2a.csv"])
        for name in ("evolve_step0000.csv", "evolve_step0001.csv"):
            assert (copy / name).read_bytes() == (fresh / name).read_bytes(), name
        for name in others:
            assert (copy / name).read_text(encoding="utf-8") == "kept\n", name

    @pytest.mark.parametrize("rows, line", [
        ("1_0,0.5\n", 2), ("\u0663,0.5\n", 2), ("3,1_0.5\n", 2), ("\n3,0.25\n\n1_0,0.5\n", 5),
    ], ids=["underscore-state", "arabic-indic-digit", "underscore-mass", "after-blanks"])
    def test_initial_rows_follow_the_matrix_entry_grammar(self, tmp_path, rows, line):
        # 16 states, so Python's int() would read `1_0` as state 10 and `\u0663` as 3.
        walk = walk_case(tmp_path / "walk", side=4)
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n" + rows, encoding="utf-8")
        before = snapshot(walk)
        r = invoke(["evolve", "--config", str(walk / "run.cfg"), "--initial", str(init),
                    "--steps", "0", "--matrix", "W"])
        assert r.exit_code == 2
        assert f"{init}:{line}: malformed row" in all_output(r)
        assert snapshot(walk) == before

    def test_initial_skips_blank_lines(self, copy, tmp_path):
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n\n 3 , 0.25\n\x0b\x0c\n0,0.5\n\n", encoding="utf-8")
        r = invoke(["evolve", "--config", str(copy / "run.cfg"), "--initial", str(init),
                    "--steps", "0", "--matrix", "W"])
        assert r.exit_code == 0, all_output(r)
        _, rows = read_csv(copy / "evolve_step0000.csv")
        assert [float(row[1]) for row in rows] == [0.5, 0.0, 0.0, 0.25]

    @pytest.mark.parametrize("line", ["\x1c", "\x85"], ids=["separator", "next-line"])
    def test_initial_break_line_is_a_row(self, copy, tmp_path, line):
        # str.strip() empties both, but only plain whitespace makes a blank line.
        init = tmp_path / "init.csv"
        init.write_text(f"state,mass\n0,0.5\n{line}\n3,0.25\n", encoding="utf-8")
        r = invoke(["evolve", "--config", str(copy / "run.cfg"), "--initial", str(init),
                    "--steps", "0", "--matrix", "W"])
        assert r.exit_code == 2
        assert f"{init}:3: malformed row" in all_output(r)

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

    @pytest.mark.parametrize("rows, message", [
        ("3,0.25\n3,0.25\n", ": lines 2 and 3 both give state 3"),
        ("0,0.125\n3,0.25\n1,0.5\n3,0.25\n", ": lines 3 and 5 both give state 3"),
        ("3,-0.25\n", ":2: mass '-0.25' is negative"),
        ("3,-0.25\n3,0.5\n", ":2: mass '-0.25' is negative"),
        ("0,0.5\n2, -1e-300\n", ":3: mass '-1e-300' is negative"),
    ], ids=["repeated", "repeated-apart", "negative", "negative-then-repeated", "tiny-negative"])
    def test_repeated_or_negative_row_names_its_line(self, copy, tmp_path, rows, message):
        init = tmp_path / "init.csv"
        init.write_text("state,mass\n" + rows, encoding="utf-8")
        before = snapshot(copy)
        r = invoke(["evolve", "--config", str(copy / "run.cfg"), "--initial", str(init)])
        assert r.exit_code == 2
        assert f"{init}{message}" in all_output(r)
        assert snapshot(copy) == before

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

    @pytest.mark.parametrize("args, message", [
        ([], "provide exactly one of --state or --initial"),
        (["--state", "0", "--initial", "init.csv"], "provide exactly one of --state or --initial"),
        (["--state", "0", "--steps", "-1"], "--steps must be nonnegative"),
        (["--state", "4"], "--state outside 0..3"),
        (["--initial", "init.csv"], "init.csv:2: state 7 outside 0..3"),
    ])
    def test_flags_checked_before_matrices(self, bare_case, tmp_path, monkeypatch,
                                           args, message):
        # no matrix is built here, so each error must come before a matrix is read
        (tmp_path / "init.csv").write_text("state,mass\n7,1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        r = invoke(["evolve", "--config", str(bare_case / "run.cfg"), *args])
        assert r.exit_code == 2
        assert message in all_output(r)
        assert "build" not in all_output(r)

    def test_requires_grid(self, copy):
        # the grid is what says the matrices belong to this run
        run_cfg = copy / "run.cfg"
        lines = run_cfg.read_text(encoding="utf-8").splitlines()
        run_cfg.write_text("".join(f"{line}\n" for line in lines if not line.startswith("grid ")),
                           encoding="utf-8")
        before = snapshot(copy)
        r = invoke(["evolve", "--config", str(run_cfg), "--state", "0"])
        assert r.exit_code == 2
        assert "config is missing required keys: grid" in all_output(r)
        assert snapshot(copy) == before


MALFORMED = "3,x,0.5"
# A malformed triplet line, and a well-formed one whose NaN value parses.
ENTRIES = [pytest.param(MALFORMED, id="malformed"), pytest.param("0,1,nan", id="nan")]


class TestMalformedTriplets:
    @pytest.fixture()
    def corrupt(self, case, tmp_path):
        """Copy of the built case with the line after ``after`` in a file replaced."""

        def make(name, entry=MALFORMED, after="i,j,value\n"):
            copy = tmp_path / "case"
            shutil.copytree(case, copy)
            path = copy / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lineno = lines.index(after) + 2
            lines[lineno - 1] = entry + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            return copy, f"{name}:{lineno}"

        return make

    @pytest.mark.parametrize("args", [["spectral"], ["evolve", "--state", "0"]])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_annual_matrix_exits_2(self, corrupt, args, entry):
        # both read the annual operator's seasonal factors
        copy, where = corrupt("matrix_W.txt", entry)
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        # a NaN entry parses, so the error names the file but not the line
        assert (where if entry == MALFORMED else "matrix_W.txt: ") in all_output(r)

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_chain_exits_2(self, corrupt, command, entry):
        # both close the seasonal matrices into their chains at load
        copy, where = corrupt("matrix_W.txt", entry)
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert (where if entry == MALFORMED else "matrix_W.txt: ") in all_output(r)

    @pytest.mark.parametrize("args", [["spectral"], ["bayes"], ["paths"],
                                      ["evolve", "--state", "0"]])
    def test_blank_line_in_body_exits_2(self, case, tmp_path, args):
        # a blank line must not end the body, dropping every entry after it
        copy = tmp_path / "case"
        shutil.copytree(case, copy)
        path = copy / "matrix_W.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = lines.index("i,j,value\n") + 3  # after the second entry
        lines.insert(lineno - 1, "\n")
        path.write_text("".join(lines), encoding="utf-8")
        r = invoke([args[0], "--config", str(copy / "run.cfg"), *args[1:]])
        assert r.exit_code == 2
        assert f"matrix_W.txt:{lineno}: malformed matrix entry ''" in all_output(r)

    @pytest.mark.parametrize("command", ["bayes", "paths"])
    def test_roles_file_exits_2(self, corrupt, command):
        # the line after the debris record is the first source record
        copy, where = corrupt("roles.csv", entry="source: 0,x", after="debris: 3,0,1\n")
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"{where}: invalid literal for int() with base 10: 'x'" in all_output(r)

    @pytest.mark.parametrize("name, command", [("matrix_W.txt", "spectral"),
                                               ("matrix_W.txt", "bayes")])
    def test_repeated_entry_exits_2(self, case, corrupt, name, command):
        # the second entry line repeats the first one's (i, j); the earlier reader summed them
        lines = (case / name).read_text(encoding="utf-8").splitlines(keepends=True)
        first = lines.index("i,j,value\n") + 1
        i, j, _ = lines[first].split(",")
        copy, _ = corrupt(name, entry=f"{i},{j},0.25", after=lines[first])
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"{name}: lines {first + 1} and {first + 2} both give entry ({i}, {j})" \
            in all_output(r)

    @pytest.mark.parametrize("name, command", [("matrix_W.txt", "spectral"),
                                               ("matrix_W.txt", "bayes")])
    def test_nan_in_place_of_a_value_exits_2(self, case, corrupt, name, command):
        # ENTRIES' "0,1,nan" repeats entry (0, 1), so it stops at the repeat rule;
        # here NaN replaces the first entry's value and no (i, j) repeats
        lines = (case / name).read_text(encoding="utf-8").splitlines()
        i, j, _ = lines[lines.index("i,j,value") + 1].split(",")
        copy, _ = corrupt(name, entry=f"{i},{j},nan")
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert f"{name}: " in all_output(r) and "entries must be finite" in all_output(r)

    @pytest.mark.parametrize("name, command", [("matrix_W.txt", "spectral"),
                                               ("matrix_W.txt", "bayes")])
    def test_negative_entry_exits_2(self, corrupt, name, command):
        # row 0 has no other entry in column 3, so the parsed value stays negative
        copy, _ = corrupt(name, entry="0,3,-0.5")
        r = invoke([command, "--config", str(copy / "run.cfg")])
        assert r.exit_code == 2
        assert name in all_output(r)


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one command in a fresh interpreter, then prints every module loaded
# and exits with the command's code.
RUN_COMMAND = """
import sys
from driftchain.cli import main
try:
    main(sys.argv[1:])
finally:
    print(*sorted(sys.modules))
"""


# Runs one command in a fresh interpreter, then prints its OpenBLAS thread
# setting and how many threads the process holds.
BLAS_THREADS = """
import os, sys
from driftchain.cli import main
try:
    main(sys.argv[1:])
finally:
    tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 0
    print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""


def run_fresh(script: str, *args, env_changes=None, exit_code=0) -> str:
    """Run ``script`` in a new interpreter, which must exit with ``exit_code``;
    ``env_changes`` sets variables, None unsets."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for key, value in (env_changes or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    r = subprocess.run([sys.executable, "-c", script, *args], env=env,
                       capture_output=True, text=True)
    assert r.returncode == exit_code, r.stdout + r.stderr
    return r.stdout


def loaded_modules(*args, exit_code=0) -> set[str]:
    """The modules loaded by one fresh run of the CLI, which must exit with ``exit_code``."""
    return set(run_fresh(RUN_COMMAND, *args, exit_code=exit_code).splitlines()[-1].split())


def scipy_loaded(*args) -> bool:
    """Whether one fresh run of the CLI leaves any ``scipy*`` module in ``sys.modules``."""
    return any(m.startswith("scipy") for m in loaded_modules(*args))


COMMANDS = ("synth", "build", "spectral", "bayes", "paths", "evolve")

#: The modules that only some commands run.
COMMAND_MODULES = ("absorb", "schedule", "bayes", "paths", "spectral", "synth")


class TestStartUp:
    """No command imports scipy: every product runs scipy's compiled loops,
    loaded by path without the ``scipy.sparse`` package.  Dispatch alone
    (help, usage errors) loads no numpy, and each command only the modules
    it runs."""

    def test_package_import_leaves_scipy_out(self):
        assert not scipy_loaded("--help")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        r = subprocess.run([sys.executable, "-c",
                            "import sys, driftchain; print('scipy' in sys.modules)"],
                           env=env, capture_output=True, text=True, check=True)
        assert r.stdout.strip() == "False"

    @pytest.mark.parametrize("command", ["build", "paths", "evolve", "spectral", "bayes"])
    def test_no_command_loads_scipy(self, copy, command):
        extra = ["--state", "0", "--steps", "2"] if command == "evolve" else []
        assert not scipy_loaded(command, "--config", str(copy / "run.cfg"), *extra)

    def test_kernels_are_the_extension_scipy_imports(self):
        # Loaded first by path, then by scipy: one extension, not a second copy.
        # The module objects differ (CPython copies a single-phase extension's
        # namespace into a new module on a second load) but its functions do not.
        script = (
            "import sys, numpy as np\n"
            "from driftchain import csr\n"
            "m = csr.Csr.from_entries([0, 1], [1, 0], [0.5, 2.0], (2, 2))\n"
            "y = m.T @ np.ones((2, 3))\n"
            "names = ('csr_matvec', 'csr_matvecs', 'csc_matvec', 'csc_matvecs')\n"
            "print(any(n.startswith('scipy') for n in sys.modules))\n"
            "import scipy.sparse._sparsetools as st\n"
            "import scipy.sparse\n"
            "print(scipy.sparse._sparsetools is st,\n"
            "      all(getattr(st, n) is getattr(csr._sparsetools(), n) for n in names),\n"
            "      (scipy.sparse.csr_matrix(m.toarray()).T @ np.ones((2, 3))).tobytes()\n"
            "      == y.tobytes())\n"
        )
        assert run_fresh(script) == "False\nTrue True True\n"
        # with scipy loaded first, its own module is the one used
        assert csr._sparsetools() is sys.modules["scipy.sparse._sparsetools"]

    @pytest.mark.parametrize("command", ["build", "spectral", "paths", "evolve", "bayes"])
    def test_command_leaves_numpy_ma_out(self, copy, command):
        # numpy.ma costs about 15 ms to import, and scipy.sparse is what imported it.
        extra = ["--state", "0", "--steps", "2"] if command == "evolve" else []
        assert "numpy.ma" not in loaded_modules(command, "--config", str(copy / "run.cfg"),
                                                *extra)

    def test_package_import_leaves_numpy_out(self):
        assert run_fresh("import sys, driftchain; print('numpy' in sys.modules)") == "False\n"

    @pytest.mark.parametrize("args, exit_code", [
        (["--help"], 0),
        *(([command, "--help"], 0) for command in COMMANDS),
        (["build"], 2),   # usage error: --config is required
    ], ids=["help", *(f"{command}-help" for command in COMMANDS), "usage-error"])
    def test_dispatch_leaves_numpy_out(self, args, exit_code):
        modules = loaded_modules(*args, exit_code=exit_code)
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("driftchain.")} == {
            "driftchain.cli", "driftchain.errors"}

    @pytest.mark.parametrize("command, runs", [
        ("build", set()), ("evolve", set()), ("spectral", {"spectral"}),
        ("bayes", {"absorb", "schedule", "bayes"}),
        ("paths", {"absorb", "schedule", "bayes", "paths"}),
    ])
    def test_command_loads_only_what_it_runs(self, copy, command, runs):
        extra = ["--state", "0", "--steps", "2"] if command == "evolve" else []
        modules = loaded_modules(command, "--config", str(copy / "run.cfg"), *extra)
        assert {m for m in COMMAND_MODULES if f"driftchain.{m}" in modules} == runs

    @pytest.mark.parametrize("label", ["annual", "W"])
    def test_evolve_runs_without_scipy(self, case, copy, label):
        # A fresh run loads the kernels by path; this process has scipy's own module.
        assert not scipy_loaded("evolve", "--config", str(copy / "run.cfg"), "--state", "1",
                                "--steps", "3", "--matrix", label)
        r = invoke(["evolve", "--config", str(case / "run.cfg"), "--state", "1",
                    "--steps", "3", "--matrix", label])
        assert r.exit_code == 0, all_output(r)
        for k in range(4):
            name = f"evolve_step{k:04d}.csv"
            assert (copy / name).read_bytes() == (case / name).read_bytes(), name

    def test_spectral_runs_without_scipy(self, case, copy):
        for name in SPECTRAL_OUTPUTS:
            (copy / name).unlink()
        assert not scipy_loaded("spectral", "--config", str(copy / "run.cfg"))
        # the case's own files were written by an in-process run
        assert snapshot(copy) == snapshot(case)

    @pytest.mark.parametrize("command", ["evolve", "spectral"])
    def test_commands_run_one_blas_thread(self, copy, command):
        # OpenBLAS's worker busy-waits after numpy loads, taking CPU time from
        # the command; a value the caller set is kept.
        extra = ["--state", "0", "--steps", "2"] if command == "evolve" else []
        args = [command, "--config", str(copy / "run.cfg"), *extra]
        # An in-process import of `cli` may have set the variable here.
        threads, tasks = run_fresh(BLAS_THREADS, *args, env_changes={
            "OPENBLAS_NUM_THREADS": None}).splitlines()[-1].split()
        assert threads == "1"
        if sys.platform == "linux":
            assert tasks == "1"
        threads, _ = run_fresh(BLAS_THREADS, *args, env_changes={
            "OPENBLAS_NUM_THREADS": "2"}).splitlines()[-1].split()
        assert threads == "2"

    def test_synth_leaves_scipy_out(self, case, tmp_path):
        assert not scipy_loaded("synth", "--spec", str(case.parent / "spec.json"),
                                "--out", str(tmp_path / "synth"))


def walk_case(root: Path, side: int = 24) -> Path:
    """A case for `spectral` alone on a side x side grid of 1-degree boxes.

    Each season is a lazy nearest-neighbour walk with random weights, 30
    times heavier on staying, that keeps 99.9 % of the mass a step.  It
    mixes so slowly that both Krylov solves fill their 64-vector basis and
    restart, and a product of a vector with the basis (64 x 576) is past
    the size at which OpenBLAS threads one.
    """
    g = build_grid((40.0, 40.0 + side, -30.0, -30.0 + side), cell_size=1.0)
    rng = np.random.default_rng(5)
    col, row = np.divmod(np.arange(g.n_states), side)
    rows, cols, weights = [], [], []
    for dc, dr in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        inside = (0 <= col + dc) & (col + dc < side) & (0 <= row + dr) & (row + dr < side)
        rows.append(np.flatnonzero(inside))
        cols.append(((col + dc) * side + row + dr)[inside])
        weights.append(np.full(inside.sum(), 30.0 if dc == dr == 0 else 1.0))
    rows, cols, weights = map(np.concatenate, (rows, cols, weights))
    root.mkdir()
    for label in ("W", "S", "SF"):
        vals = rng.random(len(rows)) * weights
        vals *= 0.999 / np.bincount(rows, weights=vals)[rows]
        tm = ulam.TransitionMatrix(
            matrix=Csr.from_entries(rows, cols, vals, (g.n_states, g.n_states)),
            transition_time=5.0, label=label)
        ulam.save_matrix(tm, root / f"matrix_{label}.txt", grid=g, crash_date=date(2014, 3, 8))
    (root / "grid.cfg").write_text(
        f"lon_min = 40\nlon_max = {40 + side}\nlat_min = -30\nlat_max = {side - 30}\n"
        "cell_size = 1\n", encoding="utf-8")
    (root / "run.cfg").write_text(
        "grid = grid.cfg\nlag_days = 5\ncrash_date = 2014-03-08\nseason_exponent = 18\n"
        "seed = 11\nout_dir = .\n", encoding="utf-8")
    return root


class TestDeterminism:
    def test_spectral_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            case = walk_case(tmp_path / f"threads_{threads}")
            run_fresh(RUN_COMMAND, "spectral", "--config", str(case / "run.cfg"),
                      env_changes={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None})
            outputs.append({name: (case / name).read_bytes() for name in SPECTRAL_OUTPUTS})
        assert outputs[0] == outputs[1]

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
