from datetime import date
from pathlib import Path

import pytest

from driftchain.config import RunConfig, load_config, load_grid_config
from driftchain.errors import ConfigError


def write_inputs(tmp_path):
    (tmp_path / "grid.cfg").write_text(
        "lon_min = 40\nlon_max = 42\nlat_min = -31\nlat_max = -30\ncell_size = 1\n"
    )
    (tmp_path / "tracks.csv").write_text("id,time_days,lon,lat\n0,0,40.5,-30.5\n")
    (tmp_path / "roles.csv").write_text("sticky: 1,0,0.5\ndebris: 1,0,1\nsource: 0,0\n")
    (tmp_path / "obs.csv").write_text("target_label,days_since_crash,name\n1,10,x\n")


def write_config(tmp_path, body):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    return cfg


class TestRunConfig:
    def test_full_file(self, tmp_path):
        write_inputs(tmp_path)
        cfg_path = write_config(
            tmp_path,
            "# a pipeline run\n"
            "grid = grid.cfg\n"
            "trajectories = tracks.csv\n"
            "roles = roles.csv\n"
            "observations = obs.csv\n"
            "lag_days = 4.5\n"
            "season_exponent = 20\n"
            "crash_date = 2014-03-08\n"
            "seed = 7\n"
            "out_dir = results\n"
            "cpi_level = 0.9\n",
        )
        cfg = load_config(cfg_path)
        assert cfg.grid == tmp_path / "grid.cfg"
        assert cfg.lag_days == 4.5
        assert cfg.season_exponent == 20
        assert cfg.crash_date == date(2014, 3, 8)
        assert cfg.seed == 7
        assert cfg.out_dir == tmp_path / "results"
        assert cfg.cpi_level == 0.9

    def test_paths_resolve_relative_to_config(self, tmp_path):
        sub = tmp_path / "deeper"
        sub.mkdir()
        write_inputs(sub)
        cfg_path = write_config(sub, "grid = grid.cfg\n")
        cfg = load_config(cfg_path)
        assert cfg.grid == sub / "grid.cfg"

    def test_overrides_win_but_none_ignored(self, tmp_path):
        write_inputs(tmp_path)
        cfg_path = write_config(tmp_path, "grid = grid.cfg\nout_dir = results\n")
        assert load_config(cfg_path, out_dir=None).out_dir == tmp_path / "results"
        assert load_config(cfg_path, out_dir=tmp_path / "x").out_dir == tmp_path / "x"

    def test_string_overrides_parsed_like_file_values(self, tmp_path):
        write_inputs(tmp_path)
        cfg_path = write_config(tmp_path, "grid = grid.cfg\n")
        cfg = load_config(cfg_path, out_dir="elsewhere")
        # a path given to the loader stays relative to the working directory
        assert cfg.out_dir == Path("elsewhere")

    @pytest.mark.parametrize("key, value, message", [
        ("crash_date", "2014-13-01", "month must be in 1..12"),
        ("seed", "x1", "invalid literal for int() with base 10: 'x1'"),
        ("eigen_tol", "tiny", "could not convert string to float: 'tiny'"),
    ], ids=["date", "int", "float"])
    def test_malformed_value_names_line_and_key(self, tmp_path, key, value, message):
        write_inputs(tmp_path)
        cfg_path = write_config(tmp_path, f"grid = grid.cfg\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            load_config(cfg_path)
        assert str(err.value) == f"{cfg_path}:2: {key}: {message}"

    def test_unknown_and_duplicate_keys(self, tmp_path):
        bad = write_config(tmp_path, "wavelength = 5\n")
        with pytest.raises(ConfigError):
            load_config(bad)
        dup = write_config(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            load_config(dup)
        nosep = write_config(tmp_path, "seed 1\n")
        with pytest.raises(ConfigError):
            load_config(nosep)

    def test_lag_must_tile_season_block(self):
        with pytest.raises(ConfigError):
            RunConfig(lag_days=7.0)
        with pytest.raises(ConfigError):
            RunConfig(lag_days=5.0, season_exponent=17)
        # 4.5 x 20 = 90: fine.
        RunConfig(lag_days=4.5, season_exponent=20)

    def test_missing_input_file_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, "trajectories = nope.csv\n")
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_require_lists_missing_keys(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError) as err:
            cfg.require("grid", "roles")
        assert "grid" in str(err.value)
        assert "roles" in str(err.value)

    def test_numeric_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(cpi_level=1.0)
        with pytest.raises(ConfigError):
            RunConfig(window_steps=-1)
        with pytest.raises(ConfigError):
            RunConfig(eigen_tol=0.0)
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -3"):
            RunConfig(seed=-3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["lag_days", "eigen_tol", "basin_threshold"])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RunConfig(**{key: value})

    def test_malformed_number_reported(self, tmp_path):
        bad = write_config(tmp_path, "lag_days = five\n")
        with pytest.raises(ConfigError):
            load_config(bad)


class TestGridConfig:
    def test_build(self, tmp_path):
        write_inputs(tmp_path)
        g = load_grid_config(tmp_path / "grid.cfg")
        assert g.n_states == 2
        assert g.cell_size == 1.0

    def test_wet_mask_reference(self, tmp_path):
        (tmp_path / "mask.csv").write_text("0,0,1\n1,0,0\n")
        (tmp_path / "grid.cfg").write_text(
            "lon_min = 0\nlon_max = 2\nlat_min = 0\nlat_max = 1\n"
            "cell_size = 1\nwet_mask = mask.csv\n"
        )
        g = load_grid_config(tmp_path / "grid.cfg")
        assert g.n_states == 1

    def test_malformed_value_names_line_and_key(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("lon_min = 40\nlon_max = east\nlat_min = -31\nlat_max = -30\n"
                        "cell_size = 1\n")
        with pytest.raises(ConfigError) as err:
            load_grid_config(path)
        assert str(err.value) == f"{path}:2: lon_max: could not convert string to float: 'east'"

    def test_missing_keys_rejected(self, tmp_path):
        (tmp_path / "grid.cfg").write_text("lon_min = 0\n")
        with pytest.raises(ConfigError):
            load_grid_config(tmp_path / "grid.cfg")
