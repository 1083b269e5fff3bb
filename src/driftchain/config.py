"""Run configuration: the key = value files driving the CLI.

Paths inside a config file resolve relative to the file's own directory,
so a run directory can be moved or copied wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .errors import ConfigError
from .grid import GridCovering, build_grid
from .ingest import DEFAULT_EPOCH, SEASON_BLOCK_DAYS
from .textio import is_blank, read_lines


def _input_file(text: str) -> Path:
    """Path of an input file, which ``RunConfig`` requires to exist."""
    return Path(text)


#: Each run key and the parser of its text.  Path values resolve against
#: the directory of the config file they come from.
_RUN_KEYS = {
    "grid": _input_file, "trajectories": _input_file, "roles": _input_file,
    "observations": _input_file, "out_dir": Path, "lag_days": float,
    "crash_date": date.fromisoformat, "season_exponent": int, "eigen_max_iter": int,
    "seed": int, "window_steps": int, "eigen_tol": float, "basin_threshold": float,
    "cpi_level": float,
}

_GRID_KEYS = {"lon_min", "lon_max", "lat_min", "lat_max", "cell_size", "wet_mask"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with resolved input paths."""

    grid: Path | None = None
    trajectories: Path | None = None
    roles: Path | None = None
    observations: Path | None = None
    lag_days: float = 5.0
    crash_date: date = DEFAULT_EPOCH
    season_exponent: int = 18
    eigen_tol: float = 1e-10
    eigen_max_iter: int = 100_000
    seed: int = 0
    out_dir: Path = Path("out")
    basin_threshold: float = 0.5
    cpi_level: float = 0.95
    window_steps: int = 0

    def __post_init__(self):
        # NaN makes every comparison below false, so none of them would catch it.
        for name in ("lag_days", "eigen_tol", "basin_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lag_days <= 0:
            raise ConfigError(f"lag_days must be positive, got {self.lag_days}")
        block = self.season_exponent * self.lag_days
        if self.season_exponent < 1 or abs(block - SEASON_BLOCK_DAYS) > 1e-9:
            raise ConfigError(
                f"season_exponent x lag_days must equal {SEASON_BLOCK_DAYS:g} days "
                f"(one season block), got {self.season_exponent} x {self.lag_days} = {block:g}"
            )
        # Right vectors peak at exactly 1, so a threshold of 1 or more
        # leaves the basin empty.
        if self.basin_threshold >= 1:
            raise ConfigError(f"basin_threshold must be below 1, got {self.basin_threshold}")
        if not 0 < self.cpi_level < 1:
            raise ConfigError(f"cpi_level must be in (0, 1), got {self.cpi_level}")
        if self.window_steps < 0:
            raise ConfigError("window_steps must be nonnegative")
        if self.eigen_tol <= 0 or self.eigen_max_iter < 1:
            raise ConfigError("eigen_tol must be positive and eigen_max_iter >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for name, parse in _RUN_KEYS.items():
            p = getattr(self, name)
            if parse is _input_file and p is not None and not Path(p).is_file():
                raise ConfigError(f"{name} file does not exist: {p}")

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                "config is missing required keys: " + ", ".join(sorted(missing))
            )


def _parse_kv(path: str | Path, allowed: set[str]) -> dict[str, tuple[int, str]]:
    """Each key's line number and value text.

    A line blank (:func:`textio.is_blank`) before its first `#` is skipped.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if is_blank(line.partition("#")[0]):
            continue
        key, sep, value = line.strip().partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, "
                              f"first given on line {values[key][0]}")
        values[key] = (lineno, value.strip())
    return values


def _parse_value(path: Path, raw: dict[str, tuple[int, str]], key: str, parse):
    """``key``'s text parsed; a malformed value names its line and key."""
    lineno, text = raw[key]
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None


def load_config(path: str | Path, out_dir: str | Path | None = None) -> RunConfig:
    """Parse a run config file; ``out_dir``, if given, replaces its output directory.

    ``out_dir`` stays relative to the working directory.
    """
    path = Path(path)
    raw = _parse_kv(path, set(_RUN_KEYS))
    kwargs: dict = {}
    for key in raw:
        value = _parse_value(path, raw, key, _RUN_KEYS[key])
        kwargs[key] = path.parent / value if isinstance(value, Path) else value
    if out_dir is not None:
        kwargs["out_dir"] = Path(out_dir)
    return RunConfig(**kwargs)


def load_grid_config(path: str | Path) -> GridCovering:
    """Build the grid described by a `key = value` grid file."""
    path = Path(path)
    raw = _parse_kv(path, _GRID_KEYS)
    missing = [k for k in ("lon_min", "lon_max", "lat_min", "lat_max", "cell_size")
               if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing grid keys: {', '.join(missing)}")
    bounds = tuple(_parse_value(path, raw, k, float)
                   for k in ("lon_min", "lon_max", "lat_min", "lat_max"))
    cell = _parse_value(path, raw, "cell_size", float)
    mask = None
    if "wet_mask" in raw:
        lineno, text = raw["wet_mask"]
        mask = path.parent / text
        if not mask.is_file():  # an empty value names the grid file's directory
            raise ConfigError(f"{path}:{lineno}: wet_mask: no file at {mask}")
    return build_grid(bounds, cell, mask)
