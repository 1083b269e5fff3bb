"""Run configuration: the key = value files driving the CLI.

Paths inside a config file resolve relative to the file's own directory,
so a run directory can be moved or copied wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

from .errors import ConfigError
from .grid import GridCovering, build_grid, load_wet_mask
from .ingest import DEFAULT_EPOCH

_RUN_KEYS = {
    "grid", "trajectories", "roles", "observations", "lag_days", "crash_date",
    "season_exponent", "eigen_tol", "eigen_max_iter", "seed", "out_dir",
    "basin_threshold", "cpi_level", "window_steps",
}

_GRID_KEYS = {"lon_min", "lon_max", "lat_min", "lat_max", "cell_size", "wet_mask"}

#: The annual operator applies each seasonal matrix season_exponent times,
#: so the lag must tile the 90-day season block exactly.
SEASON_BLOCK_DAYS = 90.0


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
        for name in ("grid", "trajectories", "roles", "observations"):
            p = getattr(self, name)
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"{name} file does not exist: {p}")

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                "config is missing required keys: " + ", ".join(sorted(missing))
            )


def _parse_kv(path: str | Path, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key = key.strip()
            if key not in allowed:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a run config file; keyword overrides (from CLI flags) win.

    Overrides valued None are ignored so flags can default to
    "not given".
    """
    path = Path(path)
    raw = _parse_kv(path, _RUN_KEYS)
    base = path.parent
    kwargs: dict = {}
    try:
        for key in ("grid", "trajectories", "roles", "observations"):
            if key in raw:
                kwargs[key] = base / raw[key]
        if "out_dir" in raw:
            kwargs["out_dir"] = base / raw["out_dir"]
        if "lag_days" in raw:
            kwargs["lag_days"] = float(raw["lag_days"])
        if "crash_date" in raw:
            kwargs["crash_date"] = date.fromisoformat(raw["crash_date"])
        for key in ("season_exponent", "eigen_max_iter", "seed", "window_steps"):
            if key in raw:
                kwargs[key] = int(raw[key])
        for key in ("eigen_tol", "basin_threshold", "cpi_level"):
            if key in raw:
                kwargs[key] = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    cfg = RunConfig(**kwargs)
    live = {k: v for k, v in overrides.items() if v is not None}
    if live:
        for key in ("grid", "trajectories", "roles", "observations", "out_dir"):
            if key in live:
                live[key] = Path(live[key])
        cfg = replace(cfg, **live)
    return cfg


def load_grid_config(path: str | Path) -> GridCovering:
    """Build the grid described by a `key = value` grid file."""
    path = Path(path)
    raw = _parse_kv(path, _GRID_KEYS)
    missing = [k for k in ("lon_min", "lon_max", "lat_min", "lat_max", "cell_size")
               if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing grid keys: {', '.join(missing)}")
    try:
        bounds = (
            float(raw["lon_min"]), float(raw["lon_max"]),
            float(raw["lat_min"]), float(raw["lat_max"]),
        )
        cell = float(raw["cell_size"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    wet = None
    if "wet_mask" in raw:
        wet = load_wet_mask(path.parent / raw["wet_mask"])
    return build_grid(bounds, cell, wet_mask=wet)
