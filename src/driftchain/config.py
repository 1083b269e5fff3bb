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
        fault = next(_run_faults(self), None)
        if fault is not None:
            raise _RunValueError(*fault)

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                "config is missing required keys: " + ", ".join(sorted(missing))
            )


class _RunValueError(ConfigError):
    """A run value that breaks its rule; ``keys`` are the run keys whose
    line names it, the first one a file sets."""

    def __init__(self, keys: tuple[str, ...], message: str):
        super().__init__(message)
        self.keys = keys


def _run_faults(c: RunConfig):
    """Each rule that ``c``'s values break, in the order checked, as the run
    keys that name it and the message."""
    # NaN makes every comparison below false, so none of them would catch it.
    for key in ("lag_days", "eigen_tol", "basin_threshold"):
        if not math.isfinite(getattr(c, key)):
            yield (key,), f"{key} must be finite, got {getattr(c, key)}"
    if c.lag_days <= 0:
        yield ("lag_days",), f"lag_days must be positive, got {c.lag_days}"
    block = c.season_exponent * c.lag_days
    if c.season_exponent < 1 or abs(block - SEASON_BLOCK_DAYS) > 1e-9:
        yield ("season_exponent", "lag_days"), (
            f"season_exponent x lag_days must equal {SEASON_BLOCK_DAYS:g} days "
            f"(one season block), got {c.season_exponent} x {c.lag_days} = {block:g}")
    # Right vectors peak at exactly 1, so a threshold of 1 or more leaves
    # the basin empty.
    if c.basin_threshold >= 1:
        yield ("basin_threshold",), f"basin_threshold must be below 1, got {c.basin_threshold}"
    if not 0 < c.cpi_level < 1:
        yield ("cpi_level",), f"cpi_level must be in (0, 1), got {c.cpi_level}"
    if c.window_steps < 0:
        yield ("window_steps",), f"window_steps must be nonnegative, got {c.window_steps}"
    if c.eigen_tol <= 0:
        yield ("eigen_tol",), f"eigen_tol must be positive, got {c.eigen_tol}"
    if c.eigen_max_iter < 1:
        yield ("eigen_max_iter",), f"eigen_max_iter must be at least 1, got {c.eigen_max_iter}"
    if c.seed < 0:
        yield ("seed",), f"seed must be nonnegative, got {c.seed}"
    for key, parse in _RUN_KEYS.items():
        p = getattr(c, key)
        if parse is _input_file and p is not None and not Path(p).is_file():
            yield (key,), f"{key}: no file at {p}"


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
    try:
        return RunConfig(**kwargs)
    except _RunValueError as exc:
        # Every default keeps every rule, so one of the rule's keys is set.
        key = next(k for k in exc.keys if k in raw)
        raise ConfigError(f"{path}:{raw[key][0]}: {exc}") from None


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
