"""Command-line pipeline: synth -> build -> spectral / bayes / paths / evolve.

Every command reads plain input files, writes plain output files into the
configured output directory, and prints a short summary.  Outputs are
deterministic for fixed inputs: floats carry 17 significant digits, JSON
keys are sorted, and no timestamps or absolute paths are embedded.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
from datetime import date
from pathlib import Path

import click
import numpy as np
import scipy.sparse as sparse

from . import absorb, bayes, paths, spectral, synth, ulam
from .config import SEASON_BLOCK_DAYS, RunConfig, load_config, load_grid_config
from .errors import ConfigError, NumericalError
from .grid import GridCovering, StateRoles, load_roles
from .ingest import Season, extract_pairs, parse_trajectories, season_split
from .schedule import SeasonalSchedule

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    """Map domain exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            _fail(2, str(exc))
        except (FileNotFoundError, PermissionError) as exc:
            _fail(2, str(exc))
        except NumericalError as exc:
            _fail(3, str(exc))

    return wrapper


def config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="Run config file.")(fn)
    fn = click.option("--out", "out_dir", default=None, type=click.Path(),
                      help="Override the output directory.")(fn)
    return fn


@click.group()
def main():
    """Trajectory-derived Markov-chain drift analysis."""


def _outdir(cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def _matrix_path(cfg: RunConfig, label: str) -> Path:
    return cfg.out_dir / f"matrix_{label}.txt"


def _load_matrix(cfg: RunConfig, label: str) -> ulam.TransitionMatrix:
    path = _matrix_path(cfg, label)
    if not path.is_file():
        raise ConfigError(f"missing {path}; run `driftchain build` first")
    return ulam.load_matrix(path)


def _load_annual(cfg: RunConfig) -> ulam.AnnualOperator:
    """The annual operator over the seasonal matrices that `build` wrote."""
    w, s, sf = (_load_matrix(cfg, season.value) for season in (Season.W, Season.S, Season.SF))
    try:
        return ulam.annual_operator(w, s, sf, exponent=cfg.season_exponent)
    except ValueError as exc:
        # matrix files from different runs mixed in one output directory
        raise ConfigError(str(exc)) from None


def _chain_path(cfg: RunConfig, season: Season) -> Path:
    return cfg.out_dir / f"chain_{season.value}.txt"


def _load_schedule(cfg: RunConfig) -> SeasonalSchedule:
    chains = {}
    for season in Season:
        p = _chain_path(cfg, season)
        if not p.is_file():
            raise ConfigError(f"missing {p}; run `driftchain build` first")
        chains[season] = absorb.load_chain(p)
    try:
        return SeasonalSchedule(chains=chains, start_date=cfg.crash_date)
    except ValueError as exc:
        # chain files from different runs mixed in one output directory
        raise ConfigError(str(exc)) from None


def _load_grid(cfg: RunConfig) -> GridCovering:
    cfg.require("grid")
    return load_grid_config(cfg.grid)


# ----------------------------------------------------------------- build

@main.command()
@config_options
@click.option("--lag-days", default=None, type=float, help="Override the transition time.")
@click.option("--crash-date", default=None, type=str, help="Override the time origin (ISO date).")
@handle_errors
def build(config_path, out_dir, lag_days, crash_date):
    """Estimate seasonal matrices, augment them with absorbing states, save."""
    cfg = load_config(config_path, out_dir=out_dir, lag_days=lag_days,
                      crash_date=None if crash_date is None else date.fromisoformat(crash_date))
    cfg.require("grid", "trajectories", "roles")
    g = _load_grid(cfg)
    roles = load_roles(g, cfg.roles)
    trajectories, report = parse_trajectories(cfg.trajectories)
    pairs = extract_pairs(trajectories, g, cfg.lag_days, epoch=cfg.crash_date)
    by_season = season_split(pairs)

    out = _outdir(cfg)
    tms = {}
    lines = [
        "# build report",
        f"n_states {g.n_states}",
        f"lag_days {_fmt(cfg.lag_days)}",
        f"drifters {report.n_drifters}",
        f"total_rows {report.total_rows}",
        f"valid_rows {report.valid_rows}",
        f"skipped_rows {report.skipped_rows}",
        f"drogued_dropped {report.drogued_dropped}",
        f"duplicate_times {report.duplicate_times}",
        f"total_pairs {len(pairs)}",
    ]
    for season in Season:
        tm = ulam.estimate(by_season[season], g.n_states, cfg.lag_days, season.value)
        tms[season] = tm
        ulam.save_matrix(tm, _matrix_path(cfg, season.value))
        sums = tm.row_sums()
        lines += [
            f"pairs_{season.value} {len(by_season[season])}",
            f"nnz_{season.value} {tm.matrix.nnz}",
            f"empty_row_fraction_{season.value} {_fmt(tm.empty_row_fraction())}",
            f"row_sum_min_{season.value} {_fmt(sums.min())}",
            f"row_sum_max_{season.value} {_fmt(sums.max())}",
        ]

    lines.append(f"annual_transition_days {_fmt(4 * cfg.season_exponent * cfg.lag_days)}")

    for season in Season:
        chain = absorb.augment(tms[season], roles)
        absorb.save_chain(chain, _chain_path(cfg, season))

    report_path = out / "build_report.txt"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"built {len(tms)} matrices and {len(list(Season))} chains in {out}")


# -------------------------------------------------------------- spectral

@main.command("spectral")
@config_options
@click.option("--basin-threshold", default=None, type=float,
              help="Right-eigenvector level defining the basin (default 0.5).")
@click.option("--k-eigs", default=2, type=click.IntRange(min=1), show_default=True,
              help="Number of eigenpairs to compute.")
@handle_errors
def spectral_cmd(config_path, out_dir, basin_threshold, k_eigs):
    """Eigenpairs, basin of attraction, and retention time of the annual map."""
    cfg = load_config(config_path, out_dir=out_dir, basin_threshold=basin_threshold)
    g = _load_grid(cfg)
    op = _load_annual(cfg)
    if op.n_states != g.n_states:
        raise ConfigError("seasonal matrices do not match the configured grid")

    out = _outdir(cfg)
    eigs = spectral.dominant_eigs(op, k=k_eigs, tol=cfg.eigen_tol,
                                  max_iter=cfg.eigen_max_iter, seed=cfg.seed)
    for i in range(len(eigs.eigenvalues)):
        _write_state_csv(out / f"left_{i + 1}.csv", g, eigs.left_vectors[i])
        _write_state_csv(out / f"right_{i + 1}.csv", g, eigs.right_vectors[i])

    basin = spectral.analyze_basin(op, threshold=cfg.basin_threshold,
                                   tol=cfg.eigen_tol, max_iter=cfg.eigen_max_iter,
                                   seed=cfg.seed, eigs=eigs)
    profile = spectral.zonal_profile(np.real(eigs.right_vectors[0]), g)
    with open(out / "zonal.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lat,mean,deriv\n")
        for lat, mean, deriv in zip(profile.latitudes, profile.mean, profile.derivative):
            fh.write(f"{_fmt(lat)},{_fmt(mean)},{_fmt(deriv)}\n")

    _write_basin_geojson(out / "basin.geojson", g, basin)

    retention = basin.retention_time
    lines = ["# spectral report"]
    for i, lam in enumerate(eigs.eigenvalues):
        tag = " (complex pair)" if eigs.is_complex_pair[i] else ""
        conv = "converged" if eigs.converged[i] else "NOT CONVERGED"
        lines.append(f"lambda_{i + 1}_modulus {_fmt(abs(lam))} {conv}{tag}")
    lines += [
        f"eigen_iterations {eigs.iterations}",
        f"eigen_max_residual {_fmt(eigs.max_residual)}",
        f"basin_threshold {_fmt(basin.threshold)}",
        f"basin_size {len(basin.members)}",
        f"lambda_basin {_fmt(basin.lambda_b)}",
        f"retention_days {'inf' if retention == float('inf') else _fmt(retention)}",
        f"retention_years {'inf' if retention == float('inf') else _fmt(retention / 360.0)}",
    ]
    (out / "spectral_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(
        f"lambda_1 modulus {abs(eigs.eigenvalues[0]):.6g}, basin of {len(basin.members)} states"
    )
    if not eigs.converged.all():
        _fail(3, "eigensolver did not converge; see spectral_report.txt")


def _write_state_csv(path: Path, g: GridCovering, values: np.ndarray):
    values = np.real_if_close(values, tol=1e6)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("state,lon_center,lat_center,value\n")
        for s in range(g.n_states):
            lon, lat = g.box_center(s)
            fh.write(f"{s},{_fmt(lon)},{_fmt(lat)},{_fmt(np.real(values[s]))}\n")


def _write_basin_geojson(path: Path, g: GridCovering, basin: spectral.BasinResult):
    polys = []
    for s in basin.members:
        corners = g.box_corners(int(s))
        ring = [[lon, lat] for lon, lat in corners] + [list(corners[0])]
        polys.append([ring])
    feature = {
        "type": "Feature",
        "geometry": {"type": "MultiPolygon", "coordinates": polys},
        "properties": {
            "threshold": basin.threshold,
            "lambda_basin": basin.lambda_b,
            "n_states": int(len(basin.members)),
            "states": [int(s) for s in basin.members],
        },
    }
    path.write_text(json.dumps(feature, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- bayes

@main.command("bayes")
@config_options
@click.option("--cpi-level", default=None, type=float,
              help="Central posterior interval level (default 0.95).")
@click.option("--window-steps", default=None, type=int,
              help="Half-width of the absorption-time matching window, in steps.")
@handle_errors
def bayes_cmd(config_path, out_dir, cpi_level, window_steps):
    """Posterior over candidate source boxes from the observations file."""
    cfg = load_config(config_path, out_dir=out_dir, cpi_level=cpi_level,
                      window_steps=window_steps)
    cfg.require("observations")
    g = _load_grid(cfg)
    schedule = _load_schedule(cfg)
    observations = bayes.load_observations(cfg.observations)
    result = bayes.estimate_source(
        schedule, observations, grid=g,
        level=cfg.cpi_level, window_steps=cfg.window_steps,
    )

    out = _outdir(cfg)
    n_obs = len(observations)
    with open(out / "posterior.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lat,lon,logL,posterior,"
                 + ",".join(f"single_b{j + 1}" for j in range(n_obs)) + "\n")
        for i in range(len(result.candidates)):
            singles = ",".join(
                _fmt(result.single_posteriors[i, j]) for j in range(n_obs)
            )
            fh.write(
                f"{_fmt(result.latitudes[i])},{_fmt(result.longitudes[i])},"
                f"{_fmt(result.log_likelihood[i])},{_fmt(result.posterior[i])},{singles}\n"
            )

    lon, lat = g.box_center(result.c_max)
    lines = [
        "# source estimate",
        f"n_candidates {len(result.candidates)}",
        f"n_observations {n_obs}",
        f"c_max_state {result.c_max}",
        f"c_max_lon {_fmt(lon)}",
        f"c_max_lat {_fmt(lat)}",
        f"c_max_posterior {_fmt(result.posterior[result.c_max_index])}",
        f"cpi_level {_fmt(result.level)}",
        f"cpi_lat_low {_fmt(result.interval[0])}",
        f"cpi_lat_high {_fmt(result.interval[1])}",
    ]
    (out / "bayes_summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(
        f"c_max at state {result.c_max} ({lat:.3f} deg lat); "
        f"{int(result.level * 100)}% interval "
        f"[{result.interval[0]:.3f}, {result.interval[1]:.3f}] deg"
    )


# ----------------------------------------------------------------- paths

@main.command("paths")
@config_options
@handle_errors
def paths_cmd(config_path, out_dir):
    """Most probable fixed-length paths from candidates to each observed target."""
    cfg = load_config(config_path, out_dir=out_dir)
    cfg.require("observations")
    g = _load_grid(cfg)
    schedule = _load_schedule(cfg)
    observations = bayes.load_observations(cfg.observations)
    roles = schedule.roles
    if not roles.candidate_sources:
        raise ConfigError("no candidate sources declared in the roles file")

    out = _outdir(cfg)
    t = schedule.transition_time
    path_sets = []
    rows = []
    for idx, o in enumerate(observations, start=1):
        k = o.steps(t)
        ps = paths.most_probable_path(schedule, roles.candidate_sources, o.target_label, k)
        path_sets.append(ps)
        features = []
        for source, res in zip(ps.sources, ps.results):
            feat = paths.path_to_geojson(res, g)
            feat["properties"]["is_best"] = ps.best is not None and res is ps.best
            feat["properties"]["source_state"] = int(source)
            features.append(feat)
        doc = {
            "type": "FeatureCollection",
            "features": features,
            "name": f"target_{o.target_label}_obs_{idx}",
        }
        (out / f"paths_obs{idx}_target{o.target_label}.geojson").write_text(
            json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8"
        )
        if ps.best is None:
            rows.append(f"{idx},{o.target_label},{k},,")
        else:
            rows.append(
                f"{idx},{o.target_label},{k},{ps.best.source},{_fmt(ps.best.log_prob)}"
            )

    report = paths.common_source_report(path_sets)
    with open(out / "paths_summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("observation,target,steps,best_source,log_prob\n")
        fh.write("\n".join(rows) + "\n")
    shared = report["shared_sources"]
    lines = ["# common-source report"]
    for s in sorted(shared):
        lines.append(f"shared_source {s} targets {','.join(map(str, sorted(shared[s])))}")
    if not shared:
        lines.append("shared_source none")
    (out / "paths_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"wrote {len(path_sets)} path sets; "
               f"{len(shared)} shared best source(s)")


# ---------------------------------------------------------------- evolve

@main.command("evolve")
@config_options
@click.option("--state", "initial_state", default=None, type=int,
              help="Start from a point mass at this state.")
@click.option("--initial", "initial_csv", default=None, type=click.Path(),
              help="Start from a `state,mass` CSV distribution.")
@click.option("--steps", default=1, type=int, show_default=True)
@click.option("--matrix", "label", default="annual", show_default=True,
              type=click.Choice(["W", "S", "SF", "annual"]))
@handle_errors
def evolve_cmd(config_path, out_dir, initial_state, initial_csv, steps, label):
    """Push a probability vector forward k steps and dump each step."""
    cfg = load_config(config_path, out_dir=out_dir)
    # One step of the annual operator is one year, applied factor by factor.
    step = _load_annual(cfg) if label == "annual" else _load_matrix(cfg, label).matrix
    n = step.shape[0]

    if (initial_state is None) == (initial_csv is None):
        raise ConfigError("provide exactly one of --state or --initial")
    if initial_state is not None:
        if not 0 <= initial_state < n:
            raise ConfigError(f"--state outside 0..{n - 1}")
        f = np.zeros(n)
        f[initial_state] = 1.0
    else:
        f = _read_distribution(initial_csv, n)
    if steps < 0:
        raise ConfigError("--steps must be nonnegative")

    out = _outdir(cfg)
    for k, f in enumerate(ulam.propagate(f, itertools.repeat(step, steps))):
        rows = "".join(f"{s},{_fmt(m)}\n" for s, m in enumerate(f.tolist()))
        (out / f"evolve_step{k:04d}.csv").write_text("state,mass\n" + rows, encoding="utf-8")
    click.echo(f"evolved {steps} step(s) of {label}; total mass {f.sum():.6g}")


def _read_distribution(path, n: int) -> np.ndarray:
    f = np.zeros(n)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "state,mass":
            raise ConfigError(f"{path}: expected `state,mass` header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                s_str, m_str = line.split(",")
                s, m = int(s_str), float(m_str)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed row") from None
            if not 0 <= s < n:
                raise ConfigError(f"{path}:{lineno}: state {s} outside 0..{n - 1}")
            if not np.isfinite(m):
                raise ConfigError(f"{path}:{lineno}: mass {m_str.strip()!r} is not finite")
            f[s] += m
    if f.min() < 0:
        raise ConfigError(f"{path}: distribution has negative mass")
    if f.sum() > 1 + 1e-10:
        raise ConfigError(f"{path}: distribution mass {f.sum():g} exceeds 1")
    return f


# ----------------------------------------------------------------- synth

@main.command("synth")
@click.option("--spec", "spec_path", required=True, type=click.Path(),
              help="Synthetic spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=None, type=int, help="Override the spec seed.")
@handle_errors
def synth_cmd(spec_path, out_dir, seed):
    """Generate a full synthetic input set (plus ground-truth sidecar)."""
    spec = synth.load_spec(spec_path)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    # Reject a spec that no later command could run before writing anything.
    lag = spec.sample_interval_days
    run = RunConfig(lag_days=lag, crash_date=spec.start_date, seed=spec.seed,
                    season_exponent=round(SEASON_BLOCK_DAYS / lag))
    g = spec.grid()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tracks = synth.simulate_tracks(spec)
    synth.write_tracks_csv(tracks, out / "trajectories.csv")
    synth.write_grid_config(spec, out / "grid.cfg")
    synth.write_roles_csv(spec, g, out / "roles.csv")

    sampled = None
    obs_rows: list = list(spec.observations)
    if spec.sample_observations > 0:
        schedule = _truth_schedule(spec)
        sampled = synth.sample_observations(
            schedule, spec.source_state, spec.sample_observations,
            seed=spec.seed, max_steps=spec.max_observation_steps,
        )
        obs_rows += sampled
    if obs_rows:
        synth.write_observations_csv(obs_rows, spec.sample_interval_days,
                                     out / "observations.csv")
    synth.write_truth_sidecar(spec, out / "truth.json", sampled)
    _write_run_config(run, out, with_obs=bool(obs_rows))
    click.echo(f"synthesized {len(tracks)} tracks into {out}")


def _truth_schedule(spec) -> SeasonalSchedule:
    roles = StateRoles(
        leaky=frozenset(spec.leaky),
        sticky=dict(spec.sticky),
        debris=tuple(spec.debris),
        candidate_sources=tuple(spec.candidate_sources),
    )
    chains = {}
    for season in Season:
        tm = ulam.TransitionMatrix(
            matrix=sparse.csr_matrix(spec.kernels[season]),
            transition_time=spec.sample_interval_days,
            label=season.value,
        )
        chains[season] = absorb.augment(tm, roles)
    return SeasonalSchedule(chains=chains, start_date=spec.start_date)


def _write_run_config(run: RunConfig, out: Path, with_obs: bool):
    lines = [
        "grid = grid.cfg",
        "trajectories = trajectories.csv",
        "roles = roles.csv",
    ]
    if with_obs:
        lines.append("observations = observations.csv")
    lines += [
        f"lag_days = {_fmt(run.lag_days)}",
        f"crash_date = {run.crash_date.isoformat()}",
        f"season_exponent = {run.season_exponent}",
        f"seed = {run.seed}",
        "out_dir = .",
    ]
    (out / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
