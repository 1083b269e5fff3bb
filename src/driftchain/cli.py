"""Command-line pipeline: synth -> build -> spectral / bayes / paths / evolve.

Every command reads plain input files, writes plain output files into the
configured output directory, and prints a short summary.  Outputs are
deterministic for fixed inputs: floats carry 17 significant digits, JSON
keys are sorted, and no timestamps or absolute paths are embedded.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.

Each command imports the pipeline modules it runs inside its own body, so
``--help``, usage errors and shell completion load only click.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import ConfigError, NumericalError

# OpenBLAS starts a worker thread when numpy loads, which busy-waits for a
# while after the load and takes CPU time from the command on a small box.
# No command needs it: the eigensolve's algebra runs in np.einsum, not BLAS.
# Set before any command imports numpy; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if TYPE_CHECKING:
    from datetime import date

    import numpy as np

    from . import spectral, ulam
    from .config import RunConfig
    from .grid import GridCovering, StateRoles
    from .ingest import Season
    from .schedule import SeasonalSchedule

FMT = "%.17g"

#: Eigenpairs `spectral` reports.  Only lambda_1's vectors feed the basin,
#: the quasistationary distribution and the retention time.
K_EIGS = 2


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


def _load_matrix(cfg: RunConfig, g: GridCovering, label: str) -> ulam.TransitionMatrix:
    """The seasonal matrix `build` wrote for season ``label``, which must belong
    to ``g`` and to ``cfg``'s lag and crash date."""
    from . import ulam

    path = _matrix_path(cfg, label)
    if not path.is_file():
        raise ConfigError(f"missing {path}; run `driftchain build` first")
    tm = ulam.load_matrix(path, grid=(g, cfg.grid), crash_date=cfg.crash_date)
    if tm.label != label:
        raise ConfigError(f"{path} holds the matrix labelled {tm.label}, but its name "
                          f"gives season {label}; rerun `driftchain build`")
    if tm.transition_time != cfg.lag_days:
        raise ConfigError(f"seasonal matrices do not match the run config: {path} was built "
                          f"with transition_time_days {_fmt(tm.transition_time)}, but "
                          f"lag_days is {_fmt(cfg.lag_days)}; rerun `driftchain build`")
    return tm


def _load_annual(cfg: RunConfig, g: GridCovering) -> ulam.AnnualOperator:
    """The annual operator over the seasonal matrices that `build` wrote."""
    from . import ulam
    from .ingest import Season

    w, s, sf = (_load_matrix(cfg, g, season.value)
                for season in (Season.W, Season.S, Season.SF))
    return ulam.annual_operator(w, s, sf, exponent=cfg.season_exponent)


def _absorbing_schedule(tms: dict[Season, ulam.TransitionMatrix], roles: StateRoles,
                        start_date: date) -> SeasonalSchedule:
    """Each season's matrix closed with ``roles`` into its absorbing chain."""
    from . import absorb
    from .schedule import SeasonalSchedule

    return SeasonalSchedule(chains={season: absorb.augment(tm, roles)
                                    for season, tm in tms.items()},
                            start_date=start_date)


def _load_schedule(cfg: RunConfig, g: GridCovering) -> SeasonalSchedule:
    """The absorbing chains over `build`'s matrices and the roles file as it reads now."""
    from .grid import load_roles
    from .ingest import Season

    cfg.require("roles")
    tms = {season: _load_matrix(cfg, g, season.value) for season in Season}
    roles = load_roles(g, cfg.roles)
    return _absorbing_schedule(tms, roles, cfg.crash_date)


def _load_run(config_path, out_dir, *keys: str) -> tuple[RunConfig, GridCovering]:
    """The run config, which must set ``keys`` and ``grid``, and the grid it names."""
    from .config import load_config, load_grid_config

    cfg = load_config(config_path, out_dir)
    cfg.require(*keys)
    cfg.require("grid")
    return cfg, load_grid_config(cfg.grid)


# ----------------------------------------------------------------- build

@main.command()
@config_options
@handle_errors
def build(config_path, out_dir):
    """Estimate the seasonal matrices and write them with a build report."""
    from . import ulam
    from .ingest import YEAR_BLOCKS, Season, extract_pairs, parse_trajectories, season_split

    cfg, g = _load_run(config_path, out_dir, "grid", "trajectories")
    trajectories, report = parse_trajectories(cfg.trajectories)
    pairs = extract_pairs(trajectories, g, cfg.lag_days, epoch=cfg.crash_date)
    by_season = season_split(pairs)

    out = _outdir(cfg)
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
        ulam.save_matrix(tm, _matrix_path(cfg, season.value), grid=g,
                         crash_date=cfg.crash_date)
        sums = tm.row_sums()
        lines += [
            f"pairs_{season.value} {len(by_season[season])}",
            f"nnz_{season.value} {tm.matrix.nnz}",
            f"empty_row_fraction_{season.value} {_fmt(tm.empty_row_fraction())}",
            f"row_sum_min_{season.value} {_fmt(sums.min())}",
            f"row_sum_max_{season.value} {_fmt(sums.max())}",
        ]

    lines.append("annual_transition_days "
                 f"{_fmt(len(YEAR_BLOCKS) * cfg.season_exponent * cfg.lag_days)}")

    (out / "build_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"built {len(Season)} matrices in {out}")


# -------------------------------------------------------------- spectral

@main.command("spectral")
@config_options
@handle_errors
def spectral_cmd(config_path, out_dir):
    """Eigenpairs, basin of attraction, and retention time of the annual map."""
    import numpy as np

    from . import spectral
    from .ingest import YEAR_DAYS

    cfg, g = _load_run(config_path, out_dir)
    op = _load_annual(cfg, g)

    out = _outdir(cfg)
    eigs = spectral.dominant_eigs(op, k=K_EIGS, tol=cfg.eigen_tol,
                                  max_iter=cfg.eigen_max_iter, seed=cfg.seed)
    states = np.arange(g.n_states)
    lon, lat = g.box_centers(states).T
    for i in range(len(eigs.eigenvalues)):
        for side, vectors in (("left", eigs.left_vectors), ("right", eigs.right_vectors)):
            _write_table(out / f"{side}_{i + 1}.csv", "state,lon_center,lat_center,value",
                         "%d,%.17g,%.17g,%.17g\n", [states, lon, lat, np.real(vectors[i])])

    basin = spectral.analyze_basin(op, threshold=cfg.basin_threshold,
                                   tol=cfg.eigen_tol, max_iter=cfg.eigen_max_iter,
                                   seed=cfg.seed, eigs=eigs)
    profile = spectral.zonal_profile(np.real(eigs.right_vectors[0]), g)
    _write_table(out / "zonal.csv", "lat,mean,deriv", "%.17g,%.17g,%.17g\n",
                 [profile.latitudes, profile.mean, profile.derivative])

    _write_basin_geojson(out / "basin.geojson", g, basin)

    lines = ["# spectral report"]
    for i, lam in enumerate(eigs.eigenvalues):
        tag = " (complex pair)" if eigs.is_complex_pair[i] else ""
        conv = "converged" if eigs.converged[i] else "NOT CONVERGED"
        lines.append(f"lambda_{i + 1}_modulus {_fmt(abs(lam))} {conv}{tag}")
    lines += [
        f"eigen_products {eigs.products + basin.products}",
        f"eigen_block_products {eigs.block_products + basin.block_products}",
        f"eigen_max_residual {_fmt(eigs.max_residual)}",
        f"basin_threshold {_fmt(basin.threshold)}",
        f"basin_size {len(basin.members)}",
        f"lambda_basin {_fmt(basin.lambda_b)}",
        f"retention_days {_fmt(basin.retention_time)}",
        f"retention_years {_fmt(basin.retention_time / YEAR_DAYS)}",
    ]
    (out / "spectral_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(
        f"lambda_1 modulus {abs(eigs.eigenvalues[0]):.6g}, basin of {len(basin.members)} states"
    )
    if not eigs.converged.all():
        _fail(3, "eigensolver did not converge; see spectral_report.txt")


def _write_table(path: Path, header: str, template: str, columns) -> None:
    """A CSV of ``header`` and one ``template`` row per row of ``columns``."""
    from .textio import write_rows

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        write_rows(fh, template, columns)


def _write_basin_geojson(path: Path, g: GridCovering, basin: spectral.BasinResult):
    import json

    polys = [[ring + ring[:1]] for ring in g.box_corners_of(basin.members).tolist()]
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
@handle_errors
def bayes_cmd(config_path, out_dir):
    """Posterior over candidate source boxes from the observations file."""
    from . import bayes

    cfg, g = _load_run(config_path, out_dir, "observations")
    schedule = _load_schedule(cfg, g)
    observations = bayes.load_observations(cfg.observations)
    result = bayes.estimate_source(
        schedule, observations, grid=g,
        level=cfg.cpi_level, window_steps=cfg.window_steps,
    )

    out = _outdir(cfg)
    n_obs = len(observations)
    _write_table(out / "posterior.csv",
                 "lat,lon,logL,posterior," + ",".join(f"single_b{j + 1}" for j in range(n_obs)),
                 "%.17g," * 4 + ",".join(["%.17g"] * n_obs) + "\n",
                 [result.latitudes, result.longitudes, result.log_likelihood, result.posterior,
                  *result.single_posteriors.T])

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
    import json

    from . import bayes, paths

    cfg, g = _load_run(config_path, out_dir, "observations")
    schedule = _load_schedule(cfg, g)
    observations = bayes.load_observations(cfg.observations)
    roles = schedule.roles
    if not roles.candidate_sources:
        raise ConfigError("no candidate sources declared in the roles file")

    steps = bayes.observation_steps(schedule, observations)
    targets = [(o.target_label, k) for o, k in zip(observations, steps)]
    path_sets = paths.most_probable_paths(schedule, roles.candidate_sources, targets)
    out = _outdir(cfg)
    rows = []
    for idx, ps in enumerate(path_sets, start=1):
        features = []
        for source, res in zip(ps.sources, ps.results):
            feat = paths.path_to_geojson(res, g)
            feat["properties"]["is_best"] = ps.best is not None and res is ps.best
            feat["properties"]["source_state"] = int(source)
            features.append(feat)
        doc = {
            "type": "FeatureCollection",
            "features": features,
            "name": f"target_{ps.target_label}_obs_{idx}",
        }
        (out / f"paths_obs{idx}_target{ps.target_label}.geojson").write_text(
            json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8"
        )
        if ps.best is None:
            rows.append(f"{idx},{ps.target_label},{ps.n_steps},,")
        else:
            rows.append(
                f"{idx},{ps.target_label},{ps.n_steps},{ps.best.source},{_fmt(ps.best.log_prob)}"
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
    import itertools
    import re

    import numpy as np

    from . import ulam

    if (initial_state is None) == (initial_csv is None):
        raise ConfigError("provide exactly one of --state or --initial")
    if steps < 0:
        raise ConfigError("--steps must be nonnegative")
    cfg, g = _load_run(config_path, out_dir)
    # `ulam.load_matrix` ties every matrix's state count to the grid's.
    n = g.n_states
    if initial_state is not None:
        if not 0 <= initial_state < n:
            raise ConfigError(f"--state outside 0..{n - 1}")
        f = np.zeros(n)
        f[initial_state] = 1.0
    else:
        f = _read_distribution(initial_csv, n)
    # One step of the annual operator is one year, applied factor by factor.
    step = _load_annual(cfg, g) if label == "annual" else _load_matrix(cfg, g, label).matrix

    out = _outdir(cfg)
    # Step files of an earlier, longer run would read as this run's.
    for old in out.glob("evolve_step*.csv"):
        if re.fullmatch(r"evolve_step[0-9]+\.csv", old.name):
            old.unlink()
    states = np.arange(n)
    for k, f in enumerate(ulam.propagate(f, itertools.repeat(step, steps))):
        _write_table(out / f"evolve_step{k:04d}.csv", "state,mass", "%d,%.17g\n", [states, f])
    click.echo(f"evolved {steps} step(s) of {label}; total mass {f.sum():.6g}")


def _read_distribution(path, n: int) -> np.ndarray:
    """The `state,mass` rows of ``path``, read as matrix entries, blank lines
    (:func:`textio.is_blank`) skipped: each state once, each mass finite and
    nonnegative, the total at most 1."""
    import numpy as np

    from .textio import first_rows, is_blank, read_entries, read_lines

    lines = read_lines(path)
    if not lines or lines[0].strip() != "state,mass":
        raise ConfigError(f"{path}: expected `state,mass` header")
    linenos = [k for k, line in enumerate(lines, start=1) if k > 1 and not is_blank(line)]
    entries = [lines[k - 1] for k in linenos]
    rows, malformed = read_entries(entries, [("state", "i8"), ("mass", "f8")])
    if rows is None:
        raise ConfigError(f"{path}:{linenos[malformed]}: malformed row")
    s, m = rows["state"], rows["mass"]
    earlier = first_rows(s)
    bad = np.flatnonzero((s < 0) | (s >= n) | ~((m >= 0) & (m < np.inf))
                         | (earlier < np.arange(len(s))))
    if bad.size:
        i = bad[0]
        where, mass = f"{path}:{linenos[i]}", entries[i].split(",")[1].strip()
        if not 0 <= s[i] < n:
            raise ConfigError(f"{where}: state {s[i]} outside 0..{n - 1}")
        if not np.isfinite(m[i]):
            raise ConfigError(f"{where}: mass {mass!r} is not finite")
        if m[i] < 0:
            raise ConfigError(f"{where}: mass {mass!r} is negative")
        raise ConfigError(f"{path}: lines {linenos[earlier[i]]} and {linenos[i]} "
                          f"both give state {s[i]}")
    f = np.zeros(n)
    f[s] = m
    if f.sum() > 1 + 1e-10:
        raise ConfigError(f"{path}: distribution mass {f.sum():g} exceeds 1")
    return f


# ----------------------------------------------------------------- synth

@main.command("synth")
@click.option("--spec", "spec_path", required=True, type=click.Path(),
              help="Synthetic spec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@handle_errors
def synth_cmd(spec_path, out_dir):
    """Generate a full synthetic input set (plus ground-truth sidecar)."""
    from . import synth
    from .config import RunConfig
    from .ingest import SEASON_BLOCK_DAYS

    spec = synth.load_spec(spec_path)
    # Reject a spec that no later command could run before writing anything.
    lag = spec.sample_interval_days
    run = RunConfig(lag_days=lag, crash_date=spec.start_date, seed=spec.seed,
                    season_exponent=round(SEASON_BLOCK_DAYS / lag))
    g = spec.grid()
    tracks = synth.simulate_tracks(spec)
    # Sampled before any write, as no walk may beach; its seeded stream is
    # its own, so the tracks do not depend on it.
    sampled = None
    obs_rows: list = list(spec.observations)
    if spec.sample_observations > 0:
        sampled = synth.sample_observations(
            _absorbing_schedule(spec.matrices, spec.roles(), spec.start_date),
            spec.source_state, spec.sample_observations,
            seed=spec.seed, max_steps=spec.max_observation_steps,
        )
        obs_rows += sampled

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth.write_tracks_csv(tracks, out / "trajectories.csv")
    synth.write_grid_config(spec, out / "grid.cfg")
    synth.write_roles_csv(spec, g, out / "roles.csv")
    if obs_rows:
        synth.write_observations_csv(obs_rows, spec.sample_interval_days,
                                     out / "observations.csv")
    synth.write_truth_sidecar(spec, out / "truth.json", sampled)
    _write_run_config(run, out, with_obs=bool(obs_rows))
    click.echo(f"synthesized {len(tracks)} tracks into {out}")


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
