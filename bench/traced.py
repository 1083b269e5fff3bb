"""Traced in-process run: each layer's public calls, in the CLI's order.

The pipeline below repeats what the ``build``, ``spectral``, ``bayes``,
``paths``, ``evolve`` and ``synth`` commands do, without the
interpreter start-ups and without the CLI's own report writers.  Every
call into a driftchain module runs inside a span named
``<module>.<function>``; counts are read from the same calls' results.
Nothing in the program is changed: ``schedule.matrix_for_step`` is timed
by wrapping the method on the one schedule instance the run creates.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import Inputs, Workload

LAYERS = ("config", "grid", "ingest", "ulam", "absorb", "schedule",
          "spectral", "bayes", "paths", "synth")
K_EIGS = 2


def _km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lon1, lat1, lon2, lat2 = map(math.radians, (*a, *b))
    h = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * 6371.0 * math.asin(math.sqrt(h))


def run_traced(inputs: Inputs, w: Workload, work: Path, t: Tracer) -> dict[str, float]:
    """Run the traced pipeline under ``work``; returns the per-layer counts."""
    from driftchain import absorb, bayes, config, grid, ingest, paths, spectral, synth, ulam
    from driftchain.ingest import Season
    from driftchain.schedule import SeasonalSchedule

    out = work / "traced_out"
    cfg_path = inputs.case_dir / "run.cfg"
    m: dict[str, float] = {}

    def load_cfg():
        cfg = t.call("config.load_config", config.load_config, cfg_path, out_dir=out)
        return cfg, t.call("config.load_grid_config", config.load_grid_config, cfg.grid)

    def load_schedule(cfg):
        chains = {s: t.call("absorb.load_chain", absorb.load_chain, out / f"chain_{s.value}.txt")
                  for s in Season}
        sched = t.call("schedule.SeasonalSchedule", SeasonalSchedule,
                       chains=chains, start_date=cfg.crash_date)
        object.__setattr__(sched, "matrix_for_step",
                           t.wrap("schedule.matrix_for_step", sched.matrix_for_step))
        return sched

    with t.span("cmd.build"):
        cfg, g = load_cfg()
        roles = t.call("grid.load_roles", grid.load_roles, g, cfg.roles)
        trajectories, report = t.call("ingest.parse_trajectories",
                                      ingest.parse_trajectories, cfg.trajectories)
        pairs = t.call("ingest.extract_pairs", ingest.extract_pairs,
                       trajectories, g, cfg.lag_days, epoch=cfg.crash_date)
        by_season = t.call("ingest.season_split", ingest.season_split, pairs)
        out.mkdir(parents=True, exist_ok=True)
        tms = {}
        for season in Season:
            tms[season] = t.call("ulam.estimate", ulam.estimate, by_season[season],
                                 g.n_states, cfg.lag_days, season.value)
            t.call("ulam.save_matrix", ulam.save_matrix, tms[season],
                   out / f"matrix_{season.value}.txt")
        annual = t.call("ulam.compose_annual", ulam.compose_annual, tms[Season.W],
                        tms[Season.S], tms[Season.SF], exponent=cfg.season_exponent)
        annual_path = out / "matrix_annual.txt"
        t.call("ulam.save_matrix_annual", ulam.save_matrix, annual, annual_path)
        chains = []
        for season in Season:
            chains.append(t.call("absorb.augment", absorb.augment, tms[season], roles))
            t.call("absorb.save_chain", absorb.save_chain, chains[-1],
                   out / f"chain_{season.value}.txt")
    m["ingest.rows"] = report.total_rows
    m["ingest.pairs"] = len(pairs)
    m["ingest.pairs_per_row"] = len(pairs) / report.valid_rows
    m["ingest.skipped_ratio"] = report.skipped_rows / report.total_rows
    m["ulam.seasonal_nnz"] = sum(tm.matrix.nnz for tm in tms.values())
    m["ulam.annual_nnz"] = annual.matrix.nnz
    m["ulam.annual_fill"] = annual.matrix.nnz / g.n_states ** 2
    m["ulam.annual_bytes"] = annual_path.stat().st_size
    m["absorb.chain_nnz"] = sum(c.matrix.nnz for c in chains)
    m["absorb.chain_bytes"] = sum((out / f"chain_{s.value}.txt").stat().st_size for s in Season)
    del trajectories, pairs, by_season, tms, annual, chains

    with t.span("cmd.spectral"):
        cfg, g = load_cfg()
        tm = t.call("ulam.load_matrix_annual", ulam.load_matrix, annual_path)
        eigs = t.call("spectral.dominant_eigs", spectral.dominant_eigs, tm, k=K_EIGS,
                      tol=cfg.eigen_tol, max_iter=cfg.eigen_max_iter, seed=cfg.seed)
        t.call("spectral.analyze_basin", spectral.analyze_basin, tm,
               threshold=cfg.basin_threshold, tol=cfg.eigen_tol,
               max_iter=cfg.eigen_max_iter, seed=cfg.seed, eigs=eigs)
        t.call("spectral.zonal_profile", spectral.zonal_profile,
               np.real(eigs.right_vectors[0]), g)
    # Computed, not counted: both sides iterate a block of k + guard vectors.
    width = min(g.n_states, K_EIGS + spectral._GUARD_VECTORS)
    m["spectral.iterations"] = eigs.iterations
    m["spectral.matvecs"] = 2 * eigs.iterations * width
    m["spectral.max_residual"] = float(max(eigs.left_residuals.max(), eigs.right_residuals.max()))
    m["spectral.converged_ratio"] = float(np.mean(eigs.converged))
    del tm

    with t.span("cmd.bayes"):
        cfg, g = load_cfg()
        sched = load_schedule(cfg)
        observations = t.call("bayes.load_observations", bayes.load_observations,
                              cfg.observations)
        result = t.call("bayes.estimate_source", bayes.estimate_source, sched, observations,
                        grid=g, level=cfg.cpi_level, window_steps=cfg.window_steps)
    horizon = max(o.steps(sched.transition_time) for o in observations) + cfg.window_steps
    m["bayes.candidate_steps"] = len(result.candidates) * horizon
    m["bayes.live_ratio"] = float(np.isfinite(result.log_likelihood).mean())
    m["bayes.c_max_err_km"] = _km(g.box_center(result.c_max), g.box_center(inputs.roles.source))

    with t.span("cmd.paths"):
        cfg, g = load_cfg()
        sched = load_schedule(cfg)
        observations = t.call("bayes.load_observations", bayes.load_observations,
                              cfg.observations)
        sources = sched.roles.candidate_sources
        path_sets = []
        for o in observations:
            ps = t.call("paths.most_probable_path", paths.most_probable_path, sched,
                        sources, o.target_label, o.steps(sched.transition_time))
            path_sets.append(ps)
            for res in ps.results:
                t.call("paths.path_to_geojson", paths.path_to_geojson, res, g)
        t.call("paths.common_source_report", paths.common_source_report, path_sets)
    n = sched.n_grid_states
    grid_edges = {s: int((c.matrix[:n, :n] > 0).sum()) for s, c in sched.chains.items()}
    dp = [grid_edges[sched.season_of_step(k)] for ps in path_sets for k in range(ps.n_steps - 1)]
    results = [r for ps in path_sets for r in ps.results]
    m["paths.dp_steps"] = sum(len(ps.sources) * ps.n_steps for ps in path_sets)
    m["paths.edges_per_step"] = float(np.mean(dp)) if dp else 0.0
    m["paths.feasible_ratio"] = sum(r is not None for r in results) / len(results)

    with t.span("cmd.evolve"):
        cfg, g = load_cfg()
        tm = t.call("ulam.load_matrix_annual", ulam.load_matrix, annual_path)
        f = np.zeros(tm.n_states)
        f[0] = 1.0
        for _ in range(w.evolve_steps):
            f = t.call("ulam.push_forward", ulam.push_forward, f, tm, 1)
    del tm

    sdir = work / "traced_synth"
    sdir.mkdir(parents=True, exist_ok=True)
    with t.span("cmd.synth"):
        spec = t.call("synth.load_spec", synth.load_spec, inputs.spec_path)
        sg = spec.grid()
        tracks = t.call("synth.simulate_tracks", synth.simulate_tracks, spec)
        t.call("synth.write_tracks_csv", synth.write_tracks_csv, tracks, sdir / "trajectories.csv")
        t.call("synth.write_grid_config", synth.write_grid_config, spec, sdir / "grid.cfg")
        t.call("synth.write_roles_csv", synth.write_roles_csv, spec, sg, sdir / "roles.csv")
        with t.span("synth.truth_schedule"):
            truth = _truth_schedule(spec, sg)
        sampled = t.call("synth.sample_observations", synth.sample_observations, truth,
                         spec.source_state, spec.sample_observations, seed=spec.seed,
                         max_steps=spec.max_observation_steps)
        t.call("synth.write_observations_csv", synth.write_observations_csv, sampled,
               spec.sample_interval_days, sdir / "observations.csv")
        t.call("synth.write_truth_sidecar", synth.write_truth_sidecar, spec,
               sdir / "truth.json", sampled)
    m["synth.rows"] = sum(len(tr.times) for tr in tracks)

    durations = t.durations()
    for name in ("ingest.parse_trajectories", "ingest.extract_pairs", "ingest.season_split",
                 "ulam.estimate", "ulam.compose_annual", "ulam.save_matrix_annual",
                 "ulam.load_matrix_annual", "ulam.push_forward", "spectral.dominant_eigs",
                 "spectral.analyze_basin", "spectral.zonal_profile", "absorb.augment",
                 "absorb.save_chain", "absorb.load_chain", "bayes.estimate_source",
                 "paths.most_probable_path", "synth.simulate_tracks", "synth.write_tracks_csv",
                 "synth.sample_observations"):
        m[f"{name}_s"] = durations[name][1]
    calls, busy = durations["schedule.matrix_for_step"]
    m["schedule.matrix_for_step_us"] = 1e6 * busy / calls
    m["schedule.matrix_for_step_calls"] = calls
    selfs = t.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    return m


def _truth_schedule(spec, g):
    """The synth command's true chains, built from public constructors."""
    import scipy.sparse as sparse

    from driftchain import absorb, ulam
    from driftchain.grid import StateRoles
    from driftchain.ingest import Season
    from driftchain.schedule import SeasonalSchedule

    roles = StateRoles(leaky=frozenset(spec.leaky), sticky=dict(spec.sticky),
                       debris=tuple(spec.debris), candidate_sources=tuple(spec.candidate_sources))
    chains = {
        s: absorb.augment(ulam.TransitionMatrix(matrix=sparse.csr_matrix(spec.kernels[s]),
                                                transition_time=spec.sample_interval_days,
                                                label=s.value), roles)
        for s in Season
    }
    return SeasonalSchedule(chains=chains, start_date=spec.start_date)
