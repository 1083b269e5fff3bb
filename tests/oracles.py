"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense linear algebra, literal path
enumeration, brute-force Monte-Carlo, and row-by-row trajectory parsing,
sharing no code with the implementations under test.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np
from scipy import sparse


def dense_dominant_pair(a: np.ndarray):
    """Dominant eigen-data from the dense solver.

    Returns (moduli sorted descending, left vector with sum 1, right
    vector with max-modulus entry 1); vectors belong to the eigenvalue of
    largest modulus.
    """
    a = np.asarray(a, dtype=float)
    w_r, v_r = np.linalg.eig(a)
    w_l, v_l = np.linalg.eig(a.T)
    moduli = np.sort(np.abs(w_r))[::-1]
    r = v_r[:, np.argmax(np.abs(w_r))]
    p = v_l[:, np.argmax(np.abs(w_l))]
    r = np.real(r / r[np.argmax(np.abs(r))])
    p = np.real(p / p[np.argmax(np.abs(p))])
    p = p / p.sum()
    return moduli, p, r


def dense_power_product(mats: list[np.ndarray]) -> np.ndarray:
    """Left-to-right dense product of a matrix list."""
    out = np.eye(mats[0].shape[0])
    for m in mats:
        out = out @ m
    return out


def enumerate_first_absorption(
    step_mats: list[np.ndarray],
    c: int,
    target_col: int,
    transient: list[int],
    n_steps: int,
) -> np.ndarray:
    """First-absorption pmf by literal enumeration of transient paths.

    pmf[k] sums, over every length-(k-1) transient continuation of c, the
    product of step transition probabilities times the final hop into
    ``target_col`` under the step-(k-1) matrix.
    """
    pmf = np.zeros(n_steps + 1)
    for k in range(1, n_steps + 1):
        total = 0.0
        for mids in itertools.product(transient, repeat=k - 1):
            seq = (c,) + mids
            p = 1.0
            for j in range(k - 1):
                p *= step_mats[j][seq[j], seq[j + 1]]
                if p == 0.0:
                    break
            else:
                total += p * step_mats[k - 1][seq[-1], target_col]
        pmf[k] = total
    return pmf


def enumerate_posterior(
    step_mats: list[np.ndarray],
    candidates: list[int],
    observation_pairs: list[tuple[int, int]],
    target_col_of: dict[int, int],
    transient: list[int],
    prior: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior over candidates by full enumeration.

    ``observation_pairs`` holds (target label, step) tuples; the
    likelihood of a candidate is the product of enumerated pmf values.
    Linear-space Bayes, safe at toy scale.
    """
    n_steps = max(k for _, k in observation_pairs)
    like = np.ones(len(candidates))
    for ci, c in enumerate(candidates):
        for b, k in observation_pairs:
            pmf = enumerate_first_absorption(
                step_mats[:n_steps], c, target_col_of[b], transient, n_steps
            )
            like[ci] *= pmf[k]
    if prior is None:
        prior = np.full(len(candidates), 1.0 / len(candidates))
    w = like * prior
    return w / w.sum()


def enumerate_best_constrained(
    step_mats: list[np.ndarray],
    sources: list[int],
    target_col: int,
    transient: list[int],
    n_steps: int,
):
    """Best exactly-K-step path into the target by brute force.

    Log-probabilities accumulate left to right exactly like the dynamic
    program, so the maxima are bit-comparable.  Returns (best log-prob,
    best path tuple) or (-inf, None).
    """
    best_logp = -math.inf
    best_path = None
    for s0 in sources:
        for mids in itertools.product(transient, repeat=n_steps - 1):
            seq = (s0,) + mids + (target_col,)
            logp = 0.0
            ok = True
            for j in range(n_steps):
                p = step_mats[j][seq[j], seq[j + 1]]
                if p <= 0.0:
                    ok = False
                    break
                logp = logp + np.log(p)
            if ok and logp > best_logp:
                best_logp = logp
                best_path = seq
    return best_logp, best_path


def enumerate_best_unconstrained(a: np.ndarray, source: int, target: int, max_len: int):
    """Best path of any length <= max_len by brute force (log product)."""
    n = a.shape[0]
    best_logp = -math.inf
    best_path = None
    if source == target:
        return 0.0, (source,)
    for length in range(1, max_len + 1):
        for mids in itertools.product(range(n), repeat=length - 1):
            seq = (source,) + mids + (target,)
            logp = 0.0
            ok = True
            for j in range(length):
                p = a[seq[j], seq[j + 1]]
                if p <= 0.0:
                    ok = False
                    break
                logp += np.log(p)
            if ok and logp > best_logp:
                best_logp = logp
                best_path = seq
    return best_logp, best_path


def mc_first_absorption(
    step_mat_fn,
    c: int,
    absorbing: list[int],
    n_walkers: int,
    max_steps: int,
    seed: int = 0,
) -> dict[int, np.ndarray]:
    """Monte-Carlo first-absorption counts.

    ``step_mat_fn(k)`` supplies the dense stochastic matrix of step k.
    Returns, per absorbing state, an array of per-step absorption counts
    (index = step of first arrival).
    """
    rng = np.random.default_rng(seed)
    absorbing = list(absorbing)
    counts = {a: np.zeros(max_steps + 1, dtype=np.int64) for a in absorbing}
    states = np.full(n_walkers, c, dtype=np.int64)
    active = np.arange(n_walkers)
    for k in range(1, max_steps + 1):
        if active.size == 0:
            break
        m = step_mat_fn(k - 1)
        cum = np.cumsum(m, axis=1)
        u = rng.random(active.size)
        rows = cum[states[active]]
        nxt = np.sum(u[:, None] >= rows, axis=1)
        nxt = np.minimum(nxt, m.shape[0] - 1)
        states[active] = nxt
        still = np.ones(active.size, dtype=bool)
        for a in absorbing:
            hit = nxt == a
            counts[a][k] = int(hit.sum())
            still &= ~hit
        active = active[still]
    return counts


def quadrature_box_area_km2(
    lon0: float, lon1: float, lat0: float, lat1: float,
    radius_km: float, n: int = 20_000,
) -> float:
    """Spherical rectangle area by midpoint quadrature over latitude."""
    lats = np.linspace(lat0, lat1, n + 1)
    mids = np.radians((lats[:-1] + lats[1:]) / 2.0)
    dlat = np.radians((lat1 - lat0) / n)
    dlon = np.radians(lon1 - lon0)
    return float(np.sum(radius_km**2 * np.cos(mids) * dlat * dlon))


def raster_box_facts(g, wet_mask, radius_km: float):
    """Per-state box facts of ``g`` by a loop over every cell of its rectangle.

    States take the cells that ``wet_mask`` flags true (every cell for
    None) in (lat_index, lon_index) raster order.  Returns one
    (box, center, corners, area_km2) tuple per state, each by its
    closed-form formula for that box alone, and the states of each
    latitude row.
    """
    cell = g.cell_size
    boxes = [(ix, iy) for iy in range(g.n_lat) for ix in range(g.n_lon)
             if wet_mask is None or wet_mask.get((ix, iy), False)]
    facts = []
    for ix, iy in boxes:
        x0, y0 = g.lon_min + ix * cell, g.lat_min + iy * cell
        corners = [(x0, y0), (x0 + cell, y0), (x0 + cell, y0 + cell), (x0, y0 + cell)]
        center = (g.lon_min + (ix + 0.5) * cell, g.lat_min + (iy + 0.5) * cell)
        lat0 = math.radians(g.lat_min + iy * cell)
        lat1 = math.radians(g.lat_min + (iy + 1) * cell)
        area = radius_km**2 * math.radians(cell) * (math.sin(lat1) - math.sin(lat0))
        facts.append(((ix, iy), center, corners, area))
    rows = [[s for s, (_, iy) in enumerate(boxes) if iy == row] for row in range(g.n_lat)]
    return facts, rows


def per_candidate_absorption_cdf(schedule, c: int, n_steps: int) -> np.ndarray:
    """(K+1, M) absorption CDF of one candidate, by its own step loop.

    Row k is the mass on the M target states after k scheduled steps from
    a point mass at box c: the per-candidate sweep that the batched
    ``absorption_cdf_all`` replaced.
    """
    n = schedule.n_grid_states
    f = np.zeros(schedule.n_states)
    f[c] = 1.0
    out = np.zeros((n_steps + 1, schedule.n_targets))
    for k in range(1, n_steps + 1):
        f = schedule.matrix_for_step(k - 1).T @ f
        out[k] = f[n + 1:]
    return out


def per_candidate_log_likelihood(schedule, observations, candidates,
                                 window_steps: int = 0) -> np.ndarray:
    """Joint log-likelihood per candidate, one candidate sweep at a time.

    Each factor is the first-absorption pmf of the observed target at the
    observed step, summed over the window when one is given.
    """
    steps = [o.steps(schedule.transition_time) for o in observations]
    horizon = max(steps) + window_steps
    factors = np.empty((len(candidates), len(observations)))
    for ci, c in enumerate(candidates):
        cdf = per_candidate_absorption_cdf(schedule, int(c), horizon)
        pmf = np.zeros_like(cdf)
        pmf[1:] = np.clip(np.diff(cdf, axis=0), 0.0, None)
        for oi, (o, k) in enumerate(zip(observations, steps)):
            col = pmf[:, o.target_label - 1]
            lo, hi = max(1, k - window_steps), min(horizon, k + window_steps)
            factors[ci, oi] = col[k] if window_steps == 0 else col[lo:hi + 1].sum()
    with np.errstate(divide="ignore"):
        return np.log(factors).sum(axis=1)


def per_step_sticky_mass(schedule, c: int, n_steps: int) -> np.ndarray:
    """(K+1, S) first-beaching mass at each sticky state, by a step loop.

    Row k is the occupancy of each sticky state after k-1 steps times its
    landing probability; sticky states in ascending order.
    """
    roles = schedule.roles
    states = sorted(roles.sticky)
    ells = np.array([roles.sticky[s] for s in states])
    mass = np.zeros((n_steps + 1, len(states)))
    f = np.zeros(schedule.n_states)
    f[c] = 1.0
    for k in range(1, n_steps + 1):
        mass[k] = f[states] * ells
        f = schedule.matrix_for_step(k - 1).T @ f
    return mass


def two_stage_augment(tm, roles):
    """The absorbing closure in the two stages of the earlier package.

    Stage one appends the cemetery column N with each row's clipped
    deficit and builds an (N+1)-state CSR; stage two scales each sticky row
    of it by 1 - ell, adds the landed mass ell to the cemetery (or splits
    it over a debris box's target columns N+m) and the absorbing target
    diagonals, and sums duplicate entries in a second COO -> CSR pass.
    Returns (matrix, roles, transition_time, label).
    """
    n = tm.n_states
    deficit = np.clip(1.0 - np.asarray(tm.matrix.tocsr().sum(axis=1)).ravel(), 0.0, None)
    coo = tm.matrix.tocsr().tocoo()
    extra = np.flatnonzero(deficit > 0)
    rows = np.concatenate([coo.row, extra, [n]])
    cols = np.concatenate([coo.col, np.full(len(extra), n), [n]])
    vals = np.concatenate([coo.data, deficit[extra], [1.0]])
    pc = sparse.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    pc.sum_duplicates()
    pc.sort_indices()

    scale = np.ones(n + 1)
    for i, ell in roles.sticky.items():
        scale[i] = 1.0 - ell
    coo = pc.tocoo()
    rows, cols, vals = [coo.row], [coo.col], [coo.data * scale[coo.row]]
    beach_rows, beach_cols, beach_vals = [], [], []
    for i, ell in roles.sticky.items():
        if i in roles.debris:
            labels = [m + 1 for m, s in enumerate(roles.debris) if s == i]
            for m in labels:
                beach_rows.append(i)
                beach_cols.append(n + m)
                beach_vals.append(ell / len(labels))
        else:
            beach_rows.append(i)
            beach_cols.append(n)
            beach_vals.append(ell)
    for m in range(1, roles.n_targets + 1):
        beach_rows.append(n + m)
        beach_cols.append(n + m)
        beach_vals.append(1.0)
    rows.append(np.asarray(beach_rows, dtype=np.int64))
    cols.append(np.asarray(beach_cols, dtype=np.int64))
    vals.append(np.asarray(beach_vals, dtype=float))
    total = n + 1 + roles.n_targets
    full = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    full.sum_duplicates()
    full.sort_indices()
    return full, roles, float(tm.transition_time), tm.label


def scipy_csr(rows, cols, vals, shape) -> sparse.csr_matrix:
    """CSR by scipy's COO path: duplicates summed, columns sorted in each row."""
    m = sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def scipy_estimate(from_state, to_state, n_states: int) -> sparse.csr_matrix:
    """Ulam counting as the earlier package did it, through scipy's COO path."""
    row_counts = np.bincount(from_state, minlength=n_states).astype(np.int64)
    keep = to_state >= 0
    counts = scipy_csr(from_state[keep], to_state[keep], np.ones(keep.sum()),
                       (n_states, n_states))
    counts.data /= np.repeat(row_counts, np.diff(counts.indptr))
    counts.eliminate_zeros()
    counts.sort_indices()
    return counts


def scipy_vector_products(m, x, y) -> tuple[np.ndarray, np.ndarray]:
    """``m @ x`` and ``m.T @ y`` by scipy's own kernels over ``m``'s three arrays."""
    ref = sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    return ref @ x, ref.T @ y


def scipy_row_steps(f: np.ndarray, factors, n_steps: int) -> list[np.ndarray]:
    """f, f A, f A^2, ... up to A^n_steps, where A is the product of ``factors``
    in order, each applied to the row vector by scipy's transposed product."""
    transposed = [sparse.csr_matrix((p.data, p.indices, p.indptr), shape=p.shape).T
                  for p in factors]
    out = [f]
    for _ in range(n_steps):
        for t in transposed:
            f = t @ f
        out.append(f)
    return out


class ColumnByColumn:
    """A scipy matrix applied to a block one column at a time, each column by
    scipy's own vector product; ``.T`` is scipy's transposed (CSC) view."""

    def __init__(self, ref):
        self.ref = ref
        self.shape = ref.shape

    @property
    def T(self) -> ColumnByColumn:
        return ColumnByColumn(self.ref.T)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return self.ref @ x
        return np.column_stack([self.ref @ np.ascontiguousarray(c) for c in x.T])


def column_by_column(op):
    """The annual operator ``op`` with each factor applied vector by vector,
    as the eigensolve applied it before it took a block per product, and
    each product a new array."""
    class FactorByFactor(type(op)):
        def __matmul__(self, x):
            for m in reversed(self.factors):
                for _ in range(self.exponent):
                    x = m @ x
            return x

    factors = tuple(ColumnByColumn(sparse.csr_matrix((f.data, f.indices, f.indptr),
                                                     shape=f.shape)) for f in op.factors)
    return FactorByFactor(factors, op.exponent, op.transition_time)


def random_substochastic(rng: np.random.Generator, n: int,
                         min_row: float = 0.5, max_row: float = 1.0,
                         density: float = 1.0) -> np.ndarray:
    """Random nonnegative matrix with row sums in [min_row, max_row]."""
    a = rng.random((n, n))
    if density < 1.0:
        a *= rng.random((n, n)) < density
        # Keep at least one entry per row so scaling is well defined.
        empty = a.sum(axis=1) == 0
        a[empty, rng.integers(n, size=int(empty.sum()))] = rng.random(int(empty.sum()))
    target = rng.uniform(min_row, max_row, n)
    return a * (target / a.sum(axis=1))[:, None]


def row_by_row_parse(path):
    """Trajectory CSV parse one csv row at a time.

    Returns (tracks, counts): tracks is a list of (drifter id, times, lons,
    lats) sorted by id, counts a dict with the ParseReport field names.
    Raises ValueError where the package raises ConfigError.
    """
    counts = dict(total_rows=0, valid_rows=0, skipped_rows=0, drogued_dropped=0,
                  duplicate_times=0, n_drifters=0)
    by_id: dict[str, list[tuple[float, float, float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        if header[:4] != ["id", "time_days", "lon", "lat"]:
            raise ValueError("bad header")
        has_drogued = len(header) > 4 and header[4] == "drogued"
        width = 5 if has_drogued else 4
        for row in reader:
            if not row or all(not f.strip() for f in row):
                continue
            counts["total_rows"] += 1
            if len(row) != width:
                counts["skipped_rows"] += 1
                continue
            try:
                t, lon, lat = float(row[1]), float(row[2]), float(row[3])
                drogued = int(row[4]) if has_drogued else 0
            except ValueError:
                counts["skipped_rows"] += 1
                continue
            if not (math.isfinite(t) and math.isfinite(lon) and math.isfinite(lat)):
                counts["skipped_rows"] += 1
                continue
            if drogued:
                counts["drogued_dropped"] += 1
                continue
            by_id.setdefault(row[0].strip(), []).append((t, lon, lat))
            counts["valid_rows"] += 1
    if counts["valid_rows"] == 0:
        raise ValueError("no valid rows")
    tracks = []
    for drifter_id in sorted(by_id):
        times, lons, lats = [], [], []
        for t, lon, lat in sorted(by_id[drifter_id], key=lambda r: r[0]):
            if times and t == times[-1]:
                counts["duplicate_times"] += 1
                continue
            times.append(t)
            lons.append(lon)
            lats.append(lat)
        tracks.append((drifter_id, np.asarray(times), np.asarray(lons), np.asarray(lats)))
    counts["n_drifters"] = len(tracks)
    return tracks, counts


def row_by_row_wet_mask(path, shape) -> dict:
    """Wet mask read one csv row at a time: each box and its wet flag.

    Blank rows and rows whose first field starts with `#` are skipped and
    fields are stripped.  A flag other than 0 or 1, a box given twice, a box
    outside the ``(n_lon, n_lat)`` ``shape`` and a file without rows raise
    ValueError with the package's message, and a row that is not three ints
    one in this reader's own words; the first offending row in file order is
    named.
    """
    first = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#") or all(not f.strip() for f in row):
                continue
            where = f"{path}:{lineno}"
            if len(row) != 3:
                raise ValueError(f"{where}: expected 3 fields, got {len(row)}")
            try:
                ix, iy, wet = (int(f.strip()) for f in row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if wet not in (0, 1):
                raise ValueError(f"{where}: wet flag must be 0 or 1, got {wet}")
            if (ix, iy) in first:
                raise ValueError(f"{where}: box {(ix, iy)} repeats line {first[ix, iy][0]}")
            if not (0 <= ix < shape[0] and 0 <= iy < shape[1]):
                raise ValueError(f"{where}: box {(ix, iy)} lies outside the "
                                 f"{shape[0]} x {shape[1]} grid")
            first[ix, iy] = (lineno, bool(wet))
    if not first:
        raise ValueError(f"{path}: empty wet mask")
    return {box: wet for box, (_, wet) in first.items()}


def scalar_cell_state(g, lon: float, lat: float) -> int:
    """State of a position from the half-open box bounds, one point at a time (-1 outside)."""

    def cell(value, lower, count):
        idx = math.floor((value - lower) / g.cell_size)
        if idx + 1 < count and value >= lower + (idx + 1) * g.cell_size:
            idx += 1
        elif idx > 0 and value < lower + idx * g.cell_size:
            idx -= 1
        if idx < 0 or idx >= count or value < lower + idx * g.cell_size:
            return -1
        if idx == count - 1 and value >= lower + count * g.cell_size:
            return -1
        return idx

    box = (cell(lon, g.lon_min, g.n_lon), cell(lat, g.lat_min, g.n_lat))
    hits = np.flatnonzero((g.boxes[:, 0] == box[0]) & (g.boxes[:, 1] == box[1]))
    return int(hits[0]) if hits.size else -1


def sample_by_sample_pairs(tracks, g, transition_time, season_of_day):
    """Lag-T pairs by a scan over each track's samples.

    ``tracks`` holds (times, lons, lats) triples; returns a list of
    (from_state, to_state, start_date, season) tuples in extraction order.
    """
    tol = transition_time / 10.0
    pairs = []
    for times, lons, lats in tracks:
        i = 0
        while i < len(times):
            target = times[i] + transition_time
            k = int(np.searchsorted(times, target))
            j, best_err = None, tol
            for idx in (k - 1, k):
                if 0 <= idx < len(times):
                    err = abs(times[idx] - target)
                    if err < best_err or (err == best_err and j is None):
                        j, best_err = idx, err
            if j is None:
                i += 1
                continue
            frm = scalar_cell_state(g, lons[i], lats[i])
            if frm == -1:
                i += 1
                continue
            start = float(times[i])
            pairs.append((frm, scalar_cell_state(g, lons[j], lats[j]), start,
                          season_of_day(start)))
            i = j
    return pairs


def loop_walk(opens, match, lo, hi) -> np.ndarray:
    """Pair starts of each track [lo, hi) by following its walk one sample at a time.

    A sample that opens a pair jumps to its match; any other sample steps
    to the next one.
    """
    step = np.maximum(np.where(opens, match, 0), np.arange(1, len(opens) + 1))
    starts = []
    for i, end in zip(lo, hi):
        while i < end:
            if opens[i]:
                starts.append(i)
            i = step[i]
    return np.asarray(starts, dtype=np.int64)


def dense_walk_tracks(spec, season_of_day):
    """Drifter walks that draw each move by scanning the dense kernel row.

    ``season_of_day(day, start_date)`` names the kernel of each step.  Consumes the RNG stream in the order ``synth.simulate_tracks`` does
    and returns one (times, lons, lats, states) tuple per drifter.
    """
    g = spec.grid()
    rng = np.random.default_rng(spec.seed)
    dt = spec.sample_interval_days
    max_steps = max(int(math.floor(spec.duration_days / dt)), 1)
    half = 0.45 * g.cell_size

    def position(state):
        lon, lat = g.box_center(state)
        return (lon + half * (2.0 * rng.random() - 1.0),
                lat + half * (2.0 * rng.random() - 1.0))

    def move(row):
        u = rng.random()
        acc = 0.0
        for j, p in enumerate(row):
            acc += p
            if u < acc:
                return j
        return -1

    tracks = []
    for _ in range(spec.n_drifters):
        step = int(rng.integers(max_steps))
        state = int(rng.integers(g.n_states))
        samples = []
        while step <= max_steps and state >= 0:
            samples.append((step * dt, *position(state), state))
            if step == max_steps:
                break
            season = season_of_day(step * dt, spec.start_date)
            state = move(spec.kernels[season][state])
            step += 1
        if state < 0 and step <= max_steps:
            samples.append((step * dt, g.lon_max + spec.cell_size,
                            (g.lat_min + g.lat_max) / 2.0, -1))
        times, lons, lats, states = (list(col) for col in zip(*samples))
        tracks.append((np.asarray(times), np.asarray(lons), np.asarray(lats),
                       np.asarray(states, dtype=np.int64)))
    return tracks


def dense_row_pairs(kernels, n_pairs: int, seed: int):
    """(from, to) pair draws by counting dense cumulative-row entries <= u.

    ``kernels`` is a list of kernels in season-code order; consumes the
    RNG stream in the order ``synth.sample_pairs`` does.
    """
    n = kernels[0].shape[0]
    rng = np.random.default_rng(seed)
    starts = rng.choice(n, size=n_pairs)
    season_idx = rng.integers(len(kernels), size=n_pairs)
    u = rng.random(n_pairs)
    ends = np.empty(n_pairs, dtype=np.int64)
    for i in range(n_pairs):
        cum = np.cumsum(kernels[season_idx[i]][starts[i]])
        pos = int(np.sum(u[i] >= cum))
        ends[i] = pos if pos < n else -1
    return starts, ends, season_idx


def whole_text_truth(spec, sampled_obs=None) -> str:
    """The text of a spec's ``truth.json``, encoded whole: the payload with
    its kernels as nested lists through one ``json.dumps(indent=2,
    sort_keys=True)``, and a line end."""
    payload = {
        "seed": spec.seed,
        "source_state": spec.source_state,
        "n_drifters": spec.n_drifters,
        "duration_days": spec.duration_days,
        "sample_interval_days": spec.sample_interval_days,
        "start_date": spec.start_date.isoformat(),
        "bounds": list(spec.bounds),
        "cell_size": spec.cell_size,
        "kernels": {str(s): np.asarray(k).tolist() for s, k in spec.kernels.items()},
        "leaky": list(spec.leaky),
        "sticky": {str(i): ell for i, ell in spec.sticky.items()},
        "debris": list(spec.debris),
        "candidate_sources": list(spec.candidate_sources),
        "sampled_observations": sampled_obs,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reduceat_best_paths(schedule, sources, b: int, n_steps: int):
    """Per-observation most-probable-path DP with segmented reductions.

    The forward max-product pass of the earlier package, one call per
    target: each step scores every edge for every source, takes
    ``np.maximum.reduceat`` over each column's edges and
    ``np.minimum.reduceat`` over the indices of the edges that attain it,
    so ties go to the smallest row.  Returns the fields of a ``PathSet``
    as plain tuples: (target_label, n_steps, sources, results, best), each
    result (states, log_prob, step_log_probs, season_labels, target,
    target_label, landing_state) or None.
    """
    n = schedule.n_grid_states
    target_col = schedule.target_state(b)
    src = np.unique(np.asarray(list(sources), dtype=np.int64))

    def layout(matrix, final: bool):
        coo = matrix.tocsr().tocoo()
        mask = (coo.row < n) & (coo.data > 0)
        mask &= (coo.col == target_col) if final else (coo.col < n)
        rows, cols, data = coo.row[mask], coo.col[mask], coo.data[mask]
        order = np.lexsort((rows, cols))
        rows, logs, cols = rows[order], np.log(data[order]), cols[order]
        head = np.ones(cols.size, dtype=bool)
        head[1:] = cols[1:] != cols[:-1]
        starts = np.flatnonzero(head)
        return rows, logs, starts, cols[starts], np.cumsum(head) - 1

    def step(lay, v):
        rows, logs, starts, _, seg = lay
        scores = v[rows] + logs[:, None]
        best = np.maximum.reduceat(scores, starts, axis=0)
        edge_ids = np.arange(rows.size)[:, None]
        hit = np.where(scores == best[seg], edge_ids, rows.size)
        return best, np.minimum.reduceat(hit, starts, axis=0)

    steps = [layout(schedule.matrix_for_step(k), k == n_steps - 1) for k in range(n_steps)]
    labels = tuple(schedule.season_label(k) for k in range(n_steps))
    v = np.full((n, src.size), -np.inf)
    v[src, np.arange(src.size)] = 0.0
    back = np.full((n_steps - 1, n, src.size), -1, dtype=np.int64)
    for k, lay in enumerate(steps[:-1]):
        best, back[k, lay[3]] = step(lay, v)
        v = np.full_like(v, -np.inf)
        v[lay[3]] = best
    best, win = step(steps[-1], v)  # at most one column: the target

    results = []
    for i, feasible in enumerate(np.isfinite(best).any(axis=0)):
        if not feasible:
            results.append(None)
            continue
        seq = [target_col]
        step_logs = []
        edge = win[0, i]
        for k in range(n_steps - 1, -1, -1):
            rows, logs = steps[k][0], steps[k][1]
            seq.append(int(rows[edge]))
            step_logs.append(float(logs[edge]))
            if k:
                edge = back[k - 1, rows[edge], i]
        results.append((tuple(reversed(seq)), float(best[0, i]), tuple(reversed(step_logs)),
                        labels, int(target_col), b, int(schedule.roles.debris[b - 1])))
    best_path = None
    for r in results:
        if r is not None and (best_path is None or r[1] > best_path[1]):
            best_path = r
    return b, n_steps, tuple(int(s) for s in src), tuple(results), best_path
