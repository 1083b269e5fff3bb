"""Most-probable-path computation under a fixed travel time.

Given a target beaching site observed after exactly K steps, the forward
dynamic program tracks, for each box j, step k and source box, the
largest log-probability of any k-step path from that source to j that
has not been absorbed on the way; the final step is forced into the
target's absorbing state.  An unconstrained shortest-path variant (no fixed
length, no absorption bookkeeping) serves as a cross-check.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

import numpy as np

from .csr import Csr
from .errors import UnreachableTargetError
from .grid import GridCovering
from .schedule import SeasonalSchedule

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PathResult:
    """One optimal path: K+1 states from source to final state.

    For constrained paths the final state is the absorbing target and
    ``landing_state`` is the coastal box it represents; unconstrained
    paths end in an ordinary state.  ``log_prob`` equals the sum of
    ``step_log_probs``.
    """

    states: tuple[int, ...]
    log_prob: float
    step_log_probs: tuple[float, ...]
    season_labels: tuple[str, ...]
    target: int
    target_label: int | None = None
    landing_state: int | None = None

    @property
    def source(self) -> int:
        return self.states[0]

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class PathSet:
    """Per-source optimal paths to one target, plus the overall best.

    ``results`` aligns with ``sources``; an infeasible source holds None.
    ``best`` is the feasible result of largest log-probability (ties go
    to the smallest source state).
    """

    target_label: int
    n_steps: int
    sources: tuple[int, ...]
    results: tuple[PathResult | None, ...]
    best: PathResult | None


class _EdgeLayout:
    """Positive-probability log-edges out of grid states, grouped by column.

    target_col None keeps edges into grid states (intermediate step);
    otherwise only edges into that single column are kept.  Edges are
    sorted by column, then by row, and ``first[c]`` is the index of column
    c's first edge.  Slot s holds the s-th edge of every column with more
    than s in-edges; ``cols`` lists the columns by in-degree, descending,
    so slot s covers a prefix of them.  A winning edge is stored as its
    slot, in ``slot_dtype``: the smallest unsigned type that holds the
    largest in-degree less one (``uint8`` up to 256 in-edges).
    """

    def __init__(self, matrix: Csr, n_grid: int, target_col: int | None):
        rows, cols, data = matrix.triplets()
        mask = (rows < n_grid) & (data > 0)
        mask &= (cols < n_grid) if target_col is None else (cols == target_col)
        rows, cols, data = rows[mask], cols[mask], data[mask]
        order = np.lexsort((rows, cols))
        self.rows = rows[order]
        self.logs = np.log(data[order])
        cols = cols[order]
        head = np.ones(cols.size, dtype=bool)
        head[1:] = cols[1:] != cols[:-1]
        starts = np.flatnonzero(head)  # first edge of each column
        degree = np.diff(starts, append=cols.size)
        by_degree = np.argsort(-degree, kind="stable")
        self.cols = cols[starts[by_degree]]
        self.first = np.zeros(matrix.shape[1], dtype=self.rows.dtype)
        self.first[cols[starts]] = starts
        starts, degree = starts[by_degree], degree[by_degree]
        self.slots = []
        for s in range(degree.max(initial=1)):
            e = starts[:np.count_nonzero(degree > s)] + s
            self.slots.append((self.rows[e], self.logs[e][:, None]))
        self.slot_dtype = np.min_scalar_type(len(self.slots) - 1)

    def step(self, v: np.ndarray):
        """Best score per (column, source) and the slot of the edge attaining it.

        Slots are visited in row order and only a strictly larger score
        replaces the best, so the smallest row wins a tie; a column whose
        scores are all -inf keeps its first edge.
        """
        (rows, logs), *rest = self.slots
        best = v[rows]
        best += logs
        slot = np.zeros(best.shape, dtype=self.slot_dtype)
        for s, (rows, logs) in enumerate(rest, start=1):
            scores = v[rows]
            scores += logs
            m = rows.size
            better = scores > best[:m]
            np.copyto(best[:m], scores, where=better)
            slot[:m][better] = s
        return best, slot


def most_probable_paths(
    schedule: SeasonalSchedule,
    sources,
    targets,
) -> list[PathSet]:
    """Most probable exactly-K-step paths from each source, for many targets.

    ``targets`` is a sequence of (label b, K) pairs; the result holds one
    PathSet per pair, in the same order.  Intermediate absorption is
    excluded: before the final step the walker must stay among the grid
    states, and only the last transition enters the target's absorbing
    state.  Infeasible sources yield None entries.

    The targets share one start date and one set of sources, so one
    forward max-product pass of max K - 1 intermediate steps serves them
    all: a ``paths`` run makes one pass, not one per observation.  It
    carries every source at once (a value column per source) and
    keeps, per step, state and source, the winning edge's slot among the
    state's in-edges: S*(K_max - 1)*n bytes while no state has more than
    256 in-edges (``_EdgeLayout``).  When the pass reaches step K - 1 of a
    target it takes that target's final step into its absorbing state, and
    every path is traced back through the shared back-pointers, each slot
    added to its column's first edge.  A step's temporaries are n x
    sources floats.  Log-probabilities are summed left to right along the
    path.  Ties are broken deterministically: an intermediate step goes to
    the smallest predecessor row, the final step to the smallest row
    entering the target, and ``best`` to the smallest source.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("at least one target is required")
    target_cols = []
    for b, k in targets:
        if k < 1:
            raise ValueError("path length must be at least 1 step")
        target_cols.append(schedule.target_state(b))  # raises for a label outside 1..M
    n = schedule.n_grid_states
    src = np.sort(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0:
        raise ValueError("at least one source state is required")
    src = src[np.append(True, src[1:] != src[:-1])]  # a bare np.unique loads numpy.ma
    if src.min() < 0 or src.max() >= n:
        raise ValueError("sources must be grid states")

    k_max = max(k for _, k in targets)
    due: dict[int, list[int]] = {}
    for i, (_, k) in enumerate(targets):
        due.setdefault(k - 1, []).append(i)
    layouts: dict[tuple[int, int | None], _EdgeLayout] = {}

    def layout(k: int, target_col: int | None) -> _EdgeLayout:
        m = schedule.matrix_for_step(k)
        key = (id(m), target_col)
        if key not in layouts:
            layouts[key] = _EdgeLayout(m, n, target_col)
        return layouts[key]

    middle = [layout(k, None) for k in range(k_max - 1)]
    v = np.full((n, src.size), -np.inf)
    v[src, np.arange(src.size)] = 0.0
    # No traceback reads a column without in-edges, so its zeros stay unread.
    back = np.zeros((k_max - 1, n, src.size),
                    dtype=np.result_type(np.uint8, *(lay.slot_dtype for lay in middle)))
    finals = {}
    for k in range(k_max):
        for i in due.get(k, ()):
            lay = layout(k, target_cols[i])
            finals[i] = (lay, *lay.step(v))  # at most one column: the target
        if k == k_max - 1:
            break
        lay = middle[k]
        best, back[k, lay.cols] = lay.step(v)
        v = np.full_like(v, -np.inf)
        v[lay.cols] = best

    labels = tuple(schedule.season_label(k) for k in range(k_max))
    path_sets = []
    for i, ((b, n_steps), target_col) in enumerate(zip(targets, target_cols)):
        last, best, win = finals[i]
        steps = [*middle[:n_steps - 1], last]
        results: list[PathResult | None] = [None] * src.size
        ok = np.flatnonzero(np.isfinite(best).any(axis=0))
        if ok.size:
            seq = np.empty((n_steps + 1, ok.size), dtype=np.int64)
            step_logs = np.empty((n_steps, ok.size))
            seq[-1] = target_col
            edge = last.first[target_col] + win[0, ok]
            for k in range(n_steps - 1, -1, -1):
                seq[k] = steps[k].rows[edge]
                step_logs[k] = steps[k].logs[edge]
                if k:
                    edge = steps[k - 1].first[seq[k]] + back[k - 1, seq[k], ok]
            landing = int(schedule.roles.debris[b - 1])
            for j, s in enumerate(ok):
                results[s] = PathResult(
                    states=tuple(int(x) for x in seq[:, j]),
                    log_prob=float(best[0, s]),
                    step_log_probs=tuple(float(x) for x in step_logs[:, j]),
                    season_labels=labels[:n_steps],
                    target=int(target_col),
                    target_label=b,
                    landing_state=landing,
                )
        best_path = None
        for s, r in zip(src, results):
            if r is None:
                log.info("no feasible %d-step path from state %d to target %d", n_steps, s, b)
            elif best_path is None or r.log_prob > best_path.log_prob:
                best_path = r
        path_sets.append(PathSet(
            target_label=b,
            n_steps=n_steps,
            sources=tuple(int(s) for s in src),
            results=tuple(results),
            best=best_path,
        ))
    return path_sets


def most_probable_path(
    schedule: SeasonalSchedule,
    sources,
    b: int,
    n_steps: int,
) -> PathSet:
    """Most probable exactly-K-step paths from each source into target b.

    The one-target call of `most_probable_paths`, which states the DP, its
    cost and its tie rules.  A ``paths`` run calls that once for all its
    observations, so the DP makes one pass per run, not one per
    observation.
    """
    return most_probable_paths(schedule, sources, [(b, n_steps)])[0]


def unconstrained_best_path(p, source: int, target: int, label: str | None = None) -> PathResult:
    """Maximum-probability path of any length (no absorption bookkeeping).

    Classic shortest-path search with edge weights -log P_ij >= 0;
    deterministic because neighbors relax in index order and only strict
    improvements update.  Raises UnreachableTargetError when no positive-
    probability route exists.
    """
    mat = Csr.of(getattr(p, "matrix", p))
    n = mat.shape[0]
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source and target must be valid states")
    if label is None:
        label = str(getattr(p, "label", "pooled"))

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    pred = np.full(n, -1, dtype=np.int64)
    pred_prob = np.zeros(n)  # P[pred[v], v], the edge that set dist[v]
    settled = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        lo, hi = mat.indptr[u], mat.indptr[u + 1]
        for v, pval in zip(mat.indices[lo:hi], mat.data[lo:hi]):
            if pval <= 0 or settled[v]:
                continue
            w = max(0.0, -np.log(pval))
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                pred_prob[v] = pval
                heapq.heappush(heap, (nd, v))
    if not settled[target]:
        raise UnreachableTargetError(
            f"state {target} is unreachable from {source} along positive-probability edges"
        )

    seq = [target]
    while seq[-1] != source:
        seq.append(int(pred[seq[-1]]))
    seq.reverse()
    step_logs = [float(np.log(pred_prob[v])) for v in seq[1:]]
    total = 0.0
    for s in step_logs:
        total += s
    return PathResult(
        states=tuple(seq),
        log_prob=total,
        step_log_probs=tuple(step_logs),
        season_labels=(label,) * (len(seq) - 1),
        target=target,
        target_label=None,
        landing_state=None,
    )


def path_to_geojson(p: PathResult | None, g: GridCovering) -> dict:
    """GeoJSON Feature tracing a path through box centers.

    Augmented absorbing states map to the landing box when known and are
    skipped otherwise; an infeasible (None or empty) path yields an empty
    LineString with an explanatory property.
    """
    if p is None or not p.states:
        return {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": []},
            "properties": {"error": "no feasible path"},
        }
    states = np.array(p.states)
    absorbed = -1 if p.landing_state is None else p.landing_state
    boxes = np.where(states < g.n_states, states, absorbed)
    steps = np.flatnonzero(boxes >= 0)
    coords = g.box_centers(boxes[steps]).tolist()
    props = {
        "log_prob": p.log_prob,
        "n_steps": p.n_steps,
        "source": p.states[0],
        "target": p.target,
        "target_label": p.target_label,
        "states": list(p.states),
        "step_indices": steps.tolist(),
        "step_log_probs": list(p.step_log_probs),
        "season_labels": list(p.season_labels),
    }
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coords},
        "properties": props,
    }


def common_source_report(path_sets) -> dict:
    """Best source per target, flagging sources shared by several targets."""
    best_by_target = {}
    by_source: dict[int, set[int]] = {}
    for ps in path_sets:
        if ps.best is None:
            best_by_target[ps.target_label] = None
            continue
        s = ps.best.source
        best_by_target[ps.target_label] = s
        by_source.setdefault(s, set()).add(ps.target_label)
    shared = {s: sorted(labels) for s, labels in by_source.items() if len(labels) > 1}
    return {"best_source_by_target": best_by_target, "shared_sources": shared}
