"""Transition-matrix estimation and manipulation.

A transition matrix is estimated by counting box-to-box transitions of
sample trajectories at lag T: entry (i, j) is the fraction of lag-T pairs
starting in box i that end in box j.  Pairs ending outside the domain
count in the denominator only, so rows of boxes with observed exits sum to
less than one (row-substochastic).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .csr import Csr, Transposed
from .errors import ConfigError
from .grid import OUT_OF_DOMAIN, GridCovering
from .ingest import YEAR_BLOCKS, Season, TransitionPairs
from .textio import first_rows, read_entries, read_lines, write_rows

log = logging.getLogger(__name__)

VALID_LABELS = ("W", "S", "SF", "annual", "pooled")

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse row-substochastic transition matrix over chain states.

    ``row_counts`` holds the number of lag-T samples per row for estimated
    matrices and is None for derived (composed) ones.  Rows without samples
    stay structurally empty; downstream augmentation treats them as fully
    leaky.  ``matrix`` may be given as anything :meth:`Csr.of` takes and
    is held as a :class:`Csr`.  Treat instances as immutable.
    """

    matrix: Csr
    transition_time: float
    label: str
    row_counts: np.ndarray | None = None

    def __post_init__(self):
        m = Csr.of(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got {m.shape}")
        if self.label not in VALID_LABELS:
            raise ValueError(f"unknown season label {self.label!r}")
        # NaN fails every comparison below, so it is rejected on its own.
        if not np.isfinite(m.data).all():
            raise ValueError("transition matrix entries must be finite")
        if m.nnz and m.data.min() < 0:
            raise ValueError("transition matrix entries must be nonnegative")
        sums = self.row_sums()
        if sums.size and sums.max() > 1.0 + _ROW_SUM_TOL:
            raise ValueError(f"row sum {sums.max()} exceeds 1")
        if self.row_counts is not None and len(self.row_counts) != m.shape[0]:
            raise ValueError("row_counts length must match the state count")

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.matrix.row_sums()

    def empty_rows(self) -> np.ndarray:
        """Indices of states with no samples (or no entries if counts unknown)."""
        if self.row_counts is not None:
            return np.flatnonzero(self.row_counts == 0)
        return np.flatnonzero(np.diff(self.matrix.indptr) == 0)

    def empty_row_fraction(self) -> float:
        return len(self.empty_rows()) / self.n_states


def estimate(
    pairs: TransitionPairs,
    n_states: int,
    transition_time: float,
    label: str,
) -> TransitionMatrix:
    """Estimate the transition matrix from lag-T pairs by direct counting.

    P[i, j] = count(i -> j) / count(i -> anywhere), where the denominator
    includes pairs that ended outside the domain; those contribute to the
    row deficit rather than to any column.  Rows with zero samples are left
    empty and flagged via ``row_counts``.
    """
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    frm, to = pairs.from_state, pairs.to_state
    if frm.size:
        if frm.min() < 0 or frm.max() >= n_states:
            raise ValueError("pair from_state outside 0..n_states-1")
        if to.max(initial=-1) >= n_states or to.min(initial=0) < OUT_OF_DOMAIN:
            raise ValueError("pair to_state outside valid range")

    row_counts = np.bincount(frm, minlength=n_states).astype(np.int64)
    keep = to != OUT_OF_DOMAIN
    keys, counts = np.unique(frm[keep].astype(np.int64) * n_states + to[keep],
                             return_counts=True)
    rows = keys // n_states
    tm = TransitionMatrix(
        matrix=Csr.from_entries(rows, keys % n_states, counts / row_counts[rows],
                                (n_states, n_states)),
        transition_time=float(transition_time),
        label=label,
        row_counts=row_counts,
    )
    if tm.empty_row_fraction() > 0:
        log.info(
            "estimate(%s): %d of %d rows empty (%.1f%%)",
            label, len(tm.empty_rows()), n_states, 100 * tm.empty_row_fraction(),
        )
    return tm


def compose_annual(
    p_w: TransitionMatrix,
    p_s: TransitionMatrix,
    p_sf: TransitionMatrix,
    exponent: int = 18,
) -> TransitionMatrix:
    """The annual matrix P_W^e * P_SF^e * P_S^e * P_SF^e, materialised.

    It is :func:`annual_operator` applied to the identity, so forming it
    costs n_states^2 floats whatever its fill; the CLI applies the operator
    instead.  With the default exponent 18 and 5-day seasonal matrices the
    composite advances one 360-day year.
    """
    op = annual_operator(p_w, p_s, p_sf, exponent)
    annual = Csr.of(op @ np.eye(op.n_states))
    # Products of substochastic factors are substochastic up to roundoff;
    # clamp stray ulps so the row-sum invariant holds exactly.
    sums = annual.row_sums()
    bad = sums > 1.0
    if bad.any():
        scale = np.ones_like(sums)
        scale[bad] = 1.0 / sums[bad]
        annual = Csr(annual.indptr, annual.indices,
                     annual.data * np.repeat(scale, np.diff(annual.indptr)), annual.shape)
    return TransitionMatrix(
        matrix=annual,
        transition_time=op.transition_time,
        label="annual",
        row_counts=None,
    )


@dataclass(frozen=True)
class AnnualOperator:
    """The annual map P_W^e * P_SF^e * P_S^e * P_SF^e, kept as its factors.

    ``factors`` holds the seasonal matrices in product order, which is the
    calendar's year order (W, SF, S, SF); their product is never formed, so
    the operator costs the seasonal matrices' memory, not the near-dense
    annual matrix's.  ``op @ x`` applies the 4e factors right to left to a
    vector or a block of columns.
    ``op.T`` is the transposed map: the factors transposed (views, no
    copies) in reverse order, so ``propagate`` over the operator advances a
    distribution one year per step.
    """

    factors: tuple[Csr | Transposed, ...]
    exponent: int
    transition_time: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.factors[0].shape

    @property
    def n_states(self) -> int:
        return self.shape[0]

    @property
    def T(self) -> AnnualOperator:
        return AnnualOperator(tuple(m.T for m in reversed(self.factors)),
                              self.exponent, self.transition_time)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        for m in reversed(self.factors):
            for _ in range(self.exponent):
                x = m @ x
        return x


def annual_operator(
    p_w: TransitionMatrix,
    p_s: TransitionMatrix,
    p_sf: TransitionMatrix,
    exponent: int = 18,
) -> AnnualOperator:
    """The annual map P_W^e * P_SF^e * P_S^e * P_SF^e over the seasonal matrices.

    The factors follow the calendar's season blocks in year order
    (``ingest.YEAR_BLOCKS``).  The operator refers to the seasonal
    matrices; it copies none of them.
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    for other in (p_s, p_sf):
        if other.n_states != p_w.n_states:
            raise ValueError("seasonal matrices must share the state count")
        if other.transition_time != p_w.transition_time:
            raise ValueError("seasonal matrices must share the transition time")
    by_season = {Season.W: p_w, Season.S: p_s, Season.SF: p_sf}
    return AnnualOperator(factors=tuple(by_season[s].matrix for s in YEAR_BLOCKS),
                          exponent=exponent,
                          transition_time=len(YEAR_BLOCKS) * exponent * p_w.transition_time)


def propagate(f: np.ndarray,
              matrices: Iterable[Csr | AnnualOperator]) -> Iterator[np.ndarray]:
    """Yield ``f``, then ``f`` after each matrix in turn: f, f P_0, f P_0 P_1, ...

    The one loop that steps a distribution.  A 2-D ``f`` evolves one
    distribution per column, each bitwise equal to evolving it alone; the
    iterate costs n_states x columns x 8 bytes.  ``matrices`` is read one
    per step taken; an :class:`AnnualOperator` is one year's step.
    ``synth._one_absorption`` stays apart: it draws one state per step with
    ``rng.choice``, and a sweep would change its RNG stream and the synth
    outputs.
    """
    yield f
    for m in matrices:
        f = m.T @ f
        yield f


def push_forward(f: np.ndarray, tm: TransitionMatrix, k: int = 1) -> np.ndarray:
    """Evolve a (sub)probability row vector k steps: returns f P^k.

    Uses k successive vector-matrix products; P^k is never materialized.
    """
    v = np.asarray(f, dtype=float)
    if v.ndim != 1 or v.shape[0] != tm.n_states:
        raise ValueError(f"vector length {v.shape} does not match {tm.n_states} states")
    if v.min(initial=0.0) < -1e-12:
        raise ValueError("distribution entries must be nonnegative")
    if v.sum() > 1.0 + 1e-10:
        raise ValueError("distribution mass exceeds 1")
    if k < 0:
        raise ValueError("step count must be nonnegative")
    for out in propagate(v.copy(), itertools.repeat(tm.matrix, k)):
        pass
    return out


@dataclass(frozen=True)
class MarkovTestRow:
    """One lag multiple of the Markovianity diagnostic."""

    n: int
    observed: np.ndarray    # leading eigenvalue moduli of P(nT)
    predicted: np.ndarray   # moduli of P(T) raised to the n-th power
    rel_deviation: np.ndarray
    converged: bool


def markov_test(
    p1: TransitionMatrix,
    pn: Sequence[TransitionMatrix],
    k_eigs: int = 2,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> list[MarkovTestRow]:
    """Compare leading eigenvalue moduli of P(nT) against those of P(T)^n.

    For a time-homogeneous Markov chain the two agree; the relative
    deviation per eigenvalue quantifies memory effects at each lag
    multiple.  Non-convergence of the eigensolver is flagged per row.
    """
    from .spectral import dominant_eigs

    if k_eigs < 1:
        raise ValueError("k_eigs must be at least 1")
    base = dominant_eigs(p1, k=k_eigs, tol=tol, max_iter=max_iter)
    rows = []
    for tm in pn:
        ratio = tm.transition_time / p1.transition_time
        n = round(ratio)
        if n < 1 or abs(ratio - n) > 1e-9:
            raise ValueError(
                f"lag {tm.transition_time} is not an integer multiple of {p1.transition_time}"
            )
        res = dominant_eigs(tm, k=k_eigs, tol=tol, max_iter=max_iter)
        k = min(k_eigs, len(res.moduli), len(base.moduli))
        observed = res.moduli[:k]
        predicted = base.moduli[:k] ** n
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(observed - predicted) / predicted
        rows.append(
            MarkovTestRow(
                n=n,
                observed=observed,
                predicted=predicted,
                rel_deviation=rel,
                converged=bool(res.converged[:k].all() and base.converged[:k].all()),
            )
        )
    return rows


def save_matrix(tm: TransitionMatrix, path: str | Path, grid: GridCovering | None = None,
                crash_date: date | None = None) -> None:
    """Write the matrix in the text triplet format (bit-exact round trip).

    With ``grid``, a `grid` header line records the bounds and cell size
    the matrix was estimated on; with ``crash_date``, a `crash_date` line
    records the epoch whose calendar tagged its pairs' seasons.
    :func:`load_matrix` checks both.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# transition-matrix v1\n")
        fh.write(f"n_states {tm.n_states}\n")
        fh.write(f"transition_time_days {tm.transition_time:.17g}\n")
        fh.write(f"label {tm.label}\n")
        if grid is not None:
            fh.write(f"grid {grid.bounds_text()}\n")
        if crash_date is not None:
            fh.write(f"crash_date {crash_date.isoformat()}\n")
        if tm.row_counts is None:
            fh.write("row_counts none\n")
        else:
            fh.write("row_counts " + ",".join(str(int(c)) for c in tm.row_counts) + "\n")
        fh.write("i,j,value\n")
        write_rows(fh, "%d,%d,%.17g\n", tm.matrix.triplets())


def load_matrix(path: str | Path,
                grid: tuple[GridCovering, str | Path] | None = None,
                crash_date: date | None = None) -> TransitionMatrix:
    """Read a matrix written by :func:`save_matrix`.

    ``grid`` is the grid the matrix must belong to and the file it was
    configured in: a state count other than the grid's, or a `grid` header
    line that records other bounds or cell size, raises ConfigError.  A
    file without the line (one saved without ``grid``) has only its state
    count checked.  Likewise a `crash_date` header line that records
    another date than ``crash_date`` raises ConfigError, and a file
    without the line is read unchecked.
    """
    lines = read_lines(path)
    header, body_start = _split_header(lines, "# transition-matrix v1", path)
    built_on = header.get("grid")
    if grid is not None and built_on is not None and built_on != grid[0].bounds_text():
        raise ConfigError(f"seasonal matrices do not match the configured grid: {path} was "
                          f"built on {built_on}, but {grid[1]} gives "
                          f"{grid[0].bounds_text()}; rerun `driftchain build`")
    built_for = header.get("crash_date")
    if crash_date is not None and built_for is not None and built_for != crash_date.isoformat():
        raise ConfigError(f"seasonal matrices do not match the run config: {path} was built "
                          f"with crash_date {built_for}, but crash_date is "
                          f"{crash_date.isoformat()}; rerun `driftchain build`")
    try:
        n = int(header["n_states"])
        t = float(header["transition_time_days"])
        label = header["label"]
        counts_field = header["row_counts"]
        row_counts = None
        if counts_field != "none":
            row_counts = np.array([int(c) for c in counts_field.split(",")], dtype=np.int64)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing header field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed header ({exc})") from None
    if grid is not None and n != grid[0].n_states:
        raise ConfigError(f"seasonal matrices do not match the configured grid: {path} has "
                          f"{n} states, but {grid[1]} gives {grid[0].n_states}; "
                          "rerun `driftchain build`")
    rows, cols, vals = _parse_triplets(lines[body_start:], path, body_start + 1, n)
    try:
        return TransitionMatrix(matrix=Csr.from_entries(rows, cols, vals, (n, n)),
                                transition_time=t, label=label, row_counts=row_counts)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _split_header(lines: list[str], magic: str, path) -> tuple[dict[str, str], int]:
    """Header fields, and the index of the first line after `i,j,value`.

    Blank lines are skipped; a key given twice raises ConfigError naming
    both lines.
    """
    if not lines or lines[0].strip() != magic:
        raise ConfigError(f"{path}: not a {magic!r} file")
    header: dict[str, str] = {}
    line_of: dict[str, int] = {}
    # Line k of the file is lines[k - 1], so the body starts at lines[lineno].
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "i,j,value":
            return header, lineno
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        key = key.strip()
        if key in header:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}, "
                              f"first given on line {line_of[key]}")
        header[key], line_of[key] = value.strip(), lineno
    raise ConfigError(f"{path}: missing i,j,value section")


_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_triplets(entries: list[str], path, first_line: int,
                    n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse `i,j,value` lines, each of which must be one entry.

    ``first_line`` is the 1-based file line number of ``entries[0]``.  A
    line the C reader rejects (blank, a comment, a character that is not
    plain, a field that is not a number), an index outside
    0..n_states-1, or an (i, j) pair given twice raises ConfigError
    naming its path and line.
    """
    parsed, bad = read_entries(entries, _TRIPLET)
    if parsed is None:
        raise ConfigError(f"{path}:{first_line + bad}: malformed matrix entry "
                          f"{entries[bad]!r}")
    rows, cols = parsed["i"], parsed["j"]
    outside = np.flatnonzero((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= n_states))
    if outside.size:
        raise ConfigError(f"{path}:{first_line + outside[0]}: matrix index outside "
                          f"0..{n_states - 1} in {entries[outside[0]]!r}")
    earlier = first_rows(rows * n_states + cols)
    repeats = np.flatnonzero(earlier < np.arange(len(rows)))
    if repeats.size:
        later = repeats[0]
        raise ConfigError(f"{path}: lines {first_line + earlier[later]} and {first_line + later} "
                          f"both give entry ({rows[later]}, {cols[later]})")
    return rows, cols, parsed["v"]
