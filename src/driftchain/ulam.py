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
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError
from .grid import OUT_OF_DOMAIN
from .ingest import TransitionPairs
from .textio import is_plain, read_rows

log = logging.getLogger(__name__)

VALID_LABELS = ("W", "S", "SF", "annual", "pooled")

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse row-substochastic transition matrix over chain states.

    ``row_counts`` holds the number of lag-T samples per row for estimated
    matrices and is None for derived (composed) ones.  Rows without samples
    stay structurally empty; downstream augmentation treats them as fully
    leaky.  Treat instances as immutable.
    """

    matrix: sparse.csr_matrix
    transition_time: float
    label: str
    row_counts: np.ndarray | None = None

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got {m.shape}")
        if self.label not in VALID_LABELS:
            raise ValueError(f"unknown season label {self.label!r}")
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
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def deficits(self) -> np.ndarray:
        """Per-row missing mass 1 - row sum (out-of-domain leakage)."""
        return np.clip(1.0 - self.row_sums(), 0.0, None)

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
    counts = sparse.coo_matrix(
        (np.ones(keep.sum(), dtype=float), (frm[keep], to[keep])),
        shape=(n_states, n_states),
    ).tocsr()
    counts.sum_duplicates()
    denom = np.repeat(row_counts, np.diff(counts.indptr))
    counts.data /= denom
    counts.eliminate_zeros()
    counts.sort_indices()

    tm = TransitionMatrix(
        matrix=counts,
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
    annual = sparse.csr_matrix(op @ np.eye(op.n_states))
    # Products of substochastic factors are substochastic up to roundoff;
    # clamp stray ulps so the row-sum invariant holds exactly.
    sums = np.asarray(annual.sum(axis=1)).ravel()
    bad = sums > 1.0
    if bad.any():
        scale = np.ones_like(sums)
        scale[bad] = 1.0 / sums[bad]
        annual = sparse.diags(scale).dot(annual).tocsr()
    return TransitionMatrix(
        matrix=annual,
        transition_time=op.transition_time,
        label="annual",
        row_counts=None,
    )


@dataclass(frozen=True)
class AnnualOperator:
    """The annual map P_W^e * P_SF^e * P_S^e * P_SF^e, kept as its factors.

    ``factors`` holds the seasonal matrices in product order (W, SF, S, SF);
    their product is never formed, so the operator costs the seasonal
    matrices' memory, not the near-dense annual matrix's.  ``op @ x``
    applies the 4e factors right to left to a vector or a block of columns.
    ``op.T`` is the transposed map: the factors transposed (views, no
    copies) in reverse order, so ``propagate`` over the operator advances a
    distribution one year per step.
    """

    factors: tuple[sparse.spmatrix, ...]
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

    The factor order is fixed by the monsoon calendar's year, which starts
    in winter.  The operator refers to the seasonal matrices; it copies
    none of them.
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    for other in (p_s, p_sf):
        if other.n_states != p_w.n_states:
            raise ValueError("seasonal matrices must share the state count")
        if other.transition_time != p_w.transition_time:
            raise ValueError("seasonal matrices must share the transition time")
    sf = p_sf.matrix
    return AnnualOperator(factors=(p_w.matrix, sf, p_s.matrix, sf), exponent=exponent,
                          transition_time=4 * exponent * p_w.transition_time)


def propagate(f: np.ndarray,
              matrices: Iterable[sparse.spmatrix | AnnualOperator]) -> Iterator[np.ndarray]:
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


def save_matrix(tm: TransitionMatrix, path: str | Path) -> None:
    """Write the matrix in the text triplet format (bit-exact round trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# transition-matrix v1\n")
        fh.write(f"n_states {tm.n_states}\n")
        fh.write(f"transition_time_days {tm.transition_time:.17g}\n")
        fh.write(f"label {tm.label}\n")
        if tm.row_counts is None:
            fh.write("row_counts none\n")
        else:
            fh.write("row_counts " + ",".join(str(int(c)) for c in tm.row_counts) + "\n")
        fh.write("i,j,value\n")
        _write_triplets(fh, tm.matrix)


#: Entries formatted per chunk by :func:`_write_triplets`; bounds the Python
#: lists that formatting needs.
_WRITE_CHUNK = 1 << 16


def _write_triplets(fh, matrix: sparse.spmatrix) -> None:
    """Write one `i,j,value` line per entry, in row-major order."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols, vals = coo.row[order], coo.col[order], coo.data[order]
    for a in range(0, len(order), _WRITE_CHUNK):
        b = a + _WRITE_CHUNK
        fh.writelines(f"{i},{j},{v:.17g}\n" for i, j, v in
                      zip(rows[a:b].tolist(), cols[a:b].tolist(), vals[a:b].tolist()))


def load_matrix(path: str | Path) -> TransitionMatrix:
    """Read a matrix written by :func:`save_matrix`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    header, body_start = _split_header(lines, "# transition-matrix v1", path)
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
    rows, cols, vals = _parse_triplets(lines[body_start:], path, body_start + 1, n)
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    m.sort_indices()
    try:
        return TransitionMatrix(matrix=m, transition_time=t, label=label, row_counts=row_counts)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _split_header(lines: list[str], magic: str, path) -> tuple[dict[str, str], int]:
    """Header fields, and the index of the first line after `i,j,value`."""
    if not lines or lines[0].strip() != magic:
        raise ConfigError(f"{path}: not a {magic!r} file")
    header: dict[str, str] = {}
    for idx, line in enumerate(lines[1:], start=1):
        if line.strip() == "i,j,value":
            return header, idx + 1
        key, _, value = line.partition(" ")
        header[key.strip()] = value.strip()
    raise ConfigError(f"{path}: missing i,j,value section")


_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_triplets(entries: list[str], path, first_line: int,
                    n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse `i,j,value` lines up to the first blank, `#` or `[` line.

    ``first_line`` is the 1-based file line number of ``entries[0]``.  A
    malformed line, or an index outside 0..n_states-1, raises ConfigError
    naming its path and line.
    """
    parsed = None
    if is_plain("\n".join(entries)):
        # A stop line is blank (dropped by the C reader) or not numeric
        # (rejected), so a full parse means there is none.
        parsed = read_rows(entries, _TRIPLET)
    if parsed is None:
        parsed = _parse_triplets_by_line(entries, path, first_line)
    rows, cols = parsed["i"], parsed["j"]
    outside = np.flatnonzero((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= n_states))
    if outside.size:
        raise ConfigError(f"{path}:{first_line + outside[0]}: matrix index outside "
                          f"0..{n_states - 1} in {entries[outside[0]].strip()!r}")
    return rows, cols, parsed["v"]


def _parse_triplets_by_line(entries: list[str], path, first_line: int) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(entries, start=first_line):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("["):
            break
        try:
            i_s, j_s, v_s = line.split(",")
            rows.append((np.int64(int(i_s)), np.int64(int(j_s)), float(v_s)))
        except (ValueError, OverflowError):
            raise ConfigError(f"{path}:{lineno}: malformed matrix entry {line!r}") from None
    return np.array(rows, dtype=_TRIPLET)
