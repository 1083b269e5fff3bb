"""Closure of a substochastic chain with absorbing states.

Two augmentation stages turn the row-substochastic transition matrix into
a fully stochastic absorbing chain:

1. a cemetery state collects each row's missing mass (domain exits), and
2. beaching: every sticky coastal row is damped by its per-step landing
   probability ell; the landed mass goes to the cemetery, except at debris
   sites, where it goes to that site's own absorbing target state.

State layout of the augmented chain (0-based): grid states ``0..N-1``,
cemetery ``N``, target states ``N+m`` for labels ``m = 1..M``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError, NumericalError
from .grid import StateRoles
from .ulam import TransitionMatrix, _parse_triplets, _split_header, _write_triplets

log = logging.getLogger(__name__)

_ROW_SUM_TOL = 1e-12

#: Deficit on a row not declared leaky above which a data/roles mismatch
#: is reported.
_UNDECLARED_DEFICIT_WARN = 1e-9


@dataclass(frozen=True)
class AugmentedChain:
    """Row-stochastic absorbing chain over N grid states plus 1+M sinks.

    ``matrix`` has shape (N+1+M, N+1+M); ``roles`` assigns the grid
    states their leaky, sticky, debris and candidate-source roles.
    """

    matrix: sparse.csr_matrix
    roles: StateRoles
    transition_time: float
    label: str

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"augmented matrix must be square, got {m.shape}")
        n = m.shape[0] - 1 - self.roles.n_targets
        if n < 1:
            raise ValueError(
                f"matrix of shape {m.shape} too small for {self.roles.n_targets} targets"
            )
        self.roles.check_states(n)
        if m.nnz:
            lo, hi = m.data.min(), m.data.max()
            if lo < 0 or hi > 1 + _ROW_SUM_TOL:
                raise ValueError(f"entries outside [0, 1]: min={lo}, max={hi}")
        sums = np.asarray(m.sum(axis=1)).ravel()
        worst = np.abs(sums - 1.0).max() if sums.size else 0.0
        if worst > _ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {worst:.3e}")
        diag = m.diagonal()
        for a in self.absorbing_states():
            if diag[a] != 1.0:
                raise ValueError(f"state {a} must be absorbing (diagonal 1)")

    @property
    def n_grid_states(self) -> int:
        return self.matrix.shape[0] - 1 - self.roles.n_targets

    @property
    def n_targets(self) -> int:
        return self.roles.n_targets

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def cemetery(self) -> int:
        return self.n_grid_states

    def target_state(self, label: int) -> int:
        """Augmented index of target-cemetery ``label`` (1-based label)."""
        if not 1 <= label <= self.n_targets:
            raise ValueError(f"target label {label} outside 1..{self.n_targets}")
        return self.n_grid_states + label

    def absorbing_states(self) -> range:
        return range(self.n_grid_states, self.n_states)


def add_cemetery(tm: TransitionMatrix, roles: StateRoles) -> sparse.csr_matrix:
    """Append the cemetery state N collecting each row's deficit.

    Every positive row deficit is routed to column N so the result is
    exactly stochastic; a material deficit on a row that is not declared
    leaky (and has samples) is logged, since it usually means the role
    file disagrees with the trajectory data.  Empty rows send all their
    mass to the cemetery.
    """
    n = tm.n_states
    roles.check_states(n)
    raw = 1.0 - tm.row_sums()
    if raw.min(initial=0.0) < -_ROW_SUM_TOL:
        raise NumericalError(
            f"negative row deficit {raw.min():.3e}: row sums exceed 1"
        )
    deficit = np.clip(raw, 0.0, None)

    sampled = np.ones(n, dtype=bool)
    if tm.row_counts is not None:
        sampled = tm.row_counts > 0
    undeclared = [
        int(i)
        for i in np.flatnonzero((deficit > _UNDECLARED_DEFICIT_WARN) & sampled)
        if i not in roles.leaky
    ]
    if undeclared:
        log.warning(
            "%d rows outside the declared leaky set have deficits > %g "
            "(first few: %s)",
            len(undeclared), _UNDECLARED_DEFICIT_WARN, undeclared[:5],
        )

    coo = tm.matrix.tocoo()
    extra = np.flatnonzero(deficit > 0)
    rows = np.concatenate([coo.row, extra, [n]])
    cols = np.concatenate([coo.col, np.full(len(extra), n), [n]])
    vals = np.concatenate([coo.data, deficit[extra], [1.0]])
    out = sparse.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def add_beaching(
    pc: sparse.csr_matrix,
    roles: StateRoles,
    *,
    source: TransitionMatrix,
) -> AugmentedChain:
    """Apply the beaching augmentation to a cemetery-closed (N+1) matrix.

    Each sticky row i is scaled by (1 - ell(i)), cemetery column included;
    the landed mass ell(i) then goes to the cemetery for a non-debris row
    and to the row's own target state(s) for a debris row (split equally
    when several target labels share one box).  Target states are
    absorbing.  Transition time and label come from ``source``.
    """
    pc = sparse.csr_matrix(pc)
    n1 = pc.shape[0]
    if pc.shape[0] != pc.shape[1]:
        raise ValueError(f"expected a square matrix, got {pc.shape}")
    n = n1 - 1
    roles.check_states(n)
    m_targets = roles.n_targets
    total = n1 + m_targets

    scale = np.ones(n1)
    for i, ell in roles.sticky.items():
        scale[i] = 1.0 - ell

    coo = pc.tocoo()
    rows = [coo.row]
    cols = [coo.col]
    vals = [coo.data * scale[coo.row]]

    debris_states = set(roles.debris)
    beach_rows, beach_cols, beach_vals = [], [], []
    for i, ell in roles.sticky.items():
        if i in debris_states:
            labels = roles.targets_of(i)
            for m in labels:
                beach_rows.append(i)
                beach_cols.append(n + m)
                beach_vals.append(ell / len(labels))
        else:
            beach_rows.append(i)
            beach_cols.append(n)
            beach_vals.append(ell)
    for m in range(1, m_targets + 1):
        beach_rows.append(n + m)
        beach_cols.append(n + m)
        beach_vals.append(1.0)

    rows.append(np.asarray(beach_rows, dtype=np.int64))
    cols.append(np.asarray(beach_cols, dtype=np.int64))
    vals.append(np.asarray(beach_vals, dtype=float))
    full = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    full.sum_duplicates()
    full.sort_indices()

    sums = np.asarray(full.sum(axis=1)).ravel()
    worst = np.abs(sums - 1.0).max()
    if worst > _ROW_SUM_TOL:
        raise NumericalError(f"augmented row sums deviate from 1 by {worst:.3e}")

    return AugmentedChain(
        matrix=full,
        roles=roles,
        transition_time=float(source.transition_time),
        label=source.label,
    )


def augment(tm: TransitionMatrix, roles: StateRoles) -> AugmentedChain:
    """Full closure: cemetery then beaching, in that fixed order."""
    return add_beaching(add_cemetery(tm, roles), roles, source=tm)


def absorption_split(chain: AugmentedChain) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Split into the transient block Q and the absorption block R.

    Q holds transitions among the N grid states; R holds their transitions
    into the cemetery (column 0) and the M target states (columns 1..M).
    """
    n = chain.n_grid_states
    q = chain.matrix[:n, :n].tocsr()
    r = chain.matrix[:n, n:].tocsr()
    return q, r


def save_chain(chain: AugmentedChain, path: str | Path) -> None:
    """Write the augmented chain: matrix triplets plus a role appendix."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# augmented-chain v1\n")
        fh.write(f"n_states {chain.n_states}\n")
        fh.write(f"n_grid_states {chain.n_grid_states}\n")
        fh.write(f"n_targets {chain.n_targets}\n")
        fh.write(f"transition_time_days {chain.transition_time:.17g}\n")
        fh.write(f"label {chain.label}\n")
        fh.write("i,j,value\n")
        _write_triplets(fh, chain.matrix)
        fh.write("[roles]\n")
        for i in sorted(chain.roles.leaky):
            fh.write(f"leaky,{i}\n")
        for i, ell in sorted(chain.roles.sticky.items()):
            fh.write(f"sticky,{i},{ell:.17g}\n")
        for m, i in enumerate(chain.roles.debris, start=1):
            fh.write(f"debris,{i},{m}\n")
        for i in chain.roles.candidate_sources:
            fh.write(f"source,{i}\n")


def load_chain(path: str | Path) -> AugmentedChain:
    """Read a chain written by :func:`save_chain`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    header, body_start = _split_header(lines, "# augmented-chain v1", path)
    body = lines[body_start:]
    try:
        total = int(header["n_states"])
        n = int(header["n_grid_states"])
        m = int(header["n_targets"])
        t = float(header["transition_time_days"])
        label = header["label"]
    except KeyError as exc:
        raise ConfigError(f"{path}: missing header field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed header ({exc})") from None
    if total != n + 1 + m:
        raise ConfigError(f"{path}: inconsistent state counts in header")

    try:
        split_at = body.index("[roles]")
    except ValueError:
        raise ConfigError(f"{path}: missing [roles] appendix") from None
    rows, cols, vals = _parse_triplets(body[:split_at], path, body_start + 1, total)
    roles = _parse_roles_appendix(body[split_at + 1:], m, path)
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(total, total)).tocsr()
    matrix.sort_indices()
    try:
        return AugmentedChain(matrix=matrix, roles=roles, transition_time=t, label=label)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_roles_appendix(lines: list[str], m_targets: int, path) -> StateRoles:
    leaky: set[int] = set()
    sticky: dict[int, float] = {}
    debris: dict[int, int] = {}
    sources: list[int] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        kind = parts[0]
        try:
            if kind == "leaky" and len(parts) == 2:
                leaky.add(int(parts[1]))
            elif kind == "sticky" and len(parts) == 3:
                sticky[int(parts[1])] = float(parts[2])
            elif kind == "debris" and len(parts) == 3:
                debris[int(parts[2])] = int(parts[1])
            elif kind == "source" and len(parts) == 2:
                sources.append(int(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}: malformed roles line {line!r}") from None
    if sorted(debris) != list(range(1, m_targets + 1)):
        raise ConfigError(f"{path}: debris labels must cover 1..{m_targets}")
    return StateRoles(
        leaky=frozenset(leaky),
        sticky=sticky,
        debris=tuple(debris[k] for k in range(1, m_targets + 1)),
        candidate_sources=tuple(sources),
    )
