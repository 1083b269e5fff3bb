"""Closure of a substochastic chain with absorbing states.

One pass turns the row-substochastic transition matrix into a fully
stochastic absorbing chain.  In each grid row, in this order:

1. the row's missing mass (its deficit, the domain exits) goes to a
   cemetery state;
2. a sticky coastal row is scaled by 1 - ell, its per-step landing
   probability ell, cemetery entry included;
3. the landed mass ell goes to the cemetery, except at debris sites,
   where it goes to that site's own absorbing target state;

and the cemetery and target states get diagonal 1.

State layout of the augmented chain (0-based): grid states ``0..N-1``,
cemetery ``N``, target states ``N+m`` for labels ``m = 1..M``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csr import Csr
from .errors import ConfigError, NumericalError
from .grid import ROLE_KINDS, StateRoles, roles_from_records
from .textio import read_lines, write_rows
from .ulam import _ROW_SUM_TOL, TransitionMatrix, _parse_triplets, _split_header

log = logging.getLogger(__name__)

#: Deficit on a row not declared leaky above which a data/roles mismatch
#: is reported.
_UNDECLARED_DEFICIT_WARN = 1e-9


@dataclass(frozen=True)
class AugmentedChain:
    """Row-stochastic absorbing chain over N grid states plus 1+M sinks.

    ``matrix`` has shape (N+1+M, N+1+M) and may be given as anything
    :meth:`Csr.of` takes; it is held as a :class:`Csr`.  ``roles`` assigns
    the grid states their leaky, sticky, debris and candidate-source roles.
    """

    matrix: Csr
    roles: StateRoles
    transition_time: float
    label: str

    def __post_init__(self):
        m = Csr.of(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"augmented matrix must be square, got {m.shape}")
        n = m.shape[0] - 1 - self.roles.n_targets
        if n < 1:
            raise ValueError(
                f"matrix of shape {m.shape} too small for {self.roles.n_targets} targets"
            )
        self.roles.check_states(n)
        # NaN fails every comparison below, so it is rejected on its own.
        if not np.isfinite(m.data).all():
            raise ValueError("augmented matrix entries must be finite")
        if m.nnz:
            lo, hi = m.data.min(), m.data.max()
            if lo < 0 or hi > 1 + _ROW_SUM_TOL:
                raise ValueError(f"entries outside [0, 1]: min={lo}, max={hi}")
        sums = m.row_sums()
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


def augment(tm: TransitionMatrix, roles: StateRoles) -> AugmentedChain:
    """Close ``tm`` into the absorbing chain, in one pass over its entries.

    Each grid row i takes its deficit 1 - row sum in the cemetery column
    (an empty row sends all its mass there); a sticky row is then scaled
    by 1 - ell(i), cemetery entry included, and its landed mass ell(i)
    goes to the cemetery, or at a debris site to the site's own target
    state(s), split equally when several target labels share one box.
    The cemetery and target states are absorbing.  Transition time and
    label come from ``tm``.

    A deficit below -1e-12 raises NumericalError, as does a row of the
    result that does not sum to 1; smaller negative deficits are clipped
    to 0.  A material deficit on a sampled row that is not declared leaky
    is logged, since it usually means the role file disagrees with the
    trajectory data.
    """
    n = tm.n_states
    roles.check_states(n)
    raw = 1.0 - tm.row_sums()
    if raw.min(initial=0.0) < -_ROW_SUM_TOL:
        raise NumericalError(
            f"negative row deficit {raw.min():.3e}: row sums exceed 1"
        )
    deficit = np.clip(raw, 0.0, None)

    sampled = np.ones(n, dtype=bool) if tm.row_counts is None else tm.row_counts > 0
    leaky = np.zeros(n, dtype=bool)
    leaky[list(roles.leaky)] = True
    undeclared = np.flatnonzero((deficit > _UNDECLARED_DEFICIT_WARN) & sampled & ~leaky)
    if undeclared.size:
        log.warning(
            "%d rows outside the declared leaky set have deficits > %g "
            "(first few: %s)",
            undeclared.size, _UNDECLARED_DEFICIT_WARN, undeclared[:5].tolist(),
        )

    ell = np.zeros(n)
    ell[list(roles.sticky)] = list(roles.sticky.values())
    scale = 1.0 - ell
    debris = np.asarray(roles.debris, dtype=np.int64)
    landed = ell.copy()  # the landed mass the cemetery takes: none at debris sites
    landed[debris] = 0.0
    to_cemetery = np.flatnonzero((deficit > 0) | (landed > 0))
    total = n + 1 + roles.n_targets
    sinks = np.arange(n, total)  # the cemetery, then the targets

    grid_rows, grid_cols, grid_vals = tm.matrix.triplets()
    rows = np.concatenate([grid_rows, to_cemetery, debris, sinks])
    cols = np.concatenate([grid_cols, np.full(to_cemetery.size, n), sinks[1:], sinks])
    vals = np.concatenate([
        grid_vals * scale[grid_rows],
        deficit[to_cemetery] * scale[to_cemetery] + landed[to_cemetery],
        ell[debris] / np.bincount(debris, minlength=n)[debris],
        np.ones(sinks.size),
    ])
    # Each (row, column) pair occurs once: grid entries stay below column n,
    # and each target label has its own column.
    matrix = Csr.from_entries(rows, cols, vals, (total, total))
    try:
        return AugmentedChain(matrix=matrix, roles=roles,
                              transition_time=float(tm.transition_time), label=tm.label)
    except ValueError as exc:
        raise NumericalError(f"augmented chain: {exc}") from None


def absorption_split(chain: AugmentedChain):
    """Split into the transient block Q and the absorption block R.

    Q holds transitions among the N grid states; R holds their transitions
    into the cemetery (column 0) and the M target states (columns 1..M).
    Both are ``scipy.sparse.csr_matrix``.
    """
    n = chain.n_grid_states
    q = chain.matrix[:n, :n].tocsr()
    r = chain.matrix[:n, n:].tocsr()
    return q, r


def save_chain(chain: AugmentedChain, path: str | Path) -> None:
    """Write the augmented chain: matrix triplets plus a role appendix.

    No command writes chains; `bayes` and `paths` build theirs at load.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# augmented-chain v1\n")
        fh.write(f"n_states {chain.n_states}\n")
        fh.write(f"n_grid_states {chain.n_grid_states}\n")
        fh.write(f"n_targets {chain.n_targets}\n")
        fh.write(f"transition_time_days {chain.transition_time:.17g}\n")
        fh.write(f"label {chain.label}\n")
        fh.write("i,j,value\n")
        write_rows(fh, "%d,%d,%.17g\n", chain.matrix.triplets())
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
    lines = read_lines(path)
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
    first = body_start + split_at + 2
    roles = roles_from_records(_appendix_records(body[split_at + 1:], first, path), path)
    if roles.n_targets != m:
        raise ConfigError(f"{path}: {roles.n_targets} debris records, header n_targets {m}")
    try:
        return AugmentedChain(matrix=Csr.from_entries(rows, cols, vals, (total, total)),
                              roles=roles, transition_time=t, label=label)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _appendix_records(lines: list[str], first_line: int, path):
    """Role records of the `[roles]` appendix, one `kind,state[,value]` line each.

    ``first_line`` is the 1-based file line number of ``lines[0]``.
    """
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split(",")
        try:
            if kind not in ROLE_KINDS or len(fields) != 1 + ROLE_KINDS[kind]:
                raise ValueError
            state = int(fields[0])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed roles line {line!r}") from None
        yield f"{path}:{lineno}", kind, state, fields[1] if len(fields) == 2 else None
