"""Spectral analysis of transition matrices.

Dominant left/right eigenpairs drive everything here: the leading left
eigenvector of the substochastic annual matrix is the quasistationary
distribution of drifting debris, the leading right eigenvector level set
{r > 1/2} delimits the basin of attraction, and the restricted dominant
eigenvalue converts to an expected retention time T_B = T/(1 - lambda_B).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .grid import GridCovering, states_by_latitude_row
from .ulam import AnnualOperator

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

#: Extra subspace columns kept beyond the requested eigenpair count; they
#: buffer the Rayleigh-Ritz projection against slowly separating moduli.
_GUARD_VECTORS = 2

_REAL_CUTOFF = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Leading eigenpairs ordered by descending modulus.

    Rows of ``left_vectors``/``right_vectors`` are the eigenvectors; a left
    vector with nonnegative entries is scaled to sum 1 (a distribution),
    otherwise to unit 1-norm, and right vectors are scaled so the entry of
    largest modulus equals 1.  Residuals are relative 1-norm defects
    ``|vA - lambda v|_1 / |lambda|``.
    """

    eigenvalues: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_residuals: np.ndarray
    right_residuals: np.ndarray
    converged: np.ndarray
    is_complex_pair: np.ndarray
    iterations: int

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    @property
    def max_residual(self) -> float:
        """The worst residual over both sides."""
        return float(max(self.left_residuals.max(), self.right_residuals.max()))


@dataclass(frozen=True)
class BasinResult:
    """Basin of attraction with its restricted spectral retention time."""

    members: np.ndarray
    threshold: float
    lambda_b: float
    transition_time: float

    @property
    def retention_time(self) -> float:
        """Expected residence time T/(1 - lambda_B); inf for a closed set."""
        if self.lambda_b >= 1.0:
            return math.inf
        return self.transition_time / (1.0 - self.lambda_b)


@dataclass(frozen=True)
class _Restricted:
    """``op`` restricted to the member rows and columns, never sliced out.

    ``sub @ x`` applies ``op`` to x placed on the members (zero elsewhere)
    and reads the member rows of the result.  For a CSR ``op`` the zeros
    add nothing, so this equals the product with the sliced matrix bit
    for bit.
    """

    op: AnnualOperator | sparse.spmatrix
    members: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.members), len(self.members))

    @property
    def T(self) -> _Restricted:
        return _Restricted(self.op.T, self.members)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros((self.op.shape[0], *x.shape[1:]), dtype=x.dtype)
        full[self.members] = x
        return (self.op @ full)[self.members]


def _as_operator(p):
    """``p`` itself if it is an operator applied factor by factor, else its CSR matrix."""
    if isinstance(p, (AnnualOperator, _Restricted)):
        return p
    m = getattr(p, "matrix", p)
    if sparse.issparse(m):
        return m.tocsr()
    return sparse.csr_matrix(np.asarray(m, dtype=float))


def _start_block(n: int, width: int, seed: int) -> np.ndarray:
    """Orthonormal start block whose first column spans the uniform vector."""
    x = np.empty((n, width))
    x[:, 0] = 1.0 / n
    if width > 1:
        rng = np.random.default_rng(seed)
        x[:, 1:] = rng.standard_normal((n, width - 1))
    q, _ = np.linalg.qr(x)
    return q


def _subspace_iterate(mat, k: int, tol: float, max_iter: int, seed: int):
    """Block power iteration with Rayleigh-Ritz extraction.

    ``mat`` needs only ``shape`` and ``mat @ block``.

    Returns (ritz values, ritz vectors as columns, relative residuals,
    iterations) with the first k pairs converged when possible.
    """
    n = mat.shape[0]
    width = min(n, k + _GUARD_VECTORS)
    q = _start_block(n, width, seed)
    tiny = np.finfo(float).tiny
    its = 0
    while True:
        z = mat @ q
        b = q.T @ z
        off = b - np.diag(np.diag(b))
        if np.abs(off).max() <= 1e-13 * max(np.abs(np.diag(b)).max(), tiny):
            # Numerically diagonal projection (e.g. P = I): eig on a
            # degenerate matrix would mix the block columns arbitrarily.
            vals = np.diag(b).copy()
            s = np.eye(b.shape[0])
        else:
            vals, s = np.linalg.eig(b)
        # Quantize the sort key so roundoff-level modulus ties keep their
        # block order (the uniform start column stays first for P = I).
        mods = np.abs(vals)
        key = np.round(mods / max(mods.max(), tiny), 12)
        order = np.argsort(-key, kind="stable")
        vals, s = vals[order], s[:, order]
        vecs = q @ s
        defect = z @ s - vecs * vals
        # Residuals are measured against the spectral scale |lambda_1|, so
        # (near-)zero eigenvalues can still converge in absolute terms.
        scale = max(np.abs(vals[0]), tiny)
        resid = np.abs(defect).sum(axis=0) / scale
        if np.all(resid[:k] <= tol) or its >= max_iter:
            return vals[:k], vecs[:, :k], resid[:k], its
        q, _ = np.linalg.qr(z)
        its += 1


def _tidy_vector(v: np.ndarray, left: bool) -> np.ndarray:
    """Fix phase/sign, drop negligible imaginary parts, and normalize."""
    pivot = v[np.argmax(np.abs(v))]
    if pivot != 0:
        v = v / pivot
    scale = np.abs(v).max()
    if scale > 0 and np.abs(v.imag).max() <= _REAL_CUTOFF * scale:
        v = v.real.copy()
    if left:
        if np.isrealobj(v) and v.min() >= -_REAL_CUTOFF:
            total = v.sum()
        else:
            total = np.abs(v).sum()
        if total != 0:
            v = v / total
    return v


def dominant_eigs(p, k: int = 2, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> EigenResult:
    """Leading k eigenpairs (both sides) of a sparse transition matrix.

    Accepts a TransitionMatrix, an AugmentedChain, an AnnualOperator (its
    transpose gives the left side), or any square matrix.
    Deterministic for a fixed seed; non-converged pairs are returned with
    their ``converged`` flag cleared rather than raising.  Complex
    conjugate pairs are reported with ``is_complex_pair`` set; only their
    moduli are meaningful downstream.
    """
    mat = _as_operator(p)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got {mat.shape}")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = mat.shape[0]
    k_eff = min(k, n)

    lv, lvec, lres, lits = _subspace_iterate(mat.T, k_eff, tol, max_iter, seed)
    rv, rvec, rres, rits = _subspace_iterate(mat, k_eff, tol, max_iter, seed)

    left_rows = np.vstack([_tidy_vector(lvec[:, i], left=True) for i in range(k_eff)])
    right_rows = np.vstack([_tidy_vector(rvec[:, i], left=False) for i in range(k_eff)])
    converged = (lres <= tol) & (rres <= tol)
    if not converged.all():
        log.warning(
            "eigensolver: %d of %d pairs unconverged after %d iterations "
            "(worst residual %.2e)",
            int((~converged).sum()), k_eff, max(lits, rits),
            float(max(lres.max(), rres.max())),
        )
    return EigenResult(
        eigenvalues=lv,
        left_vectors=left_rows,
        right_vectors=right_rows,
        left_residuals=lres,
        right_residuals=rres,
        converged=converged,
        is_complex_pair=np.abs(lv.imag) > _REAL_CUTOFF * np.abs(lv),
        iterations=max(lits, rits),
    )


def basin_of_attraction(r: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """States whose right-eigenvector entry exceeds the threshold.

    Expects r scaled to max 1 (as produced by :func:`dominant_eigs`).
    """
    r = np.asarray(r)
    if np.iscomplexobj(r):
        raise ValueError("basin requires a real right eigenvector")
    return np.flatnonzero(r > threshold)


def retention_time(p, members: np.ndarray, transition_time: float,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                   seed: int = 0) -> float:
    """Expected retention time of the set: T/(1 - lambda_B).

    lambda_B is the dominant eigenvalue modulus of the matrix restricted
    to the member rows/columns.  A closed (non-leaking) set has
    lambda_B = 1 and infinite retention, reported as ``math.inf``.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise ValueError("retention time of an empty set is undefined")
    lam = _restricted_modulus(p, members, tol, max_iter, seed)
    # The set was not picked by a threshold, hence NaN in that field.
    return BasinResult(members, math.nan, lam, transition_time).retention_time


def analyze_basin(tm, threshold: float = 0.5, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, seed: int = 0,
                  eigs: EigenResult | None = None) -> BasinResult:
    """Basin membership plus restricted-eigenvalue retention time.

    Pass a precomputed ``eigs`` to reuse an existing spectral solve; its
    first right vector must belong to ``tm``.
    """
    if eigs is None:
        eigs = dominant_eigs(tm, k=1, tol=tol, max_iter=max_iter, seed=seed)
    r = eigs.right_vectors[0]
    if np.iscomplexobj(r):
        r = r.real
    members = basin_of_attraction(r, threshold)
    if members.size == 0:
        log.warning("no states exceed the basin threshold %.3g", threshold)
        lam = math.nan
    else:
        lam = _restricted_modulus(tm, members, tol, max_iter, seed)
    return BasinResult(
        members=members, threshold=threshold, lambda_b=lam,
        transition_time=_transition_time_of(tm),
    )


def _restricted_modulus(p, members: np.ndarray, tol: float, max_iter: int,
                        seed: int) -> float:
    """Dominant eigenvalue modulus of ``p`` restricted to the member rows/columns.

    A restriction with no entries has lambda_B = 0: everything leaves
    after one step.  Entries are nonnegative, so the restriction is empty
    when it maps the ones vector to zero.
    """
    sub = _Restricted(_as_operator(p), members)
    if not (sub @ np.ones(len(members))).any():
        return 0.0
    # lambda_B is a left eigenvalue modulus, so only the left side is iterated;
    # the values equal dominant_eigs(sub, k=1).moduli[0] bit for bit.
    vals, _, resid, its = _subspace_iterate(sub.T, 1, tol, max_iter, seed)
    if resid[0] > tol:
        log.warning(
            "eigensolver: restricted eigenvalue unconverged after %d iterations "
            "(residual %.2e)", its, float(resid[0]),
        )
    return float(np.abs(vals)[0])


def _transition_time_of(tm) -> float:
    return float(getattr(tm, "transition_time", 1.0))


@dataclass(frozen=True)
class ZonalProfile:
    """Zonal (per-latitude-row) mean of a state vector and its derivative."""

    latitudes: np.ndarray
    mean: np.ndarray
    derivative: np.ndarray = field(repr=False)


def zonal_profile(v: np.ndarray, g: GridCovering) -> ZonalProfile:
    """Average a state vector over boxes in each latitude row.

    Rows with no active boxes yield NaN means (and contaminate the
    centered-difference derivative at their neighbors).  The derivative
    uses centered differences inside, one-sided at the ends.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n_states,):
        raise ValueError(f"vector length {v.shape} does not match {g.n_states} states")
    rows = states_by_latitude_row(g)
    mean = np.full(g.n_lat, np.nan)
    for iy, states in enumerate(rows):
        if len(states):
            mean[iy] = v[states].mean()
    lats = g.lat_min + (np.arange(g.n_lat) + 0.5) * g.cell_size
    if g.n_lat > 1:
        deriv = np.gradient(mean, lats)
    else:
        deriv = np.zeros(1)
    return ZonalProfile(latitudes=lats, mean=mean, derivative=deriv)
