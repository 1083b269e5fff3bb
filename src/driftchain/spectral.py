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

from .csr import Csr, Transposed
from .grid import GridCovering, states_by_latitude_row
from .ulam import AnnualOperator

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

#: Extra start vectors beyond the requested eigenpair count: the block
#: is k + 2 wide, so the Krylov basis holds repeated and clustered
#: eigenvalues, which one start vector cannot (it finds one eigenvector
#: of a repeated eigenvalue).
_GUARD_VECTORS = 2

#: Blocks the Krylov basis holds before it restarts (64 vectors for k = 2);
#: a restart keeps the leading half of its Ritz vectors.  On the bench's
#: stencil chain, 8 blocks took 1.8 times the products of 16 at 10^4
#: states, and keeping only k + 2 Ritz vectors took 2.3 times the
#: products of keeping half at 3,600 states.
_BASIS_BLOCKS = 16

#: A new direction with less than this fraction of its length left after
#: orthogonalization lies in the basis span and is dropped (a breakdown).
_BREAKDOWN = 1e-12

_REAL_CUTOFF = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Leading eigenpairs ordered by descending modulus.

    Rows of ``left_vectors``/``right_vectors`` are the eigenvectors; a left
    vector with nonnegative entries is scaled to sum 1 (a distribution),
    otherwise to unit 1-norm, and right vectors are scaled so the entry of
    largest modulus equals 1.  Residuals are relative 1-norm defects
    ``|vA - lambda v|_1 / |lambda_1|`` of unit 2-norm vectors.
    ``iterations`` is the larger side's count of Krylov block steps,
    ``products`` the applications of the operator to a vector over both
    sides, and ``block_products`` the applications to a block, one per
    pending block.
    """

    eigenvalues: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_residuals: np.ndarray
    right_residuals: np.ndarray
    converged: np.ndarray
    is_complex_pair: np.ndarray
    iterations: int
    products: int
    block_products: int

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    @property
    def max_residual(self) -> float:
        """The worst residual over both sides."""
        return float(max(self.left_residuals.max(), self.right_residuals.max()))


@dataclass(frozen=True)
class BasinResult:
    """Basin of attraction with its restricted spectral retention time.

    ``products`` counts the restricted solve's applications of the
    operator to a vector and ``block_products`` those to a block.
    """

    members: np.ndarray
    threshold: float
    lambda_b: float
    transition_time: float
    products: int
    block_products: int

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

    op: AnnualOperator | Csr | Transposed
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
    return Csr.of(getattr(p, "matrix", p))


def _start_block(n: int, width: int, seed: int) -> np.ndarray:
    """Orthonormal start block whose first column spans the uniform vector."""
    x = np.empty((n, width))
    x[:, 0] = 1.0 / n
    if width > 1:
        rng = np.random.default_rng(seed)
        x[:, 1:] = rng.standard_normal((n, width - 1))
    q, _ = np.linalg.qr(x)
    return q


@dataclass(frozen=True)
class _Ritz:
    """The leading Ritz pairs of one Krylov solve, and what the solve did."""

    values: np.ndarray
    vectors: np.ndarray      # one row per value, unit 2-norm
    residuals: np.ndarray
    steps: int               # blocks added to the start block
    products: int            # applications of the operator to a vector
    block_products: int      # applications to a block, one per pending block


def _block_krylov(mat, k: int, tol: float, max_iter: int, seed: int) -> _Ritz:
    """Leading k eigenpairs of ``mat`` by block Krylov Rayleigh-Ritz.

    ``mat`` needs only ``shape`` and ``mat @ block`` for a block of
    columns.  The basis starts as ``_start_block`` and each step appends
    one block: the images of the last block, taken in one product and
    orthonormalized against the basis.  Every basis vector's image is
    kept, so the projected matrix and each Ritz pair's residual cost no
    further product.  When the basis would pass
    ``_BASIS_BLOCKS`` blocks it restarts from the span of its leading half
    of Ritz vectors (a complex pair kept whole) and goes on from the
    pending block, which is orthogonal to that span.  The solve stops
    when the first k pairs converge, after ``max_iter`` steps, or when
    the basis cannot grow: it spans the whole space, or the new block
    lies in its span.

    Products with the basis go through ``np.einsum``, never BLAS, so the
    result does not depend on the BLAS thread count, and the CLI runs
    OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
    """
    n = mat.shape[0]
    width = min(n, k + _GUARD_VECTORS)
    cap = min(n, _BASIS_BLOCKS * width)
    # room for one pending block past the cap, orthonormalized in place
    basis, images = np.empty((cap + width, n)), np.empty((cap + width, n))
    h = np.empty((cap + width, cap + width))     # h[i, j] = v_i . A v_j
    basis[:width] = _start_block(n, width, seed).T
    m, new, steps, products, block_products = 0, width, 0, 0, 0
    tiny = np.finfo(float).tiny
    while True:
        top = m + new
        images[m:top] = (mat @ basis[m:top].T).T
        products += new
        block_products += 1
        h[:top, m:top] = _dot(basis[:top], images[m:top])
        h[m:top, :m] = _dot(basis[m:top], images[:m])
        last, m = m, top
        vals, s = _ritz_pairs(h[:m, :m])
        coef = s[:, :k].T
        vecs = _combine(coef, basis[:m])
        defect = _combine(coef, images[:m]) - vals[:k, None] * vecs
        # Residuals are measured against the spectral scale |lambda_1|, so
        # (near-)zero eigenvalues can still converge in absolute terms.
        resid = np.abs(defect).sum(axis=1) / max(np.abs(vals[0]), tiny)
        if np.all(resid <= tol) or steps >= max_iter or m == n:
            break
        new = _orthonormalize(basis, m, images[last:m])
        if new == 0:
            break
        if m + new > cap:
            c = _restart_rows(vals, s, cap // 2)
            kept = len(c)
            basis[:kept], images[:kept] = _combine(c, basis[:m]), _combine(c, images[:m])
            h[:kept, :kept] = c @ h[:m, :m] @ c.T
            basis[kept:kept + new] = basis[m:m + new]
            m = kept
        steps += 1
    return _Ritz(vals[:k], vecs, resid, steps, products, block_products)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` for two stacks of rows."""
    return np.einsum("ij,kj->ik", a, b)


def _combine(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``c @ rows`` for real rows; a complex ``c`` is split, so ``rows`` is never cast."""
    if np.iscomplexobj(c):
        out = _combine(c.real, rows).astype(complex)
        out.imag = _combine(c.imag, rows)
        return out
    return np.einsum("ij,jk->ik", c, rows)


def _orthonormalize(basis: np.ndarray, m: int, rows: np.ndarray) -> int:
    """Append to ``basis[:m]`` the orthonormalized ``rows``; return how many were kept.

    Each row is orthogonalized twice against every row before it (twice
    is enough for working precision) and is dropped when less than
    ``_BREAKDOWN`` of its length is left, as it then lies in their span.
    """
    top = m
    for r in rows:
        before = _norm(r)
        for _ in range(2):
            r = r - np.einsum("i,ij->j", np.einsum("ij,j->i", basis[:top], r), basis[:top])
        after = _norm(r)
        if after > _BREAKDOWN * before:
            basis[top] = r / after
            top += 1
    return top - m


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.einsum("i,i->", x, x))


def _ritz_pairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the projected matrix ``h``, by descending modulus."""
    tiny = np.finfo(float).tiny
    off = h - np.diag(np.diag(h))
    if np.abs(off).max() <= 1e-13 * max(np.abs(np.diag(h)).max(), tiny):
        # Numerically diagonal projection (e.g. P = I): eig on a
        # degenerate matrix would mix the basis vectors arbitrarily.
        vals, s = np.diag(h).copy(), np.eye(len(h))
    else:
        vals, s = np.linalg.eig(h)
    # Quantize the sort key so roundoff-level modulus ties keep their
    # basis order (the uniform start vector stays first for P = I).
    mods = np.abs(vals)
    key = np.round(mods / max(mods.max(), tiny), 12)
    order = np.argsort(-key, kind="stable")
    return vals[order], s[:, order]


def _restart_rows(vals: np.ndarray, s: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal real coefficient rows spanning the leading p Ritz vectors.

    A complex vector brings its real and imaginary parts, which span its
    conjugate partner too; eig lists the partner with positive imaginary
    part first, so the one after it is skipped.
    """
    upper = vals[:p].imag >= 0
    keep = s[:, :p][:, upper]
    span = np.hstack([keep.real, keep.imag[:, vals[:p][upper].imag > 0]])
    return np.linalg.qr(span)[0].T


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

    left = _block_krylov(mat.T, k_eff, tol, max_iter, seed)
    right = _block_krylov(mat, k_eff, tol, max_iter, seed)

    converged = (left.residuals <= tol) & (right.residuals <= tol)
    steps = max(left.steps, right.steps)
    if not converged.all():
        log.warning(
            "eigensolver: %d of %d pairs unconverged after %d iterations "
            "(worst residual %.2e)",
            int((~converged).sum()), k_eff, steps,
            float(max(left.residuals.max(), right.residuals.max())),
        )
    lv = left.values
    return EigenResult(
        eigenvalues=lv,
        left_vectors=np.vstack([_tidy_vector(v, left=True) for v in left.vectors]),
        right_vectors=np.vstack([_tidy_vector(v, left=False) for v in right.vectors]),
        left_residuals=left.residuals,
        right_residuals=right.residuals,
        converged=converged,
        is_complex_pair=np.abs(lv.imag) > _REAL_CUTOFF * np.abs(lv),
        iterations=steps,
        products=left.products + right.products,
        block_products=left.block_products + right.block_products,
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
    lam, ritz = _restricted_modulus(p, members, tol, max_iter, seed)
    # The set was not picked by a threshold, hence NaN in that field.
    return BasinResult(members, math.nan, lam, transition_time, ritz.products,
                       ritz.block_products).retention_time


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
        lam, products, block_products = math.nan, 0, 0
    else:
        lam, ritz = _restricted_modulus(tm, members, tol, max_iter, seed)
        products, block_products = ritz.products, ritz.block_products
    return BasinResult(
        members=members, threshold=threshold, lambda_b=lam,
        transition_time=_transition_time_of(tm), products=products,
        block_products=block_products,
    )


def _restricted_modulus(p, members: np.ndarray, tol: float, max_iter: int,
                        seed: int) -> tuple[float, _Ritz]:
    """Dominant eigenvalue modulus of ``p`` restricted to the member rows/columns,
    and the solve that found it.

    A restriction with no entries has lambda_B = 0 (everything leaves
    after one step): the start block maps to zero, so the projected
    matrix is zero and the solve stops at once.
    """
    sub = _Restricted(_as_operator(p), members)
    # lambda_B is a left eigenvalue modulus, so only the left side is solved;
    # the value equals dominant_eigs(sub, k=1).moduli[0] bit for bit.
    ritz = _block_krylov(sub.T, 1, tol, max_iter, seed)
    if ritz.residuals[0] > tol:
        log.warning(
            "eigensolver: restricted eigenvalue unconverged after %d iterations "
            "(residual %.2e)", ritz.steps, float(ritz.residuals[0]),
        )
    return float(np.abs(ritz.values)[0]), ritz


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
