"""Compressed sparse rows held in numpy; scipy only for products with a block.

Every chain and transition matrix is a :class:`Csr`: the three arrays of
a canonical CSR matrix (columns sorted within each row, no entry twice)
and its shape.  Building, saving, loading, checking and walking a matrix
needs numpy only.

Products follow one rule: a real vector in numpy, a block in scipy.
``m @ x`` and ``m.T @ x`` for a real 1-D ``x`` are one ``np.bincount``
over the entries' row and column indices, which adds each output's terms
in the order scipy's ``csr_matvec`` and ``csc_matvec`` add them, so the
two agree bit for bit (a NaN's sign aside, which IEEE 754 leaves open).
``evolve`` and ``spectral`` multiply only vectors, so they never import
scipy.  On a 2-core x86-64 box ``import scipy.sparse`` took 0.14-0.19 s
and 19 MB, while the 216 products of an ``evolve --steps 3`` on 484 states take
about 2 ms.  The numpy kernel is the slower one
(``m.T @ x``: 8 against 10 us at 484 states, 58 against 155 us at 10^4,
0.58 against 1.7 ms at 10^5), so at 10^5 states the saved import is
spent after about 120-180 products, two to three annual steps.
A product with a 2-D block (the Bayes sweep and ``compose_annual``, the
only users left) and the other scipy-only operations go through one
``scipy.sparse.csr_matrix`` over the same arrays, made on first use:
with 40 columns at 256 and 10^4 states, scipy's kernel was 11-40 times
faster than numpy ones (``bincount`` per column or over the flattened
block, ``np.add.at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(eq=False)
class Csr:
    """A canonical CSR matrix: ``indptr``, ``indices`` and ``data`` over ``shape``.

    Row i holds columns ``indices[indptr[i]:indptr[i+1]]``, ascending, with
    values ``data[...]`` (float64).  Index arrays are int32 unless the
    shape or entry count needs int64, as scipy chooses them.  Treat
    instances as immutable: the ``intp`` entry indices made at the first
    vector product may be copies, and the scipy matrix made at the first
    block product shares the three arrays, so an in-place edit reaches
    one and not the other.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, m) -> Csr:
        """``m`` as a Csr: a Csr itself, anything with ``tocsr()``, or a dense array."""
        if isinstance(m, Csr):
            return m
        if hasattr(m, "tocsr"):
            m = m.tocsr()
            if not m.has_canonical_format:
                m = m.copy()
                m.sum_duplicates()
            return cls(m.indptr, m.indices, np.asarray(m.data, dtype=float), tuple(m.shape))
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"a matrix must be 2-D, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        return cls.from_entries(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple[int, int]) -> Csr:
        """The matrix with entry (rows[k], cols[k]) = vals[k].

        No (row, col) pair may appear twice; explicit zeros are kept.
        """
        n_rows, n_cols = map(int, shape)
        rows = np.asarray(rows, dtype=np.int64)
        order = np.argsort(rows * n_cols + cols, kind="stable")
        idx = np.int32 if max(n_rows, n_cols, rows.size) <= _INT32_MAX else np.int64
        indptr = np.zeros(n_rows + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(indptr, np.asarray(cols)[order].astype(idx),
                   np.asarray(vals, dtype=float)[order], (n_rows, n_cols))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored entries, in row-major order."""
        rows = np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))
        return rows, self.indices, self.data

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows, cols, vals = self.triplets()
        out[rows, cols] = vals
        return out

    def row_sums(self) -> np.ndarray:
        """Sum of each row: scipy's ``sum(axis=1)`` reduction, so the same bits."""
        out = np.zeros(self.shape[0])
        filled = np.flatnonzero(np.diff(self.indptr))
        out[filled] = np.add.reduceat(self.data, self.indptr[filled])
        return out

    def diagonal(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        out = np.zeros(min(self.shape))
        on = rows == cols
        out[rows[on]] = vals[on]
        return out

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of each stored entry, as ``intp`` for ``np.bincount``."""
        return np.repeat(np.arange(self.shape[0], dtype=np.intp), np.diff(self.indptr))

    @cached_property
    def _cols(self) -> np.ndarray:
        """``indices`` as ``intp``, cast once rather than at every product."""
        return self.indices.astype(np.intp, copy=False)

    @cached_property
    def _scipy(self):
        import scipy.sparse

        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    @cached_property
    def _scipy_t(self):
        """scipy's CSC transpose of ``_scipy``, made once: building one costs
        about as much as a block product on a 484-state matrix."""
        return self._scipy.T

    def tocsr(self):
        """The ``scipy.sparse.csr_matrix`` over this matrix's arrays (not a copy)."""
        return self._scipy

    @property
    def T(self) -> Transposed:
        return Transposed(self)

    def __matmul__(self, x):
        if _real_vector(x, self.shape[1]):
            return _gather_add(self._rows, self.data, x, self._cols, self.shape[0])
        return self._scipy @ x

    def __getitem__(self, key):
        return self._scipy[key]


@dataclass(frozen=True, eq=False)
class Transposed:
    """``m.T`` for a :class:`Csr` ``m``: the same arrays, read by column.

    ``t @ x`` for a real vector is the numpy kernel with the row and column
    indices swapped; any other operand goes through scipy's transposed
    (CSC) view of ``m``.
    """

    base: Csr

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape[::-1]

    @property
    def indices(self) -> np.ndarray:
        return self.base.indices

    @property
    def data(self) -> np.ndarray:
        return self.base.data

    @property
    def T(self) -> Csr:
        return self.base

    def toarray(self) -> np.ndarray:
        return self.base.toarray().T

    def tocsr(self):
        """This transpose as a new ``scipy.sparse.csr_matrix``."""
        return self.base._scipy_t.tocsr()

    def __matmul__(self, x):
        m = self.base
        if _real_vector(x, m.shape[0]):
            return _gather_add(m._cols, m.data, x, m._rows, m.shape[1])
        return m._scipy_t @ x


def _gather_add(out: np.ndarray, data: np.ndarray, x: np.ndarray, at: np.ndarray,
                n_out: int) -> np.ndarray:
    """y[out[k]] += data[k] * x[at[k]] for each entry k in turn, from y = 0.

    The same terms added in the same order as scipy's ``csr_matvec``
    (``at`` the columns) and ``csc_matvec`` (``at`` the rows), so the same
    bits.
    """
    y = np.bincount(out, weights=data * x[at], minlength=n_out)
    return y.astype(np.float64, copy=False)  # no entries: bincount gives int zeros


def _real_vector(x, n: int) -> bool:
    """Whether ``x`` is a length-``n`` numpy vector whose values float64 holds."""
    return isinstance(x, np.ndarray) and x.shape == (n,) and np.can_cast(x.dtype, np.float64)
