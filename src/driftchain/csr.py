"""Compressed sparse rows held in numpy, with scipy loaded at the first product.

Every chain and transition matrix is a :class:`Csr`: the three arrays of
a canonical CSR matrix (columns sorted within each row, no entry twice)
and its shape.  Building, saving, loading, checking and walking a matrix
needs numpy only, so the commands that never multiply (`build`, `paths`,
`synth`) do not import scipy: its import took about 0.3 s of the 0.65 s
that `driftchain --help` took on a 2-core x86-64 box.  A product
``m @ x``, the transpose ``m.T`` and the other scipy-only operations go
through one ``scipy.sparse.csr_matrix`` over the same arrays, made on
first use, so every product runs scipy's own kernel on the same data,
bit for bit.
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
    instances as immutable: the scipy matrix made at the first product
    shares the three arrays, so only in-place edits of them reach it.
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
    def _scipy(self):
        import scipy.sparse

        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def tocsr(self):
        """The ``scipy.sparse.csr_matrix`` over this matrix's arrays (not a copy)."""
        return self._scipy

    @property
    def T(self):
        return self._scipy.T

    def __matmul__(self, x):
        return self._scipy @ x

    def __getitem__(self, key):
        return self._scipy[key]
