"""Compressed sparse rows held in numpy; every product by scipy's compiled loops.

Every chain and transition matrix is a :class:`Csr`: the three arrays of
a canonical CSR matrix (columns sorted within each row, no entry twice)
and its shape.  Building, saving, loading, checking and walking a matrix
needs numpy only.

Products have one kernel.  ``m @ x`` runs scipy's ``csr_matvec`` for a
vector and ``csr_matvecs`` for a block of columns over ``m``'s own arrays;
``m.T @ x`` runs ``csc_matvec``/``csc_matvecs`` over the same arrays,
which are the transpose's CSC arrays.  So every product has the bits of
scipy's own ``csr_matrix`` product, and each column of a block product is
bit for bit that column's vector product: a caller may gather vectors
into one block without changing a result.  The operand is cast once to a
C-contiguous float64 array; a complex operand raises.

The loops live in the extension module ``scipy.sparse._sparsetools``.
:func:`_sparsetools` loads that file once, by path, at the first product,
without importing the ``scipy.sparse`` package, so no command imports
scipy.  On a 2-core x86-64 box (numpy 2.4.6, scipy 1.17.1) the load took
0.4-0.7 ms and about 0.2 MB, where ``import scipy.sparse`` took
0.18-0.23 s and 22 MB.  The loader assumes the layout and signatures
scipy has had since 1.10: the file sits in ``scipy/sparse`` under one of
the interpreter's extension suffixes, and ::

    csr_matvec(n_row, n_col, indptr, indices, data, x, y)
    csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)

(``csc_*`` alike) add into a zeroed ``y`` of ``data``'s dtype, with
``x`` and ``y`` flattened in C order for a block.  A missing file raises
ImportError naming the directory searched; there is no fallback kernel.

Per product, on the same box, ``m.T @ x`` with the bench's five-point
stencil matrix: one vector took 67-69 us at 10^4 states and 0.59-0.70
ms at 10^5, where the ``np.bincount`` kernel this replaced took 147-177
us and 1.9 ms; four vectors as one block took 0.17-0.32 ms and 1.9-2.4
ms, where four ``bincount`` products took 0.60-0.66 ms and 8.0-8.4 ms.

``scipy.sparse`` is imported only by :meth:`Csr.tocsr` and indexing
(``Csr._scipy``), which tests and the benchmark's tracing use and no
command calls.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(eq=False)
class Csr:
    """A canonical CSR matrix: ``indptr``, ``indices`` and ``data`` over ``shape``.

    Row i holds columns ``indices[indptr[i]:indptr[i+1]]``, ascending, with
    values ``data[...]`` (float64).  Index arrays are int32 unless the
    shape or entry count needs int64, as scipy chooses them.  Treat
    instances as immutable: the arrays are checked once, at the first
    product, and the scipy matrix ``tocsr()`` makes shares them.
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

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``indptr``, ``indices`` and ``data``, checked once before any kernel reads them.

        The compiled loops trust their arguments, so an index past the
        operand or an ``indptr`` that runs backwards would read outside
        the arrays instead of raising.
        """
        n_rows, n_cols = self.shape
        indptr, indices, data = self.indptr, self.indices, self.data
        if not (indptr.dtype == indices.dtype and indptr.dtype in (np.int32, np.int64)
                and data.dtype == np.float64):
            raise TypeError(f"a Csr holds int32 or int64 indices and float64 values, got "
                            f"{indptr.dtype}, {indices.dtype} and {data.dtype}")
        if (indptr.shape != (n_rows + 1,) or indptr[0] != 0 or indices.ndim != 1
                or indices.shape != data.shape or indptr[-1] > indices.size
                or np.any(np.diff(indptr) < 0)):
            raise ValueError(f"indptr, indices and data do not form a {n_rows} x {n_cols} CSR")
        stored = indices[:indptr[-1]]
        if stored.size and (stored.min() < 0 or stored.max() >= n_cols):
            raise ValueError(f"a column index lies outside 0..{n_cols - 1}")
        return tuple(np.ascontiguousarray(a) for a in (indptr, indices, data))

    def tocsr(self):
        """The ``scipy.sparse.csr_matrix`` over this matrix's arrays (not a copy)."""
        return self._scipy

    @property
    def T(self) -> Transposed:
        return Transposed(self)

    def __matmul__(self, x):
        return _product(self, x)

    def __getitem__(self, key):
        return self._scipy[key]


@dataclass(frozen=True, eq=False)
class Transposed:
    """``m.T`` for a :class:`Csr` ``m``: the same arrays, read by column.

    ``t @ x`` runs scipy's CSC loops over ``m``'s arrays, as ``m``'s CSR
    arrays are ``t``'s CSC ones.
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
        return self.base._scipy.T.tocsr()

    def __matmul__(self, x):
        return _product(self, x)


def _product(a: Csr | Transposed, x, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ x`` by scipy's compiled loop for a vector or a block: the CSR
    loop over a :class:`Csr`'s arrays, the CSC loop over a transpose's.

    ``x`` is cast once to a C-contiguous float64 array, as scipy casts a
    real operand, so int, bool and float32 operands give scipy's bits.
    The product is written into ``out`` when given, a C-contiguous float64
    array of the product's shape that is not ``x``; it is zeroed first, as
    the loops add into their output, so its old values never show.
    """
    layout, m = ("csc", a.base) if isinstance(a, Transposed) else ("csr", a)
    x = np.asarray(x)
    if not np.can_cast(x.dtype, np.float64):
        raise TypeError(f"a sparse product takes a real operand, got {x.dtype}")
    n_out, n_in = a.shape
    if x.ndim not in (1, 2) or x.shape[0] != n_in:
        raise ValueError(f"an operand of shape {x.shape} does not match a "
                         f"{n_out} x {n_in} matrix")
    x = np.ascontiguousarray(x, dtype=np.float64)
    shape = (n_out, *x.shape[1:])
    if out is None:
        y = np.zeros(shape)
    elif (out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
          or np.may_share_memory(out, x)):
        raise ValueError(f"a product buffer must be a C-contiguous float64 array of "
                         f"shape {shape} apart from the operand")
    else:
        y = out
        y.fill(0.0)
    kernels = _sparsetools()
    if x.ndim == 1:
        getattr(kernels, f"{layout}_matvec")(n_out, n_in, *m._arrays, x, y)
    else:
        getattr(kernels, f"{layout}_matvecs")(n_out, n_in, x.shape[1], *m._arrays,
                                              x.ravel(), y.ravel())
    return y


_SPARSETOOLS = "scipy.sparse._sparsetools"


@cache
def _sparsetools():
    """scipy's compiled sparse loops, loaded once by path without importing
    ``scipy.sparse``; the module scipy has loaded, if it has."""
    if _SPARSETOOLS in sys.modules:
        return sys.modules[_SPARSETOOLS]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"scipy is not installed, so there is no {_SPARSETOOLS} to load")
    where = Path(spec.submodule_search_locations[0], "sparse")
    paths = [where / f"_sparsetools{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no {_SPARSETOOLS} extension in {where}")
    loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(_SPARSETOOLS, loader, origin=str(path)))
    loader.exec_module(module)
    # A single-phase extension enters itself in sys.modules; an entry left
    # there would keep a later ``import scipy.sparse`` from binding it as an
    # attribute of the package.  That import reuses the loaded extension.
    sys.modules.pop(_SPARSETOOLS, None)
    return module
