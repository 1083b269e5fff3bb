"""The numpy CSR builders and the products against scipy, array for array.

Each builder must give the dtype and the bytes of ``indptr``, ``indices``
and ``data`` that scipy gives for the same entries, so that products,
row sums and the written files stay bit for bit what they were.  The
absorbing closure is checked the same way in ``test_absorb.TestOnePass``.
The products run scipy's compiled loops without importing ``scipy.sparse``
and must give the bytes of scipy's own ``csr_matrix`` product.
"""

import importlib.machinery
import sys

import numpy as np
import pytest
from scipy import sparse

from conftest import make_roles
from oracles import random_substochastic, scipy_csr, scipy_estimate, scipy_vector_products

from driftchain import csr
from driftchain.absorb import augment, load_chain, save_chain
from driftchain.csr import Csr
from driftchain.grid import OUT_OF_DOMAIN
from driftchain.ingest import TransitionPairs
from driftchain.ulam import TransitionMatrix, estimate, load_matrix, save_matrix


def assert_same_arrays(got: Csr, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


def random_pairs(rng, n):
    """Lag pairs with empty rows, rows whose every pair left, and repeated keys."""
    size = int(rng.integers(0, 40 * n))
    live = rng.choice(n, size=max(1, n // 2), replace=False)  # other rows stay empty
    frm = rng.choice(live, size=size)
    to = rng.integers(0, min(n, 3), size=size) + rng.integers(0, n, size=size) // 3
    to = np.minimum(to, n - 1)
    to[rng.random(size) < 0.2] = OUT_OF_DOMAIN
    if live.size > 1:
        to[frm == live[0]] = OUT_OF_DOMAIN  # a sampled row with no entry
    return TransitionPairs(frm, to, np.zeros(size), np.zeros(size, dtype=np.int8))


@pytest.mark.parametrize("seed", range(40))
def test_estimate_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 1 if seed < 4 else int(rng.integers(2, 60))
    pairs = random_pairs(rng, n)
    tm = estimate(pairs, n, 5.0, "W")
    assert_same_arrays(tm.matrix, scipy_estimate(pairs.from_state, pairs.to_state, n))


def shuffled_body(path, rng):
    """Rewrite a saved file with its entry lines in random order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("i,j,value") + 1
    stop = lines.index("[roles]") if "[roles]" in lines else len(lines)
    body = lines[start:stop]
    rng.shuffle(body)
    path.write_text("\n".join(lines[:start] + body + lines[stop:]) + "\n", encoding="utf-8")
    return np.loadtxt(body, delimiter=",", ndmin=2) if body else np.empty((0, 3))


@pytest.mark.parametrize("seed", range(20))
def test_load_matrix_and_chain_match_scipy(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 30))
    a = random_substochastic(rng, n, min_row=0.5, density=rng.uniform(0.05, 1.0))
    a[rng.random(n) < 0.2] = 0.0
    tm = TransitionMatrix(matrix=a, transition_time=5.0, label="S")
    sticky = {int(s): 0.25 for s in rng.choice(n, size=min(n, 2), replace=False)}
    chain = augment(tm, make_roles(n, leaky=range(n), sticky=sticky, debris=list(sticky)))
    for save, load, record in ((save_matrix, load_matrix, tm), (save_chain, load_chain, chain)):
        path = tmp_path / f"{save.__name__}.txt"
        save(record, path)
        ijv = shuffled_body(path, rng)
        back = load(path)
        want = scipy_csr(ijv[:, 0].astype(int), ijv[:, 1].astype(int), ijv[:, 2],
                         record.matrix.shape)
        assert_same_arrays(back.matrix, want)
        assert_same_arrays(back.matrix, record.matrix)


def test_dense_and_scipy_inputs_match_scipy():
    rng = np.random.default_rng(7)
    a = random_substochastic(rng, 12, density=0.3)
    want = sparse.csr_matrix(a)
    assert_same_arrays(Csr.of(a), want)
    assert_same_arrays(Csr.of(want), want)
    # unsorted columns and a repeated entry are summed and sorted, as scipy does
    messy = sparse.csr_matrix((np.array([0.25, 0.5, 0.125]), np.array([2, 0, 2]),
                               np.array([0, 3, 3])), shape=(2, 3))
    assert_same_arrays(Csr.of(messy), scipy_csr([0, 0, 0], [2, 0, 2], [0.25, 0.5, 0.125],
                                                (2, 3)))


@pytest.mark.parametrize("seed", range(10))
def test_products_and_reductions_bitwise_equal_to_scipy(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 80))
    pairs = random_pairs(rng, n)
    m = estimate(pairs, n, 5.0, "W").matrix
    ref = scipy_estimate(pairs.from_state, pairs.to_state, n)
    for x in (rng.random(n), rng.random((n, 5))):
        assert (m @ x).tobytes() == (ref @ x).tobytes()
        assert (m.T @ x).tobytes() == (ref.T @ x).tobytes()
    assert m.row_sums().tobytes() == np.asarray(ref.sum(axis=1)).ravel().tobytes()
    assert np.array_equal(m.toarray(), ref.toarray())
    assert np.array_equal(m.diagonal(), ref.diagonal())
    rows, cols, vals = m.triplets()
    coo = ref.tocoo()
    assert rows.tolist() == coo.row.tolist() and cols.tolist() == coo.col.tolist()
    assert vals.tobytes() == coo.data.tobytes()
    assert m.nnz == ref.nnz
    assert m.tocsr() is m.tocsr()  # one scipy matrix per record, made once


def kernel_matrix(kind: str) -> Csr:
    rng = np.random.default_rng(300)
    if kind == "one-state":
        return Csr.from_entries([0], [0], [0.75], (1, 1))
    if kind == "no-entries":
        return Csr.from_entries([], [], [], (7, 7))
    if kind == "empty-rows":
        a = random_substochastic(rng, 30, density=0.2)
        a[rng.random(30) < 0.4] = 0.0
        return Csr.of(a)
    if kind == "rectangular":
        a = rng.random((6, 11)) * (rng.random((6, 11)) < 0.3)
        return Csr.of(a)
    if kind == "int64-indices":
        m = Csr.of(random_substochastic(rng, 25, density=0.3))
        return Csr(m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data, m.shape)
    if kind == "cemetery":
        # every row leaks, so every grid state has an edge into the cemetery column
        n = 60
        tm = TransitionMatrix(matrix=random_substochastic(rng, n, min_row=0.5, density=0.1),
                              transition_time=5.0, label="W")
        chain = augment(tm, make_roles(n, leaky=range(n), sticky={3: 0.5}, debris=[3]))
        assert np.count_nonzero(chain.matrix.triplets()[1] == n) >= n
        return chain.matrix
    raise ValueError(kind)


def kernel_vector(kind: str, n: int, rng) -> np.ndarray:
    if kind == "integer":
        return rng.integers(-5, 6, size=n)
    x = rng.standard_normal(n)
    if kind == "special":
        x[::4] = -0.0
        x[1::5] = np.nan
        x[2::6] = np.inf
        x[3::7] = -np.inf
    return x


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bitwise equal, except that a NaN matches any NaN.

    IEEE 754 leaves a NaN result's sign and payload open, and which NaN
    operand an addition returns follows the operand order the compiler
    chose.  Every other value must match bit for bit.
    """
    nan = np.isnan(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


KERNEL_MATRICES = ["one-state", "no-entries", "empty-rows", "rectangular", "int64-indices",
                   "cemetery"]


@pytest.mark.parametrize("values", ["real", "special", "integer"])
@pytest.mark.parametrize("kind", KERNEL_MATRICES)
def test_vector_products_bitwise_equal_to_scipy(kind, values):
    m = kernel_matrix(kind)
    rng = np.random.default_rng(301)
    x, y = kernel_vector(values, m.shape[1], rng), kernel_vector(values, m.shape[0], rng)
    want_mx, want_mty = scipy_vector_products(m, x, y)
    assert same_bits(m @ x, want_mx)
    assert same_bits(m.T @ y, want_mty)
    assert "_scipy" not in vars(m)  # the vector kernel never builds the scipy matrix


def test_transposed_view_shares_arrays_and_round_trips():
    m = kernel_matrix("rectangular")
    ref = sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    t = m.T
    assert t.shape == (11, 6) and t.T is m and t.T.T.shape == t.shape
    assert t.data is m.data and t.indices is m.indices
    assert np.array_equal(t.toarray(), ref.T.toarray())
    assert np.array_equal(t.T.T.toarray(), ref.T.toarray())
    assert_same_arrays(Csr.of(t), sparse.csr_matrix(ref.T))
    block = np.random.default_rng(302).random((6, 4))
    assert (t @ block).tobytes() == (ref.T @ block).tobytes()


def product_matrix(kind: str) -> Csr:
    if kind in ("int32", "int64"):
        m = kernel_matrix("rectangular")
        idx = np.dtype(kind)
        return Csr(m.indptr.astype(idx), m.indices.astype(idx), m.data, m.shape)
    shape = {"no-entries": (7, 5), "no-rows": (0, 6), "no-columns": (6, 0)}[kind]
    return Csr.from_entries([], [], [], shape)


def product_operand(kind: str, n: int, columns: int | None, rng) -> np.ndarray:
    """An operand with ``n`` rows: a vector, or a block of ``columns`` columns."""
    shape = (n,) if columns is None else (n, columns)
    if kind == "int":
        return rng.integers(-5, 6, size=shape)
    if kind == "bool":
        return rng.random(shape) < 0.5
    if kind == "float32":
        return rng.standard_normal(shape).astype(np.float32)
    if kind == "special":
        return rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5], size=shape)
    if columns is None:  # every other entry of a longer vector
        return rng.standard_normal(2 * n)[::2]
    # rows of a basis read as columns, as the block Krylov solve passes them
    return rng.standard_normal((columns + 2, n))[1:columns + 1].T


@pytest.mark.parametrize("columns", [None, 1, 4, 40], ids=["vector", "1", "4", "40"])
@pytest.mark.parametrize("operand", ["strided", "int", "bool", "float32", "special"])
@pytest.mark.parametrize("kind", ["int32", "int64", "no-entries", "no-rows", "no-columns"])
def test_products_give_scipys_bytes(kind, operand, columns):
    # Both sides run scipy's compiled loops, so even a NaN's sign must match.
    m = product_matrix(kind)
    ref = sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    rng = np.random.default_rng(303)
    for mat, want in ((m, ref), (m.T, ref.T)):
        x = product_operand(operand, mat.shape[1], columns, rng)
        got, expected = mat @ x, want @ x
        assert got.dtype == expected.dtype == np.float64
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert "_scipy" not in vars(m)


@pytest.mark.parametrize("columns", [None, 3], ids=["vector", "3"])
def test_product_into_a_used_buffer_is_zeroed_first(columns):
    # The loops add into their output, so a buffer that held NaN must not show.
    m = product_matrix("int32")
    rng = np.random.default_rng(304)
    for mat in (m, m.T):
        x = product_operand("strided", mat.shape[1], columns, rng)
        out = np.full((mat.shape[0],) if columns is None else (mat.shape[0], columns), np.nan)
        got = csr._product(mat, x, out=out)
        assert got is out and got.tobytes() == (mat @ x).tobytes()
        # The loops trust their output, so a buffer that does not fit raises.
        for bad in (out[:-1], out.astype(np.float32), out[::-1]):
            with pytest.raises(ValueError, match="product buffer"):
                csr._product(mat, x, out=bad)
    x = np.ones(3)
    with pytest.raises(ValueError, match="product buffer .* apart from the operand"):
        csr._product(Csr.of(np.eye(3)), x, out=x)


@pytest.mark.parametrize("operand, error", [
    (lambda n: np.ones(n, dtype=complex), TypeError),
    (lambda n: np.ones((n, 2), dtype=complex), TypeError),
    (lambda n: np.ones(n - 1), ValueError),
    (lambda n: np.ones((n + 1, 3)), ValueError),
    (lambda n: np.ones((n, 2, 2)), ValueError),
    (lambda n: np.float64(1.0), ValueError),
], ids=["complex-vector", "complex-block", "short-vector", "long-block", "3-d", "scalar"])
def test_bad_operand_raises(operand, error):
    m = kernel_matrix("rectangular")
    for mat in (m, m.T):
        with pytest.raises(error):
            mat @ operand(mat.shape[1])


@pytest.mark.parametrize("arrays, error", [
    (([0, 1, 2], [0, 5], [0.5, 0.5]), ValueError),      # column 5 of a 2 x 3 matrix
    (([0, 2, 1], [0, 1], [0.5, 0.5]), ValueError),      # indptr runs backwards
    (([0, 1, 3], [0, 1], [0.5, 0.5]), ValueError),      # more entries than stored
    (([0, 1], [0, 1], [0.5, 0.5]), ValueError),         # indptr of the wrong length
    (([0, 1, 2], [0, 1], np.array([0.5, 0.5], dtype=np.float32)), TypeError),
], ids=["column-outside", "indptr-backwards", "indptr-past-end", "indptr-length",
        "float32-values"])
def test_malformed_arrays_rejected_before_the_kernel(arrays, error):
    indptr, indices, data = arrays
    m = Csr(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
            np.asarray(data), (2, 3))
    with pytest.raises(error):
        m @ np.ones(3)
    with pytest.raises(error):
        m.T @ np.ones(2)


def test_missing_extension_names_the_directory_searched(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"^no scipy\.sparse\._sparsetools extension in "
                                          r".*scipy.sparse$"):
        csr._sparsetools.__wrapped__()  # the uncached loader
