"""The row writer prints each value as the per-value rule does, and the repeat
rule finds the first row of each key as a dict of the keys seen so far does."""

import io
import sys

import numpy as np
import pytest

from driftchain import textio
from driftchain.textio import write_rows

EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1e16]
EDGE_INTS = [0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max]


def per_value(ints, floats):
    """The table as formatted one value at a time."""
    return "".join(f"{'%d' % int(i)},{'%.17g' % float(x)}\n" for i, x in zip(ints, floats))


def written(template, columns):
    fh = io.StringIO()
    write_rows(fh, template, columns)
    return fh.getvalue()


def test_edge_values_match_per_value_rule():
    n = len(EDGE_FLOATS) * len(EDGE_INTS)
    ints = np.repeat(np.array(EDGE_INTS, dtype=np.int64), len(EDGE_FLOATS))
    floats = np.tile(np.array(EDGE_FLOATS), len(EDGE_INTS))
    text = written("%d,%.17g\n", [ints, floats])
    assert text == per_value(ints.tolist(), floats.tolist())
    assert len(text.splitlines()) == n
    for piece in ("-0\n", ",0\n", "nan", "inf", "-inf", "4.9406564584124654e-324",
                  "1.7976931348623157e+308", "0.30000000000000004",
                  f"{np.iinfo(np.int64).min},", f"{np.iinfo(np.int64).max},"):
        assert piece in text, piece


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_chunk_boundaries(offset):
    # 0 rows, and one row short of, at and past a full chunk
    n = 0 if offset is None else textio._WRITE_CHUNK + offset
    rng = np.random.default_rng(n)
    ints = rng.integers(-sys.maxsize, sys.maxsize, size=n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    floats[::7] = -0.0
    text = written("%d,%.17g\n", [ints, floats])
    assert text == per_value(ints.tolist(), floats.tolist())
    assert text.count("\n") == n


def test_columns_may_be_strided_views_and_mixed_widths():
    table = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
    states = np.arange(4, dtype=np.int32)
    text = written("%d|%.17g|%.17g\n", [states, table[:, 0], table[:, 2]])
    assert text == "".join(f"{s}|{'%.17g' % a}|{'%.17g' % b}\n"
                           for s, a, b in zip(range(4), table[:, 0], table[:, 2]))


def first_seen(*columns) -> list[int]:
    """Each row's first row by a dict of the keys seen so far."""
    first = {}
    return [first.setdefault(key, k) for k, key in enumerate(zip(*(c.tolist() for c in columns)))]


@pytest.mark.parametrize("n_columns", [1, 2, 3])
def test_first_rows_matches_first_seen_rule(n_columns):
    # Values at the int64 limits: a key combined by arithmetic on them would wrap.
    rng = np.random.default_rng(n_columns)
    values = np.array(EDGE_INTS + [7, 8], dtype=np.int64)
    columns = [rng.choice(values, size=300) for _ in range(n_columns)]
    assert textio.first_rows(*columns).tolist() == first_seen(*columns)
    increasing = np.unique(columns[0])
    assert textio.first_rows(increasing).tolist() == list(range(len(increasing)))


@pytest.mark.parametrize("data, lines", [
    (b"", []), (b"a", ["a"]), (b"a\n", ["a"]), (b"a\n\n", ["a", ""]),
    ("a\x0cb\r\nc\x85\rd\x1c\u2028\n\ne\n".encode(), ["a\x0cb", "c\x85", "d\x1c\u2028", "", "e"]),
], ids=["empty", "no-line-end", "line-end", "blank-last", "breaks"])
def test_read_lines_breaks_only_at_line_ends(tmp_path, data, lines):
    # str.splitlines would also break at \x0c, \x85, \x1c and \u2028.
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    assert textio.read_lines(path) == lines


@pytest.mark.parametrize("text, blank", [
    ("", True), (" \t\x0b\x0c", True), ("\x1c", False), (" \x85", False), ("\u2028", False),
    (" 0 ", False),
])
def test_is_blank_takes_only_plain_whitespace(text, blank):
    assert textio.is_blank(text) is blank
