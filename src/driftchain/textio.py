"""The package's numeric tables, read and written.

Reading: numpy's C text reader, held to what Python's own parsers accept.

``np.loadtxt`` parses comma-separated numbers far faster than a Python
loop, but it is not a drop-in replacement for ``float()`` and ``int()``:
it takes the ASCII separators \\x1c-\\x1f as whitespace and reads some
non-ASCII characters as integer digits.  Callers therefore hand it only
text that passes :func:`is_plain`.  What a rejection means is the caller's:
in a matrix, chain, wet mask or ``evolve --initial`` file every entry line must
pass, so it is an error naming the first rejected line (:func:`read_entries`);
in a trajectory file it only sends those lines to the Python row rule
(``ingest``).  Those tables name a repeated key by one rule, :func:`first_rows`.
Their lines are split by one rule, :func:`read_lines`, and skipped by one,
:func:`is_blank`, so that a message's line number is the file's.

Writing: :func:`write_rows` prints every numeric table, floats at 17
significant digits so that each value reads back bit for bit.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

#: ASCII characters kept from the C reader: NUL, which csv rejects on some
#: Python versions, and the separators it strips as whitespace.
_NOT_PLAIN_ASCII = "\x00\x1c\x1d\x1e\x1f"


def is_plain(text: str) -> bool:
    """True if the C reader parses the fields of ``text`` exactly as Python does."""
    return text.isascii() and not any(c in text for c in _NOT_PLAIN_ASCII)


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, ``lines[k]`` being its line k + 1.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only (universal newlines),
    not at the other breaks of :meth:`str.splitlines` such as ``\\x0c`` or
    ``\\x85``, which stay in the line they are in.  A line end at the end of
    the file starts no further line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def is_blank(text: str) -> bool:
    """True if ``text`` is empty or plain whitespace: spaces, tabs, ``\\x0b``
    and ``\\x0c``.  The separators ``\\x1c``-``\\x1f`` and non-ASCII breaks
    such as ``\\x85``, which :meth:`str.strip` also removes, are not blank."""
    return not text.strip() and is_plain(text)


def read_rows(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """Parse comma-separated lines into a structured array, or None.

    None means the C reader rejected the lines or skipped one of them (it
    drops blank lines), so no row can be matched to its line.  The dtype
    fixes the field count: a line with more or fewer fields is rejected.
    """
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads an int field such as "1.0" with only a
            # DeprecationWarning; Python's int() rejects it.
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    return rows if len(rows) == len(lines) else None


def read_entries(lines: list[str], dtype) -> tuple[np.ndarray | None, int]:
    """Parse lines each of which must be one entry: ``(rows, 0)``, or ``(None, i)``
    for the first line i that is not plain or that the C reader rejects, found
    by halving (a run of lines passes exactly when each of its lines does)."""
    def read(run):
        return read_rows(run, dtype) if is_plain("\n".join(run)) else None

    rows, lo, hi = read(lines), 0, len(lines)
    while rows is None and hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if read(lines[lo:mid]) is None else (mid, hi)
    return rows, lo


def first_rows(*columns: np.ndarray) -> np.ndarray:
    """Each row's first row: the index of the first row whose values in
    ``columns`` equal its own, so below its own index where it repeats one."""
    key = columns[0]
    for column in columns[1:]:
        # Dense codes keep the combined key within int64 whatever the values.
        _, code = np.unique(key, return_inverse=True)
        values, inverse = np.unique(column, return_inverse=True)
        key = code * len(values) + inverse
    if (key[1:] > key[:-1]).all():  # rows written in key order: no sort needed
        return np.arange(len(key))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


#: Rows formatted per ``%`` by :func:`write_rows`; bounds the Python lists
#: that formatting needs.
_WRITE_CHUNK = 1 << 16


def write_rows(fh, template: str, columns) -> None:
    """Write one ``template % row`` line per row of the parallel ``columns``.

    ``template`` holds one conversion per column and its line end, such as
    ``"%d,%d,%.17g\\n"``.  Values pass through ``.tolist()``, so a float
    prints as Python's ``"%.17g" % float(v)`` (``-0``, ``nan``, ``inf``
    included) and an int as ``"%d" % int(v)``.
    """
    for a in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [c[a:a + _WRITE_CHUNK].tolist() for c in columns]
        fh.write(template * len(chunk[0]) % tuple(itertools.chain.from_iterable(zip(*chunk))))
