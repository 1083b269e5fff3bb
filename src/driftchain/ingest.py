"""Trajectory parsing, lag-T transition-pair extraction, and seasonal binning.

Times are fractional days since a configurable epoch (default the crash
date, 2014-03-08).  Seasons follow the monsoon calendar: January-March is
the winter season W, July-September the summer season S, and the remaining
six months form the transition season SF.

Ingest is columnar: the trajectory file is parsed in blocks by numpy's C
reader, lag-T pairs are found with array operations, and the pairs travel
as one table of parallel arrays (:class:`TransitionPairs`).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import OUT_OF_DOMAIN, GridCovering
from .textio import is_plain, read_rows

log = logging.getLogger(__name__)

DEFAULT_EPOCH = date(2014, 3, 8)


class Season(Enum):
    W = "W"
    S = "S"
    SF = "SF"

    def __str__(self) -> str:
        return self.value


#: Season order behind the ``TransitionPairs.season`` codes.
SEASONS = tuple(Season)

#: The monsoon calendar, month number to season.
MONTH_SEASONS = {
    1: Season.W, 2: Season.W, 3: Season.W,
    4: Season.SF, 5: Season.SF, 6: Season.SF,
    7: Season.S, 8: Season.S, 9: Season.S,
    10: Season.SF, 11: Season.SF, 12: Season.SF,
}

#: Days in one season block of the calendar's year.  The annual map applies
#: each block's seasonal matrix season_exponent times, so the lag must tile
#: a block exactly.
SEASON_BLOCK_DAYS = 90.0

#: The season of each block of the year, in year order: a block takes the
#: season of its first month.  This is the annual map's factor order.
YEAR_BLOCKS = tuple(MONTH_SEASONS[month] for month in (1, 4, 7, 10))

#: Days in the calendar's year, the span of one annual map: 360.
YEAR_DAYS = len(YEAR_BLOCKS) * SEASON_BLOCK_DAYS


def season_of_day(day: float, epoch: date = DEFAULT_EPOCH) -> Season:
    """Season of a fractional day-since-epoch timestamp."""
    return MONTH_SEASONS[(epoch + timedelta(days=math.floor(day))).month]


@dataclass(frozen=True)
class TransitionPairs:
    """Lag-T (start box, end box) samples as parallel arrays, one entry per pair.

    ``to_state`` is OUT_OF_DOMAIN when the trajectory left the domain by
    t+T; ``from_state`` is always a valid state.  ``start_date`` is the
    start time in days since the epoch and ``season`` indexes ``SEASONS``.
    """

    from_state: np.ndarray
    to_state: np.ndarray
    start_date: np.ndarray
    season: np.ndarray

    def __post_init__(self):
        for name, dtype in (("from_state", np.int64), ("to_state", np.int64),
                            ("start_date", np.float64), ("season", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({len(self.from_state), len(self.to_state),
                len(self.start_date), len(self.season)}) != 1:
            raise ValueError("pair columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.from_state)

    def select(self, mask: np.ndarray) -> TransitionPairs:
        """The pairs where ``mask`` holds, in their original order."""
        return TransitionPairs(self.from_state[mask], self.to_state[mask],
                               self.start_date[mask], self.season[mask])


@dataclass(frozen=True)
class Trajectory:
    drifter_id: str
    times: np.ndarray
    lons: np.ndarray
    lats: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class ParseReport:
    total_rows: int = 0
    valid_rows: int = 0
    skipped_rows: int = 0
    drogued_dropped: int = 0
    duplicate_times: int = 0
    n_drifters: int = 0


#: Physical lines read from the trajectory file per block.
_BLOCK_LINES = 2048

#: A rejected run of at most this many lines goes through the Python row
#: rule at once instead of being halved further.
_BISECT_FLOOR = 16

#: ASCII whitespace that ``str.strip`` removes from an id of a plain line.
_ID_PADDING = " \t\x0b\x0c"


def _plain(text: str) -> bool:
    """True for lines the C reader may parse: no quote, nothing it reads differently."""
    return '"' not in text and is_plain(text)


def parse_trajectories(path: str | Path) -> tuple[list[Trajectory], ParseReport]:
    """Read a `id,time_days,lon,lat[,drogued]` CSV into per-drifter tracks.

    Rows are grouped by drifter id and sorted by time; drifters come back
    sorted by id.  Malformed rows are skipped and counted, duplicate
    timestamps within a drifter keep the first occurrence, and rows with a
    drogued flag other than 0 are dropped when the optional column is
    present.  Raises ConfigError if the header is wrong or no row survives.

    The file is read in blocks of lines.  numpy's C reader parses a block
    of plain lines; a block with a quote or other characters, and lines the
    C reader rejects, are tokenised by ``csv`` and converted by ``float()``
    and ``int()`` (:meth:`_Rows.add_row`).  Both paths give the same
    values, so the result equals a row-by-row csv parse.
    """
    try:
        capacity = _line_breaks(path)
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file {path}: {exc}") from None
    with fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ConfigError(f"{path}: empty trajectory file")
        header = [h.strip() for h in header]
        if header[:4] != ["id", "time_days", "lon", "lat"]:
            raise ConfigError(f"{path}: expected header id,time_days,lon,lat[,drogued]")
        has_drogued = len(header) > 4 and header[4] == "drogued"
        rows = _Rows(width=5 if has_drogued else 4, capacity=capacity)
        while block := list(islice(fh, _BLOCK_LINES)):
            rows.add_block(block, fh)
    return _group_tracks(rows, path)


def _line_breaks(path: str | Path) -> int:
    """Line breaks in the file (\\n, \\r\\n or \\r), an upper bound on its data rows.

    Every record after the header starts on a line of its own, and the
    header takes the first line.
    """
    breaks = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            breaks += chunk.count(b"\n")
            if b"\r" in chunk:
                # A \r\n split between chunks counts twice, which keeps the bound.
                breaks += chunk.count(b"\r") - chunk.count(b"\r\n")
    return breaks


class _Rows:
    """Accepted rows, each written once into preallocated columns in file order.

    A row is accepted when it parses, its time and position are finite and
    it is not drogued; other rows are only counted.  Ids get integer codes
    in order of arrival.  Rows from the C reader and from the Python row
    rule go into the same columns as they arrive, so position in the
    columns is position in the file.
    """

    def __init__(self, width: int, capacity: int):
        self.width = width
        fields = [("id", object), ("t", float), ("lon", float), ("lat", float)]
        if width == 5:
            fields.append(("drogued", np.int64))
        self.dtype = np.dtype(fields)
        self.codes: dict[str, int] = {}
        self.code = np.empty(capacity, dtype=np.int32)
        self.t = np.empty(capacity)
        self.lon = np.empty(capacity)
        self.lat = np.empty(capacity)
        self.n = 0
        self.total = 0
        self.skipped = 0
        self.drogued = 0

    def add_block(self, block: list[str], rest) -> None:
        """Parse a block of lines; one that is not plain goes wholly to the Python row rule."""
        if _plain("".join(block)):
            self._add_plain(block)
            return
        # Records run on into ``rest`` while a quoted field is open.
        reader = csv.reader(chain(block, rest))
        while reader.line_num < len(block):
            self.add_row(next(reader))

    def _add_plain(self, lines: list[str]) -> None:
        """Parse plain lines with the C reader, halving a rejected run."""
        if not lines:
            return
        parsed = read_rows(lines, self.dtype)
        if parsed is not None:
            self._add_parsed(parsed)
        elif len(lines) <= _BISECT_FLOOR:
            # Without quotes every line is exactly one csv record.
            for row in csv.reader(lines):
                self.add_row(row)
        else:
            half = len(lines) // 2
            self._add_plain(lines[:half])
            self._add_plain(lines[half:])

    def _add_parsed(self, parsed: np.ndarray) -> None:
        t, lon, lat = parsed["t"], parsed["lon"], parsed["lat"]
        finite = np.isfinite(t) & np.isfinite(lon) & np.isfinite(lat)
        keep = finite & (parsed["drogued"] == 0) if self.width == 5 else finite
        n_finite, n_keep = int(np.count_nonzero(finite)), int(np.count_nonzero(keep))
        self.total += len(parsed)
        self.skipped += len(parsed) - n_finite
        self.drogued += n_finite - n_keep
        names = parsed["id"][keep].tolist()
        joined = "".join(names)
        if any(c in joined for c in _ID_PADDING):
            names = list(map(str.strip, names))
        for name in dict.fromkeys(names):
            self.codes.setdefault(name, len(self.codes))
        a, b = self.n, self.n + n_keep
        self.code[a:b] = np.fromiter(map(self.codes.__getitem__, names), dtype=np.int32,
                                     count=n_keep)
        self.t[a:b], self.lon[a:b], self.lat[a:b] = t[keep], lon[keep], lat[keep]
        self.n = b

    def add_row(self, row: list[str]) -> None:
        """The row rule for every line the C reader does not parse.

        Blank rows are ignored.  A row of the wrong width, with a field
        that float() or int() rejects, or with a non-finite value is
        skipped; a row with a drogue flag other than 0 is dropped.
        """
        if not row or all(not f.strip() for f in row):
            return
        self.total += 1
        if len(row) != self.width:
            self.skipped += 1
            return
        try:
            t, lon, lat = float(row[1]), float(row[2]), float(row[3])
            drogued = self.width == 5 and int(row[4]) != 0
        except ValueError:
            self.skipped += 1
            return
        if not (math.isfinite(t) and math.isfinite(lon) and math.isfinite(lat)):
            self.skipped += 1
        elif drogued:
            self.drogued += 1
        else:
            n = self.n
            self.code[n] = self.codes.setdefault(row[0].strip(), len(self.codes))
            self.t[n], self.lon[n], self.lat[n] = t, lon, lat
            self.n = n + 1

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(code, t, lon, lat) of the accepted rows; the columns leave this object."""
        columns = tuple(col[:self.n] for col in (self.code, self.t, self.lon, self.lat))
        del self.code, self.t, self.lon, self.lat
        return columns


def _group_tracks(rows: _Rows, path) -> tuple[list[Trajectory], ParseReport]:
    """Sort the accepted rows by (id, time) and split them into per-drifter tracks.

    Each column is rebound as soon as its successor exists, so at most one
    column is held twice.
    """
    report = ParseReport(
        total_rows=rows.total,
        valid_rows=rows.n,
        skipped_rows=rows.skipped,
        drogued_dropped=rows.drogued,
    )
    if report.valid_rows == 0:
        raise ConfigError(f"{path}: no valid trajectory rows")
    if report.skipped_rows:
        log.warning("%s: skipped %d malformed rows", path, report.skipped_rows)

    names = list(rows.codes)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[by_name] = np.arange(len(names))
    code, t, lon, lat = rows.take()
    key = rank[code]
    del code
    # The rows are in file order and lexsort is stable, so equal times stay
    # in file order and the first of them is kept.
    order = np.lexsort((t, key))
    key = key[order]
    t = t[order]
    repeat = (key[1:] == key[:-1]) & (t[1:] == t[:-1])
    report.duplicate_times = int(np.count_nonzero(repeat))
    first = np.concatenate(([True], ~repeat))
    order = order[first]
    key = key[first]
    t = t[first]
    lon = lon[order]
    lat = lat[order]

    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    trajectories = [
        Trajectory(drifter_id=names[by_name[key[a]]], times=t[a:b], lons=lon[a:b], lats=lat[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    report.n_drifters = len(trajectories)
    return trajectories, report


def extract_pairs(
    trajectories: list[Trajectory],
    g: GridCovering,
    transition_time: float,
    epoch: date = DEFAULT_EPOCH,
) -> TransitionPairs:
    """Extract non-overlapping lag-T transition pairs from the tracks.

    Starting at each drifter's first sample, the sample nearest t+T within
    +-T/10 closes a pair and becomes the next start, so consecutive pairs
    do not share intervals.  When the start position is off-domain or no
    sample matches t+T, extraction resumes from the following sample.  End
    positions off the domain produce pairs against OUT_OF_DOMAIN, which
    later feed the row deficits of the estimated matrix.
    """
    if transition_time <= 0:
        raise ValueError(f"transition_time must be positive, got {transition_time}")
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    parts = [empty] + [_batch_pairs(batch, g, transition_time) for batch in _batches(trajectories)]
    from_state, to_state, start_date = (np.concatenate(col) for col in zip(*parts))
    pairs = TransitionPairs(
        from_state=from_state,
        to_state=to_state,
        start_date=start_date,
        season=_season_codes(start_date, epoch),
    )
    if not len(pairs):
        log.warning("extract_pairs produced no pairs")
    return pairs


#: Samples per batch of whole tracks in :func:`extract_pairs`; bounds the
#: size of the temporary arrays.
_BATCH_SAMPLES = 1 << 16


def _batches(trajectories: list[Trajectory]):
    """Consecutive non-empty tracks, grouped into batches of about _BATCH_SAMPLES."""
    batch, size = [], 0
    for traj in trajectories:
        if len(traj):
            batch.append(traj)
            size += len(traj)
        if size >= _BATCH_SAMPLES:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _batch_pairs(batch: list[Trajectory], g: GridCovering, transition_time: float):
    """(from_state, to_state, start_date) of the pairs of a batch of tracks.

    The tracks are concatenated; sample i of the batch belongs to the
    track occupying [lo[i], hi[i]).  With k the insertion point of t+T in
    that track, k-1 matches when its error is at most T/10; k matches
    instead when its error is at most T/10 and either k-1 did not match
    or k is strictly nearer (the earlier sample wins ties).
    """
    lengths = np.array([len(tr) for tr in batch])
    hi_track = np.cumsum(lengths)
    lo_track = hi_track - lengths
    lo, hi = np.repeat(lo_track, lengths), np.repeat(hi_track, lengths)
    times = np.concatenate([tr.times for tr in batch])
    targets = times + transition_time
    k = lo + np.concatenate([np.searchsorted(tr.times, targets[a:b])
                             for tr, a, b in zip(batch, lo_track, hi_track)])
    tol = transition_time / 10.0
    err_before = np.abs(times[np.maximum(k - 1, 0)] - targets)
    err_after = np.abs(times[np.minimum(k, len(times) - 1)] - targets)
    take_before = (k > lo) & (err_before <= tol)
    take_after = (k < hi) & (err_after <= tol) & (~take_before | (err_after < err_before))
    match = np.where(take_after, k, np.where(take_before, k - 1, -1))

    states = g.points_to_states(np.concatenate([tr.lons for tr in batch]),
                                np.concatenate([tr.lats for tr in batch]))
    opens = (match >= 0) & (states != OUT_OF_DOMAIN)
    starts = _walk(opens, match, lo_track)
    return states[starts], states[match[starts]], times[starts]


def _walk(opens: np.ndarray, match: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Pair starts of consecutive tracks, walking each from its first sample ``lo``.

    A sample that opens a pair jumps to its match; any other sample steps
    to the next one, so the walk visits only pair starts and skipped
    samples.  A match lies after its sample and in the same track, so a
    walk that steps off its track lands on the next track's first sample,
    or on the sentinel ``len(opens)`` after the last track.  The walks are
    marked by pointer doubling: after pass p the marked set holds every
    sample within 2**p jumps of a track's first one, so the passes grow
    with the log of the longest walk.  A pass that marks nothing new ends
    it: the set is then closed under the current jump, and so under every
    longer one.
    """
    n = len(opens)
    jump = np.append(np.maximum(np.where(opens, match, 0), np.arange(1, n + 1)), n)
    seen = np.zeros(n + 1, dtype=bool)
    seen[lo] = True
    count = np.count_nonzero(seen)
    while True:
        seen[jump[seen]] = True
        grown = np.count_nonzero(seen)
        if grown == count:
            return np.flatnonzero(seen[:n] & opens)
        count = grown
        jump = jump[jump]


def _season_codes(start_date: np.ndarray, epoch: date) -> np.ndarray:
    """``SEASONS`` index of each start, looked up once per calendar day."""
    days, inverse = np.unique(np.floor(start_date), return_inverse=True)
    code = {s: i for i, s in enumerate(SEASONS)}
    table = np.array([code[season_of_day(d, epoch)] for d in days.tolist()],
                     dtype=np.int8)
    return table[inverse]


def season_split(pairs: TransitionPairs) -> dict[Season, TransitionPairs]:
    """Partition pairs by their season tag; all three keys are always present."""
    return {s: pairs.select(pairs.season == i) for i, s in enumerate(SEASONS)}
