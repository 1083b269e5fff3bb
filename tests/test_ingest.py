import tracemalloc
from datetime import date

import numpy as np
import pytest

import oracles
from conftest import write_mask
from driftchain import ingest
from driftchain.errors import ConfigError
from driftchain.grid import OUT_OF_DOMAIN, build_grid
from driftchain.ingest import (
    DEFAULT_EPOCH,
    MONTH_SEASONS,
    SEASONS,
    Season,
    Tracks,
    extract_pairs,
    parse_trajectories,
    season_of_day,
    season_split,
)


def write_csv(path, rows, header="id,time_days,lon,lat"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def edges(pairs):
    """(from_state, to_state) of each pair, in order."""
    return list(zip(pairs.from_state.tolist(), pairs.to_state.tolist()))


def tracks_of(columns, ids=None):
    """A track table of the (times, lons, lats) of each track, ids "0", "1", ... by default."""
    return Tracks(
        ids=tuple(ids or map(str, range(len(columns)))),
        starts=np.cumsum([0, *(len(t) for t, _, _ in columns)]),
        times=np.concatenate([np.empty(0), *(np.asarray(c[0], float) for c in columns)]),
        lons=np.concatenate([np.empty(0), *(np.asarray(c[1], float) for c in columns)]),
        lats=np.concatenate([np.empty(0), *(np.asarray(c[2], float) for c in columns)]),
    )


def track(drifter_id, samples):
    return tracks_of([tuple(zip(*samples))], ids=[drifter_id])


def split(tracks):
    """(id, times, lons, lats) of each track of a table, as views of its columns."""
    bounds = tracks.starts.tolist()
    return [(name, tracks.times[a:b], tracks.lons[a:b], tracks.lats[a:b])
            for name, a, b in zip(tracks.ids, bounds[:-1], bounds[1:])]


class TestParse:
    def test_basic_grouping_and_sorting(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["b,5,41.0,-30.0", "a,0,40.2,-29.5", "a,10,40.9,-29.1", "a,5,40.5,-29.3"],
        )
        trajs, report = parse_trajectories(path)
        assert trajs.ids == ("a", "b")
        assert trajs.starts.dtype == np.int64 and trajs.starts.tolist() == [0, 3, 4]
        assert trajs.times.tolist() == [0.0, 5.0, 10.0, 5.0]
        assert trajs.lons.tolist() == [40.2, 40.5, 40.9, 41.0]
        assert report.valid_rows == 4
        assert report.n_drifters == 2

    def test_malformed_rows_skipped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["a,0,40.0,-30.0", "a,not_a_number,40.0,-30.0", "a,5,40.0", "a,10,nan,-30.0",
             "a,15,40.5,-30.5"],
        )
        trajs, report = parse_trajectories(path)
        assert report.skipped_rows == 3
        assert trajs.starts.tolist() == [0, 2]

    def test_drogued_rows_dropped(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["a,0,40.0,-30.0,0", "a,5,40.1,-30.0,1", "a,10,40.2,-30.0,0"],
            header="id,time_days,lon,lat,drogued",
        )
        trajs, report = parse_trajectories(path)
        assert report.drogued_dropped == 1
        assert trajs.times.tolist() == [0.0, 10.0]

    def test_duplicate_times_keep_first(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["a,0,40.0,-30.0", "a,0,41.0,-30.0", "a,5,40.5,-30.0"]
        )
        trajs, report = parse_trajectories(path)
        assert report.duplicate_times == 1
        assert trajs.lons[0] == 40.0

    def test_bad_header_and_empty_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,lon,lat\n0,40,-30\n")
        with pytest.raises(ConfigError):
            parse_trajectories(bad)
        nothing = write_csv(tmp_path / "none.csv", ["a,x,y,z"])
        with pytest.raises(ConfigError):
            parse_trajectories(nothing)


class TestSeasonCalendar:
    def test_default_layout(self):
        assert MONTH_SEASONS[1] is Season.W
        assert MONTH_SEASONS[7] is Season.S
        assert MONTH_SEASONS[4] is Season.SF
        assert MONTH_SEASONS[10] is Season.SF
        seasons = [MONTH_SEASONS[m] for m in range(1, 13)]
        assert [seasons.count(s) for s in (Season.W, Season.S, Season.SF)] == [3, 3, 6]

    def test_day_offsets_from_epoch(self):
        assert DEFAULT_EPOCH == date(2014, 3, 8)
        assert season_of_day(0.0) is Season.W       # March 8
        assert season_of_day(23.9) is Season.W      # March 31
        assert season_of_day(24.0) is Season.SF     # April 1
        assert season_of_day(115.0) is Season.S     # July 1
        assert season_of_day(360.0) is Season.W     # ~March again


class TestExtractPairs:
    def setup_method(self):
        self.grid = build_grid((40.0, 46.0, -30.0, -29.0), cell_size=1.0)

    def test_exact_stride(self):
        traj = track("a", [(0, 40.5, -29.5), (5, 41.5, -29.5), (10, 42.5, -29.5)])
        pairs = extract_pairs(traj, self.grid, 5.0)
        assert edges(pairs) == [(0, 1), (1, 2)]
        assert SEASONS[pairs.season[0]] is Season.W

    def test_pairs_do_not_overlap(self):
        # Samples every day; 5-day pairs must start where the last ended.
        samples = [(float(t), 40.5 + 0.2 * t, -29.5) for t in range(21)]
        pairs = extract_pairs(track("a", samples), self.grid, 5.0)
        assert pairs.start_date.tolist() == [0.0, 5.0, 10.0, 15.0]

    def test_nearest_sample_within_tolerance(self):
        # End sample at 5.4 days is within T/10 = 0.5 of the 5-day target.
        traj = track("a", [(0, 40.5, -29.5), (5.4, 41.5, -29.5)])
        pairs = extract_pairs(traj, self.grid, 5.0)
        assert len(pairs) == 1
        # At 5.6 days the gap exceeds the tolerance: no pair.
        traj = track("a", [(0, 40.5, -29.5), (5.6, 41.5, -29.5)])
        assert len(extract_pairs(traj, self.grid, 5.0)) == 0

    def test_gap_resumes_at_next_sample(self):
        traj = track(
            "a",
            [(0, 40.5, -29.5), (2, 41.5, -29.5), (7, 42.5, -29.5), (12, 43.5, -29.5)],
        )
        pairs = extract_pairs(traj, self.grid, 5.0)
        # No match for 0 + 5; extraction restarts at t=2 and chains onward.
        assert pairs.start_date.tolist() == [2.0, 7.0]
        assert edges(pairs) == [(1, 2), (2, 3)]

    def test_out_of_domain_end_recorded(self):
        traj = track("a", [(0, 45.5, -29.5), (5, 46.5, -29.5)])
        pairs = extract_pairs(traj, self.grid, 5.0)
        assert edges(pairs) == [(5, OUT_OF_DOMAIN)]

    def test_out_of_domain_start_skipped(self):
        traj = track("a", [(0, 39.5, -29.5), (5, 40.5, -29.5), (10, 41.5, -29.5)])
        pairs = extract_pairs(traj, self.grid, 5.0)
        assert edges(pairs) == [(0, 1)]

    def test_season_tag_follows_start_date(self):
        # Start 22 days after the epoch (still March, W); end in April.
        traj = track("a", [(22, 40.5, -29.5), (27, 41.5, -29.5), (32, 42.5, -29.5)])
        pairs = extract_pairs(traj, self.grid, 5.0)
        assert [SEASONS[c] for c in pairs.season] == [Season.W, Season.SF]

    def test_bad_transition_time(self):
        with pytest.raises(ValueError):
            extract_pairs(tracks_of([]), self.grid, 0.0)


def test_season_split_partitions():
    g = build_grid((40.0, 46.0, -30.0, -29.0), cell_size=1.0)
    samples = [(float(5 * k), 40.5 + 0.1 * k, -29.5) for k in range(40)]
    pairs = extract_pairs(track("a", samples), g, 5.0)
    split = season_split(pairs)
    assert set(split) == set(Season)
    assert sum(len(v) for v in split.values()) == len(pairs)
    for season, group in split.items():
        assert all(SEASONS[c] is season for c in group.season)


# ------------------------------------------------ oracle: row-by-row ingest

_ENDINGS = ("\n", "\r\n", "\r")
_IDS = ("a", "b7", " c ", "\tpad", '"q,1"', '"multi\nline"', "Bouée", "x\x1cy", "",
        "all_drogued")
_NUMBERS = ("nan", "inf", "-Infinity", "1_0", "١٢", "1e400", "", "x", "+3", "\x1c4",
            "0x10", " 2.5 ", '"7.25"', "1.", ".5")
_FLAGS = ("0", "1", "1.0", "2", " 1", "0 ", "-0", "00", "", "x", "٣", "1_0", '"1"')


def _number(rng, values):
    if rng.random() < 0.1:
        return str(rng.choice(_NUMBERS))
    return repr(float(rng.choice(values)))


def messy_trajectory_text(rng) -> str:
    """A trajectory file exercising every rule of the row-by-row parser."""
    width = 5 if rng.random() < 0.7 else 4
    header = " id, time_days ,lon,lat" + (",drogued" if width == 5 else "")
    fixed_ending = rng.random() < 0.5
    ending = str(rng.choice(_ENDINGS))
    times = np.arange(12) * 0.5  # few distinct values: many duplicate times
    lines = [header]
    for _ in range(int(rng.integers(20, 120))):
        kind = rng.random()
        if kind < 0.06:
            lines.append(str(rng.choice(["", "   ", ",,,,", " , , , ", "\t"])))
            continue
        name = str(rng.choice(_IDS))
        fields = [name, _number(rng, times), _number(rng, np.linspace(39.5, 46.5, 29)),
                  _number(rng, np.linspace(-30.5, -28.5, 9))]
        if width == 5:
            flag = "1" if name == "all_drogued" else (
                str(rng.choice(_FLAGS)) if rng.random() < 0.3 else "0")
            fields.append(flag)
        if kind < 0.12:
            del fields[int(rng.integers(1, len(fields)))]
        elif kind < 0.16:
            fields.append("9")
        lines.append(",".join(fields))
    ends = [ending if fixed_ending else str(rng.choice(_ENDINGS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if rng.random() < 0.3 else text


@pytest.mark.parametrize("block_lines, floor", [(2048, 16), (7, 1), (3, 2)])
def test_parse_matches_row_by_row_oracle(tmp_path, monkeypatch, block_lines, floor):
    # Tiny blocks push quoted records across block edges and bisect
    # rejected runs down to single lines.
    monkeypatch.setattr(ingest, "_BLOCK_LINES", block_lines)
    monkeypatch.setattr(ingest, "_BISECT_FLOOR", floor)
    rng = np.random.default_rng(2024 + block_lines)
    compared = 0
    for n in range(150):
        path = tmp_path / f"messy{n}.csv"
        path.write_bytes(messy_trajectory_text(rng).encode("utf-8"))
        try:
            want, counts = oracles.row_by_row_parse(path)
        except ValueError:
            with pytest.raises(ConfigError):
                parse_trajectories(path)
            continue
        got, report = parse_trajectories(path)
        assert vars(report) == counts, path.read_bytes()
        assert list(got.ids) == [w[0] for w in want]
        for traj, track_want in zip(split(got), want):
            for a, b in zip(traj[1:], track_want[1:]):
                assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
        compared += 1
    assert compared > 100


def test_parse_keeps_first_of_duplicate_times_across_paths(tmp_path):
    # The first row at t=0 only parses in Python (quoted), the second in C;
    # file position, not parse path, decides which one is kept.
    path = write_csv(tmp_path / "t.csv", ['"a",0,40.0,-30.0', "a,0,41.0,-30.0", "a,1,42.0,-30.0"])
    got, report = parse_trajectories(path)
    assert got.ids == ("a",) and got.lons.tolist() == [40.0, 42.0]
    assert report.duplicate_times == 1


def assert_matches_oracle(path, got, report):
    want, counts = oracles.row_by_row_parse(path)
    assert vars(report) == counts
    assert list(got.ids) == [w[0] for w in want]
    for traj, track_want in zip(split(got), want):
        for a, b in zip(traj[1:], track_want[1:]):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("plain_rows", [0, 5000])
@pytest.mark.parametrize("ending", _ENDINGS)
def test_undecodable_byte_names_its_line(tmp_path, ending, plain_rows):
    # The stream is decoded as it is read, in the header or many blocks in;
    # the line is counted by physical lines, a quoted line break included.
    rows = ["id,time_days,lon,lat", *(f"a,{k},40.5,-29.5" for k in range(plain_rows)),
            '"q', 'r",1,40.5,-29.5', "b?,2,40.5,-29.5"]
    path = tmp_path / "t.csv"
    path.write_bytes(ending.join(rows).encode().replace(b"?", b"\xff"))
    with pytest.raises(ConfigError) as err:
        parse_trajectories(path)
    assert str(err.value) == f"{path}:{len(rows)}: byte 0xff is not UTF-8 text"


def archive_text(rng, n_rows: int) -> str:
    """A drogued-column archive with bad, quoted and non-finite lines in many blocks.

    Times sit on a coarse grid, so many fixes of a drifter share a time.
    """
    ids = [f"D{k:03d}" for k in range(200)]
    who = rng.integers(0, len(ids), n_rows).tolist()
    times = (rng.integers(0, 1000, n_rows) * 0.25).tolist()
    lons = rng.uniform(40.0, 46.0, n_rows).round(5).tolist()
    lats = rng.uniform(-30.0, -28.0, n_rows).round(5).tolist()
    flags = (rng.random(n_rows) < 0.02).astype(int).tolist()
    odd = {k: str(rng.choice(["quoted", "short", "text", "nan", "blank"]))
           for k in rng.choice(n_rows, n_rows // 300, replace=False).tolist()}
    lines = ["id,time_days,lon,lat,drogued"]
    for k, (d, t, x, y, g) in enumerate(zip(who, times, lons, lats, flags)):
        name = ids[d]
        kind = odd.get(k)
        if kind == "quoted":
            name = f'"{name}"'
        elif kind == "short":
            lines.append(f"{name},{t},{x}")
            continue
        elif kind == "blank":
            lines.append("")
            continue
        lines.append(f"{name},{'x' if kind == 'text' else t},{'nan' if kind == 'nan' else x},"
                     f"{y},{g}")
    return "\n".join(lines) + "\n"


def test_parse_peak_memory_is_bounded_by_its_tracks(tmp_path):
    # Rows are written once into preallocated columns; the peak holds the
    # columns and one sort permutation, not per-run arrays and row tuples.
    path = tmp_path / "archive.csv"
    path.write_text(archive_text(np.random.default_rng(5), 50_000), encoding="utf-8")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got, report = parse_trajectories(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = got.times.nbytes + got.lons.nbytes + got.lats.nbytes
    assert report.skipped_rows > 50 and report.duplicate_times > 1000
    assert peak - base <= 3.5 * returned
    assert_matches_oracle(path, got, report)


def test_track_table_holds_no_object_per_track(tmp_path):
    # Beyond its 24 bytes per fix, the table holds per track one start
    # offset and one id string (about 70 bytes for a six-character id); a
    # record per track with its own array views would take about 430 more.
    n_tracks = 20_000
    path = tmp_path / "short.csv"
    path.write_text("id,time_days,lon,lat\n" + "".join(
        f"D{k:05d},0,40.5,-29.5\nD{k:05d},5,41.5,-29.5\n" for k in range(n_tracks)),
        encoding="utf-8")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        got, report = parse_trajectories(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_drifters == len(got.ids) == n_tracks and len(got.times) == 2 * n_tracks
    assert (held - base - 24 * len(got.times)) / n_tracks <= 100


@pytest.mark.parametrize("ending", _ENDINGS)
def test_rows_may_fill_every_line_break(tmp_path, ending):
    # Without a final line break every break ends a data row, so the rows
    # fill the columns sized from the break count exactly.
    rows = [f"d{k % 3},{k},40.5,-29.5" for k in range(50)]
    path = tmp_path / "t.csv"
    path.write_bytes(ending.join(["id,time_days,lon,lat", *rows]).encode())
    assert ingest._line_breaks(path) == len(rows)
    got, report = parse_trajectories(path)
    assert report.valid_rows == len(rows)
    assert_matches_oracle(path, got, report)


def _jittered_tracks(rng, dyadic: bool):
    """Tracks whose steps hit t+T exactly, at exactly T/10 off, or in between."""
    steps = (np.array([5.0, 4.5, 5.5, 2.5, 0.25, 1.0, 6.0, 0.5]) if dyadic
             else np.array([0.3, 0.27, 0.33, 0.1, 0.03, 0.6, 0.31]))
    tracks = []
    for _ in range(int(rng.integers(1, 6))):
        n = int(rng.integers(1, 60))
        times = float(rng.integers(0, 400)) + np.cumsum(rng.choice(steps, size=n))
        lons = rng.uniform(39.5, 46.5, n)
        lats = rng.uniform(-30.5, -28.5, n)
        edge = rng.random(n) < 0.2
        lons[edge] = 40.0 + rng.integers(-1, 8, edge.sum()) * 1.0
        tracks.append((times, lons, lats))
    return tracks


@pytest.mark.parametrize("dyadic, lag", [(True, 5.0), (False, 0.3)])
def test_extract_matches_sample_by_sample_oracle(tmp_path, dyadic, lag):
    wet = {(ix, iy): (ix + iy) % 5 != 0 for ix in range(6) for iy in range(2)}
    g = build_grid((40.0, 46.0, -30.0, -28.0), cell_size=1.0,
                   wet_mask=write_mask(tmp_path / "mask.csv", wet))
    epoch = date(2015, 6, 1)
    rng = np.random.default_rng(7 if dyadic else 8)
    total = 0
    for _ in range(200):
        tracks = _jittered_tracks(rng, dyadic)
        pairs = extract_pairs(tracks_of(tracks), g, lag, epoch=epoch)
        want = oracles.sample_by_sample_pairs(tracks, g, lag,
                                              lambda d: season_of_day(d, epoch))
        got = list(zip(pairs.from_state.tolist(), pairs.to_state.tolist(),
                       pairs.start_date.tolist(), [SEASONS[c] for c in pairs.season]))
        assert got == want
        total += len(got)
    assert total > 1000


def test_extract_across_batches(monkeypatch):
    # Tracks spread over several batches give the same pairs as one batch.
    g = build_grid((40.0, 46.0, -30.0, -28.0), cell_size=1.0)
    rng = np.random.default_rng(3)
    trajs = tracks_of(_jittered_tracks(rng, True) * 4)
    whole = extract_pairs(trajs, g, 5.0)
    monkeypatch.setattr(ingest, "_BATCH_SAMPLES", 10)
    split = extract_pairs(trajs, g, 5.0)
    for name in ("from_state", "to_state", "start_date", "season"):
        assert np.array_equal(getattr(whole, name), getattr(split, name))



def test_empty_tracks_give_no_pairs(monkeypatch):
    # A table may hold tracks without fixes, even at the end of a batch.
    g = build_grid((40.0, 46.0, -30.0, -28.0), cell_size=1.0)
    one = ([0.0, 5.0, 10.0], [40.5, 41.5, 42.5], [-29.5] * 3)
    empty = ([], [], [])
    assert len(extract_pairs(tracks_of([]), g, 5.0)) == 0
    assert len(extract_pairs(tracks_of([empty, empty]), g, 5.0)) == 0
    monkeypatch.setattr(ingest, "_BATCH_SAMPLES", 1)
    pairs = extract_pairs(tracks_of([empty, one, empty, empty, one, empty]), g, 5.0)
    assert edges(pairs) == [(0, 1), (1, 2)] * 2


def assert_walk_matches_loop(rng, lengths, open_rate):
    """``_walk`` against the loop over consecutive tracks of ``lengths``, bitwise.

    A match may fall anywhere in its own track, even at or before its
    sample, where the walk steps to the next sample instead."""
    lengths = np.asarray(lengths, dtype=np.int64)
    hi = np.cumsum(lengths)
    lo = hi - lengths
    n = int(hi[-1]) if len(hi) else 0
    lo_s, hi_s = np.repeat(lo, lengths), np.repeat(hi, lengths)
    opens = rng.random(n) < open_rate
    match = np.where(opens, lo_s + (rng.random(n) * (hi_s - lo_s)).astype(np.int64), -1)
    got = ingest._walk(opens, match, lo)
    want = oracles.loop_walk(opens, match, lo.tolist(), hi.tolist())
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("open_rate", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_walk_matches_loop(seed, open_rate):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 40, size=60)
    lengths[rng.integers(60, size=10)] = 0
    assert_walk_matches_loop(rng, lengths, open_rate)


@pytest.mark.parametrize("lengths, open_rate", [([], 0.5), ([0, 0, 3, 0], 0.0),
                                                ([65_000], 0.0), ([1, 1, 1], 1.0)])
def test_walk_edge_batches(lengths, open_rate):
    assert_walk_matches_loop(np.random.default_rng(0), lengths, open_rate)
