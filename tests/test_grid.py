import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_roles, write_mask
from oracles import (
    quadrature_box_area_km2,
    raster_box_facts,
    row_by_row_wet_mask,
    scalar_cell_state,
)

from driftchain.errors import ConfigError
from driftchain.grid import (
    EARTH_RADIUS_KM,
    OUT_OF_DOMAIN,
    StateRoles,
    build_grid,
    load_roles,
    states_by_latitude_row,
)


def test_build_grid_counts(square_grid):
    assert square_grid.n_lon == 4
    assert square_grid.n_lat == 4
    assert square_grid.n_states == 16


def test_state_order_is_south_to_north_raster(square_grid):
    # State 0 is the southwest corner, state 1 its eastern neighbour,
    # state 4 sits directly north of state 0.
    assert square_grid.box_of_state(0) == (0, 0)
    assert square_grid.box_of_state(1) == (1, 0)
    assert square_grid.box_of_state(4) == (0, 1)
    lon, lat = square_grid.box_center(0)
    assert lon == pytest.approx(40.5)
    assert lat == pytest.approx(-31.5)


def test_point_to_state_half_open_edges(square_grid):
    g = square_grid
    assert g.point_to_state(40.0, -32.0) == 0
    # Interior shared corner belongs to the box north-east of it.
    assert g.point_to_state(41.0, -31.0) == g.state_of_box((1, 1))
    # The outer max edges are out of domain under half-open cells.
    assert g.point_to_state(44.0, -30.0) == OUT_OF_DOMAIN
    assert g.point_to_state(42.0, -28.0) == OUT_OF_DOMAIN
    assert g.point_to_state(39.999, -30.5) == OUT_OF_DOMAIN


@given(
    lon=st.floats(min_value=35.0, max_value=50.0, allow_nan=False),
    lat=st.floats(min_value=-36.0, max_value=-24.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_point_to_state_matches_box_bounds(lon, lat):
    g = build_grid((40.0, 44.0, -32.0, -28.0), cell_size=1.0)
    s = g.point_to_state(lon, lat)
    inside = 40.0 <= lon < 44.0 and -32.0 <= lat < -28.0
    if not inside:
        assert s == OUT_OF_DOMAIN
    else:
        ix, iy = g.box_of_state(s)
        assert 40.0 + ix <= lon < 40.0 + ix + 1
        assert -32.0 + iy <= lat < -32.0 + iy + 1


@pytest.fixture(scope="module")
def fine_grid(tmp_path_factory):
    """A 0.1-degree grid: its cell edges lower + i*cell are inexact in binary."""
    mask = {(ix, iy): (ix * iy) % 4 != 1 for ix in range(10) for iy in range(5)}
    path = write_mask(tmp_path_factory.mktemp("fine") / "mask.csv", mask)
    return build_grid((40.0, 41.0, -30.0, -29.5), cell_size=0.1, wet_mask=path)


def _near_edge(lower, count, cell):
    """Cell edges lower + i*cell (one past each end too) and their float neighbours."""
    edge = st.integers(-1, count + 1).map(lambda i: lower + i * cell)
    return st.tuples(edge, st.sampled_from([-1, 0, 1])).map(
        lambda e: float(np.nextafter(e[0], np.inf * e[1])) if e[1] else e[0])


@given(
    points=st.lists(
        st.tuples(
            st.one_of(st.floats(39.8, 41.2), _near_edge(40.0, 10, 0.1)),
            st.one_of(st.floats(-30.2, -29.3), _near_edge(-30.0, 5, 0.1)),
        ),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_points_to_states_matches_scalar_rule(fine_grid, points):
    g = fine_grid
    lons = np.array([p[0] for p in points])
    lats = np.array([p[1] for p in points])
    got = g.points_to_states(lons, lats)
    assert got.dtype == np.int64
    assert got.tolist() == [scalar_cell_state(g, x, y) for x, y in points]
    assert got.tolist() == [g.point_to_state(x, y) for x, y in points]


def test_non_finite_positions_are_out_of_domain(square_grid):
    lons = np.array([np.nan, np.inf, -np.inf, 40.5, 40.5])
    lats = np.array([-31.5, -31.5, -31.5, np.nan, np.inf])
    assert square_grid.points_to_states(lons, lats).tolist() == [OUT_OF_DOMAIN] * 5
    assert square_grid.point_to_state(np.nan, -31.5) == OUT_OF_DOMAIN


def test_cell_size_must_divide_extent():
    with pytest.raises(ConfigError):
        build_grid((0.0, 1.0, 0.0, 1.0), cell_size=0.3)
    with pytest.raises(ConfigError):
        build_grid((0.0, 1.0, 1.0, 0.0), cell_size=0.5)
    with pytest.raises(ConfigError):
        build_grid((0.0, 1.0, 0.0, 1.0), cell_size=-0.5)


@pytest.mark.parametrize("bounds, cell", [
    ((0.0, 1.0, 0.0, 1.0), float("nan")),
    ((0.0, 1.0, 0.0, 1.0), float("inf")),
    ((0.0, float("inf"), 0.0, 1.0), 0.5),
    ((float("-inf"), 1.0, 0.0, 1.0), 0.5),
    ((0.0, 1.0, float("nan"), 1.0), 0.5),
])
def test_non_finite_bounds_or_cell_rejected(bounds, cell):
    with pytest.raises(ConfigError, match="must be finite"):
        build_grid(bounds, cell_size=cell)


def test_box_area_against_quadrature(square_grid):
    # Sphere-rectangle areas should agree with numerical quadrature.
    for state in (0, 5, 15):
        ix, iy = square_grid.box_of_state(state)
        lon0 = 40.0 + ix
        lat0 = -32.0 + iy
        want = quadrature_box_area_km2(lon0, lon0 + 1, lat0, lat0 + 1, EARTH_RADIUS_KM)
        assert square_grid.box_area_km2(state) == pytest.approx(want, rel=1e-9)


def test_box_area_decreases_away_from_equator():
    g = build_grid((0.0, 1.0, 0.0, 60.0), cell_size=1.0)
    areas = [g.box_area_km2(s) for s in range(g.n_states)]
    assert all(a > b for a, b in zip(areas, areas[1:]))


#: The rectangle of the mask tests below: 6 x 4 boxes of 1 degree.
_MASK_BOUNDS = (0.0, 6.0, -2.0, 2.0)


def _masked(path):
    return build_grid(_MASK_BOUNDS, 1.0, path)


def _row_by_row_boxes(path) -> list:
    """The wet boxes of the mask tests' grid, in raster order, by the row-by-row reader."""
    mask = row_by_row_wet_mask(path, (6, 4))
    boxes = [[ix, iy] for iy in range(4) for ix in range(6) if mask.get((ix, iy), False)]
    if not boxes:
        raise ValueError("wet mask leaves no active boxes")
    return boxes


def test_wet_mask_restricts_states(tmp_path):
    mask_file = tmp_path / "mask.csv"
    mask_file.write_text("# ix,iy,wet\n0,0,1\n \t\n1,0,0\n\x0b\n0,1,1\n\x0c # dry\n1,1,1\n")
    g = build_grid((0.0, 2.0, 0.0, 2.0), cell_size=1.0, wet_mask=mask_file)
    assert g.n_states == 3
    assert g.state_of_box((1, 0)) == OUT_OF_DOMAIN
    assert g.point_to_state(1.5, 0.5) == OUT_OF_DOMAIN
    assert g.point_to_state(1.5, 1.5) == 2


def test_repeated_mask_box_rejected(tmp_path):
    # the last value used to win silently
    mask_file = tmp_path / "mask.csv"
    mask_file.write_text("# ix,iy,wet\n0,0,1\n\n0,0,0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(mask_file))}:4: box \\(0, 0\\) "
                                          "repeats line 2$"):
        _masked(mask_file)


def test_mask_box_outside_the_grid_rejected(tmp_path):
    # The library names the line, as the commands do (test_cli).
    path = tmp_path / "mask.csv"
    path.write_text("0,0,1\n7,5,1\n1,0,1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        build_grid((0.0, 4.0, 0.0, 1.0), cell_size=1.0, wet_mask=path)
    assert str(exc.value) == f"{path}:2: box (7, 5) lies outside the 4 x 1 grid"


def _mask_text(seed: int) -> str:
    """A wet mask for a 6 x 4 grid: comments, blank lines, padded fields and
    LF or CRLF line ends, with a repeated box, a flag of 2 or -1, a box
    outside or a line neither reader takes at some seeds."""
    rng = np.random.default_rng(seed)
    boxes = [(ix, iy) for iy in range(4) for ix in range(6)]
    records = [[*boxes[k], int(rng.integers(0, 2))]
               for k in rng.permutation(len(boxes))[:rng.integers(0, len(boxes) + 1)]]
    faults = [[*(records[0][:2] if records else (0, 0)), int(rng.integers(0, 2))],
              [*boxes[rng.integers(len(boxes))], int(rng.choice([2, -1]))],
              [*[(6, 0), (-1, 2), (0, 4), (5, -3), (99, 99)][rng.integers(5)], 1],
              ["1,2", "x,0,1", "0,0,1,1", "1.0,0,1"][rng.integers(4)]]
    for fault in faults:
        if rng.random() < 0.25:
            records.insert(int(rng.integers(0, len(records) + 1)), fault)
    pads = ["", " ", "\t", "  "]
    lines = [r if isinstance(r, str) else
             ",".join(f"{rng.choice(pads)}{v}{rng.choice(pads)}" for v in r) for r in records]
    for extra in ["# ix,iy,wet", "  # dry coast", "", "   ", "\t"]:
        if rng.random() < 0.5:
            lines.insert(int(rng.integers(0, len(lines) + 1)), extra)
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(lines) + (end if rng.random() < 0.5 else "")


def _outcome(read):
    """What ``read`` gives, or the text of the error it raises."""
    try:
        return repr(read())
    except (ConfigError, ValueError) as exc:
        return f"error: {exc}"


def _same_outcome(new: str, reference: str) -> bool:
    # The two readers word a malformed line differently but name the same one.
    if "malformed wet mask entry" in new:
        return new.split(": ")[:2] == reference.split(": ")[:2]
    return new == reference


@pytest.mark.parametrize("seed", range(60))
def test_wet_mask_reader_matches_row_by_row_rule(tmp_path, seed):
    path = tmp_path / "mask.csv"
    path.write_bytes(_mask_text(seed).encode("utf-8"))
    assert _same_outcome(_outcome(lambda: _masked(path).boxes.tolist()),
                         _outcome(lambda: _row_by_row_boxes(path)))


@pytest.mark.parametrize("text", ["", "# ix,iy,wet\n\n  \n", "\r\n"],
                         ids=["empty", "comments", "crlf"])
def test_mask_without_entries_rejected(tmp_path, text):
    path = tmp_path / "mask.csv"
    path.write_bytes(text.encode("utf-8"))
    for read in (_masked, _row_by_row_boxes):
        with pytest.raises((ConfigError, ValueError),
                           match=f"^{re.escape(str(path))}: empty wet mask$"):
            read(path)


@pytest.mark.parametrize("line", ["1_0,0,1", '"1",0,1', "\u0663,0,1", ",,", "\x1c1,0,1",
                                  "99999999999999999999,0,1"],
                         ids=["underscore", "quoted", "arabic-digit", "commas-only",
                              "separator-padding", "past-int64"])
def test_mask_lines_only_the_entry_grammar_rejects(tmp_path, line):
    # The per-row csv rule read these; wet masks now take the matrix-entry grammar.
    path = tmp_path / "mask.csv"
    path.write_text(f"0,0,1\n{line}\n", encoding="utf-8")
    assert row_by_row_wet_mask(path, (math.inf, math.inf))[0, 0]
    with pytest.raises(ConfigError) as exc:
        _masked(path)
    assert str(exc.value) == f"{path}:2: malformed wet mask entry {line!r}"


@pytest.mark.parametrize("line", ["\x1c", "\x85", "\x1c# dry coast", " \x85 # dry coast"],
                         ids=["separator", "next-line", "separator-comment", "next-line-comment"])
def test_mask_break_line_is_an_entry(tmp_path, line):
    # str.strip() empties these lines, which the mask used to skip as blank.
    path = tmp_path / "mask.csv"
    path.write_text(f"0,0,1\n{line}\n1,0,1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        _masked(path)
    assert str(exc.value) == f"{path}:2: malformed wet mask entry {line!r}"


def test_mask_fault_before_a_malformed_line_comes_first(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("0,0,1\n1,0,2\n1_0,0,1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2: wet flag must be 0 or 1, got 2$"):
        _masked(path)
    path.write_text("0,0,1\n1_0,0,1\n1,0,2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r":2: malformed wet mask entry '1_0,0,1'$"):
        _masked(path)


def test_all_dry_mask_rejected(tmp_path):
    path = write_mask(tmp_path / "mask.csv", {(0, 0): False})
    with pytest.raises(ConfigError, match="^wet mask leaves no active boxes$"):
        build_grid((0.0, 1.0, 0.0, 1.0), cell_size=1.0, wet_mask=path)


def test_states_by_latitude_row(square_grid):
    rows = states_by_latitude_row(square_grid)
    assert len(rows) == 4
    assert rows[0].tolist() == [0, 1, 2, 3]
    assert rows[3].tolist() == [12, 13, 14, 15]


def _random_mask(seed: int) -> dict:
    """Random wet flags on part of a 20 x 12 grid, row 3 dry."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, (20, 12), size=(300, 2)).tolist()
    mask = {(ix, iy): bool(rng.random() < 0.6) for ix, iy in keys}
    mask.update({(ix, 3): False for ix in range(20)})
    return mask


@pytest.mark.parametrize("mask", [None, *(_random_mask(seed) for seed in range(3))],
                         ids=["all-wet", "mask0", "mask1", "mask2"])
def test_box_table_matches_per_box_formulas(tmp_path, mask):
    # Compared by repr: bit for bit, and box indices must be Python ints.
    path = None if mask is None else write_mask(tmp_path / "mask.csv", mask)
    g = build_grid((-3.5, 1.5, -40.0, -37.0), cell_size=0.25, wet_mask=path)
    facts, rows = raster_box_facts(g, mask, EARTH_RADIUS_KM)
    got = [(g.box_of_state(s), g.box_center(s), g.box_corners(s), g.box_area_km2(s))
           for s in range(g.n_states)]
    assert repr(got) == repr(facts)
    by_row = states_by_latitude_row(g)
    assert all(r.dtype == np.int64 for r in by_row)
    assert repr([r.tolist() for r in by_row]) == repr(rows)
    assert g.boxes.tolist() == [list(box) for box, *_ in facts]
    assert not g.boxes.flags.writeable


def test_build_grid_holds_at_most_40_bytes_per_state():
    # 400 x 250 wet boxes: the (n, 2) int64 box table and the box -> state
    # lookup hold about 24 bytes per state.
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        g = build_grid((0.0, 100.0, -30.0, 32.5), cell_size=0.25)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_states == 100_000
    assert held - base <= 40 * g.n_states


def test_roles_validation():
    with pytest.raises(ConfigError):
        make_roles(4, sticky={0: 1.0})  # land fraction must be < 1
    with pytest.raises(ConfigError):
        make_roles(4, sticky={0: 0.0})
    with pytest.raises(ConfigError):
        # Debris state without a land fraction makes no physical sense.
        StateRoles(leaky=frozenset(), sticky={}, debris=(2,), candidate_sources=())
    roles = make_roles(4, sticky={1: 0.3}, debris=(1, 1))
    assert roles.n_targets == 2
    roles.check_states(4)
    with pytest.raises(ConfigError):
        roles.check_states(1)


def test_load_roles_file(tmp_path, square_grid):
    path = tmp_path / "roles.csv"
    path.write_text(
        "# coastal roles for the toy grid\n"
        "leaky: 0,0\n"
        "sticky: 1,1,0.25\n"
        "debris: 1,1,1\n"
        "source: 3,3\n"
        "source: 0,3\n"
    )
    roles = load_roles(square_grid, path)
    assert roles.leaky == frozenset({0})
    assert roles.sticky == {5: 0.25}
    assert roles.debris == (5,)
    # Source order follows the file, not the state numbering.
    assert roles.candidate_sources == (15, 12)


@pytest.mark.parametrize("text, message", [
    ("swimmer: 0,0\n", "1: unknown record kind 'swimmer'"),
    ("sticky: 0,0\n", "1: sticky record needs 3 fields"),
    ("leaky: 0,x\n", "1: invalid literal for int() with base 10: 'x'"),
    ("leaky: 0,0\nsticky: 9,9,0.5\n", "2: box (9, 9) is not an active box"),
    ("sticky: 0,0,x\n", "1: could not convert string to float: 'x'"),
    ("leaky: 0,0\nleaky: 0,0\n", "2: duplicate leaky record"),
    ("sticky: 0,0,0.5\nsticky: 0,0,0.25\n", "2: duplicate sticky record"),
    ("sticky: 0,0,0.5\ndebris: 0,0,1\ndebris: 0,0,1\n", "3: duplicate debris label 1"),
    ("source: 1,1\n# a comment\nsource: 1,1\n", "3: duplicate source record"),
], ids=["kind", "fields", "box-int", "dry-box", "ell", "dup-leaky", "dup-sticky", "dup-label",
        "dup-source"])
def test_load_roles_errors_name_their_line(tmp_path, square_grid, text, message):
    path = tmp_path / "roles.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_roles(square_grid, path)
    assert str(exc.value) == f"{path}:{message}"


def test_load_roles_rejects_dry_and_bad_rows(tmp_path, square_grid):
    bad_state = tmp_path / "r1.csv"
    bad_state.write_text("sticky: 9,9,0.5\n")
    with pytest.raises(ConfigError):
        load_roles(square_grid, bad_state)
    bad_role = tmp_path / "r2.csv"
    bad_role.write_text("swimmer: 0,0\n")
    with pytest.raises(ConfigError):
        load_roles(square_grid, bad_role)
    bad_label = tmp_path / "r3.csv"
    bad_label.write_text("sticky: 0,0,0.5\ndebris: 0,0,2\n")
    with pytest.raises(ConfigError):
        load_roles(square_grid, bad_label)  # labels must cover 1..M
