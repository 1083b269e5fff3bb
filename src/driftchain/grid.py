"""Longitude-latitude box covering of the domain and state-role bookkeeping.

The domain rectangle is tiled with square cells of ``cell_size`` degrees.
Cells flagged wet form the chain states, indexed contiguously from 0 in
(lat_index, lon_index) raster order.  Positions on dry cells or outside the
rectangle map to the ``OUT_OF_DOMAIN`` marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .textio import first_rows, is_blank, read_entries, read_lines

#: Marker returned for positions that do not fall on an active (wet) box.
OUT_OF_DOMAIN = -1

#: A box is addressed by integer (lon_index, lat_index) within the rectangle.
BoxId = tuple[int, int]

EARTH_RADIUS_KM = 6371.0

_DIVISOR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GridCovering:
    """Box covering of a lon-lat rectangle with contiguous state indexing.

    Cells are half-open, ``[lon_i, lon_i + cell) x [lat_j, lat_j + cell)``,
    so every in-bounds position belongs to exactly one box.  Instances are
    immutable and safe for concurrent reads.
    """

    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float
    cell_size: float
    n_lon: int
    n_lat: int
    #: Read-only int64 (lon_index, lat_index) of each state, in raster order.
    boxes: np.ndarray
    #: State per (lon_index, lat_index) with one trailing OUT_OF_DOMAIN row
    #: and column, so a cell index of -1 looks up OUT_OF_DOMAIN.
    _state_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        table = np.full((self.n_lon + 1, self.n_lat + 1), OUT_OF_DOMAIN, dtype=np.int64)
        table[self.boxes[:, 0], self.boxes[:, 1]] = np.arange(len(self.boxes))
        table.flags.writeable = False
        self.boxes.flags.writeable = False
        object.__setattr__(self, "_state_table", table)

    @property
    def n_states(self) -> int:
        return len(self.boxes)

    def bounds_text(self) -> str:
        """Bounds and cell size at 17 significant digits, as chain files record them."""
        return " ".join(f"{key}={getattr(self, key):.17g}"
                        for key in ("lon_min", "lon_max", "lat_min", "lat_max", "cell_size"))

    def state_of_box(self, box: BoxId) -> int:
        """State index of an active box, or OUT_OF_DOMAIN for a dry box."""
        ix, iy = box
        if 0 <= ix < self.n_lon and 0 <= iy < self.n_lat:
            return int(self._state_table[ix, iy])
        return OUT_OF_DOMAIN

    def box_of_state(self, state: int) -> BoxId:
        return tuple(self.boxes[state].tolist())

    def box_center(self, state: int) -> tuple[float, float]:
        """(lon, lat) of the box center of a state."""
        return tuple(self.box_centers([state])[0].tolist())

    def box_centers(self, states) -> np.ndarray:
        """(lon, lat) box centers of many states, one row each."""
        ix, iy = self.boxes[np.asarray(states, dtype=np.int64)].T
        return np.column_stack((
            self.lon_min + (ix + 0.5) * self.cell_size,
            self.lat_min + (iy + 0.5) * self.cell_size,
        ))

    def box_corners(self, state: int) -> list[tuple[float, float]]:
        """Counterclockwise (lon, lat) corners of a state's box."""
        return [tuple(corner) for corner in self.box_corners_of([state])[0].tolist()]

    def box_corners_of(self, states) -> np.ndarray:
        """(lon, lat) box corners of many states, counterclockwise: shape (m, 4, 2)."""
        ix, iy = self.boxes[np.asarray(states, dtype=np.int64)].T
        x0, y0 = self.lon_min + ix * self.cell_size, self.lat_min + iy * self.cell_size
        x1, y1 = x0 + self.cell_size, y0 + self.cell_size
        return np.stack((x0, y0, x1, y0, x1, y1, x0, y1), axis=1).reshape(-1, 4, 2)

    def point_to_state(self, lon: float, lat: float) -> int:
        """Map a position to its state index (total: never raises).

        Returns OUT_OF_DOMAIN for out-of-bounds positions and for positions
        on dry boxes.  Boundary points belong to the upper cell (half-open
        convention); the top edges lie outside the domain.
        """
        return int(self.points_to_states(lon, lat))

    def points_to_states(self, lons, lats) -> np.ndarray:
        """Vectorised :meth:`point_to_state` over paired lon/lat arrays (int64).

        Non-finite positions map to OUT_OF_DOMAIN.
        """
        ix = self._cell_indices(lons, self.lon_min, self.n_lon)
        iy = self._cell_indices(lats, self.lat_min, self.n_lat)
        return self._state_table[ix, iy]

    def _cell_indices(self, values, lower: float, count: int) -> np.ndarray:
        """Half-open cell index of each value, or -1 outside [lower, lower + count*cell)."""
        v = np.asarray(values, dtype=float)
        cell = self.cell_size
        with np.errstate(invalid="ignore", over="ignore"):
            raw = np.floor((v - lower) / cell)
        # fmax/fmin send NaN to -1 and clamp to [-1, count], which keeps the
        # integer cast defined and changes no result: the correction below
        # moves one step at most.
        idx = np.fmin(np.fmax(raw, -1.0), count).astype(np.int64)
        # One correction step so the half-open rule is exact against the
        # floating-point cell edges lower + i*cell.
        up = (idx + 1 < count) & (v >= lower + (idx + 1) * cell)
        down = ~up & (idx > 0) & (v < lower + idx * cell)
        idx = np.where(up, idx + 1, np.where(down, idx - 1, idx))
        outside = ((idx < 0) | (idx >= count) | (v < lower + idx * cell)
                   | ((idx == count - 1) & (v >= lower + count * cell)))
        return np.where(outside, -1, idx)

    def box_area_km2(self, state: int) -> float:
        """Spherical area of a state's box in km^2 (depends on latitude only)."""
        return self.row_area_km2(int(self.boxes[state, 1]))

    def row_area_km2(self, lat_index: int) -> float:
        lat0 = math.radians(self.lat_min + lat_index * self.cell_size)
        lat1 = math.radians(self.lat_min + (lat_index + 1) * self.cell_size)
        dlon = math.radians(self.cell_size)
        return EARTH_RADIUS_KM**2 * dlon * (math.sin(lat1) - math.sin(lat0))


@dataclass(frozen=True)
class StateRoles:
    """Role annotations over chain states.

    ``sticky`` maps each coastal state to its land fraction in the open
    interval (0, 1).  ``debris`` lists the beaching states in target-label
    order: position m-1 carries target label m, and a state may appear more
    than once when several observed beachings share a box (its land-fraction
    mass is then split equally among the co-located targets).  ``leaky``
    states may overlap ``sticky``.  ``candidate_sources`` keeps the file
    order, which downstream code treats as the latitude ordering.
    """

    leaky: frozenset[int]
    sticky: dict[int, float]
    debris: tuple[int, ...]
    candidate_sources: tuple[int, ...]

    def __post_init__(self):
        for state, ell in self.sticky.items():
            if not 0.0 < ell < 1.0:
                raise ConfigError(
                    f"land fraction for state {state} must lie strictly in (0, 1), got {ell}"
                )
        missing = [s for s in self.debris if s not in self.sticky]
        if missing:
            raise ConfigError(f"debris states not marked sticky: {sorted(set(missing))}")

    @property
    def n_targets(self) -> int:
        return len(self.debris)

    def check_states(self, n_states: int) -> None:
        """Raise if any referenced state falls outside 0..n_states-1."""
        states = {*self.leaky, *self.sticky, *self.debris, *self.candidate_sources}
        bad = [s for s in states if not 0 <= s < n_states]
        if bad:
            raise ConfigError(f"role references state {max(bad)} but chain has "
                              f"{n_states} states")


#: Each role record kind and the number of value fields after its state:
#: a sticky record gives the land fraction, a debris record the target label.
ROLE_KINDS = {"leaky": 0, "sticky": 1, "debris": 1, "source": 0}


def roles_from_records(records: Iterable[tuple[str, str, int, str | None]],
                       path) -> StateRoles:
    """The one rule that turns role records into validated StateRoles.

    Each record is ``(where, kind, state, value)``: ``where`` (`path:line`)
    opens its error messages, ``kind`` is a key of ROLE_KINDS, and
    ``value`` is the text of the land fraction or target label (None for
    leaky and source records).  A state may carry each kind once, a debris
    label may appear once, and the labels must be exactly 1..M; the source
    record order is the candidate order used for posterior intervals.
    """
    seen: dict[str, dict] = {kind: {} for kind in ROLE_KINDS}
    for where, kind, state, value in records:
        try:
            if kind == "debris":
                key, item = int(value), state
            else:
                key, item = state, float(value) if kind == "sticky" else None
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if key in seen[kind]:
            what = f"label {key}" if kind == "debris" else "record"
            raise ConfigError(f"{where}: duplicate {kind} {what}")
        seen[kind][key] = item

    labels = sorted(seen["debris"])
    if labels != list(range(1, len(labels) + 1)):
        raise ConfigError(f"{path}: debris target labels must be exactly 1..M, got {labels}")
    try:
        return StateRoles(
            leaky=frozenset(seen["leaky"]),
            sticky=seen["sticky"],
            debris=tuple(seen["debris"][m] for m in labels),
            candidate_sources=tuple(seen["source"]),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_grid(
    bounds: tuple[float, float, float, float],
    cell_size: float = 0.25,
    wet_mask: str | Path | None = None,
) -> GridCovering:
    """Build the box covering of a (lon_min, lon_max, lat_min, lat_max) rectangle.

    ``cell_size`` must divide both extents to within 1e-9 degrees.  The
    boxes that the wet mask file ``wet_mask`` flags wet become states (see
    :func:`_read_wet_mask`); boxes missing from it are dry, and ``None``
    marks every box wet.
    """
    lon_min, lon_max, lat_min, lat_max = map(float, bounds)
    if not all(map(math.isfinite, (lon_min, lon_max, lat_min, lat_max, cell_size))):
        raise ConfigError(f"grid bounds and cell_size must be finite, got {bounds}, {cell_size}")
    if not (lon_max > lon_min and lat_max > lat_min):
        raise ConfigError(f"degenerate bounds {bounds}")
    if cell_size <= 0:
        raise ConfigError(f"cell_size must be positive, got {cell_size}")
    n_lon = _checked_count(lon_max - lon_min, cell_size, "longitude")
    n_lat = _checked_count(lat_max - lat_min, cell_size, "latitude")
    wet = np.full((n_lat, n_lon), wet_mask is None)
    if wet_mask is not None:
        ix, iy = _read_wet_mask(wet_mask, (n_lon, n_lat)).T
        wet[iy, ix] = True
    iy, ix = np.nonzero(wet)
    if not ix.size:
        raise ConfigError("wet mask leaves no active boxes")
    return GridCovering(lon_min, lon_max, lat_min, lat_max, float(cell_size), n_lon, n_lat,
                        boxes=np.column_stack((ix, iy)))


def _checked_count(extent: float, cell: float, axis: str) -> int:
    count = round(extent / cell)
    if count < 1 or abs(extent - count * cell) > _DIVISOR_TOL:
        raise ConfigError(f"cell_size {cell} does not divide the {axis} extent {extent}")
    return count


_MASK_ENTRY = np.dtype([("ix", np.int64), ("iy", np.int64), ("wet", np.int64)])


def _read_wet_mask(path: str | Path, shape: tuple[int, int]) -> np.ndarray:
    """The (ix, iy) boxes that a wet mask file flags wet, in file order.

    Lines other than those blank (:func:`textio.is_blank`) before their first
    `#` are `ix,iy,wet` matrix-style entries (:func:`textio.read_entries`).
    A malformed line, a wet flag other than 0 or 1, a repeated box, a box
    outside the ``(n_lon, n_lat)`` ``shape`` and an empty file raise
    ConfigError naming the first offending `path:line`.
    """
    lines = read_lines(path)
    linenos = [k for k, line in enumerate(lines, start=1)
               if not is_blank(line.partition("#")[0])]
    if not linenos:
        raise ConfigError(f"{path}: empty wet mask")
    entries = [lines[k - 1] for k in linenos]
    rows, malformed = read_entries(entries, _MASK_ENTRY)
    if rows is None:  # check the lines before the malformed one first
        rows = read_entries(entries[:malformed], _MASK_ENTRY)[0]
    ix, iy, wet = rows["ix"], rows["iy"], rows["wet"]
    earlier = first_rows(iy, ix)
    bad_flag = (wet != 0) & (wet != 1)
    repeated = earlier < np.arange(len(rows))
    outside = (np.minimum(ix, iy) < 0) | (ix >= shape[0]) | (iy >= shape[1])
    bad = np.flatnonzero(bad_flag | repeated | outside)
    if bad.size:
        i = bad[0]
        where, box = f"{path}:{linenos[i]}", (int(ix[i]), int(iy[i]))
        if bad_flag[i]:
            raise ConfigError(f"{where}: wet flag must be 0 or 1, got {wet[i]}")
        if repeated[i]:
            raise ConfigError(f"{where}: box {box} repeats line {linenos[earlier[i]]}")
        raise ConfigError(f"{where}: box {box} lies outside the {shape[0]} x {shape[1]} grid")
    if len(rows) < len(entries):
        raise ConfigError(f"{path}:{linenos[len(rows)]}: malformed wet mask entry "
                          f"{entries[len(rows)]!r}")
    return np.column_stack((ix, iy))[wet == 1]


def load_roles(g: GridCovering, path: str | Path) -> StateRoles:
    """Parse the sectioned roles file into validated StateRoles.

    Records are `leaky: ix,iy`, `sticky: ix,iy,ell`, `debris: ix,iy,m` and
    `source: ix,iy`, read by :func:`roles_from_records`.
    """
    return roles_from_records(_role_file_records(g, path), path)


def _role_file_records(g: GridCovering, path: str | Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            kind, _, rest = line.partition(":")
            kind = kind.strip().lower()
            fields = [f.strip() for f in rest.split(",")]
            if kind not in ROLE_KINDS:
                raise ConfigError(f"{where}: unknown record kind {kind!r}")
            want = 2 + ROLE_KINDS[kind]
            if len(fields) != want:
                raise ConfigError(f"{where}: {kind} record needs {want} fields")
            try:
                box = (int(fields[0]), int(fields[1]))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            state = g.state_of_box(box)
            if state == OUT_OF_DOMAIN:
                raise ConfigError(f"{where}: box {box} is not an active box")
            yield where, kind, state, fields[2] if want == 3 else None


def states_by_latitude_row(g: GridCovering) -> list[np.ndarray]:
    """State indices grouped per latitude row (index 0 = southernmost row)."""
    starts = np.searchsorted(g.boxes[:, 1], np.arange(1, g.n_lat))
    return np.split(np.arange(g.n_states), starts)
