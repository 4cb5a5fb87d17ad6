"""Gridded concentration surfaces: the in-memory raster type plus readers for
ESRI ASCII Grid (.asc) files and an (x, y, value) CSV fallback.

Grids are stored bottom-up: row 0 spans [origin_y, origin_y + cell_height).
ESRI ASCII files list the top row first, so the reader flips them.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .ingest import first_bad_row, open_input, read_columns

_ASC_KEYWORDS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class ConcentrationGrid(NamedTuple):
    """A regular raster of annual-average concentrations (ug/m3): ``values``
    is float64 of shape (n_rows, n_cols), row 0 at the bottom, NaN where the
    cell has no data. The readers make ``values`` read-only and give it at
    least one cell, a positive cell size and non-negative valid cells."""

    origin_x: float
    origin_y: float
    cell_width: float
    cell_height: float
    values: np.ndarray

    @property
    def lattice(self) -> tuple[float, float, float, float, int, int]:
        """(origin_x, origin_y, cell_width, cell_height, n_rows, n_cols): what
        tract coverage depends on, as opposed to the cell values."""
        return (self.origin_x, self.origin_y, self.cell_width, self.cell_height,
                *self.values.shape)


def read_asc(path: str) -> ConcentrationGrid:
    """Read an ESRI ASCII Grid.

    Recognized header keywords: ncols, nrows, xllcorner, yllcorner, cellsize,
    NODATA_value (optional, default -9999). Data rows follow, top row first,
    and may wrap across lines. The corners, the cell size and cell values
    other than NODATA_value (which may be NaN or infinite) must be finite.
    """
    header, values = _read_asc(path, fast=True)
    if values is None:
        header, values = _read_asc(path, fast=False)
    return _grid(path, header["xllcorner"], header["yllcorner"], header["cellsize"],
                 header["cellsize"], values)


def _grid(path: str, origin_x: float, origin_y: float, cell_width: float,
          cell_height: float, values: np.ndarray) -> ConcentrationGrid:
    """The grid read from ``path``, once its cells have a positive size and
    its valid cells are non-negative."""
    if cell_width <= 0 or cell_height <= 0:
        raise FormatError(f"{path}: cell dimensions must be positive")
    if (values < 0).any():  # NaN, a cell without data, compares false
        raise FormatError(f"{path}: concentrations must be non-negative")
    values.setflags(write=False)
    return ConcentrationGrid(origin_x, origin_y, cell_width, cell_height, values)


def _read_asc(path: str, fast: bool) -> tuple[dict[str, float], np.ndarray | None]:
    """The header and the bottom-up (nrows x ncols) cells of an ESRI ASCII
    Grid, NaN where a cell holds the header's nodata marker.

    The fast pass reads every data line with one ``np.loadtxt`` and gives no
    cells where that fails or a cell is bad; the token pass reads one Python
    float per token and names the line of a bad cell.
    """
    header: dict[str, float] = {}
    data: list[float] | np.ndarray = []
    line_starts: list[int] = []  # index in ``data`` of each data line's first value
    line_numbers: list[int] = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not data and key in _ASC_KEYWORDS:
                if key in header:
                    raise FormatError(f"{path}:{lineno}: repeated header keyword {key!r}")
                if len(tokens) != 2:
                    raise FormatError(f"{path}:{lineno}: malformed header line {line!r}")
                try:
                    header[key] = float(tokens[1])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: non-numeric {key} {tokens[1]!r}") from exc
                if key in ("ncols", "nrows") and not (header[key].is_integer() and header[key] > 0):
                    raise FormatError(
                        f"{path}:{lineno}: {key} must be a positive integer, got {tokens[1]!r}")
                if key in ("xllcorner", "yllcorner", "cellsize") and not math.isfinite(header[key]):
                    raise FormatError(f"{path}:{lineno}: {key} must be finite, got {tokens[1]!r}")
            elif fast:
                try:  # ragged lines, or a token only Python's float() takes
                    data = np.loadtxt(itertools.chain([line], fh), dtype=np.float64,
                                      comments=None, ndmin=2)
                except ValueError:
                    return header, None
                break
            else:
                line_starts.append(len(data))
                line_numbers.append(lineno)
                try:
                    data.extend(float(t) for t in tokens)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: non-numeric cell value") from exc
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise FormatError(f"{path}: missing required header keyword {key!r}")
    n_cols, n_rows = int(header["ncols"]), int(header["nrows"])
    flat = np.asarray(data, dtype=np.float64)
    if flat.size != n_rows * n_cols:
        raise FormatError(f"{path}: expected {n_rows * n_cols} cell values, got {flat.size}")
    marker = header.get("nodata_value", -9999.0)
    nodata = np.isnan(flat) if math.isnan(marker) else flat == marker
    if not (np.isfinite(flat) | nodata).all():  # unbound: no mask is held beside the output
        if fast:
            return header, None
        first = int(np.argmin(np.isfinite(flat) | nodata))
        lineno = line_numbers[bisect.bisect_right(line_starts, first) - 1]
        raise FormatError(f"{path}:{lineno}: non-finite cell value {float(flat[first])!r}")
    # the file lists the top row first
    return header, np.where(nodata.reshape(n_rows, n_cols)[::-1], np.nan,
                            flat.reshape(n_rows, n_cols)[::-1])


def read_xyz_csv(path: str) -> ConcentrationGrid:
    """Read a grid from a CSV with header ``x,y,value``.

    Points are cell centers on a regular lattice; spacing is inferred from the
    distinct coordinates. Lattice positions absent from the file become nodata,
    and of two points at one position the later one wins. Coordinates and
    values must be finite.
    """
    try:
        with open_input(path) as fh:
            if [name.strip() for name in next(csv.reader(fh), [])] != ["x", "y", "value"]:
                raise FormatError(f"{path}: expected header 'x,y,value'")
            points = read_columns(path, fh, "f8,f8,f8", (0, 1, 2), _bad_point)
    except ValueError as exc:  # no bad point: a token only Python's float() takes
        raise FormatError(f"{path}: {exc}") from exc
    xs, ys, vs = points = points.view(np.float64).reshape(-1, 3).T
    if not np.isfinite(points).all():  # float() reads such a cell alike, so a row is named
        raise first_bad_row(path, (0, 1, 2), _bad_point)
    (x0, cell_w, n_cols), (y0, cell_h, n_rows) = _axis(xs, path, "x"), _axis(ys, path, "y")
    try:
        values = np.full((n_rows, n_cols), np.nan)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise FormatError(
            f"{path}: a lattice of {n_rows} x {n_cols} cells cannot be allocated") from exc
    cells = (np.rint((ys - y0) / cell_h).astype(np.int64) * n_cols
             + np.rint((xs - x0) / cell_w).astype(np.int64))
    order = np.argsort(cells)  # each position's points together, in no set order
    starts = np.flatnonzero(np.append(True, np.diff(cells[order]) != 0))
    won = np.maximum.reduceat(order, starts)  # the later point at a position wins
    values.ravel()[cells[won]] = vs[won]
    return _grid(path, x0 - cell_w / 2.0, y0 - cell_h / 2.0, cell_w, cell_h, values)


def _bad_point(cells: list[str | None]) -> str | None:
    """The fault of a point whose x, y or value is not a finite number."""
    try:
        bad = [(name, cell) for name, cell in zip(("x", "y", "value"), cells)
               if not math.isfinite(float(cell))]
    except (TypeError, ValueError):
        return "non-numeric x, y or value"
    return f"non-finite {bad[0][0]} {bad[0][1]!r}" if bad else None


def _axis(coords: np.ndarray, path: str, axis: str) -> tuple[float, float, int]:
    """The least of the points' ``coords``, their lattice spacing (the least
    step between distinct ones; np.unique would import numpy.ma) and the
    number of cells they span. A span past float64 is no lattice."""
    coords = np.sort(coords)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(coords)
        diffs = diffs[diffs != 0]
        if not diffs.size:
            return coords[0], 1.0, 1  # single row/column: spacing is arbitrary, use unit cells
        step = diffs.min()
        span = (coords[-1] - coords[0]) / step
        regular = np.allclose(np.round(diffs / step), diffs / step, atol=1e-6)
    if not regular or not np.isfinite(span):
        raise FormatError(f"{path}: {axis} coordinates are not on a regular lattice")
    return coords[0], float(step), int(np.rint(span)) + 1
