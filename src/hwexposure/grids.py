"""Gridded concentration surfaces: the in-memory raster type plus readers for
ESRI ASCII Grid (.asc) files and an (x, y, value) CSV fallback.

Grids are stored bottom-up: row 0 spans [origin_y, origin_y + cell_height).
ESRI ASCII files list the top row first, so the reader flips them.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .ingest import open_input, parsed, read_columns

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
    other than NODATA_value (which may be NaN or infinite) must be finite,
    and numpy's C float parser reads them: a token only Python's float()
    takes, such as 1_0, is a non-numeric cell.
    """
    header: dict[str, float] = {}
    cells, start = np.empty(0), 0  # start: the first data line
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if key not in _ASC_KEYWORDS:
                # a first data line of ncols cells starts a file of one row a line
                start = lineno
                cells = (parsed(itertools.chain([line], fh))
                         if len(tokens) == header.get("ncols") else None)
                break
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
    if cells is None:  # wrapped rows, or a bad token: the data lines' tokens, read again
        with open_input(path) as fh:
            cells = parsed(itertools.chain.from_iterable(
                map(str.split, itertools.islice(fh, start - 1, None))))
    if cells is None:
        raise FormatError(f"{path}:{_cell_line(path, start, None)}: non-numeric cell value")
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise FormatError(f"{path}: missing required header keyword {key!r}")
    n_cols, n_rows = int(header["ncols"]), int(header["nrows"])
    if cells.size != n_rows * n_cols:
        raise FormatError(f"{path}: expected {n_rows * n_cols} cell values, got {cells.size}")
    cells = cells.reshape(n_rows, n_cols)
    marker = header.get("nodata_value", -9999.0)
    nodata = np.isnan(cells) if math.isnan(marker) else cells == marker
    valid = np.isfinite(cells)
    valid |= nodata
    if not valid.all():
        first = int(np.argmin(valid))
        raise FormatError(f"{path}:{_cell_line(path, start, first)}: "
                          f"non-finite cell value {float(cells.flat[first])!r}")
    cells[nodata] = np.nan
    del valid, nodata  # one grid-sized array from here on
    # the file lists the top row first: swap rows in place, ~64k cells at a time
    half, step = n_rows // 2, max(1, 65536 // n_cols)
    for top in range(0, half, step):
        end = min(top + step, half)
        upper, lower = cells[top:end], cells[n_rows - end:n_rows - top][::-1]
        upper[...], lower[...] = lower.copy(), upper.copy()
    return _grid(path, header["xllcorner"], header["yllcorner"], header["cellsize"],
                 header["cellsize"], cells)


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


def _cell_line(path: str, start: int, cell: int | None) -> int:
    """The line of ``path`` that holds cell number ``cell`` of the data lines
    from line ``start`` on or, where ``cell`` is None, the first of them that
    np.loadtxt cannot read: one rescan."""
    seen = 0
    with open_input(path) as fh:
        for lineno, line in enumerate(itertools.islice(fh, start - 1, None), start):
            tokens = line.split()
            seen += len(tokens)
            if tokens and (parsed(tokens) is None if cell is None else seen > cell):
                return lineno


def read_xyz_csv(path: str) -> ConcentrationGrid:
    """Read a grid from a CSV with header ``x,y,value``.

    Points are cell centers on a regular lattice; spacing is inferred from the
    distinct coordinates. Lattice positions absent from the file become nodata,
    and of two points at one position the later one wins. Coordinates and
    values must be finite.
    """
    with open_input(path) as fh:
        if [name.strip() for name in next(fh, "").split(",")] != ["x", "y", "value"]:
            raise FormatError(f"{path}: expected header 'x,y,value'")
        points = read_columns(path, fh, np.dtype("f8,f8,f8"), (0, 1, 2), _point_fault,
                              lambda points: np.isfinite(points.view(np.float64)).all())
    xs, ys, vs = points.view(np.float64).reshape(-1, 3).T
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


def _point_fault(cells: list[str | None], values: list) -> str | None:
    """The fault of a point whose x, y or value numpy rejects or reads as non-finite."""
    if any(value is None for value in values):
        return "non-numeric x, y or value"
    for name, cell, value in zip(("x", "y", "value"), cells, values):
        if not np.isfinite(value).all():
            return f"non-finite {name} {cell!r}"
    return None


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
