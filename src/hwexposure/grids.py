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

import numpy as np

from .errors import FormatError
from .ingest import open_input

_ASC_KEYWORDS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class ConcentrationGrid:
    """A regular raster of annual-average concentrations (ug/m3) with a nodata
    mask: ``values`` (float64, shape (n_rows, n_cols), row 0 at the bottom) and
    ``nodata`` (bool, same shape; True where the cell has no data), both made
    read-only. The readers give both that shape, with at least one cell, a
    positive cell size and non-negative valid cells."""

    __slots__ = ("origin_x", "origin_y", "cell_width", "cell_height", "n_rows", "n_cols",
                 "values", "nodata")

    def __init__(self, origin_x: float, origin_y: float, cell_width: float,
                 cell_height: float, n_rows: int, n_cols: int, values: np.ndarray,
                 nodata: np.ndarray) -> None:
        values.setflags(write=False)
        nodata.setflags(write=False)
        self.origin_x, self.origin_y = origin_x, origin_y
        self.cell_width, self.cell_height = cell_width, cell_height
        self.n_rows, self.n_cols = n_rows, n_cols
        self.values, self.nodata = values, nodata

    @property
    def lattice(self) -> tuple[float, float, float, float, int, int]:
        """(origin_x, origin_y, cell_width, cell_height, n_rows, n_cols): what
        tract coverage depends on, as opposed to the cell values."""
        return (self.origin_x, self.origin_y, self.cell_width, self.cell_height,
                self.n_rows, self.n_cols)


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
    values = values[::-1].copy()  # file is top-down; store bottom-up
    nodata = _is_nodata(values, header)
    values = np.where(nodata, 0.0, values)
    return _grid(path, header["xllcorner"], header["yllcorner"], header["cellsize"],
                 header["cellsize"], values, nodata)


def _is_nodata(values: np.ndarray, header: dict[str, float]) -> np.ndarray:
    """Where the cells hold the header's nodata marker (a NaN marker marks NaN cells)."""
    marker = header.get("nodata_value", -9999.0)
    return np.isnan(values) if math.isnan(marker) else values == marker


def _grid(path: str, origin_x: float, origin_y: float, cell_width: float,
          cell_height: float, values: np.ndarray, nodata: np.ndarray) -> ConcentrationGrid:
    """The grid read from ``path``, once its cells have a positive size and
    its valid cells are non-negative."""
    if cell_width <= 0 or cell_height <= 0:
        raise FormatError(f"{path}: cell dimensions must be positive")
    if (values[~nodata] < 0).any():
        raise FormatError(f"{path}: concentrations must be non-negative")
    return ConcentrationGrid(origin_x, origin_y, cell_width, cell_height,
                             *values.shape, values, nodata)


def _read_asc(path: str, fast: bool) -> tuple[dict[str, float], np.ndarray | None]:
    """The header and the top-down (nrows x ncols) cells of an ESRI ASCII Grid.

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
    bad = ~np.isfinite(flat) & ~_is_nodata(flat, header)
    if bad.any():
        if fast:
            return header, None
        first = int(np.argmax(bad))
        lineno = line_numbers[bisect.bisect_right(line_starts, first) - 1]
        raise FormatError(f"{path}:{lineno}: non-finite cell value {float(flat[first])!r}")
    return header, flat.reshape(n_rows, n_cols)


def read_xyz_csv(path: str) -> ConcentrationGrid:
    """Read a grid from a CSV with header ``x,y,value``.

    Points are cell centers on a regular lattice; spacing is inferred from the
    distinct coordinates. Lattice positions absent from the file become nodata,
    and of two points at one position the later one wins. Coordinates and
    values must be finite.
    """
    xs: list[float] = []
    ys: list[float] = []
    vs: list[float] = []
    with open_input(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None:  # the cells are looked up by the stripped names
            reader.fieldnames = [f.strip() for f in reader.fieldnames]
        if reader.fieldnames != ["x", "y", "value"]:
            raise FormatError(f"{path}: expected header 'x,y,value'")
        for row in reader:
            try:
                x, y, value = float(row["x"]), float(row["y"]), float(row["value"])
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{reader.line_num}: non-numeric x, y or value") from exc
            for name, number in (("x", x), ("y", y), ("value", value)):
                if not math.isfinite(number):
                    raise FormatError(f"{path}:{reader.line_num}: non-finite {name} {row[name]!r}")
            xs.append(x)
            ys.append(y)
            vs.append(value)
    if not xs:
        raise FormatError(f"{path}: no data rows")
    ux, uy = _distinct(xs), _distinct(ys)
    cell_w = _uniform_spacing(ux, path, "x")
    cell_h = _uniform_spacing(uy, path, "y")
    n_cols = int(round((ux[-1] - ux[0]) / cell_w)) + 1
    n_rows = int(round((uy[-1] - uy[0]) / cell_h)) + 1
    values = np.zeros((n_rows, n_cols), dtype=np.float64)
    nodata = np.ones((n_rows, n_cols), dtype=bool)
    for x, y, v in zip(xs, ys, vs):
        col = int(round((x - ux[0]) / cell_w))
        row = int(round((y - uy[0]) / cell_h))
        values[row, col] = v
        nodata[row, col] = False
    return _grid(path, ux[0] - cell_w / 2.0, uy[0] - cell_h / 2.0, cell_w, cell_h,
                 values, nodata)


def _distinct(values: list[float]) -> np.ndarray:
    """Distinct values, ascending (np.unique would import numpy.ma)."""
    v = np.sort(np.array(values))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _uniform_spacing(coords: np.ndarray, path: str, axis: str) -> float:
    if coords.size == 1:
        return 1.0  # single row/column: spacing is arbitrary, use unit cells
    diffs = np.diff(coords)
    step = diffs.min()
    if step <= 0 or not np.allclose(np.round(diffs / step), diffs / step, atol=1e-6):
        raise FormatError(f"{path}: {axis} coordinates are not on a regular lattice")
    return float(step)
