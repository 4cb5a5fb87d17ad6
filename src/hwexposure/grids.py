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
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

_ASC_KEYWORDS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class ConcentrationGrid:
    """A regular raster of annual-average concentrations (ug/m3) with a nodata mask."""

    origin_x: float
    origin_y: float
    cell_width: float
    cell_height: float
    n_rows: int
    n_cols: int
    values: np.ndarray  # float64, shape (n_rows, n_cols), row 0 at the bottom
    nodata: np.ndarray  # bool, same shape; True where the cell has no data

    def __post_init__(self) -> None:
        if self.cell_width <= 0 or self.cell_height <= 0:
            raise FormatError("cell dimensions must be positive")
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise FormatError("grid dimensions must be positive")
        shape = (self.n_rows, self.n_cols)
        if self.values.shape != shape or self.nodata.shape != shape:
            raise FormatError(
                f"value/nodata arrays must have shape {shape}, "
                f"got {self.values.shape} and {self.nodata.shape}"
            )
        valid = self.values[~self.nodata]
        if valid.size and (valid < 0).any():
            raise FormatError("concentrations must be non-negative")
        self.values.setflags(write=False)
        self.nodata.setflags(write=False)

    def cell_rect(self, row: int, col: int) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) of the cell at (row, col)."""
        x0 = self.origin_x + col * self.cell_width
        y0 = self.origin_y + row * self.cell_height
        return (x0, y0, x0 + self.cell_width, y0 + self.cell_height)

    @property
    def lattice(self) -> tuple[float, float, float, float, int, int]:
        """(origin_x, origin_y, cell_width, cell_height, n_rows, n_cols): what
        tract coverage depends on, as opposed to the cell values."""
        return (self.origin_x, self.origin_y, self.cell_width, self.cell_height,
                self.n_rows, self.n_cols)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        return (
            self.origin_x,
            self.origin_y,
            self.origin_x + self.n_cols * self.cell_width,
            self.origin_y + self.n_rows * self.cell_height,
        )


def read_asc(path: str) -> ConcentrationGrid:
    """Read an ESRI ASCII Grid.

    Recognized header keywords: ncols, nrows, xllcorner, yllcorner, cellsize,
    NODATA_value (optional, default -9999). Data rows follow, top row first,
    and may wrap across lines. Cell values other than NODATA_value must be
    finite.
    """
    header, values = _read_asc(path, fast=True)
    if values is None:
        header, values = _read_asc(path, fast=False)
    values = values[::-1].copy()  # file is top-down; store bottom-up
    nodata = values == header.get("nodata_value", -9999.0)
    values = np.where(nodata, 0.0, values)
    return _grid(path, header["xllcorner"], header["yllcorner"], header["cellsize"],
                 header["cellsize"], values, nodata)


def _grid(path: str, origin_x: float, origin_y: float, cell_width: float,
          cell_height: float, values: np.ndarray, nodata: np.ndarray) -> ConcentrationGrid:
    """The grid read from ``path``; a fault the grid finds names the file."""
    try:
        return ConcentrationGrid(origin_x, origin_y, cell_width, cell_height,
                                 *values.shape, values, nodata)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


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
    with open(path, "r", encoding="utf-8") as fh:
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
    bad = ~np.isfinite(flat) & (flat != header.get("nodata_value", -9999.0))
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
    distinct coordinates. Lattice positions absent from the file become nodata.
    Values must be finite.
    """
    xs: list[float] = []
    ys: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
            if not math.isfinite(value):
                raise FormatError(f"{path}:{reader.line_num}: non-finite value {row['value']!r}")
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
