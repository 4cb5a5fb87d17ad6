"""Grid readers and zonal aggregation, checked against point-sampling oracles."""
from __future__ import annotations

import gzip
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    PolygonPart,
    TractGeometry,
    counter_clockwise,
    exact_area,
    mask_set,
    masked_read_asc,
    masked_read_xyz_csv,
    oracle_read_tracts_geojson,
    oracle_read_xyz_csv,
    oracle_tract_coverage,
    oracle_zonal_mean,
    overlap_area,
    points_in_parts,
    polygon_area,
    random_star_polygon,
    read_surface_csv,
    signed_ring_area,
    surface_entries,
    tract_set,
    zonal_weighted_mean,
)

import hwexposure
from hwexposure import pipeline, synth, zonal
from hwexposure.config import load_config
from hwexposure.errors import FormatError
from hwexposure.geometry import geoid_text, read_tracts_geojson
from hwexposure.grids import ConcentrationGrid, read_asc, read_xyz_csv
from hwexposure.zonal import build_tract_surface, build_urban_mask


def make_grid(values, origin=(0.0, 0.0), cell=1.0, nodata=None, cell_height=None):
    arr = np.asarray(values, dtype=np.float64)
    return ConcentrationGrid(
        origin_x=origin[0],
        origin_y=origin[1],
        cell_width=cell,
        cell_height=cell if cell_height is None else cell_height,
        values=arr if nodata is None else np.where(nodata, np.nan, arr),
    )


def square(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))


def rect_tract(geoid, x0, y0, x1, y1):
    return TractGeometry(geoid=geoid, parts=(PolygonPart(exterior=square(x0, y0, x1, y1)),))


def tract_coverage(tracts, grid):
    return zonal.tract_coverage(tract_set(tracts), grid)


def surface_of(grid, tracts, year=2011):
    return build_tract_surface(grid, tract_coverage(tracts, grid), year, None)


# ----------------------------------------------------------------------------
# grid readers
# ----------------------------------------------------------------------------

ASC_TEXT = """ncols 3
nrows 2
xllcorner 10.0
yllcorner 20.0
cellsize 2.0
NODATA_value -9999
1.5 2.5 -9999
4.0 5.0 6.0
"""


def test_read_asc(tmp_path):
    path = tmp_path / "grid.asc"
    path.write_text(ASC_TEXT)
    grid = read_asc(str(path))
    assert grid.lattice == (10.0, 20.0, 2.0, 2.0, 2, 3)
    # file is top-down; bottom row (row 0) holds the last data line
    assert grid.values[0].tolist() == [4.0, 5.0, 6.0]
    assert grid.values[1, :2].tolist() == [1.5, 2.5]
    assert np.isnan(grid.values[1]).tolist() == [False, False, True]


def test_read_asc_missing_header(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 1\ncellsize 1.0\n1 2\n")
    with pytest.raises(FormatError):
        read_asc(str(path))


def test_read_asc_wrong_cell_count(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")
    with pytest.raises(FormatError):
        read_asc(str(path))


@pytest.mark.parametrize("old, new, message", [
    ("ncols 3", "ncols abc", r"1: non-numeric ncols 'abc'"),
    ("ncols 3", "ncols 3.5", r"1: ncols must be a positive integer, got '3\.5'"),
    ("nrows 2", "nrows 2.5", r"2: nrows must be a positive integer, got '2\.5'"),
    ("nrows 2", "nrows -2", r"2: nrows must be a positive integer, got '-2'"),
    ("cellsize 2.0", "cellsize x", r"5: non-numeric cellsize 'x'"),
    ("ncols 3", "ncols 2 3", r"1: malformed header line 'ncols 2 3\\n'"),
])
def test_read_asc_rejects_bad_header_value(tmp_path, old, new, message):
    path = tmp_path / "bad.asc"
    path.write_text(ASC_TEXT.replace(old, new))
    with pytest.raises(FormatError, match=rf"bad\.asc:{message}"):
        read_asc(str(path))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_read_asc_rejects_non_finite(tmp_path, token):
    path = tmp_path / "bad.asc"
    path.write_text(ASC_TEXT.replace("5.0", token))
    with pytest.raises(FormatError, match=rf"bad\.asc:8: non-finite cell value"):
        read_asc(str(path))


def test_read_asc_non_numeric_cell_names_its_line(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text(ASC_TEXT.replace("1.5", "abc"))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:7: non-numeric cell value$"):
        read_asc(str(path))


def asc_with_data(rows: list[str]) -> str:
    return "".join(ASC_TEXT.splitlines(keepends=True)[:6]) + "".join(rows)


def assert_same_grid(a, b):
    assert a.lattice == b.lattice
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(np.isnan(a.values), np.isnan(b.values))


def test_read_asc_wrapped_data_equals_rectangular(tmp_path):
    rect, wrapped = tmp_path / "rect.asc", tmp_path / "wrapped.asc"
    rect.write_text(ASC_TEXT)
    # the same six cells, two then four per line (the fast path cannot take it)
    wrapped.write_text(asc_with_data(["1.5 2.5\n", "-9999 4.0 5.0 6.0\n"]))
    assert_same_grid(read_asc(str(wrapped)), read_asc(str(rect)))
    # one cell per line: six rows of one value, not (nrows x ncols)
    wrapped.write_text(asc_with_data([f"{v}\n" for v in "1.5 2.5 -9999 4.0 5.0 6.0".split()]))
    assert_same_grid(read_asc(str(wrapped)), read_asc(str(rect)))


def test_read_asc_blank_line_between_data_rows(tmp_path):
    rect, spaced = tmp_path / "rect.asc", tmp_path / "spaced.asc"
    rect.write_text(ASC_TEXT)
    spaced.write_text(asc_with_data(["1.5 2.5 -9999\n", "\n", "  \n", "4.0 5.0 6.0\n"]))
    assert_same_grid(read_asc(str(spaced)), read_asc(str(rect)))


def test_read_asc_names_the_line_of_a_late_non_finite_cell(tmp_path):
    path = tmp_path / "bad.asc"
    rows = ["1.0 1.0 1.0\n"] * 40
    rows[36] = "1.0 nan 1.0\n"
    path.write_text("ncols 3\nnrows 40\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                    "NODATA_value -9999\n\n" + "".join(rows))
    # six header lines and a blank one: data row 36 is line 44
    with pytest.raises(FormatError, match=r"bad\.asc:44: non-finite cell value nan"):
        read_asc(str(path))


@pytest.mark.parametrize("token", ["1_0", "\u0663"])
@pytest.mark.parametrize("rows, line", [
    (["1.5 2.5 -9999\n", "4.0 {} 6.0\n"], 8),
    (["1.5 2.5\n", "-9999 4.0\n", "\n", "{} 6.0\n"], 10),
], ids=["rectangular", "wrapped"])
def test_read_asc_cells_are_read_by_the_c_float_parser(tmp_path, token, rows, line):
    # as in an XYZ grid, a token that only Python's float() reads (digit-group
    # underscores, non-ASCII digits) is not a number, in either layout; the
    # rescan that names its line passes blank lines without a warning
    path = tmp_path / "bad.asc"
    path.write_text(asc_with_data([row.format(token) for row in rows]), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path))}:{line}: non-numeric cell value$"):
            read_asc(str(path))


def test_read_asc_without_data_lines_has_no_cells(tmp_path):
    # a header alone (and a blank line) is a file of no cells, not a warning
    path = tmp_path / "bad.asc"
    path.write_text(asc_with_data(["\n"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path))}: expected 6 cell values, got 0$"):
            read_asc(str(path))


def test_read_xyz_csv(tmp_path):
    path = tmp_path / "grid.csv"
    # centers of a 2x2 unit grid, one cell missing -> nodata
    path.write_text("x,y,value\n0.5,0.5,1.0\n1.5,0.5,2.0\n0.5,1.5,3.0\n")
    grid = read_xyz_csv(str(path))
    assert grid.lattice == (0.0, 0.0, 1.0, 1.0, 2, 2)
    assert grid.values[0].tolist() == [1.0, 2.0]
    assert np.isnan(grid.values[1]).tolist() == [False, True]


def test_read_xyz_csv_bad_header(tmp_path):
    # a quote is an ordinary character, so a quoted name is another name
    path = tmp_path / "bad.csv"
    for header in ("lon,lat,val", '"x","y","value"'):
        path.write_text(f"{header}\n0,0,1\n")
        with pytest.raises(FormatError, match=r"bad\.csv: expected header 'x,y,value'$"):
            read_xyz_csv(str(path))


@pytest.mark.parametrize("token, message", [
    ("nan", "non-finite value"),
    ("inf", "non-finite value"),
    ("-inf", "non-finite value"),
    ("abc", "non-numeric"),
    ("1_0", "non-numeric"),  # Python's float() reads both; numpy's parser does not
    ("٣", "non-numeric"),
    ('"2.0"', "non-numeric"),  # a quote is an ordinary character
])
def test_read_xyz_csv_rejects_bad_value(tmp_path, token, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,value\n0.5,0.5,1.0\n1.5,0.5,{token}\n")
    with pytest.raises(FormatError, match=rf"bad\.csv:3: {message}"):
        read_xyz_csv(str(path))


@pytest.mark.parametrize("row, message", [
    ("nan,0.5,1.0", "non-finite x 'nan'"),
    ("0.5,inf,1.0", "non-finite y 'inf'"),
    ("-inf,0.5,1.0", "non-finite x '-inf'"),
])
def test_read_xyz_csv_rejects_non_finite_coordinate(tmp_path, row, message):
    # alone or among finite points, a non-finite coordinate names its line
    for rows in (f"{row}\n", f"0.5,0.5,1.0\n{row}\n1.5,0.5,2.0\n"):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,value\n" + rows)
        line = 2 if rows.startswith(row) else 3
        with pytest.raises(FormatError, match=rf"bad\.csv:{line}: {message}"):
            read_xyz_csv(str(path))


@pytest.mark.parametrize("rows, message", [
    ("", "no data rows"),
    ("0.5,0.5,1.0\n1.5,0.5,2.0\n4.0,0.5,3.0\n", "x coordinates are not on a regular lattice"),
    # a span float64 cannot hold, with or without a point between its ends
    ("-1e308,0,1\n1e308,0,1\n", "x coordinates are not on a regular lattice"),
    ("-1e308,0,1\n0,0,1\n1e308,0,1\n", "x coordinates are not on a regular lattice"),
    ("0,-1e308,1\n0,1e308,1\n", "y coordinates are not on a regular lattice"),
    ("0,-1e308,1\n0,0,1\n0,1e308,1\n", "y coordinates are not on a regular lattice"),
], ids=["no_rows", "irregular_x", "overflow_x", "overflow_x_mid", "overflow_y",
        "overflow_y_mid"])
def test_read_xyz_csv_rejects_bad_point_set(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_xyz_csv(str(path))


_ALLOCATE_CHECK = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))  # 2 GiB, this process alone
from hwexposure.errors import FormatError
from hwexposure.grids import read_xyz_csv
try:
    read_xyz_csv(sys.argv[1])
except FormatError as exc:
    print(exc)
"""


@pytest.mark.parametrize("rows, shape", [
    ("0,0,1\n0.001,0,1\n1e9,0,1\n", "1 x 1000000000001"),  # 7.28 TiB
    ("0,0,1\n1,0,1\n1e18,0,1\n", "1 x 1000000000000000001"),  # past numpy's largest array
], ids=["memory", "size"])
def test_read_xyz_csv_lattice_that_cannot_be_allocated(tmp_path, rows, shape):
    # a few points far apart at a fine spacing span a lattice no memory
    # holds; the child caps its own address space, so the host's overcommit
    # policy cannot let the allocation through
    path = tmp_path / "far.csv"
    path.write_text("x,y,value\n" + rows)
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _ALLOCATE_CHECK, str(path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{path}: a lattice of {shape} cells cannot be allocated\n"


def xyz_outcome(read, path: str) -> tuple:
    """What a reader makes of an XYZ file: the grid's lattice, values and
    nodata mask, bit for bit, or its fault's message."""
    try:
        grid = read(path)
    except FormatError as exc:
        return ("fault", str(exc))
    return ("grid", [float(v).hex() for v in grid.lattice[:4]], grid.lattice[4:],
            grid.values.tobytes(), np.isnan(grid.values).tobytes())


@st.composite
def xyz_text(draw, fault: bool) -> tuple[str, str]:
    """An XYZ grid file's name and text: a random lattice's points with some
    missing and some repeated, shuffled, in random cell spellings, line ends,
    blank lines, extra cells, a BOM and gzip; with ``fault``, bad cells or
    short rows at random rows."""
    n_cols, n_rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    x0, y0 = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    w, h = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    value = st.floats(0, 1e3) | st.sampled_from([0.0, -0.0, 1.5])
    points = [(x0 + c * w, y0 + r * h, draw(value))
              for r in range(n_rows) for c in range(n_cols) if draw(st.booleans())]
    if points:  # repeated positions, each with its own value
        points += [(x, y, draw(value))
                   for x, y, _ in draw(st.lists(st.sampled_from(points), max_size=3))]
    exact = ["{!r}", " {!r} ", "{:.17e}", "{:.17g}"]  # a coordinate's one value
    coordinate, cell = st.sampled_from(exact), st.sampled_from([*exact, "{:.6g}", "{:.3e}"])
    rows = [f"{draw(coordinate).format(x)},{draw(coordinate).format(y)},{draw(cell).format(v)}"
            for x, y, v in draw(st.permutations(points))]
    rows = [row + draw(st.sampled_from(["", ",", ",extra", ',"a,b"', ",1,2"])) for row in rows]
    if fault:
        bad = st.sampled_from(["abc", "", "nan", "inf", "-inf", "1e999", "NaN"])
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(rows)))
            cells = [repr(x0), repr(y0), "1.0"]
            if draw(st.booleans()):
                for i in draw(st.sets(st.integers(0, 2), min_size=1)):
                    cells[i] = draw(bad)
            else:
                cells = cells[:draw(st.integers(1, 2))]
            rows.insert(at, ",".join(cells))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.sampled_from(["x,y,value", " x , y ,value"]))
    text = (draw(st.sampled_from(["", "\ufeff"])) + header + end + end.join(rows)
            + draw(st.sampled_from(["", end])))
    return draw(st.sampled_from(["grid.csv", "grid.csv.gz"])), text


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_xyz_csv_matches_row_reader(tmp_path_factory, data):
    # the column reader and the per-point row reader it replaced make the same
    # grid of every file, bit for bit, and the same fault of every bad one
    name, text = data.draw(xyz_text(fault=data.draw(st.booleans())))
    path = tmp_path_factory.mktemp("xyz") / name
    raw = text.encode("utf-8")
    path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
    assert xyz_outcome(read_xyz_csv, str(path)) == xyz_outcome(oracle_read_xyz_csv, str(path))


@st.composite
def asc_text(draw, fault: bool) -> str:
    """An ESRI ASCII grid's text: a random lattice whose cells are values or
    its nodata marker (finite, NaN, infinite or the default), one row a line
    or wrapped at random cells, with blank lines; with ``fault``, one cell
    that is non-finite or negative."""
    n_cols, n_rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    marker = draw(st.sampled_from([None, "-9999", "0", "2.5", "nan", "NaN", "inf", "-inf"]))
    value = st.floats(0, 1e3).map(repr) | st.sampled_from(["0", "-0.0", "2.5", "1e-300"])
    cells = [draw(st.just(marker or "-9999") | value) for _ in range(n_rows * n_cols)]
    if fault:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(["nan", "inf", "-1.5"]))
    if draw(st.booleans()):
        lines = [" ".join(cells[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(len(cells) - 1, 1)))))
        lines = [" ".join(cells[a:b]) for a, b in zip([0, *cuts], [*cuts, len(cells)]) if a < b]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    header = [f"ncols {n_cols}", f"nrows {n_rows}",
              f"xllcorner {draw(st.floats(-1e6, 1e6))!r}",
              f"yllcorner {draw(st.floats(-1e6, 1e6))!r}",
              f"cellsize {draw(st.floats(1e-3, 1e3))!r}"]
    if marker is not None:
        header.append(f"NODATA_value {marker}")
    return "\n".join(header + lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_readers_mark_by_nan_the_cells_the_masked_readers_left_out(tmp_path_factory, data):
    # against the readers that kept zero-filled values and a nodata mask: NaN
    # stands exactly where the mask was set, every other cell is bit-equal,
    # the lattice is the same and so is every fault
    fault = data.draw(st.booleans())
    if data.draw(st.booleans()):
        name, text = "grid.asc", data.draw(asc_text(fault))
        read, masked_read = read_asc, masked_read_asc
    else:
        name, text = data.draw(xyz_text(fault))
        read, masked_read = read_xyz_csv, masked_read_xyz_csv
    path = tmp_path_factory.mktemp("grid") / name
    raw = text.encode("utf-8")
    path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
    try:
        masked = masked_read(str(path))
    except FormatError as exc:
        with pytest.raises(FormatError) as caught:
            read(str(path))
        assert str(caught.value) == str(exc)
        return
    grid = read(str(path))
    assert [float(v).hex() for v in grid.lattice[:4]] == [v.hex() for v in masked.lattice[:4]]
    assert grid.lattice[4:] == masked.lattice[4:]
    assert np.array_equal(np.isnan(grid.values), masked.nodata)
    assert grid.values[~masked.nodata].tobytes() == masked.values[~masked.nodata].tobytes()
    assert not grid.values.flags.writeable
    assert grid.values.flags.c_contiguous  # zonal ravels it: a view would copy the grid


def test_read_asc_holds_eight_bytes_per_cell(tmp_path):
    # the grid a read returns is its float64 cells alone: no nodata mask
    # beside them (9.0 bytes a cell with one); and while it reads, no second
    # grid-sized array (17 bytes a cell with one) or per-token list (60 bytes
    # a cell wrapped), whether rows are lines or wrap at 7 values a line
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 400, size=(1000, 1000))
    cells[rng.random(cells.shape) < 0.05] = -9999
    tokens = [str(v) for v in cells.ravel().tolist()]
    path = tmp_path / "grid.asc"
    for per_line in (1000, 7):
        path.write_text("ncols 1000\nnrows 1000\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "NODATA_value -9999\n"
                        + "".join(" ".join(tokens[i:i + per_line]) + "\n"
                                  for i in range(0, len(tokens), per_line)))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            grid = read_asc(str(path))
            held, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert np.isnan(grid.values).sum() == (cells == -9999).sum()
        assert held / cells.size <= 8.5, per_line
        assert peak / cells.size <= 12, per_line


def test_read_xyz_csv_padded_header(tmp_path):
    padded, plain = tmp_path / "padded.csv", tmp_path / "plain.csv"
    rows = "0.5,0.5,1.0\n1.5,0.5,2.0\n0.5,1.5,3.0\n"
    padded.write_text(" x , y ,value\n" + rows)
    plain.write_text("x,y,value\n" + rows)
    assert_same_grid(read_xyz_csv(str(padded)), read_xyz_csv(str(plain)))


@pytest.mark.parametrize("old, new, message", [
    ("cellsize 2.0", "cellsize 0", "cell dimensions must be positive"),
    ("5.0", "-5.0", "concentrations must be non-negative"),
])
def test_read_asc_grid_fault_names_the_file(tmp_path, old, new, message):
    path = tmp_path / "bad.asc"
    path.write_text(ASC_TEXT.replace(old, new))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {message}$"):
        read_asc(str(path))


def test_read_xyz_csv_negative_value_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n0.5,0.5,1.0\n1.5,0.5,-2.0\n")
    with pytest.raises(FormatError,
                       match=rf"^{re.escape(str(path))}: concentrations must be non-negative$"):
        read_xyz_csv(str(path))


@pytest.mark.parametrize("wrapped", [False, True], ids=["rectangular", "wrapped"])
def test_read_asc_nan_nodata_marker(tmp_path, wrapped):
    # only the cells other than the marker must be finite; NaN never equals
    # itself, so a NaN marker is matched with isnan
    rect, nan = tmp_path / "rect.asc", tmp_path / "nan.asc"
    rect.write_text(ASC_TEXT)
    data = "1.5 2.5\nnan 4.0 5.0 6.0\n" if wrapped else "1.5 2.5 nan\n4.0 5.0 6.0\n"
    nan.write_text(ASC_TEXT.replace("-9999", "nan").split("1.5")[0] + data)
    assert_same_grid(read_asc(str(nan)), read_asc(str(rect)))
    nan.write_text(nan.read_text().replace("6.0", "inf"))
    with pytest.raises(FormatError, match=r"nan\.asc:8: non-finite cell value inf"):
        read_asc(str(nan))


def test_read_asc_inf_nodata_marker(tmp_path):
    # the header's corners and cell size must be finite, its marker need not
    # be: an infinite marker marks the infinite cells, and a NaN cell is
    # still refused
    rect, marked = tmp_path / "rect.asc", tmp_path / "inf.asc"
    rect.write_text(ASC_TEXT)
    marked.write_text(ASC_TEXT.replace("-9999", "inf"))
    assert_same_grid(read_asc(str(marked)), read_asc(str(rect)))
    marked.write_text(marked.read_text().replace("6.0", "nan"))
    with pytest.raises(FormatError, match=r"inf\.asc:8: non-finite cell value nan"):
        read_asc(str(marked))


def test_read_xyz_csv_later_point_wins(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,y,value\n0.5,0.5,1.0\n1.5,0.5,2.0\n0.5,0.5,3.0\n")
    assert read_xyz_csv(str(path)).values.tolist() == [[3.0, 2.0]]


# ----------------------------------------------------------------------------
# zonal_weighted_mean
# ----------------------------------------------------------------------------

def test_zonal_single_cell_identity():
    grid = make_grid([[9.5]])
    tract = rect_tract("06037000100", 0.0, 0.0, 1.0, 1.0)
    assert zonal_weighted_mean(grid, tract) == 9.5


def test_zonal_two_equal_cells():
    grid = make_grid([[8.0, 10.0]])
    tract = rect_tract("06037000100", 0.0, 0.0, 2.0, 1.0)
    assert zonal_weighted_mean(grid, tract) == 9.0


def test_zonal_partial_coverage_weighting():
    # covers all of cell 0 and half of cell 1 -> (8*1 + 10*0.5) / 1.5
    grid = make_grid([[8.0, 10.0]])
    tract = rect_tract("06037000100", 0.0, 0.0, 1.5, 1.0)
    assert zonal_weighted_mean(grid, tract) == pytest.approx(13.0 / 1.5)


def test_zonal_skips_nodata():
    grid = make_grid([[8.0, 12.0]], nodata=[[False, True]])
    tract = rect_tract("06037000100", 0.0, 0.0, 2.0, 1.0)
    assert zonal_weighted_mean(grid, tract) == 8.0


def test_zonal_no_coverage_returns_none():
    grid = make_grid([[8.0]], nodata=[[True]])
    tract = rect_tract("06037000100", 0.0, 0.0, 1.0, 1.0)
    assert zonal_weighted_mean(grid, tract) is None


def test_zonal_outside_grid_returns_none():
    grid = make_grid([[8.0]])
    tract = rect_tract("06037000100", 5.0, 5.0, 6.0, 6.0)
    assert zonal_weighted_mean(grid, tract) is None


def test_zonal_within_value_range():
    rng = np.random.default_rng(3)
    grid = make_grid(rng.uniform(4.0, 16.0, size=(20, 20)))
    for _ in range(10):
        poly = random_star_polygon(rng, rng.uniform(4, 16), rng.uniform(4, 16), 0.5, 3.5, 8)
        tract = TractGeometry(geoid="06037000100", parts=(PolygonPart(exterior=tuple(poly)),))
        mean = zonal_weighted_mean(grid, tract)
        assert grid.values.min() <= mean <= grid.values.max()


def test_zonal_translation_invariance():
    rng = np.random.default_rng(4)
    values = rng.uniform(2.0, 12.0, size=(12, 12))
    poly = random_star_polygon(rng, 6.0, 6.0, 1.0, 4.0, 9)
    tract = TractGeometry(geoid="06037000100", parts=(PolygonPart(exterior=tuple(poly)),))
    base = zonal_weighted_mean(make_grid(values), tract)
    dx, dy = 137.25, -58.5
    moved_tract = TractGeometry(
        geoid="06037000100",
        parts=(PolygonPart(exterior=tuple((x + dx, y + dy) for x, y in poly)),),
    )
    moved = zonal_weighted_mean(make_grid(values, origin=(dx, dy)), moved_tract)
    assert moved == pytest.approx(base, rel=1e-12)


def monte_carlo_zonal(grid, parts, rng, n_points=200_000):
    """Uniform points inside the polygon, averaging covering-cell values.

    Rejection-samples from the bounding box; independent of the clipping
    kernel (ray-casting membership plus direct cell indexing).
    """
    minx = min(x for p in parts for x, _ in p.exterior)
    maxx = max(x for p in parts for x, _ in p.exterior)
    miny = min(y for p in parts for _, y in p.exterior)
    maxy = max(y for p in parts for _, y in p.exterior)
    total = 0.0
    count = 0
    need = n_points
    while need > 0:
        batch = max(need * 2, 10_000)
        px = rng.uniform(minx, maxx, size=batch)
        py = rng.uniform(miny, maxy, size=batch)
        keep = points_in_parts(px, py, parts)
        px, py = px[keep][:need], py[keep][:need]
        cols = np.floor((px - grid.origin_x) / grid.cell_width).astype(int)
        rows = np.floor((py - grid.origin_y) / grid.cell_height).astype(int)
        inb = ((cols >= 0) & (cols < grid.values.shape[1])
               & (rows >= 0) & (rows < grid.values.shape[0]))
        cols, rows = cols[inb], rows[inb]
        valid = ~np.isnan(grid.values[rows, cols])
        total += grid.values[rows[valid], cols[valid]].sum()
        count += int(valid.sum())
        need -= len(px)
    return total / count


def test_zonal_monte_carlo_oracle():
    rng = np.random.default_rng(11)
    grid = make_grid(rng.uniform(8.0, 12.0, size=(50, 50)))
    for _ in range(6):
        cx, cy = rng.uniform(8, 42, size=2)
        poly = random_star_polygon(rng, cx, cy, 1.0, 6.0, 9)
        tract = TractGeometry(geoid="06037000100", parts=(PolygonPart(exterior=tuple(poly)),))
        exact = zonal_weighted_mean(grid, tract)
        sampled = monte_carlo_zonal(grid, tract.parts, rng)
        assert exact == pytest.approx(sampled, rel=2e-3)


def test_zonal_holed_multipart_tract_vs_oracle():
    rng = np.random.default_rng(12)
    grid = make_grid(rng.uniform(5.0, 15.0, size=(20, 20)))
    holed = PolygonPart(
        exterior=square(2.0, 2.0, 9.0, 9.0),
        holes=(square(4.0, 4.0, 6.5, 7.0),),
    )
    island = PolygonPart(exterior=tuple(random_star_polygon(rng, 14.0, 14.0, 1.0, 4.0, 8)))
    tract = TractGeometry(geoid="06037000100", parts=(holed, island))
    exact = zonal_weighted_mean(grid, tract)
    sampled = monte_carlo_zonal(grid, tract.parts, rng, n_points=400_000)
    assert exact == pytest.approx(sampled, rel=2e-3)


# ----------------------------------------------------------------------------
# build_tract_surface
# ----------------------------------------------------------------------------

def test_surface_uniform_field():
    grid = make_grid(np.full((4, 4), 7.8))
    tract = rect_tract("06037000100", 0.5, 0.5, 3.5, 3.5)
    surface = surface_of(grid, [tract])
    assert surface_entries(surface) == {"06037000100": 7.8}
    assert geoid_text(surface.excluded) == []


def test_surface_excludes_nodata_tract():
    values = np.full((4, 4), 7.8)
    nodata = np.zeros((4, 4), dtype=bool)
    nodata[:2, :2] = True
    grid = make_grid(values, nodata=nodata)
    tracts = [
        rect_tract("06037000100", 0.0, 0.0, 2.0, 2.0),  # all nodata
        rect_tract("06037000200", 2.0, 2.0, 4.0, 4.0),
    ]
    surface = surface_of(grid, tracts)
    assert geoid_text(surface.excluded) == ["06037000100"]
    assert surface_entries(surface) == {"06037000200": 7.8}


def test_surface_duplicate_geoid():
    grid = make_grid([[1.0]])
    tracts = [rect_tract("06037000100", 0, 0, 1, 1), rect_tract("06037000100", 0, 0, 1, 1)]
    with pytest.raises(FormatError, match="duplicate tract geoids"):
        tract_coverage(tracts, grid)


def test_surface_empty_tract_list(tmp_path):
    # the reader guarantees the coverage kernel at least one tract
    path = tmp_path / "tracts.geojson"
    path.write_text('{"type": "FeatureCollection", "features": []}')
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: tract list is empty$"):
        read_tracts_geojson(str(path))


def test_surface_matches_per_tract_oracle_and_threads():
    rng = np.random.default_rng(8)
    grid = make_grid(rng.uniform(5.0, 15.0, size=(6, 6)))
    tracts = [
        rect_tract(f"060370001{i:02d}", col * 2.0, row * 2.0, col * 2.0 + 2.0, row * 2.0 + 2.0)
        for i, (row, col) in enumerate((r, c) for r in range(3) for c in range(3))
    ]
    surface = surface_of(grid, tracts)
    entries = surface_entries(surface)
    for tract in tracts:
        assert entries[tract.geoid] == zonal_weighted_mean(grid, tract)
        assert entries[tract.geoid] == pytest.approx(oracle_zonal_mean(grid, tract), rel=1e-12)
    # input order does not matter; a rebuild is identical
    rebuilt = surface_of(grid, tracts[::-1])
    assert surface_entries(rebuilt) == entries
    assert rebuilt.excluded.tolist() == surface.excluded.tolist()
    assert rebuilt.completeness == surface.completeness


def test_surface_rejects_coverage_of_another_lattice(recorded_run):
    # the surface stage builds a new coverage whenever the grid's lattice
    # changes, so no year is reduced over another lattice's coverage
    _, calls = recorded_run
    assert all(coverage.lattice == grid.lattice for grid, coverage in calls["_zonal_means"])
    assert len({grid.lattice for grid, _ in calls["_zonal_means"]}) == 2


@pytest.mark.parametrize("origin_x, x1", [
    (1e17, 1.0),       # cell coordinates past 2**53
    (-2.0 ** 52, 0.4),  # the tract's extent rounds away: it spans no cell
], ids=["beyond_2_53", "extent_rounds_away"])
def test_coverage_rejects_a_lattice_that_cannot_place_the_tracts(origin_x, x1):
    tracts = [rect_tract("06037000100", 0.25, 0.0, x1, 1.0)]
    with pytest.raises(FormatError, match=r"^origin \(.*\) and cell size 1.0 x 1.0 put the "
                                          r"tracts outside the exact cell range"):
        tract_coverage(tracts, make_grid([[1.0, 2.0]], origin=(origin_x, 0.0)))


def test_coverage_reused_across_years():
    tracts = [rect_tract("06037000100", 0.0, 0.0, 1.5, 1.0)]
    coverage = tract_coverage(tracts, make_grid([[8.0, 10.0]]))
    assert surface_entries(build_tract_surface(make_grid([[8.0, 10.0]]), coverage, 2011, None)) == \
        {"06037000100": pytest.approx(13.0 / 1.5)}
    assert surface_entries(build_tract_surface(make_grid([[4.0, 1.0]]), coverage, 2012, None)) == \
        {"06037000100": 3.0}


def _star_part(rng, cx, cy, r_lo, r_hi, hole_scale=0.0):
    """A jittered star of random orientation, with a star hole when hole_scale > 0.

    With 8+ vertices the exterior's edges stay beyond 0.75 * r_lo of the
    center, so a hole of radius up to 0.48 * r_lo lies inside it.
    """
    def ring(lo, hi, n_min):
        verts = random_star_polygon(rng, cx, cy, lo, hi, int(rng.integers(n_min, 11)))
        return tuple(verts[::-1] if rng.random() < 0.5 else verts)
    exterior = ring(r_lo, r_hi, 8 if hole_scale else 4)
    holes = (ring(hole_scale * r_lo, 1.2 * hole_scale * r_lo, 4),) if hole_scale else ()
    return PolygonPart(exterior=exterior, holes=holes)


@given(
    seed=st.integers(0, 2**32 - 1),
    origin=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
    cell=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
)
@settings(max_examples=60, deadline=None)
def test_coverage_matches_clipping_oracle(seed, origin, cell):
    # Stars of both orientations, a holed part, a two-part tract, tracts
    # partly and wholly off the grid, non-unit cells, a shifted origin and
    # nodata cells, against the clipping oracle in exact arithmetic.
    rng = np.random.default_rng(seed)
    n_rows, n_cols = (int(n) for n in rng.integers(3, 7, size=2))
    cw, ch = cell
    grid = make_grid(rng.uniform(1.0, 20.0, size=(n_rows, n_cols)), origin=origin, cell=cw,
                     cell_height=ch, nodata=rng.random((n_rows, n_cols)) < 0.2)

    def at(fx, fy):  # a point at fractions of the grid extent
        return origin[0] + fx * n_cols * cw, origin[1] + fy * n_rows * ch

    size = min(cw, ch)
    parts = [
        (_star_part(rng, *at(*rng.uniform(-0.3, 1.3, size=2)), 0.5 * size, 2.5 * size),)
        for _ in range(4)
    ]
    parts.append((_star_part(rng, *at(0.5, 0.5), 1.5 * size, 2.5 * size, hole_scale=0.4),))
    parts.append((_star_part(rng, *at(0.0, 0.5), 0.5 * size, size),
                  _star_part(rng, *at(1.0, 0.5), 0.5 * size, size)))
    parts.append((_star_part(rng, *at(-1.0, 2.0), 0.5 * size, size),))  # off the grid
    tracts = [TractGeometry(geoid=f"06037{k:06d}", parts=p) for k, p in enumerate(parts)]

    coverage = tract_coverage(tracts, grid)
    surface = build_tract_surface(grid, coverage, 2011, None)
    x1, y1 = at(1.0, 1.0)
    for i, tract in enumerate(tracts):
        want = oracle_zonal_mean(grid, tract, exact=True)
        if want is None:
            assert tract.geoid in geoid_text(surface.excluded)
        else:
            assert surface_entries(surface)[tract.geoid] == pytest.approx(want, rel=1e-12)
        minx = min(x for p in tract.parts for x, _ in p.exterior)
        maxx = max(x for p in tract.parts for x, _ in p.exterior)
        miny = min(y for p in tract.parts for _, y in p.exterior)
        maxy = max(y for p in tract.parts for _, y in p.exterior)
        if origin[0] <= minx and maxx <= x1 and origin[1] <= miny and maxy <= y1:
            covered = coverage.area[coverage.tract_ptr[i]:coverage.tract_ptr[i + 1]].sum()
            assert covered == pytest.approx(exact_area(tract.parts), rel=1e-12)
    assert geoid_text(surface.excluded)[-1] == tracts[-1].geoid


COVERAGE_ARRAYS = ("ids", "tract_ptr", "cell_idx", "area")


def _turned(parts, ccw):
    """The parts with exteriors turned counter-clockwise and holes clockwise
    when ``ccw``, else the reverse."""
    def turn(ring, ring_ccw):
        return ring if (signed_ring_area(ring) > 0.0) == ring_ccw else ring[::-1]
    return tuple(PolygonPart(exterior=turn(p.exterior, ccw),
                             holes=tuple(turn(h, not ccw) for h in p.holes)) for p in parts)


def _tracts(parts):
    return tract_set([TractGeometry(geoid=f"06037{k:06d}", parts=p) for k, p in enumerate(parts)])


def _dense(coverage, grid):
    """Each tract's covered fraction of every grid cell, as a dense matrix."""
    dense = np.zeros((len(coverage.ids), grid.values.size))
    tract = np.repeat(np.arange(len(coverage.ids)), np.diff(coverage.tract_ptr))
    dense[tract, coverage.cell_idx] = coverage.area / (grid.cell_width * grid.cell_height)
    return dense


def _box_on_grid(tracts, grid):
    """Whether each tract's cell box lies on the grid."""
    origin, cell = (grid.origin_x, grid.origin_y), (grid.cell_width, grid.cell_height)
    lo = np.floor((tracts.bbox[:, :2] - origin) / cell)
    hi = np.ceil((tracts.bbox[:, 2:] - origin) / cell)
    return (lo >= 0).all(axis=1) & (hi <= grid.values.shape[::-1]).all(axis=1)


def assert_coverage_matches_oracle(tracts, grid, exact_on_grid=True):
    """The kernel against the unclipped oracle: within 1e-12 of a cell for
    every tract, and bit-identical for each tract whose box lies on the grid
    when ``exact_on_grid``; the completeness denominator is each tract's
    polygon area."""
    got, want = zonal.tract_coverage(tracts, grid), oracle_tract_coverage(tracts, grid)
    assert np.array_equal(got.ids, want.ids)
    assert np.abs(_dense(got, grid) - _dense(want, grid)).max() <= 1e-12
    for t in np.flatnonzero(_box_on_grid(tracts, grid) & exact_on_grid).tolist():
        g = slice(got.tract_ptr[t], got.tract_ptr[t + 1])
        w = slice(want.tract_ptr[t], want.tract_ptr[t + 1])
        assert np.array_equal(got.cell_idx[g], want.cell_idx[w]), t
        assert np.array_equal(got.area[g], want.area[w]), t
    assert got.polygon_area is tracts.area
    return got


@given(
    seed=st.integers(0, 2**32 - 1),
    origin=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
    cell=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
)
@example(seed=1, origin=(58.0, 57.0), cell=(3.0, 0.3125))  # a float shoelace's 1.03e-12
@settings(max_examples=40, deadline=None)
def test_coverage_matches_the_per_ring_sign_kernel(seed, origin, cell):
    # The kernel that signed each ring by its own shoelace sum in cell units,
    # over each tract's whole box, is the oracle. Given exteriors
    # counter-clockwise and holes clockwise, the edges run as given and the
    # coverage of every tract whose box lies on the grid is bit-identical;
    # given any other way, edges are reversed rather than signed, and a box
    # clipped to the grid puts the cell coordinates about another corner,
    # which move only the last bits.
    rng = np.random.default_rng(seed)
    cw, ch = cell
    grid = make_grid(np.ones((8, 8)), origin=origin, cell=cw, cell_height=ch)
    size = min(cw, ch)

    def at():  # a point at most a fifth of the extent off the grid
        fx, fy = rng.uniform(-0.2, 1.2, size=2)
        return origin[0] + 8 * fx * cw, origin[1] + 8 * fy * ch

    parts = [(_star_part(rng, *at(), 1.5 * size, 3.0 * size, hole_scale=0.4 * (k % 2)),)
             for k in range(6)]
    parts.append((_star_part(rng, *at(), 0.5 * size, size),
                  _star_part(rng, *at(), 0.5 * size, size)))

    ccw = _tracts([_turned(p, True) for p in parts])
    got = assert_coverage_matches_oracle(ccw, grid)
    assert got.polygon_area == pytest.approx(
        [sum(polygon_area(q.exterior, q.holes) for q in p) for p in parts], rel=1e-12)
    assert_coverage_matches_oracle(_tracts(parts), grid, exact_on_grid=False)


def test_coverage_of_tracts_across_and_off_each_grid_side():
    # An 8 x 6 grid of 0.5 x 0.75 cells from (1, 2). Eight stars straddle a
    # side or a corner of it and four lie wholly off one side; the four off
    # the grid get no cells and are excluded, and the completeness of each
    # straddling tract is its valid area on the grid over its polygon area.
    rng = np.random.default_rng(5)
    grid = make_grid(rng.uniform(1.0, 9.0, size=(6, 8)), origin=(1.0, 2.0), cell=0.5,
                     cell_height=0.75)
    x0, y0, x1, y1 = 1.0, 2.0, 5.0, 6.5
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    centers = [(x0, ym), (x1, ym), (xm, y0), (xm, y1),
               (x0, y0), (x1, y0), (x0, y1), (x1, y1),
               (x0 - 2.0, ym), (x1 + 2.0, ym), (xm, y0 - 2.0), (xm, y1 + 2.0)]
    parts = [(_star_part(rng, cx, cy, 0.6, 1.2, hole_scale=0.3 * (k % 2)),)
             for k, (cx, cy) in enumerate(centers)]
    for tracts in (_tracts([_turned(p, True) for p in parts]), _tracts(parts)):
        coverage = assert_coverage_matches_oracle(tracts, grid)
        assert (np.diff(coverage.tract_ptr)[:8] > 0).all()
        assert (np.diff(coverage.tract_ptr)[8:] == 0).all()
        surface = zonal.build_tract_surface(grid, coverage, 2011, None)
        assert np.array_equal(surface.excluded, tracts.ids[8:])
        assert surface.completeness["below_0.99"] == 8
        geoids = geoid_text(tracts.ids)
        for g, ratio in surface.completeness["worst"]:
            t = geoids.index(g)
            covered = coverage.area[coverage.tract_ptr[t]:coverage.tract_ptr[t + 1]].sum()
            assert ratio == pytest.approx(covered / exact_area(parts[t]), rel=1e-12)


def _quarter_part(rng):
    """A rectangle with a rectangular hole, or an L-shape, on the quarter-unit
    lattice: every edge is axis-parallel, so every piece is exact."""
    x0, y0 = (0.25 * rng.integers(-8, 40, size=2)).tolist()
    w, h = (0.25 * rng.integers(4, 20, size=2)).tolist()
    x1, y1 = x0 + w, y0 + h
    if rng.random() < 0.5:
        cx, cy = x0 + 0.25 * int(rng.integers(1, 4 * w)), y0 + 0.25 * int(rng.integers(1, 4 * h))
        return PolygonPart(exterior=((x0, y0), (x1, y0), (x1, cy), (cx, cy), (cx, y1), (x0, y1)))
    return PolygonPart(exterior=lattice_rect(x0, y0, x1, y1),
                       holes=(lattice_rect(x0 + 0.25, y0 + 0.25, x0 + 0.75, y0 + 0.75,
                                           clockwise=True),))


@given(seed=st.integers(0, 2**32 - 1), cell=st.sampled_from([0.25, 0.5, 1.0]),
       origin=st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=40, deadline=None)
def test_coverage_of_reversed_quarter_lattice_rings_is_exact(seed, cell, origin):
    # Clockwise exteriors with counter-clockwise holes: the reversed edges
    # give the same exact pieces, so both kernels agree to the bit with each
    # other and with the rings given the other way.
    rng = np.random.default_rng(seed)
    grid = make_grid(np.ones((12, 12)), origin=(0.25 * origin[0], 0.25 * origin[1]), cell=cell)
    parts = [tuple(_quarter_part(rng) for _ in range(int(rng.integers(1, 3)))) for _ in range(6)]
    reversed_rings = _tracts([_turned(p, False) for p in parts])
    got = zonal.tract_coverage(reversed_rings, grid)
    for want in (oracle_tract_coverage(reversed_rings, grid),
                 oracle_tract_coverage(_tracts([_turned(p, True) for p in parts]), grid)):
        for name in COVERAGE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.polygon_area is reversed_rings.area


def spy_edge_runs(monkeypatch, tracts):
    """Record the (first, end) tracts of each _oriented_edges call on ``tracts``."""
    calls, real = [], zonal._oriented_edges

    def spy(polygons, ra, rb):
        if polygons is tracts:
            owner = tracts.ring_owner
            ta, tb = int(owner[ra]), int(owner[rb - 1]) + 1
            # whole tracts: from the first ring of one to the last ring of another
            assert (ra, rb) == tuple(np.searchsorted(owner, [ta, tb]).tolist())
            calls.append((ta, tb))
        return real(polygons, ra, rb)

    monkeypatch.setattr(zonal, "_oriented_edges", spy)
    return calls


def assert_one_run_per_call(calls, n_tracts, budgets):
    """The calls build consecutive runs of tracts, each tract once, and before
    its last tract a run holds less than each (sizes, limit) budget."""
    assert len(calls) > 1
    assert calls[0][0] == 0 and calls[-1][1] == n_tracts
    assert all(a == b for (_, a), (b, _) in zip(calls, calls[1:]))
    for ta, tb in calls:
        for sizes, limit in budgets:
            assert sizes[ta:tb - 1].sum() < limit, (ta, tb, limit)


def tract_vertices(tracts):
    return np.diff(tracts.ring_ptr[np.searchsorted(tracts.ring_owner,
                                                   np.arange(tracts.n_owners + 1))])


def test_coverage_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(31)
    grid = make_grid(rng.uniform(1.0, 9.0, size=(30, 30)), origin=(-3.0, 2.0), cell=0.75)
    tracts = tract_set([
        TractGeometry(geoid=f"06037{k:06d}",
                      parts=(_star_part(rng, *rng.uniform(0.0, 22.0, size=2), 0.5, 4.0),))
        for k in range(40)
    ])
    whole = zonal.tract_coverage(tracts, grid)
    # each tract's box cells clipped to the grid (none when the box misses
    # it), with the extra column the kernel's buffer holds
    box = (tracts.bbox - (-3.0, 2.0, -3.0, 2.0)) / 0.75
    width, height = (np.clip(np.ceil(box[:, 2:]), 0, 30) - np.clip(np.floor(box[:, :2]), 0, 30)).T
    cells = np.where((width > 0) & (height > 0), (width + 1) * height, 0).astype(np.int64)
    assert (width < np.ceil(box[:, 2]) - np.floor(box[:, 0])).any()  # some boxes are clipped
    calls = spy_edge_runs(monkeypatch, tracts)
    for budget_cells, budget_vertices in ((50, 1 << 17), (1 << 20, 30), (80, 40)):
        monkeypatch.setattr(zonal, "_CHUNK_CELLS", budget_cells)
        monkeypatch.setattr(zonal, "_CHUNK_VERTICES", budget_vertices)
        calls.clear()
        chunked = zonal.tract_coverage(tracts, grid)
        assert_one_run_per_call(calls, 40, [(cells, budget_cells),
                                            (tract_vertices(tracts), budget_vertices)])
        for name in COVERAGE_ARRAYS:
            assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


def test_coverage_excludes_tract_on_nodata_with_valid_gap():
    # Both parts lie on nodata columns; the valid columns between them are in
    # the bbox but uncovered. The row prefix sums there cancel only to float
    # residue, which must not count as coverage.
    nodata = np.zeros((6, 7), dtype=bool)
    nodata[:, :2] = nodata[:, 5:] = True
    grid = make_grid(np.full((6, 7), 5.0), nodata=nodata)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        parts = tuple(PolygonPart(exterior=tuple(random_star_polygon(rng, cx, 3.0, 0.5, 0.95, 9)))
                      for cx in (1.0, 6.0))
        surface = surface_of(grid, [TractGeometry(geoid="06037000100", parts=parts)])
        assert geoid_text(surface.excluded) == ["06037000100"], seed


def test_completeness_of_half_outside_tract(caplog):
    # tract 1 spans x in [-2, 2] and the grid starts at x = 0: half its area
    # is on the grid; tract 3 has 1 of its 2.2 area units on the grid
    grid = make_grid(np.full((2, 4), 6.0))
    tracts = [rect_tract("06037000100", -2.0, 0.0, 2.0, 2.0),
              rect_tract("06037000200", 2.0, 0.0, 4.0, 2.0),
              rect_tract("06037000300", -1.2, 0.0, 1.0, 1.0)]
    with caplog.at_level(logging.WARNING, logger="hwexposure.zonal"):
        surface = surface_of(grid, tracts)
    assert surface_entries(surface) == {g: 6.0 for g in ("06037000100", "06037000200",
                                                         "06037000300")}
    assert surface.completeness["below_0.99"] == 2
    assert surface.completeness["below_0.5"] == 1
    (worst_geoid, worst_ratio), second = surface.completeness["worst"]
    assert worst_geoid == "06037000300" and worst_ratio == pytest.approx(1.0 / 2.2, rel=1e-12)
    assert second == ["06037000100", 0.5]
    warnings = [r for r in caplog.records if "under 99%" in r.getMessage()]
    assert len(warnings) == 1 and "2011" in warnings[0].getMessage()
    complete = surface_of(grid, tracts[1:2])
    assert complete.completeness == {"below_0.99": 0, "below_0.5": 0, "worst": []}


# ----------------------------------------------------------------------------
# urban classification
# ----------------------------------------------------------------------------

def urban_mask_parts():
    return [PolygonPart(exterior=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)))]


def classify_urban(tract, mask_parts):
    (fraction,) = build_urban_mask(mask_set(mask_parts), tract_set([tract]))
    return "urban" if fraction >= zonal.URBAN_SHARE else "rural"


def test_classify_fully_inside():
    tract = rect_tract("06037000100", 2.0, 2.0, 4.0, 4.0)
    assert classify_urban(tract, urban_mask_parts()) == "urban"


def test_classify_disjoint():
    tract = rect_tract("06037000100", 20.0, 20.0, 22.0, 22.0)
    assert classify_urban(tract, urban_mask_parts()) == "rural"


def test_classify_sixty_percent_overlap():
    # tract spans x in [8.8, 10.8]; mask covers x <= 10 -> 60% of tract area
    tract = rect_tract("06037000100", 8.8, 2.0, 10.8, 4.0)
    assert classify_urban(tract, urban_mask_parts()) == "urban"
    # shift so only 40% overlaps
    tract = rect_tract("06037000100", 9.2, 2.0, 11.2, 4.0)
    assert classify_urban(tract, urban_mask_parts()) == "rural"


def test_classify_sixty_percent_monte_carlo_oracle():
    rng = np.random.default_rng(21)
    mask_poly = random_star_polygon(rng, 5.0, 5.0, 2.0, 5.0, 9)
    mask = [PolygonPart(exterior=tuple(mask_poly))]
    tract_poly = random_star_polygon(rng, 6.0, 5.0, 1.0, 3.0, 8)
    tract = TractGeometry(geoid="06037000100", parts=(PolygonPart(exterior=tuple(tract_poly)),))
    px = rng.uniform(0.0, 12.0, size=500_000)
    py = rng.uniform(0.0, 12.0, size=500_000)
    in_tract = points_in_parts(px, py, tract.parts)
    in_both = in_tract & points_in_parts(px, py, mask)
    sampled_frac = in_both.sum() / in_tract.sum()
    (exact_frac,) = build_urban_mask(mask_set(mask), tract_set([tract]))
    assert exact_frac == pytest.approx(sampled_frac, abs=0.01)
    assert exact_frac == pytest.approx(overlap_area(tract.parts, mask) / tract.area(), abs=1e-12)


def test_classify_tracts_sorted_and_threaded():
    tracts = [
        rect_tract("06037000200", 20.0, 20.0, 22.0, 22.0),
        rect_tract("06037000100", 2.0, 2.0, 4.0, 4.0),
    ]
    mask = mask_set(urban_mask_parts())
    got = build_urban_mask(mask, tract_set(tracts))
    assert got.tolist() == [1.0, 0.0]  # in geoid order
    assert np.array_equal(build_urban_mask(mask, tract_set(tracts[::-1])), got)


def test_build_urban_mask_bundles_classification():
    # no mask polygons: every tract is rural
    tracts = tract_set([rect_tract("06037000100", 2.0, 2.0, 4.0, 4.0)])
    assert build_urban_mask(mask_set(urban_mask_parts()), tracts).tolist() == [1.0]
    assert build_urban_mask(mask_set([]), tracts).tolist() == [0.0]


def polygon(*rings):
    return PolygonPart(exterior=tuple(rings[0]), holes=tuple(tuple(r) for r in rings[1:]))


def lattice_rect(x0, y0, x1, y1, clockwise=False):
    ring = square(x0, y0, x1, y1)[:-1]
    return ring[::-1] if clockwise else ring


SHARED_EDGE_CASES = [
    # a shared edge running the same way: the tract lies in the mask
    pytest.param([polygon(lattice_rect(0, 0, 1, 1))], [polygon(lattice_rect(0, 0, 2, 1))], 1.0,
                 id="shared_edge_same_way"),
    # running opposite ways: the two only touch
    pytest.param([polygon(lattice_rect(0, 0, 1, 1))], [polygon(lattice_rect(1, 0, 2, 1))], 0.0,
                 id="shared_edge_opposite_ways"),
    # the tract equals the mask, given clockwise
    pytest.param([polygon(lattice_rect(0, 0, 2, 2, clockwise=True))],
                 [polygon(lattice_rect(0, 0, 2, 2))], 1.0, id="identical"),
    # mask vertices on tract edges and a mask edge along half a tract edge
    pytest.param([polygon(lattice_rect(0, 0, 4, 4))],
                 [polygon(((2, 0), (4, 2), (2, 4), (0, 2)))], 0.5, id="vertices_on_edges"),
    pytest.param([polygon(lattice_rect(0, 0, 4, 4))], [polygon(lattice_rect(2, -1, 5, 2))], 0.25,
                 id="t_junctions"),
    # touching at one corner only
    pytest.param([polygon(lattice_rect(0, 0, 1, 1))], [polygon(lattice_rect(1, 1, 2, 2))], 0.0,
                 id="corner_touch"),
    # the tract is the mask's hole, and the mask is the tract's hole
    pytest.param([polygon(lattice_rect(1, 1, 2, 2))],
                 [polygon(lattice_rect(0, 0, 3, 3), lattice_rect(1, 1, 2, 2))], 0.0,
                 id="tract_is_mask_hole"),
    pytest.param([polygon(lattice_rect(0, 0, 3, 3), lattice_rect(1, 1, 2, 2, clockwise=True))],
                 [polygon(lattice_rect(1, 1, 2, 2))], 0.0, id="mask_is_tract_hole"),
    pytest.param([polygon(lattice_rect(0, 0, 3, 3), lattice_rect(1, 1, 2, 2))],
                 [polygon(lattice_rect(0, 0, 3, 3), lattice_rect(1, 1, 2, 2))], 1.0,
                 id="same_holed_polygon"),
    # two mask polygons sharing the edge that halves the tract
    pytest.param([polygon(lattice_rect(0, 0, 2, 2))],
                 [polygon(lattice_rect(0, 0, 1, 2)), polygon(lattice_rect(1, 0, 2, 2))], 1.0,
                 id="mask_polygons_share_an_edge"),
    # a two-part tract, one part in the mask
    pytest.param([polygon(lattice_rect(0, 0, 1, 1)), polygon(lattice_rect(5, 5, 6, 6))],
                 [polygon(lattice_rect(-1, -1, 1, 1))], 0.5, id="multipart"),
]


@pytest.mark.parametrize("tract, mask, share", SHARED_EDGE_CASES)
def test_overlap_shared_edges_and_touches(tract, mask, share):
    tract = TractGeometry(geoid="06037000100", parts=tuple(tract))
    assert overlap_area(tract.parts, mask) / tract.area() == share
    assert build_urban_mask(mask_set(mask), tract_set([tract])).tolist() == [share]


def _lattice_part(rng, x0, y0, w, h, hole):
    """A rectangle of either orientation on the half-unit lattice, with a
    rectangular hole when ``hole`` and there is room, else an L-shape half
    the time."""
    x1, y1 = x0 + w, y0 + h
    hole = hole and w >= 2 and h >= 2
    if not hole and rng.random() < 0.5:
        cx, cy = x0 + 0.5 * rng.integers(1, 2 * w), y0 + 0.5 * rng.integers(1, 2 * h)
        ring = [(x0, y0), (x1, y0), (x1, cy), (cx, cy), (cx, y1), (x0, y1)]
    else:
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    rings = [ring[::-1] if rng.random() < 0.5 else ring]
    if hole:
        rings.append(lattice_rect(x0 + 0.5, y0 + 0.5, x0 + 1.0, y0 + 1.0,
                                  clockwise=rng.random() < 0.5))
    return polygon(*rings)


def _lattice_world(rng):
    """Rectilinear mask polygons and tracts on a half-unit lattice: edges
    shared both ways, vertices on edges, corner touches, holes and multi-part
    tracts. A piece of a mask edge along one tract part's edge never counts,
    so tract parts may touch but not overlap."""
    def span(lo, hi):
        a, b = sorted(rng.integers(lo, hi, size=2).tolist())
        return a, max(b - a, 1)

    mask = []
    for k in range(int(rng.integers(1, 4))):  # disjoint polygons, in bands 3 units wide
        y0, h = span(0, 8)
        mask.append(_lattice_part(rng, 3.0 * k, y0, int(rng.integers(1, 4)), h, hole=True))
    tracts = []
    for k in range(12):
        parts = []
        for band in range(int(rng.integers(1, 3))):  # parts in y bands 6 units high
            (x0, w), (y0, h) = span(-1, 10), span(0, 6)
            parts.append(_lattice_part(rng, x0, y0 + 6 * band - 1, w, h, hole=rng.random() < 0.3))
        tracts.append(TractGeometry(geoid=f"06037{k:06d}", parts=tuple(parts)))
    return mask, tracts


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_overlap_kernel_matches_clipper_on_a_lattice(seed):
    # exact arithmetic: every shared stretch and T-junction is exact in floats
    mask, tracts = _lattice_world(np.random.default_rng(seed))
    got = build_urban_mask(mask_set(mask), tract_set(tracts))
    want = [overlap_area(t.parts, counter_clockwise(mask)) / t.area() for t in tracts]
    assert got.tolist() == pytest.approx(want, rel=0.0, abs=1e-12)


def _mapped(parts, matrix, offset):
    def ring(r):
        return tuple(map(tuple, (np.array(r) @ matrix.T + offset).tolist()))
    return tuple(PolygonPart(exterior=ring(p.exterior), holes=tuple(map(ring, p.holes)))
                 for p in parts)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_overlap_kernel_matches_clipper_on_a_slanted_lattice(seed):
    # The lattice world under a random rotation, stretch, scale and offset:
    # shared stretches run slanted and vertices lie on edges only up to
    # rounding, at coordinates floats cannot hold exactly. Shares do not
    # change under an affine map, so the clipper's shares on the exact
    # lattice are the reference.
    rng = np.random.default_rng(seed)
    mask, tracts = _lattice_world(rng)
    angle, scale = rng.uniform(0.0, 2.0 * np.pi), 10.0 ** rng.uniform(-2, 3)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    matrix = scale * rotation @ np.diag([1.0, rng.uniform(0.5, 2.0)])
    offset = scale * rng.uniform(-100.0, 100.0, size=2)
    slanted = [TractGeometry(geoid=t.geoid, parts=_mapped(t.parts, matrix, offset))
               for t in tracts]
    got = build_urban_mask(mask_set(list(_mapped(mask, matrix, offset))), tract_set(slanted))
    want = [overlap_area(t.parts, counter_clockwise(mask)) / t.area() for t in tracts]
    assert got.tolist() == pytest.approx(want, rel=0.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_overlap_kernel_matches_clipper(seed):
    # Non-convex stars of both orientations, holed and multi-part, at
    # general positions and scales, against the clipping oracle; labels
    # agree wherever the oracle's share is clear of the threshold. The
    # kernel gets the polygons moved by an offset, which rounds them to the
    # coordinates' precision (~1e-16 times the offset over the polygons'
    # size); the oracle gets them unmoved, where its shoelace sums of
    # coordinate products do not cancel.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2, 3)
    offset = scale * rng.uniform(-100.0, 100.0, size=2)

    def part(r_lo, r_hi, hole):
        cx, cy = scale * rng.uniform(0.0, 10.0, size=2)
        return _star_part(rng, cx, cy, scale * r_lo, scale * r_hi,
                          hole_scale=0.4 if hole else 0.0)

    mask = [part(1.0, 4.0, rng.random() < 0.5) for _ in range(int(rng.integers(1, 4)))]
    tracts = [TractGeometry(geoid=f"06037{k:06d}",
                            parts=tuple(part(0.5, 3.0, rng.random() < 0.3)
                                        for _ in range(int(rng.integers(1, 3)))))
              for k in range(10)]
    moved = [TractGeometry(geoid=t.geoid, parts=_mapped(t.parts, np.eye(2), offset))
             for t in tracts]
    got = build_urban_mask(mask_set(list(_mapped(mask, np.eye(2), offset))), tract_set(moved))
    want = np.array([overlap_area(t.parts, counter_clockwise(mask)) / t.area() for t in tracts])
    assert np.abs(got - want).max() <= 1e-12
    clear = np.abs(want - zonal.URBAN_SHARE) > 1e-9
    assert np.array_equal(got[clear] >= zonal.URBAN_SHARE, want[clear] >= zonal.URBAN_SHARE)


@pytest.mark.parametrize("tract, mask, share", SHARED_EDGE_CASES)
def test_overlap_shared_edges_and_touches_slanted(tract, mask, share):
    # the same cases turned by 0.5 rad and moved: shared stretches and
    # T-junctions hold only up to rounding
    matrix = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
    offset = np.array([0.1, 0.3])
    tract = TractGeometry(geoid="06037000100", parts=_mapped(tract, matrix, offset))
    got = build_urban_mask(mask_set(list(_mapped(mask, matrix, offset))), tract_set([tract]))
    assert got.tolist() == pytest.approx([share], rel=0.0, abs=1e-12)


def test_overlap_ignores_ring_orientation():
    # Rings are oriented by their shoelace sign: a clockwise mask exterior
    # (the shapefile convention) or a counter-clockwise hole changes nothing.
    # The clipper's fan signs assume counter-clockwise clip rings.
    tract = tract_set([rect_tract("06037000100", 0.0, 0.0, 4.0, 2.0)])
    ccw = polygon(lattice_rect(2, 0, 6, 4), lattice_rect(3, 1, 4, 2, clockwise=True))
    cw = polygon(lattice_rect(2, 0, 6, 4, clockwise=True), lattice_rect(3, 1, 4, 2))
    assert build_urban_mask(mask_set([ccw]), tract).tolist() == [0.375]
    assert build_urban_mask(mask_set([cw]), tract).tolist() == [0.375]
    assert overlap_area(rect_tract("06037000100", 0.0, 0.0, 4.0, 2.0).parts, [cw]) == 0.0


def test_overlap_of_a_mask_far_past_the_tracts_does_not_warn(tmp_path):
    # a rectangle from x -1e200 to 1e200 has a finite area, but its edge
    # terms overflow float64: the shares stand, and nothing warns
    synth.synth(str(tmp_path), seed=7, n_tracts=9, n_groups=3)
    path = str(tmp_path / "tracts.geojson")
    rectangle = PolygonPart(((-1e200, -1.0), (1e200, -1.0), (1e200, 1.5), (-1e200, 1.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = build_urban_mask(mask_set([rectangle]), read_tracts_geojson(path))
    assert got.tolist() == [0.75] * 3 + [0.0] * 6
    want = [overlap_area(t.parts, [rectangle]) / t.area()
            for t in sorted(oracle_read_tracts_geojson(path), key=lambda t: t.geoid)]
    assert got.tolist() == pytest.approx(want, rel=0.0, abs=1e-12)


def test_overlap_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(41)
    mask = mask_set([_star_part(rng, 10.0, 10.0, 3.0, 9.0, hole_scale=0.4)])
    tracts = tract_set([TractGeometry(geoid=f"06037{k:06d}", parts=(
        _star_part(rng, *rng.uniform(0.0, 20.0, size=2), 0.5, 3.0),)) for k in range(40)])
    whole = build_urban_mask(mask, tracts)
    monkeypatch.setattr(zonal, "_CHUNK_VERTICES", 30)
    calls = spy_edge_runs(monkeypatch, tracts)
    assert np.array_equal(build_urban_mask(mask, tracts), whole)
    assert_one_run_per_call(calls, 40, [(tract_vertices(tracts), 30)])


def test_urban_counts_flag_tracts_near_the_threshold():
    fraction = np.array([0.0, 0.5, 0.5 - 1e-10, 0.5 + 2e-9, 1.0])
    assert zonal.urban_counts(fraction) == {"urban": 3, "rural": 2, "near_threshold": 2}


# ----------------------------------------------------------------------------
# surface csv round trip
# ----------------------------------------------------------------------------

def test_surface_csv_roundtrip(tmp_path):
    world = tmp_path / "world"
    synth.synth(str(world), seed=4, n_tracts=9, n_groups=3)
    grid_path = world / "grid_2011.asc"
    lines = grid_path.read_text().splitlines()
    rng = np.random.default_rng(4)  # values with no short decimal form
    lines[6:] = [" ".join(map(repr, rng.uniform(0.1, 40.0, len(line.split())).tolist()))
                 for line in lines[6:]]
    grid_path.write_text("\n".join(lines) + "\n")
    config = load_config(str(world / "config.json"), out_dir=str(tmp_path / "out"),
                         stage="surface")
    pipeline.run(config)
    back = read_surface_csv(str(tmp_path / "out" / "surface_2011.csv"))
    tracts = read_tracts_geojson(str(world / "tracts.geojson"))
    grid = read_asc(str(grid_path))
    surface = build_tract_surface(grid, zonal.tract_coverage(tracts, grid), 2011, None)
    assert back.year == 2011
    assert surface_entries(back) == surface_entries(surface)


def test_surface_derives_excluded():
    # a surface spans every tract of the run; NaN marks an excluded tract
    ids = np.array([6037000100, 6037000200, 6037000300])
    surface = zonal.TractSurface(2011, ids, np.array([np.nan, 2.0, np.nan]), {}, None)
    assert geoid_text(surface.excluded) == ["06037000100", "06037000300"]
