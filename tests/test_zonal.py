"""Grid readers and zonal aggregation, checked against point-sampling oracles."""
from __future__ import annotations

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PolygonPart,
    TractGeometry,
    counter_clockwise,
    exact_area,
    mask_set,
    oracle_zonal_mean,
    overlap_area,
    points_in_parts,
    random_star_polygon,
    read_surface_csv,
    surface_entries,
    tract_set,
    zonal_weighted_mean,
)

from hwexposure import pipeline, synth, zonal
from hwexposure.errors import FormatError, SchemaError
from hwexposure.geometry import geoid_text, read_tracts_geojson
from hwexposure.grids import ConcentrationGrid, read_asc, read_xyz_csv
from hwexposure.zonal import build_tract_surface, build_urban_mask


def make_grid(values, origin=(0.0, 0.0), cell=1.0, nodata=None, cell_height=None):
    arr = np.asarray(values, dtype=np.float64)
    mask = np.zeros(arr.shape, dtype=bool) if nodata is None else np.asarray(nodata, dtype=bool)
    return ConcentrationGrid(
        origin_x=origin[0],
        origin_y=origin[1],
        cell_width=cell,
        cell_height=cell if cell_height is None else cell_height,
        n_rows=arr.shape[0],
        n_cols=arr.shape[1],
        values=np.where(mask, 0.0, arr),
        nodata=mask,
    )


def square(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))


def rect_tract(geoid, x0, y0, x1, y1):
    return TractGeometry(geoid=geoid, parts=(PolygonPart(exterior=square(x0, y0, x1, y1)),))


def tract_coverage(tracts, grid):
    return zonal.tract_coverage(tract_set(tracts), grid)


def surface_of(grid, tracts, year=2011):
    return build_tract_surface(grid, tract_coverage(tracts, grid), year)


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
    assert (grid.n_rows, grid.n_cols) == (2, 3)
    assert grid.extent == (10.0, 20.0, 16.0, 24.0)
    # file is top-down; bottom row (row 0) holds the last data line
    assert grid.values[0].tolist() == [4.0, 5.0, 6.0]
    assert grid.values[1].tolist() == [1.5, 2.5, 0.0]
    assert grid.nodata[1].tolist() == [False, False, True]


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


def asc_with_data(rows: list[str]) -> str:
    return "".join(ASC_TEXT.splitlines(keepends=True)[:6]) + "".join(rows)


def assert_same_grid(a, b):
    assert a.lattice == b.lattice
    assert np.array_equal(a.values, b.values) and np.array_equal(a.nodata, b.nodata)


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


def test_read_xyz_csv(tmp_path):
    path = tmp_path / "grid.csv"
    # centers of a 2x2 unit grid, one cell missing -> nodata
    path.write_text("x,y,value\n0.5,0.5,1.0\n1.5,0.5,2.0\n0.5,1.5,3.0\n")
    grid = read_xyz_csv(str(path))
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.extent == (0.0, 0.0, 2.0, 2.0)
    assert grid.values[0].tolist() == [1.0, 2.0]
    assert grid.nodata[1].tolist() == [False, True]


def test_read_xyz_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lon,lat,val\n0,0,1\n")
    with pytest.raises(FormatError):
        read_xyz_csv(str(path))


@pytest.mark.parametrize("token, message", [
    ("nan", "non-finite value"),
    ("inf", "non-finite value"),
    ("-inf", "non-finite value"),
    ("abc", "non-numeric"),
])
def test_read_xyz_csv_rejects_bad_value(tmp_path, token, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y,value\n0.5,0.5,1.0\n1.5,0.5,{token}\n")
    with pytest.raises(FormatError, match=rf"bad\.csv:3: {message}"):
        read_xyz_csv(str(path))


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


def test_negative_concentration_rejected():
    with pytest.raises(FormatError):
        make_grid([[-1.0]])


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
        inb = (cols >= 0) & (cols < grid.n_cols) & (rows >= 0) & (rows < grid.n_rows)
        cols, rows = cols[inb], rows[inb]
        valid = ~grid.nodata[rows, cols]
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
    with pytest.raises(SchemaError, match="duplicate tract geoids"):
        tract_coverage(tracts, grid)


def test_surface_empty_tract_list():
    grid = make_grid([[1.0]])
    with pytest.raises(SchemaError, match="tract list is empty"):
        tract_coverage([], grid)


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


def test_surface_rejects_coverage_of_another_lattice():
    tracts = [rect_tract("06037000100", 0.0, 0.0, 1.0, 1.0)]
    coverage = tract_coverage(tracts, make_grid([[1.0, 2.0]]))
    with pytest.raises(SchemaError, match="lattice"):
        build_tract_surface(make_grid([[1.0, 2.0]], origin=(0.5, 0.0)), coverage, 2011)


def test_coverage_reused_across_years():
    tracts = [rect_tract("06037000100", 0.0, 0.0, 1.5, 1.0)]
    coverage = tract_coverage(tracts, make_grid([[8.0, 10.0]]))
    assert surface_entries(build_tract_surface(make_grid([[8.0, 10.0]]), coverage, 2011)) == \
        {"06037000100": pytest.approx(13.0 / 1.5)}
    assert surface_entries(build_tract_surface(make_grid([[4.0, 1.0]]), coverage, 2012)) == \
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
    surface = build_tract_surface(grid, coverage, 2011)
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


def test_coverage_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(31)
    grid = make_grid(rng.uniform(1.0, 9.0, size=(30, 30)), origin=(-3.0, 2.0), cell=0.75)
    tracts = [
        TractGeometry(geoid=f"06037{k:06d}",
                      parts=(_star_part(rng, *rng.uniform(0.0, 22.0, size=2), 0.5, 4.0),))
        for k in range(40)
    ]
    whole = tract_coverage(tracts, grid)
    for cells, vertices in ((50, 1 << 17), (1 << 20, 30), (80, 40)):
        monkeypatch.setattr(zonal, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(zonal, "_CHUNK_VERTICES", vertices)
        chunked = tract_coverage(tracts, grid)
        for name in ("tract_ptr", "cell_idx", "area", "polygon_area"):
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


def test_overlap_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(41)
    mask = mask_set([_star_part(rng, 10.0, 10.0, 3.0, 9.0, hole_scale=0.4)])
    tracts = tract_set([TractGeometry(geoid=f"06037{k:06d}", parts=(
        _star_part(rng, *rng.uniform(0.0, 20.0, size=2), 0.5, 3.0),)) for k in range(40)])
    whole = build_urban_mask(mask, tracts)
    monkeypatch.setattr(zonal, "_CHUNK_VERTICES", 30)
    assert np.array_equal(build_urban_mask(mask, tracts), whole)


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
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(tmp_path / "out"))
    pipeline.run(config, only_stage="surface")
    back = read_surface_csv(str(tmp_path / "out" / "surface_2011.csv"))
    tracts = read_tracts_geojson(str(world / "tracts.geojson"))
    grid = read_asc(str(grid_path))
    surface = build_tract_surface(grid, zonal.tract_coverage(tracts, grid), 2011)
    assert back.year == 2011
    assert surface_entries(back) == surface_entries(surface)


def test_surface_rejects_unsorted_twice_listed_or_negative_tracts():
    ids, values = np.array([6037000100, 6037000200]), np.array([1.0, 2.0])
    none = np.array([], dtype=np.int64)
    with pytest.raises(SchemaError, match="ascending"):
        zonal.TractSurface(2011, ids[::-1], values, none, {})
    with pytest.raises(SchemaError, match="once"):
        zonal.TractSurface(2011, ids, values, ids[1:], {})
    with pytest.raises(SchemaError, match=r"negative/NaN concentrations for \['06037000200'\]"):
        zonal.TractSurface(2011, ids, np.array([1.0, np.nan]), none, {})
