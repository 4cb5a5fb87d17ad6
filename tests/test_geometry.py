"""Polygon kernel tests: shoelace areas, rectangle clipping, mask overlap,
and the columnar GeoJSON reader against the tuple reader it replaced."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PolygonPart,
    TractGeometry,
    cell_coverage,
    mask_set,
    normalize_ring,
    oracle_read_mask_geojson,
    oracle_read_tracts_geojson,
    parts_bbox,
    points_in_ring,
    polygon_area,
    random_star_polygon,
    signed_ring_area,
    tract_set,
)
from helpers import overlap_area as clipped_overlap

from hwexposure import zonal
from hwexposure.errors import DegenerateGeometryError, FormatError
from hwexposure.geometry import polygon_set, read_mask_geojson, read_tracts_geojson

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def square(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# ----------------------------------------------------------------------------
# polygon_area
# ----------------------------------------------------------------------------

def package_area(exterior, holes=()):
    """A one-polygon tract's area as the package computes it, from rings
    given like the oracle's."""
    rings = [[list(v) for v in ring] for ring in (exterior, *holes)]
    return zonal.tract_areas(polygon_set("t.json", [[rings]], ["06037000100"]))[0]


def test_area_unit_square():
    assert polygon_area(UNIT_SQUARE) == package_area(UNIT_SQUARE) == 1.0


def test_area_triangle():
    triangle = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert polygon_area(triangle) == package_area(triangle) == 0.5


def test_area_collinear_is_degenerate():
    for area in (polygon_area, package_area):
        with pytest.raises(DegenerateGeometryError):
            area([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


def test_area_too_few_vertices():
    for area in (polygon_area, package_area):
        with pytest.raises(DegenerateGeometryError):
            area([(0.0, 0.0), (1.0, 0.0)])


def test_area_orientation_independent():
    clockwise = list(reversed(UNIT_SQUARE))
    assert polygon_area(clockwise) == package_area(clockwise) == 1.0


def test_area_with_hole():
    outer, hole = square(0.0, 0.0, 2.0, 2.0), square(0.25, 0.25, 0.75, 0.75)
    assert polygon_area(outer, [hole]) == package_area(outer, [hole]) == 4.0 - 0.25


def test_closed_ring_input_accepted():
    closed = UNIT_SQUARE + [UNIT_SQUARE[0]]
    assert polygon_area(closed) == package_area(closed) == 1.0


def test_area_is_exact_far_from_the_origin():
    # the shoelace runs about each ring's first vertex, so a unit square at
    # 1e8 keeps its area exactly
    far = [(x + 1e8, y + 1e8) for x, y in UNIT_SQUARE]
    assert package_area(far) == 1.0


def test_normalize_ring_closes():
    ring = normalize_ring(UNIT_SQUARE)
    assert ring[0] == ring[-1]
    assert len(ring) == 5
    tracts = polygon_set("t.json", [[[[list(v) for v in UNIT_SQUARE]]]], ["06037000100"])
    assert tracts.xy.tolist() == [list(v) for v in ring]


# ----------------------------------------------------------------------------
# cell_coverage (the clipping oracle in tests/helpers.py)
# ----------------------------------------------------------------------------

def test_coverage_identical_cell():
    part = PolygonPart(exterior=tuple(UNIT_SQUARE))
    assert cell_coverage([part], (0.0, 0.0, 1.0, 1.0)) == 1.0


def test_coverage_disjoint():
    part = PolygonPart(exterior=tuple(square(5.0, 5.0, 6.0, 6.0)))
    assert cell_coverage([part], (0.0, 0.0, 1.0, 1.0)) == 0.0


def test_coverage_left_half():
    part = PolygonPart(exterior=tuple(square(0.0, 0.0, 0.5, 1.0)))
    assert cell_coverage([part], (0.0, 0.0, 1.0, 1.0)) == 0.5


def test_coverage_hole_subtracted():
    part = PolygonPart(
        exterior=tuple(square(0.0, 0.0, 1.0, 1.0)),
        holes=(tuple(square(0.25, 0.25, 0.75, 0.75)),),
    )
    assert cell_coverage([part], (0.0, 0.0, 1.0, 1.0)) == pytest.approx(0.75)


def test_coverage_degenerate_cell():
    part = PolygonPart(exterior=tuple(UNIT_SQUARE))
    with pytest.raises(DegenerateGeometryError):
        cell_coverage([part], (0.0, 0.0, 0.0, 1.0))


@given(
    dx=st.floats(-50, 50, allow_nan=False),
    dy=st.floats(-50, 50, allow_nan=False),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_coverage_in_unit_interval_and_translation_invariant(dx, dy, seed):
    rng = np.random.default_rng(seed)
    poly = random_star_polygon(rng, 0.5, 0.5, 0.2, 1.4, 7)
    part = PolygonPart(exterior=tuple(poly))
    cell = (0.0, 0.0, 1.0, 1.0)
    frac = cell_coverage([part], cell)
    assert 0.0 <= frac <= 1.0
    moved = PolygonPart(exterior=tuple((x + dx, y + dy) for x, y in poly))
    moved_cell = (dx, dy, 1.0 + dx, 1.0 + dy)
    assert cell_coverage([moved], moved_cell) == pytest.approx(frac, rel=1e-9, abs=1e-12)


def test_coverage_areas_sum_to_polygon_area():
    # Polygon strictly inside a 10x10 unit-cell field: per-cell coverage areas
    # must add back to the shoelace area.
    rng = np.random.default_rng(7)
    for _ in range(10):
        poly = random_star_polygon(rng, 5.0, 5.0, 1.0, 4.0, 9)
        part = PolygonPart(exterior=tuple(poly))
        total = 0.0
        for row in range(10):
            for col in range(10):
                total += cell_coverage([part], (col, row, col + 1.0, row + 1.0))
        assert total == pytest.approx(polygon_area(poly), rel=1e-9)


# ----------------------------------------------------------------------------
# overlap_area (mask intersection)
# ----------------------------------------------------------------------------

def rect_part(x0, y0, x1, y1):
    return PolygonPart(exterior=tuple(square(x0, y0, x1, y1)))


def overlap_area(subject, mask):
    """The clipper's overlap, checked against the Green's-theorem kernel."""
    want = clipped_overlap(subject, mask)
    tracts = tract_set([TractGeometry(geoid="06037000100", parts=tuple(subject))])
    got = zonal.build_urban_mask(mask_set(mask), tracts)[0] * zonal.tract_areas(tracts)[0]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    return want


def test_overlap_full_containment():
    tract = [rect_part(1.0, 1.0, 2.0, 2.0)]
    mask = [rect_part(0.0, 0.0, 5.0, 5.0)]
    assert overlap_area(tract, mask) == pytest.approx(1.0)


def test_overlap_disjoint():
    assert overlap_area([rect_part(0, 0, 1, 1)], [rect_part(3, 3, 4, 4)]) == 0.0


def test_overlap_partial_rectangles():
    assert overlap_area([rect_part(0, 0, 2, 2)], [rect_part(1, 0, 3, 2)]) == pytest.approx(2.0)


def test_overlap_nonconvex_mask():
    # L-shaped mask: 3x3 square minus its upper-right 2x2 corner.
    l_shape = PolygonPart(
        exterior=((0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0), (0.0, 0.0))
    )
    subject = [rect_part(0.0, 0.0, 3.0, 3.0)]
    assert overlap_area(subject, [l_shape]) == pytest.approx(5.0)


def test_overlap_mask_with_hole():
    mask = PolygonPart(
        exterior=tuple(square(0.0, 0.0, 4.0, 4.0)),
        holes=(tuple(square(1.0, 1.0, 3.0, 3.0)),),
    )
    subject = [rect_part(0.0, 0.0, 2.0, 2.0)]
    # subject (2x2=4) minus the hole overlap (1x1=1)
    assert overlap_area(subject, [mask]) == pytest.approx(3.0)


def test_overlap_monte_carlo_oracle():
    # Random star polygons checked against uniform point sampling (tolerance
    # is ~4 standard errors of the sampling estimate).
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_star_polygon(rng, 5.0, 5.0, 1.0, 4.0, 8)
        b = random_star_polygon(rng, 6.0, 5.5, 1.0, 4.0, 8)
        exact = overlap_area([PolygonPart(exterior=tuple(a))], [PolygonPart(exterior=tuple(b))])
        pts_x = rng.uniform(0.0, 12.0, size=400_000)
        pts_y = rng.uniform(0.0, 12.0, size=400_000)
        inside = points_in_ring(pts_x, pts_y, a) & points_in_ring(pts_x, pts_y, b)
        approx = inside.mean() * 144.0
        assert exact == pytest.approx(approx, abs=0.25)


def test_overlap_ignores_far_mask_rings():
    # A mask part (with its hole) whose bbox misses the subject's adds exactly
    # nothing; fan triangles whose bbox misses it are skipped without changing
    # the area.
    rng = np.random.default_rng(43)
    subject = [PolygonPart(exterior=tuple(random_star_polygon(rng, 5.0, 5.0, 1.0, 4.0, 9)))]
    near = PolygonPart(exterior=tuple(random_star_polygon(rng, 6.0, 5.5, 1.0, 4.0, 12)))
    far = PolygonPart(
        exterior=tuple(random_star_polygon(rng, 40.0, 5.0, 2.0, 5.0, 12)),
        holes=(tuple(random_star_polygon(rng, 40.0, 5.0, 0.5, 1.0, 6)),),
    )
    alone = overlap_area(subject, [near])
    assert alone > 0.0
    assert overlap_area(subject, [far, near]) == alone
    assert overlap_area(subject, [far]) == 0.0
    # L-shaped mask fanned from (-30, -20): its last triangle lies below the
    # subject; the vertical bar x in [1, 3] covers 1x1 of the subject
    l_shape = PolygonPart(
        exterior=((-30.0, -20.0), (3.0, -20.0), (3.0, 1.0), (1.0, 1.0), (1.0, -19.0), (-30.0, -19.0))
    )
    assert overlap_area([rect_part(0.0, 0.0, 2.0, 2.0)], [l_shape]) == pytest.approx(1.0)


# ----------------------------------------------------------------------------
# tract/geojson plumbing
# ----------------------------------------------------------------------------

def test_tract_geoid_validation():
    ring = [[[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]]]
    for geoid in ("123", "1234567890A", 6037000100):
        with pytest.raises(FormatError, match="feature 0: GEOID must be a string of 11 ASCII"):
            polygon_set("t.json", [ring], [geoid])
    # str.isdigit accepts non-ASCII digits, which no GEOID contains
    arabic_indic = "".join(chr(0x0660 + int(d)) for d in "06037000100")
    assert arabic_indic.isdigit()
    with pytest.raises(FormatError, match="feature 1: GEOID must be a string of 11 ASCII"):
        polygon_set("t.json", [ring, ring], ["06037000100", arabic_indic])


def test_geometry_checks_run_kind_by_kind():
    # The first kind of check that fails names the first feature failing it,
    # even when an earlier feature fails a later kind.
    good = [[[0, 0], [1, 0], [1, 1]]]
    flat = [[[0, 0], [1, 1], [2, 2]]]
    two = [[[0, 0], [1, 0], [0, 0]]]
    text = [[[0, 0], [1, "x"], [1, 1]]]
    with pytest.raises(DegenerateGeometryError, match="feature 3: ring needs >= 3 distinct"):
        polygon_set("m.json", [[good], [flat], [good], [two], [two]])
    with pytest.raises(FormatError, match="feature 4: coordinate must be a finite number"):
        polygon_set("m.json", [[good], [flat], [two], [good], [text]])
    geoids = ["06037000300", "06037000200", "06037000100"]
    with pytest.raises(DegenerateGeometryError, match="feature 1: exterior ring has zero"):
        polygon_set("t.json", [[good], [flat], [flat]], geoids)


def test_parts_bbox():
    parts = (rect_part(0, 0, 1, 1), rect_part(3, 2, 5, 4))
    assert parts_bbox(parts) == (0.0, 0.0, 5.0, 4.0)
    tracts = tract_set([TractGeometry(geoid="06037000200", parts=parts),
                        TractGeometry(geoid="06037000100", parts=(rect_part(-1, 2, 0, 3),))])
    assert tracts.bbox.tolist() == [[-1.0, 2.0, 0.0, 3.0], [0.0, 0.0, 5.0, 4.0]]


def write_collection(path, features):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return str(path)


def test_read_tracts_geojson_roundtrip(tmp_path):
    path = write_collection(tmp_path / "tracts.geojson", [
        {
            "type": "Feature",
            "properties": {"GEOID": "06037000200"},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [[[3, 0], [4, 0], [4, 1], [3, 1], [3, 0]]],
                    [[[5, 0], [6, 0], [6, 1], [5, 1]]],
                ],
            },
        },
        {
            "type": "Feature",
            "properties": {"GEOID": "06037000100"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]],
            },
        },
    ])
    tracts = read_tracts_geojson(path)
    assert tracts.geoids == ("06037000100", "06037000200")
    assert zonal.tract_areas(tracts).tolist() == [4.0, 2.0]
    assert tracts.ring_owner.tolist() == [0, 1, 1]
    # the open ring is closed
    assert tracts.xy[tracts.ring_ptr[2]:].tolist() == [[5, 0], [6, 0], [6, 1], [5, 1], [5, 0]]


def test_read_tracts_geojson_missing_geoid(tmp_path):
    path = write_collection(tmp_path / "bad.geojson", [{
        "type": "Feature",
        "properties": {},
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
    }])
    with pytest.raises(FormatError, match="feature 0 is missing the GEOID property"):
        read_tracts_geojson(path)


def test_read_mask_geojson(tmp_path):
    path = write_collection(tmp_path / "mask.geojson", [{
        "type": "Feature",
        "properties": {"NAME": "somewhere"},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
        },
    }])
    mask = read_mask_geojson(path)
    assert mask.geoids == () and mask.n_owners == 1
    assert mask.ring_area.tolist() == [1.0]


def test_read_geojson_rejects_points(tmp_path):
    path = write_collection(tmp_path / "pt.geojson", [
        {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": [0, 0]}}
    ])
    with pytest.raises(FormatError, match="feature 0: unsupported geometry type 'Point'"):
        read_mask_geojson(path)


def _ring(rng, cx, cy, r_lo, r_hi, closed, clockwise):
    verts = [[float(x), float(y)] for x, y in random_star_polygon(
        rng, cx, cy, r_lo, r_hi, int(rng.integers(3, 9)))]
    if clockwise:
        verts = verts[::-1]
    return verts + verts[:1] if closed else verts


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_reader_matches_tuple_reader(tmp_path_factory, seed, n):
    # Polygons and multipolygons with holes, open and closed rings of both
    # orientations, integer and float coordinates and features out of geoid
    # order, read by both readers.
    rng = np.random.default_rng(seed)
    features = []
    for k in rng.permutation(n).tolist():
        polygons = []
        for p in range(int(rng.integers(1, 3))):
            cx, cy = 20.0 * k + 8.0 * p, float(rng.integers(-5, 5))
            rings = [_ring(rng, cx, cy, 2.0, 3.0, rng.random() < 0.5, rng.random() < 0.5)]
            if rng.random() < 0.5:
                rings.append(_ring(rng, cx, cy, 0.5, 0.9, rng.random() < 0.5, rng.random() < 0.5))
            polygons.append(rings)
        if rng.random() < 0.3:
            polygons[0][0] = [[int(round(x)), int(round(y))] for x, y in
                              ([cx - 3, cy - 3], [cx + 3, cy - 3], [cx, cy + 3])]
            del polygons[0][1:]
        geometry = ({"type": "Polygon", "coordinates": polygons[0]} if len(polygons) == 1
                    else {"type": "MultiPolygon", "coordinates": polygons})
        features.append({"type": "Feature", "properties": {"GEOID": f"06037{k:06d}"},
                         "geometry": geometry})
    path = write_collection(tmp_path_factory.mktemp("reader") / "t.geojson", features)

    want = sorted(oracle_read_tracts_geojson(path), key=lambda t: t.geoid)
    got = read_tracts_geojson(path)
    assert got.geoids == tuple(t.geoid for t in want)
    rings = [(t, ring, h > 0) for t, tract in enumerate(want) for part in tract.parts
             for h, ring in enumerate((part.exterior, *part.holes))]
    assert got.ring_owner.tolist() == [t for t, _, _ in rings]
    assert got.ring_hole.tolist() == [hole for _, _, hole in rings]
    for r, (_, ring, _) in enumerate(rings):
        assert got.xy[got.ring_ptr[r]:got.ring_ptr[r + 1]].tolist() == [list(v) for v in ring]
        assert got.ring_area[r] == pytest.approx(signed_ring_area(ring), rel=1e-12)
    for t, tract in enumerate(want):
        xs = [x for p in tract.parts for ring in (p.exterior, *p.holes) for x, _ in ring]
        ys = [y for p in tract.parts for ring in (p.exterior, *p.holes) for _, y in ring]
        assert got.bbox[t].tolist() == [min(xs), min(ys), max(xs), max(ys)]
    assert zonal.tract_areas(got) == pytest.approx([t.area() for t in want], rel=1e-12)
    mask = read_mask_geojson(path)
    assert np.array_equal(mask.xy, np.concatenate(
        [np.array(ring) for part in oracle_read_mask_geojson(path)
         for ring in (part.exterior, *part.holes)]))
