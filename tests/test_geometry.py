"""Polygon kernel tests: shoelace areas, rectangle clipping, mask overlap."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cell_coverage, points_in_ring, random_star_polygon

from hwexposure.errors import DegenerateGeometryError, FormatError, SchemaError
from hwexposure.geometry import (
    PolygonPart,
    TractGeometry,
    normalize_ring,
    overlap_area,
    parts_bbox,
    polygon_area,
    read_mask_geojson,
    read_tracts_geojson,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def square(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# ----------------------------------------------------------------------------
# polygon_area
# ----------------------------------------------------------------------------

def test_area_unit_square():
    assert polygon_area(UNIT_SQUARE) == 1.0


def test_area_triangle():
    assert polygon_area([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) == 0.5


def test_area_collinear_is_degenerate():
    with pytest.raises(DegenerateGeometryError):
        polygon_area([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


def test_area_too_few_vertices():
    with pytest.raises(DegenerateGeometryError):
        polygon_area([(0.0, 0.0), (1.0, 0.0)])


def test_area_orientation_independent():
    assert polygon_area(list(reversed(UNIT_SQUARE))) == 1.0


def test_area_with_hole():
    hole = square(0.25, 0.25, 0.75, 0.75)
    assert polygon_area(square(0.0, 0.0, 2.0, 2.0), [hole]) == 4.0 - 0.25


def test_closed_ring_input_accepted():
    closed = UNIT_SQUARE + [UNIT_SQUARE[0]]
    assert polygon_area(closed) == 1.0


def test_normalize_ring_closes():
    ring = normalize_ring(UNIT_SQUARE)
    assert ring[0] == ring[-1]
    assert len(ring) == 5


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
    with pytest.raises(SchemaError):
        TractGeometry(geoid="123", parts=(rect_part(0, 0, 1, 1),))
    with pytest.raises(SchemaError):
        TractGeometry(geoid="1234567890A", parts=(rect_part(0, 0, 1, 1),))
    # str.isdigit accepts non-ASCII digits, which no GEOID contains
    arabic_indic = "".join(chr(0x0660 + int(d)) for d in "06037000100")
    assert arabic_indic.isdigit()
    with pytest.raises(SchemaError, match="11 ASCII digits"):
        TractGeometry(geoid=arabic_indic, parts=(rect_part(0, 0, 1, 1),))


def test_parts_bbox():
    parts = (rect_part(0, 0, 1, 1), rect_part(3, 2, 5, 4))
    assert parts_bbox(parts) == (0.0, 0.0, 5.0, 4.0)


def test_read_tracts_geojson_roundtrip(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"GEOID": "06037000100"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]],
                },
            },
            {
                "type": "Feature",
                "properties": {"GEOID": "06037000200"},
                "geometry": {
                    "type": "MultiPolygon",
                    "coordinates": [
                        [[[3, 0], [4, 0], [4, 1], [3, 1], [3, 0]]],
                        [[[5, 0], [6, 0], [6, 1], [5, 1], [5, 0]]],
                    ],
                },
            },
        ],
    }
    path = tmp_path / "tracts.geojson"
    path.write_text(__import__("json").dumps(doc))
    tracts = read_tracts_geojson(str(path))
    assert [t.geoid for t in tracts] == ["06037000100", "06037000200"]
    assert tracts[0].area() == 4.0
    assert len(tracts[1].parts) == 2


def test_read_tracts_geojson_missing_geoid(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {},
                "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
            }
        ],
    }
    path = tmp_path / "bad.geojson"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(FormatError):
        read_tracts_geojson(str(path))


def test_read_mask_geojson(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"NAME": "somewhere"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                },
            }
        ],
    }
    path = tmp_path / "mask.geojson"
    path.write_text(__import__("json").dumps(doc))
    parts = read_mask_geojson(str(path))
    assert len(parts) == 1
    assert parts[0].area() == 1.0


def test_read_geojson_rejects_points(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {}, "geometry": {"type": "Point", "coordinates": [0, 0]}}
        ],
    }
    path = tmp_path / "pt.geojson"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(FormatError):
        read_mask_geojson(str(path))
