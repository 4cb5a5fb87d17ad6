"""Planar polygon primitives: shoelace areas, half-plane clipping for exact
polygon-set overlap, and a GeoJSON-subset reader for tract and mask geometries.

Coordinates are assumed to be in a planar CRS already; nothing here reprojects.
All clipping is successive half-plane clipping (Sutherland-Hodgman); ties on a
clip boundary are resolved by the arithmetic itself, with no epsilon snapping.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateGeometryError, FormatError, SchemaError

Vertex = tuple[float, float]
Ring = tuple[Vertex, ...]
Rect = tuple[float, float, float, float]  # x0, y0, x1, y1
HalfPlane = tuple[float, float, float]  # keep a*x + b*y <= c


def normalize_ring(vertices: Iterable[Sequence[float]]) -> Ring:
    """Return a closed ring (first vertex repeated last) with >= 3 distinct vertices.

    Accepts open or closed input; raises DegenerateGeometryError when fewer
    than three distinct vertices remain.
    """
    pts = [(float(v[0]), float(v[1])) for v in vertices]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(set(pts)) < 3:
        raise DegenerateGeometryError(
            f"ring needs >= 3 distinct vertices, got {len(set(pts))}"
        )
    return tuple(pts) + (pts[0],)


def _open(ring: Ring) -> list[Vertex]:
    # Drop the closing duplicate for edge-walking algorithms.
    return list(ring[:-1]) if ring[0] == ring[-1] else list(ring)


def signed_ring_area(ring: Ring) -> float:
    """Signed shoelace area; positive for counter-clockwise rings."""
    pts = _open(ring)
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def polygon_area(exterior: Iterable[Sequence[float]],
                 holes: Iterable[Iterable[Sequence[float]]] = ()) -> float:
    """Area of a polygon with optional holes: |exterior| minus hole areas.

    Raises DegenerateGeometryError for rings with fewer than 3 distinct
    vertices or zero area (collinear rings).
    """
    ext = normalize_ring(exterior)
    area = abs(signed_ring_area(ext))
    if area == 0.0:
        raise DegenerateGeometryError("ring has zero area")
    for hole in holes:
        h = normalize_ring(hole)
        h_area = abs(signed_ring_area(h))
        if h_area == 0.0:
            raise DegenerateGeometryError("hole ring has zero area")
        area -= h_area
    return max(area, 0.0)


@dataclass(frozen=True)
class PolygonPart:
    """One exterior ring plus the holes nested inside it. Rings are stored closed."""

    exterior: Ring
    holes: tuple[Ring, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "exterior", normalize_ring(self.exterior))
        object.__setattr__(
            self, "holes", tuple(normalize_ring(h) for h in self.holes)
        )
        if abs(signed_ring_area(self.exterior)) == 0.0:
            raise DegenerateGeometryError("exterior ring has zero area")

    def area(self) -> float:
        return polygon_area(self.exterior, self.holes)


def is_tract_geoid(geoid: object) -> bool:
    """A tract GEOID is a string of exactly 11 ASCII digits."""
    return isinstance(geoid, str) and len(geoid) == 11 and geoid.isascii() and geoid.isdigit()


@dataclass(frozen=True)
class TractGeometry:
    """A census tract: an 11-digit GEOID and one or more polygon parts."""

    geoid: str
    parts: tuple[PolygonPart, ...]

    def __post_init__(self) -> None:
        if not is_tract_geoid(self.geoid):
            raise SchemaError(f"tract geoid must be 11 ASCII digits, got {self.geoid!r}")
        if not self.parts:
            raise DegenerateGeometryError(f"tract {self.geoid} has no polygons")

    def area(self) -> float:
        return sum(p.area() for p in self.parts)


def parts_bbox(parts: Sequence[PolygonPart]) -> Rect:
    """Axis-aligned bounding box over the exterior rings."""
    xs = [x for p in parts for x, _ in p.exterior]
    ys = [y for p in parts for _, y in p.exterior]
    return (min(xs), min(ys), max(xs), max(ys))


def _clip_halfplane(points: list[Vertex], a: float, b: float, c: float) -> list[Vertex]:
    # One Sutherland-Hodgman pass: keep the region a*x + b*y <= c.
    if not points:
        return []
    out: list[Vertex] = []
    px, py = points[-1]
    fp = a * px + b * py - c
    for qx, qy in points:
        fq = a * qx + b * qy - c
        if fq <= 0.0:
            if fp > 0.0:
                t = fp / (fp - fq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            out.append((qx, qy))
        elif fp <= 0.0:
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
        px, py, fp = qx, qy, fq
    return out


def _clipped_area(ring: Ring, halfplanes: Sequence[HalfPlane]) -> float:
    pts = _open(ring)
    for a, b, c in halfplanes:
        pts = _clip_halfplane(pts, a, b, c)
        if len(pts) < 3:
            return 0.0
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return abs(0.5 * acc)


def _part_area_in(part: PolygonPart, halfplanes: Sequence[HalfPlane]) -> float:
    area = _clipped_area(part.exterior, halfplanes)
    for hole in part.holes:
        area -= _clipped_area(hole, halfplanes)
    return area


def _triangle_halfplanes(p: Vertex, q: Vertex, r: Vertex) -> tuple[HalfPlane, ...]:
    # Vertices must be counter-clockwise; inside is left of each directed edge.
    hps = []
    for (ux, uy), (vx, vy) in ((p, q), (q, r), (r, p)):
        a = vy - uy
        b = ux - vx
        hps.append((a, b, a * ux + b * uy))
    return tuple(hps)


def _disjoint(a: Rect, b: Rect) -> bool:
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def _ring_overlap(subject: Sequence[PolygonPart], subject_box: Rect, clip_ring: Ring) -> float:
    # Signed fan decomposition: the ring's indicator equals the signed sum of
    # fan-triangle indicators, so intersection areas add with the fan signs.
    # A ring or triangle whose bbox misses the subject's bbox adds nothing.
    verts = _open(clip_ring)
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    if _disjoint((min(xs), min(ys), max(xs), max(ys)), subject_box):
        return 0.0
    b0 = verts[0]
    acc = 0.0
    for i in range(1, len(verts) - 1):
        b1, b2 = verts[i], verts[i + 1]
        cross = (b1[0] - b0[0]) * (b2[1] - b0[1]) - (b1[1] - b0[1]) * (b2[0] - b0[0])
        if cross == 0.0:
            continue
        tx, ty = (b0[0], b1[0], b2[0]), (b0[1], b1[1], b2[1])
        if _disjoint((min(tx), min(ty), max(tx), max(ty)), subject_box):
            continue
        tri = (b0, b1, b2) if cross > 0.0 else (b0, b2, b1)
        hps = _triangle_halfplanes(*tri)
        area = sum(_part_area_in(p, hps) for p in subject)
        acc += area if cross > 0.0 else -area
    return acc


def overlap_area(subject: Sequence[PolygonPart], clip: Sequence[PolygonPart]) -> float:
    """Exact intersection area between two polygon sets.

    The clip set's parts must be mutually disjoint (true for Census urban-area
    polygons); overlapping clip parts would be double counted.
    """
    box = parts_bbox(subject)
    total = 0.0
    for part in clip:
        total += _ring_overlap(subject, box, part.exterior)
        for hole in part.holes:
            total -= _ring_overlap(subject, box, hole)
    return max(total, 0.0)


def _rings_from_coords(coords: Sequence) -> PolygonPart:
    if not coords:
        raise FormatError("polygon has no rings")
    return PolygonPart(
        exterior=normalize_ring(coords[0]),
        holes=tuple(normalize_ring(r) for r in coords[1:]),
    )


def _parts_from_geometry(geom: dict) -> tuple[PolygonPart, ...]:
    gtype = geom.get("type")
    coords = geom.get("coordinates")
    if gtype == "Polygon":
        return (_rings_from_coords(coords),)
    if gtype == "MultiPolygon":
        return tuple(_rings_from_coords(poly) for poly in coords)
    raise FormatError(f"unsupported geometry type {gtype!r} (need Polygon/MultiPolygon)")


def _features(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise FormatError(f"{path}: expected a GeoJSON FeatureCollection")
    return doc["features"]


def read_tracts_geojson(path: str) -> list[TractGeometry]:
    """Read tract polygons from a GeoJSON FeatureCollection.

    Each feature must be a Polygon or MultiPolygon with a ``GEOID`` property
    holding the tract identifier as a string of 11 ASCII digits. Coordinates
    are taken as planar.
    """
    tracts = []
    for i, feat in enumerate(_features(path)):
        props = feat.get("properties") or {}
        geoid = props.get("GEOID")
        if geoid is None:
            raise FormatError(f"{path}: feature {i} is missing the GEOID property")
        if not is_tract_geoid(geoid):
            raise FormatError(f"{path}: feature {i}: GEOID must be a string of 11 ASCII "
                              f"digits, got {geoid!r}")
        tracts.append(TractGeometry(geoid=geoid, parts=_parts_from_geometry(feat.get("geometry") or {})))
    return tracts


def read_mask_geojson(path: str) -> list[PolygonPart]:
    """Read mask polygons (e.g. urban areas) from a GeoJSON FeatureCollection."""
    parts: list[PolygonPart] = []
    for feat in _features(path):
        parts.extend(_parts_from_geometry(feat.get("geometry") or {}))
    return parts
