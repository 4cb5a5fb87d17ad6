"""Planar polygon sets as flat vertex arrays, and a GeoJSON-subset reader for
tract and mask geometries.

Coordinates are assumed to be in a planar CRS already; nothing here reprojects.
A file is parsed once into a ``PolygonSet``: every ring closed and stored
back to back, with its owner (a tract, or a mask polygon) and hole flag. Every
ring is checked here, so the kernels in ``zonal`` can rely on >= 3 distinct
vertices and a nonzero shoelace area per ring.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGeometryError, FormatError, SchemaError


class PolygonSet(NamedTuple):
    """Polygons as flat arrays of closed rings.

    Ring ``r`` is ``xy[ring_ptr[r]:ring_ptr[r + 1]]``, first vertex repeated
    last. Its owner ``ring_owner[r]`` is a tract (``geoids`` ascending) or, in
    a mask, one polygon; an owner's rings are contiguous, each polygon's
    exterior first and then its holes. ``ring_area`` is the signed shoelace
    area (positive counter-clockwise); ``bbox`` is each owner's
    (min x, min y, max x, max y) over all its rings.
    """

    geoids: tuple[str, ...]  # () for a mask
    xy: np.ndarray           # float64 (V, 2)
    ring_ptr: np.ndarray     # int64 (R + 1,)
    ring_owner: np.ndarray   # int64 (R,)
    ring_hole: np.ndarray    # bool (R,)
    ring_area: np.ndarray    # float64 (R,)
    bbox: np.ndarray         # float64 (owners, 4)

    @property
    def n_owners(self) -> int:
        return len(self.bbox)


def is_tract_geoid(geoid: object) -> bool:
    """A tract GEOID is a string of exactly 11 ASCII digits."""
    return isinstance(geoid, str) and len(geoid) == 11 and geoid.isascii() and geoid.isdigit()


def geoid_text(ids: np.ndarray) -> list[str]:
    """int64 tract ids (a GEOID's value; the text sorts as the value) as the
    11-digit GEOIDs that reports print."""
    return ["%011d" % g for g in ids.tolist()]


def _lengths(items: list) -> np.ndarray:
    """Each item's length when it is a list, else -1."""
    if set(map(type, items)) <= {list}:
        return np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    return np.array([len(i) if type(i) is list else -1 for i in items], dtype=np.int64)


def _numbers(values: list) -> np.ndarray:
    """The values as float64, NaN for any that is not a JSON number (a bool
    is not) or that float64 cannot hold."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.fromiter(values, dtype=np.float64, count=len(values))
        except OverflowError:  # an int beyond float range
            pass
    return np.array([float(v) if type(v) in (int, float) and abs(v) <= sys.float_info.max
                     else math.nan for v in values], dtype=np.float64)


def polygon_set(source: str, features: Sequence[Sequence],
                geoids: Sequence[str] | None = None) -> PolygonSet:
    """Build a PolygonSet from each feature's polygons, given as GeoJSON
    MultiPolygon coordinates (a list of polygons, each a list of rings).

    With ``geoids`` the features are tracts, ordered by geoid, and each must
    have a polygon; without, every polygon is one owner, in file order.
    Rings may be given open or closed. The checks run one kind at a time, in
    the order below; the first kind that fails names ``source``, the first
    feature (in file order) failing it, and that feature's first bad item.
    """
    n = len(features)
    if geoids is not None:
        if not all(map(is_tract_geoid, geoids)):
            i = next(i for i, geoid in enumerate(geoids) if not is_tract_geoid(geoid))
            raise FormatError(f"{source}: feature {i}: GEOID must be a string of 11 ASCII "
                              f"digits, got {geoids[i]!r}")
        order = sorted(range(n), key=geoids.__getitem__)
        ordered = [geoids[i] for i in order]
        dupes = sorted({a for a, b in zip(ordered, ordered[1:]) if a == b})
        if dupes:
            raise SchemaError(f"{source}: duplicate tract geoids: {dupes[:5]}")
    else:
        order = list(range(n))

    def fail(bad: np.ndarray, feature: np.ndarray, error, message) -> None:
        """Raise ``error`` when any item is bad; ``feature`` is each item's
        feature and ``message(k)`` describes item ``k``."""
        if bad.any():
            f = int(feature[bad].min())
            k = int(np.flatnonzero(bad & (feature == f))[0])
            raise error(f"{source}: feature {f}: {message(k)}")

    by_owner = [features[i] for i in order]
    n_polygons = np.fromiter(map(len, by_owner), dtype=np.int64, count=n)
    owner_feature = np.array(order, dtype=np.int64)
    if geoids is not None:
        fail(n_polygons == 0, owner_feature, DegenerateGeometryError,
             lambda k: f"tract {ordered[k]} has no polygons")
    polygons = list(chain.from_iterable(by_owner))
    polygon_feature = np.repeat(owner_feature, n_polygons)
    n_rings = _lengths(polygons)
    fail(n_rings <= 0, polygon_feature, FormatError, lambda k: "polygon has no rings")
    rings = list(chain.from_iterable(polygons))
    ring_polygon = np.repeat(np.arange(len(polygons)), n_rings)
    ring_feature = polygon_feature[ring_polygon]
    ring_len = _lengths(rings)
    fail(ring_len < 0, ring_feature, FormatError,
         lambda k: f"ring must be a list of positions, got {rings[k]!r}")
    positions = list(chain.from_iterable(rings))
    position_feature = np.repeat(ring_feature, ring_len)
    n_values = _lengths(positions)
    fail(n_values < 2, position_feature, FormatError,
         lambda k: f"position must be a list of 2 or more numbers, got {positions[k]!r}")
    if (n_values != 2).any():
        positions = [p[:2] for p in positions]
    values = list(chain.from_iterable(positions))
    xy = _numbers(values)
    fail(~np.isfinite(xy), np.repeat(position_feature, 2), FormatError,
         lambda k: f"coordinate must be a finite number, got {values[k]!r}")
    xy = xy.reshape(-1, 2)

    if geoids is not None:
        n_owners = n
        ring_owner = np.repeat(np.arange(n), n_polygons)[ring_polygon]
    else:
        n_owners = len(polygons)
        ring_owner = ring_polygon
    ring_hole = np.ones(len(rings), dtype=bool)
    ring_hole[np.cumsum(n_rings) - n_rings] = False

    # close every ring: its open vertices, then the first again
    fail(ring_len == 0, ring_feature, DegenerateGeometryError,
         lambda r: "ring needs >= 3 distinct vertices, got 0")
    ring_start = np.cumsum(ring_len) - ring_len
    open_len = ring_len - ((xy[ring_start] == xy[ring_start + ring_len - 1]).all(axis=1)
                           & (ring_len >= 2))
    closed_len = open_len + 1
    ring_of = np.repeat(np.arange(len(ring_len)), closed_len)
    index = np.arange(len(ring_of)) - np.repeat(np.cumsum(closed_len) - closed_len, closed_len)
    xy = xy[ring_start[ring_of] + np.where(index < open_len[ring_of], index, 0)]
    ring_ptr = np.concatenate(([0], np.cumsum(closed_len))).astype(np.int64)

    # >= 3 distinct vertices per ring
    x, y = xy[:, 0], xy[:, 1]
    order = np.lexsort((y, x, ring_of))
    sx, sy, sr = x[order], y[order], ring_of[order]
    new = np.ones(len(sr), dtype=bool)
    new[1:] = (sr[1:] != sr[:-1]) | (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    distinct = np.bincount(sr[new], minlength=len(ring_len))
    fail(distinct < 3, ring_feature, DegenerateGeometryError,
         lambda r: f"ring needs >= 3 distinct vertices, got {distinct[r]}")

    # nonzero shoelace area per ring, about its first vertex so the terms stay small
    u, v = x - x[ring_ptr[ring_of]], y - y[ring_ptr[ring_of]]
    cross = u[:-1] * v[1:] - u[1:] * v[:-1]
    cross[ring_ptr[1:-1] - 1] = 0.0  # from one ring's last vertex to the next ring's first
    ring_area = 0.5 * np.add.reduceat(cross, ring_ptr[:-1]) if len(cross) else np.zeros(0)
    fail((ring_area == 0.0) & ~ring_hole, ring_feature, DegenerateGeometryError,
         lambda r: "exterior ring has zero area")
    fail((ring_area == 0.0) & ring_hole, ring_feature, DegenerateGeometryError,
         lambda r: "hole ring has zero area")

    first_vertex = ring_ptr[:-1][np.searchsorted(ring_owner, np.arange(n_owners))]
    bbox = np.column_stack([np.minimum.reduceat(x, first_vertex),
                            np.minimum.reduceat(y, first_vertex),
                            np.maximum.reduceat(x, first_vertex),
                            np.maximum.reduceat(y, first_vertex)]) if n_owners else \
        np.zeros((0, 4))
    return PolygonSet(
        geoids=tuple(ordered) if geoids is not None else (),
        xy=xy, ring_ptr=ring_ptr, ring_owner=ring_owner, ring_hole=ring_hole,
        ring_area=ring_area, bbox=bbox,
    )


def _polygons(source: str, i: int, geometry: dict) -> list:
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        return [coords]
    if gtype == "MultiPolygon":
        if type(coords) is not list:
            raise FormatError(f"{source}: feature {i}: MultiPolygon coordinates must be a list "
                              f"of polygons, got {coords!r}")
        return coords
    raise FormatError(f"{source}: feature {i}: unsupported geometry type {gtype!r} "
                      f"(need Polygon/MultiPolygon)")


def _features(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise FormatError(f"{path}: expected a GeoJSON FeatureCollection")
    return doc["features"]


def read_tracts_geojson(path: str) -> PolygonSet:
    """Read tract polygons from a GeoJSON FeatureCollection, ordered by geoid.

    Each feature must be a Polygon or MultiPolygon with a ``GEOID`` property
    holding the tract identifier as a string of 11 ASCII digits. Coordinates
    are taken as planar and must be finite JSON numbers.
    """
    geoids, features = [], []
    for i, feat in enumerate(_features(path)):
        props = feat.get("properties") or {}
        geoid = props.get("GEOID")
        if geoid is None:
            raise FormatError(f"{path}: feature {i} is missing the GEOID property")
        geoids.append(geoid)
        features.append(_polygons(path, i, feat.get("geometry") or {}))
    return polygon_set(path, features, geoids)


def read_mask_geojson(path: str) -> PolygonSet:
    """Read mask polygons (e.g. urban areas) from a GeoJSON FeatureCollection;
    each polygon is one owner."""
    features = [_polygons(path, i, feat.get("geometry") or {})
                for i, feat in enumerate(_features(path))]
    return polygon_set(path, features)
