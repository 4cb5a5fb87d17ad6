"""Planar polygon sets as flat vertex arrays, and a GeoJSON-subset reader for
tract and mask geometries.

Coordinates are assumed to be in a planar CRS already; nothing here reprojects.
A file is parsed once into a ``PolygonSet``: every ring closed and stored
back to back, with its owner (a tract, or a mask polygon) and hole flag. A
tract set's ``ids``, its GEOIDs as int64 ascending, are the run's one tract
index; ``geoid_text`` gives their text for reports and messages. Every
ring is checked here, so the kernels in ``zonal`` can rely on >= 3 distinct
vertices and a finite, nonzero shoelace area per ring, and on a nonzero area
per tract.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FormatError
from .ingest import open_input


class PolygonSet(NamedTuple):
    """Polygons as flat arrays of closed rings.

    Ring ``r`` is ``xy[ring_ptr[r]:ring_ptr[r + 1]]``, first vertex repeated
    last. Its owner ``ring_owner[r]`` is a tract (``ids`` ascending) or, in
    a mask, one polygon; an owner's rings are contiguous, each polygon's
    exterior first and then its holes. ``ring_area`` is the signed shoelace
    area (positive counter-clockwise); ``area`` is each owner's area: over
    its polygons, the exterior's area less its holes', at least 0; ``bbox``
    is each owner's (min x, min y, max x, max y) over all its rings.
    """

    ids: np.ndarray          # int64 tract ids, ascending; empty for a mask
    xy: np.ndarray           # float64 (V, 2)
    ring_ptr: np.ndarray     # int64 (R + 1,)
    ring_owner: np.ndarray   # int64 (R,)
    ring_hole: np.ndarray    # bool (R,)
    ring_area: np.ndarray    # float64 (R,)
    area: np.ndarray         # float64 (owners,)
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
    Last, a tract of zero area names ``source`` and the first such geoid.
    """
    n = len(features)
    if geoids is not None:
        if not all(map(is_tract_geoid, geoids)):
            i = next(i for i, geoid in enumerate(geoids) if not is_tract_geoid(geoid))
            raise FormatError(f"{source}: feature {i}: GEOID must be a string of 11 ASCII "
                              f"digits, got {geoids[i]!r}")
        # 11 digits each, so the int64 order is the text order
        ids = np.fromiter(map(int, geoids), dtype=np.int64, count=n)
        order = np.argsort(ids)
        ids = ids[order]
        dupes = ids[1:][ids[1:] == ids[:-1]]
        if len(dupes):
            raise FormatError(f"{source}: duplicate tract geoids: "
                              f"{sorted(set(geoid_text(dupes)))[:5]}")
    else:
        ids, order = np.zeros(0, dtype=np.int64), np.arange(n)

    def fail(bad: np.ndarray, feature: np.ndarray, message) -> None:
        """Raise when any item is bad; ``feature`` is each item's feature and
        ``message(k)`` describes item ``k``."""
        if bad.any():
            f = int(feature[bad].min())
            k = int(np.flatnonzero(bad & (feature == f))[0])
            raise FormatError(f"{source}: feature {f}: {message(k)}")

    by_owner = [features[i] for i in order.tolist()]  # order: each owner's feature
    n_polygons = np.fromiter(map(len, by_owner), dtype=np.int64, count=n)
    if geoids is not None:
        fail(n_polygons == 0, order,
             lambda k: f"tract {geoid_text(ids[k:k + 1])[0]} has no polygons")
    polygons = list(chain.from_iterable(by_owner))
    polygon_feature = np.repeat(order, n_polygons)
    n_rings = _lengths(polygons)
    fail(n_rings <= 0, polygon_feature, lambda k: "polygon has no rings")
    rings = list(chain.from_iterable(polygons))
    ring_polygon = np.repeat(np.arange(len(polygons)), n_rings)
    ring_feature = polygon_feature[ring_polygon]
    ring_len = _lengths(rings)
    fail(ring_len < 0, ring_feature,
         lambda k: f"ring must be a list of positions, got {rings[k]!r}")
    positions = list(chain.from_iterable(rings))
    position_feature = np.repeat(ring_feature, ring_len)
    n_values = _lengths(positions)
    fail(n_values < 2, position_feature,
         lambda k: f"position must be a list of 2 or more numbers, got {positions[k]!r}")
    if (n_values != 2).any():
        positions = [p[:2] for p in positions]
    values = list(chain.from_iterable(positions))
    xy = _numbers(values)
    fail(~np.isfinite(xy), np.repeat(position_feature, 2),
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
    fail(ring_len == 0, ring_feature, lambda r: "ring needs >= 3 distinct vertices, got 0")
    ring_start = np.cumsum(ring_len) - ring_len
    open_len = ring_len - ((xy[ring_start] == xy[ring_start + ring_len - 1]).all(axis=1)
                           & (ring_len >= 2))
    closed_len = open_len + 1
    ring_of = np.repeat(np.arange(len(ring_len)), closed_len)
    index = np.arange(len(ring_of)) - np.repeat(np.cumsum(closed_len) - closed_len, closed_len)
    xy = xy[ring_start[ring_of] + np.where(index < open_len[ring_of], index, 0)]
    ring_ptr = np.concatenate(([0], np.cumsum(closed_len))).astype(np.int64)

    # shoelace area per ring, about its first vertex so the terms stay small
    x, y = xy[:, 0], xy[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # past float64: inf or NaN
        u, v = x - x[ring_ptr[ring_of]], y - y[ring_ptr[ring_of]]
        cross = u[:-1] * v[1:] - u[1:] * v[:-1]
        cross[ring_ptr[1:-1] - 1] = 0.0  # from one ring's last vertex to the next ring's first
        ring_area = 0.5 * np.add.reduceat(cross, ring_ptr[:-1]) if len(cross) else np.zeros(0)

    # >= 3 distinct vertices per ring. A ring with fewer has an area of
    # exactly 0 (each cross term holds the first vertex's zero offsets or
    # subtracts two equal products), or NaN or inf past float64, so only the
    # rings with such an area need their vertices counted.
    counted = (ring_area == 0.0) | ~np.isfinite(ring_area)
    vertex = np.flatnonzero(counted[ring_of])
    order = vertex[np.lexsort((y[vertex], x[vertex], ring_of[vertex]))]
    sx, sy, sr = x[order], y[order], ring_of[order]
    new = np.ones(len(sr), dtype=bool)
    new[1:] = (sr[1:] != sr[:-1]) | (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    distinct = np.bincount(sr[new], minlength=len(ring_len))
    fail(counted & (distinct < 3), ring_feature,
         lambda r: f"ring needs >= 3 distinct vertices, got {distinct[r]}")
    fail(~np.isfinite(ring_area), ring_feature, lambda r: "ring area overflows float64")
    fail((ring_area == 0.0) & ~ring_hole, ring_feature, lambda r: "exterior ring has zero area")
    fail((ring_area == 0.0) & ring_hole, ring_feature, lambda r: "hole ring has zero area")
    polygon_area = np.maximum(np.bincount(
        ring_polygon, weights=np.where(ring_hole, -1.0, 1.0) * np.abs(ring_area)), 0.0)
    area = np.bincount(ring_owner[~ring_hole], weights=polygon_area, minlength=n_owners)
    if geoids is not None and (area <= 0.0).any():
        raise FormatError(f"{source}: tract {geoid_text(ids[area <= 0.0])[0]} has zero area")

    first_vertex = ring_ptr[:-1][np.searchsorted(ring_owner, np.arange(n_owners))]
    bbox = np.column_stack([np.minimum.reduceat(x, first_vertex),
                            np.minimum.reduceat(y, first_vertex),
                            np.maximum.reduceat(x, first_vertex),
                            np.maximum.reduceat(y, first_vertex)]) if n_owners else \
        np.zeros((0, 4))
    return PolygonSet(
        ids=ids, xy=xy, ring_ptr=ring_ptr, ring_owner=ring_owner, ring_hole=ring_hole,
        ring_area=ring_area, area=area, bbox=bbox,
    )


def _object(source: str, i: int, name: str, value) -> dict:
    """``value``, feature ``i`` or a member of it, once it is a JSON object."""
    if type(value) is not dict:
        raise FormatError(f"{source}: feature {i}: {name} must be a JSON object, got {value!r}")
    return value


def _polygons(source: str, i: int, feature: dict) -> list:
    geometry = _object(source, i, "geometry", feature.get("geometry") or {})
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


def _features(path: str) -> list:
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if (type(doc) is not dict or doc.get("type") != "FeatureCollection"
            or type(doc.get("features")) is not list):
        raise FormatError(f"{path}: expected a GeoJSON FeatureCollection")
    return doc["features"]


def read_tracts_geojson(path: str) -> PolygonSet:
    """Read tract polygons from a GeoJSON FeatureCollection, ordered by geoid.

    Each feature must be a Polygon or MultiPolygon with a ``GEOID`` property
    holding the tract identifier as a string of 11 ASCII digits. Coordinates
    are taken as planar and must be finite JSON numbers; there must be at
    least one feature.
    """
    geoids, features = [], []
    collection = _features(path)
    if not collection:
        raise FormatError(f"{path}: tract list is empty")
    for i, feat in enumerate(collection):
        feat = _object(path, i, "feature", feat)
        geoid = _object(path, i, "properties", feat.get("properties") or {}).get("GEOID")
        if geoid is None:
            raise FormatError(f"{path}: feature {i} is missing the GEOID property")
        geoids.append(geoid)
        features.append(_polygons(path, i, feat))
    return polygon_set(path, features, geoids)


def read_mask_geojson(path: str) -> PolygonSet:
    """Read mask polygons (e.g. urban areas) from a GeoJSON FeatureCollection;
    each polygon is one owner."""
    features = [_polygons(path, i, _object(path, i, "feature", feat))
                for i, feat in enumerate(_features(path))]
    return polygon_set(path, features)
