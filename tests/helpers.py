"""Shared test utilities: polygon generators and oracles.

PolygonPart, TractGeometry, normalize_ring, polygon_area, the half-plane
clipper (overlap_area and the functions it calls) and
oracle_read_tracts_geojson/oracle_read_mask_geojson are the tuple geometry,
its GeoJSON reader and the Sutherland-Hodgman mask overlap that
geometry.PolygonSet and the Green's-theorem kernel in zonal.build_urban_mask
replaced; the differential tests hold the new code to them. tract_set and
mask_set build the columnar geometry of the package from them, through the
package's own builder, and zonal_weighted_mean is the coverage-weighted mean
of one tract. points_in_ring implements an even-odd crossing test,
deliberately independent of the clipper so it can serve as an oracle.
cell_coverage and oracle_zonal_mean clip the tract against one grid cell at
a time, independently of the accumulation rasterizer in zonal.tract_coverage,
which they pin in differential tests. oracle_tract_coverage is that
rasterizer as it was before it took the overlap kernel's oriented edges and
clipped each tract's box to the grid, with its own per-ring shoelace sign and
line crossings over the whole box; the differential tests hold the new one to
it. oracle_bin_curve, oracle_decile_shares
and oracle_state_rows are the per-group tuple-list sorts and the per-state
tract scan that the (groups x tracts) matrix kernels in disparity and
pipeline replaced; the differential tests hold the kernels bit-identical to
them. reference_csv is the csv.writer emission with repr floats that the
columnar report writer replaced, oracle_composition_rows the bins.csv rows
built one list per row, and read_surface_csv reads a surface_<year>.csv
back. worker_table and table_rows convert between row literals and the
columnar ingest.WorkerTable; oracle_rollup and oracle_join are the per-row
dict rollup (with block_to_tract, its per-string geocode test), validation
and joins that the columnar ones replaced, and oracle_read_tracts the
text-keyed (U16 geocodes, U11 geoids) reader and rollup that the int64 tract
ids replaced. tract_surface builds a
zonal.TractSurface from a {geoid: value} dict (excluded geoids NaN),
surface_entries gives its valued tracts back as that dict, strata_codes
gives each tract's int8 stratum code from a {geoid: stratum} dict,
with_strata gives a surface (or a table's surface) those codes, and
key_text prints WorkerTable keys as text. OracleSurface,
oracle_valued_surface, oracle_valued_join, OracleStrata, oracle_tract_strata
and oracle_searched_stratum_masks are the surface of valued tracts only, the
join against it and the searchsorted stratum lookup that the run-wide tract
index and the per-tract stratum codes replaced. oracle_schema_groups and
oracle_classified_masks are exposure.iter_groups and exposure.stratum_masks
as they were, walking the group schemas and taking a classification array
and a strata list, before a table's codes named its groups and its surface
carried the stratum codes.
write_xyz_grid writes an ASC grid's valued cells as shuffled x,y,value
points; oracle_read_xyz_csv is the XYZ reader that went through one
csv.DictReader row and three Python floats per point (oracle_xyz_points) and
placed them one at a time, before grids.read_xyz_csv read columns with
np.loadtxt.
MaskedGrid, masked_read_asc and masked_read_xyz_csv are the grid record and
readers that kept the shape and a bool nodata mask beside zero-filled values,
before a grid marked a cell without data by NaN.
oracle_weighted_mean, oracle_weighted_percentile, oracle_stratum_masks,
oracle_group_exposures, oracle_hw_exposures and oracle_rank_sum_grouped are
the per-group bodies that the one-sort-per-slice kernels
(a slice kernel, biasstats.PooledSamples, per-tract stratum codes)
replaced: one argsort per group and percentile, a per-row dict lookup per
stratum mask, and a Python dict tally per rank-sum test. with_layout gives a
count matrix C-ordered, Fortran-ordered or strided. oracle_slice_stats and
oracle_matrix_group_exposures (with oracle_matrix_hw_exposures) are the
matrix kernel and exposure._group_exposures as they were, when every group's
counts of a stratum were one float64 (groups x rows) matrix and one kernel
call, before exposure.slice_stats took one group at a time.
OraclePooledSamples and oracle_wilcoxon_rank_sum_grouped are
biasstats.PooledSamples and wilcoxon_rank_sum_grouped as they were, when
the pooled values were stably sorted and each test gathered its counts into
that order and summed every tie run with np.add.reduceat, before each value
carried its tie run's number and a test scattered its counts onto the runs.
oracle_u_counts is the exact p's table of U counts built from the table of
every smaller (m, n), before the Gaussian-binomial recurrence.
ExposureRecord, ErrorRecord, GapResult and AtkinsonResult are the per-record
dataclasses that the columnar exposure.GroupExposures frame replaced;
exposure_records and error_records turn a frame into them, frame_of turns
records of one locus into a frame, and compute_hw_exposures returns the OD
frame as the two record lists. oracle_loci_group_exposures and
oracle_three_locus_hw_exposures are exposure._group_exposures and
compute_hw_exposures as they were, when the OD frame (an OracleLociExposures)
held H, W and HW rows and sorted once per (locus, stratum), before it held
the HW rows alone.
oracle_group_records, oracle_columns, oracle_extreme_group_gap,
oracle_atkinson, oracle_atkinson_pipeline, oracle_threshold_share and
oracle_threshold_rows are the record regrouping, the attribute-to-column
builder, the record gap, the per-epsilon checks and the per-group threshold
shares that the frame's array columns, the checked-once Atkinson curve and
the one-compress threshold kernel replaced; oracle_gap_and_atkinson_blocks is
the disparity stage's gaps.csv and atkinson.csv emission built from them.
oracle_composition_blocks is the bins.csv emission that ranked each stratum's
tracts with its own stable sorts and summed each bin in a loop; the
pipeline's one ranking per table, shared by its strata, is held to it.
"""
from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from hwexposure import (biasstats, disparity, exposure, geometry, grids, ingest, pipeline, synth,
                        zonal)
from hwexposure.errors import DegenerateSliceError, FormatError

Vertex = tuple[float, float]
Ring = tuple[Vertex, ...]
Rect = tuple[float, float, float, float]  # x0, y0, x1, y1
HalfPlane = tuple[float, float, float]  # keep a*x + b*y <= c

HW_WEIGHTS = 0.206  # the work share of the paper's home/work time split (0.794/0.206)


def normalize_ring(vertices: Iterable[Sequence[float]]) -> Ring:
    """Return a closed ring (first vertex repeated last) with >= 3 distinct vertices.

    Accepts open or closed input; raises FormatError when fewer than three
    distinct vertices remain.
    """
    pts = [(float(v[0]), float(v[1])) for v in vertices]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(set(pts)) < 3:
        raise FormatError(
            f"ring needs >= 3 distinct vertices, got {len(set(pts))}"
        )
    return tuple(pts) + (pts[0],)


def _open(ring: Ring) -> list[Vertex]:
    # Drop the closing duplicate for edge-walking algorithms.
    return list(ring[:-1]) if ring[0] == ring[-1] else list(ring)


def signed_ring_area(ring: Ring) -> float:
    """Signed shoelace area in rational arithmetic, rounded to float once;
    positive for counter-clockwise rings. A float shoelace about (0, 0) loses
    digits to cancellation in a ring far from the origin."""
    pts = _exact_ring(_open(ring))
    return float(sum(x0 * y1 - x1 * y0
                     for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])) / 2)


def polygon_area(exterior: Iterable[Sequence[float]],
                 holes: Iterable[Iterable[Sequence[float]]] = ()) -> float:
    """Area of a polygon with optional holes: |exterior| minus hole areas.

    Raises FormatError for rings with fewer than 3 distinct vertices or zero
    area (collinear rings).
    """
    ext = normalize_ring(exterior)
    area = abs(signed_ring_area(ext))
    if area == 0.0:
        raise FormatError("ring has zero area")
    for hole in holes:
        h = normalize_ring(hole)
        h_area = abs(signed_ring_area(h))
        if h_area == 0.0:
            raise FormatError("hole ring has zero area")
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
            raise FormatError("exterior ring has zero area")

    def area(self) -> float:
        return polygon_area(self.exterior, self.holes)


@dataclass(frozen=True)
class TractGeometry:
    """A census tract: an 11-digit GEOID and one or more polygon parts."""

    geoid: str
    parts: tuple[PolygonPart, ...]

    def __post_init__(self) -> None:
        if not geometry.is_tract_geoid(self.geoid):
            raise FormatError(f"tract geoid must be 11 ASCII digits, got {self.geoid!r}")
        if not self.parts:
            raise FormatError(f"tract {self.geoid} has no polygons")

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
    """Exact intersection area between two polygon sets, by clipping the
    subject against each fan triangle of each clip ring.

    The clip set's parts must be mutually disjoint; overlapping clip parts
    would be double counted.
    """
    box = parts_bbox(subject)
    total = 0.0
    for part in clip:
        total += _ring_overlap(subject, box, part.exterior)
        for hole in part.holes:
            total -= _ring_overlap(subject, box, hole)
    return max(total, 0.0)


def counter_clockwise(parts: Sequence[PolygonPart]) -> list[PolygonPart]:
    """The parts with every ring, holes included, turned counter-clockwise:
    the orientation overlap_area's fan signs assume for clip rings."""
    def ccw(ring):
        return ring if signed_ring_area(ring) > 0.0 else ring[::-1]

    return [PolygonPart(exterior=ccw(p.exterior), holes=tuple(map(ccw, p.holes))) for p in parts]


def _oracle_parts(geom: dict) -> tuple[PolygonPart, ...]:
    def part(coords):
        if not coords:
            raise FormatError("polygon has no rings")
        return PolygonPart(exterior=normalize_ring(coords[0]),
                           holes=tuple(normalize_ring(r) for r in coords[1:]))

    gtype = geom.get("type")
    coords = geom.get("coordinates")
    if gtype == "Polygon":
        return (part(coords),)
    if gtype == "MultiPolygon":
        return tuple(part(poly) for poly in coords)
    raise FormatError(f"unsupported geometry type {gtype!r} (need Polygon/MultiPolygon)")


def oracle_read_tracts_geojson(path: str) -> list[TractGeometry]:
    """Tracts of a GeoJSON FeatureCollection as tuple geometry, in file order."""
    with open(path, encoding="utf-8") as fh:
        features = json.load(fh)["features"]
    return [TractGeometry(geoid=feat["properties"]["GEOID"],
                          parts=_oracle_parts(feat.get("geometry") or {}))
            for feat in features]


def oracle_read_mask_geojson(path: str) -> list[PolygonPart]:
    """Mask polygons of a GeoJSON FeatureCollection as tuple geometry."""
    with open(path, encoding="utf-8") as fh:
        features = json.load(fh)["features"]
    return [p for feat in features for p in _oracle_parts(feat.get("geometry") or {})]


def _coordinates(part: PolygonPart) -> list:
    return [[[float(x), float(y)] for x, y in ring] for ring in (part.exterior, *part.holes)]


def tract_set(tracts: Sequence[TractGeometry]) -> geometry.PolygonSet:
    """The columnar geometry of tuple-geometry tracts, ordered by geoid."""
    return geometry.polygon_set("<tracts>", [[_coordinates(p) for p in t.parts] for t in tracts],
                                [t.geoid for t in tracts])


def mask_set(parts: Sequence[PolygonPart]) -> geometry.PolygonSet:
    """The columnar geometry of tuple-geometry mask polygons."""
    return geometry.polygon_set("<mask>", [[_coordinates(p) for p in parts]])


def zonal_weighted_mean(grid, tract: TractGeometry) -> float | None:
    """Coverage-weighted mean of grid values under one tract polygon; None
    without valid coverage."""
    coverage = zonal.tract_coverage(tract_set([tract]), grid)
    return surface_entries(zonal.build_tract_surface(grid, coverage, 0, None)).get(tract.geoid)


def random_star_polygon(rng, cx, cy, r_lo, r_hi, n_verts):
    """Random simple polygon: jittered even angular spacing keeps gaps < pi."""
    jitter = rng.uniform(0.08, 0.92, size=n_verts)
    angles = 2.0 * math.pi * (np.arange(n_verts) + jitter) / n_verts
    radii = rng.uniform(r_lo, r_hi, size=n_verts)
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]


def points_in_ring(px: np.ndarray, py: np.ndarray, ring) -> np.ndarray:
    """Vectorized even-odd crossing test for a single ring."""
    verts = list(ring)
    if verts[0] == verts[-1]:
        verts = verts[:-1]
    inside = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        crosses = (y0 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x1 - x0) * (py - y0) / (y1 - y0) + x0
        inside ^= crosses & (px < xint)
    return inside


def points_in_parts(px: np.ndarray, py: np.ndarray, parts) -> np.ndarray:
    """Membership in a polygon set with holes (exterior minus holes, any part)."""
    inside = np.zeros(px.shape, dtype=bool)
    for part in parts:
        member = points_in_ring(px, py, part.exterior)
        for hole in part.holes:
            member &= ~points_in_ring(px, py, hole)
        inside |= member
    return inside


def _rect_halfplanes(rect):
    x0, y0, x1, y1 = rect
    return ((-1.0, 0.0, -x0), (1.0, 0.0, x1), (0.0, -1.0, -y0), (0.0, 1.0, y1))


def cell_coverage(parts, cell) -> float:
    """Fraction of a rectangular cell covered by the polygon, in [0, 1]."""
    x0, y0, x1, y1 = cell
    if x1 <= x0 or y1 <= y0:
        raise FormatError(f"cell must have positive extent: {cell}")
    hps = _rect_halfplanes(cell)
    covered = sum(_part_area_in(p, hps) for p in parts)
    frac = covered / ((x1 - x0) * (y1 - y0))
    return min(max(frac, 0.0), 1.0)


def _exact_ring(ring):
    return tuple((Fraction(x), Fraction(y)) for x, y in ring)


def exact_area(parts) -> float:
    """Polygon area from the shoelace formula in rational arithmetic, each
    ring's area rounded to float once; parts add, holes subtract."""
    return float(sum(
        abs(Fraction(signed_ring_area(p.exterior)))
        - sum(abs(Fraction(signed_ring_area(h))) for h in p.holes)
        for p in parts
    ))


def oracle_zonal_mean(grid, tract, exact=False):
    """Clip the tract against every grid cell of its bounding box, one at a
    time; the coverage-weighted mean over valid cells, or None without any.

    With ``exact``, the same clipping runs in rational arithmetic on the exact
    lattice cell ``origin + index * size``, and each ring's clipped area is
    rounded to float once. The float kernel loses ~1e-16 of the coordinates' magnitude per
    operation, which is more than 1e-12 of a sliver's covered area.
    """
    minx, miny, maxx, maxy = parts_bbox(tract.parts)
    col0 = max(int(math.floor((minx - grid.origin_x) / grid.cell_width)), 0)
    col1 = min(int(math.ceil((maxx - grid.origin_x) / grid.cell_width)), grid.values.shape[1])
    row0 = max(int(math.floor((miny - grid.origin_y) / grid.cell_height)), 0)
    row1 = min(int(math.ceil((maxy - grid.origin_y) / grid.cell_height)), grid.values.shape[0])
    cell_area = grid.cell_width * grid.cell_height
    if exact:
        rings = [(_exact_ring(p.exterior), [_exact_ring(h) for h in p.holes]) for p in tract.parts]
        ox, oy = Fraction(grid.origin_x), Fraction(grid.origin_y)
        cw, ch = Fraction(grid.cell_width), Fraction(grid.cell_height)
    num = 0.0
    den = 0.0
    vmin = math.inf
    vmax = -math.inf
    for row in range(row0, row1):
        for col in range(col0, col1):
            if np.isnan(grid.values[row, col]):
                continue
            if exact:
                hps = tuple((Fraction(a), Fraction(b), c) for a, b, c in _rect_halfplanes(
                    (ox + col * cw, oy + row * ch, ox + (col + 1) * cw, oy + (row + 1) * ch)))
                covered = sum(_clipped_area(ext, hps) - sum(_clipped_area(h, hps) for h in holes)
                              for ext, holes in rings)
                frac = min(max(float(covered / (cw * ch)), 0.0), 1.0)
            else:
                x0 = grid.origin_x + col * grid.cell_width
                y0 = grid.origin_y + row * grid.cell_height
                frac = cell_coverage(tract.parts,
                                     (x0, y0, x0 + grid.cell_width, y0 + grid.cell_height))
            if frac == 0.0:
                continue
            value = float(grid.values[row, col])
            area = frac * cell_area
            num += value * area
            den += area
            vmin = min(vmin, value)
            vmax = max(vmax, value)
    if den == 0.0:
        return None
    return min(max(num / den, vmin), vmax)


def _oracle_line_crossings(a0: np.ndarray, a1: np.ndarray):
    """For each edge running a0 -> a1 along one axis, every integer line
    strictly between its ends: (edge index, line, parameter t in (0, 1))."""
    lo = np.floor(np.minimum(a0, a1))
    count = np.maximum(np.ceil(np.maximum(a0, a1)) - lo - 1.0, 0.0).astype(np.int64)
    edge = np.repeat(np.arange(len(count)), count)
    line = lo[edge] + 1.0 + (np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count))
    return edge, line, (line - a0[edge]) / (a1[edge] - a0[edge])


def _oracle_chunk_coverage(gx, gy, ring_len, ring_tract, ring_hole, col0, row0, width, height):
    """The coverage kernel before it took oriented edges: its own per-ring
    shoelace sign in cell units, turned into a per-edge sign."""
    vert_tract = np.repeat(ring_tract, ring_len)
    u = gx - col0[vert_tract]
    v = gy - row0[vert_tract]
    last = np.cumsum(ring_len) - 1
    start = np.ones(len(u), dtype=bool)
    start[last] = False
    e0 = np.flatnonzero(start)
    ring_edges = ring_len - 1
    edge_ring = np.repeat(np.arange(len(ring_len)), ring_edges)
    u0, v0, u1, v1 = u[e0], v[e0], u[e0 + 1], v[e0 + 1]
    twice_area = np.add.reduceat(u0 * v1 - u1 * v0, np.cumsum(ring_edges) - ring_edges)
    sign = (np.where(ring_hole, 1.0, -1.0) * np.sign(twice_area))[edge_ring]
    steep = (v0 != v1) & (sign != 0.0)
    u0, v0, u1, v1, sign = u0[steep], v0[steep], u1[steep], v1[steep], sign[steep]
    edge_tract = ring_tract[edge_ring[steep]]

    ex, xline, xt = _oracle_line_crossings(u0, u1)
    ey, yline, yt = _oracle_line_crossings(v0, v1)
    ends = np.arange(len(u0))
    edge = np.concatenate((ends, ex, ey, ends))
    t = np.concatenate((np.zeros(len(u0)), xt, yt, np.ones(len(u0))))
    u = np.concatenate((u0, xline, u0[ey] + yt * (u1[ey] - u0[ey]), u1))
    v = np.concatenate((v0, v0[ex] + xt * (v1[ex] - v0[ex]), yline, v1))
    order = np.lexsort((t, edge))
    edge, u, v = edge[order], u[order], v[order]
    piece = np.flatnonzero(edge[1:] == edge[:-1])
    dy = v[piece + 1] - v[piece]
    keep = dy != 0.0
    piece, dy = piece[keep], dy[keep] * sign[edge[piece[keep]]]
    tract = edge_tract[edge[piece]]
    um = 0.5 * (u[piece] + u[piece + 1])
    col = np.clip(np.floor(um), 0, width[tract] - 1)
    row = np.clip(np.floor(0.5 * (v[piece] + v[piece + 1])), 0, height[tract] - 1)
    partial = dy * (col + 1.0 - um)

    stride = width + 1
    cells = height * stride
    base = np.cumsum(cells) - cells
    idx = base[tract] + row.astype(np.int64) * stride[tract] + col.astype(np.int64)
    buf = np.bincount(np.concatenate((idx, idx + 1)),
                      weights=np.concatenate((partial, dy - partial)), minlength=int(cells.sum()))
    row_width = np.repeat(stride, height)
    row_start = np.cumsum(row_width) - row_width
    for w in np.flatnonzero(np.bincount(row_width)).tolist():
        at = row_start[row_width == w][:, None] + np.arange(w)
        buf[at] = np.cumsum(buf[at], axis=1)

    pos = np.flatnonzero(buf > zonal._MIN_FRACTION)
    tract = np.searchsorted(base, pos, side="right") - 1
    r, c = np.divmod(pos - base[tract], stride[tract])
    in_bbox = c < width[tract]
    return tract[in_bbox], r[in_bbox], c[in_bbox], np.minimum(buf[pos[in_bbox]], 1.0)


def oracle_tract_coverage(tracts: geometry.PolygonSet, grid) -> zonal.TractCoverage:
    """zonal.tract_coverage as it was before the coverage kernel shared the
    overlap kernel's oriented edges: whole-set cell coordinates, each tract's
    whole cell box from a min/max reduceat over them, off the grid too, the
    per-ring sign above, and the covered area over that box as
    ``polygon_area``."""
    n_tracts = len(tracts.ids)
    ring_len = np.diff(tracts.ring_ptr)
    ring_tract, ring_hole = tracts.ring_owner, tracts.ring_hole
    gx = (tracts.xy[:, 0] - grid.origin_x) / grid.cell_width
    gy = (tracts.xy[:, 1] - grid.origin_y) / grid.cell_height
    tract_ring = np.searchsorted(ring_tract, np.arange(n_tracts + 1))
    tract_vertex = tracts.ring_ptr[tract_ring]
    first = tract_vertex[:-1]
    col0 = np.floor(np.minimum.reduceat(gx, first))
    row0 = np.floor(np.minimum.reduceat(gy, first))
    width = (np.ceil(np.maximum.reduceat(gx, first)) - col0).astype(np.int64)
    height = (np.ceil(np.maximum.reduceat(gy, first)) - row0).astype(np.int64)
    bounds = zonal._runs(n_tracts, (height * (width + 1), zonal._CHUNK_CELLS),
                         (np.diff(tract_vertex), zonal._CHUNK_VERTICES))

    cell_area = grid.cell_width * grid.cell_height
    polygon_area = np.zeros(n_tracts)
    out_tract, out_cell, out_frac = [], [], []
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        va, vb, ra, rb = tract_vertex[ta], tract_vertex[tb], tract_ring[ta], tract_ring[tb]
        tract, r, c, frac = _oracle_chunk_coverage(
            gx[va:vb], gy[va:vb], ring_len[ra:rb], ring_tract[ra:rb] - ta, ring_hole[ra:rb],
            col0[ta:tb], row0[ta:tb], width[ta:tb], height[ta:tb])
        polygon_area[ta:tb] = np.bincount(tract, weights=frac, minlength=tb - ta) * cell_area
        tract += ta
        row = row0[tract].astype(np.int64) + r
        col = col0[tract].astype(np.int64) + c
        n_rows, n_cols = grid.values.shape
        on_grid = (row >= 0) & (row < n_rows) & (col >= 0) & (col < n_cols)
        out_tract.append(tract[on_grid])
        out_cell.append(row[on_grid] * n_cols + col[on_grid])
        out_frac.append(frac[on_grid])
    counts = np.bincount(np.concatenate(out_tract), minlength=n_tracts)
    return zonal.TractCoverage(
        lattice=grid.lattice,
        ids=tracts.ids,
        tract_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        cell_idx=np.concatenate(out_cell).astype(np.int64),
        area=np.concatenate(out_frac) * cell_area,
        polygon_area=polygon_area,
    )


def oracle_bin_curve(tracts, n_bins: int) -> list[tuple[int, float]]:
    """(n_tracts, exposure) per bin of one group's composition curve.

    ``tracts`` are (geoid, group fraction, group count, concentration); they
    are sorted by (fraction, geoid), and each bin's exposure is
    sum(concentration * count) / sum(count) over its tracts, NaN when the
    count sum is 0.
    """
    ordered = sorted(tracts, key=lambda t: (t[1], t[0]))
    bins = []
    start = 0
    for size in disparity._bin_sizes(len(ordered), n_bins):
        chunk = ordered[start:start + size]
        start += size
        counts = np.array([t[2] for t in chunk], dtype=np.float64)
        concs = np.array([t[3] for t in chunk], dtype=np.float64)
        total = float(np.sum(counts))
        exposure = float(np.sum(concs * counts)) / total if total > 0.0 else math.nan
        bins.append((size, exposure))
    return bins


def oracle_decile_shares(tracts) -> tuple[list[float], float]:
    """Mean group fraction per concentration-ranked decile of one group, and
    the top-minus-bottom decile difference.

    ``tracts`` are (geoid, group count, total count, concentration), ranked by
    (concentration, geoid).
    """
    ordered = sorted(tracts, key=lambda t: (t[3], t[0]))
    means = []
    start = 0
    for size in disparity._bin_sizes(len(ordered), 10):
        chunk = ordered[start:start + size]
        start += size
        fracs = np.array([t[1] / t[2] for t in chunk], dtype=np.float64)
        means.append(float(np.mean(fracs)))
    return means, means[-1] - means[0]


def oracle_state_rows(aligned) -> list[list]:
    """state_disparity.csv rows of one aligned table, scanning every tract for
    each state (the geoid's first two digits)."""
    year, locus = aligned.year, aligned.locus
    rows: list[list] = []
    if len(aligned.geoids) == 0:
        return rows
    totals = aligned.totals.astype(float)
    conc = aligned.values(locus)
    national_mean = float((conc * totals).sum()) / float(totals.sum())
    geoids = geometry.geoid_text(aligned.geoids)
    states = sorted({g[:2] for g in geoids})
    for st in states:
        idx = [i for i, g in enumerate(geoids) if g[:2] == st]
        st_totals = totals[idx]
        if st_totals.sum() == 0:
            continue
        st_conc = conc[idx]
        state_mean = float((st_conc * st_totals).sum()) / float(st_totals.sum())
        for schema in ingest.RAC_WAC_SCHEMAS:
            for code, label in schema.categories:
                if code not in aligned.codes:
                    continue
                weights = aligned.counts[aligned.codes.index(code)][idx].astype(float)
                if weights.sum() == 0:
                    continue
                group_mean = float((st_conc * weights).sum()) / float(weights.sum())
                value = disparity.state_disparity(group_mean, state_mean, national_mean)
                rows.append([year, st, locus, schema.characteristic, label, repr(float(value))])
    return rows


def reference_csv(rows) -> str:
    """CSV text of ``rows`` from csv.writer with "\\n" line ends, each float
    cell as its repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([repr(float(c)) if isinstance(c, (float, np.floating)) else c
                         for c in row])
    return out.getvalue()


def oracle_composition_rows(year, locus, stratum, groups, curves, shares) -> list[list]:
    """bins.csv rows of one (locus, stratum), one list per row: per group, a
    composition curve per (n_bins, curve) in ``curves``, the 10-bin one with
    its decile contrast, then the decile ``shares`` unless they are None."""
    rows: list[list] = []
    for g, (characteristic, label) in enumerate(groups):
        for n_bins, curve in curves:
            contrast = disparity.decile_contrast(curve) if n_bins == 10 else None
            contrast_text = "" if contrast is None else repr(float(contrast[g]))
            rows += [
                [year, "composition", locus, stratum, characteristic, label,
                 n_bins, b + 1, size, repr(float(value)), contrast_text]
                for b, (size, value) in enumerate(
                    zip(curve.n_tracts, curve.exposure[g].tolist()))
            ]
        if shares is not None:
            difference = repr(float(shares.difference[g]))
            rows += [
                [year, "concentration", locus, stratum, characteristic, label,
                 10, d + 1, "", repr(float(value)), difference]
                for d, value in enumerate(shares.means[g].tolist())
            ]
    return rows


def read_surface_csv(path: str) -> zonal.TractSurface:
    """Read back a surface_<year>.csv report."""
    entries: dict[str, float] = {}
    year: int | None = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["geoid", "year", "pm25"]:
            raise FormatError(f"{path}: expected header 'geoid,year,pm25'")
        for row in reader:
            year = int(row["year"])
            entries[row["geoid"]] = float(row["pm25"])
    if year is None:
        raise FormatError(f"{path}: no data rows")
    return tract_surface(year, entries)


def write_xyz_grid(asc_path: str, xyz_path: str, seed: int = 0) -> None:
    """Write the valued cells of an ESRI ASCII grid as cell-centre
    ``x,y,value`` points in a shuffled order, leaving its nodata cells out."""
    grid = grids.read_asc(asc_path)
    rows, cols = np.nonzero(~np.isnan(grid.values))
    lines = [f"{grid.origin_x + (c + 0.5) * grid.cell_width!r},"
             f"{grid.origin_y + (r + 0.5) * grid.cell_height!r},{v!r}\n"
             for r, c, v in zip(rows.tolist(), cols.tolist(), grid.values[rows, cols].tolist())]
    np.random.default_rng(seed).shuffle(lines)
    with open(xyz_path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n" + "".join(lines))


def oracle_xyz_points(path: str) -> tuple[list[float], list[float], list[float]]:
    """The x, y and value lists of an XYZ file's points, read as a row reader:
    one csv.DictReader row and three Python floats per point."""
    xs: list[float] = []
    ys: list[float] = []
    vs: list[float] = []
    with ingest.open_input(path) as fh:
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
    return xs, ys, vs


def oracle_read_xyz_csv(path: str) -> grids.ConcentrationGrid:
    """grids.read_xyz_csv as a row reader: oracle_xyz_points, each point
    placed in turn, so the later of two points at one position wins."""
    xs, ys, vs = oracle_xyz_points(path)
    ux, uy = np.array(sorted(set(xs))), np.array(sorted(set(ys)))
    cell_w = _oracle_uniform_spacing(ux, path, "x")
    cell_h = _oracle_uniform_spacing(uy, path, "y")
    n_cols = int(round((ux[-1] - ux[0]) / cell_w)) + 1
    n_rows = int(round((uy[-1] - uy[0]) / cell_h)) + 1
    values = np.full((n_rows, n_cols), np.nan)
    for x, y, v in zip(xs, ys, vs):
        col = int(round((x - ux[0]) / cell_w))
        row = int(round((y - uy[0]) / cell_h))
        values[row, col] = v
    if (values[~np.isnan(values)] < 0).any():
        raise FormatError(f"{path}: concentrations must be non-negative")
    return grids.ConcentrationGrid(ux[0] - cell_w / 2.0, uy[0] - cell_h / 2.0, cell_w, cell_h,
                                   values)


def _oracle_uniform_spacing(coords: np.ndarray, path: str, axis: str) -> float:
    if coords.size == 1:
        return 1.0
    diffs = np.diff(coords)
    step = diffs.min()
    if step <= 0 or not np.allclose(np.round(diffs / step), diffs / step, atol=1e-6):
        raise FormatError(f"{path}: {axis} coordinates are not on a regular lattice")
    return float(step)


class MaskedGrid(NamedTuple):
    """grids.ConcentrationGrid as it was: its shape stored beside zero-filled
    ``values`` and a bool ``nodata`` mask, True where a cell has no data."""

    origin_x: float
    origin_y: float
    cell_width: float
    cell_height: float
    n_rows: int
    n_cols: int
    values: np.ndarray
    nodata: np.ndarray

    @property
    def lattice(self) -> tuple[float, float, float, float, int, int]:
        return (self.origin_x, self.origin_y, self.cell_width, self.cell_height,
                self.n_rows, self.n_cols)


def masked_read_asc(path: str) -> MaskedGrid:
    """grids.read_asc as it was, when it flipped a copy of the cells, took
    their nodata mask a second time and zero-filled them."""
    header, values = _masked_read_asc(path, fast=True)
    if values is None:
        header, values = _masked_read_asc(path, fast=False)
    values = values[::-1].copy()  # file is top-down; store bottom-up
    nodata = _masked_is_nodata(values, header)
    values = np.where(nodata, 0.0, values)
    return _masked_grid(path, header["xllcorner"], header["yllcorner"], header["cellsize"],
                        header["cellsize"], values, nodata)


def _masked_is_nodata(values: np.ndarray, header: dict[str, float]) -> np.ndarray:
    marker = header.get("nodata_value", -9999.0)
    return np.isnan(values) if math.isnan(marker) else values == marker


def _masked_grid(path: str, origin_x: float, origin_y: float, cell_width: float,
                 cell_height: float, values: np.ndarray, nodata: np.ndarray) -> MaskedGrid:
    if cell_width <= 0 or cell_height <= 0:
        raise FormatError(f"{path}: cell dimensions must be positive")
    if (values[~nodata] < 0).any():
        raise FormatError(f"{path}: concentrations must be non-negative")
    values.setflags(write=False)
    nodata.setflags(write=False)
    return MaskedGrid(origin_x, origin_y, cell_width, cell_height, *values.shape, values, nodata)


def _masked_read_asc(path: str, fast: bool) -> tuple[dict[str, float], np.ndarray | None]:
    """The header and the top-down cells, as grids._read_asc read them before
    it marked nodata cells itself."""
    header: dict[str, float] = {}
    data: list[float] | np.ndarray = []
    line_starts: list[int] = []
    line_numbers: list[int] = []
    with ingest.open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not data and key in grids._ASC_KEYWORDS:
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
            elif fast:
                try:
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
    bad = ~np.isfinite(flat) & ~_masked_is_nodata(flat, header)
    if bad.any():
        if fast:
            return header, None
        first = int(np.argmax(bad))
        lineno = line_numbers[bisect.bisect_right(line_starts, first) - 1]
        raise FormatError(f"{path}:{lineno}: non-finite cell value {float(flat[first])!r}")
    return header, flat.reshape(n_rows, n_cols)


def masked_read_xyz_csv(path: str) -> MaskedGrid:
    """grids.read_xyz_csv as it was, when it filled a zero array and cleared an
    all-True nodata mask at each point's cell; its points are those of the row
    reader oracle_xyz_points, so its faults do not come from grids."""
    xs, ys, vs = map(np.array, oracle_xyz_points(path))
    (x0, cell_w, n_cols), (y0, cell_h, n_rows) = (grids._axis(xs, path, "x"),
                                                  grids._axis(ys, path, "y"))
    try:
        values = np.zeros((n_rows, n_cols), dtype=np.float64)
        nodata = np.ones((n_rows, n_cols), dtype=bool)
    except (MemoryError, ValueError) as exc:
        raise FormatError(
            f"{path}: a lattice of {n_rows} x {n_cols} cells cannot be allocated") from exc
    cells = (np.rint((ys - y0) / cell_h).astype(np.int64) * n_cols
             + np.rint((xs - x0) / cell_w).astype(np.int64))
    order = np.argsort(cells)
    starts = np.flatnonzero(np.append(True, np.diff(cells[order]) != 0))
    won = np.maximum.reduceat(order, starts)
    values.ravel()[cells[won]] = vs[won]
    nodata.ravel()[cells[won]] = False
    return _masked_grid(path, x0 - cell_w / 2.0, y0 - cell_h / 2.0, cell_w, cell_h, values,
                        nodata)


def tract_surface(year: int, entries: dict[str, float],
                  excluded: Sequence[str] = ()) -> zonal.TractSurface:
    """The TractSurface of a {geoid: concentration} dict and excluded geoids:
    the run's tracts are both, and the excluded ones are NaN."""
    geoids = sorted({*entries, *excluded})
    values = np.array([entries.get(g, math.nan) for g in geoids], dtype=np.float64)
    return zonal.TractSurface(year, np.array(geoids, dtype=np.int64), values, {}, None)


def surface_entries(surface: zonal.TractSurface) -> dict[str, float]:
    """A surface's {geoid: concentration} of its valued tracts, geoid-ascending."""
    valued = ~np.isnan(surface.values)
    return dict(zip(geometry.geoid_text(surface.ids[valued]), surface.values[valued].tolist()))


def strata_codes(ids: np.ndarray, classification: dict[str, str]) -> np.ndarray:
    """The int8 stratum code (an index into zonal.STRATA) of each int64 tract
    id from a {geoid: stratum} dict, -1 for a tract it does not list."""
    return np.array([zonal.STRATA.index(classification[g]) if g in classification else -1
                     for g in geometry.geoid_text(ids)], dtype=np.int8)


def with_strata(target, classification: dict[str, str]):
    """A TractSurface, or an AlignedTable with its surface, carrying the
    stratum codes of a {geoid: stratum} dict (strata_codes)."""
    if isinstance(target, exposure.AlignedTable):
        return target._replace(surface=with_strata(target.surface, classification))
    return zonal.TractSurface(target.year, target.ids, target.values, target.completeness,
                              strata_codes(target.ids, classification))


def key_text(keys: np.ndarray) -> list[str]:
    """A WorkerTable key array as text: geocodes as read, or tract ids as geoids."""
    if keys.dtype.kind == "i":
        return geometry.geoid_text(keys)
    return [k.decode("latin-1") if isinstance(k, bytes) else k for k in keys.tolist()]


def worker_table(rows, codes=None, n_keys=None) -> ingest.WorkerTable:
    """WorkerTable of (*keys, total, {code: count}) rows, as the readers
    build it; the columns are ``codes``, by default the first row's."""
    if codes is None:
        codes = tuple(rows[0][-1]) if rows else ()
    if n_keys is None:
        n_keys = len(rows[0]) - 2 if rows else 1
    return ingest.WorkerTable(
        keys=tuple(np.array([row[i] for row in rows], dtype=str) for i in range(n_keys)),
        totals=np.array([row[-2] for row in rows], dtype=np.int64),
        codes=tuple(codes),
        counts=np.array([[row[-1][code] for row in rows] for code in codes],
                        dtype=np.int64).reshape(len(codes), len(rows)),
    )


def table_rows(table: ingest.WorkerTable) -> list[tuple]:
    """(*keys, total, {code: count}) per row of a WorkerTable, keys as str."""
    keys = [key_text(k) for k in table.keys]
    counts = table.counts.tolist()
    return [
        (*(k[i] for k in keys), total,
         {code: counts[c][i] for c, code in enumerate(table.codes)})
        for i, total in enumerate(table.totals.tolist())
    ]


class _OracleValidator:
    """Per-row checks of the dict rollup; raises on the first offending row."""

    def __init__(self, schemas):
        self._schemas = schemas

    def check(self, key: str, total: int, counts: dict[str, int]) -> None:
        if total < 0:
            raise FormatError(f"row {key}: total: negative total {total}")
        for count in counts.values():
            if count < 0:
                raise FormatError(f"row {key}: negative count {count}")
        for schema in self._schemas:
            if not schema.partitions_total or not all(c in counts for c in schema.codes):
                continue
            subtotal = sum(counts[code] for code in schema.codes)
            if subtotal != total:
                raise FormatError(
                    f"row {key}: {schema.characteristic}: category sum {subtotal} != total {total}"
                )


def block_to_tract(geocode: str) -> str:
    """First 11 digits of a 15-digit block geocode."""
    if len(geocode) != 15 or not (geocode.isascii() and geocode.isdigit()):
        raise FormatError(f"block geocode must be 15 digits, got {geocode!r}")
    return geocode[:11]


def oracle_rollup(rows, schemas) -> dict[tuple[str, ...], tuple[int, dict[str, int]]]:
    """Validate (*keys, total, {code: count}) block rows one at a time and sum
    them per tract key in Python ints: {tract key tuple: (total, counts)},
    key-ascending."""
    validator = _OracleValidator(schemas)
    totals: dict[tuple[str, ...], int] = {}
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for *blocks, total, row_counts in rows:
        key = tuple(block_to_tract(block) for block in blocks)
        validator.check("->".join(blocks), total, row_counts)
        if key in totals:
            totals[key] += total
            acc = counts[key]
            for code, c in row_counts.items():
                acc[code] = acc.get(code, 0) + c
        else:
            totals[key] = total
            counts[key] = dict(row_counts)
    return {key: (totals[key], counts[key]) for key in sorted(totals)}


def oracle_join(entries: dict[str, float], tracts, schemas):
    """Join an oracle_rollup result to surface concentrations by dict lookup.

    Returns the resolved keys (ascending), their tracts' concentrations as
    one tuple per key, the int64 totals, the ((characteristic, label), int64 counts)
    groups in schema order among the codes of the resolved tracts, and the
    dropped worker total.
    """
    keys = []
    dropped = 0
    for key, (total, _) in tracts.items():
        if all(k in entries for k in key):
            keys.append(key)
        else:
            dropped += total
    keys.sort()
    concentrations = [tuple(entries[k] for k in key) for key in keys]
    totals = np.array([tracts[k][0] for k in keys], dtype=np.int64)
    present = {code for k in keys for code in tracts[k][1]}
    groups = [
        ((schema.characteristic, label),
         np.array([tracts[k][1].get(code, 0) for k in keys], dtype=np.int64))
        for schema in schemas for code, label in schema.categories if code in present
    ]
    return keys, concentrations, totals, groups, dropped


def _oracle_is_geocode(keys: np.ndarray) -> np.ndarray:
    """Whether each string of a ``U`` array is 15 ASCII digits."""
    chars = keys.view(np.uint32).reshape(len(keys), keys.dtype.itemsize // 4)
    digits = (chars[:, :15] >= ord("0")) & (chars[:, :15] <= ord("9"))
    return (digits.sum(axis=1) == 15) & (chars[:, 15:] == 0).all(axis=1)


def oracle_read_tracts(path: str, role: str) -> tuple[int, ingest.WorkerTable]:
    """ingest.read_tracts as it was with text keys: geocodes read as ``U16``,
    checked on their code points, cut to ``U11`` geoids and lexsorted as
    text. Only files that validate are expected here."""
    od = role == ingest.ORIGIN_DESTINATION
    schemas = ingest.OD_SCHEMAS if od else ingest.RAC_WAC_SCHEMAS
    key = "h_geocode" if role == ingest.RESIDENCE else "w_geocode"
    required = ["w_geocode", "h_geocode", "S000"] if od else [key, "C000"]
    keys = ["h_geocode", "w_geocode"] if od else [key]
    with ingest.open_input(path) as fh:
        header = next(csv.reader(fh))
        codes = ingest._resolve_columns(header, required, schemas, path)
        position = {name: i for i, name in enumerate(header)}
        dtype = np.dtype([*((k, "U16") for k in keys), ("counts", np.int64, (len(codes) + 1,))])
        data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          usecols=[position[c] for c in (*keys, required[-1], *codes)], ndmin=1)
    blocks = [data[k].copy() for k in keys]
    if not all(_oracle_is_geocode(b).all() for b in blocks):
        raise FormatError(f"{path}: a malformed geocode")
    counts = data["counts"]
    tracts = [b.astype("U11") for b in blocks]
    order = np.lexsort(tracts[::-1])
    tracts = [t[order] for t in tracts]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for t in tracts:
        first[1:] |= t[1:] != t[:-1]
    starts = np.flatnonzero(first)
    return len(data), ingest.WorkerTable(
        keys=tuple(t[starts] for t in tracts),
        totals=np.add.reduceat(counts[order, 0], starts),
        codes=tuple(codes),
        counts=np.add.reduceat(np.ascontiguousarray(counts[order, 1:].T), starts, axis=1),
    )


def oracle_weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = float(np.sum(weights))
    if len(values) == 0 or total <= 0.0:
        raise DegenerateSliceError("total weight is zero")
    mean = float(np.sum(values * weights)) / total
    return min(max(mean, float(values.min())), float(values.max()))


def oracle_weighted_percentile(values, weights, p: float) -> float:
    """Drop zero weights, argsort the rest (stable) and take the first value
    whose cumulative weight reaches p times the total."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    keep = wts > 0
    vals, wts = vals[keep], wts[keep]
    total = float(np.sum(wts))
    if vals.size == 0 or total <= 0.0:
        raise DegenerateSliceError("total weight is zero")
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    idx = int(np.searchsorted(cum, p * total, side="left"))
    return float(vals[min(idx, vals.size - 1)])


def oracle_stratum_masks(geoids, classification, strata) -> dict[str, np.ndarray]:
    """Per-row dict lookups in a {geoid: stratum} classification, ``geoids``
    being int64 tract ids."""
    masks = {}
    for stratum in strata:
        if stratum == exposure.ALL_STRATUM:
            masks[stratum] = np.ones(len(geoids), dtype=bool)
        elif classification is not None:
            masks[stratum] = np.array([classification.get(g) == stratum
                                       for g in geometry.geoid_text(geoids)], dtype=bool)
    return masks


def oracle_schema_groups(schemas: Sequence[ingest.GroupSchema], table: exposure.AlignedTable):
    """exposure.iter_groups as it was: (characteristic, label, counts) for
    the total population, then each schema category among the table's
    codes, in schema order."""
    yield exposure.ALL_GROUP[0], exposure.ALL_GROUP[1], table.totals
    row = {code: i for i, code in enumerate(table.codes)}
    for schema in schemas:
        for code, label in schema.categories:
            if code in row:
                yield schema.characteristic, label, table.counts[row[code]]


def oracle_classified_masks(table: exposure.AlignedTable, classification: np.ndarray | None,
                            strata: Sequence[str]) -> dict[str, np.ndarray]:
    """exposure.stratum_masks as it was: a boolean row mask per stratum of
    ``strata``, by the int8 code in ``classification`` (one per tract of the
    run) of each row's first tract; classified strata are skipped without a
    classification."""
    codes = None if classification is None else classification.take(table.index[0])
    masks = {}
    for stratum in strata:
        if stratum == exposure.ALL_STRATUM:
            masks[stratum] = np.ones(len(table.totals), dtype=bool)
        elif codes is not None:
            masks[stratum] = codes == zonal.STRATA.index(stratum)
    return masks


class OracleSurface(NamedTuple):
    """A TractSurface as it was before it spanned every tract of the run: the
    ``ids`` and ``values`` of that year's valued tracts only."""

    year: int
    ids: np.ndarray
    values: np.ndarray


def oracle_valued_surface(surface: zonal.TractSurface) -> OracleSurface:
    """The valued subset of a run-wide surface."""
    valued = ~np.isnan(surface.values)
    return OracleSurface(surface.year, surface.ids[valued], surface.values[valued])


def oracle_valued_join(surface: OracleSurface, table: ingest.WorkerTable,
                       loci: tuple[str, ...]) -> exposure.AlignedTable:
    """exposure._join as it was over a valued-subset surface: each key
    resolved by searchsorted among the valued ids, its index a position
    among them."""
    ids = surface.ids
    found = np.ones(len(table.totals), dtype=bool)
    positions = []
    for keys in table.keys:
        pos = np.searchsorted(ids, keys)
        hit = pos < len(ids)
        hit[hit] = ids[pos[hit]] == keys[hit]
        found &= hit
        positions.append(pos)
    codes = table.codes if found.any() else ()
    dropped = int(table.totals[~found].sum())
    return exposure.AlignedTable(surface, loci, tuple(pos[found] for pos in positions),
                                 table.totals[found], codes,
                                 table.counts[:len(codes)].compress(found, axis=1), dropped)


class OracleStrata(NamedTuple):
    """exposure.TractStrata as it was: the stratum of each classified tract,
    ``geoids`` (int64 tract ids) ascending and an int8 ``codes`` index into
    ``names``."""

    geoids: np.ndarray
    codes: np.ndarray
    names: tuple[str, ...]


def oracle_tract_strata(classification: dict[str, str]) -> OracleStrata:
    """exposure.tract_strata as it was: a {geoid: stratum} classification
    encoded as an OracleStrata."""
    geoids = sorted(classification)
    names = tuple(sorted(set(classification.values())))
    index = {name: k for k, name in enumerate(names)}
    codes = np.array([index[classification[g]] for g in geoids], dtype=np.int8)
    return OracleStrata(np.array(geoids, dtype=np.int64), codes, names)


def _oracle_codes(geoids: np.ndarray, classification: OracleStrata) -> np.ndarray:
    """exposure._codes as it was: the stratum code of each geoid, -1 for
    those without one."""
    known = classification.geoids
    if len(known) == 0:
        return np.full(len(geoids), -1, dtype=np.int8)
    pos = np.minimum(np.searchsorted(known, geoids), len(known) - 1)
    return np.where(known.take(pos) == geoids, classification.codes.take(pos), -1)


def oracle_searched_stratum_masks(table: exposure.AlignedTable,
                                  classification: OracleStrata | None,
                                  strata: Sequence[str]) -> dict[str, np.ndarray]:
    """exposure.stratum_masks as it was: the surface's tracts looked up in
    the classification by searchsorted, carried to the rows by the join."""
    masks = {}
    codes = None
    n = len(table.totals)
    for stratum in strata:
        if stratum == exposure.ALL_STRATUM:
            masks[stratum] = np.ones(n, dtype=bool)
        elif classification is not None:
            if codes is None:
                codes = _oracle_codes(table.surface.ids, classification).take(table.index[0])
            if stratum in classification.names:
                masks[stratum] = codes == classification.names.index(stratum)
            else:
                masks[stratum] = np.zeros(n, dtype=bool)
    return masks


@dataclass(frozen=True)
class ExposureRecord:
    """Weighted exposure summary for one (group, locus, stratum)."""

    year: int
    characteristic: str
    group: str
    locus: str
    stratum: str
    mean: float
    p10: float
    p90: float
    weight: float

    def __post_init__(self) -> None:
        if self.p10 > self.p90:
            raise ValueError(f"p10 {self.p10} > p90 {self.p90}")
        if self.weight < 0:
            raise ValueError(f"negative weight {self.weight}")

    @property
    def group_key(self) -> str:
        return exposure.format_group(self.characteristic, self.group)


@dataclass(frozen=True)
class ErrorRecord:
    """Misclassification error H - HW for one (group, stratum)."""

    year: int
    characteristic: str
    group: str
    stratum: str
    error: float
    percent_error: float

    @property
    def group_key(self) -> str:
        return exposure.format_group(self.characteristic, self.group)


def exposure_records(frame: exposure.GroupExposures) -> list[ExposureRecord]:
    """One record per row of a frame."""
    return [
        ExposureRecord(frame.year, frame.characteristic[r], frame.label[r], frame.locus,
                       frame.stratum[r], float(frame.mean[r]), float(frame.p10[r]),
                       float(frame.p90[r]), float(frame.weight[r]))
        for r in range(len(frame.weight))
    ]


def error_records(frame: exposure.GroupExposures) -> list[ErrorRecord]:
    return [
        ErrorRecord(frame.year, frame.characteristic[r], frame.label[r], frame.stratum[r],
                    float(frame.error[r]), float(frame.percent_error[r]))
        for r in range(len(frame.weight))
    ]


def frame_of(records: Sequence[ExposureRecord]) -> exposure.GroupExposures:
    """The frame of records of one year and locus, rows in record order."""
    (year, locus), = {(r.year, r.locus) for r in records}

    def column(name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in records], dtype=np.float64)

    return exposure.GroupExposures(
        year, [r.characteristic for r in records], [r.group for r in records],
        [r.stratum for r in records], locus, column("mean"), column("p10"), column("p90"),
        column("weight"))


def compute_hw_exposures(*args, **kwargs) -> tuple[list[ExposureRecord], list[ErrorRecord]]:
    """exposure.compute_hw_exposures as exposure and error record lists."""
    frame = exposure.compute_hw_exposures(*args, **kwargs)
    return exposure_records(frame), error_records(frame)


class OracleLociExposures(NamedTuple):
    """exposure.GroupExposures as it was: ``mean``, ``p10`` and ``p90`` are
    (loci x rows) matrices, one row per entry of ``loci``."""

    year: int
    characteristic: list[str]
    label: list[str]
    stratum: list[str]
    loci: tuple[str, ...]
    mean: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    weight: np.ndarray
    error: np.ndarray | None = None
    percent_error: np.ndarray | None = None


def oracle_slice_stats(values: np.ndarray, weights: np.ndarray,
                       ps: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """exposure.slice_stats as it was: every row of ``weights``, a (groups x
    values) matrix of worker counts over the whole slice with positive row
    totals, in one call. Returns the means and a (len(ps) x groups) matrix of
    picks: one stable argsort of the values for all rows, and each C-contiguous
    row summed pairwise and accumulated in order, in one reused scratch."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    totals = weights.sum(axis=1)
    scratch = np.multiply(weights, values, out=np.empty_like(weights))
    means = scratch.sum(axis=1) / totals
    low, high = values.min(), values.max()
    means = np.where(low > means, low, means)
    means = np.where(high < means, high, means)
    picks = np.empty((len(ps), len(totals)))
    if not ps:
        return means, picks
    order = exposure.stable_argsort(values)
    ranked = weights.take(order, axis=1, out=scratch, mode="clip")
    cum = np.cumsum(ranked, axis=1, out=scratch)
    for k, p in enumerate(ps):
        target = (p * totals)[:, None]
        hit = cum < target
        zero = target[:, 0] <= 0.0
        if zero.any():
            hit[zero] = cum[zero] <= target[zero]
        picks[k] = values.take(order.take(np.count_nonzero(hit, axis=1)))
    return means, picks


def oracle_matrix_group_exposures(table: exposure.AlignedTable, locus: str, values: np.ndarray,
                                  home: np.ndarray | None = None) -> exposure.GroupExposures:
    """exposure._group_exposures as it was: every group's counts stacked into
    one float64 (groups x rows) matrix, compressed per stratum to the groups
    with workers there, and one oracle_slice_stats call per stratum over its
    values, -0.0 read as 0.0 (and a second, sort-free one for the H means of
    ``home``)."""
    groups = list(exposure.iter_groups(table))
    counts = np.vstack([group_counts for *_, group_counts in groups], dtype=np.float64)
    characteristics, labels, strata_column = [], [], []
    weights, h_means, slices = [np.empty(0)], [np.empty(0)], [(np.empty(0), np.empty((2, 0)))]
    for stratum, mask in exposure.stratum_masks(table).items():
        w = counts.compress(mask, axis=1)
        weight = w.sum(axis=1)
        kept = np.flatnonzero(weight)
        if not kept.size:
            continue
        if kept.size < len(w):
            w = w.take(kept, axis=0)
        slices.append(oracle_slice_stats(values.compress(mask) + 0.0, w, (0.10, 0.90)))
        if home is not None:
            h_means.append(oracle_slice_stats(home.compress(mask), w, ())[0])
        weights.append(weight.take(kept))
        characteristics += [groups[g][0] for g in kept]
        labels += [groups[g][1] for g in kept]
        strata_column += [stratum] * kept.size
    means, picks = map(np.hstack, zip(*slices))
    frame = exposure.GroupExposures(table.year, characteristics, labels, strata_column, locus,
                                    means, *picks, np.concatenate(weights))
    if home is None:
        return frame
    h_mean = np.concatenate(h_means)
    error = h_mean - frame.mean
    with np.errstate(divide="ignore", invalid="ignore"):
        percent = np.where(h_mean != 0.0, 100.0 * error / h_mean, math.nan)
    return frame._replace(error=error, percent_error=percent)


def oracle_matrix_hw_exposures(pairs: exposure.AlignedTable,
                               work_fraction: float) -> exposure.GroupExposures:
    """exposure.compute_hw_exposures over oracle_matrix_group_exposures."""
    home = pairs.values("H")
    return oracle_matrix_group_exposures(
        pairs, "HW", exposure.hw_blend(home, pairs.values("W"), work_fraction), home)


def oracle_loci_group_exposures(table: exposure.AlignedTable,
                                loci: dict[str, np.ndarray]) -> OracleLociExposures:
    """exposure._group_exposures as it was: every group's weight and, per
    locus, its mean, p10 and p90 over that locus's row values; one weight
    matrix and one kernel call (so one sort) per (locus, stratum)."""
    groups = list(exposure.iter_groups(table))
    counts = np.vstack([group_counts for *_, group_counts in groups], dtype=np.float64)
    characteristics, labels, strata_column = [], [], []
    weights = [np.empty(0)]
    means, picks = [np.empty((len(loci), 0))], [np.empty((len(loci), 2, 0))]
    for stratum, mask in exposure.stratum_masks(table).items():
        w = counts.compress(mask, axis=1)
        weight = w.sum(axis=1)
        kept = np.flatnonzero(weight)
        if not kept.size:
            continue
        if kept.size < len(w):
            w = w.take(kept, axis=0)
        slices = [oracle_slice_stats(values.compress(mask), w, (0.10, 0.90))
                  for values in loci.values()]
        means.append(np.array([m for m, _ in slices]))
        picks.append(np.array([p for _, p in slices]))
        weights.append(weight.take(kept))
        characteristics += [groups[g][0] for g in kept]
        labels += [groups[g][1] for g in kept]
        strata_column += [stratum] * kept.size
    picks = np.concatenate(picks, axis=2)
    return OracleLociExposures(table.year, characteristics, labels, strata_column, tuple(loci),
                               np.concatenate(means, axis=1), picks[:, 0], picks[:, 1],
                               np.concatenate(weights))


def oracle_three_locus_hw_exposures(pairs: exposure.AlignedTable,
                                    work_fraction: float) -> OracleLociExposures:
    """exposure.compute_hw_exposures as it was: H, W and HW over the OD
    population, each sorted per stratum, and the error of the H and HW rows."""
    home, work = pairs.values("H"), pairs.values("W")
    frame = oracle_loci_group_exposures(
        pairs, {"H": home, "W": work, "HW": exposure.hw_blend(home, work, work_fraction)})
    h_mean, hw_mean = frame.mean[0], frame.mean[2]
    error = h_mean - hw_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        percent = np.where(h_mean != 0.0, 100.0 * error / h_mean, math.nan)
    return frame._replace(error=error, percent_error=percent)


def oracle_group_exposures(aligned, schemas, classification=None,
                           strata=(exposure.ALL_STRATUM,)) -> list:
    records = []
    for stratum, mask in oracle_stratum_masks(aligned.geoids, classification, strata).items():
        conc = aligned.values(aligned.locus)[mask]
        for characteristic, label, weights in oracle_schema_groups(schemas, aligned):
            w = weights[mask]
            if int(w.sum()) == 0:
                continue
            records.append(ExposureRecord(
                year=aligned.year, characteristic=characteristic, group=label,
                locus=aligned.locus, stratum=stratum,
                mean=oracle_weighted_mean(conc, w.astype(np.float64)),
                p10=oracle_weighted_percentile(conc, w, 0.10),
                p90=oracle_weighted_percentile(conc, w, 0.90),
                weight=float(w.sum()),
            ))
    return records


def oracle_hw_exposures(pairs, schemas, work_fraction, classification=None,
                        strata=(exposure.ALL_STRATUM,)):
    home, work = pairs.values("H"), pairs.values("W")
    blended = exposure.hw_blend(home, work, work_fraction)
    records, errors = [], []
    for stratum, mask in oracle_stratum_masks(pairs.geoids, classification, strata).items():
        vh, vw, vb = home[mask], work[mask], blended[mask]
        for characteristic, label, group_counts in oracle_schema_groups(schemas, pairs):
            w = group_counts[mask]
            if int(w.sum()) == 0:
                continue
            wf = w.astype(np.float64)
            h_mean = oracle_weighted_mean(vh, wf)
            w_mean = oracle_weighted_mean(vw, wf)
            hw_mean = oracle_weighted_mean(vb, wf)
            for locus, vals, mean in (("H", vh, h_mean), ("W", vw, w_mean), ("HW", vb, hw_mean)):
                records.append(ExposureRecord(
                    year=pairs.year, characteristic=characteristic, group=label,
                    locus=locus, stratum=stratum, mean=mean,
                    p10=oracle_weighted_percentile(vals, w, 0.10),
                    p90=oracle_weighted_percentile(vals, w, 0.90),
                    weight=float(w.sum()),
                ))
            error = h_mean - hw_mean
            percent = 100.0 * error / h_mean if h_mean != 0.0 else math.nan
            errors.append(ErrorRecord(
                year=pairs.year, characteristic=characteristic, group=label,
                stratum=stratum, error=error, percent_error=percent,
            ))
    return records, errors


def oracle_group_records(records: Iterable[ExposureRecord]):
    by_key: dict[tuple[str, str, str], list[ExposureRecord]] = {}
    all_means: dict[tuple[str, str], float] = {}
    for r in records:
        if r.locus == exposure.LOCUS_BLEND:
            continue
        if r.characteristic == "all":
            all_means[(r.locus, r.stratum)] = r.mean
        else:
            by_key.setdefault((r.locus, r.stratum, r.characteristic), []).append(r)
    return by_key, all_means


def oracle_columns(items: Sequence, text: Sequence[str] = (), floats: Sequence[str] = ()) -> list:
    """One text list per attribute in ``text``, then one float array per
    attribute in ``floats``, over ``items``."""
    values = np.array([[getattr(i, a) for i in items] for a in floats], dtype=np.float64)
    return [*([getattr(i, a) for i in items] for a in text),
            *values.reshape(len(floats), len(items))]


@dataclass(frozen=True)
class GapResult:
    """Most- vs least-exposed group within one characteristic."""

    characteristic: str
    most_exposed: str
    least_exposed: str
    absolute_diff: float
    percent_diff: float
    ratio: float


def oracle_extreme_group_gap(records: Sequence[ExposureRecord], national_mean: float) -> GapResult:
    if len(records) < 2:
        raise DegenerateSliceError(
            f"need >= 2 groups, got {len(records)}"
        )
    characteristics = {r.characteristic for r in records}
    if len(characteristics) != 1:
        raise ValueError(f"records span multiple characteristics: {sorted(characteristics)}")
    if national_mean <= 0.0:
        raise DegenerateSliceError(f"national mean must be positive, got {national_mean}")
    ordered = sorted(records, key=lambda r: r.group)
    most = max(ordered, key=lambda r: r.mean)
    least = min(ordered, key=lambda r: r.mean)
    diff = most.mean - least.mean
    return GapResult(
        characteristic=characteristics.pop(),
        most_exposed=most.group,
        least_exposed=least.group,
        absolute_diff=diff,
        percent_diff=100.0 * diff / national_mean,
        ratio=most.mean / least.mean if least.mean > 0.0 else math.inf,
    )


def oracle_atkinson(shares: Sequence[float], values: Sequence[float], epsilon: float) -> float:
    """The Atkinson index with every check made on each call."""
    f = np.asarray(shares, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if f.size == 0 or f.size != y.size:
        raise DegenerateSliceError(f"need matching non-empty shares/values, got {f.size}/{y.size}")
    if (f <= 0.0).any():
        raise ValueError("population shares must be positive")
    if abs(float(np.sum(f)) - 1.0) > 1e-9:
        raise ValueError(f"population shares must sum to 1, got {float(np.sum(f))}")
    if (y <= 0.0).any():
        raise ValueError("group values must be positive")
    if epsilon < 0.0:
        raise ValueError(f"aversion parameter must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        return 0.0
    f = f / float(np.sum(f))
    ybar = float(np.sum(f * y))
    ratio = y / ybar
    if epsilon == 1.0:
        ai = 1.0 - math.exp(float(np.sum(f * np.log(ratio))))
    else:
        power = 1.0 - epsilon
        ai = 1.0 - float(np.sum(f * ratio ** power)) ** (1.0 / power)
    return max(ai, 0.0)


@dataclass(frozen=True)
class AtkinsonResult:
    year: int
    characteristic: str
    locus: str
    stratum: str
    epsilon: float
    value: float


def oracle_atkinson_pipeline(records: Iterable[ExposureRecord],
                             epsilons: Sequence[float]) -> list[AtkinsonResult]:
    """Records grouped by (year, characteristic, locus, stratum), the total
    population ignored, and oracle_atkinson called once per epsilon."""
    grouped: dict[tuple[int, str, str, str], list[ExposureRecord]] = {}
    for record in records:
        if record.characteristic == "all":
            continue
        key = (record.year, record.characteristic, record.locus, record.stratum)
        grouped.setdefault(key, []).append(record)
    results = []
    for key in sorted(grouped):
        members = sorted(grouped[key], key=lambda r: r.group)
        total = sum(r.weight for r in members)
        shares = [r.weight / total for r in members]
        for r in members:
            if r.mean <= 0.0:
                raise DegenerateSliceError(
                    f"group {r.group_key} has non-positive mean {r.mean}; "
                    "cannot invert concentrations"
                )
        inverse = [1.0 / r.mean for r in members]
        year, characteristic, locus, stratum = key
        for eps in epsilons:
            results.append(AtkinsonResult(
                year=year,
                characteristic=characteristic,
                locus=locus,
                stratum=stratum,
                epsilon=eps,
                value=oracle_atkinson(shares, inverse, eps),
            ))
    return results


def oracle_gap_and_atkinson_blocks(year: int, records: Sequence[ExposureRecord],
                                   epsilons: Sequence[float], skips: dict[str, int]):
    """gaps.csv and atkinson.csv blocks of one year's RAC and WAC records,
    regrouped by oracle_group_records and built by oracle_columns."""
    by_key, all_means = oracle_group_records(records)
    keys, gaps = [], []
    for (locus, stratum, characteristic), members in sorted(by_key.items()):
        try:
            gaps.append(oracle_extreme_group_gap(members, all_means[(locus, stratum)]))
        except DegenerateSliceError as exc:
            pipeline._skip(skips, "gap", "%s %s/%s/%s: %s" % (year, locus, stratum,
                                                              characteristic, exc))
            continue
        keys.append((locus, stratum))
    gap_block = [year, [k[0] for k in keys], [k[1] for k in keys], *oracle_columns(
        gaps, ("characteristic", "most_exposed", "least_exposed"),
        ("absolute_diff", "percent_diff", "ratio"))]
    results = []
    for key in sorted(by_key, key=lambda k: (k[2], k[0], k[1])):
        try:
            results += oracle_atkinson_pipeline(by_key[key], epsilons)
        except DegenerateSliceError as exc:
            pipeline._skip(skips, "atkinson", "%s %s/%s/%s: %s" % (year, *key, exc))
    atkinson_block = [year, *oracle_columns(results, ("characteristic", "locus", "stratum"),
                                            ("epsilon", "value"))]
    return gap_block, atkinson_block


def oracle_threshold_share(values, weights, threshold: float) -> float:
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    total = float(np.sum(wts))
    if vals.size == 0 or total <= 0.0:
        raise DegenerateSliceError("total weight is zero")
    return 100.0 * float(np.sum(wts[vals > threshold])) / total


def oracle_threshold_rows(thresholds: Sequence[float], aligned: exposure.AlignedTable,
                          skips: dict[str, int]) -> list[list]:
    """threshold.csv blocks of one table with one oracle_threshold_share call
    per group and threshold."""
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    conc = aligned.values(locus)
    row = {code: i for i, code in enumerate(aligned.codes)}
    for threshold in thresholds:
        characteristics, labels, covs = ["all"], ["all"], [""]
        try:
            qs = [oracle_threshold_share(conc, aligned.totals, threshold)]
        except DegenerateSliceError as exc:
            pipeline._skip(skips, "threshold-share", "%s %s T=%s: %s" % (
                year, locus, threshold, exc))
            continue
        for schema in ingest.RAC_WAC_SCHEMAS:
            shares = []
            for code, label in schema.categories:
                if code not in row:
                    continue
                weights = aligned.counts[row[code]]
                if int(weights.sum()) == 0:
                    continue
                labels.append(label)
                shares.append(oracle_threshold_share(conc, weights, threshold))
            if not shares:
                continue
            try:
                cov_text = repr(disparity.cov_of_shares(shares))
            except DegenerateSliceError as exc:
                pipeline._skip(skips, "threshold-cov", "%s %s T=%s %s: %s" % (
                    year, locus, threshold, schema.characteristic, exc))
                cov_text = ""
            characteristics += [schema.characteristic] * len(shares)
            qs += shares
            covs += [cov_text] * len(shares)
        blocks.append([year, locus, repr(threshold), characteristics, labels, np.array(qs), covs])
    return blocks


def oracle_rank_sum_grouped(values_a, counts_a, values_b, counts_b, method="auto"):
    """Rank-sum test from a {value: [count a, count b]} tally in Python ints."""
    if method not in ("auto", "normal", "exact"):
        raise ValueError(f"unknown method {method!r}")
    tally: dict[float, list[int]] = {}
    for values, counts, side in ((values_a, counts_a, 0), (values_b, counts_b, 1)):
        for value, count in zip(values, counts):
            count = int(count)
            if count < 0:
                raise ValueError(f"negative count {count}")
            if count == 0:
                continue
            tally.setdefault(float(value), [0, 0])[side] += count
    n_a = sum(ca for ca, _ in tally.values())
    n_b = sum(cb for _, cb in tally.values())
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    cum = 0
    two_rank_sum_a = 0
    tie_cubes = 0
    for value in sorted(tally):
        ca, cb = tally[value]
        t = ca + cb
        two_rank_sum_a += ca * (2 * cum + t + 1)
        tie_cubes += t * t * t - t
        cum += t
    n = n_a + n_b
    u = (two_rank_sum_a - n_a * (n_a + 1)) / 2.0
    mean_u = n_a * n_b / 2.0
    var_u = (n_a * n_b / 12.0) * ((n + 1) - tie_cubes / (n * (n - 1)))
    if var_u <= 0.0:
        return biasstats.RankSumResult(u=u, z=0.0, p_value=1.0)
    deviation = u - mean_u
    if deviation > 0.0:
        z = (deviation - 0.5) / math.sqrt(var_u)
    elif deviation < 0.0:
        z = (deviation + 0.5) / math.sqrt(var_u)
    else:
        z = 0.0
    untied = all(ca + cb == 1 for ca, cb in tally.values())
    if method == "exact" or (method == "auto" and untied and n <= biasstats._EXACT_MAX_N):
        if not untied:
            raise ValueError("exact method requires untied samples")
        p = biasstats._exact_two_sided_p(n_a, n_b, u)
    else:
        p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
    return biasstats.RankSumResult(u=u, z=z, p_value=p)


class OraclePooledSamples:
    """Two value arrays pooled and stably sorted once: ``starts`` holds each
    tie run's first position in ``order``, and ``from_a`` marks the
    positions that hold a first-sample value."""

    def __init__(self, values_a, values_b):
        a = np.asarray(values_a, dtype=np.float64)
        b = np.asarray(values_b, dtype=np.float64)
        pooled = np.concatenate((a, b))
        self.order = exposure.stable_argsort(pooled)
        ordered = pooled.take(self.order)
        run_start = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
        self.starts = np.flatnonzero(run_start)
        self.from_a = self.order < len(a)


def oracle_wilcoxon_rank_sum_grouped(pooled: OraclePooledSamples, counts_a, counts_b):
    """The rank-sum test over an OraclePooledSamples: each run's count on
    either side from one np.add.reduceat of the counts gathered into the
    pooled order, int64 where the bounds allow it and Python ints otherwise."""
    limit = 2 ** 63
    ca = np.asarray(counts_a, dtype=np.int64)
    cb = np.asarray(counts_b, dtype=np.int64)
    counts = np.concatenate((ca, cb))
    if int(counts.max(initial=0)) * len(counts) >= limit:
        counts = counts.astype(object)
    n_a = int(counts[:len(ca)].sum())
    n_b = int(counts[len(ca):].sum())
    n = n_a + n_b
    ordered = counts.take(pooled.order)
    if n * (2 * n + 1) >= limit:
        ordered = ordered.astype(object)
    t = np.add.reduceat(ordered, pooled.starts)
    t_a = np.add.reduceat(np.where(pooled.from_a, ordered, 0), pooled.starts)
    below = np.cumsum(t) - t
    two_rank_sum_a = int((t_a * (2 * below + t + 1)).sum())
    max_t = int(t.max())
    tied = t.compress(t > 1)
    if max_t * max_t * n >= limit:
        tied = tied.astype(object)
    tie_cubes = int((tied * tied * tied - tied).sum())
    u = (two_rank_sum_a - n_a * (n_a + 1)) / 2.0
    mean_u = n_a * n_b / 2.0
    var_u = (n_a * n_b / 12.0) * ((n + 1) - tie_cubes / (n * (n - 1)))
    if var_u <= 0.0:
        return biasstats.RankSumResult(u=u, z=0.0, p_value=1.0)
    deviation = u - mean_u
    if deviation > 0.0:
        z = (deviation - 0.5) / math.sqrt(var_u)
    elif deviation < 0.0:
        z = (deviation + 0.5) / math.sqrt(var_u)
    else:
        z = 0.0
    if max_t == 1 and n <= biasstats._EXACT_MAX_N:
        p = biasstats._exact_two_sided_p(n_a, n_b, u)
    else:
        p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
    return biasstats.RankSumResult(u=u, z=z, p_value=p)


def oracle_u_counts(n_a: int, n_b: int) -> list[int]:
    """biasstats._u_counts as it was: the U table of every (m, n) up to
    (n_a, n_b), each pooling one more rank into a or b."""
    counts = {(0, 0): [1]}  # (m, n) -> count of subsets by U value
    for m in range(n_a + 1):
        for n in range(n_b + 1):
            if (m, n) in counts:
                continue
            table = [0] * (m * n + 1)
            if m > 0:
                for v, c in enumerate(counts[(m - 1, n)]):
                    table[v + n] += c
            if n > 0:
                for v, c in enumerate(counts[(m, n - 1)]):
                    table[v] += c
            counts[(m, n)] = table
    return counts[(n_a, n_b)]


def with_layout(matrix: np.ndarray, layout: str) -> np.ndarray:
    """The same int64 matrix C-ordered ("C"), Fortran-ordered ("F") or as a
    view of every other column of a wider matrix ("strided")."""
    matrix = np.asarray(matrix, dtype=np.int64)
    if layout == "C":
        return np.ascontiguousarray(matrix)
    if layout == "F":
        return np.asfortranarray(matrix)
    wide = np.zeros((matrix.shape[0], 2 * matrix.shape[1]), dtype=np.int64)
    wide[:, ::2] = matrix
    return wide[:, ::2]


def _oracle_bin_means(ranked: np.ndarray, n_bins: int, mean: bool) -> np.ndarray:
    """Per row, the sum (or mean) of each bin's column run, one bin at a time."""
    out = np.empty((len(ranked), n_bins))
    start = 0
    for index, size in enumerate(disparity._bin_sizes(ranked.shape[1], n_bins)):
        run = ranked[:, start:start + size]
        out[:, index] = run.mean(axis=1) if mean else run.sum(axis=1)
        start += size
    return out


def oracle_composition_blocks(config, aligned: exposure.AlignedTable,
                              groups: Sequence[tuple[str, str]], counts: np.ndarray,
                              skips: dict[str, int]) -> list[list]:
    """bins.csv blocks of one table, one per stratum, each stratum's tracts
    sorted on their own by each group's fraction and by concentration."""
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    for stratum, mask in exposure.stratum_masks(aligned).items():
        cols = np.flatnonzero(mask & (aligned.totals > 0))
        group_counts = np.ascontiguousarray(counts[:, cols])
        fractions = group_counts / aligned.totals[cols]
        conc = aligned.values(locus)[cols]
        order = np.argsort(fractions, axis=1, kind="stable")
        ranked = np.ascontiguousarray(np.take_along_axis(group_counts, order, axis=1))
        weighted = conc[order] * ranked
        where = "%s %s/%s" % (year, locus, stratum)
        curves = []
        for n_bins in config.bin_counts:
            if len(cols) < n_bins:
                pipeline._skip(skips, "composition-curve", where + ": few tracts", len(groups))
                continue
            totals = _oracle_bin_means(ranked, n_bins, mean=False)
            sums = _oracle_bin_means(weighted, n_bins, mean=False)
            with np.errstate(invalid="ignore", divide="ignore"):
                curve = np.where(totals > 0.0, sums / totals, math.nan)
            curves.append((n_bins, disparity.PercentileBinCurves(
                tuple(disparity._bin_sizes(len(cols), n_bins)), curve)))
        shares = None
        if len(cols) < 10:
            pipeline._skip(skips, "decile-share", where + ": few tracts", len(groups))
        else:
            by_conc = np.argsort(conc, kind="stable")
            means = _oracle_bin_means(np.ascontiguousarray(fractions[:, by_conc]), 10, mean=True)
            shares = disparity.DecileShares(means, means[:, -1] - means[:, 0])
        blocks.append(pipeline._bin_block(year, locus, stratum, groups, curves, shares))
    return blocks


def synth_config(tmp_path, **changes) -> str:
    """The config path of a default synth world under ``tmp_path``, with
    ``changes`` to its keys."""
    world = tmp_path / "synth_config"
    synth.synth(str(world))
    doc = json.loads((world / "config.json").read_text())
    doc.update(changes)
    (world / "config.json").write_text(json.dumps(doc))
    return str(world / "config.json")
