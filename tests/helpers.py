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
which they pin in differential tests. oracle_bin_curve, oracle_decile_shares
and oracle_state_rows are the per-group tuple-list sorts and the per-state
tract scan that the (groups x tracts) matrix kernels in disparity and
pipeline replaced; the differential tests hold the kernels bit-identical to
them. reference_csv is the csv.writer emission with repr floats that the
columnar report writer replaced, oracle_composition_rows the bins.csv rows
built one list per row, and read_surface_csv reads a surface_<year>.csv
back. worker_table and table_rows convert between row literals and the
columnar ingest.WorkerTable; oracle_rollup and oracle_join are the per-row
dict rollup, validation and joins that the columnar ones replaced, and
oracle_read_tracts the text-keyed (U16 geocodes, U11 geoids) reader and
rollup that the int64 tract ids replaced. tract_surface builds a
zonal.TractSurface from a {geoid: value} dict, surface_entries gives one
back as that dict, and key_text prints WorkerTable keys as text.
oracle_weighted_mean, oracle_weighted_percentile, oracle_stratum_masks,
oracle_group_exposures, oracle_hw_exposures and oracle_rank_sum_grouped are
the per-group bodies that the one-sort-per-slice kernels
(exposure.ValueSlice, biasstats.PooledSamples, exposure.TractStrata)
replaced: one argsort per group and percentile, a per-row dict lookup per
stratum mask, and a Python dict tally per rank-sum test. with_layout gives a
count matrix C-ordered, Fortran-ordered or strided.
ExposureRecord, ErrorRecord, GapResult and AtkinsonResult are the per-record
dataclasses that the columnar exposure.GroupExposures frame replaced;
exposure_records and error_records turn a frame into them, frame_of turns
records of one locus into a frame, and compute_hw_exposures returns the OD
frame as the two record lists.
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

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from hwexposure import biasstats, disparity, exposure, geometry, ingest, pipeline, zonal
from hwexposure.errors import (
    ContractError,
    DegenerateGeometryError,
    DomainError,
    EmptyPopulationError,
    FormatError,
    InsufficientGroupsError,
    MalformedGeocodeError,
    SchemaError,
    ValidationError,
)

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


@dataclass(frozen=True)
class TractGeometry:
    """A census tract: an 11-digit GEOID and one or more polygon parts."""

    geoid: str
    parts: tuple[PolygonPart, ...]

    def __post_init__(self) -> None:
        if not geometry.is_tract_geoid(self.geoid):
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
    return surface_entries(zonal.build_tract_surface(grid, coverage, 0)).get(tract.geoid)


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
        raise DegenerateGeometryError(f"cell must have positive extent: {cell}")
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
        abs(Fraction(signed_ring_area(_exact_ring(p.exterior))))
        - sum(abs(Fraction(signed_ring_area(_exact_ring(h)))) for h in p.holes)
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
    col1 = min(int(math.ceil((maxx - grid.origin_x) / grid.cell_width)), grid.n_cols)
    row0 = max(int(math.floor((miny - grid.origin_y) / grid.cell_height)), 0)
    row1 = min(int(math.ceil((maxy - grid.origin_y) / grid.cell_height)), grid.n_rows)
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
            if grid.nodata[row, col]:
                continue
            if exact:
                hps = tuple((Fraction(a), Fraction(b), c) for a, b, c in _rect_halfplanes(
                    (ox + col * cw, oy + row * ch, ox + (col + 1) * cw, oy + (row + 1) * ch)))
                covered = sum(_clipped_area(ext, hps) - sum(_clipped_area(h, hps) for h in holes)
                              for ext, holes in rings)
                frac = min(max(float(covered / (cw * ch)), 0.0), 1.0)
            else:
                frac = cell_coverage(tract.parts, grid.cell_rect(row, col))
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
    conc = aligned.concentrations
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


def tract_surface(year: int, entries: dict[str, float],
                  excluded: Sequence[str] = ()) -> zonal.TractSurface:
    """The TractSurface of a {geoid: concentration} dict and excluded geoids."""
    ids = np.array(sorted(entries), dtype=np.int64)
    values = np.array([entries[g] for g in sorted(entries)], dtype=np.float64)
    return zonal.TractSurface(year, ids, values, np.array(excluded, dtype=np.int64), {})


def surface_entries(surface: zonal.TractSurface) -> dict[str, float]:
    """A surface's {geoid: concentration}, geoid-ascending."""
    return dict(zip(geometry.geoid_text(surface.ids), surface.values.tolist()))


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
            raise ValidationError(f"row {key}: total: negative total {total}")
        for count in counts.values():
            if count < 0:
                raise ValidationError(f"row {key}: negative count {count}")
        for schema in self._schemas:
            if not schema.partitions_total or not all(c in counts for c in schema.codes):
                continue
            subtotal = sum(counts[code] for code in schema.codes)
            if subtotal != total:
                raise ValidationError(
                    f"row {key}: {schema.characteristic}: category sum {subtotal} != total {total}"
                )


def oracle_rollup(rows, schemas) -> dict[tuple[str, ...], tuple[int, dict[str, int]]]:
    """Validate (*keys, total, {code: count}) block rows one at a time and sum
    them per tract key in Python ints: {tract key tuple: (total, counts)},
    key-ascending."""
    validator = _OracleValidator(schemas)
    totals: dict[tuple[str, ...], int] = {}
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for *blocks, total, row_counts in rows:
        key = tuple(ingest.block_to_tract(block) for block in blocks)
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
    with ingest._open_text(path) as fh:
        header = next(csv.reader(fh))
        header[0] = header[0].removeprefix("\ufeff")
        codes = ingest._resolve_columns(header, required, schemas, path)
        position = {name: i for i, name in enumerate(header)}
        dtype = np.dtype([*((k, "U16") for k in keys), ("counts", np.int64, (len(codes) + 1,))])
        data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          usecols=[position[c] for c in (*keys, required[-1], *codes)], ndmin=1)
    blocks = [data[k].copy() for k in keys]
    if not all(_oracle_is_geocode(b).all() for b in blocks):
        raise MalformedGeocodeError(f"{path}: a malformed geocode")
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
        raise EmptyPopulationError("total weight is zero")
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
        raise EmptyPopulationError("total weight is zero")
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
    """One record per (row, locus) of a frame, loci within a row."""
    return [
        ExposureRecord(frame.year, frame.characteristic[r], frame.label[r], locus,
                       frame.stratum[r], float(frame.mean[k, r]), float(frame.p10[k, r]),
                       float(frame.p90[k, r]), float(frame.weight[r]))
        for r in range(len(frame.weight)) for k, locus in enumerate(frame.loci)
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
        [r.stratum for r in records], (locus,), column("mean")[None], column("p10")[None],
        column("p90")[None], column("weight"))


def compute_hw_exposures(*args, **kwargs) -> tuple[list[ExposureRecord], list[ErrorRecord]]:
    """exposure.compute_hw_exposures as exposure and error record lists."""
    frame = exposure.compute_hw_exposures(*args, **kwargs)
    return exposure_records(frame), error_records(frame)


def oracle_group_exposures(aligned, schemas, classification=None,
                           strata=(exposure.ALL_STRATUM,)) -> list:
    records = []
    for stratum, mask in oracle_stratum_masks(aligned.geoids, classification, strata).items():
        conc = aligned.concentrations[mask]
        for characteristic, label, weights in exposure.iter_groups(schemas, aligned):
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


def oracle_hw_exposures(pairs, schemas, weights=exposure.DEFAULT_HW_WEIGHTS,
                        classification=None, strata=(exposure.ALL_STRATUM,)):
    if len(pairs.totals) == 0 or int(pairs.totals.sum()) == 0:
        raise EmptyPopulationError("no resolvable OD pairs with workers")
    blended = exposure.hw_blend(pairs.home_values, pairs.work_values, weights)
    records, errors = [], []
    for stratum, mask in oracle_stratum_masks(pairs.home_geoids, classification,
                                              strata).items():
        vh, vw, vb = pairs.home_values[mask], pairs.work_values[mask], blended[mask]
        for characteristic, label, group_counts in exposure.iter_groups(schemas, pairs):
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
        raise InsufficientGroupsError(
            f"need >= 2 groups, got {len(records)}"
        )
    characteristics = {r.characteristic for r in records}
    if len(characteristics) != 1:
        raise ContractError(f"records span multiple characteristics: {sorted(characteristics)}")
    if national_mean <= 0.0:
        raise DomainError(f"national mean must be positive, got {national_mean}")
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
        raise DomainError(f"need matching non-empty shares/values, got {f.size}/{y.size}")
    if (f <= 0.0).any():
        raise DomainError("population shares must be positive")
    if abs(float(np.sum(f)) - 1.0) > 1e-9:
        raise DomainError(f"population shares must sum to 1, got {float(np.sum(f))}")
    if (y <= 0.0).any():
        raise DomainError("group values must be positive")
    if epsilon < 0.0:
        raise DomainError(f"aversion parameter must be >= 0, got {epsilon}")
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
                raise DomainError(
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
        except pipeline._METRIC_DEGENERACIES as exc:
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
        except pipeline._METRIC_DEGENERACIES as exc:
            pipeline._skip(skips, "atkinson", "%s %s/%s/%s: %s" % (year, *key, exc))
    atkinson_block = [year, *oracle_columns(results, ("characteristic", "locus", "stratum"),
                                            ("epsilon", "value"))]
    return gap_block, atkinson_block


def oracle_threshold_share(values, weights, threshold: float) -> float:
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    total = float(np.sum(wts))
    if vals.size == 0 or total <= 0.0:
        raise EmptyPopulationError("total weight is zero")
    return 100.0 * float(np.sum(wts[vals > threshold])) / total


def oracle_threshold_rows(thresholds: Sequence[float], aligned: exposure.AlignedTable,
                          skips: dict[str, int]) -> list[list]:
    """threshold.csv blocks of one table with one oracle_threshold_share call
    per group and threshold."""
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    conc = aligned.concentrations
    row = {code: i for i, code in enumerate(aligned.codes)}
    for threshold in thresholds:
        characteristics, labels, covs = ["all"], ["all"], [""]
        qs = [oracle_threshold_share(conc, aligned.totals, threshold)]
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
            except pipeline._METRIC_DEGENERACIES as exc:
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
        raise ContractError(f"unknown method {method!r}")
    tally: dict[float, list[int]] = {}
    for values, counts, side in ((values_a, counts_a, 0), (values_b, counts_b, 1)):
        for value, count in zip(values, counts):
            count = int(count)
            if count < 0:
                raise ContractError(f"negative count {count}")
            if count == 0:
                continue
            tally.setdefault(float(value), [0, 0])[side] += count
    n_a = sum(ca for ca, _ in tally.values())
    n_b = sum(cb for _, cb in tally.values())
    if n_a == 0 or n_b == 0:
        raise ContractError("both samples must be non-empty")
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
            raise ContractError("exact method requires untied samples")
        p = biasstats._exact_two_sided_p(n_a, n_b, u)
    else:
        p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
    return biasstats.RankSumResult(u=u, z=z, p_value=p)


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


def oracle_composition_blocks(state, aligned: exposure.AlignedTable,
                              groups: Sequence[tuple[str, str]], counts: np.ndarray,
                              strata: Sequence[str], skips: dict[str, int]) -> list[list]:
    """bins.csv blocks of one table, one per stratum, each stratum's tracts
    sorted on their own by each group's fraction and by concentration."""
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    for stratum, mask in exposure.stratum_masks(aligned, state.classification, strata).items():
        cols = np.flatnonzero(mask & (aligned.totals > 0))
        group_counts = np.ascontiguousarray(counts[:, cols])
        fractions = group_counts / aligned.totals[cols]
        conc = aligned.concentrations[cols]
        order = np.argsort(fractions, axis=1, kind="stable")
        ranked = np.ascontiguousarray(np.take_along_axis(group_counts, order, axis=1))
        weighted = conc[order] * ranked
        where = "%s %s/%s" % (year, locus, stratum)
        curves = []
        for n_bins in state.config.bin_counts:
            if len(cols) < n_bins:
                pipeline._skip_groups(skips, "composition-curve", groups, where, "few tracts")
                continue
            totals = _oracle_bin_means(ranked, n_bins, mean=False)
            sums = _oracle_bin_means(weighted, n_bins, mean=False)
            with np.errstate(invalid="ignore", divide="ignore"):
                curve = np.where(totals > 0.0, sums / totals, math.nan)
            curves.append((n_bins, disparity.PercentileBinCurves(
                tuple(disparity._bin_sizes(len(cols), n_bins)), curve)))
        shares = None
        if len(cols) < 10:
            pipeline._skip_groups(skips, "decile-share", groups, where, "few tracts")
        else:
            by_conc = np.argsort(conc, kind="stable")
            means = _oracle_bin_means(np.ascontiguousarray(fractions[:, by_conc]), 10, mean=True)
            shares = disparity.DecileShares(means, means[:, -1] - means[:, 0])
        blocks.append(pipeline._bin_block(year, locus, stratum, groups, curves, shares))
    return blocks
