"""Zonal aggregation of a concentration grid over tract polygons, plus
urban/rural classification against a mask polygon set.

Cell weights are exact coverage areas. ``tract_coverage`` computes them once
per grid lattice with a signed-area accumulation rasterizer, the exact-area
technique of font-rs and exactextract: every ring edge is split at the row and
column lines it crosses, each piece adds its signed area to its own cell and
the rest of its height to the next cell, and a prefix sum along each row turns
those into the covered fraction of every cell. ``build_tract_surface`` then
reduces one year's grid over that coverage: the zonal value is
sum(value * covered_area) / sum(covered_area) over non-nodata cells. Tracts
with zero valid coverage are excluded rather than failing the run.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGeometryError, FormatError, SchemaError
from .geometry import PolygonPart, TractGeometry, overlap_area
from .grids import ConcentrationGrid

logger = logging.getLogger(__name__)

URBAN = "urban"
RURAL = "rural"

# Tracts are processed in runs of about this many dense bounding-box cells
# (8 MiB of float64) and ring vertices, so memory stays bounded.
_CHUNK_CELLS = 1 << 20
_CHUNK_VERTICES = 1 << 17
# Covered fractions at or below this are float residue, not coverage: in an
# uncovered cell beside a ring the row's prefix sum cancels to ~1e-16, not 0.
_MIN_FRACTION = 1e-12


@dataclass(frozen=True)
class TractSurface:
    """Per-tract zonal concentrations for one year.

    ``completeness`` summarizes valued tracts by valid covered area over
    polygon area: how many are under 0.99 and under 0.5, and the worst five
    of those under 0.99 as [geoid, ratio], lowest first. It is empty for
    surfaces read back from CSV.
    """

    year: int
    entries: dict[str, float]
    excluded: tuple[str, ...] = ()
    completeness: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = set(self.entries) & set(self.excluded)
        if overlap:
            raise SchemaError(f"tracts both valued and excluded: {sorted(overlap)[:5]}")
        bad = [g for g, v in self.entries.items() if v < 0 or math.isnan(v)]
        if bad:
            raise SchemaError(f"negative/NaN concentrations for {bad[:5]}")


@dataclass(frozen=True)
class UrbanMask:
    """Urban-area polygons plus the tract classification derived from them."""

    polygons: tuple[PolygonPart, ...]
    classification: dict[str, str] = field(default_factory=dict)


class TractCoverage(NamedTuple):
    """Exact tract x cell coverage on one grid lattice, as CSR arrays.

    Tract ``i`` (``geoids`` ascending) covers the flat cells
    ``cell_idx[tract_ptr[i]:tract_ptr[i + 1]]`` (``row * n_cols + col``,
    row-major) with the areas ``area[...]`` in grid units squared.
    ``polygon_area`` is each tract's covered area over its whole bounding box,
    off-grid cells included: the denominator of coverage completeness.
    """

    lattice: tuple[float, float, float, float, int, int]
    geoids: tuple[str, ...]
    tract_ptr: np.ndarray  # int64, len(geoids) + 1
    cell_idx: np.ndarray   # int64
    area: np.ndarray       # float64
    polygon_area: np.ndarray  # float64, one per tract


def _ring_arrays(tracts: Sequence[TractGeometry]):
    """Every ring's closed vertex list flattened: coordinates (V, 2), ring
    lengths, the owning tract of each ring and whether it is a hole."""
    rings: list = []
    ring_tract: list[int] = []
    ring_hole: list[bool] = []
    for t, tract in enumerate(tracts):
        for part in tract.parts:
            rings.append(part.exterior)
            rings.extend(part.holes)
            ring_tract.extend([t] * (1 + len(part.holes)))
            ring_hole.append(False)
            ring_hole.extend([True] * len(part.holes))
    ring_len = np.fromiter(map(len, rings), dtype=np.int64, count=len(rings))
    flat = chain.from_iterable(chain.from_iterable(rings))
    xy = np.fromiter(flat, dtype=np.float64, count=2 * int(ring_len.sum())).reshape(-1, 2)
    return xy, ring_len, np.array(ring_tract, dtype=np.int64), np.array(ring_hole, dtype=bool)


def _line_crossings(a0: np.ndarray, a1: np.ndarray):
    """For each edge running a0 -> a1 along one axis, the integer lines strictly
    between its ends: (edge index, line, parameter t in (0, 1)) per crossing."""
    lo = np.floor(np.minimum(a0, a1))
    count = np.maximum(np.ceil(np.maximum(a0, a1)) - lo - 1.0, 0.0).astype(np.int64)
    edge = np.repeat(np.arange(len(a0)), count)
    rank = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count)
    line = lo[edge] + 1.0 + rank
    return edge, line, (line - a0[edge]) / (a1[edge] - a0[edge])


def _chunk_coverage(gx, gy, ring_len, ring_tract, ring_hole, col0, row0, width, height):
    """Covered fraction of every bbox cell of a run of tracts.

    ``gx``/``gy`` are the run's closed-ring vertices in cell units; tract ``t``
    of the run has the bbox of ``height[t]`` rows by ``width[t]`` columns from
    cell (``row0[t]``, ``col0[t]``). For each bbox cell covered by more than
    _MIN_FRACTION, returns its tract (index within the run), bbox row, bbox
    column and covered fraction, clipped to 1.
    """
    vert_tract = np.repeat(ring_tract, ring_len)
    u = gx - col0[vert_tract]
    v = gy - row0[vert_tract]
    # edges run from each vertex to the next one of its closed ring
    last = np.cumsum(ring_len) - 1
    start = np.ones(len(u), dtype=bool)
    start[last] = False
    e0 = np.flatnonzero(start)
    ring_edges = ring_len - 1
    edge_ring = np.repeat(np.arange(len(ring_len)), ring_edges)
    u0, v0, u1, v1 = u[e0], v[e0], u[e0 + 1], v[e0 + 1]
    twice_area = np.add.reduceat(u0 * v1 - u1 * v0, np.cumsum(ring_edges) - ring_edges)
    # Pieces add area right of a rising edge, so a counter-clockwise exterior
    # accumulates negative coverage: flip exteriors, keep holes.
    sign = (np.where(ring_hole, 1.0, -1.0) * np.sign(twice_area))[edge_ring]
    steep = (v0 != v1) & (sign != 0.0)
    u0, v0, u1, v1, sign = u0[steep], v0[steep], u1[steep], v1[steep], sign[steep]
    edge_tract = ring_tract[edge_ring[steep]]

    # split every edge at the column and row lines it crosses
    ex, xline, xt = _line_crossings(u0, u1)
    ey, yline, yt = _line_crossings(v0, v1)
    ends = np.arange(len(u0))
    edge = np.concatenate((ends, ex, ey, ends))
    t = np.concatenate((np.zeros(len(u0)), xt, yt, np.ones(len(u0))))
    u = np.concatenate((u0, xline, u0[ey] + yt * (u1[ey] - u0[ey]), u1))
    v = np.concatenate((v0, v0[ex] + xt * (v1[ex] - v0[ex]), yline, v1))
    order = np.lexsort((t, edge))
    edge, u, v = edge[order], u[order], v[order]
    # consecutive points of one edge bound a piece lying inside a single cell
    piece = np.flatnonzero(edge[1:] == edge[:-1])
    dy = v[piece + 1] - v[piece]
    keep = dy != 0.0
    piece, dy = piece[keep], dy[keep] * sign[edge[piece[keep]]]
    tract = edge_tract[edge[piece]]
    um = 0.5 * (u[piece] + u[piece + 1])
    col = np.clip(np.floor(um), 0, width[tract] - 1)
    row = np.clip(np.floor(0.5 * (v[piece] + v[piece + 1])), 0, height[tract] - 1)
    partial = dy * (col + 1.0 - um)

    # One dense buffer: each tract's bbox rows, with an extra column that takes
    # the remainders of the last column's pieces.
    stride = width + 1
    cells = height * stride
    base = np.cumsum(cells) - cells
    idx = base[tract] + row.astype(np.int64) * stride[tract] + col.astype(np.int64)
    buf = np.bincount(np.concatenate((idx, idx + 1)),
                      weights=np.concatenate((partial, dy - partial)), minlength=int(cells.sum()))
    # Prefix sum along each bbox row, rows of one width at a time, so that a
    # cell's sum runs over its own row only, whatever else is in the run.
    row_width = np.repeat(stride, height)
    row_start = np.cumsum(row_width) - row_width
    for w in np.flatnonzero(np.bincount(row_width)).tolist():  # np.unique imports numpy.ma
        at = row_start[row_width == w][:, None] + np.arange(w)
        buf[at] = np.cumsum(buf[at], axis=1)

    pos = np.flatnonzero(buf > _MIN_FRACTION)
    tract = np.searchsorted(base, pos, side="right") - 1
    r, c = np.divmod(pos - base[tract], stride[tract])
    in_bbox = c < width[tract]
    return tract[in_bbox], r[in_bbox], c[in_bbox], np.minimum(buf[pos[in_bbox]], 1.0)


def tract_coverage(tracts: Sequence[TractGeometry], grid: ConcentrationGrid) -> TractCoverage:
    """Exact coverage of every grid cell by every tract, for the grid's lattice.

    Only the lattice (origin, cell size, shape) is read, so the result serves
    every year whose grid has the same lattice. Ring orientation is taken from
    each ring's shoelace sign; holes subtract. Raises SchemaError for an empty
    tract list or duplicate geoids.
    """
    if not tracts:
        raise SchemaError("tract list is empty")
    tracts = sorted(tracts, key=lambda t: t.geoid)
    geoids = tuple(t.geoid for t in tracts)
    dupes = sorted({a for a, b in zip(geoids, geoids[1:]) if a == b})
    if dupes:
        raise SchemaError(f"duplicate tract geoids: {dupes[:5]}")
    n_tracts = len(tracts)

    xy, ring_len, ring_tract, ring_hole = _ring_arrays(tracts)
    gx = (xy[:, 0] - grid.origin_x) / grid.cell_width
    gy = (xy[:, 1] - grid.origin_y) / grid.cell_height
    # first ring and first vertex of each tract, plus the ends
    tract_ring = np.searchsorted(ring_tract, np.arange(n_tracts + 1))
    tract_vertex = np.concatenate(([0], np.cumsum(ring_len)))[tract_ring]
    first = tract_vertex[:-1]
    col0 = np.floor(np.minimum.reduceat(gx, first))
    row0 = np.floor(np.minimum.reduceat(gy, first))
    width = (np.ceil(np.maximum.reduceat(gx, first)) - col0).astype(np.int64)
    height = (np.ceil(np.maximum.reduceat(gy, first)) - row0).astype(np.int64)

    # runs of tracts holding about _CHUNK_CELLS bbox cells and _CHUNK_VERTICES vertices
    cells = height * (width + 1)
    verts = np.diff(tract_vertex)
    by_cells = (np.cumsum(cells) - cells) // _CHUNK_CELLS
    by_verts = (np.cumsum(verts) - verts) // _CHUNK_VERTICES
    new_run = (np.diff(by_cells) != 0) | (np.diff(by_verts) != 0)
    bounds = np.concatenate(([0], np.flatnonzero(new_run) + 1, [n_tracts])).tolist()

    cell_area = grid.cell_width * grid.cell_height
    polygon_area = np.zeros(n_tracts)
    out_tract, out_cell, out_frac = [], [], []
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        va, vb, ra, rb = tract_vertex[ta], tract_vertex[tb], tract_ring[ta], tract_ring[tb]
        tract, r, c, frac = _chunk_coverage(
            gx[va:vb], gy[va:vb], ring_len[ra:rb], ring_tract[ra:rb] - ta, ring_hole[ra:rb],
            col0[ta:tb], row0[ta:tb], width[ta:tb], height[ta:tb])
        polygon_area[ta:tb] = np.bincount(tract, weights=frac, minlength=tb - ta) * cell_area
        tract += ta
        row = row0[tract].astype(np.int64) + r
        col = col0[tract].astype(np.int64) + c
        on_grid = (row >= 0) & (row < grid.n_rows) & (col >= 0) & (col < grid.n_cols)
        out_tract.append(tract[on_grid])
        out_cell.append(row[on_grid] * grid.n_cols + col[on_grid])
        out_frac.append(frac[on_grid])
    counts = np.bincount(np.concatenate(out_tract), minlength=n_tracts)
    return TractCoverage(
        lattice=grid.lattice,
        geoids=geoids,
        tract_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        cell_idx=np.concatenate(out_cell).astype(np.int64),
        area=np.concatenate(out_frac) * cell_area,
        polygon_area=polygon_area,
    )


def _zonal_means(grid: ConcentrationGrid,
                 coverage: TractCoverage) -> tuple[np.ndarray, np.ndarray]:
    """Per tract: the coverage-weighted mean over valid cells (NaN where there
    is none) and the valid covered area."""
    if coverage.lattice != grid.lattice:
        raise SchemaError(f"coverage built for lattice {coverage.lattice}, "
                          f"grid has {grid.lattice}")
    values = grid.values.ravel()[coverage.cell_idx]
    valid = ~grid.nodata.ravel()[coverage.cell_idx]
    weight = np.where(valid, coverage.area, 0.0)
    n = len(coverage.geoids)
    num, den = np.zeros(n), np.zeros(n)
    vmin, vmax = np.full(n, np.inf), np.full(n, -np.inf)
    starts = coverage.tract_ptr[:-1]
    some = coverage.tract_ptr[1:] > starts
    if some.any():  # reduceat needs non-empty segments
        first = starts[some]
        num[some] = np.add.reduceat(weight * values, first)
        den[some] = np.add.reduceat(weight, first)
        vmin[some] = np.minimum.reduceat(np.where(valid, values, np.inf), first)
        vmax[some] = np.maximum.reduceat(np.where(valid, values, -np.inf), first)
    with np.errstate(invalid="ignore", divide="ignore"):
        # The weighted mean lies in [vmin, vmax] mathematically; clamp float drift.
        mean = np.minimum(np.maximum(num / den, vmin), vmax)
    return np.where(den > 0.0, mean, np.nan), den


def zonal_weighted_mean(grid: ConcentrationGrid, tract: TractGeometry) -> float | None:
    """Coverage-weighted mean of grid values under one tract polygon.

    Nodata cells contribute neither value nor weight. Returns None when no
    valid coverage exists (the no-coverage signal).
    """
    mean, den = _zonal_means(grid, tract_coverage([tract], grid))
    return float(mean[0]) if den[0] > 0.0 else None


def build_tract_surface(grid: ConcentrationGrid, coverage: TractCoverage,
                        year: int) -> TractSurface:
    """Reduce one year's grid over precomputed coverage, in ascending geoid
    order. Tracts without valid coverage are excluded. Valued tracts whose
    valid covered area is under 99% of their polygon area are summarized in
    ``completeness`` and in one warning."""
    mean, den = _zonal_means(grid, coverage)
    valued = den > 0.0
    entries = {g: m for g, m, ok in zip(coverage.geoids, mean.tolist(), valued.tolist()) if ok}
    excluded = tuple(g for g, ok in zip(coverage.geoids, valued.tolist()) if not ok)
    if excluded:
        logger.warning("%d tract(s) with no valid grid coverage excluded", len(excluded))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = den / coverage.polygon_area
    low = np.flatnonzero(valued & (ratio < 0.99))
    low = low[np.argsort(ratio[low], kind="stable")]  # ties stay in geoid order
    completeness = {
        "below_0.99": len(low),
        "below_0.5": int((ratio[low] < 0.5).sum()),
        "worst": [[coverage.geoids[i], float(ratio[i])] for i in low[:5].tolist()],
    }
    if len(low):
        logger.warning("year %d: %d valued tract(s) have under 99%% of their area on valid "
                       "grid cells (%d under 50%%); worst %s", year, len(low),
                       completeness["below_0.5"], completeness["worst"])
    return TractSurface(year=year, entries=entries, excluded=excluded, completeness=completeness)


def classify_urban(tract: TractGeometry, mask_polygons: Sequence[PolygonPart]) -> str:
    """'urban' when at least half the tract area overlaps the mask polygons."""
    area = tract.area()
    if area <= 0.0:
        raise DegenerateGeometryError(f"tract {tract.geoid} has zero area")
    frac = overlap_area(tract.parts, mask_polygons) / area
    return URBAN if frac >= 0.5 else RURAL


def classify_tracts(
    tracts: Sequence[TractGeometry],
    mask_polygons: Sequence[PolygonPart],
) -> dict[str, str]:
    """Classify every tract against the mask; keyed by geoid, ascending."""
    return dict(sorted((t.geoid, classify_urban(t, mask_polygons)) for t in tracts))


def build_urban_mask(
    mask_polygons: Sequence[PolygonPart],
    tracts: Sequence[TractGeometry],
) -> UrbanMask:
    """Bundle the mask polygons with the classification of the given tracts."""
    return UrbanMask(
        polygons=tuple(mask_polygons),
        classification=classify_tracts(tracts, mask_polygons),
    )


def write_surface_csv(surface: TractSurface, path: str) -> None:
    """Emit the surface as CSV with header ``geoid,year,pm25``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["geoid", "year", "pm25"])
        for geoid in sorted(surface.entries):
            writer.writerow([geoid, surface.year, repr(float(surface.entries[geoid]))])


def read_surface_csv(path: str) -> TractSurface:
    """Read a surface emitted by write_surface_csv."""
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
    return TractSurface(year=year, entries=entries)
