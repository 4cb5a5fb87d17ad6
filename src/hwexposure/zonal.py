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

``build_urban_mask`` measures each tract's overlap with the mask by Green's
theorem: area(T ∩ M) is the integral of x dy over the pieces of T's boundary
inside M plus the pieces of M's boundary inside T, with exterior rings
counter-clockwise and holes clockwise. Every tract edge is split where it
meets a mask edge and every mask edge where it meets a tract edge; each
piece's midpoint is classified by a winding-number (signed crossing) test. A
piece of T's boundary lying on M's boundary counts when the two run the same
way; a piece of M's boundary lying on T's boundary never counts. Candidate
pairs come from sorted windows of boxes, so no step is quadratic in the edges.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, SchemaError
from .geometry import PolygonSet, geoid_text
from .grids import ConcentrationGrid

logger = logging.getLogger(__name__)

URBAN = "urban"
RURAL = "rural"

# A tract is urban when at least this share of its area lies in the mask; a
# share within _NEAR_THRESHOLD of it could flip under float drift.
URBAN_SHARE = 0.5
_NEAR_THRESHOLD = 1e-9

# Tracts are processed in runs of about this many dense bounding-box cells
# (8 MiB of float64) and ring vertices, so memory stays bounded.
_CHUNK_CELLS = 1 << 20
_CHUNK_VERTICES = 1 << 17
# A vertex within this factor times (edge length) x (coordinate size) of an
# edge's line counts as lying on it: a few units of float64 rounding.
_ON_LINE = 64 * np.finfo(np.float64).eps
# Covered fractions at or below this are float residue, not coverage: in an
# uncovered cell beside a ring the row's prefix sum cancels to ~1e-16, not 0.
_MIN_FRACTION = 1e-12


@dataclass(frozen=True, eq=False)
class TractSurface:
    """Per-tract zonal concentrations for one year: the float64 ``values`` of
    the tracts ``ids`` (int64, ascending) with valid coverage, and the ids of
    the ``excluded`` tracts without.

    ``completeness`` summarizes valued tracts by valid covered area over
    polygon area: how many are under 0.99 and under 0.5, and the worst five
    of those under 0.99 as [geoid, ratio], lowest first.
    """

    year: int
    ids: np.ndarray
    values: np.ndarray
    excluded: np.ndarray
    completeness: dict

    def __post_init__(self) -> None:
        every = np.sort(np.concatenate((self.ids, self.excluded)))
        if (np.diff(self.ids) <= 0).any() or (every[1:] == every[:-1]).any():
            raise SchemaError("tract ids must be ascending, each valued or excluded once")
        bad = self.ids[(self.values < 0) | np.isnan(self.values)]
        if len(bad):
            raise SchemaError(f"negative/NaN concentrations for {geoid_text(bad[:5])}")


class TractCoverage(NamedTuple):
    """Exact tract x cell coverage on one grid lattice, as CSR arrays.

    Tract ``i`` (``ids`` ascending) covers the flat cells
    ``cell_idx[tract_ptr[i]:tract_ptr[i + 1]]`` (``row * n_cols + col``,
    row-major) with the areas ``area[...]`` in grid units squared.
    ``polygon_area`` is each tract's covered area over its whole bounding box,
    off-grid cells included: the denominator of coverage completeness.
    """

    lattice: tuple[float, float, float, float, int, int]
    ids: np.ndarray        # int64 tract ids
    tract_ptr: np.ndarray  # int64, len(ids) + 1
    cell_idx: np.ndarray   # int64
    area: np.ndarray       # float64
    polygon_area: np.ndarray  # float64, one per tract


def _runs(n: int, *budgets) -> list[int]:
    """Bounds of consecutive runs of ``n`` items; each (sizes, limit) budget
    starts a new run where its running size total passes a multiple of limit."""
    new = np.zeros(max(n - 1, 0), dtype=bool)
    for sizes, limit in budgets:
        new |= np.diff((np.cumsum(sizes) - sizes) // limit) != 0
    return np.concatenate(([0], np.flatnonzero(new) + 1, [n])).astype(np.int64).tolist()


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths: each element's run and its rank in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)


def _line_crossings(a0: np.ndarray, a1: np.ndarray):
    """For each edge running a0 -> a1 along one axis, the integer lines strictly
    between its ends: (edge index, line, parameter t in (0, 1)) per crossing."""
    lo = np.floor(np.minimum(a0, a1))
    count = np.maximum(np.ceil(np.maximum(a0, a1)) - lo - 1.0, 0.0).astype(np.int64)
    edge, rank = _expand(count)
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


def tract_coverage(tracts: PolygonSet, grid: ConcentrationGrid) -> TractCoverage:
    """Exact coverage of every grid cell by every tract, for the grid's lattice.

    Only the lattice (origin, cell size, shape) is read, so the result serves
    every year whose grid has the same lattice. Ring orientation is taken from
    each ring's shoelace sign; holes subtract. Raises SchemaError for an empty
    tract set.
    """
    n_tracts = len(tracts.geoids)
    if not n_tracts:
        raise SchemaError("tract list is empty")
    ring_len = np.diff(tracts.ring_ptr)
    ring_tract, ring_hole = tracts.ring_owner, tracts.ring_hole
    gx = (tracts.xy[:, 0] - grid.origin_x) / grid.cell_width
    gy = (tracts.xy[:, 1] - grid.origin_y) / grid.cell_height
    # first ring and first vertex of each tract, plus the ends
    tract_ring = np.searchsorted(ring_tract, np.arange(n_tracts + 1))
    tract_vertex = tracts.ring_ptr[tract_ring]
    first = tract_vertex[:-1]
    col0 = np.floor(np.minimum.reduceat(gx, first))
    row0 = np.floor(np.minimum.reduceat(gy, first))
    width = (np.ceil(np.maximum.reduceat(gx, first)) - col0).astype(np.int64)
    height = (np.ceil(np.maximum.reduceat(gy, first)) - row0).astype(np.int64)

    # runs of tracts holding about _CHUNK_CELLS bbox cells and _CHUNK_VERTICES vertices
    bounds = _runs(n_tracts, (height * (width + 1), _CHUNK_CELLS),
                   (np.diff(tract_vertex), _CHUNK_VERTICES))

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
        ids=np.array(tracts.geoids, dtype=np.int64),
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
    n = len(coverage.ids)
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


def build_tract_surface(grid: ConcentrationGrid, coverage: TractCoverage,
                        year: int) -> TractSurface:
    """Reduce one year's grid over precomputed coverage, in ascending tract
    id order. Tracts without valid coverage are excluded. Valued tracts whose
    valid covered area is under 99% of their polygon area are summarized in
    ``completeness`` and in one warning."""
    mean, den = _zonal_means(grid, coverage)
    valued = den > 0.0
    excluded = coverage.ids[~valued]
    if len(excluded):
        logger.warning("%d tract(s) with no valid grid coverage excluded", len(excluded))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = den / coverage.polygon_area
    low = np.flatnonzero(valued & (ratio < 0.99))
    low = low[np.argsort(ratio[low], kind="stable")]  # ties stay in geoid order
    completeness = {
        "below_0.99": len(low),
        "below_0.5": int((ratio[low] < 0.5).sum()),
        "worst": [[g, r] for g, r in zip(geoid_text(coverage.ids[low[:5]]), ratio[low[:5]].tolist())],
    }
    if len(low):
        logger.warning("year %d: %d valued tract(s) have under 99%% of their area on valid "
                       "grid cells (%d under 50%%); worst %s", year, len(low),
                       completeness["below_0.5"], completeness["worst"])
    return TractSurface(year, coverage.ids[valued], mean[valued], excluded, completeness)


class _Sweep(NamedTuple):
    """Closed boxes (x0, y0, x1, y1) sorted by their low end on one axis, with
    the running maximum of their high ends on it, so that the boxes able to
    meet a query box lie in one window of that order."""

    boxes: np.ndarray
    axis: int
    order: np.ndarray
    lo: np.ndarray     # the low ends, ascending
    reach: np.ndarray  # the running maximum of the high ends, in that order

    @classmethod
    def of(cls, boxes: np.ndarray, axis: int) -> "_Sweep":
        order = np.argsort(boxes[:, axis], kind="stable")
        return cls(boxes, axis, order, boxes[order, axis],
                   np.maximum.accumulate(boxes[order, axis + 2]))

    def pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, box) index pairs of the closed query boxes and boxes that meet."""
        a = self.axis
        start = np.searchsorted(self.reach, queries[:, a], side="left")
        stop = np.searchsorted(self.lo, queries[:, a + 2], side="right")
        q, rank = _expand(np.maximum(stop - start, 0))
        b = self.order[start[q] + rank]
        qb, bb = queries[q], self.boxes[b]
        keep = ((qb[:, 0] <= bb[:, 2]) & (bb[:, 0] <= qb[:, 2])
                & (qb[:, 1] <= bb[:, 3]) & (bb[:, 1] <= qb[:, 3]))
        return q[keep], b[keep]


class _Edges(NamedTuple):
    """Directed edges of nonzero length, with the owner of each, in owner order."""

    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    owner: np.ndarray

    def take(self, idx) -> "_Edges":
        return _Edges(*(a[idx] for a in self))

    def boxes(self) -> np.ndarray:
        return np.column_stack((np.minimum(self.x0, self.x1), np.minimum(self.y0, self.y1),
                                np.maximum(self.x0, self.x1), np.maximum(self.y0, self.y1)))


def _oriented_edges(polygons: PolygonSet) -> _Edges:
    """Every ring edge, exteriors turned counter-clockwise and holes clockwise."""
    ring_len = np.diff(polygons.ring_ptr)
    start = np.ones(len(polygons.xy), dtype=bool)
    start[polygons.ring_ptr[1:] - 1] = False
    e0 = np.flatnonzero(start)
    edge_ring = np.repeat(np.arange(len(ring_len)), ring_len - 1)
    flip = ((polygons.ring_area < 0.0) != polygons.ring_hole)[edge_ring]
    a, b = polygons.xy[np.where(flip, e0 + 1, e0)], polygons.xy[np.where(flip, e0, e0 + 1)]
    keep = (a != b).any(axis=1)
    return _Edges(a[keep, 0], a[keep, 1], b[keep, 0], b[keep, 1],
                  polygons.ring_owner[edge_ring[keep]])


def _winding(px, py, x_end, edges: _Edges, rays: _Sweep, owner=None) -> np.ndarray:
    """Winding number of each point about the rings of ``edges``, or of the
    point's ``owner`` only: the signed crossings of the ray from the point to
    ``x_end``, at or beyond those rings' rightmost vertex. ``rays`` sweeps the
    edges' boxes along y. Half-open in y, so a ray through a vertex crosses
    once."""
    q, e = rays.pairs(np.column_stack((px, py, np.broadcast_to(x_end, np.shape(px)), py)))
    if owner is not None:
        mine = edges.owner[e] == owner[q]
        q, e = q[mine], e[mine]
    x, y = px[q], py[q]
    x0, y0, x1, y1 = edges.x0[e], edges.y0[e], edges.x1[e], edges.y1[e]
    side = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)  # > 0: the point is left of the edge
    up = (y0 <= y) & (y < y1) & (side > 0.0)
    down = (y1 <= y) & (y < y0) & (side < 0.0)
    return np.bincount(q, weights=up.astype(np.float64) - down, minlength=len(px))


def _boundary_area(x0, y0, x1, y1, owner, ref, cut_seg, cut_t, on_seg, on_lo, on_hi,
                   on_weight, winding) -> np.ndarray:
    """Per owner, the integral of (x - ref) dy along segments ``k`` running
    (x0, y0) -> (x1, y1), each weighted piecewise. Segment ``k`` is split at
    the parameters ``cut_t`` of its cuts (``cut_seg == k``). A piece lying on
    an overlap record (``on_seg == k``, over (on_lo, on_hi)) weighs the sum of
    those records' ``on_weight``; any other piece weighs
    ``winding(mid x, mid y, owner)`` at its midpoint."""
    n = len(x0)
    seg = np.concatenate((np.arange(n), np.arange(n), cut_seg))
    t = np.concatenate((np.zeros(n), np.ones(n), cut_t))
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    at = np.flatnonzero(seg[1:] == seg[:-1])
    seg, t0, t1 = seg[at], t[at], t[at + 1]

    def point(a0, a1, t):  # the segment's own end point at t == 1
        return np.where(t == 1.0, a1[seg], a0[seg] + t * (a1[seg] - a0[seg]))

    xa, ya, xb, yb = point(x0, x1, t0), point(y0, y1, t0), point(x0, x1, t1), point(y0, y1, t1)
    # the overlap records covering each piece
    order = np.argsort(on_seg, kind="stable")
    on_seg, on_lo, on_hi, on_weight = on_seg[order], on_lo[order], on_hi[order], on_weight[order]
    first = np.searchsorted(on_seg, seg, side="left")
    p, rank = _expand(np.searchsorted(on_seg, seg, side="right") - first)
    r = first[p] + rank
    mid = 0.5 * (t0[p] + t1[p])
    covers = (on_lo[r] < mid) & (mid < on_hi[r])
    weight = np.bincount(p[covers], weights=on_weight[r[covers]], minlength=len(seg))
    off = np.flatnonzero((np.bincount(p[covers], minlength=len(seg)) == 0) & (ya != yb))
    weight[off] = winding(0.5 * (xa[off] + xb[off]), 0.5 * (ya[off] + yb[off]), owner[seg[off]])
    o = owner[seg]
    return np.bincount(o, weights=0.5 * (xa + xb - 2.0 * ref[o]) * (yb - ya) * weight,
                       minlength=len(ref))


class _Mask(NamedTuple):
    """A mask's oriented edges, swept along x for pairs and along y for rays."""

    edges: _Edges
    by_x: _Sweep
    by_y: _Sweep

    @classmethod
    def of(cls, mask: PolygonSet) -> "_Mask":
        edges = _oriented_edges(mask)
        boxes = edges.boxes()
        return cls(edges, _Sweep.of(boxes, 0), _Sweep.of(boxes, 1))

    def winding(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Each point's winding number about the mask."""
        return _winding(px, py, self.by_x.reach[-1], self.edges, self.by_y)


def _side(ax, ay, bx, by, px, py):
    """(b - a) x (p - a), positive when p lies left of the line a -> b, and
    whether it is within rounding of 0, so that p counts as on the line."""
    side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    scale = (np.abs(bx - ax) + np.abs(by - ay)) * (np.abs(px) + np.abs(py)
                                                   + np.abs(ax) + np.abs(ay))
    return side, np.abs(side) <= _ON_LINE * scale


def _chunk_overlap(tract_edges: _Edges, tract_bbox: np.ndarray, tract_area: np.ndarray,
                   corner: np.ndarray, mask: _Mask) -> np.ndarray:
    """The area of each tract of a run inside the mask; ``tract_edges.owner``
    indexes the run's tracts, the rows of ``tract_bbox``, ``tract_area`` and
    ``corner`` (one vertex of each tract)."""
    n_tracts = len(tract_bbox)
    # each mask edge meeting a tract's box
    tt, jm = mask.by_x.pairs(tract_bbox)
    order = np.argsort(jm * n_tracts + tt, kind="stable")
    tt, jm = tt[order], jm[order]
    # The mask's boundary misses the box of any other tract, so such a tract
    # lies wholly inside or outside each mask polygon.
    far = np.bincount(tt, minlength=n_tracts) == 0
    area = np.where(far, tract_area * mask.winding(corner[:, 0], corner[:, 1]), 0.0)
    te, me = tract_edges.take(np.flatnonzero(~far[tract_edges.owner])), mask.edges
    te_boxes = te.boxes()
    # x is taken relative to each tract's left edge, so the terms stay small
    ref = tract_bbox[:, 0]

    # every (tract edge, mask edge) pair whose boxes meet
    i, j = mask.by_x.pairs(te_boxes)
    px0, py0, px1, py1 = te.x0[i], te.y0[i], te.x1[i], te.y1[i]
    qx0, qy0, qx1, qy1 = me.x0[j], me.y0[j], me.x1[j], me.y1[j]
    # each end point's side of the other edge's line: one expression per
    # (edge, vertex), so edges sharing a vertex agree on where it lies
    oq0, zq0 = _side(px0, py0, px1, py1, qx0, qy0)
    oq1, zq1 = _side(px0, py0, px1, py1, qx1, qy1)
    op0, zp0 = _side(qx0, qy0, qx1, qy1, px0, py0)
    op1, zp1 = _side(qx0, qy0, qx1, qy1, px1, py1)
    # parameters of the other edge's end points projected on each edge
    dx, dy, ex, ey = px1 - px0, py1 - py0, qx1 - qx0, qy1 - qy0
    dd, ee = dx * dx + dy * dy, ex * ex + ey * ey
    sq0 = ((qx0 - px0) * dx + (qy0 - py0) * dy) / dd
    sq1 = ((qx1 - px0) * dx + (qy1 - py0) * dy) / dd
    rp0 = ((px0 - qx0) * ex + (py0 - qy0) * ey) / ee
    rp1 = ((px1 - qx0) * ex + (py1 - qy0) * ey) / ee
    collinear = (zq0 & zq1) | (zp0 & zp1)
    proper = ((oq0 < 0.0) != (oq1 < 0.0)) & ((op0 < 0.0) != (op1 < 0.0)) & \
        ~(zq0 | zq1 | zp0 | zp1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = op0 / (op0 - op1)
        u = oq0 / (oq0 - oq1)

    def inside(s):
        return (s > 0.0) & (s < 1.0)

    on_q0, on_q1 = (zq0 | collinear) & inside(sq0), (zq1 | collinear) & inside(sq1)
    on_p0, on_p1 = (zp0 | collinear) & inside(rp0), (zp1 | collinear) & inside(rp1)
    # tract boundary pieces on a mask edge count when both run the same way
    lo, hi = np.clip(np.minimum(sq0, sq1), 0.0, 1.0), np.clip(np.maximum(sq0, sq1), 0.0, 1.0)
    on = collinear & (hi > lo)
    area += _boundary_area(
        te.x0, te.y0, te.x1, te.y1, te.owner, ref,
        np.concatenate((i[proper], i[on_q0], i[on_q1])),
        np.concatenate((t[proper], sq0[on_q0], sq1[on_q1])),
        i[on], lo[on], hi[on], (dx * ex + dy * ey > 0.0)[on].astype(np.float64),
        lambda x, y, _: mask.winding(x, y))

    # each mask edge meeting a tract's box, split by that tract's edges; its
    # pieces on the tract's boundary never count
    key = (jm * n_tracts + tt, j * n_tracts + te.owner[i])  # (mask edge, tract) pairs
    lo, hi = np.clip(np.minimum(rp0, rp1), 0.0, 1.0), np.clip(np.maximum(rp0, rp1), 0.0, 1.0)
    on = collinear & (hi > lo)
    rays = _Sweep.of(te_boxes, 1)
    return area + _boundary_area(
        me.x0[jm], me.y0[jm], me.x1[jm], me.y1[jm], tt, ref,
        np.searchsorted(key[0], np.concatenate((key[1][proper], key[1][on_p0], key[1][on_p1]))),
        np.concatenate((u[proper], rp0[on_p0], rp1[on_p1])),
        np.searchsorted(key[0], key[1][on]), lo[on], hi[on], np.zeros(int(on.sum())),
        lambda x, y, tract: _winding(x, y, tract_bbox[tract, 2], te, rays, owner=tract))


def tract_areas(tracts: PolygonSet) -> np.ndarray:
    """Each tract's area: over its polygons, the exterior's area less its
    holes', at least 0."""
    hole = tracts.ring_hole
    polygon = np.cumsum(~hole) - 1
    polygon_area = np.maximum(
        np.bincount(polygon, weights=np.where(hole, -1.0, 1.0) * np.abs(tracts.ring_area)), 0.0)
    return np.bincount(tracts.ring_owner[~hole], weights=polygon_area,
                       minlength=tracts.n_owners)


def build_urban_mask(mask: PolygonSet, tracts: PolygonSet) -> np.ndarray:
    """Each tract's share of its area inside the mask polygons, in the
    tracts' geoid order; the tract is urban when it is at least URBAN_SHARE.

    The mask's polygons must be mutually disjoint (true for Census urban-area
    polygons); overlapping ones would be double counted. Raises
    DegenerateGeometryError for a tract of zero area.
    """
    area = tract_areas(tracts)
    if (area <= 0.0).any():
        raise DegenerateGeometryError(
            f"tract {tracts.geoids[int(np.argmax(area <= 0.0))]} has zero area")
    overlap = np.zeros(tracts.n_owners)
    if not mask.n_owners:
        return overlap
    mask = _Mask.of(mask)
    edges = _oriented_edges(tracts)
    edge_bounds = np.searchsorted(edges.owner, np.arange(tracts.n_owners + 1))
    corner = tracts.xy[tracts.ring_ptr[np.searchsorted(tracts.ring_owner,
                                                       np.arange(tracts.n_owners))]]
    bounds = _runs(tracts.n_owners, (np.diff(edge_bounds), _CHUNK_VERTICES))
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        chunk = edges.take(slice(edge_bounds[ta], edge_bounds[tb]))
        overlap[ta:tb] = _chunk_overlap(chunk._replace(owner=chunk.owner - ta),
                                        tracts.bbox[ta:tb], area[ta:tb], corner[ta:tb], mask)
    return np.maximum(overlap, 0.0) / area


def urban_counts(fraction: np.ndarray) -> dict[str, int]:
    """Urban and rural tract counts, and how many tracts lie within
    _NEAR_THRESHOLD of URBAN_SHARE, where float drift could flip the label."""
    urban = int((fraction >= URBAN_SHARE).sum())
    return {"urban": urban, "rural": len(fraction) - urban,
            "near_threshold": int((np.abs(fraction - URBAN_SHARE) <= _NEAR_THRESHOLD).sum())}
