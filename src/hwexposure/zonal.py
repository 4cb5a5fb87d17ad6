"""Zonal aggregation of a concentration grid over tract polygons, plus
urban/rural classification against a mask polygon set.

Both exact-area kernels take their edges from ``_oriented_edges``, one run
of tracts at a time: exterior rings turned counter-clockwise and holes
clockwise by the sign of ``PolygonSet.ring_area``.

Cell weights are exact coverage areas. ``tract_coverage`` computes them once
per grid lattice with a signed-area accumulation rasterizer, the exact-area
technique of font-rs and exactextract, on each tract's cell box clipped to the
grid: every ring edge is split at the box's row and column lines it crosses,
each piece in the box adds its signed area to its own cell and the rest of its
height to the next cell, a piece left of the box adds all its height to the
box's first column, and a prefix sum along each row turns those into the
covered fraction of every cell. ``build_tract_surface`` then reduces one
year's grid over that coverage: the zonal value is
sum(value * covered_area) / sum(covered_area) over the cells with data, and its
completeness is the valid covered area over the tract's ``PolygonSet.area``. A
``TractSurface`` covers every tract of the run, with NaN where a tract has no
valid coverage that year: it is excluded rather than failing the run.

``build_urban_mask`` measures each tract's overlap with the mask by Green's
theorem: area(T ∩ M) is the integral of x dy over the pieces of T's boundary
inside M plus the pieces of M's boundary inside T. Every tract edge is split
where it meets a mask edge and every mask edge where it meets a tract edge;
each piece's midpoint is classified by a winding-number (signed crossing)
test. A piece of T's boundary lying on M's boundary counts when the two run
the same way; a piece of M's boundary lying on T's boundary never counts.
Candidate pairs come from sorted windows of boxes, so no step is quadratic in
the edges.
"""
from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .geometry import PolygonSet, geoid_text
from .grids import ConcentrationGrid

logger = logging.getLogger(__name__)

URBAN = "urban"
RURAL = "rural"
# A tract's stratum code indexes this: 0 rural, 1 urban.
STRATA = (RURAL, URBAN)

# A tract is urban when at least this share of its area lies in the mask; a
# share within _NEAR_THRESHOLD of it could flip under float drift.
URBAN_SHARE = 0.5
_NEAR_THRESHOLD = 1e-9

# Tracts are processed in runs of about this many dense cells of their boxes
# on the grid (8 MiB of float64) and ring vertices, so memory stays bounded.
_CHUNK_CELLS = 1 << 20
_CHUNK_VERTICES = 1 << 17
# A vertex within this factor times (edge length) x (coordinate size) of an
# edge's line counts as lying on it: a few units of float64 rounding.
_ON_LINE = 64 * np.finfo(np.float64).eps
# Covered fractions at or below this are float residue, not coverage: in an
# uncovered cell beside a ring the row's prefix sum cancels to ~1e-16, not 0.
_MIN_FRACTION = 1e-12


class TractSurface(NamedTuple):
    """Per-tract zonal concentrations for one year over every tract of the
    run: the float64 ``values`` of the tracts ``ids`` (int64, ascending), NaN
    where a tract is ``excluded`` for want of valid coverage. No value is
    negative: the grid reader rejects negative cells, and each mean lies
    within its valid cells' range. ``strata`` is each tract's int8 code (an
    index into ``STRATA``), None in a run that reports only ``all``.

    ``completeness`` summarizes valued tracts by valid covered area over
    polygon area: how many are under 0.99 and under 0.5, and the worst five
    of those under 0.99 as [geoid, ratio], lowest first.
    """

    year: int
    ids: np.ndarray     # int64
    values: np.ndarray  # float64
    completeness: dict
    strata: np.ndarray | None

    @property
    def excluded(self) -> np.ndarray:
        """The ids of the tracts without a value this year."""
        return self.ids[np.isnan(self.values)]


class TractCoverage(NamedTuple):
    """Exact tract x cell coverage on one grid lattice, as CSR arrays.

    Tract ``i`` (``ids`` ascending) covers the flat cells
    ``cell_idx[tract_ptr[i]:tract_ptr[i + 1]]`` (``row * n_cols + col``,
    row-major) with the areas ``area[...]`` in grid units squared.
    ``polygon_area`` is each tract's ``PolygonSet.area``, on the grid or off
    it: the denominator of coverage completeness.
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


def _line_crossings(a0: np.ndarray, a1: np.ndarray, side: np.ndarray):
    """For each edge running a0 -> a1 along one axis, the integer lines in [0, side]
    strictly between its ends: (edge index, line, parameter t in (0, 1)) per crossing."""
    first = np.maximum(np.floor(np.minimum(a0, a1)) + 1.0, 0.0)
    last = np.minimum(np.ceil(np.maximum(a0, a1)) - 1.0, side)
    edge, rank = _expand(np.maximum(last - first + 1.0, 0.0).astype(np.int64))
    line = first[edge] + rank
    return edge, line, (line - a0[edge]) / (a1[edge] - a0[edge])


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


def _oriented_edges(polygons: PolygonSet, ra: int, rb: int) -> _Edges:
    """The edges of rings ra:rb, exteriors turned counter-clockwise and holes
    clockwise by the sign of ``ring_area``."""
    ptr = polygons.ring_ptr[ra:rb + 1]
    ring, rank = _expand(np.diff(ptr) - 1)
    e0 = ptr[ring] + rank
    ring += ra
    flip = (polygons.ring_area[ring] < 0.0) != polygons.ring_hole[ring]
    i, j = e0 + flip, e0 + ~flip
    x, y = polygons.xy[:, 0], polygons.xy[:, 1]
    keep = (x[i] != x[j]) | (y[i] != y[j])
    i, j = i[keep], j[keep]
    return _Edges(x[i], y[i], x[j], y[j], polygons.ring_owner[ring[keep]])


def _tract_runs(tracts: PolygonSet, *budgets):
    """Consecutive runs of tracts holding about _CHUNK_VERTICES ring vertices,
    and within any further (sizes, limit) budgets: yields each run's first and
    end tract and its oriented edges, owners counted from the run's first."""
    tract_ring = np.searchsorted(tracts.ring_owner, np.arange(tracts.n_owners + 1))
    bounds = _runs(tracts.n_owners, (np.diff(tracts.ring_ptr[tract_ring]), _CHUNK_VERTICES),
                   *budgets)
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        edges = _oriented_edges(tracts, tract_ring[ta], tract_ring[tb])
        yield ta, tb, edges._replace(owner=edges.owner - ta)


def _chunk_coverage(edges: _Edges, width: np.ndarray, height: np.ndarray):
    """Covered fraction of every cell of the boxes of a run of tracts.

    ``edges`` are the run's oriented edges in cell units from each tract's box
    corner; tract ``t`` of the run (``edges.owner``) has the box of
    ``height[t]`` rows by ``width[t]`` columns, which need not hold the whole
    tract. For each box cell covered by more than _MIN_FRACTION, returns its
    tract, box row, box column and covered fraction, clipped to 1.
    """
    steep = edges.y0 != edges.y1
    u0, v0, u1, v1, edge_tract = (a[steep] for a in edges)

    # split every edge at the column and row lines of its box that it crosses
    ex, xline, xt = _line_crossings(u0, u1, width[edge_tract])
    ey, yline, yt = _line_crossings(v0, v1, height[edge_tract])
    ends = np.arange(len(u0))
    edge = np.concatenate((ends, ex, ey, ends))
    t = np.concatenate((np.zeros(len(u0)), xt, yt, np.ones(len(u0))))
    u = np.concatenate((u0, xline, u0[ey] + yt * (u1[ey] - u0[ey]), u1))
    v = np.concatenate((v0, v0[ex] + xt * (v1[ex] - v0[ex]), yline, v1))
    order = np.lexsort((t, edge))
    edge, u, v = edge[order], u[order], v[order]
    # Consecutive points of one edge bound a piece lying inside a single cell
    # of the box, or wholly outside it; on oriented rings, each piece adds its
    # drop to the cells right of it. A piece left of the box adds all of it to
    # column 0; one right of, above or below the box adds none.
    piece = np.flatnonzero(edge[1:] == edge[:-1])
    dy = v[piece] - v[piece + 1]
    tract = edge_tract[edge[piece]]
    um = 0.5 * (u[piece] + u[piece + 1])
    vm = 0.5 * (v[piece] + v[piece + 1])
    keep = (dy != 0.0) & (um <= width[tract]) & (vm > 0.0) & (vm < height[tract])
    dy, tract, um, vm = dy[keep], tract[keep], np.maximum(um[keep], 0.0), vm[keep]
    col = np.minimum(np.floor(um), width[tract] - 1)
    row = np.floor(vm)
    partial = dy * (col + 1.0 - um)

    # One dense buffer: each tract's box rows, with an extra column that takes
    # the remainders of the last column's pieces.
    stride = width + 1
    cells = height * stride
    base = np.cumsum(cells) - cells
    idx = base[tract] + row.astype(np.int64) * stride[tract] + col.astype(np.int64)
    buf = np.bincount(np.concatenate((idx, idx + 1)),
                      weights=np.concatenate((partial, dy - partial)), minlength=int(cells.sum()))
    # Prefix sum along each box row, rows of one width at a time, so that a
    # cell's sum runs over its own row only, whatever else is in the run.
    row_width = np.repeat(stride, height)
    row_start = np.cumsum(row_width) - row_width
    for w in np.flatnonzero(np.bincount(row_width)).tolist():  # np.unique imports numpy.ma
        at = row_start[row_width == w][:, None] + np.arange(w)
        buf[at] = np.cumsum(buf[at], axis=1)

    pos = np.flatnonzero(buf > _MIN_FRACTION)
    tract = np.searchsorted(base, pos, side="right") - 1
    r, c = np.divmod(pos - base[tract], stride[tract])
    in_box = c < width[tract]
    return tract[in_box], r[in_box], c[in_box], np.minimum(buf[pos[in_box]], 1.0)


def tract_coverage(tracts: PolygonSet, grid: ConcentrationGrid) -> TractCoverage:
    """Exact coverage of every grid cell by every tract, for the grid's lattice.

    Only the lattice (origin, cell size, shape) is read, so the result serves
    every year whose grid has the same lattice. Holes subtract. Raises
    FormatError for a lattice that cannot place the tracts exactly.
    """
    ox, oy, cw, ch = grid.origin_x, grid.origin_y, grid.cell_width, grid.cell_height
    cell_area = cw * ch
    if not 0.0 < cell_area < np.inf:
        raise FormatError(f"cell area {cw!r} x {ch!r} must be finite and positive, "
                          f"got {cell_area!r}")
    # Each tract's bbox in cells: the cell transform is monotone, so these are
    # the floors and ceilings of its vertices' cell coordinates. They are
    # exact integers only within 2**53 of 0, and a tract whose extent rounds
    # away there spans no cell.
    lo = np.floor((tracts.bbox[:, :2] - (ox, oy)) / (cw, ch))
    hi = np.ceil((tracts.bbox[:, 2:] - (ox, oy)) / (cw, ch))
    if not ((np.abs(lo) <= 2.0 ** 53) & (np.abs(hi) <= 2.0 ** 53) & (hi > lo)).all():
        raise FormatError(f"origin ({ox!r}, {oy!r}) and cell size {cw!r} x {ch!r} put the "
                          "tracts outside the exact cell range: their cell coordinates must "
                          "be finite, within 2**53 of 0 and span a cell each")
    # clipped to the grid; a box that misses it has no cells
    n_rows, n_cols = grid.values.shape
    lo, hi = np.clip(lo, 0, (n_cols, n_rows)), np.clip(hi, 0, (n_cols, n_rows))
    col0, row0 = lo.T
    width, height = np.where((hi > lo).all(axis=1, keepdims=True), hi - lo, 0).astype(np.int64).T

    out_tract, out_cell, out_frac = [], [], []
    for ta, tb, e in _tract_runs(tracts, (height * (width + 1), _CHUNK_CELLS)):
        c0, r0 = col0[ta:tb][e.owner], row0[ta:tb][e.owner]
        tract, r, c, frac = _chunk_coverage(
            e._replace(x0=(e.x0 - ox) / cw - c0, y0=(e.y0 - oy) / ch - r0,
                       x1=(e.x1 - ox) / cw - c0, y1=(e.y1 - oy) / ch - r0),
            width[ta:tb], height[ta:tb])
        tract += ta
        out_tract.append(tract)
        out_cell.append((row0[tract].astype(np.int64) + r) * n_cols
                        + col0[tract].astype(np.int64) + c)
        out_frac.append(frac)
    counts = np.bincount(np.concatenate(out_tract), minlength=len(tracts.ids))
    return TractCoverage(
        lattice=grid.lattice,
        ids=tracts.ids,
        tract_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        cell_idx=np.concatenate(out_cell).astype(np.int64),
        area=np.concatenate(out_frac) * cell_area,
        polygon_area=tracts.area,
    )


def _zonal_means(grid: ConcentrationGrid,
                 coverage: TractCoverage) -> tuple[np.ndarray, np.ndarray]:
    """Per tract: the coverage-weighted mean over valid cells (NaN where there
    is none) and the valid covered area."""
    values = grid.values.ravel()[coverage.cell_idx]
    valid = ~np.isnan(values)
    weight = np.where(valid, coverage.area, 0.0)
    num, den, vmin, vmax = np.zeros((4, len(coverage.ids)))  # vmin, vmax read where den > 0
    starts = coverage.tract_ptr[:-1]
    some = coverage.tract_ptr[1:] > starts
    if some.any():  # reduceat needs non-empty segments
        first = starts[some]
        num[some] = np.add.reduceat(np.where(valid, weight * values, 0.0), first)
        den[some] = np.add.reduceat(weight, first)
        vmin[some] = np.fmin.reduceat(values, first)  # fmin and fmax skip NaN
        vmax[some] = np.fmax.reduceat(values, first)
    with np.errstate(invalid="ignore", divide="ignore"):
        # The weighted mean lies in [vmin, vmax] mathematically; clamp float drift.
        mean = np.minimum(np.maximum(num / den, vmin), vmax)
    return np.where(den > 0.0, mean, np.nan), den


def build_tract_surface(grid: ConcentrationGrid, coverage: TractCoverage, year: int,
                        strata: np.ndarray | None) -> TractSurface:
    """Reduce one year's grid over precomputed coverage, in ascending tract
    id order, with the run's ``strata`` codes. Tracts without valid coverage
    are excluded: their value is NaN. Valued tracts whose valid covered area
    is under 99% of their polygon area are summarized in ``completeness``
    and in one warning."""
    mean, den = _zonal_means(grid, coverage)
    valued = den > 0.0
    if not valued.all():
        logger.warning("%d tract(s) with no valid grid coverage excluded", (~valued).sum())
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
    return TractSurface(year, coverage.ids, mean, completeness, strata)


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
        edges = _oriented_edges(mask, 0, len(mask.ring_area))
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
                   mask: _Mask) -> np.ndarray:
    """The area of each tract of a run inside the mask; ``tract_edges.owner``
    indexes the run's tracts, the rows of ``tract_bbox`` and ``tract_area``."""
    n_tracts = len(tract_bbox)
    # each mask edge meeting a tract's box
    tt, jm = mask.by_x.pairs(tract_bbox)
    order = np.argsort(jm * n_tracts + tt)
    tt, jm = tt[order], jm[order]
    # The mask's boundary misses the box of any other tract, so such a tract
    # lies wholly inside or outside each mask polygon, as any vertex of it does.
    far = np.bincount(tt, minlength=n_tracts) == 0
    first = np.searchsorted(tract_edges.owner, np.arange(n_tracts))
    area = np.where(far, tract_area * mask.winding(tract_edges.x0[first], tract_edges.y0[first]),
                    0.0)
    te, me = tract_edges.take(np.flatnonzero(~far[tract_edges.owner])), mask.edges
    te_boxes = te.boxes()
    # x is taken relative to each tract's left edge, so the terms stay small
    ref = tract_bbox[:, 0]

    # every (tract edge, mask edge) pair whose boxes meet
    i, j = mask.by_x.pairs(te_boxes)
    px0, py0, px1, py1 = te.x0[i], te.y0[i], te.x1[i], te.y1[i]
    qx0, qy0, qx1, qy1 = me.x0[j], me.y0[j], me.x1[j], me.y1[j]
    # products of coordinates far from 0 may overflow to inf, or NaN after inf / inf
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
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
        t = op0 / (op0 - op1)
        u = oq0 / (oq0 - oq1)
    collinear = (zq0 & zq1) | (zp0 & zp1)
    proper = ((oq0 < 0.0) != (oq1 < 0.0)) & ((op0 < 0.0) != (op1 < 0.0)) & \
        ~(zq0 | zq1 | zp0 | zp1)

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


def build_urban_mask(mask: PolygonSet, tracts: PolygonSet) -> np.ndarray:
    """Each tract's share of its area inside the mask polygons, in the
    tracts' geoid order; the tract is urban when it is at least URBAN_SHARE.

    The mask's polygons must be mutually disjoint (true for Census urban-area
    polygons); overlapping ones would be double counted.
    """
    area = tracts.area
    overlap = np.zeros(tracts.n_owners)
    if not mask.n_owners:
        return overlap
    mask = _Mask.of(mask)
    for ta, tb, edges in _tract_runs(tracts):
        overlap[ta:tb] = _chunk_overlap(edges, tracts.bbox[ta:tb], area[ta:tb], mask)
    return np.maximum(overlap, 0.0) / area


def urban_counts(fraction: np.ndarray) -> dict[str, int]:
    """Urban and rural tract counts, and how many tracts lie within
    _NEAR_THRESHOLD of URBAN_SHARE, where float drift could flip the label."""
    urban = int((fraction >= URBAN_SHARE).sum())
    return {"urban": urban, "rural": len(fraction) - urban,
            "near_threshold": int((np.abs(fraction - URBAN_SHARE) <= _NEAR_THRESHOLD).sum())}
