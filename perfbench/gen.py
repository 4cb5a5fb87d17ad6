"""Seeded input generator for the benchmark workloads.

`generate` writes a complete hwexposure input set (ESRI ASCII grids, tract
and mask GeoJSON, LODES-style RAC/WAC/OD CSVs and a config) and returns a
`World` holding the same data as arrays. The checker and the work counters
use the World, never the program's own reading of the files. The same
(workload, seed) always gives byte-identical files.

Grid values are quarter units, so one-cell tracts get their cell's value
exactly. Every table row's category counts are drawn by a multinomial split of
its total, so category sums equal totals by construction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# LODES v7 category columns (see FORMATS.md) by characteristic. Education is
# tabulated for workers aged 30+ only, so it does not partition the total.
RAC_WAC_SCHEMAS = (
    ("race", ("CR01", "CR02", "CR03", "CR04", "CR05", "CR07")),
    ("ethnicity", ("CT01", "CT02")),
    ("sex", ("CS01", "CS02")),
    ("age", ("CA01", "CA02", "CA03")),
    ("income", ("CE01", "CE02", "CE03")),
    ("education", ("CD01", "CD02", "CD03", "CD04")),
    ("jobtype", tuple(f"CNS{i:02d}" for i in range(1, 21))),
)
OD_SCHEMAS = (
    ("od_age", ("SA01", "SA02", "SA03")),
    ("od_income", ("SE01", "SE02", "SE03")),
    ("od_supersector", ("SI01", "SI02", "SI03")),
)
RAC_WAC_CODES = tuple(c for _, codes in RAC_WAC_SCHEMAS for c in codes)
OD_CODES = tuple(c for _, codes in OD_SCHEMAS for c in codes)

FIRST_YEAR = 2011
NODATA = -9999.0
EPSILONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
THRESHOLDS = (12.0, 10.0, 5.0)
STAR_VERTICES = 64
STAR_RADIUS = (3.0, 9.5)  # cells; tract bbox cells vary ~10x
MASK_VERTICES = 16


@dataclass(frozen=True)
class Workload:
    """A workload's sizes; BENCHMARK.json says why each workload is there."""

    name: str
    tract_shape: str         # "star": jittered star polygons; "cell": one grid cell each
    tracts: int
    years: int
    states: int
    blocks_per_tract: int    # RAC blocks and WAC blocks per tract
    od_rows: int             # OD block rows drawn per year, before merging repeats
    threads: int
    strata: bool
    bin_counts: tuple[int, ...] = (100, 10)
    mask_stars: int = 0      # 0: one square mask part in the middle of the world


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="star_zonal",
            tract_shape="star", tracts=120, years=3, states=2, blocks_per_tract=2,
            od_rows=2000, threads=2, strata=False, bin_counts=(10,),
        ),
        Workload(
            name="od_heavy",
            tract_shape="cell", tracts=600, years=2, states=4, blocks_per_tract=5,
            od_rows=10000, threads=1, strata=False, bin_counts=(10,),
        ),
        Workload(
            name="wide_disparity",
            tract_shape="cell", tracts=2000, years=1, states=50, blocks_per_tract=2,
            od_rows=2000, threads=1, strata=True, mask_stars=3,
        ),
    )
}


@dataclass(frozen=True)
class Table:
    """One year's RAC or WAC block table: a tract index per row."""

    tract: np.ndarray   # int64 (rows,)
    totals: np.ndarray  # int64 (rows,)
    counts: np.ndarray  # int64 (rows, len(RAC_WAC_CODES))


@dataclass(frozen=True)
class ODTable:
    home: np.ndarray    # int64 tract index (rows,)
    work: np.ndarray
    totals: np.ndarray
    counts: np.ndarray  # int64 (rows, len(OD_CODES))


@dataclass(frozen=True)
class World:
    workload: Workload
    config_path: Path
    geoids: tuple[str, ...]        # ascending; tract index order
    years: tuple[int, ...]
    grids: tuple[np.ndarray, ...]  # per year, float64 bottom-up, NaN where nodata
    bbox: np.ndarray               # int64 (tracts, 4): row0, row1, col0, col1 (exclusive ends)
    tract_vertices: int
    mask_vertices: int
    mask_parts: int
    rac: tuple[Table, ...]
    wac: tuple[Table, ...]
    od: tuple[ODTable, ...]

    @property
    def cell_tracts(self) -> bool:
        return self.workload.tract_shape == "cell"

    def covered(self, year_index: int) -> np.ndarray:
        """Tracts with at least one valid cell under them in that year.

        Star tracts span at least four grid columns and the nodata strip is
        one column wide, so every star tract keeps valid coverage.
        """
        if not self.cell_tracts:
            return np.ones(len(self.geoids), dtype=bool)
        grid = self.grids[year_index]
        return ~np.isnan(grid[self.bbox[:, 0], self.bbox[:, 2]])


def star_polygon(rng, cx, cy, r_lo, r_hi, n_verts):
    """Random simple polygon: jittered even angular spacing keeps gaps < pi."""
    jitter = rng.uniform(0.08, 0.92, size=n_verts)
    angles = 2.0 * math.pi * (np.arange(n_verts) + jitter) / n_verts
    radii = rng.uniform(r_lo, r_hi, size=n_verts)
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]


def _closed(ring):
    pts = [[float(x), float(y)] for x, y in ring]
    return pts + [pts[0]]


def _feature_collection(features) -> str:
    return json.dumps({"type": "FeatureCollection", "features": features},
                      sort_keys=True, separators=(",", ":")) + "\n"


def _polygon_feature(ring, properties) -> dict:
    return {"type": "Feature", "properties": properties,
            "geometry": {"type": "Polygon", "coordinates": [_closed(ring)]}}


def _layout(w: Workload, rng):
    """Tract rings, bounding boxes in cells, and grid shape."""
    n = w.tracts
    if w.tract_shape == "cell":
        n_cols = math.ceil(math.sqrt(n))
        n_rows = math.ceil(n / n_cols)
        idx = np.arange(n)
        rows, cols = idx // n_cols, idx % n_cols
        rings = [((c, r), (c + 1, r), (c + 1, r + 1), (c, r + 1))
                 for r, c in zip(rows.tolist(), cols.tolist())]
        bbox = np.stack([rows, rows + 1, cols, cols + 1], axis=1).astype(np.int64)
        return rings, bbox, n_rows, n_cols
    r_min, r_max = STAR_RADIUS
    side = math.ceil(math.sqrt(n))
    spacing = 2 * math.ceil(r_max) + 2
    n_cols = side * spacing
    n_rows = math.ceil(n / side) * spacing
    # Radii are a fixed log-spaced ladder in a seeded order, so total work
    # hardly depends on the seed while the slow tracts land anywhere.
    radii = rng.permutation(np.geomspace(r_min, r_max, n))
    rings, boxes = [], []
    for i in range(n):
        row, col = divmod(i, side)
        cx = (col + 0.5) * spacing + rng.uniform(-0.5, 0.5)
        cy = (row + 0.5) * spacing + rng.uniform(-0.5, 0.5)
        ring = star_polygon(rng, cx, cy, 0.7 * radii[i], radii[i], STAR_VERTICES)
        xs = [x for x, _ in ring]
        ys = [y for _, y in ring]
        # The engine's bounding-box cell range (unit cells, origin 0).
        boxes.append((max(math.floor(min(ys)), 0), min(math.ceil(max(ys)), n_rows),
                      max(math.floor(min(xs)), 0), min(math.ceil(max(xs)), n_cols)))
        rings.append(ring)
    return rings, np.array(boxes, dtype=np.int64), n_rows, n_cols


def _mask_rings(w: Workload, rng, n_rows: int, n_cols: int):
    if w.mask_stars == 0:
        r0, r1 = round(0.4 * n_rows), round(0.6 * n_rows)
        c0, c1 = round(0.4 * n_cols), round(0.6 * n_cols)
        return [((c0, r0), (c1, r0), (c1, r1), (c0, r1))]
    # One star per quadrant, radius below a fifth of the world: parts are disjoint.
    quadrants = rng.permutation(4)[:w.mask_stars]
    rings = []
    for q in quadrants.tolist():
        cx = (0.25 + 0.5 * (q % 2)) * n_cols
        cy = (0.25 + 0.5 * (q // 2)) * n_rows
        radius = 0.2 * min(n_rows, n_cols)
        rings.append(star_polygon(rng, cx, cy, 0.5 * radius, radius, MASK_VERTICES))
    return rings


def _grid_values(rng, n_rows: int, n_cols: int, year_index: int) -> np.ndarray:
    """Quarter-unit field with two hotspots and noise; one column of nodata."""
    y, x = np.mgrid[0:n_rows, 0:n_cols]
    x = (x + 0.5) / n_cols
    y = (y + 0.5) / n_rows
    field = np.full((n_rows, n_cols), 3.0 - 0.25 * year_index)
    for _ in range(2):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        field += rng.uniform(6.0, 10.0) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.05)
    field += rng.normal(0.0, 0.75, size=field.shape)
    values = np.maximum(np.round(field * 4.0) / 4.0, 0.25)
    values[:, int(rng.integers(0, n_cols))] = np.nan
    return values


def _write_asc(path: Path, values: np.ndarray) -> None:
    n_rows, n_cols = values.shape
    lines = [f"ncols {n_cols}", f"nrows {n_rows}", "xllcorner 0.0", "yllcorner 0.0",
             "cellsize 1.0", f"NODATA_value {NODATA:g}"]
    top_down = np.where(np.isnan(values), NODATA, values)[::-1]
    lines += [" ".join(map(repr, row)) for row in top_down.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _split(rng, totals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return rng.multinomial(totals, probs).astype(np.int64)


def _block_table(rng, tract: np.ndarray, totals: np.ndarray, n_tracts: int) -> Table:
    """Category counts by schema; each tract has its own composition."""
    parts = []
    age = None
    for characteristic, codes in RAC_WAC_SCHEMAS:
        probs = rng.dirichlet(np.full(len(codes), 1.5), size=n_tracts)[tract]
        if characteristic == "education":
            parts.append(_split(rng, totals - age[:, 0], probs))
        else:
            parts.append(_split(rng, totals, probs))
        if characteristic == "age":
            age = parts[-1]
    return Table(tract=tract, totals=totals.astype(np.int64), counts=np.hstack(parts))


def _od_table(rng, w: Workload, n_blocks: int, hubs: np.ndarray):
    """The OD table plus each row's work and home block index."""
    b = w.blocks_per_tract
    home_block = rng.integers(0, n_blocks, size=w.od_rows)
    work_block = rng.integers(0, n_blocks, size=w.od_rows)
    to_hub = rng.random(w.od_rows) < 0.5
    work_block[to_hub] = hubs[rng.integers(0, len(hubs), size=int(to_hub.sum()))] * b \
        + rng.integers(0, b, size=int(to_hub.sum()))
    # LODES order: work block, then home block; repeated pairs merge into one row.
    key = np.unique(work_block * n_blocks + home_block)
    work_block, home_block = key // n_blocks, key % n_blocks
    home, work = home_block // b, work_block // b
    totals = rng.integers(1, 9, size=len(key)).astype(np.int64)
    parts = []
    for _, codes in OD_SCHEMAS:
        probs = rng.dirichlet(np.full(len(codes), 2.0), size=w.tracts)[home]
        parts.append(_split(rng, totals, probs))
    od = ODTable(home=home, work=work, totals=totals, counts=np.hstack(parts))
    return od, home_block, work_block


def _write_rows(path: Path, header, columns) -> None:
    cols = [c if isinstance(c, list) else c.tolist() for c in columns]
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in zip(*cols)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: Workload, seed: int, out_dir: Path) -> World:
    """Write the workload's inputs and config.json to ``out_dir``."""
    w = workload
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])

    states = (np.arange(w.tracts) * w.states) // w.tracts + 1
    geoids = tuple(f"{s:02d}001{i:06d}" for i, s in enumerate(states.tolist()))
    years = tuple(FIRST_YEAR + k for k in range(w.years))

    rings, bbox, n_rows, n_cols = _layout(w, rng)
    (out / "tracts.geojson").write_text(_feature_collection(
        [_polygon_feature(r, {"GEOID": g}) for g, r in zip(geoids, rings)]), encoding="utf-8")
    mask = _mask_rings(w, rng, n_rows, n_cols)
    (out / "urban.geojson").write_text(_feature_collection(
        [_polygon_feature(r, {"NAME": f"urban{k}"}) for k, r in enumerate(mask)]), encoding="utf-8")

    b = w.blocks_per_tract
    block_tract = np.repeat(np.arange(w.tracts, dtype=np.int64), b)
    block_codes = [g + f"{k + 1:04d}" for g in geoids for k in range(b)]
    hubs = rng.choice(w.tracts, size=max(w.tracts // 50, 2), replace=False)
    hub_scale = np.ones(w.tracts, dtype=np.int64)
    hub_scale[hubs] = 8

    grids, racs, wacs, ods = [], [], [], []
    for k, year in enumerate(years):
        grid = _grid_values(rng, n_rows, n_cols, k)
        _write_asc(out / f"grid_{year}.asc", grid)
        grids.append(grid)
        for role, key, tables, scale in (("rac", "h_geocode", racs, 1),
                                         ("wac", "w_geocode", wacs, hub_scale[block_tract])):
            totals = rng.integers(10, 120, size=len(block_tract)) * scale
            table = _block_table(rng, block_tract, totals, w.tracts)
            tables.append(table)
            _write_rows(out / f"{role}_{year}.csv", [key, "C000", *RAC_WAC_CODES],
                        [block_codes, table.totals, *table.counts.T])
        od, home_block, work_block = _od_table(rng, w, len(block_tract), hubs)
        ods.append(od)
        _write_rows(out / f"od_{year}.csv", ["w_geocode", "h_geocode", "S000", *OD_CODES],
                    [[block_codes[i] for i in work_block.tolist()],
                     [block_codes[i] for i in home_block.tolist()], od.totals, *od.counts.T])

    config = {
        "years": list(years),
        "grid": "grid_{year}.asc",
        "tracts": "tracts.geojson",
        "urban_mask": "urban.geojson",
        "rac": "rac_{year}.csv",
        "wac": "wac_{year}.csv",
        "od": "od_{year}.csv",
        "stages": ["surface", "exposure", "disparity", "bias"],
        "hw_weights": {"home": 0.794, "work": 0.206},
        "bin_counts": list(w.bin_counts),
        "epsilons": list(EPSILONS),
        "thresholds": list(THRESHOLDS),
        "strata": w.strata,
        "threads": w.threads,
        "out_dir": "out",
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return World(
        workload=w, config_path=config_path, geoids=geoids, years=years,
        grids=tuple(grids), bbox=bbox,
        tract_vertices=sum(len(r) for r in rings), mask_vertices=sum(len(r) for r in mask),
        mask_parts=len(mask), rac=tuple(racs), wac=tuple(wacs), od=tuple(ods),
    )


def work_counts(world: World) -> dict[str, int]:
    """Work one run does, counted from the generated inputs."""
    rows = world.bbox[:, 1] - world.bbox[:, 0]
    cols = world.bbox[:, 3] - world.bbox[:, 2]
    n_years = len(world.years)
    return {
        "zonal.bbox_cells": int((rows * cols).sum()) * n_years,
        "zonal.mask_tests": len(world.geoids) * world.mask_parts,
        "grids.cells": sum(int(g.size) for g in world.grids),
        "geometry.vertices": world.tract_vertices + world.mask_vertices,
        "ingest.od_rows": sum(len(od.totals) for od in world.od),
        "ingest.od_pairs_out": sum(len(np.unique(od.home * len(world.geoids) + od.work))
                                   for od in world.od),
        "ingest.block_rows": sum(len(t.totals) for t in world.rac + world.wac),
        "tract_years": len(world.geoids) * n_years,
    }
