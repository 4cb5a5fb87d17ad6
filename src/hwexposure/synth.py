"""Deterministic synthetic world generator for end-to-end testing.

Builds a square world of rectangular tracts (2x2 grid cells each), a
concentration field with a configurable spatial gradient, an urban mask over
the world's core, and mutually consistent RAC/WAC/OD tables generated at the
block level so every ingest invariant holds by construction.

Concentrations are rounded to quarter units, so zonal means and all linear
statistics downstream are exact in float64. With the work_hotspot gradient,
commutes flow toward the central tract where the field peaks, so every
commute's work-tract value is >= its home-tract value and W >= H for every
subgroup (strictly greater on odd-sided worlds, where the central tract is
unique and every group has peripheral homes).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _CONFIG_RULES
from .errors import ConfigError
from .ingest import OD_SCHEMAS, RAC_WAC_SCHEMAS

GRADIENT_KINDS = ("work_hotspot", "uniform", "linear_x")

_CELLS_PER_TRACT_SIDE = 2
_BLOCK_SUFFIXES = ("1001", "2002")


@dataclass(frozen=True)
class GradientSpec:
    """Shape of the synthetic concentration field."""

    kind: str = "work_hotspot"
    base: float = 6.0
    amplitude: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in GRADIENT_KINDS:
            raise ConfigError(f"unknown gradient kind {self.kind!r}; use one of {GRADIENT_KINDS}")
        if self.base < 0 or self.amplitude < 0:
            raise ConfigError("gradient base and amplitude must be non-negative")
        # the field's peak in quarter units; NaN and inf fail here too
        if not math.isfinite(4.0 * (self.base + self.amplitude)):
            raise ConfigError(f"gradient base and amplitude must be finite, with a finite peak "
                              f"4 * (base + amplitude); got {self.base!r} and {self.amplitude!r}")


def _quarter(x: float) -> float:
    return round(x * 4.0) / 4.0


def _field_value(spec: GradientSpec, x: float, y: float, extent: float) -> float:
    if spec.kind == "uniform":
        raw = spec.base
    elif spec.kind == "linear_x":
        raw = spec.base + spec.amplitude * x / extent
    else:  # work_hotspot
        cx = cy = extent / 2.0
        sigma = extent / 4.0
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        raw = spec.base + spec.amplitude * math.exp(-d2 / (2.0 * sigma * sigma))
    return _quarter(raw)


def synth(
    out_dir: str,
    seed: int = 0,
    n_tracts: int = 9,
    n_groups: int = 3,
    gradient: GradientSpec = GradientSpec(),
    year: int = 2011,
) -> dict:
    """Write a complete synthetic input set plus a runnable config.json.

    Returns the config dictionary. Identical arguments produce byte-identical
    files.
    """
    if not 2 <= n_tracts <= 1_000_000:  # six-digit tract codes
        raise ConfigError(f"need 2 to 1000000 tracts, got {n_tracts}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_groups < 1:
        raise ConfigError(f"need at least 1 group, got {n_groups}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    side = math.ceil(math.sqrt(n_tracts))
    extent = side * _CELLS_PER_TRACT_SIDE  # square world, unit cells

    geoids = []
    for i in range(n_tracts):
        state = "06" if i < (n_tracts + 1) // 2 else "41"
        geoids.append(f"{state}037{i:06d}")

    _write_grid(out / f"grid_{year}.asc", gradient, extent)
    _write_rectangles(out / "tracts.geojson",
                      [({"GEOID": geoid}, _tract_rect(i, side)) for i, geoid in enumerate(geoids)])
    # a central square covering the middle of the world: the core tract(s)
    # classify urban, the periphery rural
    inset = extent / 4.0
    _write_rectangles(out / "urban.geojson",
                      [({"NAME": "core"}, (inset, inset, extent - inset, extent - inset))])

    center = _center_tract_index(n_tracts, side)
    od_rows = _generate_od_rows(rng, geoids, center, n_groups)
    _write_od_csv(out / f"od_{year}.csv", od_rows)
    _write_rac_wac(rng, out, od_rows, n_groups, year)

    config = {
        "years": [year],
        "grid": "grid_{year}.asc",
        "tracts": "tracts.geojson",
        "urban_mask": "urban.geojson",
        "rac": "rac_{year}.csv",
        "wac": "wac_{year}.csv",
        "od": "od_{year}.csv",
        "stages": ["surface", "exposure", "disparity", "bias"],
        "hw_weights": _CONFIG_RULES["hw_weights"][0],
        "bin_counts": [3],
        "epsilons": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        "thresholds": [12.0, 10.0, 5.0],
        "strata": True,
        "threads": 1,
        "out_dir": "out",
    }
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config


def _center_tract_index(n_tracts: int, side: int) -> int:
    # tract whose cell block is closest to the world center
    best, best_d = 0, math.inf
    for i in range(n_tracts):
        row, col = divmod(i, side)
        cx = (col + 0.5) * _CELLS_PER_TRACT_SIDE
        cy = (row + 0.5) * _CELLS_PER_TRACT_SIDE
        half = side * _CELLS_PER_TRACT_SIDE / 2.0
        d = (cx - half) ** 2 + (cy - half) ** 2
        if d < best_d:
            best, best_d = i, d
    return best


def _write_grid(path: Path, gradient: GradientSpec, extent: int) -> None:
    lines = [
        f"ncols {extent}",
        f"nrows {extent}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        "cellsize 1.0",
        "NODATA_value -9999",
    ]
    for row in range(extent - 1, -1, -1):  # .asc lists the top row first
        values = [
            repr(_field_value(gradient, col + 0.5, row + 0.5, extent))
            for col in range(extent)
        ]
        lines.append(" ".join(values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tract_rect(i: int, side: int) -> tuple[float, float, float, float]:
    row, col = divmod(i, side)
    x0 = col * _CELLS_PER_TRACT_SIDE
    y0 = row * _CELLS_PER_TRACT_SIDE
    return (x0, y0, x0 + _CELLS_PER_TRACT_SIDE, y0 + _CELLS_PER_TRACT_SIDE)


def _write_rectangles(path: Path, features: list[tuple[dict, tuple]]) -> None:
    """A GeoJSON FeatureCollection of one Polygon feature per (properties,
    (x0, y0, x1, y1)) rectangle."""
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": properties, "geometry": {
            "type": "Polygon", "coordinates": [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]}}
        for properties, (x0, y0, x1, y1) in features]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_counts(rng: np.random.Generator, total: int, n_cats: int, populated: int) -> list[int]:
    # Multinomial split over the populated leading categories, plus one worker
    # per populated category so no subgroup is ever empty on a row.
    counts = [0] * n_cats
    if populated > 0:
        split = rng.multinomial(total, [1.0 / populated] * populated)
        for c in range(populated):
            counts[c] = int(split[c]) + 1
    return counts


def _generate_od_rows(rng: np.random.Generator, geoids: list[str], center: int,
                      n_groups: int) -> list[dict]:
    rows = []
    for i, home in enumerate(geoids):
        dests = sorted({i, center})
        for dest in dests:
            work = geoids[dest]
            for hb in _BLOCK_SUFFIXES:
                for wb in _BLOCK_SUFFIXES:
                    base_total = int(rng.integers(2, 20))
                    row = {"h_geocode": home + hb, "w_geocode": work + wb}
                    total = None
                    for schema in OD_SCHEMAS:
                        populated = min(n_groups, len(schema.codes))
                        counts = _split_counts(rng, base_total, len(schema.codes), populated)
                        if total is None:
                            total = sum(counts)
                        for code, count in zip(schema.codes, counts):
                            row[code] = count
                    row["S000"] = total
                    rows.append(row)
    return rows


def _write_od_csv(path: Path, rows: list[dict]) -> None:
    od_codes = [code for schema in OD_SCHEMAS for code in schema.codes]
    header = ["w_geocode", "h_geocode", "S000", *od_codes]
    _write_rows(path, header, rows)


def _write_rac_wac(rng: np.random.Generator, out: Path, od_rows: list[dict],
                   n_groups: int, year: int) -> None:
    # Marginalize the OD flows to home and work blocks, then dress each block
    # with the RAC/WAC-only characteristics consistently with its total.
    for role, key, filename in (
        ("residence", "h_geocode", f"rac_{year}.csv"),
        ("workplace", "w_geocode", f"wac_{year}.csv"),
    ):
        blocks: dict[str, dict[str, int]] = {}
        for row in od_rows:
            block = blocks.setdefault(row[key], {"C000": 0, "CA01": 0, "CA02": 0, "CA03": 0,
                                                  "CE01": 0, "CE02": 0, "CE03": 0})
            block["C000"] += row["S000"]
            for od_code, rac_code in (("SA01", "CA01"), ("SA02", "CA02"), ("SA03", "CA03"),
                                      ("SE01", "CE01"), ("SE02", "CE02"), ("SE03", "CE03")):
                block[rac_code] += row[od_code]
        schema_by_name = {s.characteristic: s for s in RAC_WAC_SCHEMAS}
        rac_codes = [code for s in RAC_WAC_SCHEMAS for code in s.codes]
        out_rows = []
        for geocode in sorted(blocks):
            block = blocks[geocode]
            total = block["C000"]
            row = {key: geocode, "C000": total}
            row.update({c: block[c] for c in ("CA01", "CA02", "CA03", "CE01", "CE02", "CE03")})
            for name in ("race", "ethnicity", "sex", "jobtype"):
                schema = schema_by_name[name]
                populated = min(n_groups, len(schema.codes))
                split = rng.multinomial(total, [1.0 / populated] * populated)
                for c, code in enumerate(schema.codes):
                    row[code] = int(split[c]) if c < populated else 0
            # education covers only the 30+ population; it does not partition C000
            older = total - block["CA01"]
            edu = schema_by_name["education"]
            populated = min(n_groups, len(edu.codes))
            split = rng.multinomial(max(older, 0), [1.0 / populated] * populated)
            for c, code in enumerate(edu.codes):
                row[code] = int(split[c]) if c < populated else 0
            out_rows.append(row)
        header = [key, "C000", *rac_codes]
        _write_rows(out / filename, header, out_rows)


def _write_rows(path: Path, header: list[str], rows: list[dict]) -> None:
    """CSV with CRLF line ends; geocodes and counts never need quoting."""
    lines = [header, *([str(row[c]) for c in header] for row in rows)]
    text = "".join(",".join(line) + "\r\n" for line in lines)
    path.write_text(text, encoding="utf-8", newline="")
