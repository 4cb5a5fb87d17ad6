"""Output checks for one benchmark run, from the generated World only.

`check_outputs` recomputes, from the generator's arrays, which files and how
many rows each report must have, the exact worker totals, and the surface
values; `compare_rerun` requires a rerun's CSVs to be byte-identical to the
first run's. Each returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from gen import EPSILONS, RAC_WAC_SCHEMAS, THRESHOLDS, World

RAC_CHARACTERISTICS = tuple((name, len(codes)) for name, codes in RAC_WAC_SCHEMAS)
REPORTS = ("exposure", "error", "gaps", "bins", "atkinson", "state_disparity", "threshold",
           "bias", "wilcoxon")


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def csv_snapshot(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


def compare_rerun(reference: dict[str, bytes], out_dir: Path) -> list[str]:
    current = csv_snapshot(out_dir)
    if set(current) != set(reference):
        return [f"rerun wrote {sorted(current)}, first run wrote {sorted(reference)}"]
    return [f"rerun: {name} differs from the first run"
            for name in sorted(reference) if current[name] != reference[name]]


def _tract_sums(tract: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per-tract sums of a (rows,) or (rows, k) integer array."""
    out = np.zeros((n,) + values.shape[1:], dtype=np.int64)
    np.add.at(out, tract, values)
    return out


def _table_expectations(expect: dict[str, int], world: World, table, aligned: np.ndarray,
                        strata: dict[str, np.ndarray], states: np.ndarray) -> None:
    """Add the report rows that one year's RAC or WAC table (one locus) yields."""
    n = len(world.geoids)
    totals = _tract_sums(table.tract, table.totals, n)
    counts = _tract_sums(table.tract, table.counts, n)
    for member in strata.values():
        sel = aligned & member
        if totals[sel].sum() > 0:
            expect["exposure"] += 1
        group_has = counts[sel].sum(axis=0) > 0
        expect["exposure"] += int(group_has.sum())
        start = 0
        for _, size in RAC_CHARACTERISTICS:
            present = int(group_has[start:start + size].sum())
            start += size
            expect["atkinson"] += len(EPSILONS) if present else 0
            expect["gaps"] += 1 if present >= 2 and totals[sel].sum() > 0 else 0
        ranked = int((sel & (totals > 0)).sum())
        per_code = sum(nb for nb in world.workload.bin_counts if ranked >= nb)
        per_code += 10 if ranked >= 10 else 0
        expect["bins"] += counts.shape[1] * per_code
    weighted = counts[aligned].sum(axis=0) > 0
    expect["threshold"] += len(THRESHOLDS) * (1 + int(weighted.sum()))
    for state in np.unique(states[aligned]):
        sel = aligned & (states == state)
        if totals[sel].sum() > 0:
            expect["state_disparity"] += int((counts[sel].sum(axis=0) > 0).sum())


def check_outputs(world: World, out_dir: Path) -> list[str]:
    out = Path(out_dir)
    problems: list[str] = []
    n = len(world.geoids)
    expected_files = [f"surface_{y}.csv" for y in world.years] + [
        "urban.csv", "exposure.csv", "error.csv", "gaps.csv", "bins.csv", "atkinson.csv",
        "state_disparity.csv", "threshold.csv", "bias.csv", "wilcoxon.csv", "manifest.json"]
    missing = [name for name in expected_files if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"manifest.json: {exc}"]
    tables = {name[:-4]: _rows(out / name) for name in expected_files if name.endswith(".csv")}

    urban = tables["urban"][1:]
    if [g for g, _ in urban] != list(world.geoids) or {s for _, s in urban} - {"urban", "rural"}:
        problems.append("urban.csv: expected one urban/rural row per tract in geoid order")
        return problems
    labels = np.array([s for _, s in urban])
    strata = {"all": np.ones(n, dtype=bool)}
    if world.workload.strata:
        strata.update(urban=labels == "urban", rural=labels == "rural")
    states = np.array([g[:2] for g in world.geoids])

    expect = dict.fromkeys(REPORTS, 0)  # report -> expected data rows
    all_weights = {}  # (year, locus) -> weight on the all/all exposure row
    generated_total = 0
    dropped_total = 0
    for k, year in enumerate(world.years):
        covered = world.covered(k)
        problems += _check_surface(world, k, tables[f"surface_{year}"], covered)
        year_manifest = manifest.get("stages", {}).get("exposure", {}).get("years", {}).get(str(year), {})
        drops = year_manifest.get("dropped_weight", {})
        od = world.od[k]
        for name, table in (("rac", world.rac[k]), ("wac", world.wac[k])):
            present = _tract_sums(table.tract, np.ones_like(table.totals), n) > 0
            _table_expectations(expect, world, table, covered & present, strata, states)
            lost = int(table.totals[~covered[table.tract]].sum())
            generated_total += int(table.totals.sum())
            dropped_total += lost
            if drops.get(name) != lost:
                problems.append(f"manifest {year} dropped_weight.{name}: {drops.get(name)} != {lost}")
        resolvable = covered[od.home] & covered[od.work]
        lost = int(od.totals[~resolvable].sum())
        generated_total += int(od.totals.sum())
        dropped_total += lost
        if drops.get("od") != lost:
            problems.append(f"manifest {year} dropped_weight.od: {drops.get('od')} != {lost}")
        for member in strata.values():
            sel = resolvable & member[od.home]
            if sel.any():
                groups = 1 + int((od.counts[sel].sum(axis=0) > 0).sum())
                expect["exposure"] += groups
                expect["error"] += groups
                expect["bias"] += groups
                expect["wilcoxon"] += groups
        for locus, want in (("H", world.rac[k].totals[covered[world.rac[k].tract]].sum()),
                            ("W", world.wac[k].totals[covered[world.wac[k].tract]].sum()),
                            ("HW", od.totals[resolvable].sum())):
            all_weights[(year, locus)] = int(want)

    for name, count in expect.items():
        got = len(tables[name]) - 1
        if got != count:
            problems.append(f"{name}.csv: {got} rows, expected {count}")
    found = {(int(r[0]), r[2]): float(r[7]) for r in tables["exposure"][1:]
             if r[1] == "all" and r[3] == "all"}
    for key, want in all_weights.items():
        if found.get(key) != want:
            problems.append(f"exposure.csv {key} all/all weight {found.get(key)} != {want}")
    reported = sum(found.values()) + manifest.get("dropped_weight_total", -1)
    if reported != generated_total or manifest.get("dropped_weight_total") != dropped_total:
        problems.append(f"all/all weights + dropped_weight_total = {reported}, "
                        f"generated workers = {generated_total}")
    return problems


def _check_surface(world: World, k: int, rows: list[list[str]], covered: np.ndarray) -> list[str]:
    year = world.years[k]
    if rows[0] != ["geoid", "year", "pm25"]:
        return [f"surface_{year}.csv: bad header {rows[0]}"]
    want = [g for g, c in zip(world.geoids, covered) if c]
    if [r[0] for r in rows[1:]] != want or any(r[1] != str(year) for r in rows[1:]):
        return [f"surface_{year}.csv: expected {len(want)} covered tracts in geoid order"]
    grid = world.grids[k]
    values = np.array([float(r[2]) for r in rows[1:]])
    boxes = world.bbox[covered]
    if world.cell_tracts:
        bad = values != grid[boxes[:, 0], boxes[:, 2]]
    else:
        bad = np.zeros(len(values), dtype=bool)
        for i, (r0, r1, c0, c1) in enumerate(boxes.tolist()):
            cells = grid[r0:r1, c0:c1]
            bad[i] = not np.nanmin(cells) <= values[i] <= np.nanmax(cells)
    if bad.any():
        first = int(np.argmax(bad))
        return [f"surface_{year}.csv: {int(bad.sum())} value(s) off their cells, "
                f"first {want[first]}={float(values[first])!r}"]
    return []
