"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the PASS lines).
Every expected value is produced by an independent oracle inside this module:
Monte-Carlo point sampling for zonal means, per-worker expansion for weighted
statistics, direct formula evaluation for the inequality metrics, exact
combinatorial enumeration for the rank-sum test, and simulated regressions
for the attenuation factor.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    HW_WEIGHTS,
    PolygonPart,
    TractGeometry,
    compute_hw_exposures,
    oracle_hw_exposures,
    points_in_parts,
    random_star_polygon,
    zonal_weighted_mean,
)

from hwexposure import pipeline, synth
from hwexposure.biasstats import (
    ErrorMoments,
    PooledSamples,
    bias_factor,
    error_moments,
    wilcoxon_rank_sum_grouped,
)
from hwexposure.config import load_config
from hwexposure.disparity import _atkinson_curve
from hwexposure.exposure import (hw_blend, reported_strata, resolve_pairs, slice_stats,
                                 stable_argsort)
from hwexposure.geometry import geoid_text
from hwexposure.grids import ConcentrationGrid
from hwexposure.ingest import (
    OD_SCHEMAS,
    WorkerTable,
    aggregate_od,
    aggregate_to_tracts,
    read_od_csv,
)
from hwexposure.zonal import STRATA


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def atkinson(shares, values, eps: float) -> float:
    """The engine's Atkinson curve at one aversion value."""
    return _atkinson_curve(shares, values, (eps,))[0]


def rank_sum(a, b):
    """The engine's rank-sum test of two unweighted samples."""
    return wilcoxon_rank_sum_grouped(PooledSamples(a, b), [1] * len(a), [1] * len(b))


# ----------------------------------------------------------------------------
# 1. zonal vs Monte-Carlo oracle
# ----------------------------------------------------------------------------

def sample_zonal(grid, parts, rng, n_points):
    """Average covering-cell value over uniform points inside the polygon."""
    minx = min(x for p in parts for x, _ in p.exterior)
    maxx = max(x for p in parts for x, _ in p.exterior)
    miny = min(y for p in parts for _, y in p.exterior)
    maxy = max(y for p in parts for _, y in p.exterior)
    total = 0.0
    count = 0
    need = n_points
    while need > 0:
        batch = max(2 * need, 50_000)
        px = rng.uniform(minx, maxx, size=batch)
        py = rng.uniform(miny, maxy, size=batch)
        keep = points_in_parts(px, py, parts)
        px, py = px[keep][:need], py[keep][:need]
        cols = np.floor((px - grid.origin_x) / grid.cell_width).astype(int)
        rows = np.floor((py - grid.origin_y) / grid.cell_height).astype(int)
        inb = ((cols >= 0) & (cols < grid.values.shape[1])
               & (rows >= 0) & (rows < grid.values.shape[0]))
        cols, rows = cols[inb], rows[inb]
        valid = ~np.isnan(grid.values[rows, cols])
        total += float(grid.values[rows[valid], cols[valid]].sum())
        count += int(valid.sum())
        need -= len(px)
    return total / count


def test_c1_zonal_monte_carlo_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    values = rng.uniform(8.0, 12.0, size=(50, 50))
    grid = ConcentrationGrid(
        origin_x=0.0, origin_y=0.0, cell_width=1.0, cell_height=1.0, values=values,
    )
    worst = 0.0
    for k in range(20):
        cx, cy = rng.uniform(8.0, 42.0, size=2)
        poly = random_star_polygon(rng, cx, cy, 1.0, 6.5, 9)
        tract = TractGeometry(geoid="06037000100", parts=(PolygonPart(exterior=tuple(poly)),))
        exact = zonal_weighted_mean(grid, tract)
        sampled = sample_zonal(grid, tract.parts, rng, 1_000_000)
        rel = abs(exact - sampled) / abs(sampled)
        worst = max(worst, rel)
        assert rel <= 1e-3, f"polygon {k}: relative deviation {rel}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(1, f"20 polygons within 1e-3 of 1e6-point sampling oracle "
              f"(worst {worst:.2e}) in {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# 2. weighted mean / percentile vs expansion oracles
# ----------------------------------------------------------------------------

def test_c2_exposure_expansion_oracles():
    rng = random.Random(202)
    for trial in range(5):
        n_tracts = rng.randrange(50, 400)
        values = {f"06037{i:06d}": rng.choice([4.0, 5.25, 7.5, 9.0, 9.0, 12.75, 15.5])
                  for i in range(n_tracts)}
        weights = {g: rng.randrange(0, 80) for g in values}
        if sum(weights.values()) == 0:
            weights[next(iter(weights))] = 1
        expanded = sorted(v for g, v in values.items() for _ in range(weights[g]))
        assert len(expanded) <= 10**4 * 4
        oracle_mean = math.fsum(expanded) / len(expanded)
        vals = np.array([values[g] for g in sorted(values)])
        wts = np.array([weights[g] for g in sorted(values)], dtype=np.float64)
        ps = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0, rng.random())
        mean, picks = slice_stats(vals, stable_argsort(vals), wts, wts.sum(), ps)
        assert float(mean) == pytest.approx(oracle_mean, rel=1e-9)
        for p, got in zip(ps, map(float, picks)):
            n = len(expanded)
            k = max(1, math.ceil(p * n)) if p * n > 0 else 1
            while k < n and k < p * n:  # guard ceil float edge cases
                k += 1
            oracle_pct = expanded[k - 1]
            assert got == oracle_pct, (trial, p)
    report(2, "weighted mean within 1e-9 and percentiles exactly equal to "
              "per-worker expansion oracles on 5 seeded instances up to 1e4 workers")


# ----------------------------------------------------------------------------
# 3. blend identity and error identity
# ----------------------------------------------------------------------------

def test_c3_blend_and_error_identity(tmp_path):
    rng = np.random.default_rng(303)
    values = rng.uniform(0.0, 40.0, size=1_000_000)
    for h in values:
        hv = float(h)
        if hw_blend(hv, hv, HW_WEIGHTS) != hv:
            pytest.fail(f"hw_blend({hv}, {hv}) != {hv}")

    world = tmp_path / "world"
    synth.synth(str(world), seed=303, n_tracts=9, n_groups=3)
    config = load_config(str(world / "config.json"), out_dir=str(tmp_path / "out"))
    state, data = pipeline.RunState(config=config), pipeline.YearData(year=2011)
    pipeline._stage_surface(state, data)
    surface = data.surface
    od = aggregate_od(read_od_csv(str(world / "od_2011.csv")))
    assert surface.strata is state.classification is not None
    pairs = resolve_pairs(surface, od)
    _, errors = compute_hw_exposures(pairs, HW_WEIGHTS)
    # the OD frame holds HW alone; H and W come from the per-group oracle
    classification = dict(zip(geoid_text(surface.ids), (STRATA[c] for c in surface.strata)))
    records, _ = oracle_hw_exposures(pairs, OD_SCHEMAS, HW_WEIGHTS, classification,
                                     reported_strata(surface))
    means = {(r.group_key, r.stratum, r.locus): r.mean for r in records}
    assert errors, "no error records computed"
    assert len(records) == 3 * len(errors)
    for err in errors:
        h = means[(err.group_key, err.stratum, "H")]
        w = means[(err.group_key, err.stratum, "W")]
        assert abs(err.error - 0.206 * (h - w)) <= 1e-9, (err.group_key, err.stratum)
    report(3, f"hw_blend(h,h)==h for 1e6 random h; |error - 0.206(H-W)| <= 1e-9 "
              f"for all {len(errors)} group/stratum slices of the synthetic run")


# ----------------------------------------------------------------------------
# 4. Atkinson suite
# ----------------------------------------------------------------------------

def test_c4_atkinson_suite():
    grid_eps = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    for eps in grid_eps:
        assert atkinson([0.3, 0.3, 0.4], [2.5, 2.5, 2.5], eps) <= 1e-12

    rng = random.Random(404)
    for _ in range(50):
        n = rng.randrange(2, 7)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        shares = [r / sum(raw) for r in raw]
        shares[-1] = 1.0 - sum(shares[:-1])
        ys = [rng.uniform(0.2, 15.0) for _ in range(n)]
        scale = rng.choice([1e-3, 0.5, 3.0, 1e4])
        for eps in (0.25, 0.75, 1.0, 2.0):
            base = atkinson(shares, ys, eps)
            scaled = atkinson(shares, [y * scale for y in ys], eps)
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)
        ais = [atkinson(shares, ys, eps) for eps in grid_eps]
        for lo, hi in zip(ais, ais[1:]):
            assert hi >= lo - 1e-12

    # independently scripted direct evaluation of the two-group case
    f, y, eps = (0.5, 0.5), (1.0, 3.0), 0.75
    ybar = math.fsum(fj * yj for fj, yj in zip(f, y))
    direct = 1.0 - math.fsum(
        fj * math.pow(yj / ybar, 1.0 - eps) for fj, yj in zip(f, y)
    ) ** (1.0 / (1.0 - eps))
    assert direct == pytest.approx(0.1008, abs=5e-5)  # sanity on the script itself
    assert atkinson(list(f), list(y), eps) == pytest.approx(direct, abs=1e-9)
    report(4, "equal-group zero, 1e-12 scale invariance, monotone in aversion, "
              f"and two-group reference value {direct:.6f} matched within 1e-9")


# ----------------------------------------------------------------------------
# 5. bias factor vs simulated regressions
# ----------------------------------------------------------------------------

def test_c5_bias_monte_carlo():
    started = time.perf_counter()
    settings = [
        (4.0, 0.0, 1.0),
        (4.0, 1.0, 1.5),
        (4.0, -0.8, 1.0),
        (2.0, 0.5, 0.5),
        (9.0, -1.5, 2.0),
    ]
    for i, (sigma2, phi, omega2) in enumerate(settings):
        expected = bias_factor(ErrorMoments(sigma2=sigma2, phi=phi, omega2=omega2))
        rng = np.random.default_rng(5050 + i)
        n = 100_000
        x = rng.normal(10.0, math.sqrt(sigma2), size=n)
        e = (phi / sigma2) * (x - x.mean()) + rng.normal(
            0.0, math.sqrt(omega2 - phi * phi / sigma2), size=n
        )
        z = x + e
        y = 2.0 * x + rng.normal(0.0, 1.0, size=n)
        slope_z = np.cov(y, z)[0, 1] / np.var(z, ddof=1)
        slope_x = np.cov(y, x)[0, 1] / np.var(x, ddof=1)
        ratio = slope_z / slope_x
        assert ratio == pytest.approx(expected, rel=0.02), (sigma2, phi, omega2)
        # the analytic factor also matches the weighted-moment path
        moments = error_moments(z, x, np.ones(n))
        assert bias_factor(moments) == pytest.approx(ratio, rel=0.02)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(5, f"5 correlated-error settings within 2% of simulated slope ratios "
              f"at n=1e5 in {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# 6. Wilcoxon vs exact enumeration
# ----------------------------------------------------------------------------

def u_pairs(a, b):
    return math.fsum(
        (1.0 if ai > bj else 0.5 if ai == bj else 0.0) for ai in a for bj in b
    )


def enumeration_p(a, b):
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)
    mean_u = n_a * (n - n_a) / 2.0
    observed = abs(u_pairs(a, b) - mean_u)
    hits = total = 0
    for idx in itertools.combinations(range(n), n_a):
        chosen = set(idx)
        xa = [pooled[i] for i in idx]
        xb = [pooled[i] for i in range(n) if i not in chosen]
        if abs(u_pairs(xa, xb) - mean_u) >= observed - 1e-12:
            hits += 1
        total += 1
    return hits / total


def test_c6_wilcoxon_enumeration_oracle():
    result = rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert result.u == 0.0
    assert enumeration_p([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == pytest.approx(0.1)

    worst = 0.0
    checked = 0
    for n in range(2, 9):
        ranks = list(range(1, n + 1))
        for n_a in range(1, n):
            for combo in itertools.combinations(ranks, n_a):
                a = [float(r) for r in combo]
                b = [float(r) for r in ranks if r not in set(combo)]
                got = rank_sum(a, b).p_value
                exact = enumeration_p(a, b)
                worst = max(worst, abs(got - exact))
                checked += 1
                assert abs(got - exact) <= 0.05, (a, b, got, exact)
    report(6, f"all {checked} no-tie configurations with n_a+n_b<=8 within 0.05 of "
              f"exact enumeration (worst {worst:.2e}); canonical case p=0.1, U=0")


# ----------------------------------------------------------------------------
# 7. end-to-end determinism and the 9-tract workbook
# ----------------------------------------------------------------------------

WORKBOOK_SEED = 707


@pytest.fixture(scope="module")
def workbook_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("workbook")
    world = tmp / "world"
    synth.synth(str(world), seed=WORKBOOK_SEED, n_tracts=9, n_groups=3)
    outputs = {}
    for threads in (1, 4, 8):
        out_dir = tmp / f"out_{threads}"
        config = load_config(str(world / "config.json"),
                             out_dir=str(out_dir), threads=threads)
        pipeline.run(config)
        outputs[threads] = out_dir
    return world, outputs


def parse_asc(path: Path):
    """Independent minimal .asc parser for the workbook oracle."""
    header = {}
    rows = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0].lower() in ("ncols", "nrows", "xllcorner", "yllcorner",
                                 "cellsize", "nodata_value"):
            header[tokens[0].lower()] = float(tokens[1])
        else:
            rows.append([float(t) for t in tokens])
    rows.reverse()  # bottom-up
    return header, rows


def load_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_c7_determinism_and_workbook(workbook_world):
    world, outputs = workbook_world

    # byte identity across thread counts
    base_files = {p.name: p.read_bytes() for p in sorted(outputs[1].iterdir())}
    for threads in (4, 8):
        got = {p.name: p.read_bytes() for p in sorted(outputs[threads].iterdir())}
        assert set(got) == set(base_files)
        for name in base_files:
            if name == "manifest.json":
                a = json.loads(base_files[name])
                b = json.loads(got[name])
                a.pop("timings_seconds"), b.pop("timings_seconds")
                assert a == b
            else:
                assert got[name] == base_files[name], f"{name} differs at {threads} threads"

    out = outputs[1]
    cells_header, cells = parse_asc(world / "grid_2011.asc")
    surface_rows = load_csv(out / "surface_2011.csv")

    # workbook: each tract covers a 2x2 cell block exactly; the zonal mean is
    # the plain average of its 4 cells (exact: quarter-multiples over 4)
    tract_rect = {}
    tracts_doc = json.loads((world / "tracts.geojson").read_text())
    for feat in tracts_doc["features"]:
        ring = feat["geometry"]["coordinates"][0]
        xs = [pt[0] for pt in ring]
        ys = [pt[1] for pt in ring]
        tract_rect[feat["properties"]["GEOID"]] = (min(xs), min(ys), max(xs), max(ys))
    assert len(surface_rows) == 9
    expected_surface = {}
    for geoid, (x0, y0, x1, y1) in tract_rect.items():
        cell_values = [
            cells[row][col]
            for row in range(int(y0), int(y1))
            for col in range(int(x0), int(x1))
        ]
        assert len(cell_values) == 4
        expected_surface[geoid] = math.fsum(cell_values) / 4.0
    for row in surface_rows:
        assert float(row["pm25"]) == expected_surface[row["geoid"]], row["geoid"]

    # urban classification: rectangle-overlap fractions computed by hand
    mask_doc = json.loads((world / "urban.geojson").read_text())
    mask_ring = mask_doc["features"][0]["geometry"]["coordinates"][0]
    mx0 = min(pt[0] for pt in mask_ring)
    mx1 = max(pt[0] for pt in mask_ring)
    urban_rows = {r["geoid"]: r["stratum"] for r in load_csv(out / "urban.csv")}
    for geoid, (x0, y0, x1, y1) in tract_rect.items():
        overlap_w = max(0.0, min(x1, mx1) - max(x0, mx0))
        overlap_h = max(0.0, min(y1, mx1) - max(y0, mx0))  # mask is square
        fraction = overlap_w * overlap_h / ((x1 - x0) * (y1 - y0))
        assert urban_rows[geoid] == ("urban" if fraction >= 0.5 else "rural"), geoid

    # worker tables: per-tract, per-group tallies straight from the CSVs
    def tract_weights(path: Path, key: str, code: str | None):
        weights: dict[str, int] = {}
        for row in load_csv(path):
            tract = row[key][:11]
            count = int(row["C000"]) if code is None else int(row[code])
            weights[tract] = weights.get(tract, 0) + count
        return weights

    exposure_rows = load_csv(out / "exposure.csv")
    by_key = {(r["group"], r["locus"], r["stratum"]): r for r in exposure_rows}

    def expansion_percentile(values_by_tract, weights, p):
        expanded = sorted(
            values_by_tract[g] for g, w in weights.items() for _ in range(w)
        )
        n = len(expanded)
        k = 1
        while k < n and k < p * n:
            k += 1
        return expanded[k - 1]

    checks = [("all", None)] + [
        (f"age:{label}", code)
        for code, label in (("CA01", "29_or_less"), ("CA02", "30_54"), ("CA03", "55_plus"))
    ] + [
        (f"income:{label}", code)
        for code, label in (("CE01", "1250_or_less"), ("CE02", "1251_3333"), ("CE03", "over_3333"))
    ]
    for locus, table_name, key in (("H", "rac_2011.csv", "h_geocode"),
                                   ("W", "wac_2011.csv", "w_geocode")):
        for group, code in checks:
            weights = tract_weights(world / table_name, key, code)
            num = math.fsum(expected_surface[g] * w for g, w in weights.items())
            den = sum(weights.values())
            row = by_key[(group, locus, "all")]
            assert float(row["mean"]) == num / den, (locus, group)
            assert float(row["weight"]) == den
            assert float(row["p10"]) == expansion_percentile(expected_surface, weights, 0.10)
            assert float(row["p90"]) == expansion_percentile(expected_surface, weights, 0.90)

    # threshold shares: strict > T, exact on dyadic concentrations
    threshold_rows = load_csv(out / "threshold.csv")
    for trow in threshold_rows:
        if trow["characteristic"] != "all" or trow["locus"] != "H":
            continue
        t = float(trow["threshold"])
        weights = tract_weights(world / "rac_2011.csv", "h_geocode", None)
        above = sum(w for g, w in weights.items() if expected_surface[g] > t)
        assert float(trow["q_percent"]) == 100.0 * above / sum(weights.values())

    # gaps recomputed from the emitted means
    gap_rows = load_csv(out / "gaps.csv")
    assert gap_rows, "no gap rows emitted"
    for grow in gap_rows:
        members = [
            r for r in exposure_rows
            if r["locus"] == grow["locus"] and r["stratum"] == grow["stratum"]
            and r["group"].startswith(grow["characteristic"] + ":")
        ]
        means = {r["group"].split(":", 1)[1]: float(r["mean"]) for r in members}
        most = max(sorted(means), key=lambda g: means[g])
        least = min(sorted(means), key=lambda g: means[g])
        assert grow["most_exposed"] == most
        assert grow["least_exposed"] == least
        assert float(grow["absolute_diff"]) == means[most] - means[least]
        national = float(by_key[("all", grow["locus"], grow["stratum"])]["mean"])
        assert float(grow["percent_diff"]) == 100.0 * (means[most] - means[least]) / national

    # composition bins (3-bin curves) against a direct formula evaluation
    bin_rows = [r for r in load_csv(out / "bins.csv")
                if r["kind"] == "composition" and r["stratum"] == "all"
                and r["locus"] == "H" and r["characteristic"] == "age"]
    assert bin_rows
    weights_total = tract_weights(world / "rac_2011.csv", "h_geocode", None)
    for label, code in (("29_or_less", "CA01"), ("30_54", "CA02"), ("55_plus", "CA03")):
        weights = tract_weights(world / "rac_2011.csv", "h_geocode", code)
        tracts = sorted(
            (weights[g] / weights_total[g], g) for g in weights if weights_total[g] > 0
        )
        sizes = [3, 3, 3]
        start = 0
        for index, size in enumerate(sizes, start=1):
            chunk = tracts[start:start + size]
            start += size
            num = math.fsum(expected_surface[g] * weights[g] for _, g in chunk)
            den = sum(weights[g] for _, g in chunk)
            expected_bin = num / den if den else math.nan
            row = next(r for r in bin_rows if r["group"] == label and r["bin"] == str(index))
            assert int(row["n_tracts"]) == size
            if den:
                assert float(row["value"]) == expected_bin, (label, index)

    # Atkinson rows against the direct formula (inverse concentrations);
    # power/rounding order differs between implementations, so 1e-12 relative
    atkinson_rows = load_csv(out / "atkinson.csv")
    assert atkinson_rows
    for arow in [r for r in atkinson_rows if r["characteristic"] == "age" and r["locus"] == "H"
                 and r["stratum"] == "all"]:
        eps = float(arow["epsilon"])
        members = [
            r for r in exposure_rows
            if r["locus"] == "H" and r["stratum"] == "all" and r["group"].startswith("age:")
        ]
        members.sort(key=lambda r: r["group"])
        total_w = math.fsum(float(r["weight"]) for r in members)
        shares = [float(r["weight"]) / total_w for r in members]
        ys = [1.0 / float(r["mean"]) for r in members]
        ybar = math.fsum(s * y for s, y in zip(shares, ys))
        if eps == 1.0:
            direct = 1.0 - math.exp(math.fsum(s * math.log(y / ybar) for s, y in zip(shares, ys)))
        else:
            direct = 1.0 - math.fsum(
                s * (y / ybar) ** (1.0 - eps) for s, y in zip(shares, ys)
            ) ** (1.0 / (1.0 - eps))
        assert float(arow["value"]) == pytest.approx(direct, rel=1e-12, abs=1e-15), eps

    # error records: exact H minus fsum-oracle HW within float-ordering slack
    error_rows = load_csv(out / "error.csv")
    od_pairs: dict[tuple[str, str], int] = {}
    for row in load_csv(world / "od_2011.csv"):
        key = (row["h_geocode"][:11], row["w_geocode"][:11])
        od_pairs[key] = od_pairs.get(key, 0) + int(row["S000"])
    h_num = math.fsum(expected_surface[h] * w for (h, _), w in od_pairs.items())
    hw_num = math.fsum(
        (expected_surface[h] + 0.206 * (expected_surface[w] - expected_surface[h])) * c
        for (h, w), c in od_pairs.items()
    )
    total = sum(od_pairs.values())
    expected_error = h_num / total - hw_num / total
    national = next(r for r in error_rows if r["group"] == "all" and r["stratum"] == "all")
    assert float(national["error"]) == pytest.approx(expected_error, rel=1e-12, abs=1e-12)
    assert float(national["percent_error"]) == pytest.approx(
        100.0 * expected_error / (h_num / total), rel=1e-12
    )

    report(7, "run is byte-identical across threads {1,4,8}; surface, exposure, "
              "percentile, threshold, gap and bin values equal the workbook oracle "
              "exactly; Atkinson and error values within 1e-12")


# ----------------------------------------------------------------------------
# 8. paper-shape reproduction on the hotspot fixture
# ----------------------------------------------------------------------------

def test_c8_hotspot_shape(tmp_path):
    world = tmp_path / "world"
    synth.synth(str(world), seed=808, n_tracts=25, n_groups=3)
    out_dir = tmp_path / "out"
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config)

    rows = load_csv(out_dir / "exposure.csv")
    means = {(r["group"], r["locus"], r["stratum"]): float(r["mean"]) for r in rows}
    groups = sorted({r["group"] for r in rows if r["stratum"] == "all" and r["locus"] in "HW"})
    assert groups
    for group in groups:
        h = means.get((group, "H", "all"))
        w = means.get((group, "W", "all"))
        if h is not None and w is not None:
            assert w > h, f"{group}: W={w} <= H={h}"

    errors = load_csv(out_dir / "error.csv")
    national = next(r for r in errors if r["group"] == "all" and r["stratum"] == "all")
    assert float(national["percent_error"]) < 0.0

    # the field straddles T=12: hand-computed q values must match exactly
    surface = {r["geoid"]: float(r["pm25"]) for r in load_csv(out_dir / "surface_2011.csv")}
    assert min(surface.values()) < 12.0 < max(surface.values())
    weights: dict[str, int] = {}
    for row in load_csv(world / "rac_2011.csv"):
        tract = row["h_geocode"][:11]
        weights[tract] = weights.get(tract, 0) + int(row["C000"])
    above = sum(w for g, w in weights.items() if surface[g] > 12.0)
    expected_q = 100.0 * above / sum(weights.values())
    assert 0.0 < expected_q < 100.0
    trow = next(r for r in load_csv(out_dir / "threshold.csv")
                if r["locus"] == "H" and r["characteristic"] == "all"
                and float(r["threshold"]) == 12.0)
    assert float(trow["q_percent"]) == expected_q

    report(8, f"W > H for all {len(groups)} groups, national percent error "
              f"{float(national['percent_error']):.2f}% < 0, and T=12 share "
              f"{expected_q:.2f}% equals the hand-computed value exactly")


# ----------------------------------------------------------------------------
# 9. ingest integrity at 1e6 rows
# ----------------------------------------------------------------------------

def test_c9_ingest_million_rows():
    rng = random.Random(909)
    codes = ("CA01", "CA02", "CA03", "CE01", "CE02", "CE03")
    blocks, totals, columns = [], [], [[] for _ in codes]
    expected_totals = {code: 0 for code in codes}
    grand = 0
    for _ in range(1_000_000):
        tract = f"{rng.choice(('06', '41'))}{rng.randrange(1000):03d}{rng.randrange(5000):06d}"
        block = f"{tract}{rng.randrange(10):04d}"
        a = [rng.randrange(0, 20) for _ in range(3)]
        total = sum(a)
        e = [rng.randrange(0, total + 1) for _ in range(2)]
        e2 = [min(e), max(e)]
        counts = {
            "CA01": a[0], "CA02": a[1], "CA03": a[2],
            "CE01": e2[0], "CE02": e2[1] - e2[0], "CE03": total - e2[1],
        }
        for code, column in zip(codes, columns):
            expected_totals[code] += counts[code]
            column.append(counts[code])
        grand += total
        blocks.append(block)
        totals.append(total)
    rows = WorkerTable(keys=(np.array(blocks, dtype="U16"),),
                       totals=np.array(totals, dtype=np.int64), codes=codes,
                       counts=np.array(columns, dtype=np.int64))
    del blocks, totals, columns

    started = time.perf_counter()
    table = aggregate_to_tracts(rows)
    elapsed = time.perf_counter() - started

    assert int(table.totals.sum()) == grand
    got_totals = {code: 0 for code in codes}
    for code, column in zip(table.codes, table.counts.tolist()):
        for count in column:
            got_totals[code] += count
    assert got_totals == expected_totals
    assert elapsed < 20.0, f"rollup took {elapsed:.1f}s"
    report(9, f"1e6-row rollup preserved the grand total ({grand}) and all six "
              f"category totals exactly in {elapsed:.1f}s")
