"""End-to-end pipeline, synthetic generator, and CLI behavior."""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from helpers import reference_csv

import hwexposure
from hwexposure import cli, pipeline, synth, zonal
from hwexposure.errors import ConfigError


def read_out_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def strip_timings(manifest_text: bytes) -> dict:
    doc = json.loads(manifest_text)
    doc.pop("timings_seconds", None)
    return doc


def make_world(tmp_path: Path, name: str = "world", **kwargs) -> Path:
    world = tmp_path / name
    synth.synth(str(world), **kwargs)
    return world


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def set_years(world: Path, years: Sequence[int]) -> None:
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["years"] = list(years)
    (world / "config.json").write_text(json.dumps(config_doc))


def copy_years(world: Path, years: Sequence[int]) -> None:
    """Copy the 2011 grid and tables to each other year and configure them all."""
    for year in set(years) - {2011}:
        for name in ("grid_2011.asc", "rac_2011.csv", "wac_2011.csv", "od_2011.csv"):
            shutil.copy(world / name, world / name.replace("2011", str(year)))
    set_years(world, years)


def make_distinct_years_world(tmp_path: Path, years: Sequence[int]) -> Path:
    """A 25-tract world whose years differ. 2011's grid has nodata over tract 0,
    so its workers are dropped; 2012's field is zero everywhere, so its
    Atkinson and state disparities are skipped; 2013's grid is shifted half a
    cell, so it has its own lattice and partly covered tracts."""
    world = tmp_path / "years"
    for year, seed, gradient in ((2011, 31, synth.GradientSpec()),
                                 (2012, 32, synth.GradientSpec("uniform", 0.0, 0.0)),
                                 (2013, 33, synth.GradientSpec("linear_x"))):
        if year in years:  # the tract and mask files depend on n_tracts only
            synth.synth(str(world), seed=seed, n_tracts=25, n_groups=3, gradient=gradient,
                        year=year)
    if 2011 in years:
        grid = world / "grid_2011.asc"
        lines = grid.read_text().splitlines()
        for i in (-2, -1):  # tract 0's bottom-left 2x2 cells, listed last
            lines[i] = " ".join(["-9999", "-9999", *lines[i].split()[2:]])
        grid.write_text("\n".join(lines) + "\n")
    if 2013 in years:
        grid = world / "grid_2013.asc"
        grid.write_text(grid.read_text().replace("xllcorner 0.0", "xllcorner 0.5"))
    set_years(world, years)
    return world


# ----------------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------------

def test_synth_same_seed_byte_identical(tmp_path):
    a = make_world(tmp_path, "a", seed=5, n_tracts=9, n_groups=3)
    b = make_world(tmp_path, "b", seed=5, n_tracts=9, n_groups=3)
    files_a = {p.name: p.read_bytes() for p in sorted(a.iterdir())}
    files_b = {p.name: p.read_bytes() for p in sorted(b.iterdir())}
    assert files_a == files_b
    c = make_world(tmp_path, "c", seed=6, n_tracts=9, n_groups=3)
    assert {p.name: p.read_bytes() for p in sorted(c.iterdir())} != files_a


def test_synth_tables_satisfy_ingest_invariants(tmp_path):
    world = make_world(tmp_path, seed=3, n_tracts=12, n_groups=3)
    from hwexposure import ingest

    rac_rows = ingest.read_block_csv(str(world / "rac_2011.csv"), ingest.RESIDENCE)
    table = ingest.aggregate_to_tracts(rac_rows)  # raises if invalid
    od_rows = ingest.read_od_csv(str(world / "od_2011.csv"))
    od = ingest.aggregate_od(od_rows)
    assert int(od.totals.sum()) == int(table.totals.sum())  # RAC derives from OD home marginals


def test_synth_rejects_bad_args(tmp_path):
    with pytest.raises(ConfigError):
        synth.synth(str(tmp_path / "x"), n_tracts=1)
    with pytest.raises(ConfigError):
        synth.GradientSpec(kind="volcano")


# ----------------------------------------------------------------------------
# run: determinism, signs, stage gating
# ----------------------------------------------------------------------------

def test_run_byte_identical_across_threads(tmp_path):
    world = make_world(tmp_path, seed=11, n_tracts=9, n_groups=3)
    outputs = {}
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"out_{threads}"
        config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir),
                                      threads=threads)
        pipeline.run(config)
        outputs[threads] = read_out_files(out_dir)
    base = outputs[1]
    for threads in (4, 8):
        got = outputs[threads]
        assert set(got) == set(base)
        for name in base:
            if name == "manifest.json":
                assert strip_timings(got[name]) == strip_timings(base[name])
            else:
                assert got[name] == base[name], f"{name} differs at threads={threads}"


def test_run_rerun_byte_identical(tmp_path):
    world = make_world(tmp_path, seed=13, n_tracts=9, n_groups=2)
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(out_a)))
    pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(out_b)))
    files_a, files_b = read_out_files(out_a), read_out_files(out_b)
    for name in files_a:
        if name == "manifest.json":
            assert strip_timings(files_a[name]) == strip_timings(files_b[name])
        else:
            assert files_a[name] == files_b[name]


def test_run_work_hotspot_signs(tmp_path):
    world = make_world(tmp_path, seed=2, n_tracts=25, n_groups=3)
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config)
    rows = csv_rows(out_dir / "exposure.csv")
    means = {(r["group"], r["locus"], r["stratum"]): float(r["mean"]) for r in rows}
    groups = {r["group"] for r in rows if r["locus"] in ("H", "W") and r["stratum"] == "all"}
    for group in sorted(groups):
        h, w = means.get((group, "H", "all")), means.get((group, "W", "all"))
        if h is not None and w is not None:
            assert w > h, f"group {group}: W={w} H={h}"
    errors = csv_rows(out_dir / "error.csv")
    national = next(r for r in errors if r["group"] == "all" and r["stratum"] == "all")
    assert float(national["error"]) < 0.0
    assert float(national["percent_error"]) < 0.0


def test_run_stage_gating_without_od(tmp_path):
    world = make_world(tmp_path, seed=4, n_tracts=9, n_groups=3)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["od"] = None
    config_doc["stages"] = ["surface", "exposure", "disparity"]
    (world / "config.json").write_text(json.dumps(config_doc))
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config)
    names = set(read_out_files(out_dir))
    assert "bias.csv" not in names
    assert "wilcoxon.csv" not in names
    assert "error.csv" not in names  # no OD, no H-HW errors
    assert {"exposure.csv", "gaps.csv", "atkinson.csv", "manifest.json"} <= names
    # HW rows need the OD table
    assert all(r["locus"] != "HW" for r in csv_rows(out_dir / "exposure.csv"))


def test_run_bias_stage_requires_od(tmp_path):
    world = make_world(tmp_path, seed=4, n_tracts=9, n_groups=3)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["od"] = None
    (world / "config.json").write_text(json.dumps(config_doc))
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


STAGE_FILES = {
    "surface": {"surface_2011.csv", "surface_2012.csv", "urban.csv"},
    "exposure": {"exposure.csv", "error.csv"},
    "disparity": {"gaps.csv", "bins.csv", "atkinson.csv", "state_disparity.csv",
                  "threshold.csv"},
    "bias": {"bias.csv", "wilcoxon.csv"},
}


@pytest.mark.parametrize("stage", pipeline.STAGES)
def test_run_stage_matches_full_run(tmp_path, stage):
    # run --stage X computes X's prerequisites but writes only X's files, with
    # the full run's bytes; run --stage bias joins the OD table itself, where
    # the full run's exposure stage built the same frame
    world = make_distinct_years_world(tmp_path, (2011, 2012))
    full, alone = tmp_path / "full", tmp_path / "alone"
    pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(full)))
    pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(alone)),
                 only_stage=stage)
    assert set(read_out_files(alone)) == STAGE_FILES[stage]
    for name in STAGE_FILES[stage]:
        assert (alone / name).read_bytes() == (full / name).read_bytes(), name
        assert len(csv_rows(full / name)) > 0, name


def test_run_years_are_independent(tmp_path):
    # a 3-year run is its three 1-year runs put together: no skip count,
    # coverage, drop or stratum of one year leaks into another
    years = (2011, 2012, 2013)
    world = make_distinct_years_world(tmp_path, years)
    config_doc = json.loads((world / "config.json").read_text())
    singles = []
    for year in years:
        (world / f"config_{year}.json").write_text(json.dumps({**config_doc, "years": [year]}))
        out_dir = tmp_path / f"out_{year}"
        singles.append((pipeline.run(pipeline.load_config(str(world / f"config_{year}.json"),
                                                          out_dir=str(out_dir))),
                        read_out_files(out_dir)))
    out_dir = tmp_path / "out"
    manifest = pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir)))
    files = read_out_files(out_dir)

    assert set(files) == {name for _, one in singles for name in one}
    for name, text in files.items():
        if name == "manifest.json":
            continue
        texts = [one[name] for _, one in singles if name in one]
        if name.startswith("surface_") or name == "urban.csv":
            assert all(t == text for t in texts), name
        else:
            header = texts[0].split(b"\n", 1)[0]
            assert text == b"".join([header + b"\n", *(t.split(b"\n", 1)[1] for t in texts)]), name

    stages = manifest["stages"]
    for (one, _), year in zip(singles, years):
        for stage in ("surface", "exposure"):
            assert stages[stage]["years"][str(year)] == one["stages"][stage]["years"][str(year)]
    assert stages["surface"]["urban"] == singles[0][0]["stages"]["surface"]["urban"]
    for stage in ("disparity", "bias"):
        parts = [one["stages"][stage] for one, _ in singles]
        for key, value in stages[stage].items():
            if key == "skipped":
                summed = sum((Counter(part[key]) for part in parts), Counter())
                assert value == dict(sorted(summed.items())), stage
            else:
                assert value == sum(part[key] for part in parts), (stage, key)
    assert manifest["dropped_weight_total"] == sum(
        one["dropped_weight_total"] for one, _ in singles)
    # the years do differ in what the manifest counts
    skipped = [one["stages"]["disparity"]["skipped"] for one, _ in singles]
    assert skipped[1] != skipped[0] == skipped[2]
    assert [one["dropped_weight_total"] > 0 for one, _ in singles] == [True, False, False]


def test_run_single_group_degrades_gracefully(tmp_path):
    world = make_world(tmp_path, seed=9, n_tracts=9, n_groups=1)
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config)
    # single populated group per characteristic: no gaps, but the run succeeds
    assert csv_rows(out_dir / "gaps.csv") == []
    assert csv_rows(out_dir / "exposure.csv")


def test_run_single_stage_writes_only_that_stage(tmp_path):
    world = make_world(tmp_path, seed=8, n_tracts=9, n_groups=2)
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config, only_stage="surface")
    names = set(read_out_files(out_dir))
    assert names == {"surface_2011.csv", "urban.csv"}


def test_run_multi_year(tmp_path):
    world = make_world(tmp_path, seed=14, n_tracts=9, n_groups=3)
    copy_years(world, [2012, 2011])
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    assert config.years == (2011, 2012)
    pipeline.run(config)
    years = {r["year"] for r in csv_rows(out_dir / "exposure.csv")}
    assert years == {"2011", "2012"}
    assert (out_dir / "surface_2011.csv").exists()
    assert (out_dir / "surface_2012.csv").exists()


def test_run_peak_memory_bounded_by_one_year(tmp_path):
    # each year's tables are dropped after its last stage, so four identical
    # years peak near one year; only the report blocks, as large as the output,
    # grow with the years. A dense OD table (every tract pair) makes the year's
    # working set much larger than its output.
    world = make_world(tmp_path, seed=14, n_tracts=150, n_groups=3)
    features = json.loads((world / "tracts.geojson").read_text())["features"]
    geoids = [feature["properties"]["GEOID"] for feature in features]
    totals = np.random.default_rng(14).integers(3, 30, size=len(geoids) ** 2).tolist()
    pairs = ((home, work) for home in geoids for work in geoids)
    rows = [f"{work}1001,{home}1001,{t}" + f",{t // 3},{t // 3},{t - 2 * (t // 3)}" * 3
            for (home, work), t in zip(pairs, totals)]
    od = world / "od_2011.csv"
    header = od.read_text().split("\n", 1)[0]
    od.write_text("\n".join([header, *rows]) + "\n")
    peaks = []
    for years in ([2011], [2011, 2012, 2013, 2014]):
        copy_years(world, years)
        config = pipeline.load_config(str(world / "config.json"),
                                      out_dir=str(tmp_path / f"out_{len(years)}"))
        tracemalloc.start()
        try:
            pipeline.run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], [f"{peak / 1e6:.2f} MB" for peak in peaks]


def test_run_coverage_once_per_lattice(tmp_path, monkeypatch):
    # 2012 repeats 2011's grid; 2013's grid is shifted half a cell right, so
    # coverage is rebuilt and the tracts of the first column lose a quarter of
    # their area off the grid.
    world = make_world(tmp_path, seed=14, n_tracts=9, n_groups=3)
    for year in ("2012", "2013"):
        for name in ("grid_2011.asc", "rac_2011.csv", "wac_2011.csv", "od_2011.csv"):
            shutil.copy(world / name, world / name.replace("2011", year))
    grid_2013 = world / "grid_2013.asc"
    grid_2013.write_text(grid_2013.read_text().replace("xllcorner 0.0", "xllcorner 0.5"))
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["years"] = [2011, 2012, 2013]
    (world / "config.json").write_text(json.dumps(config_doc))
    built = []
    real = zonal.tract_coverage
    monkeypatch.setattr(zonal, "tract_coverage",
                        lambda tracts, grid: built.append(grid.lattice) or real(tracts, grid))
    out_dir = tmp_path / "out"
    manifest = pipeline.run(pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir)))
    assert [lattice[:2] for lattice in built] == [(0.0, 0.0), (0.5, 0.0)]
    surface_2011 = (out_dir / "surface_2011.csv").read_text()
    assert (out_dir / "surface_2012.csv").read_text() == surface_2011.replace(",2011,", ",2012,")
    years = manifest["stages"]["surface"]["years"]
    assert years["2011"]["completeness"] == {"below_0.99": 0, "below_0.5": 0, "worst": []}
    shifted = years["2013"]["completeness"]
    assert shifted["below_0.99"] == 3 and shifted["below_0.5"] == 0
    assert [ratio for _, ratio in shifted["worst"]] == [0.75, 0.75, 0.75]


def test_manifest_contents(tmp_path):
    world = make_world(tmp_path, seed=21, n_tracts=9, n_groups=3)
    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    manifest = pipeline.run(config)
    on_disk = json.loads((out_dir / "manifest.json").read_text())
    assert strip_timings((out_dir / "manifest.json").read_bytes()) == {
        k: v for k, v in manifest.items() if k != "timings_seconds"
    }
    assert len(manifest["config_hash"]) == 64
    assert set(on_disk["stages"]) == {"surface", "exposure", "disparity", "bias"}
    assert manifest["dropped_weight_total"] == 0  # synth world fully covered
    assert all(len(h) == 64 for h in manifest["inputs"].values())


def test_manifest_reports_skip_counts(tmp_path, caplog):
    # 9 tracts: too few for 10- and 100-bin composition curves and deciles
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    manifest = pipeline.run(pipeline.load_config(str(world / "config.json"),
                                                 out_dir=str(tmp_path / "out")))
    assert manifest["stages"]["disparity"]["skipped"] == {
        "composition-curve": 80, "decile-share": 240,
    }
    assert manifest["stages"]["bias"]["skipped"] == {"bias-factor": 10}
    assert "skipped 80 composition-curve computation(s)" in caplog.text
    world = make_world(tmp_path, "w25", seed=7, n_tracts=25, n_groups=3)
    manifest = pipeline.run(pipeline.load_config(str(world / "config.json"),
                                                 out_dir=str(tmp_path / "out25")))
    assert manifest["stages"]["disparity"]["skipped"] == {"decile-share": 80}
    assert manifest["stages"]["bias"]["skipped"] == {}


def test_bins_top_minus_bottom_is_last_bin_minus_first(tmp_path):
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3)
    config = json.loads((world / "config.json").read_text())
    config["bin_counts"] = [10, 3]
    (world / "config.json").write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out_dir)]) == 0
    curves: dict[tuple, dict[int, str]] = {}
    contrasts: dict[tuple, set[str]] = {}
    for row in csv_rows(out_dir / "bins.csv"):
        if row["n_bins"] != "10":
            assert row["top_minus_bottom"] == ""
            continue
        key = (row["year"], row["kind"], row["locus"], row["stratum"],
               row["characteristic"], row["group"])
        curves.setdefault(key, {})[int(row["bin"])] = row["value"]
        contrasts.setdefault(key, set()).add(row["top_minus_bottom"])
    kinds = {key[1] for key in curves}
    assert kinds == {"composition", "concentration"}
    nonzero = 0
    for key, values in curves.items():
        assert sorted(values) == list(range(1, 11))
        expected = repr(float(values[10]) - float(values[1]))
        assert contrasts[key] == {expected}, key
        nonzero += expected not in ("0.0", "-0.0", "nan")
    assert nonzero > 0


def test_run_survives_zero_concentrations(tmp_path):
    # every group mean is 0: the Atkinson index on inverse means, the gaps,
    # the state disparities and the CoVs are undefined and skipped
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3,
                       gradient=synth.GradientSpec(kind="uniform", base=0.0, amplitude=0.0))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out_dir)]) == 0
    skipped = json.loads((out_dir / "manifest.json").read_text())["stages"]["disparity"]["skipped"]
    # 7 characteristics x 2 loci x 3 strata; one state table per locus
    assert skipped["atkinson"] == 42
    assert skipped["state-disparity"] == 2
    assert csv_rows(out_dir / "atkinson.csv") == []
    assert len(csv_rows(out_dir / "bins.csv")) > 0


@pytest.mark.parametrize("stages", [
    pytest.param(["surface", "exposure", "disparity", "bias"], id="full"),
    pytest.param(["surface", "bias"], id="bias_only"),
])
def test_manifest_dropped_weight_accounting(tmp_path, stages):
    # Punch nodata into one tract's cells: its workers must be dropped and the
    # manifest total must equal the weight referencing the excluded tract.
    world = make_world(tmp_path, seed=23, n_tracts=9, n_groups=3)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["stages"] = stages
    (world / "config.json").write_text(json.dumps(config_doc))
    grid_path = world / "grid_2011.asc"
    lines = grid_path.read_text().splitlines()
    # tract 0 covers the bottom-left 2x2 cells; data rows are listed top-down,
    # so its rows are the last two lines
    for i in (len(lines) - 2, len(lines) - 1):
        cells = lines[i].split()
        cells[0] = cells[1] = "-9999"
        lines[i] = " ".join(cells)
    grid_path.write_text("\n".join(lines) + "\n")

    out_dir = tmp_path / "out"
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(out_dir))
    manifest = pipeline.run(config)
    excluded = manifest["stages"]["surface"]["years"]["2011"]["excluded"]
    assert len(excluded) == 1
    gone = excluded[0]

    def weight_on(path, key, match):
        return sum(
            int(r["C000" if "S000" not in r else "S000"])
            for r in csv_rows(path) if match(r, key)
        )

    rac_drop = weight_on(world / "rac_2011.csv", "h_geocode",
                         lambda r, k: r[k][:11] == gone)
    wac_drop = weight_on(world / "wac_2011.csv", "w_geocode",
                         lambda r, k: r[k][:11] == gone)
    od_drop = sum(
        int(r["S000"]) for r in csv_rows(world / "od_2011.csv")
        if r["h_geocode"][:11] == gone or r["w_geocode"][:11] == gone
    )
    assert od_drop > 0
    if "exposure" in stages:
        expected = rac_drop + wac_drop + od_drop
        drops = manifest["stages"]["exposure"]["years"]["2011"]["dropped_weight"]
        assert drops == {"rac": rac_drop, "wac": wac_drop, "od": od_drop}
    else:
        expected = od_drop  # a bias-only run reads only the OD table
    assert manifest["dropped_weight_total"] == expected


def test_stage_error_names_stage(tmp_path):
    world = make_world(tmp_path, seed=25, n_tracts=4, n_groups=2)
    config = pipeline.load_config(str(world / "config.json"), out_dir=str(tmp_path / "out"))
    # corrupt the RAC table after config validation: the exposure stage must
    # fail with its name in the message
    (world / "rac_2011.csv").write_text("h_geocode,CA01\n060370000001001,1\n")
    with pytest.raises(pipeline.StageError) as err:
        pipeline.run(config)
    assert err.value.stage == "exposure"
    assert "exposure" in str(err.value)


def test_failed_rerun_leaves_no_manifest(tmp_path):
    # a manifest claims a complete run, so a rerun that fails must not leave
    # the earlier run's, whose input hashes no longer match
    world = make_world(tmp_path, seed=25, n_tracts=4, n_groups=2)
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(world / "config.json"), "--out", str(out_dir)]
    assert cli.main(argv) == 0
    assert (out_dir / "manifest.json").exists()
    (world / "rac_2011.csv").write_text("h_geocode,CA01\n060370000001001,1\n")
    assert cli.main(argv) == 1
    assert not (out_dir / "manifest.json").exists()


# ----------------------------------------------------------------------------
# report writer
# ----------------------------------------------------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]


def test_write_csv_matches_csv_module(tmp_path):
    n = len(EDGE_FLOATS)
    counts = np.arange(n, dtype=np.int64) * 10**15
    labels = ["", "white", "", "black", "x:y", "", "1", "all"]
    rows = [["year", "stratum", "value", "count", "label"]]
    rows += [[2013, "urban", value, count, label]
             for value, count, label in zip(EDGE_FLOATS, counts, labels)]
    rows += [[2014, "rural", value, count, label]
             for value, count, label in zip(EDGE_FLOATS[::-1], counts, labels)]
    blocks = [[2013, "urban", np.array(EDGE_FLOATS), counts, labels],
              [2014, "rural", np.array([]), np.array([], dtype=np.int64), []],
              [2014, "rural", np.array(EDGE_FLOATS[::-1]), counts, labels]]
    path = tmp_path / "table.csv"
    pipeline._write_csv(path, rows[0], blocks)
    assert path.read_bytes() == reference_csv(rows).encode("utf-8")


@pytest.mark.parametrize("bad", [",", '"', "\r", "\n"])
def test_write_csv_rejects_what_it_cannot_write(tmp_path, bad):
    path = tmp_path / "table.csv"
    header = ["year", "stratum", "group", "value"]
    with pytest.raises(ValueError, match=r"table\.csv: column 'group': .* would need CSV quoting"):
        pipeline._write_csv(path, header, [[2013, "all", ["white", f"a{bad}b"], np.ones(2)]])
    with pytest.raises(ValueError, match=r"table\.csv: column 'stratum'"):
        pipeline._write_csv(path, header, [[2013, f"x{bad}", ["white"], np.ones(1)]])
    with pytest.raises(ValueError, match="3 columns for a 4-field header"):
        pipeline._write_csv(path, header, [[2013, "all", ["white"]]])


# ----------------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------------

def test_formats_lists_the_config_rules_the_code_walks():
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    section = text[text.index("### Run configuration"):text.index("## Outputs")]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    documented = {key.strip("| `"): (default, rule.rstrip(" |").strip("`"))
                  for key, _, default, rule in rows}
    assert list(documented) == list(pipeline._CONFIG_RULES)
    for key, (default, rule, _) in pipeline._CONFIG_RULES.items():
        text_default, text_rule = documented[key]
        assert text_rule == rule
        if default is pipeline._REQUIRED:
            assert text_default == "required"
        else:
            assert json.loads(text_default.strip("`")) == default


def test_config_empty_years(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["years"] = []
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


def test_config_unknown_key(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["fuzz"] = 1
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


def test_config_missing_input_file(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    (world / "grid_2011.asc").unlink()
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


def test_config_bad_threshold(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["thresholds"] = [12.0, 0.0]
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


def test_config_bad_hw_weights(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["hw_weights"] = {"home": 0.9, "work": 0.2}
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        pipeline.load_config(str(world / "config.json"))


# ----------------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------------

def test_cli_synth_and_run(tmp_path):
    world = tmp_path / "w"
    rc = cli.main(["synth", "--out", str(world), "--seed", "3", "--tracts", "9"])
    assert rc == 0
    rc = cli.main(["run", "--config", str(world / "config.json"),
                   "--out", str(tmp_path / "out"), "--threads", "2"])
    assert rc == 0
    assert (tmp_path / "out" / "exposure.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_validate_and_ingest(tmp_path):
    world = tmp_path / "w"
    cli.main(["synth", "--out", str(world), "--seed", "3", "--tracts", "4"])
    assert cli.main(["validate", "--config", str(world / "config.json")]) == 0
    assert cli.main(["ingest", "--config", str(world / "config.json")]) == 0


def test_cli_ingest_rejects_bad_block(tmp_path, caplog):
    world = tmp_path / "w"
    cli.main(["synth", "--out", str(world), "--seed", "3", "--tracts", "4"])
    rac = world / "rac_2011.csv"
    lines = rac.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = str(int(cells[1]) + 1)  # C000 no longer equals the category sums
    lines[2] = ",".join(cells)
    rac.write_text("\n".join(lines) + "\n")
    assert cli.main(["ingest", "--config", str(world / "config.json")]) == 1
    assert f"row {cells[0]}: " in caplog.text


def test_cli_stage_subcommand(tmp_path):
    world = tmp_path / "w"
    cli.main(["synth", "--out", str(world), "--seed", "3", "--tracts", "4"])
    out = tmp_path / "out"
    assert cli.main(["surface", "--config", str(world / "config.json"), "--out", str(out)]) == 0
    assert (out / "surface_2011.csv").exists()
    assert not (out / "exposure.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_run_stage_flag(tmp_path):
    world = tmp_path / "w"
    cli.main(["synth", "--out", str(world), "--seed", "5", "--tracts", "4"])
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(world / "config.json"), "--out", str(out),
                   "--stage", "exposure"])
    assert rc == 0
    assert (out / "exposure.csv").exists()
    assert not (out / "gaps.csv").exists()
    assert not (out / "manifest.json").exists()


# A run imports only what it uses: a lazily imported module adds set-up cost
# to every run without showing in any stage's time.
_IMPORT_CHECK = """
import json, sys
from hwexposure import cli, synth
from hwexposure.grids import read_asc
world = sys.argv[1]
synth.synth(world, seed=7, n_tracts=9, n_groups=3)
if sys.argv[3] == "csv":  # the same grid as cell-center points
    grid = read_asc(world + "/grid_2011.asc")
    with open(world + "/grid_2011.csv", "w") as fh:
        fh.write("x,y,value\\n")
        for row in range(grid.n_rows):
            for col in range(grid.n_cols):
                fh.write(f"{col + 0.5},{row + 0.5},{float(grid.values[row, col])!r}\\n")
    with open(world + "/config.json") as fh:
        config = json.load(fh)
    config["grid"] = "grid_{year}.csv"
    with open(world + "/config.json", "w") as fh:
        json.dump(config, fh)
rc = cli.main(["run", "--config", world + "/config.json", "--out", sys.argv[2]])
print(rc, sorted(name for name in ("numpy.ma",) if name in sys.modules))
"""


def test_run_does_not_import_numpy_ma(tmp_path):
    # a fresh interpreter: this test session may have imported numpy.ma itself
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    for grid_format in ("asc", "csv"):
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_CHECK, str(tmp_path / grid_format / "world"),
             str(tmp_path / grid_format / "out"), grid_format],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.split("\n")[-2] == "0 []", grid_format
    csv_out, asc_out = tmp_path / "csv" / "out", tmp_path / "asc" / "out"
    assert (csv_out / "exposure.csv").read_bytes() == (asc_out / "exposure.csv").read_bytes()


_SYNTH_CHECK = """
import sys
from hwexposure import cli
rc = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(rc, "hwexposure.synth" in sys.modules)
"""


def test_run_does_not_import_synth(tmp_path, capsys):
    # a fresh interpreter, as above; only the synth command needs the generator
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _SYNTH_CHECK, str(world / "config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.split("\n")[-2] == "0 False"
    assert cli.GRADIENT_KINDS == synth.GRADIENT_KINDS
    assert cli.main(["synth", "--out", str(tmp_path / "s"), "--gradient", "linear_x"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["synth", "--out", str(tmp_path / "s"), "--gradient", "radial"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'radial'" in capsys.readouterr().err
