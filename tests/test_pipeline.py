"""End-to-end pipeline, synthetic generator, and CLI behavior."""
from __future__ import annotations

import csv
import functools
import gzip
import importlib.util
import json
import logging
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from helpers import oracle_hw_exposures, reference_csv, write_xyz_grid

import hwexposure
from hwexposure import cli, exposure, ingest, pipeline, synth, zonal
from hwexposure.config import _CONFIG_RULES, _REQUIRED, load_config
from hwexposure.errors import ConfigError, EngineError
from hwexposure.geometry import geoid_text


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


def test_xyz_grids_give_the_asc_grids_reports(tmp_path):
    # each year's quarter-unit grid as shuffled cell-centre points, its nodata
    # cells left out (2011), its own lattice (2013) and a zero field (2012)
    years = (2011, 2012, 2013)
    world = make_distinct_years_world(tmp_path, years)
    assert cli.main(["run", "--config", str(world / "config.json"),
                     "--out", str(tmp_path / "asc")]) == 0
    for year in years:
        write_xyz_grid(str(world / f"grid_{year}.asc"), str(world / f"grid_{year}.csv"), year)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["grid"] = "grid_{year}.csv"
    (world / "config.json").write_text(json.dumps(config_doc))
    assert cli.main(["run", "--config", str(world / "config.json"),
                     "--out", str(tmp_path / "xyz")]) == 0
    asc, xyz = read_out_files(tmp_path / "asc"), read_out_files(tmp_path / "xyz")
    assert sorted(asc) == sorted(xyz)
    for name in asc:
        if name != "manifest.json":  # its inputs name the grid files
            assert xyz[name] == asc[name], name
    assert strip_timings(xyz["manifest.json"])["stages"] == \
        strip_timings(asc["manifest.json"])["stages"]


def _worker_tables(world: Path) -> list[Path]:
    return [world / f"{name}_2011.csv" for name in ("rac", "wac", "od")]


def _shuffle_rows(world: Path) -> None:
    rng = random.Random(11)
    for path in _worker_tables(world):
        header, *rows = path.read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        path.write_text(header + "".join(rows))


def _split_a_row(world: Path) -> None:
    # the first row of each table with a total of 2 or more becomes two rows
    # of its key whose counts sum to its own: the first takes half the total,
    # from each characteristic's categories in column order, so both rows
    # keep every category sum
    for path in _worker_tables(world):
        schemas = ingest.OD_SCHEMAS if path.name.startswith("od") else ingest.RAC_WAC_SCHEMAS
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        n_keys = sum(name.endswith("_geocode") for name in header)
        i = next(i for i, row in enumerate(rows) if int(row[n_keys]) >= 2)
        row = dict(zip(header, rows[i]))
        first = {**row, header[n_keys]: str(int(row[header[n_keys]]) // 2)}
        for schema in schemas:
            left = int(first[header[n_keys]])
            for code in schema.codes:
                first[code] = str(min(left, int(row[code])))
                left -= int(first[code])
        assert all(name in ingest.GROUPS for name in header[n_keys + 1:])
        rows[i:i + 1] = [[first[name] for name in header],
                         [row[name] if name in header[:n_keys]
                          else str(int(row[name]) - int(first[name])) for name in header]]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])


def _gzip_tables(world: Path) -> None:
    for path in _worker_tables(world):
        path.with_suffix(".csv.gz").write_bytes(gzip.compress(path.read_bytes()))
        path.unlink()
    config_doc = json.loads((world / "config.json").read_text())
    config_doc.update({name: f"{name}_{{year}}.csv.gz" for name in ("rac", "wac", "od")})
    (world / "config.json").write_text(json.dumps(config_doc))


def _shuffle_features(world: Path) -> None:
    # every synth tract is one polygon, so no tract's own parts are reordered
    rng = random.Random(13)
    for name in ("tracts.geojson", "urban.geojson"):
        doc = json.loads((world / name).read_text())
        rng.shuffle(doc["features"])
        (world / name).write_text(json.dumps(doc))


def _wrap_grid(world: Path) -> None:
    path = world / "grid_2011.asc"
    lines = path.read_text().splitlines()
    assert lines[5].startswith("NODATA_value")  # the last header line
    cells = " ".join(lines[6:]).split()
    path.write_text("\n".join(lines[:6] + [" ".join(cells[i:i + 7])
                                          for i in range(0, len(cells), 7)]) + "\n")


@pytest.fixture(scope="module")
def invariance_world(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A 25-tract synth world whose grid has two nodata cells and whose urban
    mask is its square's four quadrants, and the files its run writes."""
    root = tmp_path_factory.mktemp("invariance")
    world = make_world(root, seed=7, n_tracts=25, n_groups=3)
    grid = world / "grid_2011.asc"
    lines = grid.read_text().splitlines()
    lines[-1] = " ".join(["-9999", "-9999", *lines[-1].split()[2:]])
    grid.write_text("\n".join(lines) + "\n")
    doc = json.loads((world / "urban.geojson").read_text())
    [[(x0, y0), _, (x1, y1), *_]] = doc["features"][0]["geometry"]["coordinates"]
    xs, ys = (x0, (x0 + x1) / 2, x1), (y0, (y0 + y1) / 2, y1)
    doc["features"] = [
        {"type": "Feature", "properties": {"NAME": f"core{i}{j}"}, "geometry": {
            "type": "Polygon", "coordinates": [[[xs[i], ys[j]], [xs[i + 1], ys[j]],
                                                [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]],
                                                [xs[i], ys[j]]]]}}
        for i in (0, 1) for j in (0, 1)]
    (world / "urban.geojson").write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(world / "config.json"),
                     "--out", str(root / "out")]) == 0
    return world, read_out_files(root / "out")


def assert_rewrite_keeps_the_reports(tmp_path: Path, world: Path, expected: dict[str, bytes],
                                     relation) -> None:
    """Run a copy of ``world`` rewritten by ``relation``: every report is
    byte-identical to ``expected``, and the manifest differs only in what
    names the inputs and the config."""
    shutil.copytree(world, tmp_path / "world")
    relation(tmp_path / "world")
    assert cli.main(["run", "--config", str(tmp_path / "world" / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
    got = read_out_files(tmp_path / "out")
    assert sorted(got) == sorted(expected)
    for name in expected:
        if name != "manifest.json":
            assert got[name] == expected[name], name
    manifests = [strip_timings(files["manifest.json"]) for files in (got, expected)]
    assert manifests[0]["inputs"] != manifests[1]["inputs"]  # the rewrite changed a file
    for doc in manifests:
        del doc["inputs"], doc["config_hash"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("relation", [_shuffle_rows, _split_a_row, _gzip_tables, _wrap_grid,
                                      _shuffle_features],
                         ids=["shuffled_rows", "split_row", "gzipped_tables", "wrapped_grid",
                              "shuffled_features"])
def test_reports_hold_under_input_rewrites_that_keep_the_data(tmp_path, invariance_world,
                                                              relation):
    # worker sums are exact integers and a grid is its cells, so no report
    # may move when the inputs say the same thing in other bytes
    assert_rewrite_keeps_the_reports(tmp_path, *invariance_world, relation)


def load_perfbench_gen(monkeypatch: pytest.MonkeyPatch):
    """The benchmark's input generator, ``perfbench/gen.py``, as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look the module up
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="module")
def gen_invariance_world(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A benchmark generator world of 20 star tracts of 4 blocks each and
    ~1.8k OD block pairs, several to each tract pair, and the files its run
    writes."""
    root = tmp_path_factory.mktemp("gen_invariance")
    with pytest.MonkeyPatch.context() as monkeypatch:
        gen = load_perfbench_gen(monkeypatch)
        world = gen.generate(gen.Workload(
            name="invariance", tract_shape="star", tracts=20, years=1, states=2,
            blocks_per_tract=4, od_rows=3_000, threads=1, strata=False, bin_counts=(10,)),
            101, root / "world")
    assert cli.main(["run", "--config", str(world.config_path), "--out", str(root / "out")]) == 0
    return root / "world", read_out_files(root / "out")


@pytest.mark.parametrize("relation", [_shuffle_rows, _split_a_row],
                         ids=["shuffled_rows", "split_row"])
def test_gen_world_reports_hold_under_row_rewrites(tmp_path, gen_invariance_world, relation):
    # the benchmark's star tracts and OD-heavy tables, whose rollup sums
    # many block rows into each tract and tract pair
    assert_rewrite_keeps_the_reports(tmp_path, *gen_invariance_world, relation)


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


def test_synth_rejects_bad_args(tmp_path, caplog):
    with pytest.raises(ConfigError):
        synth.synth(str(tmp_path / "x"), n_tracts=1)
    with pytest.raises(ConfigError):
        synth.GradientSpec(kind="volcano")
    with pytest.raises(ConfigError, match="^gradient base and amplitude must be non-negative$"):
        synth.GradientSpec(base=-1.0)
    with pytest.raises(ConfigError, match="^need at least 1 group, got 0$"):
        synth.synth(str(tmp_path / "x"), n_groups=0)
    assert not (tmp_path / "x").exists()
    # a base or amplitude that is not finite, or a pair whose peak in
    # quarter units, 4 * (base + amplitude), is not
    for kind, base, amplitude in (("work_hotspot", math.nan, 8.0), ("work_hotspot", 6.0, math.inf),
                                  ("uniform", math.inf, 8.0), ("linear_x", 1e308, 1e308),
                                  ("uniform", 1e308, 0.0)):
        with pytest.raises(ConfigError, match="must be finite"):
            synth.GradientSpec(kind=kind, base=base, amplitude=amplitude)
    # the command line ends in a configuration error, not a traceback
    for args in (["--base", "nan"], ["--amplitude", "inf"],
                 ["--gradient", "uniform", "--base", "inf"]):
        caplog.clear()
        assert cli.main(["synth", "--out", str(tmp_path / "y"), *args]) == 2
        assert "configuration error: gradient base and amplitude must be finite" in caplog.text
    # a negative seed, and more tracts than six-digit tract codes can number
    for args, message in ((["--seed", "-1"], "seed must be non-negative, got -1"),
                          (["--tracts", "1000001"], "need 2 to 1000000 tracts, got 1000001")):
        caplog.clear()
        assert cli.main(["synth", "--out", str(tmp_path / "y"), *args]) == 2
        assert f"configuration error: {message}" in caplog.text
    assert not (tmp_path / "y").exists()


# ----------------------------------------------------------------------------
# run: determinism, signs, stage gating
# ----------------------------------------------------------------------------

def test_run_byte_identical_across_threads(tmp_path):
    world = make_world(tmp_path, seed=11, n_tracts=9, n_groups=3)
    outputs = {}
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"out_{threads}"
        config = load_config(str(world / "config.json"), out_dir=str(out_dir),
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


def test_second_hw_split_changes_only_the_hw_reports(tmp_path):
    # C3's identity at a second split, end to end: at 0.75/0.25 every report
    # that reads no HW is byte-identical to the default split's, and each
    # error.csv row is 0.25 * (H - W) of its OD slice
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3)
    outputs = {}
    for work in (0.206, 0.25):
        doc = json.loads((world / "config.json").read_text())
        doc["hw_weights"] = {"home": round(1.0 - work, 3), "work": work}
        (world / "config.json").write_text(json.dumps(doc))
        config = load_config(str(world / "config.json"), out_dir=str(tmp_path / str(work)))
        assert config.work_fraction == work
        pipeline.run(config)
        outputs[work] = read_out_files(config.out_dir)
    base, other = outputs[0.206], outputs[0.25]
    for name in ("surface_2011.csv", "urban.csv", "gaps.csv", "bins.csv", "atkinson.csv",
                 "state_disparity.csv", "threshold.csv"):
        assert other[name] == base[name], name
    for name in ("error.csv", "bias.csv"):
        assert other[name] != base[name], name

    def by_locus(text: bytes) -> dict[str, list[str]]:
        rows: dict[str, list[str]] = {}
        for line in text.decode().splitlines()[1:]:
            rows.setdefault(line.split(",")[2], []).append(line)
        return rows

    base_rows, other_rows = by_locus(base["exposure.csv"]), by_locus(other["exposure.csv"])
    assert other_rows["H"] == base_rows["H"] and other_rows["W"] == base_rows["W"]
    assert other_rows["HW"] != base_rows["HW"]

    # the OD population's H and W means, from the per-group oracle
    state, data = pipeline.RunState(config=config), pipeline.YearData(year=2011)
    pipeline._stage_surface(state, data)
    surface = data.surface
    pairs = exposure.resolve_pairs(
        surface, ingest.aggregate_od(ingest.read_od_csv(str(world / "od_2011.csv"))))
    classification = dict(zip(geoid_text(surface.ids), (zonal.STRATA[c] for c in surface.strata)))
    records, _ = oracle_hw_exposures(pairs, ingest.OD_SCHEMAS, 0.25, classification,
                                     exposure.reported_strata(surface))
    means = {(r.group_key, r.stratum, r.locus): r.mean for r in records}
    errors = csv_rows(tmp_path / "0.25" / "error.csv")
    assert len(errors) == len(records) // 3 > 0
    for row in errors:
        h, w = (means[(row["group"], row["stratum"], locus)] for locus in ("H", "W"))
        assert abs(float(row["error"]) - 0.25 * (h - w)) <= 1e-9, (row["group"], row["stratum"])


def test_run_rerun_byte_identical(tmp_path):
    world = make_world(tmp_path, seed=13, n_tracts=9, n_groups=2)
    out_a, out_b = tmp_path / "oa", tmp_path / "ob"
    pipeline.run(load_config(str(world / "config.json"), out_dir=str(out_a)))
    pipeline.run(load_config(str(world / "config.json"), out_dir=str(out_b)))
    files_a, files_b = read_out_files(out_a), read_out_files(out_b)
    for name in files_a:
        if name == "manifest.json":
            assert strip_timings(files_a[name]) == strip_timings(files_b[name])
        else:
            assert files_a[name] == files_b[name]


def test_run_work_hotspot_signs(tmp_path):
    world = make_world(tmp_path, seed=2, n_tracts=25, n_groups=3)
    out_dir = tmp_path / "out"
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
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
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
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
        load_config(str(world / "config.json"))


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
    # the full run's bytes, and the manifest of a config whose stages are [X];
    # run --stage bias joins the OD table itself, where the full run's
    # exposure stage built the same frame
    world = make_distinct_years_world(tmp_path, (2011, 2012))
    full, alone, listed = tmp_path / "full", tmp_path / "alone", tmp_path / "listed"
    pipeline.run(load_config(str(world / "config.json"), out_dir=str(full)))
    pipeline.run(load_config(str(world / "config.json"), out_dir=str(alone),
                             stage=stage))
    assert set(read_out_files(alone)) == STAGE_FILES[stage] | {"manifest.json"}
    for name in STAGE_FILES[stage]:
        assert (alone / name).read_bytes() == (full / name).read_bytes(), name
        assert len(csv_rows(full / name)) > 0, name
    config_doc = json.loads((world / "config.json").read_text())
    (world / "listed.json").write_text(json.dumps({**config_doc, "stages": [stage]}))
    pipeline.run(load_config(str(world / "listed.json"), out_dir=str(listed)))
    manifests = [strip_timings((out / "manifest.json").read_bytes()) for out in (alone, listed)]
    for manifest in manifests:
        del manifest["config_hash"]
    assert manifests[0] == manifests[1]
    assert set(manifests[0]["stages"]) == {stage, *pipeline._PREREQS[stage]}


@pytest.mark.parametrize("stage", pipeline.STAGES)
def test_run_stage_replaces_the_manifest(tmp_path, stage):
    # a stage run into a full run's directory leaves its own manifest, whose
    # row counts are those of the reports it wrote, not the full run's
    world = make_world(tmp_path, seed=8, n_tracts=9, n_groups=2)
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(world / "config.json"), "--out", str(out_dir)]
    assert cli.main(argv) == 0
    config_doc = json.loads((world / "config.json").read_text())
    config_doc.update(bin_counts=[10], thresholds=[5.0])
    (world / "config.json").write_text(json.dumps(config_doc))
    assert cli.main([*argv, "--stage", stage]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["stages"]) == {stage, *pipeline._PREREQS[stage]}
    for name, (owner, _, count_key) in pipeline._REPORTS.items():
        if owner == stage and count_key:
            assert manifest["stages"][stage][count_key] == len(csv_rows(out_dir / name)), name


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
        singles.append((pipeline.run(load_config(str(world / f"config_{year}.json"),
                                                 out_dir=str(out_dir))),
                        read_out_files(out_dir)))
    out_dir = tmp_path / "out"
    manifest = pipeline.run(load_config(str(world / "config.json"), out_dir=str(out_dir)))
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
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
    pipeline.run(config)
    # single populated group per characteristic: no gaps, but the run succeeds
    assert csv_rows(out_dir / "gaps.csv") == []
    assert csv_rows(out_dir / "exposure.csv")


def test_run_single_stage_writes_only_that_stage(tmp_path):
    world = make_world(tmp_path, seed=8, n_tracts=9, n_groups=2)
    out_dir = tmp_path / "out"
    config = load_config(str(world / "config.json"), out_dir=str(out_dir),
                         stage="surface")
    assert config.stages == ("surface",)
    pipeline.run(config)
    names = set(read_out_files(out_dir))
    assert names == {"surface_2011.csv", "urban.csv", "manifest.json"}


def test_run_multi_year(tmp_path):
    world = make_world(tmp_path, seed=14, n_tracts=9, n_groups=3)
    copy_years(world, [2012, 2011])
    out_dir = tmp_path / "out"
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
    assert config.years == (2011, 2012)
    pipeline.run(config)
    years = {r["year"] for r in csv_rows(out_dir / "exposure.csv")}
    assert years == {"2011", "2012"}
    assert (out_dir / "surface_2011.csv").exists()
    assert (out_dir / "surface_2012.csv").exists()


def run_peaks(world: Path, out_dir: Path, runs: Sequence[Sequence[int]]) -> list[int]:
    """The tracemalloc peak of an in-process run of ``world`` over each list of years."""
    peaks = []
    for years in runs:
        copy_years(world, years)
        config = load_config(str(world / "config.json"),
                             out_dir=str(out_dir / f"out_{len(years)}"))
        tracemalloc.start()
        try:
            pipeline.run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def dense_od_world(tmp_path: Path) -> Path:
    """A 150-tract world whose OD table holds every tract pair, so a year's
    working set is much larger than its output."""
    world = make_world(tmp_path, "dense", seed=14, n_tracts=150, n_groups=3)
    features = json.loads((world / "tracts.geojson").read_text())["features"]
    geoids = [feature["properties"]["GEOID"] for feature in features]
    totals = np.random.default_rng(14).integers(3, 30, size=len(geoids) ** 2).tolist()
    pairs = ((home, work) for home in geoids for work in geoids)
    rows = [f"{work}1001,{home}1001,{t}" + f",{t // 3},{t // 3},{t - 2 * (t // 3)}" * 3
            for (home, work), t in zip(pairs, totals)]
    od = world / "od_2011.csv"
    header = od.read_text().split("\n", 1)[0]
    od.write_text("\n".join([header, *rows]) + "\n")
    return world


def bins_world(tmp_path: Path) -> Path:
    """A 400-tract world whose default 100- and 10-bin curves make a year's
    output as large as its working set."""
    world = make_world(tmp_path, "bins", seed=14, n_tracts=400, n_groups=3)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc["bin_counts"] = [100, 10]
    (world / "config.json").write_text(json.dumps(config_doc))
    return world


def test_run_peak_memory_bounded_by_one_year(tmp_path):
    # each year's tables are dropped after its last stage and its report rows
    # are written as its stages make them, so identical years peak near one
    # year, whether the working set or the output is the larger
    peaks = run_peaks(dense_od_world(tmp_path), tmp_path, ([2011], [2011, 2012, 2013, 2014]))
    assert peaks[1] <= 1.2 * peaks[0], [f"{peak / 1e6:.2f} MB" for peak in peaks]
    peaks = run_peaks(bins_world(tmp_path), tmp_path / "bins", ([2011], list(range(2011, 2019))))
    assert peaks[1] <= 1.1 * peaks[0], [f"{peak / 1e6:.2f} MB" for peak in peaks]


# Each stage's tracemalloc peak above the memory traced at its start, per
# unit, on the world below (numpy 2.4.6, Python 3.11): the exposure stage
# 171.4 B per OD row, the surface stage 598.6 B per tract and mask vertex over
# 8 B per grid cell, the bias stage 116.2 B per tract pair. Each bound is that
# figure plus 10-15%; a change that lowers a peak lowers its bound with it.
STAGE_BUDGETS = {"exposure": 188, "surface": 690, "bias": 135}


def test_stage_peaks_within_their_memory_budgets(tmp_path, monkeypatch):
    # the benchmark generator's star tracts and OD-heavy tables: 50 tracts
    # and ~16k OD rows, the smallest such world whose per-unit peaks are
    # within 10% of those of a ~190k-row one (400 tracts)
    gen = load_perfbench_gen(monkeypatch)
    world = gen.generate(gen.Workload(
        name="budget", tract_shape="star", tracts=50, years=1, states=2, blocks_per_tract=4,
        od_rows=37_500, threads=1, strata=False, bin_counts=(10,)), 101, tmp_path / "world")
    peaks = {}

    def traced(stage, func):
        def run(state, data):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            func(state, data)
            peaks[stage] = tracemalloc.get_traced_memory()[1] - start
        return run

    for stage, func in list(pipeline._STAGE_FUNCS.items()):
        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, traced(stage, func))
    tracemalloc.start()
    try:
        manifest = pipeline.run(load_config(str(world.config_path), out_dir=str(tmp_path / "out")))
    finally:
        tracemalloc.stop()
    per_unit = {
        "exposure": peaks["exposure"] / len(world.od[0].totals),
        "surface": (peaks["surface"] - 8 * world.grids[0].size)
        / (world.tract_vertices + world.mask_vertices),
        "bias": peaks["bias"] / manifest["stages"]["exposure"]["years"]["2011"]["od_pairs"],
    }
    assert all(per_unit[stage] <= bound for stage, bound in STAGE_BUDGETS.items()), per_unit


# A run in a fresh interpreter that prints its own peak resident set in kB.
_PEAK_RSS = """
import sys
from hwexposure import cli
assert cli.main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_process_peak_rss_bounded_by_one_year(tmp_path):
    # tracemalloc cannot see freed heap that stays resident, the process's
    # high-water mark can
    for world, years in ((dense_od_world(tmp_path), [2011, 2012, 2013, 2014]),
                         (bins_world(tmp_path), list(range(2011, 2019)))):
        peaks = []
        for run_years in ([2011], years):
            copy_years(world, run_years)
            result = run_process("-c", _PEAK_RSS, "run", "--config", str(world / "config.json"),
                                 "--out", str(world / f"out_{len(run_years)}"))
            assert result.returncode == 0, result.stderr
            peaks.append(int(result.stdout))
        assert peaks[1] <= 1.1 * peaks[0], (world.name, [f"{kb / 1e3:.1f} MB" for kb in peaks])


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
    manifest = pipeline.run(load_config(str(world / "config.json"), out_dir=str(out_dir)))
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
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
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
    manifest = pipeline.run(load_config(str(world / "config.json"),
                                        out_dir=str(tmp_path / "out")))
    assert manifest["stages"]["disparity"]["skipped"] == {
        "composition-curve": 80, "decile-share": 240,
    }
    assert manifest["stages"]["bias"]["skipped"] == {"bias-factor": 10}
    assert "skipped 80 composition-curve computation(s)" in caplog.text
    world = make_world(tmp_path, "w25", seed=7, n_tracts=25, n_groups=3)
    manifest = pipeline.run(load_config(str(world / "config.json"),
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


@pytest.mark.parametrize("table, locus", [("rac_2011.csv", "H"), ("wac_2011.csv", "W"),
                                          ("od_2011.csv", "HW")])
def test_run_survives_a_table_without_workers(tmp_path, table, locus):
    # every count of one RAC, WAC or OD table is 0: its slices are left out
    # and counted, and a RAC or WAC table's threshold shares and state
    # disparities are undefined and skipped, as the README promises
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3)
    lines = (world / table).read_text().splitlines()
    n_keys = 2 if locus == "HW" else 1  # OD: w_geocode, h_geocode
    zeroed = [",".join(line.split(",")[:n_keys]) + ",0" * (line.count(",") + 1 - n_keys)
              for line in lines[1:]]
    (world / table).write_text("\n".join([lines[0], *zeroed]) + "\n")
    config = world / "config.json"
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    stages = json.loads((out_dir / "manifest.json").read_text())["stages"]
    # the table's (stratum, group) exposures are left out, and each one is
    # counted: 41 RAC/WAC groups, 10 OD groups and 3 strata
    exposure_rows = csv_rows(out_dir / "exposure.csv")
    assert locus not in {row["locus"] for row in exposure_rows}
    assert stages["exposure"]["skipped"] == {
        "zero-weight-group": 3 * (41 + 41 + 10) - len(exposure_rows)}
    if locus == "HW":
        # no OD error, bias or rank-sum slice has workers
        assert stages["exposure"]["skipped"]["zero-weight-group"] >= 3 * 10
        for name in ("error.csv", "bias.csv", "wilcoxon.csv"):
            assert csv_rows(out_dir / name) == [], name
        assert stages["bias"]["skipped"] == {"zero-weight-group": 3 * 10}
        return
    assert stages["exposure"]["skipped"]["zero-weight-group"] >= 3 * 41
    skipped = stages["disparity"]["skipped"]
    thresholds = load_config(str(config)).thresholds
    assert skipped["threshold-share"] == len(thresholds) > 0
    assert skipped["state-disparity"] == 1
    other = {"H": "W", "W": "H"}[locus]
    assert {row["locus"] for row in csv_rows(out_dir / "threshold.csv")} == {other}
    assert {row["locus"] for row in csv_rows(out_dir / "state_disparity.csv")} == {other}
    # and so are its (stratum, characteristic) gaps and Atkinson curves: 7
    # characteristics and 3 strata
    for name in ("gaps.csv", "atkinson.csv"):
        assert {row["locus"] for row in csv_rows(out_dir / name)} == {other}
    assert skipped["gap"] == skipped["atkinson"] == 3 * 7
    stage_dir = tmp_path / "stage"
    assert cli.main(["run", "--config", str(config), "--out", str(stage_dir),
                     "--stage", "disparity"]) == 0
    assert (stage_dir / "threshold.csv").read_bytes() == (out_dir / "threshold.csv").read_bytes()


def test_run_counts_a_stratum_without_tracts(tmp_path):
    # an urban mask far off the world leaves the urban stratum without tracts:
    # every (urban, group) slice of each table and every urban (locus,
    # characteristic) is left out and counted, in the bias stage too
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3)
    mask = json.loads((world / "urban.geojson").read_text())
    for feature in mask["features"]:
        feature["geometry"]["coordinates"] = [
            [[-900.0, -900.0], [-899.0, -900.0], [-899.0, -899.0], [-900.0, -899.0],
             [-900.0, -900.0]]]
    (world / "urban.geojson").write_text(json.dumps(mask))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out_dir)]) == 0
    stages = json.loads((out_dir / "manifest.json").read_text())["stages"]
    assert stages["surface"]["urban"]["urban"] == 0
    for name in ("exposure.csv", "error.csv", "gaps.csv", "atkinson.csv", "bias.csv",
                 "wilcoxon.csv"):
        assert "urban" not in {row["stratum"] for row in csv_rows(out_dir / name)}, name
    # 41 RAC/WAC groups, 10 OD groups, 7 characteristics, 2 loci and 3 strata
    exposure_rows = csv_rows(out_dir / "exposure.csv")
    assert stages["exposure"]["skipped"] == {
        "zero-weight-group": 3 * (41 + 41 + 10) - len(exposure_rows)}
    assert stages["bias"]["skipped"] == {"zero-weight-group": 10}
    gaps = 3 * 2 * 7 - len({(row["locus"], row["stratum"], row["characteristic"])
                            for row in csv_rows(out_dir / "gaps.csv")})
    assert stages["disparity"]["skipped"]["gap"] == gaps >= 2 * 7


def test_strata_false_reports_only_all(tmp_path):
    # with an urban mask and strata false, the tracts are still classified
    # (urban.csv), but every stratified report holds only the `all` rows,
    # byte for byte those of the stratified run; the other reports are equal
    world = make_world(tmp_path, seed=7, n_tracts=25, n_groups=3)
    config_doc = json.loads((world / "config.json").read_text())
    assert config_doc["strata"] is True and config_doc["urban_mask"]
    (world / "flat.json").write_text(json.dumps({**config_doc, "strata": False}))
    outs = {}
    for name in ("config.json", "flat.json"):
        outs[name] = tmp_path / name
        assert cli.main(["run", "--config", str(world / name), "--out", str(outs[name])]) == 0
    stratified, flat = (read_out_files(outs[name]) for name in ("config.json", "flat.json"))
    assert sorted(flat) == sorted(stratified)
    assert flat["urban.csv"] == stratified["urban.csv"]
    assert {row["stratum"] for row in csv_rows(outs["flat.json"] / "urban.csv")} == {
        "urban", "rural"}
    reports = ("exposure.csv", "error.csv", "gaps.csv", "bins.csv", "atkinson.csv", "bias.csv",
               "wilcoxon.csv")
    for name in reports:
        header, *lines = stratified[name].decode().splitlines(keepends=True)
        column = header.rstrip("\n").split(",").index("stratum")
        kept = [line for line in lines if line.split(",")[column] == "all"]
        assert 0 < len(kept) < len(lines), name
        assert flat[name].decode() == header + "".join(kept), name
    for name in sorted(set(flat) - {*reports, "manifest.json"}):
        assert flat[name] == stratified[name], name


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
    config = load_config(str(world / "config.json"), out_dir=str(out_dir))
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
    config = load_config(str(world / "config.json"), out_dir=str(tmp_path / "out"))
    # corrupt the RAC table after config validation: the exposure stage must
    # fail with its name in the message
    (world / "rac_2011.csv").write_text("h_geocode,CA01\n060370000001001,1\n")
    with pytest.raises(EngineError, match=r"^stage exposure: .*rac_2011\.csv: ") as err:
        pipeline.run(config)
    assert type(err.value) is EngineError


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


def test_failed_stage_run_leaves_no_manifest(tmp_path):
    # a stage run truncates its reports to their headers before the first
    # stage, so the full run's manifest no longer describes them: a stage
    # run that fails leaves none
    world = make_world(tmp_path, seed=25, n_tracts=4, n_groups=2)
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(world / "config.json"), "--out", str(out_dir)]
    assert cli.main(argv) == 0
    assert csv_rows(out_dir / "bins.csv")
    rac = world / "rac_2011.csv"
    lines = rac.read_text().splitlines()
    lines[1] = ",".join(["x" if i == 1 else cell for i, cell in enumerate(lines[1].split(","))])
    rac.write_text("\n".join(lines) + "\n")
    assert cli.main([*argv, "--stage", "disparity"]) == 1
    assert not (out_dir / "manifest.json").exists()
    assert csv_rows(out_dir / "bins.csv") == []


def test_failed_run_keeps_the_rows_written_before_the_failure(tmp_path, caplog):
    # 2012's RAC table is bad: every report holds 2011's rows, as a 2011-only
    # run writes them, plus surface_2012.csv from the stage that ran before the
    # failure; there is no manifest
    world = make_world(tmp_path, seed=25, n_tracts=4, n_groups=2)
    reference = tmp_path / "out_2011"
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(reference)]) == 0
    copy_years(world, [2011, 2012])
    (world / "rac_2012.csv").write_text("h_geocode,CA01\n060370000001001,1\n")
    out_dir = tmp_path / "out"
    caplog.clear()
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out_dir)]) == 1
    assert f"stage exposure: {world / 'rac_2012.csv'}: " in caplog.text
    expected = read_out_files(reference)
    del expected["manifest.json"]
    expected["surface_2012.csv"] = expected["surface_2011.csv"].replace(b",2011,", b",2012,")
    assert read_out_files(out_dir) == expected


def test_report_that_cannot_be_opened_fails_before_the_first_stage(tmp_path, caplog,
                                                                   monkeypatch):
    # a report path that is a dangling link into a missing directory
    world = make_world(tmp_path, seed=25, n_tracts=4, n_groups=2)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "exposure.csv").symlink_to(tmp_path / "missing" / "exposure.csv")
    ran = []
    for stage in pipeline.STAGES:
        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage,
                            lambda state, data, stage=stage: ran.append(stage))
    assert cli.main(["run", "--config", str(world / "config.json"), "--out", str(out_dir)]) == 2
    assert (f"configuration error: {out_dir / 'exposure.csv'}: cannot write output file: "
            "No such file or directory") in caplog.text
    assert ran == []


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        pipeline._write_csv(fh, blocks[:1])
        pipeline._write_csv(fh, blocks[1:])
    assert path.read_bytes() == reference_csv(rows).encode("utf-8")


# The writer neither counts nor quotes cells: every block is built beside its
# header, and every text cell is a constant below, a state code or a geoid.
# These tests hold on real output what it no longer checks as it writes.

def test_recorded_reports_have_a_cell_per_header_field(recorded_reports):
    names = {name.format(year=year) for name in pipeline._REPORTS for year in (2011, 2012)}
    assert set(recorded_reports) == names
    for name, text in recorded_reports.items():
        header, *rows, end = text.split("\n")
        _, fields, _ = pipeline._REPORTS[re.sub(r"_\d{4}\.", "_{year}.", name)]
        assert header.split(",") == list(fields)
        assert rows and end == ""
        assert [row for row in rows if row.count(",") != header.count(",")] == [], name


def test_recorded_reports_need_no_quoting(recorded_reports):
    assert [name for name, text in recorded_reports.items() if '"' in text or "\r" in text] == []


def test_recorded_surfaces_and_exposures_hold_their_invariants(recorded_reports):
    # the grid reader rejects negative cells and a zonal mean lies within
    # its cells' range; p10 and p90 come from one ascending order, and a
    # weight sums non-negative counts
    for name in ("surface_2011.csv", "surface_2012.csv"):
        pm25 = [float(row["pm25"]) for row in csv.DictReader(recorded_reports[name].split("\n"))]
        assert pm25 and min(pm25) >= 0.0
    rows = list(csv.DictReader(recorded_reports["exposure.csv"].split("\n")))
    assert rows and all(float(row["p10"]) <= float(row["p90"]) and float(row["weight"]) >= 0.0
                        for row in rows)


def test_report_text_constants_need_no_quoting():
    texts = [text for pair in ingest.GROUPS.values() for text in pair]
    texts += [*zonal.STRATA, exposure.ALL_STRATUM, *exposure.ALL_GROUP, exposure.LOCUS_HOME,
              exposure.LOCUS_WORK, exposure.LOCUS_BLEND]
    texts += ["composition", "concentration"]  # the bins.csv kinds of pipeline._bin_block
    texts += [field for _, header, _ in pipeline._REPORTS.values() for field in header]
    assert [text for text in texts if any(c in text for c in ',"\r\n')] == []


# ----------------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------------

def test_formats_lists_the_config_rules_the_code_walks():
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    section = text[text.index("### Run configuration"):text.index("## Outputs")]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    documented = {key.strip("| `"): (default, rule.rstrip(" |").strip("`"))
                  for key, _, default, rule in rows}
    assert list(documented) == list(_CONFIG_RULES)
    for key, (default, rule, _) in _CONFIG_RULES.items():
        text_default, text_rule = documented[key]
        assert text_rule == rule
        if default is _REQUIRED:
            assert text_default == "required"
        else:
            assert json.loads(text_default.strip("`")) == default


def test_config_empty_years(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["years"] = []
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(world / "config.json"))


def test_config_unknown_key(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["fuzz"] = 1
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(world / "config.json"))


def test_config_missing_input_file(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    (world / "grid_2011.asc").unlink()
    with pytest.raises(ConfigError):
        load_config(str(world / "config.json"))


def test_config_bad_threshold(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["thresholds"] = [12.0, 0.0]
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(world / "config.json"))


def test_config_bad_hw_weights(tmp_path):
    world = make_world(tmp_path, seed=1, n_tracts=4, n_groups=2)
    doc = json.loads((world / "config.json").read_text())
    doc["hw_weights"] = {"home": 0.9, "work": 0.2}
    (world / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(world / "config.json"))


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


def test_cli_ingest_reads_only_the_configured_tables(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    world = make_world(tmp_path, seed=3, n_tracts=4)
    config_doc = json.loads((world / "config.json").read_text())
    config_doc.update(od=None, stages=["surface", "exposure", "disparity"])
    (world / "config.json").write_text(json.dumps(config_doc))
    assert cli.main(["ingest", "--config", str(world / "config.json")]) == 0
    read = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "hwexposure"]
    assert read == ["residence 2011", "workplace 2011"]


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == ["exposure", "surface"]


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
        for row in range(grid.values.shape[0]):
            for col in range(grid.values.shape[1]):
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


def test_grid_far_finer_than_the_tracts_runs_in_bounded_memory(tmp_path):
    # A 6e-4-wide grid under 2-unit tracts, as a degree grid under metre
    # tracts would be: each tract's box spans about 2e4 cells a side, but
    # only its cells on the grid are held, so the run completes under a
    # 1.5 GB address-space limit, set on the child process alone. One tract
    # touches the grid and the other eight miss it.
    world = tmp_path / "w"
    synth.synth(str(world))
    grid = world / "grid_2011.asc"
    grid.write_text(re.sub(r"(?m)^cellsize .*$", "cellsize 0.0001", grid.read_text()))
    limit = 1_500_000 * 1024

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "hwexposure.cli", "run", "--config", str(world / "config.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory,
    )
    assert result.returncode == 0, result.stderr
    year = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "stages"]["surface"]["years"]["2011"]
    assert (len(year["excluded"]), year["tracts_with_coverage"]) == (8, 1)


_CONFIG_ONLY_CHECK = """
import sys
from hwexposure import cli
try:
    rc = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    rc = exc.code
loaded = [name for name in sys.modules
          if name in ("numpy", "dataclasses") or name.startswith("hwexposure")]
print(rc, sorted(loaded))
"""


@pytest.mark.parametrize("argv, code", [
    (["validate", "--config", "{world}/config.json"], 0),
    (["--help"], 0),
    (["run", "--help"], 0),
    (["run", "--config", "{world}/config.json", "--threads", "0"], 2),
    (["validate", "--config", "{world}/nope.json"], 2),
], ids=["validate", "help", "run_help", "bad_threads", "missing_config"])
def test_validate_help_and_config_errors_load_no_engine(tmp_path, argv, code):
    # a fresh interpreter: numpy and the engine modules are already loaded here;
    # no record type builds a dataclass, so dataclasses is not loaded either
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _CONFIG_ONLY_CHECK, *(a.format(world=world) for a in argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    modules = ["hwexposure", "hwexposure.cli", "hwexposure.config", "hwexposure.errors"]
    assert result.stdout.split("\n")[-2] == f"{code} {modules}"


_SYNTH_CHECK = """
import sys
from hwexposure import cli
rc = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(rc, "hwexposure.synth" in sys.modules, "dataclasses" in sys.modules)
"""


def test_run_does_not_import_synth(tmp_path, capsys):
    # a fresh interpreter, as above; only the synth command needs the generator,
    # whose GradientSpec is the one dataclass left
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _SYNTH_CHECK, str(world / "config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.split("\n")[-2] == "0 False False"
    assert cli.GRADIENT_KINDS == synth.GRADIENT_KINDS
    assert cli.main(["synth", "--out", str(tmp_path / "s"), "--gradient", "linear_x"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["synth", "--out", str(tmp_path / "s"), "--gradient", "radial"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'radial'" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# the process: `python -m hwexposure.cli` ends through cli.entry
# ----------------------------------------------------------------------------

def run_process(*args: str) -> subprocess.CompletedProcess:
    """A fresh ``python <args>`` with this engine on its path and the standard
    streams block-buffered, as in a batch job, so a lost flush shows."""
    env = dict(os.environ, PYTHONPATH=str(Path(hwexposure.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_process_run_matches_in_process_run(tmp_path, caplog):
    caplog.set_level(logging.INFO)  # the process logs at INFO
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    argv = ["run", "--config", str(world / "config.json"), "--out"]
    result = run_process("-m", "hwexposure.cli", *argv, str(tmp_path / "process"))
    assert result.returncode == 0, result.stderr
    assert cli.main([*argv, str(tmp_path / "main")]) == 0
    process, main = read_out_files(tmp_path / "process"), read_out_files(tmp_path / "main")
    assert strip_timings(process.pop("manifest.json")) == strip_timings(main.pop("manifest.json"))
    assert process == main
    assert len(main) == 11
    # every log line reaches stderr before the exit, the last one included
    logged = [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records]
    untimed = functools.partial(re.sub, r" in \d+\.\d+s$", "")
    assert list(map(untimed, result.stderr.splitlines())) == list(map(untimed, logged))
    assert logged[-1].startswith("WARNING hwexposure.pipeline: bias: skipped ")


@pytest.mark.parametrize("command, code, expected", [
    ("validate --config {world}/config.json", 0, "INFO hwexposure: config ok: years=[2011]"),
    ("validate --config {world}/missing.json", 2,
     "ERROR hwexposure: configuration error: config file not found: {world}/missing.json"),
    ("run --config {world}/config.json --out {world}/config.json", 2,
     "cannot create output directory: File exists"),
    ("run --config {world}/config.json --out {world}/out --stage exposure", 1,
     "ERROR hwexposure: stage exposure: "),
], ids=["validate", "config_error", "output_directory", "stage_failure"])
def test_process_exit_codes(tmp_path, command, code, expected):
    world = make_world(tmp_path, seed=7, n_tracts=9, n_groups=3)
    (world / "rac_2011.csv").write_text("h_geocode,CA01\n060370000001001,1\n")
    result = run_process("-m", "hwexposure.cli", *command.format(world=world).split())
    assert result.returncode == code
    assert expected.format(world=world) in result.stderr
    assert result.stdout == ""


_REPLACED_MAIN = """
import sys
from hwexposure import cli
def main(argv=None):
    print("written before exit", end="")  # held in the stdout buffer
    if sys.argv[1] == "raise":
        raise RuntimeError("raised inside main")
    return int(sys.argv[1])
cli.main = main
cli.entry()
"""


@pytest.mark.parametrize("how, code", [("0", 0), ("3", 3), ("raise", 1)])
def test_process_entry_flushes_and_keeps_tracebacks(how, code):
    # entry ends the process with main's code once the streams are flushed; an
    # exception escaping main takes the normal exit: a traceback and exit 1
    result = run_process("-c", _REPLACED_MAIN, how)
    assert result.returncode == code
    assert result.stdout == "written before exit"
    traceback = "Traceback (most recent call last):" in result.stderr
    assert traceback == (how == "raise")
    assert result.stderr.endswith("RuntimeError: raised inside main\n") == (how == "raise")
