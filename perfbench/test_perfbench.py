"""Tests of the benchmark's own generator and output checker.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import check
import gen
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Small variants of the cell and star workloads, so the program runs in a second.
SMALL_CELL = dataclasses.replace(gen.WORKLOADS["wide_disparity"], tracts=120, states=6,
                                 od_rows=300, years=2, bin_counts=(20, 10))
SMALL_STAR = dataclasses.replace(gen.WORKLOADS["star_zonal"], tracts=9, od_rows=200)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    spec = gen.WORKLOADS[name]
    gen.generate(spec, 7, tmp_path / "a")
    gen.generate(spec, 7, tmp_path / "b")
    gen.generate(spec, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_generated_categories_partition_totals(tmp_path):
    world = gen.generate(SMALL_CELL, 3, tmp_path)
    for table in world.rac + world.wac:
        start = 0
        for characteristic, codes in gen.RAC_WAC_SCHEMAS:
            block = table.counts[:, start:start + len(codes)].sum(axis=1)
            start += len(codes)
            if characteristic == "education":
                assert (block <= table.totals).all()
            else:
                assert (block == table.totals).all()
    for od in world.od:
        for k in range(len(gen.OD_SCHEMAS)):
            assert (od.counts[:, 3 * k:3 * k + 3].sum(axis=1) == od.totals).all()


def _run_program(world: gen.World, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "hwexposure.cli", "run", "--config",
                    str(world.config_path), "--out", str(out)],
                   env=env, check=True, capture_output=True)


@pytest.fixture(scope="module", params=[SMALL_CELL, SMALL_STAR], ids=["cell", "star"])
def finished_run(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param.tract_shape)
    world = gen.generate(request.param, 11, base / "inputs")
    _run_program(world, base / "out")
    return world, base / "out"


@pytest.fixture
def corrupted(finished_run, tmp_path):
    world, out = finished_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return world, copy


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_checker_accepts_the_program_output(finished_run):
    world, out = finished_run
    assert check.check_outputs(world, out) == []


def test_checker_rejects_a_shifted_surface_value(corrupted):
    world, out = corrupted
    path = out / f"surface_{world.years[0]}.csv"

    def shift(lines):
        geoid, year, value = lines[1].strip().split(",")
        return [lines[0], f"{geoid},{year},{float(value) + 1000.0!r}\n", *lines[2:]]
    _edit_csv(path, shift)
    assert any("surface" in p for p in check.check_outputs(world, out))


def test_checker_rejects_a_dropped_row(corrupted):
    world, out = corrupted
    _edit_csv(out / "bins.csv", lambda lines: lines[:-1])
    assert any(p.startswith("bins.csv") for p in check.check_outputs(world, out))


def test_checker_rejects_a_changed_all_group_weight(corrupted):
    world, out = corrupted

    def bump(lines):
        for i, line in enumerate(lines):
            cells = line.rstrip("\n").split(",")
            if cells[1:4] == ["all", "H", "all"]:
                cells[7] = repr(float(cells[7]) + 1.0)
                lines[i] = ",".join(cells) + "\n"
                break
        return lines
    _edit_csv(out / "exposure.csv", bump)
    assert any("weight" in p for p in check.check_outputs(world, out))


def test_checker_rejects_a_wrong_dropped_weight(corrupted):
    world, out = corrupted
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["dropped_weight_total"] += 1
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert check.check_outputs(world, out)


def test_checker_rejects_a_missing_file(corrupted):
    world, out = corrupted
    (out / "wilcoxon.csv").unlink()
    assert check.check_outputs(world, out) == ["missing outputs: ['wilcoxon.csv']"]


def test_rerun_comparison_rejects_a_changed_byte(finished_run, corrupted):
    _, out = finished_run
    _, copy = corrupted
    reference = check.csv_snapshot(out)
    assert check.compare_rerun(reference, copy) == []
    _edit_csv(copy / "gaps.csv", lambda lines: [lines[0].upper(), *lines[1:]])
    assert check.compare_rerun(reference, copy) == ["rerun: gaps.csv differs from the first run"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "od_heavy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_calibration_prints_its_expected_line():
    proc = subprocess.run([sys.executable, str(HERE / "calib.py")],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == calib.EXPECTED


def test_end_to_end_times_are_scaled_by_the_calibration_next_to_them():
    ref = run.CALIB_REFERENCE_S
    samples = {"run_per_calib": [3.0, 2.0, 4.0], "cpu_per_calib": [2.9, 1.9, 3.8],
               "peak_rss_mb": [50.0, 51.0, 52.0], "setup_per_calib": [0.5, 0.7, 0.6]}
    metrics = run.end_to_end(samples, tract_years=100)
    assert metrics["run_s"] == pytest.approx(3.0 * ref)
    assert metrics["cpu_s"] == pytest.approx(2.9 * ref)
    assert metrics["tract_years_per_s"] == pytest.approx(100 / (3.0 * ref))
    assert metrics["setup_s"] == pytest.approx(0.6 * ref)
    assert metrics["peak_rss_mb"] == 51.0
    assert run.end_to_end({}, tract_years=100) == {}
