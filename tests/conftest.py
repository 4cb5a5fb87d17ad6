"""A recorded run shared by the tests of the argument guarantees: each engine
function that relies on its caller or an input boundary for its arguments
is wrapped through one run, so a test can show that no run passes it what it
no longer checks. Its reports stand in for the writer's checks likewise."""
from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import sys
from unittest import mock

import pytest

# set before the package is first imported, here and in the interpreters the
# tests start, so a test run leaves no bytecode in src/ for a later run to load
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from hwexposure import biasstats, disparity, exposure, ingest, pipeline, synth, zonal
from hwexposure.config import load_config

# (owner, function name) of each wrapped function
RECORDED = (
    (exposure, "slice_stats"),
    (biasstats, "error_moments"),
    (biasstats, "wilcoxon_rank_sum_grouped"),
    (disparity, "percentile_bin_curve"),
    (disparity, "decile_contrast"),
    (disparity, "_atkinson_curve"),
    (ingest, "read_block_csv"),
    (zonal, "_zonal_means"),
)


@pytest.fixture(scope="session")
def recorded_world(tmp_path_factory):
    """The output directory, the manifest and, per wrapped function name, the
    arguments of every call, of one run of a stratified 25-tract synth world
    over two years with bin counts [100, 10, 3]. 2012 has the 2011 tables on
    a grid shifted half a cell (a second lattice), and the OD age group SA02
    has no workers (they are moved to SA01); the synth RAC and WAC tables
    already hold groups without workers."""
    world = tmp_path_factory.mktemp("recorded")
    synth.synth(str(world), seed=7, n_tracts=25, n_groups=3)
    with open(world / "od_2011.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["SA01"], row["SA02"] = str(int(row["SA01"]) + int(row["SA02"])), "0"
    with open(world / "od_2011.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for name in ("rac", "wac", "od"):
        shutil.copy(world / f"{name}_2011.csv", world / f"{name}_2012.csv")
    (world / "grid_2012.asc").write_text(
        (world / "grid_2011.asc").read_text().replace("xllcorner 0.0", "xllcorner 0.5"))
    doc = json.loads((world / "config.json").read_text())
    doc.update(years=[2011, 2012], strata=True, bin_counts=[100, 10, 3])
    (world / "config.json").write_text(json.dumps(doc))
    with contextlib.ExitStack() as stack:
        mocks = {name: stack.enter_context(mock.patch.object(
            owner, name, autospec=True, side_effect=getattr(owner, name)))
            for owner, name in RECORDED}
        manifest = pipeline.run(load_config(str(world / "config.json"),
                                            out_dir=str(world / "out")))
    calls = {name: [c.args for c in m.call_args_list] for name, m in mocks.items()}
    assert all(calls.values()), [name for name, args in calls.items() if not args]
    return world / "out", manifest, calls


@pytest.fixture(scope="session")
def recorded_run(recorded_world):
    """The manifest and the recorded calls of the recorded run."""
    return recorded_world[1:]


@pytest.fixture(scope="session")
def recorded_reports(recorded_world) -> dict[str, str]:
    """The text of each report CSV of the recorded run, by file name, with
    its line ends as written."""
    return {path.name: path.read_bytes().decode("utf-8")
            for path in sorted(recorded_world[0].glob("*.csv"))}
