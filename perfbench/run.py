"""Benchmark of the hwexposure batch engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs `hwexposure run` as a
child process from this checkout's `src/`, one run at a time (a closed loop
with a single client), for S seconds after one untimed reference run. Every
run's outputs are checked: the reference run against the generated inputs
(check.py), each later run for byte-identical CSVs.

The benchmark and its children are pinned to one CPU, so a run with threads > 1
shares that CPU and added parallelism does not show in run_s. On a shared
host each CPU slows down and speeds up on its own, by up to 2x over minutes
and unseen by the other CPU, so with
--trace 0 each program run is followed by a run of calib.py, a fixed piece of
Python and numpy work, on the same CPU, and then by `hwexposure validate`.
Each run's wall and CPU time (os.wait4) and the validate wall time are
divided by the calib.py time next to them; run_s, cpu_s and setup_s are the
medians of these ratios times CALIB_REFERENCE_S, so they read as seconds on
a host where calib.py takes CALIB_REFERENCE_S. peak_rss_mb is the median of
the runs' ru_maxrss and tract_years_per_s is tract-years over run_s.

--trace 1 alternates traced runs (traced_run.py) with untraced ones and
reports per-module metrics as medians of unscaled seconds; trace.overhead_s
is the median over pairs of a traced run's wall time minus the next untraced
run's. The table also lists each module's share of run_s, against the traced
run and against the untraced run of its pair; shares are parts of one whole,
so they are informational and not metrics. A table goes to stdout first; the
last line is one JSON object. The exit code is 1 when any check failed,
2 when the program's sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_RUNS = 5
CHILD_TIMEOUT_S = 120.0
DEADLINE_S = 140.0  # after start-up; no timed run starts that would likely end later
CALIB_REFERENCE_S = 0.6  # calib.py's median time on a 2-vCPU Xeon KVM guest, Python 3.11

END_TO_END = {  # name -> unit
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "tract_years_per_s": "1/s",
    "setup_s": "s",
}
STAGES = ("surface", "exposure", "disparity", "bias")
MODULES = ("zonal", "ingest", "exposure", "disparity", "biasstats", "grids", "geometry")
# Layer metrics: name -> (unit, span name, field); field is calls, s or self_s.
SPAN_METRICS = {
    "zonal.build_tract_surface.s": ("s", "zonal.build_tract_surface", "s"),
    "zonal.build_tract_surface.calls": ("count", "zonal.build_tract_surface", "calls"),
    "zonal.build_urban_mask.s": ("s", "zonal.build_urban_mask", "s"),
    "ingest.read_od_csv.s": ("s", "ingest.read_od_csv", "s"),
    "ingest.aggregate_od.s": ("s", "ingest.aggregate_od", "s"),
    "ingest.read_block_csv.s": ("s", "ingest.read_block_csv", "s"),
    "ingest.aggregate_to_tracts.s": ("s", "ingest.aggregate_to_tracts", "s"),
    "exposure.resolve_pairs.s": ("s", "exposure.resolve_pairs", "s"),
    "exposure.resolve_pairs.calls": ("count", "exposure.resolve_pairs", "calls"),
    "exposure.align_table.s": ("s", "exposure.align_table", "s"),
    "exposure.align_table.calls": ("count", "exposure.align_table", "calls"),
    "exposure.compute_group_exposures.self_s": ("s", "exposure.compute_group_exposures", "self_s"),
    "exposure.compute_hw_exposures.self_s": ("s", "exposure.compute_hw_exposures", "self_s"),
    "disparity.percentile_bin_curve.s": ("s", "disparity.percentile_bin_curve", "s"),
    "disparity.percentile_bin_curve.calls": ("count", "disparity.percentile_bin_curve", "calls"),
    "disparity.population_share_by_concentration_decile.s":
        ("s", "disparity.population_share_by_concentration_decile", "s"),
    "disparity.population_share_by_concentration_decile.calls":
        ("count", "disparity.population_share_by_concentration_decile", "calls"),
    "disparity.atkinson_pipeline.s": ("s", "disparity.atkinson_pipeline", "s"),
    "disparity.threshold_share.s": ("s", "disparity.threshold_share", "s"),
    "disparity.state_disparity.calls": ("count", "disparity.state_disparity", "calls"),
    "biasstats.wilcoxon_rank_sum_grouped.s": ("s", "biasstats.wilcoxon_rank_sum_grouped", "s"),
    "biasstats.wilcoxon_rank_sum_grouped.calls":
        ("count", "biasstats.wilcoxon_rank_sum_grouped", "calls"),
    "biasstats.error_moments.s": ("s", "biasstats.error_moments", "s"),
    "grids.read_asc.s": ("s", "grids.read_asc", "s"),
    "geometry.read_tracts_geojson.s": ("s", "geometry.read_tracts_geojson", "s"),
    **{f"pipeline.{st}.self_s": ("s", f"pipeline.{st}", "self_s") for st in STAGES},
}
COUNT_METRICS = ("zonal.bbox_cells", "zonal.mask_tests", "grids.cells", "geometry.vertices",
                 "ingest.od_rows", "ingest.od_pairs_out", "ingest.block_rows")
DERIVED_UNITS = {
    "zonal.s_per_kcell": "s/kcell",
    "ingest.od_rows_per_s": "1/s",
    "ingest.od_rss_b_per_row": "B/row",
    "pipeline.write_csv.s": "s",
    "pipeline.output_bytes": "B",
    **{f"pipeline.{st}.rss_hw_mb": "MB" for st in STAGES},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = {**{k: v[0] for k, v in SPAN_METRICS.items()},
             **dict.fromkeys(COUNT_METRICS, "count"), **DERIVED_UNITS}


class Runner:
    """Runs hwexposure children one at a time and tallies attempts and failures."""

    def __init__(self, work: Path, world: gen.World):
        self.work = work
        self.world = world
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] | None = None
        self.absent: list[str] = []  # traced names the program no longer has

    def child(self, argv: list[str]):
        """Run one child to completion; returns (exit code, wall s, rusage).

        Its standard output is left in child.out.
        """
        log = self.work / "child.log"
        with open(log, "wb") as err, open(self.work / "child.out", "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=self.work,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print(f"child {argv[:2]} exited {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
        return proc.returncode, wall, usage

    def fail(self, problems: list[str]) -> bool:
        for p in problems[:10]:
            print(f"check failed: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems

    def run(self, traced: bool) -> dict | None:
        """One `hwexposure run`; returns its measurements, or None if it failed."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cli = ["run", "--config", str(self.world.config_path), "--out", str(out)]
        spans = self.work / "spans.json"
        argv = [str(HERE / "traced_run.py"), str(spans), "--", *cli] if traced \
            else ["-m", "hwexposure.cli", *cli]
        self.attempted += 1
        rc, wall, usage = self.child(argv)
        if not self.fail([f"run exited {rc}"] if rc else []):
            return None
        if self.reference is None:
            if not self.fail(check.check_outputs(self.world, out)):
                return None
            self.reference = check.csv_snapshot(out)
        elif not self.fail(check.compare_rerun(self.reference, out)):
            return None
        result = {"run_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "output_bytes": sum(p.stat().st_size for p in out.iterdir())}
        if traced:
            result["trace"] = json.loads(spans.read_text(encoding="utf-8"))
            self.absent = result["trace"]["absent"]
        return result

    def setup(self) -> float | None:
        """Wall time of `hwexposure validate`: start, import, config load and checks."""
        self.attempted += 1
        rc, wall, _ = self.child(["-m", "hwexposure.cli", "validate",
                                  "--config", str(self.world.config_path)])
        return wall if self.fail([f"validate exited {rc}"] if rc else []) else None

    def calibrate(self) -> float:
        """Wall time of calib.py, which does not run the program."""
        rc, wall, _ = self.child([str(HERE / "calib.py")])
        printed = (self.work / "child.out").read_text(encoding="utf-8").strip()
        if rc or printed != calib.EXPECTED:
            raise RuntimeError(f"calib.py exited {rc} and printed {printed!r}")
        return wall


def span_stats(trace: dict) -> dict[str, dict[str, float]]:
    """calls, s and self_s per span name; self time excludes direct children."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_s[i]
    return stats


def layer_metrics(run: dict, counts: dict[str, int]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-module metrics of one traced run, and the seconds behind each share."""
    trace = run["trace"]
    stats = span_stats(trace)
    spans = trace["spans"]

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    m = {key: get(name, field) for key, (_, name, field) in SPAN_METRICS.items()}
    m.update({key: counts[key] for key in COUNT_METRICS})
    run_s = run["run_s"]
    od_s = m["ingest.read_od_csv.s"] + m["ingest.aggregate_od.s"]
    od_rise_kb = sum(s[5] - s[4] for s in spans if s[0] in ("ingest.read_od_csv", "ingest.aggregate_od"))
    stage_rss = {s[0]: s[5] for s in spans if s[0].startswith("pipeline.") and s[0][9:] in STAGES}
    m.update({
        "zonal.s_per_kcell": m["zonal.build_tract_surface.s"] / (counts["zonal.bbox_cells"] / 1000.0),
        "ingest.od_rows_per_s": counts["ingest.od_rows"] / od_s if od_s else 0.0,
        "ingest.od_rss_b_per_row": od_rise_kb * 1024.0 / counts["ingest.od_rows"],
        "pipeline.write_csv.s": get("pipeline.write_csv", "s") + get("zonal.write_surface_csv", "s"),
        "pipeline.output_bytes": run["output_bytes"],
        **{f"pipeline.{st}.rss_hw_mb": stage_rss.get(f"pipeline.{st}", 0) / 1024.0 for st in STAGES},
        "trace.run_s": run_s,
    })
    # A module's time is its outermost spans: nested calls within it count once.
    module_s = dict.fromkeys(MODULES, 0.0)
    for name, start, end, parent, *_ in spans:
        module = name.split(".")[0]
        if module in module_s and (parent < 0 or spans[parent][0].split(".")[0] != module):
            module_s[module] += end - start
    module_s["pipeline"] = get("pipeline.write_csv", "s") + sum(
        m[f"pipeline.{st}.self_s"] for st in STAGES)
    module_s["outside_stages"] = run_s - sum(get(f"pipeline.{st}", "s") for st in STAGES)
    share_s = {f"share.{k}": v for k, v in module_s.items()}
    share_s["share.coverage_kernel"] = m["zonal.build_tract_surface.s"]
    share_s["share.od_path"] = (module_s["ingest"] + m["exposure.resolve_pairs.s"]
                                + module_s["biasstats"])
    share_s["share.disparity_path"] = (module_s["disparity"] + m["pipeline.disparity.self_s"]
                                       + m["zonal.build_urban_mask.s"])
    return m, share_s


def measure(runner: Runner, seconds: float, trace: bool, counts: dict[str, int],
            deadline: float) -> dict[str, list[float]]:
    """Timed closed loop; returns every sample of each reported metric."""
    samples: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        samples.setdefault(key, []).append(value)

    start = time.perf_counter()
    n = 0
    last_s = 0.0
    traced_run = None  # (run_s, share seconds) of a traced run awaiting its untraced pair
    while ((n < MIN_TIMED_RUNS or time.perf_counter() - start < seconds)
           and time.perf_counter() + last_s < deadline):
        traced = trace and n % 2 == 0
        began = time.perf_counter()
        result = runner.run(traced=traced)
        n += 1
        if result is None:
            traced_run = None
        elif traced:
            layers, share_s = layer_metrics(result, counts)
            for key, value in layers.items():
                add(key, value)
            traced_run = (result["run_s"], share_s)
        elif trace:
            if traced_run is not None:
                traced_s, share_s = traced_run
                add("trace.overhead_s", traced_s - result["run_s"])
                for key, value in share_s.items():
                    add(f"{key}.of_traced", value / traced_s)
                    add(f"{key}.of_untraced", value / result["run_s"])
            traced_run = None
        else:
            # The calibration and set-up runs come right after, on the same CPU.
            calib_s = runner.calibrate()
            add("calib_s", calib_s)
            add("peak_rss_mb", result["peak_rss_mb"])
            add("run_per_calib", result["run_s"] / calib_s)
            add("cpu_per_calib", result["cpu_s"] / calib_s)
            wall = runner.setup()
            if wall is not None:
                add("setup_per_calib", wall / calib_s)
        last_s = time.perf_counter() - began
    return samples


def end_to_end(samples: dict[str, list[float]], tract_years: int) -> dict[str, float]:
    """The end-to-end metrics, in seconds at the reference speed of calib.py."""
    if not samples.get("run_per_calib") or not samples.get("setup_per_calib"):
        return {}
    run_s = statistics.median(samples["run_per_calib"]) * CALIB_REFERENCE_S
    return {
        "run_s": run_s,
        "cpu_s": statistics.median(samples["cpu_per_calib"]) * CALIB_REFERENCE_S,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "tract_years_per_s": tract_years / run_s,
        "setup_s": statistics.median(samples["setup_per_calib"]) * CALIB_REFERENCE_S,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    if not (ROOT / "src" / "hwexposure" / "cli.py").is_file():
        print(f"hwexposure sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        world = gen.generate(gen.WORKLOADS[args.workload], args.seed, work / "inputs")
        counts = gen.work_counts(world)
        runner = Runner(work, world)
        reference = runner.run(traced=False)  # untimed: fills caches, pins the outputs
        samples = measure(runner, args.seconds, bool(args.trace), counts, deadline) \
            if reference else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {key: statistics.median(values) for key, values in samples.items()} if args.trace \
        else end_to_end(samples, counts["tract_years"])
    names = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v}" for k, v in counts.items()))
    if runner.absent:
        print("absent (no longer in the program): " + ", ".join(runner.absent))
    for name, unit in names.items():
        n = len(samples.get(name, samples.get("trace.run_s", samples.get("run_per_calib", []))))
        print(f"  {name:58s} {metrics.get(name, float('nan')):>16.6g} {unit:8s} from {n} runs")
    if samples.get("calib_s"):
        print(f"  {'calib.py wall time':58s} {statistics.median(samples['calib_s']):>16.6g} s"
              f"        median of {len(samples['calib_s'])}")
    for key in sorted(k[:-len(".of_traced")] for k in metrics if k.endswith(".of_traced")):
        print(f"  {key:58s} {metrics[key + '.of_traced']:>16.6g} of traced run_s,"
              f" {metrics[key + '.of_untraced']:.6g} of untraced run_s,"
              f" median of {len(samples[key + '.of_traced'])} pairs")
    fail_ratio = runner.failed / max(runner.attempted, 1)
    print(f"  {'fail_ratio':58s} {fail_ratio:>16.6g} ({runner.failed} of {runner.attempted} runs)")
    correct = runner.failed == 0 and set(names) <= set(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
