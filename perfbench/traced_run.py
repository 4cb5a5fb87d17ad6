"""Run the hwexposure CLI in this process with a span around each call into
the modules' public functions, then write the spans to a JSON file.

    python3 perfbench/traced_run.py SPANS_JSON -- run --config CFG --out DIR

Spans are wrapped from outside: each function is replaced on the module the
pipeline reaches it through (`zonal.build_tract_surface`,
`pipeline.read_asc`, ...), and each stage function in
`pipeline._STAGE_FUNCS` becomes a parent span. A function that no longer
exists is listed under "absent" instead of failing the run. Spans stay in
memory and are written once, after the CLI returns.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time

# (span prefix, module the pipeline calls through, function names)
TRACED = (
    ("zonal", "zonal", ("build_tract_surface", "build_urban_mask", "write_surface_csv")),
    ("ingest", "ingest", ("read_block_csv", "aggregate_to_tracts", "read_od_csv", "aggregate_od")),
    ("exposure", "exposure", ("align_table", "resolve_pairs", "compute_group_exposures",
                              "compute_hw_exposures")),
    ("disparity", "disparity", ("extreme_group_gap", "percentile_bin_curve", "decile_contrast",
                                "population_share_by_concentration_decile", "atkinson_pipeline",
                                "state_disparity", "threshold_share", "cov_of_shares")),
    ("biasstats", "biasstats", ("error_moments", "bias_factor", "wilcoxon_rank_sum_grouped")),
    # imported by name into the pipeline module, so wrapped there
    ("grids", "pipeline", ("read_asc",)),
    ("geometry", "pipeline", ("read_tracts_geojson", "read_mask_geojson")),
    ("pipeline", "pipeline", ("_write_csv",)),
)
STAGES = ("surface", "exposure", "disparity", "bias")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans: [name, start, end, parent index, maxrss at start, at end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_kb(), 0]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = _maxrss_kb()
                stack.pop()
        return traced

    def install(self) -> None:
        for prefix, module_name, names in TRACED:
            try:
                module = importlib.import_module(f"hwexposure.{module_name}")
            except ImportError:
                module = None
            for attr in names:
                name = f"{prefix}.{attr.lstrip('_')}"
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(name, fn))
                else:
                    self.absent.append(name)
        stage_funcs = getattr(importlib.import_module("hwexposure.pipeline"), "_STAGE_FUNCS", {})
        for stage in STAGES:
            if stage in stage_funcs:
                stage_funcs[stage] = self.wrap(f"pipeline.{stage}", stage_funcs[stage])
            else:
                self.absent.append(f"pipeline.{stage}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from hwexposure import cli

    rc = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "absent": tracer.absent, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
