"""Batch orchestration: year-major execution and report emission.

The outer loop is the years. Each year runs the requested stages in a fixed
order (surface -> exposure -> disparity -> bias) on one ``YearData``, which is
dropped after the year's last stage, so memory is bounded by one year's
working set; a requested stage always gets its prerequisites computed in
memory, but only the requested stages write files. What outlives a year is
small: the tracts (their ascending int64 ids are the run's one tract index)
and their stratum codes, the coverage of the last grid lattice (reused by
every following year on that lattice), the open reports, the skip counts and
the manifest. Every report the run writes is opened, with its header, before
the first stage, and each stage appends its rows as it makes them, in
deterministic order with full-precision floats, so identical inputs produce
byte-identical reports.
The ``threads`` setting is checked but not kept: nothing runs in parallel.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import time
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from . import biasstats, disparity, exposure, ingest, zonal
from .config import STAGES, RunConfig
from .errors import ConfigError, DegenerateSliceError, EngineError, FormatError
from .geometry import PolygonSet, geoid_text, read_mask_geojson, read_tracts_geojson
from .grids import read_asc, read_xyz_csv

logger = logging.getLogger(__name__)


class YearData:
    """Everything computed for one year, passed between its stages.

    Each worker table is joined to the surface once: ``homes``, ``works`` and
    ``pairs`` are the RAC, WAC and OD tables, as the stages read them;
    ``exposures`` holds the frames of the RAC and WAC tables.
    """

    __slots__ = ("year", "surface", "homes", "works", "pairs", "exposures")

    def __init__(self, year: int) -> None:
        self.year = year
        self.surface: zonal.TractSurface | None = None
        self.homes: exposure.AlignedTable | None = None
        self.works: exposure.AlignedTable | None = None
        self.pairs: exposure.AlignedTable | None = None
        self.exposures: list[exposure.GroupExposures] = []


class RunState:
    """What outlives a year. ``reports`` holds each written report as [open
    file, rows so far] by file name (none until ``run`` opens them);
    ``skips`` the degenerate-slice skips per stage and kind."""

    __slots__ = ("config", "tracts", "classification", "coverage", "reports", "skips",
                 "manifest_stages", "dropped_weight", "timings")

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.tracts: PolygonSet | None = None
        self.classification: np.ndarray | None = None  # int8 zonal.STRATA code per tract
        self.coverage: zonal.TractCoverage | None = None
        self.reports: dict[str, list] = {}
        self.skips: dict[str, dict[str, int]] = {}
        self.manifest_stages: dict[str, dict] = {}
        self.dropped_weight = 0
        self.timings: dict[str, float] = {}

    def write(self, name: str, *blocks: Sequence) -> None:
        """Append these blocks to report ``name`` and count their rows; a
        report of a stage the run does not write is not open, and skipped."""
        report = self.reports.get(name)
        if report is not None:
            _write_csv(report[0], blocks)
            report[1] += sum(map(_n_rows, blocks))


def _n_rows(block: Sequence) -> int:
    """A block's row count: the length of its first column that is not a scalar."""
    return next(len(column) for column in block if not isinstance(column, (str, int)))


def _cells(column, n_rows: int) -> Iterable[str]:
    """One column of a block as text cells. A float array gives repr texts and
    an int array str texts; a str or int repeats on every row; any other
    sequence holds text cells: constants, state codes and geoids, never quoted."""
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    if isinstance(column, (str, int)):
        return itertools.repeat(str(column), n_rows)
    return column


def _csv_lines(block: Sequence) -> str:
    """The rows of one block, one column per header field, as CSV lines."""
    n_rows = _n_rows(block)
    columns = [_cells(column, n_rows) for column in block]
    lines = "\n".join(map(",".join, zip(*columns)))
    return lines + "\n" if lines else ""


def _write_csv(fh: IO[str], blocks: Iterable[Sequence]) -> None:
    """Append each block's rows to the open report ``fh``, one write per block."""
    for block in blocks:
        fh.write(_csv_lines(block))


# Every report: file name -> (stage, header, manifest row count of the stage).
_REPORTS = {
    "surface_{year}.csv": ("surface", ("geoid", "year", "pm25"), None),
    "urban.csv": ("surface", ("geoid", "stratum"), None),
    "exposure.csv": ("exposure", ("year", "group", "locus", "stratum", "mean", "p10", "p90",
                                  "weight"), None),
    "error.csv": ("exposure", ("year", "group", "stratum", "error", "percent_error"), None),
    "gaps.csv": ("disparity", ("year", "locus", "stratum", "characteristic", "most_exposed",
                               "least_exposed", "absolute_diff", "percent_diff", "ratio"),
                 "gap_rows"),
    "bins.csv": ("disparity", ("year", "kind", "locus", "stratum", "characteristic", "group",
                               "n_bins", "bin", "n_tracts", "value", "top_minus_bottom"),
                 "bin_rows"),
    "atkinson.csv": ("disparity", ("year", "characteristic", "locus", "stratum", "epsilon",
                                   "value"), "atkinson_rows"),
    "state_disparity.csv": ("disparity", ("year", "state", "locus", "characteristic", "group",
                                          "value"), "state_rows"),
    "threshold.csv": ("disparity", ("year", "locus", "threshold", "characteristic", "group",
                                    "q_percent", "group_cov"), "threshold_rows"),
    "bias.csv": ("bias", ("year", "group", "stratum", "sigma2", "phi", "omega2", "bias"),
                 "bias_rows"),
    "wilcoxon.csv": ("bias", ("year", "group", "stratum", "n_surrogate", "n_reference", "u",
                              "z", "p_value"), "wilcoxon_rows"),
}


def _open_reports(config: RunConfig, stack: contextlib.ExitStack) -> dict[str, list]:
    """Before the first stage: of the manifest, each year's surface, then each
    configured stage's report in table order, the first that is a directory is
    a config error; the manifest is removed, then each report opened and its
    header written, as [file, rows] by name, or the failure is a config error."""
    optional = {"urban.csv": config.urban_mask, "error.csv": config.od}
    headers = {name.format(year=y): header for name, (stage, header, _) in _REPORTS.items()
               if stage in config.stages and optional.get(name, True) for y in config.years}
    for name in ["manifest.json", *headers]:
        if (config.out_dir / name).is_dir():
            raise ConfigError(f"{config.out_dir / name}: cannot write output file: Is a directory")
    (config.out_dir / "manifest.json").unlink(missing_ok=True)
    reports = {}
    for name, header in headers.items():
        try:
            fh = stack.enter_context(open(config.out_dir / name, "w", encoding="utf-8", newline=""))
        except OSError as exc:  # a dangling link, a missing or read-only directory
            raise ConfigError(f"{config.out_dir / name}: cannot write output file: "
                              f"{exc.strerror or exc}") from exc
        fh.write(",".join(header) + "\n")
        reports[name] = [fh, 0]
    return reports


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------------

def _stage_surface(state: RunState, data: YearData) -> None:
    config = state.config
    if state.tracts is None:  # the first year reads the tracts and the mask
        state.tracts = tracts = read_tracts_geojson(str(config.path(config.tracts)))
        state.manifest_stages["surface"] = manifest = {"tracts": len(tracts.ids), "years": {}}
        if config.urban_mask:
            mask = read_mask_geojson(str(config.path(config.urban_mask)))
            fraction = zonal.build_urban_mask(mask, tracts)
            codes = state.classification = (fraction >= zonal.URBAN_SHARE).astype(np.int8)
            manifest["urban"] = zonal.urban_counts(fraction)
            state.write("urban.csv", [geoid_text(tracts.ids),
                                      [zonal.STRATA[c] for c in codes.tolist()]])
    path = config.path(config.grid, data.year)  # .asc or .csv (XYZ), by the grid rule
    grid = (read_asc if path.suffix == ".asc" else read_xyz_csv)(str(path))
    if state.coverage is None or state.coverage.lattice != grid.lattice:
        try:
            state.coverage = zonal.tract_coverage(state.tracts, grid)
        except FormatError as exc:  # a lattice that cannot place the tracts
            raise FormatError(f"{path}: {exc}") from exc
    data.surface = surface = zonal.build_tract_surface(
        grid, state.coverage, data.year, state.classification if config.strata else None)
    excluded, valued = surface.excluded, ~np.isnan(surface.values)
    state.manifest_stages["surface"]["years"][str(data.year)] = {
        "tracts_with_coverage": len(surface.ids) - len(excluded),
        "excluded": geoid_text(excluded),
        "completeness": surface.completeness,
    }
    state.write(f"surface_{data.year}.csv",
                [geoid_text(surface.ids[valued]), data.year, surface.values[valued]])


def _join(config: RunConfig, surface: zonal.TractSurface,
          role: str) -> tuple[exposure.AlignedTable, int]:
    """Read one year's RAC, WAC or OD table and join it to the surface; also
    returns the table's tract (OD: tract-pair) count."""
    template = {ingest.RESIDENCE: config.rac, ingest.WORKPLACE: config.wac,
                ingest.ORIGIN_DESTINATION: config.od}[role]
    _, table = ingest.read_tracts(str(config.path(template, surface.year)), role)
    if role == ingest.ORIGIN_DESTINATION:
        return exposure.resolve_pairs(surface, table), len(table.totals)
    return exposure.align_table(surface, table, role), len(table.totals)


def _count_drops(state: RunState, year: int, drops: dict[str, int]) -> None:
    total_dropped = sum(drops.values())
    state.dropped_weight += total_dropped
    if total_dropped:
        logger.warning("year %d: dropped %d workers on unresolvable tracts/pairs: %s",
                       year, total_dropped, drops)


def _exposure_block(frame: exposure.GroupExposures) -> list:
    """exposure.csv block of one frame."""
    return [frame.year, frame.group_keys, frame.locus, frame.stratum,
            frame.mean, frame.p10, frame.p90, frame.weight]


def _stage_exposure(state: RunState, data: YearData) -> None:
    config = state.config
    year = data.year
    skips = state.skips.setdefault("exposure", {})
    data.homes, rac_tracts = _join(config, data.surface, ingest.RESIDENCE)
    data.works, wac_tracts = _join(config, data.surface, ingest.WORKPLACE)
    frames = data.exposures = [
        exposure.compute_group_exposures(aligned) for aligned in (data.homes, data.works)]
    for aligned, frame in zip((data.homes, data.works), frames):
        _skip_left_out(skips, aligned, frame)
    drops = {"rac": data.homes.dropped_weight, "wac": data.works.dropped_weight}
    od_pairs = 0
    if config.od:  # error.csv exists only with an OD table
        data.pairs, od_pairs = _join(config, data.surface, ingest.ORIGIN_DESTINATION)
        od = exposure.compute_hw_exposures(data.pairs, config.work_fraction)
        _skip_left_out(skips, data.pairs, od)
        frames = [*frames, od]
        drops["od"] = data.pairs.dropped_weight
        state.write("error.csv", [year, od.group_keys, od.stratum, od.error, od.percent_error])
    state.write("exposure.csv", *map(_exposure_block, frames))
    _count_drops(state, year, drops)
    state.manifest_stages.setdefault("exposure", {"years": {}})["years"][str(year)] = {
        "rac_tracts": rac_tracts,
        "wac_tracts": wac_tracts,
        "od_pairs": od_pairs,
        "dropped_weight": drops,
        "records": sum(frame.mean.size for frame in frames),
    }


def _skip_left_out(skips: dict[str, int], table: exposure.AlignedTable,
                   frame: exposure.GroupExposures) -> None:
    """One zero-weight-group skip per (stratum, group) of ``table`` that its
    ``frame`` left out for having no workers."""
    asked = len(exposure.reported_strata(table.surface)) * (len(table.codes) + 1)
    left_out = asked - len(frame.weight)
    if left_out:
        _skip(skips, "zero-weight-group", "%s %s: %d (stratum, group) slices" % (
            table.year, frame.locus, left_out), left_out)


def _transpose(rows: Sequence[tuple], n_text: int, width: int) -> list:
    """Row tuples of ``width`` fields as columns: the first ``n_text`` as text
    lists, the rest as float arrays."""
    columns = list(zip(*rows)) or [()] * width
    return [*map(list, columns[:n_text]),
            *(np.array(c, dtype=np.float64) for c in columns[n_text:])]


def _gap_and_atkinson_blocks(year: int, frames: Sequence[exposure.GroupExposures],
                             asked: Sequence[tuple[str, str, str]], epsilons: Sequence[float],
                             skips: dict[str, int]) -> list[list]:
    """gaps.csv and atkinson.csv blocks of one year's RAC and WAC frames, over
    the ``asked`` (locus, stratum, characteristic) slices.

    A frame's rows are ordered by stratum, then schema, so each (locus,
    stratum, characteristic) is one run of rows; the total population's row
    holds the national mean of its (locus, stratum). A slice with no rows has
    no groups, so its gap and Atkinson curve are skipped. Gaps are ordered by
    (locus, stratum, characteristic), Atkinson rows by (characteristic,
    locus, stratum) with one row per epsilon.
    """
    slices, national = {}, {}
    for frame in frames:
        start = 0
        for (stratum, characteristic), run in itertools.groupby(
                zip(frame.stratum, frame.characteristic)):
            key = (frame.locus, stratum, characteristic)
            rows = slice(start, start + len(list(run)))
            if characteristic == exposure.ALL_GROUP[0]:
                national[key[:2]] = float(frame.mean[start])
            else:
                slices[key] = (frame.characteristic[rows], frame.label[rows],
                               frame.weight[rows], frame.mean[rows])
            start = rows.stop
    no_rows = ([], [], np.empty(0), np.empty(0))
    gaps, curves = [], []
    for key in sorted(asked):
        _, labels, _, means = slices.get(key, no_rows)
        try:
            gaps.append((*key, *disparity.extreme_group_gap(labels, means,
                                                             national.get(key[:2], 0.0))))
        except DegenerateSliceError as exc:
            _skip(skips, "gap", "%s %s/%s/%s: %s" % (year, *key, exc))
    for locus, stratum, characteristic in sorted(asked, key=lambda k: (k[2], k[0], k[1])):
        try:
            curve = disparity.atkinson_pipeline(
                *slices.get((locus, stratum, characteristic), no_rows), epsilons)
        except DegenerateSliceError as exc:
            _skip(skips, "atkinson", "%s %s/%s/%s: %s" % (year, locus, stratum, characteristic,
                                                          exc))
            continue
        curves += [(characteristic, locus, stratum, e, v) for e, v in zip(epsilons, curve)]
    return [[year, *_transpose(gaps, 5, 8)], [year, *_transpose(curves, 3, 5)]]


def _stage_disparity(state: RunState, data: YearData) -> None:
    config = state.config
    year = data.year
    skips = state.skips.setdefault("disparity", {})
    tables = (data.homes, data.works)
    # one group per row of aligned.counts, both in schema order
    table_groups = [[ingest.GROUPS[code] for code in aligned.codes] for aligned in tables]
    asked = [(aligned.locus, stratum, characteristic)
             for aligned, groups in zip(tables, table_groups)
             for stratum in exposure.reported_strata(data.surface)
             for characteristic in dict.fromkeys(c for c, _ in groups)]
    gaps, curves = _gap_and_atkinson_blocks(year, data.exposures, asked, config.epsilons, skips)
    state.write("gaps.csv", gaps)
    state.write("atkinson.csv", curves)

    for aligned, groups in zip(tables, table_groups):
        counts = aligned.counts.astype(np.float64)
        state.write("bins.csv", *_composition_blocks(config, aligned, groups, counts, skips))
        state.write("threshold.csv", *_threshold_rows(config, aligned, groups, counts, skips))
        try:
            state.write("state_disparity.csv", _state_rows(aligned, groups, counts))
        except DegenerateSliceError as exc:
            _skip(skips, "state-disparity", "%s %s: %s" % (year, aligned.locus, exc))
        del counts


def _skip(skips: dict[str, int], kind: str, detail: str, count: int = 1) -> None:
    skips[kind] = skips.get(kind, 0) + count
    logger.debug("%s skipped: %s", kind, detail)


def _warn_skips(stage: str, skips: dict[str, int]) -> None:
    for kind, count in sorted(skips.items()):
        logger.warning("%s: skipped %d %s computation(s) on degenerate slices "
                       "(details at debug level)", stage, count, kind)


def _composition_blocks(config: RunConfig, aligned: exposure.AlignedTable,
                        groups: Sequence[tuple[str, str]], counts: np.ndarray,
                        skips: dict[str, int]) -> list[list]:
    """bins.csv blocks of one table, one per stratum. The tracts with a
    positive total are ranked once by each group's fraction and once by
    concentration; a stratum's ranks are these compressed by its mask, since
    a stable order restricted to a subset is the subset's stable order."""
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    positive = np.flatnonzero(aligned.totals > 0)
    group_counts = counts.take(positive, axis=1)
    fractions = group_counts / aligned.totals[positive]
    conc = aligned.values(locus).take(positive)
    by_fraction = exposure.stable_argsort(fractions)
    by_conc = exposure.stable_argsort(conc)
    for stratum, mask in exposure.stratum_masks(aligned).items():
        inside = mask[positive]
        order = by_fraction[inside.take(by_fraction)].reshape(len(by_fraction), inside.sum())
        ranking = disparity.rank_by_composition(group_counts, conc, order)
        curves = []
        for n_bins in config.bin_counts:
            try:
                curves.append((n_bins, disparity.percentile_bin_curve(ranking, n_bins)))
            except DegenerateSliceError as exc:
                _skip(skips, "composition-curve", "%s %s/%s: %s" % (year, locus, stratum, exc),
                      len(groups))
        try:
            shares = disparity.population_share_by_concentration_decile(
                fractions, by_conc.compress(inside.take(by_conc)))
        except DegenerateSliceError as exc:
            _skip(skips, "decile-share", "%s %s/%s: %s" % (year, locus, stratum, exc),
                  len(groups))
            shares = None
        blocks.append(_bin_block(year, locus, stratum, groups, curves, shares))
    return blocks


def _bin_block(year: int, locus: str, stratum: str, groups: Sequence[tuple[str, str]],
               curves: Sequence[tuple[int, disparity.PercentileBinCurves]],
               shares: disparity.DecileShares | None) -> list:
    """bins.csv block of one (locus, stratum). Each group has the same K rows: a
    curve per kept bin count (the 10-bin one with its decile contrast), then the
    decile shares; so the values are a (groups x K) matrix, the rest templates."""
    parts = [(curve.exposure, "composition", curve.n_tracts,
              disparity.decile_contrast(curve) if count == 10 else None)
             for count, curve in curves]
    if shares is not None:
        parts.append((shares.means, "concentration", ("",) * 10, shares.difference))
    n, widths = len(groups), [len(sizes) for _, _, sizes, _ in parts]
    kind = [name for (_, name, _, _), width in zip(parts, widths) for _ in range(width)]
    n_bins = [str(width) for width in widths for _ in range(width)]
    bin_no = [str(b) for width in widths for b in range(1, width + 1)]
    n_tracts = [str(size) for _, _, sizes, _ in parts for size in sizes]
    contrast = [[""] * n if d is None else list(map(repr, d.tolist())) for *_, d in parts]
    names = np.array(groups, dtype=object).reshape(n, 2).repeat(len(kind), axis=0)
    values = np.hstack([np.empty((n, 0)), *(matrix for matrix, *_ in parts)])
    contrast = np.array(contrast, dtype=object).reshape(len(parts), n).repeat(widths, axis=0)
    return [year, kind * n, locus, stratum, names[:, 0].tolist(), names[:, 1].tolist(),
            n_bins * n, bin_no * n, n_tracts * n, values.ravel(), contrast.T.ravel().tolist()]


def _threshold_rows(config: RunConfig, aligned: exposure.AlignedTable,
                    groups: Sequence[tuple[str, str]], counts: np.ndarray,
                    skips: dict[str, int]) -> list[list]:
    """threshold.csv blocks of one table, one per threshold: the whole
    population, then each characteristic's groups with positive weight and
    the CoV of their shares. ``counts`` is the float64 (groups x tracts)
    matrix; every threshold's shares come from one compress of it. A table
    without workers gets no block, and a skip per threshold."""
    year, locus = aligned.year, aligned.locus
    kept = np.flatnonzero(counts.sum(axis=1) > 0)
    weights = np.vstack([aligned.totals, counts.take(kept, axis=0)])
    characteristics = [groups[g][0] for g in kept]
    runs = [(c, len(list(run))) for c, run in itertools.groupby(characteristics)]
    blocks: list[list] = []
    conc = aligned.values(locus)
    for threshold in config.thresholds:
        try:
            qs = disparity.threshold_share(conc, weights, threshold)
        except DegenerateSliceError as exc:
            _skip(skips, "threshold-share", "%s %s T=%s: %s" % (year, locus, threshold, exc))
            continue
        covs, start = [""], 1
        for characteristic, n in runs:
            try:
                cov_text = repr(disparity.cov_of_shares(qs[start:start + n]))
            except DegenerateSliceError as exc:
                _skip(skips, "threshold-cov",
                      "%s %s T=%s %s: %s" % (year, locus, threshold, characteristic, exc))
                cov_text = ""
            covs += [cov_text] * n
            start += n
        blocks.append([year, locus, repr(threshold), ["all", *characteristics],
                       ["all", *(groups[g][1] for g in kept)], qs, covs])
    return blocks


def _state_rows(aligned: exposure.AlignedTable, groups: Sequence[tuple[str, str]],
                counts: np.ndarray) -> list:
    """state_disparity.csv block of one table. The state is a geoid's first two
    digits (id // 10**9), so each state is a contiguous run of the sorted tracts.
    Raises DegenerateSliceError for a table whose tracts have no workers."""
    states, present, values = [], [np.empty(0, np.intp)], [np.empty(0)]
    if len(aligned.geoids):
        totals = aligned.totals.astype(float)
        if not totals.sum():
            raise DegenerateSliceError("total weight is zero")
        conc = aligned.values(aligned.locus)
        national_mean = float((conc * totals).sum()) / float(totals.sum())
        codes = aligned.geoids // 10**9
        bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
        weighted = counts * conc
        for start, end in zip(bounds, bounds[1:]):
            st_totals = totals[start:end]
            if st_totals.sum() == 0:
                continue
            state_mean = float((conc[start:end] * st_totals).sum()) / float(st_totals.sum())
            group_totals = counts[:, start:end].sum(axis=1)
            kept = np.flatnonzero(group_totals != 0)
            group_means = weighted[:, start:end].sum(axis=1)[kept] / group_totals[kept]
            values.append(disparity.state_disparity(group_means, state_mean, national_mean))
            present.append(kept)
            states += ["%02d" % codes[start]] * len(kept)
    names = np.array(groups, dtype=object).reshape(len(groups), 2)[np.concatenate(present)]
    return [aligned.year, states, aligned.locus, names[:, 0].tolist(), names[:, 1].tolist(),
            np.concatenate(values)]


def _stage_bias(state: RunState, data: YearData) -> None:
    config = state.config
    year = data.year
    skips = state.skips.setdefault("bias", {})
    if data.pairs is None:  # the exposure stage did not run
        data.pairs, _ = _join(config, data.surface, ingest.ORIGIN_DESTINATION)
        _count_drops(state, year, {"od": data.pairs.dropped_weight})
    pairs = data.pairs
    home = pairs.values(exposure.LOCUS_HOME)
    blended = exposure.hw_blend(home, pairs.values(exposure.LOCUS_WORK), config.work_fraction)
    for stratum, mask in exposure.stratum_masks(pairs).items():
        vh = home[mask]
        vb = blended[mask]
        # pairs are in (home, work) order, so each home tract is pooled once
        first = np.flatnonzero(np.diff(pairs.index[0][mask], prepend=-1))
        pooled = biasstats.PooledSamples(vh.take(first), vb)
        bias_keys, moment_list, biases, test_keys, ns, tests = [], [], [], [], [], []
        for characteristic, label, counts in exposure.iter_groups(pairs):
            group_key = exposure.format_group(characteristic, label)
            w = counts[mask]
            n = int(w.sum())
            if n == 0:
                _skip(skips, "zero-weight-group", "%s %s/%s" % (year, stratum, group_key))
                continue
            try:
                moments = biasstats.error_moments(vh, vb, w)
                bias = biasstats.bias_factor(moments)
            except DegenerateSliceError as exc:
                _skip(skips, "bias-factor", "%s %s/%s: %s" % (year, stratum, group_key, exc))
            else:
                bias_keys.append(group_key)
                moment_list.append(moments)
                biases.append(bias)
            test_keys.append(group_key)
            ns.append(n)
            tests.append(biasstats.wilcoxon_rank_sum_grouped(pooled, np.add.reduceat(w, first), w))
        state.write("bias.csv", [year, bias_keys, stratum, *_transpose(
            [(m.sigma2, m.phi, m.omega2, b) for m, b in zip(moment_list, biases)], 0, 4)])
        state.write("wilcoxon.csv", [year, test_keys, stratum, np.array(ns), np.array(ns),
                                     *_transpose([(t.u, t.z, t.p_value) for t in tests], 0, 3)])


_STAGE_FUNCS = {
    "surface": _stage_surface,
    "exposure": _stage_exposure,
    "disparity": _stage_disparity,
    "bias": _stage_bias,
}

_PREREQS = {
    "surface": (),
    "exposure": ("surface",),
    "disparity": ("surface", "exposure"),
    "bias": ("surface",),
}


def run(config: RunConfig) -> dict:
    """Execute the configured stages year by year and emit reports plus a
    manifest.

    A stage's prerequisites are computed too, but only the configured stages
    write files (``run --stage X`` configures ``[X]``). Every run first removes
    the output directory's ``manifest.json``, so a run that fails leaves none;
    its reports keep the rows written before the failure. Returns the manifest
    dict.
    """
    to_run = [s for s in STAGES if any(s == w or s in _PREREQS[w] for w in config.stages)]

    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path through a file, a name too long
        raise ConfigError(
            f"{config.out_dir}: cannot create output directory: {exc.strerror or exc}") from exc
    state = RunState(config)
    with contextlib.ExitStack() as stack:
        state.reports = _open_reports(config, stack)
        for year in config.years:
            data = YearData(year=year)
            for stage in to_run:
                started = time.perf_counter()
                try:
                    _STAGE_FUNCS[stage](state, data)
                except EngineError as exc:
                    raise EngineError(f"stage {stage}: {exc}") from exc
                elapsed = time.perf_counter() - started
                state.timings[stage] = state.timings.get(stage, 0.0) + elapsed
                logger.info("stage %s done for %d in %.3fs", stage, year, elapsed)

    for name, (stage, _, count_key) in _REPORTS.items():
        if count_key and name in state.reports:
            state.manifest_stages.setdefault(stage, {})[count_key] = state.reports[name][1]
    for stage, skips in state.skips.items():
        _warn_skips(stage, skips)
        state.manifest_stages.setdefault(stage, {})["skipped"] = dict(sorted(skips.items()))
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(config.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "inputs": {
            str(p.relative_to(config.base_dir) if p.is_relative_to(config.base_dir) else p):
                _sha256_file(p) for p in sorted(set(config.input_paths()))
        },
        "stages": state.manifest_stages,
        "dropped_weight_total": state.dropped_weight,
        "timings_seconds": {k: round(v, 6) for k, v in state.timings.items()},
    }
    with open(config.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
