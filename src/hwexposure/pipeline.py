"""Batch orchestration: configuration, year-major execution, report emission.

The outer loop is the years. Each year runs the requested stages in a fixed
order (surface -> exposure -> disparity -> bias) on one ``YearData``, which is
dropped after the year's last stage, so memory is bounded by one year's
working set; a requested stage always gets its prerequisites computed in
memory, but only the requested stages write files. What outlives a year is
small: the tracts and their strata, the coverage of the last grid lattice
(reused by every following year on that lattice), the report blocks, the skip
counts and the manifest. ``surface_<year>.csv`` is written as each year
finishes and every other report after the last year, in deterministic order
with full-precision floats, so identical inputs produce byte-identical
reports. The ``threads`` setting is validated but changes nothing.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import biasstats, disparity, exposure, ingest, zonal
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    DomainError,
    EmptyPopulationError,
    EngineError,
    InsufficientGroupsError,
    InsufficientTractsError,
)
from .exposure import ALL_STRATUM, HWWeights
from .geometry import PolygonSet, geoid_text, read_mask_geojson, read_tracts_geojson
from .grids import read_asc, read_xyz_csv

logger = logging.getLogger(__name__)

STAGES = ("surface", "exposure", "disparity", "bias")
_FLOAT_MAX = float(np.finfo(np.float64).max)  # compares exactly with any int, unlike inf

_METRIC_DEGENERACIES = (
    InsufficientGroupsError,
    InsufficientTractsError,
    DomainError,
    EmptyPopulationError,
    DegenerateVarianceError,
)


class StageError(EngineError):
    """A stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    years: tuple[int, ...]
    grid: str
    tracts: str
    urban_mask: str | None
    rac: str | None
    wac: str | None
    od: str | None
    stages: tuple[str, ...]
    hw_weights: HWWeights
    bin_counts: tuple[int, ...]
    epsilons: tuple[float, ...]
    thresholds: tuple[float, ...]
    strata: bool
    threads: int
    out_dir: Path
    base_dir: Path
    raw: dict = field(repr=False)

    def path(self, template: str, year: int | None = None) -> Path:
        """The template for ``year`` (as written without one), against base_dir."""
        return self.base_dir / (template if year is None else template.format(year=year))

    def input_paths(self) -> list[Path]:
        """The tracts and mask, then each year's grid and worker tables."""
        paths = [self.path(name) for name in (self.tracts, self.urban_mask) if name]
        return paths + [self.path(template, year) for year in self.years
                        for template in (self.grid, self.rac, self.wac, self.od) if template]


def _list_of(entry_ok, non_empty: bool = False):
    """A check: a JSON list (non-empty if asked) of entries that ``entry_ok`` takes."""
    return lambda v: type(v) is list and (bool(v) or not non_empty) and all(map(entry_ok, v))


def _is_path(value) -> bool:
    return type(value) is str and value != ""


def _is_template(value) -> bool:
    """A path that formats with a year: no field but ``{year}``, no stray brace."""
    try:
        return _is_path(value) and value.format(year=2011) != ""
    except (LookupError, ValueError, AttributeError, TypeError):
        return False


_REQUIRED = object()
_TEMPLATE = "a path template with no field but {year}"
_WORKER_TABLE = (None, _TEMPLATE + " or null", lambda v: v is None or _is_template(v))

# Every config key in check order: (default or _REQUIRED, the rule a value must
# meet, as ConfigError prints it, and its check). A list's entries must also not
# repeat. FORMATS.md "Run configuration" lists the same table.
_CONFIG_RULES = {
    "years": (_REQUIRED, "a non-empty list of integers",
              _list_of(lambda y: type(y) is int, non_empty=True)),
    "grid": (_REQUIRED, _TEMPLATE, _is_template),
    "tracts": (_REQUIRED, "a non-empty string", _is_path),
    "urban_mask": (None, "a non-empty string or null", lambda v: v is None or _is_path(v)),
    "rac": _WORKER_TABLE,
    "wac": _WORKER_TABLE,
    "od": _WORKER_TABLE,
    "stages": (list(STAGES), f"a list of stages from {list(STAGES)}",
               _list_of(STAGES.__contains__)),
    "hw_weights": ({"home": 0.794, "work": 0.206}, "{'home': h, 'work': w}",
                   lambda v: type(v) is dict),
    "bin_counts": ([100, 10], "a list of integers >= 2",
                   _list_of(lambda b: type(b) is int and b >= 2)),
    "epsilons": ([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], "a list of finite numbers >= 0",
                 _list_of(lambda e: type(e) in (int, float) and 0 <= e <= _FLOAT_MAX)),
    "thresholds": ([12.0, 10.0, 5.0], "a list of finite numbers > 0",
                   _list_of(lambda t: type(t) in (int, float) and 0 < t <= _FLOAT_MAX)),
    "strata": (True, "true or false", lambda v: type(v) is bool),
    "threads": (1, "an integer >= 1", lambda v: type(v) is int and v >= 1),
    "out_dir": ("out", "a non-empty string", _is_path),
}


def load_config(path: str, out_dir: str | None = None,
                threads: int | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration, in the check order that
    FORMATS.md "Run configuration" gives; the first failure is the ConfigError.

    Optional ``out_dir`` and ``threads`` override the config's values, and
    both must meet the key's rule. An ``out_dir`` given here resolves against
    the current directory, the config's relative paths against its directory.
    """
    config_path = Path(path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_RULES)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s) {sorted(unknown)}")

    values = {key: _checked(key, raw) for key in _CONFIG_RULES}
    overrides = {} if threads is None else {"threads": threads}
    if out_dir is not None:  # resolved against the current directory
        overrides["out_dir"] = str(Path(out_dir).absolute())
    values.update((key, _checked(key, overrides)) for key in overrides)
    _check_stage_inputs(values["stages"], values["rac"], values["wac"], values["od"])

    hw = values["hw_weights"]
    try:
        values["hw_weights"] = HWWeights(home_fraction=hw["home"], work_fraction=hw["work"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"hw_weights must be {{'home': h, 'work': w}}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid hw_weights: {exc}") from exc

    base_dir = config_path.parent
    config = RunConfig(**{**values, "years": tuple(sorted(values["years"])),
                          "epsilons": tuple(map(float, values["epsilons"])),
                          "thresholds": tuple(map(float, values["thresholds"])),
                          "out_dir": base_dir / values["out_dir"]},
                       base_dir=base_dir, raw=raw)
    missing = [str(p) for p in config.input_paths() if not p.exists()]
    if missing:
        raise ConfigError(f"missing input file(s): {missing}")
    return config


def _checked(key: str, given: dict):
    """The value of config ``key`` in ``given``, or the key's default, once it
    meets the key's rule; a list becomes a tuple."""
    default, rule, check = _CONFIG_RULES[key]
    if key not in given and default is _REQUIRED:
        raise ConfigError(f"config key {key!r} is required")
    value = given.get(key, default)
    if not check(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    if type(value) is not list:
        return value
    repeated = [v for i, v in enumerate(value) if v in value[:i]]
    if repeated:
        raise ConfigError(f"{key} must not repeat, got {min(repeated)!r} more than once")
    return tuple(value)


def _check_stage_inputs(stages: Sequence[str], rac: str | None, wac: str | None,
                        od: str | None) -> None:
    """The worker tables that these stages read must be configured."""
    if ("exposure" in stages or "disparity" in stages) and not (rac and wac):
        raise ConfigError("rac and wac paths are required for the exposure/disparity stages")
    if "bias" in stages and not od:
        raise ConfigError("od path is required for the bias stage")


@dataclass
class YearData:
    """Everything computed for one year, passed between its stages.

    Each worker table is joined to the surface once: ``homes``/``works`` are
    the RAC/WAC tables and ``pairs`` the OD matrix, as the stages read them;
    ``exposures`` holds the frames of the RAC and WAC tables.
    """

    year: int
    surface: zonal.TractSurface | None = None
    homes: exposure.AlignedTable | None = None
    works: exposure.AlignedTable | None = None
    pairs: exposure.ResolvedPairs | None = None
    exposures: list[exposure.GroupExposures] = field(default_factory=list)


@dataclass
class RunState:
    """What outlives a year. ``blocks`` holds each report's blocks so far, by
    file name; ``skips`` the degenerate-slice skips per stage and kind."""

    config: RunConfig
    tracts: PolygonSet | None = None
    classification: exposure.TractStrata | None = None
    coverage: zonal.TractCoverage | None = None
    blocks: dict[str, list] = field(default_factory=dict)
    skips: dict[str, dict[str, int]] = field(default_factory=dict)
    manifest_stages: dict[str, dict] = field(default_factory=dict)
    dropped_weight: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    def reports(self, *names: str) -> list[list]:
        """The block lists of these reports; a report listed here is written
        (if its stage is) even when it gets no rows."""
        return [self.blocks.setdefault(name, []) for name in names]


def _strata(config: RunConfig) -> tuple[str, ...]:
    if config.strata and config.urban_mask:
        return (ALL_STRATUM, zonal.URBAN, zonal.RURAL)
    return (ALL_STRATUM,)


def _read_grid(path: Path):
    if path.suffix == ".asc":
        return read_asc(str(path))
    if path.suffix == ".csv":
        return read_xyz_csv(str(path))
    raise ConfigError(f"grid file must be .asc or .csv, got {path.name}")


# A text cell holding one of these would need quoting, which _write_csv does
# not do: geoids are ASCII digits and labels and strata are schema constants.
_QUOTED = (",", '"', "\r", "\n")


def _n_rows(block: Sequence) -> int:
    """A block's row count: the length of its first column that is not a scalar."""
    return next(len(column) for column in block if not isinstance(column, (str, int)))


def _cells(path: Path, name: str, column, n_rows: int) -> Iterable[str]:
    """One column of a block as text cells. A float array gives repr texts and
    an int array str texts; a str or int repeats on every row; any other
    sequence holds text cells, checked once per distinct value."""
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    if isinstance(column, (str, int)):
        distinct, column = {str(column)}, itertools.repeat(str(column), n_rows)
    else:
        distinct = set(column)
    text = "".join(distinct)
    if any(c in text for c in _QUOTED):
        bad = min(v for v in distinct if any(c in v for c in _QUOTED))
        raise ValueError(f"{path}: column {name!r}: {bad!r} would need CSV quoting")
    return column


def _csv_lines(path: Path, header: Sequence[str], block: Sequence) -> str:
    """The rows of one block, one column per header field, as CSV lines."""
    if len(block) != len(header):
        raise ValueError(f"{path}: {len(block)} columns for a {len(header)}-field header")
    n_rows = _n_rows(block)
    columns = [_cells(path, name, column, n_rows) for name, column in zip(header, block)]
    lines = "\n".join(map(",".join, zip(*columns)))
    return lines + "\n" if lines else ""


def _write_csv(path: Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write the header, then each block's rows with one write per block."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(_csv_lines(path, header, block))


# Every report: file name -> (stage, header, manifest row count of the stage).
# surface_<year>.csv is written as each year finishes; the others after the
# last year, from the blocks the years appended to RunState.blocks.
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


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _display_path(path: Path, base_dir: Path) -> str:
    try:
        return str(path.relative_to(base_dir))
    except ValueError:
        return str(path)


# ----------------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------------

def _stage_surface(state: RunState, data: YearData) -> None:
    config = state.config
    if state.tracts is None:  # the first year reads the tracts and the mask
        state.tracts = tracts = read_tracts_geojson(str(config.path(config.tracts)))
        state.manifest_stages["surface"] = manifest = {"tracts": len(tracts.geoids), "years": {}}
        if config.urban_mask:
            mask = read_mask_geojson(str(config.path(config.urban_mask)))
            fraction = zonal.build_urban_mask(mask, tracts)
            labels = np.where(fraction >= zonal.URBAN_SHARE, zonal.URBAN, zonal.RURAL).tolist()
            state.classification = exposure.tract_strata(dict(zip(tracts.geoids, labels)))
            manifest["urban"] = zonal.urban_counts(fraction)
            state.reports("urban.csv")[0].append([tracts.geoids, labels])
    grid = _read_grid(config.path(config.grid, data.year))
    if state.coverage is None or state.coverage.lattice != grid.lattice:
        state.coverage = zonal.tract_coverage(state.tracts, grid)
    data.surface = surface = zonal.build_tract_surface(grid, state.coverage, data.year)
    state.manifest_stages["surface"]["years"][str(data.year)] = {
        "tracts_with_coverage": len(surface.ids),
        "excluded": geoid_text(surface.excluded),
        "completeness": surface.completeness,
    }


def _join_table(config: RunConfig, surface: zonal.TractSurface, role: str,
                template: str) -> tuple[exposure.AlignedTable, int]:
    """Read one year's RAC/WAC table and join it to the surface; also returns
    the table's tract count."""
    _, table = ingest.read_tracts(str(config.path(template, surface.year)), role)
    return exposure.align_table(surface, table, role), len(table.totals)


def _join_od(config: RunConfig,
             surface: zonal.TractSurface) -> tuple[exposure.ResolvedPairs, int]:
    """Read one year's OD table and join it to the surface; also returns the
    table's tract-pair count."""
    _, od = ingest.read_tracts(str(config.path(config.od, surface.year)),
                               ingest.ORIGIN_DESTINATION)
    return exposure.resolve_pairs(surface, od), len(od.totals)


def _count_drops(state: RunState, year: int, drops: dict[str, int]) -> None:
    total_dropped = sum(drops.values())
    state.dropped_weight += total_dropped
    if total_dropped:
        logger.warning("year %d: dropped %d workers on unresolvable tracts/pairs: %s",
                       year, total_dropped, drops)


def _exposure_block(frame: exposure.GroupExposures, locus: str) -> list:
    """exposure.csv block of one frame at one of its loci."""
    k = frame.loci.index(locus)
    return [frame.year, frame.group_keys, locus, frame.stratum,
            frame.mean[k], frame.p10[k], frame.p90[k], frame.weight]


def _stage_exposure(state: RunState, data: YearData) -> None:
    config = state.config
    strata = _strata(config)
    year = data.year
    data.homes, rac_tracts = _join_table(config, data.surface, ingest.RESIDENCE, config.rac)
    data.works, wac_tracts = _join_table(config, data.surface, ingest.WORKPLACE, config.wac)
    frames = data.exposures = [
        exposure.compute_group_exposures(aligned, ingest.RAC_WAC_SCHEMAS,
                                         state.classification, strata)
        for aligned in (data.homes, data.works)
    ]
    exposure_blocks = state.reports("exposure.csv")[0]
    exposure_blocks += [_exposure_block(frame, frame.loci[0]) for frame in frames]
    drops = {"rac": data.homes.dropped_weight, "wac": data.works.dropped_weight}
    od_pairs = 0
    if config.od:  # error.csv exists only with an OD table
        data.pairs, od_pairs = _join_od(config, data.surface)
        od = exposure.compute_hw_exposures(data.pairs, ingest.OD_SCHEMAS, config.hw_weights,
                                           state.classification, strata)
        frames = [*frames, od]
        drops["od"] = data.pairs.dropped_weight
        exposure_blocks.append(_exposure_block(od, exposure.LOCUS_BLEND))
        state.reports("error.csv")[0].append(
            [year, od.group_keys, od.stratum, od.error, od.percent_error])
    _count_drops(state, year, drops)
    state.manifest_stages.setdefault("exposure", {"years": {}})["years"][str(year)] = {
        "rac_tracts": rac_tracts,
        "wac_tracts": wac_tracts,
        "od_pairs": od_pairs,
        "dropped_weight": drops,
        "records": sum(frame.mean.size for frame in frames),
    }


def _transpose(rows: Sequence[tuple], n_text: int, width: int) -> list:
    """Row tuples of ``width`` fields as columns: the first ``n_text`` as text
    lists, the rest as float arrays."""
    columns = list(zip(*rows)) or [()] * width
    return [*map(list, columns[:n_text]),
            *(np.array(c, dtype=np.float64) for c in columns[n_text:])]


def _gap_and_atkinson_blocks(year: int, frames: Sequence[exposure.GroupExposures],
                             epsilons: Sequence[float], skips: dict[str, int]) -> list[list]:
    """gaps.csv and atkinson.csv blocks of one year's RAC and WAC frames.

    A frame's rows are ordered by stratum, then schema, so each (locus,
    stratum, characteristic) is one run of rows; the total population's row
    holds the national mean of its (locus, stratum). Gaps are ordered by
    (locus, stratum, characteristic), Atkinson rows by (characteristic,
    locus, stratum) with one row per epsilon.
    """
    slices, national = {}, {}
    for frame in frames:
        start = 0
        for (stratum, characteristic), run in itertools.groupby(
                zip(frame.stratum, frame.characteristic)):
            key = (frame.loci[0], stratum, characteristic)
            rows = slice(start, start + len(list(run)))
            if characteristic == exposure.ALL_GROUP[0]:
                national[key[:2]] = float(frame.mean[0, start])
            else:
                slices[key] = (frame.characteristic[rows], frame.label[rows],
                               frame.weight[rows], frame.mean[0, rows])
            start = rows.stop
    gaps, curves = [], []
    for key in sorted(slices):
        characteristics, labels, _, means = slices[key]
        try:
            gaps.append((*key, *disparity.extreme_group_gap(characteristics, labels, means,
                                                             national[key[:2]])))
        except _METRIC_DEGENERACIES as exc:
            _skip(skips, "gap", "%s %s/%s/%s: %s" % (year, *key, exc))
    for locus, stratum, characteristic in sorted(slices, key=lambda k: (k[2], k[0], k[1])):
        try:
            curve = disparity.atkinson_pipeline(*slices[(locus, stratum, characteristic)],
                                                epsilons)
        except _METRIC_DEGENERACIES as exc:
            _skip(skips, "atkinson", "%s %s/%s/%s: %s" % (year, locus, stratum, characteristic,
                                                          exc))
            continue
        curves += [(characteristic, locus, stratum, e, v) for e, v in zip(epsilons, curve)]
    return [[year, *_transpose(gaps, 5, 8)], [year, *_transpose(curves, 3, 5)]]


def _stage_disparity(state: RunState, data: YearData) -> None:
    config = state.config
    strata = _strata(config)
    year = data.year
    skips = state.skips.setdefault("disparity", {})
    gap_blocks, bin_blocks, atkinson_blocks, state_blocks, threshold_blocks = state.reports(
        "gaps.csv", "bins.csv", "atkinson.csv", "state_disparity.csv", "threshold.csv")
    gaps, curves = _gap_and_atkinson_blocks(year, data.exposures, config.epsilons, skips)
    gap_blocks.append(gaps)
    atkinson_blocks.append(curves)

    for aligned in (data.homes, data.works):
        # one group per row of aligned.counts, both in schema order
        groups = [(characteristic, label) for characteristic, label, _ in
                  exposure.iter_groups(ingest.RAC_WAC_SCHEMAS, aligned)][1:]
        counts = aligned.counts.astype(np.float64)
        bin_blocks += _composition_blocks(state, aligned, groups, counts, strata, skips)
        threshold_blocks += _threshold_rows(config, aligned, groups, counts, skips)
        try:
            state_blocks.append(_state_rows(aligned, groups, counts))
        except _METRIC_DEGENERACIES as exc:
            _skip(skips, "state-disparity", "%s %s: %s" % (year, aligned.locus, exc))
        del counts


def _skip(skips: dict[str, int], kind: str, detail: str) -> None:
    skips[kind] = skips.get(kind, 0) + 1
    logger.debug("%s skipped: %s", kind, detail)


def _skip_groups(skips: dict[str, int], kind: str, groups: Sequence[tuple[str, str]],
                 where: str, exc: Exception) -> None:
    """One skip per group, for a computation that covers every group at once."""
    for characteristic, label in groups:
        _skip(skips, kind, "%s/%s:%s: %s" % (where, characteristic, label, exc))


def _warn_skips(stage: str, skips: dict[str, int]) -> None:
    for kind, count in sorted(skips.items()):
        logger.warning("%s: skipped %d %s computation(s) on degenerate slices "
                       "(details at debug level)", stage, count, kind)


def _composition_blocks(state: RunState, aligned: exposure.AlignedTable,
                        groups: Sequence[tuple[str, str]], counts: np.ndarray,
                        strata: Sequence[str], skips: dict[str, int]) -> list[list]:
    """bins.csv blocks of one table, one per stratum. The tracts with a
    positive total are ranked once by each group's fraction and once by
    concentration; a stratum's ranks are these compressed by its mask, since
    a stable order restricted to a subset is the subset's stable order."""
    config = state.config
    year, locus = aligned.year, aligned.locus
    blocks: list[list] = []
    positive = np.flatnonzero(aligned.totals > 0)
    group_counts = counts.take(positive, axis=1)
    fractions = group_counts / aligned.totals[positive]
    conc = aligned.concentrations[positive]
    by_fraction = exposure.stable_argsort(fractions)
    by_conc = exposure.stable_argsort(conc)
    masks = exposure.stratum_masks(aligned, state.classification, strata)
    for stratum, mask in masks.items():
        inside = mask[positive]
        order = by_fraction[inside.take(by_fraction)].reshape(len(by_fraction), inside.sum())
        ranking = disparity.rank_by_composition(group_counts, conc, order)
        curves = []
        for n_bins in config.bin_counts:
            try:
                curves.append((n_bins, disparity.percentile_bin_curve(ranking, n_bins)))
            except _METRIC_DEGENERACIES as exc:
                _skip_groups(skips, "composition-curve", groups,
                             "%s %s/%s" % (year, locus, stratum), exc)
        try:
            shares = disparity.population_share_by_concentration_decile(
                fractions, by_conc.compress(inside.take(by_conc)))
        except _METRIC_DEGENERACIES as exc:
            _skip_groups(skips, "decile-share", groups,
                         "%s %s/%s" % (year, locus, stratum), exc)
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
    matrix; every threshold's shares come from one compress of it."""
    year, locus = aligned.year, aligned.locus
    kept = np.flatnonzero(counts.sum(axis=1) > 0)
    weights = np.vstack([aligned.totals, counts.take(kept, axis=0)])
    characteristics = [groups[g][0] for g in kept]
    runs = [(c, len(list(run))) for c, run in itertools.groupby(characteristics)]
    blocks: list[list] = []
    for threshold in config.thresholds:
        qs = disparity.threshold_share(aligned.concentrations, weights, threshold)
        covs, start = [""], 1
        for characteristic, n in runs:
            try:
                cov_text = repr(disparity.cov_of_shares(qs[start:start + n]))
            except _METRIC_DEGENERACIES as exc:
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
    digits (id // 10**9), so each state is a contiguous run of the sorted tracts."""
    states, present, values = [], [np.empty(0, np.intp)], [np.empty(0)]
    if len(aligned.geoids):
        totals = aligned.totals.astype(float)
        conc = aligned.concentrations
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
    strata = _strata(config)
    year = data.year
    skips = state.skips.setdefault("bias", {})
    bias_blocks, wilcoxon_blocks = state.reports("bias.csv", "wilcoxon.csv")
    if data.pairs is None:  # the exposure stage did not run
        data.pairs, _ = _join_od(config, data.surface)
        _count_drops(state, year, {"od": data.pairs.dropped_weight})
    pairs = data.pairs
    blended = exposure.hw_blend(pairs.home_values, pairs.work_values, config.hw_weights)
    masks = exposure.stratum_masks(pairs, state.classification, strata)
    for stratum, mask in masks.items():
        if not mask.any():
            continue
        vh = pairs.home_values[mask]
        vb = blended[mask]
        pooled = biasstats.PooledSamples(vh, vb)
        bias_keys, moment_list, biases, test_keys, ns, tests = [], [], [], [], [], []
        for characteristic, label, counts in exposure.iter_groups(ingest.OD_SCHEMAS, pairs):
            group_key = exposure.format_group(characteristic, label)
            w = counts[mask]
            n = int(w.sum())
            if n == 0:
                continue
            try:
                moments = biasstats.error_moments(vh, vb, w)
                bias = biasstats.bias_factor(moments)
            except _METRIC_DEGENERACIES as exc:
                _skip(skips, "bias-factor", "%s %s/%s: %s" % (year, stratum, group_key, exc))
            else:
                bias_keys.append(group_key)
                moment_list.append(moments)
                biases.append(bias)
            test_keys.append(group_key)
            ns.append(n)
            tests.append(pooled.test(w, w))
        bias_blocks.append([year, bias_keys, stratum, *_transpose(
            [(m.sigma2, m.phi, m.omega2, b) for m, b in zip(moment_list, biases)], 0, 4)])
        wilcoxon_blocks.append([year, test_keys, stratum, np.array(ns), np.array(ns),
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


def run(config: RunConfig, only_stage: str | None = None) -> dict:
    """Execute the configured stages year by year and emit reports plus a
    manifest.

    With ``only_stage``, prerequisites are still computed but only that
    stage's files are written (and no manifest). A full run first removes the
    output directory's ``manifest.json``, so a run that fails leaves none.
    Returns the manifest dict.
    """
    if only_stage is not None and only_stage not in STAGES:
        raise ConfigError(f"unknown stage {only_stage!r}; valid stages: {list(STAGES)}")
    to_write = set(config.stages if only_stage is None else (only_stage,))
    to_run = [s for s in STAGES if s in to_write or any(s in _PREREQS[w] for w in to_write)]
    _check_stage_inputs(to_run, config.rac, config.wac, config.od)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    if only_stage is None:
        (config.out_dir / "manifest.json").unlink(missing_ok=True)
    state = RunState(config=config)
    for year in config.years:
        data = YearData(year=year)
        for stage in to_run:
            started = time.perf_counter()
            try:
                _STAGE_FUNCS[stage](state, data)
            except EngineError as exc:
                raise StageError(stage, exc) from exc
            elapsed = time.perf_counter() - started
            state.timings[stage] = state.timings.get(stage, 0.0) + elapsed
            logger.info("stage %s done for %d in %.3fs", stage, year, elapsed)
        if "surface" in to_write:
            _write_csv(config.out_dir / f"surface_{year}.csv", _REPORTS["surface_{year}.csv"][1],
                       [[geoid_text(data.surface.ids), year, data.surface.values]])

    for name, blocks in state.blocks.items():
        stage, header, count_key = _REPORTS[name]
        if count_key:
            state.manifest_stages.setdefault(stage, {})[count_key] = sum(map(_n_rows, blocks))
        if stage in to_write:
            _write_csv(config.out_dir / name, header, blocks)
    for stage, skips in state.skips.items():
        _warn_skips(stage, skips)
        state.manifest_stages.setdefault(stage, {})["skipped"] = dict(sorted(skips.items()))
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(config.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "inputs": {
            _display_path(p, config.base_dir): _sha256_file(p)
            for p in sorted(set(config.input_paths()))
        },
        "stages": state.manifest_stages,
        "dropped_weight_total": state.dropped_weight,
        "timings_seconds": {k: round(v, 6) for k, v in state.timings.items()},
    }
    if only_stage is None:
        with open(config.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest
