"""Population-weighted exposure statistics: home (H), work (W), and the
time-weighted home-work blend (HW), plus the H-minus-HW misclassification
error, for the total population and demographic subgroups.

Reductions run over geoid-sorted numpy arrays with numpy's pairwise
summation, so results are deterministic for any thread count upstream.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyPopulationError
from .ingest import RESIDENCE, GroupSchema, WorkerTable
from .zonal import TractSurface

logger = logging.getLogger(__name__)

LOCUS_HOME = "H"
LOCUS_WORK = "W"
LOCUS_BLEND = "HW"
ALL_STRATUM = "all"
ALL_GROUP = ("all", "all")  # (characteristic, group label) of the total population


@dataclass(frozen=True)
class HWWeights:
    """Time split between home and work tracts (fractions of the year)."""

    home_fraction: float = 0.794
    work_fraction: float = 0.206

    def __post_init__(self) -> None:
        if not (0.0 < self.home_fraction < 1.0 and 0.0 < self.work_fraction < 1.0):
            raise ValueError("fractions must lie strictly between 0 and 1")
        if self.home_fraction + self.work_fraction != 1.0:
            raise ValueError("fractions must sum to 1 exactly")


DEFAULT_HW_WEIGHTS = HWWeights()


@dataclass(frozen=True)
class ExposureRecord:
    """Weighted exposure summary for one (group, locus, stratum)."""

    year: int
    characteristic: str
    group: str
    locus: str
    stratum: str
    mean: float
    p10: float
    p90: float
    weight: float

    def __post_init__(self) -> None:
        if self.p10 > self.p90:
            raise ValueError(f"p10 {self.p10} > p90 {self.p90}")
        if self.weight < 0:
            raise ValueError(f"negative weight {self.weight}")

    @property
    def group_key(self) -> str:
        return format_group(self.characteristic, self.group)


@dataclass(frozen=True)
class ErrorRecord:
    """Misclassification error H - HW for one (group, stratum)."""

    year: int
    characteristic: str
    group: str
    stratum: str
    error: float
    percent_error: float

    @property
    def group_key(self) -> str:
        return format_group(self.characteristic, self.group)


def format_group(characteristic: str, group: str) -> str:
    return "all" if (characteristic, group) == ALL_GROUP else f"{characteristic}:{group}"


def hw_blend(h, w, weights: HWWeights = DEFAULT_HW_WEIGHTS):
    """Time-weighted blend of home and work concentrations (scalars or arrays).

    Computed as h + work_fraction * (w - h), which equals
    home_fraction * h + work_fraction * w because the fractions sum to 1,
    and keeps hw_blend(h, h) == h exact in floating point. On numpy arrays it
    is the same expression element-wise, so per-pair blends match the scalar
    op bit for bit.
    """
    return h + weights.work_fraction * (w - h)


def population_weighted_mean(values: Mapping[str, float],
                             weights: Mapping[str, float]) -> float:
    """sum(value * weight) / sum(weight) over tracts present in ``values``.

    Weights keyed by tracts absent from ``values`` (excluded tracts) are
    dropped with a log entry. Raises EmptyPopulationError when no weight
    remains.
    """
    vals = []
    wts = []
    dropped = 0.0
    for geoid in sorted(weights):
        w = weights[geoid]
        if geoid in values:
            vals.append(values[geoid])
            wts.append(w)
        else:
            dropped += w
    if dropped:
        logger.warning("dropped %s worker-weight on tracts without concentrations", dropped)
    return ValueSlice(np.asarray(vals, dtype=np.float64)).mean(np.asarray(wts, dtype=np.float64))


def weighted_percentile(values: Sequence[float], weights: Sequence[float], p: float) -> float:
    """Left-continuous inverse CDF with frequency weights, no interpolation.

    Returns the smallest value whose cumulative weight reaches ``p`` times the
    total weight. Ties in value are irrelevant to the result; the stable sort
    keeps the caller's (geoid-ascending) order deterministic.
    """
    vals = np.asarray(values, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    keep = wts > 0
    return ValueSlice(vals[keep]).percentiles(wts[keep], (p,))[0]


class ValueSlice:
    """The values of one (locus, stratum) slice, shared by every group's
    weighted mean and percentiles over it.

    Each group passes its float64 weights over the whole slice, zeros
    included. The values are argsorted once for all groups (stable, so ties
    keep the caller's geoid-ascending order).
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self._order = np.argsort(values, kind="stable")

    def _total(self, weights: np.ndarray) -> float:
        total = float(np.sum(weights))
        if len(self.values) == 0 or total <= 0.0:
            raise EmptyPopulationError("total weight is zero")
        return total

    def mean(self, weights: np.ndarray) -> float:
        """sum(value * weight) / sum(weight)."""
        total = self._total(weights)
        mean = float(np.sum(self.values * weights)) / total
        # Mathematically mean lies in [min, max]; clamp away float drift.
        return min(max(mean, float(self.values.min())), float(self.values.max()))

    def percentiles(self, weights: np.ndarray, ps: Sequence[float]) -> list[float]:
        """Per p, the smallest value with positive weight whose cumulative
        weight reaches p times the total (see ``weighted_percentile``)."""
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p must be in [0, 1], got {p}")
        total = self._total(weights)
        ranked = weights.take(self._order)
        cum = np.cumsum(ranked)
        picks = []
        for p in ps:
            target = p * total
            # at p = 0, side="right" steps over the zero weights ranked first
            idx = int(np.searchsorted(cum, target, side="left" if target > 0.0 else "right"))
            if idx == len(cum):  # float drift: the largest value with weight
                idx = int(np.flatnonzero(ranked)[-1])
            picks.append(float(self.values[self._order[idx]]))
        return picks


class AlignedTable(NamedTuple):
    """RAC/WAC tract table joined against a tract surface, geoid-ascending.

    ``surface_geoids`` are the surface's geoids (``U11``, ascending) and
    ``tract_index`` each row's position among them; ``codes`` (category
    columns in schema order) and the int64 (codes x tracts) ``counts`` are
    empty when no tract resolved.
    """

    year: int
    locus: str
    surface_geoids: np.ndarray
    tract_index: np.ndarray
    concentrations: np.ndarray
    totals: np.ndarray
    codes: tuple[str, ...]
    counts: np.ndarray
    dropped_weight: int

    @property
    def geoids(self) -> np.ndarray:
        return self.surface_geoids.take(self.tract_index)


class ResolvedPairs(NamedTuple):
    """OD tract pairs joined against a tract surface, (home, work)-ascending,
    with ``tract_index`` the position of each pair's home tract among
    ``surface_geoids`` and ``codes``/``counts`` as in AlignedTable."""

    year: int
    surface_geoids: np.ndarray
    tract_index: np.ndarray
    home_values: np.ndarray
    work_values: np.ndarray
    totals: np.ndarray
    codes: tuple[str, ...]
    counts: np.ndarray
    dropped_weight: int

    @property
    def home_geoids(self) -> np.ndarray:
        return self.surface_geoids.take(self.tract_index)


def _join(surface: TractSurface, table: WorkerTable):
    """Resolve each row of ``table`` against the surface's geoids (ascending).

    Returns the geoids and their concentrations; per key array, the
    positions among the geoids of the rows whose every tract resolved; those
    rows' (totals, codes, counts), without codes when there are none; and
    the worker total of the other rows.
    """
    geoids = sorted(surface.entries)
    sorted_ids = np.array(geoids, dtype=str)
    values = np.array([surface.entries[g] for g in geoids], dtype=np.float64)
    found = np.ones(len(table.totals), dtype=bool)
    positions = []
    for keys in table.keys:
        pos = np.searchsorted(sorted_ids, keys)
        hit = pos < len(geoids)
        hit[hit] = sorted_ids[pos[hit]] == keys[hit]
        found &= hit
        positions.append(pos)
    codes = table.codes if found.any() else ()
    # compress, unlike a boolean index, keeps the matrix C-contiguous, so the
    # disparity row sums stay pairwise and byte-identical
    rows = (table.totals[found], codes, table.counts[:len(codes)].compress(found, axis=1))
    dropped = int(table.totals[~found].sum())
    return sorted_ids, values, [pos[found] for pos in positions], rows, dropped


def align_table(surface: TractSurface, table: WorkerTable, role: str) -> AlignedTable:
    """Join a RAC/WAC tract table to surface concentrations, dropping
    unresolvable tracts.

    The locus is H for residence tables and W for workplace tables.
    """
    geoids, values, (index,), rows, dropped = _join(surface, table)
    if dropped:
        logger.debug(
            "%s table %d: dropped %d workers on tracts without concentrations",
            role, surface.year, dropped,
        )
    locus = LOCUS_HOME if role == RESIDENCE else LOCUS_WORK
    return AlignedTable(surface.year, locus, geoids, index, values.take(index), *rows, dropped)


def resolve_pairs(surface: TractSurface, od: WorkerTable) -> ResolvedPairs:
    """Join OD tract pairs to surface concentrations, dropping unresolvable
    pairs."""
    geoids, values, (home, work), rows, dropped = _join(surface, od)
    if dropped:
        logger.debug(
            "OD %d: dropped %d workers on pairs touching tracts without concentrations",
            surface.year, dropped,
        )
    return ResolvedPairs(surface.year, geoids, home, values.take(home), values.take(work),
                         *rows, dropped)


class TractStrata(NamedTuple):
    """The stratum of each classified tract, built once per run: ``geoids``
    ascending and an int8 ``codes`` index into ``names`` per geoid."""

    geoids: np.ndarray
    codes: np.ndarray
    names: tuple[str, ...]


def tract_strata(classification: Mapping[str, str]) -> TractStrata:
    """Encode a {geoid: stratum} classification as a TractStrata."""
    geoids = sorted(classification)
    names = tuple(sorted(set(classification.values())))
    index = {name: k for k, name in enumerate(names)}
    codes = np.array([index[classification[g]] for g in geoids], dtype=np.int8)
    return TractStrata(np.array(geoids, dtype=str), codes, names)


def stratum_masks(table: AlignedTable | ResolvedPairs, classification: TractStrata | None,
                  strata: Sequence[str]) -> dict[str, np.ndarray]:
    """Boolean row mask per stratum, by each row's (home) tract. Classified
    strata are skipped without a classification; tracts it does not list are
    in no classified stratum. The surface's tracts are looked up once and
    carried to the rows through the join positions."""
    masks = {}
    codes = None
    n = len(table.tract_index)
    for stratum in strata:
        if stratum == ALL_STRATUM:
            masks[stratum] = np.ones(n, dtype=bool)
        elif classification is not None:
            if codes is None:
                codes = _codes(table.surface_geoids, classification).take(table.tract_index)
            if stratum in classification.names:
                masks[stratum] = codes == classification.names.index(stratum)
            else:
                masks[stratum] = np.zeros(n, dtype=bool)
    return masks


def _codes(geoids: np.ndarray, classification: TractStrata) -> np.ndarray:
    """The stratum code of each geoid, -1 for those without one."""
    known = classification.geoids
    if len(known) == 0:
        return np.full(len(geoids), -1, dtype=np.int8)
    pos = np.minimum(np.searchsorted(known, geoids), len(known) - 1)
    return np.where(known.take(pos) == geoids, classification.codes.take(pos), -1)


def iter_groups(schemas: Sequence[GroupSchema], table: AlignedTable | ResolvedPairs):
    """(characteristic, label, counts) for the total population, then each
    schema category among the table's codes, in schema order."""
    yield ALL_GROUP[0], ALL_GROUP[1], table.totals
    row = {code: i for i, code in enumerate(table.codes)}
    for schema in schemas:
        for code, label in schema.categories:
            if code in row:
                yield schema.characteristic, label, table.counts[row[code]]


def compute_group_exposures(
    aligned: AlignedTable,
    schemas: Sequence[GroupSchema],
    classification: TractStrata | None = None,
    strata: Sequence[str] = (ALL_STRATUM,),
) -> list[ExposureRecord]:
    """One ExposureRecord per (group, stratum) at the table's locus.

    Groups with zero weight in a stratum are omitted with a log entry.
    """
    locus = aligned.locus
    masks = stratum_masks(aligned, classification, strata)
    records = []
    for stratum, mask in masks.items():
        values = ValueSlice(aligned.concentrations[mask])
        for characteristic, label, weights in iter_groups(schemas, aligned):
            w = weights[mask]
            weight = int(w.sum())
            if weight == 0:
                logger.debug(
                    "skipping zero-weight group %s (%s, %s)",
                    format_group(characteristic, label), locus, stratum,
                )
                continue
            wf = w.astype(np.float64)
            p10, p90 = values.percentiles(wf, (0.10, 0.90))
            records.append(ExposureRecord(
                year=aligned.year,
                characteristic=characteristic,
                group=label,
                locus=locus,
                stratum=stratum,
                mean=values.mean(wf),
                p10=p10,
                p90=p90,
                weight=float(weight),
            ))
    return records


def compute_hw_exposures(
    pairs: ResolvedPairs,
    schemas: Sequence[GroupSchema],
    weights: HWWeights = DEFAULT_HW_WEIGHTS,
    classification: TractStrata | None = None,
    strata: Sequence[str] = (ALL_STRATUM,),
) -> tuple[list[ExposureRecord], list[ErrorRecord]]:
    """Exposure records at loci H, W, and HW over the OD population, plus the
    H-minus-HW error per (group, stratum).

    H, W, and HW are aggregated over the same resolvable pairs, so the error
    identity error = work_fraction * (H - W) holds to float precision. Strata
    are assigned by residential (home-tract) location.
    """
    if len(pairs.totals) == 0 or int(pairs.totals.sum()) == 0:
        raise EmptyPopulationError("no resolvable OD pairs with workers")
    blended = hw_blend(pairs.home_values, pairs.work_values, weights)
    masks = stratum_masks(pairs, classification, strata)
    records: list[ExposureRecord] = []
    errors: list[ErrorRecord] = []
    undefined = 0
    for stratum, mask in masks.items():
        slices = [(locus, ValueSlice(values[mask])) for locus, values in (
            (LOCUS_HOME, pairs.home_values),
            (LOCUS_WORK, pairs.work_values),
            (LOCUS_BLEND, blended),
        )]
        for characteristic, label, group_counts in iter_groups(schemas, pairs):
            w = group_counts[mask]
            weight = int(w.sum())
            if weight == 0:
                logger.debug(
                    "skipping zero-weight OD group %s (%s)",
                    format_group(characteristic, label), stratum,
                )
                continue
            wf = w.astype(np.float64)
            means = {}
            for locus, values in slices:
                means[locus] = values.mean(wf)
                p10, p90 = values.percentiles(wf, (0.10, 0.90))
                records.append(ExposureRecord(
                    year=pairs.year,
                    characteristic=characteristic,
                    group=label,
                    locus=locus,
                    stratum=stratum,
                    mean=means[locus],
                    p10=p10,
                    p90=p90,
                    weight=float(weight),
                ))
            h_mean, hw_mean = means[LOCUS_HOME], means[LOCUS_BLEND]
            error = h_mean - hw_mean
            if h_mean != 0.0:
                percent = 100.0 * error / h_mean
            else:
                percent = math.nan
                undefined += 1
                logger.debug("H mean is zero for OD group %s (%s); percent error undefined",
                             format_group(characteristic, label), stratum)
            errors.append(ErrorRecord(
                year=pairs.year,
                characteristic=characteristic,
                group=label,
                stratum=stratum,
                error=error,
                percent_error=percent,
            ))
    if undefined:
        logger.warning("year %d: H mean is zero in %d OD group/stratum slice(s); "
                       "their percent error is NaN", pairs.year, undefined)
    return records, errors
