"""Population-weighted exposure statistics: home (H), work (W), and the
time-weighted home-work blend (HW), plus the H-minus-HW misclassification
error, for the total population and demographic subgroups.

Each (locus, stratum) slice is one kernel call (``ValueSlice.stats``): every
group's weights are a row of one C-contiguous (groups x values) matrix, the
values are argsorted once, and each row is summed pairwise and accumulated in
order, exactly as a 1-D reduction of that group alone. A table's results are
one columnar ``GroupExposures`` frame, deterministic for any thread count
upstream.
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


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")`` from numpy's faster
    default sort (SIMD where the CPU has it), which leaves ties in any order:
    if any exist, the unique int64 keys ``run * n + index`` are sorted, which
    puts each run of equal values (NaNs are one run) in index order. No value
    is cast, so int64 above 2**53 stay exact."""
    order = np.argsort(values, axis=-1)
    ranked = np.sort(values, axis=-1)  # faster than gathering values[order]
    before = ranked[..., :-1]
    new_run = (ranked[..., 1:] != before) & (before == before)  # NaNs sort last
    del ranked, before
    if new_run.all():
        return order
    runs = np.cumsum(new_run, axis=-1, dtype=np.int64)
    runs *= order.shape[-1]
    order[..., 1:] += runs
    order.sort(axis=-1)
    order[..., 1:] -= runs
    return order


class ValueSlice:
    """The values of one (locus, stratum) slice, shared by every group's
    weighted mean and percentiles over it.

    The groups' float64 weights over the whole slice, zeros included, are the
    rows of one (groups x values) matrix. The values are argsorted once for
    all groups (stable, so ties keep the caller's geoid-ascending order).
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self._order = stable_argsort(values)

    def stats(self, weights: np.ndarray, ps: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``weights``, sum(value * weight) / sum(weight), and per p
        the smallest value with positive weight whose cumulative weight
        reaches p times the row's total (see ``weighted_percentile``): the
        means and a (len(ps) x groups) matrix of picks."""
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p must be in [0, 1], got {p}")
        # every row of a C-contiguous matrix is summed pairwise, as a 1-D
        # np.sum of that row alone would be, and accumulated in order
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        totals = weights.sum(axis=1)
        if len(self.values) == 0 or (totals <= 0.0).any():
            raise EmptyPopulationError("total weight is zero")
        # one scratch matrix holds the products, then the ranked cumsum: each
        # large fresh array costs a page fault per 4 kB
        scratch = np.multiply(weights, self.values, out=np.empty_like(weights))
        means = scratch.sum(axis=1) / totals
        # Mathematically a mean lies in [min, max]; clamp away float drift,
        # as Python's max and min would (np.maximum may return -0.0 for 0.0)
        low, high = self.values.min(), self.values.max()
        means = np.where(low > means, low, means)
        means = np.where(high < means, high, means)
        # mode="clip" writes straight into out; "raise" would buffer it
        ranked = weights.take(self._order, axis=1, out=scratch, mode="clip")
        cum = np.cumsum(ranked, axis=1, out=scratch)
        picks = np.empty((len(ps), len(totals)))
        for k, p in enumerate(ps):
            target = (p * totals)[:, None]
            # cum never decreases, so the count of entries below the target is
            # searchsorted(side="left"); a zero target counts those at or
            # below it (side="right"), stepping over zero weights ranked first
            hit = cum < target
            zero = target[:, 0] <= 0.0
            if zero.any():
                hit[zero] = cum[zero] <= target[zero]
            idx = np.count_nonzero(hit, axis=1)
            for row in np.flatnonzero(idx == cum.shape[1]):
                # float drift: the largest value with weight
                idx[row] = np.flatnonzero(weights[row].take(self._order))[-1]
            picks[k] = self.values.take(self._order.take(idx))
        return means, picks

    def mean(self, weights: np.ndarray) -> float:
        """sum(value * weight) / sum(weight) of one group."""
        return float(self.stats(np.reshape(weights, (1, -1)), ())[0][0])

    def percentiles(self, weights: np.ndarray, ps: Sequence[float]) -> list[float]:
        """Per p, the percentile pick of one group (see ``stats``)."""
        return self.stats(np.reshape(weights, (1, -1)), ps)[1][:, 0].tolist()


class AlignedTable(NamedTuple):
    """RAC/WAC tract table joined against a tract surface, geoid-ascending.

    ``surface_geoids`` are the surface's int64 tract ids (ascending) and
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
    """Resolve each row of ``table`` against the surface's tract ids (ascending).

    Returns the ids and their concentrations; per key array, the positions
    among the ids of the rows whose every tract resolved; those rows'
    (totals, codes, counts), without codes when there are none; and the
    worker total of the other rows.
    """
    ids = surface.ids
    found = np.ones(len(table.totals), dtype=bool)
    positions = []
    for keys in table.keys:
        pos = np.searchsorted(ids, keys)
        hit = pos < len(ids)
        hit[hit] = ids[pos[hit]] == keys[hit]
        found &= hit
        positions.append(pos)
    codes = table.codes if found.any() else ()
    # compress, unlike a boolean index, keeps the matrix C-contiguous, so the
    # disparity row sums stay pairwise and byte-identical
    rows = (table.totals[found], codes, table.counts[:len(codes)].compress(found, axis=1))
    dropped = int(table.totals[~found].sum())
    return ids, surface.values, [pos[found] for pos in positions], rows, dropped


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
    (int64 tract ids) ascending and an int8 ``codes`` index into ``names``."""

    geoids: np.ndarray
    codes: np.ndarray
    names: tuple[str, ...]


def tract_strata(classification: Mapping[str, str]) -> TractStrata:
    """Encode a {geoid: stratum} classification as a TractStrata."""
    geoids = sorted(classification)
    names = tuple(sorted(set(classification.values())))
    index = {name: k for k, name in enumerate(names)}
    codes = np.array([index[classification[g]] for g in geoids], dtype=np.int8)
    return TractStrata(np.array(geoids, dtype=np.int64), codes, names)


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


class GroupExposures(NamedTuple):
    """The exposures of one table's groups: a row per (stratum, group) with
    positive weight, in stratum then schema order, the total population
    first. ``mean``, ``p10`` and ``p90`` are (loci x rows) float64 matrices,
    one row per entry of ``loci``; ``weight`` is each row's worker count.
    Tables of tract pairs also carry ``error``, the H-minus-HW mean, and
    ``percent_error``, NaN where the H mean is zero."""

    year: int
    characteristic: list[str]
    label: list[str]
    stratum: list[str]
    loci: tuple[str, ...]
    mean: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    weight: np.ndarray
    error: np.ndarray | None = None
    percent_error: np.ndarray | None = None

    @property
    def group_keys(self) -> list[str]:
        return list(map(format_group, self.characteristic, self.label))

    def checked(self) -> GroupExposures:
        """This frame, once every row has p10 <= p90 at each locus and a
        non-negative weight; the first failing row (and locus) is named."""
        bad = (self.p10 > self.p90) | (self.weight < 0)
        if bad.any():
            row, k = np.argwhere(bad.T)[0]
            if self.p10[k, row] > self.p90[k, row]:
                raise ValueError(f"p10 {float(self.p10[k, row])} > p90 {float(self.p90[k, row])}")
            raise ValueError(f"negative weight {float(self.weight[row])}")
        return self


def _group_exposures(table: AlignedTable | ResolvedPairs, schemas: Sequence[GroupSchema],
                     loci: dict[str, np.ndarray], classification: TractStrata | None,
                     strata: Sequence[str], skipped: str) -> GroupExposures:
    """Every group's weight and, per locus, its mean, p10 and p90 over that
    locus's row values: one weight matrix and one kernel call per (locus,
    stratum). Groups with zero weight in a stratum are left out with a log
    entry, ``skipped`` % (group key, stratum)."""
    groups = list(iter_groups(schemas, table))
    # float64 sums of worker counts are exact below 2**53
    counts = np.vstack([group_counts for *_, group_counts in groups], dtype=np.float64)
    characteristics, labels, strata_column = [], [], []
    weights = [np.empty(0)]
    means, picks = [np.empty((len(loci), 0))], [np.empty((len(loci), 2, 0))]
    for stratum, mask in stratum_masks(table, classification, strata).items():
        w = counts.compress(mask, axis=1)
        weight = w.sum(axis=1)
        for g in np.flatnonzero(weight == 0):
            logger.debug("skipping zero-weight " + skipped, format_group(*groups[g][:2]), stratum)
        kept = np.flatnonzero(weight)
        if not kept.size:
            continue
        if kept.size < len(w):
            w = w.take(kept, axis=0)
        slices = [ValueSlice(values.compress(mask)).stats(w, (0.10, 0.90))
                  for values in loci.values()]
        means.append(np.array([m for m, _ in slices]))
        picks.append(np.array([p for _, p in slices]))
        weights.append(weight.take(kept))
        characteristics += [groups[g][0] for g in kept]
        labels += [groups[g][1] for g in kept]
        strata_column += [stratum] * kept.size
    picks = np.concatenate(picks, axis=2)
    return GroupExposures(table.year, characteristics, labels, strata_column, tuple(loci),
                          np.concatenate(means, axis=1), picks[:, 0], picks[:, 1],
                          np.concatenate(weights)).checked()


def compute_group_exposures(
    aligned: AlignedTable,
    schemas: Sequence[GroupSchema],
    classification: TractStrata | None = None,
    strata: Sequence[str] = (ALL_STRATUM,),
) -> GroupExposures:
    """Every (group, stratum)'s exposure at the table's locus."""
    return _group_exposures(aligned, schemas, {aligned.locus: aligned.concentrations},
                            classification, strata, f"group %s ({aligned.locus}, %s)")


def compute_hw_exposures(
    pairs: ResolvedPairs,
    schemas: Sequence[GroupSchema],
    weights: HWWeights = DEFAULT_HW_WEIGHTS,
    classification: TractStrata | None = None,
    strata: Sequence[str] = (ALL_STRATUM,),
) -> GroupExposures:
    """Every (group, stratum)'s exposure at loci H, W, and HW over the OD
    population, with the H-minus-HW error.

    H, W, and HW are aggregated over the same resolvable pairs, so the error
    identity error = work_fraction * (H - W) holds to float precision. Strata
    are assigned by residential (home-tract) location.
    """
    if len(pairs.totals) == 0 or int(pairs.totals.sum()) == 0:
        raise EmptyPopulationError("no resolvable OD pairs with workers")
    loci = {
        LOCUS_HOME: pairs.home_values,
        LOCUS_WORK: pairs.work_values,
        LOCUS_BLEND: hw_blend(pairs.home_values, pairs.work_values, weights),
    }
    frame = _group_exposures(pairs, schemas, loci, classification, strata, "OD group %s (%s)")
    h_mean, hw_mean = frame.mean[0], frame.mean[2]
    error = h_mean - hw_mean
    undefined = np.flatnonzero(h_mean == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        percent = np.where(h_mean != 0.0, 100.0 * error / h_mean, math.nan)
    for row in undefined:
        logger.debug("H mean is zero for OD group %s (%s); percent error undefined",
                     format_group(frame.characteristic[row], frame.label[row]),
                     frame.stratum[row])
    if undefined.size:
        logger.warning("year %d: H mean is zero in %d OD group/stratum slice(s); "
                       "their percent error is NaN", pairs.year, undefined.size)
    return frame._replace(error=error, percent_error=percent)
