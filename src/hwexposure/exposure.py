"""Population-weighted exposure statistics: home (H), work (W), and the
time-weighted home-work blend (HW), plus the H-minus-HW misclassification
error, for the total population and demographic subgroups.

Each (table, stratum) slice's values are argsorted once, ties in any order,
and each group with workers in it is one call of the 1-D kernel
``slice_stats``: the group's counts times the values, summed pairwise in row
order, and one cumsum of its counts in value order for the percentiles. No
(groups x rows) matrix is built. An OD frame holds HW alone; its error's H
means are the same weighted sums over the home values, which need no sort.
A table's results are one columnar ``GroupExposures`` frame, deterministic
for any thread count upstream.
An ``AlignedTable``'s ``index`` points into the run's tract index, which
every year's ``TractSurface`` spans; a row's stratum is the surface's code of
its first tract, and its groups are named by the table's category codes.
"""
from __future__ import annotations

import logging
import math
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import GROUPS, RESIDENCE, WorkerTable
from .zonal import RURAL, STRATA, URBAN, TractSurface

logger = logging.getLogger(__name__)

LOCUS_HOME = "H"
LOCUS_WORK = "W"
LOCUS_BLEND = "HW"
ALL_STRATUM = "all"
ALL_GROUP = ("all", "all")  # (characteristic, group label) of the total population


def format_group(characteristic: str, group: str) -> str:
    return "all" if (characteristic, group) == ALL_GROUP else f"{characteristic}:{group}"


def hw_blend(h, w, work_fraction: float):
    """Time-weighted blend of home and work concentrations (scalars or arrays).

    Computed as h + work_fraction * (w - h), which equals
    (1 - work_fraction) * h + work_fraction * w, and keeps hw_blend(h, h) == h
    exact in floating point. On numpy arrays it is the same expression
    element-wise, so per-pair blends match the scalar op bit for bit.
    """
    return h + work_fraction * (w - h)


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


def _clamp(mean, low, high):
    """Mathematically a mean lies in [low, high]; clamp away float drift,
    as Python's max and min would (np.maximum may return -0.0 for 0.0)."""
    return low if low > mean else high if high < mean else mean


def slice_stats(values: np.ndarray, order: np.ndarray, weights: np.ndarray, total,
                ps: Sequence[float]) -> tuple[float, list[float]]:
    """One group's statistics over one (locus, stratum) slice: ``values``,
    an ascending ``order`` of them and the group's float64 worker counts
    ``weights`` over the whole slice, zeros included, whose sum ``total`` is
    positive. Returns sum(value * weight) / total, clamped to the values'
    range, and per p in [0, 1] the smallest value with positive weight whose
    cumulative weight reaches p * total, with no interpolation. Ties may be in
    any order, as a tie run's exact cumulative weight ends on one integer,
    provided no value is -0.0 (it ties with 0.0 but prints apart)."""
    # a 1-D float64 product is summed pairwise, in the slice's row order
    mean = _clamp(np.multiply(weights, values).sum() / total,
                  values[order[0]], values[order[-1]])
    # counts sum exactly, so the cumsum ends at the total, which p * total never passes
    cum = np.cumsum(weights.take(order))
    # a zero target (p = 0) steps over the zero weights ranked first
    return mean, [values[order[cum.searchsorted(p * total, "left" if p > 0 else "right")]]
                  for p in ps]


class AlignedTable(NamedTuple):
    """A worker table joined against one year's tract surface, key-ascending.

    Each key of the table has a locus in ``loci`` (``("H",)`` for RAC,
    ``("W",)`` for WAC, ``("H", "W")`` for OD) and an int64 array in
    ``index``: each row's tract as a position in the run's tract index,
    ``surface.ids``. The first key's locus is the table's ``locus``, and its
    tract's code in ``surface.strata`` is a row's stratum. ``codes`` (category
    columns in schema order, each naming a group) and the int64 (codes x rows)
    ``counts`` are empty when no row resolved.
    """

    surface: TractSurface
    loci: tuple[str, ...]
    index: tuple[np.ndarray, ...]
    totals: np.ndarray
    codes: tuple[str, ...]
    counts: np.ndarray
    dropped_weight: int

    @property
    def year(self) -> int:
        return self.surface.year

    @property
    def locus(self) -> str:
        return self.loci[0]

    @property
    def geoids(self) -> np.ndarray:
        """The int64 tract id of each row's first key."""
        return self.surface.ids.take(self.index[0])

    def values(self, locus: str) -> np.ndarray:
        """Each row's concentration at ``locus``, gathered from the surface."""
        return self.surface.values.take(self.index[self.loci.index(locus)])


def _join(surface: TractSurface, table: WorkerTable, loci: tuple[str, ...]) -> AlignedTable:
    """Resolve each row of ``table`` against the run's tract ids (ascending),
    keeping the rows whose every tract is valued this year; the worker total
    of the others is the table's ``dropped_weight``."""
    ids = surface.ids
    found = np.ones(len(table.totals), dtype=bool)
    positions = []
    for keys in table.keys:
        pos = np.searchsorted(ids, keys)
        hit = pos < len(ids)
        hit[hit] = (ids[pos[hit]] == keys[hit]) & ~np.isnan(surface.values[pos[hit]])
        found &= hit
        positions.append(pos)
    codes = table.codes if found.any() else ()
    # compress, unlike a boolean index, keeps the matrix C-contiguous, so the
    # disparity row sums stay pairwise and byte-identical
    return AlignedTable(surface, loci, tuple(pos[found] for pos in positions),
                        table.totals[found], codes,
                        table.counts[:len(codes)].compress(found, axis=1),
                        int(table.totals[~found].sum()))


def align_table(surface: TractSurface, table: WorkerTable, role: str) -> AlignedTable:
    """Join a RAC/WAC tract table to the surface, dropping unresolvable
    tracts.

    The locus is H for residence tables and W for workplace tables.
    """
    return _join(surface, table, (LOCUS_HOME if role == RESIDENCE else LOCUS_WORK,))


def resolve_pairs(surface: TractSurface, od: WorkerTable) -> AlignedTable:
    """Join OD tract pairs to the surface, dropping unresolvable pairs."""
    return _join(surface, od, (LOCUS_HOME, LOCUS_WORK))


def reported_strata(surface: TractSurface) -> tuple[str, ...]:
    """The strata a run reports, in report order: ``all``, then urban and
    rural when its surface carries stratum codes."""
    return (ALL_STRATUM,) if surface.strata is None else (ALL_STRATUM, URBAN, RURAL)


def stratum_masks(table: AlignedTable) -> dict[str, np.ndarray]:
    """Boolean row mask per reported stratum, by the surface's stratum code
    of each row's first (RAC and OD: home) tract."""
    masks = {ALL_STRATUM: np.ones(len(table.totals), dtype=bool)}
    if table.surface.strata is not None:
        codes = table.surface.strata.take(table.index[0])
        for stratum in reported_strata(table.surface)[1:]:
            masks[stratum] = codes == STRATA.index(stratum)
    return masks


def iter_groups(table: AlignedTable):
    """(characteristic, label, counts) for the total population, then the
    group of each of the table's codes, in their (schema) order."""
    yield ALL_GROUP[0], ALL_GROUP[1], table.totals
    for code, counts in zip(table.codes, table.counts):
        yield (*GROUPS[code], counts)


class GroupExposures(NamedTuple):
    """The exposures of one table's groups at its ``locus``: a row per
    (stratum, group) with positive weight, in stratum then schema order, the
    total population first. ``mean``, ``p10`` and ``p90`` are float64 columns,
    p10 <= p90 as both are picked from one ascending order; ``weight`` is each
    row's worker count, a sum of the reader's non-negative counts. Tables of
    tract pairs (locus HW) also carry ``error``, the H-minus-HW mean, and
    ``percent_error``, NaN where the H mean is zero."""

    year: int
    characteristic: list[str]
    label: list[str]
    stratum: list[str]
    locus: str
    mean: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    weight: np.ndarray
    error: np.ndarray | None = None
    percent_error: np.ndarray | None = None

    @property
    def group_keys(self) -> list[str]:
        return list(map(format_group, self.characteristic, self.label))


def _group_exposures(table: AlignedTable, locus: str, values: np.ndarray,
                     home: np.ndarray | None = None) -> GroupExposures:
    """Every group's weight and its mean, p10 and p90 of the rows' ``values``
    at ``locus``: one kernel call per (stratum, group) with workers, over the
    stratum's values sorted once. Given each row's ``home`` value, it also
    holds the error (H mean minus mean) and its percent."""
    keys, stats, h_means = [], [], []  # keys: (characteristic, label, stratum)
    for stratum, mask in stratum_masks(table).items():
        v = values.compress(mask)
        v += 0.0  # -0.0 reads as 0.0: the two tie in the sort but print apart
        order = np.argsort(v)
        if home is not None:
            h = home.compress(mask)
            h_low, h_high = h.min(initial=np.inf), h.max(initial=-np.inf)
        for characteristic, label, group_counts in iter_groups(table):
            # float64 sums of worker counts are exact below 2**53
            weights = group_counts.compress(mask).astype(np.float64)
            total = weights.sum()
            if not total:
                continue
            mean, picks = slice_stats(v, order, weights, total, (0.10, 0.90))
            stats.append((mean, *picks, total))
            if home is not None:
                h_means.append(_clamp(np.multiply(weights, h).sum() / total, h_low, h_high))
            keys.append((characteristic, label, stratum))
    characteristics, labels, strata_column = ([key[k] for key in keys] for k in range(3))
    # (mean, p10, p90, weight) columns, each C-contiguous
    columns = np.array(stats, dtype=np.float64).reshape(-1, 4).T.copy()
    frame = GroupExposures(table.year, characteristics, labels, strata_column, locus, *columns)
    if home is None:
        return frame
    h_mean = np.array(h_means, dtype=np.float64)
    error = h_mean - frame.mean
    undefined = np.flatnonzero(h_mean == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        percent = np.where(h_mean != 0.0, 100.0 * error / h_mean, math.nan)
    for row in undefined:
        logger.debug("H mean is zero for OD group %s (%s); percent error undefined",
                     format_group(frame.characteristic[row], frame.label[row]),
                     frame.stratum[row])
    if undefined.size:
        logger.warning("year %d: H mean is zero in %d OD group/stratum slice(s); "
                       "their percent error is NaN", table.year, undefined.size)
    return frame._replace(error=error, percent_error=percent)


def compute_group_exposures(aligned: AlignedTable) -> GroupExposures:
    """Every (group, stratum)'s exposure at the table's locus."""
    return _group_exposures(aligned, aligned.locus, aligned.values(aligned.locus))


def compute_hw_exposures(pairs: AlignedTable, work_fraction: float) -> GroupExposures:
    """Every (group, stratum)'s HW exposure over the OD population, with the
    H-minus-HW error: one sort per stratum, for the HW percentiles.

    The H means are taken over the same resolvable pairs and weights, so the
    error identity error = work_fraction * (H - W) holds to float precision.
    Strata are assigned by residential (home-tract) location.
    """
    home = pairs.values(LOCUS_HOME)
    return _group_exposures(pairs, LOCUS_BLEND,
                            hw_blend(home, pairs.values(LOCUS_WORK), work_fraction), home)
