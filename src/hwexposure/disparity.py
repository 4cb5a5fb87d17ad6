"""Between-group disparity and inequality metrics: extreme-group gaps,
composition-ranked exposure curves, concentration-decile population shares,
the Atkinson index on inverse concentrations, state-normalized disparities,
and policy-threshold exceedance shares with their coefficient of variation.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSliceError
from .exposure import format_group


class PercentileBinCurves(NamedTuple):
    """Composition-ranked bin curves of several groups over one tract set."""

    n_tracts: tuple[int, ...]  # per bin, the same for every group
    exposure: np.ndarray  # (groups, bins); NaN where a bin holds no group population


class CompositionRanking(NamedTuple):
    """Each group's tracts sorted by its population fraction, as C-contiguous
    (groups, tracts) rows."""

    counts: np.ndarray  # group counts
    weighted: np.ndarray  # group counts times tract concentration


class DecileShares(NamedTuple):
    """Concentration-decile population shares of several groups."""

    means: np.ndarray  # (groups, 10) mean group fraction per decile
    difference: np.ndarray  # per group, top decile minus bottom decile


def extreme_group_gap(groups: Sequence[str], means: np.ndarray,
                      national_mean: float) -> tuple[str, str, float, float, float]:
    """Gap between the highest- and lowest-mean groups of one characteristic:
    the most and least exposed group, the absolute and percent difference,
    and the ratio of their means.

    Ties are broken by ascending group label. percent_diff is expressed as a
    percentage of the supplied national mean.
    """
    if len(groups) < 2:
        raise DegenerateSliceError(f"need >= 2 groups, got {len(groups)}")
    if national_mean <= 0.0:
        raise DegenerateSliceError(f"national mean must be positive, got {national_mean}")
    order = sorted(range(len(groups)), key=groups.__getitem__)
    ranked = np.asarray(means, dtype=np.float64).take(order)
    most, least = order[int(np.argmax(ranked))], order[int(np.argmin(ranked))]
    high, low = float(means[most]), float(means[least])
    diff = high - low
    return (groups[most], groups[least], diff, 100.0 * diff / national_mean,
            high / low if low > 0.0 else math.inf)


def _bin_sizes(n_items: int, n_bins: int) -> list[int]:
    # As equal as possible; the remainder goes to the leading bins.
    base, extra = divmod(n_items, n_bins)
    return [base + 1 if i < extra else base for i in range(n_bins)]


def _bin_sums(ranked: np.ndarray, n_bins: int) -> np.ndarray:
    """Row sums of ``ranked`` over the column runs of ``_bin_sizes``: one
    reshaped sum over the leading bins of base + 1 columns, one over the rest.
    Each bin is still numpy's pairwise sum of a contiguous run, bit for bit
    a 1-D sum over that bin's tracts."""
    n_rows, n_items = ranked.shape
    base, extra = divmod(n_items, n_bins)
    split = extra * (base + 1)
    return np.hstack((ranked[:, :split].reshape(n_rows, extra, base + 1).sum(axis=2),
                      ranked[:, split:].reshape(n_rows, n_bins - extra, base).sum(axis=2)))


def rank_by_composition(
    counts: np.ndarray,
    concentrations: np.ndarray,
    order: np.ndarray,
) -> CompositionRanking:
    """Each group's counts and count-weighted concentrations in its rank order.

    ``counts`` is (groups, tracts) with tracts in geoid-ascending order and
    ``concentrations`` is per tract. Row g of ``order`` lists tract columns
    by group g's population fraction, ties by geoid: ``stable_argsort`` of
    the fractions, or its rows compressed to a subset of the tracts.
    """
    # The gathered rows are C-contiguous, so every bin sum over a row slice
    # is numpy's pairwise sum of the same values in the same order as a 1-D
    # sum over that bin's tracts.
    ranked = np.ascontiguousarray(
        np.take_along_axis(np.asarray(counts, dtype=np.float64), order, axis=1)
    )
    weighted = np.asarray(concentrations, dtype=np.float64)[order]
    weighted *= ranked
    return CompositionRanking(counts=ranked, weighted=weighted)


def percentile_bin_curve(ranking: CompositionRanking, n_bins: int) -> PercentileBinCurves:
    """Group-weighted exposure per composition-ranked tract bin, for every
    group at once.

    The ranked tracts are split into ``n_bins`` contiguous bins; each bin's
    exposure is the group-count-weighted mean concentration over its tracts.
    """
    n_tracts = ranking.counts.shape[1]
    if n_tracts < n_bins:
        raise DegenerateSliceError(
            f"need >= {n_bins} tracts for {n_bins} bins, got {n_tracts}"
        )
    totals = _bin_sums(ranking.counts, n_bins)
    sums = _bin_sums(ranking.weighted, n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        exposure = np.where(totals > 0.0, sums / totals, math.nan)
    return PercentileBinCurves(n_tracts=tuple(_bin_sizes(n_tracts, n_bins)), exposure=exposure)


def decile_contrast(curves: PercentileBinCurves) -> np.ndarray:
    """Top-bin exposure minus bottom-bin exposure per group: the decile
    contrast of a 10-bin curve."""
    return curves.exposure[:, -1] - curves.exposure[:, 0]


def population_share_by_concentration_decile(
    fractions: np.ndarray,
    order: np.ndarray,
) -> DecileShares:
    """Mean group fraction per concentration-ranked tract decile, and each
    group's top-minus-bottom decile difference.

    ``fractions`` is (groups, tracts) with tracts in geoid-ascending order.
    ``order`` lists the tracts to rank, by concentration with ties by geoid:
    ``stable_argsort`` of the concentrations, or it compressed to a subset of
    the tracts. They are split into 10 bins; each bin's value is the
    unweighted mean of the per-tract group fractions.
    """
    ranked = np.asarray(fractions, dtype=np.float64).take(order, axis=1)
    n_tracts = ranked.shape[1]
    if n_tracts < 10:
        raise DegenerateSliceError(f"need >= 10 tracts, got {n_tracts}")
    # np.mean is the pairwise sum divided by the count
    means = _bin_sums(ranked, 10) / _bin_sizes(n_tracts, 10)
    return DecileShares(means=means, difference=means[:, -1] - means[:, 0])


def _atkinson_curve(shares: Sequence[float], values: Sequence[float],
                    epsilons: Sequence[float]) -> list[float]:
    """Between-group Atkinson index at each aversion parameter of
    ``epsilons`` (each >= 0, by the config rule), over a slice of groups.

    ``shares`` are population fractions (positive, summing to 1) and
    ``values`` positive group values, one per share, as ``atkinson_pipeline``
    gives them. epsilon = 1 uses the geometric-mean limit.
    """
    f = np.asarray(shares, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if f.size == 0:
        raise DegenerateSliceError(f"need matching non-empty shares/values, got {f.size}/{y.size}")
    f = f / float(np.sum(f))
    ratio = y / float(np.sum(f * y))
    curve = []
    for epsilon in epsilons:
        if epsilon == 0.0:
            curve.append(0.0)  # reduces to 1 - sum(f*y)/ybar, identically zero
            continue
        if epsilon == 1.0:
            ai = 1.0 - math.exp(float(np.sum(f * np.log(ratio))))
        else:
            power = 1.0 - epsilon
            ai = 1.0 - float(np.sum(f * ratio ** power)) ** (1.0 / power)
        curve.append(max(ai, 0.0))
    return curve


def atkinson_pipeline(characteristics: Sequence[str], groups: Sequence[str],
                      weights: np.ndarray, means: np.ndarray,
                      epsilons: Sequence[float]) -> list[float]:
    """Atkinson index on inverse group-mean concentrations per aversion
    value, over the groups of one (year, characteristic, locus, stratum).

    Groups are taken in label order, each weighted by its share of the
    slice's workers. Inverting the concentrations makes larger index values
    mean worse inequality, matching the income-style convention.
    """
    order = sorted(range(len(groups)), key=groups.__getitem__)
    means = np.asarray(means, dtype=np.float64).take(order)
    bad = np.flatnonzero(means <= 0.0)
    if bad.size:
        g = order[bad[0]]
        raise DegenerateSliceError(
            f"group {format_group(characteristics[g], groups[g])} has "
            f"non-positive mean {float(means[bad[0]])}; cannot invert concentrations"
        )
    weights = np.asarray(weights, dtype=np.float64).take(order)
    total = sum(weights.tolist())
    return _atkinson_curve(weights / total, 1.0 / means, epsilons)


def state_disparity(group_mean: float | np.ndarray, state_mean: float,
                    national_mean: float) -> float | np.ndarray:
    """Group-minus-state exposure gap, normalized by the national mean;
    ``group_mean`` may be an array of group means."""
    if national_mean <= 0.0:
        raise DegenerateSliceError(f"national mean must be positive, got {national_mean}")
    return (group_mean - state_mean) / national_mean


def threshold_share(values: np.ndarray, weights: np.ndarray, threshold: float) -> np.ndarray:
    """Percent of each group's weighted population with value strictly above
    threshold: ``weights`` is a (groups x values) matrix, one group per row,
    and each row's percent comes from one compress and one row sum of it."""
    # each row of a C-contiguous matrix is summed pairwise, as a 1-D sum would be
    wts = np.ascontiguousarray(weights, dtype=np.float64)
    total = wts.sum(axis=1)
    if (total <= 0.0).any():
        raise DegenerateSliceError("total weight is zero")
    return 100.0 * wts.compress(values > threshold, axis=1).sum(axis=1) / total


def cov_of_shares(qs: Sequence[float]) -> float:
    """Coefficient of variation of per-group exceedance shares.

    Uses the population variance (divide by the group count): the groups are
    the full population of interest, not a sample.
    """
    q = np.asarray(qs, dtype=np.float64)
    if q.size < 2:
        raise DegenerateSliceError(f"need >= 2 groups, got {q.size}")
    mean = float(np.mean(q))
    if mean <= 0.0:
        raise DegenerateSliceError("mean exceedance share is zero; CoV undefined")
    return math.sqrt(float(np.var(q))) / mean
