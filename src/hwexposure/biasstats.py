"""Classical measurement-error analysis and rank-sum comparison.

The surrogate exposure Z is the home-based value, the reference X is the
home-work blend, and the error E = Z - X. Moments are worker-weighted and
population-normalized (divide by the summed weight, not weight - 1): the
worker table is a census of the modeled population, not a sample.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSliceError


class ErrorMoments(NamedTuple):
    """Weighted second moments of the classical error model."""

    sigma2: float  # variance of the reference X
    phi: float     # covariance of (X, E)
    omega2: float  # variance of the error E


class RankSumResult(NamedTuple):
    u: float       # rank-sum statistic of the first sample
    z: float       # tie-corrected normal score with continuity correction
    p_value: float  # two-sided


def error_moments(surrogate: Sequence[float], reference: Sequence[float],
                  weights: Sequence[float]) -> ErrorMoments:
    """Weighted moments of X and E = Z - X over paired observations, one
    weight per pair, some of them positive (the bias stage skips a group
    without workers).

    Two-pass central moments over geoid-sorted inputs keep the computation
    deterministic and Cauchy-Schwarz-consistent.
    """
    z = np.asarray(surrogate, dtype=np.float64)
    x = np.asarray(reference, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    keep = w > 0
    z, x, w = z[keep], x[keep], w[keep]
    total = float(np.sum(w))
    e = z - x
    mean_x = float(np.sum(w * x)) / total
    mean_e = float(np.sum(w * e)) / total
    dx = x - mean_x
    de = e - mean_e
    sigma2 = float(np.sum(w * dx * dx)) / total
    omega2 = float(np.sum(w * de * de)) / total
    phi = float(np.sum(w * dx * de)) / total
    if sigma2 == 0.0:
        raise DegenerateSliceError("reference exposure has zero variance")
    return ErrorMoments(sigma2=sigma2, phi=phi, omega2=omega2)


def bias_factor(moments: ErrorMoments) -> float:
    """Multiplier on regression slopes when the surrogate replaces the reference.

    (sigma2 + phi) / (sigma2 + 2 phi + omega2); the denominator is the
    variance of the surrogate and must be positive.
    """
    denominator = moments.sigma2 + 2.0 * moments.phi + moments.omega2
    if denominator <= 0.0:
        raise DegenerateSliceError(f"surrogate variance must be positive, got {denominator}")
    return (moments.sigma2 + moments.phi) / denominator


# The normal approximation is poor for very small samples (it can be off by
# more than 0.1 from the permutation p when one sample has a single element),
# so untied samples with at most this many pooled values take the exact
# permutation p, the same policy R's wilcox.test uses. Production-scale inputs
# always take the normal path.
_EXACT_MAX_N = 25


_INT64_LIMIT = 2 ** 63


class PooledSamples:
    """Two value arrays pooled and sorted once, so that every weighting of
    them by a pair of count rows is a rank-sum test over per-run tallies
    (``wilcoxon_rank_sum_grouped``). ``run_a`` and ``run_b`` number each
    value's tie run of ``n_runs`` in ascending order (0.0 and -0.0 tie); the
    order within a run never matters, so the sort need not be stable.
    """

    def __init__(self, values_a: Sequence[float], values_b: Sequence[float]):
        pooled = np.concatenate((values_a, values_b), dtype=np.float64)
        order = np.argsort(pooled)
        ordered = pooled.take(order)
        runs = np.empty_like(order)
        runs[order] = np.cumsum(np.r_[0, ordered[1:] != ordered[:-1]])
        self.run_a, self.run_b = runs[:len(values_a)], runs[len(values_a):]
        self.n_runs = int(runs.max(initial=-1)) + 1


def wilcoxon_rank_sum_grouped(pooled: PooledSamples, counts_a: Sequence[int],
                              counts_b: Sequence[int]) -> RankSumResult:
    """Rank-sum test of the pooled first values weighted by ``counts_a``
    against the second weighted by ``counts_b`` (one non-negative count per
    value, truncated to an integer; the bias stage gives each side some
    worker), as if each value were expanded ``count`` times: mid-ranks for
    ties and a tie-corrected normal z with 0.5 continuity correction. The p
    is exact for untied samples with at most ``_EXACT_MAX_N`` pooled values
    and the normal tail otherwise.

    Each run's workers on either side come from one ``np.add.at`` scatter,
    and the totals, rank sum and tie term are int64 sums when their bounds
    allow it, Python ints otherwise, so every count stays exact and
    U_a + U_b = n_a * n_b holds exactly.
    """
    ca = np.asarray(counts_a, dtype=np.int64)
    cb = np.asarray(counts_b, dtype=np.int64)
    if max(int(ca.max(initial=0)), int(cb.max(initial=0))) * (ca.size + cb.size) >= _INT64_LIMIT:
        ca, cb = ca.astype(object), cb.astype(object)
    n_a, n_b = int(ca.sum()), int(cb.sum())
    n = n_a + n_b
    if n * (2 * n + 1) >= _INT64_LIMIT:  # bounds 2 * rank sum of a
        ca, cb = ca.astype(object), cb.astype(object)
    t_a = np.zeros(pooled.n_runs, dtype=ca.dtype)
    np.add.at(t_a, pooled.run_a, ca)
    t = t_a.copy()
    np.add.at(t, pooled.run_b, cb)
    below = np.cumsum(t) - t  # workers ranked below each run
    two_rank_sum_a = int((t_a * (2 * below + t + 1)).sum())
    max_t = int(t.max())
    tied = t.compress(t > 1)
    # sum(t^3 - t) <= max_t^2 * n, and max_t <= n, so under this bound
    # every cube also fits int64 (max_t <= 2,097,151)
    if max_t * max_t * n >= _INT64_LIMIT:
        tied = tied.astype(object)
    tie_cubes = int((tied * tied * tied - tied).sum())
    u = (two_rank_sum_a - n_a * (n_a + 1)) / 2.0
    mean_u = n_a * n_b / 2.0
    var_u = (n_a * n_b / 12.0) * ((n + 1) - tie_cubes / (n * (n - 1)))
    if var_u <= 0.0:
        return RankSumResult(u=u, z=0.0, p_value=1.0)
    deviation = u - mean_u
    if deviation > 0.0:
        z = (deviation - 0.5) / math.sqrt(var_u)
    elif deviation < 0.0:
        z = (deviation + 0.5) / math.sqrt(var_u)
    else:
        z = 0.0
    if max_t == 1 and n <= _EXACT_MAX_N:
        p = _exact_two_sided_p(n_a, n_b, u)
    else:
        p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
    return RankSumResult(u=u, z=z, p_value=p)


def _exact_two_sided_p(n_a: int, n_b: int, u: float) -> float:
    """Permutation p for untied samples: P(|U - mean| >= |u - mean|).

    ``counts[v]`` enumerates rank subsets of size n_a with statistic v.
    """
    counts = _u_counts(n_a, n_b)
    # work with 2U as integers: |2u - n_a*n_b| is exact
    observed = abs(int(round(2 * u)) - n_a * n_b)
    hits = sum(c for v, c in enumerate(counts) if abs(2 * v - n_a * n_b) >= observed)
    return hits / math.comb(n_a + n_b, n_a)


def _u_counts(n_a: int, n_b: int) -> list[int]:
    """The rank subsets of size n_a by U value: the coefficients of the
    Gaussian binomial, the product over i = 1..n_a of (1 - q^(n_b + i)) /
    (1 - q^i), one factor at a time in Python ints."""
    counts = [1] + [0] * (n_a * n_b)
    for i in range(1, n_a + 1):
        for v in range(n_a * n_b, n_b + i - 1, -1):
            counts[v] -= counts[v - n_b - i]
        for v in range(i, n_a * n_b + 1):
            counts[v] += counts[v - i]
    return counts
