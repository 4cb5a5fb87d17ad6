"""Classical measurement-error analysis and rank-sum comparison.

The surrogate exposure Z is the home-based value, the reference X is the
home-work blend, and the error E = Z - X. Moments are worker-weighted and
population-normalized (divide by the summed weight, not weight - 1): the
worker table is a census of the modeled population, not a sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateVarianceError, DomainError, EmptyPopulationError
from .exposure import stable_argsort


@dataclass(frozen=True)
class ErrorMoments:
    """Weighted second moments of the classical error model."""

    sigma2: float  # variance of the reference X
    phi: float     # covariance of (X, E)
    omega2: float  # variance of the error E


@dataclass(frozen=True)
class RankSumResult:
    u: float       # rank-sum statistic of the first sample
    z: float       # tie-corrected normal score with continuity correction
    p_value: float  # two-sided


def error_moments(surrogate: Sequence[float], reference: Sequence[float],
                  weights: Sequence[float]) -> ErrorMoments:
    """Weighted moments of X and E = Z - X over paired observations.

    Two-pass central moments over geoid-sorted inputs keep the computation
    deterministic and Cauchy-Schwarz-consistent.
    """
    z = np.asarray(surrogate, dtype=np.float64)
    x = np.asarray(reference, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (z.shape == x.shape == w.shape):
        raise ContractError("surrogate, reference and weights must align")
    keep = w > 0
    z, x, w = z[keep], x[keep], w[keep]
    total = float(np.sum(w))
    if z.size == 0 or total <= 0.0:
        raise EmptyPopulationError("total weight is zero")
    e = z - x
    mean_x = float(np.sum(w * x)) / total
    mean_e = float(np.sum(w * e)) / total
    dx = x - mean_x
    de = e - mean_e
    sigma2 = float(np.sum(w * dx * dx)) / total
    omega2 = float(np.sum(w * de * de)) / total
    phi = float(np.sum(w * dx * de)) / total
    if sigma2 == 0.0:
        raise DegenerateVarianceError("reference exposure has zero variance")
    return ErrorMoments(sigma2=sigma2, phi=phi, omega2=max(omega2, 0.0))


def bias_factor(moments: ErrorMoments) -> float:
    """Multiplier on regression slopes when the surrogate replaces the reference.

    (sigma2 + phi) / (sigma2 + 2 phi + omega2); the denominator is the
    variance of the surrogate and must be positive.
    """
    denominator = moments.sigma2 + 2.0 * moments.phi + moments.omega2
    if denominator <= 0.0:
        raise DomainError(f"surrogate variance must be positive, got {denominator}")
    return (moments.sigma2 + moments.phi) / denominator


# The normal approximation is poor for very small samples (it can be off by
# more than 0.1 from the permutation p when one sample has a single element),
# so "auto" switches to exact enumeration for small untied samples, the same
# policy R's wilcox.test uses. Production-scale inputs always take the normal
# path.
_EXACT_MAX_N = 25


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float],
                      method: str = "auto") -> RankSumResult:
    """Rank-sum test of two samples.

    Mid-ranks for ties and a tie-corrected normal z with 0.5 continuity
    correction. ``method`` is "auto" (exact permutation p for untied samples
    with at most 25 pooled values, normal tail otherwise), "normal", or
    "exact" (untied samples only).
    """
    return wilcoxon_rank_sum_grouped(a, [1] * len(a), b, [1] * len(b), method=method)


def wilcoxon_rank_sum_grouped(
    values_a: Sequence[float],
    counts_a: Sequence[int],
    values_b: Sequence[float],
    counts_b: Sequence[int],
    method: str = "auto",
) -> RankSumResult:
    """Rank-sum test on frequency-weighted samples.

    Equivalent to expanding each value ``count`` times; rank sums use exact
    integer arithmetic, so U_a + U_b = n_a * n_b holds exactly.
    """
    return PooledSamples(values_a, values_b).test(counts_a, counts_b, method)


_INT64_LIMIT = 2 ** 63


class PooledSamples:
    """Two value arrays pooled and sorted once, so that every weighting of
    them by a pair of count rows is a rank-sum test over vectorized tallies.

    Equal values form one tie run (0.0 and -0.0 included). Per test, each
    run's count on either side comes from one ``np.add.reduceat`` in the
    shared order, and the rank sum and tie term from int64 sums when their
    bounds allow it, Python ints otherwise, so every count stays exact.
    """

    def __init__(self, values_a: Sequence[float], values_b: Sequence[float]):
        a = np.asarray(values_a, dtype=np.float64)
        b = np.asarray(values_b, dtype=np.float64)
        self._sizes = (len(a), len(b))
        pooled = np.concatenate((a, b))
        self._order = stable_argsort(pooled)
        ordered = pooled.take(self._order)
        run_start = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
        self._starts = np.flatnonzero(run_start)
        self._from_a = self._order < len(a)

    def test(self, counts_a: Sequence[int], counts_b: Sequence[int],
             method: str = "auto") -> RankSumResult:
        """Rank-sum test of the first values weighted by ``counts_a`` against
        the second weighted by ``counts_b`` (counts truncated to integers)."""
        if method not in ("auto", "normal", "exact"):
            raise ContractError(f"unknown method {method!r}")
        ca = np.asarray(counts_a, dtype=np.int64)
        cb = np.asarray(counts_b, dtype=np.int64)
        if (len(ca), len(cb)) != self._sizes:
            raise ContractError("values and counts must align")
        counts = np.concatenate((ca, cb))
        negative = np.flatnonzero(counts < 0)
        if negative.size:
            raise ContractError(f"negative count {int(counts[negative[0]])}")
        if int(counts.max(initial=0)) * len(counts) >= _INT64_LIMIT:
            counts = counts.astype(object)
        n_a = int(counts[:len(ca)].sum())
        n_b = int(counts[len(ca):].sum())
        if n_a == 0 or n_b == 0:
            raise ContractError("both samples must be non-empty")
        n = n_a + n_b
        ordered = counts.take(self._order)
        if n * (2 * n + 1) >= _INT64_LIMIT:  # bounds 2 * rank sum of a
            ordered = ordered.astype(object)
        t = np.add.reduceat(ordered, self._starts)
        t_a = np.add.reduceat(np.where(self._from_a, ordered, 0), self._starts)
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
        untied = max_t == 1
        if method == "exact" or (method == "auto" and untied and n <= _EXACT_MAX_N):
            if not untied:
                raise ContractError("exact method requires untied samples")
            p = _exact_two_sided_p(n_a, n_b, u)
        else:
            p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
        return RankSumResult(u=u, z=z, p_value=p)


def _exact_two_sided_p(n_a: int, n_b: int, u: float) -> float:
    """Permutation p for untied samples: P(|U - mean| >= |u - mean|).

    ``counts[v]`` enumerates rank subsets of size n_a with statistic v, built
    by pooling one rank at a time (largest rank goes to a: adds n_b wins).
    """
    counts = _u_counts(n_a, n_b)
    # work with 2U as integers: |2u - n_a*n_b| is exact
    observed = abs(int(round(2 * u)) - n_a * n_b)
    hits = sum(c for v, c in enumerate(counts) if abs(2 * v - n_a * n_b) >= observed)
    return hits / math.comb(n_a + n_b, n_a)


def _u_counts(n_a: int, n_b: int) -> list[int]:
    counts = {(0, 0): [1]}  # (m, n) -> count of subsets by U value
    for m in range(n_a + 1):
        for n in range(n_b + 1):
            if (m, n) in counts:
                continue
            table = [0] * (m * n + 1)
            if m > 0:
                for v, c in enumerate(counts[(m - 1, n)]):
                    table[v + n] += c
            if n > 0:
                for v, c in enumerate(counts[(m, n - 1)]):
                    table[v] += c
            counts[(m, n)] = table
    return counts[(n_a, n_b)]
