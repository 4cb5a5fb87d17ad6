"""Error-moment, bias-factor, and rank-sum tests with enumeration and
simulated-regression oracles."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwexposure.biasstats import (
    ErrorMoments,
    PooledSamples,
    bias_factor,
    error_moments,
    wilcoxon_rank_sum,
    wilcoxon_rank_sum_grouped,
)
from hwexposure.errors import ContractError, DegenerateVarianceError, DomainError

from helpers import oracle_rank_sum_grouped, with_layout


# ----------------------------------------------------------------------------
# error_moments
# ----------------------------------------------------------------------------

def test_moments_zero_error_limit():
    # surrogate equals reference -> E identically zero
    x = [4.0, 7.0, 9.0]
    moments = error_moments(x, x, [1, 2, 3])
    assert moments.omega2 == 0.0
    assert moments.phi == 0.0
    assert moments.sigma2 > 0.0


def test_moments_direct_arithmetic():
    # X = {1, 3}, E = {0, 2} equally weighted -> all three moments equal 1
    z = [1.0, 5.0]  # Z = X + E
    x = [1.0, 3.0]
    moments = error_moments(z, x, [1, 1])
    assert moments.sigma2 == 1.0
    assert moments.omega2 == 1.0
    assert moments.phi == 1.0


def test_moments_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        error_moments([1.0, 2.0], [3.0, 3.0], [1, 1])


def test_moments_zero_weight():
    from hwexposure.errors import EmptyPopulationError

    with pytest.raises(EmptyPopulationError):
        error_moments([1.0], [1.0], [0])


def test_moments_expansion_oracle():
    rng = random.Random(41)
    x = [rng.uniform(2, 14) for _ in range(300)]
    e = [rng.uniform(-1, 1) + 0.2 * xi for xi in x]
    z = [xi + ei for xi, ei in zip(x, e)]
    w = [rng.randrange(0, 7) for _ in range(300)]
    if sum(w) == 0:
        w[0] = 1
    moments = error_moments(z, x, w)
    big_x = [xi for xi, wi in zip(x, w) for _ in range(wi)]
    big_e = [ei for ei, wi in zip(e, w) for _ in range(wi)]
    n = len(big_x)
    mx = math.fsum(big_x) / n
    me = math.fsum(big_e) / n
    assert moments.sigma2 == pytest.approx(
        math.fsum((v - mx) ** 2 for v in big_x) / n, rel=1e-9
    )
    assert moments.omega2 == pytest.approx(
        math.fsum((v - me) ** 2 for v in big_e) / n, rel=1e-9
    )
    assert moments.phi == pytest.approx(
        math.fsum((a - mx) * (b - me) for a, b in zip(big_x, big_e)) / n, rel=1e-9
    )


@given(st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_moments_cauchy_schwarz(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 40)
    x = [rng.uniform(0, 10) for _ in range(n)]
    if len(set(x)) < 2:
        x[0] += 1.0
    z = [xi + rng.uniform(-2, 2) for xi in x]
    w = [rng.randrange(1, 5) for _ in range(n)]
    m = error_moments(z, x, w)
    assert m.phi * m.phi <= m.sigma2 * m.omega2 * (1.0 + 1e-9) + 1e-15


# ----------------------------------------------------------------------------
# bias_factor
# ----------------------------------------------------------------------------

def test_bias_error_free_limit():
    assert bias_factor(ErrorMoments(sigma2=3.0, phi=0.0, omega2=0.0)) == 1.0


def test_bias_classical_attenuation():
    assert bias_factor(ErrorMoments(sigma2=4.0, phi=0.0, omega2=1.0)) == 0.8


def test_bias_nonpositive_denominator():
    with pytest.raises(DomainError):
        bias_factor(ErrorMoments(sigma2=1.0, phi=-1.0, omega2=0.5))


def test_bias_shift_invariance():
    rng = random.Random(3)
    x = [rng.uniform(0, 10) for _ in range(50)]
    z = [xi + rng.uniform(-1, 1) for xi in x]
    w = [rng.randrange(1, 4) for _ in range(50)]
    base = bias_factor(error_moments(z, x, w))
    shifted = bias_factor(error_moments([zi + 100.0 for zi in z], [xi + 100.0 for xi in x], w))
    assert shifted == pytest.approx(base, rel=1e-9)


def test_bias_nonincreasing_in_omega2_when_phi_zero():
    biases = [
        bias_factor(ErrorMoments(sigma2=4.0, phi=0.0, omega2=om))
        for om in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(0.0 < b <= 1.0 for b in biases)
    assert all(hi <= lo for lo, hi in zip(biases, biases[1:]))


def simulate_slope_ratio(sigma2, phi, omega2, n, seed):
    """Regression oracle: fitted slope on Z divided by fitted slope on X."""
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, math.sqrt(sigma2), size=n)
    alpha = phi / sigma2
    eta_var = omega2 - phi * phi / sigma2
    e = alpha * (x - x.mean()) + rng.normal(0.0, math.sqrt(eta_var), size=n)
    z = x + e
    y = 2.0 * x + rng.normal(0.0, 1.0, size=n)
    slope_z = np.cov(y, z)[0, 1] / np.var(z, ddof=1)
    slope_x = np.cov(y, x)[0, 1] / np.var(x, ddof=1)
    return slope_z / slope_x


@pytest.mark.parametrize("sigma2,phi,omega2", [
    (4.0, 0.0, 1.0),
    (4.0, 1.0, 1.5),
    (4.0, -0.8, 1.0),
    (2.0, 0.5, 0.5),
    (9.0, -1.5, 2.0),
])
def test_bias_monte_carlo_regression_oracle(sigma2, phi, omega2):
    expected = bias_factor(ErrorMoments(sigma2=sigma2, phi=phi, omega2=omega2))
    ratio = simulate_slope_ratio(sigma2, phi, omega2, n=100_000, seed=hash((sigma2, phi, omega2)) % 2**32)
    assert ratio == pytest.approx(expected, rel=0.02)


# ----------------------------------------------------------------------------
# wilcoxon_rank_sum
# ----------------------------------------------------------------------------

def u_statistic(a, b):
    """Direct pair-counting definition, independent of the rank implementation."""
    u = 0.0
    for ai in a:
        for bj in b:
            if ai > bj:
                u += 1.0
            elif ai == bj:
                u += 0.5
    return u


def exact_two_sided_p(a, b):
    """Enumerate all assignments of the pooled values to the two samples."""
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)
    mean_u = n_a * (n - n_a) / 2.0
    observed = abs(u_statistic(a, b) - mean_u)
    hits = 0
    total = 0
    for idx in itertools.combinations(range(n), n_a):
        chosen = set(idx)
        xa = [pooled[i] for i in idx]
        xb = [pooled[i] for i in range(n) if i not in chosen]
        if abs(u_statistic(xa, xb) - mean_u) >= observed - 1e-12:
            hits += 1
        total += 1
    return hits / total


def test_wilcoxon_identical_samples():
    result = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.z == 0.0
    assert result.p_value == 1.0
    assert result.u == 4.5


def test_wilcoxon_disjoint_samples():
    result = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert result.u == 0.0
    assert exact_two_sided_p([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == pytest.approx(0.1)
    # auto method takes the exact path for this untied 6-value input
    assert result.p_value == pytest.approx(0.1)
    normal = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], method="normal")
    assert normal.p_value == pytest.approx(0.1, abs=0.05)


def test_wilcoxon_empty_sample():
    with pytest.raises(ContractError):
        wilcoxon_rank_sum([], [1.0])
    with pytest.raises(ContractError):
        wilcoxon_rank_sum([1.0], [])


def test_wilcoxon_all_tied_degenerate():
    result = wilcoxon_rank_sum([2.0, 2.0], [2.0, 2.0, 2.0])
    assert result.z == 0.0
    assert result.p_value == 1.0


def test_wilcoxon_vs_exact_enumeration_small_samples():
    # Every no-tie rank configuration with n_a + n_b <= 8. The auto method
    # takes the exact permutation path here; the combinatorial oracle is an
    # independent implementation of the same p.
    for n in range(2, 9):
        ranks = list(range(1, n + 1))
        for n_a in range(1, n):
            for combo in itertools.combinations(ranks, n_a):
                a = [float(r) for r in combo]
                b = [float(r) for r in ranks if r not in set(combo)]
                got = wilcoxon_rank_sum(a, b).p_value
                exact = exact_two_sided_p(a, b)
                assert abs(got - exact) <= 0.05, (a, b, got, exact)
                assert got == pytest.approx(exact, rel=1e-12)


def test_wilcoxon_normal_path_envelope():
    # The pure normal approximation stays within 0.05 of exact enumeration
    # once both samples have >= 2 elements and 6+ values are pooled; smaller
    # splits are why the auto method switches to the exact path.
    for n in range(6, 9):
        ranks = list(range(1, n + 1))
        for n_a in range(2, n - 1):
            for combo in itertools.combinations(ranks, n_a):
                a = [float(r) for r in combo]
                b = [float(r) for r in ranks if r not in set(combo)]
                approx = wilcoxon_rank_sum(a, b, method="normal").p_value
                exact = exact_two_sided_p(a, b)
                assert abs(approx - exact) <= 0.05, (a, b, approx, exact)


def test_wilcoxon_exact_method_rejects_ties():
    with pytest.raises(ContractError):
        wilcoxon_rank_sum([1.0, 2.0], [2.0, 3.0], method="exact")
    with pytest.raises(ContractError):
        wilcoxon_rank_sum([1.0], [2.0], method="bogus")


def test_wilcoxon_u_matches_pair_counting():
    rng = random.Random(9)
    for _ in range(30):
        a = [rng.choice([1.0, 2.0, 2.5, 4.0, 6.0]) for _ in range(rng.randrange(1, 8))]
        b = [rng.choice([1.0, 2.0, 2.5, 4.0, 6.0]) for _ in range(rng.randrange(1, 8))]
        assert wilcoxon_rank_sum(a, b).u == u_statistic(a, b)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_wilcoxon_u_complement_identity(seed):
    rng = random.Random(seed)
    a = [rng.choice([1.0, 2.0, 3.0, 5.5, 8.0]) for _ in range(rng.randrange(1, 10))]
    b = [rng.choice([1.0, 2.0, 3.0, 5.5, 8.0]) for _ in range(rng.randrange(1, 10))]
    u_a = wilcoxon_rank_sum(a, b).u
    u_b = wilcoxon_rank_sum(b, a).u
    assert u_a + u_b == len(a) * len(b)
    assert 0.0 <= u_a <= len(a) * len(b)


def test_wilcoxon_grouped_matches_expanded():
    values_a, counts_a = [5.0, 7.0, 9.0], [3, 0, 2]
    values_b, counts_b = [6.0, 7.0], [4, 1]
    grouped = wilcoxon_rank_sum_grouped(values_a, counts_a, values_b, counts_b)
    expanded = wilcoxon_rank_sum(
        [v for v, c in zip(values_a, counts_a) for _ in range(c)],
        [v for v, c in zip(values_b, counts_b) for _ in range(c)],
    )
    assert grouped == expanded


# ----------------------------------------------------------------------------
# PooledSamples: one sort per slice, against the per-test dict tally
# ----------------------------------------------------------------------------

def outcome(test, *args):
    """repr of a rank-sum result, or the class and text of its error."""
    try:
        result = test(*args)
    except ContractError as exc:
        return f"ContractError({exc})"
    return repr((result.u, result.z, result.p_value))


TIED_VALUES = (0.0, -0.0, 0.25, 1.5, 2.0, 7.75)


@st.composite
def pooled_slices(draw):
    """Two value arrays and count matrices with one row per group: tied
    values shared within and across sides with counts 0-5, or distinct
    values with 0/1 counts (the untied exact path when n <= 25); rows may be
    all-zero or one worker, the second side may reuse the first's counts as
    the bias stage does, and one count may be negative."""
    untied = draw(st.booleans())
    n_a = draw(st.integers(0, 14))
    same = draw(st.booleans())
    n_b = n_a if same else draw(st.integers(0, 14))
    if untied:
        quarters = draw(st.permutations(range(40)))[:n_a + n_b]
        values = [q / 4.0 for q in quarters]
    else:
        values = draw(st.lists(st.sampled_from(TIED_VALUES), min_size=n_a + n_b,
                               max_size=n_a + n_b))
    groups = draw(st.integers(1, 4))

    def row(n):
        kind = draw(st.sampled_from(["counts", "counts", "zero", "single"]))
        if kind == "zero" or n == 0:
            return [0] * n
        if kind == "single":
            one = [0] * n
            one[draw(st.integers(0, n - 1))] = 1
            return one
        return draw(st.lists(st.integers(0, 1 if untied else 5), min_size=n, max_size=n))

    counts_a = np.array([row(n_a) for _ in range(groups)], dtype=np.int64).reshape(groups, n_a)
    counts_b = counts_a if same else np.array(
        [row(n_b) for _ in range(groups)], dtype=np.int64).reshape(groups, n_b)
    if n_a and draw(st.integers(0, 9)) == 0:
        counts_a = counts_a.copy()
        counts_a[draw(st.integers(0, groups - 1)), draw(st.integers(0, n_a - 1))] = -2
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    method = draw(st.sampled_from(["auto", "auto", "normal", "exact"]))
    return (values[:n_a], values[n_a:], with_layout(counts_a, layout),
            with_layout(counts_b, layout), method)


@given(pooled_slices())
@settings(max_examples=400, deadline=None)
def test_pooled_rank_sums_match_dict_oracle(case):
    values_a, values_b, counts_a, counts_b, method = case
    pooled = PooledSamples(values_a, values_b)
    for row_a, row_b in zip(counts_a, counts_b):
        want = outcome(oracle_rank_sum_grouped, values_a, row_a, values_b, row_b, method)
        assert outcome(pooled.test, row_a, row_b, method) == want
        assert outcome(wilcoxon_rank_sum_grouped, values_a, row_a, values_b, row_b,
                       method) == want


@pytest.mark.parametrize("tie", [1_000_000, 2_097_151, 2_097_152, 3_000_000])
def test_pooled_rank_sum_tie_term_past_int64(tie):
    # One value carries `tie` workers. Its cube fits int64 up to 2,097,151;
    # the tie term is summed in int64 only while tie**2 * n < 2**63, which
    # holds at 1,000,000 here and fails from 2,097,151 on.
    values_a, counts_a = [1.0, 2.0, 3.0], [tie - 5, 7, 11]
    values_b, counts_b = [1.0, 0.5, 3.0], [5, 13, 2]
    assert (tie ** 3 >= 2 ** 63) == (tie > 2_097_151)
    want = outcome(oracle_rank_sum_grouped, values_a, counts_a, values_b, counts_b)
    assert outcome(PooledSamples(values_a, values_b).test, counts_a, counts_b) == want


def test_pooled_rank_sum_rejects_misaligned_counts():
    with pytest.raises(ContractError, match="align"):
        PooledSamples([1.0, 2.0], [3.0]).test([1], [1])
