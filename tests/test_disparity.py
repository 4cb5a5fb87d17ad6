"""Disparity metric tests: gaps, bin curves, decile shares, Atkinson, state
rows, thresholds, CoV."""
from __future__ import annotations

import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    ExposureRecord,
    GapResult,
    exposure_records,
    frame_of,
    oracle_atkinson,
    oracle_atkinson_pipeline,
    oracle_bin_curve,
    oracle_composition_blocks,
    oracle_composition_rows,
    oracle_decile_shares,
    oracle_gap_and_atkinson_blocks,
    oracle_state_rows,
    oracle_threshold_rows,
    reference_csv,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hwexposure import disparity, pipeline
from hwexposure.disparity import (
    DecileShares,
    PercentileBinCurves,
    atkinson,
    atkinson_pipeline,
    cov_of_shares,
    decile_contrast,
    extreme_group_gap,
    percentile_bin_curve,
    population_share_by_concentration_decile,
    rank_by_composition,
    state_disparity,
    threshold_share,
)
from hwexposure.errors import (
    ContractError,
    DomainError,
    EmptyPopulationError,
    InsufficientGroupsError,
    InsufficientTractsError,
)
from hwexposure.exposure import (
    AlignedTable,
    compute_group_exposures,
    iter_groups,
    stable_argsort,
    tract_strata,
)
from hwexposure.ingest import RAC_WAC_SCHEMAS

ATKINSON_REFERENCE = 0.10079283984242682  # direct evaluation of the two-group case
PAPER_EPSILONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


def record(group, mean, weight=1.0, characteristic="race", stratum="all", locus="H", year=2011):
    return ExposureRecord(
        year=year, characteristic=characteristic, group=group, locus=locus,
        stratum=stratum, mean=mean, p10=mean, p90=mean, weight=weight,
    )


def gap(records, national_mean):
    """extreme_group_gap over the records' columns, as a GapResult."""
    result = extreme_group_gap([r.characteristic for r in records], [r.group for r in records],
                               np.array([r.mean for r in records]), national_mean)
    return GapResult(records[0].characteristic, *result)


def atkinson_of(records, epsilons):
    """atkinson_pipeline over the records' columns."""
    return atkinson_pipeline([r.characteristic for r in records], [r.group for r in records],
                             np.array([r.weight for r in records]),
                             np.array([r.mean for r in records]), epsilons)


# ----------------------------------------------------------------------------
# extreme_group_gap
# ----------------------------------------------------------------------------

def test_gap_direct_arithmetic():
    result = gap([record("a", 7.0), record("b", 8.21)], national_mean=8.0)
    assert result.most_exposed == "b"
    assert result.least_exposed == "a"
    assert result.absolute_diff == pytest.approx(1.21)
    assert result.percent_diff == pytest.approx(15.125)
    assert result.ratio == pytest.approx(8.21 / 7.0)


def test_gap_degenerate_equal_means():
    result = gap([record("a", 8.0), record("b", 8.0)], national_mean=8.0)
    assert result.absolute_diff == 0.0
    assert result.percent_diff == 0.0
    assert result.ratio == 1.0
    # ties break by label order
    assert result.most_exposed == "a"
    assert result.least_exposed == "a"


def test_gap_single_group():
    with pytest.raises(InsufficientGroupsError):
        gap([record("a", 8.0)], national_mean=8.0)


def test_gap_mixed_characteristics_rejected():
    with pytest.raises(ContractError):
        gap(
            [record("a", 8.0), record("b", 9.0, characteristic="sex")], national_mean=8.0
        )


def test_gap_relabel_invariance():
    groups = [("a", 7.5), ("b", 9.25), ("c", 8.5)]
    base = gap([record(g, m) for g, m in groups], national_mean=8.0)
    relabeled = gap(
        [record("x" + g, m) for g, m in groups], national_mean=8.0
    )
    assert relabeled.absolute_diff == base.absolute_diff
    assert relabeled.percent_diff == base.percent_diff
    assert relabeled.ratio == base.ratio


def test_gap_zero_min_gives_inf_ratio():
    result = gap([record("a", 0.0), record("b", 5.0)], national_mean=5.0)
    assert result.ratio == math.inf


# ----------------------------------------------------------------------------
# percentile_bin_curve / decile_contrast
# ----------------------------------------------------------------------------

def comp_tract(i, fraction, count, conc):
    return (f"06037{i:06d}", fraction, count, conc)


def one_group_curve(tracts, n_bins):
    """percentile_bin_curve over one group's (geoid, fraction, count, conc)
    tuples, with the tracts as columns in geoid order."""
    ordered = sorted(tracts)
    fractions = np.array([[t[1] for t in ordered]])
    counts = np.array([[t[2] for t in ordered]])
    conc = np.array([t[3] for t in ordered])
    return percentile_bin_curve(rank_by_composition(counts, conc, stable_argsort(fractions)),
                                n_bins)


def test_bin_curve_one_tract_per_bin():
    tracts = [comp_tract(i, i / 10.0, 5.0, 6.0 + i) for i in range(10)]
    curve = one_group_curve(tracts, n_bins=10)
    assert list(curve.n_tracts) == [1] * 10
    assert curve.exposure[0].tolist() == [6.0 + i for i in range(10)]
    assert curve.exposure.shape == (1, 10)


def test_bin_curve_tie_break_by_geoid():
    tracts = [comp_tract(i, 0.5, 1.0, float(i)) for i in (3, 1, 2, 0)]
    curve = one_group_curve(tracts, n_bins=2)
    # equal fractions -> geoid order -> bins are {0,1} and {2,3}
    assert curve.exposure[0, 0] == pytest.approx(0.5)
    assert curve.exposure[0, 1] == pytest.approx(2.5)


def test_bin_curve_remainder_spread_leading():
    tracts = [comp_tract(i, i / 11.0, 1.0, 1.0) for i in range(11)]
    curve = one_group_curve(tracts, n_bins=3)
    assert list(curve.n_tracts) == [4, 4, 3]


def test_bin_curve_matches_direct_formula():
    rng = random.Random(13)
    tracts = [
        comp_tract(i, rng.random(), float(rng.randrange(0, 20)), rng.uniform(4, 15))
        for i in range(57)
    ]
    n_bins = 10
    curve = one_group_curve(tracts, n_bins=n_bins)
    ordered = sorted(tracts, key=lambda t: (t[1], t[0]))
    start = 0
    sizes = [6, 6, 6, 6, 6, 6, 6, 5, 5, 5]
    assert list(curve.n_tracts) == sizes
    for exposure, size in zip(curve.exposure[0], sizes):
        chunk = ordered[start:start + size]
        start += size
        num = math.fsum(t[3] * t[2] for t in chunk)
        den = math.fsum(t[2] for t in chunk)
        if den == 0:
            assert math.isnan(exposure)
        else:
            assert exposure == pytest.approx(num / den, rel=1e-12)


def test_bin_curve_empty_bin_is_nan():
    tracts = [comp_tract(i, i / 4.0, 0.0 if i < 2 else 3.0, 5.0 + i) for i in range(4)]
    curve = one_group_curve(tracts, n_bins=2)
    assert math.isnan(curve.exposure[0, 0])
    assert not math.isnan(curve.exposure[0, 1])


def test_bin_curve_insufficient_tracts():
    with pytest.raises(InsufficientTractsError):
        one_group_curve([comp_tract(0, 0.1, 1.0, 5.0)], n_bins=2)
    with pytest.raises(ContractError):
        one_group_curve([comp_tract(0, 0.1, 1.0, 5.0)], n_bins=1)


def test_decile_contrast():
    tracts = [comp_tract(i, i / 10.0, 2.0, 6.0 + i) for i in range(10)]
    curve = one_group_curve(tracts, n_bins=10)
    assert decile_contrast(curve)[0] == pytest.approx(9.0)


def test_decile_contrast_identical_bins_zero():
    tracts = [comp_tract(i, i / 10.0, 2.0, 7.5) for i in range(10)]
    assert decile_contrast(one_group_curve(tracts, n_bins=10))[0] == 0.0


def test_decile_contrast_wrong_bin_count():
    tracts = [comp_tract(i, i / 10.0, 2.0, 7.5) for i in range(10)]
    with pytest.raises(ContractError):
        decile_contrast(one_group_curve(tracts, n_bins=5))


# ----------------------------------------------------------------------------
# population_share_by_concentration_decile
# ----------------------------------------------------------------------------

def one_group_shares(tracts):
    """population_share_by_concentration_decile over one group's (geoid,
    count, total, conc) tuples, with the tracts as columns in geoid order."""
    ordered = sorted(tracts)
    counts = np.array([[t[1] for t in ordered]])
    totals = np.array([t[2] for t in ordered])
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = counts / totals
    return population_share_by_concentration_decile(
        fractions, stable_argsort(np.array([t[3] for t in ordered]))
    )


def test_decile_shares_uniform_composition():
    tracts = [(f"06037{i:06d}", 3.0, 10.0, 5.0 + i) for i in range(20)]
    shares = one_group_shares(tracts)
    assert shares.difference[0] == 0.0
    assert all(m == pytest.approx(0.3) for m in shares.means[0])


def test_decile_shares_group_in_most_polluted_only():
    tracts = [(f"06037{i:06d}", 5.0 if i == 19 else 0.0, 10.0, 5.0 + i) for i in range(20)]
    shares = one_group_shares(tracts)
    assert shares.means[0, 0] == 0.0
    assert shares.means[0, -1] == pytest.approx(0.25)
    assert shares.difference[0] == pytest.approx(0.25)


def test_decile_shares_insufficient_tracts():
    with pytest.raises(InsufficientTractsError):
        one_group_shares([("06037000100", 1.0, 2.0, 5.0)] * 9)


def test_decile_shares_zero_total_rejected():
    tracts = [(f"06037{i:06d}", 1.0, 0.0 if i == 0 else 2.0, 5.0 + i) for i in range(10)]
    with pytest.raises(ValueError):
        one_group_shares(tracts)


# ----------------------------------------------------------------------------
# matrix kernels against the per-group tuple-list oracle
# ----------------------------------------------------------------------------

def _same(a, b) -> bool:
    """Bit-for-bit float equality, with NaN equal to NaN."""
    return [repr(float(x)) for x in a] == [repr(float(x)) for x in b]


def _non_contiguous(matrix: np.ndarray, how: str) -> np.ndarray:
    if how == "fortran":
        return np.asfortranarray(matrix)
    if how == "strided":
        wide = np.zeros((matrix.shape[0], 2 * matrix.shape[1]))
        wide[:, ::2] = matrix
        return wide[:, ::2]
    return matrix


def _check_kernels(counts, totals, conc, n_bins, layout):
    """Both kernels, on every group, against the oracles; the counts and
    fractions are passed in the given memory layout."""
    geoids = [f"06037{j:06d}" for j in range(counts.shape[1])]
    fractions = counts / totals
    n_tracts = counts.shape[1]
    ranking = rank_by_composition(_non_contiguous(counts, layout), conc,
                                  stable_argsort(_non_contiguous(fractions, layout)))
    if n_tracts < n_bins:
        with pytest.raises(InsufficientTractsError):
            percentile_bin_curve(ranking, n_bins)
    else:
        curve = percentile_bin_curve(ranking, n_bins)
        for g in range(counts.shape[0]):
            expected = oracle_bin_curve(
                list(zip(geoids, fractions[g].tolist(), counts[g].tolist(), conc.tolist())),
                n_bins,
            )
            assert list(curve.n_tracts) == [size for size, _ in expected]
            assert _same(curve.exposure[g], [value for _, value in expected])
    if n_tracts < 10:
        with pytest.raises(InsufficientTractsError):
            population_share_by_concentration_decile(fractions, stable_argsort(conc))
        return
    shares = population_share_by_concentration_decile(_non_contiguous(fractions, layout),
                                                       stable_argsort(conc))
    for g in range(counts.shape[0]):
        means, difference = oracle_decile_shares(
            list(zip(geoids, counts[g].tolist(), totals.tolist(), conc.tolist()))
        )
        assert _same(shares.means[g], means)
        assert _same([shares.difference[g]], [difference])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(0, 4),
    n_tracts=st.integers(0, 90),
    n_bins=st.sampled_from([2, 3, 7, 10, 100]),
    tied_fractions=st.booleans(),
    tied_concentrations=st.booleans(),
    zero_group=st.booleans(),
    layout=st.sampled_from(["c", "fortran", "strided"]),
)
@settings(max_examples=200, deadline=None)
def test_kernels_match_oracle(seed, n_groups, n_tracts, n_bins, tied_fractions,
                              tied_concentrations, zero_group, layout):
    rng = np.random.default_rng(seed)
    if tied_fractions:
        # few distinct count/total ratios: long runs of equal fractions
        counts = rng.integers(0, 3, (n_groups, n_tracts)).astype(float)
        totals = np.full(n_tracts, 4.0)
    else:
        counts = rng.integers(0, 10**6, (n_groups, n_tracts)).astype(float)
        totals = counts.sum(axis=0) + rng.integers(1, 10**6, n_tracts)
    if zero_group and n_groups:
        counts[rng.integers(n_groups)] = 0.0
    if tied_concentrations:
        conc = rng.choice([5.25, 7.3, 11.1], n_tracts)
    else:
        # not quarter units: sums round, so their order shows in the bits
        conc = rng.uniform(0.0, 40.0, n_tracts)
    _check_kernels(counts, totals, conc, n_bins, layout)


def test_kernels_match_oracle_on_long_bins():
    """Bins and deciles of thousands of tracts, where pairwise and sequential
    summation round differently."""
    rng = np.random.default_rng(2024)
    counts = rng.integers(0, 10**6, (3, 20_000)).astype(float)
    totals = counts.sum(axis=0) + 1.0
    conc = rng.uniform(0.0, 40.0, 20_000)
    _check_kernels(counts, totals, conc, 2, "strided")


# ----------------------------------------------------------------------------
# atkinson
# ----------------------------------------------------------------------------

def test_atkinson_equal_groups_zero():
    for eps in PAPER_EPSILONS:
        assert atkinson([0.25, 0.25, 0.5], [3.0, 3.0, 3.0], eps) <= 1e-12


def test_atkinson_epsilon_zero_identity():
    assert atkinson([0.3, 0.7], [1.0, 9.0], 0.0) == 0.0


def test_atkinson_reference_case():
    assert atkinson([0.5, 0.5], [1.0, 3.0], 0.75) == pytest.approx(
        ATKINSON_REFERENCE, abs=1e-9
    )


def test_atkinson_geometric_mean_limit():
    # epsilon -> 1 continuously approaches the geometric-mean form
    f, y = [0.4, 0.6], [2.0, 5.0]
    at_one = atkinson(f, y, 1.0)
    near_one = atkinson(f, y, 1.0 + 1e-9)
    assert at_one == pytest.approx(near_one, abs=1e-7)
    gm = math.exp(0.4 * math.log(2.0) + 0.6 * math.log(5.0))
    ybar = 0.4 * 2.0 + 0.6 * 5.0
    assert at_one == pytest.approx(1.0 - gm / ybar, rel=1e-12)


def test_atkinson_domain_errors():
    with pytest.raises(DomainError):
        atkinson([0.5, 0.5], [1.0, -3.0], 0.75)
    with pytest.raises(DomainError):
        atkinson([0.5, 0.5], [1.0, 0.0], 0.75)
    with pytest.raises(DomainError):
        atkinson([0.7, 0.7], [1.0, 2.0], 0.75)
    with pytest.raises(DomainError):
        atkinson([-0.5, 1.5], [1.0, 2.0], 0.75)
    with pytest.raises(DomainError):
        atkinson([0.5, 0.5], [1.0, 2.0], -0.1)


@given(
    seed=st.integers(0, 100_000),
    eps=st.sampled_from(PAPER_EPSILONS),
    scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=150, deadline=None)
def test_atkinson_range_and_scale_invariance(seed, eps, scale):
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    shares = [r / total for r in raw]
    shares[-1] = 1.0 - sum(shares[:-1])  # force exact unit sum
    values = [rng.uniform(0.1, 20.0) for _ in range(n)]
    ai = atkinson(shares, values, eps)
    assert 0.0 <= ai < 1.0
    scaled = atkinson(shares, [v * scale for v in values], eps)
    assert scaled == pytest.approx(ai, rel=1e-9, abs=1e-12)


def test_atkinson_monotone_in_epsilon():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randrange(2, 6)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(raw)
        shares = [r / total for r in raw]
        shares[-1] = 1.0 - sum(shares[:-1])
        values = [rng.uniform(0.1, 10.0) for _ in range(n)]
        ais = [atkinson(shares, values, eps) for eps in PAPER_EPSILONS]
        for lo, hi in zip(ais, ais[1:]):
            assert hi >= lo - 1e-12


def test_atkinson_increases_with_spread():
    # fixed shares and fixed weighted mean, widening |y1 - y2|
    prev = -1.0
    for delta in (0.0, 0.5, 1.0, 1.5, 1.9):
        ai = atkinson([0.5, 0.5], [2.0 - delta, 2.0 + delta], 0.75) if delta < 2.0 else None
        assert ai > prev or (delta == 0.0 and ai == 0.0)
        prev = ai


# ----------------------------------------------------------------------------
# atkinson_pipeline
# ----------------------------------------------------------------------------

def test_atkinson_pipeline_equal_means_zero():
    records = [record("a", 8.0, 10.0), record("b", 8.0, 30.0)]
    results = atkinson_of(records, PAPER_EPSILONS)
    assert len(results) == len(PAPER_EPSILONS)
    assert all(value <= 1e-12 for value in results)


def test_atkinson_pipeline_composes_with_direct_atkinson():
    records = [record("a", 8.0, 5.0), record("b", 10.0, 5.0)]
    results = atkinson_of(records, [0.75])
    direct = atkinson([0.5, 0.5], [1.0 / 8.0, 1.0 / 10.0], 0.75)
    assert results[0] == pytest.approx(direct, rel=1e-12)


def test_atkinson_pipeline_ignores_all_group_and_sorts():
    # the atkinson.csv block of one year's frames
    records = [
        record("all", 9.0, 40.0, characteristic="all"),
        record("b", 10.0, 5.0),
        record("a", 8.0, 5.0),
        record("all", 9.25, 10.0, characteristic="all", locus="W"),
        record("m", 9.0, 5.0, characteristic="sex", locus="W"),
        record("f", 9.5, 5.0, characteristic="sex", locus="W"),
    ]
    frames = [frame_of(records[:3]), frame_of(records[3:])]
    _, block = pipeline._gap_and_atkinson_blocks(2011, frames, [0.75], {})
    assert list(zip(block[1], block[2])) == [("race", "H"), ("sex", "W")]


def test_atkinson_pipeline_zero_mean_rejected():
    with pytest.raises(DomainError, match="^group race:a has non-positive mean 0.0; "):
        atkinson_of([record("b", 8.0, 1.0), record("a", 0.0, 1.0)], [0.75])


# ----------------------------------------------------------------------------
# state_disparity
# ----------------------------------------------------------------------------

def test_state_disparity_zero_when_equal():
    assert state_disparity(8.0, 8.0, 10.0) == 0.0


def test_state_disparity_direct():
    assert state_disparity(8.4, 8.0, 10.0) == pytest.approx(0.04)


def test_state_disparity_zero_national():
    with pytest.raises(DomainError):
        state_disparity(8.4, 8.0, 0.0)


def aligned_table(geoids, totals, conc, category_counts):
    return AlignedTable(
        year=2011, locus="H", surface_geoids=np.array(geoids, dtype=np.int64),
        tract_index=np.arange(len(geoids)),
        concentrations=np.asarray(conc, dtype=np.float64),
        totals=np.asarray(totals, dtype=np.int64),
        codes=tuple(category_counts),
        counts=np.array(list(category_counts.values()), dtype=np.int64).reshape(
            len(category_counts), len(geoids)),
        dropped_weight=0,
    )


HEADERS = {name: header for name, (_, header, _) in pipeline._REPORTS.items()}


def csv_cells(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def state_rows(aligned):
    """The cells of the state_disparity.csv lines that _state_rows' block gives."""
    groups = [(characteristic, label) for characteristic, label, _ in
              iter_groups(RAC_WAC_SCHEMAS, aligned)][1:]
    block = pipeline._state_rows(aligned, groups, aligned.counts.astype(np.float64))
    return csv_cells(pipeline._csv_lines("state_disparity.csv",
                                         HEADERS["state_disparity.csv"], block))


def oracle_state_cells(aligned):
    return csv_cells(reference_csv(oracle_state_rows(aligned)))


def test_state_rows_one_tract_states_and_zero_group_weight():
    # state 01: one tract; 02: two tracts, no black workers; 03: one tract,
    # no workers at all; 04: one tract, only white workers
    aligned = aligned_table(
        ["01001000100", "02001000100", "02001000200", "03001000100", "04001000100"],
        totals=[4, 3, 5, 0, 2],
        conc=[8.0, 6.0, 10.0, 7.0, 9.0],
        category_counts={"CR01": [1, 3, 1, 0, 2], "CR02": [3, 0, 0, 0, 0]},
    )
    rows = state_rows(aligned)
    assert rows == oracle_state_cells(aligned)
    assert [(r[1], r[4]) for r in rows] == [
        ("01", "white"), ("01", "black"), ("02", "white"), ("04", "white"),
    ]
    national = (8.0 * 4 + 6.0 * 3 + 10.0 * 5 + 9.0 * 2) / 14
    # in a one-tract state every group mean equals the state mean
    assert [float(r[5]) for r in rows if r[1] in ("01", "04")] == [0.0, 0.0, 0.0]
    state_02 = (6.0 * 3 + 10.0 * 5) / 8
    white_02 = (6.0 * 3 + 10.0 * 1) / 4
    assert float(rows[2][5]) == pytest.approx((white_02 - state_02) / national, rel=1e-12)


def test_state_rows_empty_table():
    assert state_rows(aligned_table([], [], [], {"CR01": []})) == []


@given(
    seed=st.integers(0, 2**32 - 1),
    n_tracts=st.integers(1, 120),
    n_states=st.integers(1, 8),
    n_codes=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_state_rows_match_oracle(seed, n_tracts, n_states, n_codes):
    rng = np.random.default_rng(seed)
    states = np.sort(rng.integers(1, n_states + 1, n_tracts))
    geoids = [f"{s:02d}001{j:06d}" for j, s in enumerate(states.tolist())]
    codes = ["CR01", "CR02", "CT01", "CA03", "CNS20"][:n_codes]
    counts = rng.integers(0, 10**5, (n_codes, n_tracts))
    counts[:, rng.random(n_tracts) < 0.2] = 0  # tracts and whole states without workers
    totals = counts.sum(axis=0) + rng.integers(0, 2, n_tracts) * (rng.random(n_tracts) < 0.8)
    conc = rng.uniform(0.5, 40.0, n_tracts)
    aligned = aligned_table(geoids, totals, conc, dict(zip(codes, counts)))
    if aligned.totals.sum() == 0:
        return
    assert state_rows(aligned) == oracle_state_cells(aligned)


# edge values a curve or a decile mean can hold, with ordinary ones
EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]


def edge_matrix(rng, shape):
    values = rng.uniform(-50.0, 50.0, shape)
    picks = rng.random(shape) < 0.3
    values[picks] = rng.choice(EDGE_VALUES, int(picks.sum()))
    return values


@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(0, 6),
    kept=st.lists(st.sampled_from([2, 3, 10, 12, 100]), max_size=4),
    with_shares=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_bin_block_matches_oracle(seed, n_groups, kept, with_shares):
    # ``kept`` are the bin counts whose curves survived; any other configured
    # count was skipped, as were the decile shares when with_shares is False
    rng = np.random.default_rng(seed)
    groups = [(schema.characteristic, label) for schema in RAC_WAC_SCHEMAS
              for _, label in schema.categories][:n_groups]
    curves = [(n_bins, PercentileBinCurves(n_tracts=tuple(rng.integers(1, 9, n_bins).tolist()),
                                           exposure=edge_matrix(rng, (n_groups, n_bins))))
              for n_bins in kept]
    shares = None
    with np.errstate(invalid="ignore"):  # inf - inf in the contrasts is NaN
        if with_shares:
            means = edge_matrix(rng, (n_groups, 10))
            shares = DecileShares(means=means, difference=means[:, -1] - means[:, 0])
        block = pipeline._bin_block(2013, "W", "urban", groups, curves, shares)
        oracle = oracle_composition_rows(2013, "W", "urban", groups, curves, shares)
    lines = pipeline._csv_lines("bins.csv", HEADERS["bins.csv"], block).splitlines()
    assert lines == reference_csv(oracle).splitlines()
    assert pipeline._n_rows(block) == len(oracle)


# ----------------------------------------------------------------------------
# threshold_share / cov_of_shares
# ----------------------------------------------------------------------------

def test_threshold_all_below():
    assert threshold_share([5.0, 11.9], [3, 5], 12.0) == 0.0


def test_threshold_direct():
    assert threshold_share([11.0, 13.0], [1, 3], 12.0) == 75.0


def test_threshold_strict_inequality():
    assert threshold_share([12.0], [10], 12.0) == 0.0


def test_threshold_empty():
    with pytest.raises(EmptyPopulationError):
        threshold_share([], [], 12.0)


def test_threshold_monotone_in_threshold():
    rng = random.Random(5)
    values = [rng.uniform(0, 20) for _ in range(50)]
    weights = [rng.randrange(1, 9) for _ in range(50)]
    shares = [threshold_share(values, weights, t) for t in (5.0, 10.0, 12.0)]
    assert shares[0] >= shares[1] >= shares[2]


def test_cov_equal_shares_zero():
    assert cov_of_shares([4.0, 4.0, 4.0]) == 0.0


def test_cov_direct():
    assert cov_of_shares([0.0, 2.0]) == 1.0


def test_cov_scale_invariance():
    rng = random.Random(6)
    qs = [rng.uniform(0.1, 30.0) for _ in range(8)]
    assert cov_of_shares([3.7 * q for q in qs]) == pytest.approx(cov_of_shares(qs), rel=1e-12)


def test_cov_matches_direct_formula():
    rng = random.Random(8)
    for _ in range(20):
        qs = [rng.uniform(0.0, 50.0) for _ in range(rng.randrange(2, 9))]
        mean = math.fsum(qs) / len(qs)
        if mean == 0.0:
            continue
        var = math.fsum((q - mean) ** 2 for q in qs) / len(qs)
        assert cov_of_shares(qs) == pytest.approx(math.sqrt(var) / mean, rel=1e-12)


def test_cov_errors():
    with pytest.raises(InsufficientGroupsError):
        cov_of_shares([1.0])
    with pytest.raises(DomainError):
        cov_of_shares([0.0, 0.0])


# ----------------------------------------------------------------------------
# the checked-once Atkinson curve, the one-compress threshold shares and the
# blocks built from frame columns, against the per-epsilon, per-group and
# per-record oracles
# ----------------------------------------------------------------------------

RAC_CODES = [code for schema in RAC_WAC_SCHEMAS for code, _ in schema.categories]
ATKINSON_EPSILONS = st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.5, 1.75, 2.0, -0.5])
                             | st.floats(0.0, 4.0), min_size=1, max_size=6)


def outcome(compute):
    try:
        return repr(compute())
    except DomainError as exc:
        return f"DomainError({exc})"


@st.composite
def atkinson_inputs(draw):
    """Shares summing to 1 and positive values, each sometimes spoiled."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    shares = [w / math.fsum(weights) for w in weights]
    values = draw(st.lists(st.floats(1e-3, 50.0), min_size=n, max_size=n))
    spoil = draw(st.sampled_from(["none", "none", "share", "sum", "value", "size"]))
    if spoil == "share":
        shares[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.2]))
    elif spoil == "sum":
        shares = [2.0 * f for f in shares]
    elif spoil == "value":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -1.0]))
    elif spoil == "size":
        values = values[:draw(st.integers(0, n - 1))]
        shares = shares[:draw(st.integers(0, 1)) * n]
    return shares, values


@given(atkinson_inputs(), ATKINSON_EPSILONS)
@settings(max_examples=400, deadline=None)
def test_atkinson_curve_matches_per_epsilon_oracle(inputs, epsilons):
    shares, values = inputs
    oracle = outcome(lambda: [oracle_atkinson(shares, values, e) for e in epsilons])
    assert outcome(lambda: disparity._atkinson_curve(shares, values, epsilons)) == oracle
    assert outcome(lambda: [atkinson(shares, values, e) for e in epsilons]) == oracle


@pytest.mark.parametrize("shares, values, epsilons, message", [
    ([], [], [0.5], "need matching non-empty shares/values, got 0/0"),
    ([0.5, 0.5], [1.0], [0.5], "need matching non-empty shares/values, got 2/1"),
    ([0.0, 1.0], [1.0, 2.0], [0.5], "population shares must be positive"),
    ([0.5, 0.6], [1.0, 2.0], [0.5], "population shares must sum to 1, got 1.1"),
    ([0.5, 0.5], [1.0, 0.0], [0.5], "group values must be positive"),
    ([0.5, 0.5], [1.0, 2.0], [0.0, 1.0, -1.0], "aversion parameter must be >= 0, got -1.0"),
])
def test_atkinson_curve_domain_errors_match_oracle(shares, values, epsilons, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        disparity._atkinson_curve(shares, values, epsilons)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        [oracle_atkinson(shares, values, e) for e in epsilons]


@given(st.data(), ATKINSON_EPSILONS)
@settings(max_examples=300, deadline=None)
def test_atkinson_pipeline_matches_record_oracle(data, epsilons):
    labels = data.draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6, unique=True))
    # worker counts, or fractional weights whose sum depends on its order
    weights = data.draw(st.lists(st.integers(1, 10**6) | st.floats(0.01, 1e6),
                                 min_size=len(labels), max_size=len(labels)))
    means = data.draw(st.lists(st.sampled_from([0.0, -1.0, 1e-3, 2.5, 7.75, 40.0])
                               | st.floats(0.5, 60.0), min_size=len(labels),
                               max_size=len(labels)))
    records = [record(g, m, float(w)) for g, m, w in zip(labels, means, weights)]
    assert outcome(lambda: atkinson_of(records, epsilons)) == outcome(
        lambda: [r.value for r in oracle_atkinson_pipeline(records, epsilons)])


def random_aligned(rng, n_tracts, locus="H", conc_values=(4.0, 5.0, 10.0, 12.0, 13.5, 20.0)):
    """A RAC/WAC table on geoid-ordered tracts with a random subset of the
    codes (schema order), some groups and tracts without workers."""
    codes = [c for c in RAC_CODES if rng.random() < 0.3]
    counts = rng.integers(0, 6, (len(codes), n_tracts))
    counts[rng.random(len(codes)) < 0.2] = 0
    counts[:, rng.random(n_tracts) < 0.1] = 0
    totals = counts.sum(axis=0) + rng.integers(0, 3, n_tracts)
    conc = rng.choice(conc_values, n_tracts)
    aligned = aligned_table([f"06037{i:06d}" for i in range(n_tracts)], totals, conc,
                            dict(zip(codes, counts)))
    return aligned._replace(locus=locus)


@given(seed=st.integers(0, 2**32 - 1), n_tracts=st.integers(0, 40),
       bin_counts=st.lists(st.sampled_from([2, 3, 7, 10, 100]), min_size=1, max_size=3),
       names=st.sampled_from([("urban", "rural"), ("rural",), ("urban",)]),
       classified=st.sampled_from([0.0, 0.6, 1.0]), tied_concentrations=st.booleans())
@settings(max_examples=200, deadline=None)
def test_composition_blocks_match_per_stratum_oracle(seed, n_tracts, bin_counts, names,
                                                     classified, tied_concentrations):
    # Unclassified tracts, zero-total tracts and groups, empty strata and tied
    # fractions and concentrations: the strata share one ranking per table,
    # the oracle sorts each stratum on its own.
    rng = np.random.default_rng(seed)
    conc_values = (4.0, 7.5, 12.0) if tied_concentrations else tuple(rng.uniform(4, 20, 64))
    aligned = random_aligned(rng, n_tracts, conc_values=conc_values)
    classification = tract_strata({f"06037{i:06d}": str(rng.choice(names))
                                   for i in range(n_tracts) if rng.random() < classified})
    state = SimpleNamespace(config=SimpleNamespace(bin_counts=tuple(bin_counts)),
                            classification=classification)
    groups = [(c, label) for c, label, _ in iter_groups(RAC_WAC_SCHEMAS, aligned)][1:]
    counts = aligned.counts.astype(np.float64)
    strata = ("all", "urban", "rural")
    skips, oracle_skips = {}, {}
    blocks = pipeline._composition_blocks(state, aligned, groups, counts, strata, skips)
    oracle = oracle_composition_blocks(state, aligned, groups, counts, strata, oracle_skips)
    assert ([pipeline._csv_lines("bins.csv", HEADERS["bins.csv"], b) for b in blocks]
            == [pipeline._csv_lines("bins.csv", HEADERS["bins.csv"], b) for b in oracle])
    assert skips == oracle_skips


def threshold_outcome(compute):
    skips = {}
    try:
        blocks = compute(skips)
    except EmptyPopulationError as exc:
        return f"EmptyPopulationError({exc})"
    lines = [pipeline._csv_lines("threshold.csv", HEADERS["threshold.csv"], b) for b in blocks]
    return lines, skips


@given(seed=st.integers(0, 2**32 - 1), n_tracts=st.integers(0, 30),
       thresholds=st.lists(st.sampled_from([12.0, 10.0, 5.0, 0.5, 25.0]), max_size=4))
@settings(max_examples=200, deadline=None)
def test_threshold_rows_match_oracle(seed, n_tracts, thresholds):
    aligned = random_aligned(np.random.default_rng(seed), n_tracts)
    groups = [(c, label) for c, label, _ in iter_groups(RAC_WAC_SCHEMAS, aligned)][1:]
    config = SimpleNamespace(thresholds=tuple(thresholds))
    assert threshold_outcome(lambda skips: pipeline._threshold_rows(
        config, aligned, groups, aligned.counts.astype(np.float64), skips)) == threshold_outcome(
        lambda skips: oracle_threshold_rows(thresholds, aligned, skips))


def test_threshold_rows_skip_degenerate_cov():
    # sex has one group with workers (InsufficientGroupsError); age has two,
    # both below every threshold (DomainError)
    aligned = aligned_table(
        ["06037000001", "06037000002"], totals=[3, 4], conc=[4.0, 13.0],
        category_counts={"CS01": [3, 4], "CS02": [0, 0], "CA01": [1, 0], "CA02": [2, 0]})
    groups = [(c, label) for c, label, _ in iter_groups(RAC_WAC_SCHEMAS, aligned)][1:]
    skips = {}
    blocks = pipeline._threshold_rows(SimpleNamespace(thresholds=(12.0,)), aligned, groups,
                                      aligned.counts.astype(np.float64), skips)
    assert skips == {"threshold-cov": 2}
    assert blocks[0][3:5] == [["all", "sex", "age", "age"], ["all", "male", "29_or_less",
                                                             "30_54"]]
    assert threshold_outcome(lambda s: oracle_threshold_rows([12.0], aligned, s)) == (
        [pipeline._csv_lines("threshold.csv", HEADERS["threshold.csv"], blocks[0])], skips)


@given(seed=st.integers(0, 2**32 - 1), n_tracts=st.integers(0, 30), epsilons=ATKINSON_EPSILONS)
@settings(max_examples=150, deadline=None)
def test_gap_and_atkinson_blocks_match_record_oracle(seed, n_tracts, epsilons):
    rng = np.random.default_rng(seed)
    epsilons = [abs(e) for e in epsilons]
    classification = tract_strata({f"06037{i:06d}": rng.choice(["urban", "rural"])
                                   for i in range(n_tracts) if rng.random() < 0.9})
    frames = [
        compute_group_exposures(random_aligned(rng, n_tracts, locus, (0.0, 4.0, 7.5, 12.0)),
                                RAC_WAC_SCHEMAS, classification, ("all", "urban", "rural"))
        for locus in ("H", "W")
    ]
    skips = {}
    got = pipeline._gap_and_atkinson_blocks(2011, frames, epsilons, skips)
    oracle_skips = {}
    oracle = oracle_gap_and_atkinson_blocks(
        2011, [r for frame in frames for r in exposure_records(frame)], epsilons, oracle_skips)
    for name, block, oracle_block in zip(("gaps.csv", "atkinson.csv"), got, oracle):
        assert (pipeline._csv_lines(name, HEADERS[name], block)
                == pipeline._csv_lines(name, HEADERS[name], oracle_block))
    assert skips == oracle_skips
