"""Exposure statistics vs per-worker expansion oracles and blend identities."""
from __future__ import annotations

import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hwexposure.errors import EmptyPopulationError
from hwexposure.exposure import (
    DEFAULT_HW_WEIGHTS,
    AlignedTable,
    GroupExposures,
    HWWeights,
    ResolvedPairs,
    ValueSlice,
    align_table,
    compute_group_exposures,
    hw_blend,
    population_weighted_mean,
    resolve_pairs,
    stable_argsort,
    tract_strata,
    weighted_percentile,
)
from hwexposure.ingest import OD_SCHEMAS, RAC_WAC_SCHEMAS
from hwexposure.geometry import geoid_text

from helpers import (
    compute_hw_exposures,
    exposure_records,
    oracle_group_exposures,
    oracle_hw_exposures,
    oracle_weighted_mean,
    oracle_weighted_percentile,
    surface_entries,
    tract_surface,
    with_layout,
    worker_table,
)

AGE = tuple(s for s in RAC_WAC_SCHEMAS if s.characteristic == "age")
OD_AGE = tuple(s for s in OD_SCHEMAS if s.characteristic == "od_age")


def geoid(i: int, state: str = "06") -> str:
    return f"{state}037{i:06d}"


def tract_table(rows, n_keys=1):
    """Rolled-up WorkerTable of {geoid or (home, work): (total, {code: count})}."""
    table = worker_table([(*(key if isinstance(key, tuple) else (key,)), total, counts)
                          for key, (total, counts) in sorted(rows.items())], n_keys=n_keys)
    return table._replace(keys=tuple(keys.astype(np.int64) for keys in table.keys))


def aligned_home(surface, rows):
    return align_table(surface, tract_table(rows), "residence")


# ----------------------------------------------------------------------------
# hw_blend / HWWeights
# ----------------------------------------------------------------------------

def test_hw_blend_direct():
    assert hw_blend(10.0, 20.0) == pytest.approx(12.06, abs=1e-12)


def test_hw_blend_identity_when_equal():
    for h in (0.0, 7.8, 12.25, 1e3):
        assert hw_blend(h, h) == h


def test_hw_blend_zero_home():
    assert hw_blend(0.0, 1.0) == 0.206


def test_hw_weights_default_sums_to_one():
    assert DEFAULT_HW_WEIGHTS.home_fraction + DEFAULT_HW_WEIGHTS.work_fraction == 1.0


def test_hw_weights_validation():
    with pytest.raises(ValueError):
        HWWeights(home_fraction=0.7, work_fraction=0.2)
    with pytest.raises(ValueError):
        HWWeights(home_fraction=1.2, work_fraction=-0.2)


@given(st.floats(0.0, 50.0, allow_nan=False))
@settings(max_examples=200)
def test_hw_blend_identity_property(h):
    assert hw_blend(h, h) == h


def test_hw_blend_arrays_match_scalar():
    rng = random.Random(5)
    h = [rng.uniform(0.0, 40.0) for _ in range(200)]
    w = [rng.uniform(0.0, 40.0) for _ in range(200)]
    weights = HWWeights(home_fraction=0.75, work_fraction=0.25)
    blended = hw_blend(np.array(h), np.array(w), weights)
    assert blended.tolist() == [hw_blend(a, b, weights) for a, b in zip(h, w)]


# ----------------------------------------------------------------------------
# population_weighted_mean
# ----------------------------------------------------------------------------

def test_pwm_symmetry():
    values = {geoid(1): 8.0, geoid(2): 10.0}
    weights = {geoid(1): 3, geoid(2): 3}
    assert population_weighted_mean(values, weights) == 9.0


def test_pwm_direct_arithmetic():
    values = {geoid(1): 8.0, geoid(2): 12.0}
    weights = {geoid(1): 1, geoid(2): 3}
    assert population_weighted_mean(values, weights) == 11.0


def test_pwm_drops_excluded_tract_weight():
    values = {geoid(1): 8.0}
    weights = {geoid(1): 2, geoid(9): 100}
    assert population_weighted_mean(values, weights) == 8.0


def test_pwm_empty_population():
    with pytest.raises(EmptyPopulationError):
        population_weighted_mean({}, {geoid(1): 5})
    with pytest.raises(EmptyPopulationError):
        population_weighted_mean({geoid(1): 8.0}, {geoid(1): 0})


def test_pwm_expansion_oracle():
    rng = random.Random(31)
    values = {geoid(i): rng.uniform(2.0, 18.0) for i in range(1000)}
    weights = {geoid(i): rng.randrange(0, 40) for i in range(1000)}
    expanded = [values[g] for g, w in weights.items() for _ in range(w)]
    oracle = math.fsum(expanded) / len(expanded)
    assert population_weighted_mean(values, weights) == pytest.approx(oracle, rel=1e-9)


def test_pwm_within_value_range():
    rng = random.Random(32)
    values = {geoid(i): rng.uniform(2.0, 18.0) for i in range(100)}
    weights = {geoid(i): rng.randrange(1, 40) for i in range(100)}
    mean = population_weighted_mean(values, weights)
    assert min(values.values()) <= mean <= max(values.values())


# ----------------------------------------------------------------------------
# weighted_percentile
# ----------------------------------------------------------------------------

def test_percentile_median_symmetric():
    assert weighted_percentile([1.0, 2.0, 3.0], [1, 1, 1], 0.5) == 2.0


def test_percentile_left_mass():
    assert weighted_percentile([5.0, 10.0], [1, 9], 0.10) == 5.0


def test_percentile_bounds():
    values, weights = [4.0, 7.0, 9.0], [2, 3, 5]
    assert weighted_percentile(values, weights, 0.0) == 4.0
    assert weighted_percentile(values, weights, 1.0) == 9.0


def test_percentile_rejects_bad_p():
    with pytest.raises(ValueError):
        weighted_percentile([1.0], [1], 1.5)


def test_percentile_empty():
    with pytest.raises(EmptyPopulationError):
        weighted_percentile([], [], 0.5)
    with pytest.raises(EmptyPopulationError):
        weighted_percentile([1.0], [0], 0.5)


def expansion_percentile(values, weights, p):
    """Independent oracle: left-continuous inverse CDF on the per-worker list."""
    expanded = sorted(v for v, w in zip(values, weights) for _ in range(w))
    n = len(expanded)
    k = 1
    while k < n and k < p * n:
        k += 1
    # smallest k with k >= p*n (k is at least 1)
    return expanded[k - 1]


@given(st.integers(0, 10_000), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_percentile_matches_expansion_oracle(seed, p):
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    values = [rng.choice([1.0, 2.5, 4.0, 4.0, 7.5, 9.0]) for _ in range(n)]
    weights = [rng.randrange(0, 6) for _ in range(n)]
    if sum(weights) == 0:
        weights[0] = 1
    assert weighted_percentile(values, weights, p) == expansion_percentile(values, weights, p)


# ----------------------------------------------------------------------------
# compute_group_exposures
# ----------------------------------------------------------------------------

def small_world():
    """9 tracts, age-split counts, dyadic concentrations (exact arithmetic)."""
    surface = tract_surface(2011, {
        geoid(i): conc for i, conc in enumerate(
            [6.0, 7.25, 8.5, 9.0, 9.75, 10.5, 11.0, 12.25, 13.5]
        )
    })
    rows = {}
    rng = random.Random(7)
    for i in range(9):
        a1, a2, a3 = rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(0, 9)
        rows[geoid(i)] = (a1 + a2 + a3, {"CA01": a1, "CA02": a2, "CA03": a3})
    return surface, rows


def test_group_exposures_point_mass():
    surface = tract_surface(2011, {geoid(1): 9.5})
    table = {geoid(1): (4, {"CA01": 4, "CA02": 0, "CA03": 0})}
    records = exposure_records(compute_group_exposures(aligned_home(surface, table), AGE))
    by_group = {r.group_key: r for r in records}
    assert by_group["all"].mean == 9.5
    assert by_group["all"].p10 == 9.5
    assert by_group["all"].p90 == 9.5
    assert by_group["age:29_or_less"].weight == 4.0
    # zero-weight groups omitted
    assert "age:30_54" not in by_group


def test_group_exposures_match_expansion_oracle_exactly():
    surface, table = small_world()
    entries = surface_entries(surface)
    records = exposure_records(compute_group_exposures(aligned_home(surface, table), AGE))
    for record in records:
        if record.group_key == "all":
            pick = lambda row: row[0]  # noqa: E731
        else:
            code = {"29_or_less": "CA01", "30_54": "CA02", "55_plus": "CA03"}[record.group]
            pick = lambda row, c=code: row[1][c]  # noqa: E731
        expanded = [
            entries[g]
            for g, row in table.items()
            for _ in range(pick(row))
        ]
        assert record.mean == math.fsum(expanded) / len(expanded)
        assert record.p10 == expansion_percentile(
            list(entries.values()),
            [pick(table[g]) for g in entries],
            0.10,
        )
        assert record.weight == len(expanded)
        assert record.p10 <= record.p90


def test_group_exposures_strata_split():
    surface, table = small_world()
    classification = tract_strata({geoid(i): ("urban" if i < 4 else "rural") for i in range(9)})
    records = exposure_records(compute_group_exposures(
        aligned_home(surface, table), AGE, classification, strata=("all", "urban", "rural")
    ))
    strata = {r.stratum for r in records}
    assert strata == {"all", "urban", "rural"}
    all_weight = next(r.weight for r in records if r.stratum == "all" and r.group_key == "all")
    urban = next(r.weight for r in records if r.stratum == "urban" and r.group_key == "all")
    rural = next(r.weight for r in records if r.stratum == "rural" and r.group_key == "all")
    assert urban + rural == all_weight


def test_group_exposures_weight_scaling_invariance():
    surface, table = small_world()
    base = exposure_records(compute_group_exposures(aligned_home(surface, table), AGE))
    scaled_rows = {
        g: (total * 7, {c: v * 7 for c, v in counts.items()})
        for g, (total, counts) in table.items()
    }
    scaled = exposure_records(compute_group_exposures(aligned_home(surface, scaled_rows), AGE))
    for a, b in zip(base, scaled):
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert b.p10 == a.p10
        assert b.p90 == a.p90
        assert b.weight == a.weight * 7


def test_align_table_dropped_weight():
    surface = tract_surface(2011, {geoid(0): 8.0}, excluded=(geoid(1),))
    aligned = aligned_home(surface, {geoid(0): (3, {}), geoid(1): (11, {})})
    assert aligned.dropped_weight == 11
    assert geoid_text(aligned.geoids) == [geoid(0)]


# ----------------------------------------------------------------------------
# compute_hw_exposures
# ----------------------------------------------------------------------------

def od_matrix(entries):
    return tract_table(entries, n_keys=2)


def test_hw_degenerate_commute():
    surface = tract_surface(2011, {geoid(0): 8.5, geoid(1): 11.0})
    od = od_matrix({
        (geoid(0), geoid(0)): (3, {"SA01": 3, "SA02": 0, "SA03": 0}),
        (geoid(1), geoid(1)): (2, {"SA01": 0, "SA02": 2, "SA03": 0}),
    })
    records, errors = compute_hw_exposures(resolve_pairs(surface, od), OD_AGE)
    by = {(r.group_key, r.locus): r for r in records}
    assert by[("all", "H")].mean == by[("all", "W")].mean == by[("all", "HW")].mean
    for err in errors:
        assert err.error == 0.0
        assert err.percent_error == 0.0


def test_hw_single_pair_arithmetic():
    surface = tract_surface(2011, {geoid(0): 10.0, geoid(1): 20.0})
    od = od_matrix({(geoid(0), geoid(1)): (1, {})})
    records, errors = compute_hw_exposures(resolve_pairs(surface, od), ())
    by = {(r.group_key, r.locus): r for r in records}
    assert by[("all", "HW")].mean == pytest.approx(12.06, abs=1e-12)
    assert errors[0].error == pytest.approx(-2.06, abs=1e-9)
    assert errors[0].percent_error == pytest.approx(-20.6, abs=1e-9)


def test_hw_empty_od():
    surface = tract_surface(2011, {geoid(0): 10.0})
    with pytest.raises(EmptyPopulationError):
        compute_hw_exposures(resolve_pairs(surface, od_matrix({})), ())


def test_hw_unresolvable_pairs_dropped():
    surface = tract_surface(2011, {geoid(0): 10.0})
    od = od_matrix({
        (geoid(0), geoid(0)): (2, {}),
        (geoid(0), geoid(9)): (5, {}),
    })
    pairs = resolve_pairs(surface, od)
    assert pairs.dropped_weight == 5
    records, _ = compute_hw_exposures(resolve_pairs(surface, od), ())
    assert next(r for r in records if r.locus == "HW").weight == 2.0


def random_od_world(seed, n_tracts=40, n_pairs=300):
    rng = random.Random(seed)
    surface = tract_surface(2011, {
        geoid(i): rng.uniform(3.0, 16.0) for i in range(n_tracts)
    })
    entries = {}
    for _ in range(n_pairs):
        key = (geoid(rng.randrange(n_tracts)), geoid(rng.randrange(n_tracts)))
        if key in entries:
            continue
        s1, s2, s3 = (rng.randrange(0, 8) for _ in range(3))
        entries[key] = (s1 + s2 + s3, {"SA01": s1, "SA02": s2, "SA03": s3})
    return surface, od_matrix(entries)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hw_error_identity(seed):
    surface, od = random_od_world(seed)
    classification = tract_strata(
        {g: ("urban" if i % 3 else "rural") for i, g in enumerate(surface_entries(surface))})
    records, errors = compute_hw_exposures(
        resolve_pairs(surface, od), OD_AGE,
        classification=classification, strata=("all", "urban", "rural"),
    )
    by = {(r.group_key, r.stratum, r.locus): r.mean for r in records}
    for err in errors:
        h = by[(err.group_key, err.stratum, "H")]
        w = by[(err.group_key, err.stratum, "W")]
        assert abs(err.error - 0.206 * (h - w)) <= 1e-9
        assert err.percent_error == pytest.approx(100.0 * err.error / h)


def test_hw_zero_home_mean_warns_once_per_year(caplog):
    surface = tract_surface(2011, {geoid(0): 0.0, geoid(1): 0.0})
    classification = tract_strata({geoid(0): "urban", geoid(1): "rural"})
    od = od_matrix({(geoid(0), geoid(1)): (3, {"SA01": 1, "SA02": 2, "SA03": 0})})
    with caplog.at_level(logging.DEBUG, logger="hwexposure.exposure"):
        _, errors = compute_hw_exposures(
            resolve_pairs(surface, od), OD_AGE,
            classification=classification, strata=("all", "urban", "rural"),
        )
    undefined = sum(math.isnan(e.percent_error) for e in errors)
    assert undefined == len(errors) == 6  # all, SA01, SA02 in strata all and urban
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"year 2011: H mean is zero in {undefined} OD group/stratum "
                        "slice(s); their percent error is NaN"]
    details = [r for r in caplog.records
               if r.levelno == logging.DEBUG and "H mean is zero" in r.getMessage()]
    assert len(details) == undefined


def test_hw_stratum_assigned_by_home_tract():
    surface = tract_surface(2011, {geoid(0): 4.0, geoid(1): 10.0})
    classification = tract_strata({geoid(0): "urban", geoid(1): "rural"})
    od = od_matrix({
        (geoid(0), geoid(1)): (1, {}),  # lives urban, works rural
    })
    records, _ = compute_hw_exposures(
        resolve_pairs(surface, od), (), classification=classification, strata=("urban", "rural")
    )
    assert {r.stratum for r in records} == {"urban"}


def one_row_frame(p10, p90, weight):
    return GroupExposures(2011, ["all"], ["all"], ["all"], ("H",), np.array([[5.0]]),
                          np.array([[p10]]), np.array([[p90]]), np.array([weight]))


def test_exposure_record_validates():
    with pytest.raises(ValueError, match=r"^p10 6\.0 > p90 5\.0$"):
        one_row_frame(6.0, 5.0, 1.0).checked()
    with pytest.raises(ValueError, match=r"^negative weight -1\.0$"):
        one_row_frame(5.0, 5.0, -1.0).checked()
    frame = one_row_frame(5.0, 5.0, 1.0)
    assert frame.checked() is frame
    # the first failing row is named, and within it the first failing locus
    frame = GroupExposures(2011, ["all", "all"], ["all", "all"], ["all", "urban"],
                           ("H", "W"), np.zeros((2, 2)), np.array([[0.0, 3.0], [2.0, 0.0]]),
                           np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"^p10 2\.0 > p90 1\.0$"):
        frame.checked()


# ----------------------------------------------------------------------------
# stable_argsort: numpy's stable order from its default sort
# ----------------------------------------------------------------------------

# values that tie, sort apart only by sign or sit at the ends of the order
TIE_FLOATS = [0.0, -0.0, 1.0, 0.1 + 0.2, 0.3, 5e-324, math.inf, -math.inf, math.nan]
# neighbours above 2**53, which a float64 cast would merge, and the int64 ends
BIG_INTS = [2**53, 2**53 + 1, 2**53 + 2, 2**63 - 1, -2**63, 0, -1]


@given(shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
       ints=st.booleans(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_stable_argsort_matches_numpy_stable_sort(shape, ints, data):
    if ints:
        dtype, elements = np.int64, st.sampled_from(BIG_INTS) | st.integers(-2**63, 2**63 - 1)
    else:
        dtype, elements = np.float64, st.sampled_from(TIE_FLOATS) | st.floats()
    values = data.draw(hnp.arrays(dtype, shape, elements=elements))
    expected = np.argsort(values, axis=-1, kind="stable")
    got = stable_argsort(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_stable_argsort_keeps_int64_above_2_53():
    values = np.array([2**53 + 1, 2**53, 2**53 + 1, 2**53], dtype=np.int64)
    assert stable_argsort(values).tolist() == [1, 3, 0, 2]


def test_stable_argsort_orders_ties_and_nans_by_index():
    values = np.array([[math.nan, 0.0, -0.0, math.nan, 0.0, -math.inf, math.nan]])
    assert stable_argsort(values).tolist() == [[5, 1, 2, 4, 0, 3, 6]]


# ----------------------------------------------------------------------------
# ValueSlice: one sort per (locus, stratum) slice, against per-group oracles
# ----------------------------------------------------------------------------

SLICE_VALUES = (0.0, 0.25, 3.5, 7.75, 12.0)
STRATA = ("all", "urban", "rural")


@st.composite
def count_matrices(draw, n_rows, n):
    """(n_rows x n) int64 counts with all-zero and one-worker rows among
    them, in a drawn memory layout."""
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["counts", "counts", "zero", "single"]))
        if kind == "zero" or n == 0:
            rows.append([0] * n)
        elif kind == "single":
            rows.append([0] * n)
            rows[-1][draw(st.integers(0, n - 1))] = 1
        else:
            rows.append(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    matrix = np.array(rows, dtype=np.int64).reshape(n_rows, n)
    return with_layout(matrix, draw(st.sampled_from(["C", "F", "strided"])))


@st.composite
def classified_slices(draw):
    """Tract positions (ascending, repeats for OD homes) among 13 surface
    geoids, tied values, a count matrix whose first row is the totals, and a
    classification that may leave a stratum empty."""
    n = draw(st.integers(0, 24))
    index = np.array(sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))),
                     dtype=np.int64)
    values = np.array(draw(st.lists(st.sampled_from(SLICE_VALUES), min_size=n, max_size=n)))
    others = np.array(draw(st.lists(st.sampled_from(SLICE_VALUES), min_size=n, max_size=n)))
    counts = draw(count_matrices(4, n))
    labels = draw(st.lists(st.sampled_from(["urban", "rural", None]), min_size=13,
                           max_size=13))
    classification = {geoid(i): s for i, s in enumerate(labels) if s is not None}
    return index, values, others, counts, classification


def records_text(compute, *args, **kwargs):
    try:
        return repr(compute(*args, **kwargs))
    except EmptyPopulationError as exc:
        return f"EmptyPopulationError({exc})"


@given(classified_slices())
@settings(max_examples=300, deadline=None)
def test_group_and_hw_exposures_match_per_group_oracle(case):
    index, values, others, counts, classification = case
    geoids = np.array([geoid(i) for i in range(13)], dtype=np.int64)
    codes = ("CA01", "CA02", "CA03")
    aligned = AlignedTable(2011, "H", geoids, index, values, counts[0], codes, counts[1:], 0)
    assert records_text(
        lambda *args: exposure_records(compute_group_exposures(*args)),
        aligned, AGE, tract_strata(classification), STRATA,
    ) == records_text(oracle_group_exposures, aligned, AGE, classification, STRATA)
    pairs = ResolvedPairs(2011, geoids, index, values, others, counts[0],
                          ("SA01", "SA02", "SA03"), counts[1:], 0)
    assert records_text(
        compute_hw_exposures, pairs, OD_AGE, classification=tract_strata(classification),
        strata=STRATA,
    ) == records_text(oracle_hw_exposures, pairs, OD_AGE, classification=classification,
                      strata=STRATA)


@given(classified_slices())
@settings(max_examples=200, deadline=None)
def test_value_slice_percentiles_match_oracle_at_every_p(case):
    _, values, _, counts, _ = case
    ps = (0.0, 0.1, 0.5, 0.9, 1.0)
    value_slice = ValueSlice(values)
    for row in counts:
        weights = row.astype(np.float64)
        if int(row.sum()) == 0:
            with pytest.raises(EmptyPopulationError):
                value_slice.percentiles(weights, ps)
            continue
        got = value_slice.percentiles(weights, ps)
        assert repr(got) == repr([oracle_weighted_percentile(values, row, p) for p in ps])


def test_value_slice_percentile_past_float_drift():
    # ten weights of 0.1 cumsum to 0.9999999999999999 but sum pairwise to
    # 1.0, so p = 1 runs past the end: the answer is the largest value with
    # weight, not the zero-weight value ranked last
    values = np.array([float(v) for v in range(10)] + [100.0])
    weights = np.array([0.1] * 10 + [0.0])
    assert np.cumsum(weights)[-1] < np.sum(weights)
    assert ValueSlice(values).percentiles(weights, (1.0,)) == [9.0]
    assert weighted_percentile(values, weights, 1.0) == 9.0


# ----------------------------------------------------------------------------
# ValueSlice.stats: every group of a slice in one matrix kernel call
# ----------------------------------------------------------------------------

STATS_PS = (0.0, 0.1, 0.5, 0.9, 1.0)


@st.composite
def weight_matrices(draw, n):
    """(rows x n) float64 weights, each row with a positive total: counts
    with zeros between them, one-tract rows, all weight on one tract, and
    rows of 0.1s whose cumsum falls short of p * total by drift. The 0.1
    rows hold no zeros: the kernel sums a row with its zeros, the oracle
    without, and only integer weights (all the pipeline has) sum alike in
    every grouping."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["counts", "single", "heavy", "drift"]))
        row = [0.0] * n
        if kind == "counts":
            row = [float(v) for v in draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))]
            if not any(row):
                row[draw(st.integers(0, n - 1))] = 1.0
        elif kind in ("single", "heavy"):
            row[draw(st.integers(0, n - 1))] = 1.0 if kind == "single" else 1e6
            if kind == "heavy":
                row = [w + (1.0 if draw(st.booleans()) and w == 0.0 else 0.0) for w in row]
        else:
            row = [0.1] * n
        rows.append(row)
    return np.array(rows, dtype=np.float64)


@given(data=st.data(), n=st.integers(1, 20), p=st.floats(0.0, 1.0, allow_nan=False),
       layout=st.sampled_from(["C", "F", "strided"]))
@settings(max_examples=300, deadline=None)
def test_value_slice_stats_match_oracle_row_by_row(data, n, p, layout):
    values = np.array(data.draw(st.lists(st.sampled_from((-0.0, 0.0) + SLICE_VALUES),
                                         min_size=n, max_size=n)))
    weights = data.draw(weight_matrices(n))
    if layout == "F":
        weights = np.asfortranarray(weights)
    elif layout == "strided":
        wide = np.zeros((len(weights), 2 * n))
        wide[:, ::2] = weights
        weights = wide[:, ::2]
    ps = STATS_PS + (p,)
    means, picks = ValueSlice(values).stats(weights, ps)
    assert picks.shape == (len(ps), len(weights))
    for r, row in enumerate(weights):
        assert repr(float(means[r])) == repr(oracle_weighted_mean(values, row))
        assert [float(picks[k, r]) for k in range(len(ps))] == [
            oracle_weighted_percentile(values, row, q) for q in ps]


def test_value_slice_stats_drift_row_among_others():
    # the drift row's cumsum ends below its total: its pick at p = 1 is the
    # largest value with weight, while the other rows search normally
    values = np.array([float(v) for v in range(10)] + [100.0])
    weights = np.array([[0.1] * 10 + [0.0], [1.0] * 11, [0.0] * 10 + [2.0]])
    means, picks = ValueSlice(values).stats(weights, (1.0,))
    assert picks.tolist() == [[9.0, 100.0, 100.0]]
    assert means.tolist() == [oracle_weighted_mean(values, row) for row in weights]


def test_value_slice_stats_rejects_empty_rows_and_slices():
    with pytest.raises(EmptyPopulationError, match="total weight is zero"):
        ValueSlice(np.array([1.0, 2.0])).stats(np.array([[1.0, 0.0], [0.0, 0.0]]), (0.5,))
    with pytest.raises(EmptyPopulationError, match="total weight is zero"):
        ValueSlice(np.empty(0)).stats(np.empty((1, 0)), (0.5,))
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got 1.5"):
        ValueSlice(np.array([1.0])).stats(np.array([[1.0]]), (0.5, 1.5))
