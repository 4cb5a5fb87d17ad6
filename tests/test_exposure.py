"""Exposure statistics vs per-worker expansion oracles and blend identities."""
from __future__ import annotations

import json
import logging
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hwexposure import exposure, pipeline, synth, zonal
from hwexposure.exposure import (
    AlignedTable,
    align_table,
    compute_group_exposures,
    hw_blend,
    iter_groups,
    resolve_pairs,
    slice_stats,
    stable_argsort,
    stratum_masks,
)
from hwexposure.ingest import (
    OD_SCHEMAS,
    ORIGIN_DESTINATION,
    RAC_WAC_SCHEMAS,
    RESIDENCE,
    WORKPLACE,
    WorkerTable,
    read_tracts,
)
from hwexposure.config import load_config
from hwexposure.errors import ConfigError
from hwexposure.geometry import geoid_text

from helpers import (
    HW_WEIGHTS,
    compute_hw_exposures,
    exposure_records,
    oracle_group_exposures,
    oracle_classified_masks,
    oracle_hw_exposures,
    oracle_matrix_group_exposures,
    oracle_matrix_hw_exposures,
    oracle_schema_groups,
    oracle_searched_stratum_masks,
    oracle_three_locus_hw_exposures,
    oracle_tract_strata,
    oracle_valued_join,
    oracle_valued_surface,
    oracle_weighted_mean,
    oracle_weighted_percentile,
    strata_codes,
    surface_entries,
    tract_surface,
    with_layout,
    with_strata,
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
# hw_blend / the hw_weights split
# ----------------------------------------------------------------------------

def test_hw_blend_direct():
    assert hw_blend(10.0, 20.0, HW_WEIGHTS) == pytest.approx(12.06, abs=1e-12)


def test_hw_blend_identity_when_equal():
    for h in (0.0, 7.8, 12.25, 1e3):
        assert hw_blend(h, h, HW_WEIGHTS) == h


def test_hw_blend_zero_home():
    assert hw_blend(0.0, 1.0, HW_WEIGHTS) == 0.206


def split_config(tmp_path, **keys) -> str:
    """A surface-only config over empty input files, with ``keys`` added."""
    for name in ("grid_2011.asc", "tracts.geojson"):
        (tmp_path / name).touch()
    (tmp_path / "config.json").write_text(json.dumps({
        "years": [2011], "grid": "grid_{year}.asc", "tracts": "tracts.geojson",
        "stages": ["surface"], **keys}))
    return str(tmp_path / "config.json")


def test_hw_weights_default_sums_to_one(tmp_path):
    # a configuration without hw_weights gets the paper's split, of which
    # the run keeps the work share
    assert load_config(split_config(tmp_path)).work_fraction == 0.206
    given = split_config(tmp_path, hw_weights={"home": 0.75, "work": 0.25})
    assert load_config(given).work_fraction == 0.25


def test_hw_weights_validation(tmp_path):
    for home, work, reason in ((0.7, 0.2, "fractions must sum to 1 exactly"),
                               (1.2, -0.2, "fractions must lie strictly between 0 and 1")):
        with pytest.raises(ConfigError) as info:
            load_config(split_config(tmp_path, hw_weights={"home": home, "work": work}))
        assert str(info.value) == f"invalid hw_weights: {reason}"


@given(st.floats(0.0, 50.0, allow_nan=False))
@settings(max_examples=200)
def test_hw_blend_identity_property(h):
    assert hw_blend(h, h, HW_WEIGHTS) == h


def test_hw_blend_arrays_match_scalar():
    rng = random.Random(5)
    h = [rng.uniform(0.0, 40.0) for _ in range(200)]
    w = [rng.uniform(0.0, 40.0) for _ in range(200)]
    blended = hw_blend(np.array(h), np.array(w), 0.25)
    assert blended.tolist() == [hw_blend(a, b, 0.25) for a, b in zip(h, w)]


# ----------------------------------------------------------------------------
# slice_stats, one group: the weighted mean and the percentile picks
# ----------------------------------------------------------------------------

def one_group_stats(values, weights, ps):
    """The slice kernel's mean and picks of one group over ``values``."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return slice_stats(values, stable_argsort(values), weights, weights.sum(), ps)


def mean_of(values, weights) -> float:
    """One group's weighted mean from the slice kernel."""
    return float(one_group_stats(values, weights, ())[0])


def percentile_of(values, weights, p: float) -> float:
    """One group's percentile pick at ``p`` from the slice kernel."""
    return float(one_group_stats(values, weights, (p,))[1][0])


def test_pwm_symmetry():
    assert mean_of([8.0, 10.0], [3, 3]) == 9.0


def test_pwm_direct_arithmetic():
    assert mean_of([8.0, 12.0], [1, 3]) == 11.0


def test_pwm_drops_excluded_tract_weight():
    # a tract without a concentration drops out at the join
    surface = tract_surface(2011, {geoid(1): 8.0})
    aligned = aligned_home(surface, {geoid(1): (2, {}), geoid(9): (100, {})})
    assert aligned.dropped_weight == 100
    assert mean_of(aligned.values("H"), aligned.totals) == 8.0
    assert mean_of([8.0, 30.0], [2, 0]) == 8.0


def test_pwm_empty_population(recorded_run):
    # the exposure stage leaves out and counts each group without workers in
    # a stratum, so every group the kernel gets has workers, its total is
    # their sum, and its order ranks the slice's values ascending
    manifest, calls = recorded_run
    assert manifest["stages"]["exposure"]["skipped"]["zero-weight-group"] > 0
    for values, order, weights, total, _ in calls["slice_stats"]:
        assert len(values) == len(weights)
        assert total == weights.sum() > 0.0
        assert np.array_equal(np.sort(order), np.arange(len(values)))
        assert np.array_equal(values.take(order), np.sort(values))


def test_pwm_expansion_oracle():
    rng = random.Random(31)
    values = [rng.uniform(2.0, 18.0) for _ in range(1000)]
    weights = [rng.randrange(0, 40) for _ in range(1000)]
    expanded = [v for v, w in zip(values, weights) for _ in range(w)]
    oracle = math.fsum(expanded) / len(expanded)
    assert mean_of(values, weights) == pytest.approx(oracle, rel=1e-9)
    assert mean_of(values, weights) == oracle_weighted_mean(
        np.array(values), np.array(weights, dtype=np.float64))


def test_pwm_within_value_range():
    rng = random.Random(32)
    values = [rng.uniform(2.0, 18.0) for _ in range(100)]
    weights = [rng.randrange(1, 40) for _ in range(100)]
    assert min(values) <= mean_of(values, weights) <= max(values)


def test_percentile_median_symmetric():
    assert percentile_of([1.0, 2.0, 3.0], [1, 1, 1], 0.5) == 2.0


def test_percentile_left_mass():
    assert percentile_of([5.0, 10.0], [1, 9], 0.10) == 5.0


def test_percentile_bounds():
    values, weights = [4.0, 7.0, 9.0], [2, 3, 5]
    assert percentile_of(values, weights, 0.0) == 4.0
    assert percentile_of(values, weights, 1.0) == 9.0


def test_percentile_empty(recorded_run):
    # a run asks the kernel for p10 and p90 alone (the OD H means are taken
    # without it), over slices whose groups have workers
    _, calls = recorded_run
    assert {tuple(ps) for *_, ps in calls["slice_stats"]} == {(0.10, 0.90)}
    assert all(len(values) for values, *_ in calls["slice_stats"])


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
    assert percentile_of(values, weights, p) == expansion_percentile(values, weights, p)


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
    records = exposure_records(compute_group_exposures(aligned_home(surface, table)))
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
    records = exposure_records(compute_group_exposures(aligned_home(surface, table)))
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
    surface = with_strata(surface, {geoid(i): ("urban" if i < 4 else "rural") for i in range(9)})
    records = exposure_records(compute_group_exposures(aligned_home(surface, table)))
    strata = {r.stratum for r in records}
    assert strata == {"all", "urban", "rural"}
    all_weight = next(r.weight for r in records if r.stratum == "all" and r.group_key == "all")
    urban = next(r.weight for r in records if r.stratum == "urban" and r.group_key == "all")
    rural = next(r.weight for r in records if r.stratum == "rural" and r.group_key == "all")
    assert urban + rural == all_weight


def test_group_exposures_weight_scaling_invariance():
    surface, table = small_world()
    base = exposure_records(compute_group_exposures(aligned_home(surface, table)))
    scaled_rows = {
        g: (total * 7, {c: v * 7 for c, v in counts.items()})
        for g, (total, counts) in table.items()
    }
    scaled = exposure_records(compute_group_exposures(aligned_home(surface, scaled_rows)))
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


def test_joined_frames_hold_tract_indices_not_values(tmp_path):
    # each frame keeps positions into the year's surface and gathers values on
    # demand; the OD frame's budget is the one the compact pair frame lowers
    synth.synth(str(tmp_path / "w"), seed=5, n_tracts=25, n_groups=3)
    config = load_config(str(tmp_path / "w" / "config.json"),
                         out_dir=str(tmp_path / "out"))
    state, data = pipeline.RunState(config=config), pipeline.YearData(year=2011)
    pipeline._stage_surface(state, data)
    surface = data.surface
    for role, loci in ((RESIDENCE, ("H",)), (WORKPLACE, ("W",)),
                       (ORIGIN_DESTINATION, ("H", "W"))):
        frame, _ = pipeline._join(config, surface, role)
        n = len(frame.totals)
        assert frame.loci == loci and n > 0
        fields = [*frame.index, *(f for f in frame if isinstance(f, np.ndarray))]
        assert not [f for f in fields if f.dtype == np.float64 and f.shape[-1:] == (n,)]
        template = {RESIDENCE: config.rac, WORKPLACE: config.wac, ORIGIN_DESTINATION: config.od}
        _, table = read_tracts(str(config.path(template[role], 2011)), role)
        resolved = np.logical_and.reduce([np.isin(keys, surface.ids) for keys in table.keys])
        for locus, keys in zip(loci, table.keys):
            expected = surface.values[np.searchsorted(surface.ids, keys[resolved])]
            assert frame.values(locus).tobytes() == expected.tobytes()
        if role == ORIGIN_DESTINATION:
            assert sum(f.nbytes for f in fields if f.shape[-1:] == (n,)) <= 96 * n


@st.composite
def joined_worlds(draw):
    """A run's tracts, some excluded this year (NaN), a classification that
    leaves some unlisted, RAC and OD keys (ascending) that include tracts
    outside the run, and a seed for the counts."""
    tracts = sorted(draw(st.sets(st.integers(0, 19), max_size=12)))
    n = len(tracts)
    values = draw(st.lists(st.sampled_from([math.nan, 0.0, 3.5, 12.0]), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(["urban", "rural", None]), min_size=n, max_size=n))
    rac = sorted((k,) for k in draw(st.sets(st.integers(0, 24), max_size=15)))
    od = sorted(draw(st.sets(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=20)))
    return tracts, values, labels, rac, od, draw(st.integers(0, 2**32 - 1))


@given(joined_worlds())
@settings(max_examples=300, deadline=None)
def test_join_and_strata_match_valued_subset_oracle(world):
    # the run-wide surface and per-tract codes against the join over valued
    # tracts only and the searchsorted stratum lookup they replaced
    tracts, values, labels, rac, od, seed = world
    rng = np.random.default_rng(seed)
    ids = np.array([int(geoid(t)) for t in tracts], dtype=np.int64)
    classification = {geoid(t): s for t, s in zip(tracts, labels) if s is not None}
    surface = zonal.TractSurface(2011, ids, np.array(values, dtype=np.float64), {},
                                 strata_codes(ids, classification))
    unclassified = zonal.TractSurface(2011, ids, surface.values, {}, None)
    valued, strata = oracle_valued_surface(surface), oracle_tract_strata(classification)
    for keys, loci, join in ((rac, ("H",), lambda s, t: align_table(s, t, RESIDENCE)),
                             (od, ("H", "W"), resolve_pairs)):
        key_ids = np.array([[int(geoid(k)) for k in key] for key in keys],
                           dtype=np.int64).reshape(len(keys), len(loci))
        counts = rng.integers(0, 5, (2, len(keys)))
        table = WorkerTable(tuple(np.ascontiguousarray(k) for k in key_ids.T),
                            counts.sum(axis=0) + rng.integers(0, 3, len(keys)),
                            ("SA01", "SA02"), counts)
        got, want = join(surface, table), oracle_valued_join(valued, table, loci)
        assert got.dropped_weight == want.dropped_weight
        assert got.totals.tolist() == want.totals.tolist() and got.codes == want.codes
        assert got.counts.tolist() == want.counts.tolist()
        assert got.geoids.tolist() == want.geoids.tolist()
        for locus in loci:
            assert got.values(locus).tobytes() == want.values(locus).tobytes()
        masks = stratum_masks(got)
        oracle = oracle_searched_stratum_masks(want, strata, STRATA)
        assert {k: m.tolist() for k, m in masks.items()} == {
            k: m.tolist() for k, m in oracle.items()}
        assert list(stratum_masks(got._replace(surface=unclassified))) == ["all"]


SCHEMAS = (*RAC_WAC_SCHEMAS, *OD_SCHEMAS)


@st.composite
def coded_tables(draw):
    """A RAC or OD table joined to a run's surface: its codes those of a
    drawn subset of every characteristic (RAC ones next to OD ones), in
    schema order, as the readers give them; its keys may miss the run's
    tracts, so that no row resolves. Also whether the run has an urban mask
    and its ``strata`` setting."""
    n_tracts = draw(st.integers(1, 8))
    ids = np.array([int(geoid(t)) for t in range(n_tracts)], dtype=np.int64)
    values = draw(st.lists(st.sampled_from([math.nan, 2.5, 9.0]), min_size=n_tracts,
                           max_size=n_tracts))
    codes = draw(st.lists(st.sampled_from([0, 1]), min_size=n_tracts, max_size=n_tracts))
    kept = draw(st.sets(st.sampled_from(range(len(SCHEMAS)))))
    columns = tuple(code for k, schema in enumerate(SCHEMAS) if k in kept for code in schema.codes)
    n_keys = draw(st.sampled_from([1, 2]))
    keys = sorted(draw(st.sets(st.tuples(*[st.integers(0, n_tracts)] * n_keys), max_size=10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 4, (len(columns), len(keys)))
    key_ids = np.array([[int(geoid(k)) for k in key] for key in keys],
                       dtype=np.int64).reshape(len(keys), n_keys)
    table = WorkerTable(tuple(np.ascontiguousarray(k) for k in key_ids.T),
                        rng.integers(0, 9, len(keys)), columns, counts)
    return (ids, np.array(values), np.array(codes, dtype=np.int8), table,
            draw(st.booleans()), draw(st.booleans()))


@given(coded_tables())
@settings(max_examples=300, deadline=None)
def test_table_groups_and_strata_match_schema_oracle(case):
    # the groups named by a table's codes and the strata carried by its
    # surface, against the schema walk and the classification and strata
    # arguments they replaced, as the stages passed them
    ids, values, codes, table, has_mask, stratified = case
    classification = codes if has_mask else None
    strata = ("all", "urban", "rural") if has_mask and stratified else ("all",)
    surface = zonal.TractSurface(2011, ids, values, {}, classification if stratified else None)
    join = resolve_pairs if len(table.keys) == 2 else (lambda s, t: align_table(s, t, RESIDENCE))
    aligned = join(surface, table)
    assert [(c, label, counts.tolist()) for c, label, counts in iter_groups(aligned)] == [
        (c, label, counts.tolist())
        for c, label, counts in oracle_schema_groups(SCHEMAS, aligned)]
    masks = stratum_masks(aligned)
    oracle = oracle_classified_masks(aligned, classification, strata)
    assert exposure.reported_strata(surface) == strata == tuple(masks)
    assert {k: m.tolist() for k, m in masks.items()} == {k: m.tolist() for k, m in oracle.items()}


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
    pairs = resolve_pairs(surface, od)
    records, errors = compute_hw_exposures(pairs, HW_WEIGHTS)
    # the frame holds HW alone; the H and W means come from the per-group oracle
    by = {(r.group_key, r.locus): r for r in oracle_hw_exposures(pairs, OD_AGE, HW_WEIGHTS)[0]}
    assert (records[0].group_key, records[0].locus) == ("all", "HW")
    assert by[("all", "H")].mean == by[("all", "W")].mean == records[0].mean
    for err in errors:
        assert err.error == 0.0
        assert err.percent_error == 0.0


def test_hw_single_pair_arithmetic():
    surface = tract_surface(2011, {geoid(0): 10.0, geoid(1): 20.0})
    od = od_matrix({(geoid(0), geoid(1)): (1, {})})
    records, errors = compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
    by = {(r.group_key, r.locus): r for r in records}
    assert by[("all", "HW")].mean == pytest.approx(12.06, abs=1e-12)
    assert errors[0].error == pytest.approx(-2.06, abs=1e-9)
    assert errors[0].percent_error == pytest.approx(-20.6, abs=1e-9)


def test_hw_percent_error_past_float64_is_infinite_without_a_warning():
    # a subnormal H mean puts 100 * error / H mean past float64: the percent
    # error reads -inf, as it did when the division warned
    surface = tract_surface(2011, {geoid(0): 1e-310, geoid(1): 40.0})
    od = od_matrix({(geoid(0), geoid(1)): (1, {})})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = exposure.compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
    assert frame.error.tolist() == [1e-310 - exposure.hw_blend(1e-310, 40.0, HW_WEIGHTS)]
    assert frame.percent_error.tolist() == [-math.inf]


def test_hw_empty_od():
    # an OD table without resolvable pairs or workers gets an empty frame:
    # every (stratum, group) slice has zero weight and is left out
    surface = tract_surface(2011, {geoid(0): 10.0})
    zero = od_matrix({(geoid(0), geoid(0)): (0, {"SA01": 0, "SA02": 0, "SA03": 0})})
    for od in (od_matrix({}), zero):
        frame = exposure.compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
        assert frame.locus == "HW"
        assert frame.mean.shape == frame.p10.shape == frame.p90.shape == (0,)
        assert frame.weight.size == frame.error.size == frame.percent_error.size == 0


def test_hw_unresolvable_pairs_dropped():
    surface = tract_surface(2011, {geoid(0): 10.0})
    od = od_matrix({
        (geoid(0), geoid(0)): (2, {}),
        (geoid(0), geoid(9)): (5, {}),
    })
    pairs = resolve_pairs(surface, od)
    assert pairs.dropped_weight == 5
    records, _ = compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
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
    classification = {
        g: ("urban" if i % 3 else "rural") for i, g in enumerate(surface_entries(surface))}
    pairs = resolve_pairs(with_strata(surface, classification), od)
    _, errors = compute_hw_exposures(pairs, HW_WEIGHTS)
    # the H and W means the OD frame no longer holds, from the per-group oracle
    records, _ = oracle_hw_exposures(pairs, OD_AGE, HW_WEIGHTS, classification, STRATA)
    by = {(r.group_key, r.stratum, r.locus): r.mean for r in records}
    assert len(records) == 3 * len(errors)
    for err in errors:
        h = by[(err.group_key, err.stratum, "H")]
        w = by[(err.group_key, err.stratum, "W")]
        assert abs(err.error - 0.206 * (h - w)) <= 1e-9
        assert err.percent_error == pytest.approx(100.0 * err.error / h)


def test_hw_zero_home_mean_warns_once_per_year(caplog):
    surface = with_strata(tract_surface(2011, {geoid(0): 0.0, geoid(1): 0.0}),
                          {geoid(0): "urban", geoid(1): "rural"})
    od = od_matrix({(geoid(0), geoid(1)): (3, {"SA01": 1, "SA02": 2, "SA03": 0})})
    with caplog.at_level(logging.DEBUG, logger="hwexposure.exposure"):
        _, errors = compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
    undefined = sum(math.isnan(e.percent_error) for e in errors)
    assert undefined == len(errors) == 6  # all, SA01, SA02 in strata all and urban
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"year 2011: H mean is zero in {undefined} OD group/stratum "
                        "slice(s); their percent error is NaN"]
    details = [r for r in caplog.records
               if r.levelno == logging.DEBUG and "H mean is zero" in r.getMessage()]
    assert len(details) == undefined


def test_hw_stratum_assigned_by_home_tract():
    surface = with_strata(tract_surface(2011, {geoid(0): 4.0, geoid(1): 10.0}),
                          {geoid(0): "urban", geoid(1): "rural"})
    od = od_matrix({
        (geoid(0), geoid(1)): (1, {}),  # lives urban, works rural
    })
    records, _ = compute_hw_exposures(resolve_pairs(surface, od), HW_WEIGHTS)
    assert {r.stratum for r in records} - {"all"} == {"urban"}


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
# slice_stats: one sort per (locus, stratum) slice, against per-group oracles
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
    """Tied values of 13 surface tracts, each row's home (ascending, repeats
    as for OD pairs) and work tract among them, a count matrix whose first row
    is the totals, and a classification that may leave a stratum empty."""
    surface_values = np.array(draw(st.lists(st.sampled_from(SLICE_VALUES), min_size=13,
                                            max_size=13)))
    n = draw(st.integers(0, 24))
    home = np.array(sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))),
                    dtype=np.int64)
    work = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=np.int64)
    counts = draw(count_matrices(4, n))
    labels = draw(st.lists(st.sampled_from(["urban", "rural", None]), min_size=13,
                           max_size=13))
    classification = {geoid(i): s for i, s in enumerate(labels) if s is not None}
    return surface_values, home, work, counts, classification


def records_text(compute, *args, **kwargs):
    return repr(compute(*args, **kwargs))


@given(classified_slices())
@settings(max_examples=300, deadline=None)
def test_group_and_hw_exposures_match_per_group_oracle(case):
    surface_values, home, work, counts, classification = case
    surface = with_strata(tract_surface(2011, dict(zip(map(geoid, range(13)), surface_values))),
                          classification)
    codes = ("CA01", "CA02", "CA03")
    aligned = AlignedTable(surface, ("H",), (home,), counts[0], codes, counts[1:], 0)
    assert records_text(
        lambda *args: exposure_records(compute_group_exposures(*args)), aligned,
    ) == records_text(oracle_group_exposures, aligned, AGE, classification, STRATA)
    pairs = AlignedTable(surface, ("H", "W"), (home, work), counts[0],
                         ("SA01", "SA02", "SA03"), counts[1:], 0)

    def oracle_hw_rows(*args, **kwargs):
        # the OD frame holds the HW rows of the oracle's H, W and HW
        records, errors = oracle_hw_exposures(*args, **kwargs)
        return [r for r in records if r.locus == "HW"], errors

    assert records_text(
        compute_hw_exposures, pairs, HW_WEIGHTS,
    ) == records_text(oracle_hw_rows, pairs, OD_AGE, HW_WEIGHTS,
                      classification=classification,
                      strata=STRATA)


@given(classified_slices(), st.sampled_from([1.0, 0.1, 1 / 3]))
@settings(max_examples=300, deadline=None)
def test_hw_frame_is_the_three_locus_frames_hw_rows_with_one_sort_per_stratum(case, scale):
    # the one-locus OD kernel against the three-locus kernel it replaced: the
    # same HW rows, error and percent error bit for bit, with one sort per
    # stratum where the old kernel sorted H, W and HW in each stratum with
    # workers; a scale of 0.1 or 1/3 makes the values inexact, so that a sum
    # in another order shows in the bits
    surface_values, home, work, counts, classification = case
    surface = with_strata(tract_surface(
        2011, dict(zip(map(geoid, range(13)), surface_values * scale))), classification)
    pairs = AlignedTable(surface, ("H", "W"), (home, work), counts[0],
                         ("SA01", "SA02", "SA03"), counts[1:], 0)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as new_sorts:
        frame = exposure.compute_hw_exposures(pairs, HW_WEIGHTS)
    with mock.patch.object(exposure, "stable_argsort", wraps=stable_argsort) as old_sorts:
        old = oracle_three_locus_hw_exposures(pairs, HW_WEIGHTS)
    k = old.loci.index("HW")
    assert frame.locus == "HW"
    assert repr([frame.characteristic, frame.label, frame.stratum, frame.weight.tolist(),
                 frame.mean.tolist(), frame.p10.tolist(), frame.p90.tolist(),
                 frame.error.tolist(), frame.percent_error.tolist()]) == repr(
        [old.characteristic, old.label, old.stratum, old.weight.tolist(),
         old.mean[k].tolist(), old.p10[k].tolist(), old.p90[k].tolist(),
         old.error.tolist(), old.percent_error.tolist()])
    masks = stratum_masks(pairs).values()
    assert new_sorts.call_count == len(masks)
    assert old_sorts.call_count == 3 * sum(bool(counts.compress(mask, axis=1).any())
                                           for mask in masks)


@given(classified_slices())
@settings(max_examples=200, deadline=None)
def test_value_slice_percentiles_match_oracle_at_every_p(case):
    surface_values, home, _, counts, _ = case
    values = surface_values.take(home)
    ps = (0.0, 0.1, 0.5, 0.9, 1.0)
    for row in counts:
        weights = row.astype(np.float64)
        if int(row.sum()) == 0:
            continue  # the stages leave out a group without workers
        got = slice_stats(values, stable_argsort(values), weights, weights.sum(), ps)[1]
        assert repr(list(map(float, got))) == repr(
            [oracle_weighted_percentile(values, row, p) for p in ps])


# ----------------------------------------------------------------------------
# slice_stats: one group of a slice per call, row by row against the oracles
# ----------------------------------------------------------------------------

STATS_PS = (0.0, 0.1, 0.5, 0.9, 1.0)


@st.composite
def weight_matrices(draw, n):
    """(rows x n) float64 weights, each row with a positive total: counts
    with zeros between them, one-tract rows and all weight on one tract.
    They are integers, as all the pipeline has, so every grouping of a row
    sums alike, and its cumsum ends at its total."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["counts", "single", "heavy"]))
        row = [0.0] * n
        if kind == "counts":
            row = [float(v) for v in draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))]
            if not any(row):
                row[draw(st.integers(0, n - 1))] = 1.0
        else:
            row[draw(st.integers(0, n - 1))] = 1.0 if kind == "single" else 1e6
            if kind == "heavy":
                row = [w + (1.0 if draw(st.booleans()) and w == 0.0 else 0.0) for w in row]
        rows.append(row)
    return np.array(rows, dtype=np.float64)


@given(data=st.data(), n=st.integers(1, 20), p=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_value_slice_stats_match_oracle_row_by_row(data, n, p):
    values = np.array(data.draw(st.lists(st.sampled_from((-0.0, 0.0) + SLICE_VALUES),
                                         min_size=n, max_size=n)))
    weights = data.draw(weight_matrices(n))
    ps = STATS_PS + (p,)
    order = stable_argsort(values)
    for row in weights:
        mean, picks = slice_stats(values, order, row, row.sum(), ps)
        assert repr(float(mean)) == repr(oracle_weighted_mean(values, row))
        assert list(map(float, picks)) == [oracle_weighted_percentile(values, row, q) for q in ps]


# ----------------------------------------------------------------------------
# the one-group kernel against the (groups x rows) matrix kernel it replaced
# ----------------------------------------------------------------------------

@st.composite
def exposure_tables(draw):
    """An OD-shaped table over 13 surface tracts: tied values, +-0.0 and
    inexact ones; up to 300 rows (past the 128-value blocks of numpy's
    pairwise sum), or none, as when no row resolved (no codes then); groups
    of small counts, counts up to 1e6, one worker or none; and a
    classification that may leave a stratum without rows or without
    workers, or no strata."""
    surface_values = np.array(draw(st.lists(
        st.sampled_from((-0.0, 0.0) + SLICE_VALUES) | st.integers(1, 150).map(lambda k: k / 3),
        min_size=13, max_size=13)))
    n = draw(st.sampled_from([0, 1, 2, 9, 40, 129, 300]))
    home = np.sort(draw(hnp.arrays(np.int64, n, elements=st.integers(0, 12))))
    work = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 12)))
    rows = []
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        kind = draw(st.sampled_from(["small", "large", "zero", "single"]))
        row = np.zeros(n, dtype=np.int64)
        if kind == "single":
            row[draw(st.integers(0, n - 1))] = 1
        elif kind != "zero":
            row = draw(hnp.arrays(np.int64, n, elements=st.integers(
                0, 6 if kind == "small" else 10**6)))
        rows.append(row)
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    totals = counts.sum(axis=0) + draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    surface = tract_surface(2011, dict(zip(map(geoid, range(13)), surface_values)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(["urban", "rural", None]), min_size=13,
                               max_size=13))
        surface = with_strata(surface, {geoid(i): s for i, s in enumerate(labels)
                                        if s is not None})
    return surface, home, work, totals, counts


def frame_text(frame: exposure.GroupExposures) -> str:
    return repr([c.tolist() if isinstance(c, np.ndarray) else c for c in frame])


@given(exposure_tables())
@settings(max_examples=300, deadline=None)
def test_group_and_hw_exposures_match_matrix_oracle(case):
    surface, home, work, totals, counts = case
    aligned = AlignedTable(surface, ("H",), (home,), totals,
                           ("CA01", "CA02", "CA03", "CE01")[:len(counts)], counts, 0)
    assert frame_text(compute_group_exposures(aligned)) == frame_text(
        oracle_matrix_group_exposures(aligned, "H", aligned.values("H")))
    pairs = AlignedTable(surface, ("H", "W"), (home, work), totals,
                         ("SA01", "SA02", "SA03", "SE01")[:len(counts)], counts, 0)
    assert frame_text(exposure.compute_hw_exposures(pairs, HW_WEIGHTS)) == frame_text(
        oracle_matrix_hw_exposures(pairs, HW_WEIGHTS))


@given(classified_slices(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_exposures_hold_under_any_order_within_a_tie(case, rnd):
    # the kernel's sort leaves each run of tied values in any order: under
    # every such order, drawn here, both frames equal the matrix oracle's,
    # which ranks ties stably; quarter-unit values over 13 tracts tie heavily,
    # and a zero is drawn as -0.0 or 0.0, which tie but print apart
    surface_values, home, work, counts, classification = case
    surface_values = np.array([-v if v == 0.0 and rnd.random() < 0.5 else v
                               for v in surface_values])
    surface = with_strata(tract_surface(2011, dict(zip(map(geoid, range(13)), surface_values))),
                          classification)
    homes = AlignedTable(surface, ("H",), (home,), counts[0], ("CA01", "CA02", "CA03"),
                         counts[1:], 0)
    pairs = AlignedTable(surface, ("H", "W"), (home, work), counts[0],
                         ("SA01", "SA02", "SA03"), counts[1:], 0)

    def any_tie_order(values):
        return np.lexsort((rnd.sample(range(len(values)), len(values)), values))

    with mock.patch.object(np, "argsort", side_effect=any_tie_order) as sorts:
        frames = compute_group_exposures(homes), exposure.compute_hw_exposures(pairs, HW_WEIGHTS)
    assert sorts.call_count == 2 * len(stratum_masks(homes))
    assert frame_text(frames[0]) == frame_text(
        oracle_matrix_group_exposures(homes, "H", homes.values("H")))
    assert frame_text(frames[1]) == frame_text(oracle_matrix_hw_exposures(pairs, HW_WEIGHTS))


def test_hw_exposures_peak_memory_per_pair():
    # a float64 (groups x pairs) matrix alone costs 80 B per pair with the
    # total and 9 groups; the one-group kernel holds a few 1-D arrays
    rng = np.random.default_rng(11)
    n_tracts, n = 2_000, 200_000
    surface = with_strata(tract_surface(2011, dict(zip(
        map(geoid, range(n_tracts)), rng.choice([1.0, 2.5, 4.0, 7.75], n_tracts) + 0.1))),
        {geoid(i): ("urban", "rural")[i % 2] for i in range(n_tracts)})
    counts = rng.integers(0, 5, (9, n), dtype=np.int64)
    pairs = AlignedTable(surface, ("H", "W"), (np.sort(rng.integers(0, n_tracts, n)),
                                               rng.integers(0, n_tracts, n)),
                         counts.sum(axis=0), ("SA01", "SA02", "SA03", "SE01", "SE02", "SE03",
                                              "SI01", "SI02", "SI03"), counts, 0)
    tracemalloc.start()
    try:
        frame = exposure.compute_hw_exposures(pairs, HW_WEIGHTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frame.mean) == 30
    assert peak / n < 100, f"{peak / n:.0f} B per pair"
