"""Ingestion tests: geocode handling, rollup identities, schema validation."""
from __future__ import annotations

import gzip
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwexposure.errors import FormatError, MalformedGeocodeError, SchemaError, ValidationError
from hwexposure.ingest import (
    OD_SCHEMAS,
    RAC_WAC_SCHEMAS,
    BlockRow,
    GroupSchema,
    ODBlockRow,
    aggregate_od,
    aggregate_to_tracts,
    block_to_tract,
    read_block_csv,
    read_od_csv,
)

AGE_INCOME = tuple(s for s in RAC_WAC_SCHEMAS if s.characteristic in ("age", "income"))


def age_row(geocode, a1, a2, a3):
    total = a1 + a2 + a3
    return BlockRow(geocode=geocode, total=total,
                    counts={"CA01": a1, "CA02": a2, "CA03": a3})


# ----------------------------------------------------------------------------
# block_to_tract
# ----------------------------------------------------------------------------

def test_block_to_tract_prefix():
    assert block_to_tract("060372653011011") == "06037265301"


@pytest.mark.parametrize("bad", ["0603726530", "06037265301A011", "", "0603726530110111"])
def test_block_to_tract_malformed(bad):
    with pytest.raises(MalformedGeocodeError):
        block_to_tract(bad)


# ----------------------------------------------------------------------------
# aggregate_to_tracts
# ----------------------------------------------------------------------------

def test_rollup_additivity():
    rows = [age_row("060372653011011", 1, 1, 1), age_row("060372653012022", 2, 1, 1)]
    table = aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    assert list(table.rows) == ["06037265301"]
    assert table.rows["06037265301"].total == 7
    assert table.rows["06037265301"].counts == {"CA01": 3, "CA02": 2, "CA03": 2}


def test_rollup_empty_input():
    table = aggregate_to_tracts([], "residence", 2011, AGE_INCOME)
    assert table.rows == {}
    assert table.grand_total() == 0


def test_rollup_rejects_bad_role():
    with pytest.raises(SchemaError):
        aggregate_to_tracts([], "commuter", 2011, AGE_INCOME)


def test_rollup_category_sum_error_names_row_and_characteristic():
    rows = [BlockRow("060372653011011", 5, {"CA01": 1, "CA02": 1, "CA03": 1})]
    with pytest.raises(ValidationError) as err:
        aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    assert "060372653011011" in str(err.value)
    assert "age" in str(err.value)


def test_rollup_keeps_zero_total_rows():
    table = aggregate_to_tracts([age_row("060372653011011", 0, 0, 0)], "residence", 2011, AGE_INCOME)
    assert table.rows["06037265301"].total == 0


def test_education_partial_characteristic_not_sum_checked():
    # education is only tabulated for workers aged 30+, so CD sums < C000 are fine
    row = BlockRow("060372653011011", 10,
                   {"CD01": 1, "CD02": 2, "CD03": 1, "CD04": 2})
    table = aggregate_to_tracts([row], "residence", 2011, RAC_WAC_SCHEMAS)
    assert table.rows["06037265301"].counts["CD01"] == 1


def naive_rollup(rows):
    """Independent accumulation oracle: per-tract dict-of-dicts, no shortcuts."""
    out = {}
    for row in rows:
        tract = row.geocode[:11]
        slot = out.setdefault(tract, {"total": 0, "counts": {}})
        slot["total"] += row.total
        for code, c in row.counts.items():
            slot["counts"][code] = slot["counts"].get(code, 0) + c
    return out


def random_rows(rng, n, n_tracts=50):
    rows = []
    for _ in range(n):
        tract = f"06037{rng.randrange(n_tracts):06d}"
        block = f"{tract}{rng.randrange(10_000):04d}"
        a1, a2, a3 = (rng.randrange(100) for _ in range(3))
        e1, e2 = rng.randrange(100), rng.randrange(100)
        e3 = a1 + a2 + a3 - e1 - e2
        if e3 < 0:
            e1, e2, e3 = a1, a2, a3
        rows.append(BlockRow(block, a1 + a2 + a3, {
            "CA01": a1, "CA02": a2, "CA03": a3,
            "CE01": e1, "CE02": e2, "CE03": e3,
        }))
    return rows


def test_rollup_matches_naive_oracle():
    rng = random.Random(17)
    rows = random_rows(rng, 10_000)
    table = aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    oracle = naive_rollup(rows)
    assert table.grand_total() == sum(r.total for r in rows)
    assert set(table.rows) == set(oracle)
    for tract, row in table.rows.items():
        assert row.total == oracle[tract]["total"]
        assert row.counts == oracle[tract]["counts"]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_rollup_order_independent(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 200, n_tracts=12)
    table_a = aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    table_b = aggregate_to_tracts(shuffled, "residence", 2011, AGE_INCOME)
    assert table_a == table_b
    assert list(table_a.rows) == sorted(table_a.rows)


# ----------------------------------------------------------------------------
# aggregate_od
# ----------------------------------------------------------------------------

def od_row(home, work, s1, s2, s3):
    return ODBlockRow(home_geocode=home, work_geocode=work, total=s1 + s2 + s3,
                      counts={"SA01": s1, "SA02": s2, "SA03": s3})


def test_od_additivity():
    rows = [
        od_row("060372653011011", "060372653021011", 1, 1, 0),
        od_row("060372653011022", "060372653021033", 3, 1, 1),
    ]
    od = aggregate_od(rows, 2011, (OD_SCHEMAS[0],))
    key = ("06037265301", "06037265302")
    assert list(od.entries) == [key]
    assert od.entries[key].total == 7
    assert od.entries[key].counts == {"SA01": 4, "SA02": 2, "SA03": 1}


def test_od_same_tract_pair_retained():
    rows = [od_row("060372653011011", "060372653011099", 2, 0, 0)]
    od = aggregate_od(rows, 2011, (OD_SCHEMAS[0],))
    assert ("06037265301", "06037265301") in od.entries


def test_od_matches_naive_oracle():
    rng = random.Random(23)
    rows = []
    for _ in range(5_000):
        home = f"06037{rng.randrange(20):06d}{rng.randrange(100):04d}"
        work = f"06059{rng.randrange(20):06d}{rng.randrange(100):04d}"
        rows.append(od_row(home, work, rng.randrange(50), rng.randrange(50), rng.randrange(50)))
    od = aggregate_od(rows, 2011, (OD_SCHEMAS[0],))
    oracle: dict = {}
    for row in rows:
        key = (row.home_geocode[:11], row.work_geocode[:11])
        slot = oracle.setdefault(key, {"total": 0, "counts": {}})
        slot["total"] += row.total
        for code, c in row.counts.items():
            slot["counts"][code] = slot["counts"].get(code, 0) + c
    assert set(od.entries) == set(oracle)
    for key, entry in od.entries.items():
        assert entry.total == oracle[key]["total"]
        assert entry.counts == oracle[key]["counts"]
    assert od.grand_total() == sum(r.total for r in rows)


# ----------------------------------------------------------------------------
# block-level validation during rollup
# ----------------------------------------------------------------------------

def test_validate_table_clean():
    # A consistent block table rolls up, and every tract's category counts
    # sum to its total for each fully-covered characteristic.
    table = aggregate_to_tracts(random_rows(random.Random(5), 100), "residence", 2011, AGE_INCOME)
    assert table.rows
    for tract in table.rows.values():
        for schema in AGE_INCOME:
            assert sum(tract.counts[c] for c in schema.codes) == tract.total


def test_validate_table_flags_age_mismatch():
    rows = [age_row("060372653011011", 1, 1, 1),
            BlockRow("060372653012022", 10, {"CA01": 3, "CA02": 3, "CA03": 3})]
    with pytest.raises(ValidationError) as err:
        aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    assert str(err.value).startswith("row 060372653012022: age: ")


def test_rollup_rejects_negative_count():
    rows = [age_row("060372653011011", 1, 1, 1), age_row("060372653012022", -1, 2, 2)]
    with pytest.raises(ValidationError) as err:
        aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    assert "060372653012022" in str(err.value)
    assert "negative" in str(err.value)
    rows = [BlockRow("060372653011011", -3, {})]
    with pytest.raises(ValidationError, match="negative total"):
        aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)


def test_fault_injection_single_corruption():
    # Corrupt exactly one category field in an otherwise-consistent block
    # table; the clean table rolls up, the corrupted one names that block.
    rng = random.Random(99)
    rows = random_rows(rng, 1_000, n_tracts=1_000)
    aggregate_to_tracts(rows, "residence", 2011, AGE_INCOME)
    k = rng.randrange(len(rows))
    counts = dict(rows[k].counts)
    counts["CA02"] += 1
    corrupted = rows[:k] + [BlockRow(rows[k].geocode, rows[k].total, counts)] + rows[k + 1:]
    with pytest.raises(ValidationError) as err:
        aggregate_to_tracts(corrupted, "residence", 2011, AGE_INCOME)
    assert str(err.value).startswith(f"row {rows[k].geocode}: age: ")


# ----------------------------------------------------------------------------
# CSV readers
# ----------------------------------------------------------------------------

RAC_CSV = """h_geocode,C000,CA01,CA02,CA03,weird_extra
060372653011011,6,1,2,3,9
060372653012022,3,1,1,1,9
060590423001001,2,0,1,1,9
"""


def test_read_block_csv(tmp_path, caplog):
    path = tmp_path / "rac.csv"
    path.write_text(RAC_CSV)
    rows = read_block_csv(str(path), "residence", AGE_INCOME)
    assert len(rows) == 3
    assert rows[0].geocode == "060372653011011"
    assert rows[0].total == 6
    assert rows[0].counts == {"CA01": 1, "CA02": 2, "CA03": 3}
    assert any("weird_extra" in r.message for r in caplog.records)


def test_read_block_csv_gzip(tmp_path):
    path = tmp_path / "rac.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(RAC_CSV)
    rows = read_block_csv(str(path), "residence", AGE_INCOME)
    assert len(rows) == 3


def test_read_block_csv_missing_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h_geocode,CA01\n060372653011011,1\n")
    with pytest.raises(FormatError):
        read_block_csv(str(path), "residence", AGE_INCOME)


def test_read_block_csv_partial_characteristic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h_geocode,C000,CA01\n060372653011011,1,1\n")
    with pytest.raises(FormatError):
        read_block_csv(str(path), "residence", AGE_INCOME)


def test_read_block_csv_wac_key(tmp_path):
    path = tmp_path / "wac.csv"
    path.write_text("w_geocode,C000\n060372653011011,4\n")
    rows = read_block_csv(str(path), "workplace", ())
    assert rows[0].total == 4


OD_CSV = """w_geocode,h_geocode,S000,SA01,SA02,SA03
060372653021011,060372653011011,3,1,1,1
060372653021011,060372653012022,2,2,0,0
"""


def test_read_od_csv(tmp_path):
    path = tmp_path / "od.csv"
    path.write_text(OD_CSV)
    rows = read_od_csv(str(path), (OD_SCHEMAS[0],))
    assert len(rows) == 2
    assert rows[0].home_geocode == "060372653011011"
    assert rows[0].work_geocode == "060372653021011"
    assert rows[0].counts["SA01"] == 1


def test_read_block_csv_bad_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h_geocode,C000\n060372653011011,x\n")
    with pytest.raises(FormatError):
        read_block_csv(str(path), "residence", ())


def test_read_csv_line_numbers_count_blank_lines(tmp_path):
    # csv.DictReader skips the blank line 3; the bad count is on line 4
    block = tmp_path / "r.csv"
    block.write_text("h_geocode,C000\n060372653011011,5\n\n060372653011012,x\n")
    with pytest.raises(FormatError, match=r"r\.csv:4: column 'C000': bad count 'x'"):
        read_block_csv(str(block), "residence", ())
    od = tmp_path / "od.csv"
    od.write_text("w_geocode,h_geocode,S000\n060372653021011,060372653011011,3\n\n"
                  "060372653021011,060372653012022,y\n")
    with pytest.raises(FormatError, match=r"od\.csv:4: column 'S000': bad count 'y'"):
        read_od_csv(str(od), ())


def test_group_schema_rejects_duplicates():
    with pytest.raises(SchemaError):
        GroupSchema("x", (("A", "a"), ("A", "b")))
