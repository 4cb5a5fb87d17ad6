"""Ingestion tests: geocode handling, rollup identities, schema validation."""
from __future__ import annotations

import gzip
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwexposure.errors import (
    EngineError,
    FormatError,
    MalformedGeocodeError,
    SchemaError,
    ValidationError,
)
from hwexposure.exposure import align_table, iter_groups, resolve_pairs
from hwexposure import ingest
from hwexposure.ingest import (
    OD_SCHEMAS,
    RAC_WAC_SCHEMAS,
    GroupSchema,
    aggregate_od,
    aggregate_to_tracts,
    block_to_tract,
    read_block_csv,
    read_od_csv,
)

from helpers import (
    key_text,
    oracle_join,
    oracle_read_tracts,
    oracle_rollup,
    table_rows,
    tract_surface,
    worker_table,
)

AGE_INCOME = tuple(s for s in RAC_WAC_SCHEMAS if s.characteristic in ("age", "income"))


def age_row(geocode, a1, a2, a3):
    return (geocode, a1 + a2 + a3, {"CA01": a1, "CA02": a2, "CA03": a3})


def rollup(rows, schemas=AGE_INCOME):
    return aggregate_to_tracts(worker_table(rows), schemas)


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
    table = rollup(rows)
    assert table_rows(table) == [("06037265301", 7, {"CA01": 3, "CA02": 2, "CA03": 2})]


def test_rollup_empty_input():
    table = rollup([])
    assert table_rows(table) == []
    assert int(table.totals.sum()) == 0


def test_rollup_rejects_bad_role(tmp_path):
    # the role picks the key column, so the reader checks it
    with pytest.raises(SchemaError):
        read_block_csv(str(tmp_path / "rac.csv"), "commuter", AGE_INCOME)


def test_rollup_category_sum_error_names_row_and_characteristic():
    rows = [("060372653011011", 5, {"CA01": 1, "CA02": 1, "CA03": 1})]
    with pytest.raises(ValidationError) as err:
        rollup(rows)
    assert "060372653011011" in str(err.value)
    assert "age" in str(err.value)


def test_rollup_keeps_zero_total_rows():
    table = rollup([age_row("060372653011011", 0, 0, 0)])
    assert table_rows(table)[0][:2] == ("06037265301", 0)


def test_education_partial_characteristic_not_sum_checked():
    # education is only tabulated for workers aged 30+, so CD sums < C000 are fine
    row = ("060372653011011", 10, {"CD01": 1, "CD02": 2, "CD03": 1, "CD04": 2})
    table = rollup([row], RAC_WAC_SCHEMAS)
    assert table_rows(table)[0][2]["CD01"] == 1


def naive_rollup(rows):
    """Independent accumulation oracle: per-tract dict-of-dicts, no shortcuts."""
    out = {}
    for geocode, total, row_counts in rows:
        tract = geocode[:11]
        slot = out.setdefault(tract, {"total": 0, "counts": {}})
        slot["total"] += total
        for code, c in row_counts.items():
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
        rows.append((block, a1 + a2 + a3, {
            "CA01": a1, "CA02": a2, "CA03": a3,
            "CE01": e1, "CE02": e2, "CE03": e3,
        }))
    return rows


def test_rollup_matches_naive_oracle():
    rng = random.Random(17)
    rows = random_rows(rng, 10_000)
    table = rollup(rows)
    oracle = naive_rollup(rows)
    assert int(table.totals.sum()) == sum(r[1] for r in rows)
    assert set(key_text(table.keys[0])) == set(oracle)
    for tract, total, counts in table_rows(table):
        assert total == oracle[tract]["total"]
        assert counts == oracle[tract]["counts"]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_rollup_order_independent(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 200, n_tracts=12)
    table_a = rollup(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    table_b = rollup(shuffled)
    assert table_rows(table_a) == table_rows(table_b)
    geoids = table_a.keys[0].tolist()
    assert geoids == sorted(geoids)


# ----------------------------------------------------------------------------
# aggregate_od
# ----------------------------------------------------------------------------

def od_row(home, work, s1, s2, s3):
    return (home, work, s1 + s2 + s3, {"SA01": s1, "SA02": s2, "SA03": s3})


def od_rollup(rows):
    return aggregate_od(worker_table(rows), (OD_SCHEMAS[0],))


def test_od_additivity():
    rows = [
        od_row("060372653011011", "060372653021011", 1, 1, 0),
        od_row("060372653011022", "060372653021033", 3, 1, 1),
    ]
    od = od_rollup(rows)
    assert table_rows(od) == [("06037265301", "06037265302", 7,
                               {"SA01": 4, "SA02": 2, "SA03": 1})]


def test_od_same_tract_pair_retained():
    rows = [od_row("060372653011011", "060372653011099", 2, 0, 0)]
    od = od_rollup(rows)
    assert [row[:2] for row in table_rows(od)] == [("06037265301", "06037265301")]


def test_od_matches_naive_oracle():
    rng = random.Random(23)
    rows = []
    for _ in range(5_000):
        home = f"06037{rng.randrange(20):06d}{rng.randrange(100):04d}"
        work = f"06059{rng.randrange(20):06d}{rng.randrange(100):04d}"
        rows.append(od_row(home, work, rng.randrange(50), rng.randrange(50), rng.randrange(50)))
    od = od_rollup(rows)
    oracle: dict = {}
    for home, work, total, row_counts in rows:
        key = (home[:11], work[:11])
        slot = oracle.setdefault(key, {"total": 0, "counts": {}})
        slot["total"] += total
        for code, c in row_counts.items():
            slot["counts"][code] = slot["counts"].get(code, 0) + c
    assert {row[:2] for row in table_rows(od)} == set(oracle)
    for home, work, total, counts in table_rows(od):
        assert total == oracle[(home, work)]["total"]
        assert counts == oracle[(home, work)]["counts"]
    assert int(od.totals.sum()) == sum(r[2] for r in rows)


# ----------------------------------------------------------------------------
# block-level validation during rollup
# ----------------------------------------------------------------------------

def test_validate_table_clean():
    # A consistent block table rolls up, and every tract's category counts
    # sum to its total for each fully-covered characteristic.
    table = rollup(random_rows(random.Random(5), 100))
    assert table_rows(table)
    for _, total, counts in table_rows(table):
        for schema in AGE_INCOME:
            assert sum(counts[c] for c in schema.codes) == total


def test_validate_table_flags_age_mismatch():
    rows = [age_row("060372653011011", 1, 1, 1),
            ("060372653012022", 10, {"CA01": 3, "CA02": 3, "CA03": 3})]
    with pytest.raises(ValidationError) as err:
        rollup(rows)
    assert str(err.value).startswith("row 060372653012022: age: ")


def test_rollup_rejects_negative_count():
    rows = [age_row("060372653011011", 1, 1, 1), age_row("060372653012022", -1, 2, 2)]
    with pytest.raises(ValidationError) as err:
        rollup(rows)
    assert "060372653012022" in str(err.value)
    assert "negative" in str(err.value)
    rows = [("060372653011011", -3, {})]
    with pytest.raises(ValidationError, match="negative total"):
        rollup(rows)


def test_fault_injection_single_corruption():
    # Corrupt exactly one category field in an otherwise-consistent block
    # table; the clean table rolls up, the corrupted one names that block.
    rng = random.Random(99)
    rows = random_rows(rng, 1_000, n_tracts=1_000)
    rollup(rows)
    k = rng.randrange(len(rows))
    geocode, total, counts = rows[k]
    counts = dict(counts)
    counts["CA02"] += 1
    corrupted = rows[:k] + [(geocode, total, counts)] + rows[k + 1:]
    with pytest.raises(ValidationError) as err:
        rollup(corrupted)
    assert str(err.value).startswith(f"row {geocode}: age: ")


# ----------------------------------------------------------------------------
# columnar rollup and joins against the per-row dict oracle
# ----------------------------------------------------------------------------

AGE_EDUCATION = tuple(s for s in RAC_WAC_SCHEMAS if s.characteristic in ("age", "education"))
POOL = [f"06037{i:06d}" for i in range(5)]  # few tracts and blocks: repeats and same-tract pairs


def schemas_for(n_keys):
    return AGE_EDUCATION if n_keys == 1 else (OD_SCHEMAS[0],)


@st.composite
def block_rows(draw, n_keys, corrupt=False):
    """(*block geocodes, total, counts) rows in random order; zero totals are
    common. With ``corrupt``, some rows get a bad geocode, a negative count
    or a total off its category sum."""
    schemas = schemas_for(n_keys)
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        blocks = [draw(st.sampled_from(POOL)) + draw(st.sampled_from(["1001", "1002", "2001"]))
                  for _ in range(n_keys)]
        counts = {code: draw(st.integers(0, 4)) for s in schemas for code in s.codes}
        total = sum(counts[code] for code in schemas[0].codes)
        if corrupt:
            kind = draw(st.sampled_from(["none"] * 6 + ["short", "long", "letter", "count", "total"]))
            k = draw(st.integers(0, n_keys - 1))
            if kind == "short":
                blocks[k] = blocks[k][1:]
            elif kind == "long":
                blocks[k] += "7"
            elif kind == "letter":
                blocks[k] = blocks[k][:-1] + "x"
            elif kind == "count":
                counts[draw(st.sampled_from(sorted(counts)))] = -1
            elif kind == "total":
                total += draw(st.sampled_from([-9, -1, 1]))
        rows.append((*blocks, total, counts))
    return rows


def surface_entries():
    return st.dictionaries(st.sampled_from(POOL), st.sampled_from([0.0, 2.5, 7.25, 12.0]))


@given(data=st.data(), n_keys=st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_columnar_rollup_and_join_match_dict_oracle(data, n_keys):
    schemas = schemas_for(n_keys)
    rows = data.draw(block_rows(n_keys))
    entries = data.draw(surface_entries())  # may resolve no tract at all
    codes = [code for s in schemas for code in s.codes]
    rollup_columns = aggregate_to_tracts if n_keys == 1 else aggregate_od
    tracts = rollup_columns(worker_table(rows, codes, n_keys), schemas)
    oracle = oracle_rollup(rows, schemas)
    assert [tuple(row[:n_keys]) for row in table_rows(tracts)] == list(oracle)
    assert [(row[n_keys], row[-1]) for row in table_rows(tracts)] == list(oracle.values())
    assert all(keys.dtype == np.dtype(np.int64) for keys in tracts.keys)

    surface = tract_surface(2011, entries)
    keys, concentrations, totals, groups, dropped = oracle_join(entries, oracle, schemas)
    if n_keys == 1:
        joined = align_table(surface, tracts, "residence")
        assert key_text(joined.geoids) == [key[0] for key in keys]
        values = [joined.concentrations]
    else:
        joined = resolve_pairs(surface, tracts)
        assert key_text(joined.home_geoids) == [key[0] for key in keys]
        values = [joined.home_values, joined.work_values]
    assert list(zip(*(v.tolist() for v in values))) == concentrations
    assert joined.totals.tolist() == totals.tolist()
    assert joined.dropped_weight == dropped
    got = [((characteristic, label), counts.tolist())
           for characteristic, label, counts in iter_groups(schemas, joined)][1:]
    assert got == [(group, counts.tolist()) for group, counts in groups]


@given(data=st.data(), n_keys=st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_columnar_validation_matches_dict_oracle(data, n_keys):
    schemas = schemas_for(n_keys)
    rows = data.draw(block_rows(n_keys, corrupt=True))
    codes = [code for s in schemas for code in s.codes]
    rollup_columns = aggregate_to_tracts if n_keys == 1 else aggregate_od
    outcomes = []
    for rollup_rows in (
        lambda: oracle_rollup(rows, schemas),
        lambda: rollup_columns(worker_table(rows, codes, n_keys), schemas),
    ):
        try:
            rollup_rows()
            outcomes.append(None)
        except EngineError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[1] == outcomes[0]


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
    rows = table_rows(read_block_csv(str(path), "residence", AGE_INCOME))
    assert len(rows) == 3
    assert rows[0] == ("060372653011011", 6, {"CA01": 1, "CA02": 2, "CA03": 3})
    assert any("weird_extra" in r.message for r in caplog.records)


def test_read_block_csv_gzip(tmp_path):
    path = tmp_path / "rac.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(RAC_CSV)
    rows = table_rows(read_block_csv(str(path), "residence", AGE_INCOME))
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
    rows = table_rows(read_block_csv(str(path), "workplace", ()))
    assert rows[0][1] == 4


OD_CSV = """w_geocode,h_geocode,S000,SA01,SA02,SA03
060372653021011,060372653011011,3,1,1,1
060372653021011,060372653012022,2,2,0,0
"""


def test_read_od_csv(tmp_path):
    path = tmp_path / "od.csv"
    path.write_text(OD_CSV)
    rows = table_rows(read_od_csv(str(path), (OD_SCHEMAS[0],)))
    assert len(rows) == 2
    assert rows[0][0] == "060372653011011"  # home
    assert rows[0][1] == "060372653021011"  # work
    assert rows[0][3]["SA01"] == 1


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


# ----------------------------------------------------------------------------
# the int64 reader and rollup against the text-keyed one
# ----------------------------------------------------------------------------

AGE_INCOME_CODES = [code for s in AGE_INCOME for code in s.codes]
OD_CODES = [code for s in OD_SCHEMAS for code in s.codes]


@st.composite
def lodes_text(draw, od):
    """A RAC (age and income columns) or OD table: a few tracts with leading
    zeros, repeated blocks and OD pairs sharing tracts, cells quoted at
    random, and an optional byte-order mark and CRLF line ends."""
    tracts = draw(st.lists(st.builds("{}{:03d}{:06d}".format, st.sampled_from(["01", "06", "72"]),
                                     st.integers(0, 3), st.integers(0, 120)),
                           min_size=1, max_size=5))
    block = st.builds(str.__add__, st.sampled_from(tracts),
                      st.sampled_from(["0001", "1001", "1002", "9999"]))
    header = ["w_geocode", "h_geocode", "S000", *OD_CODES] if od else \
        ["h_geocode", "C000", *AGE_INCOME_CODES]
    schemas = OD_SCHEMAS if od else AGE_INCOME  # three codes each, all partitioning the total
    lines = [header]
    for _ in range(draw(st.integers(1, 25))):
        first = draw(st.lists(st.integers(0, 6), min_size=3, max_size=3))
        counts = first + [c for _ in schemas[1:] for c in draw(st.permutations(first))]
        keys = [draw(block) for _ in range(1 + od)]
        lines.append([*keys, str(sum(first)), *map(str, counts)])
    quote = draw(st.sampled_from(["none", "some", "all"]))
    lines = [[f'"{cell}"' if quote == "all" or (quote == "some" and draw(st.booleans()))
              else cell for cell in line] if k else line for k, line in enumerate(lines)]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(map(",".join, lines)) + "\n"
    return draw(st.sampled_from(["", "\ufeff"])) + text


@given(data=st.data(), od=st.booleans(), compressed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_int64_reader_matches_text_keyed_oracle(tmp_path_factory, data, od, compressed):
    text = data.draw(lodes_text(od))
    path = tmp_path_factory.mktemp("lodes") / ("table.csv.gz" if compressed else "table.csv")
    if compressed:
        path.write_bytes(gzip.compress(text.encode("utf-8")))
    else:
        path.write_bytes(text.encode("utf-8"))
    role = ingest.ORIGIN_DESTINATION if od else ingest.RESIDENCE
    n_blocks, table = ingest.read_tracts(str(path), role)
    want_blocks, want = oracle_read_tracts(str(path), role)
    assert n_blocks == want_blocks
    assert all(keys.dtype == np.int64 for keys in table.keys)
    assert [key_text(keys) for keys in table.keys] == [keys.tolist() for keys in want.keys]
    assert table.codes == want.codes
    assert table.totals.tolist() == want.totals.tolist()
    assert table.counts.tolist() == want.counts.tolist()


def test_od_read_memory_per_row(tmp_path):
    # 200k OD rows over ~73k tracts, so nearly every pair is its own tract pair
    n = 200_000
    rng = np.random.default_rng(11)
    blocks = rng.integers(0, 73_000, (2, n)) * 10_000 + rng.integers(0, 10_000, (2, n))
    sa = rng.integers(0, 5, (n, 3))
    counts = np.hstack([sa.sum(axis=1, keepdims=True), sa, sa[:, [1, 2, 0]], sa[:, [2, 0, 1]]])
    path = tmp_path / "od.csv"
    with open(path, "w") as fh:
        fh.write(",".join(["w_geocode", "h_geocode", "S000", *OD_CODES]) + "\n")
        fh.writelines(f"{w + 60_000_000_000_000:015d},{h + 10_000_000_000_000:015d},"
                      + ",".join(map(str, row)) + "\n"
                      for w, h, row in zip(blocks[0].tolist(), blocks[1].tolist(),
                                           counts.tolist()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        n_blocks, table = ingest.read_tracts(str(path), ingest.ORIGIN_DESTINATION)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_blocks == n and int(table.totals.sum()) == int(counts[:, 0].sum())
    assert (peak - before) / n <= 320
    assert (held - before) / n <= 100
