"""Block-level worker-table ingestion: CSV parsing, schema validation, and
block-to-tract rollup for residence, workplace, and origin-destination tables.

Every table, as read and after its rollup, is one WorkerTable of column
arrays. Counts stay 64-bit integers end to end, so every rollup identity is
exact. Rows with a zero total are retained; they legitimately encode empty
blocks.
"""
from __future__ import annotations

import csv
import gzip
import io
import logging
import warnings
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FormatError, MalformedGeocodeError, SchemaError, ValidationError

logger = logging.getLogger(__name__)

RESIDENCE = "residence"
WORKPLACE = "workplace"
ORIGIN_DESTINATION = "od"


@dataclass(frozen=True)
class GroupSchema:
    """One demographic characteristic and its ordered category columns.

    ``partitions_total`` marks characteristics whose categories partition the
    worker total; their per-row category sums must equal the total column.
    Education does not partition (it is only tabulated for workers aged 30+).
    """

    characteristic: str
    categories: tuple[tuple[str, str], ...]  # (column_code, label)
    partitions_total: bool = True

    def __post_init__(self) -> None:
        if not self.categories:
            raise SchemaError(f"{self.characteristic}: empty category list")
        codes = [code for code, _ in self.categories]
        if len(set(codes)) != len(codes):
            raise SchemaError(f"{self.characteristic}: duplicate column codes")

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.categories)


RAC_WAC_SCHEMAS: tuple[GroupSchema, ...] = (
    GroupSchema("race", (
        ("CR01", "white"),
        ("CR02", "black"),
        ("CR03", "native_american"),
        ("CR04", "asian"),
        ("CR05", "pacific_islander"),
        ("CR07", "two_or_more"),
    )),
    GroupSchema("ethnicity", (
        ("CT01", "not_hispanic"),
        ("CT02", "hispanic"),
    )),
    GroupSchema("sex", (
        ("CS01", "male"),
        ("CS02", "female"),
    )),
    GroupSchema("age", (
        ("CA01", "29_or_less"),
        ("CA02", "30_54"),
        ("CA03", "55_plus"),
    )),
    GroupSchema("income", (
        ("CE01", "1250_or_less"),
        ("CE02", "1251_3333"),
        ("CE03", "over_3333"),
    )),
    GroupSchema("education", (
        ("CD01", "no_highschool"),
        ("CD02", "highschool"),
        ("CD03", "some_college"),
        ("CD04", "bachelors_plus"),
    ), partitions_total=False),
    GroupSchema("jobtype", (
        ("CNS01", "agriculture"),
        ("CNS02", "mining"),
        ("CNS03", "utilities"),
        ("CNS04", "construction"),
        ("CNS05", "manufacturing"),
        ("CNS06", "wholesale"),
        ("CNS07", "retail"),
        ("CNS08", "transport_warehouse"),
        ("CNS09", "information"),
        ("CNS10", "finance"),
        ("CNS11", "real_estate"),
        ("CNS12", "professional"),
        ("CNS13", "management"),
        ("CNS14", "admin_waste"),
        ("CNS15", "education_services"),
        ("CNS16", "healthcare"),
        ("CNS17", "arts_recreation"),
        ("CNS18", "accommodation_food"),
        ("CNS19", "other_services"),
        ("CNS20", "public_admin"),
    )),
)

OD_SCHEMAS: tuple[GroupSchema, ...] = (
    GroupSchema("od_age", (
        ("SA01", "29_or_less"),
        ("SA02", "30_54"),
        ("SA03", "55_plus"),
    )),
    GroupSchema("od_income", (
        ("SE01", "1250_or_less"),
        ("SE02", "1251_3333"),
        ("SE03", "over_3333"),
    )),
    GroupSchema("od_supersector", (
        ("SI01", "goods_producing"),
        ("SI02", "trade_transport_utilities"),
        ("SI03", "other_services"),
    )),
)


class WorkerTable(NamedTuple):
    """Worker counts of one LODES table, one row per block, tract or pair.

    ``keys`` holds one geocode array for RAC/WAC tables and the (home, work)
    arrays for OD tables: block geocodes as read (``S16`` Latin-1 bytes, or
    ``U`` text; an over-long geocode is kept over-long), int64 tract ids
    (block // 10_000) after a rollup, which also leaves the rows key-ascending
    and unique. ``codes`` are the category columns in schema order, ``counts``
    their C-contiguous int64 (codes x rows) matrix, and ``totals`` the int64
    total column.
    """

    keys: tuple[np.ndarray, ...]
    totals: np.ndarray
    codes: tuple[str, ...]
    counts: np.ndarray


def block_to_tract(geocode: str) -> str:
    """First 11 digits of a 15-digit block geocode."""
    if len(geocode) != 15 or not (geocode.isascii() and geocode.isdigit()):
        raise MalformedGeocodeError(f"block geocode must be 15 digits, got {geocode!r}")
    return geocode[:11]


def _tract_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each geocode of an ``S`` or ``U`` array is 15 ASCII digits
    (block_to_tract's test), read from its code points, and the int64 value
    of its first 11 digits: the tract id of a valid one."""
    unit = np.dtype(np.uint32 if keys.dtype.kind == "U" else np.uint8)
    chars = keys.view(unit).reshape(len(keys), keys.dtype.itemsize // unit.itemsize)
    ok = (chars[:, 15:] == 0).all(axis=1) & (chars.shape[1] >= 15)
    ids = np.zeros(len(keys), dtype=np.int64)
    for k, column in enumerate(chars[:, :15].T):  # a column at a time beats row reductions
        digit = column - unit.type(ord("0"))  # unsigned: any other character wraps above 9
        ok &= digit <= 9
        if k < 11:
            ids = ids * 10 + digit
    return ok, ids


def _validate(rows: WorkerTable, schemas: Sequence[GroupSchema], well_formed: Sequence) -> None:
    """Raise on the first row, in input order, that has a malformed geocode,
    a negative count, or a category sum other than its total.

    Within that row the checks run in the order home geocode, work geocode,
    total, category counts in column order, then the sums of the
    characteristics that partition the total, in schema order.
    """
    index = {code: i for i, code in enumerate(rows.codes)}
    plan = [
        (s.characteristic, [index[code] for code in s.codes])
        for s in schemas
        if s.partitions_total and all(code in index for code in s.codes)
    ]
    subtotals = [sum(rows.counts[i] for i in codes) for _, codes in plan]
    bad = (rows.totals < 0) | (rows.counts < 0).any(axis=0)
    for ok in well_formed:
        bad |= ~ok
    for sums in subtotals:
        bad |= sums != rows.totals
    if not bad.any():
        return
    r = int(np.argmax(bad))
    keys = [k[r].decode("latin-1") if k.dtype.kind == "S" else str(k[r]) for k in rows.keys]
    for key in keys:
        block_to_tract(key)
    label = "->".join(keys)
    total = int(rows.totals[r])
    if total < 0:
        raise ValidationError(f"row {label}: total: negative total {total}")
    for count in rows.counts[:, r].tolist():
        if count < 0:
            raise ValidationError(f"row {label}: negative count {count}")
    for (characteristic, _), sums in zip(plan, subtotals):
        if sums[r] != total:
            raise ValidationError(
                f"row {label}: {characteristic}: category sum {int(sums[r])} != total {total}"
            )


def _rollup(rows: WorkerTable, schemas: Sequence[GroupSchema]) -> WorkerTable:
    """Validate block rows, then sum them per tract id (exact in int64)."""
    well_formed, tracts = zip(*map(_tract_ids, rows.keys))
    _validate(rows, schemas, well_formed)
    order = np.lexsort(tracts[::-1])
    tracts = [t[order] for t in tracts]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for t in tracts:
        first[1:] |= t[1:] != t[:-1]
    starts = np.flatnonzero(first)
    counts = np.empty((len(rows.counts), len(starts)), dtype=np.int64)  # C order
    for code, row in enumerate(rows.counts):  # a code at a time: no sorted copy of all
        counts[code] = np.add.reduceat(row.take(order), starts)
    return WorkerTable(
        keys=tuple(t[starts] for t in tracts),
        totals=np.add.reduceat(rows.totals[order], starts),
        codes=rows.codes,
        counts=counts,
    )


def aggregate_to_tracts(rows: WorkerTable,
                        schemas: Sequence[GroupSchema] = RAC_WAC_SCHEMAS) -> WorkerTable:
    """Roll RAC/WAC block rows up to tracts, preserving all totals exactly.

    Raises MalformedGeocodeError or ValidationError naming the first
    offending row. Output rows are in ascending tract id order regardless of
    input order; rows with a zero total are kept.
    """
    return _rollup(rows, schemas)


def aggregate_od(rows: WorkerTable, schemas: Sequence[GroupSchema] = OD_SCHEMAS) -> WorkerTable:
    """Roll OD block pairs up to (home tract, work tract) pairs."""
    return _rollup(rows, schemas)


def read_tracts(path: str, role: str) -> tuple[int, WorkerTable]:
    """Read one RAC, WAC or OD table (role RESIDENCE, WORKPLACE or
    ORIGIN_DESTINATION) and roll it up to tracts; also returns its block row
    count. A table without data rows is an error. Every error names the
    file."""
    if role == ORIGIN_DESTINATION:
        rows, rollup = read_od_csv(path), aggregate_od
    else:
        rows, rollup = read_block_csv(path, role), aggregate_to_tracts
    if len(rows.totals) == 0:
        raise FormatError(f"{path}: no data rows")
    try:
        return len(rows.totals), rollup(rows)
    except (MalformedGeocodeError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _open_text(path: str) -> io.TextIOBase:
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8", newline="")


def _resolve_columns(fieldnames: Sequence[str], required: Sequence[str],
                     schemas: Sequence[GroupSchema], path: str) -> list[str]:
    present = set(fieldnames)
    missing = [col for col in required if col not in present]
    if missing:
        raise FormatError(f"{path}: missing required column(s) {missing}")
    category_cols: list[str] = []
    known = set(required)
    for schema in schemas:
        have = [code for code in schema.codes if code in present]
        if have and len(have) != len(schema.codes):
            absent = sorted(set(schema.codes) - set(have))
            raise FormatError(
                f"{path}: characteristic {schema.characteristic!r} is partial; "
                f"missing {absent}"
            )
        category_cols.extend(have)
        known.update(schema.codes)
    unknown = [c for c in fieldnames if c not in known and c != "createdate"]
    if unknown:
        logger.warning("%s: ignoring unknown column(s) %s", path, unknown)
    return category_cols


def _first_bad_count(path: str, header: list[str],
                     columns: Sequence[str]) -> FormatError | None:
    """The first count cell, in file order, that is not an integer, named by
    its file line (blank lines count, unlike in np.loadtxt's row numbers)."""
    with _open_text(path) as fh:
        reader = csv.DictReader(fh, fieldnames=header)
        next(reader)  # the header line
        for rec in reader:
            for column in columns:
                raw = rec[column]
                try:
                    int(raw)
                except (TypeError, ValueError):
                    return FormatError(
                        f"{path}:{reader.line_num}: column {column!r}: bad count {raw!r}")
    return None


def _read_table(path: str, required: Sequence[str], keys: Sequence[str],
                schemas: Sequence[GroupSchema], key_dtype: str = "S16") -> WorkerTable:
    """Parse a worker table's key, total (the last required column) and
    category columns, whole columns at a time."""
    total = required[-1]
    try:
        with _open_text(path) as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            if header:
                header[0] = header[0].removeprefix("\ufeff")  # a UTF-8 byte-order mark
            codes = _resolve_columns(header, required, schemas, path)
            position = {name: i for i, name in enumerate(header)}  # last of a repeated name
            dtype = np.dtype([*((key, key_dtype) for key in keys),
                              ("counts", np.int64, (len(codes) + 1,))])
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(
                        fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                        usecols=[position[c] for c in (*keys, total, *codes)], ndmin=1,
                    )
            except UnicodeDecodeError:  # a ValueError, but not a bad cell
                raise
            except ValueError as exc:
                error = _first_bad_count(path, header, [total, *codes])
                if error is None and key_dtype == "S16":  # a key with no Latin-1 form
                    return _read_table(path, required, keys, schemas, "U16")
                raise (error or FormatError(f"{path}: {exc}")) from exc
    except (EOFError, gzip.BadGzipFile, zlib.error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from exc
    counts = data["counts"]
    return WorkerTable(
        keys=tuple(data[key].copy() for key in keys),
        totals=counts[:, 0].copy(),
        codes=tuple(codes),
        counts=np.ascontiguousarray(counts[:, 1:].T),
    )


def read_block_csv(path: str, role: str,
                   schemas: Sequence[GroupSchema] = RAC_WAC_SCHEMAS) -> WorkerTable:
    """Read a RAC or WAC style CSV (optionally .gz).

    The geocode key column is ``h_geocode`` for residence tables and
    ``w_geocode`` for workplace tables; the total column is ``C000``.
    """
    if role not in (RESIDENCE, WORKPLACE):
        raise SchemaError(f"role must be {RESIDENCE!r} or {WORKPLACE!r}, got {role!r}")
    key = "h_geocode" if role == RESIDENCE else "w_geocode"
    return _read_table(path, [key, "C000"], [key], schemas)


def read_od_csv(path: str, schemas: Sequence[GroupSchema] = OD_SCHEMAS) -> WorkerTable:
    """Read an OD style CSV (optionally .gz) keyed by ``w_geocode,h_geocode``;
    the table's keys are (home, work)."""
    return _read_table(path, ["w_geocode", "h_geocode", "S000"], ["h_geocode", "w_geocode"],
                       schemas)
