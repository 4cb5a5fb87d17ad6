"""Block-level worker-table ingestion: CSV parsing, schema validation, and
block-to-tract rollup for residence, workplace, and origin-destination tables.

Counts stay 64-bit integers end to end, so every rollup identity is exact.
Rows with a zero total are retained; they legitimately encode empty blocks.
"""
from __future__ import annotations

import csv
import gzip
import io
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FormatError, MalformedGeocodeError, SchemaError, ValidationError

logger = logging.getLogger(__name__)

RESIDENCE = "residence"
WORKPLACE = "workplace"


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


@dataclass(frozen=True)
class BlockRow:
    """One census-block row: 15-digit geocode, total, per-category counts."""

    geocode: str
    total: int
    counts: dict[str, int]


@dataclass(frozen=True)
class ODBlockRow:
    """One origin-destination block pair row."""

    home_geocode: str
    work_geocode: str
    total: int
    counts: dict[str, int]


@dataclass(frozen=True)
class TractCounts:
    total: int
    counts: dict[str, int]


@dataclass(frozen=True)
class WorkerTable:
    """Tract-level worker counts for one role (residence or workplace)."""

    role: str
    year: int
    rows: dict[str, TractCounts]

    def grand_total(self) -> int:
        return sum(r.total for r in self.rows.values())


@dataclass(frozen=True)
class ODMatrix:
    """Tract-level home-work worker counts."""

    year: int
    entries: dict[tuple[str, str], TractCounts]

    def grand_total(self) -> int:
        return sum(e.total for e in self.entries.values())


def block_to_tract(geocode: str) -> str:
    """First 11 digits of a 15-digit block geocode."""
    if len(geocode) != 15 or not geocode.isdigit():
        raise MalformedGeocodeError(f"block geocode must be 15 digits, got {geocode!r}")
    return geocode[:11]


class _RowValidator:
    """Per-row checks during rollup; raises on the first offending row.

    The partition-sum plan depends only on which category columns a row
    carries, so it is computed once per distinct key set, not per row.
    """

    def __init__(self, schemas: Sequence[GroupSchema]):
        self._schemas = schemas
        self._plans: dict[tuple[str, ...], tuple[tuple[str, tuple[str, ...]], ...]] = {}

    def check(self, key: str, total: int, counts: dict[str, int]) -> None:
        if total < 0:
            raise ValidationError(f"row {key}: total: negative total {total}")
        plan_key = tuple(counts)
        plan = self._plans.get(plan_key)
        if plan is None:
            plan = tuple(
                (s.characteristic, s.codes)
                for s in self._schemas
                if s.partitions_total and all(code in counts for code in s.codes)
            )
            self._plans[plan_key] = plan
        for count in counts.values():
            if count < 0:
                raise ValidationError(f"row {key}: negative count {count}")
        for characteristic, codes in plan:
            subtotal = 0
            for code in codes:
                subtotal += counts[code]
            if subtotal != total:
                raise ValidationError(
                    f"row {key}: {characteristic}: category sum {subtotal} != total {total}"
                )


def aggregate_to_tracts(rows: Iterable[BlockRow], role: str, year: int,
                        schemas: Sequence[GroupSchema] = RAC_WAC_SCHEMAS) -> WorkerTable:
    """Roll block rows up to tracts, preserving all totals exactly.

    Raises ValidationError naming the offending row and characteristic when a
    row breaks non-negativity or a category-sum identity. Output rows are in
    ascending geoid order regardless of input order.
    """
    if role not in (RESIDENCE, WORKPLACE):
        raise SchemaError(f"role must be {RESIDENCE!r} or {WORKPLACE!r}, got {role!r}")
    validator = _RowValidator(schemas)
    totals: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for row in rows:
        tract = block_to_tract(row.geocode)
        validator.check(row.geocode, row.total, row.counts)
        if tract in totals:
            totals[tract] += row.total
            acc = counts[tract]
            for code, c in row.counts.items():
                acc[code] = acc.get(code, 0) + c
        else:
            totals[tract] = row.total
            counts[tract] = dict(row.counts)
    table_rows = {
        tract: TractCounts(total=totals[tract], counts=counts[tract])
        for tract in sorted(totals)
    }
    return WorkerTable(role=role, year=year, rows=table_rows)


def aggregate_od(rows: Iterable[ODBlockRow], year: int,
                 schemas: Sequence[GroupSchema] = OD_SCHEMAS) -> ODMatrix:
    """Roll OD block pairs up to (home tract, work tract) pairs."""
    validator = _RowValidator(schemas)
    totals: dict[tuple[str, str], int] = {}
    counts: dict[tuple[str, str], dict[str, int]] = {}
    for row in rows:
        key = (block_to_tract(row.home_geocode), block_to_tract(row.work_geocode))
        validator.check(f"{row.home_geocode}->{row.work_geocode}", row.total, row.counts)
        if key in totals:
            totals[key] += row.total
            acc = counts[key]
            for code, c in row.counts.items():
                acc[code] = acc.get(code, 0) + c
        else:
            totals[key] = row.total
            counts[key] = dict(row.counts)
    entries = {
        key: TractCounts(total=totals[key], counts=counts[key])
        for key in sorted(totals)
    }
    return ODMatrix(year=year, entries=entries)


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


def _parse_count(raw: str, path: str, reader: csv.DictReader, column: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        # line_num, not a row count: DictReader skips blank lines
        raise FormatError(
            f"{path}:{reader.line_num}: column {column!r}: bad count {raw!r}") from exc


def read_block_csv(path: str, role: str,
                   schemas: Sequence[GroupSchema] = RAC_WAC_SCHEMAS) -> list[BlockRow]:
    """Read a RAC or WAC style CSV (optionally .gz).

    The geocode key column is ``h_geocode`` for residence tables and
    ``w_geocode`` for workplace tables; the total column is ``C000``.
    """
    key = "h_geocode" if role == RESIDENCE else "w_geocode"
    rows: list[BlockRow] = []
    with _open_text(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise FormatError(f"{path}: empty file")
        category_cols = _resolve_columns(reader.fieldnames, [key, "C000"], schemas, path)
        for rec in reader:
            rows.append(BlockRow(
                geocode=rec[key],
                total=_parse_count(rec["C000"], path, reader, "C000"),
                counts={c: _parse_count(rec[c], path, reader, c) for c in category_cols},
            ))
    return rows


def read_od_csv(path: str,
                schemas: Sequence[GroupSchema] = OD_SCHEMAS) -> list[ODBlockRow]:
    """Read an OD style CSV (optionally .gz) keyed by ``w_geocode,h_geocode``."""
    rows: list[ODBlockRow] = []
    with _open_text(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise FormatError(f"{path}: empty file")
        category_cols = _resolve_columns(
            reader.fieldnames, ["w_geocode", "h_geocode", "S000"], schemas, path
        )
        for rec in reader:
            rows.append(ODBlockRow(
                home_geocode=rec["h_geocode"],
                work_geocode=rec["w_geocode"],
                total=_parse_count(rec["S000"], path, reader, "S000"),
                counts={c: _parse_count(rec[c], path, reader, c) for c in category_cols},
            ))
    return rows
