"""Block-level worker-table ingestion: CSV parsing, schema validation, and
block-to-tract rollup for residence, workplace, and origin-destination tables.

Every table is one WorkerTable of column arrays: as read, views of the one
record array numpy parsed; after its rollup, new arrays with C-contiguous
(codes x tracts) counts. Counts stay 64-bit integers end to end, so every
rollup identity is exact. Rows with a zero total are retained; they
legitimately encode empty blocks.
"""
from __future__ import annotations

import contextlib
import gzip
import itertools
import logging
import math
import warnings
import zlib
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import FormatError

logger = logging.getLogger(__name__)

RESIDENCE = "residence"
WORKPLACE = "workplace"
ORIGIN_DESTINATION = "od"


class GroupSchema(NamedTuple):
    """One demographic characteristic and its ordered (column_code, label)
    categories.

    ``partitions_total`` marks characteristics whose categories partition the
    worker total; their per-row category sums must equal the total column.
    Education does not partition (it is only tabulated for workers aged 30+).
    The schemas are constants of this module; a test checks that every code
    is named once.
    """

    characteristic: str
    categories: tuple[tuple[str, str], ...]
    partitions_total: bool = True

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

# The (characteristic, label) of every category column; no code is in two schemas.
GROUPS = {code: (schema.characteristic, label)
          for schema in (*RAC_WAC_SCHEMAS, *OD_SCHEMAS) for code, label in schema.categories}


class WorkerTable(NamedTuple):
    """Worker counts of one LODES table, one row per block, tract or pair.

    ``keys`` holds one geocode array for RAC/WAC tables and the (home, work)
    arrays for OD tables: block geocodes as read (``S16`` Latin-1 bytes, which
    a rollup also takes as ``U`` text; an over-long geocode is kept
    over-long), int64 tract ids
    (block // 10_000) after a rollup, which also leaves the rows key-ascending
    and unique. ``codes`` are the category columns in schema order, ``counts``
    their int64 (codes x rows) matrix, and ``totals`` the int64 total column.
    A table as read holds views of the one record array numpy parsed (its
    ``counts`` strided); a rolled-up table's ``counts`` are C-contiguous.
    """

    keys: tuple[np.ndarray, ...]
    totals: np.ndarray
    codes: tuple[str, ...]
    counts: np.ndarray


def _tract_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each geocode of an ``S`` or ``U`` array is 15 ASCII digits,
    read from its code points, and the int64 value of its first 11 digits:
    the tract id of a valid one."""
    keys = np.ascontiguousarray(keys)  # a strided field of the parsed records: view needs a copy
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
    plan = [(s.characteristic, [index[code] for code in s.codes]) for s in schemas
            if s.partitions_total and all(code in index for code in s.codes)]
    bad = (rows.totals < 0) | (rows.counts.min(axis=0, initial=0) < 0)
    for ok in well_formed:
        bad |= ~ok
    for _, at in plan:  # one at a time, a view of its columns where adjacent, as read
        rows_at = slice(at[0], at[-1] + 1) if at == [*range(at[0], at[-1] + 1)] else at
        bad |= np.add.reduceat(rows.counts[rows_at], [0])[0] != rows.totals  # fastest strided
    if not bad.any():
        return
    r = int(np.argmax(bad))
    keys = [k[r].decode("latin-1") if k.dtype.kind == "S" else str(k[r]) for k in rows.keys]
    for key, ok in zip(keys, well_formed):
        if not ok[r]:
            raise FormatError(f"block geocode must be 15 digits, got {key!r}")
    label = "->".join(keys)
    total = int(rows.totals[r])
    if total < 0:
        raise FormatError(f"row {label}: total: negative total {total}")
    for count in rows.counts[:, r].tolist():
        if count < 0:
            raise FormatError(f"row {label}: negative count {count}")
    for characteristic, codes in plan:
        subtotal = sum(rows.counts[codes, r].tolist())  # Python ints: exact past int64
        if subtotal != total:
            raise FormatError(
                f"row {label}: {characteristic}: category sum {subtotal} != total {total}")


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


def aggregate_to_tracts(rows: WorkerTable) -> WorkerTable:
    """Roll RAC/WAC block rows up to tracts, preserving all totals exactly.

    Raises FormatError naming the first offending row. Output rows are in
    ascending tract id order regardless of input order; rows with a zero
    total are kept.
    """
    return _rollup(rows, RAC_WAC_SCHEMAS)


def aggregate_od(rows: WorkerTable) -> WorkerTable:
    """Roll OD block pairs up to (home tract, work tract) pairs."""
    return _rollup(rows, OD_SCHEMAS)


def read_tracts(path: str, role: str) -> tuple[int, WorkerTable]:
    """Read one RAC, WAC or OD table (role RESIDENCE, WORKPLACE or
    ORIGIN_DESTINATION) and roll it up to tracts; also returns its block row
    count. Every error names the file."""
    if role == ORIGIN_DESTINATION:
        rows, rollup = read_od_csv(path), aggregate_od
    else:
        rows, rollup = read_block_csv(path, role), aggregate_to_tracts
    try:
        return len(rows.totals), rollup(rows)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, a leading byte-order mark dropped,
    through gzip when the path ends in ``.gz``. A failure to read it while the
    block runs (an OS error, a truncated or corrupt gzip stream, a byte that is
    not UTF-8) is ``FormatError("<path>: cannot read: <reason>")``."""
    try:
        with (gzip.open if path.endswith(".gz") else open)(
                path, "rt", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise FormatError(f"{path}: cannot read: {reason}") from exc


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


BLOCK = 4096  # lines judged at a time while a fault is looked for


def parsed(lines: Iterable[str], **options) -> np.ndarray | None:
    """``lines`` as np.loadtxt parses them with ``options`` (no comments, at
    least 1-D), or None where it rejects a cell: it judges every table cell."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(lines, comments=None, ndmin=1, **options)
    except UnicodeDecodeError:  # a ValueError, but not a bad cell: open_input names it
        raise
    except ValueError:
        return None


def read_columns(path: str, fh: TextIO, dtype: np.dtype, usecols: Sequence[int],
                 fault: Callable[[list[str | None], list], str],
                 valid: Callable[[np.ndarray], bool] = lambda records: True) -> np.ndarray:
    """The ``usecols`` cells of the rest of the CSV ``fh`` (``path`` past its
    one header line) as ``dtype`` records, parsed by one np.loadtxt call: a
    record is a line, its cells split at every ``,`` (a ``"`` is an ordinary
    character). Where it fails or ``valid`` rejects them, the fault that
    ``fault`` words from the first rejected line's ``usecols`` cells (None
    past its end) and from the same call's parse of each alone (None where it
    rejects it), named by its file line."""
    def parse(lines: Iterable[str], dtype: np.dtype = dtype, usecols=usecols, valid=valid):
        records = parsed(lines, dtype=dtype, delimiter=",", usecols=usecols)
        return records if records is None or valid(records) else None

    data = parse(fh)
    if data is not None:
        if not data.size:
            raise FormatError(f"{path}: no data rows")
        return data
    # usecols is given and valid judges each record alone, so a set of lines
    # is rejected exactly when one of them is: the first rejected block of
    # lines holds the fault, and so does its first half unless that is accepted
    with open_input(path) as fh:
        next(fh)  # the header line
        line = 2  # the file line of lines[0]
        for lines in iter(lambda: [*itertools.islice(fh, BLOCK)], []):
            if parse(lines) is None:
                break
            line += len(lines)
    while len(lines) > 1:
        head, tail = lines[:len(lines) // 2], lines[len(lines) // 2:]
        if parse(head) is None:
            lines = head
        else:
            line, lines = line + len(head), tail
    row = lines[0].rstrip("\r\n").split(",")
    bases = [dtype[name].base for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    message = fault([row[i] if i < len(row) else None for i in usecols],
                    [parse(lines, base, [i], lambda cell: True) for base, i in zip(bases, usecols)])
    raise FormatError(f"{path}:{line}: {message}")


def _read_table(path: str, required: Sequence[str], keys: Sequence[str],
                schemas: Sequence[GroupSchema]) -> WorkerTable:
    """Parse a worker table's key (``S16``), total (the last required column)
    and category columns, whole columns at a time. The header is the first
    line, its names split at every ``,``. A cell that numpy rejects is a bad
    count or, where the row's counts are read, a bad geocode."""
    total = required[-1]

    def fault(cells: list[str | None], values: list) -> str:
        named = [*zip((*keys, total, *codes), cells, values)]  # counts judged before keys
        name, cell, _ = next(c for c in named[len(keys):] + named[:len(keys)] if c[2] is None)
        return f"column {name!r}: bad {'geocode' if name in keys else 'count'} {cell!r}"

    with open_input(path) as fh:
        header = next(fh, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        header = header.rstrip("\r\n").split(",")
        codes = _resolve_columns(header, required, schemas, path)
        repeated = [c for c in (*keys, total, *codes) if header.count(c) > 1]
        if repeated:
            raise FormatError(f"{path}: repeated column(s) {repeated}")
        position = {name: i for i, name in enumerate(header)}
        dtype = np.dtype([*((key, "S16") for key in keys),
                          ("counts", np.int64, (len(codes) + 1,))])
        data = read_columns(path, fh, dtype, [position[c] for c in (*keys, total, *codes)], fault)
    counts = data["counts"]
    return WorkerTable(keys=tuple(data[key] for key in keys), totals=counts[:, 0],
                       codes=tuple(codes), counts=counts[:, 1:].T)


def read_block_csv(path: str, role: str) -> WorkerTable:
    """Read a RAC or WAC style CSV (optionally .gz).

    The geocode key column is ``h_geocode`` for residence tables and
    ``w_geocode`` for workplace tables (``role`` is ``RESIDENCE`` or
    ``WORKPLACE``, as ``read_tracts`` passes it); the total column is ``C000``.
    """
    key = "h_geocode" if role == RESIDENCE else "w_geocode"
    return _read_table(path, [key, "C000"], [key], RAC_WAC_SCHEMAS)


def read_od_csv(path: str) -> WorkerTable:
    """Read an OD style CSV (optionally .gz) keyed by ``w_geocode,h_geocode``;
    the table's keys are (home, work)."""
    return _read_table(path, ["w_geocode", "h_geocode", "S000"], ["h_geocode", "w_geocode"],
                       OD_SCHEMAS)
