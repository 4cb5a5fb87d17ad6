"""Fixed reference work that measures how fast the host runs Python right now.

    python3 perfbench/calib.py

The work never changes and touches no part of hwexposure: interpreter start,
`import numpy`, a polygon-clipping-like float loop, CSV parsing into a dict
per row, scattered lookups in a dict and an array larger than a core's own
caches (so that other tenants' use of the shared cache and memory shows, as
it does in the program's table joins), and a few numpy array passes. run.py
runs it as a child after each of the program's runs and scales the program's
times by how long it took, so a host that slows down for minutes does not
read as a slower program. It prints one line of results, which run.py
compares with EXPECTED.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

EXPECTED = "1953471.788 14691560 3599940000 642859555062 298500.000"


def float_loop(n: int) -> float:
    """Half-plane clipping arithmetic, as in the exact-coverage kernel."""
    acc = 0.0
    for i in range(n):
        x = (i % 97) * 0.25
        y = (i % 89) * 0.5
        t = (x - y) / (abs(x) + abs(y) + 1.0)
        acc += x + t * (y - x) if t > 0.0 else math.floor(y) * 0.5
    return acc


def read_rows(n: int) -> int:
    """Read CSV rows into per-row dicts of counts and sum them by key, as the
    LODES readers do."""
    header = "key,total," + ",".join(f"C{j:02d}" for j in range(10))
    text = "\n".join([header] + [f"{i % 4099:06d},{i % 1000}," + ",".join(
        str((i * (j + 3)) % 97) for j in range(10)) for i in range(n)])
    totals: dict[str, int] = {}
    for rec in csv.DictReader(io.StringIO(text)):
        counts = {c: int(v) for c, v in rec.items() if c.startswith("C")}
        totals[rec["key"]] = totals.get(rec["key"], 0) + int(rec["total"]) + sum(counts.values())
    return sum(totals.values())


def table_lookups(n: int) -> int:
    """Scattered lookups in a dict of n string keys, as in the OD join."""
    keys = [f"{(i * 7919) % n:012d}" for i in range(n)]
    index = {key: i for i, key in enumerate(keys)}
    return sum(index[keys[(i * 104729) % n]] for i in range(2 * n))


def array_gather(n: int) -> int:
    """Scattered reads from an n-element int64 array."""
    values = np.arange(n, dtype=np.int64)
    order = (np.arange(n, dtype=np.int64) * 2654435761) % n
    return int(values[order][::7].sum())


def array_passes(n: int) -> float:
    values = np.arange(n, dtype=np.float64) * 0.37 % 1.0
    order = np.argsort(values, kind="stable")
    return float(np.cumsum(values[order])[-1] + np.searchsorted(values[order], 0.5))


def main() -> None:
    print(f"{float_loop(150_000):.3f} {read_rows(15_000)} {table_lookups(60_000)}"
          f" {array_gather(3_000_000)} {array_passes(300_000):.3f}")


if __name__ == "__main__":
    main()
