"""Local mirror of the driver's correctness gate.

Runs every __ray_entry__.queries() callable at a given sf dir, runs the
matching oracle_sql() in DuckDB over the same parquet tables, and compares
row count, schema (column names sorted), and a value hash (columns sorted
by name, rows sorted by all columns, values stringified) — the same
comparison shape the driver uses. Exits nonzero on any mismatch.

Each OK/MISMATCH line also prints the Ray result's canonical hash and its
column dtypes, so the output of two checkouts can be diffed line by line.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    # ray Dataset
    return res.to_pandas()


def canon(df: pd.DataFrame) -> tuple[int, list[str], str]:
    df = df.reindex(sorted(df.columns), axis=1)
    # stringify with stable float formatting
    def cell(v):
        if v is None or (isinstance(v, float) and pd.isna(v)):
            return "NULL"
        if pd.isna(v) if not isinstance(v, (list, tuple, dict, set)) else False:
            return "NULL"
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)
    rows = ["\x1f".join(cell(v) for v in row) for row in df.itertuples(index=False, name=None)]
    rows.sort()
    h = hashlib.md5("\x1e".join(rows).encode()).hexdigest()
    return len(df), list(df.columns), h


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)
    import __ray_entry__ as e
    qs, osql = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    bad = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = to_pandas(fn(sf))
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: RUN ERROR {ex}")
            bad.append(name)
            continue
        if name not in osql:
            print(f"{name}: rows={len(mine)} (no_oracle)")
            continue
        try:
            orc = con.execute(osql[name]).df()
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: ORACLE ERROR {ex}")
            bad.append(name)
            continue
        rm, sm, hm = canon(mine), canon(orc), None
        ok = rm[0] == sm[0] and rm[1] == sm[1] and rm[2] == sm[2]
        status = "OK" if ok else "MISMATCH"
        dtypes = ",".join(f"{c}:{mine[c].dtype}" for c in rm[1])
        print(f"{name}: {status} rows {rm[0]}/{sm[0]} "
              f"schema {'=' if rm[1]==sm[1] else 'DIFF'} hash {'=' if rm[2]==sm[2] else 'DIFF'} "
              f"ray {rm[2]} dtypes {dtypes}")
        if not ok:
            if rm[1] != sm[1]:
                print(f"   mine cols:   {rm[1]}\n   oracle cols: {sm[1]}")
            bad.append(name)
    print(json.dumps({"bad": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
