"""The query mix of the traced run: registry queries over the committed
sf0.01 tables.

Each query's result is collected to the driver and compared with an
independent answer: DuckDB on `ORACLE_SQLS[name]` over the same tables,
or, for queries whose oracle is a committed golden parquet, that file.
The comparison is `scripts/check_oracle.py`'s own `canon`: row count,
sorted column names, and a hash of the sorted, stringified rows.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from check_oracle import canon, to_pandas  # noqa: E402

DATA_DIR = os.path.join(HERE, "data", "sf0.01")
TABLES = ["region", "nation", "customer", "supplier", "orders", "lineitem", "events", "documents"]

MIX = [
    "orders_q5_local_supplier",
    "orders_customer_hash_join",
    "lineitem_salted_count",
    "events_sessions",
    "docs_minhash_dedup",
    "docs_exact_dedup",
    "docs_winnow",
    "events_filterx_parse_fns",
    "docs_vocab_topk",
]
_GOLDEN = re.compile(r"read_parquet\('[^']*?(tests/golden/[^']+)'\)")


def oracle_sql(name: str) -> str:
    from axosyslog_ray.pipelines.queries import ORACLE_SQLS

    # golden-parquet oracles name the file by an absolute path of the
    # tree they were generated in; point them at this checkout's copy
    return _GOLDEN.sub(lambda m: f"read_parquet('{os.path.join(ROOT, m.group(1))}')", ORACLE_SQLS[name])


def oracle_answers(cache_path: str) -> dict[str, list]:
    """canon() of every oracle answer, as JSON lists, cached in `cache_path`."""
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            return json.load(fh)
    import duckdb

    con = duckdb.connect()
    try:
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(DATA_DIR, t)}.parquet')")
        answers = {name: list(canon(con.execute(oracle_sql(name)).df())) for name in MIX}
    finally:
        con.close()
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
    os.replace(tmp, cache_path)
    return answers


def run_query(name: str):
    """Run one registry query and collect its result; -> DataFrame."""
    from axosyslog_ray.pipelines.queries import RAY_QUERIES

    return to_pandas(RAY_QUERIES[name](DATA_DIR))
