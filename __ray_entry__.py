"""Driver contract for the graft builder (Ray Data target).

entry(): flagship parse -> enrich -> route -> aggregate pipeline over a
deterministic Common-Crawl-style pages table (BASELINE.json input_hint)
sized from /root/testdata/sf0.001.

queries()/oracle_sql(): one entry per implemented operator from
SURVEY.md §2 (registry in axosyslog_ray.pipelines.queries); the driver
runs Ray vs DuckDB side-by-side at sf=0.01. Queries without an oracle
entry are non-SQL-expressible and get the rows-only check.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: synthesize pages (rows = 12x sf0.001 documents),
    parse/classify/patterndb/enrich/route in one fused map_batches stage
    of stateless tasks (one stage instance per worker process,
    pipelines/flagship.py `_STAGE_CACHE`), aggregate per-sink counts.
    Returns the (route, host) count table."""
    import pyarrow.parquet as pq

    from axosyslog_ray.aggregate import pre_aggregated_count
    from axosyslog_ray.pipelines.flagship import flagship_routed
    from axosyslog_ray.synth import pages_dataset

    n_docs = pq.read_metadata("/root/testdata/sf0.001/documents.parquet").num_rows
    ds = pages_dataset(n_docs * 12)
    routed = flagship_routed(ds)
    return pre_aggregated_count(routed.select_columns(["route", "host"]), ["route", "host"], alias="n")


def queries() -> dict[str, Callable[[str], Any]]:
    from axosyslog_ray.pipelines.queries import RAY_QUERIES

    return dict(RAY_QUERIES)


def oracle_sql() -> dict[str, str]:
    from axosyslog_ray.pipelines.queries import ORACLE_SQLS

    return dict(ORACLE_SQLS)
