"""Coarse-bucket shuffle helpers.

One map_groups group per DISTINCT KEY is the repo's measured ~50x
tiny-group overhead; one group per band/whole-key-space is unbounded at
scale. The middle granularity — shuffle by `hash(key) % num_buckets`
with num_buckets scaled to the cluster — bounds group size AND group
count. `bucketed_map_groups` is the one exchange of this shape: every
keyed stateful operator (sessions, suppress, rate-limit, group-lines,
correlate, joins, dedup, patternize) goes through it, and the
per-bucket function then handles MANY keys at once with vectorized
pandas/numpy segment logic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

BUCKET_COL = "_bucket"
_MIX = np.uint64(0x9E3779B97F4A7C15)


def default_num_buckets() -> int:
    """8 buckets per cluster CPU (floor 64) — few enough groups to dodge
    per-group fixed cost, enough that one bucket is ~1/(8*cpus) of rows."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    return max(64, cpus * 8)


def key_bucket_array(b: pa.Table, keys: list[str], num_buckets: int) -> np.ndarray:
    """Deterministic bucket of the key tuple (pandas fixed-key siphash,
    identical across processes and sides)."""
    h = None
    for k in keys:
        col = b.column(k).to_pandas()
        hk = pd.util.hash_array(col.to_numpy() if col.dtype != object else col.to_numpy(dtype=object))
        h = hk if h is None else (h * _MIX + hk)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucketed_map_groups(ds, keys: list[str] | str, fn, num_buckets: int | None = None,
                        batch_format: str = "pandas"):
    """groupby(hash(keys) % B).map_groups(fn) — fn sees one BUCKET (many
    keys' full row sets co-located) and must group by the key columns
    itself (vectorized). The bucket column is stripped before fn.

    `ds` may be a list of Datasets with one schema (e.g. the tagged
    sides of a join): each gets its bucket column in its own map, which
    fuses into that input's last map, and the exchange runs over their
    union."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_buckets is None:
        num_buckets = default_num_buckets()

    def add_bucket(b: pa.Table) -> pa.Table:
        b = b.append_column(BUCKET_COL, pa.array(key_bucket_array(b, keys, num_buckets)))
        # no schema metadata (pandas' is a dict): a schema holding one is
        # unhashable, and Ray's reduce then skips its schema de-duplication
        return b.replace_schema_metadata()

    def strip_and_apply(g):
        if isinstance(g, pd.DataFrame):
            g = g.drop(columns=[BUCKET_COL])
        else:
            g = g.drop_columns([BUCKET_COL])
        return fn(g)

    inputs = [d.map_batches(add_bucket, batch_format="pyarrow")
              for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    bucketed = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    return bucketed.groupby(BUCKET_COL).map_groups(strip_and_apply, batch_format=batch_format)


def key_segments(g: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """Boolean array marking the FIRST row of each key segment in a frame
    already sorted by `keys` (vectorized shift-compare). Nulls compare
    EQUAL to each other here — NaN != NaN would split a null-key group
    into one segment per row (silent wrong output for stateful ops)."""
    change = np.zeros(len(g), dtype=bool)
    for k in keys:
        col = g[k]
        prev = col.shift()
        diff = col.ne(prev).to_numpy()
        both_na = (col.isna() & prev.isna()).to_numpy()
        change |= diff & ~both_na
    if len(change):
        change[0] = True
    return change
