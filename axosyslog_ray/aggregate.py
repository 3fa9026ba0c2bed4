"""Grouped aggregation with explicit scale handling.

The reference's grouped computations — metrics-probe() counters
(reference modules/metrics-probe/metrics-probe.c:93-110,190) and stats
aggregators (lib/stats/aggregator/) — over Ray Data, with the two wide-op
disciplines SURVEY.md §7 commits to:

1. **Pre-aggregate (combiner) before the shuffle**: `pre_aggregated_count`
   computes per-batch partial counts inside map_batches (one tiny row per
   distinct key per batch) and then runs the small groupby+Sum over the
   partials. Skewed keys (zipf hosts, en-heavy lang) stop mattering
   because the shuffle moves O(distinct keys × batches) rows, not O(rows).
2. **Salting for map_groups-shaped work**: `salted` appends a
   deterministic `_salt = hash(row key) % S` column so a hot key splits
   into S sub-groups; only valid when the per-group computation is
   decomposable (counts/sums — NOT session windows, which must see the
   whole key; SURVEY.md §7.3).
3. **Tree reduce for fixed-size array state**: `tree_reduce` folds each
   block into a copy of a zero array and merges partials pairwise with a
   ufunc (max for HLL registers, add for counts, OR for Bloom bits) —
   one running state per aggregator, merged with the next, like the
   reference's stats aggregators (lib/stats/aggregator/stats-maximum.c).
   No shuffle; the state is the same size at any corpus size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .hashutil import hash_str_array


# Ray's sort-based groupby cannot order None against strings; null string
# keys are carried through the shuffle as this sentinel and restored after.
NULL_SENTINEL = "\x00__NULL__\x00"


def tree_reduce(fold, merge, zero: np.ndarray, name: str = "acc", finalize=None):
    """An AggregateFnV2 over array state: `fold(table, acc)` folds one
    non-empty block (as an Arrow table) into `acc`, a fresh copy of
    `zero`, in place; `merge(a, b)` combines two partials of `zero`'s
    dtype. Works under `Dataset.aggregate` and `groupby().aggregate`
    (`name` is the output column, `finalize` maps the merged state)."""
    from ray.data.aggregate import AggregateFnV2

    class _TreeReduce(AggregateFnV2):
        def __init__(self):
            super().__init__(name=name, on=None, ignore_nulls=False, zero_factory=zero.copy)

        def aggregate_block(self, block):
            t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
            acc = zero.copy()
            if t.num_rows:
                fold(t, acc)
            return acc

        def combine(self, a, b):
            return merge(np.asarray(a, zero.dtype), np.asarray(b, zero.dtype))

        def finalize(self, acc):
            return acc if finalize is None else finalize(np.asarray(acc, zero.dtype))

    return _TreeReduce()


def reduce_array(ds, fold, merge, zero: np.ndarray) -> np.ndarray:
    """`tree_reduce` over a whole Dataset, returned on the driver with
    the dtype and shape of `zero` (an empty Dataset gives `zero`)."""
    out = ds.aggregate(tree_reduce(fold, merge, zero))["acc"]
    return np.asarray(out, zero.dtype).reshape(zero.shape)


def partial_counts(keys: list[str], count_col: str = "partial_count"):
    """map_batches fn: batch -> one row per distinct key combo with counts.

    The per-batch combine is Arrow's C++ hash aggregate (Table.group_by)
    — no pandas conversion of the full batch; the sentinel substitution
    for null string keys (needed only so Ray's sort-based shuffle can
    order them in the final="shuffle" path) runs over the tiny partial
    table, O(distinct keys), not O(rows)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        g = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        arrays = []
        for k in keys:
            col = g.column(k)
            typ = batch.schema.field(k).type
            if (pa.types.is_string(typ) or pa.types.is_large_string(typ)) and col.null_count:
                col = pc.fill_null(col.cast(typ), NULL_SENTINEL)
            else:
                col = col.cast(typ)
            arrays.append(col)
        arrays.append(g.column("count_all").cast(pa.int64()))
        return pa.Table.from_arrays(arrays, names=keys + [count_col])

    return fn


def _restore_nulls(keys: list[str]):
    def fn(batch: pa.Table) -> pa.Table:
        out = batch
        for k in keys:
            typ = out.schema.field(k).type
            if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                import pyarrow.compute as pc

                col = out.column(k)
                fixed = pc.if_else(pc.equal(col, NULL_SENTINEL), pa.nulls(len(col), typ), col)
                out = out.set_column(out.column_names.index(k), k, fixed)
        return out

    return fn


def pre_aggregated_count(ds, keys: list[str], alias: str = "n", final: str = "shuffle"):
    """Two-phase distributed count-by-keys: partial per batch, then final.

    final="shuffle": Ray-native groupby+Sum over the partials — unbounded
    key cardinality, pays the all-to-all barrier (~seconds fixed cost).
    final="driver": stream the partial tables to the driver and merge with
    one pandas groupby — right when distinct keys are BOUNDED (hosts,
    langs, routes: partials total O(batches x distinct)); this is the
    last level of the combine tree, not a full materialization of rows.
    """
    # natural block-sized batches: each partial row set is O(distinct keys)
    # per batch either way, and forcing a large batch_size makes Ray
    # re-batch (concat-copy) many-small-file reads — measured 1.6s of the
    # 4.6s sink read-back at 4 CPUs — for no combine-tree win that the
    # driver/final groupby doesn't already absorb
    partial = ds.map_batches(partial_counts(keys), batch_format="pyarrow")
    if final == "driver":
        import pandas as pd

        frames = [
            b.to_pandas()
            for b in partial.iter_batches(batch_size=None, batch_format="pyarrow")
        ]
        if not frames:
            out = pd.DataFrame({k: [] for k in keys} | {alias: []})
        else:
            allp = pd.concat(frames, ignore_index=True)
            out = allp.groupby(keys, dropna=False, sort=False, observed=True)["partial_count"].sum().reset_index(name=alias)
        for k in keys:
            out[k] = out[k].replace(NULL_SENTINEL, np.nan)
        return out
    from ray.data.aggregate import Sum

    agg = partial.groupby(keys).aggregate(Sum("partial_count", alias_name=alias))
    return agg.map_batches(_restore_nulls(keys), batch_format="pyarrow")


def distinct_count(ds, keys: list[str] | str, value_col: str,
                   alias: str = "n_distinct", num_buckets: int | None = None):
    """Exact COUNT(DISTINCT value_col) per key group — the telemetry
    "distinct hosts per app" shape (reference analogue: none; its stats
    aggregators count rows, lib/stats/aggregator/).

    Three-level combine: (1) per-batch local (keys, value) dedup — the
    exchange then moves one row per locally-distinct pair, not per row;
    (2) ONE coarse-bucket shuffle on hash(keys, value) with per-bucket
    global dedup + per-key partial counts (a key's values spread across
    buckets, so no bucket ever holds a hot key's full value set);
    (3) a tiny Sum groupby over the per-bucket partials. Values ship
    verbatim (not hashed), so the count is EXACT — what lets DuckDB's
    count(DISTINCT ..) oracle it. Null values don't count (SQL
    semantics) but still assert their group's existence (count 0)."""
    from ray.data.aggregate import Sum

    from .shuffle import bucketed_map_groups

    keys = [keys] if isinstance(keys, str) else list(keys)

    def local_dedup(b: pa.Table) -> pa.Table:
        t = b.select(keys + [value_col])
        return t.group_by(keys + [value_col]).aggregate([])

    def bucket_count(g) -> "pd.DataFrame":
        # nunique ignores nulls but still emits all-null groups as 0 —
        # exactly SQL count(DISTINCT) + GROUP BY group-existence
        u = g.drop_duplicates(subset=keys + [value_col])
        return (u.groupby(keys, dropna=False, sort=False)[value_col]
                 .nunique().reset_index(name="partial"))

    deduped = ds.map_batches(local_dedup, batch_format="pyarrow")
    partials = bucketed_map_groups(deduped, keys + [value_col], bucket_count,
                                   num_buckets=num_buckets)
    return partials.groupby(keys).aggregate(Sum("partial", alias_name=alias))


# metrics-probe() defaults (metrics-probe.c _init_default:
# classified_events_total with app/host/program/source labels)
METRICS_PROBE_DEFAULT_KEY = "classified_events_total"
METRICS_PROBE_DEFAULT_LABELS = {
    "app": "${APP}", "host": "${HOST}",
    "program": "${PROGRAM}", "source": "${SOURCE}",
}


def metrics_probe(ds, key_templates: dict[str, str] | None = None,
                  alias: str = "n", *, key: str | None = None,
                  increment: str | None = None,
                  vp_patterns: list | None = None):
    """metrics-probe(): counter keyed by template-evaluated labels
    (reference metrics-probe.c:93-110, pinned by
    tests/test_metrics_probe_conformance.py). With no arguments the
    default probe counts classified_events_total by
    app/host/program/source. `increment` is a per-row template added
    instead of 1 (metrics_probe_set_increment_template); `vp_patterns`
    adds dynamic labels from matching nv pairs (the value-pairs glob
    form), serialized into a `labels` group column. Custom labels
    without a key fail like the reference's init does."""
    from ray.data.aggregate import Sum

    from .functions.templates import Template

    if key_templates is None and key is None:
        key = METRICS_PROBE_DEFAULT_KEY
        key_templates = METRICS_PROBE_DEFAULT_LABELS
    elif key is None and alias:
        key = alias  # legacy call shape: labels + output alias
    if key_templates and not key:
        raise ValueError(
            "metrics-probe: custom labels need an explicit key() "
            "(metrics-probe.c _init)")
    key_templates = key_templates or {}
    compiled = {name: Template(spec) for name, spec in key_templates.items()}
    inc_tpl = Template(increment) if increment else None

    def label(batch: pa.Table) -> pa.Table:
        cols = {name: pa.array(t.eval(batch).to_numpy(dtype=object),
                               type=pa.string())
                for name, t in compiled.items()}
        if vp_patterns is not None:
            from .functions.valuepairs import value_pairs_foreach

            rows = value_pairs_foreach(batch, "nv-pairs",
                                       patterns=vp_patterns)
            cols["labels"] = pa.array(
                [",".join(f"{k}={v}" for k, v in r.items()) for r in rows],
                type=pa.string())
        if inc_tpl is not None:
            inc = pd.to_numeric(inc_tpl.eval(batch),
                                errors="coerce").fillna(0)
            cols["partial_count"] = pa.array(
                inc.to_numpy(dtype=np.int64), type=pa.int64())
        out = pa.table(cols) if cols else pa.table(
            {"partial_count": pa.array([1] * batch.num_rows,
                                       type=pa.int64())})
        return out

    keys = list(key_templates.keys())
    if vp_patterns is not None:
        keys.append("labels")
    labeled = ds.map_batches(label, batch_format="pyarrow")
    if not keys:
        # a label-less counter: one global sum (count when no increment)
        return labeled.aggregate(Sum("partial_count", alias_name=alias))
    if inc_tpl is None:
        return pre_aggregated_count(labeled, keys, alias=alias)
    return labeled.groupby(keys).aggregate(
        Sum("partial_count", alias_name=alias))


def salted(batch: pa.Table, key_col: str, num_salts: int = 16, salt_col: str = "_salt") -> pa.Table:
    """Append a deterministic salt derived from a second hash of the key —
    splits a hot key into `num_salts` sub-groups for decomposable aggs."""
    vals = batch.column(key_col).to_pandas().astype(str).to_numpy(dtype=object)
    h = hash_str_array(vals) % np.uint64(num_salts)
    return batch.append_column(salt_col, pa.array(h.astype(np.int64), type=pa.int64()))


def salted_count(ds, key: str, num_salts: int = 16, alias: str = "n"):
    """Explicit salted two-phase count: groupby (key, salt) then re-reduce
    by key. Kept for parity/demonstration — pre_aggregated_count is the
    preferred path for plain counts."""
    from ray.data.aggregate import Sum

    salted_ds = ds.map_batches(lambda b: salted(b, key, num_salts), batch_format="pyarrow")
    phase1 = pre_aggregated_count(salted_ds, [key, "_salt"], alias="_c")
    return phase1.groupby(key).aggregate(Sum("_c", alias_name=alias))


def hopping_window_counts(ds, ts_col: str = "ts", size_s: int = 7200, hop_s: int = 3600,
                          keys: list[str] | None = None, alias: str = "n", final: str = "shuffle"):
    """Hopping (sliding) event-time windows: every event lands in
    size_s/hop_s overlapping windows; one count row per (window_start
    [, keys...]). Beyond the reference's tumbling stats aggregators
    (lib/stats/aggregator/ are tumbling) — the brief's streaming-window
    custom operator.

    Scale shape: the explode emits ONLY (window_start, keys...) narrow
    rows (k copies each, k = size/hop, typically 2-4), then the standard
    partial-count combine — no payload replication, one small shuffle."""
    if size_s % hop_s != 0:
        raise ValueError("size_s must be a multiple of hop_s")
    k = size_s // hop_s
    keys = list(keys or [])

    def explode(b: pa.Table) -> pa.Table:
        ts_raw = b.column(ts_col).to_pandas().to_numpy(dtype="datetime64[s]")
        ok = ~np.isnat(ts_raw)  # NaT would wrap to INT64_MIN garbage windows
        if not ok.all():
            b = b.filter(pa.array(ok))
            ts_raw = ts_raw[ok]
        ts = ts_raw.astype(np.int64)
        base = (ts // hop_s) * hop_s
        cols = {}
        ws = np.concatenate([base - off * hop_s for off in range(k)])
        cols["window_start"] = pa.array(ws, type=pa.int64())
        for c in keys:
            arr = b.column(c).combine_chunks() if isinstance(b.column(c), pa.ChunkedArray) else b.column(c)
            cols[c] = pa.concat_arrays([arr] * k)
        return pa.table(cols)

    return pre_aggregated_count(ds.map_batches(explode, batch_format="pyarrow"),
                                ["window_start", *keys], alias=alias, final=final)


def funnel_counts(ds, stages: list[str], user_col: str = "user_id",
                  type_col: str = "event_type", ts_col: str = "ts"):
    """Ordered funnel analysis — "how many users did A, then B strictly
    after, then C strictly after" (the product-telemetry conversion
    query; reference analogue: none — its correlation engine tracks
    per-context state, this is the batch equivalent). A user reaches
    stage k iff min-ts(stage 0) < min-ts(stage 1) < ... < min-ts(stage
    k) — the standard first-touch funnel definition, exactly
    SQL-reproducible with min() FILTER comparisons.

    Scale shape: (1) per-batch combiner collapses to one row per
    locally-seen user with per-stage min-ts (sentinel INT64_MAX for
    absent — keeps the column int64 through the exchange, no NaT/float
    widening); (2) ONE coarse-bucket shuffle on hash(user) where each
    bucket finishes the per-user mins and reduces to per-stage partial
    counts (bucket output is `len(stages)` rows, not per-user rows);
    (3) a tiny final Sum groupby. Nothing user-cardinality-sized ever
    leaves the bucket stage or touches the driver."""
    from ray.data.aggregate import Sum

    from .shuffle import bucketed_map_groups

    sentinel = np.iinfo(np.int64).max
    tcols = [f"_t{i}" for i in range(len(stages))]
    labels = [f"{i + 1}_{s}" for i, s in enumerate(stages)]

    def partial(b: pa.Table) -> pa.Table:
        df = b.select([user_col, type_col, ts_col]).to_pandas()
        ts_us = df[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        cols = {user_col: df[user_col]}
        tv = df[type_col].to_numpy(dtype=object)
        for i, s in enumerate(stages):
            cols[tcols[i]] = np.where(tv == s, ts_us, sentinel)
        out = pd.DataFrame(cols).groupby(user_col, as_index=False).min()
        return pa.Table.from_pandas(out, preserve_index=False)

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(user_col, as_index=False)[tcols].min()
        reached = np.ones(len(m), dtype=bool)
        counts = []
        prev = None
        for i, c in enumerate(tcols):
            cur = m[c].to_numpy(np.int64)
            if i == 0:
                reached &= cur != sentinel
            else:
                reached &= (cur != sentinel) & (cur > prev)
            counts.append(int(reached.sum()))
            prev = cur
        return pd.DataFrame({"stage": labels,
                             "partial": np.asarray(counts, dtype=np.int64)})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    per_bucket = bucketed_map_groups(partials, user_col, bucket_counts)
    return per_bucket.groupby("stage").aggregate(Sum("partial",
                                                     alias_name="n_users"))


def cohort_retention(ds, user_col: str = "user_id", ts_col: str = "ts"):
    """Cohort retention — users active on day `cohort + offset`, grouped
    by signup cohort (= each user's first active day). The classic
    telemetry retention triangle, exactly SQL-reproducible.

    Scale shape: (1) per-batch combiner dedups to locally-distinct
    (user, day) pairs — integer day numbers (us // 86400e6), no
    timestamp objects in the exchange; (2) ONE coarse-bucket shuffle on
    hash(user): each bucket dedups globally, takes each user's min day
    as the cohort, and reduces to per-(cohort, offset) partial counts —
    bucket output is O(cohorts x horizon), not O(users); (3) tiny final
    Sum groupby. Output: (cohort_day 'YYYY-MM-DD', day_offset, n_users)."""
    from ray.data.aggregate import Sum

    from .shuffle import bucketed_map_groups

    day_us = 86_400_000_000

    def partial(b: pa.Table) -> pa.Table:
        df = b.select([user_col, ts_col]).to_pandas()
        day = (df[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // day_us)
        out = pd.DataFrame({user_col: df[user_col], "_day": day}) \
            .drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False)

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates([user_col, "_day"])
        cohort = u.groupby(user_col)["_day"].transform("min")
        off = u["_day"].to_numpy(np.int64) - cohort.to_numpy(np.int64)
        out = pd.DataFrame({"_cohort": cohort.to_numpy(np.int64),
                            "day_offset": off})
        return out.groupby(["_cohort", "day_offset"], as_index=False) \
            .size().rename(columns={"size": "partial"})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    per_bucket = bucketed_map_groups(partials, user_col, bucket_counts)
    agg = per_bucket.groupby(["_cohort", "day_offset"]).aggregate(
        Sum("partial", alias_name="n_users"))

    def finish(b: pa.Table) -> pa.Table:
        days = np.asarray(b.column("_cohort"), dtype=np.int64) \
            .astype("datetime64[D]")
        return pa.table({
            "cohort_day": pa.array(np.datetime_as_string(days, unit="D"),
                                   type=pa.string()),
            "day_offset": b.column("day_offset"),
            "n_users": b.column("n_users"),
        })

    return agg.map_batches(finish, batch_format="pyarrow")
