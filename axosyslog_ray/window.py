"""Distributed window / rank operators: per-group top-k, budget-capped
prefix selection, per-group exact quantiles.

The reference engine has no window functions — its nearest analogues are
grouping-by's sort-key trigger output (lib/correlation/grouping-by.c) and
the stats aggregators — but every telemetry/corpus pipeline built on it
eventually needs "top N hosts per app", "cap each source at a byte
budget", "p99 latency per program". These are the SQL window shapes
(row_number / running sum / quantile_cont over a partition) re-expressed
on the repo's coarse-bucket shuffle (shuffle.bucketed_map_groups:
hash(key)%B co-locates each key's rows while one bucket holds MANY keys,
so group size AND group count stay bounded at cluster scale).

Scale notes per operator:

- **topk_per_group** runs a per-batch COMBINER first: each input block
  keeps only its own local top-k per key before the shuffle, so the wide
  exchange moves at most k rows per (key, block) regardless of how many
  rows a hot key has — the classic top-k pre-aggregation.
- **budget_capped_select** prunes per batch with the same bound logic:
  a row whose WITHIN-BATCH prefix weight already exceeds the budget can
  never survive globally (any subset's prefix sum lower-bounds the full
  prefix sum under the same ordering), so hot groups shed rows before
  the exchange. Exact cumulative sums happen once per key in the bucket.
- **group_quantiles** ships only (key, value) — exact quantiles need
  every value of a key co-located; for bounded-cardinality telemetry
  keys (event types, programs, severities) that is the honest exact
  path. For unbounded keys use a sketch; exactness here is what lets
  DuckDB's quantile_cont oracle the operator (numpy's 'linear'
  interpolation is the same definition).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .hashutil import half_away
from .shuffle import bucketed_map_groups


def _sort_frame(g: pd.DataFrame, group_cols: list[str], order_col: str,
                descending: bool, tie_cols: list[str]) -> pd.DataFrame:
    by = group_cols + [order_col] + tie_cols
    asc = [True] * len(group_cols) + [not descending] + [True] * len(tie_cols)
    return g.sort_values(by, ascending=asc, kind="mergesort")


def topk_per_group(ds, group_cols: list[str] | str, order_col: str, k: int,
                   descending: bool = True, tie_cols: list[str] | str = (),
                   rank_col: str = "rk", num_buckets: int | None = None):
    """Top-k rows per key: row_number() OVER (PARTITION BY group_cols
    ORDER BY order_col [DESC], tie_cols) <= k, with the rank emitted as
    `rank_col`. Ties beyond `tie_cols` are broken by the listed columns
    only — pass enough of them to make the order total (the SQL QUALIFY
    oracle needs a total order to be deterministic)."""
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    tie_cols = [tie_cols] if isinstance(tie_cols, str) else list(tie_cols)

    def local_prune(b: pa.Table) -> pa.Table:
        # combiner: global top-k rows of a key are a subset of every
        # superset's top-k — keep only this block's top-k per key
        g = b.to_pandas()
        s = _sort_frame(g, group_cols, order_col, descending, tie_cols)
        keep = s.groupby(group_cols, sort=False, dropna=False).cumcount() < k
        return pa.Table.from_pandas(s[keep], preserve_index=False)

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = _sort_frame(g, group_cols, order_col, descending, tie_cols)
        rk = s.groupby(group_cols, sort=False, dropna=False).cumcount() + 1
        out = s[rk <= k].copy()
        out[rank_col] = rk[rk <= k].astype(np.int64)
        return out

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return bucketed_map_groups(pruned, group_cols, bucket_topk,
                               num_buckets=num_buckets)


def global_topk(ds, order_cols: list[str] | str, k: int,
                descending: bool | list[bool] = True) -> pd.DataFrame:
    """Global top-k as a TREE AGGREGATE, not a sort exchange: each input
    block keeps only its own top-k rows (a per-batch combiner — the
    global top-k is a subset of the union of per-block top-k's), then
    the driver merges the surviving num_blocks × k rows and takes the
    final k. No AllToAll[Sort] appears in the plan; the only data
    movement is <= k rows per block to the driver — bounded state
    exactly like the reference's stats-aggregator maxima
    (lib/stats/aggregator/stats-maximum.c keeps one running extremum
    per aggregator instead of sorting its inputs).

    `order_cols` must be a TOTAL order (include a unique tiebreaker
    column) for a deterministic result — the same caveat as
    sort().limit(k) and the SQL ORDER BY ... LIMIT oracle.

    Use this instead of ds.sort(cols).limit(k) whenever k is small:
    at 100 TB a full sort moves every block across the cluster twice
    (sample + exchange) to keep 10 rows; the combiner form moves k
    rows per block once."""
    order_cols = [order_cols] if isinstance(order_cols, str) \
        else list(order_cols)
    if isinstance(descending, bool):
        descending = [descending] * len(order_cols)
    asc = [not d for d in descending]

    def local_prune(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        # Arrow-native prune: sort_indices + take keeps the ORIGINAL
        # block schema (a pandas round-trip would float64-ize nullable
        # ints / drift timestamp units on large blocks only, leaving
        # the dataset with divergent per-block schemas)
        import pyarrow.compute as pc

        keys = [(c, "descending" if d else "ascending")
                for c, d in zip(order_cols, descending)]
        idx = pc.sort_indices(b, sort_keys=keys)
        return b.take(idx.slice(0, k))

    merged = ds.map_batches(local_prune, batch_format="pyarrow").to_pandas()
    return merged.sort_values(order_cols, ascending=asc, kind="mergesort") \
        .head(k).reset_index(drop=True)


def budget_capped_select(ds, group_col: str, weight_col: str, budget: float,
                         order_col: str = None, cum_col: str = "cum_weight",
                         num_buckets: int | None = None):
    """Per-key prefix selection under a weight budget: order each key's
    rows by `order_col` (ascending; defaults to `weight_col`'s natural
    companion — pass it explicitly) and keep rows while the RUNNING SUM
    of `weight_col` (inclusive) stays <= budget; the running sum is
    emitted as `cum_col`. The training-data "mix to a token budget per
    source" step: deterministic (no RNG), reproducible at any
    partitioning.

    SQL shape: SUM(weight) OVER (PARTITION BY group ORDER BY order_col
    ROWS UNBOUNDED PRECEDING) <= budget. (key, order_col) must be a
    total order (unique per key) — with ties the SQL window itself is
    nondeterministic.

    The per-batch prune is exactness-preserving: a batch's rows whose
    WITHIN-BATCH prefix exceeds the budget can never be kept globally
    (a subset's prefix sum lower-bounds the full prefix sum), BUT their
    weight still counts toward other batches' later rows — so the
    dropped tail is compressed into ONE sentinel row per (key, batch)
    at the first dropped order position carrying the tail's total
    weight. Every real row at or past that position is provably over
    budget (the sentinel's local prefix already exceeds it), so
    lumping the tail there cannot mis-rank any survivor; the shuffle
    moves at most budget-worth of candidates + 1 row per (key, batch)
    regardless of key skew.

    Weights must be NONNEGATIVE (asserted per batch): the pruning proof
    relies on prefix sums being monotone — with negative weights a
    locally-over-budget row could become globally keepable."""
    if order_col is None:
        raise ValueError("order_col is required (a deterministic total order per key)")
    _TAIL = "_w_tail"

    def local_prune(b: pa.Table) -> pa.Table:
        g = b.to_pandas()
        w = g[weight_col].to_numpy()
        if len(w) and (np.nanmin(w) < 0):
            raise ValueError(
                f"budget_capped_select requires nonnegative {weight_col!r} "
                "(prefix-prune exactness needs monotone running sums)")
        s = g.sort_values([group_col, order_col], kind="mergesort")
        grp = s.groupby(group_col, sort=False, dropna=False)
        csum = grp[weight_col].cumsum()
        keep = csum <= budget
        kept = s[keep].copy()
        kept[_TAIL] = False
        dropped = s[~keep]
        if len(dropped):
            # the sentinel is the FIRST dropped row per key with the
            # tail's summed weight written into weight_col: real dtypes
            # in every column (no None-widening schema drift across
            # blocks); bucket_select discards sentinel rows entirely
            dropped = dropped.copy()
            dropped[weight_col] = dropped.groupby(
                group_col, sort=False, dropna=False)[weight_col].transform("sum")
            tails = dropped.groupby(group_col, sort=False, dropna=False).head(1).copy()
            tails[_TAIL] = True
            kept = pd.concat([kept, tails], ignore_index=True)
        return pa.Table.from_pandas(kept, preserve_index=False)

    def bucket_select(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values([group_col, order_col], kind="mergesort")
        csum = s.groupby(group_col, sort=False, dropna=False)[weight_col].cumsum()
        keep = (csum <= budget) & ~s[_TAIL].astype(bool)
        out = s[keep].drop(columns=[_TAIL]).copy()
        out[cum_col] = csum[keep]
        return out

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return bucketed_map_groups(pruned, group_col, bucket_select,
                               num_buckets=num_buckets)


def with_lag(ds, group_cols: list[str] | str, order_cols: list[str] | str,
             lag_cols: list[str] | str, suffix: str = "_lag",
             periods: int = 1, num_buckets: int | None = None):
    """SQL lag() per partition: append each row's PREVIOUS row's values
    (ordered by `order_cols` within `group_cols`) as `<col>_lag`
    columns; the first row per key gets nulls. One coarse-bucket
    shuffle on the key, then a vectorized per-bucket sort + groupby
    shift — the inter-event-delta / change-detection telemetry shape.
    periods > 0 is SQL lag(col, n); periods < 0 is lead(col, n)
    (the reference's nearest analogue is grouping-by's per-context
    state, lib/correlation/grouping-by.c; this is the batch window
    form). (group, order_cols) should be a total order for a
    deterministic result, same as the SQL window."""
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    lag_cols = [lag_cols] if isinstance(lag_cols, str) else list(lag_cols)

    def bucket_lag(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(group_cols + order_cols, kind="mergesort")
        grp = s.groupby(group_cols, sort=False, dropna=False)
        for c in lag_cols:
            s[c + suffix] = grp[c].shift(periods)
        return s

    return bucketed_map_groups(ds, group_cols, bucket_lag,
                               num_buckets=num_buckets)


def iqr_outliers(ds, group_cols: list[str] | str, value_col: str,
                 k: float = 1.5, num_buckets: int | None = None):
    """Per-group Tukey outlier filter: keep rows with
    value > q3 + k * (q3 - q1) of their key's distribution — the "p99
    latency spike per program" telemetry shape. Two streaming passes:
    (1) group_quantiles computes the bounded per-key (q1, q3) table
    (exact, == SQL quantile_cont); (2) the tiny threshold table
    broadcasts into a map-only filter — no second shuffle, the corpus
    never materializes. The threshold arithmetic mirrors the SQL
    expression shape exactly (q3 + k*(q3-q1), IEEE-identical)."""
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    q = group_quantiles(ds, group_cols, value_col, {"q1": 0.25, "q3": 0.75},
                        round_digits=None, num_buckets=num_buckets).to_pandas()
    qthr = q[group_cols].copy()
    qthr["_thr"] = q["q3"] + k * (q["q3"] - q["q1"])

    def keep(b: pa.Table) -> pa.Table:
        df = b.select(group_cols + [value_col]).to_pandas()
        m = df.merge(qthr, on=group_cols, how="left")  # vectorized hash join
        mask = (m[value_col].notna() & (m[value_col] > m["_thr"].fillna(np.inf))).to_numpy()
        return b.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def _key_segments(g: pd.DataFrame, group_cols: list[str], vals: np.ndarray,
                  valid: np.ndarray):
    """The exact quantile kernels' grouping: `vals[valid]` sorted by (key,
    value) -> (key columns, one row per key in first-seen order; sorted
    values; each key's count; its start in them; the last index)."""
    codes = g.groupby(group_cols, sort=False, dropna=False).ngroup().to_numpy()
    n_keys = int(codes.max()) + 1
    vv, vc = vals[valid], codes[valid]
    order = np.lexsort((vv, vc))
    sv, sc = vv[order], vc[order]
    cnt = np.bincount(sc, minlength=n_keys)
    starts = np.zeros(n_keys, dtype=np.int64)
    np.cumsum(cnt[:-1], out=starts[1:])
    _, first_idx = np.unique(codes, return_index=True)
    keys = g.iloc[np.sort(first_idx)][group_cols].reset_index(drop=True)
    return keys, sv, cnt, starts, max(len(sv) - 1, 0)


def _exact_group_quantiles_frame(g: pd.DataFrame, group_cols: list[str],
                                 value_col: str, qs: dict[str, float],
                                 round_digits: int | None) -> pd.DataFrame:
    """Vectorized per-key linear-interpolation quantiles of a frame: one
    lexsort by (key, value) + segment-boundary gathers (the shared
    kernel of group_quantiles and group_quantile_sketch)."""
    names = list(qs)
    probs = np.array([qs[n] for n in names], dtype=np.float64)
    if not len(g):
        return pd.DataFrame(columns=group_cols + names)
    vals = g[value_col].to_numpy(dtype=np.float64, na_value=np.nan)
    out, sv, cnt, starts, last = _key_segments(g, group_cols, vals, ~np.isnan(vals))
    for name, p in zip(names, probs):
        pos = p * np.maximum(cnt - 1, 0)
        lo = np.floor(pos).astype(np.int64)
        frac = pos - lo
        ilo = np.minimum(starts + lo, last)
        ihi = np.minimum(starts + np.minimum(lo + 1, np.maximum(cnt - 1, 0)), last)
        if len(sv):
            qv = sv[ilo] * (1.0 - frac) + sv[ihi] * frac
        else:
            qv = np.full(len(cnt), np.nan)
        if round_digits is not None:
            f = 10.0 ** round_digits
            qv = half_away(qv, f) / f
        out[name] = np.where(cnt > 0, qv, np.nan)
    return out


def group_quantile_disc(ds, group_cols: list[str] | str, value_col: str,
                        qs: dict[str, float],
                        num_buckets: int | None = None):
    """Exact per-key DISCRETE quantiles (inverted CDF): the order
    statistic x_sorted[ceil(p*n)] (1-based) — SQL quantile_disc
    semantics. Returns an actual data value (no interpolation), so
    integer inputs stay integer-exact: the drift-free threshold choice
    for bucketing pipelines (ccnet_buckets) where a float-interpolated
    cut could flip boundary rows between engines. Same ONE narrow
    (key, value) shuffle + vectorized segment gather as group_quantiles;
    same bounded-group caveat (huge single-key groups belong to
    group_quantile_sketch)."""
    from .shuffle import bucketed_map_groups

    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    names = list(qs)
    probs = np.array([qs[n] for n in names], dtype=np.float64)

    def project(b: pa.Table) -> pa.Table:
        return b.select(group_cols + [value_col])

    def bucket_q(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(columns=group_cols + names)
        vals = g[value_col]
        out, sv, cnt, starts, last = _key_segments(
            g, group_cols, vals.to_numpy(), vals.notna().to_numpy())
        for name, p in zip(names, probs):
            # 1-based ceil(p*n), clamped to [1, n] -> 0-based offset
            off = np.maximum(np.ceil(p * cnt).astype(np.int64), 1) - 1
            idx = np.minimum(starts + np.minimum(off, np.maximum(cnt - 1, 0)),
                             last)
            qv = sv[idx] if len(sv) else np.full(len(cnt), np.nan)
            out[name] = pd.array(np.where(cnt > 0, qv, None))
        return out

    projected = ds.map_batches(project, batch_format="pyarrow")
    return bucketed_map_groups(projected, group_cols, bucket_q,
                               num_buckets=num_buckets)


def group_quantile_sketch(ds, group_cols: list[str] | str, value_col: str,
                          qs: dict[str, float], id_col: str,
                          sample_k: int = 1024,
                          round_digits: int | None = 4,
                          num_buckets: int | None = None):
    """APPROXIMATE per-key quantiles for the unbounded-cardinality /
    huge-group regime exact group_quantiles can't reach: a deterministic
    per-key uniform sample of `sample_k` values (smallest splitmix64
    coordinate of (key-ordinal, value-rank) — a derandomized reservoir:
    mergeable, partitioning-invariant), then exact linear-interpolation
    quantiles of the sample.

    Scale shape: the per-batch combiner keeps at most `sample_k` rows
    per (key, block) before the ONE narrow (key, value, coord) shuffle —
    a hot key ships sample_k * blocks rows instead of its whole value
    set; the final per-bucket pass needs only sample_k values per key.
    Error is the sampling error of a k-sample (~1/sqrt(k) quantile
    deviation); keys with <= sample_k values are EXACT (equal to
    group_quantiles, which is how the oracle gates it —
    events_quantiles_sketch). `id_col` must be unique per row (the
    sampling coordinate: every OCCURRENCE of a duplicated value gets
    its own coordinate, keeping the multiset sample unbiased)."""
    from .hashutil import hash_idx

    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    names = list(qs)

    def project_and_coord(b: pa.Table) -> pa.Table:
        t = b.select(group_cols + [value_col, id_col])
        g = t.to_pandas()
        # deterministic per-row coordinate: splitmix of the unique row id
        # — pure per-row function, partitioning-invariant, one coordinate
        # per OCCURRENCE (unbiased multiset sample)
        ih = pd.util.hash_array(
            g[id_col].to_numpy() if g[id_col].dtype != object
            else g[id_col].to_numpy(dtype=object)).astype(np.uint64)
        coord = hash_idx(ih, seed=77)
        g = g.drop(columns=[id_col])
        g["_coord"] = coord.view(np.int64)
        # combiner: smallest-k coordinates per key within the batch
        s = g.sort_values(group_cols + ["_coord"], kind="mergesort")
        keep = s.groupby(group_cols, sort=False, dropna=False).cumcount() < sample_k
        return pa.Table.from_pandas(s[keep], preserve_index=False)

    def bucket_q(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(group_cols + ["_coord"], kind="mergesort")
        keep = s.groupby(group_cols, sort=False, dropna=False).cumcount() < sample_k
        sampled = s[keep].drop(columns=["_coord"])
        return _exact_group_quantiles_frame(sampled, group_cols, value_col,
                                            qs, round_digits)

    projected = ds.map_batches(project_and_coord, batch_format="pyarrow")
    return bucketed_map_groups(projected, group_cols, bucket_q,
                               num_buckets=num_buckets)


def group_quantiles(ds, group_cols: list[str] | str, value_col: str,
                    qs: dict[str, float], round_digits: int | None = 4,
                    num_buckets: int | None = None):
    """Exact per-key quantiles of `value_col`: one narrow (key, value)
    shuffle, then numpy linear-interpolation quantiles per key — the
    same definition as SQL quantile_cont. `qs` maps output column name
    -> quantile in [0, 1]. Nulls in value_col are dropped per key
    (quantile_cont semantics); keys with only nulls emit null quantiles."""
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)

    def project(b: pa.Table) -> pa.Table:
        return b.select(group_cols + [value_col])

    def bucket_q(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized segment quantiles — shared kernel, no per-key loop
        return _exact_group_quantiles_frame(g, group_cols, value_col,
                                            qs, round_digits)

    projected = ds.map_batches(project, batch_format="pyarrow")
    return bucketed_map_groups(projected, group_cols, bucket_q,
                               num_buckets=num_buckets)


def group_running_sum(ds, group_cols: list[str] | str,
                      order_cols: list[str] | str, value_col: str,
                      alias: str = "running_sum",
                      num_buckets: int | None = None):
    """Per-key RUNNING total in event order — the classic cumulative
    window aggregate (SQL SUM() OVER (PARTITION BY key ORDER BY ord
    ROWS UNBOUNDED PRECEDING); reference analogue: none — its
    stateful counters aggregate, they don't annotate).

    Works on integer values for cross-engine exactness (quantize
    floats to micro-units first — window-function engines disagree on
    float summation trees, integers cannot drift). ONE bucketed
    shuffle on hash(key): each key's full row set co-locates, sorts
    vectorized by (key, order), and cumsums per segment via the
    subtract-segment-base trick — no per-key Python loop."""
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    from .shuffle import bucketed_map_groups, key_segments

    def bucket_cumsum(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            g[alias] = pd.Series([], dtype="int64")
            return g
        s = g.sort_values(group_cols + order_cols, kind="mergesort")
        vals = s[value_col].to_numpy(np.int64)
        csum = np.cumsum(vals)
        seg = key_segments(s, group_cols)
        # running sum restarts at each key segment: subtract the
        # cumulative total just before the segment start (exact for
        # negative values too — no monotonicity assumption)
        starts = np.flatnonzero(seg)
        segid = np.cumsum(seg) - 1
        base = (csum[starts] - vals[starts])[segid]
        s[alias] = csum - base
        return s

    return bucketed_map_groups(ds, group_cols, bucket_cumsum,
                               num_buckets=num_buckets)
