"""grouping-by(): event-time session windows with aggregate emission.

Mirrors the reference's streaming GROUP BY
(reference modules/correlation/groupingby.c; options
grouping-parser.c:233-290): `key` grouping, `where` pre-filter,
`timeout` closes a context when no message arrives within the gap,
`trigger` completes a context early, `having` gates emission
(groupingby.c:94-132), `sort-key` orders buffered messages, and the
aggregate emits one synthetic row per closed context with
template-evaluated fields (synthetic-message.c).

Ray shape: `sessionize` is one coarse-bucket exchange
(`shuffle.bucketed_map_groups` keyed on `key`) — a bucket holds ALL
rows of each of its keys (shuffle by the full key; session windows
cannot be salted, SURVEY.md §7.3); `GroupingBy` sorts the bucket by key
and event time, splits on key changes and timeout gaps, applies
trigger/having, and emits synthetic rows. Windows are *session*
windows exactly like the reference's timer-wheel timeouts, but computed
deterministically in event time — stronger than the reference's
arrival-order semantics (SURVEY.md §2.6 note).

Aggregate field expressions available (the reference's context funcs —
$(context-length), $(sum), $(context-lookup)): `count`, `sum:COL`,
`avg:COL`, `min:COL`, `max:COL`, `first:COL`, `last:COL`,
`values:COL` (comma-joined context-lookup).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


class GroupingBy:
    """Per-bucket callable of `sessionize`'s coarse-bucket exchange."""

    def __init__(
        self,
        key: str | list[str],
        timeout: float,
        ts_col: str = "ts_stamp",
        aggregates: dict[str, str] | None = None,
        where=None,  # FilterExpr or callable(df)->bool mask (pre-filter)
        having=None,  # callable(session_df)->bool (emission gate)
        trigger=None,  # callable(df)->bool mask; a True row force-closes its session
        sort_key: str | None = None,
    ):
        self.key = [key] if isinstance(key, str) else list(key)
        self.timeout = pd.Timedelta(seconds=timeout)
        self.ts_col = ts_col
        self.aggregates = aggregates or {"count": "count"}
        self.where = where
        self.having = having
        self.trigger = trigger
        self.sort_key = sort_key

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        """Process a COARSE BUCKET holding many keys' full row sets at
        once: one sort, numpy segment breaks, ONE pandas groupby over all
        sessions in the bucket — no per-key or per-session Python except
        when `having` (an arbitrary per-session callable) is set."""
        g = group
        if self.where is not None:
            mask = self.where(g) if callable(self.where) else self.where.mask(
                __import__("pyarrow").Table.from_pandas(g, preserve_index=False)
            )
            g = g[np.asarray(mask, dtype=bool)]
        if g.empty:
            return self._empty()
        from ..shuffle import key_segments

        # gap detection ALWAYS runs in event-time order — sort_key only
        # orders rows WITHIN a session (for first/last/values aggregates),
        # never the timeout computation
        g = g.sort_values(self.key + [self.ts_col], kind="mergesort").reset_index(drop=True)
        ts = g[self.ts_col]
        key_change = key_segments(g, self.key)
        gap_break = (ts.diff() > self.timeout).to_numpy()
        brk = key_change | gap_break
        if self.trigger is not None:
            trig = np.asarray(self.trigger(g), dtype=bool)
            # a trigger row completes its context: next row starts a new one
            brk |= np.concatenate([[False], trig[:-1]])
        sess_glob = np.cumsum(brk) - 1  # unique across keys within bucket
        # per-key 0-based session_id: subtract the key's first session no.
        key_seg = np.cumsum(key_change) - 1
        sess_at_key_start = sess_glob[key_change]
        sid = sess_glob - sess_at_key_start[key_seg]
        g = g.assign(_gsess=sess_glob, _sid=sid)
        start_end = g.groupby("_gsess", sort=True)[self.ts_col].agg(["first", "last"])
        if self.sort_key is not None:
            g = g.sort_values(["_gsess", self.sort_key], kind="mergesort").reset_index(drop=True)
        grp = g.groupby("_gsess", sort=True)
        out = grp[self.key].first()
        out["session_id"] = grp["_sid"].first()
        out["session_start"] = start_end["first"]
        out["session_end"] = start_end["last"]
        for name, spec in self.aggregates.items():
            out[name] = self._agg_series(grp, spec)
        if self.having is not None:
            keep = np.fromiter((bool(self.having(s)) for _, s in grp), dtype=bool, count=len(out))
            out = out[keep]
        out = out.reset_index(drop=True)
        if out.empty:
            return self._empty()
        return out

    @staticmethod
    def _agg_series(grp, spec: str):
        if spec == "count":
            return grp.size()
        op, _, col = spec.partition(":")
        s = grp[col]
        if op == "sum":
            return s.sum()
        if op == "avg":
            return s.mean()
        if op == "min":
            return s.min()
        if op == "max":
            return s.max()
        if op == "first":
            return s.first()
        if op == "last":
            return s.last()
        if op == "values":
            return s.apply(lambda v: ",".join(v.astype(str)))
        raise ValueError(f"unknown aggregate spec {spec!r}")

    def _empty(self) -> pd.DataFrame:
        """0-row frame with REAL dtypes — an all-object empty block would
        carry an Arrow null schema that mismatches non-empty buckets."""
        def agg_dtype(spec: str):
            if spec == "count":
                return "int64"
            op = spec.partition(":")[0]
            return "float64" if op in ("sum", "avg") else object

        cols = {k: pd.Series([], dtype=object) for k in self.key}
        cols["session_id"] = pd.Series([], dtype="int64")
        cols["session_start"] = pd.Series([], dtype="datetime64[ns]")
        cols["session_end"] = pd.Series([], dtype="datetime64[ns]")
        for name, spec in self.aggregates.items():
            cols[name] = pd.Series([], dtype=agg_dtype(spec))
        return pd.DataFrame(cols)


def sessionize(ds, key, timeout, ts_col="ts_stamp", aggregates=None,
               num_buckets: int | None = None, **kw):
    """Coarse-bucket shuffle (hash(key)%B — a key's rows stay co-located,
    group sizes bounded, no per-key tiny groups) + vectorized per-bucket
    sessionization."""
    from ..shuffle import bucketed_map_groups

    gb = GroupingBy(key, timeout, ts_col=ts_col, aggregates=aggregates, **kw)
    if gb.where is not None:
        # pre-filter BEFORE the shuffle: only surviving rows are hashed,
        # bucketed and exchanged (and the per-bucket pandas->Arrow mask
        # round-trip disappears)
        where = gb.where
        gb.where = None

        def prefilter(df: pd.DataFrame) -> pd.DataFrame:
            import pyarrow as _pa

            mask = where(df) if callable(where) else where.mask(
                _pa.Table.from_pandas(df, preserve_index=False))
            return df[np.asarray(mask, dtype=bool)]

        ds = ds.map_batches(prefilter, batch_format="pandas")

    def apply_sessions(df):
        return gb(df)

    return bucketed_map_groups(ds, gb.key, apply_sessions, num_buckets=num_buckets)
