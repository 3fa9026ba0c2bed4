"""PatternDB correlation contexts + actions (the stateful half of
db-parser()).

Mirrors the reference's correlation machinery (reference
modules/correlation/patterndb.c:513-623 context open/join;
pdb-action.c actions; _execute_rule_actions patterndb.c:359-402;
pdb-ratelimit.c per-rule rate limits; synthetic-message.c): a matched
rule's `context-id` template groups messages into a context; the context
closes on `context-timeout` inactivity; actions fire `on-match` (first
message that opens/joins) or `on-timeout` (context close) and emit
synthetic messages whose fields are templates over the context
($(context-length), values of the triggering message).

Batch semantics (deterministic event-time, like state.sessions): contexts
are session windows per context-id key; `on_match` actions evaluate per
triggering row, `on_timeout` actions once per closed context. Rate
limiting is per (rule, context-id) with the same token-bucket semantics
as state.suppress.RateLimit.

Also hosts group-lines(): multi-line reassembly across records
(reference modules/correlation/group-lines.c) — a correlation context
whose single timeout action re-joins buffered `message`s with a
separator into one synthetic row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class PdbAction:
    on: str = "timeout"  # 'match' | 'timeout'
    condition: object = None  # callable(session_df) -> bool (timeout) / row mask fn (match)
    rate_limit: int | None = None  # max emissions per context window
    fields: dict[str, str] = field(default_factory=dict)  # name -> agg/template spec


@dataclass
class CorrelationConfig:
    key: list[str]  # context-id columns (pre-evaluated template values)
    timeout: float
    ts_col: str = "ts_stamp"
    actions: list[PdbAction] = field(default_factory=list)


def _eval_field(spec: str, sess: pd.DataFrame):
    """Field spec: 'context-length' | 'first:COL' | 'last:COL' |
    'sum:COL' | 'values:COL' | 'join:COL:SEP' | 'count-if:COL=VAL'
    (the $(grep)-style conditional count) | literal '=text'."""
    if spec == "context-length":
        return len(sess)
    if spec.startswith("="):
        return spec[1:]
    op, _, rest = spec.partition(":")
    if op == "count-if":
        col, _, val = rest.partition("=")
        return int((sess[col].astype(str) == val).sum())
    if op == "join":
        col, _, sep = rest.partition(":")
        return (sep or "\n").join(sess[col].astype(str))
    col = rest
    s = sess[col]
    return {
        "first": lambda: s.iloc[0],
        "last": lambda: s.iloc[-1],
        "sum": lambda: s.sum(),
        "min": lambda: s.min(),
        "max": lambda: s.max(),
        "values": lambda: ",".join(s.astype(str)),
    }[op]()


class PdbCorrelator:
    """`apply(group)` correlates the rows of ONE context-id key;
    `correlate` calls it once per key inside each coarse bucket."""

    def __init__(self, cfg: CorrelationConfig):
        self.cfg = cfg

    def apply(self, group: pd.DataFrame) -> pd.DataFrame:
        cfg = self.cfg
        g = group.sort_values(cfg.ts_col, kind="mergesort")
        gaps = g[cfg.ts_col].diff() > pd.Timedelta(seconds=cfg.timeout)
        ctx_id = np.cumsum(gaps.to_numpy(dtype=np.int64))
        rows = []
        for cid, sess in g.groupby(ctx_id, sort=True):
            for act in cfg.actions:
                if act.on == "timeout":
                    if act.condition is not None and not act.condition(sess):
                        continue
                    emissions = [sess]
                else:  # on match: one emission per triggering row (rate-limited)
                    mask = act.condition(sess) if act.condition is not None else np.ones(len(sess), dtype=bool)
                    emissions = [sess.iloc[: k + 1] for k in np.flatnonzero(np.asarray(mask))]
                if act.rate_limit is not None:
                    emissions = emissions[: act.rate_limit]
                for sub in emissions:
                    row = {k: sess[k].iloc[0] for k in cfg.key}
                    row["context_id"] = int(cid)
                    row["context_start"] = sub[cfg.ts_col].iloc[0]
                    row["context_end"] = sub[cfg.ts_col].iloc[-1]
                    row["action_on"] = act.on
                    for name, spec in act.fields.items():
                        row[name] = _eval_field(spec, sub)
                    rows.append(row)
        # STABLE schema regardless of which actions fired in THIS group —
        # map_groups blocks from different groups must concat (a group
        # whose match action never triggered would otherwise lack its
        # field columns)
        cols = cfg.key + ["context_id", "context_start", "context_end", "action_on"]
        for act in cfg.actions:
            cols += list(act.fields)
        cols = list(dict.fromkeys(cols))
        if not rows:
            return pd.DataFrame({c: pd.Series([], dtype=object) for c in cols})
        return pd.DataFrame(rows).reindex(columns=cols)


def correlate(ds, cfg: CorrelationConfig):
    """Correlation contexts per `cfg.key`: one coarse-bucket exchange keyed
    on the key, then `PdbCorrelator.apply` once per key of the bucket. A
    null key is one key of its own, as in a Ray groupby."""
    from ..shuffle import bucketed_map_groups

    corr = PdbCorrelator(cfg)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        parts = [corr.apply(sub) for _, sub in g.groupby(cfg.key, sort=False, dropna=False)]
        parts = [p for p in parts if len(p)]
        return pd.concat(parts, ignore_index=True) if parts else corr.apply(g.iloc[:0])

    return bucketed_map_groups(ds, cfg.key, bucket_fn)


def group_lines(ds, key, timeout: float, ts_col: str = "ts_stamp",
                message_col: str = "message", separator: str = "\n",
                num_buckets: int | None = None):
    """group-lines(): reassemble multi-line payloads split across records
    (reference modules/correlation/group-lines.c) — one synthetic row per
    context with the joined message.

    Direct bucketed fast path (not the generic per-key correlate()):
    coarse hash(key)%B shuffle, then ONE sort + numpy gap breaks + ONE
    pandas groupby per bucket — no per-key map_groups groups."""
    import numpy as np

    from ..shuffle import bucketed_map_groups, key_segments

    keys = [key] if isinstance(key, str) else list(key)
    gap = pd.Timedelta(seconds=timeout)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            cols = keys + ["context_id", "message", "n_lines"]
            return pd.DataFrame({c: pd.Series([], dtype=object) for c in cols})
        g = g.sort_values(keys + [ts_col], kind="mergesort").reset_index(drop=True)
        key_change = key_segments(g, keys)
        brk = key_change | (g[ts_col].diff() > gap).to_numpy()
        ctx_glob = np.cumsum(brk) - 1
        key_seg = np.cumsum(key_change) - 1
        ctx_at_key_start = ctx_glob[key_change]
        cid = ctx_glob - ctx_at_key_start[key_seg]
        g = g.assign(_gctx=ctx_glob, _cid=cid)
        grp = g.groupby("_gctx", sort=True)
        out = grp[keys].first()
        out["context_id"] = grp["_cid"].first()
        out["message"] = grp[message_col].apply(lambda s: separator.join(s.astype(str)))
        out["n_lines"] = grp.size()
        return out.reset_index(drop=True)

    return bucketed_map_groups(ds, keys, bucket_fn, num_buckets=num_buckets)
