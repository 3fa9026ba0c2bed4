"""Log-template mining (`pdbtool patternize`): cluster messages into
PatternDB-style skeletons by frequent-word support.

Reference: modules/correlation/pdbtool/pdbtool.c patternize mode +
modules/correlation/patternize.c — the LogHash/SLCT family: words
occurring in at least `support` messages stay literal, everything else
becomes a wildcard, consecutive wildcards collapse, and messages
sharing a skeleton form one cluster whose size is the pattern's
support. The classic first step of building a .pdb ruleset from a raw
log corpus — and equally the webtext "template extraction" step
(boilerplate page-skeleton mining).

Scale shape:
1. word DOCUMENT frequencies via the vocab combiner: per-batch
   distinct (word) counts -> ONE narrow (word, n) tree aggregate; the
   frequent set (df >= support) broadcasts via ray.put when it fits
   `broadcast_limit`; a pathological corpus where millions of words
   pass support falls back to `_patternize_semijoin` — a hash-bucketed
   token-vs-vocabulary semi-join with NO driver materialization of the
   frequent set (both paths pinned equal in tests).
2. map-only skeleton rendering over the flat token table (np.isin
   against the broadcast set, per-doc join with wildcard collapsing).
3. pre-aggregated pattern counts (combiner + one small groupby Sum).

Every step is SQL-expressible (explode + df filter + string_agg +
regexp collapse), which is what lets events_patternize carry a full
DuckDB value-hash oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

WILDCARD = "@ANYSTRING@"


def word_doc_frequencies(ds, text_col: str = "message"):
    """(word, df) Dataset: number of MESSAGES containing each word."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("")
        parts = texts.str.split()
        lens = parts.str.len().fillna(0).astype(np.int64).to_numpy()
        flat = (np.concatenate([np.asarray(p, dtype=object) for p in parts])
                if len(parts) else np.empty(0, dtype=object))
        doc = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        # distinct (doc, word) then per-word counts — all C-level
        dd = pd.DataFrame({"d": doc, "w": flat}).drop_duplicates()
        vc = dd["w"].value_counts()
        return pa.table({"word": pa.array(vc.index.to_numpy(dtype=object),
                                          type=pa.string()),
                         "_df": pa.array(vc.to_numpy(np.int64))})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("_df", alias_name="df"))


def _render_skeletons(flat: np.ndarray, keep: np.ndarray, doc: np.ndarray,
                      n_docs: int) -> pa.Array:
    """Shared skeleton renderer over a flat (doc, pos)-ordered token
    table: frequent tokens (keep=True) stay literal, wildcard runs
    collapse to one WILDCARD, per-doc reassembly is one Arrow
    binary_join (zero per-doc interpreter iterations)."""
    # vectorized wildcard-run collapse: drop a wildcard token unless it
    # STARTS a run (previous token kept literal, or doc boundary)
    is_wild = ~keep
    prev_wild = np.zeros(len(flat), dtype=bool)
    prev_wild[1:] = is_wild[:-1] & (doc[1:] == doc[:-1])
    keep_tok = keep | (is_wild & ~prev_wild)
    mapped = np.where(keep, flat, WILDCARD)[keep_tok]
    kept_doc = doc[keep_tok]
    counts = np.bincount(kept_doc, minlength=n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    list_arr = pa.LargeListArray.from_arrays(
        pa.array(offsets, type=pa.int64()),
        pa.array(mapped, type=pa.string()))
    return pa.compute.binary_join(list_arr, " ").cast(pa.string())


def skeleton_series(texts: pd.Series, frequent: frozenset) -> pd.Series:
    """Vectorized skeleton render: frequent words literal, others one
    collapsed WILDCARD run (patternize.c cluster key)."""
    parts = texts.fillna("").str.split()
    lens = parts.str.len().fillna(0).astype(np.int64).to_numpy()
    flat = (np.concatenate([np.asarray(p, dtype=object) for p in parts])
            if len(parts) else np.empty(0, dtype=object))
    keep = pd.Series(flat, dtype=object).isin(frequent).to_numpy() \
        if len(flat) else np.zeros(0, dtype=bool)
    doc = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    joined = _render_skeletons(flat, keep, doc, len(texts))
    return pd.Series(joined.to_pandas().to_numpy(dtype=object), dtype=object)


# second independent siphash key for the 128-bit message identity used
# by the semi-join fallback (pandas' default key supplies the first 64)
_ALT_HASH_KEY = "axosyslogray2026"


def _frequent_words(ds, support: int, text_col: str):
    """Materialized (word, df) Dataset filtered to df >= support."""
    import pyarrow.compute as pc

    df_ds = word_doc_frequencies(ds, text_col=text_col)
    return df_ds.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("df"), support)),
        batch_format="pyarrow").materialize()


def patternize(ds, support: int, text_col: str = "message",
               broadcast_limit: int = 1_000_000):
    """(pattern, support) Dataset: clusters of messages whose frequent-
    word skeleton agrees; `support` is an absolute message count.

    Two-pass vocabulary strategy: when the df-filtered frequent set fits
    `broadcast_limit` words it broadcasts once via ray.put (the common
    case — support thresholds keep it small); a PATHOLOGICAL vocabulary
    (millions of frequent words) falls back to a hash-bucketed semi-join
    of the flat token table against the frequent-word table
    (`_patternize_semijoin`) — bounded per-task memory, no driver
    materialization of the vocabulary."""
    import ray

    from ..aggregate import pre_aggregated_count

    frequent_ds = _frequent_words(ds, support, text_col)
    if frequent_ds.count() > broadcast_limit:
        return _patternize_semijoin(ds, frequent_ds, text_col=text_col)
    frequent = frozenset(frequent_ds.to_pandas()["word"])
    ref = ray.put(frequent)

    def render(b: pa.Table) -> pa.Table:
        fr = ray.get(ref)
        sk = skeleton_series(b.column(text_col).to_pandas(), fr)
        return pa.table({"pattern": pa.array(sk, type=pa.string())})

    patterns = ds.map_batches(render, batch_format="pyarrow")
    return pre_aggregated_count(patterns, ["pattern"], alias="support")


def _patternize_semijoin(ds, frequent_ds, text_col: str = "message"):
    """Wide-vocabulary patternize: no broadcast of the frequent set.

    Shape (3 bounded exchanges, disclosed fallback):
    1. distinct messages + multiplicities (pre_aggregated_count) — the
       skeleton is a pure function of the message text, so identical
       messages collapse before any token work.
    2. flat token table keyed by a 128-bit message hash (two independent
       siphash streams), unioned with the frequent-word table and
       bucketed BY TOKEN (`shuffle.bucketed_map_groups`); per-bucket
       membership marking is one pandas isin against only that bucket's
       slice of the vocabulary.
    3. marked tokens re-bucketed BY MESSAGE (keyed on k1); per-bucket
       vectorized skeleton render (shared _render_skeletons kernel),
       then one small (pattern, n) Sum.
    """
    import ray  # noqa: F401  (parity with broadcast path; Ray Data only)
    from ray.data.aggregate import Sum

    from ..hashutil import hash_str_array
    from ..shuffle import bucketed_map_groups

    def toks(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("")
        n_arr = b.column("_n").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        msgs = texts.to_numpy(dtype=object)
        k1 = hash_str_array(msgs)
        k2 = pd.util.hash_array(msgs, hash_key=_ALT_HASH_KEY,
                                categorize=False).astype(np.uint64)
        parts = texts.str.split()
        lens = parts.str.len().fillna(0).astype(np.int64).to_numpy()
        flat = (np.concatenate(
            [np.asarray(p, dtype=object) for p in parts])
            if len(parts) else np.empty(0, dtype=object))
        doc = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        pos = (np.arange(len(flat), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64),
            lens)) if len(texts) else np.empty(0, dtype=np.int64)
        nm = len(texts)
        # one header row per message (pos=-1, carries _n) + token rows
        return pa.table({
            "k1": pa.array(np.concatenate([k1, k1[doc]]), type=pa.uint64()),
            "k2": pa.array(np.concatenate([k2, k2[doc]]), type=pa.uint64()),
            "pos": pa.array(np.concatenate(
                [np.full(nm, -1, dtype=np.int64), pos]), type=pa.int64()),
            "token": pa.array(np.concatenate(
                [np.full(nm, "", dtype=object), flat]), type=pa.string()),
            "_n": pa.array(np.concatenate(
                [n_arr, np.zeros(len(flat), dtype=np.int64)]),
                type=pa.int64()),
            "_side": pa.array(np.zeros(nm + len(flat), dtype=np.int8),
                              type=pa.int8()),
        })

    def freq_rows(b: pa.Table) -> pa.Table:
        words = b.column("word").to_pandas().to_numpy(dtype=object)
        z = np.zeros(len(words), dtype=np.int64)
        return pa.table({
            "k1": pa.array(z.astype(np.uint64), type=pa.uint64()),
            "k2": pa.array(z.astype(np.uint64), type=pa.uint64()),
            "pos": pa.array(z, type=pa.int64()),
            "token": pa.array(words, type=pa.string()),
            "_n": pa.array(z, type=pa.int64()),
            "_side": pa.array(np.ones(len(words), dtype=np.int8),
                              type=pa.int8()),
        })

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        toks_g = g[g["_side"] == 0]
        fset = set(g.loc[g["_side"] == 1, "token"])
        return pd.DataFrame({
            "k1": toks_g["k1"].to_numpy(dtype=np.uint64),
            "k2": toks_g["k2"].to_numpy(dtype=np.uint64),
            "pos": toks_g["pos"].to_numpy(dtype=np.int64),
            "token": toks_g["token"].to_numpy(dtype=object),
            "_n": toks_g["_n"].to_numpy(dtype=np.int64),
            "keep": (toks_g["token"].isin(fset).to_numpy(dtype=bool)
                     if fset else np.zeros(len(toks_g), dtype=bool)),
        })

    def render_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k1", "k2", "pos"], kind="stable")
        key1 = g["k1"].to_numpy(dtype=np.uint64)
        key2 = g["k2"].to_numpy(dtype=np.uint64)
        change = np.ones(len(g), dtype=bool)
        change[1:] = (key1[1:] != key1[:-1]) | (key2[1:] != key2[:-1])
        doc = np.cumsum(change) - 1
        n_docs = int(doc[-1]) + 1 if len(doc) else 0
        pos = g["pos"].to_numpy(dtype=np.int64)
        hdr = pos == -1
        n_doc = np.zeros(n_docs, dtype=np.int64)
        n_doc[doc[hdr]] = g["_n"].to_numpy(dtype=np.int64)[hdr]
        tok_m = ~hdr
        patterns = _render_skeletons(
            g["token"].to_numpy(dtype=object)[tok_m],
            g["keep"].to_numpy(dtype=bool)[tok_m], doc[tok_m], n_docs)
        out = pd.DataFrame({
            "pattern": patterns.to_pandas().to_numpy(dtype=object),
            "_n": n_doc})
        # per-bucket partial combine before the final Sum exchange
        out = out.groupby("pattern", as_index=False)["_n"].sum()
        return out.astype({"_n": np.int64})

    from ..aggregate import pre_aggregated_count

    dm = pre_aggregated_count(ds, [text_col], alias="_n")
    token_ds = dm.map_batches(toks, batch_format="pyarrow")
    marked = bucketed_map_groups(
        [token_ds, frequent_ds.map_batches(freq_rows, batch_format="pyarrow")], "token", mark)
    rendered = bucketed_map_groups(marked, "k1", render_group)
    return rendered.groupby("pattern").aggregate(
        Sum("_n", alias_name="support"))
