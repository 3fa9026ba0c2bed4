"""Corpus vocabulary statistics: global word frequencies and tf-idf
keyword extraction.

These are corpus-analysis steps of a large-scale LLM data pipeline
(vocabulary coverage checks, keyword indexing, filter-list mining) —
beyond the reference's operator set, first-class per the build brief.

Scale shapes:

- **vocab_topk**: classic word-count with a per-batch COMBINER — each
  batch collapses to its local (word, cnt) partials before the shuffle,
  so the groupby exchanges vocabulary-sized data (millions of rows), not
  corpus-sized token streams (trillions). The final sort+limit runs over
  the vocabulary table only.

- **tfidf_topk**: per-document keyword extraction. Document frequencies
  are a corpus-wide aggregate, so the word dimension is joined back via
  the repo's coarse-bucket hash_join (shuffle on `word`) — NOT broadcast:
  a 100-TB corpus's vocabulary does not fit on the driver, and the join
  keeps both sides distributed. The per-doc top-k is a second bucketed
  shuffle on doc_id. The relevance score is the integer proxy
  `score = (tf * 1_000_000) // df` — integer arithmetic is exactly
  reproducible by any SQL engine (float tf*idf products differ in the
  last ulp between engines and flip rank ties).

Tokenization is lower + [a-z0-9]+ runs, the same single-source-of-truth
rule as curation.decontaminate, chosen to be exactly expressible in the
DuckDB oracle (regexp_extract_all(lower(text), '[a-z0-9]+')).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_WORD_RE = re.compile(r"[a-z0-9]+")


def _flat_tokens(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat token array of a batch plus per-doc segment starts."""
    toks: list[str] = []
    seg = np.empty(len(texts) + 1, dtype=np.int64)
    for i, t in enumerate(texts):
        seg[i] = len(toks)
        toks.extend(_WORD_RE.findall((t or "").lower()))
    seg[len(texts)] = len(toks)
    return np.array(toks, dtype=object), seg


def _word_count_partial(batch: pa.Table, text_col: str) -> pa.Table:
    """COMBINER: batch -> local (word, cnt) — the pre-shuffle reduction."""
    texts = batch.column(text_col).to_pandas().to_numpy(dtype=object)
    toks, _ = _flat_tokens(texts)
    if not len(toks):
        return pa.table({"word": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    words, counts = np.unique(toks, return_counts=True)
    return pa.table({"word": pa.array(words.astype(object), type=pa.string()),
                     "cnt": pa.array(counts.astype(np.int64))})


def _counted_topk(partials, key: str, k: int):
    """Top-k keys of (key, cnt) partials by summed cnt (ties: key
    ascending): ONE coarse-bucket shuffle on hash(key) that sums per key
    AND takes the bucket-local top-k (each key lives wholly in one
    bucket, so the global top-k is a subset of the union of bucket
    top-ks) -> final sort + limit over num_buckets*k rows only."""
    from ..shuffle import bucketed_map_groups

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(key, as_index=False)["cnt"].sum()
        return tot.sort_values(["cnt", key], ascending=[False, True],
                               kind="mergesort").head(k)

    cand = bucketed_map_groups(partials, key, bucket_topk)
    return cand.sort(["cnt", key], descending=[True, False]).limit(k)


def vocab_topk(ds, k: int = 50, text_col: str = "text"):
    """Top-k corpus words by total occurrences (ties: word ascending).

    Returns a Dataset of (word, cnt) — combiner -> `_counted_topk`. The
    only full exchange is the vocab-sized bucket shuffle; the sort never
    sees the vocabulary.
    """
    partials = ds.map_batches(lambda b: _word_count_partial(b, text_col), batch_format="pyarrow")
    return _counted_topk(partials, "word", k)


def _bigram_count_partial(batch: pa.Table, text_col: str) -> pa.Table:
    """COMBINER: batch -> local (gram, cnt) over adjacent-token bigrams.

    Bigram strings are built vectorized from the flat token table:
    a doc-boundary mask over (toks[:-1], toks[1:]) pairs — no per-doc
    Python loop beyond the shared _flat_tokens tokenizer."""
    texts = batch.column(text_col).to_pandas().to_numpy(dtype=object)
    toks, seg = _flat_tokens(texts)
    empty = pa.table({"gram": pa.array([], type=pa.string()),
                      "cnt": pa.array([], type=pa.int64())})
    if len(toks) < 2:
        return empty
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(seg))
    valid = doc_of[:-1] == doc_of[1:]
    if not valid.any():
        return empty
    grams = (pd.Series(toks[:-1][valid]) + " "
             + pd.Series(toks[1:][valid])).to_numpy(dtype=object)
    gs, counts = np.unique(grams, return_counts=True)
    return pa.table({"gram": pa.array(gs.astype(object), type=pa.string()),
                     "cnt": pa.array(counts.astype(np.int64))})


def bigram_topk(ds, k: int = 50, text_col: str = "text"):
    """Top-k corpus BIGRAMS by total occurrences (ties: gram ascending)
    — the collocation/phrase-mining companion to vocab_topk (filter-list
    mining, boilerplate-phrase discovery). Identical scale shape: local
    (gram, cnt) combiner -> `_counted_topk` on hash(gram).
    """
    partials = ds.map_batches(lambda b: _bigram_count_partial(b, text_col), batch_format="pyarrow")
    return _counted_topk(partials, "gram", k)


def _doc_term_counts(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Explode a batch into unique (doc, word, tf) rows (per-doc combiner)."""
    texts = batch.column(text_col).to_pandas().to_numpy(dtype=object)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    toks, seg = _flat_tokens(texts)
    out_id: list = []
    out_w: list = []
    out_tf: list = []
    for i in range(len(ids)):
        part = toks[seg[i]:seg[i + 1]]
        if not len(part):
            continue
        words, counts = np.unique(part, return_counts=True)
        out_id.append(np.full(len(words), ids[i]))
        out_w.append(words)
        out_tf.append(counts)
    if not out_id:
        return pa.table({id_col: pa.array([], type=pa.int64()),
                         "word": pa.array([], type=pa.string()),
                         "tf": pa.array([], type=pa.int64())})
    return pa.table({
        id_col: pa.array(np.concatenate(out_id).astype(np.int64)),
        "word": pa.array(np.concatenate(out_w).astype(object), type=pa.string()),
        "tf": pa.array(np.concatenate(out_tf).astype(np.int64)),
    })


def tfidf_topk(ds, k: int = 3, text_col: str = "text", id_col: str = "doc_id",
               scale: int = 1_000_000):
    """Per-document top-k keywords by the integer tf-idf proxy
    `score = (tf * scale) // df` (ties: word ascending).

    Returns a Dataset of (id_col, word, tf, df, score). The df aggregate
    AND the df join are ONE bucketed shuffle on `word`: each bucket holds
    every (doc, word, tf) row of its words, so the per-word doc count and
    the score attach in place — no separate groupby + join (which cost a
    second full execution of `terms` plus two extra all-to-alls). The
    per-doc ranking is a second bucketed shuffle on the id — nothing
    vocabulary- or corpus-sized touches the driver.
    """
    from ..shuffle import bucketed_map_groups

    terms = ds.map_batches(
        lambda b: _doc_term_counts(b, text_col, id_col), batch_format="pyarrow")

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        # each (doc, word) row is unique, so the word's row count == df
        g = g.copy()
        g["df"] = g.groupby("word")["word"].transform("size").astype("int64")
        g["score"] = ((g["tf"].to_numpy(np.int64) * scale)
                      // g["df"].to_numpy(np.int64))
        return g

    scored = bucketed_map_groups(terms, "word", attach_df)

    def head_k(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "score", "word"],
                          ascending=[True, False, True], kind="mergesort")
        return g.groupby(id_col, sort=False).head(k)

    return bucketed_map_groups(scored, id_col, head_k)
