"""DSIR-style importance weighting for data selection.

Implements the hashed-n-gram importance-weight computation of Data
Selection via Importance Resampling (Xie et al., NeurIPS 2023 — public
method): featurize each document as a bag of hashed word uni+bi-gram
counts over NB buckets, fit smoothed bag-of-words distributions for a
TARGET corpus (the domain you want more of) and the RAW corpus, and
score every raw document with

    log p_target(x) - log p_raw(x)
      = sum over gram occurrences of [ln pt(bucket) - ln pr(bucket)]

High-weight documents look like the target domain; downstream selection
samples/thresholds on the weight (curation.hash_sample / topk compose).

Ray-native shape — both distributions are ONE streaming pass each:

- **bucket counts** are a `Dataset.aggregate` with a vector-sum
  AggregateFnV2 (per-block np.bincount, partials add up a tree — no
  shuffle, bounded NB-long state, same construction as
  dedup.bloom.build_bloom_u64);
- the per-bucket **log-ratio table** (NB doubles -> int64 micro-units)
  broadcasts once via ray.put; scoring is a plain-task map_batches
  (zero-copy plasma view per worker, elastic concurrency).

Determinism / oracle story: log-ratios are quantized to MICRO-units
(round-half-away(lr * 1e6) as int64) so per-doc weights are exact
integer sums — no float summation-order hazard between the distributed
sum and a SQL oracle. `method="md5"` derives the bucket as
int(md5(gram)[:8], 16) % NB, byte-reproducible in DuckDB as
('0x' || substr(md5(gram), 1, 8))::UBIGINT % NB (ln() and '/' are
bit-identical IEEE/libm on both sides); `method="fast"` (default for
100-TB runs) uses the vectorized polynomial gram hash — same statistics,
~100x cheaper, pinned against the md5 variant by rank-agreement tests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .curation import _gram_hashes
from .hashutil import half_away
from .textstats.vocab import _flat_tokens


def _bucket_stream(texts: np.ndarray, num_buckets: int, method: str,
                   grams: tuple[int, ...] = (1, 2)) -> tuple[np.ndarray, np.ndarray]:
    """Flat (bucket id per gram occurrence, per-doc segment starts) for a
    batch of texts, over the word-n-gram orders in `grams` (DSIR uses
    (1, 2); the unigram LM uses (1,)). Grams of each order are emitted
    consecutively per document (order is irrelevant — everything
    downstream is a count or a sum)."""
    if method == "fast":
        hs = [_gram_hashes(texts, n) for n in grams]
        per_doc = sum(np.diff(s) for _h, s in hs)
        seg = np.concatenate([[0], np.cumsum(per_doc)])
        parts = []
        for d in range(len(texts)):
            for h, s in hs:
                parts.append(h[s[d]:s[d + 1]])
        flat = np.concatenate(parts) if parts else np.empty(0, np.uint64)
        return (flat % np.uint64(num_buckets)).astype(np.int64), seg
    if method != "md5":
        raise ValueError("method must be 'fast' or 'md5'")
    toks, tseg = _flat_tokens(texts)
    buckets: list[np.ndarray] = []
    seg = np.empty(len(texts) + 1, dtype=np.int64)
    pos = 0
    for d in range(len(texts)):
        seg[d] = pos
        ws = list(toks[tseg[d]:tseg[d + 1]])
        gs: list[str] = []
        for n in grams:
            gs.extend(" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1))
        if gs:
            b = np.array([int(hashlib.md5(g.encode()).hexdigest()[:8], 16) % num_buckets
                          for g in gs], dtype=np.int64)
            buckets.append(b)
            pos += len(b)
    seg[len(texts)] = pos
    flat = np.concatenate(buckets) if buckets else np.empty(0, np.int64)
    return flat, seg


def bucket_counts(ds, num_buckets: int, text_col: str = "text",
                  method: str = "fast",
                  grams: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """Corpus-wide per-bucket gram-occurrence counts: per-block
    np.bincount, partials summed up a tree (Dataset.aggregate) — the
    corpus streams, state is one NB-long int64 vector."""
    from ray.data.aggregate import AggregateFnV2

    class _VecSum(AggregateFnV2):
        def __init__(self):
            super().__init__(name="counts", on=None, ignore_nulls=False,
                             zero_factory=lambda: np.zeros(num_buckets, dtype=np.int64))

        def aggregate_block(self, block):
            t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
            if not t.num_rows:
                return np.zeros(num_buckets, dtype=np.int64)
            texts = t.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
            flat, _ = _bucket_stream(texts, num_buckets, method, grams)
            return np.bincount(flat, minlength=num_buckets).astype(np.int64)

        def combine(self, a, b):
            return np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)

    return np.asarray(ds.aggregate(_VecSum())["counts"], dtype=np.int64)


def log_ratio_micro(ct: np.ndarray, cr: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Per-bucket quantized log importance ratio:
    round_half_away(1e6 * [ln((ct+a)/(Tt+a*NB)) - ln((cr+a)/(Tr+a*NB))])
    as int64. The expression SHAPE mirrors the SQL oracle exactly so
    IEEE division + libm ln produce bit-identical doubles before the
    (identical half-away) rounding."""
    nb = len(ct)
    tt = float(ct.sum())
    tr = float(cr.sum())
    lr = (np.log((ct + alpha) / (tt + alpha * nb))
          - np.log((cr + alpha) / (tr + alpha * nb)))
    return half_away(lr * 1e6).astype(np.int64)


class _DsirScorer:
    """Per-batch scoring vs the broadcast micro-log-ratio table: one
    bucket-stream pass + a segment-sum — int64-exact weights."""

    def __init__(self, qlr_ref=None, qlr: np.ndarray | None = None,
                 num_buckets: int = 10_000, method: str = "fast",
                 text_col: str = "text", id_col: str = "doc_id",
                 grams: tuple[int, ...] = (1, 2), append: bool = False):
        self._ref = qlr_ref
        self.qlr = qlr
        self.num_buckets = num_buckets
        self.method = method
        self.text_col = text_col
        self.id_col = id_col
        self.grams = grams
        self.append = append

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.qlr is None:
            import ray

            self.qlr = np.asarray(ray.get(self._ref), dtype=np.int64)
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        flat, seg = _bucket_stream(texts, self.num_buckets, self.method, self.grams)
        contrib = self.qlr[flat]
        csum = np.concatenate([[0], np.cumsum(contrib)])
        w = (csum[seg[1:]] - csum[seg[:-1]]).astype(np.int64)
        if self.append:
            # in-stream form: full rows + weight column, no join back
            return batch.append_column("weight_micro", pa.array(w))
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "n_feats": pa.array((seg[1:] - seg[:-1]).astype(np.int64)),
            "weight_micro": pa.array(w),
        })


def dsir_weights(ds, target_ds, num_buckets: int = 10_000, alpha: float = 0.5,
                 text_col: str = "text", id_col: str = "doc_id",
                 method: str = "fast", append: bool = False):
    """(id, n_feats, weight_micro) for every row of `ds`: weight_micro is
    the DSIR log importance weight in exact integer micro-units
    (positive = target-like). Three streaming passes total (target
    counts, raw counts, score) — nothing corpus-sized on the driver.
    append=True returns the FULL rows with weight_micro appended
    (map-only in-stream scoring; no join back — the curate() path)."""
    import ray

    ct = bucket_counts(target_ds, num_buckets, text_col, method)
    cr = bucket_counts(ds, num_buckets, text_col, method)
    qlr = log_ratio_micro(ct, cr, alpha)
    ref = ray.put(qlr)
    inst = _DsirScorer(qlr_ref=ref, num_buckets=num_buckets, method=method,
                       text_col=text_col, id_col=id_col, append=append)
    return ds.map_batches(inst, batch_format="pyarrow")


def logprob_micro(c: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Per-bucket quantized smoothed log-probability:
    round_half_away(1e6 * ln((c+a)/(T+a*NB))) as int64 — the unigram-LM
    analogue of log_ratio_micro, same IEEE/libm + half-away rounding
    contract vs the SQL oracle."""
    nb = len(c)
    t = float(c.sum())
    return half_away(np.log((c + alpha) / (t + alpha * nb)) * 1e6).astype(np.int64)


def lm_quality_scores(ds, num_buckets: int = 10_000, alpha: float = 0.5,
                      text_col: str = "text", id_col: str = "doc_id",
                      method: str = "fast"):
    """Unigram-LM quality scoring (the CCNet/Gopher 'perplexity filter'
    shape, self-trained on the corpus itself): fit a smoothed
    bag-of-hashed-unigrams model in ONE streaming tree aggregate, then
    score every document with its integer-exact total log-probability.

    Returns (id, n_feats, logprob_micro): n_feats = token count,
    logprob_micro = sum over tokens of quantized ln p(bucket) — rank by
    logprob_micro / n_feats (per-token log prob; very negative =
    unusual text). Two streaming passes, bounded NB-long driver state,
    broadcast score table — no shuffle; the same scale shape as
    dsir_weights. method="md5" is the DuckDB-reproducible conformance
    variant (docs_lm_quality); method="fast" is the 100-TB path."""
    import ray

    c = bucket_counts(ds, num_buckets, text_col, method, grams=(1,))
    q = logprob_micro(c, alpha)
    ref = ray.put(q)
    inst = _DsirScorer(qlr_ref=ref, num_buckets=num_buckets, method=method,
                       text_col=text_col, id_col=id_col, grams=(1,))
    out = ds.map_batches(inst, batch_format="pyarrow")
    return out.map_batches(
        lambda b: b.rename_columns([id_col, "n_feats", "logprob_micro"]),
        batch_format="pyarrow")


def ccnet_buckets(ds, lang_col: str = "lang", text_col: str = "text",
                  id_col: str = "doc_id", num_buckets: int = 10_000,
                  alpha: float = 0.5, method: str = "fast"):
    """CCNet-style head/middle/tail quality bucketing (Wenzek et al.
    2020): score every document with the self-trained unigram LM
    (lm_quality_scores machinery), normalize to an integer per-token
    perplexity proxy, and split each language at its exact 1/3 and 2/3
    DISCRETE quantiles — head = lowest perplexity third.

    score_micro = (-logprob_micro * 1000) // max(n_feats, 1): pure
    integer arithmetic, and the thresholds are actual data values
    (window.group_quantile_disc = SQL quantile_disc), so bucket
    assignment is drift-free and byte-reproducible by the DuckDB oracle
    (docs_ccnet_buckets, method='md5'); method='fast' is the 100-TB
    path (same machinery as DSIR).

    Scale shape: one streaming tree aggregate (LM fit) + one scoring
    pass materialized as the NARROW (id, lang, score) projection — the
    multi-consumer precedent from curate_corpus — then one narrow
    (lang, score) shuffle for thresholds (languages are bounded; use
    group_quantile_sketch for unbounded keys) and a map-only broadcast
    bucket assignment. Document text is never shuffled."""
    import ray

    from .window import group_quantile_disc

    c = bucket_counts(ds, num_buckets, text_col, method, grams=(1,))
    q = logprob_micro(c, alpha)
    ref = ray.put(q)
    inst = _DsirScorer(qlr_ref=ref, num_buckets=num_buckets, method=method,
                       text_col=text_col, id_col=id_col, grams=(1,))

    def score_batch(b):
        out = inst(b).rename_columns([id_col, "n_feats", "logprob_micro"])
        lp = out.column("logprob_micro").to_numpy(zero_copy_only=False)
        nf = np.maximum(out.column("n_feats").to_numpy(zero_copy_only=False), 1)
        score = (-lp) * 1000 // nf
        return pa.table({
            id_col: out.column(id_col),
            lang_col: b.column(lang_col),
            "score_micro": pa.array(score.astype(np.int64)),
        })

    scored = ds.map_batches(score_batch, batch_format="pyarrow").materialize()

    thr = group_quantile_disc(scored, lang_col, "score_micro",
                              {"q1": 1.0 / 3.0, "q2": 2.0 / 3.0}).to_pandas()
    q1 = {r[lang_col]: int(r["q1"]) for _, r in thr.iterrows()}
    q2 = {r[lang_col]: int(r["q2"]) for _, r in thr.iterrows()}

    def assign(b: pa.Table) -> pa.Table:
        import pandas as pd

        langs = b.column(lang_col).to_pandas().to_numpy(dtype=object)
        score = b.column("score_micro").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(langs)
        a1 = np.array([q1[s] for s in uniq], dtype=np.int64)[codes] \
            if len(uniq) else np.empty(0, dtype=np.int64)
        a2 = np.array([q2[s] for s in uniq], dtype=np.int64)[codes] \
            if len(uniq) else np.empty(0, dtype=np.int64)
        bucket = np.where(score <= a1, "head",
                          np.where(score <= a2, "middle", "tail"))
        return b.append_column("bucket",
                               pa.array(bucket.astype(object), type=pa.string()))

    return scored.map_batches(assign, batch_format="pyarrow")
