"""Training-data curation operators: decontamination, deterministic
sampling, per-source quotas.

These are the corpus-hygiene steps of a large-scale LLM data pipeline
(beyond the reference's operator set; first-class per the build brief):

- **Decontamination**: drop/flag training documents that share any word
  n-gram with a benchmark/eval set (the standard open-eval hygiene step,
  e.g. GPT-3 appendix C / PaLM-style 8-gram overlap). The eval side is
  SMALL by definition (benchmarks are thousands of docs, not billions),
  so its n-gram hash set is built once, `ray.put`-broadcast, and each
  corpus batch checks membership with a vectorized searchsorted — the
  corpus side streams, nothing corpus-sized ever sits on the driver.

- **Deterministic hash sampling**: keep a row iff the first 4 hex chars
  of md5(key) fall under a per-stratum threshold. Reproducible under any
  partitioning (pure function of the row), no shuffle, no RNG state —
  the scale-correct way to sample 100 TB (random_shuffle would be an
  all-to-all exchange for no reason). Thresholds are expressed in
  hex-string space so the DuckDB oracle is a plain lexicographic
  `substr(md5(..),1,4) < 'xxxx'` comparison.

- **Per-source quota**: cap each source/domain at K documents (smallest
  order-key first — deterministic). Standard anti-boilerplate step for
  web corpora. Runs on the repo's coarse-bucket shuffle (hash(source)%B
  co-locates a source's rows; a bucket holds MANY sources, group sizes
  stay bounded at scale) with one vectorized pandas groupby per bucket.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

_GRAM_A = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier, mod-2^64 polynomial


def _gram_hashes(texts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All word-n-gram hashes of a batch of texts, flat, plus per-doc
    segment starts (minhash.signatures_batch's layout). Tokenization is
    lower + [a-z0-9]+ runs — chosen to be exactly expressible in the
    DuckDB oracle (regexp_extract_all(lower(text), '[a-z0-9]+')). Docs
    with fewer than n tokens contribute NO grams (can't be contaminated
    by an n-gram they don't contain).

    Vectorized: ONE siphash pass over the flat token stream, then an
    n-wide polynomial window combine + splitmix64 finalizer (the
    substring.py rolling-window construction) — no per-gram Python
    string joins. Tokens contain no spaces, so (token-tuple -> joined
    string) is bijective and hashing the tuple is semantically identical
    to hashing the joined gram string: membership comparisons against
    another _gram_hashes output equal string-equality membership modulo
    64-bit collisions, exactly as before."""
    from .textstats.vocab import _flat_tokens
    from .hashutil import splitmix64

    toks, seg = _flat_tokens(texts)
    nt = len(toks)
    n_docs = len(texts)
    tok_per_doc = np.diff(seg)
    grams_per_doc = np.maximum(tok_per_doc - n + 1, 0)
    seg_starts = np.concatenate([[0], np.cumsum(grams_per_doc)])
    if nt < n:
        return np.empty(0, np.uint64), seg_starts
    from .hashutil import poly_window_hash

    th = pd.util.hash_array(toks).astype(np.uint64)
    with np.errstate(over="ignore"):
        pw = np.empty(n, dtype=np.uint64)
        pw[n - 1] = np.uint64(1)
        for i in range(n - 2, -1, -1):
            pw[i] = pw[i + 1] * _GRAM_A
    h = splitmix64(poly_window_hash(th, n, pw))
    # drop windows crossing doc boundaries
    doc_of = np.repeat(np.arange(n_docs), tok_per_doc)
    valid = doc_of[: nt - n + 1] == doc_of[n - 1 :]
    return np.ascontiguousarray(h[valid]), seg_starts


def build_eval_gram_set(eval_ds, n: int = 5, text_col: str = "text") -> np.ndarray:
    """Sorted unique n-gram hash array of the eval/benchmark set.

    Driver-side by design: the eval side of decontamination is bounded
    (a benchmark suite, not a corpus) — the brief's broadcast-small-side
    pattern. Streams eval batches; never materializes the corpus."""
    parts: list[np.ndarray] = []
    for b in eval_ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, _ = _gram_hashes(texts, n)
        parts.append(h)
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))


def build_eval_gram_index(eval_ds, n: int = 5, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Hash-sorted (gram_hash, eval_id) PAIR arrays of the eval suite —
    per-eval-doc distinct, duplicates across eval docs kept (the same
    gram can implicate several eval items). Driver-side like
    build_eval_gram_set: the eval side is bounded by contract."""
    hs: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for b in eval_ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        eids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h, seg = _gram_hashes(texts, n)
        gpd = np.diff(seg)
        doc_of = np.repeat(np.arange(len(texts)), gpd)
        if not len(h):
            continue
        order = np.lexsort((h, doc_of))
        sh, sd = h[order], doc_of[order]
        first = np.ones(len(sh), dtype=bool)
        first[1:] = (sh[1:] != sh[:-1]) | (sd[1:] != sd[:-1])
        hs.append(sh[first])
        ids.append(eids[sd[first]])
    if not hs:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    h_all = np.concatenate(hs)
    id_all = np.concatenate(ids)
    order = np.argsort(h_all, kind="stable")
    return h_all[order], id_all[order]


def containment_scores(ds, ref_ds, n: int = 5, text_col: str = "text",
                       id_col: str = "doc_id"):
    """Per-document n-gram CONTAINMENT vs a reference gram set:
    |distinct grams(doc) ∩ ref| / |distinct grams(doc)| — the
    memorization / overlap metric decontamination papers report (Lee et
    al. 2022 "Deduplicating Training Data..."), complementing
    jaccard_decontaminate's per-eval-doc max-similarity view with one
    whole-reference score per corpus doc.

    Scale shape: the reference gram set broadcasts once (sorted hash
    array, build_eval_gram_set — bounded by contract); per batch the
    per-doc distinct grams come from one lexsort + first-occurrence
    mask (no per-doc loop) and membership is one searchsorted.
    Map-only, no shuffle. Output: (id, n_grams, n_matched,
    containment_micro) with containment in exact integer micro-units
    (matched * 1e6 // distinct) so the SQL oracle replays bit-exact."""
    import ray

    ref = ray.put(build_eval_gram_set(ref_ds, n, text_col))

    def score(b: pa.Table) -> pa.Table:
        import ray as _ray

        ref_h = _ray.get(ref)
        texts = b.column(text_col).to_pandas().fillna("") \
            .to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, n)
        nd = len(texts)
        doc = np.repeat(np.arange(nd, dtype=np.int64), np.diff(seg))
        # per-doc distinct grams: lexsort + first-occurrence mask
        if len(h):
            order = np.lexsort((h, doc))
            sh, sd = h[order], doc[order]
            first = np.ones(len(sh), dtype=bool)
            first[1:] = (sh[1:] != sh[:-1]) | (sd[1:] != sd[:-1])
            uh, ud = sh[first], sd[first]
        else:
            uh = np.empty(0, np.uint64)
            ud = np.empty(0, np.int64)
        n_grams = np.bincount(ud, minlength=nd).astype(np.int64)
        if len(uh) and len(ref_h):
            pos = np.searchsorted(ref_h, uh)
            hit = (pos < len(ref_h)) & (ref_h[np.minimum(
                pos, len(ref_h) - 1)] == uh)
        else:
            hit = np.zeros(len(uh), dtype=bool)
        n_matched = np.bincount(ud[hit], minlength=nd).astype(np.int64)
        micro = np.where(n_grams > 0,
                         n_matched * 1_000_000 // np.maximum(n_grams, 1),
                         0).astype(np.int64)
        return pa.table({
            id_col: b.column(id_col),
            "n_grams": pa.array(n_grams),
            "n_matched": pa.array(n_matched),
            "containment_micro": pa.array(micro),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def contamination_report(corpus, eval_ds, n: int = 5, text_col: str = "text",
                         id_col: str = "doc_id"):
    """Per-eval-item leak report — the REVERSE view of decontaminate:
    for every eval doc, how many corpus docs share at least one
    word-n-gram with it. The audit artifact reviewers actually read
    ("which benchmark items leak, and how badly").

    Scale shape: the (gram_hash, eval_id) index broadcasts via ray.put;
    corpus docs stream map-only emitting distinct (eval_id) hits per
    doc; ONE small groupby-count on eval ids (bounded by the suite
    size). Returns (eval_id, n_leaked_docs) including zero rows.
    SQL-reproducible modulo 64-bit gram-hash collisions
    (docs_leak_report)."""
    import ray

    eh, eid = build_eval_gram_index(eval_ds, n, text_col, id_col)
    all_eval_ids = np.unique(eid)
    ref = ray.put((eh, eid))

    def hits(b: pa.Table) -> pa.Table:
        import ray as _ray

        h_sorted, id_sorted = _ray.get(ref)
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, n)
        if not len(h) or not len(h_sorted):
            return pa.table({"eval_id": pa.array([], type=pa.int64())})
        doc_of = np.repeat(np.arange(len(texts)), np.diff(seg))
        lo = np.searchsorted(h_sorted, h, side="left")
        hi = np.searchsorted(h_sorted, h, side="right")
        cnt = hi - lo
        m = cnt > 0
        if not m.any():
            return pa.table({"eval_id": pa.array([], type=pa.int64())})
        lo, cnt, doc_of = lo[m], cnt[m], doc_of[m]
        total = int(cnt.sum())
        starts = np.zeros(len(cnt), dtype=np.int64)
        np.cumsum(cnt[:-1], out=starts[1:])
        out_idx = np.repeat(lo, cnt) + (np.arange(total) - np.repeat(starts, cnt))
        pair_doc = np.repeat(doc_of, cnt)
        pair_eval = id_sorted[out_idx]
        # distinct (corpus_doc, eval_id) pairs within the batch
        order = np.lexsort((pair_eval, pair_doc))
        pd_, pe_ = pair_doc[order], pair_eval[order]
        first = np.ones(len(pd_), dtype=bool)
        first[1:] = (pd_[1:] != pd_[:-1]) | (pe_[1:] != pe_[:-1])
        return pa.table({"eval_id": pa.array(pe_[first])})

    counted = corpus.map_batches(hits, batch_format="pyarrow") \
                    .groupby("eval_id").count().to_pandas()
    out = pd.DataFrame({"eval_id": all_eval_ids})
    if "eval_id" in counted.columns and len(counted):
        out = out.merge(counted.rename(columns={"count()": "n_leaked_docs"}),
                        on="eval_id", how="left")
        out["n_leaked_docs"] = out["n_leaked_docs"].fillna(0).astype(np.int64)
    else:
        out["n_leaked_docs"] = np.int64(0)
    return out.sort_values("eval_id").reset_index(drop=True)


class Decontaminator:
    """Actor-pool stage: flag corpus docs sharing any n-gram with the
    broadcast eval gram set. `ds.map_batches(Decontaminator,
    fn_constructor_kwargs=dict(eval_grams_ref=ref), concurrency=N)` —
    the eval set is fetched once per actor (zero-copy object store read),
    membership per batch is one searchsorted over the flat gram array."""

    def __init__(self, eval_grams_ref=None, eval_grams: np.ndarray | None = None,
                 n: int = 5, text_col: str = "text", id_col: str = "doc_id",
                 mode: str = "flags"):
        # resolve the broadcast ref LAZILY (first __call__): as an actor
        # ctor that's once per actor; as a pickled task instance the
        # driver-side object stays a tiny ref and each worker fetches the
        # gram set zero-copy from its local object store
        self._ref = eval_grams_ref
        self.eval_grams = (
            None if eval_grams is None else np.asarray(eval_grams, dtype=np.uint64)
        )  # sorted unique
        self.n = n
        self.text_col = text_col
        self.id_col = id_col
        if mode not in ("flags", "filter"):
            raise ValueError(mode)
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.eval_grams is None:
            import ray

            self.eval_grams = np.asarray(ray.get(self._ref), dtype=np.uint64)
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, self.n)
        pos = np.searchsorted(self.eval_grams, h)
        pos[pos == len(self.eval_grams)] = max(len(self.eval_grams) - 1, 0)
        hit = (self.eval_grams[pos] == h) if len(self.eval_grams) else np.zeros(len(h), bool)
        # per-doc any(): sum hits over each doc's gram segment
        csum = np.concatenate([[0], np.cumsum(hit)])
        contaminated = (csum[seg[1:]] - csum[seg[:-1]]) > 0
        if self.mode == "filter":
            # map-only in-stream removal: full rows pass through, no
            # flags table, no join back (the curate() hot path)
            return batch.filter(pa.array(~contaminated))
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "contaminated": pa.array(contaminated),
        })


def decontaminate(ds, eval_ds, n: int = 5, text_col: str = "text",
                  id_col: str = "doc_id"):
    """(id, contaminated) flags for every row of `ds` vs `eval_ds` grams.

    Runs as plain tasks (not a fixed actor pool): the only state is the
    broadcast gram array, and ray.get on a node-local object is a
    zero-copy plasma view — tasks scale elastically with the cluster,
    never deadlock a small one, and skip the pool spin-up cost."""
    import ray

    ref = ray.put(build_eval_gram_set(eval_ds, n, text_col))
    inst = Decontaminator(eval_grams_ref=ref, n=n, text_col=text_col, id_col=id_col)
    return ds.map_batches(inst, batch_format="pyarrow")


def drop_contaminated(ds, eval_ds, n: int = 5, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Map-only decontamination FILTER: rows sharing any n-gram with the
    eval suite are dropped in-stream — same kept set as
    decontaminate() + anti-join, without the join's all-to-all exchange
    (the curate() flagship path)."""
    import ray

    ref = ray.put(build_eval_gram_set(eval_ds, n, text_col))
    inst = Decontaminator(eval_grams_ref=ref, n=n, text_col=text_col,
                          id_col=id_col, mode="filter")
    return ds.map_batches(inst, batch_format="pyarrow")


def build_eval_shingle_index(eval_ds, n: int = 3, text_col: str = "text"):
    """Per-eval-doc DISTINCT n-gram hash index for exact-Jaccard
    decontamination: (sorted flat hash array, parallel eval-doc code
    array, per-code distinct-gram counts). Driver-side bounded — the
    eval side is a benchmark suite, not a corpus; eval docs with no
    grams are excluded (Jaccard vs an empty set is undefined/0)."""
    h_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []
    code = 0
    sizes: list[int] = []
    for b in eval_ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, n)
        for d in range(len(texts)):
            u = np.unique(h[seg[d]:seg[d + 1]])
            if len(u):
                h_parts.append(u)
                c_parts.append(np.full(len(u), code, dtype=np.int32))
                sizes.append(len(u))
                code += 1
    if not h_parts:
        return (np.empty(0, np.uint64), np.empty(0, np.int32),
                np.empty(0, np.int64))
    hs = np.concatenate(h_parts)
    cs = np.concatenate(c_parts)
    order = np.argsort(hs, kind="stable")
    return hs[order], cs[order], np.asarray(sizes, dtype=np.int64)


class JaccardDecontaminator:
    """Task/actor stage: per corpus doc, the MAX exact Jaccard similarity
    of its distinct n-gram set vs every eval doc's set. The eval index
    (sorted hash + doc-code arrays) broadcasts once; per batch the
    matching is two searchsorted passes + a SPARSE per-(doc, eval) pair
    accumulation — peak memory is O(matched gram occurrences), the same
    order as the match-position arrays themselves, NOT
    O(batch_docs x n_eval), so a 100k-doc eval set costs nothing extra
    for corpus docs that don't overlap it."""

    def __init__(self, index_ref=None, index=None, n: int = 3,
                 text_col: str = "text", id_col: str = "doc_id",
                 threshold: float = 0.5):
        self._ref = index_ref
        self.index = index
        self.n = n
        self.text_col = text_col
        self.id_col = id_col
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.index is None:
            import ray

            self.index = ray.get(self._ref)
        e_hash, e_code, e_sizes = self.index
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, self.n)
        nd = len(texts)
        # per-doc distinct gram hashes, flat with doc segments
        uh_parts, doc_of, a_sizes = [], [], np.zeros(nd, dtype=np.int64)
        for d in range(nd):
            u = np.unique(h[seg[d]:seg[d + 1]])
            a_sizes[d] = len(u)
            if len(u):
                uh_parts.append(u)
                doc_of.append(np.full(len(u), d, dtype=np.int64))
        mj = np.zeros(nd, dtype=np.float64)
        if uh_parts and len(e_hash):
            U = np.concatenate(uh_parts)
            D = np.concatenate(doc_of)
            lo = np.searchsorted(e_hash, U, side="left")
            hi = np.searchsorted(e_hash, U, side="right")
            reps = hi - lo
            m = int(reps.sum())
            if m:
                # expand the [lo, hi) ranges into flat match positions
                starts = np.repeat(lo, reps)
                offs = np.arange(m) - np.repeat(
                    np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
                codes = e_code[starts + offs]
                docs = np.repeat(D, reps)
                # sparse (doc, eval) intersection counts: one np.unique
                # over the matched pair keys — O(m log m) time, O(m)
                # memory, no dense nd x n_eval allocation
                n_eval = len(e_sizes)
                pair_keys, inter = np.unique(docs * n_eval + codes,
                                             return_counts=True)
                pd_ = pair_keys // n_eval
                pc_ = pair_keys - pd_ * n_eval
                union = a_sizes[pd_] + e_sizes[pc_] - inter
                with np.errstate(invalid="ignore", divide="ignore"):
                    jac = np.where(union > 0, inter / union, 0.0)
                np.maximum.at(mj, pd_, jac)
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "max_jaccard": pa.array(mj),
            "contaminated": pa.array(mj >= self.threshold),
        })


def jaccard_decontaminate(ds, eval_ds, n: int = 3, threshold: float = 0.5,
                          text_col: str = "text", id_col: str = "doc_id"):
    """Exact-Jaccard decontamination: flag corpus docs whose distinct
    word-n-gram set is >= `threshold` Jaccard-similar to ANY eval doc's
    set. The exhaustive doc x eval comparison is the honest scale path
    when the eval side is a bounded benchmark suite (the corpus streams;
    per batch it's vectorized searchsorted + a sparse matched-pair
    accumulation — memory scales with actual overlap, not with
    batch_docs x n_eval); for an
    UNBOUNDED reference side use dedup.minhash/dedup.ngram's LSH
    machinery instead — this operator is the exact semantics that an
    independent SQL oracle can reproduce (distinct-gram intersection /
    union). Returns (id, max_jaccard, contaminated)."""
    import ray

    idx = build_eval_shingle_index(eval_ds, n, text_col)
    ref = ray.put(idx)
    inst = JaccardDecontaminator(index_ref=ref, n=n, text_col=text_col,
                                 id_col=id_col, threshold=threshold)
    return ds.map_batches(inst, batch_format="pyarrow")


def md5_bucket_hex4(keys: np.ndarray) -> np.ndarray:
    """First 4 hex chars of md5(str(key)) per row — the sampling coordinate.
    md5 is per-row by nature; the loop is over a C-level object array and
    md5 of tiny inputs is ~1µs — this is the documented cost of choosing a
    coordinate every SQL engine can reproduce exactly (DuckDB md5())."""
    return np.array([hashlib.md5(str(k).encode()).hexdigest()[:4] for k in keys], dtype=object)


_SAMPLE_SEED = 0x5A4D9C3E17B26A01


def fast_sample_u64(keys: np.ndarray) -> np.ndarray:
    """Vectorized uint64 sampling coordinate: splitmix64 for integer keys,
    pandas siphash for everything else — no per-row Python, ~100x the
    md5 loop's throughput, identical determinism properties (pure
    per-row function of the key, stable across processes/partitions)."""
    from .hashutil import hash_idx, hash_str_array

    if np.issubdtype(np.asarray(keys).dtype, np.integer):
        return hash_idx(np.asarray(keys), seed=_SAMPLE_SEED)
    return hash_str_array(keys)


def hash_sample(ds, rates: dict[str, float], key_col: str = "doc_id",
                strat_col: str = "lang", default_rate: float = 0.0,
                method: str = "fast"):
    """Deterministic stratified sampling: keep a row iff the key's hash
    coordinate falls under its stratum's rate threshold. Pure per-row
    function — no shuffle, reproducible at any partitioning/scale.

    method="fast" (default, the scale path): vectorized 64-bit coordinate
    (fast_sample_u64), keep iff u64 < rate * 2^64; oracled by a committed
    golden parquet (scripts/gen_golden_oracles.py — disclosed regression
    pin; the md5 variant stays the independent-SQL conformance check in
    tests/test_curation.py).

    method="md5": first-4-hex-chars-of-md5 coordinate — per-row Python
    md5, ~100x slower, but byte-reproducible by ANY SQL engine (DuckDB
    md5()). rate >= 1.0 keeps EVERY row ('g' sorts above all hex
    strings; clamping to 'ffff' with a strict < would drop the
    1-in-65536 keys hashing to exactly ffff)."""
    if method == "fast":
        import pandas as pd

        thr_map = {s: int(r * 2**64) for s, r in rates.items()}
        default_thr = int(default_rate * 2**64)

        def keep(batch: pa.Table) -> pa.Table:
            keys = batch.column(key_col).to_numpy(zero_copy_only=False)
            strata = batch.column(strat_col).to_pandas().to_numpy(dtype=object)
            u = fast_sample_u64(keys)
            # factorize strata (tiny cardinality) so the threshold lookup
            # and the keep mask are pure uint64 vector ops; rate >= 1.0
            # (threshold 2^64, unrepresentable in uint64) keeps every row
            codes, uniq = pd.factorize(strata)
            thrs = [thr_map.get(s, default_thr) for s in uniq]
            thr_u = np.array([min(t, 2**64 - 1) for t in thrs], dtype=np.uint64)
            keep_all = np.array([t >= 2**64 for t in thrs], dtype=bool)
            mask = (u < thr_u[codes]) | keep_all[codes]
            return batch.filter(pa.array(mask))

        return ds.map_batches(keep, batch_format="pyarrow")

    def _thr(r: float) -> str:
        v = int(r * 65536)
        return "g" if v >= 65536 else format(v, "04x")

    thresholds = {s: _thr(r) for s, r in rates.items()}
    default_thr = _thr(default_rate)

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pandas().to_numpy()
        strata = batch.column(strat_col).to_pandas().to_numpy(dtype=object)
        hx = md5_bucket_hex4(keys)
        thr = np.array([thresholds.get(s, default_thr) for s in strata], dtype=object)
        return batch.filter(pa.array(hx < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_split(ds, fractions: dict[str, float], key_col: str = "doc_id",
               split_col: str = "split", method: str = "fast"):
    """Deterministic disjoint dataset split (train/val/test): assign each
    row to the first split whose cumulative fraction bound exceeds the
    key's hash coordinate. Pure per-row function — no shuffle, no RNG,
    reproducible at any partitioning, and DISJOINT by construction
    (one coordinate, non-overlapping intervals; sampling each split
    independently would correlate membership across splits).

    method="fast": vectorized 64-bit coordinate (fast_sample_u64) —
    the scale path. method="md5": first-4-hex-chars-of-md5 interval
    bounds, byte-reproducible by any SQL engine (DuckDB md5()).
    Fractions must sum to <= 1; rows past the last bound get NULL
    (dropped-from-all-splits remainder)."""
    names = list(fractions)
    cum = np.cumsum([fractions[n] for n in names])
    if cum[-1] > 1.0 + 1e-9:
        raise ValueError("fractions sum to > 1")

    if method == "fast":
        bounds = np.array([min(int(c * 2**64), 2**64 - 1) for c in cum],
                          dtype=np.uint64)
        full = [c >= 1.0 for c in cum]

        def assign(batch: pa.Table) -> pa.Table:
            u = fast_sample_u64(batch.column(key_col).to_numpy(zero_copy_only=False))
            out = np.full(len(u), None, dtype=object)
            prev = np.zeros(len(u), dtype=bool)
            for i, nm in enumerate(names):
                inside = (u < bounds[i]) | full[i]
                out[inside & ~prev] = nm
                prev |= inside
            return batch.append_column(split_col, pa.array(out, type=pa.string()))

        return ds.map_batches(assign, batch_format="pyarrow")

    if method != "md5":
        raise ValueError("method must be 'fast' or 'md5'")
    bounds_hex = ["g" if int(c * 65536) >= 65536 else format(int(c * 65536), "04x")
                  for c in cum]

    def assign(batch: pa.Table) -> pa.Table:
        hx = md5_bucket_hex4(batch.column(key_col).to_pandas().to_numpy())
        out = np.full(len(hx), None, dtype=object)
        prev = np.zeros(len(hx), dtype=bool)
        for i, nm in enumerate(names):
            inside = hx < bounds_hex[i]
            out[inside & ~prev] = nm
            prev |= inside
        return batch.append_column(split_col, pa.array(out, type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def weighted_sample_key(keys: np.ndarray, weights: np.ndarray,
                        method: str = "md5") -> np.ndarray:
    """Efraimidis-Spirakis weighted-sampling coordinate (public
    algorithm, 2006): key = u^(1/w) with u a per-row deterministic
    uniform in (0,1) — taking the top-k keys per stratum IS a weighted
    sample without replacement (inclusion probability proportional to
    weight at each draw), derandomized by the hash coordinate so any
    engine/partitioning reproduces the same sample.

    method='md5': u = (first-8-hex-of-md5(str(key)) + 0.5) / 2^32 —
    byte-reproducible in DuckDB as
    (('0x' || substr(md5(..), 1, 8))::UBIGINT + 0.5) / 4294967296.0,
    pow/division being exact-rounded IEEE on both sides.
    method='fast': u from splitmix64/siphash (the vectorized scale
    path). Rows with weight <= 0 get key 0 (sampled last)."""
    w = np.asarray(weights, dtype=np.float64)
    if method == "md5":
        h32 = np.array([int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
                        for k in keys], dtype=np.float64)
        u = (h32 + 0.5) / 4294967296.0
    elif method == "fast":
        u = (fast_sample_u64(np.asarray(keys)).astype(np.float64) + 0.5) / 2.0**64
    else:
        raise ValueError("method must be 'md5' or 'fast'")
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.where(w > 0, u ** (1.0 / w), 0.0)
    return key


def domain_mix(ds, weights: dict[str, int], source_col: str = "source",
               key_col: str = "doc_id", method: str = "fast"):
    """Rebalance a multi-source corpus toward target mixture WEIGHTS by
    deterministic downsampling — the training-mix step ("2 parts web,
    1 part code, 1 part books"). Keeps the LARGEST total achievable by
    downsampling only: with m = argmin_s(n_s / w_s), source s keeps at
    rate (n_m * w_s) / (w_m * n_s); the binding source m keeps
    everything. Sources absent from `weights` are dropped.

    Thresholds are EXACT integer arithmetic
    (floor(65536 * n_m * w_s / (w_m * n_s))) over the 16-bit hash
    coordinate, so the SQL oracle reproduces the kept set byte-for-byte
    (docs_domain_mix, method='md5'); method='fast' uses the top 16 bits
    of the splitmix64/siphash coordinate — same construction, no
    per-row Python. One tiny groupby-count pass + a map-only filter;
    reproducible at any partitioning."""
    import hashlib

    cnt = ds.groupby(source_col).count().to_pandas()
    n_by = dict(zip(cnt[source_col], cnt["count()"].astype(int)))
    present = {s: w for s, w in weights.items() if n_by.get(s, 0) > 0}
    if not present:
        raise ValueError("no weighted source present in the dataset")
    # binding source: smallest n/w (double comparison to match the SQL
    # oracle's ORDER BY CAST(n AS DOUBLE)/w, source tie-break)
    m = min(present, key=lambda s: (n_by[s] / present[s], s))
    nm, wm = n_by[m], present[m]
    thr = {s: (65536 * nm * w) // (wm * n_by[s]) for s, w in present.items()}

    if method == "md5":
        def keep(batch: pa.Table) -> pa.Table:
            keys = batch.column(key_col).to_pandas().to_numpy()
            srcs = batch.column(source_col).to_pandas().to_numpy(dtype=object)
            mask = np.zeros(len(keys), dtype=bool)
            for i, (k, s) in enumerate(zip(keys, srcs)):
                t = thr.get(s)
                if t is None:
                    continue
                mask[i] = t >= 65536 or \
                    hashlib.md5(str(k).encode()).hexdigest()[:4] < format(t, "04x")
            return batch.filter(pa.array(mask))
    elif method == "fast":
        def keep(batch: pa.Table) -> pa.Table:
            keys = batch.column(key_col).to_numpy(zero_copy_only=False)
            srcs = batch.column(source_col).to_pandas().to_numpy(dtype=object)
            u16 = (fast_sample_u64(keys) >> np.uint64(48)).astype(np.int64)
            codes, uniq = pd.factorize(srcs)
            tarr = np.array([thr.get(s, -1) for s in uniq], dtype=np.int64)
            t_of = tarr[codes]
            mask = (t_of >= 0) & ((t_of >= 65536) | (u16 < t_of))
            return batch.filter(pa.array(mask))
    else:
        raise ValueError("method must be 'fast' or 'md5'")
    return ds.map_batches(keep, batch_format="pyarrow")


def epoch_mix(ds, epochs: dict[str, float], source_col: str = "source",
              key_col: str = "doc_id", method: str = "fast"):
    """Deterministic epoch UPSAMPLING toward a training mixture — the
    other half of domain_mix: where domain_mix can only downsample,
    epoch_mix repeats high-value sources fractional-epoch-exactly
    (e.g. {"wiki": 2.5} emits every wiki doc twice plus a deterministic
    half of them a third time — the public LLaMA/Pile "epochs per
    source" recipe). Sources absent from `epochs` are dropped.

    Per row with e = epochs[source]: emit epoch = 0..floor(e)-1
    unconditionally, plus epoch = floor(e) iff the row's hash
    coordinate falls under frac16 = round((e - floor(e)) * 65536) —
    EXACT integer threshold on the same 16-bit coordinate family as
    domain_mix, so method='md5' is byte-reproducible by DuckDB
    (docs_epoch_mix) and method='fast' (splitmix64/siphash top bits) is
    the no-per-row-Python 100-TB path, same construction.

    Scale shape: pure map-only row expansion (np.repeat + take inside
    each batch) — no shuffle, no driver state, reproducible at any
    partitioning; output size is sum(e_s * n_s) by construction."""
    import hashlib

    whole = {}
    frac16 = {}
    for s, e in epochs.items():
        if e < 0:
            raise ValueError(f"negative epochs for {s!r}")
        w = int(e)
        f = int(round((e - w) * 65536))
        if f >= 65536:
            w, f = w + 1, 0
        whole[s], frac16[s] = w, f

    def expand(batch: pa.Table) -> pa.Table:
        n = len(batch)
        srcs = batch.column(source_col).to_pandas().to_numpy(dtype=object)
        codes, uniq = pd.factorize(srcs)
        wh = np.array([whole.get(s, 0) for s in uniq], dtype=np.int64)[codes] \
            if len(uniq) else np.zeros(n, dtype=np.int64)
        fr = np.array([frac16.get(s, 0) for s in uniq], dtype=np.int64)[codes] \
            if len(uniq) else np.zeros(n, dtype=np.int64)
        keys = batch.column(key_col).to_pandas().to_numpy()
        if method == "md5":
            hexes = md5_bucket_hex4(keys)
            fthr = np.array([format(int(f), "04x") for f in fr], dtype=object)
            fkeep = (fr > 0) & (hexes < fthr)
        elif method == "fast":
            u16 = (fast_sample_u64(keys) >> np.uint64(48)).astype(np.int64)
            fkeep = (fr > 0) & (u16 < fr)
        else:
            raise ValueError("method must be 'fast' or 'md5'")
        reps = wh + fkeep.astype(np.int64)
        idx = np.repeat(np.arange(n, dtype=np.int64), reps)
        total = int(reps.sum())
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        epoch = np.arange(total, dtype=np.int64) - starts
        out = batch.take(pa.array(idx, type=pa.int64()))
        return out.append_column("epoch", pa.array(epoch, type=pa.int64()))

    return ds.map_batches(expand, batch_format="pyarrow")


def dedup_lines_text(texts: pd.Series, sep: str = "\n") -> pd.Series:
    """C4-style within-document repetition removal: keep the FIRST
    occurrence of each exact line, preserve order, rejoin. Pure per-row
    function — shuffle-free, partitioning-independent; dict.fromkeys
    keeps insertion order in one C-level pass per row. SQL-equivalent:
    row_number() over (doc, line) = 1 re-aggregated by position
    (docs_dedup_lines oracle)."""
    return texts.astype(object).fillna("").astype(str).map(
        lambda t: sep.join(dict.fromkeys(t.split(sep)))
    )


def _line_hash_table(batch_texts, sep: str):
    """Per-doc-DISTINCT line hashes of a batch: Arrow split, dictionary
    hash of the unique line vocabulary, lexsort first-occurrence mask.
    Returns (line_hashes_u64, doc_of_line, per_doc_line_counts,
    flat_line_strings, flat_doc_of) — the last two for rebuild paths."""
    import pyarrow.compute as pc

    arr = pa.array(batch_texts, type=pa.string())
    lists = pc.split_pattern(arr, sep)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    counts = np.diff(lists.offsets.to_numpy())
    flat = pc.list_flatten(lists)
    doc_of = np.repeat(np.arange(len(batch_texts)), counts)
    if len(flat) == 0:
        e = np.empty(0, np.uint64)
        return e, doc_of[:0], counts, flat, doc_of
    de = flat.dictionary_encode()
    uniq = de.dictionary.to_pandas().to_numpy(dtype=object)
    uh = pd.util.hash_array(uniq, categorize=False).astype(np.uint64)
    h = uh[de.indices.to_numpy()]
    return h, doc_of, counts, flat, doc_of


def boilerplate_line_counts(ds, text_col: str = "text", sep: str = "\n"):
    """Cross-corpus line-frequency table: (line_hash, n_docs) where
    n_docs = COUNT(DISTINCT doc) containing the line. Map phase emits
    each doc's DISTINCT line hashes (8 bytes per line — strings never
    shuffle); ONE narrow groupby-count exchange."""
    def extract(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, doc_of, _c, _f, _d = _line_hash_table(texts, sep)
        if len(h) == 0:
            return pa.table({"line_hash": pa.array([], type=pa.int64())})
        order = np.lexsort((h, doc_of))
        sh, sd = h[order], doc_of[order]
        first = np.ones(len(sh), dtype=bool)
        first[1:] = (sh[1:] != sh[:-1]) | (sd[1:] != sd[:-1])
        return pa.table({"line_hash": pa.array(sh[first].view(np.int64))})

    return ds.map_batches(extract, batch_format="pyarrow") \
             .groupby("line_hash").count()


def remove_boilerplate_lines(ds, min_docs: int = 4, text_col: str = "text",
                             sep: str = "\n", removed_col: str = "n_removed"):
    """RefinedWeb/C4-style CROSS-document boilerplate removal: drop every
    line that appears in >= min_docs distinct documents (nav menus,
    cookie banners, footers), keeping remaining lines in order.

    Scale shape: one narrow (line_hash) groupby-count exchange over
    8-byte keys, then the frequent set — bounded by the threshold (the
    heavy-hitter lines; pick min_docs so it fits the driver, or use the
    Count-Min sketch for the unbounded regime) — broadcasts via
    ray.put into a map-only rebuild. Companion to the WITHIN-doc
    dedup_lines; SQL-reproducible modulo 64-bit line-hash collisions
    (docs_boilerplate_lines)."""
    import ray

    freq = boilerplate_line_counts(ds, text_col=text_col, sep=sep)
    fdf = freq.map_batches(
        lambda b: b.filter(pa.compute.greater_equal(b.column("count()"),
                                                    pa.scalar(min_docs))),
        batch_format="pyarrow").to_pandas()
    if "line_hash" in fdf.columns:
        freq_sorted = np.sort(fdf["line_hash"].to_numpy(np.int64).view(np.uint64))
    else:  # no line crossed the threshold: empty frame loses its schema
        freq_sorted = np.empty(0, dtype=np.uint64)
    ref = ray.put(freq_sorted)

    def clean(b: pa.Table) -> pa.Table:
        import ray as _ray

        fs = _ray.get(ref)
        texts = b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, doc_of, counts, flat, _d = _line_hash_table(texts, sep)
        if len(h):
            pos = np.searchsorted(fs, h)
            pos_c = np.minimum(pos, max(len(fs) - 1, 0))
            is_boiler = (fs[pos_c] == h) if len(fs) else np.zeros(len(h), bool)
        else:
            is_boiler = np.zeros(0, dtype=bool)
        lines = flat.to_pandas().to_numpy(dtype=object)
        keep = ~is_boiler
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        out_texts, removed = [], np.zeros(len(texts), dtype=np.int64)
        for i in range(len(texts)):
            seg = slice(starts[i], starts[i] + counts[i])
            k = keep[seg]
            removed[i] = counts[i] - int(k.sum())
            out_texts.append(sep.join(lines[seg][k]))
        idx = b.column_names.index(text_col)
        out = b.set_column(idx, text_col, pa.array(out_texts, type=pa.string()))
        return out.append_column(removed_col, pa.array(removed))

    return ds.map_batches(clean, batch_format="pyarrow")


def dedup_lines(ds, text_col: str = "text", sep: str = "\n"):
    """Batch operator form of dedup_lines_text."""

    def f(batch: pa.Table) -> pa.Table:
        red = dedup_lines_text(batch.column(text_col).to_pandas(), sep)
        idx = batch.column_names.index(text_col)
        return batch.set_column(idx, text_col, pa.array(red, type=pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")


def chunk_documents(ds, max_tokens: int = 512, overlap: int = 0,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Split documents into token-bounded chunks with optional overlap —
    the standard pretraining prep (context-window packing). Whitespace
    tokens; chunk i covers tokens [i*stride, i*stride + max_tokens) with
    stride = max_tokens - overlap. Row explode is map-only (flat_map
    shape inside map_batches): no shuffle, chunk ids deterministic, and
    a downstream repartition can rebalance if chunk skew matters.
    Output: (id_col, chunk_id, text[, n_tokens])."""
    if not 0 <= overlap < max_tokens:
        raise ValueError("need 0 <= overlap < max_tokens")
    stride = max_tokens - overlap

    def explode(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("").astype(str)
        ids = b.column(id_col).to_pandas()
        out_id, out_chunk, out_text, out_n = [], [], [], []
        for doc, txt in zip(ids, texts):
            toks = txt.split()
            if not toks:
                continue
            i = 0
            pos = 0
            while pos < len(toks):
                seg = toks[pos : pos + max_tokens]
                out_id.append(doc)
                out_chunk.append(i)
                out_text.append(" ".join(seg))
                out_n.append(len(seg))
                if pos + max_tokens >= len(toks):
                    break
                pos += stride
                i += 1
        return pa.table({
            id_col: pa.array(out_id, type=b.schema.field(id_col).type),
            "chunk_id": pa.array(out_chunk, type=pa.int64()),
            text_col: pa.array(out_text, type=pa.string()),
            "n_tokens": pa.array(out_n, type=pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def quota_head(ds, key_col: str, order_col: str, k: int, num_buckets: int | None = None,
               tiebreak_cols: list[str] | None = None):
    """Keep the first k rows per key (ascending order_col) — per-domain
    document caps. Coarse-bucket shuffle + one vectorized pandas
    sort+groupby.head per bucket (bounded group sizes at any scale).

    Determinism: reproducible iff (order_col, *tiebreak_cols) is unique
    per key — pass tiebreak_cols when order_col alone has ties, otherwise
    which tied row survives depends on block arrival order (the same
    caveat as SQL row_number() over a non-unique ORDER BY)."""
    from .shuffle import bucketed_map_groups

    order = [key_col, order_col, *(tiebreak_cols or [])]

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(order, kind="mergesort").groupby(key_col, sort=False).head(k)

    return bucketed_map_groups(ds, key_col, cap, num_buckets=num_buckets)


def token_counts(ds, text_col: str = "text", id_col: str = "doc_id",
                 bpe_merges: list | None = None):
    """(id_col, n_tokens) per document. Default: lower + [a-z0-9]+ run
    count, the corpus-wide single-source-of-truth tokenization
    (decontaminate, textstats.vocab). With `bpe_merges` (a GPT-2-style
    rank-ordered merge list), counts come from the from-spec BPE
    tokenizer instead (textstats/bpe.py) — budgets and packing then
    match what a training run actually consumes. Map-only either way."""
    if bpe_merges is not None:
        from .textstats.bpe import bpe_token_counts

        counts = bpe_token_counts(ds, bpe_merges, text_col=text_col,
                                  id_col=id_col)
        return counts.map_batches(
            lambda b: b.rename_columns(
                [("n_tokens" if c == "n_tokens_bpe" else c)
                 for c in b.column_names]),
            batch_format="pyarrow")

    def count(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("")
        n = texts.str.lower().str.count(r"[a-z0-9]+").astype(np.int64)
        return pa.table({id_col: b.column(id_col),
                         "n_tokens": pa.array(n.to_numpy())})

    return ds.map_batches(count, batch_format="pyarrow")


def pack_sequences(ds, window: int, text_col: str = "text", id_col: str = "doc_id",
                   range_size: int = 4096, bpe_merges: list | None = None):
    """Greedy concat-and-chunk sequence packing: documents in id order
    are laid end to end in token space; each doc's training sequence is
    `seq_bin = floor(start_offset / window)` where start_offset is the
    exclusive prefix sum of token counts. The standard pretraining
    batch-packing step (docs stream into fixed context windows).

    A global prefix sum is the textbook two-level scan tree, and that is
    exactly what runs here:
    1. per-doc token counts (map-only) with a coarse range key
       `rng = id // range_size`;
    2. per-range totals via groupby — the ROOT of the scan tree. The
       root is corpus_size / range_size rows (one int per range): size
       range_size so the root stays driver-bounded (at 10^12 docs,
       range_size=10^6 leaves a 10^6-row root). The exclusive cumsum
       over the root happens driver-side — that IS the scan-tree apex,
       not a corpus materialization;
    3. one shuffle co-locating each range, then a vectorized
       within-range cumsum + the broadcast range offset.

    Output: (id_col, n_tokens, seq_bin). Deterministic: pure function
    of (id order, token counts, window)."""
    import ray

    counts = token_counts(ds, text_col, id_col, bpe_merges=bpe_merges)

    def add_rng(b: pa.Table) -> pa.Table:
        rng = b.column(id_col).to_numpy() // range_size
        return b.append_column("rng", pa.array(rng.astype(np.int64)))

    keyed = counts.map_batches(add_rng, batch_format="pyarrow")
    root = keyed.groupby("rng").sum("n_tokens").to_pandas()
    root.columns = ["rng", "total"]
    root = root.sort_values("rng").reset_index(drop=True)
    offsets = dict(zip(
        root["rng"].to_numpy(),
        np.concatenate([[0], np.cumsum(root["total"].to_numpy())[:-1]]),
    ))
    off_ref = ray.put(offsets)

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        g = g.sort_values(id_col, kind="mergesort")
        n = g["n_tokens"].to_numpy()
        start = offs[int(g["rng"].iloc[0])] + np.cumsum(n) - n
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_tokens": n,
            "seq_bin": (start // window).astype(np.int64),
        })

    return keyed.groupby("rng").map_groups(assign, batch_format="pandas")
