"""MinHash + LSH near-duplicate detection.

Pipeline (the standard shingle -> minhash -> band -> bucket-groupby
construction, e.g. Broder 1997 / MMDS ch.3 — public knowledge):

1. per batch (vectorized-ish): word shingles of size `shingle`, each
   hashed once (stable 64-bit), then k permutation mins via the
   (a*h + b) mod p universal-hash trick over the shingle-hash array —
   one numpy matmul-shaped pass per doc, no Python per shingle-perm;
2. signatures split into `bands` bands of `rows_per_band` values; each
   band hashed to one (band_id, band_hash, doc_id) row — the ONLY thing
   shuffled;
3. one coarse-bucket exchange keyed on (band_id, band_hash)
   (`shuffle.bucketed_map_groups`) co-locates each candidate bucket;
   candidate pairs are verified with exact n-gram Jaccard (optional);
4. cluster id = min doc_id over the candidate-pair connected component,
   approximated by one round of min-label propagation (bucket min),
   which is exact when duplicates share at least one band bucket with
   the cluster representative.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashutil import hash_str_array
from ..shuffle import bucketed_map_groups

_MERSENNE = np.uint64((1 << 61) - 1)
BAND_KEY = ["band_id", "band_hash"]


class MinHasher:
    """Stateful per-actor: permutation coefficients built once."""

    def __init__(self, num_perm: int = 64, shingle: int = 3, seed: int = 7,
                 text_col: str = "text", id_col: str = "doc_id"):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm
        self.shingle = shingle
        self.text_col = text_col
        self.id_col = id_col

    def shingles(self, text: str) -> np.ndarray:
        toks = text.split()
        k = self.shingle
        if len(toks) < k:
            grams = [" ".join(toks)] if toks else [""]
        else:
            grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
        return hash_str_array(np.array(grams, dtype=object))

    def signature(self, text: str) -> np.ndarray:
        h = self.shingles(text)
        with np.errstate(over="ignore"):
            # (num_perm, n_shingles) universal hashes, min over shingles
            m = (self.a[:, None] * h[None, :] + self.b[:, None]) % _MERSENNE
        return m.min(axis=1)

    def signatures_batch(self, texts: np.ndarray) -> np.ndarray:
        """Whole-batch signatures: one flat shingle array for ALL docs, one
        hash pass, then per-perm `np.minimum.reduceat` over doc segments —
        no per-doc Python beyond tokenization."""
        if len(texts) == 0:
            return np.empty((0, self.num_perm), np.uint64)
        all_shingles: list[str] = []
        seg_starts = np.empty(len(texts), dtype=np.int64)
        pos = 0
        k = self.shingle
        for d, text in enumerate(texts):
            toks = text.split()
            seg_starts[d] = pos
            if len(toks) < k:
                all_shingles.append(" ".join(toks))
                pos += 1
            else:
                all_shingles.extend(" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1))
                pos += len(toks) - k + 1
        h = hash_str_array(np.array(all_shingles, dtype=object))
        sigs = np.empty((len(texts), self.num_perm), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(self.num_perm):
                vals = (self.a[p] * h + self.b[p]) % _MERSENNE
                sigs[:, p] = np.minimum.reduceat(vals, seg_starts)
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        ids = batch.column(self.id_col).to_numpy()
        sigs = self.signatures_batch(texts)
        return pa.table(
            {
                self.id_col: pa.array(ids),
                "minhash_sig": pa.array(list(sigs.astype(np.uint64).view(np.int64))),
            }
        )


class BandEmitter:
    """signature -> (band_id, band_hash, doc_id) rows (the LSH explode)."""

    def __init__(self, bands: int = 16, id_col: str = "doc_id"):
        self.bands = bands
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        sigs = np.array(batch.column("minhash_sig").to_pylist(), dtype=np.int64)
        n, k = sigs.shape if sigs.size else (0, 0)
        if n == 0:
            return pa.table({self.id_col: pa.array([], type=pa.int64()),
                             "band_id": pa.array([], type=pa.int32()),
                             "band_hash": pa.array([], type=pa.int64())})
        rpb = k // self.bands
        out_id, out_band, out_hash = [], [], []
        for b in range(self.bands):
            seg = sigs[:, b * rpb : (b + 1) * rpb]
            bh = pd.util.hash_array(np.ascontiguousarray(seg).view([("", np.int64)] * rpb).ravel()).view(np.int64)
            out_id.append(ids)
            out_band.append(np.full(n, b, dtype=np.int32))
            out_hash.append(bh)
        return pa.table(
            {
                self.id_col: pa.array(np.concatenate(out_id)),
                "band_id": pa.array(np.concatenate(out_band), type=pa.int32()),
                "band_hash": pa.array(np.concatenate(out_hash), type=pa.int64()),
            }
        )


def cluster_min(labels, id_col: str = "doc_id"):
    """Dataset[(id, bucket_min)] partial labels -> Dataset[(id,
    cluster_id)]: the per-doc min over one coarse-bucket exchange keyed
    on the id. Not Ray's groupby().aggregate — its sort-based exchange
    measured 5x slower (10s vs 2s at sf0.1/32cpus) for this
    bounded-width reduce; one bucket per ~n_docs/64 rows is the right
    granularity and the per-bucket min is one pandas pass."""
    def final_min(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(id_col, as_index=False)["bucket_min"].min()
                 .rename(columns={"bucket_min": "cluster_id"}))

    return bucketed_map_groups(labels, id_col, final_min, num_buckets=64)


def minhash_clusters(ds, num_perm: int = 64, bands: int = 16, shingle: int = 3,
                     text_col: str = "text", id_col: str = "doc_id",
                     num_buckets: int | None = None):
    """Dataset[(doc_id, cluster_id)]: cluster_id is the min doc_id sharing
    any LSH bucket, so rows with cluster_id < doc_id are near-duplicates
    of an earlier doc.

    Band rows meet in one coarse-bucket exchange keyed on (band_id,
    band_hash) — an LSH bucket never splits across buckets, and
    num_buckets (default 8x cluster CPUs) bounds both group size and
    group count; each bucket emits one partial (doc, bucket_min) row per
    doc it holds, reduced by `cluster_min`."""
    mh = MinHasher(num_perm=num_perm, shingle=shingle, text_col=text_col, id_col=id_col)
    pairs = ds.map_batches(mh, batch_format="pyarrow").map_batches(
        BandEmitter(bands=bands, id_col=id_col), batch_format="pyarrow")

    def bucket_min(g: pd.DataFrame) -> pd.DataFrame:
        g["bucket_min"] = g.groupby(BAND_KEY)[id_col].transform("min")
        return g.groupby(id_col, as_index=False)["bucket_min"].min()

    return cluster_min(bucketed_map_groups(pairs, BAND_KEY, bucket_min, num_buckets),
                       id_col)


def minhash_cross_flags(new_ds, prior_ds, num_perm: int = 64, bands: int = 16,
                        shingle: int = 3, text_col: str = "text",
                        id_col: str = "doc_id", num_buckets: int | None = None,
                        prior_bands=None):
    """Incremental cross-corpus near-dup detection: flag NEW docs that
    share at least one LSH band bucket with ANY prior-corpus doc — the
    "dedup this crawl shard against the 10^12 pages already ingested"
    production shape (dedup/bloom.py is the exact-gram analogue; this is
    the fuzzy one). Returns Dataset[(id, n_hit_buckets, dup_of_prior)]
    with one row per NEW doc (clean docs carry 0/false).

    Both sides stream through the same MinHasher/BandEmitter stages and
    meet in ONE coarse-bucket exchange keyed on (band_id, band_hash) —
    the prior corpus is never broadcast and never joined row-to-row; per
    bucket the prior-presence bit is a two-key transform and each new
    doc emits one partial row per bucket it touches. Pass `prior_bands`
    (a Dataset of (id, band_id, band_hash) rows, e.g. read back from a
    stored band index) to skip re-hashing the prior corpus on every
    incremental run — the index is what a production pipeline persists.

    Detection is the standard LSH gate: P(flag) = 1-(1-J^r)^b for true
    Jaccard J (r = num_perm/bands rows per band) — tune (num_perm,
    bands) for the wanted threshold curve; compose with
    curation.jaccard_decontaminate when exact-threshold semantics are
    required and the prior side is small."""
    mh = MinHasher(num_perm=num_perm, shingle=shingle, text_col=text_col, id_col=id_col)
    be = BandEmitter(bands=bands, id_col=id_col)
    nb = new_ds.map_batches(mh, batch_format="pyarrow").map_batches(be, batch_format="pyarrow")
    if prior_bands is None:
        prior_bands = prior_ds.map_batches(mh, batch_format="pyarrow").map_batches(
            be, batch_format="pyarrow")

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column("_side", pa.array(np.full(b.num_rows, side, dtype=np.int8)))

        return fn

    both = [nb.map_batches(tag(1), batch_format="pyarrow"),
            prior_bands.map_batches(tag(0), batch_format="pyarrow")]

    def bucket_hits(g: pd.DataFrame) -> pd.DataFrame:
        # an LSH bucket has a prior doc iff min(_side) == 0
        prior_in_bucket = g.groupby(BAND_KEY)["_side"].transform("min") == 0
        new_rows = g["_side"] == 1
        return (g.loc[new_rows, [id_col]]
                  .assign(hits=prior_in_bucket[new_rows].astype(np.int64))
                  .groupby(id_col, as_index=False)["hits"].sum())

    partials = bucketed_map_groups(both, BAND_KEY, bucket_hits, num_buckets)

    def final_sum(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(id_col, as_index=False)["hits"].sum()
        out = out.rename(columns={"hits": "n_hit_buckets"})
        out["dup_of_prior"] = out["n_hit_buckets"] > 0
        return out

    return bucketed_map_groups(partials, id_col, final_sum, num_buckets=64)


def jaccard(a: str, b: str, shingle: int = 3) -> float:
    """Exact word-shingle Jaccard (candidate verification)."""
    ta, tb = a.split(), b.split()
    sa = {" ".join(ta[i : i + shingle]) for i in range(max(1, len(ta) - shingle + 1))}
    sb = {" ".join(tb[i : i + shingle]) for i in range(max(1, len(tb) - shingle + 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))
