"""Exact n-gram (word-shingle) Jaccard near-duplicate pairs.

The distributed exact set-similarity join (the classic inverted-index
construction — e.g. Vernica et al., SIGMOD 2010 "Efficient parallel
set-similarity joins using MapReduce" — public knowledge):

1. per batch: DISTINCT word-k-gram hashes per doc (vectorized: one flat
   hash pass + lexsort dedup), exploded to (doc_id, shingle_hash, size)
   rows — `size` is the doc's distinct-shingle count, carried along so
   the final Jaccard needs no second join back to the corpus;
2. shuffle ONCE through the coarse-bucket exchange keyed on the
   shingle hash (`shuffle.bucketed_map_groups`: every row of one
   shingle lands in one bucket — bounded group sizes);
3. within each bucket: self-merge per shingle emits partial
   co-occurrence counts per (id_a < id_b) pair — one vectorized pandas
   merge+groupby;
4. a tiny groupby over the pair rows sums partials; Jaccard =
   |A∩B| / (|A| + |B| - |A∩B|), filter >= threshold.

Only (doc_id, hash, size) rows are shuffled — never text. Exactness
caveat at 100 TB: a shingle occurring in F docs emits O(F^2) partial
pairs; the standard mitigations (prefix filtering / dropping
stop-shingles above a frequency cap) trade exactness for boundedness —
`max_shingle_freq` exposes the cap (None = exact, matching the SQL
oracle). Shingle identity uses stable 64-bit hashes (collision odds are
negligible at any corpus size vs the string-shuffle cost).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashutil import hash_str_array
from ..shuffle import bucketed_map_groups


class ShingleExploder:
    """Batch stage: text -> DISTINCT shingle-hash rows (doc_id, sh, size)."""

    def __init__(self, shingle: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        self.k = shingle
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        ids = batch.column(self.id_col).to_numpy()
        if len(texts) == 0:
            # id column keeps the INPUT's type — hardcoding int64 here
            # would emit a conflicting schema for string-id datasets
            return pa.table({self.id_col: pa.array([], type=batch.schema.field(self.id_col).type),
                             "sh": pa.array([], type=pa.int64()),
                             "size": pa.array([], type=pa.int64())})
        all_shingles: list[str] = []
        doc_idx: list[int] = []
        k = self.k
        for d, text in enumerate(texts):
            toks = text.split()
            n = 1 if len(toks) < k else len(toks) - k + 1
            if len(toks) < k:
                all_shingles.append(" ".join(toks))
            else:
                all_shingles.extend(" ".join(toks[i : i + k]) for i in range(n))
            doc_idx.extend([d] * n)
        h = hash_str_array(np.array(all_shingles, dtype=object)).view(np.int64)
        di = np.asarray(doc_idx, dtype=np.int64)
        # distinct (doc, shingle): lexsort then drop adjacent duplicates
        order = np.lexsort((h, di))
        ds_, hs_ = di[order], h[order]
        keep = np.ones(len(ds_), dtype=bool)
        keep[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
        ds_, hs_ = ds_[keep], hs_[keep]
        sizes = np.bincount(ds_, minlength=len(texts))  # distinct count per doc
        return pa.table({
            self.id_col: pa.array(ids[ds_]),
            "sh": pa.array(hs_),
            "size": pa.array(sizes[ds_].astype(np.int64)),
        })


def ngram_jaccard_pairs(ds, threshold: float = 0.5, shingle: int = 3,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_buckets: int | None = None,
                        max_shingle_freq: int | None = None):
    """Dataset[(id_a, id_b, jaccard)] for all pairs with exact word-shingle
    Jaccard >= threshold. Exact when max_shingle_freq is None."""
    exploded = ds.map_batches(
        ShingleExploder(shingle=shingle, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        freq = g.groupby("sh")["sh"].transform("size")
        # singleton shingles (the long tail) can never form an id_a<id_b
        # pair — drop them BEFORE the self-merge so the merge input is
        # only the shared-shingle rows, not the whole bucket
        keep = freq >= 2
        if max_shingle_freq is not None:
            keep &= freq <= max_shingle_freq
        g = g[keep]
        m = g.merge(g, on="sh", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "size_a": pd.Series([], dtype="int64"),
                                 "size_b": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        out = (m.groupby([f"{id_col}_a", f"{id_col}_b", "size_a", "size_b"])
                .size().rename("n").reset_index())
        return out.rename(columns={f"{id_col}_a": "id_a", f"{id_col}_b": "id_b"})

    partial = bucketed_map_groups(exploded, "sh", pairs_in_bucket, num_buckets)

    # sum intersection partials across buckets per pair, with the SAME
    # coarse-bucket shape (one pandas groupby-sum per bucket) — Ray's
    # native multi-key hash aggregate was measured pathologically slow on
    # ~1M pair rows; the threshold filter pushes into the bucket stage so
    # only surviving pairs leave it
    def sum_and_filter(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby(["id_a", "id_b", "size_a", "size_b"], as_index=False)["n"].sum())
        inter = s["n"].to_numpy(dtype=np.float64)
        denom = s["size_a"].to_numpy(np.float64) + s["size_b"].to_numpy(np.float64) - inter
        jac = inter / denom
        s = s.assign(jaccard=jac)
        return s.loc[jac >= threshold, ["id_a", "id_b", "jaccard"]]

    return bucketed_map_groups(partial, ["id_a", "id_b"], sum_and_filter)
