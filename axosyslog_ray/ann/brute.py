"""Exact cosine top-k, and exact embedding-cosine near-duplicate pairs.

Top-k scale shape: queries are the SMALL side (shipped once inside the
stage); the corpus streams through the shared candidate scan
(ann/scan.py), each batch scoring every query with one numpy matmul and
keeping its k best by (sim desc, id asc); the driver merges the tiny
(query_id, k) candidate rows, never the embeddings.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .scan import TopKScan, _norm, _to_matrix, dense, scan_topk

# chunks of the near-dup self-join: C(C+1)/2 chunk-pair tasks
_MAX_CHUNKS = 16


class CosineTopK(TopKScan):
    """Dense cosine of every query against every batch row."""

    def __init__(self, queries: np.ndarray, k: int = 10, vec_col: str = "embedding",
                 id_col: str = "vec_id"):
        super().__init__(queries, k, vec_col, id_col)

    def score(self, m: np.ndarray):
        return dense(self.qm @ m.T)  # (n_queries, batch)


def ann_topk(ds, queries: np.ndarray, k: int = 10, vec_col: str = "embedding",
             id_col: str = "vec_id") -> pd.DataFrame:
    """Exact global top-k per query: per-batch candidates -> driver merge of
    the tiny candidate table. Ties broken by (sim desc, id asc)."""
    return scan_topk(ds, CosineTopK(queries, k, vec_col, id_col))


def _pairs_table(lo: np.ndarray, hi: np.ndarray, s: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "id_a": pa.array(lo.astype(np.int64)),
            "id_b": pa.array(hi.astype(np.int64)),
            "sim": pa.array(s.astype(np.float64)),
        }
    )


def near_dup_pairs(ds, threshold: float = 0.95, vec_col: str = "embedding",
                   id_col: str = "vec_id"):
    """Embedding-cosine near-dup: all (id_a < id_b) pairs with cosine >=
    threshold. EXACT (matches the all-pairs SQL oracle).

    Distributed block-pair self-join. The projected (id, vector) corpus
    is materialized into the DISTRIBUTED object store (never the driver
    heap), its blocks grouped into <= 16 chunks, and one Ray task per
    chunk pair (i <= j) computes its pairs — each task holds exactly two
    chunks in memory; results are tiny (id, id, sim) tables. O(n^2)
    similarity compute is intrinsic to exact all-pairs — it is spread
    over C(C+1)/2 tasks; for approximate-but-subquadratic retrieval use
    ann.lsh. Raw Ray tasks are justified here because the Dataset API has
    no self-join (prompt: custom-operator rule (c))."""
    import ray

    proj = ds.select_columns([id_col, vec_col]).materialize()
    refs = [r for bundle in proj.iter_internal_ref_bundles() for r in bundle.block_refs]
    # group blocks into chunks so the task count is C(C+1)/2, not B^2/2
    n_chunks = min(_MAX_CHUNKS, max(1, len(refs)))
    chunks = [refs[i::n_chunks] for i in range(n_chunks)]

    def _chunk_matrix(refs):
        # Dataset blocks may be Arrow tables or pandas frames
        blocks = [pa.Table.from_pandas(b, preserve_index=False) if isinstance(b, pd.DataFrame) else b
                  for b in ray.get(list(refs))]
        t = pa.concat_tables(blocks, promote_options="permissive")
        return _norm(_to_matrix(t.column(vec_col))), t.column(id_col).to_numpy()

    @ray.remote
    def _chunk_pair(refs_a, refs_b, same: bool):
        ma, ida = _chunk_matrix(refs_a)
        if same:
            mb, idb = ma, ida
        else:
            mb, idb = _chunk_matrix(refs_b)
        sims = ma @ mb.T
        rows, cols = np.nonzero(sims >= threshold)
        a, b, s = ida[rows], idb[cols], sims[rows, cols]
        if same:
            keep = a < b
            lo, hi = a[keep], b[keep]
        else:  # each unordered pair appears once per chunk pair; normalize
            keep = a != b
            lo = np.minimum(a[keep], b[keep])
            hi = np.maximum(a[keep], b[keep])
        return _pairs_table(lo, hi, s[keep])

    tasks = []
    for i in range(n_chunks):
        for j in range(i, n_chunks):
            tasks.append(_chunk_pair.remote(chunks[i], chunks[j], i == j))
    import ray.data as rd

    return rd.from_arrow_refs(tasks)
