"""One candidate scan and one merge for every top-k method.

Brute force, LSH, IVF and PQ differ only in how a corpus batch is
scored against the queries. Everything else is this module:

- per batch (`TopKScan.__call__`): read the id column and the
  normalized vector matrix once, call the method's `score`, which
  returns `(query, row, sim)` candidates, and keep the k best per query
  by `(sim desc, id asc)` — the merge's own total order, so a tie at
  the k-th place keeps the smaller id and the answer does not depend on
  where rows sit or how the corpus is cut into batches;
- on the driver (`scan_topk`): concatenate the tiny candidate tables
  and apply the same cut over all of them, numbering the ranks.

An empty batch scores to no candidates and still yields a typed table;
an empty corpus yields an empty `(query_id, rank, <id_col>, sim)` frame.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _to_matrix(col, dim: int | None = None) -> np.ndarray:
    """A vector column as a float64 (rows, dim) matrix. An Arrow list
    column with no null row and one length reads its flat values buffer;
    anything else goes through Python lists."""
    if len(col) == 0:  # empty Ray block: keep 2-D so matmuls don't AxisError
        return np.empty((0, dim or 0), dtype=np.float64)
    if not hasattr(col, "to_pylist"):  # pandas Series of lists/ndarrays
        return np.asarray(list(col), dtype=np.float64)
    t = col.type
    if (pa.types.is_fixed_size_list(t) or pa.types.is_list(t) or pa.types.is_large_list(t)) \
            and col.null_count == 0 and pc.count_distinct(pc.list_value_length(col)).as_py() == 1:
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        return flat.astype(np.float64).reshape(len(col), -1)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _norm(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def dense(sims: np.ndarray):
    """Every (query, row) pair of a (n_queries, n_rows) score matrix."""
    q, row = np.indices(sims.shape).reshape(2, -1)
    return q, row, sims.ravel()


def rescore(qm: np.ndarray, m: np.ndarray, hit: np.ndarray):
    """Exact cosine on the (query, row) pairs a boolean `hit` selects."""
    q, row = np.nonzero(hit)
    return q, row, np.einsum("ij,ij->i", qm[q], m[row])


def best_k(q: np.ndarray, ids: np.ndarray, sim: np.ndarray, k: int):
    """Positions of the k best candidates per query by (sim desc, id asc),
    in (query, rank) order, and their 1-based ranks."""
    order = np.lexsort((ids, -sim, q))
    qs = q[order]
    starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
    rank = np.arange(len(qs)) - np.repeat(starts, np.diff(np.r_[starts, len(qs)]))
    keep = rank < k
    return order[keep], rank[keep] + 1


def read_sample(ds, n: int, vec_col: str) -> np.ndarray:
    """The first `n` vectors of `ds` as a matrix (IVF / PQ training);
    (0, 0) for an empty corpus."""
    batches = list(ds.limit(n).iter_batches(batch_size=n, batch_format="pyarrow"))
    if not batches:
        return np.empty((0, 0), dtype=np.float64)
    return _to_matrix(pa.concat_tables(batches, promote_options="permissive").column(vec_col))


class TopKScan:
    """Per-batch stage: `score` the batch against the normalized queries,
    keep k candidates per query. Subclasses implement `score(m)` over the
    batch's normalized (rows, dim) matrix."""

    def __init__(self, queries: np.ndarray, k: int, vec_col: str, id_col: str):
        self.qm = _norm(np.asarray(queries, dtype=np.float64))
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def score(self, m: np.ndarray):
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        m = _norm(_to_matrix(batch.column(self.vec_col), self.qm.shape[1]))
        q, row, sim = self.score(m)
        keep, _ = best_k(q, ids[row], sim, self.k)
        return pa.table({
            "query_id": pa.array(q[keep]),
            self.id_col: pa.array(ids[row[keep]]),
            "sim": pa.array(sim[keep]),
        })


def empty_topk(id_col: str) -> pd.DataFrame:
    return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                         "rank": pd.Series([], dtype="int64"),
                         id_col: pd.Series([], dtype="int64"),
                         "sim": pd.Series([], dtype="float64")})


def scan_topk(ds, scan: TopKScan) -> pd.DataFrame:
    """Global top-k per query: one streamed `scan` pass, then the driver
    merge of the per-batch candidates -> (query_id, rank, <id_col>, sim)."""
    cands = ds.map_batches(scan, batch_format="pyarrow")
    tables = [t for t in cands.iter_batches(batch_size=None, batch_format="pyarrow") if t.num_rows]
    if not tables:
        return empty_topk(scan.id_col)
    t = pa.concat_tables(tables)
    q = t.column("query_id").to_numpy()
    ids = t.column(scan.id_col).to_numpy()
    sim = t.column("sim").to_numpy()
    keep, rank = best_k(q, ids, sim, scan.k)
    return pd.DataFrame({"query_id": q[keep], "rank": rank,
                         scan.id_col: ids[keep], "sim": sim[keep]})
