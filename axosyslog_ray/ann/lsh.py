"""LSH-bucketed ANN: random-hyperplane signatures bucket the corpus so a
query only rescans matching buckets — the scale path when brute force
can't afford a full matmul per query set.

Random hyperplane LSH (Charikar 2002, public): sign bits of
`X @ planes.T` form a b-bit bucket key; cosine-close vectors collide
with high probability. Recall is tuned with `n_tables` independent
plane sets. Exact rescoring happens only on colliding (query, row)
pairs.

Scale shape: the scanner scores inside the shared candidate scan
(ann/scan.py) — the corpus is never replicated x n_tables through an
exchange, and candidate matching is a vectorized key comparison, not a
per-row Python set-membership loop. Each batch keeps its k best
colliding rows per query by (sim desc, id asc); only those tiny
(query_id, id, sim) rows leave the stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .scan import TopKScan, rescore, scan_topk


def _bucket_keys(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes.T) > 0  # (n, n_bits)
    powers = 1 << np.arange(bits.shape[1], dtype=np.int64)
    return bits @ powers


def _make_planes(dim: int, n_bits: int, n_tables: int, seed: int) -> list[np.ndarray]:
    rng = np.random.RandomState(seed)
    return [rng.normal(size=(n_bits, dim)) for _ in range(n_tables)]


class LshScanner(TopKScan):
    """Bucket the batch's rows per table, match against the query keys
    with a vectorized equality, rescore only the colliding pairs. Planes
    and per-table query keys are built once per scanner."""

    def __init__(self, queries: np.ndarray, n_bits: int, n_tables: int, seed: int,
                 k: int, vec_col: str, id_col: str):
        super().__init__(queries, k, vec_col, id_col)
        self.planes = _make_planes(self.qm.shape[1], n_bits, n_tables, seed)
        self.q_keys = [_bucket_keys(self.qm, p) for p in self.planes]  # per table (nq,)

    def score(self, m: np.ndarray):
        hit = np.zeros((len(self.qm), len(m)), dtype=bool)
        for planes, q_keys in zip(self.planes, self.q_keys):
            hit |= _bucket_keys(m, planes)[None, :] == q_keys[:, None]
        return rescore(self.qm, m, hit)


def lsh_ann_topk(ds, queries: np.ndarray, k: int = 10, n_bits: int = 8, n_tables: int = 4,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 seed: int = 11) -> pd.DataFrame:
    """Approximate top-k: one streamed pass; each batch contributes only
    rows colliding with a query bucket. The driver merge sees the small
    candidate table, never embeddings."""
    return scan_topk(ds, LshScanner(queries, n_bits, n_tables, seed, k, vec_col, id_col))
