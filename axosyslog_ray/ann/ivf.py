"""IVF (inverted-file) ANN: k-means coarse quantizer + probed cell scan.

The standard IVF construction (public — e.g. the FAISS IndexIVFFlat
design, Jégou et al. 2011): train `nlist` centroids on a sample, assign
every vector to its nearest centroid (the inverted lists), and answer a
query by scanning only the `nprobe` nearest cells, rescoring exactly
inside them.

Ray shape:
- TRAIN: a bounded `ds.limit(sample)` batch trains the quantizer with a
  few Lloyd iterations on the DRIVER (centroids are tiny: nlist x dim);
- ASSIGN + SCAN: one pass of the shared candidate scan (ann/scan.py) —
  each batch computes its rows' nearest centroids (one matmul vs the
  broadcast centroid matrix), rescores exactly only the rows landing in
  a probed cell, and keeps its k best per query by (sim desc, id asc).
  The corpus is never shuffled and never replicated; only the tiny
  (query_id, id, sim) candidate rows leave the stage.
At 100 TB the train sample stays bounded, centroids broadcast once per
actor, and the scan is embarrassingly parallel. For a materialized
reusable index, write the assignment as a cell-partitioned Parquet
layout (same pattern as the flagship's route fan-out).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .scan import TopKScan, _norm, empty_topk, read_sample, rescore, scan_topk


def train_centroids(sample: np.ndarray, nlist: int, iters: int = 10, seed: int = 17) -> np.ndarray:
    """Spherical k-means (cosine) via Lloyd iterations on a sample.
    Deterministic given the seed; empty cells re-seeded from the sample."""
    rng = np.random.RandomState(seed)
    m = _norm(np.asarray(sample, dtype=np.float64))
    n = len(m)
    cents = m[rng.choice(n, size=min(nlist, n), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        for c in range(len(cents)):
            members = m[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
            else:  # dead cell: re-seed on a random sample row
                cents[c] = m[rng.randint(n)]
        cents = _norm(cents)
    return cents


class IvfScanner(TopKScan):
    """Fused assign+scan: each batch row is assigned to its nearest
    centroid; rows in a probed cell are rescored against the queries
    probing that cell."""

    def __init__(self, queries: np.ndarray, centroids: np.ndarray, nprobe: int,
                 k: int, vec_col: str, id_col: str):
        super().__init__(queries, k, vec_col, id_col)
        self.cents = np.asarray(centroids, dtype=np.float64)
        # (nq, nprobe) cells each query probes
        self.q_cells = np.argsort(-(self.qm @ self.cents.T), axis=1)[:, :nprobe]

    def score(self, m: np.ndarray):
        cell = np.argmax(m @ self.cents.T, axis=1)  # (n,)
        # hit[q, row] = row's cell among query q's probed cells
        hit = (cell[None, None, :] == self.q_cells[:, :, None]).any(axis=1)
        return rescore(self.qm, m, hit)


def ivf_ann_topk(ds, queries: np.ndarray, k: int = 10, nlist: int = 16, nprobe: int = 4,
                 train_sample: int = 4096, vec_col: str = "embedding",
                 id_col: str = "vec_id", seed: int = 17) -> pd.DataFrame:
    """Approximate top-k: driver-side bounded-sample training, one
    streamed assign+scan pass, tiny candidate merge."""
    sample = read_sample(ds, train_sample, vec_col)
    if not len(sample):  # empty corpus
        return empty_topk(id_col)
    cents = train_centroids(sample, nlist=nlist, seed=seed)
    return scan_topk(ds, IvfScanner(queries, cents, nprobe, k, vec_col, id_col))
