"""Product-quantization ANN: compressed codes + asymmetric distances.

The classic PQ construction (Jégou, Douze, Schmid, "Product
Quantization for Nearest Neighbor Search", IEEE TPAMI 2011 — public):
split each L2-normalized vector into `m` subspaces, k-means each
subspace into `k` centroids (one uint8 code per subspace at k<=256),
and score queries against codes with per-query ADC lookup tables —
an m-byte code replaces a 4*d-byte vector, the memory/IO shape that
makes a 100-TB embedding corpus scannable.

Ray shape, like ann/brute and ann/ivf: codebooks train on a BOUNDED
driver-side sample, the scan is ONE pass of the shared candidate scan
(ann/scan.py) holding only the codebooks + queries (per-batch work:
encode + table gather, all numpy, keeping the k best per query by
(sim desc, id asc)), and the driver merges the tiny per-batch candidate
tables.
For cosine similarity the vectors are normalized so L2^2 = 2 - 2*cos
and PQ's L2 machinery ranks identically; reported sim = 1 - d2/2.

Oracle: committed golden parquet for the seeded query
(emb_pq_ann, scripts/gen_golden_oracles.py — disclosed regression pin)
plus behavioral tests: recall floor vs brute force, and EXACT
equality when every distinct sub-vector is a codeword (PQ distances
then equal true distances).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .scan import TopKScan, _norm, dense, empty_topk, read_sample, scan_topk


def train_pq(sample: np.ndarray, m: int = 8, k: int = 256, iters: int = 10,
             seed: int = 23) -> np.ndarray:
    """Codebooks (m, k, d//m) from k-means per subspace over a sample of
    L2-NORMALIZED vectors. Deterministic given the seed."""
    x = _norm(np.asarray(sample, dtype=np.float64))
    n, d = x.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.RandomState(seed)
    k_eff = min(k, n)
    books = np.empty((m, k_eff, sub), dtype=np.float64)
    for j in range(m):
        xs = x[:, j * sub:(j + 1) * sub]
        cents = xs[rng.choice(n, size=k_eff, replace=False)].copy()
        for _ in range(iters):
            # L2 assignment: argmin ||xs - c||^2 = argmax (xs.c - |c|^2/2)
            scores = xs @ cents.T - 0.5 * (cents * cents).sum(axis=1)
            assign = np.argmax(scores, axis=1)
            for c in range(k_eff):
                members = xs[assign == c]
                if len(members):
                    cents[c] = members.mean(axis=0)
                else:
                    cents[c] = xs[rng.randint(n)]
        books[j] = cents
    return books


def encode_pq(vecs: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8/uint16 codes for L2-normalized vectors."""
    n = len(vecs)
    m, k, sub = books.shape
    codes = np.empty((n, m), dtype=np.uint16 if k > 256 else np.uint8)
    for j in range(m):
        xs = vecs[:, j * sub:(j + 1) * sub]
        scores = xs @ books[j].T - 0.5 * (books[j] * books[j]).sum(axis=1)
        codes[:, j] = np.argmax(scores, axis=1)
    return codes


class PqScanner(TopKScan):
    """Streamed ADC scan: encode the batch once, score every query via
    its (m, k) distance table — one fancy-gather + row-sum."""

    def __init__(self, queries: np.ndarray, books: np.ndarray, k: int,
                 vec_col: str = "embedding", id_col: str = "vec_id"):
        super().__init__(queries, k, vec_col, id_col)
        self.books = books
        m, n_codes, sub = books.shape
        # per-query ADC tables: squared L2 from query sub-vector to each
        # codeword, built ONCE per scanner
        self.tables = np.empty((len(self.qm), m, n_codes), dtype=np.float64)
        for j in range(m):
            qs = self.qm[:, j * sub:(j + 1) * sub]
            diff = qs[:, None, :] - books[j][None, :, :]
            self.tables[:, j, :] = (diff * diff).sum(axis=2)
        self._m_idx = np.arange(m)

    def score(self, m: np.ndarray):
        codes = encode_pq(m, self.books)
        d2 = self.tables[:, self._m_idx, codes].sum(axis=2)  # (nq, n)
        return dense(1.0 - d2 / 2.0)  # L2^2 on unit vectors -> cos


def pq_ann_topk(ds, queries: np.ndarray, k: int = 10, m: int = 8, n_codes: int = 256,
                train_sample: int = 4096, vec_col: str = "embedding",
                id_col: str = "vec_id", seed: int = 23) -> pd.DataFrame:
    """Approximate top-k via PQ codes: bounded driver-side training, one
    streamed encode+scan pass, tiny candidate merge. Ties broken by
    (sim desc, id asc) like ann_topk."""
    sample = read_sample(ds, train_sample, vec_col)
    if not len(sample):  # empty corpus
        return empty_topk(id_col)
    books = train_pq(sample, m=m, k=n_codes, seed=seed)
    return scan_topk(ds, PqScanner(queries, books, k, vec_col, id_col))
