"""SimHash near-dup fingerprints + banded hamming grouping.

Charikar's simhash (public construction): each token hashed to 64 bits;
the fingerprint's bit i is 1 iff the sum of (+1/-1) over token-bit i is
positive. Near-dups have small hamming distance; candidate retrieval
bands the 64 bits into `bands` chunks — two docs within
hamming < bands differ in at most bands-1 chunks, so they must share at
least one chunk value (the standard pigeonhole banding).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashutil import hash_str_array
from ..shuffle import bucketed_map_groups
from .minhash import cluster_min

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def simhash_text(text: str) -> int:
    toks = text.split()
    if not toks:
        return 0
    h = hash_str_array(np.array(toks, dtype=object))
    bits = (h[:, None] & _BITS[None, :]) != 0  # (n_tokens, 64)
    votes = bits.sum(axis=0) * 2 - len(toks)
    fp = np.bitwise_or.reduce(_BITS[votes > 0]) if (votes > 0).any() else np.uint64(0)
    return int(np.array([fp], dtype=np.uint64).view(np.int64)[0])  # signed view for Arrow int64


class SimHasher:
    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        fps = self.fingerprints_batch(texts)
        return pa.table({self.id_col: batch.column(self.id_col), "simhash": pa.array(fps)})

    @staticmethod
    def fingerprints_batch(texts: np.ndarray) -> np.ndarray:
        """Whole-batch fingerprints: one flat token-hash array, per-doc bit
        votes via `np.add.reduceat` — no per-doc hashing calls."""
        n = len(texts)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        all_toks: list[str] = []
        seg_starts = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        pos = 0
        for d, text in enumerate(texts):
            toks = text.split()
            seg_starts[d] = pos
            counts[d] = len(toks)
            all_toks.extend(toks)
            pos += len(toks)
        fps = np.zeros(n, dtype=np.uint64)
        nonempty = counts > 0
        if pos:
            h = hash_str_array(np.array(all_toks, dtype=object))
            # per-bit popcount segments without materializing (tokens, 64):
            # 64 shift-mask passes + reduceat, ~64x less memory traffic
            idx = np.minimum(seg_starts, pos - 1)
            votes = np.empty((n, 64), dtype=np.int64)
            for b in range(64):
                votes[:, b] = np.add.reduceat(((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64), idx)
            votes = votes * 2 - counts[:, None]
            fps_ne = np.zeros(n, dtype=np.uint64)
            pos_mask = votes > 0
            for b in range(64):
                fps_ne |= np.where(pos_mask[:, b], _BITS[b], np.uint64(0))
            fps = np.where(nonempty, fps_ne, np.uint64(0))
        return fps.view(np.int64)


def hamming(a: int, b: int) -> int:
    return bin((a & 0xFFFFFFFFFFFFFFFF) ^ (b & 0xFFFFFFFFFFFFFFFF)).count("1")


def simhash_bands(batch: pa.Table, bands: int = 4, id_col: str = "doc_id") -> pa.Table:
    """Fingerprint -> (band_id, band_val, id) candidate rows."""
    ids = batch.column(id_col).to_numpy()
    fp = batch.column("simhash").to_numpy().view(np.uint64)
    width = 64 // bands
    out_id, out_band, out_val = [], [], []
    for b in range(bands):
        seg = ((fp >> np.uint64(b * width)) & np.uint64((1 << width) - 1)).astype(np.int64)
        out_id.append(ids)
        out_band.append(np.full(len(ids), b, dtype=np.int32))
        out_val.append(seg)
    return pa.table(
        {
            id_col: pa.array(np.concatenate(out_id) if out_id else []),
            "band_id": pa.array(np.concatenate(out_band), type=pa.int32()),
            "band_val": pa.array(np.concatenate(out_val), type=pa.int64()),
        }
    )


def simhash_candidates(ds, bands: int = 4, max_hamming: int = 3,
                       text_col: str = "text", id_col: str = "doc_id",
                       num_buckets: int | None = None):
    """Dataset[(doc_id, cluster_id)]: min doc sharing a band AND within
    max_hamming (verified exactly per bucket).

    The band rows meet in one coarse-bucket exchange keyed on (band_id,
    band_val) — bounded group size at scale; keying on band_id alone
    would put n_docs rows in each group."""
    fps = ds.map_batches(SimHasher(text_col, id_col), batch_format="pyarrow")

    # vectorized 64-bit popcount (numpy<2 has no bitwise_count)
    _LUT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount64(x: np.ndarray) -> np.ndarray:
        x = x.view(np.uint64)
        c = _LUT[(x & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
        for s in (16, 32, 48):
            c += _LUT[((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.int64)]
        return c

    def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
        # per (band_id, band_val) candidate bucket the rep is the min doc;
        # exact hamming verified vectorized
        g = g.sort_values(["band_id", "band_val", id_col], kind="mergesort").reset_index(drop=True)
        grp = g.groupby(["band_id", "band_val"], sort=False)
        rep_id = grp[id_col].transform("min").to_numpy()
        rep_fp = grp["simhash"].transform("first").to_numpy()
        dist = popcount64(g["simhash"].to_numpy(np.int64) ^ rep_fp.astype(np.int64))
        ok = dist <= max_hamming
        out = g[[id_col]].copy()
        out["bucket_min"] = np.where(ok, rep_id, g[id_col].to_numpy())
        return out

    def emit(b: pa.Table) -> pa.Table:
        t = simhash_bands(b, bands, id_col)
        # fingerprints repeat per band in the same order as the ids
        sims = pa.concat_arrays([b.column("simhash").combine_chunks()] * bands)
        return t.append_column("simhash", sims)

    buckets = fps.map_batches(emit, batch_format="pyarrow")
    labeled = bucketed_map_groups(buckets, ["band_id", "band_val"], bucket_verify, num_buckets)
    return cluster_min(labeled, id_col)
