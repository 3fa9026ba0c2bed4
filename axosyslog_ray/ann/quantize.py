"""Scalar int8 embedding quantization — the storage/serving compression
step of an embedding pipeline (4x smaller than float32; the standard
symmetric per-vector scheme every vector store ships).

Per vector v: scale = max(|v_i|); q_i = round_half_away(v_i * 127 /
scale) (zero vector -> all-zero codes). |q_i| <= 127 by construction
(no clipping branch needed). Rounding is half-AWAY-from-zero — SQL
round() semantics, NOT numpy banker's rounding — so the DuckDB oracle
(emb_int8_quantize) reproduces every code exactly; all comparisons on
the summary side are integer-exact, and `scale` is a max of exactly
representable float32 magnitudes (bit-equal across engines).

Scale shape: pure map-only — np.stack the fixed-dim list column to one
matrix per batch, three vectorized kernels, no shuffle, no driver
state. Emits the quantized list<int8> codes plus per-vector summary
stats; pair with ann/pq.py when 4x isn't enough.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashutil import half_away


def int8_quantize_batch(batch: pa.Table, emb_col: str = "embedding",
                        id_col: str = "vec_id",
                        codes: bool = True) -> pa.Table:
    """One-batch symmetric int8 quantization. Returns (id, scale, qsum,
    qmin, qmax[, q list<int8>])."""
    mat = np.stack(batch.column(emb_col).to_pandas().to_numpy()) \
        .astype(np.float64) if len(batch) else np.empty((0, 0))
    scale = np.abs(mat).max(axis=1) if mat.size else np.zeros(len(batch))
    safe = np.where(scale == 0.0, 1.0, scale)
    q = half_away(mat * 127.0 / safe[:, None]).astype(np.int64) \
        if mat.size else np.zeros((len(batch), 0), dtype=np.int64)
    cols = {
        id_col: batch.column(id_col),
        "scale": pa.array(scale, type=pa.float64()),
        "qsum": pa.array(q.sum(axis=1) if q.size else
                         np.zeros(len(batch), dtype=np.int64),
                         type=pa.int64()),
        "qmin": pa.array(q.min(axis=1) if q.size else
                         np.zeros(len(batch), dtype=np.int64),
                         type=pa.int64()),
        "qmax": pa.array(q.max(axis=1) if q.size else
                         np.zeros(len(batch), dtype=np.int64),
                         type=pa.int64()),
    }
    if codes:
        cols["q"] = pa.array(list(q.astype(np.int8)),
                             type=pa.list_(pa.int8()))
    return pa.table(cols)


def int8_quantize(ds, emb_col: str = "embedding", id_col: str = "vec_id",
                  codes: bool = True):
    """Dataset-level symmetric int8 quantization: one map-only stage."""
    return ds.map_batches(
        lambda b: int8_quantize_batch(b, emb_col=emb_col, id_col=id_col,
                                      codes=codes),
        batch_format="pyarrow")


def int8_reconstruct_batch(batch: pa.Table, q_col: str = "q",
                           scale_col: str = "scale") -> np.ndarray:
    """Decode a quantized batch back to float vectors (q * scale / 127)
    — the serving-side kernel; exact inverse of the code grid."""
    q = np.stack(batch.column(q_col).to_pandas().to_numpy()) \
        .astype(np.float64) if len(batch) else np.empty((0, 0))
    scale = batch.column(scale_col).to_numpy(zero_copy_only=False)
    return q * (np.asarray(scale, dtype=np.float64)[:, None] / 127.0)
