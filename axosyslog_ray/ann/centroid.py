"""Per-label centroid distances + outlier flagging — the embedding
quality-control step of a curation pipeline (mislabeled / corrupt
vectors sit far from their class centroid; the SemDeDup/SSL-prototype
"distance to cluster center" signal, here against GIVEN labels instead
of learned k-means centers).

Integer-exact construction (the emb_kmeans discipline): coordinates
quantize to micro-units (round_half_away(x * 1e6) — float32 inputs are
exact in float64, rounding matches SQL round()), centroids are the
half-away-rounded rational mean (2|S| + n) // (2n) computed in integer
arithmetic, and the reported distance is the integer squared distance
to that rounded centroid — every value byte-reproducible by the DuckDB
oracle (emb_centroid_outliers), no float summation-order drift.

Scale shape: pass 1 is a map-only per-batch partial (label, per-dim
int sums, count) reduced on the driver — labels are bounded (class
labels), so driver state is labels x dims ints, the kmeans precedent.
Pass 2 is map-only distance against the broadcast centroid matrix.
The outlier threshold is a per-label DISCRETE quantile of the integer
distances (window.group_quantile_disc — one narrow (label, d2)
shuffle). Vectors never shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashutil import half_away


def _micro(mat: np.ndarray) -> np.ndarray:
    return half_away(mat.astype(np.float64) * 1_000_000.0).astype(np.int64)


def label_centroids(ds, emb_col: str = "embedding", label_col: str = "label"):
    """dict label -> int64 centroid vector (micro-units, half-away
    rounded rational mean). Bounded driver state: labels x dims."""
    def partial(b: pa.Table) -> pa.Table:
        if not len(b):
            return pa.table({label_col: pa.array([], type=b.column(label_col).type),
                             "s": pa.array([], type=pa.list_(pa.int64())),
                             "n": pa.array([], type=pa.int64())})
        import pandas as pd

        mat = _micro(np.stack(b.column(emb_col).to_pandas().to_numpy()))
        labels = b.column(label_col).to_pandas().to_numpy()
        codes, uniq = pd.factorize(labels)
        sums = np.zeros((len(uniq), mat.shape[1]), dtype=np.int64)
        np.add.at(sums, codes, mat)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({label_col: pa.array(list(uniq)),
                         "s": pa.array(list(sums), type=pa.list_(pa.int64())),
                         "n": pa.array(cnt, type=pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out: dict = {}
    for lab, g in parts.groupby(label_col, sort=False):
        s = np.sum(np.stack(g["s"].to_numpy()), axis=0, dtype=np.int64)
        n = int(g["n"].sum())
        mu = np.sign(s) * ((2 * np.abs(s) + n) // (2 * n))
        out[lab] = mu.astype(np.int64)
    return out


def centroid_outliers(ds, emb_col: str = "embedding",
                      label_col: str = "label", id_col: str = "vec_id",
                      q: float = 0.95):
    """(id, label, d2_micro2, is_outlier): integer squared distance to
    the own-label centroid; outlier iff d2 > per-label quantile_disc(q)."""
    import ray

    from ..window import group_quantile_disc

    cents = label_centroids(ds, emb_col=emb_col, label_col=label_col)
    ref = ray.put(cents)

    def dist(b: pa.Table) -> pa.Table:
        import pandas as pd

        c = ray.get(ref)
        if not len(b):
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             label_col: pa.array([], type=b.column(label_col).type),
                             "d2_micro2": pa.array([], type=pa.int64())})
        mat = _micro(np.stack(b.column(emb_col).to_pandas().to_numpy()))
        labels = b.column(label_col).to_pandas().to_numpy()
        codes, uniq = pd.factorize(labels)
        mus = np.stack([c[u] for u in uniq])[codes]
        diff = mat - mus
        d2 = np.einsum("ij,ij->i", diff, diff).astype(np.int64)
        return pa.table({id_col: b.column(id_col),
                         label_col: b.column(label_col),
                         "d2_micro2": pa.array(d2)})

    scored = ds.map_batches(dist, batch_format="pyarrow").materialize()
    thr = group_quantile_disc(scored, label_col, "d2_micro2",
                              {"q": q}).to_pandas()
    cut = {r[label_col]: int(r["q"]) for _, r in thr.iterrows()}
    cut_ref = ray.put(cut)

    def flag(b: pa.Table) -> pa.Table:
        import pandas as pd

        c = ray.get(cut_ref)
        labels = b.column(label_col).to_pandas().to_numpy()
        codes, uniq = pd.factorize(labels)
        cuts = np.array([c[u] for u in uniq], dtype=np.int64)[codes] \
            if len(uniq) else np.empty(0, dtype=np.int64)
        d2 = b.column("d2_micro2").to_numpy(zero_copy_only=False)
        return b.append_column("is_outlier", pa.array(d2 > cuts))

    return scored.map_batches(flag, batch_format="pyarrow")
