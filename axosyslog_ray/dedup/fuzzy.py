"""Fuzzy dedup purge: MinHash LSH -> true components -> drop non-reps.

The standard LLM-corpus near-dup removal (the MinHash-LSH dedup shape
published for web-corpus pipelines: shingle -> signature -> band-bucket,
then TRANSITIVE clustering, then keep one representative per cluster):

1. `minhash_star_edges` — LSH bucketing exactly as dedup/minhash.py, but
   each (band, band_hash) bucket emits STAR edges (doc, bucket_min)
   instead of a per-doc label. A bucket's clique and its star have the
   same connected components, so the edge count is O(bucket rows), not
   O(rows²) — the clique explosion is what makes naive pair emission
   unusable on hot buckets at scale.
2. `dedup.components.connected_components` — fixpoint hash-min over the
   star edges; cluster id = min doc over the TRANSITIVE closure (chains
   A~B~C collapse even when A and C share no bucket).
3. anti-join purge — docs whose component differs from their own id are
   dropped via the coarse-bucket hash_join (big-big safe; the drop set
   only holds docs that shared a bucket, typically a small fraction of
   the corpus).

Scale shape: two narrow shuffles for the edges (signature explode is
map-only), O(diameter) bounded-shuffle rounds for components over the
edge set only, one join shuffle of (id)-projected corpus keys. The text
column never enters any shuffle except the final join's row payload.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import bucketed_map_groups
from .components import connected_components
from .minhash import BAND_KEY, BandEmitter, MinHasher

_DROP = "_fuzzy_drop"


def minhash_star_edges(ds, num_perm: int = 64, bands: int = 16, shingle: int = 3,
                       text_col: str = "text", id_col: str = "doc_id",
                       num_buckets: int | None = None):
    """Dataset[(id_a, id_b)] star edges of the LSH bucket-sharing graph:
    one edge per distinct (doc, bucket-min) with doc != bucket-min, from
    one coarse-bucket exchange keyed on (band_id, band_hash)."""
    mh = MinHasher(num_perm=num_perm, shingle=shingle, text_col=text_col, id_col=id_col)
    rows = ds.map_batches(mh, batch_format="pyarrow").map_batches(
        BandEmitter(bands=bands, id_col=id_col), batch_format="pyarrow")

    def star(g: pd.DataFrame) -> pd.DataFrame:
        g["_bmin"] = g.groupby(BAND_KEY)[id_col].transform("min")
        e = g.loc[g[id_col] != g["_bmin"], [id_col, "_bmin"]].drop_duplicates()
        return pd.DataFrame({"id_a": e[id_col].astype("int64"),
                             "id_b": e["_bmin"].astype("int64")})

    return bucketed_map_groups(rows, BAND_KEY, star, num_buckets)


def fuzzy_dedup(ds, num_perm: int = 64, bands: int = 16, shingle: int = 3,
                text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int | None = None, max_iters: int = 64):
    """Remove near-duplicate rows: keep exactly one representative (the
    min id over the true transitive cluster) per near-dup cluster, plus
    every row that shares no LSH bucket. Returns a Dataset with the
    input's columns."""
    from ..join import hash_join

    edges = minhash_star_edges(ds, num_perm=num_perm, bands=bands, shingle=shingle,
                               text_col=text_col, id_col=id_col, num_buckets=num_buckets)
    comp = connected_components(edges, src="id_a", dst="id_b",
                                num_buckets=num_buckets, max_iters=max_iters)
    drops = comp.filter(expr="node != component").map_batches(
        lambda b: pa.table({id_col: b.column("node"),
                            _DROP: pa.array(np.ones(b.num_rows, dtype=np.int8))}),
        batch_format="pyarrow",
    ).materialize()  # one row per dropped duplicate
    n_drops = drops.count()
    if n_drops == 0:
        return ds
    if n_drops <= 5_000_000:
        # bounded drop set: broadcast anti-join — the id array rides the
        # object store once and every batch filters with one is_in; no
        # corpus shuffle at all (same 5M bound as the components
        # driver solve)
        import ray

        drop_ids = pa.concat_tables(
            drops.select_columns([id_col]).iter_batches(batch_size=None,
                                                        batch_format="pyarrow"),
            promote_options="permissive").column(id_col).combine_chunks()
        ref = ray.put(drop_ids)

        def keep(b: pa.Table) -> pa.Table:
            ids = ray.get(ref)
            return b.filter(pc.invert(pc.is_in(b.column(id_col), value_set=ids)))

        return ds.map_batches(keep, batch_format="pyarrow")
    # unbounded duplicate volume (web-scale): co-locating shuffle anti-join
    joined = hash_join(ds, drops, key=id_col, how="left", num_buckets=num_buckets)
    return joined.map_batches(
        lambda b: b.filter(pc.is_null(b.column(_DROP))).drop_columns([_DROP]),
        batch_format="pyarrow",
    )
