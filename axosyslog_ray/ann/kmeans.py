"""Distributed k-means over an embedding column, and SemDeDup-style
semantic deduplication built on it.

k-means is the workhorse of embedding-space curation (SemDeDup pruning,
IVF coarse quantizers, topic balancing). The implementation is Lloyd's
algorithm expressed Ray-Data-first:

- **assignment + partial sums** run inside ONE pass per iteration: each
  block assigns its rows to the nearest centroid (one integer matmul)
  and accumulates a k x (d+1) partial-sum matrix — a combiner, never
  the vectors;
- **the reduce** is an `aggregate.tree_reduce` add-combine over those
  matrices (`Dataset.aggregate`) — k*(d+1) ints per block, merged
  pairwise, NO all-to-all shuffle per iteration; driver-bounded by
  construction (k and d are model constants, not data sizes);
- centroids are tiny (k*d int64) and ship inside the stage closure.

Determinism (what makes the generated-SQL oracle possible): vectors are
QUANTIZED to integer micro-units (round(x * 2^20) as int64) and the
centroids are RE-QUANTIZED to integers after every Lloyd update
(round-half-up of qsum/cnt, computed in arbitrary-precision Python int
arithmetic on the driver). With integer vectors AND integer centroids,
every squared distance is exact int64 arithmetic — no float rounding,
so assignments are identical no matter how Ray batches the rows (a
float matmul's summation order varies with batch shape — that was a
real divergence) and identical to the SQL oracle's arithmetic, whose
distances are integer-valued doubles below 2^53 (|x|,|c| < 2^21, d=64
→ d2 < 2^48; the oracle's centroid floor((2s+cnt)/(2cnt)) is exact in
double while per-cluster counts stay < 2^29 — always true at oracle
scale; the Python side has no such bound). argmin ties break to the
lowest cluster index on both sides.

Init: the k vectors with id < k (an expression-pushdown filter — a
bounded read, no sort over the corpus). Empty clusters keep their
previous centroid, both here and in the generated SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..aggregate import reduce_array
from .scan import _to_matrix

QUANT = 1 << 20


def _quantized(col) -> np.ndarray:
    # floor(x*Q + 0.5): tie-unambiguous half-up on BOTH engines (np.round
    # is half-to-even, DuckDB round() half-away — x*2^20 hits exact .5
    # ties often because float32 inputs scale exactly by powers of two)
    return np.floor(_to_matrix(col) * QUANT + 0.5).astype(np.int64)


def _assign_ids(Xq: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per row. Both operands are int64, so the
    expansion ||x||^2 - 2x.c + ||c||^2 is EXACT integer arithmetic —
    batch-shape-independent and oracle-reproducible. Ties -> lowest
    cluster (np.argmin picks the first minimum)."""
    d2 = (
        (Xq * Xq).sum(axis=1)[:, None]
        - 2 * (Xq @ cents.T)
        + (cents * cents).sum(axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def _cluster_sums(ds, cents: np.ndarray, vec_col: str) -> np.ndarray:
    """Assign + accumulate per-cluster (cnt | dim sums) as ONE k x (d+1)
    int64 matrix: a per-block fold + add tree reduce
    (aggregate.reduce_array) — NO all-to-all shuffle per Lloyd iteration
    (the previous groupby(cluster, dim).sum paid a full sort-shuffle's
    fixed cost to reduce k*(d+1) rows)."""
    k, d = cents.shape

    def fold(t: pa.Table, acc: np.ndarray) -> None:
        Xq = _quantized(t.column(vec_col))
        lab = _assign_ids(Xq, cents)
        np.add.at(acc[:, 1:], lab, Xq)
        acc[:, 0] = np.bincount(lab, minlength=k)

    return reduce_array(ds, fold, np.add, np.zeros((k, d + 1), dtype=np.int64))


def _recompute(cents: np.ndarray, sums: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Integer round-half-up centroid update, floor((2s+c)/(2c)) in
    arbitrary-precision Python ints (k*d scalars on the driver — no
    overflow at any corpus size). Empty clusters keep their centroid."""
    k, d = cents.shape
    new = cents.copy()
    for j in range(k):
        c = int(cnt[j])
        if c > 0:
            for t in range(d):
                new[j, t] = (2 * int(sums[j, t]) + c) // (2 * c)
    return new


def _lloyd_centroids(ds, k: int, iters: int, vec_col: str, id_col: str) -> np.ndarray:
    """Run `iters` Lloyd iterations; return final int64 centroids.

    Each iteration streams the corpus once (assignment+combiner) and
    reduces k*(d+1) rows. The input Dataset is re-executed per iteration
    — the streaming-friendly trade against materializing the corpus."""
    seed = (ds.filter(expr=f"{id_col} < {k}")
            .select_columns([id_col, vec_col]).to_pandas().sort_values(id_col))
    if len(seed) < k:
        raise ValueError(f"init needs {k} rows with {id_col} < {k}, got {len(seed)}")
    cents = np.floor(_to_matrix(seed[vec_col]) * QUANT + 0.5).astype(np.int64)

    for _ in range(iters):
        acc = _cluster_sums(ds, cents, vec_col)
        cents = _recompute(cents, acc[:, 1:], acc[:, 0])
    return cents


def kmeans_labels(ds, k: int = 4, iters: int = 3, vec_col: str = "embedding",
                  id_col: str = "vec_id"):
    """Run `iters` Lloyd iterations; return (labels Dataset of
    (id_col, cluster), final int64 centroids in quantized units)."""
    cents = _lloyd_centroids(ds, k, iters, vec_col, id_col)

    def label(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "cluster": pa.array([], type=pa.int64())})
        lab = _assign_ids(_quantized(batch.column(vec_col)), cents)
        return pa.table({id_col: batch.column(id_col),
                         "cluster": pa.array(lab.astype(np.int64))})

    return ds.map_batches(label, batch_format="pyarrow"), cents


def kmeans_sql(k: int, iters: int, table: str = "embeddings",
               vec: str = "embedding", id_col: str = "vec_id") -> str:
    """Generated-SQL oracle for kmeans_labels: the same quantized-integer
    Lloyd iterations as chained CTEs (one assign + recompute block per
    iteration; all distances are integer-valued doubles, exact below
    2^53, so DuckDB reproduces numpy's int64 arithmetic bit-for-bit)."""
    ctes = [
        f"q AS (SELECT {id_col}, list_transform(CAST({vec} AS DOUBLE[]), "
        f"x -> CAST(floor(x * {float(QUANT)} + 0.5) AS BIGINT)) AS qv FROM {table})",
        f"c0 AS (SELECT row_number() OVER (ORDER BY {id_col}) - 1 AS cl, "
        f"list_transform(qv, y -> CAST(y AS DOUBLE)) AS cv "
        f"FROM q WHERE {id_col} < {k})",
    ]
    for i in range(1, iters + 1):
        ctes.append(
            f"a{i} AS (SELECT {id_col}, qv, cl FROM ("
            f"SELECT q.{id_col}, q.qv, c.cl, row_number() OVER ("
            f"PARTITION BY q.{id_col} ORDER BY "
            f"list_distance(list_transform(q.qv, y -> CAST(y AS DOUBLE)), c.cv), c.cl"
            f") AS rn FROM q CROSS JOIN c{i - 1} c) WHERE rn = 1)")
        ctes.append(
            f"s{i} AS (SELECT cl, dim, SUM(v) AS s, COUNT(*) AS cnt FROM ("
            f"SELECT cl, unnest(qv) AS v, generate_subscripts(qv, 1) AS dim "
            f"FROM a{i}) GROUP BY cl, dim)")
        ctes.append(
            f"c{i} AS (SELECT p.cl, CASE WHEN n.cl IS NULL THEN p.cv ELSE n.cv "
            f"END AS cv FROM c{i - 1} p LEFT JOIN ("
            f"SELECT cl, list(floor((2 * CAST(s AS DOUBLE) + cnt) / "
            f"(2 * CAST(cnt AS DOUBLE))) ORDER BY dim) AS cv "
            f"FROM s{i} GROUP BY cl) n ON p.cl = n.cl)")
    # afin: labels under the FINAL centroids c{iters} (the Python side
    # labels after the last update, not with the last iteration's cents)
    ctes.append(
        f"afin AS (SELECT {id_col}, cl FROM ("
        f"SELECT q.{id_col}, c.cl, row_number() OVER ("
        f"PARTITION BY q.{id_col} ORDER BY "
        f"list_distance(list_transform(q.qv, y -> CAST(y AS DOUBLE)), c.cv), c.cl"
        f") AS rn FROM q CROSS JOIN c{iters} c) WHERE rn = 1)")
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT {id_col}, CAST(cl AS BIGINT) AS cluster FROM afin "
        + f"ORDER BY {id_col}"
    )


def cluster_balanced_sample(ds, k: int = 4, iters: int = 3, cap: int = 50,
                            vec_col: str = "embedding", id_col: str = "vec_id",
                            method: str = "fast"):
    """Diversity-preserving selection: cap every k-means cluster at `cap`
    items, chosen by a deterministic per-id hash coordinate — the
    cluster-balanced sampling step of semantic-diversity curation
    (cluster, then take a bounded quota per cluster so dense regions
    can't dominate the training mix). Returns (id, cluster, rk).

    Scale shape: the kmeans passes + ONE top-k combiner shuffle over
    (id, cluster, coordinate) triples — the embedding column never
    re-shuffles. method="md5" ranks by md5(id) (DuckDB-reproducible,
    the emb_cluster_sample oracle); method="fast" uses the splitmix64
    coordinate (same statistics, no per-row Python)."""
    import pyarrow as pa

    from ..window import topk_per_group

    labels, _ = kmeans_labels(ds, k=k, iters=iters, vec_col=vec_col,
                              id_col=id_col)
    if method == "md5":
        import hashlib

        def coord(b: pa.Table) -> pa.Table:
            ids = b.column(id_col).to_pylist()
            return b.append_column("_coord", pa.array(
                [hashlib.md5(str(i).encode()).hexdigest() for i in ids],
                type=pa.string()))
    elif method == "fast":
        def coord(b: pa.Table) -> pa.Table:
            from ..curation import fast_sample_u64

            ids = b.column(id_col).to_numpy(zero_copy_only=False)
            return b.append_column("_coord", pa.array(
                fast_sample_u64(ids).view(np.int64)))
    else:
        raise ValueError("method must be 'fast' or 'md5'")
    sel = topk_per_group(labels.map_batches(coord, batch_format="pyarrow"),
                         "cluster", "_coord", k=cap, descending=False,
                         tie_cols=id_col, rank_col="rk")
    return sel.map_batches(lambda b: b.drop_columns(["_coord"]),
                           batch_format="pyarrow")


def cluster_balanced_sql(k: int, iters: int, cap: int,
                         table: str = "embeddings", vec: str = "embedding",
                         id_col: str = "vec_id") -> str:
    """Oracle for cluster_balanced_sample(method='md5'): the kmeans CTE
    chain + per-cluster md5-ranked quota."""
    base = kmeans_sql(k, iters, table, vec, id_col)
    head = base[: base.rindex("\nSELECT ")]
    return (
        head
        + f"\nSELECT {id_col}, cluster, rk FROM ("
        + f"SELECT {id_col}, CAST(cl AS BIGINT) AS cluster, "
        + f"CAST(row_number() OVER (PARTITION BY cl "
        + f"ORDER BY md5(CAST({id_col} AS VARCHAR)), {id_col}) AS BIGINT) AS rk "
        + f"FROM afin) WHERE rk <= {cap} ORDER BY cluster, rk"
    )


def semdedup(ds, k: int = 4, iters: int = 3, threshold: float = 0.95,
             vec_col: str = "embedding", id_col: str = "vec_id",
             num_buckets: int | None = None):
    """SemDeDup-style pruning: cluster with k-means, then within each
    cluster drop every vector that has an EARLIER (smaller id) neighbor
    above the cosine threshold. Declarative drop rule (any earlier
    neighbor, not greedy-kept-only) so the oracle is an EXISTS self-join.

    Returns a Dataset of surviving (id_col, cluster). No join: the final
    centroids (k*d ints) ship in the tagging stage's closure, so the
    cluster id is computed next to the vector; the pairwise pass runs
    per cluster inside ONE coarse-bucket shuffle on the cluster id.
    Cluster sizes bound the quadratic term — at corpus scale, raise k so
    clusters stay block-sized (the same knob SemDeDup itself uses)."""
    from ..shuffle import bucketed_map_groups, key_segments

    cents = _lloyd_centroids(ds, k, iters, vec_col, id_col)

    def tag(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             vec_col: pa.array([], type=pa.list_(pa.float64())),
                             "cluster": pa.array([], type=pa.int64())})
        lab = _assign_ids(_quantized(batch.column(vec_col)), cents)
        return pa.table({id_col: batch.column(id_col),
                         vec_col: batch.column(vec_col),
                         "cluster": pa.array(lab.astype(np.int64))})

    tagged = ds.select_columns([id_col, vec_col]).map_batches(
        tag, batch_format="pyarrow")

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cluster", id_col], kind="mergesort")
        first = key_segments(g, ["cluster"])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(g))
        keep = np.ones(len(g), dtype=bool)
        M = np.asarray([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        for s, e in zip(starts, ends):
            X = M[s:e]
            norms = np.linalg.norm(X, axis=1)
            norms[norms == 0] = 1.0
            N = X / norms[:, None]
            S = N @ N.T
            dup = (np.tril(S, -1) > threshold).any(axis=1)
            keep[s:e] = ~dup
        return g.loc[keep, [id_col, "cluster"]]

    return bucketed_map_groups(tagged, "cluster", prune, num_buckets=num_buckets)


def semdedup_sql(k: int, iters: int, threshold: float, table: str = "embeddings",
                 vec: str = "embedding", id_col: str = "vec_id") -> str:
    """Oracle for semdedup: the kmeans CTE chain + an EXISTS self-join."""
    base = kmeans_sql(k, iters, table=table, vec=vec, id_col=id_col)
    head, _, _ = base.rpartition("\nSELECT ")
    return (
        head
        + f",\nsel AS (SELECT a.{id_col}, a.cl, e.{vec} FROM afin a "
        + f"JOIN {table} e USING ({id_col}))\n"
        + f"SELECT s.{id_col}, CAST(s.cl AS BIGINT) AS cluster FROM sel s "
        + f"WHERE NOT EXISTS (SELECT 1 FROM sel t WHERE t.cl = s.cl "
        + f"AND t.{id_col} < s.{id_col} AND list_cosine_similarity("
        + f"CAST(t.{vec} AS DOUBLE[]), CAST(s.{vec} AS DOUBLE[])) > {threshold}) "
        + f"ORDER BY s.{id_col}"
    )
