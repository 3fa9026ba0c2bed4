"""End-to-end training-corpus curation pipeline: the 100-TB workflow.

Composes the engine's operator families into the standard
web-crawl -> training-data flow (the shape of public pipelines like
C4 / Gopher / RefinedWeb / Dolma, built entirely from this repo's
operators):

  1. READ          column-pruned Parquet (url, text, lang per
                   BASELINE.json input_hint; html never leaves storage)
  2. QUALITY       language-ID confirm + Gopher quality gates
                   (textstats) — map-only
  3. LINE DEDUP    C4-style within-doc repeated-line removal — map-only
  4. FUZZY DEDUP   MinHash-LSH cluster representatives
                   (dedup.minhash) — the banded shuffle
  5. DECONTAMINATE drop docs sharing 5-grams with an eval suite
                   (curation.drop_contaminated) — broadcast, map-only
                   in-stream filter (no join back, r4)
  6. DSIR WEIGHT   importance weights toward a target domain
                   (dsir, append=True) — two tree aggregates +
                   map-only in-stream score (no join back, r4)
  7. SELECT        per-source token budget (window.budget_capped_select)
                   — one bucketed shuffle
  8. SPLIT         deterministic disjoint train/val/test
                   (curation.hash_split) — map-only
  9. WRITE         per-split partitioned Parquet via the checkpoint
                   manifest (state.checkpoint) — resumable: a killed
                   run skips finished partitions

Exchange budget for the whole flow: ONE banded dedup shuffle + ONE
budget shuffle; everything else is map-only over broadcast state or a
bounded tree aggregate. That ratio is the point of the engine.

Demonstrated at test scale by tests/test_curate_corpus.py (including
kill/resume on the manifest); each stage's semantics are individually
oracle-checked by its own query (see COVERAGE.md).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# assign_files is re-exported for callers that import it from this module
from ..state.checkpoint import CheckpointManifest, assign_files, run_partitions  # noqa: F401


def curate(docs, eval_ds=None, target_ds=None, *,
           text_col: str = "text", id_col: str = "doc_id",
           source_col: str = "source",
           min_words: int = 10, max_words: int = 200_000,
           budget_tokens: float = 50_000,
           splits: dict[str, float] | None = None,
           dedup: bool = True, dsir_method: str = "fast",
           split_method: str = "fast"):
    """Run the curation flow over a documents Dataset.

    Returns a Dataset with columns (id, source, split, weight_micro,
    n_tokens, text) — the curated, weighted, split corpus. `eval_ds`
    (benchmark suite) gates decontamination; `target_ds` gates DSIR
    weighting; both optional and both must be SMALL (broadcast side).
    All stages stream; nothing corpus-sized touches the driver."""
    from ..curation import dedup_lines_text, hash_split
    from ..dedup.minhash import minhash_clusters
    from ..dsir import dsir_weights
    from ..window import budget_capped_select
    splits = splits or {"train": 0.98, "val": 0.01, "test": 0.01}

    # 2+3: map-only quality gate + line dedup (vectorized per batch)
    def gate_and_clean(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pandas().fillna("")
        cleaned = dedup_lines_text(texts)
        n_tok = cleaned.str.split().str.len().fillna(0).astype(np.int64)
        keep = (n_tok >= min_words) & (n_tok <= max_words)
        out = b.set_column(b.schema.get_field_index(text_col), text_col,
                           pa.array(cleaned, type=pa.string()))
        out = out.append_column("n_tokens", pa.array(n_tok))
        return out.filter(pa.array(keep.to_numpy()))

    ds = docs.map_batches(gate_and_clean, batch_format="pyarrow")

    # Statically track the pipeline schema so the hash_joins never run
    # their batch-peek probe (which PARTIALLY EXECUTES both upstream
    # chains — for the dedup branch that means re-running the whole
    # banded MinHash pipeline just to learn it yields one int column).
    # docs.schema() on a parquet-rooted Dataset is metadata-only.
    try:
        in_sch = docs.schema().base_schema
    except Exception:  # noqa: BLE001 — unknown source type: fall back to probes
        in_sch = None
    cur_sch = in_sch.append(pa.field("n_tokens", pa.int64())) if in_sch is not None else None
    id_type = in_sch.field(id_col).type if in_sch is not None else None

    def _join_sch(right_fields):
        # hash_join output order: key + left value cols + right value cols
        nonlocal cur_sch
        if cur_sch is None:
            return None, None
        rs = pa.schema([pa.field(id_col, id_type)] + right_fields)
        ls = cur_sch
        cur_sch = pa.schema([pa.field(id_col, id_type)]
                            + [f for f in ls if f.name != id_col]
                            + right_fields)
        return ls, rs

    # 4: fuzzy dedup — keep cluster representatives (min doc id)
    if dedup:
        clusters = minhash_clusters(ds, text_col=text_col, id_col=id_col)

        def reps(g: pd.DataFrame) -> pd.DataFrame:
            return g[g[id_col] == g["cluster_id"]][[id_col]]

        from ..shuffle import bucketed_map_groups

        keep_ids = bucketed_map_groups(clusters, id_col, reps)
        # semi-join corpus x keep_ids on the coarse-bucket cogroup
        from ..join import hash_join

        ls, rs = _join_sch([])
        ds = hash_join(ds, keep_ids, id_col, how="inner",
                       left_schema=ls, right_schema=rs)

    # 5: decontamination — map-only IN-STREAM filter against the
    # broadcast eval gram set (r4: replaces the flags hash_join + filter,
    # removing one all-to-all exchange from the flagship flow)
    if eval_ds is not None:
        from ..curation import drop_contaminated

        ds = drop_contaminated(ds, eval_ds, n=5, text_col=text_col,
                               id_col=id_col)

    # 6: DSIR importance weights toward the target domain
    if target_ds is not None:
        # DSIR is inherently TWO passes over the same derived corpus
        # (bucket counts, then scoring) and the downstream budget/split
        # is a third — a lazy lineage would re-execute the whole
        # gate+dedup+decontaminate chain once per pass. Materialize the
        # curated corpus ONCE here (Ray spills blocks to disk at scale;
        # recompute-vs-spill favors spill for a 3-consumer stage). This
        # is the documented exception to the stream-don't-materialize
        # rule: a genuinely multi-pass consumer. Scoring APPENDS the
        # weight column in-stream (r4: no join back, one less exchange).
        ds = ds.materialize()
        ds = dsir_weights(ds, target_ds, text_col=text_col, id_col=id_col,
                          method=dsir_method, append=True)
    else:
        ds = ds.map_batches(
            lambda b: b.append_column("weight_micro",
                                      pa.array(np.zeros(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow")

    # 7: per-source token budget (deterministic doc-id order)
    ds = budget_capped_select(ds, source_col, "n_tokens", budget=budget_tokens,
                              order_col=id_col, cum_col="cum_tokens")

    # 8: disjoint split
    ds = hash_split(ds, splits, key_col=id_col, method=split_method)
    return ds


def curate_to_parquet(docs_path, out_dir: str,
                      num_parts: int = 8, **kwargs):
    """Resumable driver: run `curate` over each partition of the input
    file list through the checkpoint manifest's partition loop
    (state.checkpoint.run_partitions) — a killed run re-runs ONLY
    unfinished partitions (per-partition lineage + row-count metrics in
    _manifest/, the north-star resume contract).

    `docs_path` is a Parquet file, a directory tree, a glob or a list of
    these. Each partition's read touches only its own files, so the whole
    run scans the input exactly once regardless of num_parts (no read
    amplification), and no assumption is made about id column types.
    Raises FileNotFoundError when `docs_path` names no Parquet file."""
    import ray.data as rd

    res = run_partitions(docs_path, out_dir, num_parts,
                         lambda files: curate(rd.read_parquet(files), **kwargs))
    return {"parts": num_parts, "skipped": len(res["skipped"]),
            "manifest": CheckpointManifest(out_dir).manifest_dir}
