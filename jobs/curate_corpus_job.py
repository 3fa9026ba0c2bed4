"""`ray job submit` entry point for the resumable corpus-curation run.

The north-star contract: the pipeline runs unchanged on a multi-node
cluster via `ray job submit`, checkpoints per-partition lineage +
metrics, and a killed run resumes without reprocessing completed
partitions. This driver is that entry point (input and output are
paths on a filesystem every node mounts; a `scheme://` URI raises
ValueError):

    ray job submit --working-dir . -- \
        python jobs/curate_corpus_job.py \
        --input  /mnt/shared/crawl/docs/ \
        --output /mnt/shared/curated/v1 \
        --num-parts 256 --budget-tokens 5e9

Local smoke run (single node, from the repo root):

    PYTHONPATH=. python jobs/curate_corpus_job.py \
        --input /root/testdata/sf0.001/documents.parquet \
        --output /tmp/curated --num-parts 4

Resume semantics (shared with jobs/flagship_job.py): the run is
`state.checkpoint.run_partitions` — partitions are a deterministic
size-balanced shard of the INPUT FILE LIST (each partition reads only
its own bytes — no read amplification); each one is written to a
temporary directory and renamed to `<output>/part=<k>/`, then recorded
in `<output>/_manifest/<k>.done.json` with row counts + wall time and
skipped on the next submit. Re-submitting the SAME command after a kill
is the resume. An input that names no Parquet file exits 2.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input", required=True,
                    help="parquet file / directory / glob of the documents table")
    ap.add_argument("--output", required=True, help="output directory (partitioned parquet)")
    ap.add_argument("--num-parts", type=int, default=64,
                    help="resume granularity: partitions of the input file list")
    ap.add_argument("--budget-tokens", type=float, default=50_000,
                    help="per-source token budget")
    ap.add_argument("--min-words", type=int, default=10)
    ap.add_argument("--max-words", type=int, default=200_000)
    ap.add_argument("--no-dedup", action="store_true",
                    help="skip the MinHash fuzzy-dedup stage")
    args = ap.parse_args(argv)

    import ray

    # no address: Ray takes RAY_ADDRESS (`ray job submit` sets it), then
    # the latest local cluster, and only then starts one
    if not ray.is_initialized():
        ray.init()

    from axosyslog_ray.pipelines.curate_corpus import curate_to_parquet

    try:
        result = curate_to_parquet(
            args.input, args.output, num_parts=args.num_parts,
            dedup=not args.no_dedup, budget_tokens=args.budget_tokens,
            min_words=args.min_words, max_words=args.max_words)
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
