"""`ray job submit` entry point for the flagship parse -> enrich ->
route -> aggregate pipeline over Common-Crawl-style page parquet.

The north-star contract: the same code runs unchanged on an N-node or
4N-node cluster; a killed run resumes without reprocessing completed
partitions. Usage (input and output are paths on a filesystem every
node mounts; a `scheme://` URI raises ValueError, since the listing,
the manifest and the atomic rename are filesystem operations):

    ray job submit --working-dir . -- \
        python jobs/flagship_job.py \
        --input  /mnt/shared/crawl/pages/ \
        --output /mnt/shared/routed/v1 \
        --num-parts 256

Local smoke run (single node, from the repo root; `synth.write_pages`
makes the input):

    python -c "from axosyslog_ray.synth import write_pages; \
        write_pages('/tmp/pages', 600_000)"
    PYTHONPATH=. python jobs/flagship_job.py --input /tmp/pages \
        --output /tmp/routed --num-parts 4

Resume semantics (shared with jobs/curate_corpus_job.py): the run is
`state.checkpoint.run_partitions` — partitions are a deterministic
size-balanced shard of the INPUT FILE LIST (each partition reads only
its own bytes, no read amplification); each one is written to a
temporary directory and renamed to `<output>/part=<k>/route=<sink>/`,
then `<output>/_manifest/<k>.done.json` records its rows per route
directory, as the sink counted them while writing. Finished partitions
are skipped on re-submit, and a rerun partition replaces whatever a
killed attempt left, so the manifest states what is on disk. Downstream
consumers read `<output>/part=*/route=<sink>/` per route.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input", required=True,
                    help="pages parquet file / directory / glob")
    ap.add_argument("--output", required=True,
                    help="output root (per-partition routed parquet)")
    ap.add_argument("--num-parts", type=int, default=64)
    args = ap.parse_args(argv)

    import ray

    # no address: Ray takes RAY_ADDRESS (`ray job submit` sets it), then
    # the latest local cluster, and only then starts one
    if not ray.is_initialized():
        ray.init()
    import ray.data as rd

    from axosyslog_ray.pipelines.flagship import flagship_routed
    from axosyslog_ray.state.checkpoint import run_partitions

    def build(files):
        return flagship_routed(
            rd.read_parquet(files, columns=["url", "warc_ts", "text", "lang"]))

    try:
        res = run_partitions(args.input, args.output, args.num_parts, build, "route")
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return 2
    totals: dict[str, int] = {}
    for meta in [*res["run"].values(), *res["skipped"].values()]:
        for d, n in meta.get("rows_by_dir", {}).items():
            route = d.split("=", 1)[1]
            totals[route] = totals.get(route, 0) + n
    print(json.dumps({"partitions_run": len(res["run"]),
                      "partitions_skipped": len(res["skipped"]),
                      "sink_counts": totals}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
