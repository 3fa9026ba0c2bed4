"""Load generator: the seeded pages corpus and its reference answers.

The corpus is `synth.write_pages` output cached as Parquet shards of
exactly one batch each, keyed by (seed, rows). Next to the shards sits
`expected.json`: the per-sink counts of a single-threaded replay of the
flagship stage and the per-destination counts of the in-memory
`Config.run` over the same batches. Both are computed once, when the
corpus is generated, and never inside a timed window or `setup_s`.
"""

from __future__ import annotations

import glob
import json
import os

BATCH_ROWS = 16384
PAGE_COLUMNS = ["url", "warc_ts", "text", "lang"]
HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "config_paths.conf")
CONFIG_SOURCE = "s_pages"


def corpus_dir(cache_root: str, seed: int, rows: int) -> str:
    return os.path.join(cache_root, f"pages_s{seed}_n{rows}")


def shard_files(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, "pages-*.parquet")))


def read_batches(files: list[str]):
    """Yield each shard as one pyarrow Table of the benchmark's columns."""
    import pyarrow.parquet as pq

    for f in files:
        yield pq.read_table(f, columns=PAGE_COLUMNS)


def as_messages(batch):
    """The config workload feeds `text` as ${MESSAGE}."""
    return batch.rename_columns(["message" if c == "text" else c for c in batch.column_names])


def load_config():
    from axosyslog_ray.config import compile_config

    with open(CONFIG_PATH) as fh:
        return compile_config(fh.read())


def replay_flagship(batches) -> dict[str, int]:
    """Per-sink row counts of the flagship stage run in this process."""
    import pyarrow.compute as pc

    from axosyslog_ray.pipelines.flagship import LogPipelineStage

    stage = LogPipelineStage()
    counts: dict[str, int] = {}
    for batch in batches:
        vc = pc.value_counts(stage(batch).column("route")).to_pylist()
        for item in vc:
            counts[item["values"]] = counts.get(item["values"], 0) + item["counts"]
    return dict(sorted(counts.items()))


def replay_config(files: list[str]) -> dict[str, int]:
    """Per-destination rows of the in-memory `Config.run`, one batch at a time."""
    cfg = load_config()
    rows = {name: 0 for name in cfg.destinations}
    for batch in read_batches(files):
        res = cfg.run(sources={CONFIG_SOURCE: as_messages(batch)})
        for name in rows:
            rows[name] += res.processed(name)
    return rows


def ensure_corpus(cache_root: str, seed: int, rows: int) -> str:
    """Generate (once) the shards and expected.json; return the directory."""
    out = corpus_dir(cache_root, seed, rows)
    expected = os.path.join(out, "expected.json")
    if os.path.exists(expected):
        return out
    from axosyslog_ray.synth import write_pages

    if rows % BATCH_ROWS:
        raise ValueError(f"rows must be a multiple of {BATCH_ROWS}, got {rows}")
    write_pages(out, rows, seed=seed, shards=rows // BATCH_ROWS)
    files = shard_files(out)
    doc = {
        "seed": seed,
        "rows": rows,
        "flagship_routes": replay_flagship(read_batches(files)),
        "config_rows": replay_config(files),
    }
    tmp = expected + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, expected)
    return out


def load_expected(directory: str) -> dict:
    with open(os.path.join(directory, "expected.json")) as fh:
        return json.load(fh)
