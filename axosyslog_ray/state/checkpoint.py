"""Per-partition checkpoint manifest: resumable pipeline runs.

The reference tracks delivery with per-message ACKs feeding an
ack-tracker whose bookmark is saved in persist-state so a restart
resumes exactly (reference lib/persist-state.c, persist-state.h:92-118;
lib/ack-tracker/consecutive_ack_tracker.c, batched_ack_tracker.c).

The batch-engine equivalent (SURVEY.md §3.1, §7 step 9): the input is
split into deterministic partitions; each partition's output is written
to its own directory ATOMICALLY (write to `<part>.tmp-*`, then rename)
and then a `_manifest/<part>.done.json` marker records row counts +
metrics. On restart, completed partitions are skipped before any read is
scheduled — no reprocessing, no duplicates. Output layout is
`out_dir/part=<id>/[<col>=<value>/]*.parquet`, never one giant file,
and the row counts are what the writer counted as it wrote.

`run_partitions` is the one partition loop every resumable driver
(jobs/flagship_job.py, pipelines/curate_corpus.py::curate_to_parquet)
runs: list the input files, plan partitions over them, skip the done
ones, write the rest through `write_partition`.
"""

from __future__ import annotations

import glob
import heapq
import json
import os
import re
import shutil
import time
import uuid


class CheckpointManifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def _marker(self, part_id: str) -> str:
        return os.path.join(self.manifest_dir, f"{part_id}.done.json")

    def is_done(self, part_id: str) -> bool:
        return os.path.exists(self._marker(part_id))

    def done_parts(self) -> set[str]:
        return {
            f[: -len(".done.json")]
            for f in os.listdir(self.manifest_dir)
            if f.endswith(".done.json")
        }

    def meta(self, part_id: str) -> dict | None:
        if not self.is_done(part_id):
            return None
        with open(self._marker(part_id)) as f:
            return json.load(f)

    def part_dir(self, part_id: str) -> str:
        return os.path.join(self.out_dir, f"part={part_id}")

    def mark_done(self, part_id: str, meta: dict) -> None:
        tmp = self._marker(part_id) + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            json.dump(meta, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._marker(part_id))

    def write_partition(self, part_id: str, ds, extra_meta: dict | None = None,
                        partition_col: str | None = None) -> dict:
        """Execute `ds` into this partition's directory atomically and mark
        done. Returns the recorded metadata. Idempotent: an existing done
        partition is returned untouched. The write is RoutedParquetDatasink,
        flat when `partition_col` is None; `rows_by_dir` is its counts by
        directory ("." for a flat write)."""
        from ..sinks import RoutedParquetDatasink, partition_dir

        existing = self.meta(part_id)
        if existing is not None:
            return existing
        final = self.part_dir(part_id)
        # clear orphaned tmp dirs from a previous killed attempt
        for stale in glob.glob(final + ".tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
        t0 = time.time()
        sink = RoutedParquetDatasink(tmp, partition_col, (partition_col,) if partition_col else ())
        ds.write_datasink(sink)
        dirs = [partition_dir(partition_col, v) for v in sink.counts[partition_col]] \
            if partition_col else ["."]
        rows_by_dir = dict(zip(dirs, sink.counts["n"].tolist()))
        # a killed attempt's files must not survive into the finished
        # partition: the directory is replaced whole, never merged
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        meta = {
            "part_id": part_id,
            "rows": sum(rows_by_dir.values()),
            "rows_by_dir": rows_by_dir,
            "wall_sec": round(time.time() - t0, 3),
            "completed_at": time.time(),
            **(extra_meta or {}),
        }
        self.mark_done(part_id, meta)
        return meta


def _require_local(path: str) -> None:
    """Raise ValueError for a `scheme://` URI: the listing, the manifest
    and the atomic rename see only the local (or a mounted shared)
    filesystem."""
    scheme = re.match(r"([A-Za-z][A-Za-z0-9+.-]*)://", path)
    if scheme:
        raise ValueError(f"{scheme.group(1)}:// paths are not supported ({path!r}): "
                         "use a local or mounted filesystem path")


def list_files(paths) -> list[tuple[str, int]]:
    """(path, size_bytes) of every Parquet file named by `paths`, sorted
    and without duplicates: a file, a directory tree (every `*.parquet` /
    `*.pq` under it), a glob, or a list of these. A `scheme://` URI
    raises ValueError."""
    if not isinstance(paths, str):
        return sorted({f for p in paths for f in list_files(p)})
    _require_local(paths)
    if os.path.isfile(paths):
        return [(paths, os.path.getsize(paths))]
    if os.path.isdir(paths):
        return sorted(
            (full, os.path.getsize(full))
            for root, _dirs, names in os.walk(paths)
            for full in (os.path.join(root, n) for n in names)
            if full.endswith((".parquet", ".pq")))
    if glob.escape(paths) == paths:  # no wildcard: a path that is not there
        return []
    return list_files(glob.glob(paths))


def assign_files(files: list[tuple[str, int]], num_parts: int) -> list[list[str]]:
    """Size-balanced deterministic assignment of input files to resume
    partitions (greedy longest-processing-time): each partition reads ONLY
    its own bytes — no read amplification — and the assignment is a pure
    function of the (sorted) file listing, so a resumed run computes the
    identical plan. Partitions may be empty when files < num_parts."""
    parts: list[list[str]] = [[] for _ in range(num_parts)]
    # heap of (total_bytes, part_index); ties broken by part index for
    # determinism. Iterate files largest-first.
    heap = [(0, i) for i in range(num_parts)]
    heapq.heapify(heap)
    for path, size in sorted(files, key=lambda fs: (-fs[1], fs[0])):
        total, idx = heapq.heappop(heap)
        parts[idx].append(path)
        heapq.heappush(heap, (total + size, idx))
    for p in parts:
        p.sort()
    return parts


def run_partitions(inputs, out_dir: str, num_parts: int, build,
                   partition_col: str | None = None) -> dict[str, dict[str, dict]]:
    """Run a resumable job: `build(files) -> Dataset` for every partition
    of the input files (`list_files(inputs)` planned by `assign_files`)
    that has no done marker yet, written through `write_partition`.

    A partition with no files is marked done with 0 rows and reads
    nothing. Each partition executes with full-cluster parallelism, so
    running them one after another costs nothing while a kill loses at
    most the partition in flight. Returns `{"run": {part_id: meta},
    "skipped": {part_id: meta}}`; raises FileNotFoundError when `inputs`
    names no Parquet file and ValueError for a `scheme://` input or
    output."""
    _require_local(out_dir)
    files = list_files(inputs)
    if not files:
        raise FileNotFoundError(f"no input files match {inputs!r}")
    ckpt = CheckpointManifest(out_dir)
    out: dict[str, dict[str, dict]] = {"run": {}, "skipped": {}}
    for k, part_files in enumerate(assign_files(files, num_parts)):
        pid = f"{k:05d}"
        meta = ckpt.meta(pid)
        if meta is not None:
            out["skipped"][pid] = meta
            continue
        if not part_files:
            meta = {"part_id": pid, "rows": 0, "files": 0}
            ckpt.mark_done(pid, meta)
        else:
            meta = ckpt.write_partition(pid, build(part_files), {"files": len(part_files)},
                                        partition_col)
        out["run"][pid] = meta
    return out
