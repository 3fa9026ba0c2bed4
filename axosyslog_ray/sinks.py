"""Concrete destination drivers (threaded-dest parity).

The reference's program()/http()/sql()/kafka() destinations are
threaded writer drivers (reference modules/afprog/afprog.c one child
process per writer, modules/http/http-worker.c batched POSTs with
retry, modules/afsql/afsql.c serialized INSERT writer thread,
modules/kafka/kafka-dest-worker.c partition-keyed producer batches).
Here each is a `ray.data.Datasink` — the idiomatic Ray Data write path:
one `write()` per task (the analogue of a writer thread, running with
streaming backpressure), plus a driver-side `on_write_complete`
finalize where the reference serializes (SQL transaction commit).

Sandbox honesty: there is no network and no JVM/kafka in this
container. The HTTP and Kafka sinks take an injectable transport /
producer factory — the default HTTP transport is a real urllib POST
(usable where a network exists), the default Kafka factory raises
NotImplementedError naming the missing dependency; batching, framing,
key partitioning and retry plumbing are real and tested with collector
transports.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink


def _to_tables(blocks) -> list[pa.Table]:
    import pandas as pd

    out = []
    for b in blocks:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows:
            out.append(b)
    return out


def _format_lines(t: pa.Table, template) -> list[str]:
    if template is None:
        cols = t.column_names
        rows = t.to_pylist()
        return [json.dumps({c: r[c] for c in cols}, default=str) for r in rows]
    from .functions.templates import Template

    tpl = template if isinstance(template, Template) else Template(template)
    return tpl.eval(t).tolist()


def _partition_runs(col: pa.ChunkedArray) -> tuple[np.ndarray, list[tuple[object, int, int]]]:
    """Group a bundle's rows by one column's value without a Python pass
    over the rows: dictionary-encode the column (null is code -1), take a
    stable argsort of the codes, so rows keep their input order inside
    each value, and cut the sorted codes where they change. One sort and
    contiguous slices, O(n log n) at any cardinality (a filter per
    distinct value re-scans the bundle once per value).

    Returns the row order and one (value, start, end) run over it per
    distinct value; value is None for null, else the dictionary entry as
    numpy renders it (`to_numpy`, which names the partition directory)."""
    enc = pc.dictionary_encode(col.combine_chunks())
    codes = enc.indices.fill_null(-1).to_numpy()
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_codes)) + 1).tolist(), len(codes)]
    values = enc.dictionary.to_numpy(zero_copy_only=False)
    return order, [(None if sorted_codes[s] < 0 else values[sorted_codes[s]], s, e)
                   for s, e in zip(bounds[:-1], bounds[1:])]


HIVE_NULL = "__HIVE_DEFAULT_PARTITION__"  # a null value's directory (pyarrow's hive null)


def partition_dir(col: str, value) -> str:
    """`<col>=<value>`; None or NaN (a null pandas group key) is HIVE_NULL."""
    return f"{col}={HIVE_NULL if value is None or value != value else value}"


_TEXT_TYPES = (pa.types.is_string, pa.types.is_large_string,
               pa.types.is_binary, pa.types.is_large_binary)


def _leaves(path: str, typ: pa.DataType):
    """Yield (Parquet leaf path, Arrow type) for each leaf of one column,
    named as pyarrow's per-column write options match them: a list's
    element is `<path>.list.element`, a map's key and value
    `<path>.key_value.key` / `.value`, a struct field `<path>.<field>`."""
    if pa.types.is_dictionary(typ):
        typ = typ.value_type
    if pa.types.is_map(typ):
        yield from _leaves(f"{path}.key_value.{typ.key_field.name}", typ.key_type)
        yield from _leaves(f"{path}.key_value.{typ.item_field.name}", typ.item_type)
    elif pa.types.is_struct(typ):
        for f in typ:
            yield from _leaves(f"{path}.{f.name}", f.type)
    elif pa.types.is_list(typ) or pa.types.is_large_list(typ) or pa.types.is_fixed_size_list(typ):
        yield from _leaves(f"{path}.list.element", typ.value_type)
    else:
        yield path, typ


def _page_options(schema: pa.Schema) -> dict:
    """`pq.write_table` options for one routed file (the rule and its
    reasons are in `RoutedParquetDatasink`'s docstring): zstd; top-level
    timestamps DELTA_BINARY_PACKED without dictionary; dictionary on
    every other leaf; min/max statistics on every leaf but strings and
    binaries."""
    stamps, dictionary, stats = [], [], []
    for field in schema:
        if pa.types.is_timestamp(field.type):
            stamps.append(field.name)
            stats.append(field.name)
            continue
        for path, typ in _leaves(field.name, field.type):
            dictionary.append(path)
            if not any(is_text(typ) for is_text in _TEXT_TYPES):
                stats.append(path)
    return {"compression": "zstd", "use_dictionary": dictionary, "write_statistics": stats,
            "column_encoding": dict.fromkeys(stamps, "DELTA_BINARY_PACKED")}


class RoutedParquetDatasink(Datasink):
    """file() destination: hive-partitioned parquet fan-out with the
    per-sink counters FUSED into the write tasks. It is the package's one
    Parquet writer; the job CLIs write through it in `write_partition`.

    The reference keeps per-destination processed counters as it writes
    (lib/logwriter.c stats counters) rather than re-reading its sinks;
    same shape here: each write task writes `partition_dir`/*.parquet
    (flat root/*.parquet if `partition_col` is None) for its bundle and
    RETURNS its partial counts by count_cols (one total if none) — bounded
    cardinality, an Arrow C++ hash aggregate per bundle — and
    `on_write_complete` merges the partials on the driver. One streaming
    execution produces both the sinks and the aggregate; the alternative
    (write, then a read-back aggregate pipeline) pays a second
    execution's driver-side fixed cost, which is flat in CPU count and
    caps measured scaling efficiency on short runs (BASELINE.md phase
    decomposition).

    A write task returns its partial counts as `{col: ndarray}` for each
    count column plus "count_all" (None for an empty bundle), never as
    Python rows: Ray wraps every write return in a one-row pandas block
    and sizes it by walking the Python objects inside, which for a list
    of (route, host, n) tuples visits every tuple and string (7 ms a
    task at ~2.2k groups on a 4-vCPU VM), while an ndarray is sized by
    its `nbytes` (0.6 ms).
    The partition split is `_partition_runs` (dictionary codes, no
    per-row Python either). Each file caps its Parquet dictionary page
    at max(rows, 4096) bytes, so a column with more than ~one distinct
    byte per row (urls, messages) falls back to plain encoding at once
    instead of after hashing up to parquet's 1 MiB default.

    The other page options follow from the bundle's Arrow schema
    (`_page_options`), not from pyarrow's defaults (snappy, dictionary
    and min/max on every leaf):
    - zstd pages, not snappy: most of the drop from ~53.5 to ~33.9 bytes
      per routed flagship row (zstd alone gives ~37.2);
    - each top-level timestamp is DELTA_BINARY_PACKED with no dictionary:
      a batch's stamps lie within minutes of each other, so their deltas
      pack into far fewer than 64 bits, while a dictionary of mostly
      distinct 8-byte stamps saves nothing;
    - min/max statistics only on leaves that are not string or binary:
      min/max over unsorted log text (urls, messages, pids, IPs) prunes
      no row group and costs about as much to compute as zstd adds.
    pyarrow matches `use_dictionary` and `write_statistics` by Parquet
    LEAF path (`tags.list.element`, `sdata.key_value.key`, `geo.city`),
    and a list of names turns the option off for every leaf it does not
    name. A list of top-level names would therefore silently drop the
    dictionary from every nested column, so `_leaves` walks list, map
    and struct types down to the leaves.

    `min_rows_per_write` makes Ray bundle at least that many rows per
    write() call, so output files stay sized (~one file per partition
    value per bundle) — never one tiny file per block."""

    def __init__(self, root: str, partition_col: str | None = "route",
                 count_cols: tuple[str, ...] = ("route", "host"),
                 min_rows_per_file: int = 100_000):
        self.root = root
        self.partition_col = partition_col
        self.count_cols = list(count_cols)
        self._min_rows = min_rows_per_file
        self.counts = None  # pandas (count_cols..., n) after on_write_complete

    @property
    def min_rows_per_write(self) -> int:
        return self._min_rows

    def on_write_start(self):
        os.makedirs(self.root, exist_ok=True)

    def write(self, blocks, ctx):
        tables = _to_tables(blocks)
        if not tables:
            return None
        t = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
        # deterministic filenames (task_idx + per-task write sequence, no
        # uuid): a retried write task regenerates the SAME names and
        # overwrites its failed attempt's partial files instead of
        # duplicating rows beside them (Ray's FilenameProvider contract)
        seq = self._write_seq = getattr(self, "_write_seq", -1) + 1
        body, runs = t, [(self.root, 0, t.num_rows)]
        if self.partition_col is not None:
            order, values = _partition_runs(t.column(self.partition_col))
            body = t.drop_columns([self.partition_col]).take(order)
            runs = [(os.path.join(self.root, partition_dir(self.partition_col, v)), s, e)
                    for v, s, e in values]
        pages = _page_options(body.schema)
        for d, s, e in runs:
            os.makedirs(d, exist_ok=True)
            pq.write_table(
                body.slice(s, e - s),
                os.path.join(d, f"part_{ctx.task_idx:05d}_{seq:04d}.parquet"),
                dictionary_pagesize_limit=max(e - s, 4096),
                **pages,
            )
        agg = t.select(self.count_cols).group_by(self.count_cols).aggregate([([], "count_all")])
        # an int key beside a null stays 1, not 1.0, as partition_dir names its dir
        return {c: agg.column(c).to_pandas(integer_object_nulls=True).to_numpy()
                for c in (*self.count_cols, "count_all")}

    def on_write_complete(self, write_result):
        import pandas as pd

        parts = [r for r in write_result.write_returns if r is not None]
        if not parts:
            self.counts = pd.DataFrame(columns=[*self.count_cols, "n"])
            return
        df = pd.DataFrame({c: np.concatenate([p[c] for p in parts])
                           for c in (*self.count_cols, "count_all")})
        # dropna=False: null group keys are real sinks (e.g. messages with
        # no host) — pandas' default silently drops them, Arrow's doesn't
        self.counts = (df.rename(columns={"count_all": "n"})
                       .groupby(self.count_cols, as_index=False, dropna=False)["n"].sum()
                       if self.count_cols else pd.DataFrame({"n": [df["count_all"].sum()]}))

    def get_name(self):
        return f"RoutedParquet({self.root})"


class TemplatedTextDatasink(Datasink):
    """file() destination in its LITERAL form: rendered template lines
    appended to per-partition .log text files — byte-parity with the
    reference's file() output (template + "\n" per message,
    lib/logwriter.c write path), where RoutedParquetDatasink is the
    columnar-analytics form.

    Layout: root/<partition>=<val>/part_<task>_<seq>.log (or flat
    part_*.log files without a partition column; null goes to
    <partition>=__NULL__) — many files per sink, never one giant file,
    deterministic names so a retried task overwrites its own partial
    output. Partitions are split by `_partition_runs`, as in the parquet
    sink. Returns per-partition line counts merged on the driver."""

    def __init__(self, root: str, template=None, partition_col: str | None = None):
        self.root = root
        self.template = template
        self.partition_col = partition_col
        self.counts = None

    def on_write_start(self):
        os.makedirs(self.root, exist_ok=True)

    def _write_lines(self, path: str, t: pa.Table):
        lines = _format_lines(t, self.template)
        with open(path, "w", encoding="utf-8", newline="") as f:
            for ln in lines:
                f.write(ln if ln.endswith("\n") else ln + "\n")
        return len(lines)

    def write(self, blocks, ctx):
        tables = _to_tables(blocks)
        if not tables:
            return []
        t = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
        seq = self._write_seq = getattr(self, "_write_seq", -1) + 1
        if self.partition_col is None:
            n = self._write_lines(
                os.path.join(self.root, f"part_{ctx.task_idx:05d}_{seq:04d}.log"), t)
            return [(None, n)]
        order, runs = _partition_runs(t.column(self.partition_col))
        ts = t.take(order)
        out = []
        for value, s, e in runs:
            val = "__NULL__" if value is None else str(value)
            d = os.path.join(self.root, f"{self.partition_col}={val}")
            os.makedirs(d, exist_ok=True)
            c = self._write_lines(
                os.path.join(d, f"part_{ctx.task_idx:05d}_{seq:04d}.log"),
                ts.slice(s, e - s))
            out.append((val, c))
        return out

    def on_write_complete(self, write_result):
        import pandas as pd

        rows = [r for ret in write_result.write_returns for r in (ret or [])]
        df = pd.DataFrame(rows, columns=["partition", "n"])
        self.counts = (df.groupby("partition", as_index=False, dropna=False)["n"].sum()
                       if len(df) else df)

    def get_name(self):
        return "TemplatedText"


class ProgramDatasink(Datasink):
    """program() destination: each write task spawns the child command
    ONCE (afprog.c keeps one child per writer) and streams formatted
    lines into its stdin. `argv` may contain '{shard}' which expands to a
    unique per-task id so concurrent writers don't collide."""

    def __init__(self, argv: list[str], template=None):
        self.argv = list(argv)
        self.template = template

    def write(self, blocks, ctx):
        import subprocess

        shard = f"{ctx.task_idx:05d}_{uuid.uuid4().hex[:6]}"
        argv = [a.replace("{shard}", shard) for a in self.argv]
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        n = 0
        try:
            # A child that dies mid-stream surfaces as BrokenPipeError on
            # write/close — that IS the failure signal (afprog.c treats a
            # dead child as destination error); report its exit status
            # instead of the raw pipe error.
            try:
                for t in _to_tables(blocks):
                    payload = ("\n".join(_format_lines(t, self.template)) + "\n").encode()
                    proc.stdin.write(payload)
                    n += t.num_rows
                proc.stdin.close()
            except BrokenPipeError:
                pass
            rc = proc.wait(timeout=60)
        except Exception:
            proc.kill()
            raise
        if rc != 0:
            raise RuntimeError(f"program() child {argv!r} exited {rc}")
        return {"rows": n}

    def get_name(self):
        return f"Program({os.path.basename(self.argv[0])})"


class HttpDatasink(Datasink):
    """http() destination: body-batched POSTs with bounded retry
    (http-worker.c batch-lines + backoff). `transport(url, payload_bytes,
    headers)` is injectable; the default uses urllib (real network)."""

    def __init__(self, url: str, template=None, batch_lines: int = 512,
                 retries: int = 3, backoff_sec: float = 0.1, transport=None,
                 headers: dict | None = None):
        if retries < 1:
            raise ValueError("retries is the total attempt count; must be >= 1")
        self.url = url
        self.template = template
        self.batch_lines = batch_lines
        self.retries = retries
        self.backoff_sec = backoff_sec
        self.headers = headers or {"Content-Type": "application/x-ndjson"}
        self.transport = transport or _urllib_post

    def write(self, blocks, ctx):
        n_rows = n_posts = 0
        for t in _to_tables(blocks):
            lines = _format_lines(t, self.template)
            for i in range(0, len(lines), self.batch_lines):
                payload = ("\n".join(lines[i : i + self.batch_lines]) + "\n").encode()
                last_err = None
                for attempt in range(self.retries):
                    try:
                        self.transport(self.url, payload, self.headers)
                        last_err = None
                        break
                    except Exception as e:  # noqa: BLE001 — retry any transport error
                        last_err = e
                        if attempt + 1 < self.retries:  # no backoff after the final attempt
                            time.sleep(self.backoff_sec * (2**attempt))
                if last_err is not None:
                    raise RuntimeError(f"http() POST failed after {self.retries} tries: {last_err}")
                n_posts += 1
            n_rows += t.num_rows
        return {"rows": n_rows, "posts": n_posts}

    def get_name(self):
        return "Http"


def _urllib_post(url: str, payload: bytes, headers: dict) -> None:
    import urllib.request

    req = urllib.request.Request(url, data=payload, headers=headers, method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:  # noqa: S310
        if resp.status >= 300:
            raise RuntimeError(f"HTTP {resp.status}")


class SqlDatasink(Datasink):
    """sql() destination via DuckDB. Write tasks stage their blocks as
    parquet shards (fully parallel, any node); `on_write_complete` loads
    every shard into the target table in ONE transaction on the driver —
    the same serialization point as the reference's single SQL writer
    thread (afsql.c), but the expensive formatting/IO stays distributed."""

    def __init__(self, db_path: str, table: str, staging_dir: str | None = None,
                 mode: str = "append"):
        if mode not in ("append", "overwrite"):
            raise ValueError("mode must be append|overwrite")
        self.db_path = db_path
        self.table = table
        self.staging_dir = staging_dir or (db_path + ".staging")
        self.mode = mode

    def on_write_start(self):
        os.makedirs(self.staging_dir, exist_ok=True)

    def write(self, blocks, ctx):
        paths, n = [], 0
        for t in _to_tables(blocks):
            p = os.path.join(self.staging_dir, f"stage_{ctx.task_idx:05d}_{uuid.uuid4().hex[:8]}.parquet")
            pq.write_table(t, p)
            paths.append(p)
            n += t.num_rows
        return {"rows": n, "paths": paths}

    def on_write_complete(self, write_result):
        import duckdb

        # ONLY the shards this run's write tasks returned — a glob would
        # also import stale shards left by a crashed earlier run or a
        # concurrent sink sharing the staging dir
        files = sorted(p for ret in write_result.write_returns for p in ret.get("paths", []))
        if not files:
            return
        con = duckdb.connect(self.db_path)
        try:
            con.execute("BEGIN")
            file_list = ", ".join(f"'{f}'" for f in files)
            if self.mode == "overwrite":
                con.execute(f"CREATE OR REPLACE TABLE {self.table} AS SELECT * FROM read_parquet([{file_list}])")
            else:
                con.execute(
                    f"CREATE TABLE IF NOT EXISTS {self.table} AS SELECT * FROM read_parquet([{file_list}]) LIMIT 0")
                con.execute(f"INSERT INTO {self.table} SELECT * FROM read_parquet([{file_list}])")
            con.execute("COMMIT")
        finally:
            con.close()
        for f in files:
            os.unlink(f)

    def get_name(self):
        return f"Sql({self.table})"


class KafkaDatasink(Datasink):
    """kafka() destination: partition-keyed batched produce
    (kafka-dest-worker.c). `producer_factory()` must return an object
    with `.produce(topic, key, value)` and `.flush()`; the default
    raises NotImplementedError (no kafka client in this container)."""

    def __init__(self, topic: str, key_template=None, template=None,
                 producer_factory=None, batch_lines: int = 1024):
        self.topic = topic
        self.key_template = key_template
        self.template = template
        self.producer_factory = producer_factory or _no_kafka
        self.batch_lines = batch_lines

    def write(self, blocks, ctx):
        producer = self.producer_factory()
        n = 0
        from .functions.templates import Template

        ktpl = None
        if self.key_template is not None:
            ktpl = self.key_template if isinstance(self.key_template, Template) else Template(self.key_template)
        for t in _to_tables(blocks):
            values = _format_lines(t, self.template)
            keys = ktpl.eval(t).tolist() if ktpl is not None else [None] * len(values)
            for i, (k, v) in enumerate(zip(keys, values)):
                producer.produce(self.topic, k, v)
                if (i + 1) % self.batch_lines == 0:
                    producer.flush()
            n += t.num_rows
        producer.flush()
        return {"rows": n}

    def get_name(self):
        return f"Kafka({self.topic})"


def _no_kafka():
    raise NotImplementedError(
        "kafka() needs a kafka client (confluent_kafka / kafka-python), which "
        "this container does not ship — pass producer_factory=..."
    )
