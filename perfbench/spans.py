"""Spans around calls into each layer, and the per-layer replay.

`Tracer.patch` swaps a public function or method for a wrapper that
records a span (name, start, end, parent, batch id) in memory; `restore`
puts every original back, so untraced runs execute unmodified code. The
program itself is not changed: spans sit at the call boundaries of its
public functions and classes.

A span's self time is its duration minus the time its direct child spans
cover (the replay is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

import pyarrow.compute as pc

import corpus


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, batch id)
        self.spans: list[tuple | None] = []
        self.batch = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.batch)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap `owner.attr` (a module function or a class's own method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, start and end in ns."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "batch": batch}) + "\n")

    def total_s(self, name: str) -> float:
        """Time covered by spans called `name` (nested repeats counted once)."""
        spans = self.spans
        ns = 0
        for name_, start, end, parent, _ in spans:
            if name_ != name:
                continue
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                ns += end - start
        return ns / 1e9

    def self_s(self, name: str) -> float:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return sum(end - start - child_ns[i] for i, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name) / 1e9


def _filter_classes():
    """Every FilterExpr class that defines its own mask()."""
    from axosyslog_ray.route import FilterExpr

    seen, todo = [], [FilterExpr]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "mask" in cls.__dict__ and cls not in seen:
            seen.append(cls)
    return seen


def _patch_flagship(tracer: Tracer) -> None:
    from axosyslog_ray.enrich.context import AddContextualData
    from axosyslog_ray.enrich.geoip import GeoIP
    from axosyslog_ray.pipelines import flagship
    from axosyslog_ray.route import Router
    from axosyslog_ray.stages.patterndb import PatternDB

    tracer.patch(flagship, "parse_syslog_table", "syslog.parse")
    tracer.patch(flagship, "fast_json_valid", "flagship.json")
    tracer.patch(flagship, "fast_apache", "flagship.apache")
    tracer.patch(flagship, "fast_kv_promote", "flagship.kv")
    tracer.patch(flagship.LogPipelineStage, "__call__", "flagship.stage")
    tracer.patch(PatternDB, "__call__", "patterndb.match")
    tracer.patch(AddContextualData, "__call__", "enrich.context")
    tracer.patch(GeoIP, "__call__", "enrich.geoip")
    tracer.patch(Router, "route_first", "route.route_first")


def _patch_config(tracer: Tracer, cfg) -> None:
    from axosyslog_ray.config import Config, ConfigStage
    from axosyslog_ray.filterx import FilterX

    tracer.patch(Config, "run", "config.run")
    tracer.patch(ConfigStage, "__call__", "config.stage")
    tracer.patch(FilterX, "__call__", "config.filterx")
    for cls in _filter_classes():
        tracer.patch(cls, "mask", "config.filter")
    parser_classes = {type(st) for stages in cfg.parsers.values() for st in stages}
    for cls in sorted(parser_classes, key=lambda c: c.__qualname__):
        tracer.patch(cls, "__call__", "config.parser")
    for cls in {type(d) for d in cfg.destinations.values()}:
        tracer.patch(cls, "deliver", "config.deliver")


def config_path_names(cfg) -> list[str]:
    """Names of every named log path in the config, outer first."""
    names: list[str] = []

    def walk(elements):
        for kind, arg in elements:
            if kind == "embedded":
                if arg.name:
                    names.append(arg.name)
                walk(arg.elements)

    for ch in cfg.paths:
        if ch.name:
            names.append(ch.name)
        walk(ch.elements)
    return names


def _count(out: dict, key: str, n: int) -> None:
    out[key] = out.get(key, 0) + n


def _flagship_pass(batches, tracer: Tracer | None):
    """One single-threaded pass of the flagship stage; -> (wall_s, counts)."""
    from axosyslog_ray.pipelines.flagship import LogPipelineStage

    if tracer:
        _patch_flagship(tracer)
    try:
        stage = LogPipelineStage()
        outs = []
        start = time.perf_counter()
        for i, batch in enumerate(batches):
            if tracer:
                tracer.batch = i
            outs.append(stage(batch))
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    counts: dict[str, int] = {}
    for t in outs:
        n = t.num_rows
        _count(counts, "rows", n)
        _count(counts, "syslog_parsed", int(pc.sum(t.column("syslog_parsed")).as_py() or 0))
        _count(counts, "pdb_matched", n - t.column("pdb_rule").null_count)
        _count(counts, "src_ip", n - t.column("src_ip").null_count)
        _count(counts, "geo_hit", n - t.column("geo_country").null_count)
        for item in pc.value_counts(t.column("route")).to_pylist():
            _count(counts, "route." + item["values"], item["counts"])
    return wall, counts


def as_blocks(tables, blocks: int):
    """Cut the shards into `blocks` blocks in all, each shard into equal
    parts that differ by at most one row, as Ray's read splits them."""
    tables = list(tables)
    per_shard, rest = divmod(blocks, len(tables))
    if rest or not per_shard:
        raise ValueError(f"{blocks} read blocks do not split {len(tables)} equal shards evenly")
    out = []
    for t in tables:
        q, r = divmod(t.num_rows, per_shard)
        offset = 0
        for i in range(per_shard):
            n = q + (i < r)
            out.append(t.slice(offset, n))
            offset += n
    return out


def _config_pass(batches, tracer: Tracer | None):
    """One single-threaded pass of `ConfigStage` over the batches, one call
    a batch as Ray makes it; -> (dest rows, named path [ingress, egress])."""
    from axosyslog_ray.config import ConfigStage

    cfg = corpus.load_config()
    if tracer:
        _patch_config(tracer, cfg)
    names = config_path_names(cfg)
    rows: dict[str, int] = {}
    paths = {name: [0, 0] for name in names}
    stage = ConfigStage(cfg, corpus.CONFIG_SOURCE)
    try:
        for i, batch in enumerate(batches):
            if tracer:
                tracer.batch = i
            out = stage(batch)
            for item in pc.value_counts(out.column("dest")).to_pylist():
                _count(rows, item["values"], item["counts"])
            for name in names:
                ing, egr = cfg.path_stats.get(name, [0, 0])
                paths[name][0] += ing
                paths[name][1] += egr
    finally:
        if tracer:
            tracer.restore()
    return rows, paths


def layer_metrics(flagship_files: list[str], config_files: list[str], config_blocks: int,
                  span_dir: str) -> dict[str, float]:
    """Per-layer metrics of the flagship and config jobs replayed in this
    process on their own corpora, plus the untraced single-threaded
    baseline. The flagship stage gets one shard a call (its map_batches
    batch size); `ConfigStage` gets the `config_blocks` read blocks the
    config_paths run through Ray calls it with. The spans of the last
    traced pass of each job are written to `span_dir`."""
    batches = list(corpus.read_batches(flagship_files))
    msg_batches = as_blocks((corpus.as_messages(b) for b in corpus.read_batches(config_files)), config_blocks)
    rows = sum(b.num_rows for b in batches)
    m: dict[str, float] = {}

    # warm-up passes: first-call costs (regex compilation, kernel lookup)
    # would otherwise land in whichever pass runs first
    _flagship_pass(batches, None)
    _config_pass(msg_batches, None)
    plain, traced = [], []
    for _ in range(2):
        plain.append(_flagship_pass(batches, None)[0])
        tf = Tracer()
        wall, c = _flagship_pass(batches, tf)
        traced.append(wall)
    tf.dump(os.path.join(span_dir, "spans_flagship.jsonl"))
    m["replay.rows_per_s"] = rows / statistics.median(plain)
    m["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    m["syslog.parse_s"] = tf.total_s("syslog.parse")
    m["syslog.parsed_ratio"] = c["syslog_parsed"] / c["rows"]
    for layer in ("json", "apache", "kv", "stage"):
        m[f"flagship.{layer}_s"] = tf.total_s(f"flagship.{layer}")
    m["flagship.glue_s"] = tf.self_s("flagship.stage")
    m["patterndb.match_s"] = tf.total_s("patterndb.match")
    m["patterndb.matched_ratio"] = c["pdb_matched"] / c["rows"]
    m["enrich.context_s"] = tf.total_s("enrich.context")
    m["enrich.geoip_s"] = tf.total_s("enrich.geoip")
    m["enrich.geoip_hit_ratio"] = c["geo_hit"] / max(c["src_ip"], 1)
    m["route.route_first_s"] = tf.total_s("route.route_first")
    for key, n in sorted(c.items()):
        if key.startswith("route."):
            m[f"route.rows.{key[6:]}"] = n

    tc = Tracer()
    dest_rows, paths = _config_pass(msg_batches, tc)
    tc.dump(os.path.join(span_dir, "spans_config.jsonl"))
    m["config.run_s"] = tc.total_s("config.run")
    m["config.self_s"] = tc.self_s("config.run")
    for layer in ("filter", "parser", "filterx", "deliver"):
        m[f"config.{layer}_s"] = tc.total_s(f"config.{layer}")
    m["config.stage_self_s"] = tc.self_s("config.stage")
    m["config.batch_rows"] = sum(b.num_rows for b in msg_batches) / len(msg_batches)
    for name, n in sorted(dest_rows.items()):
        m[f"config.rows.{name}"] = n
    for name, (ing, egr) in paths.items():
        m[f"config.path.{name}.ingress"] = ing
        m[f"config.path.{name}.egress"] = egr

    compiles = []
    for _ in range(3):
        start = time.perf_counter()
        corpus.load_config()
        compiles.append(time.perf_counter() - start)
    m["config.compile_s"] = statistics.median(compiles)
    return m
