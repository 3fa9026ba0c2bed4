"""One benchmark process, started by run.py.

Modes:
  prep   generate the workload's inputs and reference answers (cached).
  setup  start Ray and produce the first output of a one-batch execution;
         report the seconds since this process was spawned (--t0).
  run    setup, one untimed full-size warm-up pass, then timed passes for
         --seconds; every operation's output is checked after its timer.
  trace  untimed Ray runs with Dataset.stats(), the query mix once, and the
         traced single-threaded replay of every layer (spans.py).

The result is written as JSON to --out. Ray is always shut down in
`finally`; run.py reaps whatever the session leaves behind.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from run import children_of  # noqa: E402

# Corpus rows per workload, in whole 16,384-row batches. config_paths costs
# about twice the flagship per row, so it reads half as many rows to fit
# several passes into one window.
ROWS = {"flagship": 4 * corpus.BATCH_ROWS, "config_paths": 2 * corpus.BATCH_ROWS}
OP_DEADLINE_S = 60.0
OBJECT_STORE_BYTES = 256 << 20


def peak_rss_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def worker_peak_rss_mb() -> float:
    """Largest VmHWM over this driver's Ray worker processes."""
    peak = 0
    for pid in children_of(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            peak = max(peak, peak_rss_kb(pid))
    return peak / 1024


def start_ray(num_cpus: int, temp_dir: str | None) -> None:
    import logging

    import ray
    import ray.data as rd

    from axosyslog_ray.context import tune_read_blocks

    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(address="local", num_cpus=num_cpus, num_gpus=0, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # the same read-block floor bench.py and the query registry use
    tune_read_blocks(num_cpus)


def sink_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(root) for f in fs if f.endswith(".parquet"))


class Op:
    """One timed operation: its wall time and whether its output passed."""

    def __init__(self, name: str, wall: float, ok: bool, rows_out: int, bytes_out: int = 0):
        self.name, self.wall, self.ok = name, wall, ok and wall <= OP_DEADLINE_S
        self.rows_out, self.bytes_out = rows_out, bytes_out


class RoutedWorkload:
    """Shared shape of flagship and config_paths: pages shards -> Ray Data
    pipeline -> RoutedParquetDatasink, per-sink counts merged on the driver."""

    partition_col = "route"
    count_cols: tuple[str, ...] = ("route",)

    def __init__(self, args):
        self.num_cpus = args.num_cpus
        directory = corpus.corpus_dir(args.cache, args.seed, ROWS[self.name])
        self.files = corpus.shard_files(directory)
        self.expected = corpus.load_expected(directory)
        self.rows = self.expected["rows"]
        self.out_dir = os.path.join(args.work, "sink")

    def min_rows_per_file(self) -> int:
        # bench.py's sizing rule: ~2 files per write slot, 25k-150k rows
        return max(25_000, min(150_000, self.rows // (2 * self.num_cpus)))

    def dataset(self, ds):
        raise NotImplementedError

    def execute(self, files, sink_cls=None):
        """-> (wall_s, per-sink counts, sink, routed Dataset)."""
        import ray.data as rd

        from axosyslog_ray.sinks import RoutedParquetDatasink

        shutil.rmtree(self.out_dir, ignore_errors=True)
        start = time.perf_counter()
        routed = self.dataset(rd.read_parquet(files, columns=corpus.PAGE_COLUMNS))
        sink = (sink_cls or RoutedParquetDatasink)(
            self.out_dir, partition_col=self.partition_col, count_cols=self.count_cols,
            min_rows_per_file=self.min_rows_per_file())
        routed.write_datasink(sink)
        counts = sink.counts.groupby(self.partition_col)["n"].sum().to_dict()
        wall = time.perf_counter() - start
        return wall, {k: int(v) for k, v in sorted(counts.items())}, sink, routed

    def expected_counts(self) -> dict[str, int]:
        raise NotImplementedError

    def run_pass(self) -> Op:
        wall, counts, _, _ = self.execute(self.files)
        ok = counts == self.expected_counts() and sum(counts.values()) == self.rows
        if not ok:
            print(f"check failed: {counts} != {self.expected_counts()}", file=sys.stderr)
        return Op(self.name, wall, ok, sum(counts.values()), sink_bytes(self.out_dir))


class Flagship(RoutedWorkload):
    name = "flagship"
    count_cols = ("route", "host")

    def dataset(self, ds):
        from axosyslog_ray.pipelines.flagship import flagship_routed

        return flagship_routed(ds)

    def expected_counts(self):
        return self.expected["flagship_routes"]


class ConfigPaths(RoutedWorkload):
    name = "config_paths"
    partition_col = "dest"
    count_cols = ("dest",)

    def __init__(self, args):
        super().__init__(args)
        self.cfg = corpus.load_config()  # compile_config is part of setup_s

    def dataset(self, ds):
        from axosyslog_ray.config import run_config_on_dataset

        return run_config_on_dataset(self.cfg, ds.rename_columns({"text": "message"}), corpus.CONFIG_SOURCE)

    def expected_counts(self):
        return self.expected["config_rows"]


WORKLOADS = {"flagship": Flagship, "config_paths": ConfigPaths}


def prep(args) -> dict:
    if args.workload == "trace":
        for rows in sorted(set(ROWS.values())):
            corpus.ensure_corpus(args.cache, args.seed, rows)
        import mix

        mix.oracle_answers(os.path.join(args.cache, "oracle_sf0.01.json"))
    else:
        corpus.ensure_corpus(args.cache, args.seed, ROWS[args.workload])
    return {}


def setup(args):
    start_ray(args.num_cpus, args.ray_tmp)
    wl = WORKLOADS[args.workload](args)
    wl.execute(wl.files[:1])  # the first output of a one-batch execution
    return wl, time.time() - args.t0


def measure(args) -> dict:
    wl, setup_s = setup(args)
    wl.run_pass()  # full-size warm-up, untimed
    passes: list[Op] = []
    errors = 0
    end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < end:
        try:
            passes.append(wl.run_pass())
        except Exception:  # a pass that raises is one failed operation
            traceback.print_exc()
            errors += 1
            if errors > 3:
                break
    good = [op for op in passes if op.ok]
    return {
        "rows": wl.rows,
        "attempted": len(passes) + errors,
        "failed": len(passes) - len(good) + errors,
        "passes": [round(op.wall, 4) for op in passes],
        "setup_s": setup_s,
        "metrics": {} if not good else {
            "rows_per_s": statistics.median(wl.rows / op.wall for op in good),
            "sink_bytes_per_row": statistics.median(op.bytes_out / op.rows_out for op in good),
            "driver_peak_rss_mb": peak_rss_kb("self") / 1024,
            "worker_peak_rss_mb": worker_peak_rss_mb(),
        },
    }


_STAT_OP = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed, (\d+) blocks produced")
_STAT_TIME = re.compile(r"^\* (Remote wall|Remote cpu|UDF) time: .*?, ([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> list[dict]:
    """Operators of a `Dataset.stats()` summary with their time totals."""
    ops: list[dict] = []
    for line in text.splitlines():
        m = _STAT_OP.match(line.strip())
        if m:
            ops.append({"name": m.group(1), "tasks": int(m.group(2)), "blocks": int(m.group(3))})
            continue
        m = _STAT_TIME.match(line.strip())
        if m and ops and m.group(1) not in ops[-1]:
            ops[-1][m.group(1)] = float(m.group(2)) * _UNIT[m.group(3)]
    return ops


def ray_layers(args) -> dict[str, float]:
    """ray.* and sinks.* from one untraced flagship run through Ray."""
    from axosyslog_ray.sinks import RoutedParquetDatasink

    merge = []

    class MergeTimedSink(RoutedParquetDatasink):
        def on_write_complete(self, write_result):
            start = time.perf_counter()
            super().on_write_complete(write_result)
            merge.append(time.perf_counter() - start)

    wl = Flagship(args)
    wl.execute(wl.files)  # warm-up
    wall, counts, _, routed = wl.execute(wl.files, MergeTimedSink)
    if counts != wl.expected_counts():  # the step fails: no metrics from a wrong run
        raise RuntimeError(f"flagship counts {counts} != {wl.expected_counts()}")
    ops = parse_stats(routed.stats())
    read = next(op for op in ops if op["name"].startswith("ReadParquet"))
    fused = next(op for op in ops if "MapBatches" in op["name"])
    return {
        "ray.read_s": read["Remote wall"],
        "ray.map_s": fused["Remote wall"],
        "ray.map_cpu_s": fused["Remote cpu"],
        "ray.blocks": read["blocks"],
        "ray.driver_s": wall - sum(op.get("Remote wall", 0.0) for op in ops),
        # map_batches, the column projection and the write run fused in one
        # operator; the write is its remote wall minus the UDF's time
        "sinks.write_s": fused["Remote wall"] - fused.get("UDF", 0.0),
        "sinks.files": sum(f.endswith(".parquet") for _, _, fs in os.walk(wl.out_dir) for f in fs),
        "sinks.bytes": sink_bytes(wl.out_dir),
        "sinks.merge_s": merge[-1],
    }


def config_read_blocks(args) -> int:
    """Blocks an untraced config_paths run through Ray reads its shards
    as. Its map_batches sets no batch_size, so ConfigStage is called once
    per read block; the config replay cuts its batches the same way."""
    wl = ConfigPaths(args)
    _, counts, _, routed = wl.execute(wl.files)
    if counts != wl.expected_counts():
        raise RuntimeError(f"config_paths counts {counts} != {wl.expected_counts()}")
    return next(op for op in parse_stats(routed.stats()) if op["name"].startswith("ReadParquet"))["blocks"]


def query_pass(answers: dict[str, list]) -> list[Op]:
    """One pass over the query mix, each result collected and checked."""
    import mix

    ops = []
    for name in mix.MIX:
        start = time.perf_counter()
        try:
            df = mix.run_query(name)
        except Exception:  # a failing query is a failed operation
            traceback.print_exc()
            ops.append(Op(name, time.perf_counter() - start, False, 0))
            continue
        wall = time.perf_counter() - start
        got = list(mix.canon(df))
        ok = got == answers[name]
        if not ok:
            print(f"check failed: {name} {got} != {answers[name]}", file=sys.stderr)
        ops.append(Op(name, wall, ok, len(df)))
    return ops


def trace(args) -> dict:
    """Per-layer metrics. Operations: the flagship and config_paths runs
    through Ray, each query, and the flagship and config replays, each
    checked like the timed runs."""
    import mix
    import spans

    start_ray(args.num_cpus, args.ray_tmp)
    m = ray_layers(args)
    blocks = config_read_blocks(args)
    answers = mix.oracle_answers(os.path.join(args.cache, "oracle_sf0.01.json"))
    query_pass(answers)  # warm-up
    ops = query_pass(answers)
    for op in ops:
        m[f"query.{op.name}.wall_s"] = op.wall
        m[f"query.{op.name}.rows"] = op.rows_out
    flagship_dir, config_dir = (corpus.corpus_dir(args.cache, args.seed, ROWS[w]) for w in ("flagship", "config_paths"))
    m.update(spans.layer_metrics(corpus.shard_files(flagship_dir), corpus.shard_files(config_dir), blocks, args.work))
    checks = [
        {f"route.rows.{k}": v for k, v in corpus.load_expected(flagship_dir)["flagship_routes"].items()},
        {f"config.rows.{k}": v for k, v in corpus.load_expected(config_dir)["config_rows"].items()},
    ]
    failed = sum(not op.ok for op in ops)
    for want in checks:
        if any(m.get(k) != v for k, v in want.items()):
            print(f"check failed: replay {want}", file=sys.stderr)
            failed += 1
    return {"rows": ROWS["flagship"], "attempted": 2 + len(ops) + len(checks), "failed": failed, "metrics": m}


def versions() -> dict:
    import pyarrow

    out = {"pyarrow": pyarrow.__version__, "python": sys.version.split()[0]}
    try:
        import ray

        out["ray"] = ray.__version__
    except ImportError:
        pass
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prep", "setup", "run", "trace"])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "trace"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--num-cpus", type=int, default=1)
    ap.add_argument("--t0", type=float, default=0.0, help="time.time() when this process was spawned")
    ap.add_argument("--cache", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    try:
        if args.mode == "prep":
            res = prep(args)
        elif args.mode == "setup":
            res = {"setup_s": setup(args)[1]}
        elif args.mode == "run":
            res = measure(args)
        else:
            res = trace(args)
    finally:
        if "ray" in sys.modules:
            import ray

            ray.shutdown()
    if args.mode != "prep":
        res["versions"] = versions()
    with open(args.out, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
