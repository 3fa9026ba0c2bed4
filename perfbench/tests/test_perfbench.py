"""Tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

- The flagship pin: seed 42 / 600,000 rows routes auth 33110 / errors
  147778 / other 319112 / web 100000 (ROADMAP.md).
- No process started by the benchmark outlives it: after a normal run,
  after a run whose step crashes with Ray up, after a run whose every
  pass fails its check (which still prints `correct: false` with its
  counts), and after SIGTERM mid-run.
- orders_q3_shipping does not finish at num_cpus=1 (a strict expected
  failure, so a fix makes this test fail until the marker is removed).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import run  # noqa: E402

TAG = "PERFBENCH_TEST_TAG"


def tagged(tag: str) -> list[int]:
    """Live processes whose environment carries TAG=tag."""
    needle = f"{TAG}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle in fh.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.fixture(scope="module")
def checkout():
    """A throw-away checkout: BENCHMARK.json, the benchmark's files and a
    link to the package, under a short path so Ray's socket paths fit."""
    root = tempfile.mkdtemp(prefix="pb")
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), root)
    shutil.copytree(BENCH, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns(".cache", ".work", ".ray", "__pycache__", "tests"))
    os.symlink(os.path.join(REPO, "axosyslog_ray"), os.path.join(root, "axosyslog_ray"))
    yield root
    shutil.rmtree(root, ignore_errors=True)


def start(checkout: str, tag: str, seconds: int, seed: int = 5) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "flagship", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, **{TAG: tag}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_flagship_pin_seed42_600k_rows():
    import numpy as np

    from axosyslog_ray.synth import gen_pages_batch

    rows = 600_000
    batches = (gen_pages_batch(np.arange(lo, min(lo + corpus.BATCH_ROWS, rows), dtype=np.uint64), 42)
               .select(corpus.PAGE_COLUMNS) for lo in range(0, rows, corpus.BATCH_ROWS))
    assert corpus.replay_flagship(batches) == {
        "auth": 33110, "errors": 147778, "other": 319112, "web": 100000}


def test_normal_run_leaves_no_process(checkout):
    tag = uuid.uuid4().hex
    proc = start(checkout, tag, seconds=1)
    out, err = proc.communicate(timeout=240)
    assert proc.returncode == 0, err[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert tagged(tag) == []


def test_failing_run_leaves_no_process(checkout):
    # a corpus whose only shard is not Parquet: the run step fails inside
    # its first Ray Data read, with the Ray session up
    seed = 999
    bad = corpus.corpus_dir(os.path.join(checkout, "perfbench", ".cache"), seed, 4 * corpus.BATCH_ROWS)
    os.makedirs(bad, exist_ok=True)
    with open(os.path.join(bad, "pages-00000.parquet"), "wb") as fh:
        fh.write(b"not parquet")
    with open(os.path.join(bad, "expected.json"), "w") as fh:
        json.dump({"seed": seed, "rows": 4 * corpus.BATCH_ROWS, "flagship_routes": {}}, fh)
    tag = uuid.uuid4().hex
    proc = start(checkout, tag, seconds=1, seed=seed)
    out, err = proc.communicate(timeout=240)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in out
    assert tagged(tag) == []


def test_failed_checks_report_incorrect(checkout):
    # a real corpus with wrong reference counts: every pass runs, fails its
    # check, and the run still reports what it attempted
    seed = 998
    good = corpus.ensure_corpus(os.path.join(checkout, "perfbench", ".cache"), seed, 4 * corpus.BATCH_ROWS)
    expected = corpus.load_expected(good)
    expected["flagship_routes"] = {"auth": 1}
    with open(os.path.join(good, "expected.json"), "w") as fh:
        json.dump(expected, fh)
    tag = uuid.uuid4().hex
    proc = start(checkout, tag, seconds=1, seed=seed)
    out, err = proc.communicate(timeout=240)
    assert proc.returncode == 5, err[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert tagged(tag) == []


def test_sigterm_mid_run_leaves_no_process(checkout):
    tag = uuid.uuid4().hex
    proc = start(checkout, tag, seconds=60)
    deadline = time.monotonic() + 120
    try:
        # wait until a Ray worker of this run exists
        while time.monotonic() < deadline and proc.poll() is None:
            pids = tagged(tag)
            cmds = []
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as fh:
                        cmds.append(fh.read())
                except OSError:
                    pass
            if any(c.startswith(b"ray::") for c in cmds):
                break
            time.sleep(0.2)
        assert proc.poll() is None, "the run ended before a Ray worker started"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 128 + signal.SIGTERM, err[-3000:]
    assert '"correct"' not in out
    assert tagged(tag) == []


Q3_DEADLINE_S = 90
Q3_SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import ray
ray.init(address="local", num_cpus=1, num_gpus=0, include_dashboard=False, logging_level="ERROR")
try:
    import duckdb
    import mix
    got = mix.run_query("orders_q3_shipping")
    con = duckdb.connect()
    for t in mix.TABLES:
        con.execute(f"CREATE VIEW {{t}} AS SELECT * FROM read_parquet('{{mix.DATA_DIR}}/{{t}}.parquet')")
    sys.exit(0 if mix.canon(got) == mix.canon(con.execute(mix.oracle_sql("orders_q3_shipping")).df()) else 1)
finally:
    ray.shutdown()
"""


@pytest.mark.xfail(strict=True, raises=TimeoutError, reason=(
    "orders_q3_shipping hangs at num_cpus=1: no result within 90 s on the "
    "committed sf0.01 tables (nor after 200 s at sf0.1); at num_cpus=2 the same "
    "probe matches the DuckDB oracle in about 12 s"))
def test_q3_shipping_finishes_at_one_cpu():
    sup = run.Supervisor(time.monotonic() + Q3_DEADLINE_S)
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONPATH=REPO)
    try:
        code = sup.run([sys.executable, "-c", Q3_SCRIPT.format(bench=BENCH)], env)
    except run.Deadline:
        code = None
    finally:
        left = sup.clean(grace=0.0)
    assert left == []
    if code is None:
        raise TimeoutError(f"no result within {Q3_DEADLINE_S} s")
    assert code == 0, f"exit code {code}"
