"""Sessions (grouping-by), suppress, rate-limit, checkpoint/resume tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from axosyslog_ray.state.checkpoint import CheckpointManifest, run_partitions
from axosyslog_ray.state.sessions import GroupingBy
from axosyslog_ray.state.suppress import RateLimit, Suppress


def _df(ts_list, **cols):
    return pd.DataFrame({"ts_stamp": pd.to_datetime(ts_list), **cols})


def test_sessions_split_on_timeout_gap():
    g = _df(
        ["2026-01-01 00:00:00", "2026-01-01 00:01:00", "2026-01-01 00:20:00", "2026-01-01 00:21:00"],
        host=["h"] * 4, v=[1, 2, 3, 4],
    )
    gb = GroupingBy("host", timeout=300, aggregates={"n": "count", "total": "sum:v"})
    out = gb(g)
    assert len(out) == 2
    assert out["n"].tolist() == [2, 2]
    assert out["total"].tolist() == [3, 7]
    assert out["session_id"].tolist() == [0, 1]


def test_sessions_having_gate():
    g = _df(["2026-01-01 00:00:00", "2026-01-01 01:00:00", "2026-01-01 01:00:30"], host=["h"] * 3)
    gb = GroupingBy("host", timeout=300, having=lambda s: len(s) >= 2)
    out = gb(g)
    assert len(out) == 1 and out["count"].iloc[0] == 2


def test_sessions_trigger_closes_early():
    g = _df(
        ["2026-01-01 00:00:00", "2026-01-01 00:00:10", "2026-01-01 00:00:20"],
        host=["h"] * 3, kind=["a", "end", "a"],
    )
    gb = GroupingBy("host", timeout=300, trigger=lambda df: df["kind"] == "end")
    out = gb(g)
    assert out["count"].tolist() == [2, 1]  # trigger row ends session 0


def test_sessions_where_prefilter():
    g = _df(["2026-01-01 00:00:00", "2026-01-01 00:00:10"], host=["h"] * 2, keep=[True, False])
    gb = GroupingBy("host", timeout=300, where=lambda df: df["keep"])
    assert gb(g)["count"].tolist() == [1]


def test_sessions_unsorted_input_sorted_by_event_time():
    g = _df(["2026-01-01 00:20:00", "2026-01-01 00:00:00"], host=["h"] * 2)
    gb = GroupingBy("host", timeout=300)
    out = gb(g)
    assert len(out) == 2
    assert str(out["session_start"].iloc[0]) == "2026-01-01 00:00:00"


def test_suppress_collapses_duplicates_within_window():
    g = _df(
        ["2026-01-01 00:00:00", "2026-01-01 00:00:10", "2026-01-01 00:00:20", "2026-01-01 00:10:00"],
        url=["a", "b", "c", "d"],
    )
    out = Suppress(60)(g)
    # rows 2,3 suppressed into row 1; row 4 outside window kept
    assert out["url"].tolist() == ["a", "d"]
    assert out["repeat_count"].tolist() == [2, 0]


def test_rate_limit_token_bucket():
    ts = [f"2026-01-01 00:00:{i:02d}.{j}00000" for i in range(2) for j in range(5)]
    g = _df(ts, url=[str(i) for i in range(10)])
    out = RateLimit(rate=2, per_seconds=1.0)(g)
    # 2 admitted per 1s window
    assert len(out) == 4
    assert out["url"].tolist() == ["0", "1", "5", "6"]


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_resume_skips_done_partitions(tmp_path):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    src = tmp_path / "in"
    src.mkdir()
    for p in ("p0", "p1", "p2"):
        pq.write_table(pa.table({"part": [p] * 100, "id": list(range(100))}),
                       str(src / f"{p}.parquet"))
    calls = []

    def build(files):
        calls.append(os.path.basename(files[0]))
        return rd.read_parquet(files)

    out = str(tmp_path / "out")
    r1 = run_partitions(str(src), out, 3, build)
    assert sorted(calls) == ["p0.parquet", "p1.parquet", "p2.parquet"]
    assert r1["run"]["00000"]["rows"] == 100
    # simulate restart: partitions 0/1 done, partition 2 never finished
    os.remove(os.path.join(out, "_manifest", "00002.done.json"))
    calls.clear()
    r2 = run_partitions(str(src), out, 3, build)
    assert calls == ["p2.parquet"]  # no reprocessing of completed partitions
    assert sorted(r2["skipped"]) == ["00000", "00001"]
    assert r2["skipped"]["00000"]["rows"] == 100 and r2["run"]["00002"]["rows"] == 100
    ck = CheckpointManifest(out)
    assert ck.done_parts() == {"00000", "00001", "00002"}
    # outputs complete and readable
    import glob

    files = [f for p in ck.done_parts() for f in glob.glob(ck.part_dir(p) + "/*.parquet")]
    total = rd.read_parquet(files).count()
    assert total == 300


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_rows_by_dir_equal_the_footers(tmp_path):
    """The manifest's per-directory rows are the sink's count-on-write
    return, and they equal what the Parquet footers say is on disk, the
    null partition's directory included. Without a partition column the
    files stay flat under part=<k>/."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from axosyslog_ray.sinks import HIVE_NULL

    src = tmp_path / "in"
    src.mkdir()
    routes = ["web", None, "auth", "web", None, "web"]
    for i in range(3):
        pq.write_table(pa.table({"route": routes * (i + 1), "id": list(range(6 * (i + 1))),
                                 "k": pa.array([1, None, 2] * 2 * (i + 1), pa.int64())}),
                       str(src / f"s{i}.parquet"))

    def footers(d):
        return sum(pq.read_metadata(f).num_rows for f in glob.glob(os.path.join(d, "*.parquet")))

    for col in ("route", "k"):  # an int key with nulls too
        out = str(tmp_path / col)
        res = run_partitions(str(src), out, 2, rd.read_parquet, col)
        ck = CheckpointManifest(out)
        assert set(res["run"]) == {"00000", "00001"}
        for pid, meta in res["run"].items():
            on_disk = {os.path.basename(d): footers(d)
                       for d in glob.glob(os.path.join(ck.part_dir(pid), f"{col}=*"))}
            assert meta["rows_by_dir"] == on_disk
            assert meta["rows"] == sum(on_disk.values())
        assert sum(m["rows_by_dir"].get(f"{col}={HIVE_NULL}", 0)
                   for m in res["run"].values()) == 12
        assert sum(m["rows"] for m in res["run"].values()) == 36

    flat = str(tmp_path / "flat")
    res = run_partitions(str(src), flat, 2, rd.read_parquet)
    for pid, meta in res["run"].items():
        part = CheckpointManifest(flat).part_dir(pid)
        assert [e for e in os.listdir(part) if not e.endswith(".parquet")] == []
        assert meta["rows_by_dir"] == {".": footers(part)} and meta["rows"] == footers(part)
    assert sum(m["rows"] for m in res["run"].values()) == 36


def test_run_partitions_rejects_uri_paths(tmp_path):
    """The listing, the manifest and the atomic rename are local-only: a
    URI input or output raises naming its scheme instead of listing
    nothing or writing under a local `s3:` directory."""
    from axosyslog_ray.state.checkpoint import list_files

    with pytest.raises(ValueError, match="s3://"):
        list_files("s3://bucket/crawl/pages/")
    with pytest.raises(ValueError, match="gs://"):
        list_files([str(tmp_path), "gs://bucket/docs/*.parquet"])
    with pytest.raises(ValueError, match="s3://"):
        run_partitions(str(tmp_path), "s3://bucket/routed/v1", 2, lambda files: None)
    assert not (tmp_path / "s3:").exists()


def test_checkpoint_atomic_no_partial_dirs(tmp_path):
    import os

    ck = CheckpointManifest(str(tmp_path / "o"))

    class Boom:
        def write_datasink(self, sink):
            os.makedirs(sink.root)
            raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        ck.write_partition("px", Boom())
    assert not ck.is_done("px")
    assert not os.path.exists(ck.part_dir("px"))  # only tmp dir leaked, final absent


def test_rate_limit_zero_blocks_everything():
    g = _df(["2026-01-01 00:00:00", "2026-01-01 00:01:00"], url=["a", "b"])
    out = RateLimit(rate=0, per_seconds=1.0)(g)
    assert len(out) == 0


def test_sessions_sort_key_does_not_break_gap_detection():
    # sort_key orders WITHIN sessions; the timeout gap must use event time
    g = _df(
        ["2026-01-01 10:00:00", "2026-01-01 00:00:00", "2026-01-01 10:00:30"],
        host=["h"] * 3, seq=[1, 2, 3], v=["a", "b", "c"],
    )
    gb = GroupingBy("host", timeout=60, sort_key="seq",
                    aggregates={"vals": "values:v", "n": "count"})
    out = gb(g).sort_values("session_id").reset_index(drop=True)
    # event-time order: 00:00 | gap | 10:00, 10:00:30 -> 2 sessions
    assert len(out) == 2
    assert out["n"].tolist() == [1, 2]
    assert str(out["session_start"].iloc[1]) == "2026-01-01 10:00:00"
    assert str(out["session_end"].iloc[1]) == "2026-01-01 10:00:30"
    # within session 1, values follow seq order (a before c)
    assert out["vals"].iloc[1] == "a,c"


def test_key_segments_null_keys_group_together():
    import numpy as np

    from axosyslog_ray.shuffle import key_segments

    g = pd.DataFrame({"k": [1.0, np.nan, np.nan, 2.0]})
    seg = key_segments(g, ["k"])
    assert seg.tolist() == [True, True, False, True]  # nulls = ONE segment


def test_multiline_joiner_empty_batch_and_passthrough():
    import pyarrow as pa

    from axosyslog_ray.sources.text import MultiLineJoiner

    j = MultiLineJoiner(mode="indented")
    empty = pa.table({"text": pa.array([], type=pa.string()),
                      "warc_ts": pa.array([], type=pa.timestamp("us"))})
    out = j(empty)
    assert out.num_rows == 0 and "warc_ts" in out.column_names
    t = pa.table({"text": ["head", "  cont", "next"], "src_file": ["f1", "f1", "f2"]})
    out = j(t)
    assert out.column("text").to_pylist() == ["head\n  cont", "next"]
    assert out.column("src_file").to_pylist() == ["f1", "f2"]  # carried through


def test_write_pages_regenerates_on_config_change(tmp_path):
    import glob

    import pyarrow.parquet as pq

    from axosyslog_ray.synth import write_pages

    d = str(tmp_path / "pages")
    write_pages(d, n_rows=100, shards=4)
    total1 = sum(pq.read_metadata(f).num_rows for f in glob.glob(d + "/*.parquet"))
    assert total1 == 100
    write_pages(d, n_rows=200, shards=4)  # config change must regenerate
    total2 = sum(pq.read_metadata(f).num_rows for f in glob.glob(d + "/*.parquet"))
    assert total2 == 200
