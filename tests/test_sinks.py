"""Concrete destination driver tests (program/http/sql/kafka Datasinks)."""

import glob
import json
import os

import pyarrow as pa
import pytest

from axosyslog_ray.sinks import HttpDatasink, KafkaDatasink, ProgramDatasink, SqlDatasink


@pytest.fixture
def ds100(ray_session):
    import ray.data as rd

    return rd.from_items([{"host": f"h{i%5}", "value": i} for i in range(100)]).repartition(4)


@pytest.mark.usefixtures("ray_session")
def test_program_sink_spawns_child_per_task(ds100, tmp_path):
    out = str(tmp_path / "prog_{shard}.txt")
    ds100.write_datasink(ProgramDatasink(["/bin/sh", "-c", f"cat > {out}"],
                                         template="$host $value"))
    files = glob.glob(str(tmp_path / "prog_*.txt"))
    assert len(files) >= 1
    lines = [l for f in files for l in open(f).read().splitlines()]
    assert len(lines) == 100 and lines[0].startswith("h")


@pytest.mark.usefixtures("ray_session")
def test_program_sink_nonzero_exit_raises(ds100):
    with pytest.raises(Exception, match="exited|RayTaskError|false"):
        ds100.write_datasink(ProgramDatasink(["/bin/false"]))


def test_http_sink_batches_and_retries():
    calls = []
    fails = {"n": 2}

    def transport(url, payload, headers):
        if fails["n"] > 0:
            fails["n"] -= 1
            raise ConnectionError("flaky")
        calls.append((url, payload))

    sink = HttpDatasink("http://example.invalid/ingest", batch_lines=30,
                        transport=transport, backoff_sec=0.0)
    t = pa.table({"v": list(range(100))})

    class Ctx:
        task_idx = 0

    res = sink.write([t], Ctx())
    assert res == {"rows": 100, "posts": 4}  # 30+30+30+10
    assert len(calls) == 4
    body = calls[0][1].decode().splitlines()
    assert json.loads(body[0]) == {"v": 0}


def test_http_sink_gives_up_after_retries():
    def transport(url, payload, headers):
        raise ConnectionError("down")

    sink = HttpDatasink("http://x", retries=2, transport=transport, backoff_sec=0.0)

    class Ctx:
        task_idx = 0

    with pytest.raises(RuntimeError, match="after 2 tries"):
        sink.write([pa.table({"v": [1]})], Ctx())


@pytest.mark.usefixtures("ray_session")
def test_sql_sink_loads_one_transaction(ds100, tmp_path):
    import duckdb

    db = str(tmp_path / "out.duckdb")
    ds100.write_datasink(SqlDatasink(db, "events_out"))
    con = duckdb.connect(db)
    n, s = con.sql("SELECT COUNT(*), SUM(value) FROM events_out").fetchone()
    con.close()  # duckdb caches same-path connections per process
    assert (n, s) == (100, sum(range(100)))
    # append mode accumulates
    ds100.write_datasink(SqlDatasink(db, "events_out"))
    con2 = duckdb.connect(db)
    assert con2.sql("SELECT COUNT(*) FROM events_out").fetchone()[0] == 200
    con2.close()


def test_kafka_sink_partitions_by_key_template():
    produced = []

    class FakeProducer:
        def produce(self, topic, key, value):
            produced.append((topic, key, value))

        def flush(self):
            pass

    sink = KafkaDatasink("logs", key_template="$host", template="$value",
                         producer_factory=FakeProducer)

    class Ctx:
        task_idx = 0

    t = pa.table({"host": ["a", "b"], "value": [1, 2]})
    sink.write([t], Ctx())
    assert produced == [("logs", "a", "1"), ("logs", "b", "2")]


def test_kafka_default_factory_is_honest():
    with pytest.raises(NotImplementedError, match="kafka client"):
        KafkaDatasink("t").write([pa.table({"v": [1]})], type("C", (), {"task_idx": 0})())


@pytest.mark.usefixtures("ray_session")
def test_routed_parquet_sink_counts_match_readback(tmp_path):
    import ray.data as rd

    from axosyslog_ray.sinks import RoutedParquetDatasink

    # a string and an int partition column: directory names render each
    # value as numpy prints it
    for routes, dir_names in [
        (["web", "auth", "errors"], ["route=auth", "route=errors", "route=web"]),
        ([2, 0, 1], ["route=0", "route=1", "route=2"]),
    ]:
        root = tmp_path / f"sinks_{type(routes[0]).__name__}"
        # host=None for part of one route: null group keys are real sinks and
        # must survive the driver merge (pandas groupby drops NaN by default)
        rows = [{"route": routes[i % 3],
                 "host": None if i % 3 == 0 else f"h{i % 7}",
                 "value": i} for i in range(1000)]
        ds = rd.from_items(rows).repartition(6)
        sink = RoutedParquetDatasink(str(root), partition_col="route",
                                     count_cols=("route", "host"), min_rows_per_file=200)
        ds.write_datasink(sink)

        # fused counts == a read-back groupby over the written files
        back = rd.read_parquet(str(root)).to_pandas()
        expect = back.groupby(["route", "host"], dropna=False).size().rename("n").reset_index()

        def canon(df):
            df = df.copy()
            df["host"] = df["host"].fillna("<null>")
            return df.sort_values(["route", "host"]).reset_index(drop=True).astype(str)

        assert canon(sink.counts).equals(canon(expect))
        assert int(sink.counts["n"].sum()) == 1000

        # hive layout: partition dirs, partition column restored on read
        dirs = sorted(os.path.basename(p) for p in glob.glob(str(root / "route=*")))
        assert dirs == dir_names
        assert set(back.columns) >= {"route", "host", "value"}


@pytest.mark.usefixtures("ray_session")
def test_routed_parquet_sink_null_partition_rows_written(tmp_path):
    import ray.data as rd

    from axosyslog_ray.sinks import RoutedParquetDatasink

    rows = [{"route": None if i % 4 == 0 else "web", "host": f"h{i % 3}", "v": i}
            for i in range(400)]
    sink = RoutedParquetDatasink(str(tmp_path / "s"), partition_col="route",
                                 count_cols=("route",), min_rows_per_file=100)
    rd.from_items(rows).repartition(4).write_datasink(sink)
    assert int(sink.counts["n"].sum()) == 400
    back = rd.read_parquet(str(tmp_path / "s")).to_pandas()
    # null-route rows land in the hive null dir — no data loss (they used
    # to vanish: pc.equal(x, None) is never True). Readers see hive's
    # standard null sentinel (pyarrow only maps it back to null when the
    # reader passes an explicit null_fallback partitioning).
    assert len(back) == 400
    nulls = back["route"].isna() | (back["route"] == "__HIVE_DEFAULT_PARTITION__")
    assert int(nulls.sum()) == 100


@pytest.mark.usefixtures("ray_session")
def test_routed_parquet_sink_high_cardinality_partitions(tmp_path):
    """1k distinct partition values: one sort + contiguous slices per
    value (a filter per distinct value re-scans the bundle 1000x).
    Counts and read-back contents must survive the split."""
    import ray.data as rd

    from axosyslog_ray.sinks import RoutedParquetDatasink

    n = 5000
    rows = [{"route": f"r{i % 1000:04d}", "host": f"h{i % 7}", "v": i}
            for i in range(n)]
    sink = RoutedParquetDatasink(str(tmp_path / "s"), partition_col="route",
                                 count_cols=("route",), min_rows_per_file=2500)
    rd.from_items(rows).repartition(2).write_datasink(sink)
    assert int(sink.counts["n"].sum()) == n
    assert len(sink.counts) == 1000
    assert set(sink.counts["n"]) == {5}
    back = rd.read_parquet(str(tmp_path / "s")).to_pandas()
    assert len(back) == n
    assert sorted(back["v"]) == list(range(n))
    assert back.groupby("route")["v"].count().eq(5).all()


class _Ctx:
    task_idx = 3


def test_routed_parquet_write_returns_numpy_counts(tmp_path):
    """write() hands Ray numpy columns (sized by nbytes), never Python
    rows, and each partition file keeps the bundle's row order."""
    import numpy as np
    import pyarrow.parquet as pq

    from axosyslog_ray.sinks import RoutedParquetDatasink

    t = pa.table({"route": ["web", "auth", None, "web", "auth", "web"],
                  "host": ["a", None, "b", None, "a", "a"],
                  "v": [0, 1, 2, 3, 4, 5]})
    sink = RoutedParquetDatasink(str(tmp_path), count_cols=("route", "host"))
    ret = sink.write([t.slice(0, 4), t.slice(4)], _Ctx())
    assert isinstance(ret, dict) and set(ret) == {"route", "host", "count_all"}
    assert all(isinstance(v, np.ndarray) for v in ret.values())
    got = sorted(zip(ret["route"].tolist(), ret["host"].tolist(), ret["count_all"].tolist()),
                 key=repr)
    assert got == sorted([("web", "a", 2), ("web", None, 1), ("auth", None, 1),
                          ("auth", "a", 1), (None, "b", 1)], key=repr)

    files = {os.path.relpath(p, tmp_path): pq.read_table(p).column("v").to_pylist()
             for p in glob.glob(str(tmp_path / "*" / "*.parquet"))}
    assert files == {"route=web/part_00003_0000.parquet": [0, 3, 5],
                     "route=auth/part_00003_0000.parquet": [1, 4],
                     "route=__HIVE_DEFAULT_PARTITION__/part_00003_0000.parquet": [2]}
    # a bundle big enough that an unstable sort would reorder rows
    big = pa.table({"route": [f"r{i * 7919 % 13}" for i in range(5000)],
                    "host": ["a"] * 5000, "v": list(range(5000))})
    sink.write([big], _Ctx())
    parts = glob.glob(str(tmp_path / "route=r*" / "part_00003_0001.parquet"))
    assert len(parts) == 13
    for p in parts:
        v = pq.read_table(p).column("v").to_pylist()
        assert v == sorted(v)

    from ray.data.datasource.datasink import WriteResult

    sink.on_write_complete(WriteResult(6, 0, [ret, None]))
    assert list(sink.counts.columns) == ["route", "host", "n"]
    assert sink.counts["n"].dtype == np.int64 and int(sink.counts["n"].sum()) == 6
    assert sink.counts["host"].isna().sum() == 2


def test_routed_parquet_empty_write_and_run(tmp_path):
    from ray.data.datasource.datasink import WriteResult

    from axosyslog_ray.sinks import RoutedParquetDatasink

    sink = RoutedParquetDatasink(str(tmp_path), count_cols=("route", "host"))
    empty = pa.table({"route": pa.array([], pa.string()), "host": pa.array([], pa.string())})
    assert sink.write([], _Ctx()) is None
    assert sink.write([empty], _Ctx()) is None
    sink.on_write_complete(WriteResult(0, 0, []))
    assert list(sink.counts.columns) == ["route", "host", "n"] and len(sink.counts) == 0


def test_templated_text_sink_null_partition(tmp_path):
    from axosyslog_ray.sinks import TemplatedTextDatasink

    t = pa.table({"route": ["web", None, "web", None], "m": ["a", "b", "c", "d"]})
    sink = TemplatedTextDatasink(str(tmp_path), template="$m", partition_col="route")
    assert sorted(sink.write([t], _Ctx())) == [("__NULL__", 2), ("web", 2)]
    assert open(tmp_path / "route=__NULL__" / "part_00003_0000.log").read() == "b\nd\n"
    assert open(tmp_path / "route=web" / "part_00003_0000.log").read() == "a\nc\n"


def test_templated_text_sink_byte_parity(ray_session, tmp_path):
    """file() literal form: rendered template lines, one line per
    message, partitioned by route."""
    import glob

    import ray.data as rd

    from axosyslog_ray.functions.templates import Template
    from axosyslog_ray.sinks import TemplatedTextDatasink

    t = pa.table({"host": ["a", "b", "a", "c"],
                  "message": ["m1", "m2", "m3", "m4"],
                  "route": ["web", "err", "web", "err"]})
    root = str(tmp_path / "logs")
    sink = TemplatedTextDatasink(root, template="${HOST} ${MESSAGE}",
                                 partition_col="route")
    rd.from_arrow(t).repartition(2).write_datasink(sink)
    got = {}
    for d in sorted(glob.glob(root + "/route=*")):
        lines = []
        for f in sorted(glob.glob(d + "/*.log")):
            lines.extend(open(f).read().splitlines())
        got[d.split("=")[-1]] = sorted(lines)
    assert got == {"err": ["b m2", "c m4"], "web": ["a m1", "a m3"]}
    assert dict(zip(sink.counts["partition"], sink.counts["n"])) == \
           {"err": 2, "web": 2}


def test_templated_text_sink_flat_json_lines(ray_session, tmp_path):
    import glob
    import json as _json

    import ray.data as rd

    from axosyslog_ray.sinks import TemplatedTextDatasink

    t = pa.table({"a": [1, 2], "b": ["x", "y"]})
    root = str(tmp_path / "flat")
    sink = TemplatedTextDatasink(root)  # no template -> JSONL
    rd.from_arrow(t).write_datasink(sink)
    lines = []
    for f in sorted(glob.glob(root + "/*.log")):
        lines.extend(open(f).read().splitlines())
    assert sorted(_json.loads(x)["a"] for x in lines) == [1, 2]


def _paged_table(n: int = 300) -> pa.Table:
    """Every column kind the routed sink's page rule tells apart, with a
    null partition value."""
    base = 1_700_000_000_000_000
    return pa.table({
        "route": pa.array([None if i % 5 == 0 else ("web", "auth")[i % 2] for i in range(n)]),
        "ts": pa.array([None if i % 7 == 0 else base + 1_000_000 * i for i in range(n)],
                       pa.timestamp("us")),
        "never": pa.array([None] * n, pa.timestamp("us")),
        "pri": pa.array([i % 191 for i in range(n)], pa.uint16()),
        "host": pa.array([None if i % 11 == 0 else f"host{i % 13}" for i in range(n)]),
        "tags": pa.array([None if i % 9 == 0 else [f"t{j}" for j in range(i % 3)]
                          for i in range(n)], pa.list_(pa.string())),
        "sdata": pa.array([[(f"k{i % 4}", f"v{i % 6}")] if i % 3 else [] for i in range(n)],
                          pa.map_(pa.string(), pa.string())),
        "geo": pa.array([{"city": f"c{i % 5}", "asn": i % 17} for i in range(n)],
                        pa.struct([("city", pa.string()), ("asn", pa.int32())])),
    })


def _routed_files(t: pa.Table, root) -> dict:
    """Write `t` through one routed sink task -> {file: its partition's rows}."""
    import pyarrow.compute as pc

    from axosyslog_ray.sinks import RoutedParquetDatasink

    RoutedParquetDatasink(str(root), count_cols=("route",)).write([t], _Ctx())
    out = {}
    for value in t.column("route").unique().to_pylist():
        name = "__HIVE_DEFAULT_PARTITION__" if value is None else value
        mask = pc.is_null(t["route"]) if value is None else pc.equal(t["route"], value)
        out[root / f"route={name}" / "part_00003_0000.parquet"] = (
            t.filter(mask).drop_columns(["route"]))
    assert sorted(glob.glob(str(root / "*" / "*.parquet"))) == sorted(map(str, out))
    return out


def _chunks(path) -> dict:
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups == 1
    return {md.row_group(0).column(i).path_in_schema: md.row_group(0).column(i)
            for i in range(md.num_columns)}


def test_routed_parquet_page_options_follow_column_types(tmp_path):
    """zstd everywhere; top-level timestamps DELTA_BINARY_PACKED with no
    dictionary page; dictionary on every other leaf, nested ones too
    (pyarrow matches these options by leaf path); min/max statistics on
    timestamp and integer leaves only, none on string leaves."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    files = _routed_files(_paged_table(), tmp_path)
    assert len(files) == 3
    for path, rows in files.items():
        chunks = _chunks(path)
        assert sorted(chunks) == ["geo.asn", "geo.city", "host", "never", "pri",
                                  "sdata.key_value.key", "sdata.key_value.value",
                                  "tags.list.element", "ts"]
        assert {c.compression for c in chunks.values()} == {"ZSTD"}
        for leaf in ("ts", "never"):
            assert "DELTA_BINARY_PACKED" in chunks[leaf].encodings, leaf
            assert "RLE_DICTIONARY" not in chunks[leaf].encodings, leaf
            assert not chunks[leaf].has_dictionary_page, leaf
        for leaf in ("pri", "host", "tags.list.element", "sdata.key_value.key",
                     "sdata.key_value.value", "geo.city", "geo.asn"):
            assert "RLE_DICTIONARY" in chunks[leaf].encodings, leaf
            assert chunks[leaf].has_dictionary_page, leaf
        for leaf in ("ts", "pri", "geo.asn"):
            assert chunks[leaf].is_stats_set and chunks[leaf].statistics.has_min_max, leaf
        assert chunks["never"].is_stats_set and not chunks["never"].statistics.has_min_max
        assert chunks["ts"].statistics.min == pc.min(rows["ts"]).as_py()
        for leaf in ("host", "tags.list.element", "sdata.key_value.key",
                     "sdata.key_value.value", "geo.city"):
            assert not chunks[leaf].is_stats_set, leaf

        back = pq.read_table(path)
        assert back.equals(rows) and back.schema.equals(rows.schema)
        assert duckdb.sql(f"select count(*), min(ts) from '{path}'").fetchone() == (
            rows.num_rows, pc.min(rows["ts"]).as_py())


def test_routed_parquet_page_options_without_timestamps(tmp_path):
    """No timestamp column: no column gets a delta encoding, and every
    leaf keeps its dictionary under zstd."""
    import pyarrow.parquet as pq

    t = _paged_table().drop_columns(["ts", "never"])
    for path, rows in _routed_files(t, tmp_path).items():
        chunks = _chunks(path)
        assert {c.compression for c in chunks.values()} == {"ZSTD"}
        assert all("RLE_DICTIONARY" in c.encodings and c.has_dictionary_page
                   for c in chunks.values())
        assert [p for p, c in chunks.items() if c.is_stats_set] == ["pri", "geo.asn"]
        assert pq.read_table(path).equals(rows)
