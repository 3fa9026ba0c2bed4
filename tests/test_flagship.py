"""Flagship pipeline e2e tests (the Light-suite pattern: per-sink row
sets + counts, reference tests/light/functional_tests/logpath/)."""

import numpy as np
import pandas as pd
import pytest

from axosyslog_ray.pipelines.flagship import LogPipelineStage, SINK_COLUMNS
from axosyslog_ray.synth import gen_pages_table


@pytest.fixture(scope="module")
def routed_df():
    stage = LogPipelineStage()
    return stage(gen_pages_table(1200)).to_pandas()


def test_every_row_routed_exactly_once(routed_df):
    assert routed_df["route"].notna().all()
    assert set(routed_df["route"]) <= {"errors", "auth", "web", "other"}


def test_sinks_disjoint_and_complete(routed_df):
    assert routed_df.groupby("route").size().sum() == len(routed_df)


def test_route_semantics(routed_df):
    df = routed_df
    errors = df[df["route"] == "errors"]
    assert ((errors["pri"] % 8) <= 3).all()
    auth = df[df["route"] == "auth"]
    assert auth["tags"].map(lambda t: "auth" in list(t)).all()
    # auth rows must NOT be severity<=3 (claimed by final errors route first)
    assert ((auth["pri"] % 8) > 3).all()
    web = df[df["route"] == "web"]
    assert (web["app"] == "apache").all()


def test_apache_rows_parsed(routed_df):
    web = routed_df[routed_df["app"] == "apache"]
    assert len(web) == 200  # family 2 of 6 over 1200 rows
    assert web["src_ip"].notna().all()


def test_enrichment_applied(routed_df):
    assert routed_df["host_tier"].notna().all()  # default selector fills the rest
    top = routed_df[routed_df["host"] == "host000.example.com"]
    assert (top["host_tier"] == "gold").all()


def test_deterministic_across_runs(routed_df):
    again = LogPipelineStage()(gen_pages_table(1200)).to_pandas()
    pd.testing.assert_series_equal(routed_df["route"], again["route"])


def test_sink_columns_stable(routed_df):
    assert set(SINK_COLUMNS) <= set(routed_df.columns)


@pytest.mark.usefixtures("ray_session")
def test_flagship_through_ray_with_sinks(tmp_path):
    import ray.data as rd

    from axosyslog_ray.pipelines.flagship import flagship_routed, run_flagship

    sink_counts, by_lang = run_flagship(n_rows=3000, out_dir=str(tmp_path / "sinks"))
    assert sink_counts["n"].sum() == 3000
    assert by_lang["n"].sum() == 3000
    # per-sink parquet directories exist (partitioned write)
    dirs = {p.name for p in (tmp_path / "sinks").iterdir() if p.is_dir()}
    assert {"route=errors", "route=web"} <= dirs
    # routed rows re-read from a sink match the in-process stage decision
    web = rd.read_parquet(str(tmp_path / "sinks" / "route=web")).to_pandas()
    local = LogPipelineStage()(gen_pages_table(3000)).to_pandas()
    assert sorted(web["url"]) == sorted(local[local["route"] == "web"]["url"])


# sha256 of repr((str(field), column.to_pylist())) per output column, in
# schema order, of LogPipelineStage()(gen_pages_table(16_384, seed=42))
_STAGE_DIGESTS = [
    ("url", "6b7321d984de58943b67c8e26d3bec467908ceb50514fb5845c81735eb370622"),
    ("warc_ts", "6359fa8d49e4b0296087e406e6516b146ebea66df369402ade2324ddfcd97a8c"),
    ("html", "7eb103c9ea56d3dd3f2b20b7cd43f6e9f3944a7cf73a58381c3d40a9660194b9"),
    ("text", "817ce8e496c3ad5634591d52380c115d592d95d88b0dc4bb4d511ce99a194c80"),
    ("lang", "52281d1738e7eac0f8e10310c70b4708e7905fd29502a32871c5251c317b7754"),
    ("pri", "c6f2f8a3f514823a7a9179ad748b2788293df77b37d3300e427febff6f80895b"),
    ("ts_stamp", "bc500dfdd3613a2a4c88e969a70abc9718b8dd3e96059c989e0c721f173c99dd"),
    ("host", "b303591a7b4d6f4335815be133041980d7676338ecf229d02310bbf2e582dd28"),
    ("program", "553fa29832380e39e627090994abe4649406fcc0fbd5fd52abfbc1e82f1bb6f6"),
    ("pid", "b38b2b7077508208fd47a94cb949c39569fd82daa31a24ee865c361158d72f2f"),
    ("message", "1fffd22df003acfe8977a04d89d4ae63729243ca7209fd7d925511783baaf63e"),
    ("syslog_parsed", "0d68962fb16c0aa7e87010da2d19623240a5ddf83e91cb57d74e89916f8bfd70"),
    ("tags", "edd558dc9f30a9506828842a548503f64d705ea45b3a7346e31ed6cc92ee1b4b"),
    ("json_valid", "ca9e8e20cb024f5d4af98d553336ceac5dd268394c5a82594d88576eb1e5c9b4"),
    ("csv_valid", "8a6e5fde334d75ed75b8e80848dfc552dca0391f6abaf8e81a9c6ca638a769d2"),
    ("web_clientip", "cb78b858c7a709e99e59e004b60fa4e44c461422fc90437fffd348da8cdf0498"),
    ("web_status", "04039f625ffadf8d74c1c89431850d0e0b4f344965e0e7e961fb03e0b74cf26f"),
    ("status", "d485a7a8254a5d8d8cffae0e1f81337fa141a404126514ec68b5f8da0794d35d"),
    ("app", "e28bce149a3cf42dffa8aacd9748eea84ee486d8f95fa2f1bc96d5ea6e2c31bb"),
    ("pdb_rule", "7a4f56704dce02a8faf79e928a305c04ebcdab8ccd563765ddc94fbf82bd3ee8"),
    ("pdb_class", "86687d8575164585493e7d2d6a20f569762a656d580da409fa2ce997dd25312f"),
    ("pdb_values", "c3e2b8a3f245291dd5116d437debdb838f6eec79c04006b05d8931e6e3b94ace"),
    ("src_ip", "96836e2dc0b3de260da48b544b7e3bdc3e481bb5647c0008d352afc8cef304a8"),
    ("host_dc", "252f93115ba67b2332c18f5b4e66753bdc10a791761ee27fcb8e2bc11cc662ba"),
    ("host_tier", "69d741b5e55016c0bcaf045050d6cab83eb3405e35893b2ea4cf6745dac6e6ed"),
    ("geo_city", "1c1d4124f6c317a9967a99516ee95293f75a9f56463d9706ad1a698b3009cfe2"),
    ("geo_country", "b37ba99bbc603c11f102869fb6f81b3fd6f2782de5f72448ca8790a0c0888b9c"),
    ("route", "5d59f48d8edd1da7f4b4a87aa39ee84c83e8e975f20e331df2700315d61af2f7"),
]


def test_stage_output_digest():
    """The whole fused-stage output is pinned: every column's name, type,
    nullability, position and values (the golden-route tests pin only
    route URL sets and sink counts, not the enrichment columns)."""
    import hashlib

    t = LogPipelineStage()(gen_pages_table(16_384, seed=42))
    got = [(f.name, hashlib.sha256(repr((str(f), t.column(f.name).to_pylist()))
                                   .encode()).hexdigest()) for f in t.schema]
    assert got == _STAGE_DIGESTS


def test_fast_paths_match_generic_parsers():
    """The flagship's hot-path specializations agree with the generic
    parsers on the candidate rows of one seeded 16,384-row batch."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from axosyslog_ray.pipelines.flagship import (
        fast_apache, fast_json_valid, fast_kv_promote)
    from axosyslog_ray.stages.csv_parser import apache_parser
    from axosyslog_ray.stages.json_parser import JsonParser
    from axosyslog_ray.stages.kv_parser import KvParser
    from axosyslog_ray.stages.syslog import parse_syslog_table

    t = parse_syslog_table(gen_pages_table(16_384, seed=42))
    text = pc.fill_null(t.column("text"), "")
    raw = ~t.column("syslog_parsed").to_numpy(zero_copy_only=False)

    def mask(m):
        return np.asarray(m.to_numpy(zero_copy_only=False)) & raw

    def rows(m):
        return pa.table({"text": text.take(pa.array(np.flatnonzero(m)))})

    looks_apache = mask(pc.match_substring_regex(
        text, r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3} "))
    looks_json = mask(pc.starts_with(text, "{"))
    looks_kv = mask(pc.match_substring(text, "=")) & ~looks_json & ~looks_apache
    ap, js, kv = rows(looks_apache), rows(looks_json), rows(looks_kv)
    assert (ap.num_rows, js.num_rows, kv.num_rows) == (2731, 2730, 2731)

    valid, clientip, status = fast_apache(ap.column("text"))
    want = apache_parser(source_col="text", prefix="web_")(ap)
    assert valid.tolist() == want.column("csv_valid").to_pylist()
    assert clientip.tolist() == want.column("web_clientip").to_pylist()
    assert status.tolist() == want.column("web_status").to_pylist()

    got = fast_json_valid(js.column("text"))
    want = JsonParser(source_col="text")(js)
    assert got.tolist() == want.column("json_valid").to_pylist()

    want = KvParser(source_col="text", promote=["status", "src_ip"])(kv)
    for key in ("status", "src_ip"):
        assert fast_kv_promote(kv.column("text"), key).tolist() \
            == want.column(key).to_pylist()


# generated lines for the fast-path check: random joins of the atoms each
# generic parser treats specially (quotes, escapes, separators, repeated
# keys, stray words, optional apache quote pairs, non-standard JSON)
_KV_ATOMS = ["status=", "src_ip=", "key1=", "200", "404", "10.1.2.3", '"a b"',
             '"a\\nb"', "'q r'", '"x=1"', " ", ", ", ",", "=", " = ", "\t", "\n",
             "\v", "\u00a0", "stray", "x", "\\", '"', "'", "\x00"]
_APACHE_FIELDS = ["1.2.3.4", "-", "[x]", "x", "[a\\]b]", "[", "GET", '"GET / HTTP/1.1"',
                  '"-"', '"ua"', '"a\\"b"', '"x', '"a b"', "200", "0.1", "vh", ""]
_JSON_LINES = ['{"a": 1}', '{"a": NaN}', '{"a": Infinity}', "[1]", "{", "{}",
               '{"a": "\\ud800"}', '{"a": 1}x', '{"a": {"b": [1, 2]}}', "{'a': 1}"]


def _fast_path_lines():
    from hypothesis import strategies as st

    kv = st.lists(st.sampled_from(_KV_ATOMS), max_size=12).map("".join)
    apache = st.lists(st.sampled_from(_APACHE_FIELDS), min_size=9, max_size=13).map(" ".join)
    return st.lists(kv, min_size=1, max_size=8), \
        st.lists(apache, min_size=1, max_size=8), \
        st.lists(st.sampled_from(_JSON_LINES), min_size=1, max_size=4)


def _check_fast_paths(kv_lines, apache_lines, json_lines):
    import pyarrow as pa

    from axosyslog_ray.pipelines.flagship import (
        fast_apache, fast_json_valid, fast_kv_promote)
    from axosyslog_ray.stages.csv_parser import apache_parser
    from axosyslog_ray.stages.json_parser import JsonParser
    from axosyslog_ray.stages.kv_parser import KvParser

    ap = pa.table({"text": pa.array(apache_lines, pa.string())})
    valid, clientip, status = fast_apache(ap.column("text"))
    want = apache_parser(source_col="text", prefix="web_")(ap)
    assert valid.tolist() == want.column("csv_valid").to_pylist()
    assert clientip.tolist() == want.column("web_clientip").to_pylist()
    assert status.tolist() == want.column("web_status").to_pylist()

    kv = pa.table({"text": pa.array(kv_lines, pa.string())})
    want = KvParser(source_col="text", promote=["status", "src_ip"])(kv)
    for key in ("status", "src_ip"):
        assert fast_kv_promote(kv.column("text"), key).tolist() \
            == want.column(key).to_pylist(), key

    js = pa.table({"text": pa.array(json_lines, pa.string())})
    got = fast_json_valid(js.column("text"))
    assert got.tolist() == JsonParser(source_col="text")(js).column("json_valid").to_pylist()


def test_fast_paths_match_generic_parsers_generated():
    """The same agreement on generated lines, including the shapes where
    the RE2 passes alone were wrong: a repeated key (the scanner keeps
    the last value), escapes, a comma not followed by a space, spaces
    around `=`, single quotes, a tab, a bare value glued to stray words,
    and apache lines without the optional quote pairs."""
    from hypothesis import example, given, settings

    kv_s, apache_s, json_s = _fast_path_lines()

    @settings(max_examples=300, deadline=None)
    @given(kv_s, apache_s, json_s)
    @example(["status=200 status=404 x=1", 'status="a\\nb"', "a=1,status=5",
              "foo status = 7", "status='q r'", "status=\ttab", "status=foo bar x=1"],
             ["1.2.3.4 - - x \"GET\" 200 1 \"-\" \"ua\" 0.1 vh",
              "1.2.3.4 - - [x] GET 200 1 - ua 0.1 vh"],
             ['{"a": NaN}'])
    def check(kv_lines, apache_lines, json_lines):
        _check_fast_paths(kv_lines, apache_lines, json_lines)

    check()
