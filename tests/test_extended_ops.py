"""xml parser, value-pairs/format-*, audit hex decode, correlation actions,
group-lines, app parsers."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from axosyslog_ray.config import compile_config
from axosyslog_ray.filterx import FilterX
from axosyslog_ray.functions.templates import Template
from axosyslog_ray.stages.audit_parser import LinuxAuditParser
from axosyslog_ray.stages.xml_parser import XmlParser
from axosyslog_ray.state.correlate import CorrelationConfig, PdbAction, PdbCorrelator, group_lines


def _t(**cols):
    return pa.table(cols)


# ---------------- xml ----------------

def test_xml_flatten_attrs_and_text():
    p = XmlParser()
    r = p(_t(message=['<a x="1"><b>hello</b><b>world</b><c/></a>', "not xml"])).to_pylist()
    assert dict(r[0]["xv"]) == {"a._x": "1", "a.b": "hello,world"}
    assert r[0]["xml_valid"] and not r[1]["xml_valid"]


def test_xml_exclude_and_strip():
    p = XmlParser(exclude_tags=["skip*"], strip_whitespaces=True)
    r = p(_t(message=["<r><skipme>x</skipme><keep>  pad  </keep></r>"])).to_pylist()[0]
    assert dict(r["xv"]) == {"r.keep": "pad"}


def test_xml_windows_eventlog_data_names():
    p = XmlParser(windows_eventlog=True)
    r = p(_t(message=['<Event><EventData><Data Name="User">bob</Data></EventData></Event>'])).to_pylist()[0]
    assert dict(r["xv"])["Event.EventData.User"] == "bob"


# ---------------- value-pairs / formatters ----------------

MSG = _t(host=["h1"], program=["app"], message=["hello world"], pri=pa.array([38], type=pa.uint16()),
         extra=["e1"], dot_field=["d"])

# the core scope without the two pri-derived macros
CORE = "--scope core --exclude PRIORITY --exclude FACILITY"


def _render(spec, t=MSG):
    return Template(spec).eval(t).tolist()


def test_value_pairs_scope_and_rekey():
    out = _render(f"$(format-flat-json {CORE} --rekey H* --add-prefix log.)")[0]
    assert out == '{"log.HOST":"h1","MESSAGE":"hello world","PROGRAM":"app"}'


def test_format_json_nested():
    import json

    out = _render(f"$(format-json {CORE} --rekey * --add-prefix log.)")[0]
    assert json.loads(out) == {"log": {"HOST": "h1", "PROGRAM": "app", "MESSAGE": "hello world"}}


def test_format_flat_and_welf():
    flat = _render(f"$(format-flat-json {CORE})")[0]
    assert '"HOST":"h1"' in flat
    welf = _render(f"$(format-welf {CORE})")[0]
    assert 'MESSAGE="hello world"' in welf and "HOST=h1" in welf


def _fx(src, t):
    return FilterX(src)(t)


def test_format_cef_and_parse_cef_roundtrip():
    t = _t(message=["something bad"], pdb_rule=["rule-x"], host=["h1"])
    out = _fx('$cef = format_cef({"cef_version": "0", "device_vendor": "axosyslog-ray",'
              ' "device_product": "engine", "device_version": "1.0",'
              ' "device_event_class_id": $pdb_rule, "event_name": $message,'
              ' "agent_severity": "7", "src": $host});'
              '$back = parse_cef($cef); $cls = $back.device_event_class_id;'
              '$src = $back.src;', t)
    assert out.column("cef").to_pylist() == [
        "CEF:0|axosyslog-ray|engine|1.0|rule-x|something bad|7|src=h1"]
    assert out.column("cls").to_pylist() == ["rule-x"]
    assert out.column("src").to_pylist() == ["h1"]


def test_format_leef():
    t = _t(pdb_rule=["r1"], host=["h"])
    out = _fx('$leef = format_leef({"leef_version": "1.0", "vendor_name": "axosyslog-ray",'
              ' "product_name": "engine", "product_version": "1.0",'
              ' "event_id": $pdb_rule, "srcHost": $host});', t)
    assert out.column("leef").to_pylist() == ["LEEF:1.0|axosyslog-ray|engine|1.0|r1|srcHost=h"]


# ---------------- audit hex decode ----------------

def test_audit_hex_decoding():
    # pins modules/kvformat/tests/test_linux_audit_scanner.c
    p = LinuxAuditParser(source_col="message")
    r = p(_t(message=['type=EXECVE argc=2 a0="ls" a1=2F62696E2F7368202D6C pid=123'])).to_pylist()[0]
    d = dict(r["kv"])
    assert d["a1"] == "/bin/sh -l"  # hex-decoded (contains a space byte)
    assert d["a0"] == "ls"  # quoted stays literal
    assert d["pid"] == "123"  # short number untouched


def test_audit_hex_decoding_reference_pins():
    # test_linux_audit_scanner.c corpus, byte-for-byte
    p = LinuxAuditParser(source_col="message")

    def one(line):
        return dict(p(_t(message=[line])).to_pylist()[0]["kv"])

    # all-printable bytes: kernel would not have hex-encoded -> literal
    assert one("proctitle=41607E")["proctitle"] == "41607E"
    # space (0x20) forces encoding -> decoded
    assert one("proctitle=41204236")["proctitle"] == "A B6"
    # high bytes (UTF-8) -> decoded
    arv = "árvíztűrőtükörfúrógép".encode().hex().upper()
    assert one(f"proctitle={arv}")["proctitle"] == "árvíztűrőtükörfúrógép"
    # NUL separates argv words -> TAB
    hx = "/bin/sh\x00-e\x00/etc/init.d/postfix\x00status".encode().hex().upper()
    assert one(f"proctitle={hx}")["proctitle"] == \
        "/bin/sh\t-e\t/etc/init.d/postfix\tstatus"
    # odd number of hex chars -> literal
    assert one("proctitle=41204")["proctitle"] == "41204"
    # non-hexcoded field name -> literal even when decodable
    assert one("foo=41204236")["foo"] == "41204236"


# ---------------- correlation actions / group-lines ----------------

def _ctx_df():
    ts = pd.to_datetime([
        "2026-01-01 00:00:00", "2026-01-01 00:00:10", "2026-01-01 00:00:20",
        "2026-01-01 01:00:00",
    ])
    return pd.DataFrame({"ts_stamp": ts, "ctx": ["c1"] * 4, "message": ["l1", "l2", "l3", "l4"],
                         "kind": ["a", "b", "a", "a"]})


def test_correlation_timeout_action_per_context():
    cfg = CorrelationConfig(key=["ctx"], timeout=300, actions=[
        PdbAction(on="timeout", fields={"n": "context-length", "joined": "join:message: "}),
    ])
    out = PdbCorrelator(cfg).apply(_ctx_df())
    assert len(out) == 2
    assert out["n"].tolist() == [3, 1]
    assert out["joined"].tolist() == ["l1 l2 l3", "l4"]


def test_correlation_match_action_with_condition_and_ratelimit():
    cfg = CorrelationConfig(key=["ctx"], timeout=300, actions=[
        PdbAction(on="match", condition=lambda s: (s["kind"] == "a").to_numpy(),
                  rate_limit=1, fields={"last_msg": "last:message"}),
    ])
    out = PdbCorrelator(cfg).apply(_ctx_df())
    # context 1 has two 'a' rows but rate_limit=1 -> one emission; context 2 one
    assert len(out) == 2
    assert out["last_msg"].tolist() == ["l1", "l4"]


def test_correlation_having_condition_gates_timeout():
    cfg = CorrelationConfig(key=["ctx"], timeout=300, actions=[
        PdbAction(on="timeout", condition=lambda s: len(s) >= 2, fields={"n": "context-length"}),
    ])
    out = PdbCorrelator(cfg).apply(_ctx_df())
    assert out["n"].tolist() == [3]


@pytest.mark.usefixtures("ray_session")
def test_group_lines_through_ray():
    import ray.data as rd

    df = pd.DataFrame({
        "host": ["h"] * 4,
        "ts_stamp": pd.to_datetime(["2026-01-01 00:00:00", "2026-01-01 00:00:01",
                                    "2026-01-01 00:10:00", "2026-01-01 00:10:01"]),
        "message": ["Traceback:", "  line 1", "Traceback:", "  line 2"],
    })
    out = group_lines(rd.from_pandas(df), "host", timeout=60).to_pandas()
    assert sorted(out["message"]) == ["Traceback:\n  line 1", "Traceback:\n  line 2"]
    assert out["n_lines"].tolist() == [2, 2]


# ---------------- app parsers ----------------

def _config_run(decls, template, messages):
    cfg = compile_config("""
source s { example-msg-generator(num(1)); };
%s
destination d { file("o.log" template("%s")); };
log { source(s); parser(p); destination(d); };
""" % (decls, template))
    return cfg.run(sources={"s": pa.table({"message": messages, "pri": [13] * len(messages)})})


def test_cisco_parser():
    r = _config_run("parser p { cisco-parser(); };",
                    "${.cisco.facility}|${.cisco.severity}|${.cisco.mnemonic}|$MSG",
                    ["foo: %SYS-5-CONFIG_I: Configured from console", "plain"])
    assert r.processed("d") == 1  # a line that is no cisco message drops
    assert r.rendered("d") == ["SYS|5|CONFIG_I|%SYS-5-CONFIG_I: Configured from console"]


PANOS_CONFIG = ("<14>Apr 14 16:54:18 paloalto.test.net 1,2020/04/14 16:54:18,"
                "unknown,CONFIG,0,0,2020/04/14 16:54:18,10.0.10.55,,set,admin,"
                "Web,Succeeded, deviceconfig system,127,0x0,0,0,0,0,,paloalto")


def test_panos_parser_common_fields():
    r = _config_run("parser p { syslog-parser(); panos-parser(); };",
                    "${.panos.receive_time}|${.panos.serial}|${.panos.type}|${.panos.subtype}",
                    [PANOS_CONFIG])
    assert r.rendered("d") == ["2020/04/14 16:54:18|unknown|CONFIG|0"]


def test_app_parser_chain_first_match_wins():
    # app-parser(): an application takes a message when its filter and
    # parser accept it; one that no application takes drops
    r = _config_run("""
application cisco[syslog] {
    filter { message(": %"); };
    parser { cisco-parser(); };
};
application paloalto[syslog] {
    filter { message(",TRAFFIC,"); };
    parser { csv-parser(columns(".pa.future_use", ".pa.receive_time", ".pa.serial",
                                ".pa.type", ".pa.rest") flags(greedy)); };
};
parser p { app-parser(topic(syslog)); };
""", "${.app.name}|${.pa.type}", ["foo: %SYS-5-X: m", "1,t,s,TRAFFIC,end,x", "neither at all"])
    assert r.rendered("d") == ["cisco|", "paloalto|TRAFFIC"]


# ---------------- big-big hash join ----------------

@pytest.mark.usefixtures("ray_session")
def test_hash_join_inner_and_left():
    import ray.data as rd

    from axosyslog_ray.join import hash_join

    l = rd.from_pandas(pd.DataFrame({"k": [1, 2, 2, 3], "a": ["x", "y", "z", "w"]}))
    r = rd.from_pandas(pd.DataFrame({"k": [2, 3, 3, 4], "b": [10, 20, 30, 40]}))
    inner = hash_join(l, r, "k").to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True)
    exp = (
        pd.DataFrame({"k": [1, 2, 2, 3], "a": ["x", "y", "z", "w"]})
        .merge(pd.DataFrame({"k": [2, 3, 3, 4], "b": [10, 20, 30, 40]}), on="k")
        .sort_values(["k", "a", "b"]).reset_index(drop=True)
    )
    assert inner[["k", "a", "b"]].equals(exp)
    assert str(inner["b"].dtype) == "int64"  # types restored through the NaN-padded union
    left = hash_join(l, r, "k", how="left").to_pandas()
    assert len(left) == 5  # k=1 kept with null b
    assert left[left["k"] == 1]["b"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_arrow_schema_no_execution_on_parquet(tmp_path):
    # VERDICT r3 #7: a parquet-rooted dataset's schema must come from
    # metadata only — the batch-peek fallback (which partially executes
    # the input) must never run
    import ray.data as rd

    from axosyslog_ray.join import _arrow_schema

    path = str(tmp_path / "t.parquet")
    pa.parquet.write_table(pa.table({"k": [1, 2], "v": ["a", "b"]}), path)
    ds = rd.read_parquet(path)

    def boom(*a, **kw):
        raise AssertionError("batch peek executed the dataset")

    ds.iter_batches = boom
    sch = _arrow_schema(ds)
    assert sch.field("k").type == pa.int64()
    assert sch.field("v").type == pa.string()


@pytest.mark.usefixtures("ray_session")
def test_hash_join_overlapping_columns_suffixed():
    import ray.data as rd

    from axosyslog_ray.join import hash_join

    l = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": ["L1", "L2"]}))
    r = rd.from_pandas(pd.DataFrame({"k": [2], "v": ["R2"]}))
    out = hash_join(l, r, "k").to_pandas()
    assert list(out.columns) == ["k", "v_l", "v_r"]
    assert out.iloc[0].tolist() == [2, "L2", "R2"]


def test_format_date_function():
    import pyarrow as pa

    from axosyslog_ray.functions.templates import Template

    t = pa.table({"secs": ["1767225600"]})  # 2026-01-01 00:00:00 UTC
    assert Template("$(format-date %Y-%m-%d $secs)").eval(t).tolist() == ["2026-01-01"]


def test_kv_greedy_values_mode():
    from axosyslog_ray.stages.kv_parser import KvParser

    # the scanner's unquoted values run to the next `key=` boundary
    p = KvParser()
    r = p(_t(message=["key1=a b c key2=d e, key3=x"]))
    assert dict(r.to_pylist()[0]["kv"]) == {"key1": "a b c", "key2": "d e", "key3": "x"}


def test_xml_input_length_guard():
    p = XmlParser(max_input_len=50)
    r = p(_t(message=["<a>" + "x" * 100 + "</a>", "<a>ok</a>"])).to_pylist()
    assert not r[0]["xml_valid"] and r[1]["xml_valid"]


def test_correlate_count_if():
    cfg = CorrelationConfig(key=["ctx"], timeout=300, actions=[
        PdbAction(on="timeout", fields={"n_a": "count-if:kind=a"}),
    ])
    out = PdbCorrelator(cfg).apply(_ctx_df())
    assert out["n_a"].tolist() == [2, 1]


def test_geoip_nested_cidr_longest_prefix():
    """A /16 nested in a /8: IPs inside the /16 get its attrs; IPs in the
    /8 but past the /16's end still get the OUTER attrs (mmdb
    longest-prefix semantics — ADVICE r1)."""
    import pyarrow as pa
    from axosyslog_ray.enrich.geoip import GeoIP

    g = GeoIP(ranges=[
        ("10.0.0.0/8", {"country": "US"}),
        ("10.5.0.0/16", {"country": "CA"}),
    ], source_col="ip", prefix="geo_")
    t = pa.table({"ip": ["10.5.1.2", "10.6.0.1", "10.0.0.1", "11.0.0.1"]})
    out = g(t).column("geo_country").to_pylist()
    assert out == ["CA", "US", "US", None]


def test_tags_parser_parses_and_unions():
    import pyarrow as pa
    from axosyslog_ray.stages.tags_parser import TagsParser

    t = pa.table({
        "message": ['a,b,"c,with comma",', "x", ""],
        "tags": pa.array([["pre"], None, ["keep"]], type=pa.list_(pa.string())),
    })
    out = TagsParser()(t).column("tags").to_pylist()
    assert out[0] == ["a", "b", "c,with comma", "pre"]
    assert out[1] == ["x"]
    assert out[2] == ["keep"]


def test_tags_parser_creates_tags_column():
    import pyarrow as pa
    from axosyslog_ray.stages.tags_parser import TagsParser

    t = pa.table({"message": ["t2,t1,t1"]})
    assert TagsParser()(t).column("tags").to_pylist() == [["t1", "t2"]]


@pytest.mark.usefixtures("ray_session")
def test_asof_join_backward_and_unmatched():
    import pandas as pd
    import ray.data as rd

    from axosyslog_ray.join import asof_join

    left = pd.DataFrame({
        "k": [1, 1, 2, 3],
        "ts": pd.to_datetime(["2026-01-01 10:00", "2026-01-01 12:00",
                              "2026-01-01 10:30", "2026-01-01 09:00"]),
        "eid": [100, 101, 102, 103],
    })
    right = pd.DataFrame({
        "k": [1, 1, 2],
        "ts": pd.to_datetime(["2026-01-01 09:30", "2026-01-01 11:00", "2026-01-01 10:30"]),
        "price": [5.0, 7.0, 9.0],
    })
    out = asof_join(rd.from_pandas(left), rd.from_pandas(right), on="ts", by="k").to_pandas()
    out = out.sort_values("eid").reset_index(drop=True)
    # eid 100 -> 09:30 row (5.0); 101 -> 11:00 (7.0); 102 -> equal ts inclusive (9.0);
    # 103 -> no preceding right row -> null
    assert out["price"].tolist()[:3] == [5.0, 7.0, 9.0]
    assert pd.isna(out["price"].iloc[3])


def test_hopping_window_counts_explode_math():
    import pandas as pd
    import pyarrow as pa

    from axosyslog_ray.aggregate import hopping_window_counts
    import ray.data as rd

    ts = pd.to_datetime(["2026-01-01 00:30:00", "2026-01-01 01:30:00"])
    ds = rd.from_pandas(pd.DataFrame({"ts": ts}))
    out = hopping_window_counts(ds, ts_col="ts", size_s=7200, hop_s=3600, final="driver")
    out = out.sort_values("window_start").reset_index(drop=True)
    # event@00:30 -> windows starting 00:00 and 23:00(prev day); event@01:30 -> 01:00, 00:00
    e0 = int(pd.Timestamp("2026-01-01 00:00:00").timestamp())
    got = dict(zip(out["window_start"].astype("int64"), out["n"].astype(int)))
    assert got[e0] == 2  # both events inside [00:00, 02:00)
    assert got[e0 - 3600] == 1 and got[e0 + 3600] == 1


def test_valuepairs_scopes_and_validation():
    import pyarrow as pa
    import pytest as _pytest

    from axosyslog_ray.functions.valuepairs import value_pairs_foreach

    t = pa.table({"host": ["h"], "message": ["m"], "custom_nv": ["x"], "pri": [13]})
    # builtin nv pairs go by their macro names; pri is no nv pair
    assert value_pairs_foreach(t, "nv-pairs") == [{"HOST": "h", "MESSAGE": "m", "custom_nv": "x"}]
    assert {"custom_nv", "HOST", "PRIORITY"} <= set(value_pairs_foreach(t, "everything")[0])
    with _pytest.raises(ValueError, match="scope"):
        value_pairs_foreach(t, "no-such-scope")


def test_format_leef_escapes_delimiters():
    import pyarrow as pa

    t = pa.table({"host": ["a\tb|c"], "z": ["x"]})
    out = _fx('$leef = format_leef({"event_id": "evt", "h": $host, "z": $z});',
              t).column("leef").to_pylist()[0]
    # attr value's TAB is escaped to literal \t, so the only real tab is
    # the attr separator — tokenizing on tab yields exactly 2 attrs
    assert out.endswith("|h=a\\tb|c\tz=x")
    assert out.split("|evt|")[1].count("\t") == 1


def test_correlate_stable_schema_across_groups(ray_session):
    import pandas as pd
    import ray.data as rd

    from axosyslog_ray.state.correlate import CorrelationConfig, PdbAction, correlate

    cfg = CorrelationConfig(
        key=["k"], timeout=60, ts_col="ts_stamp",
        actions=[
            PdbAction(on="timeout", fields={"n": "context-length"}),
            PdbAction(on="match", condition=lambda df: (df["v"] > 100).any(),
                      fields={"big": "max:v"}),
        ],
    )
    df = pd.DataFrame({
        "k": ["a", "a", "b"],
        "ts_stamp": pd.to_datetime(["2026-01-01"] * 3),
        "v": [1, 200, 2],  # group a fires match; group b does not
    })
    out = correlate(rd.from_pandas(df), cfg).to_pandas()
    assert "big" in out.columns and "n" in out.columns  # schema stable


def test_xml_rejects_dtd_and_keeps_tail_text():
    import pyarrow as pa

    from axosyslog_ray.stages.xml_parser import XmlParser

    xp = XmlParser()
    # billion-laughs-style doc: rejected outright, never expanded
    bomb = ('<!DOCTYPE x [<!ENTITY a "aaaa"><!ENTITY b "&a;&a;&a;&a;">]>'
            "<x>&b;</x>")
    r = xp(pa.table({"message": [bomb]})).to_pylist()[0]
    assert not r["xml_valid"]
    # mixed content: tail text after a child reaches the parent's key
    r2 = xp(pa.table({"message": ["<a>x<b>inner</b>y</a>"]})).to_pylist()[0]
    d = dict(r2["xv"])
    assert d["a"] == "x,y" and d["a.b"] == "inner"


def test_regexp_parser_optional_groups_still_match():
    import pyarrow as pa

    from axosyslog_ray.stages.regexp_parser import RegexpParser

    p = RegexpParser(r"^(?P<user>\w+)?-suffix$")
    out = p(pa.table({"message": ["-suffix", "bob-suffix", "nope"]}))
    assert out.column("re_matched").to_pylist() == [True, True, False]
    assert out.column("user").to_pylist() == [None, "bob", None]


def test_set_value_condition_new_and_numeric_columns():
    import pyarrow as pa

    from axosyslog_ray.route import ColFilter
    from axosyslog_ray.stages.rewrite import set_value

    import numpy as np

    cond = ColFilter(lambda t: np.array([True, False]))
    t = pa.table({"pri": pa.array([38, 13], type=pa.uint16())})
    # new column: failing row stays UNSET
    out = set_value(t, "newf", "X", condition=cond)
    assert out.column("newf").to_pylist() == ["X", None]
    # numeric column target: failing row keeps its (stringified) value
    out = set_value(t, "pri", "99", condition=cond)
    assert out.column("pri").to_pylist() == ["99", "13"]


def test_set_severity_rejects_out_of_range():
    import pyarrow as pa

    from axosyslog_ray.stages.rewrite import set_facility, set_severity

    t = pa.table({"pri": pa.array([38], type=pa.uint16()), "message": ["m"]})
    assert set_severity(t, "12").column("pri").to_pylist() == [38]  # unchanged
    assert set_severity(t, "2").column("pri").to_pylist() == [34]
    assert set_facility(t, "99").column("pri").to_pylist() == [38]  # unchanged


def test_null_pri_macros_render_empty():
    import pyarrow as pa

    from axosyslog_ray.functions.templates import Template

    t = pa.table({"pri": pa.array([38, None], type=pa.uint16())})
    assert Template("$FACILITY/$SEVERITY").eval(t).tolist() == ["auth/info", "/"]
    assert Template("[$PRI|$SEVERITY_NUM]").eval(t).tolist() == ["[38|6]", "[|]"]


@pytest.mark.usefixtures("ray_session")
def test_ann_stages_survive_empty_blocks():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from axosyslog_ray.ann import ann_topk, ivf_ann_topk, lsh_ann_topk

    rng = np.random.RandomState(2)
    m = rng.normal(size=(50, 8))
    df = pd.DataFrame({"vec_id": range(50), "embedding": list(m), "keep": [i % 2 == 0 for i in range(50)]})
    # a filter creating empty blocks upstream of the ANN scan
    ds = rd.from_pandas(df).repartition(8).filter(lambda r: r["keep"])
    q = np.asarray([m[0]])
    assert len(ann_topk(ds, q, k=3)) == 3
    assert len(lsh_ann_topk(ds, q, k=3, n_bits=4, n_tables=8)) >= 1
    assert len(ivf_ann_topk(ds, q, k=3, nlist=4, nprobe=4)) == 3


@pytest.mark.usefixtures("ray_session")
def test_asof_join_forward_ties_and_pandas_parity():
    """The Arrow searchsorted merge must match pd.merge_asof row-for-row,
    including tie handling (backward: LAST tied right row; forward:
    FIRST) and the forward direction."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from axosyslog_ray.join import asof_join

    rng = np.random.default_rng(7)
    n_l, n_r = 400, 300
    left = pd.DataFrame({
        "k": rng.integers(0, 8, n_l),
        "ts": rng.integers(0, 50, n_l).astype("int64"),
        "eid": np.arange(n_l, dtype="int64"),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 8, n_r),
        "ts": rng.integers(0, 50, n_r).astype("int64"),
        "price": rng.normal(size=n_r).round(3),
    })
    for direction in ("backward", "forward"):
        got = asof_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="ts", by="k", direction=direction,
                        num_buckets=4).to_pandas()
        got = got.sort_values("eid").reset_index(drop=True)
        want = pd.merge_asof(left.sort_values("ts", kind="mergesort"),
                             right.sort_values("ts", kind="mergesort"),
                             on="ts", by="k", direction=direction)
        want = want.sort_values("eid").reset_index(drop=True)
        pd.testing.assert_series_equal(got["price"], want["price"],
                                       check_names=False), direction


@pytest.mark.usefixtures("ray_session")
def test_asof_join_multikey_and_schema_arg():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from axosyslog_ray.join import asof_join

    left = pd.DataFrame({
        "a": ["x", "x", "y"], "b": [1, 2, 1],
        "ts": [10, 20, 30], "eid": [0, 1, 2]})
    right = pd.DataFrame({
        "a": ["x", "x", "y"], "b": [1, 2, 1],
        "ts": [5, 25, 30], "v": [1.0, 2.0, 3.0]})
    lsch = pa.schema([("a", pa.string()), ("b", pa.int64()),
                      ("ts", pa.int64()), ("eid", pa.int64())])
    rsch = pa.schema([("a", pa.string()), ("b", pa.int64()),
                      ("ts", pa.int64()), ("v", pa.float64())])
    out = asof_join(rd.from_pandas(left), rd.from_pandas(right),
                    on="ts", by=["a", "b"],
                    left_schema=lsch, right_schema=rsch).to_pandas()
    out = out.sort_values("eid").reset_index(drop=True)
    # (x,1)@10 -> 5 (1.0); (x,2)@20 -> none before 20? right (x,2)@25 -> no
    # backward match; (y,1)@30 -> equal ts inclusive (3.0)
    assert out["v"].tolist()[0] == 1.0
    assert pd.isna(out["v"].iloc[1])
    assert out["v"].tolist()[2] == 3.0
