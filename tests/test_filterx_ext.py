"""FilterX extension function tests: parse_*/format_* family, casts,
misc builtins (reference modules/{csvparser,kvformat,cef,xml}/filterx-*
and lib/filterx/filterx-globals.c registrations)."""

import json

import pyarrow as pa
import pytest

from axosyslog_ray.filterx import FilterX


def _t(**cols):
    return pa.table(cols)


def _run(src, table):
    return FilterX(src)(table)


# -- parse_csv / format_csv --------------------------------------------------

def test_parse_csv_list_and_dict():
    t = _t(m=["a,b,c", "x,,z", None])
    out = _run('$l = parse_csv($m); $d = parse_csv($m, columns=["f1","f2","f3"]);'
               '$f2 = $d["f2"];', t)
    assert out.column("l").to_pylist() == [["a", "b", "c"], ["x", "", "z"], None]
    assert out.column("f2").to_pylist() == ["b", "", None]


def test_parse_csv_greedy_and_mismatch():
    t = _t(m=["a b c d", "only two"])
    out = _run('$d = parse_csv($m, columns=["h","rest"], delimiter=" ", greedy=true);'
               '$r = $d["rest"];', t)
    assert out.column("r").to_pylist() == ["b c d", "two"]
    # non-greedy column-count mismatch -> unset (reference eval error)
    out2 = _run('$d = parse_csv($m, columns=["a","b","c"]); $ok = isset($d);',
                _t(m=["1,2", "1,2,3"]))
    assert out2.column("ok").to_pylist() == [False, True]


def test_parse_csv_quotes_dialect():
    t = _t(m=['"a,1",b', '"he said ""hi""",c'])
    out = _run('$l = parse_csv($m, dialect="escape-double-char");', t)
    assert out.column("l").to_pylist() == [["a,1", "b"], ['he said "hi"', "c"]]


def test_format_csv():
    t = _t(m=["a,b,c"])
    out = _run('$d = parse_csv($m, columns=["x","y","z"]);'
               '$s = format_csv($d, columns=["z","x"], delimiter="|");'
               '$l = parse_csv($m); $s2 = format_csv($l, delimiter=";");', t)
    assert out.column("s").to_pylist() == ["c|a"]
    assert out.column("s2").to_pylist() == ["a;b;c"]


# -- parse_kv / format_kv ----------------------------------------------------

def test_parse_kv_defaults():
    t = _t(m=['k1=v1, k2="quoted v", k3=', "no pairs here"])
    out = _run('$d = parse_kv($m); $k2 = $d["k2"];', t)
    assert out.column("k2").to_pylist() == ["quoted v", None]
    assert out.column("d").to_pylist()[0]["k1"] == "v1"


def test_parse_kv_custom_separators_and_stray():
    t = _t(m=["a:1;b:2;junk;c:3"])
    out = _run('$d = parse_kv($m, value_separator=":", pair_separator=";",'
               ' stray_words_key="stray"); $b = $d["b"]; $s = $d["stray"];', t)
    assert out.column("b").to_pylist() == ["2"]
    # the scanner's stray span runs up to the next key's start — the
    # ';' between 'junk' and 'c' is part of it (kv-scanner.c
    # _extract_stray_word trims spaces only)
    assert out.column("s").to_pylist() == ["junk;"]


def test_parse_kv_reference_conformance():
    # transcribed from modules/kvformat/tests/test_filterx_func_parse_kv.c
    out = _run("$d = parse_kv($m);", _t(m=["foo=bar, bar=baz"]))
    assert out.column("d").to_pylist() == [{"foo": "bar", "bar": "baz"}]
    out = _run('$d = parse_kv($m, pair_separator="-=|=-");',
               _t(m=["foo=bar-=|=-bar=baz"]))
    assert out.column("d").to_pylist() == [{"foo": "bar", "bar": "baz"}]
    out = _run('$d = parse_kv($m, stray_words_key="straywords");',
               _t(m=["foo=bar, lookslikenonKV bar=baz"]))
    assert out.column("d").to_pylist() == [
        {"foo": "bar", "bar": "baz", "straywords": "lookslikenonKV"}]


def test_format_kv():
    t = _t(m=["a=1, b=2"])
    out = _run('$s = format_kv(parse_kv($m));'
               '$s2 = format_kv(parse_kv($m), value_separator=":", pair_separator=" ");', t)
    assert out.column("s").to_pylist() == ["a=1, b=2"]
    assert out.column("s2").to_pylist() == ["a:1 b:2"]


# -- parse_cef / parse_leef / format_cef / format_leef -----------------------

CEF = "CEF:0|Vendor|Product|1.0|100|Thing happened|5|src=10.0.0.1 act=blocked msg=hello\\=world"


def test_parse_cef():
    out = _run("$d = parse_cef($m); $src = $d.src; $ver = $d.cef_version;"
               "$name = $d.event_name; $msg = $d.msg;", _t(m=[CEF, "not cef"]))
    assert out.column("ver").to_pylist() == ["0", None]
    assert out.column("src").to_pylist() == ["10.0.0.1", None]
    assert out.column("name").to_pylist() == ["Thing happened", None]
    assert out.column("msg").to_pylist() == ["hello=world", None]


def test_parse_cef_separate_extensions():
    out = _run('$d = parse_cef($m, separate_extensions=true);'
               '$src = $d.extensions.src; $top = $d["src"];', _t(m=[CEF]))
    assert out.column("src").to_pylist() == ["10.0.0.1"]
    assert out.column("top").to_pylist() == [None]


def test_parse_cef_escaped_backslash_before_pipe():
    # device_product 'C:\' is CEF-encoded as 'C:\\' — must still split
    line = "CEF:0|vendor|C:\\\\|1.0|cls|name|5|src=1.2.3.4"
    out = _run("$d = parse_cef($m); $prod = $d.device_product; $src = $d.src;",
               _t(m=[line]))
    assert out.column("prod").to_pylist() == ["C:\\"]
    assert out.column("src").to_pylist() == ["1.2.3.4"]


LEEF1 = "LEEF:1.0|IBM|QRadar|8.7|12345|src=10.0.0.5\tdst=2.1.2.2\tspt=1232"
LEEF2 = "LEEF:2.0|IBM|QRadar|8.7|12345|^|src=10.0.0.5^dst=2.1.2.2"
LEEF2HEX = "LEEF:2.0|IBM|QRadar|8.7|12345|x09|src=10.0.0.5\tdst=2.1.2.2"


def test_parse_leef():
    out = _run("$d = parse_leef($m); $v = $d.leef_version; $src = $d.src; $dst = $d.dst;",
               _t(m=[LEEF1, LEEF2, LEEF2HEX]))
    assert out.column("v").to_pylist() == ["1.0", "2.0", "2.0"]
    assert out.column("src").to_pylist() == ["10.0.0.5"] * 3
    assert out.column("dst").to_pylist() == ["2.1.2.2"] * 3


def test_format_cef_leef_roundtrip():
    out = _run("$s = format_cef(parse_cef($m));", _t(m=[CEF]))
    assert out.column("s").to_pylist() == [CEF]
    out2 = _run("$s = format_leef(parse_leef($m));", _t(m=[LEEF1, LEEF2]))
    assert out2.column("s").to_pylist() == [LEEF1, LEEF2]


# -- parse_xml / format_xml --------------------------------------------------

def test_parse_xml_rules():
    cases = {
        "<foo></foo>": {"foo": ""},
        '<foo bar="123" baz="bad"/>': {"foo": {"@bar": "123", "@baz": "bad"}},
        '<foo bar="123">baz</foo>': {"foo": {"@bar": "123", "#text": "baz"}},
        "<foo>bar<baz>123</baz></foo>": {"foo": {"#text": "bar", "baz": "123"}},
        "<foo>bar<a></a>baz</foo>": {"foo": {"#text": "barbaz", "a": ""}},
        "<r><x>1</x><x>2</x></r>": {"r": {"x": ["1", "2"]}},
    }
    # one batch per case: heterogeneous dict shapes can't share one
    # Arrow struct column (the engine's string fallback would kick in)
    for xml, want in cases.items():
        out = _run("$d = parse_xml($m);", _t(m=[xml]))
        assert out.column("d").to_pylist() == [want], xml


def test_parse_xml_invalid_is_unset():
    out = _run("$d = parse_xml($m); $ok = isset($d);", _t(m=["<oops", "<a>1</a>"]))
    assert out.column("ok").to_pylist() == [False, True]


def test_format_xml_roundtrip():
    # attributes re-render single-quoted, like the reference
    # (functional pin: test_parse_xml_format_xml -> "<a><b attr='attr_val'>...")
    xml = '<event id="7"><name>login</name><tags><t>a</t><t>b</t></tags></event>'
    out = _run("$s = format_xml(parse_xml($m));", _t(m=[xml]))
    assert out.column("s").to_pylist() == [xml.replace('"7"', "'7'")]


def test_parse_windows_eventlog_xml():
    xml = ('<Event><System><EventID>4624</EventID></System>'
           '<EventData><Data Name="User">bob</Data>'
           '<Data Name="Ip">10.1.1.1</Data></EventData></Event>')
    out = _run("$d = parse_windows_eventlog_xml($m);"
               "$u = $d.Event.EventData.Data.User;", _t(m=[xml]))
    assert out.column("u").to_pylist() == ["bob"]


# -- casts + misc ------------------------------------------------------------

def test_casts():
    t = _t(s=["", "x", None], n=[0, 2, 3])
    out = _run("$bs = bool($s); $bn = bool($n); $by = bytes($s);", t)
    assert out.column("bs").to_pylist() == [False, True, False]
    assert out.column("bn").to_pylist() == [False, True, True]
    assert out.column("by").to_pylist() == [b"", b"x", None]


def test_datetime_cast_and_repr():
    # object-datetime.c typecasts (test_object_datetime.c): INTEGER
    # epochs are MICROSECONDS, double epochs are seconds, strings are
    # RFC3339
    t = _t(iso=["2024-01-02T03:04:05", None],
           epoch_us=[1704164645000000, 0], epoch_s=[1704164645.0, 0.0])
    out = _run("$a = datetime($iso); $b = datetime($epoch_us);"
               "$c = datetime($epoch_s);"
               "$r = repr(datetime($iso));", t)
    assert out.column("a").to_pylist()[0].isoformat() == "2024-01-02T03:04:05"
    assert out.column("b").to_pylist()[0].isoformat() == "2024-01-02T03:04:05"
    assert out.column("c").to_pylist()[0].isoformat() == "2024-01-02T03:04:05"
    # reference repr is datetime(<unix>.<usec>) (object-datetime.c:204,
    # Light test_filterx_types.py test_type_datetime)
    assert out.column("r").to_pylist() == ["datetime(1704164645.000000)", None]


def test_repr_objects():
    out = _run('$r = repr(parse_json($j)); $rb = repr($j == $j);',
               _t(j=['{"a":1}']))
    assert out.column("r").to_pylist() == ['{"a":1}']
    assert out.column("rb").to_pylist() == ["true"]


def test_strcasecmp():
    out = _run('$c = strcasecmp($s, "HELLO");', _t(s=["hello", "abc", "zzz", None]))
    assert out.column("c").to_pylist() == [0, -1, 1, None]


def test_utf8_sanitize_validate():
    # invalid utf-8 arrives as a binary column (a string column is
    # valid utf-8 by Arrow's own invariant)
    t = pa.table({"s": pa.array([b"fine", b"ok\xffbad"], type=pa.binary())})
    out = _run("$v = utf8_validate($s); $c = utf8_sanitize($s);", t)
    assert out.column("v").to_pylist() == [True, False]
    assert out.column("c").to_pylist()[1] == "ok�bad"


def test_uuid_shapes():
    out = _run("$u = uuid4(); $u7 = uuid7();", _t(x=[1, 2]))
    us = out.column("u").to_pylist()
    assert len(set(us)) == 2 and all(len(u) == 36 and u[14] == "4" for u in us)
    u7 = out.column("u7").to_pylist()
    assert all(len(u) == 36 and u[14] == "7" for u in u7)


def test_vars():
    out = _run('x = upper($s); y = 7; $d = vars(); $got = $d["x"];', _t(s=["a"]))
    assert out.column("got").to_pylist() == ["A"]
    assert out.column("d").to_pylist() == [{"x": "A", "y": 7}]


def test_cache_json_file(tmp_path):
    p = tmp_path / "lookup.json"
    p.write_text(json.dumps({"web": {"team": "frontend"}, "db": {"team": "data"}}))
    out = _run(f'$cfg = cache_json_file("{p}");'
               '$team = $cfg[$svc]["team"];', _t(svc=["web", "db", "smtp"]))
    assert out.column("team").to_pylist() == ["frontend", "data", None]


def test_cache_json_file_missing_default():
    out = _run('$cfg = cache_json_file("/nonexistent.json", default_value={"k": 1});'
               '$k = $cfg.k;', _t(x=[1]))
    assert out.column("k").to_pylist() == [1]


def test_set_timezone_display_shift():
    t = _t(ts=[pa.scalar(1704164645000000, type=pa.timestamp("us"))])
    out = _run('$local = set_timezone($ts, "Europe/Budapest");'
               '$s = strftime($local, "%H:%M");', t)
    # 2024-01-02 03:04:05 UTC -> 04:04 CET (+01:00 winter)
    assert out.column("s").to_pylist() == ["04:04"]


def test_guess_timezone():
    # message stamped 02:00, "now" is 04:00:10 -> offset error -7200 s
    t = _t(ts=[pa.scalar(1704160800000000, type=pa.timestamp("us"))])
    out = _run('$fixed = guess_timezone($ts, "2024-01-02T04:00:10");'
               '$s = strftime($fixed, "%H:%M:%S");', t)
    assert out.column("s").to_pylist() == ["04:00:00"]


def test_set_fields():
    out = _run('$d = parse_json($j);'
               '$d2 = set_fields($d, overrides={"a": [$x, "fb"]},'
               '                     defaults={"b": ["defb"], "a": ["nope"]},'
               '                     replacements={"c": ["repc"], "z": ["nope"]});',
               _t(j=['{"a":1,"c":2}', '{"c":5}'], x=["ox", None]))
    assert out.column("d2").to_pylist() == [
        {"a": "ox", "c": "repc", "b": "defb"},
        {"c": "repc", "a": "fb", "b": "defb"}]


def test_dict_list_ctors():
    out = _run('$d = dict($j); $l = list($j2); $l2 = json_array($s);',
               _t(j=['{"a":1}', "notjson"], j2=["[1,2]", "[3]"], s=["x", "y"]))
    assert out.column("d").to_pylist() == [{"a": 1}, None]
    assert out.column("l").to_pylist() == [[1, 2], [3]]
    assert out.column("l2").to_pylist() == [["x"], ["y"]]


def test_load_vars_and_exprstmt():
    out = _run('load_vars(parse_json($j)); $got = a + b;',
               _t(j=['{"a":1,"b":2}', '{"a":10,"b":20}']))
    assert out.column("got").to_pylist() == [3, 30]


def test_load_vars_masked():
    out = _run('x = "keep";'
               'if ($sel == 1) { load_vars({"x": "changed"}); };'
               '$got = x;',
               _t(sel=[0, 1, 0]))
    assert out.column("got").to_pylist() == ["keep", "changed", "keep"]


def test_set_pri():
    out = _run("set_pri($pri);", _t(pri=[165, 13, 9999]))
    assert out.column("facility").to_pylist() == [20, 1, None]
    assert out.column("severity").to_pylist() == [5, 5, None]


def test_named_args_with_global_keyword():
    out = _run('$s = regexp_subst($m, "o", "0", global=true);', _t(m=["foo boo"]))
    assert out.column("s").to_pylist() == ["f00 b00"]
