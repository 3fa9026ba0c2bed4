"""csv/kv/json/regexp/date extractor golden tests.

Case shapes adapted from the reference's own parametrizations:
csv dialects (reference modules/csvparser/tests/test_csvparser.c:40-50,
tests/light/functional_tests/parsers/csv-parser/), kv edge cases
(modules/kvformat/kv-parser.c:104-136), json flatten
(modules/json/json-parser.c:85-180).
"""

import pyarrow as pa
import pytest

from axosyslog_ray.stages.csv_parser import CsvParser, apache_parser
from axosyslog_ray.stages.date_parser import DateParser
from axosyslog_ray.stages.json_parser import JsonParser
from axosyslog_ray.stages.kv_parser import KvParser
from axosyslog_ray.stages.regexp_parser import RegexpParser


def _t(*lines):
    return pa.table({"message": list(lines)})


# ---------------- csv ----------------

def test_csv_basic_split():
    p = CsvParser(columns=["a", "b", "c"], delimiters=",")
    r = p(_t("1,2,3")).to_pylist()[0]
    assert (r["a"], r["b"], r["c"]) == ("1", "2", "3") and r["csv_valid"]


def test_csv_too_few_columns_invalid():
    p = CsvParser(columns=["a", "b", "c"], delimiters=",")
    assert p(_t("1,2")).column("csv_valid").to_pylist() == [False]


def test_csv_extra_columns_invalid_unless_greedy():
    p = CsvParser(columns=["a", "b"], delimiters=",")
    assert p(_t("1,2,3")).column("csv_valid").to_pylist() == [False]
    g = CsvParser(columns=["a", "b"], delimiters=",", greedy=True)
    r = g(_t("1,2,3")).to_pylist()[0]
    assert r["b"] == "2,3"


def test_csv_quote_pairs_bracket():
    p = CsvParser(columns=["a", "b"], delimiters=" ", quotes='""[]')
    r = p(_t('[hello world] "quoted val"')).to_pylist()[0]
    assert r["a"] == "hello world" and r["b"] == "quoted val"


def test_csv_dialect_backslash_escape():
    p = CsvParser(columns=["a", "b"], delimiters=",", dialect="escape-backslash")
    r = p(_t('"esc\\"aped",x')).to_pylist()[0]
    assert r["a"] == 'esc"aped'


def test_csv_dialect_double_char():
    p = CsvParser(columns=["a", "b"], delimiters=",", dialect="escape-double-char")
    r = p(_t('"dou""ble",x')).to_pylist()[0]
    assert r["a"] == 'dou"ble'


def test_csv_null_value_and_strip():
    p = CsvParser(columns=["a", "b"], delimiters=",", null_value="-", strip_whitespace=True)
    r = p(_t(" - , v ")).to_pylist()[0]
    assert r["a"] is None and r["b"] == "v"


def test_csv_drop_invalid_filters_rows():
    p = CsvParser(columns=["a", "b"], delimiters=",", drop_invalid=True)
    out = p(_t("1,2", "only-one", "3,4"))
    assert out.num_rows == 2 and out.column("a").to_pylist() == ["1", "3"]


def test_csv_apache_access_log():
    line = '1.2.3.4 - frank [10/Oct/2026:13:55:36 -0700] "GET /x HTTP/1.0" 200 2326 "-" "UA 1.0" 5 vh'
    r = apache_parser()(_t(line)).to_pylist()[0]
    assert r["clientip"] == "1.2.3.4"
    assert r["auth"] == "frank"
    assert r["timestamp"] == "10/Oct/2026:13:55:36 -0700"
    assert r["request"] == "GET /x HTTP/1.0"
    assert r["status"] == "200" and r["bytes"] == "2326"
    assert r["agent"] == "UA 1.0" and r["vhost"] == "vh"


# ---------------- kv ----------------

def test_kv_pairs_and_quotes():
    p = KvParser()
    r = p(_t('k1=v1, k2="a b", k3=')).to_pylist()[0]
    assert dict(r["kv"]) == {"k1": "v1", "k2": "a b", "k3": ""}


def test_kv_stray_words():
    # the scanner's collect mode: only words before the first key are
    # stray; later words join the value they follow (kv-scanner.c)
    p = KvParser(collect_stray=True)
    r = p(_t("before k1=v1 middle words k2=v2 after")).to_pylist()[0]
    assert dict(r["kv"]) == {"k1": "v1 middle words", "k2": "v2 after"}
    assert r["stray_words"] == "before"


def test_kv_prefix_and_promote():
    p = KvParser(prefix=".kv.", promote=["status"])
    r = p(_t("status=500")).to_pylist()[0]
    assert dict(r["kv"]) == {".kv.status": "500"} and r[".kv.status"] == "500"


def test_kv_custom_value_separator():
    p = KvParser(value_separator=":")
    r = p(_t("a:1 b:2")).to_pylist()[0]
    assert dict(r["kv"]) == {"a": "1", "b": "2"}


# ---------------- json ----------------

def test_json_flatten_types():
    p = JsonParser(with_types=True)
    r = p(_t('{"a":{"b":1,"c":2.5},"d":true,"e":null,"f":[1,2],"g":"s"}')).to_pylist()[0]
    assert dict(r["jv"]) == {"a.b": "1", "a.c": "2.5", "d": "true", "e": "", "f": "[1,2]", "g": "s"}
    assert dict(r["jv_types"]) == {
        "a.b": "integer", "a.c": "double", "d": "boolean", "e": "null", "f": "list", "g": "string",
    }


def test_json_non_object_root_rejected():
    p = JsonParser()
    assert p(_t("[1,2]", "42", "null", "not json")).column("json_valid").to_pylist() == [False] * 4


def test_json_extract_prefix_subtree():
    p = JsonParser(extract_prefix="event")
    r = p(_t('{"event":{"type":"x"},"other":1}')).to_pylist()[0]
    assert dict(r["jv"]) == {"type": "x"}


def test_json_prefix_and_key_delimiter():
    # prefix is prepended literally (json-parser.c:94-98); the
    # delimiter joins nesting levels only (json-parser.c:190-194)
    p = JsonParser(prefix="j.", key_delimiter="~")
    r = p(_t('{"a":{"b":1}}')).to_pylist()[0]
    assert dict(r["jv"]) == {"j.a~b": "1"}


# ---------------- regexp ----------------

def test_regexp_named_groups_and_prefix():
    p = RegexpParser(r"user (?P<name>\w+) from (?P<ip>[\d.]+)", prefix=".re.")
    r = p(_t("user bob from 1.2.3.4", "nothing")).to_pylist()
    assert r[0][".re.name"] == "bob" and r[0][".re.ip"] == "1.2.3.4" and r[0]["re_matched"]
    assert r[1][".re.name"] is None and not r[1]["re_matched"]


def test_regexp_numbered_matches_column():
    p = RegexpParser(r"(\w+)=(\d+)", emit_matches=True)
    r = p(_t("x=1")).to_pylist()[0]
    assert r["matches"] == ["x", "1"]


# ---------------- date ----------------

def test_date_format_list_first_wins():
    p = DateParser(["%Y-%m-%d %H:%M:%S", "%d/%b/%Y:%H:%M:%S"])
    out = p(_t("2026-08-17 01:02:03", "17/Aug/2026:01:02:03")).to_pylist()
    assert str(out[0]["ts_stamp"]) == "2026-08-17 01:02:03"
    assert str(out[1]["ts_stamp"]) == "2026-08-17 01:02:03"


def test_date_tz_offset_normalized_to_utc():
    p = DateParser(["%Y-%m-%dT%H:%M:%S%z"])
    out = p(_t("2026-08-17T05:00:00+02:00")).to_pylist()[0]
    assert str(out["ts_stamp"]) == "2026-08-17 03:00:00"


def test_date_explicit_timezone_param():
    p = DateParser(["%Y-%m-%d %H:%M:%S"], time_zone="Europe/Berlin")
    out = p(_t("2026-01-15 12:00:00")).to_pylist()[0]
    assert str(out["ts_stamp"]) == "2026-01-15 11:00:00"  # CET = UTC+1 in winter


def test_date_failure_keeps_existing_stamp():
    import pandas as pd

    t = pa.table(
        {
            "message": ["junk"],
            "ts_stamp": pa.array(pd.Series([pd.Timestamp("2026-01-01")], dtype="datetime64[us]")),
        }
    )
    out = DateParser(["%Y-%m-%d"])(t).to_pylist()[0]
    assert str(out["ts_stamp"]) == "2026-01-01 00:00:00" and out["date_parsed"] is False


def test_csv_empty_fields_preserved():
    # reference csv-scanner emits an empty column for 'a,,c' (ADVICE r1)
    p = CsvParser(columns=["a", "b", "c"], delimiters=",")
    r = p(_t("a,,c", ",b,", ",,")).to_pylist()
    assert (r[0]["a"], r[0]["b"], r[0]["c"]) == ("a", "", "c")
    assert (r[1]["a"], r[1]["b"], r[1]["c"]) == ("", "b", "")
    assert (r[2]["a"], r[2]["b"], r[2]["c"]) == ("", "", "") and r[2]["csv_valid"]


def test_csv_vectorized_matches_scalar_oracle():
    """The Arrow fast path must agree with the scalar scanner on a mixed
    corpus (quoted + unquoted + empty + invalid rows)."""
    lines = [
        "1,2,3", "a,,c", ",,", "x,y", "1,2,3,4",
        '"q,uoted",b,c', '"do""uble",x,y', "sp ace,b,c", '",",,',
    ]
    for dialect in ("escape-none", "escape-double-char", "escape-backslash"):
        p = CsvParser(columns=["a", "b", "c"], delimiters=",", dialect=dialect)
        out = p(_t(*lines)).to_pylist()
        for line, row in zip(lines, out):
            want = p.parse_tokens(line)
            if want is None:
                assert not row["csv_valid"], (dialect, line)
            else:
                assert row["csv_valid"] and [row["a"], row["b"], row["c"]] == want, (dialect, line)


# ---------------- app parsers: mariadb / pgsql / snmptrapd ----------------

def test_mariadb_audit_parser():
    from axosyslog_ray.stages.app_parsers import MariadbAuditParser

    # scl/mariadb/audit.conf example payload (after the syslog header)
    msg = ("columnstore-1 eff8a68bcd7f,user1,172.18.0.1,32,394,QUERY,syslog_ng,"
           "'SELECT * FROM test WHERE 0=1',1146")
    r = MariadbAuditParser()(_t(msg)).to_pylist()[0]
    assert r["mariadb_valid"]
    assert r["mariadb_syslog_info"] == "columnstore-1"
    assert r["mariadb_serverhost"] == "eff8a68bcd7f"
    assert r["mariadb_username"] == "user1"
    assert r["mariadb_operation"] == "QUERY"
    assert r["mariadb_object"] == "SELECT * FROM test WHERE 0=1"
    assert r["mariadb_retcode"] == "1146"


def test_mariadb_audit_connect_empty_fields():
    from axosyslog_ray.stages.app_parsers import MariadbAuditParser

    msg = "docker eff8a68bcd7f,root,172.18.0.3,13,0,CONNECT,,,0"
    r = MariadbAuditParser()(_t(msg)).to_pylist()[0]
    assert r["mariadb_valid"] and r["mariadb_operation"] == "CONNECT"
    assert r["mariadb_database"] == "" and r["mariadb_object"] == ""


def test_postgresql_csvlog_parser():
    from axosyslog_ray.stages.app_parsers import PostgresqlCsvlogParser

    msg = ('2023-08-08 12:05:52.805 UTC,,,22113,,64d22fa0.5661,1,,'
           '2023-08-08 12:05:52 UTC,23/74060,0,LOG,00000,'
           '"automatic vacuum of table ""tablename"": index scans: 0",'
           ',,,,,,,,,"",,')
    r = PostgresqlCsvlogParser()(_t(msg)).to_pylist()[0]
    assert r["pgsql_valid"]
    assert r["pgsql_pid"] == 22113
    assert r["pgsql_severity"] == "LOG" and r["pgsql_severity_num"] == 6
    assert r["pgsql_message"] == 'automatic vacuum of table "tablename": index scans: 0'
    assert str(r["pgsql_ts"]).startswith("2023-08-08 12:05:52.805")


def test_snmptrapd_v2_message():
    from axosyslog_ray.stages.app_parsers import SnmptrapdParser

    msg = ("2017-05-10 12:46:14 web2-kukorica.syslog_ng.balabit "
           "[UDP: [127.0.0.1]:34257->[127.0.0.1]:162]:\n"
           "iso.3.6.1.2.1.1.3.0 = Timeticks: (875496867) 101 days, 7:56:08.67\t"
           "iso.3.6.1.6.3.1.1.4.1.0 = OID: iso.3.6.1.4.1.8072.2.3.0.1")
    r = SnmptrapdParser()(_t(msg)).to_pylist()[0]
    assert r["snmp_valid"]
    assert r["snmp_hostname"] == "web2-kukorica.syslog_ng.balabit"
    assert r["snmp_transport_info"] == "UDP: [127.0.0.1]:34257->[127.0.0.1]:162"
    vb = dict(r["snmp_varbinds"])
    assert vb["iso.3.6.1.2.1.1.3.0"] == "(875496867) 101 days, 7:56:08.67"
    assert vb["iso.3.6.1.6.3.1.1.4.1.0"] == "iso.3.6.1.4.1.8072.2.3.0.1"


def test_snmptrapd_v1_message():
    from axosyslog_ray.stages.app_parsers import SnmptrapdParser

    msg = ("2017-11-10 13:23:16 localhost [UDP: [127.0.0.1]:53831->[127.0.0.1]:162]: "
           "iso.3.6.1.4.1.8072.2.3.1\n"
           "\t Enterprise Specific Trap (.17) Uptime: 18:41:07.83\n"
           "iso.3.6.1.4.1.8072.2.1.1 = INTEGER: 123456")
    r = SnmptrapdParser()(_t(msg)).to_pylist()[0]
    assert r["snmp_valid"]
    assert r["snmp_enterprise_oid"] == "iso.3.6.1.4.1.8072.2.3.1"
    assert r["snmp_type"] == "Enterprise Specific Trap"
    assert r["snmp_subtype"] == ".17"
    assert r["snmp_uptime"] == "18:41:07.83"
    assert dict(r["snmp_varbinds"])["iso.3.6.1.4.1.8072.2.1.1"] == "123456"
