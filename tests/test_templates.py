"""Template engine + macro + template-function tests.

Shapes adapted from the reference's template tests
(reference lib/template/tests/test_template.c and
lib/template/tests/test_template_speed.c:42-56 template list).
"""

import pandas as pd
import pyarrow as pa
import pytest

from axosyslog_ray.functions.templates import Template, template_hash
from axosyslog_ray.stages.syslog import parse_syslog_table


def _msg_table():
    t = pa.table(
        {
            "url": ["u1", "u2"],
            "warc_ts": pa.array(pd.Series([pd.Timestamp("2026-08-17 12:00:00")] * 2, dtype="datetime64[us]")),
            "text": [
                "<38>Aug 17 05:02:28 myhost sshd[1234]: Accepted publickey for joe",
                "<13>Aug 17 06:00:00 other nginx: GET /index",
            ],
        }
    )
    return parse_syslog_table(t)


def test_value_refs_and_literals():
    t = _msg_table()
    assert Template("$HOST ${PROGRAM}").eval(t).tolist() == ["myhost sshd", "other nginx"]
    assert Template("pfx $MESSAGE sfx").eval(t).tolist()[1] == "pfx GET /index sfx"


def test_pri_macros():
    t = _msg_table()
    assert Template("$FACILITY.$SEVERITY").eval(t).tolist() == ["auth.info", "user.notice"]
    assert Template("$PRI/$FACILITY_NUM/$SEVERITY_NUM").eval(t).tolist() == ["38/4/6", "13/1/5"]


def test_date_macros():
    t = _msg_table()
    assert Template("$YEAR-$MONTH-$DAY").eval(t).tolist() == ["2026-08-17", "2026-08-17"]
    assert Template("$DATE").eval(t).tolist()[0] == "Aug 17 05:02:28"
    assert Template("$ISODATE").eval(t).tolist()[0] == "2026-08-17T05:02:28+00:00"
    assert Template("$R_HOUR").eval(t).tolist() == ["12", "12"]


def test_unknown_value_is_empty():
    t = _msg_table()
    assert Template("[$NOPE]").eval(t).tolist() == ["[]", "[]"]


def test_dollar_escape():
    t = _msg_table()
    assert Template("$$HOST").eval(t).tolist() == ["$HOST", "$HOST"]


def test_int_column_with_null_renders_as_int():
    """A null in an int64 column must not turn the others into floats
    ("1.0"): the value renders as the integer, the null as unset."""
    t = pa.table({"n": pa.array([1, None, 3], pa.int64())})
    for spec, want in (("$n", ["1", "", "3"]), ("${n}x", ["1x", "x", "3x"])):
        assert Template(spec).eval(t).tolist() == want, spec
        assert Template(spec).eval_arrow(t).to_pylist() == want, spec


def test_function_calls_nested():
    t = _msg_table()
    assert Template("$(uppercase $PROGRAM)").eval(t).tolist() == ["SSHD", "NGINX"]
    assert Template("$(substr $(uppercase $HOST) 0 2)").eval(t).tolist() == ["MY", "OT"]
    assert Template("$(if $(echo 1) a b)").eval(t).tolist() == ["a", "a"]
    assert Template("$(+ $PRI 2)").eval(t).tolist() == ["40", "15"]
    assert Template("$(length $HOST)").eval(t).tolist() == ["6", "5"]


def test_list_functions():
    t = _msg_table()
    assert Template("$(list-concat a b c)").eval(t).tolist()[0] == "a,b,c"
    assert Template("$(list-head a,b,c)").eval(t).tolist()[0] == "a"
    assert Template("$(list-tail a,b,c)").eval(t).tolist()[0] == "b,c"
    assert Template("$(list-count a,b,c)").eval(t).tolist()[0] == "3"
    assert Template("$(list-slice 1:2 a,b,c)").eval(t).tolist()[0] == "b"


def test_numeric_fold_over_list_arg():
    t = _msg_table()
    assert Template("$(sum 1,2,3)").eval(t).tolist()[0] == "6"
    assert Template("$(average 2,4)").eval(t).tolist()[0] == "3"
    assert Template("$(max 5,1,9)").eval(t).tolist()[0] == "9"


def test_digests_and_encodings():
    import hashlib

    t = _msg_table()
    assert Template("$(sha256 $HOST)").eval(t).tolist()[0] == hashlib.sha256(b"myhost").hexdigest()
    assert Template("$(sha1 x 8)").eval(t).tolist()[0] == hashlib.sha1(b"x").hexdigest()[:8]
    # reference urlencode.c:24-37 concatenates args with NO separator
    assert Template("$(url-encode a b/c)").eval(t).tolist()[0] == "ab%2Fc"
    assert Template("$(url-encode 'a b/c')").eval(t).tolist()[0] == "a%20b%2Fc"


def test_ipv4_to_int():
    t = _msg_table()
    assert Template("$(ipv4-to-int 1.2.3.4)").eval(t).tolist()[0] == str((1 << 24) + (2 << 16) + (3 << 8) + 4)


def test_template_hash_deterministic_partitions():
    t = _msg_table()
    h1 = template_hash("$HOST", t, 16)
    h2 = template_hash("$HOST", t, 16)
    assert (h1 == h2).all() and (h1 < 16).all()


def test_higher_order_list_functions():
    t = _msg_table()
    assert Template("$(map $(uppercase $_) a,b,c)").eval(t).tolist()[0] == "A,B,C"
    assert Template("$(filter $(startswith $_ h) host1,web2,host3)").eval(t).tolist()[0] == "host1,host3"


def test_filterx_casts():
    t = _msg_table()
    assert Template("$(int 3.7)").eval(t).tolist()[0] == "3"
    assert Template("$(bool yes)/$(bool nah)").eval(t).tolist()[0] == "true/false"


def test_week_day_sunday_is_one():
    # reference lib/template/macros.c:372: tm_wday+1 (Sunday=1..Saturday=7).
    # 2026-08-16 is a Sunday, 2026-08-17 a Monday.
    t = pa.table(
        {
            "text": [
                "<13>Aug 16 06:00:00 h p: sun",
                "<13>Aug 17 06:00:00 h p: mon",
                "<13>Aug 22 06:00:00 h p: sat",
            ]
        }
    )
    t = parse_syslog_table(t)
    assert Template("$WEEK_DAY").eval(t).tolist() == ["1", "2", "7"]


def test_round_half_away_from_zero():
    t = _msg_table()
    assert Template("$(round 2.5)").eval(t).tolist()[0] == "3"
    assert Template("$(round -2.5)").eval(t).tolist()[0] == "-3"
    assert Template("$(round 2.345 2)").eval(t).tolist()[0] == "2.35"


def test_extended_date_macros():
    t = _msg_table()
    # 2026-08-17 is a Monday, day-of-year 229, ISO week 34
    assert Template("$YEAR_DAY").eval(t).tolist()[0] == "229"
    assert Template("$MONTH_ABBREV/$MONTH_NAME").eval(t).tolist()[0] == "Aug/August"
    assert Template("$HOUR12 $AMPM").eval(t).tolist() == ["05 AM", "06 AM"]
    assert Template("$WEEK_DAY_ABBREV $WEEK_DAY_NAME").eval(t).tolist()[0] == "Mon Monday"
    assert Template("$ISOWEEK").eval(t).tolist()[0] == "34"
    # WEEK: (yday0 - (wday-1+7)%7 + 7)/7, Sunday-start; Aug 17 2026 -> 33
    assert Template("$WEEK").eval(t).tolist()[0] == "33"
    # MONTH_WEEK: mday=17 wday=1 -> 17//7 + (1>0 and 17%7>=1) = 2+1
    assert Template("$MONTH_WEEK").eval(t).tolist()[0] == "3"
    # S_* mirrors the unprefixed sent stamp
    assert Template("$S_HOUR").eval(t).tolist() == Template("$HOUR").eval(t).tolist()
    # C_*/P_* read proc_ts; absent -> empty (documented divergence)
    assert Template("[$C_HOUR]").eval(t).tolist() == ["[]", "[]"]


def test_week_isoweek_reference_epoch_pins():
    # the reference's own test_macro.c expectations (test_date_week /
    # test_date_iso_week_testcases): epochs 1420111250 (Thu Jan 1 2015),
    # 1451560850 (Thu Dec 31 2015), 1451647250 (Fri Jan 1 2016),
    # 1420456850 (Mon Jan 5 2015)
    import pandas as pd
    import pyarrow as pa

    from axosyslog_ray.functions.macros import eval_macro

    ts = pd.to_datetime([1420111250, 1451560850, 1451647250, 1420456850], unit="s")
    t = pa.table({"ts_stamp": pa.array(ts)})
    assert eval_macro("WEEK", t).tolist()[:2] == ["00", "52"]
    assert eval_macro("ISOWEEK", t).tolist() == ["01", "53", "53", "02"]


def test_bsdtag_msghdr_loghost():
    import socket

    t = _msg_table()
    # pri 38: facility auth(4) -> 'E', severity 6 -> "6E"
    assert Template("$BSDTAG").eval(t).tolist() == ["6E", "5B"]
    assert Template("$MSGHDR").eval(t).tolist()[0] == "sshd[1234]: "
    assert Template("$MSGHDR").eval(t).tolist()[1] == "nginx: "
    assert Template("$LOGHOST").eval(t).tolist()[0] == socket.gethostname()


def test_c_macros_with_proc_ts():
    t = _msg_table()
    t = t.append_column("proc_ts", pa.array(pd.Series([pd.Timestamp("2026-08-17 14:30:00")] * 2, dtype="datetime64[us]")))
    assert Template("$C_HOUR:$C_MIN").eval(t).tolist() == ["14:30", "14:30"]
    assert Template("$P_ISODATE").eval(t).tolist()[0] == "2026-08-17T14:30:00+00:00"


def test_getent_and_dns_resolve():
    t = _msg_table()
    # root is uid 0 in any sane /etc/passwd
    assert Template("$(getent passwd root)").eval(t).tolist()[0] == "0"
    assert Template("$(getent passwd 0)").eval(t).tolist()[0] == "root"
    # unknown ip resolves to itself (use-dns(no) semantics)
    assert Template("$(dns-resolve-ip 203.0.113.9)").eval(t).tolist()[0] == "203.0.113.9"
    # localhost should be in /etc/hosts
    out = Template("$(dns-resolve-ip 127.0.0.1)").eval(t).tolist()[0]
    assert out != "" and out != "127.0.0.1"


def test_getent_hosts_does_not_poison_dns_cache():
    t = _msg_table()
    # hosts via getent first, then dns-resolve-ip must still work
    via_getent = Template("$(getent hosts 127.0.0.1)").eval(t).tolist()[0]
    via_dns = Template("$(dns-resolve-ip 127.0.0.1)").eval(t).tolist()[0]
    assert via_getent == via_dns != "127.0.0.1"


def test_cond_misc_tag_functions():
    t = _msg_table()
    assert Template("$(or '' $HOST fallback)").eval(t).tolist() == ["myhost", "other"]
    assert Template("$(or '' '' zz)").eval(t).tolist()[0] == "zz"
    import os
    os.environ["AXOTEST_ENV"] = "e1"
    assert Template("$(env AXOTEST_ENV)").eval(t).tolist()[0] == "e1"
    assert Template("$(binary 0x41 0x42)").eval(t).tolist()[0] == "AB"
    assert Template("$(names pri)").eval(t).tolist()[0] == "pri"
    assert Template("$(values url)").eval(t).tolist() == ["u1", "u2"]


def test_indent_multi_line():
    import pyarrow as pa
    from axosyslog_ray.functions.templates import Template as T

    t = pa.table({"m": ["line1\nline2\n\tkept"]})
    assert T("$(indent-multi-line $m)").eval(t).tolist()[0] == "line1\n\tline2\n\tkept"


def test_tag_functions():
    import pyarrow as pa

    t = pa.table({
        "x": ["a", "b"],
        "tags": pa.array([["auth", "ssh"], []], type=pa.list_(pa.string())),
    })
    assert Template("$(tag auth)").eval(t).tolist() == ["1", "0"]
    assert Template("$(tag auth YES NO)").eval(t).tolist() == ["YES", "NO"]
    assert Template("$(tags-head web ssh auth)").eval(t).tolist() == ["ssh", ""]


def test_empty_quoted_arg_preserved():
    t = _msg_table()
    # an empty quoted argument is a REAL argument (was silently dropped,
    # making 3-arg functions crash with a missing positional)
    assert Template("$(if $(echo 1) '' fb)").eval(t).tolist() == ["", ""]
    assert Template("$(if $(echo '') yes '')").eval(t).tolist() == ["", ""]
    # structural check: '' compiles to a real empty-template argument
    fc = Template("$(echo default '' fallback)").elems[0]
    assert [a.spec for a in fc.args] == ["default", "", "fallback"]


# the complete macro-name table from the reference (lib/template/macros.c
# macros[] rows 50-231), embedded so the test runs without the reference
# checkout. Regenerate: grep -oE '\{ "[A-Z0-9_]+"' lib/template/macros.c.
_REFERENCE_MACRO_TABLE = """
AMPM BSDTAG CONTEXT_ID C_AMPM C_DATE C_DAY C_FULLDATE C_HOUR C_HOUR12
C_ISODATE C_ISOWEEK C_MIN C_MONTH C_MONTH_ABBREV C_MONTH_NAME
C_MONTH_WEEK C_MSEC C_SEC C_STAMP C_TZ C_TZOFFSET C_UNIXTIME C_USEC
C_WEEK C_WEEKDAY C_WEEK_DAY C_WEEK_DAY_ABBREV C_WEEK_DAY_NAME C_YEAR
C_YEAR_DAY DATE DAY DESTIP DESTPORT FACILITY FACILITY_NUM FULLDATE
HOST HOSTID HOUR HOUR12 IP_PROTO ISODATE ISOWEEK LEVEL LEVEL_NUM
LOGHOST MIN MONTH MONTH_ABBREV MONTH_NAME MONTH_WEEK MSEC MSGHDR
PEERIP PEERPORT PRI PRIORITY PROTO PROTO_NAME P_AMPM P_DATE P_DAY
P_FULLDATE P_HOUR P_HOUR12 P_ISODATE P_ISOWEEK P_MIN P_MONTH
P_MONTH_ABBREV P_MONTH_NAME P_MONTH_WEEK P_MSEC P_SEC P_STAMP P_TZ
P_TZOFFSET P_UNIXTIME P_USEC P_WEEK P_WEEKDAY P_WEEK_DAY
P_WEEK_DAY_ABBREV P_WEEK_DAY_NAME P_YEAR P_YEAR_DAY RAWMSG_SIZE RCPTID
RUNID R_AMPM R_DATE R_DAY R_FULLDATE R_HOUR R_HOUR12 R_ISODATE
R_ISOWEEK R_MIN R_MONTH R_MONTH_ABBREV R_MONTH_NAME R_MONTH_WEEK
R_MSEC R_SEC R_STAMP R_TZ R_TZOFFSET R_UNIXTIME R_USEC R_WEEK
R_WEEKDAY R_WEEK_DAY R_WEEK_DAY_ABBREV R_WEEK_DAY_NAME R_YEAR
R_YEAR_DAY SDATA SEC SEQNUM SEVERITY SEVERITY_NUM SOURCEIP SOURCEPORT
STAMP SYSUPTIME S_AMPM S_DATE S_DAY S_FULLDATE S_HOUR S_HOUR12
S_ISODATE S_ISOWEEK S_MIN S_MONTH S_MONTH_ABBREV S_MONTH_NAME
S_MONTH_WEEK S_MSEC S_SEC S_STAMP S_TZ S_TZOFFSET S_UNIXTIME S_USEC
S_WEEK S_WEEKDAY S_WEEK_DAY S_WEEK_DAY_ABBREV S_WEEK_DAY_NAME S_YEAR
S_YEAR_DAY TAG TAGS TZ TZOFFSET UNIQID UNIXTIME USEC WEEK WEEKDAY
WEEK_DAY WEEK_DAY_ABBREV WEEK_DAY_NAME YEAR YEAR_DAY _
""".split()


def test_full_reference_macro_table():
    """Every macro name in the reference table resolves here, and every
    one evaluates on a minimal message table without raising."""
    from axosyslog_ray.functions.macros import MACROS

    assert len(_REFERENCE_MACRO_TABLE) == 168
    missing = [m for m in _REFERENCE_MACRO_TABLE if m not in MACROS]
    assert missing == []
    t = pa.table({
        "pri": pa.array([38], pa.int64()),
        "host": ["h1"], "program": ["sshd"], "pid": ["42"],
        "message": ["hello"], "msgid": ["-"],
        "ts_stamp": pd.to_datetime(["2024-03-03 10:00:00"]),
        "warc_ts": pd.to_datetime(["2024-03-03 10:00:01"]),
        "proc_ts": pd.to_datetime(["2024-03-03 10:00:02"]),
    })
    for m in _REFERENCE_MACRO_TABLE:
        out = MACROS[m](t)
        assert len(out) == 1, m


def test_transport_macros_reference_fallbacks():
    """macros.c:595-712: PEERIP falls through to SOURCEIP, missing
    addresses render 127.0.0.1, ports/proto default 0, TAG is 2-digit
    hex PRI, PRIORITY aliases SEVERITY."""
    from axosyslog_ray.functions.macros import MACROS

    t = pa.table({
        "pri": pa.array([38, 165, None], pa.int64()),
        "sourceip": ["10.0.0.1", None, "::ffff:10.2.3.4"],
        "proto": pa.array([6, 17, None], pa.int64()),
        "peerip": ["9.9.9.9", None, None],
    })
    assert list(MACROS["PEERIP"](t)) == ["9.9.9.9", "127.0.0.1", "::ffff:10.2.3.4"]
    assert list(MACROS["SOURCEIP"](t)) == ["10.0.0.1", "127.0.0.1", "::ffff:10.2.3.4"]
    assert list(MACROS["DESTIP"](t)) == ["127.0.0.1"] * 3
    assert list(MACROS["DESTPORT"](t)) == ["0"] * 3
    assert list(MACROS["PROTO"](t)) == ["6", "17", "0"]
    assert list(MACROS["PROTO_NAME"](t)) == ["tcp", "udp", "unknown"]
    # v4-mapped IPv6 counts as IPv4 (macros.c:286-288)
    assert list(MACROS["IP_PROTO"](t)) == ["4", "0", "4"]
    assert list(MACROS["TAG"](t)) == ["26", "a5", ""]
    assert list(MACROS["PRIORITY"](t)) == ["info", "notice", ""]


def test_md4_rfc1320_vectors():
    # RFC 1320 appendix A.5 test suite
    from axosyslog_ray.functions.strings import _md4_hex

    assert _md4_hex(b"") == "31d6cfe0d16ae931b73c59d7e0c089c0"
    assert _md4_hex(b"abc") == "a448017aaf21d8525fc10ae87aa6729d"
    assert _md4_hex(b"message digest") == "d9130a8164549fe818874806e1c7014b"
    assert (
        _md4_hex(b"12345678901234567890123456789012345678901234567890123456789012345678901234567890")
        == "e33b4ddc9c38f2199c3e7b164fcc0536"
    )
    t = pa.table({"m": ["abc"]})
    assert Template("$(md4 $m)").eval(t).tolist() == ["a448017aaf21d8525fc10ae87aa6729d"]


def test_stardate():
    # 2017-01-01T00:00:00Z -> 2017.00; 2017-07-01T12:00:00Z ->
    # floor(15638400/31536000 * 100)/100 = .49; --digits 0 truncates
    t = pa.table({"u": ["1483228800", "1498910400"]})
    assert Template("$(stardate $u)").eval(t).tolist() == ["2017.00", "2017.49"]
    assert Template("$(stardate --digits 0 $u)").eval(t).tolist() == ["2017", "2017"]
    # leap year denominator: 2016-07-01T12:00:00Z elapsed=15768000 over
    # 31622400 -> .49867 -> 2016.4986 at 4 digits
    t2 = pa.table({"u": ["1467374400"]})
    assert Template("$(stardate --digits 4 $u)").eval(t2).tolist() == ["2016.4986"]


def test_format_cef_extension_and_graphite():
    from axosyslog_ray.functions.valuepairs import ValuePairs, format_cef_extension, format_graphite

    t = pa.table({
        "act": ["blocked a=b", "ok"],
        "bad.key": ["x", "y"],          # non-alnum key -> dropped by cef-ext
        "recvd_unixtime": ["100", "200"],
    })
    vp = ValuePairs(include=["act", "bad.key"])
    out = format_cef_extension(t, vp).column("cef_ext_out").to_pylist()
    assert out == ["act=blocked a\\=b", "act=ok"]
    g = format_graphite(t, ValuePairs(include=["act"]), timestamp="$recvd_unixtime")
    assert g.column("graphite_out").to_pylist() == ["act blocked a=b 100\n", "act ok 200\n"]


def test_default_value_and_syntax_errors_reference_pins():
    # reference lib/template/tests/test_template.c:377-410
    import pytest

    t = _msg_table()
    assert Template("${HOST:-ures}").eval(t).tolist()[0] == "myhost"
    assert Template("${NOPE99:-ures}").eval(t).tolist()[0] == "ures"
    assert Template("$unbalanced_brace}").eval(t).tolist() == ["}", "}"]
    assert Template("$}").eval(t).tolist()[0] == "$}"
    assert Template("$unbalanced_paren)").eval(t).tolist()[0] == ")"
    with pytest.raises(ValueError, match="is missing"):
        Template("${unbalanced_brace")
    with pytest.raises(ValueError, match="imbalanced"):
        Template("$(unbalanced_paren")
    # nested echo quoting (test_template.c:388-393, 454-457)
    assert Template("$(echo \"$(echo $HOST)\" $PID)").eval(t).tolist()[0] == "myhost 1234"
    assert Template("$(echo '\"$(echo $(echo $HOST))\"' $PID)").eval(t).tolist()[0] == '"myhost" 1234'
    assert Template("$(echo foo '' bar)").eval(t).tolist()[0] == "foo  bar"
    assert Template("$(echo foo '')").eval(t).tolist()[0] == "foo "


def test_template_compile_reference_pins():
    # lib/template/tests/test_template_compile.c behavioral pins
    t = _msg_table()
    assert Template("$${VALUE_NAME}").eval(t).tolist()[0] == "${VALUE_NAME}"
    assert Template("$$VALUE_NAME").eval(t).tolist()[0] == "$VALUE_NAME"
    # an invalid bare name after '$' stays a literal dollar
    assert Template("$:VALUE_NAME").eval(t).tolist()[0] == "$:VALUE_NAME"
    assert Template("$").eval(t).tolist()[0] == "$"
    # default values: empty and space-containing defaults
    assert Template("${NOPE:-}").eval(t).tolist()[0] == ""
    assert Template("${NOPE:-default value}").eval(t).tolist()[0] == "default value"
    # macro terminated by non-identifier characters
    assert Template("$HOST test value").eval(t).tolist()[0] == "myhost test value"


def test_macro_default_applies_when_expansion_empty():
    # eval.c:96-97 log_template_append_elem_macro: a MACRO default kicks
    # in when the expansion appended nothing — row 2's nginx line has no
    # pid, row 1 keeps its real value.
    t = _msg_table()
    assert Template("${PID:-nopid}").eval(t).tolist() == ["1234", "nopid"]
    assert Template("${SEQNUM:-0}").eval(t).tolist() == ["0", "0"]
    # a macro that always expands keeps its value
    assert Template("${MSGHDR:-hdr}").eval(t).tolist() == \
        ["sshd[1234]: ", "nginx: "]


def test_boolean_cast_first_char_reference_pins():
    # lib/logmsg/tests/test_type_hints.c test_bool_cast truth table
    from axosyslog_ray.functions.strings import bool_cast_first_char

    for v, want in [("True", True), ("true", True), ("1", True),
                    ("totaly true", True), ("False", False), ("false", False),
                    ("0", False), ("fatally false", False)]:
        assert bool_cast_first_char(v) is want, v
    assert bool_cast_first_char("booyah") is None
    assert bool_cast_first_char("") is None


class TestContextAndGeoipFuncs:
    """cond-funcs.c $(grep), context-funcs.c $(context-*), tfgeoip.c
    $(geoip2) — single-message context semantics (the reference's own
    comment: "the message context is just one message" outside a
    correlation trigger)."""

    def _t(self):
        import pyarrow as pa
        return pa.table({"message": ["m1", "m2"], "pri": [13, 13],
                         "program": ["app", "db"],
                         "host": ["10.1.2.3", "192.168.1.1"]})

    def test_grep(self):
        t = self._t()
        assert Template('$(grep (program("app")) ${PROGRAM} ${HOST})') \
            .eval(t).tolist() == ["app,10.1.2.3", ""]

    def test_grep_max_count_flag_parses(self):
        t = self._t()
        assert Template('$(grep --max-count 1 (program("app")) ${HOST})') \
            .eval(t).tolist() == ["10.1.2.3", ""]

    def test_context_lookup_and_length_and_values(self):
        t = self._t()
        assert Template('$(context-lookup (program("app")) ${PROGRAM})') \
            .eval(t).tolist() == ["app", ""]
        assert Template('$(context-length)').eval(t).tolist() == ["1", "1"]
        assert Template('$(context-values ${PROGRAM} ${HOST})') \
            .eval(t).tolist() == ["app,10.1.2.3", "db,192.168.1.1"]

    def test_geoip2(self, tmp_path):
        from axosyslog_ray.enrich.mmdb_write import write_mmdb
        db = str(tmp_path / "geo.mmdb")
        write_mmdb(db, [("10.0.0.0/8",
                         {"country": {"iso_code": "US",
                                      "names": {"en": "United States"}}})])
        t = self._t()
        assert Template('$(geoip2 --database %s ${HOST})' % db) \
            .eval(t).tolist() == ["US", ""]
        assert Template('$(geoip2 --database %s --field country.names.en'
                        ' ${HOST})' % db).eval(t).tolist() == \
            ["United States", ""]


class TestSlogAndCefExtensionFuncs:
    def test_format_cef_extension(self):
        import pyarrow as pa
        t = pa.table({"message": ["m"], "pri": [13],
                      ".cef.foo": ["a=b"], ".cef.ba r": ["x"],
                      ".cef.nl": ["a\nb"]})
        out = Template('$(format-cef-extension --key .cef.* --shift 5)') \
            .eval(t).tolist()
        # 'ba r' key dropped (non-alnum); '=' and newline escaped;
        # sorted key order
        assert out == ["foo=a\\=b nl=a\\nb"]

    def test_slog_template_function_roundtrip(self, tmp_path):
        import pyarrow as pa
        from axosyslog_ray.functions.slog import (derive_host_key,
                                                  generate_master_key,
                                                  read_mac, verify_entries,
                                                  write_key)
        kf, mf = str(tmp_path / "k"), str(tmp_path / "m")
        k0 = derive_host_key(generate_master_key(), "00:11", "s1")
        write_key(kf, k0, 0)
        t = pa.table({"message": ["msg one", "msg two"], "pri": [13, 13]})
        lines = Template(f"$(slog -k {kf} -m {mf} $MSG)").eval(t).tolist()
        rec, ok, problems = verify_entries(lines, k0, 0, expected_count=2,
                                           big_mac=read_mac(mf))
        assert ok and problems == []
        assert [r.split(": ", 1)[1] for r in rec] == ["msg one", "msg two"]
        # a SECOND eval continues the evolved chain from the key file
        t2 = pa.table({"message": ["msg three"], "pri": [13]})
        more = Template(f"$(slog -k {kf} -m {mf} $MSG)").eval(t2).tolist()
        rec2, ok2, _ = verify_entries(lines + more, k0, 0, expected_count=3,
                                      big_mac=read_mac(mf))
        assert ok2 and len(rec2) == 3

    def test_slog_empty_message_error_text(self, tmp_path):
        import pyarrow as pa
        from axosyslog_ray.functions.slog import (derive_host_key,
                                                  generate_master_key,
                                                  write_key)
        kf, mf = str(tmp_path / "k"), str(tmp_path / "m")
        write_key(kf, derive_host_key(generate_master_key(), "0", "0"), 0)
        t = pa.table({"message": [""], "pri": [13]})
        out = Template(f"$(slog -k {kf} -m {mf} $MSG)").eval(t).tolist()
        assert out == ["Error: Empty log message invalid"]


class TestAdviceR5CondFuncs:
    """r5 ADVICE fixes: $(grep) arg guards and $(if) eval-error
    propagation (cond-funcs.c compiles the FilterExprNode at config
    time and fails loudly at eval time)."""

    def _t(self):
        import pyarrow as pa
        return pa.table({"message": ["m1"], "pri": [13],
                         "program": ["app"], "host": ["10.1.2.3"]})

    def test_grep_max_count_last_arg_raises_usage_error(self):
        t = self._t()
        with pytest.raises(ValueError, match="at least two arguments"):
            Template("$(grep --max-count)").eval(t)

    def test_grep_max_count_zero_rejected(self):
        t = self._t()
        with pytest.raises(ValueError, match="max-count"):
            Template('$(grep --max-count 0 (program("app")) ${HOST})') \
                .eval(t)

    def test_if_eval_error_of_compiled_filter_propagates(self):
        # a condition the filter grammar ACCEPTS but whose evaluation
        # raises must surface, not silently fall back to truthy-string
        t = self._t()
        with pytest.raises(Exception, match="nosuch|unknown|Unknown"):
            Template('$(if (match("x" template("$(nosuchfn)"))) a b)') \
                .eval(t)
