"""Syslog header-parser golden tests.

Golden expectations adapted from the reference's own parametrized corpus
(reference modules/syslogformat/tests/test_syslog_format.c:63-172) — the
cases, not the code.
"""

from datetime import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from axosyslog_ray.stages.syslog import parse_syslog_line, parse_syslog_table
from axosyslog_ray.synth import gen_pages_table

RECV = pd.Timestamp("2026-08-17 12:00:00")


def _parse_one(line: str):
    t = pa.table(
        {
            "url": ["u"],
            "warc_ts": pa.array(pd.Series([RECV], dtype="datetime64[us]")),
            "text": [line],
        }
    )
    return parse_syslog_table(t).to_pylist()[0]


def test_rfc3164_basic():
    r = _parse_one("<38>Aug 17 05:02:28 myhost sshd[1234]: Accepted publickey for joe")
    assert r["pri"] == 38
    assert r["host"] == "myhost"
    assert r["program"] == "sshd"
    assert r["pid"] == "1234"
    assert r["message"] == "Accepted publickey for joe"
    assert r["msgformat"] == "rfc3164"
    assert pd.Timestamp(r["ts_stamp"]) == pd.Timestamp("2026-08-17 05:02:28")


def test_rfc3164_no_pri_defaults_13():
    r = _parse_one("Aug 17 05:02:28 myhost prog: hello")
    assert r["pri"] == 13 and r["program"] == "prog" and r["message"] == "hello"


def test_rfc3164_no_pid():
    r = _parse_one("<13>Aug 17 05:02:28 h su: msg body")
    assert r["program"] == "su" and r["pid"] is None and r["message"] == "msg body"


def test_rfc3164_numeric_program():
    r = _parse_one("<13>Aug 17 05:02:28 h 123: m")
    assert r["program"] == "123"


def test_rfc3164_space_padded_day():
    r = _parse_one("<13>Aug  7 05:02:28 h p: m")
    assert pd.Timestamp(r["ts_stamp"]).day == 7


def test_rfc3164_year_guess_december_wraps_back():
    t = pa.table(
        {
            "url": ["u"],
            "warc_ts": pa.array(pd.Series([pd.Timestamp("2026-01-02")], dtype="datetime64[us]")),
            "text": ["<13>Dec 31 23:59:59 h p: m"],
        }
    )
    r = parse_syslog_table(t).to_pylist()[0]
    assert pd.Timestamp(r["ts_stamp"]).year == 2025


def test_rfc5424_full():
    r = _parse_one(
        '<34>1 2026-08-17T05:02:28.217+02:00 mach app 1234 ID47 [ex@0 k="v" q="a\\"b"] BOMhello'
    )
    assert r["pri"] == 34
    assert r["host"] == "mach" and r["program"] == "app" and r["pid"] == "1234"
    assert r["msgid"] == "ID47"
    assert pd.Timestamp(r["ts_stamp"]) == pd.Timestamp("2026-08-17 03:02:28.217000")  # UTC
    assert dict(r["sdata"]) == {"ex@0.k": "v", "ex@0.q": 'a"b'}
    assert r["message"] == "BOMhello"


def test_rfc5424_nil_fields():
    r = _parse_one("<34>1 - - - - - - raw")
    assert r["host"] is None and r["program"] is None and r["msgid"] is None
    assert r["sdata"] is None
    assert r["message"] == "raw"
    assert r["ts_stamp"] is None or pd.isna(r["ts_stamp"])


def test_unparsed_falls_back_whole_message():
    r = _parse_one("just some random text")
    assert r["syslog_parsed"] is False
    assert r["message"] == "just some random text"
    assert r["pri"] == 13
    assert pd.Timestamp(r["ts_stamp"]) == RECV


def test_unterminated_pri_tagged_and_kept_whole():
    # reference rfc3164_error_invalid_pri (test_syslog_format.c:89): the
    # line is ACCEPTED as rfc3164, whole line in MSG, tagged
    r = _parse_one("<189 Aug 17 05:02:28 h p: m")
    assert r["message"] == "<189 Aug 17 05:02:28 h p: m"
    assert r["msgformat"] == "rfc3164"
    assert r["tags"] == ["syslog.invalid_pri"]
    assert r["program"] is None


COLUMNS = ("pri", "ts_stamp", "host", "program", "pid", "msgid", "message",
           "legacy_msghdr", "sdata", "syslog_parsed", "msgformat", "tags")


def _assert_oracle_agrees(t: pa.Table, check_program: bool = False) -> None:
    """Every output column of every row equals the scalar oracle's."""
    for row in parse_syslog_table(t, check_program=check_program).to_pylist():
        want = parse_syslog_line(row["text"], row["warc_ts"], check_program=check_program)
        for k in COLUMNS:
            assert row[k] == want[k], (row["text"], k, row[k], want[k])


def test_vectorized_matches_scalar_oracle_on_corpus():
    t = gen_pages_table(600)
    _assert_oracle_agrees(t)
    _assert_oracle_agrees(t, check_program=True)


@pytest.mark.usefixtures("ray_session")
def test_e2e_parse_through_ray():
    from axosyslog_ray.synth import pages_dataset

    ds = pages_dataset(2000, blocks=4).map_batches(parse_syslog_table, batch_format="pyarrow")
    assert ds.count() == 2000
    names = set(ds.schema().names)
    assert {"pri", "ts_stamp", "host", "program", "message", "syslog_parsed"} <= names


def test_rfc3164_missing_timestamp_tag_only():
    # reference tests/test_syslog_format.c rfc3164_error_missing_timestamp:
    # '<189> program[pid]: message' -> no host, TAG parsed, tagged
    r = _parse_one("<189> program[pid]: message")
    assert r["pri"] == 189
    assert r["host"] is None
    assert r["program"] == "program" and r["pid"] == "pid" and r["message"] == "message"
    assert r["msgformat"] == "rfc3164"
    assert list(r["tags"]) == ["syslog.missing_timestamp", "syslog.rfc3164_missing_header"]
    assert pd.Timestamp(r["ts_stamp"]) == RECV  # stamp falls back to receive time


def test_rfc3164_space_after_pri():
    r = _parse_one("<189> Feb  3 12:34:56 host program[pid]: message")
    assert r["host"] == "host" and r["program"] == "program"
    assert r["tags"] is None


def test_scalar_oracle_matches_vectorized_on_invalid_dates():
    """Feb 30 (calendar-invalid) and a non-ISO 5424 timestamp must coerce
    to null identically on the scalar oracle and the vectorized path."""
    import pyarrow as pa

    from axosyslog_ray.stages.syslog import parse_syslog_line, parse_syslog_table

    recv = pd.Timestamp("2026-08-17")
    lines = [
        "<13>Feb 30 12:00:00 myhost prog: hi",
        "<34>1 10/11/2003 host app - - - msg",
    ]
    t = parse_syslog_table(pa.table({"text": lines, "warc_ts": pa.array(
        pd.Series([recv] * 2, dtype="datetime64[us]"))}))
    vec_ts = t.column("ts_stamp").to_pylist()
    for line, vts in zip(lines, vec_ts):
        srow = parse_syslog_line(line, recv)
        sts = srow["ts_stamp"]
        if vts is None:
            assert sts is None, (line, sts)
        else:
            assert sts == vts, (line, sts, vts)


class TestCheckProgram:
    """LP_CHECK_PROGRAM conformance (test_syslog_format.c:105-190)."""

    def _one(self, line, **kw):
        import pyarrow as pa
        from axosyslog_ray.stages.syslog import parse_syslog_table
        t = pa.table({"text": [line],
                      "warc_ts": pa.array([pd.Timestamp("2026-02-03")],
                                          type=pa.timestamp("us"))})
        out = parse_syslog_table(t, check_program=True, **kw)
        return {c: out.column(c).to_pylist()[0] for c in out.column_names}

    def test_valid_name_full_charset(self):
        r = self._one("<189> Feb  3 12:34:56 host "
                      "program_0123456789-abcdefghijklmnopqrstuvwxyz"
                      "(ABCDEFGHIJKLMNOPQRSTUVWXYZ).valid/chars[pid]: message")
        assert r["host"] == "host"
        assert r["program"] == ("program_0123456789-abcdefghijklmnopqrstuvwxyz"
                                "(ABCDEFGHIJKLMNOPQRSTUVWXYZ).valid/chars")
        assert r["pid"] == "pid"
        assert r["message"] == "message"
        assert r["tags"] is None

    def test_decimal_number_is_not_a_program(self):
        r = self._one("<189> Feb  3 12:34:56 host 323235243.2354[pid]: message")
        assert r["program"] is None and r["pid"] is None
        assert r["message"] == "323235243.2354[pid]: message"
        assert r["tags"] == ["syslog.rfc3164_invalid_program"]

    def test_invalid_character(self):
        r = self._one("<189> Feb  3 12:34:56 host program![pid]: message")
        assert r["program"] is None
        assert r["message"] == "program![pid]: message"
        assert r["tags"] == ["syslog.rfc3164_invalid_program"]

    def test_ip_address_is_not_a_program(self):
        r = self._one("<189> Feb  3 12:34:56 host 127.0.0.1[pid]: message")
        assert r["program"] is None
        assert r["message"] == "127.0.0.1[pid]: message"
        assert r["tags"] == ["syslog.rfc3164_invalid_program"]

    def test_scalar_oracle_agrees(self):
        from axosyslog_ray.stages.syslog import parse_syslog_line
        for line in ("<189> Feb  3 12:34:56 host 127.0.0.1[pid]: message",
                     "<189> Feb  3 12:34:56 host good[1]: m",
                     "<189 Feb  3 12:34:56 host p: m"):
            v = self._one(line)
            sc = parse_syslog_line(line, pd.Timestamp("2026-02-03"),
                                   check_program=True)
            for k in ("program", "pid", "message", "tags", "msgformat"):
                assert v[k] == sc[k], (line, k, v[k], sc[k])


class TestLegacyMsgHdr:
    """Reference-exact legacy program-name scan + $LEGACY_MSGHDR
    (syslog-format.c:348-407 _syslog_format_parse_legacy_program_name;
    test_syslog_format.c minimal_non_zero_terminated_numeric_message):
    the first token becomes PROGRAM even with NO colon; the consumed
    header bytes are stored as legacy_msghdr."""

    def test_numeric_token_is_program_without_colon(self):
        # test_syslog_format.c: "<189>65536" -> PROGRAM "65536"
        r = _parse_one("<189>65536")
        assert r["program"] == "65536"
        assert r["message"] == ""
        assert r["legacy_msghdr"] == "65536"

    def test_no_colon_first_word_is_program(self):
        r = _parse_one("<13>Aug 17 05:02:28 h 1,2020/04/14 16:48:54,unknown,SYSTEM")
        assert r["program"] == "1,2020/04/14"
        assert r["message"] == "16:48:54,unknown,SYSTEM"
        assert r["legacy_msghdr"] == "1,2020/04/14 "

    def test_legacy_msghdr_with_pid_and_colon(self):
        r = _parse_one("<13>Aug 17 05:02:28 h prog[42]: body")
        assert r["legacy_msghdr"] == "prog[42]: "
        assert r["program"] == "prog" and r["pid"] == "42"

    def test_pid_scan_stops_at_space(self):
        # pid chars run to ' ', ']' or ':' — unclosed bracket, space stops
        r = _parse_one("<13>Aug 17 05:02:28 h prog[12 34]: m")
        assert r["program"] == "prog" and r["pid"] == "12"
        assert r["message"] == "34]: m"
        assert r["legacy_msghdr"] == "prog[12 "

    def test_pid_unset_when_scan_runs_off_the_end(self):
        # reference sets PID only `if (left)` — data ends inside brackets
        r = _parse_one("<189>prog[123")
        assert r["program"] == "prog" and r["pid"] is None

    def test_colon_no_space(self):
        r = _parse_one("<13>Aug 17 05:02:28 h prog:m")
        assert r["program"] == "prog" and r["message"] == "m"
        assert r["legacy_msghdr"] == "prog:"

    def test_double_space_keeps_second_in_message(self):
        # exactly ONE ' ' is consumed after the optional ':'
        r = _parse_one("<13>Aug 17 05:02:28 h prog:  m")
        assert r["message"] == " m"
        assert r["legacy_msghdr"] == "prog: "

    def test_msghdr_macro_prefers_stored_legacy(self):
        from axosyslog_ray.functions.templates import Template

        t = pa.table(
            {
                "url": ["u"],
                "warc_ts": pa.array(pd.Series([RECV], dtype="datetime64[us]")),
                "text": ["<13>Aug 17 05:02:28 h 1,comma/prog body here"],
            }
        )
        out = parse_syslog_table(t)
        hdr = Template("$MSGHDR").eval(out).tolist()
        assert hdr == ["1,comma/prog "]  # raw consumed bytes, not "prog: "
        leg = Template("${LEGACY_MSGHDR}${MESSAGE}").eval(out).tolist()
        assert leg == ["1,comma/prog body here"]

    def test_scalar_oracle_agrees_on_legacy_scan(self):
        for line in ("<189>65536", "<189>prog[123",
                     "<13>Aug 17 05:02:28 h first second third",
                     "<13>Aug 17 05:02:28 h prog[12 34]: m",
                     "<13>Aug 17 05:02:28 h prog:m",
                     "<13>Aug 17 05:02:28 h [noname]: m"):
            v = _parse_one(line)
            sc = parse_syslog_line(line, RECV)
            for k in ("program", "pid", "message", "legacy_msghdr", "tags"):
                got = list(v[k]) if isinstance(v[k], (list, np.ndarray)) else v[k]
                assert got == sc[k], (line, k, got, sc[k])


class TestRfc3164IsoTimestamp:
    """Legacy 3164 header with an RFC5424-style ISO stamp in the date
    position (scan-timestamp.c:213 __parse_iso_stamp) — loggen's default
    RFC3164 shape."""

    def _parse(self, msgs):
        import pyarrow as pa

        from axosyslog_ray.stages.syslog import parse_syslog_table
        return parse_syslog_table(
            pa.table({"__raw": pa.array(msgs)}), col="__raw").to_pylist()

    def test_iso_stamp_with_pri(self):
        r = self._parse(["<38>2024-01-05T10:41:30 localhost "
                         "prg00000[1234]: seq: 0"])[0]
        assert r["pri"] == 38 and r["host"] == "localhost"
        assert r["program"] == "prg00000" and r["pid"] == "1234"
        assert r["message"] == "seq: 0"
        assert r["msgformat"] == "rfc3164"
        assert str(r["ts_stamp"]).startswith("2024-01-05 10:41:30")

    def test_iso_stamp_with_zone_and_fraction(self):
        r = self._parse(["<38>2024-01-05T10:41:30.500+02:00 myhost "
                         "app[1]: hello"])[0]
        # zone-aware stamps normalize to UTC like the 5424 branch
        assert str(r["ts_stamp"]).startswith("2024-01-05 08:41:30.500")
        assert r["host"] == "myhost" and r["message"] == "hello"

    def test_iso_stamp_no_pri(self):
        r = self._parse(["2024-01-05T10:41:30Z h2 svc: x"])[0]
        assert r["pri"] == 13  # default user.notice
        assert r["host"] == "h2" and r["program"] == "svc"

    def test_bsd_stamp_still_wins(self):
        r = self._parse(["<38>Jan  5 10:41:30 myhost app[1]: hello"])[0]
        assert r["host"] == "myhost" and r["program"] == "app"


# ---------------------------------------------------------------------------
# Differential test: vectorized path vs scalar oracle on generated lines
# ---------------------------------------------------------------------------


def _num(lo, hi, width):
    return st.integers(lo, hi).map(lambda v: str(v).zfill(width))


_iso = st.builds(
    lambda y, mo, d, h, mi, sec, frac, zone: f"{y}-{mo}-{d}T{h}:{mi}:{sec}{frac}{zone}",
    st.sampled_from(["0001", "1970", "2024", "2026", "9999"]) | _num(0, 9999, 4),
    _num(0, 13, 2), _num(0, 32, 2), _num(0, 25, 2), _num(0, 61, 2), _num(0, 61, 2),
    st.just("") | st.text("0123456789", min_size=1, max_size=9).map(lambda f: "." + f),
    st.sampled_from(["", "Z"]) | st.builds(
        lambda sign, hh, sep, mm: f"{sign}{hh}{sep}{mm}",
        st.sampled_from("+-"), _num(0, 25, 2), st.sampled_from(["", ":"]), _num(0, 61, 2)),
)
# shapes outside the one ISO grammar: null stamps on both paths
_not_iso = st.sampled_from(["2026", "2026-01", "20260101T000456Z", "2026-01-01 00:04:56",
                            "2026-01-01t00:04:56z", "10/11/2003", "-"])
_bsd = st.builds(
    lambda mon, day, h, mi, sec: f"{mon} {day} {h}:{mi}:{sec}",
    st.sampled_from(["Jan", "Feb", "Dec", "Aug"]),
    st.sampled_from(["30", "29", " 7", "00", "31"]) | _num(0, 32, 2),
    st.sampled_from(["24", "23"]) | _num(0, 25, 2), _num(0, 61, 2), _num(0, 61, 2),
)
_tok = st.text("ab1-.:[]=\"\\\t\x0b", min_size=1, max_size=8)
_field = st.just("-") | _tok
_sd_value = st.text('ab "\\]=', max_size=6).map(
    lambda v: '"' + v.replace("\\", "\\\\").replace('"', '\\"').replace("]", "\\]") + '"')
_sd_elem = st.builds(
    lambda sdid, params: f"[{sdid}{params}]",
    st.sampled_from(["ex@0", "origin", "a"]),
    st.lists(st.builds(lambda k, v: f" {k}={v}", st.sampled_from(["k", "q", "ip"]),
                       _sd_value | st.text("ab1", max_size=4)), max_size=3).map("".join),
)
_sd = st.just("-") | st.lists(_sd_elem, min_size=1, max_size=3).map("".join) \
    | st.sampled_from(["[bad", "[a k=\"v\"", "[]"])
_tail = st.sampled_from(["prog[pid]: message", "prog: m", "prog[12 34]: m", "prog[123",
                         "prog[12:", "127.0.0.1[pid]: x", "[noname]: m", "65536",
                         "prog!: m", "a(b)/c.d-e_f[1]: m", ""]) \
    | st.text(" :[]ab1.-/!\t\n", max_size=16)
_pri = st.sampled_from(["", "<13>", "<189> ", "<0>", "<999>"]) | _num(0, 999, 1).map(lambda p: f"<{p}>")

_line = st.one_of(
    # RFC5424: nil fields, SD blocks, trailing spaces
    st.builds(lambda pri, ts, host, app, pid, msgid, sd, msg:
              f"<{pri}>1 {ts} {host} {app} {pid} {msgid} {sd}{msg}",
              _num(0, 999, 1), _iso | _not_iso | _tok, _field, _field, _field, _field, _sd,
              st.sampled_from(["", " ", " msg", "  trailing  ", " evt count=1\n"])),
    # RFC3164 with a BSD or an ISO stamp (or an ISO-like non-stamp)
    st.builds(lambda pri, stamp, sp, host, tail: f"{pri}{stamp}{sp}{host}{tail}",
              _pri, _bsd | _iso | _not_iso, st.sampled_from([" ", "  "]),
              st.sampled_from(["host", "h2", "10.0.0.1"]),
              st.just("") | _tail.map(lambda tl: " " + tl)),
    # PRI with a missing timestamp
    st.builds(lambda pri, sp, tail: f"<{pri}>{sp}{tail}",
              _num(0, 999, 1), st.sampled_from(["", " ", "  "]), _tail),
    # a '<' that never closes a PRI
    st.sampled_from(["<189 Aug 17 05:02:28 h p: m", "<abc> x", "<1234>x", "<", "<13"]),
    st.text(max_size=40),
)
_recv = st.none() | st.sampled_from([datetime(2026, 1, 2), datetime(2025, 12, 31, 23)]) \
    | st.datetimes(min_value=datetime(1971, 1, 1), max_value=datetime(2100, 1, 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_line, _recv), min_size=1, max_size=20), st.booleans())
def test_vectorized_matches_scalar_oracle_differential(rows, check_program):
    lines, recvs = zip(*rows)
    t = pa.table({"text": pa.array(lines, pa.string()),
                  "warc_ts": pa.array(recvs, pa.timestamp("us"))})
    _assert_oracle_agrees(t, check_program)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_line, _recv), min_size=1, max_size=20), st.booleans(),
       st.sets(st.sampled_from(COLUMNS)))
def test_pruned_columns_match_the_full_parse(rows, check_program, subset):
    """columns= builds exactly the named outputs, after the input
    columns and in COLUMNS order, each equal to the full parse's."""
    lines, recvs = zip(*rows)
    t = pa.table({"text": pa.array(lines, pa.string()),
                  "warc_ts": pa.array(recvs, pa.timestamp("us"))})
    full = parse_syslog_table(t, check_program=check_program)
    pruned = parse_syslog_table(t, check_program=check_program, columns=subset)
    assert pruned.column_names == ["text", "warc_ts"] + [c for c in COLUMNS if c in subset]
    for c in subset:
        assert pruned.column(c).equals(full.column(c)), c


def test_unknown_column_raises():
    with pytest.raises(ValueError, match="sd_data"):
        parse_syslog_table(gen_pages_table(10), columns=("pri", "sd_data"))
