"""Syslog header parsing: RFC3164 + RFC5424 with autodetect.

Semantics mirror the reference's initial message parse
(reference modules/syslogformat/syslog-format.c:1045-1239 — autodetect;
pri at :123; RFC5424 SDATA at :562-829; hostname :483; program :348;
RFC3164 year guessing :251-302) over an Arrow string column. Parse
failure does NOT drop the row here — it yields `syslog_parsed == False`
with the whole line as `message` and `pri == DEFAULT_PRI`, the
reference's no-parse fallback; routing layers decide what to do with
unparsed rows (the reference's parser-failure drop,
lib/parser/parser-expr.c:46-99, is applied by the pipeline).

Vectorization strategy: `pyarrow.compute` and numpy only. RFC5424 is
one RE2 match without captures over every row, and its header is then
the first six tokens of a `split_pattern(" ", max_splits=6)` of the
matching rows (no header token holds a space; the seventh token is the
SD block and message). Each later branch (RFC3164 with a BSD stamp,
RFC3164 with an ISO stamp, PRI with no stamp, unterminated PRI) runs one
RE2 `extract_regex` over the rows no earlier branch claimed; stamps are
assembled numerically from the captured digits by `_timestamp`; each
output column is the concatenation of the per-branch values, put in row
order by one `take`.

A caller names the columns it reads (`columns=`, all 12 by default), and
only those are built. Only SDATA map construction touches Python, per
row with an SD block (map columns are row-wise by nature), and only when
`sdata` is asked for; the SD block is still matched, because `message`
starts after it.

Every pattern is written once and serves both engines: RE2 in the
vectorized path, Python `re` (ASCII, `fullmatch`) in the scalar oracle
`parse_syslog_line`.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DEFAULT_PRI

MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
# re.A: \d is [0-9] as in RE2. The oracle matches with fullmatch, so `$`
# is end-of-text as in RE2 (Python's `$` also matches before a final \n)
_FLAGS = re.S | re.A
_TOK = r"[^\t\n\f\r ]+"  # RE2's \S+ (Python's ASCII \S also excludes \v)

RE_5424 = re.compile(
    rf"^<(?P<pri>\d{{1,3}})>(?P<ver>\d) (?P<ts>{_TOK}) (?P<host>{_TOK}) "
    rf"(?P<app>{_TOK}) (?P<pid>{_TOK}) (?P<msgid>{_TOK}) (?P<rest>.*)$",
    _FLAGS,
)
# SD block: one or more [sdid param="value"...] elements; values may contain
# escaped chars (\" \\ \]) per RFC5424 / reference syslog-format.c:562-829.
RE_SD_BLOCK = re.compile(r'^(?P<sd>-|(?:\[[^ \]"=]+(?: [^ \]"=]+="(?:[^"\\]|\\.)*")*\])+)(?: (?P<msg>.*))?$', _FLAGS)

# The one ISO-8601 stamp grammar of both ISO branches (the RFC5424
# TIMESTAMP and the RFC3164-ISO date position):
# YYYY-MM-DDTHH:MM:SS[.frac][Z|±HH[:]MM]; anything else is a null stamp.
ISO_STAMP = (
    r"(?P<year>\d{4})-(?P<month>\d{2})-(?P<day>\d{2})T"
    r"(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})(?:\.(?P<frac>\d+))?"
    r"(?:Z|(?P<sign>[+-])(?P<oh>\d{2}):?(?P<om>\d{2}))?"
)
RE_ISO = re.compile(rf"^{ISO_STAMP}$", _FLAGS)

RE_3164 = re.compile(
    # separators after the timestamp are ' '-runs (the reference skips
    # ALL spaces before the hostname and before the program name,
    # syslog-format.c:923,955 _skip_chars " " -1); a line ending right
    # after the hostname still parses (empty rest)
    r"^(?:<(?P<pri>\d{1,3})> ?)?(?P<mon>" + "|".join(MONTH_NAMES) + r") (?P<day>[ \d]\d) "
    r"(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2}) +(?P<host>[^ ]+)(?: +(?P<rest>.*))?$",
    _FLAGS,
)
# RFC3164 with an RFC5424-style ISO timestamp in the date position —
# accepted by the reference's legacy parser (scan-timestamp.c:213
# __parse_iso_stamp, reached from the 3164 date scan; 'T' separator,
# optional fraction and zone). loggen's default 3164 shape uses this.
RE_3164_ISO = re.compile(
    rf"^(?:<(?P<pri>\d{{1,3}})> ?)?{ISO_STAMP} +(?P<host>[^ ]+)(?: +(?P<rest>.*))?$",
    _FLAGS,
)
# a PRI with no stamp after it (the missing-timestamp branch)
RE_PRI_ONLY = re.compile(r"^<(?P<pri>\d{1,3})> *(?P<rest>.*)$", _FLAGS)
# Reference-exact legacy program-name scan (syslog-format.c:348-407
# _syslog_format_parse_legacy_program_name): program = chars up to the
# FIRST ' ', '[' or ':' (may be empty; no colon required — "<189>65536"
# parses PROGRAM="65536"), pid = bracket chars up to ' ', ']' or ':'
# (closing ']' consumed if present), then ONE optional ':' and ONE
# optional ' ' are consumed; everything consumed is $LEGACY_MSGHDR.
# Always matches — the bracket groups are captured raw so an absent pid
# ("" group) is distinguishable from an empty "[]" one, and the consumed
# header can be reassembled byte-exactly.
RE_TAGX = re.compile(
    r"^(?P<prog>[^:\[ ]*)(?P<pidb>\[(?P<pid>[^\] :]*)\]?)?(?P<colon>:?)(?P<sp> ?)(?P<msg>.*)$",
    _FLAGS,
)
# LP_CHECK_PROGRAM: [A-Za-z0-9._-()/]+ with at least one letter
RE_PROGRAM = re.compile(r"^[A-Za-z0-9._\-()/]*[A-Za-z][A-Za-z0-9._\-()/]*$", _FLAGS)

_US = 1_000_000
_EPOCH = datetime(1970, 1, 1)
# the stamps Python's datetime can hold: years 1-9999
_US_MIN = (datetime.min - _EPOCH) // timedelta(microseconds=1)
_US_MAX = (datetime.max - _EPOCH) // timedelta(microseconds=1)

# msgformat and tags values, indexed by the per-row codes below
_FORMATS = pa.array([None, "rfc5424", "rfc3164"], pa.string())
_T_INVALID_PROGRAM, _T_MISSING_TS, _T_INVALID_PRI = 1, 2, 4
_TAG_LISTS = pa.array(
    [None, ["syslog.rfc3164_invalid_program"],
     ["syslog.missing_timestamp", "syslog.rfc3164_missing_header"],
     ["syslog.missing_timestamp", "syslog.rfc3164_missing_header",
      "syslog.rfc3164_invalid_program"],
     ["syslog.invalid_pri"]],
    pa.list_(pa.string()),
)
_SDATA = pa.map_(pa.string(), pa.string())
# every column parse_syslog_table can build, in output order
COLUMNS = ("pri", "ts_stamp", "host", "program", "pid", "msgid", "message",
           "legacy_msghdr", "sdata", "syslog_parsed", "msgformat", "tags")
_NULL_STR = pa.scalar(None, pa.string())


_SD_UNESCAPE = re.compile(r'\\([\\"\]])')


def _unescape_sd(v: str) -> str:
    return _SD_UNESCAPE.sub(r"\1", v)


# single-pass scanner: one finditer per block instead of per-element +
# per-param engine invocations (flagship hot path, ~12% of the fused
# stage). Values may be quoted OR unquoted-until-space/']' — the
# reference accepts both (syslog-format.c:711-769 sd-param-value)
RE_SD_TOKEN = re.compile(
    r'\[([^ \]"=]+)|([^ \]"=]+)=(?:"((?:[^"\\]|\\.)*)"|([^ \]]*))')


def parse_sdata(sd: str) -> list[tuple[str, str]] | None:
    """Parse an RFC5424 STRUCTURED-DATA block into [('sdid.param', value)].

    Key layout matches the reference's `.SDATA.<sdid>.<param>` naming minus
    the fixed prefix (reference syslog-format.c:562-829)."""
    if sd == "-" or not sd:
        return None
    out: list[tuple[str, str]] = []
    sdid = ""
    for m in RE_SD_TOKEN.finditer(sd):
        if m.group(1) is not None:
            sdid = m.group(1)
        else:
            v = m.group(3)
            if v is not None:
                if "\\" in v:
                    v = _unescape_sd(v)
            else:
                v = m.group(4)  # unquoted value, verbatim
            out.append((f"{sdid}.{m.group(2)}", v))
    return out


# ---------------------------------------------------------------------------
# Vectorized path
# ---------------------------------------------------------------------------

def _extract(strings: pa.Array, pattern: re.Pattern, cand: np.ndarray):
    """RE2 `pattern` over the rows of `strings` flagged in `cand` ->
    (positions of the matching rows, their groups as a StructArray).
    Unmatched OPTIONAL groups come back as "" (RE2 semantics), not null."""
    rows = np.flatnonzero(cand)
    st = pc.extract_regex(strings.filter(pa.array(cand)), pattern="(?s)" + pattern.pattern)
    ok = st.is_valid()
    return rows[ok.to_numpy(zero_copy_only=False)], st.filter(ok)


def _int(a: pa.Array) -> np.ndarray:
    """ASCII digit strings -> int64; "" (an unmatched optional group) and a
    null read as 0, a leading space pad is skipped."""
    return pc.fill_null(pc.cast(pc.utf8_lpad(pc.utf8_ltrim(a, " "), 1, "0"), pa.int64()), 0).to_numpy()


def _timestamp(year, month, day, hour, minute, second, micro=0, offset_min=0):
    """Numeric stamp assembly over int64 arrays -> (µs since the epoch,
    valid). A field out of range (month 13, Feb 30, hour 24, minute or
    second 60) or a result outside years 1-9999 is invalid: a null stamp,
    never a roll-over into the next day."""
    ok = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
          & (hour < 24) & (minute < 60) & (second < 60))
    mstart = ((np.where(ok, year, 1970) - 1970).astype("datetime64[Y]").astype("datetime64[M]")
              + (np.where(ok, month, 1) - 1))
    first = mstart.astype("datetime64[D]")
    ok &= day <= ((mstart + 1).astype("datetime64[D]") - first).astype(np.int64)
    days = first.astype(np.int64) + day - 1
    us = (((days * 24 + hour) * 60 + minute - offset_min) * 60 + second) * _US + micro
    ok &= (us >= _US_MIN) & (us <= _US_MAX)
    return us, ok


def _iso_timestamp(st: pa.StructArray):
    """`_timestamp` over the ISO_STAMP groups of an extract; rows where the
    extract did not match are invalid."""
    def f(name):
        return pc.struct_field(st, name)

    year, month, day, hour, minute, second, oh, om = (
        _int(f(g)) for g in ("year", "month", "day", "hour", "minute", "second", "oh", "om"))
    micro = _int(pc.utf8_rpad(pc.utf8_slice_codeunits(f("frac"), 0, 6), 6, "0"))
    sign = np.where(pc.fill_null(pc.equal(f("sign"), "-"), False).to_numpy(zero_copy_only=False), -1, 1)
    us, ok = _timestamp(year, month, day, hour, minute, second, micro, sign * (oh * 60 + om))
    return us, ok & (oh < 24) & (om < 60) & st.is_valid().to_numpy(zero_copy_only=False)


def guess_year(mon: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """RFC3164 timestamps carry no year; guess the one nearest the receive
    time `recv` (datetime64[us]; reference syslog-format.c:251-302):
    receive-year, minus one when the stamp says December but we received
    in January, plus one for the mirror case. A null receive time gives
    year 0, an invalid stamp."""
    year = recv.astype("datetime64[Y]").astype(np.int64) + 1970
    rmon = recv.astype("datetime64[M]").astype(np.int64) % 12 + 1
    year[(mon == 12) & (rmon == 1)] -= 1
    year[(mon == 1) & (rmon == 12)] += 1
    return np.where(np.isnat(recv), 0, year)


def _legacy_tail(rest: pa.Array, check_program: bool, legacy_msghdr: bool):
    """The RFC3164 tail after the header: the reference legacy
    program-name scan, then LP_CHECK_PROGRAM. -> ({program, pid,
    message[, legacy_msghdr]}, bad). `pid` is null where no '[' was present
    OR the scan ran off the end of the data (reference sets PID only
    `if (left)`, syslog-format.c:384-386). Under check_program a `bad`
    name leaves PROGRAM/PID unset with the whole tail as the message
    (reference early return)."""
    st = pc.extract_regex(rest, pattern="(?s)" + RE_TAGX.pattern)
    prog, pidb, colon, sp, msg = (pc.struct_field(st, g) for g in ("prog", "pidb", "colon", "sp", "msg"))
    # scan hit end-of-data inside the brackets: nothing after the pid
    ran_off = pc.and_(pc.invert(pc.ends_with(pidb, "]")),
                      pc.equal(pc.binary_join_element_wise(prog, pidb, ""), rest))
    has_pid = pc.and_(pc.not_equal(pidb, ""), pc.invert(ran_off))
    cols = {
        "program": prog,
        "pid": pc.if_else(has_pid, pc.struct_field(st, "pid"), _NULL_STR),
        "message": msg,
    }
    if legacy_msghdr:
        legacy = pc.binary_join_element_wise(prog, pidb, colon, sp, "")
        cols["legacy_msghdr"] = pc.if_else(pc.equal(legacy, ""), _NULL_STR, legacy)
    bad = np.zeros(len(rest), dtype=bool)
    if check_program:
        ok = pc.match_substring_regex(prog, RE_PROGRAM.pattern)
        bad = ~ok.to_numpy(zero_copy_only=False)
        cols = {k: pc.if_else(ok, v, rest if k == "message" else _NULL_STR) for k, v in cols.items()}
    return cols, bad


def _scatter(n: int, pieces: list, default: pa.Array | None, typ: pa.DataType) -> pa.Array:
    """One n-row column from per-branch values. `pieces` holds (row
    positions, values) pairs; every other row takes `default` — an n-row
    array (row i -> default[i]) — or null when it is None."""
    base = sum(len(rows) for rows, _ in pieces)
    if default is None:
        default = pa.nulls(1, typ)
        pos = np.full(n, base, dtype=np.int64)
    else:
        pos = np.arange(base, base + n, dtype=np.int64)
    off = 0
    for rows, _ in pieces:
        pos[rows] = np.arange(off, off + len(rows))
        off += len(rows)
    return pa.concat_arrays([vals for _, vals in pieces] + [default]).take(pos)


def parse_syslog_table(
    table: pa.Table, col: str = "text", recv_ts_col: str = "warc_ts",
    check_program: bool = False, columns: Collection[str] = COLUMNS
) -> pa.Table:
    """Append parsed header columns to an Arrow batch (the first map_batches
    stage of the flagship pipeline).

    columns names the outputs to build (any of COLUMNS; an unknown name
    raises ValueError); they are appended in COLUMNS order, and the work
    that only msgid, legacy_msghdr, sdata or msgformat needs is skipped
    when they are not asked for.

    check_program mirrors LP_CHECK_PROGRAM (syslog-format.c:332-373):
    an RFC3164 program name must be [A-Za-z0-9._-()/]+ with at least one
    letter; otherwise PROGRAM/PID stay unset, the whole tail stays in
    the message, and the row is tagged syslog.rfc3164_invalid_program
    (pins test_syslog_format.c rfc3164_check_program_*)."""
    if unknown := set(columns) - set(COLUMNS):
        raise ValueError(f"unknown syslog columns: {sorted(unknown)}")
    n = table.num_rows
    text = pc.fill_null(table.column(col).cast(pa.string()), "").combine_chunks()
    if recv_ts_col in table.column_names:
        recv = pc.cast(table.column(recv_ts_col), pa.timestamp("us"), safe=False).to_numpy()
    else:
        recv = np.full(n, np.datetime64("2026-01-01", "us"))

    pri = np.full(n, DEFAULT_PRI, dtype=np.int64)
    # unparsed rows: stamp falls back to receive time (reference no-parse path)
    ts = recv.view(np.int64).copy()
    ts_ok = ~np.isnat(recv)
    fmt = np.zeros(n, dtype=np.int8)  # index into _FORMATS; 0 = not parsed
    tags = np.zeros(n, dtype=np.int8)  # index into _TAG_LISTS
    strs = {k: [] for k in COLUMNS}

    def rfc3164(rows, ex, us, ok):
        """The shared BSD/ISO-stamp tail: pri, stamp, host, legacy tag."""
        pv = pc.struct_field(ex, "pri")
        pri[rows] = np.where(pc.not_equal(pv, "").to_numpy(zero_copy_only=False), _int(pv), DEFAULT_PRI)
        ts[rows], ts_ok[rows] = us, ok
        strs["host"].append((rows, pc.struct_field(ex, "host")))
        tail(rows, pc.struct_field(ex, "rest"), 0)

    def tail(rows, rest, tag):
        cols, bad = _legacy_tail(rest, check_program, "legacy_msghdr" in columns)
        for k, v in cols.items():
            strs[k].append((rows, v))
        fmt[rows] = 2
        tags[rows] = np.where(bad, tag + _T_INVALID_PROGRAM, tag)

    # ---------- RFC5424 ----------
    # a bare RE2 match (it computes no captures), then the header is the
    # first six of seven space-split tokens: no space can sit inside one
    is5424 = pc.match_substring_regex(text, "(?s)" + RE_5424.pattern).to_numpy(zero_copy_only=False)
    rows = np.flatnonzero(is5424)
    tok = pc.split_pattern(text.filter(pa.array(is5424)), " ", max_splits=6)

    def field(i):
        return pc.list_element(tok, i)

    pri[rows] = _int(pc.utf8_slice_codeunits(field(0), 1, -2))  # "<pri>v"
    ts[rows], ts_ok[rows] = _iso_timestamp(pc.extract_regex(field(1), pattern="(?s)" + RE_ISO.pattern))
    # nil ('-') fields stay null, matching the reference's unset values
    for name, i in (("host", 2), ("program", 3), ("pid", 4), ("msgid", 5)):
        if name in columns:
            v = field(i)
            strs[name].append((rows, pc.if_else(pc.equal(v, "-"), _NULL_STR, v)))
    rest = field(6)
    sd = pc.extract_regex(rest, pattern="(?s)" + RE_SD_BLOCK.pattern)
    strs["message"].append((rows, pc.if_else(sd.is_valid(), pc.struct_field(sd, "msg"), rest)))
    if "sdata" in columns:
        block = pc.struct_field(sd, "sd")
        has_sd = pc.fill_null(pc.not_equal(block, "-"), False)
        strs["sdata"].append((rows[has_sd.to_numpy(zero_copy_only=False)], pa.array(
            [parse_sdata(x) for x in block.filter(has_sd).to_pylist()], _SDATA)))
    fmt[rows] = 1

    # ---------- RFC3164 ----------
    rows, ex = _extract(text, RE_3164, fmt == 0)
    mon = pc.index_in(pc.struct_field(ex, "mon"), value_set=pa.array(MONTH_NAMES)).to_numpy() + 1
    rfc3164(rows, ex, *_timestamp(
        guess_year(mon, recv[rows]), mon,
        *(_int(pc.struct_field(ex, g)) for g in ("day", "hour", "minute", "second"))))

    # ---------- RFC3164 with ISO timestamp ----------
    # the legacy date scan also accepts an RFC5424-style ISO stamp
    # (scan-timestamp.c:213 __parse_iso_stamp); host/tag parse continues
    # exactly like the BSD-stamp branch
    rows, ex = _extract(text, RE_3164_ISO, fmt == 0)
    rfc3164(rows, ex, *_iso_timestamp(ex))

    # ---------- RFC3164 with PRI but missing timestamp ----------
    # `<189> program[pid]: message` parses TAG-only: no host, stamp=recv,
    # tags syslog.missing_timestamp + rfc3164_missing_header (reference
    # tests/test_syslog_format.c rfc3164_error_missing_timestamp). The
    # legacy scan always runs here: "<189>65536" yields PROGRAM="65536"
    # (syslog-format.c:978-981)
    lt = (fmt == 0) & pc.starts_with(text, "<").to_numpy(zero_copy_only=False)
    rows, ex = _extract(text, RE_PRI_ONLY, lt)
    pri[rows] = _int(pc.struct_field(ex, "pri"))
    tail(rows, pc.struct_field(ex, "rest"), _T_MISSING_TS)

    # ---------- invalid PRI: a '<' prefix that never closes ----------
    # the reference accepts the line, shoves it whole into MSG and tags
    # syslog.invalid_pri (syslog-format.c:1076-1080,
    # test_syslog_format.c rfc3164_error_invalid_pri)
    ipri = lt & (fmt == 0)
    fmt[ipri] = 2
    tags[ipri] = _T_INVALID_PRI

    out = table
    for name, build in (
        ("pri", lambda: pa.array(pri, pa.uint16())),
        ("ts_stamp", lambda: pa.array(ts.view("datetime64[us]"), mask=~ts_ok)),
        ("host", lambda: _scatter(n, strs["host"], None, pa.string())),
        ("program", lambda: _scatter(n, strs["program"], None, pa.string())),
        ("pid", lambda: _scatter(n, strs["pid"], None, pa.string())),
        ("msgid", lambda: _scatter(n, strs["msgid"], None, pa.string())),
        ("message", lambda: _scatter(n, strs["message"], text, pa.string())),
        ("legacy_msghdr", lambda: _scatter(n, strs["legacy_msghdr"], None, pa.string())),
        ("sdata", lambda: _scatter(n, strs["sdata"], None, _SDATA)),
        ("syslog_parsed", lambda: pa.array(fmt > 0)),
        ("msgformat", lambda: _FORMATS.take(fmt)),
        ("tags", lambda: _TAG_LISTS.take(tags)),
    ):
        if name not in columns:
            continue
        if name in out.column_names:  # re-parse overwrites (syslog-parser() on a field)
            out = out.set_column(out.column_names.index(name), name, build())
        else:
            out = out.append_column(name, build())
    return out


# ---------------------------------------------------------------------------
# Pure-Python scalar reference implementation (the §5 oracle for the
# vectorized path; SURVEY.md §7.3). Never used in pipelines.
# ---------------------------------------------------------------------------

def _stamp(year, month, day, hour, minute, second, micro=0, offset_min=0):
    """Scalar `_timestamp`: a naive UTC datetime, or None when invalid."""
    try:
        return datetime(year, month, day, hour, minute, second, micro) - timedelta(minutes=offset_min)
    except (ValueError, OverflowError):
        return None


def _iso_stamp(m: re.Match):
    """Scalar `_iso_timestamp` over the ISO_STAMP groups of a match."""
    oh, om = int(m.group("oh") or 0), int(m.group("om") or 0)
    if oh > 23 or om > 59:
        return None
    sign = -1 if m.group("sign") == "-" else 1
    return _stamp(*(int(m.group(g)) for g in ("year", "month", "day", "hour", "minute", "second")),
                  int((m.group("frac") or "")[:6].ljust(6, "0")), sign * (oh * 60 + om))


def _scan_legacy_tag(rest: str) -> tuple[str, str | None, str | None, str]:
    """Scalar reference program-name scan -> (prog, pid, legacy, msg)."""
    m = RE_TAGX.fullmatch(rest)
    prog, pidb, colon, sp, msg = (m.group(g) or "" for g in ("prog", "pidb", "colon", "sp", "msg"))
    legacy = prog + pidb + colon + sp
    ran_off = not pidb.endswith("]") and prog + pidb == rest
    pid = m.group("pid") if pidb and not ran_off else None
    return prog, pid, legacy or None, msg


def parse_syslog_line(line: str, recv_ts: datetime | None, check_program: bool = False) -> dict:
    out = {
        "pri": DEFAULT_PRI, "ts_stamp": recv_ts, "host": None, "program": None,
        "pid": None, "msgid": None, "message": line, "legacy_msghdr": None,
        "sdata": None, "syslog_parsed": False, "msgformat": None, "tags": None,
    }

    def tail(rest: str) -> None:
        prog, pidv, legacyv, msgv = _scan_legacy_tag(rest)
        out["syslog_parsed"], out["msgformat"] = True, "rfc3164"
        if check_program and not RE_PROGRAM.fullmatch(prog):
            out["message"] = rest
            out["tags"] = (out["tags"] or []) + ["syslog.rfc3164_invalid_program"]
        else:
            out["program"], out["pid"], out["message"] = prog, pidv, msgv
            out["legacy_msghdr"] = legacyv

    m = RE_5424.fullmatch(line)
    if m:
        out["pri"] = int(m.group("pri"))
        iso = RE_ISO.fullmatch(m.group("ts"))
        out["ts_stamp"] = _iso_stamp(iso) if iso else None
        for k, g in (("host", "host"), ("program", "app"), ("pid", "pid"), ("msgid", "msgid")):
            v = m.group(g)
            out[k] = None if v == "-" else v
        sdm = RE_SD_BLOCK.fullmatch(m.group("rest"))
        if sdm:
            out["sdata"] = parse_sdata(sdm.group("sd"))
            out["message"] = sdm.group("msg") or ""
        else:
            out["message"] = m.group("rest")
        out["syslog_parsed"], out["msgformat"] = True, "rfc5424"
        return out
    m = RE_3164.fullmatch(line) or RE_3164_ISO.fullmatch(line)
    if m:
        if m.group("pri") is not None:
            out["pri"] = int(m.group("pri"))
        if m.re is RE_3164_ISO:
            out["ts_stamp"] = _iso_stamp(m)
        elif recv_ts is None:
            out["ts_stamp"] = None
        else:
            mon = MONTH_NAMES.index(m.group("mon")) + 1
            year = recv_ts.year
            if mon == 12 and recv_ts.month == 1:
                year -= 1
            elif mon == 1 and recv_ts.month == 12:
                year += 1
            out["ts_stamp"] = _stamp(year, mon, *(int(m.group(g)) for g in ("day", "hour", "minute", "second")))
        out["host"] = m.group("host")
        tail(m.group("rest") or "")
        return out
    m = RE_PRI_ONLY.fullmatch(line)
    if m:
        out["pri"] = int(m.group("pri"))
        out["tags"] = ["syslog.missing_timestamp", "syslog.rfc3164_missing_header"]
        tail(m.group("rest"))
        return out
    if line.startswith("<"):
        out["syslog_parsed"], out["msgformat"] = True, "rfc3164"
        out["tags"] = ["syslog.invalid_pri"]
    return out
