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

Vectorization strategy: `pyarrow.compute` and numpy only, and no RE2
capture group (RE2 answers a bare match with its DFA, and has to switch
to a slower engine as soon as one submatch is asked for). A row is
matched only against the branches its first byte can start ('<' for
RFC5424 and PRI-only; '<' or a month initial for RFC3164 with a BSD
stamp; '<' or a digit for RFC3164 with an ISO stamp), by one bare
`match_substring_regex` per branch. The matched rows' fields are then
read at byte offsets in the column's one data buffer: the PRI digits,
the 15-byte BSD stamp, the ISO stamp (19 fixed bytes, the zone form
decided from the token's end), the ` +` runs and the host, and the
legacy `program[pid]:` header (RE_TAGX's grammar as stop bytes). A
scan for one stop byte is one Arrow substring search; a scan for a set
of them walks the open rows in numpy for at most `_SCAN_CAP` bytes and
hands the rest to one RE2 search. The RFC5424 header is the
first six tokens of a `split_pattern(" ", max_splits=6)` of its rows
(no header token holds a space; the seventh is the SD block and
message); the SD block is the one `extract_regex`, since `message`
starts after it. Each string output is built once, from per-row
[start, stop) spans of the buffer, by one `take`. The SDATA maps are
read at byte offsets of the validated SD blocks too (`_sd_maps`), so no
output is built row by row in Python.

A caller names the columns it reads (`columns=`, all 12 by default), and
only those are built.

Every pattern is written once and serves both engines: bare RE2 matches
in the vectorized path, Python `re` (ASCII, `fullmatch`, named groups)
in the scalar oracle `parse_syslog_line`.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from datetime import datetime, timedelta
from typing import NamedTuple

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


_SD_UNESCAPE = re.compile(r'\\([\\"\]])')


def _unescape_sd(v: str) -> str:
    return _SD_UNESCAPE.sub(r"\1", v)


# one finditer per block: a param, else an SDID. The param comes first,
# since a PARAM-NAME may start with '[' (`[a [k="v"]` is `a.[k`). Values
# may be quoted OR unquoted-until-space/']': the reference accepts both
# (syslog-format.c:711-769 sd-param-value), and sdata-parser() takes
# unvalidated input. re.S: '\' escapes a newline too, as in RE_SD_BLOCK
RE_SD_TOKEN = re.compile(
    r'([^ \]"=]+)=(?:"((?:[^"\\]|\\.)*)"|([^ \]]*))|\[([^ \]"=]+)', _FLAGS)


def parse_sdata(sd: str) -> list[tuple[str, str]] | None:
    """Parse an RFC5424 STRUCTURED-DATA block into [('sdid.param', value)].

    Key layout matches the reference's `.SDATA.<sdid>.<param>` naming minus
    the fixed prefix (reference syslog-format.c:562-829). The row form of
    the scalar oracle and sdata-parser(); parse_syslog_table builds the
    same maps with `_sd_maps`."""
    if sd == "-" or not sd:
        return None
    out: list[tuple[str, str]] = []
    sdid = ""
    for m in RE_SD_TOKEN.finditer(sd):
        if m.group(4) is not None:
            sdid = m.group(4)
        else:
            v = m.group(2)
            if v is not None:
                if "\\" in v:
                    v = _unescape_sd(v)
            else:
                v = m.group(3)  # unquoted value, verbatim
            out.append((f"{sdid}.{m.group(1)}", v))
    return out


# ---------------------------------------------------------------------------
# Vectorized path
# ---------------------------------------------------------------------------

# A scan for a set of stop bytes walks at most this many bytes a row in
# numpy; the rows still open then take one RE2 search, so a long token
# costs one pass
_SCAN_CAP = 64


class _Stops(NamedTuple):
    """A scan's stop bytes: a 256-entry byte table, the same set as an RE2
    class, and the byte itself when the set is one byte."""
    table: np.ndarray
    pattern: str
    literal: str | None


def _stop_set(chars: str, negate: bool = False) -> _Stops:
    codes = list(chars.encode())
    return _Stops(np.isin(np.arange(256), codes) != negate,
                  "[" + "^" * negate + "".join(f"\\x{c:02x}" for c in codes) + "]",
                  chars if len(chars) == 1 and not negate else None)


_SPACE, _NOT_SPACE, _GT = _stop_set(" "), _stop_set(" ", negate=True), _stop_set(">")
# RE_TAGX as stop sets: the program ends at ' ', '[' or ':', the pid at ']', ' ' or ':'
_PROG_END, _PID_END = _stop_set(" [:"), _stop_set("] :")
# the first bytes an RFC3164 stamp can start with, after an optional PRI
_MONTH_INITIAL = _stop_set("".join(m[0] for m in MONTH_NAMES)).table
_DIGIT = _stop_set("0123456789").table
_MONTH_KEYS = np.array([int.from_bytes(m.encode(), "big") for m in MONTH_NAMES])


class _Text:
    """The bytes of a string column, read at per-row byte offsets. Every
    delimiter the parse cuts at is ASCII, so a cut never splits a UTF-8
    sequence."""

    def __init__(self, text: pa.StringArray):
        _, offsets, buf = text.buffers()
        self.buf = buf if buf is not None else pa.py_buffer(b"")
        off = np.frombuffer(offsets, np.int32)[text.offset:text.offset + len(text) + 1].astype(np.int64)
        self.start, self.end = off[:-1], off[1:]
        # one zero byte stands in for an empty buffer, so a read never fails
        self.data = np.frombuffer(self.buf, np.uint8) if self.buf.size else np.zeros(1, np.uint8)

    def byte(self, pos: np.ndarray) -> np.ndarray:
        """The byte at each position; one past the buffer reads its last."""
        return self.data[np.minimum(pos, len(self.data) - 1)]

    def int_at(self, pos: np.ndarray, width: int, stop: np.ndarray | None = None) -> np.ndarray:
        """The ASCII digits at pos..pos+width (cut at stop) as int64."""
        v = np.zeros(len(pos), np.int64)
        for k in range(width):
            d = v * 10 + self.byte(pos + k) - 48
            v = d if stop is None else np.where(pos + k < stop, d, v)
        return v

    def scan(self, pos: np.ndarray, end: np.ndarray, stops: _Stops) -> np.ndarray:
        """Per row, the first position in [pos, end) whose byte is in the
        stop set, else end. The rows must be in row order. One stop byte
        is found by Arrow's substring search alone."""
        pos = pos.copy()
        live = np.flatnonzero(pos < end)
        for _ in range(0 if stops.literal else _SCAN_CAP):
            if not len(live):
                return pos
            live = live[~stops.table[self.data[pos[live]]]]
            pos[live] += 1
            live = live[pos[live] < end[live]]
        if len(live):
            # element i is [pos, next open row's pos): a hit past the row's end is a miss
            p, e = pos[live], end[live]
            view = pa.Array.from_buffers(pa.binary(), len(live), [
                None, pa.py_buffer(np.append(p, e[-1]).astype(np.int32)), self.buf])
            i = (pc.find_substring(view, stops.literal) if stops.literal
                 else pc.find_substring_regex(view, stops.pattern)).to_numpy()
            pos[live] = np.where((i >= 0) & (i < e - p), p + i, e)
        return pos

    def strings(self, lo: np.ndarray, hi: np.ndarray, valid: np.ndarray | None = None) -> pa.StringArray:
        """The strings data[lo:hi], null where not valid; the spans lie in
        their rows, in row order. One take of the even elements of a view
        whose odd elements are the gaps between the spans."""
        m = len(lo)
        offsets = np.empty(2 * m + 1, np.int32)
        offsets[0:-1:2], offsets[1:-1:2] = np.minimum(lo, hi), hi
        offsets[-1] = hi[-1] if m else 0
        view = pa.StringArray.from_buffers(2 * m, pa.py_buffer(offsets), self.buf)
        return view.take(pa.array(np.arange(0, 2 * m, 2), mask=None if valid is None else ~valid))


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


def _iso_at(text: _Text, p: np.ndarray, end: np.ndarray):
    """`_timestamp` of the ISO_STAMP tokens text[p:end] (each matches it):
    19 fixed bytes, then the zone form read from the token's end (Z,
    ±HH:MM or ±HHMM), and up to 6 digits of the fraction before it."""
    year, month, day, hour, minute, second = (
        text.int_at(p + i, w) for i, w in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2)))
    signs = (ord("+"), ord("-"))
    colon = np.isin(text.byte(end - 6), signs)  # ±HH:MM
    plain = ~colon & np.isin(text.byte(end - 5), signs)  # ±HHMM
    zone = np.select([text.byte(end - 1) == ord("Z"), colon, plain], [end - 1, end - 6, end - 5], end)
    oh = np.where(colon | plain, text.int_at(zone + 1, 2), 0)
    om = np.where(colon | plain, text.int_at(end - 2, 2), 0)
    sign = np.where(text.byte(zone) == ord("-"), -1, 1)
    frac = np.where((p + 19 < end) & (text.byte(p + 19) == ord(".")), p + 20, zone)
    micro = text.int_at(frac, 6, stop=zone) * 10 ** (6 - np.minimum(zone - frac, 6))
    us, ok = _timestamp(year, month, day, hour, minute, second, micro, sign * (oh * 60 + om))
    return us, ok & (oh < 24) & (om < 60)


def _bsd_at(text: _Text, p: np.ndarray, recv: np.ndarray):
    """`_timestamp` of the 15-byte BSD stamps `Mmm dd hh:mm:ss` at p (each
    matches RE_3164's), the year guessed from the receive time."""
    key = (text.byte(p).astype(np.int64) << 16) | (text.byte(p + 1).astype(np.int64) << 8) | text.byte(p + 2)
    mon = (key[:, None] == _MONTH_KEYS).argmax(1) + 1
    day = np.where(text.byte(p + 4) == ord(" "), 0, text.int_at(p + 4, 1)) * 10 + text.int_at(p + 5, 1)
    return _timestamp(guess_year(mon, recv), mon, day,
                      text.int_at(p + 7, 2), text.int_at(p + 10, 2), text.int_at(p + 13, 2))


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


def _sd_maps(blocks: pa.StringArray) -> pa.MapArray:
    """The `parse_sdata` maps of SD blocks that RE_SD_BLOCK validated (none
    is '-'), read at byte offsets. A '"' is structural when the run of '\\'
    before it is even; in a valid block those alternate open/close, and an
    open one follows a param's '='. A ']' or ' ' outside every value ends
    an element or starts a param. The blocks sit back to back in the data
    buffer, so element k starts one byte after element k-1's ']'."""
    tx = _Text(blocks)
    s0, e0 = (tx.start[0], tx.end[-1]) if len(blocks) else (0, 0)
    d = tx.data[s0:e0]
    quote = np.flatnonzero(d == ord('"'))
    bs = d == ord("\\")
    escaped = bs.any()
    if escaped:
        last = np.maximum.accumulate(np.where(bs, -1, np.arange(len(d))))
        quote = quote[(quote - 1 - last[quote - 1]) % 2 == 0]
    opens, closes = quote[0::2], quote[1::2]
    cut = np.flatnonzero((d == ord("]")) | (d == ord(" ")))
    cut = cut[np.searchsorted(quote, cut) % 2 == 0]  # outside every value
    ends, spaces = cut[d[cut] == ord("]")], cut[d[cut] == ord(" ")]
    starts = np.append(0, ends + 1)[:-1]
    sdid_end = cut[np.searchsorted(cut, starts + 1)]
    name_start = spaces[np.searchsorted(spaces, opens) - 1] + 1
    values = tx.strings(s0 + opens + 1, s0 + closes)
    if escaped:
        values = pc.replace_substring_regex(values, _SD_UNESCAPE.pattern, r"\1")
    keys = pc.binary_join_element_wise(
        tx.strings(s0 + starts + 1, s0 + sdid_end).take(np.searchsorted(ends, opens)),
        tx.strings(s0 + name_start, s0 + opens - 1), ".")
    per_row = np.bincount(np.searchsorted(tx.end - s0, opens, side="right"), minlength=len(blocks))
    offsets = np.concatenate(([0], np.cumsum(per_row))).astype(np.int32)
    return pa.MapArray.from_arrays(offsets, keys, values, type=_SDATA)


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
    raises ValueError); they are appended in COLUMNS order. The SD block
    is matched only for message or sdata. The sdata maps are one MapArray
    over the blocks RE_SD_BLOCK validated (`_sd_maps`: numpy over their
    bytes, one unescape, one key join), entries in block order with
    duplicate keys kept; a block with no params is an empty map, and '-'
    or an unparsed row is null.

    check_program mirrors LP_CHECK_PROGRAM (syslog-format.c:332-373):
    an RFC3164 program name must be [A-Za-z0-9._-()/]+ with at least one
    letter; otherwise PROGRAM/PID stay unset, the whole tail stays in
    the message, and the row is tagged syslog.rfc3164_invalid_program
    (pins test_syslog_format.c rfc3164_check_program_*)."""
    if unknown := set(columns) - set(COLUMNS):
        raise ValueError(f"unknown syslog columns: {sorted(unknown)}")
    n = table.num_rows
    text = pc.fill_null(table.column(col).cast(pa.string()), "").combine_chunks()
    tx = _Text(text)
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
    # each string output is a [lo, hi) byte span of its row, null where not
    # valid; an unparsed row's message is the whole row
    spans = {k: [tx.start.copy(), tx.start.copy(), np.zeros(n, bool)]
             for k in ("host", "program", "pid", "msgid", "legacy_msghdr")}
    spans["message"] = [tx.start.copy(), tx.end, np.ones(n, bool)]

    def put(name, rows, lo, hi, valid=True):
        s = spans[name]
        s[0][rows], s[1][rows], s[2][rows] = lo, hi, valid

    # a row is matched only against the branches its first byte can start
    first = np.where(tx.end > tx.start, tx.byte(tx.start), 0)
    lt = first == ord("<")

    def match(cand, pattern):
        """The rows of `cand` that `pattern` matches: a bare RE2 match,
        which runs RE2's DFA and computes no captures."""
        ok = pc.match_substring_regex(text.filter(pa.array(cand)), "(?s)" + pattern.pattern)
        return np.flatnonzero(cand)[ok.to_numpy(zero_copy_only=False)]

    def after_pri(rows):
        """Set the pri of `rows` that open with '<pri>'; -> where each row's
        header goes on."""
        at = tx.start[rows].copy()
        w = lt[rows]
        s = at[w]
        gt = tx.scan(s + 1, tx.end[rows][w], _GT)
        pri[rows[w]] = tx.int_at(s + 1, 3, stop=gt)
        at[w] = gt + 1
        return at

    # ---------- RFC5424 ----------
    # the header is the first six of seven space-split tokens: no space
    # can sit inside one
    rows = match(lt, RE_5424)
    after_pri(rows)
    tok = pc.split_pattern(text.take(rows), " ", max_splits=6)
    size = pc.binary_length(tok.flatten()).to_numpy().astype(np.int64).reshape(-1, 7)
    lo = tx.start[rows, None] + np.cumsum(np.pad(size[:, :-1] + 1, ((0, 0), (1, 0))), axis=1)
    hi = lo + size
    iso = pc.match_substring_regex(pc.list_element(tok, 1), "(?s)" + RE_ISO.pattern).to_numpy(
        zero_copy_only=False)
    ts_ok[rows] = False
    ts[rows[iso]], ts_ok[rows[iso]] = _iso_at(tx, lo[iso, 1], hi[iso, 1])
    # nil ('-') fields stay null, matching the reference's unset values
    for name, i in (("host", 2), ("program", 3), ("pid", 4), ("msgid", 5)):
        put(name, rows, lo[:, i], hi[:, i], (size[:, i] != 1) | (tx.byte(lo[:, i]) != ord("-")))
    sd_rows = sd_blocks = None
    if "message" in columns or "sdata" in columns:
        sd = pc.extract_regex(pc.list_element(tok, 6), pattern="(?s)" + RE_SD_BLOCK.pattern)
        block = pc.struct_field(sd, "sd")
        skip = pc.fill_null(pc.binary_length(block), -1).to_numpy() + 1  # the block and its space
        put("message", rows, np.minimum(lo[:, 6] + skip, hi[:, 6]), hi[:, 6])
        has_sd = pc.fill_null(pc.not_equal(block, "-"), False)
        sd_rows, sd_blocks = rows[has_sd.to_numpy(zero_copy_only=False)], block.filter(has_sd)
    fmt[rows] = 1

    # ---------- RFC3164 with a BSD or an ISO stamp ----------
    # the legacy date scan also accepts an RFC5424-style ISO stamp
    # (scan-timestamp.c:213 __parse_iso_stamp); host/tag parse continues
    # exactly like the BSD-stamp branch
    stamp_end = np.zeros(n, np.int64)
    rows = match((fmt == 0) & (lt | _MONTH_INITIAL[first]), RE_3164)
    p = after_pri(rows)
    p += tx.byte(p) == ord(" ")
    ts[rows], ts_ok[rows] = _bsd_at(tx, p, recv[rows])
    stamp_end[rows], fmt[rows] = p + 15, 2
    rows = match((fmt == 0) & (lt | _DIGIT[first]), RE_3164_ISO)
    p = after_pri(rows)
    p += tx.byte(p) == ord(" ")
    stamp_end[rows] = tx.scan(p + 19, tx.end[rows], _SPACE)
    ts[rows], ts_ok[rows] = _iso_at(tx, p, stamp_end[rows])
    fmt[rows] = 2
    # the reference skips ALL spaces before the hostname and before the
    # program name (syslog-format.c:923,955 _skip_chars " " -1)
    rows = np.flatnonzero(fmt == 2)
    end = tx.end[rows]
    host = tx.scan(stamp_end[rows], end, _NOT_SPACE)
    host_end = tx.scan(host, end, _SPACE)
    put("host", rows, host, host_end)
    rest = np.zeros(n, np.int64)
    rest[rows] = tx.scan(host_end, end, _NOT_SPACE)

    # ---------- RFC3164 with PRI but missing timestamp ----------
    # `<189> program[pid]: message` parses TAG-only: no host, stamp=recv,
    # tags syslog.missing_timestamp + rfc3164_missing_header (reference
    # tests/test_syslog_format.c rfc3164_error_missing_timestamp). The
    # legacy scan always runs here: "<189>65536" yields PROGRAM="65536"
    # (syslog-format.c:978-981)
    rows = match((fmt == 0) & lt, RE_PRI_ONLY)
    rest[rows] = tx.scan(after_pri(rows), tx.end[rows], _NOT_SPACE)
    fmt[rows], tags[rows] = 2, _T_MISSING_TS

    # ---------- the legacy program-name scan of every RFC3164 row ----------
    # RE_TAGX as byte offsets; `pid` is null where no '[' was present OR
    # the scan ran off the end of the data (reference sets PID only
    # `if (left)`, syslog-format.c:384-386). Under check_program a bad
    # name leaves PROGRAM/PID unset with the whole tail as the message
    # (reference early return)
    rows = np.flatnonzero(fmt == 2)
    r, end = rest[rows], tx.end[rows]
    prog_end = tx.scan(r, end, _PROG_END)
    pid_end = prog_end.copy()
    bracket = (prog_end < end) & (tx.byte(prog_end) == ord("["))
    pid_end[bracket] = tx.scan(prog_end[bracket] + 1, end[bracket], _PID_END)
    has_pid = bracket & (pid_end < end)
    hdr_end = pid_end + (has_pid & (tx.byte(pid_end) == ord("]")))
    hdr_end += (hdr_end < end) & (tx.byte(hdr_end) == ord(":"))
    hdr_end += (hdr_end < end) & (tx.byte(hdr_end) == ord(" "))
    ok = np.ones(len(rows), bool)
    if check_program:
        ok = pc.match_substring_regex(tx.strings(r, prog_end), RE_PROGRAM.pattern).to_numpy(
            zero_copy_only=False)
        tags[rows] += np.where(ok, 0, _T_INVALID_PROGRAM).astype(np.int8)
    put("program", rows, r, prog_end, ok)
    put("pid", rows, prog_end + 1, pid_end, has_pid & ok)
    put("message", rows, np.where(ok, hdr_end, r), end)
    put("legacy_msghdr", rows, r, hdr_end, (hdr_end > r) & ok)

    # ---------- invalid PRI: a '<' prefix that never closes ----------
    # the reference accepts the line, shoves it whole into MSG and tags
    # syslog.invalid_pri (syslog-format.c:1076-1080,
    # test_syslog_format.c rfc3164_error_invalid_pri)
    ipri = lt & (fmt == 0)
    fmt[ipri] = 2
    tags[ipri] = _T_INVALID_PRI

    build = {
        "pri": lambda: pa.array(pri, pa.uint16()),
        "ts_stamp": lambda: pa.array(ts.view("datetime64[us]"), mask=~ts_ok),
        **{k: (lambda k=k: tx.strings(*spans[k])) for k in spans},
        "sdata": lambda: _scatter(n, [(sd_rows, _sd_maps(sd_blocks))], None, _SDATA),
        "syslog_parsed": lambda: pa.array(fmt > 0),
        "msgformat": lambda: _FORMATS.take(fmt),
        "tags": lambda: _TAG_LISTS.take(tags),
    }
    out = table
    for name in COLUMNS:
        if name not in columns:
            continue
        if name in out.column_names:  # re-parse overwrites (syslog-parser() on a field)
            out = out.set_column(out.column_names.index(name), name, build[name]())
        else:
            out = out.append_column(name, build[name]())
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
    """Scalar `_iso_at` over the ISO_STAMP groups of a match."""
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
