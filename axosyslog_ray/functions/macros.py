"""Built-in macros: virtual computed-on-read columns.

Mirrors the reference's macro table (reference lib/template/macros.c:50-231
and the LM_VF_MACRO dispatch lib/logmsg/logmsg.h:572-584): FACILITY /
SEVERITY / PRI derived from `pri`, the date macro family in sent
(`ts_stamp`), received (`R_*` over `warc_ts`), S_*, and C_*/P_*
(`proc_ts`) flavors, transport-address macros (SOURCEIP/DESTIP/PEERIP/
ports/proto) over optional columns with the reference's fallbacks, and
passthrough name aliases for builtin columns. Covers all 168 names in
the reference macro table (verified against macros.c in
tests/test_templates.py::test_full_reference_macro_table). Each macro is
a vectorized function `pa.Table -> pd.Series[str]`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

FACILITY_NAMES = [
    "kern", "user", "mail", "daemon", "auth", "syslog", "lpr", "news",
    "uucp", "cron", "authpriv", "ftp", "ntp", "security", "console",
    "solaris-cron", "local0", "local1", "local2", "local3", "local4",
    "local5", "local6", "local7",
]
SEVERITY_NAMES = ["emerg", "alert", "crit", "err", "warning", "notice", "info", "debug"]
FACILITY_NUM = {n: i for i, n in enumerate(FACILITY_NAMES)}
SEVERITY_NUM = {n: i for i, n in enumerate(SEVERITY_NAMES)}
# accepted aliases (reference lib/syslog-names.c)
SEVERITY_NUM.update({"panic": 0, "emergency": 0, "critical": 2,
                     "error": 3, "warn": 4, "informational": 6})
# set-severity() additionally accepts app-log shorthands via the alias
# gperf table (reference lib/severity-aliases.table, used by
# rewrite-set-severity.c:59) — NOT valid in filter severity expressions
SEVERITY_ALIASES = dict(SEVERITY_NUM)
SEVERITY_ALIASES.update({"fatal": 2, "ftl": 2, "wrn": 4, "inf": 6,
                         "log": 6, "dbg": 7, "vrb": 7, "trace": 7})

BSD_MONTHS = np.array(["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])


def _col(table: pa.Table, name: str) -> pd.Series:
    return table.column(name).to_pandas()


def _str(series: pd.Series) -> pd.Series:
    return series.astype("string").fillna("").astype(object)



def _int_str(d: pd.Series, zfill: int = 0, rjust: int = 0) -> pd.Series:
    """Int-series -> string with '' (never the literal '<NA>') for nulls."""
    out = d.astype("Int64").astype(str)
    if zfill:
        out = out.str.zfill(zfill)
    if rjust:
        out = out.str.rjust(rjust)
    return out.where(d.notna(), "")


def facility_num(table: pa.Table) -> pd.Series:
    return _col(table, "pri") // 8


def severity_num(table: pa.Table) -> pd.Series:
    return _col(table, "pri") % 8


def facility_name(table: pa.Table) -> pd.Series:
    fs = facility_num(table)
    ok = fs.notna().to_numpy()
    f = fs.fillna(0).to_numpy(dtype=np.int64)
    names = np.array(FACILITY_NAMES + ["unknown"], dtype=object)
    out = names[np.clip(f, 0, len(FACILITY_NAMES))]
    out[~ok] = ""  # null pri renders empty, not 'kern'
    return pd.Series(out, dtype=object)


def severity_name(table: pa.Table) -> pd.Series:
    ss = severity_num(table)
    ok = ss.notna().to_numpy()
    s = ss.fillna(0).to_numpy(dtype=np.int64)
    out = np.array(SEVERITY_NAMES, dtype=object)[np.clip(s, 0, 7)]
    out[~ok] = ""  # null pri renders empty, not 'emerg'
    return pd.Series(out, dtype=object)


def _ts(table: pa.Table, col: str) -> pd.Series:
    return _col(table, col)


def _date_macros(col: str, prefix: str = "") -> dict:
    def mk(fn):
        def eval_(t: pa.Table) -> pd.Series:
            if col not in t.column_names:  # e.g. proc_ts not stamped
                return pd.Series([""] * t.num_rows, dtype=object)
            return fn(_ts(t, col))

        return eval_

    return {
        prefix + "ISODATE": mk(lambda s: _str(s.dt.strftime("%Y-%m-%dT%H:%M:%S+00:00"))),
        prefix + "FULLDATE": mk(lambda s: _str(s.dt.strftime("%Y %b %d %H:%M:%S"))),
        prefix + "DATE": mk(
            lambda s: _str(
                pd.Series(BSD_MONTHS[s.dt.month.fillna(1).astype(int) - 1], index=s.index)
                + " " + s.dt.day.pipe(_int_str, rjust=2)
                + " " + s.dt.strftime("%H:%M:%S")
            )
        ),
        prefix + "YEAR": mk(lambda s: _str(s.dt.strftime("%Y"))),
        prefix + "MONTH": mk(lambda s: _str(s.dt.strftime("%m"))),
        prefix + "DAY": mk(lambda s: _str(s.dt.strftime("%d"))),
        prefix + "HOUR": mk(lambda s: _str(s.dt.strftime("%H"))),
        prefix + "MIN": mk(lambda s: _str(s.dt.strftime("%M"))),
        prefix + "SEC": mk(lambda s: _str(s.dt.strftime("%S"))),
        prefix + "WEEKDAY": mk(lambda s: _str(s.dt.strftime("%a"))),
        # reference lib/template/macros.c:372: tm_wday + 1, Sunday=1..Saturday=7
        # (pandas dayofweek is Monday=0..Sunday=6)
        prefix + "WEEK_DAY": mk(lambda s: _str((((s.dt.dayofweek + 1) % 7) + 1).pipe(_int_str))),
        prefix + "UNIXTIME": mk(
            lambda s: _str(
                pd.Series(s.to_numpy(dtype="datetime64[s]").astype("int64").astype(str), index=s.index).where(
                    s.notna(), ""
                )
            )
        ),
        prefix + "MSEC": mk(lambda s: _str((s.dt.microsecond // 1000).pipe(_int_str, zfill=3))),
        prefix + "USEC": mk(lambda s: _str(s.dt.microsecond.pipe(_int_str, zfill=6))),
        prefix + "STAMP": mk(lambda s: _str(s.dt.strftime("%Y-%m-%dT%H:%M:%S+00:00"))),
        # --- the full reference date family (lib/template/macros.c:375-440) ---
        prefix + "YEAR_DAY": mk(lambda s: _str(s.dt.dayofyear.pipe(_int_str, zfill=3))),
        prefix + "MONTH_ABBREV": mk(lambda s: _str(s.dt.strftime("%b"))),
        prefix + "MONTH_NAME": mk(lambda s: _str(s.dt.strftime("%B"))),
        prefix + "MONTH_WEEK": mk(_month_week),
        prefix + "HOUR12": mk(
            lambda s: _str((((s.dt.hour + 11) % 12) + 1).pipe(_int_str, zfill=2))
        ),
        prefix + "AMPM": mk(lambda s: _str(s.dt.strftime("%p"))),
        prefix + "WEEK_DAY_ABBREV": mk(lambda s: _str(s.dt.strftime("%a"))),
        prefix + "WEEK_DAY_NAME": mk(lambda s: _str(s.dt.strftime("%A"))),
        prefix + "WEEK": mk(_week_sunday_start),
        prefix + "ISOWEEK": mk(lambda s: _str(s.dt.isocalendar().week.pipe(_int_str, zfill=2))),
        # engine timestamps are UTC-normalized; per-row zone lives in the
        # companion gmtoff column (stages/timezones.py) — the macro renders
        # the normalized form, like ISODATE
        prefix + "TZOFFSET": mk(lambda s: _str(pd.Series(["+00:00"] * len(s), index=s.index).where(s.notna(), ""))),
        prefix + "TZ": mk(lambda s: _str(pd.Series(["+00:00"] * len(s), index=s.index).where(s.notna(), ""))),
    }


def _month_week(s: pd.Series) -> pd.Series:
    """reference macros.c:390-393: mday/7 + (wday>0 && mday%7 >= wday),
    with tm_wday Sunday=0."""
    mday = s.dt.day.fillna(1).astype(int).to_numpy()
    wday = ((s.dt.dayofweek.fillna(0).astype(int).to_numpy() + 1) % 7)  # Sunday=0
    mw = mday // 7 + ((wday > 0) & (mday % 7 >= wday)).astype(int)
    return _str(pd.Series(mw.astype(str), index=s.index).where(s.notna(), ""))


def _week_sunday_start(s: pd.Series) -> pd.Series:
    """reference macros.c:376: (yday - (wday-1+7)%7 + 7) / 7 with 0-based
    yday and tm_wday Sunday=0, zero-padded to 2."""
    yday = s.dt.dayofyear.fillna(1).astype(int).to_numpy() - 1
    wday = (s.dt.dayofweek.fillna(0).astype(int).to_numpy() + 1) % 7
    wk = (yday - (wday - 1 + 7) % 7 + 7) // 7
    return _str(pd.Series(np.char.zfill(wk.astype(str), 2), index=s.index).where(s.notna(), ""))


def _sd_fmt(v) -> str:
    from ..filterx_msg import _format_sdata_value

    return _format_sdata_value(list(v) if v is not None else None)


def _passthrough(col: str):
    def fn(t: pa.Table) -> pd.Series:
        if col not in t.column_names:
            return pd.Series([""] * t.num_rows, dtype=object)
        return _str(_col(t, col))

    fn.column = col  # the column the template engine may read directly
    return fn


MACROS: dict = {
    "HOST": _passthrough("host"),
    # APP/SOURCE are nvpairs the app-parser / source drivers set; in
    # this engine they are the app/source columns
    "APP": _passthrough("app"),
    "SOURCE": _passthrough("source"),
    # the transport-derived host; falls back to $HOST when the source
    # did not record one (macros.c M_HOST_FROM)
    "HOST_FROM": lambda t: (_str(_col(t, "host_from"))
                            if "host_from" in t.column_names
                            else _passthrough("host")(t)),
    "PROGRAM": _passthrough("program"),
    "PID": _passthrough("pid"),
    "MSGID": _passthrough("msgid"),
    "MESSAGE": _passthrough("message"),
    "MSG": _passthrough("message"),
    "PRI": lambda t: _str(_col(t, "pri").pipe(_int_str)),
    "FACILITY": facility_name,
    "FACILITY_NUM": lambda t: _str(facility_num(t).pipe(_int_str)),
    "SEVERITY": severity_name,
    "LEVEL": severity_name,
    "SEVERITY_NUM": lambda t: _str(severity_num(t).pipe(_int_str)),
    "LEVEL_NUM": lambda t: _str(severity_num(t).pipe(_int_str)),
    "TAGS": lambda t: (
        _col(t, "tags").map(lambda v: ",".join(v) if isinstance(v, (list, np.ndarray)) else "")
        if "tags" in t.column_names
        else pd.Series([""] * t.num_rows, dtype=object)
    ),
    # BSDTAG: severity digit + 'A'+facility letter (macros.c:531-535)
    "BSDTAG": lambda t: _bsdtag(t),
    "LOGHOST": lambda t: pd.Series([_loghost()] * t.num_rows, dtype=object),
    # per-message bookkeeping ids: column passthroughs in a batch engine
    # (the reference counters are process-local state; deterministic
    # pipelines carry them as columns stamped at ingest)
    "SEQNUM": _passthrough("seqnum"),
    "RCPTID": _passthrough("rcptid"),
    "RUNID": _passthrough("runid"),
    "HOSTID": _passthrough("hostid"),
    "UNIQID": _passthrough("uniqid"),
    "SYSUPTIME": _passthrough("sysuptime"),
    "CONTEXT_ID": _passthrough("context_id"),
    # $SDATA re-serializes the parsed pairs to RFC5424 SD text
    # (log_msg_append_format_sdata); empty -> "" like any unset macro
    "SDATA": lambda t: (
        t.column("sdata").to_pandas().map(
            lambda v: (lambda s: "" if s == "-" else s)(_sd_fmt(v)))
        if "sdata" in t.column_names
        else pd.Series([""] * t.num_rows, dtype=object)),
    # reference falls back to 127.0.0.1 when the source has no IP address
    # (macros.c:614-629 M_SOURCE_IP)
    "SOURCEIP": lambda t: _col_or(t, "sourceip", "127.0.0.1"),
}


# captured ONCE per process at import, not per batch. NOTE (documented
# divergence): on a multi-node cluster each worker imports this module on
# its own node, so $LOGHOST is the PROCESSING node's name — stable within
# a process but not cluster-wide. A pipeline needing the single submitting
# host's name should stamp it as a column at build time
# (`set("myhost", value("LOGHOST_FIXED"))`) — the reference's LOGHOST is
# trivially unique because there is only one syslog-ng host.
import socket as _socket

_LOGHOST = _socket.gethostname()


def _loghost() -> str:
    return _LOGHOST


def _bsdtag(t: pa.Table) -> pd.Series:
    pri = _col(t, "pri")
    sev = (pri % 8).astype("Int64").astype(str)
    fac = (pri // 8).map(lambda f: chr(ord("A") + int(f)) if pd.notna(f) else "")
    return _str((sev + fac).where(pri.notna(), ""))


def _msghdr(t: pa.Table) -> pd.Series:
    """$MSGHDR: the stored LEGACY_MSGHDR raw header when present, else
    reconstructed `program[pid]: ` (lib/template/macros.c:576-600)."""
    prog = _str(_col(t, "program")) if "program" in t.column_names else pd.Series([""] * t.num_rows, dtype=object)
    if "pid" in t.column_names:
        pid = _str(_col(t, "pid"))
        hdr = np.where(pid.to_numpy(dtype=object) != "",
                       prog.to_numpy(dtype=object) + "[" + pid.to_numpy(dtype=object) + "]: ",
                       np.where(prog.to_numpy(dtype=object) != "", prog.to_numpy(dtype=object) + ": ", ""))
    else:
        p = prog.to_numpy(dtype=object)
        hdr = np.where(p != "", p + ": ", "")
    if "legacy_msghdr" in t.column_names:
        leg = _str(_col(t, "legacy_msghdr")).to_numpy(dtype=object)
        hdr = np.where(leg != "", leg, hdr)
    return pd.Series(hdr, dtype=object)


def _col_or(t: pa.Table, name: str, default: str) -> pd.Series:
    """Column as strings with `default` for nulls / a missing column —
    the batch-engine shape of the reference's per-message transport
    attributes (saddr/daddr/proto live as optional columns here)."""
    if name not in t.column_names:
        return pd.Series([default] * t.num_rows, dtype=object)
    s = _col(t, name)
    if pd.api.types.is_numeric_dtype(s):
        s = _int_str(s)  # nullable ints arrive as float64: avoid '6.0'
    else:
        s = _str(s)
    return s.replace("", default)


def _ip_proto(t: pa.Table) -> pd.Series:
    """$IP_PROTO (macros.c:277-291 _get_originating_ip_protocol): 0 when
    no source address, 6 for IPv6, 4 for IPv4 (incl. v4-mapped ::ffff:)."""
    ip = _col_or(t, "sourceip", "")
    arr = ip.to_numpy(dtype=object)
    is_set = arr != ""
    is_v6 = np.array([(":" in v) and not v.lower().startswith("::ffff:") for v in arr], dtype=bool)
    return pd.Series(np.where(is_set, np.where(is_v6, "6", "4"), "0"), dtype=object)


def _proto_name(t: pa.Table) -> pd.Series:
    """$PROTO_NAME (macros.c:295-306): 6->tcp, 17->udp, else unknown."""
    p = _col_or(t, "proto", "0")
    return p.map({"6": "tcp", "17": "udp"}).fillna("unknown").astype(object)


MACROS["MSGHDR"] = _msghdr
# deprecated alias (macros.c:56): $PRIORITY == $SEVERITY
MACROS["PRIORITY"] = severity_name
# $TAG: the full PRI as 2-digit zero-padded hex (macros.c:513-517)
MACROS["TAG"] = lambda t: (
    _col(t, "pri").map(lambda v: format(int(v), "02x") if pd.notna(v) else "").astype(object)
)
# $_ is an alias of $CONTEXT_ID (macros.c:220)
MACROS["_"] = MACROS["CONTEXT_ID"]


def _asterisk(t: pa.Table) -> pd.Series:
    """$* — the matches serialized as a str-repr list
    (lib/logmsg/logmsg.c:1151 log_msg_format_matches; matches[0] here
    is $1, the set-matches layout)."""
    from .strings import _ser_list

    if "matches" not in t.column_names:
        return pd.Series([""] * t.num_rows, dtype=object)
    lst = t.column("matches").to_pandas()
    return pd.Series(
        [_ser_list([e if e is not None else "" for e in v])
         if v is not None else "" for v in lst], dtype=object)


MACROS["*"] = _asterisk
# transport-address macros (macros.c:595-712): optional columns in the
# batch data model with the reference's fallback values; PEERIP/PEERPORT
# fall through to SOURCEIP/SOURCEPORT when unset (macros.c:603-612,676)
MACROS["DESTIP"] = lambda t: _col_or(t, "destip", "127.0.0.1")
MACROS["DESTPORT"] = lambda t: _col_or(t, "destport", "0")
MACROS["SOURCEPORT"] = lambda t: _col_or(t, "sourceport", "0")
MACROS["PEERIP"] = lambda t: (
    _col_or(t, "peerip", "").replace("", None).fillna(_col_or(t, "sourceip", "127.0.0.1")).astype(object)
    if "peerip" in t.column_names else _col_or(t, "sourceip", "127.0.0.1")
)
MACROS["PEERPORT"] = lambda t: (
    _col_or(t, "peerport", "").replace("", None).fillna(_col_or(t, "sourceport", "0")).astype(object)
    if "peerport" in t.column_names else _col_or(t, "sourceport", "0")
)
MACROS["IP_PROTO"] = _ip_proto
MACROS["PROTO"] = lambda t: _col_or(t, "proto", "0")
MACROS["PROTO_NAME"] = _proto_name
MACROS["RAWMSG_SIZE"] = lambda t: _col_or(t, "rawmsg_size", "0")
# $RAWMSG: the unparsed original line (store-raw-message keeps it in
# `rawmsg`; before any header parse the engine's `message` IS the raw
# line, so that is the fallback)
MACROS["RAWMSG"] = lambda t: (_col_or(t, "rawmsg", "")
                              if "rawmsg" in t.column_names
                              else _col_or(t, "message", ""))
# $LEGACY_MSGHDR: the raw header bytes the 3164 program-name scan
# consumed (builtin value slot, logmsg.c:87; set by syslog-format.c:402)
MACROS["LEGACY_MSGHDR"] = lambda t: _col_or(t, "legacy_msghdr", "")
MACROS.update(_date_macros("ts_stamp"))
MACROS.update(_date_macros("warc_ts", "R_"))
# S_*: explicit sent-stamp prefix (same source as the unprefixed family)
MACROS.update(_date_macros("ts_stamp", "S_"))
# C_*/P_*: current/processed wall clock. A deterministic batch engine has
# no ambient "now" — pipelines stamp a `proc_ts` column at ingest
# (documented divergence; reference macros.c:324-348 falls back to the
# realtime clock when LM_TS_PROCESSED is unset).
MACROS.update(_date_macros("proc_ts", "C_"))
MACROS.update(_date_macros("proc_ts", "P_"))


def eval_macro(name: str, table: pa.Table) -> pd.Series | None:
    fn = MACROS.get(name)
    return fn(table) if fn else None
