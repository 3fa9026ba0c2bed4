"""Application-specific parsers: compositions of csv/kv/regex/date.

Mirrors the reference's SCL app parsers (reference scl/cisco/,
scl/panos/, scl/checkpoint/ — each a generated combo of the base
parsers, selected by the app-parser() first-match chain,
modules/appmodel/app-parser-generator.c).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .regexp_parser import RegexpParser

# Cisco IOS: "%FACILITY-SEVERITY-MNEMONIC: message", optional seq/ts heads
# (reference scl/cisco/plugin.conf shape)
CISCO_RE = (
    r"^(?:(?P<cisco_seq>\d+): )?"
    r"(?:[.*]?(?P<cisco_ts>\w{3} +\d+ \d{2}:\d{2}:\d{2}(?:\.\d+)?)(?: \w+)?: )?"
    r"%(?P<cisco_facility>[A-Z0-9_]+)-(?P<cisco_severity>\d)-(?P<cisco_mnemonic>[A-Z0-9_]+): "
    r"(?P<cisco_message>.*)$"
)


def cisco_parser(source_col: str = "message") -> RegexpParser:
    return RegexpParser(CISCO_RE, source_col=source_col)


class PanosParser:
    """Palo Alto PAN-OS: CSV payload after the syslog header; first fields
    identify the log type, remaining are positional per type (reference
    scl/panos/). Covers the shared leading columns."""

    COMMON = ["panos_future_use", "panos_receive_time", "panos_serial", "panos_type", "panos_subtype"]

    def __init__(self, source_col: str = "message"):
        from .csv_parser import CsvParser

        self.csv = CsvParser(
            columns=self.COMMON, delimiters=",", quotes='""',
            dialect="escape-double-char", greedy=True, source_col=source_col,
        )
        # greedy tail lands in the last column; keep it as the type-specific rest
        self.csv.columns = self.COMMON[:-1] + ["panos_rest"]

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.csv(table)
        names = out.column_names
        return out.rename_columns([("panos_valid" if c == "csv_valid" else c) for c in names])


class AppParserChain:
    """app-parser(): ordered try-parse chain, first match wins; sets
    `app_name` (the reference's $.app.name,
    modules/appmodel/app-parser-generator.c)."""

    def __init__(self, parsers: list[tuple[str, object, str]]):
        # (name, parser, valid_col) — parser appends valid_col boolean
        self.parsers = parsers

    def __call__(self, table: pa.Table) -> pa.Table:
        n = table.num_rows
        app = np.full(n, None, dtype=object)
        out = table
        claimed = np.zeros(n, dtype=bool)
        for name, parser, valid_col in self.parsers:
            out = parser(out)
            ok = np.asarray(out.column(valid_col).to_pylist(), dtype=bool) & ~claimed
            app[ok] = name
            claimed |= ok
        return out.append_column("app_name", pa.array(app, type=pa.string()))


# cisco-parser() timestamp patterns (reference scl/cisco/plugin.conf
# @define cisco-parser-*-timestamp-pattern)
_CISCO_TS = r"[A-Za-z]{3} [0-9 ]\d (?:\d{4} )?\d{2}:\d{2}:\d{2}(?:\.\d{3})?(?: (?:AM|PM))?"
_CISCO_ISO_TS = r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}"
_CISCO_NXOS_TS = r"\d{4} [A-Za-z]{3} [0-9 ]\d \d{2}:\d{2}:\d{2}"

# date-parser format list of the scl's cisco-timestamp-parser block
_CISCO_TS_FORMATS = [
    "%b %d %I:%M:%S %p.%f", "%b %d %I:%M:%S %p",
    "%b %d %H:%M:%S.%f", "%b %d %H:%M:%S",
    "%b %d %Y %H:%M:%S.%f", "%b %d %Y %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S", "%Y %b %d %H:%M:%S",
]


class CiscoParser:
    """cisco-parser(): the full SCL cisco channel semantics (reference
    scl/cisco/plugin.conf `block parser cisco-parser`, conformance spec =
    tests/light/functional_tests/parsers/cisco-parser/test_cisco_parser.py).

    One vectorized pass re-expressing the reference's csv/regexp/
    date-parser channel as mask-combined pandas extracts:

    1. leading ``<pri>`` -> pri column;
    2. split at the first ``': %'`` -> header ($1) / rest; MSG becomes
       ``'%' + rest``; rows without the split or without the
       facility-severity-mnemonic triplet are dropped (the scl's
       drop-invalid(yes) chain);
    3. triplet from the rest: facility may itself contain '-'
       (SYSMGR-STANDBY, SNMP-SNMP) -> `prefix`facility / severity /
       mnemonic;
    4. header decision tree, first match wins (branch effects are
       transactional like reference channel branches — a branch whose
       date parse fails contributes nothing):
       a. [ISO-ts + tz + host | classic-ts + host] or bare timestamp
          (seqno already stripped) -> stamp [+ HOST];
       b. cpu_module head (``RP/x/...:`` / ``CLC x/y:``) + timestamp;
       c. ``host: timestamp``; d. bare host; e. empty header.
       A non-empty header matching none of these drops the row (the
       scl's final ``regexp-parser(patterns("^$"))``).
    """

    def __init__(self, source_col: str = "message", prefix: str = ".cisco."):
        import re

        self.source_col = source_col
        self.prefix = prefix
        self.pri_re = re.compile(r"^<(\d{1,3})>(.*)$", re.DOTALL)
        self.split_re = re.compile(r"^(?P<hdr>.*?): %(?P<rest>.*)$", re.DOTALL)
        self.triplet_re = re.compile(
            r"^%(?P<fac>[A-Z0-9_]+(?:-[A-Z0-9_]+)*?)-(?P<sev>\d)-(?P<mn>[A-Z0-9_]+)\s*:")
        self.seq_re = re.compile(r"^(?:[0-9]+: |: )")
        self.host_iso_re = re.compile(r"^(?P<ts>" + _CISCO_ISO_TS + r")\w+ (?P<h>\S+)\s*$")
        self.host_classic_re = re.compile(r"^[\*\.]?(?P<ts>" + _CISCO_TS + r") (?P<h>\S+)\s*$")
        self.cpu_re = re.compile(r"^(?:(?P<rp>RP/[0-9]/[^:]+):(?P<rrest>.*)|(?P<clc>CLC [0-9]/[0-9]): +(?P<crest>.*))$", re.DOTALL)
        self.hostcolon_re = re.compile(r"^(?P<h>[^:]+): (?P<rest>.*)$", re.DOTALL)
        self.hostonly_re = re.compile(r"^(?P<h>[^:]+)$")
        self.ts_token_re = re.compile(
            r"^[\*\.]?(" + _CISCO_TS + r")|^(" + _CISCO_ISO_TS + r")|^(" + _CISCO_NXOS_TS + r")")

    def _parse_ts(self, s: pd.Series) -> pd.Series:
        """cisco-timestamp-parser: extract the leading timestamp token,
        then the scl's strptime format list, first match per row."""
        ext = s.str.extract(self.ts_token_re)
        tok = ext[0].fillna(ext[1]).fillna(ext[2])
        n = len(s)
        result = pd.Series(np.full(n, np.datetime64("NaT"), dtype="datetime64[us]"),
                           index=s.index)
        todo = tok.notna()
        for fmt in _CISCO_TS_FORMATS:
            if not todo.any():
                break
            parsed = pd.to_datetime(tok[todo], format=fmt, errors="coerce")
            ok = parsed.notna()
            result.loc[ok[ok].index] = parsed[ok].to_numpy(dtype="datetime64[us]")
            todo.loc[ok[ok].index] = False
        return result

    def __call__(self, table: pa.Table) -> pa.Table:
        s = table.column(self.source_col).to_pandas().astype("string")
        prim = s.str.extract(self.pri_re)
        body = prim[1].fillna(s)
        pri = pd.to_numeric(prim[0], errors="coerce")

        sp = body.str.extract(self.split_re)
        hdr, rest = sp["hdr"], sp["rest"]
        msg = "%" + rest
        trip = msg.str.extract(self.triplet_re)
        valid = rest.notna() & trip["fac"].notna()

        hdr = hdr.str.replace(self.seq_re, "", regex=True)

        # branch a: [ISO|classic] ts+host, else bare-timestamp header
        a_iso = hdr.str.extract(self.host_iso_re)
        a_cls = hdr.str.extract(self.host_classic_re)
        a_host = a_iso["h"].fillna(a_cls["h"])
        a_tsin = a_iso["ts"].fillna(a_cls["ts"]).fillna(hdr)
        a_ts = self._parse_ts(a_tsin.astype("string"))
        a_ok = a_ts.notna()

        # branch b: cpu_module + ts
        b = hdr.str.extract(self.cpu_re)
        b_cpu = b["rp"].fillna(b["clc"])
        b_ts = self._parse_ts(b["rrest"].fillna(b["crest"]).astype("string"))
        b_ok = ~a_ok & b_cpu.notna() & b_ts.notna()

        # branch c: "host: <ts...>"
        c = hdr.str.extract(self.hostcolon_re)
        c_ts = self._parse_ts(c["rest"].astype("string"))
        c_ok = ~a_ok & ~b_ok & c["h"].notna() & c_ts.notna()

        # branch d: bare host; branch e: empty header
        d = hdr.str.extract(self.hostonly_re)
        d_ok = ~a_ok & ~b_ok & ~c_ok & d["h"].notna()
        e_ok = ~a_ok & ~b_ok & ~c_ok & ~d_ok & (hdr.fillna("") == "")
        valid &= (a_ok | b_ok | c_ok | d_ok | e_ok).fillna(False)

        host = a_host.where(a_ok).fillna(c["h"].where(c_ok)).fillna(d["h"].where(d_ok))
        stamp = a_ts.where(a_ok, b_ts.where(b_ok, c_ts.where(c_ok)))
        cpu = b_cpu.where(b_ok)

        keep = valid.to_numpy(dtype=bool)
        out = table
        p = self.prefix

        def _set(name, values, typ=pa.string()):
            nonlocal out
            vals = values.to_numpy(dtype=object)
            vals[values.isna().to_numpy(dtype=bool)] = None
            arr = pa.array(vals, type=typ)
            if name in out.column_names:
                out = out.set_column(out.column_names.index(name), name, arr)
            else:
                out = out.append_column(name, arr)

        _set("message", msg.astype(object).where(msg.notna()))
        _set(p + "facility", trip["fac"].astype(object).where(trip["fac"].notna()))
        _set(p + "severity", trip["sev"].astype(object).where(trip["sev"].notna()))
        _set(p + "mnemonic", trip["mn"].astype(object).where(trip["mn"].notna()))
        if cpu.notna().any():
            _set(p + "cpu_module", cpu.astype(object).where(cpu.notna()))
        if pri.notna().any():
            old = (out.column("pri").to_pandas() if "pri" in out.column_names
                   else pd.Series(np.full(len(s), np.nan)))
            merged = pri.fillna(old).astype("Int64")
            arr = pa.Array.from_pandas(merged, type=pa.int64())
            if "pri" in out.column_names:
                out = out.set_column(out.column_names.index("pri"), "pri", arr)
            else:
                out = out.append_column("pri", arr)
        if host.notna().any():
            old = (out.column("host").to_pandas() if "host" in out.column_names
                   else pd.Series(np.full(len(s), None, dtype=object)))
            _set("host", host.astype(object).where(host.notna(), old))
        if stamp.notna().any():
            if "ts_stamp" in out.column_names:
                old = out.column("ts_stamp").to_pandas()
                merged = stamp.where(stamp.notna(), old)
            else:
                merged = stamp
            arr = pa.array(merged.to_numpy(dtype="datetime64[us]"), type=pa.timestamp("us"))
            if "ts_stamp" in out.column_names:
                out = out.set_column(out.column_names.index("ts_stamp"), "ts_stamp", arr)
            else:
                out = out.append_column("ts_stamp", arr)
        return out.filter(pa.array(keep))


class MariadbAuditParser:
    """mariadb-audit-parser(): the MariaDB audit plugin's syslog payload
    (reference scl/mariadb/audit.conf — csv-parser with comma delimiter,
    '' quote pair, escape-backslash, greedy, drop-invalid, preceded by a
    "syslog_info serverhost" split of the first field).

    Payload shape: "<info> <serverhost>,<username>,<host>,<connectionid>,
    <queryid>,<operation>,<database>,<object>,<retcode>"."""

    COLUMNS = ["serverhost", "username", "host", "connectionid", "queryid",
               "operation", "database", "object", "retcode"]

    def __init__(self, source_col: str = "message", prefix: str = "mariadb_"):
        from .csv_parser import CsvParser

        self.csv = CsvParser(
            columns=self.COLUMNS, delimiters=",", quotes="''",
            dialect="escape-backslash", greedy=True, prefix=prefix,
            source_col=source_col,
        )
        self.prefix = prefix
        # the scl splits the first csv column into syslog_info + serverhost
        # (regexp-parser '^\s*(?<syslog_info>\S*?)(?: )?(?<serverhost>\S+)$')
        import re

        self.head_re = re.compile(r"^\s*(?P<syslog_info>\S*?)(?: )?(?P<serverhost>\S+)$")

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.csv(table)
        col = self.prefix + "serverhost"
        s = out.column(col).to_pandas()
        ext = s.str.extract(self.head_re)
        # a first field the split does not match (e.g. empty) stays whole
        info = ext["syslog_info"]
        server = ext["serverhost"].fillna(s)
        idx = out.column_names.index(col)
        out = out.set_column(idx, col, pa.array(server.to_numpy(dtype=object),
                                                type=pa.string(), from_pandas=True))
        out = out.append_column(self.prefix + "syslog_info",
                                pa.array(info.to_numpy(dtype=object),
                                         type=pa.string(), from_pandas=True))
        names = out.column_names
        return out.rename_columns([("mariadb_valid" if c == "csv_valid" else c) for c in names])


# PostgreSQL csvlog severity -> syslog severity (reference scl/pgsql/pgsql.conf
# severity-shift rules: DEBUG* -> debug; panic +2; warning..fatal +1)
_PGSQL_SEVERITY = {
    "DEBUG": 7, "DEBUG1": 7, "DEBUG2": 7, "DEBUG3": 7, "DEBUG4": 7, "DEBUG5": 7,
    "INFO": 6, "NOTICE": 5, "LOG": 6, "STATEMENT": 6, "DETAIL": 6,
    "WARNING": 5, "ERROR": 4, "FATAL": 3, "PANIC": 1,
}


class PostgresqlCsvlogParser:
    """postgresql-csvlog-parser() (reference scl/pgsql/pgsql.conf):
    csv-parser with escape-double-char dialect + strip-whitespace over the
    26 csvlog columns, timestamp extracted (first 23 chars,
    %Y-%m-%d %H:%M:%S.%f), severity mapped with the scl's shift rules."""

    COLUMNS = [
        "timestamp", "username", "database", "pid", "connection_from",
        "session_id", "session_line_num", "command_tag", "session_start_time",
        "virtual_transaction_id", "transaction_id", "severity",
        "sql_state_code", "message", "detail", "hint", "internal_query",
        "internal_query_pos", "context", "query", "query_pos", "location",
        "application_name", "backend_type", "leader_pid", "query_id",
    ]
    INT_COLS = {"pid", "session_line_num", "transaction_id",
                "internal_query_pos", "query_pos", "leader_pid", "query_id"}

    def __init__(self, source_col: str = "message", prefix: str = "pgsql_"):
        from .csv_parser import CsvParser

        self.csv = CsvParser(
            columns=self.COLUMNS, delimiters=",", quotes='""',
            dialect="escape-double-char", strip_whitespace=True,
            prefix=prefix, source_col=source_col,
        )
        self.prefix = prefix

    def __call__(self, table: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = self.csv(table)
        p = self.prefix
        valid = out.column("csv_valid")
        # parsed event timestamp: first 23 chars, fixed format
        ts_str = pc.utf8_slice_codeunits(
            pc.fill_null(out.column(p + "timestamp"), ""), 0, 23)
        ts = pd.to_datetime(ts_str.to_pandas(), format="%Y-%m-%d %H:%M:%S.%f", errors="coerce")
        out = out.append_column(p + "ts", pa.array(ts.astype("datetime64[ns]")))
        # severity mapping (scl shift rules baked into the lookup table)
        sev = out.column(p + "severity").to_pandas().map(
            lambda v: _PGSQL_SEVERITY.get(v.upper() if isinstance(v, str) else v))
        out = out.append_column(p + "severity_num", pa.array(sev, type=pa.int64()))
        # int()-typed columns per the scl column list
        for c in self.INT_COLS:
            iv = pd.to_numeric(out.column(p + c).to_pandas(), errors="coerce")
            idx = out.column_names.index(p + c)
            out = out.set_column(idx, p + c, pa.array(iv, type=pa.float64()).cast(pa.int64(), safe=False))
        names = out.column_names
        return out.rename_columns([("pgsql_valid" if c == "csv_valid" else c) for c in names])


class SnmptrapdParser:
    """snmptrapd-parser() (reference modules/afsnmp/snmptrapd-header-parser.c
    + varbindlist scanner): header line
    "<date> <time> HOSTNAME [TRANSPORT]: [enterprise_oid]" with optional
    v1 trap lines ("<type> Trap (<subtype>) Uptime: <uptime>"), then
    tab/newline-separated "oid = TYPE: value" varbinds flattened into a
    map column (the reference's .snmp.* name-values)."""

    import re as _re

    # transport is greedy to the LAST ']' before the colon — the nested
    # "[UDP: [ip]:port->[ip]:port]" form; the reference scans backwards
    # from the newline for the same reason (snmptrapd-header-parser.c
    # _parse_transport_info)
    HEADER_RE = _re.compile(
        r"^\s*(?P<date>\d{4}-\d{2}-\d{2})\s+(?P<time>\d{2}:\d{2}:\d{2})\s+"
        r"(?P<hostname>\S+)\s+\[(?P<transport_info>.*)\]\s*:[ \t]*"
        r"(?P<enterprise_oid>\S+)?[ \t]*\n?"
    )
    V1_RE = _re.compile(
        r"^\s*(?P<type>[A-Za-z][A-Za-z ]*?) \((?P<subtype>[^)]*)\) Uptime:\s*(?P<uptime>\S+)\s*\n?"
    )
    VARBIND_RE = _re.compile(
        r"(?P<oid>\S+)\s*=\s*(?:(?P<vtype>[A-Za-z0-9-]+):\s*)?(?P<value>\"[^\"]*\"|[^\t\n]*?)(?=\s*[\t\n]|\s{4,}|$)"
    )

    # header name-values in reference add_name_value call order
    # (snmptrapd-header-parser.c steps: hostname, transport_info, then
    # v1 info: enterprise_oid, type, subtype, uptime)
    _MSG_KEY_ORDER = ("hostname", "transport_info", "enterprise_oid",
                      "type", "subtype", "uptime")

    def __init__(self, source_col: str = "message", prefix: str = "snmp_",
                 set_message_macro: bool | None = None,
                 set_program: bool = False):
        """set_message_macro: None leaves $MESSAGE untouched (library
        default); True rebuilds it as "key='value', ..." over header
        fields + varbinds (snmptrapd-parser.c:187
        _append_name_value_to_generated_message); False unsets it
        (process() else-branch :225). set_program=True pins
        PROGRAM="snmptrapd" (snmptrapd-parser.c:200)."""
        self.source_col = source_col
        self.prefix = prefix
        self.set_message_macro = set_message_macro
        self.set_program = set_program

    @staticmethod
    def _escape_value(v: str) -> str:
        """lib/utf8utils.c append_unsafe_utf8_as_escaped_text with
        AUTF8_UNSAFE_APOSTROPHE: named control escapes, backslash
        doubling, \\xHH for other controls, backslash before '."""
        out = []
        named = {"\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
                 "\t": "\\t", "\\": "\\\\"}
        for ch in v:
            if ch in named:
                out.append(named[ch])
            elif ord(ch) < 32:
                out.append("\\x%02x" % ord(ch))
            elif ch == "'":
                out.append("\\'")
            else:
                out.append(ch)
        return "".join(out)

    def _generated_message(self, r: dict) -> str:
        parts = [f"{k}='{self._escape_value(str(r[k]))}'"
                 for k in self._MSG_KEY_ORDER if r.get(k) is not None]
        parts += [f"{oid}='{self._escape_value(val)}'"
                  for oid, val in r.get("varbinds", [])]
        return ", ".join(parts)

    def parse_one(self, text: str) -> dict | None:
        m = self.HEADER_RE.match(text)
        if not m:
            return None
        out = {"hostname": m.group("hostname"),
               "transport_info": m.group("transport_info"),
               "ts": f"{m.group('date')} {m.group('time')}"}
        if m.group("enterprise_oid"):
            out["enterprise_oid"] = m.group("enterprise_oid")
        rest = text[m.end():]
        v1 = self.V1_RE.match(rest)
        if v1:
            out["type"] = v1.group("type")
            out["subtype"] = v1.group("subtype")
            out["uptime"] = v1.group("uptime")
            rest = rest[v1.end():]
        varbinds = []
        for vb in self.VARBIND_RE.finditer(rest):
            val = vb.group("value").strip()
            if len(val) >= 2 and val[0] == '"' and val[-1] == '"':
                val = val[1:-1]
            varbinds.append((vb.group("oid"), val))
        out["varbinds"] = varbinds
        return out

    def __call__(self, table: pa.Table) -> pa.Table:
        s = table.column(self.source_col).to_pandas().astype("string").fillna("")
        n = len(s)
        cols = {k: np.full(n, None, dtype=object)
                for k in ("hostname", "transport_info", "enterprise_oid",
                          "type", "subtype", "uptime", "ts")}
        maps = np.full(n, None, dtype=object)
        valid = np.zeros(n, dtype=bool)
        gen_msgs = np.full(n, "", dtype=object)
        for i, text in enumerate(s.to_numpy()):
            r = self.parse_one(text)
            if r is None:
                maps[i] = []
                continue
            valid[i] = True
            if self.set_message_macro:
                gen_msgs[i] = self._generated_message(r)
            maps[i] = r.pop("varbinds")
            for k, v in r.items():
                cols[k][i] = v
        out = table
        p = self.prefix
        for k in ("hostname", "transport_info", "enterprise_oid", "type", "subtype", "uptime"):
            out = out.append_column(p + k, pa.array(cols[k], type=pa.string()))
        ts = pd.to_datetime(pd.Series(cols["ts"]), format="%Y-%m-%d %H:%M:%S", errors="coerce")
        out = out.append_column(p + "ts", pa.array(ts.astype("datetime64[ns]")))
        out = out.append_column(p + "varbinds", pa.array(maps.tolist(), type=pa.map_(pa.string(), pa.string())))
        if self.set_message_macro is not None and "message" in out.column_names:
            idx = out.column_names.index("message")
            new_msg = gen_msgs if self.set_message_macro \
                else np.full(n, "", dtype=object)
            # only valid rows are rewritten; invalid rows drop anyway in
            # config mode (_DropUnparsed) but keep their text standalone
            old = out.column("message").to_pandas().to_numpy(dtype=object)
            out = out.set_column(idx, "message", pa.array(
                np.where(valid, new_msg, old), type=pa.string()))
        if self.set_program:
            if "program" in out.column_names:
                idx = out.column_names.index("program")
                old = out.column("program").to_pandas() \
                    .to_numpy(dtype=object)
                out = out.set_column(idx, "program", pa.array(
                    np.where(valid,
                             np.full(n, "snmptrapd", dtype=object), old),
                    type=pa.string()))
            else:
                out = out.append_column("program", pa.array(
                    np.where(valid,
                             np.full(n, "snmptrapd", dtype=object), None),
                    type=pa.string()))
        return out.append_column("snmp_valid", pa.array(valid))
