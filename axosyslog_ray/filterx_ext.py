"""FilterX extension functions: the parse_*/format_* family, casts and
misc builtins from the reference's module plugins.

Reference semantics (public repo, studied not copied):
  parse_csv       modules/csvparser/filterx-func-parse-csv.c
  format_csv      modules/csvparser/filterx-func-format-csv.c
  parse_kv        modules/kvformat/filterx-func-parse-kv.c
  format_kv       modules/kvformat/filterx-func-format-kv.c
  parse_cef/leef  modules/cef/filterx-func-parse-{cef,leef}.c,
                  event-format-parser.c (header field names, hex
                  leef_delimiter, separate_extensions)
  format_cef/leef modules/cef/filterx-func-format-{cef,leef}.c
  parse_xml       modules/xml/filterx-parse-xml.c (@attr / #text / list
                  promotion rules documented in its header comment)
  format_xml      modules/xml/filterx-func-format-xml.c
  parse_windows_eventlog_xml  modules/xml/filterx-parse-windows-eventlog-xml.c
  casts/misc      lib/filterx/filterx-globals.c registrations (bool,
                  bytes, datetime, repr, strcasecmp, utf8_sanitize,
                  utf8_validate, cache_json_file)

Execution model: each function receives pandas Series (the FilterX
evaluator's per-batch column representation) and returns a Series of the
same length. Object-producing functions (dicts/lists) are row loops by
nature — same as every other object function in filterx.py — but all
option parsing, regex compilation and file loading is cached per
process via lru_cache, so per-batch cost is the row loop only. At scale
these run inside map_batches workers; a cache_json_file() load happens
once per worker process (the broadcast-small-side pattern), never per
batch.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np
import pandas as pd


def _sc(v, default=None):
    """Scalar value of a (constant) argument Series; literal args
    evaluate to constant Series in this engine."""
    if isinstance(v, pd.Series):
        nn = v[~pd.isna(v)]
        return nn.iloc[0] if len(nn) else default
    return default if v is None else v


def _null(v) -> bool:
    return v is None or (not isinstance(v, (str, bytes, list, dict, tuple))
                         and pd.isna(v))


# ---------------------------------------------------------------------------
# parse_csv / format_csv
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _csv_scanner(columns: tuple, delimiter: str, quotes: str, dialect: str,
                 strip: bool, greedy: bool):
    from .stages.csv_parser import CsvParser

    return CsvParser(columns=list(columns), delimiters=delimiter,
                     quotes=quotes, dialect=dialect,
                     strip_whitespace=strip, greedy=greedy)


def parse_csv(a: pd.Series, columns=None, delimiter=None, string_delimiters=None,
              dialect=None, strip_whitespace=None, strip_whitespaces=None,
              greedy=None, quote_pairs=None) -> pd.Series:
    """parse_csv(msg [, columns=[...], delimiter=",", dialect=...,
    strip_whitespace=bool, greedy=bool, quote_pairs=[open+close, ...]]).
    Without columns -> list of fields; with columns -> dict (row becomes
    unset on column-count mismatch, like the reference's eval error).
    string_delimiters (multi-char) is not supported."""
    if string_delimiters is not None and _sc(string_delimiters):
        raise ValueError("filterx: parse_csv(): string_delimiters is not supported")
    cols = _sc(columns)
    cols_t = tuple(str(c) for c in cols) if isinstance(cols, (list, tuple)) else ()
    qp = _sc(quote_pairs)
    quotes = "".join(qp) if isinstance(qp, (list, tuple)) else (str(qp) if qp else "\"\"''")
    scanner = _csv_scanner(
        cols_t, str(_sc(delimiter, ",")), quotes,
        str(_sc(dialect, "escape-none")),
        bool(_sc(strip_whitespace, _sc(strip_whitespaces, False))),
        bool(_sc(greedy, False)))
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        elif cols_t:
            toks = scanner.parse_tokens(str(v))
            out.append(None if toks is None else dict(zip(cols_t, toks)))
        else:
            out.append(scanner.scan_tokens(str(v)))
    return pd.Series(out, dtype=object)


def format_csv(a: pd.Series, columns=None, delimiter=None,
               default_value=None) -> pd.Series:
    """format_csv(list-or-dict [, columns=[...], delimiter=",",
    default_value=""]): join values with the delimiter; for dict input,
    `columns` picks and orders keys (missing -> default_value)."""
    cols = _sc(columns)
    cols = [str(c) for c in cols] if isinstance(cols, (list, tuple)) else None
    d = str(_sc(delimiter, ","))
    dflt = str(_sc(default_value, ""))
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        elif isinstance(v, dict):
            keys = cols if cols is not None else list(v)
            out.append(d.join("" if v.get(k) is None else str(v.get(k, dflt)) for k in keys))
        elif isinstance(v, (list, tuple)):
            out.append(d.join("" if x is None else str(x) for x in v))
        else:
            out.append(str(v))
    return pd.Series(out, dtype=object)


# ---------------------------------------------------------------------------
# parse_kv / format_kv
# ---------------------------------------------------------------------------

def parse_kv(a: pd.Series, value_separator=None, pair_separator=None,
             stray_words_key=None, stray_words_append_to_value=None) -> pd.Series:
    """parse_kv(msg, value_separator="=", pair_separator=", ",
    stray_words_key=..., stray_words_append_to_value=...): k=v pairs
    as a dict, via the reference-exact kv scanner port
    (stages/kv_scanner.py). Stray-word mode follows
    filterx-func-parse-kv.c:103: COLLECT under stray_words_key, APPEND
    under the flag, else DROP."""
    from .stages.kv_scanner import kv_scan

    vs = str(_sc(value_separator, "="))
    ps = str(_sc(pair_separator, ", "))
    swk = _sc(stray_words_key)
    swk = str(swk) if swk else None
    append = bool(_sc(stray_words_append_to_value) or False)
    mode = "collect" if swk else ("append" if append else None)
    out = []
    for v in a:
        if _null(v):
            out.append(None)
            continue
        pairs, stray, _q = kv_scan(str(v), value_separator=vs,
                                   pair_separator=ps,
                                   stray_words_mode=mode)
        d = dict(pairs)
        if swk:
            d[swk] = stray
        out.append(d)
    return pd.Series(out, dtype=object)


def format_kv(a: pd.Series, value_separator=None, pair_separator=None) -> pd.Series:
    """format_kv(kvs_dict, value_separator="=", pair_separator=", ")."""
    vs = str(_sc(value_separator, "="))
    ps = str(_sc(pair_separator, ", "))
    out = []
    for v in a:
        if not isinstance(v, dict):
            out.append(None)
        else:
            out.append(ps.join(f"{k}{vs}{'' if x is None else x}" for k, x in v.items()))
    return pd.Series(out, dtype=object)


# ---------------------------------------------------------------------------
# parse_cef / parse_leef / format_cef / format_leef
# ---------------------------------------------------------------------------

_CEF_HEAD = ["cef_version", "device_vendor", "device_product", "device_version",
             "device_event_class_id", "event_name", "agent_severity"]
_LEEF_HEAD = ["leef_version", "vendor_name", "product_name", "product_version",
              "event_id"]


@lru_cache(maxsize=64)
def _ext_re(pair_sep: str, value_sep: str):
    """kv-scanner-shaped extension pair regex: a value runs (escape pairs
    consumed atomically, so an escaped pair separator can't split) until
    the next `<pair_sep>key<value_sep>` boundary or end — unescaped
    value separators stay inside the value ("foo=foo=bar=baz") and stray
    words append to the previous value (KVSSWM_APPEND_TO_LAST_VALUE)."""
    p, v = re.escape(pair_sep), re.escape(value_sep)
    return re.compile(rf"([\w.]+){v}((?:[^\\]|\\[\s\S])*?)(?=(?:{p})+[\w.]+{v}|$)")


def _leef_decode_delim(raw: str) -> str | None:
    """event-format-parser.c _delimiter_multi_parser: single char, or hex
    as 'xHH' / '0xHH'; None = invalid (field is then NOT a delimiter)."""
    if raw == "":
        return ""
    if len(raw) == 1:
        return raw
    hexpart = None
    if raw[0] in "xX":
        hexpart = raw[1:]
    elif raw[:2] in ("0x", "0X"):
        hexpart = raw[2:]
    if hexpart:
        try:
            return chr(int(hexpart, 16))
        except ValueError:
            return None
    return None


def split_escaped_fields(line: str, nfields: int, sep: str = "|") -> tuple[list[str], str] | None:
    """Split the first `nfields` header fields on UNESCAPED separators (a
    single-char lookbehind would treat '\\\\|' — escaped backslash then
    pipe — as escaped); returns (fields, rest-of-line) or None when fewer
    than `nfields` delimited fields exist (reference
    modules/cef/event-format-parser.c)."""
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and i + 1 < len(line):
            buf.append(c)
            buf.append(line[i + 1])
            i += 2
            continue
        if c == sep:
            parts.append("".join(buf))
            buf = []
            i += 1
            if len(parts) == nfields:
                return parts, line[i:]
            continue
        buf.append(c)
        i += 1
    return None


def _parse_event_format(line: str, marker: str, head_names: list[str],
                        pair_sep: str, value_sep: str, separate: bool,
                        ps_forced: bool):
    if not line.startswith(marker + ":"):
        return None
    if marker == "CEF":
        # drop_newlines=TRUE for CEF only (event-format-parser.c:285 —
        # against-spec payloads from real firewalls): CR/LF -> space
        line = line.replace("\r", " ").replace("\n", " ")
    split = split_escaped_fields(line, len(head_names))
    if split is None:
        return None
    parts, ext_str = split
    unesc = lambda s: s.replace("\\|", "|").replace("\\\\", "\\")  # noqa: E731
    d = {head_names[0]: parts[0][len(marker) + 1:]}
    for k, p in zip(head_names[1:], parts[1:]):
        d[k] = unesc(p)
    if marker == "LEEF" and d["leef_version"].startswith("2"):
        # LEEF 2.0 OPTIONAL 6th header field: the extension delimiter,
        # single char or hex ("x09"/"0x40"/"0x09"). The field is only
        # consumed when it validates as a delimiter — otherwise the rest
        # is all extensions (reference test_header_custom_invalid_delimiter,
        # test_v2_no_delimiter_field).
        split2 = split_escaped_fields(ext_str, 1)
        if split2 is not None:
            delim_raw = split2[0][0]
            delim = _leef_decode_delim(delim_raw)
            if delim is not None:
                d["leef_delimiter"] = delim_raw
                ext_str = split2[1]
                if delim and not ps_forced:
                    pair_sep = delim
    # unescape per config (event-format-parser.c escape flags): CEF
    # escapes the value separator in values, LEEF the pair separator;
    # backslash itself always
    if marker == "CEF":
        unesc_ext = lambda s: s.replace("\\" + value_sep, value_sep).replace("\\\\", "\\")  # noqa: E731
    else:
        unesc_ext = lambda s: s.replace("\\" + pair_sep, pair_sep).replace("\\\\", "\\")  # noqa: E731
    ext = {m.group(1): unesc_ext(m.group(2))
           for m in _ext_re(pair_sep, value_sep).finditer(ext_str)}
    if separate:
        d["extensions"] = ext
    else:
        d.update(ext)
    return d


def parse_cef(a: pd.Series, pair_separator=None, value_separator=None,
              separate_extensions=None) -> pd.Series:
    """parse_cef(str): CEF:v|vendor|product|version|class|name|severity|
    k=v k=v -> dict with the reference's header keys; malformed -> unset."""
    ps = str(_sc(pair_separator, " "))
    vs = str(_sc(value_separator, "="))
    if not vs:
        raise ValueError("filterx: parse_cef(): value_separator must be a single character")
    sep = bool(_sc(separate_extensions, False))
    return pd.Series(
        [None if _null(v) else _parse_event_format(str(v), "CEF", _CEF_HEAD, ps, vs, sep, True)
         for v in a], dtype=object)


def parse_leef(a: pd.Series, pair_separator=None, value_separator=None,
               separate_extensions=None) -> pd.Series:
    """parse_leef(str): LEEF 1.0 (tab-separated extensions) and LEEF 2.0
    (optional delimiter header field, hex form supported) -> dict. An
    explicit pair_separator is FORCED: a valid LEEF 2.0 delimiter field
    is still consumed but not applied (reference
    test_forced_pair_separator_v2_with_delimiter_field)."""
    ps = _sc(pair_separator)
    vs = str(_sc(value_separator, "="))
    if not vs:
        raise ValueError("filterx: parse_leef(): value_separator must be a single character")
    sep = bool(_sc(separate_extensions, False))
    forced = ps is not None
    return pd.Series(
        [None if _null(v) else _parse_event_format(str(v), "LEEF", _LEEF_HEAD,
                                                   str(ps) if ps else "\t", vs, sep, forced)
         for v in a], dtype=object)


_CEF_HDR_ESC = {"\\": "\\\\", "|": "\\|"}
_CEF_EXT_ESC = {"\\": "\\\\", "=": "\\=", "\n": "\\n"}


def _esc(v: str, table: dict) -> str:
    for x, y in table.items():
        v = v.replace(x, y)
    return v


def format_cef(a: pd.Series) -> pd.Series:
    """format_cef(dict): inverse of parse_cef — header keys in CEF order
    (missing -> empty), remaining keys (or an 'extensions' subdict)
    serialized as space-separated k=v with value escaping."""
    out = []
    for v in a:
        if not isinstance(v, dict):
            out.append(None)
            continue
        head = "|".join(_esc(str(v.get(k, "")), _CEF_HDR_ESC) for k in _CEF_HEAD)
        ext = v.get("extensions") if isinstance(v.get("extensions"), dict) else \
            {k: x for k, x in v.items() if k not in _CEF_HEAD}
        body = " ".join(f"{k}={_esc('' if x is None else str(x), _CEF_EXT_ESC)}"
                        for k, x in ext.items())
        out.append(f"CEF:{head}|{body}")
    return pd.Series(out, dtype=object)


_LEEF_EXT_ESC = {"\\": "\\\\", "=": "\\=", "\t": "\\t", "\n": "\\n"}


def format_leef(a: pd.Series) -> pd.Series:
    """format_leef(dict): LEEF:ver|vendor|product|version|eventid|
    k=v<tab>k=v (LEEF 1.0 layout; a leef_delimiter member is emitted as
    the 6th header field and used as the pair separator)."""
    out = []
    for v in a:
        if not isinstance(v, dict):
            out.append(None)
            continue
        head = "|".join(_esc(str(v.get(k, "")), _CEF_HDR_ESC) for k in _LEEF_HEAD)
        delim_raw = v.get("leef_delimiter", "")
        pair_sep = "\t"
        if delim_raw:
            head += "|" + str(delim_raw)
            d = str(delim_raw)
            if len(d) > 1 and d[0] in "xX":
                pair_sep = chr(int(d[1:], 16))
            elif len(d) > 2 and d[:2] in ("0x", "0X"):
                pair_sep = chr(int(d[2:], 16))
            else:
                pair_sep = d
        skip = set(_LEEF_HEAD) | {"leef_delimiter"}
        ext = v.get("extensions") if isinstance(v.get("extensions"), dict) else \
            {k: x for k, x in v.items() if k not in skip}
        body = pair_sep.join(f"{k}={_esc('' if x is None else str(x), _LEEF_EXT_ESC)}"
                             for k, x in ext.items())
        out.append(f"LEEF:{head}|{body}")
    return pd.Series(out, dtype=object)


# ---------------------------------------------------------------------------
# parse_xml / format_xml / parse_windows_eventlog_xml
# ---------------------------------------------------------------------------

def _xml_to_obj(elem):
    """modules/xml/filterx-parse-xml.c conversion rules: empty element ->
    "", attributes -> "@attr", text beside attrs/children -> "#text"
    (multiple text runs concatenated), repeated siblings -> list."""
    d = {}
    for k, v in elem.attrib.items():
        d["@" + k] = v
    texts = []
    if elem.text and elem.text.strip():
        texts.append(elem.text)
    for child in elem:
        val = _xml_to_obj(child)
        tag = child.tag
        if tag in d:
            if not isinstance(d[tag], list):
                d[tag] = [d[tag]]
            d[tag].append(val)
        else:
            d[tag] = val
        if child.tail and child.tail.strip():
            texts.append(child.tail)
    text = "".join(t.strip() for t in texts)
    if not d:
        return text
    if text:
        d["#text"] = text
    return d


def _parse_raw_xml(text: str):
    """Namespace-UNAWARE parse to an Element tree: xmlns stays a plain
    attribute and tags keep their literal names, matching the
    reference's scanner (modules/xml/ does no namespace resolution —
    ET.fromstring would rewrite <Event xmlns='u'> to tag '{u}Event')."""
    import xml.etree.ElementTree as ET
    from xml.parsers import expat

    parser = expat.ParserCreate()
    parser.buffer_text = True
    root = None
    stack: list = []

    def start(name, attrs):
        nonlocal root
        e = ET.Element(name, attrs)
        if stack:
            stack[-1].append(e)
        else:
            root = e
        stack.append(e)

    def end(_name):
        stack.pop()

    def chars(data):
        e = stack[-1]
        if len(e):
            e[-1].tail = (e[-1].tail or "") + data
        else:
            e.text = (e.text or "") + data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.Parse(text, True)
    return root


def parse_xml(a: pd.Series) -> pd.Series:
    """parse_xml(raw_xml) -> dict; invalid XML -> unset."""
    from xml.parsers import expat

    out = []
    for v in a:
        if _null(v):
            out.append(None)
            continue
        try:
            root = _parse_raw_xml(str(v))
        except expat.ExpatError:
            out.append(None)
            continue
        if root is None:
            out.append(None)
            continue
        out.append({root.tag: _xml_to_obj(root)})
    return pd.Series(out, dtype=object)


def parse_windows_eventlog_xml(a: pd.Series) -> pd.Series:
    """parse_windows_eventlog_xml(raw): parse_xml plus the EventData
    rewrite — <Data Name="k">v</Data> entries become {"k": v}
    (modules/xml/filterx-parse-windows-eventlog-xml.c)."""
    parsed = parse_xml(a)

    def fix(v):
        if not isinstance(v, dict):
            return v
        ev = v.get("Event")
        if isinstance(ev, dict) and isinstance(ev.get("EventData"), dict):
            data = ev["EventData"].get("Data")
            items = data if isinstance(data, list) else ([data] if data is not None else [])
            named = {}
            for it in items:
                if isinstance(it, dict) and "@Name" in it:
                    named[it["@Name"]] = it.get("#text", "")
            if named:
                ev["EventData"]["Data"] = named
        return v

    return pd.Series([fix(v) for v in parsed], dtype=object)


# g_markup_escape_text escapes all five markup chars, in text and in
# attribute values alike (reference modules/xml/filterx-func-format-xml.c)
_XML_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                             "'": "&apos;", '"': "&quot;"})


def _xml_leaf_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if hasattr(v, "timestamp") and not isinstance(v, str):
        # datetime leaf -> epoch seconds with microsecond precision
        # (functional pin: datetime_leaf == "946677600.000000")
        return f"{v.timestamp():.6f}"
    return str(v)


def _obj_to_xml(key: str, v) -> str:
    if isinstance(v, list):
        return "".join(_obj_to_xml(key, x) for x in v)
    if isinstance(v, dict):
        attrs = "".join(
            f" {k[1:]}='{_xml_leaf_str(x).translate(_XML_ESCAPE)}'"
            for k, x in v.items() if k.startswith("@"))
        inner = _xml_leaf_str(v.get("#text", "")).translate(_XML_ESCAPE)
        inner += "".join(_obj_to_xml(k, x) for k, x in v.items()
                         if not k.startswith("@") and k != "#text")
        if not inner:
            return f"<{key}{attrs}/>"
        return f"<{key}{attrs}>{inner}</{key}>"
    s = _xml_leaf_str(v).translate(_XML_ESCAPE)
    # empty element self-closes (functional pins: "<a/>", "<a>bd<c/></a>")
    return f"<{key}>{s}</{key}>" if s else f"<{key}/>"


def format_xml(a: pd.Series) -> pd.Series:
    """format_xml(dict): inverse of parse_xml's conversion rules.
    Conformance pinned to the reference's own functional tests
    (tests/light/functional_tests/filterx/test_filterx.py
    test_format_xml): empty leaves/dicts self-close, attributes render
    single-quoted, repeated keys come from lists, datetime leaves render
    as epoch-seconds.6f."""
    out = []
    for v in a:
        if not isinstance(v, dict):
            out.append(None)
        else:
            out.append("".join(_obj_to_xml(k, x) for k, x in v.items()))
    return pd.Series(out, dtype=object)


def _eventdata_to_xml(v) -> str:
    """EventData body (filterx-func-format-windows-eventlog-xml.c
    _append_data_dict): dict value -> <Data Name='k'>v</Data> per entry
    (empty value -> <Data Name='k' /> with the reference's literal
    space); list -> repeated <Data>; scalar -> plain leaf."""
    if not isinstance(v, dict):
        return _obj_to_xml("EventData", v)
    parts = []
    for k, val in v.items():
        if k.startswith("@"):
            continue
        if isinstance(val, dict):
            for name, dv in val.items():
                sv = _xml_leaf_str(dv).translate(_XML_ESCAPE)
                if sv:
                    parts.append(f"<Data Name='{name}'>{sv}</Data>")
                else:
                    parts.append(f"<Data Name='{name}' />")
        elif isinstance(val, list):
            parts.extend(_obj_to_xml(k, x) for x in val)
        else:
            parts.append(_obj_to_xml(k, val))
    attrs = "".join(
        f" {k[1:]}='{_xml_leaf_str(x).translate(_XML_ESCAPE)}'"
        for k, x in v.items() if k.startswith("@"))
    inner = "".join(parts)
    return f"<EventData{attrs}>{inner}</EventData>" if inner else f"<EventData{attrs}/>"


def _win_obj_to_xml(key: str, v) -> str:
    if key == "EventData":
        return _eventdata_to_xml(v)
    if isinstance(v, list):
        return "".join(_win_obj_to_xml(key, x) for x in v)
    if isinstance(v, dict):
        attrs = "".join(
            f" {k[1:]}='{_xml_leaf_str(x).translate(_XML_ESCAPE)}'"
            for k, x in v.items() if k.startswith("@"))
        inner = _xml_leaf_str(v.get("#text", "")).translate(_XML_ESCAPE)
        inner += "".join(_win_obj_to_xml(k, x) for k, x in v.items()
                         if not k.startswith("@") and k != "#text")
        # EventIDQualifiers leaf is re-attached to the already-emitted
        # EventID element as a Qualifiers attribute
        # (_insert_event_id_qualifier)
        if "EventIDQualifiers" in v:
            q = _xml_leaf_str(v["EventIDQualifiers"]).translate(_XML_ESCAPE)
            inner = inner.replace("<EventIDQualifiers/>", "", 1) \
                         .replace(f"<EventIDQualifiers>{q}</EventIDQualifiers>", "", 1) \
                         .replace("<EventID>", f"<EventID Qualifiers='{q}'>", 1) \
                         .replace("<EventID/>", f"<EventID Qualifiers='{q}'/>", 1)
        if not inner:
            return f"<{key}{attrs}/>"
        return f"<{key}{attrs}>{inner}</{key}>"
    s = _xml_leaf_str(v).translate(_XML_ESCAPE)
    return f"<{key}>{s}</{key}>" if s else f"<{key}/>"


def format_windows_eventlog_xml(a: pd.Series) -> pd.Series:
    """format_windows_eventlog_xml(dict): format_xml plus the Windows
    EventData rewrite — dict entries under EventData render as
    <Data Name='k'>v</Data>, and an EventIDQualifiers sibling becomes
    the EventID element's Qualifiers attribute
    (modules/xml/filterx-func-format-windows-eventlog-xml.c; pinned to
    tests/light/functional_tests/filterx/test_filterx.py)."""
    out = []
    for v in a:
        if not isinstance(v, dict):
            out.append(None)
        else:
            out.append("".join(_win_obj_to_xml(k, x) for k, x in v.items()))
    return pd.Series(out, dtype=object)


# ---------------------------------------------------------------------------
# casts + misc (lib/filterx/filterx-globals.c)
# ---------------------------------------------------------------------------

def _cast_bool(a: pd.Series) -> pd.Series:
    """bool(x): reference truthiness — null -> false, numbers != 0,
    strings != "", containers non-empty."""
    return pd.Series([False if _null(v) else bool(v) for v in a], dtype=object)


def _cast_bytes(a: pd.Series) -> pd.Series:
    """bytes(x): strings encode utf-8 (surrogates replaced); bytes pass."""
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        elif isinstance(v, bytes):
            out.append(v)
        else:
            out.append(str(v).encode("utf-8", "replace"))
    return pd.Series(out, dtype=object)


def _cast_datetime(a: pd.Series) -> pd.Series:
    """datetime(x) typecast (lib/filterx/object-datetime.c
    _convert_unix_time_from_*, pinned by test_object_datetime.c):
    INTEGER epoch values are MICROSECONDS, double epoch values are
    seconds, strings parse as RFC3339. A numeric object column decides
    by its values: integral -> usec, fractional -> seconds."""
    if pd.api.types.is_datetime64_any_dtype(a):
        return a
    if pd.api.types.is_integer_dtype(a):
        return pd.to_datetime(a, unit="us", errors="coerce")
    if pd.api.types.is_float_dtype(a):
        return pd.to_datetime(a, unit="s", errors="coerce")
    num = pd.to_numeric(a, errors="coerce")
    if num.notna().any() and not a.astype("string").str.contains(
            "[-:T ]", regex=True).fillna(False).any():
        unit = "s" if (num.dropna() % 1 != 0).any() else "us"
        return pd.to_datetime(num, unit=unit, errors="coerce")
    return pd.to_datetime(a, errors="coerce", format="mixed")


def _repr(a: pd.Series) -> pd.Series:
    """repr(x): the reference per-type repr (lib/filterx/object-*.c
    repr methods; Light test_filterx_types.py): datetimes as
    datetime(unix.usec), doubles as %.17g trimmed, bytes/protobuf as
    bytes("..."), dicts/lists JSON-shaped with member reprs. Strings
    repr QUOTED in the reference (string_format_json) — kept bare here
    where the value IS already a string column, matching marshal-on-
    assignment (a quoted repr only appears for container members)."""
    from .filterx import _fx_render

    if pd.api.types.is_datetime64_any_dtype(a):
        return pd.Series([None if pd.isna(v) else _fx_render(v, "repr")
                          for v in a], dtype=object)
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        elif isinstance(v, str):
            out.append(v)
        else:
            out.append(_fx_render(v, "repr"))
    return pd.Series(out, dtype=object)


def _strcasecmp(a: pd.Series, b: pd.Series) -> pd.Series:
    """strcasecmp(a, b) -> int like C strcasecmp (0 when equal
    case-insensitively); null operand -> unset."""
    bs = _sc(b, "")
    bl = str(bs).lower()
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        else:
            vl = str(v).lower()
            out.append(0 if vl == bl else (-1 if vl < bl else 1))
    return pd.Series(out, dtype=object)


def _utf8_sanitize(a: pd.Series) -> pd.Series:
    """utf8_sanitize(str): replace non-UTF-8 sequences with U+FFFD."""
    out = []
    for v in a:
        if _null(v):
            out.append(None)
        elif isinstance(v, bytes):
            out.append(v.decode("utf-8", "replace"))
        else:
            out.append(str(v).encode("utf-8", "replace").decode("utf-8", "replace"))
    return pd.Series(out, dtype=object)


def _utf8_validate(a: pd.Series) -> pd.Series:
    out = []
    for v in a:
        if _null(v):
            out.append(False)
            continue
        if isinstance(v, bytes):
            try:
                v.decode("utf-8")
                out.append(True)
            except UnicodeDecodeError:
                out.append(False)
            continue
        try:
            str(v).encode("utf-8", "strict")
            out.append(True)
        except UnicodeEncodeError:
            out.append(False)
    return pd.Series(out, dtype=object)


def _first_valid(cands):
    """First non-null candidate of a list (or the scalar itself)."""
    if not isinstance(cands, (list, tuple)):
        cands = [cands]
    for c in cands:
        if c is not None and not (np.ndim(c) == 0 and pd.isna(c)):
            return c
    return None


def set_fields(a: pd.Series, overrides=None, defaults=None,
               replacements=None) -> pd.Series:
    """set_fields(dict, overrides={f: [...]}, defaults={f: [...]},
    replacements={f: [...]}) (lib/filterx/func-set-fields.c): per field,
    the first valid candidate is applied — overrides regardless of
    current state, defaults only when the field is unset, replacements
    only when it is set."""
    ov = overrides.to_numpy(dtype=object) if isinstance(overrides, pd.Series) else None
    df = defaults.to_numpy(dtype=object) if isinstance(defaults, pd.Series) else None
    rp = replacements.to_numpy(dtype=object) if isinstance(replacements, pd.Series) else None
    out = []
    for i, v in enumerate(a):
        if not isinstance(v, dict):
            out.append(None)
            continue
        d = dict(v)
        for spec, mode in ((ov, "override"), (df, "default"), (rp, "replace")):
            rules = spec[i] if spec is not None else None
            if not isinstance(rules, dict):
                continue
            for field, cands in rules.items():
                have = d.get(field) is not None
                if mode == "default" and have:
                    continue
                if mode == "replace" and not have:
                    continue
                val = _first_valid(cands)
                if val is not None:
                    d[field] = val
        out.append(d)
    return pd.Series(out, dtype=object)


def _dict_ctor(a: pd.Series = None) -> pd.Series:
    """dict() / dict(x): empty dict, or cast (JSON string / dict)."""
    if a is None:
        raise TypeError("filterx: dict() with no argument needs row context; use {}")
    import json

    out = []
    for v in a:
        if isinstance(v, dict):
            out.append(dict(v))
        elif isinstance(v, str):
            try:
                p = json.loads(v)
                out.append(p if isinstance(p, dict) else None)
            except ValueError:
                out.append(None)
        else:
            out.append(None)
    return pd.Series(out, dtype=object)


def _list_ctor(a: pd.Series = None) -> pd.Series:
    """list() / json_array(): cast to a list (JSON array string, list,
    or a scalar wrapped as a 1-element list)."""
    if a is None:
        raise TypeError("filterx: list() with no argument needs row context; use []")
    import json

    out = []
    for v in a:
        if isinstance(v, (list, tuple)):
            out.append(list(v))
        elif isinstance(v, str):
            try:
                p = json.loads(v)
            except ValueError:
                p = None
            out.append(p if isinstance(p, list) else ([v] if p is None else [p]))
        elif _null(v):
            out.append(None)
        else:
            out.append([v])
    return pd.Series(out, dtype=object)


@lru_cache(maxsize=32)
def _load_json_file(path: str, mtime_ns: int):
    import json
    import re as _re

    with open(path) as f:
        text = f.read()
    try:
        return json.loads(text)
    except ValueError:
        # the reference's loader tolerates trailing commas (its own Light
        # fixture cache_json_file.json carries them); strip and retry
        return json.loads(_re.sub(r",\s*([}\]])", r"\1", text))


def cache_json_file(a: pd.Series, default_value=None) -> pd.Series:
    """cache_json_file("/path.json"): the file parsed ONCE per worker
    process per mtime (lru_cache keyed on (path, mtime) — the batch
    analogue of the reference's inotify reload-on-write-close, so both
    plain rewrites and atomic renames pick up new content on the next
    batch) and replicated as a constant column — the broadcast-lookup
    pattern. Missing file -> default_value, which must be a dict
    (filterx-func-cache-json-file.c rejects non-dict defaults at config
    parse; Light test_cache_json_file_default_value_non_dict)."""
    import os as _os

    path = str(_sc(a, ""))
    dv = _sc(default_value)
    if default_value is not None and not isinstance(dv, dict):
        raise ValueError(
            "cache_json_file(): default_value must be a dict literal")
    try:
        obj = _load_json_file(path, _os.stat(path).st_mtime_ns)
    except (OSError, ValueError):
        obj = dv
    n = len(a) if isinstance(a, pd.Series) else 1
    return pd.Series([obj] * n, dtype=object)


# timezone display functions delegate to the rewrite stage's zone math
# (stages/timezones.py; reference modules/timestamp/)

def set_timezone(a: pd.Series, zone: pd.Series) -> pd.Series:
    """set_timezone(ts, zone): the instant is correct; returns the
    wall-clock datetime as displayed in `zone` (engine timestamps are
    UTC-normalized, so display conversion is a value shift here)."""
    from .stages.timezones import zone_offsets_at

    z = str(_sc(zone))
    dt = a if pd.api.types.is_datetime64_any_dtype(a) else pd.to_datetime(a, errors="coerce")
    ns = dt.to_numpy(dtype="datetime64[ns]").view(np.int64)
    valid = ~dt.isna().to_numpy()
    off = zone_offsets_at(ns, z)
    out = np.where(valid, ns + off * 1_000_000_000, ns)
    res = pd.Series(out.view("datetime64[ns]")).where(pd.Series(valid), pd.NaT)
    res.attrs["tz_source"] = "fixed"
    return res


def guess_timezone(a: pd.Series, now=None) -> pd.Series:
    """guess_timezone(ts [, now]): assume message time ~ real time; the
    offset error is the difference to `now` rounded to quarter hours
    (30 s tolerance, capped at +/-24 h) — lib/timeutils/unixtime.c
    _guess_recv_timezone_offset_based_on_time_difference. `now` defaults
    to the current time; pass it explicitly for deterministic runs."""
    dt = a if pd.api.types.is_datetime64_any_dtype(a) else pd.to_datetime(a, errors="coerce")
    nv = _sc(now)
    now_ts = pd.to_datetime(nv) if nv is not None else pd.Timestamp.utcnow().tz_localize(None)
    ns = dt.to_numpy(dtype="datetime64[ns]").view(np.int64)
    valid = ~dt.isna().to_numpy()
    diff_s = (ns - np.int64(now_ts.value)) // 1_000_000_000
    q = np.round(diff_s / 900.0).astype(np.int64) * 900
    near = np.abs(diff_s - q) <= 30
    apply = valid & near & (q != 0) & (np.abs(q) <= 24 * 3600)
    out = np.where(apply, ns - q * 1_000_000_000, ns)
    res = pd.Series(out.view("datetime64[ns]")).where(pd.Series(valid), pd.NaT)
    res.attrs["tz_source"] = "guessed"
    return res


EXT_FUNCS = {
    "parse_csv": parse_csv,
    "format_csv": format_csv,
    "parse_kv": parse_kv,
    "format_kv": format_kv,
    "parse_cef": parse_cef,
    "parse_leef": parse_leef,
    "format_cef": format_cef,
    "format_leef": format_leef,
    "parse_xml": parse_xml,
    "parse_windows_eventlog_xml": parse_windows_eventlog_xml,
    "format_xml": format_xml,
    "format_windows_eventlog_xml": format_windows_eventlog_xml,
    "bool": _cast_bool,
    "bytes": _cast_bytes,
    "datetime": _cast_datetime,
    "repr": _repr,
    "strcasecmp": _strcasecmp,
    "utf8_sanitize": _utf8_sanitize,
    "utf8_validate": _utf8_validate,
    "cache_json_file": cache_json_file,
    "set_timezone": set_timezone,
    "guess_timezone": guess_timezone,
    "set_fields": set_fields,
    "dict": _dict_ctor,
    "list": _list_ctor,
    "json_array": _list_ctor,
}


def protobuf_message(a: pd.Series, schema_file=None) -> pd.Series:
    """protobuf_message(dict, schema_file="x.proto"): serialize a dict
    to protobuf wire bytes against the schema's first message
    (modules/grpc/filterx/func-protobuf-message.cpp — re-created on the
    repo's from-spec proto3 codec, functions/protowire.py). Non-dict
    input is a per-row eval error (null result), like the reference's
    type check."""
    from .functions.protowire import encode_message, load_schema

    path = _sc(schema_file)
    if not path:
        raise ValueError('protobuf_message() needs schema_file="x.proto"')
    msgs = load_schema(str(path))
    first = msgs["__first__"]
    out = []
    for v in a:
        if _null(v) or not isinstance(v, dict):
            out.append(None)
        else:
            out.append(encode_message(msgs, first, v))
    return pd.Series(out, dtype=object)


EXT_FUNCS["protobuf_message"] = protobuf_message

# FilterX OTel object constructors (modules/grpc/otel/filterx) over the
# from-spec OTLP schema + proto3 codec — functions/otel.py
from .functions.otel import OTEL_FUNCS  # noqa: E402

EXT_FUNCS.update(OTEL_FUNCS)
