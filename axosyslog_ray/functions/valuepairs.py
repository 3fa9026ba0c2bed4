"""value-pairs() and the structured template functions it feeds:
$(format-json), $(format-flat-json), $(format-welf),
$(format-cef-extension) and $(graphite-output).

One scope model, the reference's (lib/value-pairs/value-pairs.c):
scopes are a bitfield, macro sets merge by scope, nv pairs classify as
plain / dotted / SDATA, empty values are skipped, glob patterns include
macros or exclude scope members, and explicitly added pairs bypass the
excludes; --rekey chains follow transforms.c. Pinned by
tests/test_value_pairs_conformance.py and
tests/test_format_json_conformance.py. The FilterX parse_cef /
parse_leef / format_cef / format_leef functions live in filterx_ext.py.
"""

from __future__ import annotations

import fnmatch
import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa

_VPS_NV_PAIRS = 0x01
_VPS_DOT_NV_PAIRS = 0x02
_VPS_RFC3164 = 0x04
_VPS_RFC5424 = 0x08
_VPS_ALL_MACROS = 0x10
_VPS_SELECTED_MACROS = 0x20
_VPS_SDATA = 0x40
_VPS_EVERYTHING = 0x7F

SCOPE_BITS = {
    # scope "none" selects nothing — explicit --key/pairs only
    # (value-pairs.c:910 scope_eval skips "none")
    "none": 0,
    "nv-pairs": _VPS_NV_PAIRS,
    "dot-nv-pairs": _VPS_DOT_NV_PAIRS,
    "all-nv-pairs": _VPS_NV_PAIRS | _VPS_DOT_NV_PAIRS,
    "rfc3164": _VPS_RFC3164,
    "core": _VPS_RFC3164,
    "base": _VPS_RFC3164,
    "rfc5424": _VPS_RFC5424,
    "syslog-proto": _VPS_RFC5424,
    "all-macros": _VPS_ALL_MACROS,
    "selected-macros": _VPS_SELECTED_MACROS,
    "sdata": _VPS_SDATA,
    "everything": _VPS_EVERYTHING,
}

# builtin macro sets (value-pairs.c:94-119 rfc3164[] / rfc5424[] /
# selected_macros[])
_RFC3164_SET = ["FACILITY", "PRIORITY", "HOST", "PROGRAM", "PID",
                "MESSAGE", "DATE"]
_RFC5424_SET = ["MSGID"]
_SELECTED_MACROS_SET = ["TAGS", "SOURCEIP", "SEQNUM"]

# engine columns that correspond to the reference's BUILTIN nv handles
# (they participate in the nv-pairs scope under their LM_V_* names)
_BUILTIN_NV = {"host": "HOST", "program": "PROGRAM", "pid": "PID",
               "msgid": "MSGID", "message": "MESSAGE",
               "msgformat": "MSGFORMAT"}
# engine columns that are message STRUCTURE (fields / macro sources),
# not name-value pairs
_STRUCTURAL_COLS = {"pri", "ts_stamp", "ts_recvd", "proc_ts", "warc_ts",
                    "tags", "sdata", "syslog_parsed", "matches", "text",
                    "seqnum"}


def _compile_patterns(patterns) -> list[tuple]:
    """[(glob, include_bool)] in declaration order — last match wins
    (vp_pattern_spec_eval loop)."""
    return [(re.compile(fnmatch.translate(g)), inc)
            for g, inc in (patterns or [])]


def _pattern_verdict(compiled, name: str, default: bool) -> bool:
    inc = default
    for rx, is_inc in compiled:
        if rx.match(name):
            inc = is_inc
    return inc


def _apply_transforms(name: str, transforms) -> str:
    """Ordered transform chain (value-pairs/transforms.c): each entry is
    ('add_prefix', P) | ('shift', N) | ('shift_levels', N) |
    ('replace_prefix', (OLD, NEW)), applied in declaration order."""
    for kind, arg in (transforms or []):
        if kind == "add_prefix":
            name = arg + name
        elif kind == "shift":
            name = name[arg:]
        elif kind == "shift_levels":
            parts = name.lstrip(".").split(".")
            name = ".".join(parts[arg:]) or parts[-1]
        elif kind == "replace_prefix":
            old, new = arg
            if name.startswith(old):
                name = new + name[len(old):]
    return name


def _iter_nv_pairs(table: pa.Table):
    """Yield (name, values_list, kind) for every message nv pair in the
    table: builtin columns under their LM_V_* names, user columns
    as-is, and the sdata map exploded to .SDATA.<id>.<param> entries.
    kind is 'plain' | 'dot' | 'sdata'."""
    for c in table.column_names:
        if c in _STRUCTURAL_COLS:
            continue
        name = _BUILTIN_NV.get(c, c)
        kind = "dot" if name.startswith(".") else "plain"
        yield name, table.column(c).to_pylist(), kind
    if "sdata" in table.column_names:
        sd = table.column("sdata").to_pylist()
        names: dict[str, list] = {}
        for i, entries in enumerate(sd):
            for k, v in (entries or []):
                key = ".SDATA." + k
                if key not in names:
                    names[key] = [None] * table.num_rows
                names[key][i] = v
        for name in names:
            yield name, names[name], "sdata"


def value_pairs_foreach(table: pa.Table, scope: str = "core",
                        patterns=None, pairs=None, transforms=None,
                        omit_empty: bool = True):
    """The reference's value_pairs_foreach_sorted over an Arrow batch:
    returns one name->string dict per row, keys sorted. `scope` is a
    comma/space list of scope names; `patterns` is an ordered
    [(glob, include)] list — include patterns pull matching MACROS into
    the set, exclude patterns drop scope members; `pairs` maps explicit
    output names to template specs (never excluded); `transforms` is an
    ordered rekey chain. Empty values are skipped
    (vp_merge_builtins sb->len == 0)."""
    from .macros import MACROS, eval_macro
    from .templates import Template

    scopes = 0
    for name in re.split(r"[,\s]+", scope.strip()):
        if not name:
            continue
        bit = SCOPE_BITS.get(name.replace("_", "-"))
        if bit is None:
            raise ValueError(f"unknown value-pairs scope {name!r}")
        scopes |= bit
    compiled = _compile_patterns(patterns)
    n = table.num_rows
    rows: list[dict] = [{} for _ in range(n)]

    def insert(name: str, values):
        out = _apply_transforms(name, transforms)
        for i, v in enumerate(values):
            if v is None:
                continue
            s = v if isinstance(v, str) else _cell_to_str(v)
            if s is None or (omit_empty and s == ""):
                continue
            rows[i][out] = s

    # 1. the nv-pair walk (value_pairs_foreach_sorted's
    #    log_msg_values_foreach pass)
    if scopes & (_VPS_NV_PAIRS | _VPS_DOT_NV_PAIRS | _VPS_SDATA
                 | _VPS_RFC5424) or compiled:
        for name, values, kind in _iter_nv_pairs(table):
            # SDATA names start with '.', so they are dot-nv-pairs too
            # (vp_msg_nvpairs_foreach's name[0] == '.' check)
            inc = (kind in ("dot", "sdata")
                   and bool(scopes & _VPS_DOT_NV_PAIRS)) \
                or (kind == "plain" and bool(scopes & _VPS_NV_PAIRS)) \
                or (kind == "sdata"
                    and bool(scopes & (_VPS_SDATA | _VPS_RFC5424)))
            inc = _pattern_verdict(compiled, name, inc)
            if inc:
                insert(name, values)

    # 2. merge the builtin macro sets (vp_update_builtin_list_of_values)
    macro_names: list[str] = []
    if compiled:
        # include patterns pull matching macros in (vp_merge_macros:
        # default NOT included)
        macro_names += [m for m in MACROS
                        if _pattern_verdict(compiled, m, False)]
    sets: list[list[str]] = []
    if scopes & (_VPS_RFC3164 | _VPS_RFC5424 | _VPS_SELECTED_MACROS):
        sets.append(_RFC3164_SET)
    if scopes & _VPS_RFC5424:
        sets.append(_RFC5424_SET)
    if scopes & _VPS_SELECTED_MACROS:
        sets.append(_SELECTED_MACROS_SET)
    if scopes & _VPS_ALL_MACROS:
        sets.append(sorted(MACROS))
    for s in sets:
        macro_names += [m for m in s
                        if _pattern_verdict(compiled, m, True)]
    seen = set()
    for m in macro_names:
        if m in seen:
            continue
        seen.add(m)
        vals = eval_macro(m, table)
        if vals is not None:
            insert(m, list(vals))

    # 3. explicit pairs — excludes do NOT apply (vp_pairs_foreach)
    for name, spec in (pairs or {}).items():
        vals = Template(spec).eval(table)
        insert(name, list(vals))

    return [dict(sorted(r.items())) for r in rows]


def _cell_to_str(v) -> str | None:
    if v is None or (isinstance(v, float) and v != v):
        return None
    if isinstance(v, (list, np.ndarray)):
        return ",".join(str(x) for x in v)
    return _typed_to_str(v)


def _typed_to_str(v) -> str:
    """Reference nv stringification of a typed value (--cast / non-JSON
    formatters): booleans render 'true'/'false', not Python repr."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


class _RawJson:
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_ser(v) -> str:
    if isinstance(v, _RawJson):
        return v.text
    if isinstance(v, dict):
        return "{" + ",".join(
            json.dumps(k, ensure_ascii=False) + ":" + _json_ser(x) for k, x in v.items()
        ) + "}"
    if isinstance(v, list):
        return "[" + ",".join(_json_ser(x) for x in v) + "]"
    return json.dumps(v, ensure_ascii=False)


_TYPE_HINT = re.compile(
    r"^(int32|int64|int|i32|i64|double|float|boolean|bool|null|list|literal|string)\((.*)\)$",
    re.DOTALL,
)


def _apply_hint(hint: str, rendered: str):
    """value-pairs explicit type hints (reference value-pairs.c type-hint
    parsing feeding format-json.c typed output)."""
    if hint in ("int32", "int64", "int", "i32", "i64"):
        # type-hinting.c int casts: decimal by default (leading zeros are
        # NOT octal: "0111" is 111), 0x prefix selects hex ("0x1000" is
        # 4096) — lib/logmsg/tests/test_type_hints.c
        from .type_hints import (InvalidCastError, type_cast_to_int32,
                                 type_cast_to_int64)

        cast = type_cast_to_int32 if hint in ("int32", "i32") \
            else type_cast_to_int64
        try:
            return cast(rendered)
        except InvalidCastError:
            return rendered
    if hint in ("double", "float"):
        from .type_hints import InvalidCastError, type_cast_to_double

        try:
            return type_cast_to_double(rendered)
        except InvalidCastError:
            return rendered
    if hint in ("boolean", "bool"):
        from .strings import bool_cast_first_char

        b = bool_cast_first_char(rendered.strip())
        return rendered if b is None else b  # cast error: keep the string
    if hint == "null":
        return None
    if hint == "list":
        from .strings import _parse_list_one

        return _parse_list_one(rendered)
    if hint == "literal":
        return _RawJson(rendered)
    return rendered


def _new_rekey(glob: str) -> dict:
    return {"glob": glob, "shift": 0, "shift_levels": 0, "add_prefix": "",
            "replace_prefix": None, "casing": None}


def _parse_vp_args(t: pa.Table, args):
    """Shared declarative-arg parser for the $(format-*) template
    functions: key=TEMPLATE pairs, --key/--exclude/--scope selection,
    --omit-empty-values/--leave-initial-dot flags, --rekey transform
    chains, type hints. Returns (n_rows, iter_row_pairs(r))."""
    from .macros import eval_macro
    from .templates import Template, ValueRef

    pairs: list[tuple[str, object]] = []  # (key, rendered Series | hint tuple)
    omit_empty = leave_dot = False
    cast_all = False
    excludes: list[str] = []
    rekeys: list[dict] = []  # {glob, shift, shift_levels, add_prefix}
    i, n_rows = 0, t.num_rows
    arglist = list(args)  # raw specs (_lazy_all)

    def _tpl_series(spec: str) -> pd.Series:
        return Template(spec).eval(t)

    def _key_series(col_name: str):
        # NV selection by name: a TYPED column (bool/int/float — e.g.
        # json-parser output, the reference's LM_VT_* typed nv pairs)
        # passes its values through for auto-cast typed rendering;
        # other columns render through the template engine. A null skips
        # the pair in that row, as value_pairs_foreach does. A name that
        # is no column renders as ${NAME} when it is a macro; otherwise it
        # is a dynamic value (.SDATA.*, a match group) or unset, and a row
        # that does not set it skips the pair, as in the reference
        if col_name in t.column_names:
            col = t.column(col_name)
            typ = col.type
            if (pa.types.is_boolean(typ) or pa.types.is_integer(typ)
                    or pa.types.is_floating(typ)):
                return ("__typed__", col.to_pylist())
            rendered = _tpl_series("${" + col_name + "}")
            return ("__typed__", [s if ok else None for s, ok in
                                  zip(rendered, col.is_valid().to_pylist())])
        if eval_macro(col_name, t) is not None:
            return _tpl_series("${" + col_name + "}")
        unset = "\x00unset"
        return ("__typed__", [None if v == unset else v
                              for v in ValueRef(col_name, unset).eval(t)])

    cur_rekey: dict | None = None
    while i < len(arglist):
        flag = arglist[i]
        if flag == "--omit-empty-values":
            omit_empty = True
        elif flag == "--leave-initial-dot":
            leave_dot = True
        elif flag in ("--cast", "--no-cast", "--auto-cast"):
            # cast-to-strings switches (lib/value-pairs/cmdline.c:391-403).
            # auto-cast (the default): values that CARRY a type — explicit
            # hints and typed nv columns (json-parser keeps LM_VT_*
            # types) — render typed; --cast forces strings (hinted
            # values keep their declared type, like the reference)
            cast_all = flag == "--cast"
        elif flag == "--exclude" and i + 1 < len(arglist):
            i += 1
            excludes.append(arglist[i])
        elif flag in ("--rekey",) and i + 1 < len(arglist):
            i += 1
            cur_rekey = _new_rekey(arglist[i])
            rekeys.append(cur_rekey)
        elif flag in ("--upper", "--lower"):
            if cur_rekey is None:
                cur_rekey = _new_rekey("*")
                rekeys.append(cur_rekey)
            cur_rekey["casing"] = flag[2:]
        elif flag in ("--shift", "--shift-levels", "--add-prefix",
                      "--replace-prefix") and i + 1 < len(arglist):
            i += 1
            v = arglist[i]
            if cur_rekey is None:
                cur_rekey = _new_rekey("*")
                rekeys.append(cur_rekey)
            if flag == "--shift":
                cur_rekey["shift"] = int(v)
            elif flag == "--shift-levels":
                cur_rekey["shift_levels"] = int(v)
            elif flag == "--replace-prefix":
                old, _, new = v.partition("=")
                cur_rekey["replace_prefix"] = (old, new)
            else:
                cur_rekey["add_prefix"] = v
        elif flag == "--pair" and i + 1 < len(arglist):
            # --pair KEY=TEMPLATE (vp_cmdline_parse_pair) — same as the
            # bare KEY=TEMPLATE form
            i += 1
            key, _, vspec = arglist[i].partition("=")
            m = _TYPE_HINT.match(vspec)
            if m:
                pairs.append((key, ("__hint__", m.group(1),
                                    _tpl_series(m.group(2)))))
            else:
                pairs.append((key, _tpl_series(vspec)))
        elif flag == "--key" and i + 1 < len(arglist):
            i += 1
            name = arglist[i]
            if any(ch in name for ch in "*?["):
                # glob form: SELECTS every matching NV pair (reference
                # vp_cmdline_parse_key) and scopes following transforms
                cur_rekey = _new_rekey(name)
                rekeys.append(cur_rekey)
                for col in sorted(t.column_names):
                    if fnmatch.fnmatchcase(col, name):
                        pairs.append((col, _key_series(col)))
            else:
                pairs.append((name, _key_series(name)))
        elif flag == "--scope" and i + 1 < len(arglist):
            i += 1
            # reference scope semantics: macro sets + nv classification
            # (value_pairs_foreach); keys arrive pre-stringified per row,
            # and a row without a value for a name skips that pair
            scope_rows = value_pairs_foreach(t, arglist[i])
            names = sorted({k for r in scope_rows for k in r})
            for name in names:
                pairs.append((name, ("__typed__",
                                     [r.get(name) for r in scope_rows])))
        elif "=" in flag:
            key, _, vspec = flag.partition("=")
            m = _TYPE_HINT.match(vspec)
            if m:
                pairs.append((key, ("__hint__", m.group(1), _tpl_series(m.group(2)))))
            else:
                pairs.append((key, _tpl_series(vspec)))
        else:
            # bare arg: an NV name (like --key); a glob selects every
            # matching NV pair (reference vp_cmdline_parse_key)
            name = flag
            if any(ch in name for ch in "*?["):
                for col in sorted(t.column_names):
                    if fnmatch.fnmatchcase(col, name):
                        pairs.append((col, _key_series(col)))
            else:
                pairs.append((name, _key_series(name)))
        i += 1

    def xform_key(k: str) -> str:
        for rk in rekeys:
            if fnmatch.fnmatchcase(k, rk["glob"]):
                if rk["shift"]:
                    k = k[rk["shift"]:]
                if rk["shift_levels"]:
                    parts = k.lstrip(".").split(".")
                    k = ".".join(parts[rk["shift_levels"]:]) or parts[-1]
                if rk.get("replace_prefix") and k.startswith(rk["replace_prefix"][0]):
                    k = rk["replace_prefix"][1] + k[len(rk["replace_prefix"][0]):]
                if rk.get("casing") == "upper":
                    k = k.upper()
                elif rk.get("casing") == "lower":
                    k = k.lower()
                k = rk["add_prefix"] + k
        if k.startswith("."):
            if not leave_dot:
                k = "_" + k[1:]
            else:
                return k  # handled by the caller's split (dot stays in label 1)
        return k

    def iter_row_pairs(r: int):
        for key, val in pairs:
            if any(fnmatch.fnmatchcase(key, g) for g in excludes):
                continue
            if isinstance(val, tuple) and val[0] == "__hint__":
                v = _apply_hint(val[1], str(val[2].iloc[r]))
            elif isinstance(val, tuple) and val[0] == "__typed__":
                v = val[1][r]
                if v is None:
                    continue
                if cast_all:
                    v = _typed_to_str(v)
            else:
                v = str(val.iloc[r])
            if omit_empty and (v == "" or v == []):
                continue
            yield xform_key(key), v

    return n_rows, iter_row_pairs


def tf_format_json(t: pa.Table, *args):
    """$(format-json key=TEMPLATE ... [--key NAME] [--exclude GLOB]
    [--omit-empty-values] [--leave-initial-dot]
    [--rekey GLOB --shift N --shift-levels N --add-prefix P]) — the
    reference's template-function form (modules/json/format-json.c;
    conformance pins tests/test_format_json_conformance.py). Keys nest
    on '.', a leading '.' renders as '_' unless --leave-initial-dot,
    insertion order is preserved, and explicit value-pairs type hints
    (int32()/boolean()/null()/list()/literal()...) emit typed JSON."""
    n_rows, iter_row_pairs = _parse_vp_args(t, args)
    out: list[str] = []
    for r in range(n_rows):
        nested: dict = {}
        for k, v in iter_row_pairs(r):
            if k.startswith("."):
                tail = k[1:].split(".")
                parts = ["." + tail[0]] + tail[1:]
            else:
                parts = k.split(".")
            d = nested
            ok = True
            for p in parts[:-1]:
                nxt = d.setdefault(p, {})
                if not isinstance(nxt, dict):
                    ok = False
                    break
                d = nxt
            if ok:
                d[parts[-1]] = v
        out.append(_json_ser(nested))
    return pd.Series(out, dtype=object)


def tf_format_flat_json(t: pa.Table, *args):
    """$(format-flat-json): same arg surface as $(format-json) but
    dotted keys stay FLAT (modules/json/format-json.c flat mode)."""
    n_rows, iter_row_pairs = _parse_vp_args(t, args)
    out: list[str] = []
    for r in range(n_rows):
        d = dict(iter_row_pairs(r))
        out.append(_json_ser(d))
    return pd.Series(out, dtype=object)


def tf_format_welf(t: pa.Table, *args):
    """$(format-welf): key=value space-joined, keys SORTED, values with
    spaces/quotes quoted (modules/kvformat/format-welf.c; pins from its
    test corpus in tests/test_templates.py)."""
    n_rows, iter_row_pairs = _parse_vp_args(t, args)

    def quote(v) -> str:
        v = str(v)
        needs = any(c.isspace() or c in "\"'=," for c in v) or v == ""
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' if needs else v

    out: list[str] = []
    for r in range(n_rows):
        d = dict(iter_row_pairs(r))
        out.append(" ".join(f"{k}={quote(v)}" for k, v in sorted(d.items())))
    return pd.Series(out, dtype=object)


def tf_graphite_output(t: pa.Table, *args):
    """$(graphite-output --timestamp T --key glob ...): one
    'key value timestamp' graphite plaintext line per selected pair, each
    ending in a newline as the plaintext protocol requires; a row with no
    pairs renders "" (reference modules/graphite/, Light
    template_functions/graphite-output)."""
    from .templates import Template

    arglist = list(args)
    ts_spec = "${UNIXTIME}"
    rest: list = []
    i = 0
    while i < len(arglist):
        if arglist[i] == "--timestamp" and i + 1 < len(arglist):
            ts_spec = arglist[i + 1]
            i += 2
        else:
            rest.append(arglist[i])
            i += 1
    n_rows, iter_row_pairs = _parse_vp_args(t, rest)
    tss = Template(ts_spec).eval(t)
    out = ["".join(f"{k} {v} {tss.iloc[r]}\n" for k, v in sorted(iter_row_pairs(r)))
           for r in range(n_rows)]
    return pd.Series(out, dtype=object)


def tf_format_cef_extension(t: pa.Table, *args):
    """$(format-cef-extension ...value-pairs args...): extension-only
    CEF pair serialization of the declarative selection (reference
    modules/cef/format-cef-extension.c tf_cef): fully-alphanumeric keys
    only, values escape \\ = \\n \\r and control chars as \\uXXXX,
    space-joined in sorted key order."""
    n_rows, iter_row_pairs = _parse_vp_args(t, args)

    def esc(v: str) -> str:
        out = []
        for ch in v:
            if ch == "\\":
                out.append("\\\\")
            elif ch == "=":
                out.append("\\=")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\r":
                out.append("\\r")
            elif ord(ch) < 32:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        return "".join(out)

    out: list[str] = []
    for r in range(n_rows):
        pairs = {k: v for k, v in iter_row_pairs(r)
                 if k.isalnum() and k.isascii()}
        out.append(" ".join(f"{k}={esc(_typed_to_str(v) if not isinstance(v, str) else v)}"
                            for k, v in sorted(pairs.items())))
    return pd.Series(out, dtype=object)


tf_format_cef_extension._lazy_all = True  # type: ignore[attr-defined]
