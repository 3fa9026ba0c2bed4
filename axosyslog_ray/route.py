"""Filters (predicate expressions) and routing (log-path fan-out).

Filters mirror the reference's FilterExprNode vocabulary
(reference lib/filter/filter-expr.h:33-48; filter-pri.c, filter-re.c:39-52,
filter-cmp.c:42-210, filter-op.c, filter-tags.c, filter-netmask.c,
filter-in-list.c:41-90) as vectorized boolean masks over Arrow batches.

Routing (`Router`) is the all-final case of the log-path flags
(reference lib/cfg-tree.h:36-40; lib/logmpx.c:97-130):

- routes are tried in declaration order and the first match claims a row
  (ordered mask subtraction `mask_i & ~claimed`);
- `fallback` routes are tried last, on the rows no other route claimed.

`Router.route_first` appends a scalar `route: string` label, which is
what a partitioned Parquet fan-out write wants (one shuffle-free pass,
partition_cols=["route"]). Non-final fan-out, catch-all and the full
two-pass multiplexer live in the config executor (`Config._multiplex`).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.macros import FACILITY_NUM, SEVERITY_NUM
from .functions.templates import Template


class FilterExpr:
    def mask(self, table: pa.Table) -> np.ndarray:  # -> bool ndarray
        raise NotImplementedError

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


def _pri(table: pa.Table) -> np.ndarray:
    return table.column("pri").to_numpy().astype(np.int64)


class Facility(FilterExpr):
    """facility() bitmask test on pri (reference lib/filter/filter-pri.c)."""

    def __init__(self, *names: str | int):
        self.nums = {FACILITY_NUM[n] if isinstance(n, str) else int(n) for n in names}

    def mask(self, table):
        return np.isin(_pri(table) // 8, list(self.nums))


class Severity(FilterExpr):
    """severity()/level(), single or range (reference filter-pri.c)."""

    def __init__(self, lo: str | int, hi: str | int | None = None):
        lo = SEVERITY_NUM[lo] if isinstance(lo, str) else int(lo)
        hi = lo if hi is None else (SEVERITY_NUM[hi] if isinstance(hi, str) else int(hi))
        self.lo, self.hi = min(lo, hi), max(lo, hi)

    def mask(self, table):
        sev = _pri(table) % 8
        return (sev >= self.lo) & (sev <= self.hi)


def _np_mask(m) -> np.ndarray:
    """Arrow boolean result -> numpy bool mask, null as False."""
    return np.asarray(pc.fill_null(m, False).to_numpy(zero_copy_only=False),
                      dtype=bool)


# string-matcher flag -> (Arrow kernel, the same test on one Python str)
_STRING_OPS = {
    "prefix": (pc.starts_with, str.startswith),
    "substring": (pc.match_substring, lambda v, p: p in v),
    None: (pc.equal, str.__eq__),
}


class Match(FilterExpr):
    """match()/host()/program()/message() — regex | literal | glob matcher
    on a field/template (reference lib/filter/filter-re.c:39-52,
    lib/logmatcher.c matchers pcre/string/glob lib/logmatcher.h:115-117).
    The value is `Template.eval_arrow`; Arrow kernels (RE2, equal,
    starts_with, match_substring) test it. Python `re` runs per row only
    for patterns RE2 rejects (lookaround, backrefs), and `str.lower` only
    for the non-ASCII rows of an ignore-case string match."""

    def __init__(self, pattern: str, value: str = "MESSAGE", kind: str = "pcre",
                 flags: tuple = ()):
        """kind 'string' is an EXACT full-value compare by default (the
        reference's log_matcher_string_new with no flags,
        lib/tests/test_matcher.c string_match pins); flags 'prefix' /
        'substring' relax it, 'ignore-case' applies to every kind
        (LMF_PREFIX / LMF_SUBSTRING / LMF_ICASE)."""
        # braced reference: value names may contain dots (.sudo.COMMAND)
        self.tmpl = Template("${%s}" % value if not value.startswith("$")
                             else value)
        self.kind = kind
        self.flags = set(flags)
        self.icase = bool({"icase", "ignore-case"} & self.flags)
        self.pattern = pattern
        rx_flags = re.IGNORECASE if self.icase else 0
        _ci = "(?i)" if self.icase else ""
        self.re = None
        if kind == "pcre":
            self.re = re.compile(pattern, rx_flags)
            self._re2_pattern = _ci + pattern
        elif kind == "glob":
            glob_re = fnmatch.translate(pattern)
            self.re = re.compile(glob_re, rx_flags)
            self._re2_pattern = _ci + "^(?:" + glob_re.replace(r"\Z", "$") + ")"
        self._re2_ok: bool | None = None

    def mask(self, table):
        vals = self.tmpl.eval_arrow(table)
        if self.kind == "string":
            op, py_op = _STRING_OPS[
                "prefix" if "prefix" in self.flags
                else "substring" if "substring" in self.flags else None]
            if not self.icase:
                return _np_mask(op(vals, self.pattern))
            # ASCII rows fold with ascii_lower exactly as str.lower does
            p = self.pattern.lower()
            out = _np_mask(op(pc.ascii_lower(vals), p))
            rest = np.flatnonzero(~_np_mask(pc.string_is_ascii(vals)))
            for i, v in zip(rest, vals.take(rest).to_pylist()):
                out[i] = v is not None and py_op(v.lower(), p)
            return out
        if self._re2_ok is not False:
            try:
                m = _np_mask(pc.match_substring_regex(vals, self._re2_pattern))
                self._re2_ok = True
                return m
            except pa.ArrowInvalid:
                self._re2_ok = False  # non-RE2 pattern: Python re below
        find = self.re.search if self.kind == "pcre" else self.re.match
        return np.array([v is not None and find(v) is not None
                         for v in vals.to_pylist()], dtype=bool)


def host(pattern, kind="pcre"):
    return Match(pattern, "HOST", kind)


def program(pattern, kind="pcre"):
    return Match(pattern, "PROGRAM", kind)


def message(pattern, kind="pcre"):
    return Match(pattern, "MESSAGE", kind)


_STRINGISH = {"string", "json", "list", "bytes", "protobuf"}
_TRIVIAL_REF = re.compile(r"^\$\{?([A-Za-z0-9_.]+)\}?$")

# Arrow dtype -> LM_VT-style label for auto-typed operands
def _arrow_vt(typ: pa.DataType) -> str:
    if pa.types.is_integer(typ):
        return "integer"
    if pa.types.is_floating(typ):
        return "double"
    if pa.types.is_boolean(typ):
        return "boolean"
    if pa.types.is_timestamp(typ) or pa.types.is_date(typ):
        return "datetime"
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        return "list"
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return "bytes"
    if pa.types.is_struct(typ) or pa.types.is_map(typ):
        return "json"
    return "string"


def _to_number(vals: pd.Series, vt: str) -> np.ndarray:
    """filter-cmp.c _convert_to_number (JavaScript-style): strings/ints/
    doubles parse or become NaN; objects/bytes are NaN; null is 0;
    boolean casts 0/1; datetime is epoch milliseconds."""
    n = len(vals)
    if vt in ("string", "integer", "double"):
        return pd.to_numeric(vals, errors="coerce").to_numpy(dtype=np.float64)
    if vt in ("json", "list", "bytes", "protobuf"):
        return np.full(n, np.nan)
    if vt == "null":
        return np.zeros(n)
    if vt == "boolean":
        from .functions.strings import bool_cast_first_char

        # type_cast_to_boolean is first-char based; cast failure -> 0
        # (filter-cmp.c _convert_to_number boolean branch)
        return np.array([float(bool_cast_first_char(str(v)) or 0) for v in vals])
    if vt == "datetime":
        # The reference's LM_VT_DATETIME values are unixtime strings that
        # type_cast_to_datetime_msec parses; auto-typed Arrow timestamp
        # columns render through templates as ISO strings, so fall back to
        # pd.to_datetime for anything the numeric parse rejects
        # (unparsable -> 0, the cast-failure default).
        secs = pd.to_numeric(vals, errors="coerce")
        bad = secs.isna()
        if bad.any():
            parsed = pd.to_datetime(vals[bad], errors="coerce", utc=True)
            ns = np.where(parsed.notna(), parsed.to_numpy(dtype="int64", na_value=0), 0)
            secs = secs.copy()
            secs[bad] = ns / 1e9
        return np.round(secs.fillna(0.0).to_numpy(dtype=np.float64) * 1000.0)
    return np.full(n, np.nan)


_ARROW_CMP = {"eq": pc.equal, "ne": pc.not_equal, "lt": pc.less,
              "le": pc.less_equal, "gt": pc.greater, "ge": pc.greater_equal}


class Cmp(FilterExpr):
    """Template-vs-template comparison — a faithful port of the
    reference's decision procedure (lib/filter/filter-cmp.c:42-235):

    mode 'type-aware' (4.0 semantics, conformance pinned to the
    reference's lib/filter/tests/test_filters_fop_cmp.c in
    tests/test_fop_cmp_conformance.py):
      1. same type and string-ish (string/json/list/bytes) -> byte compare;
      2. null on either side: == is type-equality, != its negation,
         ordering ops fall through with null converted to 0;
      3. otherwise JS-style numeric conversion; NaN on either side makes
         every comparison FALSE except != (always TRUE).
    Ops '===' / '!==' add the type-equality gate
    (_evaluate_type_and_value_comparison).

    mode 'string' compares bytes. mode 'numeric' parses both sides as
    doubles (NaN compares False) — a DOCUMENTED divergence: the
    reference's numeric mode is C atoi() (integer prefix, 'alma' == 0);
    double parsing is what the engine's SQL oracles pin and what a user
    comparing '$value' > '100.5' actually wants.

    Operand types for 'type-aware' default to 'auto': a trivial '$name'
    template takes the referenced column's Arrow type (per-row nulls
    become the NULL type; a missing column is NULL, matching "a
    non-existing macro equals null"); *_NUM macros and PRI are integers;
    literals and composite templates are strings, like the reference's
    template evaluator. Pass ltype/rtype to override."""

    OPS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
           "===": "eq", "!==": "ne"}

    def __init__(self, left: str, op: str, right: str, mode: str = "type-aware",
                 ltype: str = "auto", rtype: str = "auto"):
        if op not in self.OPS:
            raise ValueError(f"unknown comparison op {op!r}")
        self.l, self.r = Template(left), Template(right)
        self.lspec, self.rspec = str(left), str(right)
        self.op, self.mode = op, mode
        self.ltype, self.rtype = ltype, rtype

    def _operand(self, spec: str, declared: str, table: pa.Table):
        """(values Series, type label, per-row null mask)."""
        tpl = self.l if spec == self.lspec else self.r
        vals = tpl.eval(table)
        n = len(vals)
        if declared != "auto":
            return vals, declared, np.zeros(n, dtype=bool)
        m = _TRIVIAL_REF.match(spec)
        if not m:
            return vals, "string", np.zeros(n, dtype=bool)
        name = m.group(1)
        if name in table.column_names:
            col = table.column(name)
            return vals, _arrow_vt(col.type), col.is_null().to_numpy(zero_copy_only=False)
        if name.endswith("_NUM") or name == "PRI":
            return vals, "integer", np.zeros(n, dtype=bool)
        from .functions.macros import eval_macro

        if eval_macro(name, table) is not None:
            return vals, "string", np.zeros(n, dtype=bool)
        return vals, "null", np.ones(n, dtype=bool)

    def _numeric(self, a: pd.Series, b: pd.Series) -> np.ndarray:
        import operator

        opf = getattr(operator, self.OPS[self.op])
        an, bn = pd.to_numeric(a, errors="coerce"), pd.to_numeric(b, errors="coerce")
        num_ok = an.notna() & bn.notna()
        num_res = pd.Series(np.zeros(len(a), dtype=bool))
        with np.errstate(invalid="ignore"):
            num_res[num_ok] = opf(an[num_ok], bn[num_ok])
        return (num_res & num_ok).to_numpy()

    def mask(self, table):
        if self.mode == "numeric":
            return self._numeric(self.l.eval(table), self.r.eval(table))
        if self.mode != "type-aware":
            # UTF-8 byte order is code point order: Arrow's comparison
            # kernels order strings as Python does
            return _np_mask(_ARROW_CMP[self.OPS[self.op]](
                self.l.eval_arrow(table), self.r.eval_arrow(table)))
        import operator

        opf = getattr(operator, self.OPS[self.op])
        av, at, anull = self._operand(self.lspec, self.ltype, table)
        bv, bt, bnull = self._operand(self.rspec, self.rtype, table)
        n = len(av)
        lt = np.where(anull, "null", at)
        rt = np.where(bnull, "null", bt)
        out = np.zeros(n, dtype=bool)

        types_match = lt == rt

        # 1) same string-ish type -> byte compare
        stringish = types_match & np.isin(lt, list(_STRINGISH))
        if stringish.any():
            out = np.where(stringish, opf(av.astype(str), bv.astype(str)).to_numpy(), out)

        # 2) null on either side, == / != only
        nullish = ((lt == "null") | (rt == "null")) & ~stringish
        if self.op in ("==", "==="):
            out = np.where(nullish, types_match, out)
        elif self.op in ("!=", "!=="):
            out = np.where(nullish, out | ~types_match, out)
        else:
            nullish = np.zeros(n, dtype=bool)  # ordering ops: fall through, null -> 0

        # 3) numeric conversion for the rest
        rest = ~stringish & ~nullish
        if rest.any():
            an = np.where(lt == "null", 0.0, _to_number(av, at))
            bn = np.where(rt == "null", 0.0, _to_number(bv, bt))
            nan = np.isnan(an) | np.isnan(bn)
            with np.errstate(invalid="ignore"):
                num = opf(an, bn)
            if self.op in ("!=", "!=="):
                num = np.where(nan, True, num)
            else:
                num = np.where(nan, False, num)
            out = np.where(rest, num, out)
        # ===/!== add the type-equality gate AROUND the typed evaluation
        # (_evaluate_type_and_value_comparison): mismatching types decide
        # immediately — '===' FALSE, '!==' TRUE
        if self.op == "===":
            return out & types_match
        if self.op == "!==":
            return out | ~types_match
        return out


class And(FilterExpr):
    def __init__(self, *exprs):
        self.exprs = exprs

    def mask(self, table):
        m = self.exprs[0].mask(table)
        for e in self.exprs[1:]:
            m = m & e.mask(table)
        return m


class Or(FilterExpr):
    def __init__(self, *exprs):
        self.exprs = exprs

    def mask(self, table):
        m = self.exprs[0].mask(table)
        for e in self.exprs[1:]:
            m = m | e.mask(table)
        return m


class Not(FilterExpr):
    def __init__(self, expr):
        self.expr = expr

    def mask(self, table):
        return ~self.expr.mask(table)


class TagFilter(FilterExpr):
    """tags() membership on the tags list column (reference lib/filter/filter-tags.c)."""

    def __init__(self, *tags: str):
        self.tags = set(tags)
        self._value_set = pa.array(sorted(self.tags), type=pa.string())

    def mask(self, table):
        """Arrow-native: is_in over the FLAT tag values + segment-any via
        maximum.reduceat over the list offsets — no per-row Python sets
        (was the measured hot spot on the flagship route step)."""
        if "tags" not in table.column_names:
            return np.zeros(table.num_rows, dtype=bool)
        col = table.column("tags")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        out = np.zeros(n, dtype=bool)
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)
        if len(col.values) == 0:
            return out
        hit = pc.is_in(col.values, value_set=self._value_set).to_numpy(zero_copy_only=False)
        hit = np.asarray(hit, dtype=np.int8)
        nz = lens > 0
        if nz.any():
            out[nz] = np.maximum.reduceat(hit, offsets[:-1][nz]) > 0
        valid = ~np.asarray(col.is_null().to_numpy(zero_copy_only=False), dtype=bool)
        return out & valid


class RateLimitFilter(FilterExpr):
    """filter rate-limit(template(T) rate(N) [per(SECONDS)]): stateful
    trailing-window admission — at most N rows per rendered key per
    window, in timestamp order (reference modules/ratelimit/
    filter-ratelimit.c). Runs over the table the filter sees; in
    map_batches execution the admission window is per batch (the
    documented batch-boundary semantics of the standalone
    state.suppress.rate_limit operator, which is the keyed-shuffle
    form to use at scale)."""

    def __init__(self, template: str, rate: int, per_seconds: float = 1.0,
                 ts_col: str = "ts_stamp"):
        self.template = template
        self.rate = int(rate)
        self.per_seconds = per_seconds
        self.ts_col = ts_col

    def mask(self, table):
        import numpy as np
        import pandas as pd

        from .functions.templates import Template
        from .state.suppress import RateLimit

        n = table.num_rows
        if n == 0:
            return np.zeros(0, dtype=bool)
        keys = Template(self.template).eval(table)
        if self.ts_col in table.column_names:
            ts = pd.to_datetime(table.column(self.ts_col).to_pandas()) \
                .to_numpy(dtype="datetime64[ns]").astype(np.int64)
        else:
            ts = np.zeros(n, dtype=np.int64)
        df = pd.DataFrame({"_k": keys.to_numpy(dtype=object), "_t": ts,
                           "_i": np.arange(n, dtype=np.int64)})
        rl = RateLimit(self.rate, self.per_seconds, keys=["_k"],
                       ts_col="_t", tie_break="_i")
        kept = rl(df)["_i"].to_numpy()
        m = np.zeros(n, dtype=bool)
        m[kept] = True
        return m


class InList(FilterExpr):
    """in-list() set membership — broadcast semi-join
    (reference lib/filter/filter-in-list.c:41-90); the value set is held
    once per process, pc.is_in does the per-batch work."""

    def __init__(self, values, field: str = "HOST"):
        self.values = pa.array(sorted(set(values)), type=pa.string())
        self.tmpl = Template("$" + field if not field.startswith("$") else field)

    def mask(self, table):
        return _np_mask(pc.is_in(self.tmpl.eval_arrow(table),
                                 value_set=self.values))


class Netmask(FilterExpr):
    """netmask() CIDR containment as an integer range test on a packed
    IPv4 column (reference lib/filter/filter-netmask.c)."""

    def __init__(self, cidr: str, field: str = "src_ip"):
        import ipaddress

        net = ipaddress.ip_network(cidr, strict=False)
        self.lo, self.hi = int(net.network_address), int(net.broadcast_address)
        self.field = field

    def mask(self, table):
        from .functions.strings import tf_ipv4_to_int

        vals = table.column(self.field).to_pandas() if self.field in table.column_names else None
        if vals is None:
            return np.zeros(table.num_rows, dtype=bool)
        ints = pd.to_numeric(tf_ipv4_to_int(table, vals), errors="coerce")
        return ((ints >= self.lo) & (ints <= self.hi)).fillna(False).to_numpy()


class ColFilter(FilterExpr):
    """Adapter: any vectorized fn(table)->bool ndarray as a filter."""

    def __init__(self, fn):
        self.fn = fn

    def mask(self, table):
        return np.asarray(self.fn(table), dtype=bool)


TRUE = ColFilter(lambda t: np.ones(t.num_rows, dtype=bool))


@dataclass
class Route:
    name: str
    expr: FilterExpr
    fallback: bool = False


@dataclass
class Router:
    routes: list[Route] = field(default_factory=list)

    def add(self, name, expr, fallback=False):
        """Append a route; a name already routed raises ValueError (masks
        and labels are keyed by name)."""
        if any(r.name == name for r in self.routes):
            raise ValueError(f"duplicate route name: {name!r}")
        self.routes.append(Route(name, expr, fallback))
        return self

    def masks(self, table: pa.Table) -> dict[str, np.ndarray]:
        """Disjoint per-sink masks: each route claims the rows it matches
        that no earlier route claimed, fallback routes last (the
        all-final case of lib/logmpx.c:97-130)."""
        claimed = np.zeros(table.num_rows, dtype=bool)
        out: dict[str, np.ndarray] = {}
        for r in sorted(self.routes, key=lambda r: r.fallback):
            out[r.name] = r.expr.mask(table) & ~claimed
            claimed |= out[r.name]
        return out

    def route_first(self, table: pa.Table, col: str = "route", unmatched: str = "_unmatched") -> pa.Table:
        """Append a scalar route-label column (the first route to match
        wins) — the shuffle-free partitioned-write fan-out. Row i takes
        label code k of the k-th (disjoint) mask, or len(masks) when no
        route claims it; the strings are one `take` of the labels."""
        masks = self.masks(table)
        code = np.full(table.num_rows, len(masks), dtype=np.int32)
        for k, m in enumerate(masks.values()):
            code[m] = k
        return table.append_column(col, pa.array([*masks, unmatched], pa.string()).take(code))
