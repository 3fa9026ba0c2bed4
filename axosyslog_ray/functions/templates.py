"""Template engine: compile "$HOST ${PROGRAM} $(fn a b)" -> vectorized eval.

Mirrors the reference template compiler/evaluator
(reference lib/template/compiler.c, lib/template/eval.c): a template
compiles into a list of literal / value-ref / function-call elements;
evaluation walks the list once producing a string Series over the batch.
Trivial templates (`$HOST`, plain literal) short-circuit to a direct
column/macro read (reference lib/template/templates.h:79-82).

Value refs resolve in order: real table column -> macro (functions.macros)
-> empty string (the reference's unset-value semantics). `$(fn a b)`
calls a registered template function (functions.strings) with each arg
itself template-evaluated — args may be literals, $refs, or nested calls.

`template_hash` provides the deterministic partition key the reference
derives from a template (lib/template/eval.h:65) — used for
parallelize()-style keyed repartition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashutil import hash_str_array
from .macros import MACROS, eval_macro
from .strings import TEMPLATE_FUNCS, lookup_template_func  # noqa: F401

class TemplateCompileError(ValueError):
    """Compile failure with the reference's message text
    (log_template_compiler_fill_compile_error, compiler.c:195-199)."""


class Literal:
    def __init__(self, text: str):
        self.text = text

    def eval(self, table: pa.Table) -> pd.Series:
        return pd.Series([self.text] * table.num_rows, dtype=object)


class ValueRef:
    """$NAME / ${NAME} / ${NAME:-default} — default applies when the
    value is UNSET (missing name, or per-row null), the reference's
    compiler.c default-value semantics; a set-but-empty value stays
    empty. `msg_ref` records a ${NAME}@N correlation-stack reference
    (compiler.c parse_msg_ref); the batch engine evaluates over the
    current message only. All-digit names read the `matches` list
    column ($1 = matches[0], the set-matches layout)."""

    def __init__(self, name: str, default: str | None = None,
                 msg_ref: int = 0):
        self.name = name
        self.default = default
        self.msg_ref = msg_ref

    def eval(self, table: pa.Table) -> pd.Series:
        if self.name in table.column_names:
            field = table.schema.field(self.name)
            if pa.types.is_list(field.type) or \
                    pa.types.is_large_list(field.type):
                # LM_VT_LIST values render through the str-repr list
                # codec (lib/str-repr; "foo,bar,baz"), not a Python repr
                from .strings import _ser_list

                lst = table.column(self.name).to_pandas()
                fill = self.default if self.default is not None else ""
                return lst.map(
                    lambda v: _ser_list([str(x) for x in v])
                    if v is not None else fill).astype(object)
            fill = self.default if self.default is not None else ""
            if pa.types.is_boolean(field.type):
                # LM_VT_BOOLEAN marshals lowercase (lib/logmsg type
                # hints; Light suites assert 'true'/'false'), null or not
                out = pc.if_else(table.column(self.name), "true",
                                 "false").to_pandas()
                return out.where(out.notna(), fill)
            # an int column with a null stays int (not float64: "1.0")
            col = table.column(self.name).to_pandas(integer_object_nulls=True)
            out = col.astype("string").astype(object)
            return out.where(col.notna(), fill)
        if self.name.startswith(".SDATA.") and "sdata" in table.column_names:
            # dynamic SDATA nv lookup (lib/logmsg sdata handles):
            # ${.SDATA.<sdid>.<param>} reads the parsed pair map
            key = self.name[len(".SDATA."):]
            fill = self.default if self.default is not None else ""
            sd = table.column("sdata").to_pandas()
            return sd.map(
                lambda v: dict(v).get(key, fill) if v is not None else fill
            ).astype(object)
        if (self.name.isdigit() and self.name.isascii()
                and "matches" in table.column_names):
            idx = int(self.name) - 1
            fill = self.default if self.default is not None else ""
            if idx < 0:
                # $0 (the whole match, logmsg match 0) — stored as the
                # regexp parser's match0 column when store-matches ran
                if "match0" in table.column_names:
                    col = table.column("match0").to_pandas()
                    return col.astype(object).where(col.notna(), fill)
                return pd.Series([fill] * table.num_rows, dtype=object)
            lst = table.column("matches").to_pandas()
            return pd.Series(
                [v[idx] if (v is not None and idx < len(v)
                            and v[idx] is not None) else fill
                 for v in lst], dtype=object)
        m = eval_macro(self.name, table)
        if m is not None:
            out = m.astype(object)
            if self.default is not None:
                # MACRO default applies when the expansion appended
                # nothing (eval.c:96-97 log_template_append_elem_macro),
                # unlike VALUE defaults which need an unset value
                out = out.where(out.notna() & (out != ""), self.default)
            return out
        return pd.Series([self.default or ""] * table.num_rows, dtype=object)


class FuncCall:
    def __init__(self, name: str, args: list, msg_ref: int = 0):
        self.name = name
        self.args = args  # list of compiled Templates
        self.msg_ref = msg_ref
        # Bind at compile time (the reference resolves the plugin in
        # log_template_compiler_process_template_function, not per
        # eval) — required for user template-functions registered by a
        # config: the bound closure pickles into Ray workers, where a
        # module-global lookup would only see the built-in table. The
        # active config's user-function overlay is consulted FIRST so
        # template-function registrations stay config-scoped.
        self.fn = lookup_template_func(name)

    def eval(self, table: pa.Table) -> pd.Series:
        fn = self.fn
        if fn is None:
            raise KeyError(f"unknown template function $({self.name} ...)")
        if getattr(fn, "_lazy_first", False):
            # higher-order functions ($(map expr list)): the first arg is a
            # per-element template SPEC, not a value to evaluate here
            return fn(table, self.args[0].spec, *[a.eval(table) for a in self.args[1:]])
        if getattr(fn, "_lazy_all", False):
            # declarative functions ($(format-json key=TPL --flag ...)):
            # every arg is a raw spec the function parses itself
            return fn(table, *[a.spec for a in self.args])
        return fn(table, *[a.eval(table) for a in self.args])


def _is_macro_name(c: str) -> bool:
    """compiler.c is_macro_name: [A-Za-z0-9_]."""
    return ("A" <= c <= "Z") or ("a" <= c <= "z") or ("0" <= c <= "9") \
        or c == "_"


class _Compiler:
    """Faithful port of the reference template scanner
    (lib/template/compiler.c log_template_compiler_*): a cursor walk
    producing Literal / ValueRef / FuncCall elements. Literal text is
    emitted as standalone Literal elements rather than being attached
    to the next reference element — evaluation-equivalent. `version`
    is the packed config version; pre-3.5 configs treat backslash as
    an escape character at the top level (process_token)."""

    VERSION_3_5 = 0x0305

    def __init__(self, spec: str, version: int | None = None):
        self.s = spec
        self.i = 0
        self.version = version
        self.text: list[str] = []   # pending literal chars
        self.elems: list = []
        self.msg_ref = 0

    def compile(self) -> list:
        while self.i < len(self.s):
            self._process_token()
        self._flush_text()
        return self.elems

    def _flush_text(self):
        if self.text:
            self.elems.append(Literal("".join(self.text)))
            self.text = []

    def _error(self, info: str, pos: int):
        raise TemplateCompileError(f"{info}, error_pos='{pos}'")

    def _process_token(self):
        self.msg_ref = 0
        c = self.s[self.i]
        if c == "$":
            self._process_value()
            return
        if c == "\\" and self.version is not None \
                and self.version < self.VERSION_3_5:
            # pre-3.5 escaping: the backslash quotes the next character
            self.i += 1
            if self.i >= len(self.s):
                return
        self.text.append(self.s[self.i])
        self.i += 1

    def _process_value(self):
        self.i += 1
        p = self.s[self.i] if self.i < len(self.s) else ""
        if p == "{":
            self._process_braced()
        elif p == "(":
            self._process_function()
        elif p and _is_macro_name(p):
            self._process_unbraced()
        elif p == "*":
            self.i += 1
            self._flush_text()
            self.elems.append(ValueRef("*"))
        else:
            # escaped/literal dollar: '$$x' -> '$x', '$:' -> '$:', '$' at
            # end -> '$'
            if p != "$":
                self.text.append("$")
            if p:
                self.text.append(p)
                self.i += 1

    def _parse_msg_ref(self):
        """${NAME}@N correlation-stack index (compiler.c parse_msg_ref);
        stored as N+1, 0 = no reference. '@@' collapses to a literal
        '@'; '@<non-digit>' stays literal. The multi-digit accumulator
        reproduces the reference's `msg_ref += msg_ref * 10 + d` quirk
        byte-for-byte."""
        self.msg_ref = 0
        if self.i < len(self.s) and self.s[self.i] == "@":
            self.i += 1
            nxt = self.s[self.i] if self.i < len(self.s) else ""
            if nxt.isdigit() and nxt.isascii():
                while self.i < len(self.s) and self.s[self.i].isdigit() \
                        and self.s[self.i].isascii():
                    self.msg_ref += self.msg_ref * 10 + int(self.s[self.i])
                    self.i += 1
                self.msg_ref += 1
            else:
                if nxt != "@":
                    self.i -= 1  # keep the '@' literal
                self.msg_ref = 0

    def _process_braced(self):
        # log_template_compiler_process_braced_template
        self.i += 1
        start = self.i
        end = self.s.find("}", self.i)
        if end < 0:
            self._error("Invalid macro, '}' is missing", len(self.s))
        self.i = end + 1
        default = None
        colon = self.s.find(":", start, end)
        if colon >= 0:
            name = self.s[start:colon]
            if colon + 1 >= end or self.s[colon + 1] != "-":
                self._error("Unknown substitution function", colon + 1)
            default = self.s[colon + 2:end]
        else:
            name = self.s[start:end]
        self._parse_msg_ref()
        self._flush_text()
        self.elems.append(ValueRef(name, default, msg_ref=self.msg_ref))

    def _process_unbraced(self):
        start = self.i
        self.i += 1
        while self.i < len(self.s) and _is_macro_name(self.s[self.i]):
            self.i += 1
        self._flush_text()
        self.elems.append(ValueRef(self.s[start:self.i]))

    def _add_quoted_string(self, top_level: bool, buf: list[str]) -> bool:
        # log_template_compiler_add_quoted_string: top-level quotes are
        # stripped, quotes nested in parens are preserved
        quote = self.s[self.i]
        end = self.s.find(quote, self.i + 1)
        if end < 0:
            return False
        if top_level:
            buf.append(self.s[self.i + 1:end])
        else:
            buf.append(self.s[self.i:end + 1])
        self.i = end + 1
        return True

    def _process_arg_list(self) -> tuple[list[str], bool]:
        # log_template_compiler_process_arg_list: backslash quotes the
        # next char, parens nest, top-level whitespace separates args
        out: list[str] = []
        buf: list[str] = []
        has_value = False
        parens = 1
        self.i += 1
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1
        while self.i < len(self.s):
            c = self.s[self.i]
            if c == "\\":
                self.i += 1
                if self.i >= len(self.s):
                    break
            elif c == "(":
                parens += 1
            elif c == ")":
                parens -= 1
                if parens == 0:
                    break
            elif c in "\"'":
                if not self._add_quoted_string(parens == 1, buf):
                    return out, False
                has_value = True
                continue
            elif parens == 1 and c.isspace():
                out.append("".join(buf))
                buf = []
                has_value = False
                while self.i < len(self.s) and self.s[self.i].isspace():
                    self.i += 1
                continue
            buf.append(self.s[self.i])
            self.i += 1
            has_value = True
        if has_value:
            out.append("".join(buf))
        ok = self.i < len(self.s) and self.s[self.i] == ")"
        return out, ok

    def _process_function(self):
        # log_template_compiler_process_template_function
        args, ok = self._process_arg_list()
        if not ok:
            self._error("Invalid template function reference, missing "
                        "function name or imbalanced '('", self.i)
        self.i += 1  # the ')'
        self._parse_msg_ref()
        if not args:
            return  # $() compiles to nothing (add_func_elem argc==0)
        name = args[0]
        if lookup_template_func(name) is None:
            raise TemplateCompileError(
                f'Unknown template function "{name}"')
        self._flush_text()
        self.elems.append(FuncCall(
            name, [Template(a, version=self.version) for a in args[1:]],
            msg_ref=self.msg_ref))


class Template:
    def __init__(self, spec: str, version: int | None = None):
        self.spec = spec
        self.elems = _Compiler(spec, version).compile()

    def eval(self, table: pa.Table) -> pd.Series:
        if not self.elems:
            return pd.Series([""] * table.num_rows, dtype=object)
        if len(self.elems) == 1:  # trivial template short-circuit
            return self.elems[0].eval(table)
        parts = [e.eval(table).astype(str) for e in self.elems]
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out.astype(object)

    def eval_arrow(self, table: pa.Table) -> pa.Array:
        """The rendered value as an Arrow string array: how config parser
        inputs and filter values are read. Trivial templates skip pandas
        (log_template_is_trivial, lib/template/templates.c): one
        `$NAME` / `${NAME}` with no default and no `@N`, naming a string
        column or a passthrough macro of one ($MESSAGE, $HOST, ...), is
        that column with nulls as ""; a literal is repeated. Every other
        template renders through `eval`."""
        if not self.elems:
            return pa.repeat("", table.num_rows)
        if len(self.elems) == 1:
            e = self.elems[0]
            if isinstance(e, Literal):
                return pa.repeat(e.text, table.num_rows)
            if isinstance(e, ValueRef) and e.default is None \
                    and not e.msg_ref:
                name = e.name if e.name in table.column_names \
                    else getattr(MACROS.get(e.name), "column", None)
                if name in table.column_names \
                        and table.schema.field(name).type == pa.string():
                    return pc.fill_null(table.column(name).combine_chunks(),
                                        "")
        return pa.array(self.eval(table).to_numpy(dtype=object), type=pa.string())


def compile_template_checked(spec: str, version: int | None = None):
    """log_template_compile's error contract (templates.c / compiler.c):
    returns (template, error_message). On a compile error the template
    still renders — as the literal 'error in template: <spec>'."""
    try:
        return Template(spec, version=version), None
    except TemplateCompileError as e:
        t = Template.__new__(Template)
        t.spec = spec
        t.elems = [Literal(f"error in template: {spec}")]
        return t, str(e)


def template_hash(spec: str, table: pa.Table, num_partitions: int | None = None) -> np.ndarray:
    """Deterministic per-row hash of a template's value (the reference's
    log_template_hash, lib/template/eval.c:306) — the partition key for
    parallelize()-style keyed distribution."""
    vals = Template(spec).eval(table).to_numpy(dtype=object)
    h = hash_str_array(vals)
    if num_partitions:
        h = h % np.uint64(num_partitions)
    return h
