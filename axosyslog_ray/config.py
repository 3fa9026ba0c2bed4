"""syslog-ng configuration front end.

Compiles the reference's config language subset — source / destination /
filter / parser / rewrite statements, `block filter` definitions, and
`log {}` paths with junctions, channels, if/else conditionals and
final/fallback/catchall flags (reference lib/cfg-grammar.y, expression
layouts lib/cfg-tree.h:42-121) — into this engine's stage objects
(route.FilterExpr trees, stages/ parsers, stages/rewrite functions), so
a syslog-ng user can run an existing config without rewriting it as
Python.

Execution semantics follow the reference's multiplexer
(lib/logmpx.c:97-130), one step (`Config._multiplex`) for the top-level
paths of each source and for every junction: a path MATCHES a message
when the message survives the path to its end; the non-fallback paths
run in order and a `final` match skips the later ones; fallback paths
run, in order with the same `final` stop, only on messages no
non-fallback path matched. A junction's output is the union of its
channels' outputs. flags(catch-all) attaches a top-level path to every
source.
`if (EXPR) {A} else {B}` is the two-channel conditional junction
(cfg-tree.h ENL_CONDITIONAL): EXPR+A as a final channel, B as its
fallback.

Scope: the statements and drivers compiled below (sources, sinks,
csv/kv/json/db/date/geoip2 parsers, the rewrite family, filter
predicates, filterx blocks), `@include` / `@define` / backtick
preprocessing (config_prep), and SCL-style generator blocks —
`block KIND NAME(param(default)...) { body }` for
source/destination/parser/rewrite contexts, bodies stored raw and
backtick-substituted at reference time with args > globals > env
(reference cfg-block.c). `block filter` stays the eager named-filter
form callable inside filter expressions (parameters unsupported
there). Live transports remain out of scope (COVERAGE.md §2.1).
Batch
execution: `compile_config(text).run()` processes the configured
sources as in-memory tables (the Light-test shape); pass
`sources={name: table}` to inject data, and read per-destination
`processed` counts + tables from the result — the same observable the
reference's Light suite asserts on (file destination stats counters).
"""

from __future__ import annotations

import copy
import os
import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .config_prep import preprocess_config
from .config_prep import unquote as _prep_unquote
from .route import (And, Cmp, Facility, FilterExpr, Match, Netmask, Not, Or,
                    Severity, TagFilter)

# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<punct>[{}();,])
  | (?P<ident>[^\s{}();,"']+)
  | (?P<ws>\s+)
""", re.VERBOSE)


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, start, end) triples — spans let block-bodied statements
    (filterx {...}) recover their raw source text."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup in ("comment", "ws"):
            continue
        out.append((m.group(), m.start(), m.end()))
    return out


_unquote = _prep_unquote


class _Stream:
    def __init__(self, toks: list[tuple[str, int, int]], text: str = ""):
        self.toks = [t[0] for t in toks]
        self.spans = [(t[1], t[2]) for t in toks]
        self.text = text
        self.i = 0

    def peek(self, k: int = 0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def raw_block(self) -> str:
        """Consume a balanced {...} and return its raw source text."""
        start_i = self.i
        self.expect("{")
        depth = 1
        while depth:
            t = self.next()
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
        return self.text[self.spans[start_i][1]:self.spans[self.i - 1][0]]

    def raw_parens(self) -> str:
        """Consume a balanced (...) and return its raw source text
        (block parameter defaults / invocation values are spliced RAW,
        like the reference's block_arg lexer state)."""
        start_i = self.i
        self.expect("(")
        depth = 1
        while depth:
            t = self.next()
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
        return self.text[self.spans[start_i][1]:self.spans[self.i - 1][0]]

    def next(self):
        t = self.peek()
        if t is None:
            raise ConfigError("unexpected end of configuration")
        self.i += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise ConfigError(f"expected {tok!r}, got {t!r} (token #{self.i})")
        return t

    def skip_balanced(self):
        """Consume a balanced {...} block (for ignored statements)."""
        self.expect("{")
        depth = 1
        while depth:
            t = self.next()
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------------ parser

def _stmt_name(tok: str) -> str:
    """Statement names may be quoted (`log "name" { ... }` — real
    AxoRouter configs quote every name); definitions and references
    must agree, so unquote here."""
    return _prep_unquote(tok) if tok[:1] in ('"', "'") else tok


def _nid(name: str) -> str:
    """Identifier normalization: '-' and '_' are interchangeable in the
    reference lexer (lib/cfg-lexer.c keyword normalization) — e.g.
    splunk-hec-raw(batch_lines(...)) and splunk_hec_raw(batch-lines(...))
    name the same block and option."""
    return name.replace("_", "-")


@dataclass
class Driver:
    """A driver/function call: name(positional... key(nested...)...)."""
    name: str
    args: list = field(default_factory=list)          # unquoted strings
    kwargs: dict = field(default_factory=dict)        # key -> list of args
    raw_kwargs: dict = field(default_factory=dict)    # key -> raw parens text

    def kw1(self, key: str, default=None):
        v = self.kwargs.get(key)
        if v is None and ("-" in key or "_" in key):
            nk = _nid(key)
            for k2, v2 in self.kwargs.items():
                if _nid(k2) == nk:
                    v = v2
                    break
        return v[0] if v else default


def _parse_driver(s: _Stream) -> Driver:
    name = s.next()
    d = Driver(name)
    if s.peek() != "(":
        return d
    s.next()
    while s.peek() != ")":
        t = s.peek()
        if t is None:
            raise ConfigError(f"unterminated argument list of {name}()")
        if t == ",":
            s.next()
            continue
        if s.peek(1) == "(":
            start_i = s.i
            inner = _parse_driver(s)
            # raw parens text (for kwargs that hold full expressions,
            # e.g. rewrite condition() filters)
            if s.i - start_i >= 3 and s.text:
                d.raw_kwargs[inner.name] = \
                    s.text[s.spans[start_i + 2][0]:s.spans[s.i - 1][0]]
            d.kwargs.setdefault(inner.name, []).extend(inner.args or [True])
        else:
            d.args.append(_unquote(s.next()))
    s.expect(")")
    return d


_CMP_OPS = {"eq": ("==", "string"), "ne": ("!=", "string"), "lt": ("<", "string"),
            "le": ("<=", "string"), "gt": (">", "string"), "ge": (">=", "string"),
            "==": ("==", "type-aware"), "!=": ("!=", "type-aware"),
            "<": ("<", "type-aware"), "<=": ("<=", "type-aware"),
            ">": (">", "type-aware"), ">=": (">=", "type-aware"),
            "===": ("===", "type-aware"), "!==": ("!==", "type-aware")}


def _or_chain(terms: list[FilterExpr]) -> FilterExpr:
    if not terms:
        raise ConfigError("filter function needs at least one argument")
    expr = terms[0]
    for t in terms[1:]:
        expr = Or(expr, t)
    return expr


class _FilterParser:
    """Filter expression grammar (lib/filter/filter-expr-grammar.y
    subset): or/and/not, parens, template comparisons (eq/ne/... string,
    ==/!=/... type-aware), builtin predicates, named-filter calls."""

    def __init__(self, s: _Stream, named: dict):
        self.s = s
        self.named = named

    def parse(self) -> FilterExpr:
        return self._or()

    def parse_block(self) -> FilterExpr:
        """Multiple ;-separated expressions in one filter {} block AND
        together (reference filter-expr-grammar.y filter_expr_list —
        Light test_multiple_filters.py implicit-and)."""
        expr = self.parse()
        while self.s.peek() == ";" and self.s.peek(1) not in ("}", None):
            self.s.next()
            expr = And(expr, self.parse())
        if self.s.peek() == ";":
            self.s.next()
        return expr

    def _or(self) -> FilterExpr:
        left = self._and()
        while self.s.peek() == "or":
            self.s.next()
            left = Or(left, self._and())
        return left

    def _and(self) -> FilterExpr:
        left = self._unary()
        while self.s.peek() == "and":
            self.s.next()
            left = And(left, self._unary())
        return left

    def _unary(self) -> FilterExpr:
        t = self.s.peek()
        if t == "not":
            self.s.next()
            return Not(self._unary())
        if t == "(":
            self.s.next()
            e = self._or()
            self.s.expect(")")
            return e
        return self._primary()

    def _primary(self) -> FilterExpr:
        t = self.s.peek()
        if t is None:
            raise ConfigError("expected filter expression")
        # template comparison: "lhs" OP "rhs"
        if self.s.peek(1) in _CMP_OPS:
            lhs = _unquote(self.s.next())
            op, mode = _CMP_OPS[self.s.next()]
            rhs = _unquote(self.s.next())
            return Cmp(lhs, op, rhs, mode=mode)
        d = _parse_driver(self.s)
        return self._builtin(d)

    def _builtin(self, d: Driver) -> FilterExpr:
        n = d.name
        if n == "facility":
            # facility(f1, f2, ...) ORs the named facilities
            # (lib/filter/filter-pri.c facility bits)
            return _or_chain([Facility(a) for a in d.args])
        if n in ("level", "severity"):
            # level(err..emerg) ranges and level(err, crit) lists
            # (cfg-grammar.y filter_fac_list / filter_level_list)
            terms = []
            for a in d.args:
                lo, dots, hi = str(a).partition("..")
                terms.append(Severity(lo, hi) if dots else Severity(a))
            return _or_chain(terms)
        if n in ("host", "program", "message"):
            kind = str(d.kw1("type", "pcre"))
            flags = frozenset(str(f) for f in d.kwargs.get("flags", []))
            return Match(d.args[0], {"host": "HOST", "program": "PROGRAM",
                                     "message": "MESSAGE"}[n], kind,
                         flags=flags)
        if n == "match":
            # type(pcre|string|glob) selects the matcher implementation
            # (lib/logmatcher.c); string is literal full-value equality
            # unless prefix/substring flags say otherwise
            kind = str(d.kw1("type", "pcre"))
            flags = frozenset(str(f) for f in d.kwargs.get("flags", []))
            return Match(d.args[0], str(d.kw1("value", "MESSAGE")), kind,
                         flags=flags)
        if n == "netmask":
            return Netmask(d.args[0])
        if n == "tags":
            return TagFilter(*d.args)
        if n == "in-list":
            # in-list("/path", value("FIELD")): newline file -> set
            # membership (lib/filter/filter-in-list.c)
            from .route import InList

            with open(d.args[0]) as fh:
                values = [ln.rstrip("\n") for ln in fh if ln.strip()]
            return InList(values, field=_field(str(d.kw1("value", "HOST"))))
        if n == "rate-limit":
            # stateful admission filter (modules/ratelimit); template()
            # renders the key, rate() per per()-second window
            from .route import RateLimitFilter

            return RateLimitFilter(str(d.kw1("template", "${HOST}")),
                                   int(d.kw1("rate", 1)),
                                   per_seconds=float(d.kw1("per", 1)))
        if n == "filter":
            return self.named[d.args[0]]
        if n in self.named:  # block filter NAME() {...} call
            return self.named[n]
        raise ConfigError(f"unknown filter function {n}()")


# path elements -----------------------------------------------------------

@dataclass
class Channel:
    elements: list
    final: bool = False
    fallback: bool = False
    catchall: bool = False
    name: str | None = None    # named log path: ingress/egress stats


def _parse_log_elements(s: _Stream, cfg: "Config") -> list:
    """Elements of a log {} body / junction channel body."""
    out: list = []
    s.expect("{")
    while s.peek() != "}":
        t = s.peek()
        if t == ";":
            # stray empty statement — the reference grammar tolerates
            # them (real AxoRouter configs carry bare ';' lines)
            s.next()
            continue
        if t == "channel" and s.peek(1) == "{":
            # bare channel compound inside a log body: sequential
            # composition (cfg-grammar log_expr channel) — splice the
            # inner elements inline
            s.next()
            out.extend(_parse_log_elements(s, cfg))
            s.expect(";")
            continue
        if t == "if":
            out.append(_parse_conditional(s, cfg))
        elif t == "junction":
            s.next()
            out.append(_parse_junction(s, cfg))
            s.expect(";")
        elif t == "filter" and s.peek(1) == "{":
            s.next()
            s.expect("{")
            e = _FilterParser(s, cfg.filters).parse_block()
            s.expect("}")
            s.expect(";")
            out.append(("filter", e))
        elif t == "log" and (s.peek(1) == "{" or s.peek(2) == "{"):
            # embedded log path (cfg-tree: sequence-embedded branches),
            # optionally NAMED (`log inner-1 { ... }` — per-path
            # ingress/egress stats, Light test_named_logpaths.py);
            # consecutive embedded paths form one junction — a final
            # sibling consumes its matches from later siblings
            # (Light suite test_flags_final.py)
            s.next()
            pname = _stmt_name(s.next()) if s.peek() != "{" else None
            inner = _parse_log_elements(s, cfg)
            s.expect(";")
            ch = _to_channel(inner)
            ch.name = pname
            out.append(("embedded", ch))
        elif t == "filterx" and s.peek(1) == "{":
            s.next()
            body = s.raw_block()
            s.expect(";")
            out.append(("filterx", cfg._compile_filterx(body)))
        elif t in ("parser", "rewrite") and s.peek(1) == "{":
            kind = s.next()
            body = _parse_driver_block(s, cfg, kind)
            s.expect(";")
            out.append((kind, [cfg._compile_stage(kind, d) for d in body]))
        elif t == "source" and s.peek(1) == "{":
            # inline source block (log { source { file(...); }; ... };
            # and the `block source` channel shape) — registered as an
            # anonymous named source, referenced like source(NAME)
            s.next()
            body = _parse_driver_block(s, cfg, "source")
            s.expect(";")
            name = f"_inline_src_{len(cfg.sources)}"
            cfg.sources[name] = body
            out.append(("source", name))
        elif t == "destination" and s.peek(1) == "{":
            s.next()
            drivers, chan = _parse_destination_body(s, cfg)
            s.expect(";")
            name = f"_inline_dest_{len(cfg.destinations)}"
            cfg.destinations[name] = _Destination(
                name, drivers, chan, user_funcs=cfg.user_template_funcs)
            out.append(("destination", name))
        else:
            d = _parse_driver(s)
            s.expect(";")
            if d.name == "flags":
                out.append(("flags", d.args))
            elif d.name in ("source", "filter", "parser", "rewrite",
                            "destination", "filterx"):
                out.append((d.name, d.args[0]))
            elif d.name == "parallelize":
                # rebalance hint (lib/logscheduler.c): batch execution
                # parallelizes per block already — the keyed form is
                # parallelize.add_partition_key on the Dataset path;
                # inside a compiled in-memory path it is a no-op
                pass
            else:
                raise ConfigError(f"unsupported log element {d.name}()")
    s.expect("}")
    return out


def _parse_junction(s: _Stream, cfg: "Config") -> tuple:
    chans: list[Channel] = []
    s.expect("{")
    while s.peek() != "}":
        s.expect("channel")
        elems = _parse_log_elements(s, cfg)
        s.expect(";")
        chans.append(_to_channel(elems))
    s.expect("}")
    return ("junction", chans)


def _to_channel(elems: list) -> Channel:
    flags = [f for kind, f in elems if kind == "flags"]
    flat = [fl for fs in flags for fl in fs]
    return Channel([e for e in elems if e[0] != "flags"],
                   final="final" in flat, fallback="fallback" in flat,
                   catchall="catchall" in flat or "catch-all" in flat)


def _parse_conditional(s: _Stream, cfg: "Config") -> tuple:
    """if (EXPR) {A} else {B};  |  if {A} else {B};
    (cfg-tree.c:1289-1349 cfg_tree_compile_conditional). The simple form
    splits on EXPR alone — the conditional-midpoint pipe isolates the
    true body, so a drop inside A does NOT divert the row to B (it just
    drops, leaving the outer path unmatched). The compound form has no
    midpoint: the true channel's own filters decide, so rows its filters
    reject DO take the else channel — that's a two-final-channel
    junction."""
    s.expect("if")
    cond = None
    if s.peek() == "(":
        s.next()
        cond = _FilterParser(s, cfg.filters).parse()
        s.expect(")")
    body = _parse_log_elements(s, cfg)
    # elif chain: each becomes the false branch of the PREVIOUS if
    # (cfg-grammar.y:910-925 log_expr_node_conditional_set_false_branch_
    # of_the_last_if) — collect the arms, fold from the tail below
    arms: list[tuple] = [(cond, body)]
    while s.peek() == "elif":
        s.next()
        econd = None
        if s.peek() == "(":
            s.next()
            econd = _FilterParser(s, cfg.filters).parse()
            s.expect(")")
        arms.append((econd, _parse_log_elements(s, cfg)))
    else_body: list = []
    if s.peek() == "else":
        s.next()
        else_body = _parse_log_elements(s, cfg)
    s.expect(";")
    node: tuple | None = None
    for acond, abody in reversed(arms):
        false_elems = ([node] if node is not None else else_body)
        if acond is not None:
            node = ("conditional", (acond, abody, false_elems))
        else:
            node = ("junction", [Channel(abody, final=True),
                                 Channel(false_elems, final=True)])
    return node


def _parse_block_params(s: _Stream) -> dict[str, str]:
    """`(p1(default) p2("quoted") flag)` — values captured as RAW text
    (reference block_arg lexer state: spliced verbatim at generate
    time, quotes included)."""
    params: dict[str, str] = {}
    if s.peek() != "(":
        return params
    s.next()
    while s.peek() != ")":
        pname = s.next()
        if s.peek() == "(":
            params[pname] = s.raw_parens().strip()
        else:
            params[pname] = ""
    s.expect(")")
    return params


def _generate_app_parser(cfg: "Config", d: Driver) -> str:
    """app-parser(topic(T) allow-overlaps() auto-parse()): generate the
    reference's framing config text verbatim (modules/appmodel/
    app-parser-generator.c:182-262): without overlaps an if/else chain
    ending in `filterx { false; }` (first matching application wins and
    sets `.app.name` + its tag; no match drops the message); with
    overlaps independent if statements (every matching application
    runs, no-match passes through); auto-parse(no) is the empty frame
    that drops everything."""
    topic = str(d.kw1("topic", ""))
    overlaps = str(d.kw1("allow-overlaps", "no")).lower() in ("yes", "on", "1", "true")
    auto = str(d.kw1("auto-parse", "yes")).lower() not in ("no", "off", "0", "false")
    apps = [(n, sec) for (n, t, sec) in cfg.applications if t == topic]
    if not auto:
        return "channel { filterx { false; }; }"

    def app_body(name: str, sec: dict) -> str:
        parts = []
        for k in ("filter", "parser", "filterx", "rewrite"):
            if k in sec:
                parts.append("%s { %s };" % (k, sec[k]))
        if not overlaps:
            parts.append(
                'rewrite { set-tag(".app.%s"); '
                'set("%s" value(".app.name") condition("${.app.name}" eq "")); };'
                % (name, name))
        return " ".join(parts)

    if overlaps:
        body = " ".join("if { %s } else {};" % app_body(n, sec)
                        for n, sec in apps)
        return "channel { %s }" % body
    gen = "filterx { false; };"
    for n, sec in reversed(apps):
        gen = "if { %s } else { %s };" % (app_body(n, sec), gen)
    return "channel { %s }" % gen


def _generate_app_transform(cfg: "Config", d: Driver) -> str:
    """app-transform(filterx-app-variable(V) topic(T)
    include-transforms() exclude-transforms() permissive(yes)):
    generate the reference's switch/if-chain config text
    (modules/appmodel/app-transform-generator.c:276-345): transformations
    whose included steps are ALL filterx compile into ONE filterx
    switch(V) with case 'app': <steps> break; — the vectorized fast
    path — while transformations with parser steps get an if/elif
    branch guarded by `filterx { V === 'app'; }`. permissive(no)
    appends `else { filterx { false; }; }` (non-matching rows drop);
    the default (yes) lets everything else pass through."""
    topic = str(d.kw1("topic", "default"))
    var = d.kw1("filterx-app-variable")
    if var is None:
        raise ConfigError(
            "app-transform() requires a filterx-app-variable() argument")
    var = str(var)
    permissive = str(d.kw1("permissive", "yes")).lower() \
        not in ("no", "off", "0", "false")

    def _literals(key: str) -> list[str]:
        out = []
        for tok in d.kwargs.get(key, []):
            out.extend(_unquote(str(tok)).replace(",", " ").split())
        return out

    inc, exc = _literals("include-transforms"), _literals("exclude-transforms")

    def t_used(name: str) -> bool:
        return (not inc or name in inc) and name not in exc

    def fx_only(transforms) -> bool:
        return all(k == "filterx" for tn, steps in transforms if t_used(tn)
                   for _, k, _ in steps)

    non_fx, fx_cases = [], []
    for name, tpc, transforms in cfg.transformations:
        if tpc != topic:
            continue
        steps = [(sn, k, body) for tn, ss in transforms if t_used(tn)
                 for sn, k, body in ss]
        if fx_only(transforms):
            body = "\n".join(b for _, k, b in steps)
            fx_cases.append("case '%s':\n%s\nbreak;" % (name, body))
        else:
            parts = ["filterx { %s === '%s'; };" % (var, name)]
            parts += ["%s { %s };" % (k, b) for _, k, b in steps]
            non_fx.append(" ".join(parts))

    branches = []
    for i, body in enumerate(non_fx):
        branches.append("%s { %s }" % ("if" if i == 0 else "elif", body))
    if fx_cases:
        kw = "if" if not non_fx else "elif"
        branches.append("%s { filterx { switch (%s) { %s }; }; }"
                        % (kw, var, "\n".join(fx_cases)))
    if not branches:
        return "channel { };"
    gen = " ".join(branches)
    if permissive:
        gen += ";"
    else:
        gen += " else { filterx { false; }; };"
    return "channel { %s };" % gen


def _parse_driver_or_ref(s: _Stream, cfg: "Config | None", kind: str | None,
                         _depth: int = 0) -> list[Driver]:
    """One driver statement, or an SCL generator-block reference spliced
    into its generated drivers (reference cfg-block.c:147-180)."""
    name = s.peek()
    if name == "app-parser" and kind == "parser" and cfg is not None:
        d = _parse_driver(s)
        gen = _generate_app_parser(cfg, d)
        sub = _Stream(tokenize(gen), gen)
        sub.expect("channel")
        return [Driver("__channel__", args=[Channel(_parse_log_elements(sub, cfg))])]
    if name == "app-transform" and kind == "parser" and cfg is not None:
        d = _parse_driver(s)
        gen = _generate_app_transform(cfg, d)
        sub = _Stream(tokenize(gen), gen)
        sub.expect("channel")
        return [Driver("__channel__", args=[Channel(_parse_log_elements(sub, cfg))])]
    if (name == "channel" and s.peek(1) == "{" and cfg is not None
            and kind == "source"):
        # `block source` bodies wrap `source { ... }` + follow-up
        # parser/rewrite/filter stages in a channel (reference
        # scl/linux-audit, scl/osquery): compile to a pseudo-driver the
        # source builder expands — inner sources feed the inner stages
        s.next()
        elems = _parse_log_elements(s, cfg)
        return [Driver("__src_channel__", args=[Channel(elems)])]
    if (name == "channel" and s.peek(1) == "{" and cfg is not None
            and kind in ("parser", "rewrite")):
        # compound channel driver inside a parser/rewrite context
        # (reference logpipe channel: scl/sudo wraps kv+csv+filter in
        # `channel { parser {...}; filter {...}; }`) — compiles to a
        # stage that runs the inner sequence in-path (drops apply)
        s.next()
        elems = _parse_log_elements(s, cfg)
        return [Driver("__channel__", args=[Channel(elems)])]
    if cfg is not None and kind is not None and (kind, _nid(name)) in cfg.blocks:
        if _depth > 16:
            raise ConfigError(f"block reference too deep at {name}()")
        s.next()
        overrides = _parse_block_params(s)
        text = cfg.generate_block(kind, name, overrides)
        wrapped = "{" + text + "}"
        sub = _Stream(tokenize(wrapped), wrapped)
        return _parse_driver_block(sub, cfg, kind, _depth + 1)
    return [_parse_driver(s)]


def _parse_driver_block(s: _Stream, cfg: "Config | None" = None,
                        kind: str | None = None, _depth: int = 0) -> list[Driver]:
    out = []
    s.expect("{")
    while s.peek() != "}":
        if s.peek() == ";":   # stray empty statement (reference lexer)
            s.next()
            continue
        out.extend(_parse_driver_or_ref(s, cfg, kind, _depth))
        if s.peek() != "}":   # trailing ';' optional before '}'
            s.expect(";")
    s.expect("}")
    return out


def _generate_load_balancer(d: "Driver") -> str:
    """network-load-balancer() confgen (reference
    scl/loadbalancer/gen-loadbalancer.sh + plugin.conf `@module confgen`):
    one final-flagged branch per target selected by ${R_USEC} mod
    target-count — the script's exact split rule. failover() carries
    through into network() textually (a batch engine has no live
    connection state to fail over; documented inert), with the script's
    auto-generated servers() list when the user gave none. Branches are
    embedded `log { ... flags(final) }` paths — consecutive embedded
    paths form one junction, so first (only) match wins like the
    script's channel/flags(final) output."""
    raw = d.kwargs.get("targets", [])
    targets: list[str] = []
    for tok in raw:
        t = _unquote(str(tok)).replace(",", " ").strip()
        targets.extend(t.split())
    if not targets:
        raise ConfigError("network-load-balancer() needs targets()")
    # RAW text when available (nested paren options like
    # failover(servers("a" "b") failback(...)) parse into inner DRIVER
    # objects whose kwargs-join collapses to 'True'); token-join only
    # for flat option lists. The reference script greps the literal
    # text case-insensitively.
    raw_fo = d.raw_kwargs.get("failover")
    failover = raw_fo.strip() if raw_fo is not None else \
        " ".join(str(x) for x in d.kwargs.get("failover", []))
    n = len(targets)
    branches = []
    for i, tgt in enumerate(targets):
        if failover.lower() in ("", "off", "no") or n < 2:
            fo = ""
        elif "servers(" in failover.lower().replace(" (", "("):
            fo = f"failover({failover})"
        else:
            others = ", ".join(f'"{t}"' for t in targets if t != tgt)
            fo = f"failover(servers({others}) {failover})"
        branches.append(
            'log { filter { "%d" == "$(%% ${R_USEC} %d)" }; '
            'destination { network("%s" %s); }; flags(final); };'
            % (i, n, tgt, fo))
    return "channel { %s };" % " ".join(branches)


def _parse_destination_body(s: _Stream, cfg: "Config") -> tuple[list[Driver], "Channel | None"]:
    """Destination {} body: plain drivers, generator-block references,
    and the compound `channel { ... }` driver (reference logmpx: a
    midpoint destination's channel runs in its OWN context — drops
    there do not unmatch the outer path, test_midpoint_destinations.py)."""
    drivers: list[Driver] = []
    chan = None
    s.expect("{")
    while s.peek() != "}":
        if s.peek() == "channel" and s.peek(1) == "{":
            s.next()
            elems = _parse_log_elements(s, cfg)
            s.expect(";")
            chan = Channel(elems)
        elif _nid(s.peek()) == "network-load-balancer":
            # confgen destination (scl/loadbalancer/gen-loadbalancer.sh
            # via @module confgen): splice the generated channel
            d = _parse_driver(s)
            s.expect(";")
            gen = _generate_load_balancer(d)
            sub = _Stream(tokenize(gen), gen)
            sub.expect("channel")
            chan = Channel(_parse_log_elements(sub, cfg))
            drivers.append(d)
        else:
            drivers.extend(_parse_driver_or_ref(s, cfg, "destination"))
            s.expect(";")
    s.expect("}")
    return drivers, chan


# ---------------------------------------------------------------- compiler

def _with_user_funcs(method):
    """Install the config's user template-function table as the active
    overlay for the duration of a Config/destination method, so lazily
    compiled templates (destination rendered(), run-time FuncCall
    binding) resolve $(user-fn) config-scoped rather than from a
    process-global table (cross-config contamination guard)."""
    import functools

    @functools.wraps(method)
    def wrapper(self, *a, **k):
        from .functions.strings import ACTIVE_USER_FUNCS

        funcs = getattr(self, "user_template_funcs", None)
        if funcs is None:
            return method(self, *a, **k)
        tok = ACTIVE_USER_FUNCS.set(funcs)
        try:
            return method(self, *a, **k)
        finally:
            ACTIVE_USER_FUNCS.reset(tok)

    return wrapper


class _Destination:
    def __init__(self, name: str, drivers: list[Driver],
                 channel: "Channel | None" = None,
                 user_funcs: dict | None = None):
        self.user_template_funcs = user_funcs
        self.name = name
        self.template = None
        self.channel = channel
        for d in drivers:
            # any driver's template() — or an http() body() — drives
            # rendered(); file() is just the common case
            t = d.kw1("template") or d.kw1("body")
            if t is not None:
                self.template = t
        self.counts = 0
        self.tables: list[pa.Table] = []

    def write(self, table: pa.Table):
        # declared-filterx-variable carrier columns are engine-internal
        # (filterx.py _FXDECL) — they never reach a destination
        from .filterx import _FXDECL

        drop = [c for c in table.column_names if c.startswith(_FXDECL)]
        if drop:
            table = table.drop_columns(drop)
        self.counts += table.num_rows
        self.tables.append(table)

    def deliver(self, cfg: "Config", table: pa.Table):
        """Run the destination's own channel (if any) in its OWN context,
        then record what survives; the caller's path table is untouched
        (a midpoint destination that drops everything still counts as a
        successful dispatch — reference test_midpoint_destinations.py)."""
        if self.channel is not None:
            table = cfg._run_sequence(table, self.channel.elements)
        self.write(table.drop_columns([_ROW_ID]))

    @_with_user_funcs
    def rendered(self) -> list[str]:
        """Lines the file destination would write (template applied)."""
        from .functions.templates import Template

        tpl = Template(_unquote(self.template) if self.template else "${MESSAGE}\n")
        out: list[str] = []
        for t in self.tables:
            if t.num_rows:
                out.extend(tpl.eval(t).tolist())
        return out


_ROW_ID = "__cfg_row_id"


def _merge_by_row_id(tables: list[pa.Table]) -> pa.Table:
    """Union of branch outputs (schemas promoted permissively) back in
    input row order: a stable sort on `_ROW_ID`, when the rows carry it."""
    res = pa.concat_tables(tables, promote_options="permissive")
    if res.num_rows and _ROW_ID in res.column_names:
        res = res.take(pa.compute.sort_indices(res.column(_ROW_ID)))
    return res


class Config:
    def __init__(self):
        self.filterx: dict[str, object] = {}
        # options { stats(level(N)); } — gates update_metric(level=)
        self.stats_level: int = 0
        # every compiled filterx block, for metrics() aggregation
        self._filterx_stages: list = []
        # user template-function registrations, scoped to THIS config
        # (consulted first by template FuncCall binding via the
        # ACTIVE_USER_FUNCS overlay; lib/template/user-function.c)
        self.user_template_funcs: dict[str, object] = {}
        self.templates: dict[str, str] = {}
        # application NAME[topic] { filter{}; parser{}; filterx{}; }
        # registrations, in source order (modules/appmodel)
        self.applications: list[tuple[str, str, dict[str, str]]] = []
        # transformation NAME[topic] { transform[T] { step["S"] {...} } }
        # registrations (modules/appmodel/transformation.c)
        self.transformations: list[tuple[str, str, list]] = []
        self.sources: dict[str, list[Driver]] = {}
        self.destinations: dict[str, _Destination] = {}
        self.filters: dict[str, FilterExpr] = {}
        self.parsers: dict[str, list] = {}
        self.rewrites: dict[str, list] = {}
        self.paths: list[Channel] = []
        self.blocks: dict[tuple[str, str], tuple[dict, str]] = {}
        self.version = None           # packed (major << 8) | minor
        self.defines = None           # CfgArgs after preprocessing

    def generate_block(self, kind: str, name: str, overrides: dict) -> str:
        """Generate a block reference's config text: backtick-substitute
        the RAW stored body with scope args > globals > env (reference
        cfg-block.c:170 cfg_lexer_subst_args_in_input). Unknown
        arguments are an error, like cfg-block.c's validation."""
        from .config_prep import BacktickSubst, CfgArgs

        params, body = self.blocks[(kind, _nid(name))]
        # option names normalize like identifiers: batch-lines == batch_lines
        by_nid = {_nid(p): p for p in params}
        overrides = {by_nid.get(_nid(k), k): v for k, v in overrides.items()}
        unknown = set(overrides) - set(params)
        if unknown:
            raise ConfigError(
                f"unknown block argument(s) {sorted(unknown)} for {kind} {name}()")
        args = CfgArgs(params)
        for k, v in overrides.items():
            args.set(k, v)
        sub = BacktickSubst(globals=self.defines, args=args)
        return "".join(sub.invoke(ln) for ln in body.splitlines(keepends=True))

    # -- stage compilation ------------------------------------------------
    def _compile_filterx(self, body: str):
        """A filterx {} block compiles through the engine's FilterX
        language (filterx.py) — drops apply, assignments create
        columns, like the reference's filterx log element."""
        from .filterx import FilterX

        # message semantics: container-valued fields marshal to JSON
        # text at block egress (the reference's LogMessage write path),
        # so junction branches with diverging dict members still merge
        fx = FilterX(body, marshal_containers=True,
                     stats_level=getattr(self, "stats_level", 0))
        self._filterx_stages.append(fx)
        return fx

    def _compile_stage(self, kind: str, d: Driver):
        if d.name == "__channel__":
            return _ChannelStage(self, d.args[0])
        if kind == "parser":
            return _compile_parser(d)
        return _compile_rewrite(d, self.filters)

    # -- execution --------------------------------------------------------
    def _source_table(self, name: str, injected: dict,
                      first_id: int = 0) -> pa.Table:
        if name in injected:
            t = injected[name]
            t = pa.Table.from_pandas(t) if isinstance(t, pd.DataFrame) else t
            # an injected table REPLACES the transport read, not the
            # source's channel: block-source channels (source {...};
            # parser {...}; filterx {...}) still run their non-source
            # stages over the injected rows — the Light harness shape
            # (loggen feeds the socket, the channel still parses).
            # Recursive: nested source-in-channel wrappers (real
            # AxoRouter configs) run innermost stages first.
            t = self._inject_through_channels(name, t)
        else:
            t = _build_source(self.sources[name], self)
        if _ROW_ID not in t.column_names:
            t = t.append_column(_ROW_ID, pa.array(
                np.arange(first_id, first_id + t.num_rows), type=pa.int64()))
        return t

    def _inject_through_channels(self, name: str, t: pa.Table,
                                 _depth: int = 0) -> pa.Table:
        """Run a named source's channel stages (minus the transport
        reads) over an injected table, innermost channel first."""
        if _depth > 8 or name not in self.sources:
            return t
        for d in self.sources[name]:
            if d.name != "__src_channel__":
                continue
            ch = d.args[0]
            for kind, arg in ch.elements:
                if kind == "source":
                    t = self._inject_through_channels(arg, t, _depth + 1)
            t = self._run_channel(ch, t)
        return t

    def _run_channel(self, ch, t: pa.Table) -> pa.Table:
        """Run a block-source channel's non-source elements over `t`,
        under a temporary row id when `t` carries none."""
        rest = [e for e in ch.elements if e[0] != "source"]
        if not rest:
            return t
        own_id = _ROW_ID not in t.column_names
        if own_id:
            t = t.append_column(_ROW_ID, pa.array(np.arange(t.num_rows), type=pa.int64()))
        t = self._run_sequence(t, rest)
        return t.drop_columns([_ROW_ID]) if own_id else t

    @_with_user_funcs
    def metrics(self) -> dict:
        """Merged update_metric counters across every filterx block —
        the batch analogue of scraping the reference's prometheus
        endpoint (Light get_prometheus_samples)."""
        out: dict = {}
        for fx in self._filterx_stages:
            for k, v in getattr(fx, "metrics", {}).items():
                out[k] = out.get(k, 0) + v
        return out

    @_with_user_funcs
    def run(self, sources: dict | None = None) -> "RunResult":
        injected = sources or {}
        self.path_stats: dict[str, list[int]] = {}
        for dst in self.destinations.values():
            dst.counts = 0
            dst.tables = []
        tables: dict[str, pa.Table] = {}
        names = [arg for ch in self.paths for kind, arg in ch.elements
                 if kind == "source"] + list(injected)
        for name in dict.fromkeys(names):
            # row ids are unique across sources: one multiplexer state
            # indexed by id serves every source (and the junctions inside)
            first_id = sum(t.num_rows for t in tables.values())
            tables[name] = self._source_table(name, injected, first_id)
        # a top-level path reads its source()s; flags(catch-all) attaches
        # it to every source (cfg-tree) and is otherwise an ordinary hop
        self._multiplex(self.paths, [
            list(tables.values()) if ch.catchall else
            [tables[arg] for kind, arg in ch.elements if kind == "source"]
            for ch in self.paths])
        return RunResult(self.destinations, self.path_stats)

    def _bump_path(self, ch: Channel, ingress: int, egress: int) -> None:
        """Named-logpath ingress/egress counters (reference log-path
        stats, Light test_named_logpaths.py: ingress = rows entering the
        path, egress = rows MATCHED through its whole length — a
        midpoint delivery alone does not count as egress)."""
        if ch.name:
            st = self.path_stats.setdefault(ch.name, [0, 0])
            st[0] += ingress
            st[1] += egress

    def _run_sequence(self, table: pa.Table, elements: list) -> pa.Table:
        # group CONSECUTIVE embedded log paths into one junction
        grouped: list = []
        for kind, arg in elements:
            if kind == "embedded":
                if grouped and grouped[-1][0] == "junction_embedded":
                    grouped[-1][1].append(arg)
                else:
                    grouped.append(("junction_embedded", [arg]))
            else:
                grouped.append((kind, arg))
        for kind, arg in grouped:
            if table.num_rows == 0:
                break
            if kind == "junction_embedded":
                table = self._run_junction(table, arg)
                continue
            if kind == "filter":
                expr = self.filters[arg] if isinstance(arg, str) else arg
                table = table.filter(pa.array(expr.mask(table)))
            elif kind == "parser":
                stages = self.parsers[arg] if isinstance(arg, str) else arg
                for st in stages:
                    table = st(table)
            elif kind == "rewrite":
                stages = self.rewrites[arg] if isinstance(arg, str) else arg
                for st in stages:
                    table = st(table)
            elif kind == "filterx":
                fx = self.filterx[arg] if isinstance(arg, str) else arg
                table = fx(table)
            elif kind == "destination":
                self.destinations[arg].deliver(self, table)
            elif kind == "junction":
                table = self._run_junction(table, arg)
            elif kind == "conditional":
                cond, body, else_body = arg
                m = pa.array(cond.mask(table))
                table = _merge_by_row_id([
                    self._run_sequence(table.filter(m), body),
                    self._run_sequence(table.filter(pa.compute.invert(m)), else_body)])
            elif kind == "flags":
                pass
            else:
                raise ConfigError(f"unknown element {kind}")
        return table

    def _multiplex(self, channels: list[Channel],
                   reads: list[list[pa.Table]]) -> list[pa.Table]:
        """lib/logmpx.c:97-130 log_multiplexer_queue over row masks.
        Channel i reads the rows of reads[i]. The first pass runs the
        non-fallback channels in order; the second runs the fallback
        channels on the rows nothing matched in the first. In both, a
        `final` channel's matches skip the later channels of the pass.
        Returns the output (the rows matched) of every channel run."""
        size = 1 + max((pa.compute.max(t.column(_ROW_ID)).as_py()
                        for ts in reads for t in ts if t.num_rows), default=0)
        live = np.ones(size, dtype=bool)
        matched = np.zeros(size, dtype=bool)
        outs: list[pa.Table] = []
        for fallback in (False, True):
            if fallback:
                live = ~matched
            for i, ch in enumerate(channels):
                if ch.fallback != fallback or not reads[i]:
                    continue
                parts = []
                for t in reads[i]:
                    keep = live[t.column(_ROW_ID).to_numpy()]
                    parts.append(t if keep.all() else t.filter(keep))
                inp = pa.concat_tables(parts, promote_options="permissive")
                out = self._run_sequence(
                    inp, [e for e in ch.elements if e[0] != "source"])
                self._bump_path(ch, inp.num_rows, out.num_rows)
                hit = out.column(_ROW_ID).to_numpy()
                matched[hit] = True
                if ch.final:
                    live[hit] = False
                outs.append(out)
        return outs

    def _run_junction(self, table: pa.Table, channels: list[Channel]) -> pa.Table:
        """Every channel reads the junction's input; the output is the
        union of what the channels matched, in row-id order."""
        return _merge_by_row_id(self._multiplex(channels, [[table]] * len(channels)))


class ConfigStage:
    """map_batches form of a compiled config: each batch runs through
    the log paths and the output holds one row per (row, destination)
    delivery with a `dest` label column — the shuffle-free fan-out
    shape (partition-write or groupby-count downstream). Path semantics
    are per-row, so batch boundaries are safe; the compiled stage
    (regexes, filter trees) builds once per worker via cloudpickle."""

    def __init__(self, cfg: "Config", source_name: str):
        self.cfg = cfg
        self.source_name = source_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.cfg.run(sources={self.source_name: batch})
        parts = []
        for name, dst in self.cfg.destinations.items():
            for t in dst.tables:
                parts.append(t.append_column(
                    "dest", pa.array([name] * t.num_rows, type=pa.string())))
        if not parts:
            return pa.table({"dest": pa.array([], type=pa.string())})
        return pa.concat_tables(parts, promote_options="permissive")


def run_config_on_dataset(cfg: "Config", ds, source_name: str):
    """Execute a compiled config's log paths over a ray.data.Dataset
    (the Ray-native path: the in-memory `run()` is the Light-test
    shape). Returns the delivered-rows Dataset (`dest`-labelled); get
    per-sink counts with `.groupby("dest").count()` or write with a
    partitioned sink on `dest`. Batches are the flagship's 16,384 rows:
    a call's fixed cost (the Arrow kernel dispatch of every path
    element) is paid per batch, not per read block."""
    return ds.map_batches(ConfigStage(cfg, source_name), batch_format="pyarrow",
                          batch_size=16384)


class RunResult:
    def __init__(self, destinations: dict[str, _Destination],
                 path_stats: dict[str, list[int]] | None = None):
        # a snapshot of each destination's tables and count: the next
        # run() resets the live destinations
        self.destinations = {name: copy.copy(dst)
                             for name, dst in destinations.items()}
        for dst in self.destinations.values():
            dst.tables = list(dst.tables)
        self._path_stats = path_stats or {}

    def path_stats(self, name: str) -> tuple[int, int]:
        """(ingress, egress) of a named log path; (0, 0) if it never ran."""
        st = self._path_stats.get(name, [0, 0])
        return st[0], st[1]

    def processed(self, name: str) -> int:
        return self.destinations[name].counts

    def table(self, name: str) -> pa.Table:
        parts = self.destinations[name].tables
        return pa.concat_tables(parts, promote_options="permissive") if parts \
            else pa.table({})

    def rendered(self, name: str) -> list[str]:
        return self.destinations[name].rendered()


# driver compilation ------------------------------------------------------

class _ExpandMap:
    """Expand a map column's pairs into table columns so config filters
    and templates can address $key like the reference's name-value pairs
    (a kv/json pair IS a message field there). Last occurrence of a key
    in a row wins, like dict(pairs). A parser sets only the pairs it
    found (kv-parser.c:104-136): where this parse gives a key no value,
    an existing column of that name keeps its value."""

    def __init__(self, stage, out_col: str, field_map: dict | None = None,
                 types_col: str | None = None):
        self.stage = stage
        self.out_col = out_col
        self.field_map = field_map or {}
        self.types_col = types_col

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.stage(table)
        pairs = _map_pairs(out.column(self.out_col))
        # the types map holds a type for each pair, in the same places
        types = pc.struct_field(pc.list_flatten(_map_pairs(
            out.column(self.types_col))), "value") \
            if self.types_col and self.types_col in out.column_names else None
        parents = pc.list_parent_indices(pairs).to_numpy()
        flat = pc.list_flatten(pairs)
        enc = pc.dictionary_encode(pc.struct_field(flat, "key"))
        vals = pc.struct_field(flat, "value")
        codes = enc.indices.to_numpy(zero_copy_only=False)
        # pairs grouped by key (dictionary order = first appearance),
        # each group in row order
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(enc.dictionary) + 1))
        for j, k in enumerate(enc.dictionary.to_pylist()):
            sel = order[bounds[j]:bounds[j + 1]]
            # the pair each row takes: duplicate fancy-assignment
            # indices keep the final write, so the last occurrence wins
            pick = np.full(out.num_rows, -1, dtype=np.int64)
            pick[parents[sel]] = sel
            idx = pa.array(pick, mask=pick < 0)
            col = vals.take(idx)
            cn = self.field_map.get(k, k)
            if cn in out.column_names:
                try:
                    col = pc.coalesce(col, pc.cast(out.column(cn), pa.string()))
                except pa.ArrowNotImplementedError:
                    pass  # a list or map column (tags, sdata) is replaced
                out = out.set_column(out.column_names.index(cn), cn, col)
                continue
            # typed nv pairs (json-parser.c stores LM_VT_* value types;
            # format-json auto-cast renders them typed): a key whose
            # values are uniformly boolean/integer/double becomes a
            # TYPED column; mixed-type keys stay strings (per-value
            # types need row-level hints — disclosed narrowing)
            if types is not None:
                tset = set(pc.unique(types.take(idx).filter(
                    pc.is_valid(col))).drop_null().to_pylist())
                if tset == {"boolean"}:
                    col = pc.equal(col, "true")
                elif tset == {"integer"}:
                    col = pc.cast(col, pa.int64())
                elif tset == {"double"}:
                    col = pc.cast(col, pa.float64())
            out = out.append_column(cn, col)
        drop = [self.out_col]
        if types is not None:
            drop.append(self.types_col)
        return out.drop_columns(drop)


def _map_pairs(col: pa.ChunkedArray) -> pa.Array:
    """A map column as list<struct<key, value>>: Arrow's list kernels
    take no map type (list_parent_indices aborts the process on one)."""
    col = col.combine_chunks()
    return col.cast(pa.list_(pa.struct([("key", col.type.key_type),
                                        ("value", col.type.item_type)])))


class _ChannelStage:
    """A `channel { ... }` compound used as a parser/rewrite stage: runs
    the inner element sequence in-path, so inner filters DROP rows from
    the path (unlike a midpoint destination's channel, which runs in
    its own context)."""

    def __init__(self, cfg: "Config", channel: "Channel"):
        self.cfg = cfg
        self.channel = channel

    def __call__(self, table: pa.Table) -> pa.Table:
        return self.cfg._run_sequence(table, self.channel.elements)


class _RegexpAlternatives:
    """regexp-parser(patterns(p1, p2, ...)): patterns try in order,
    first match wins per row (modules/regexp-parser multi-pattern).
    Rows no pattern matches keep re_matched=False for _DropUnparsed."""

    def __init__(self, stages: list):
        self.stages = stages

    def __call__(self, table: pa.Table) -> pa.Table:
        outs = []
        remaining = table
        for st in self.stages:
            if remaining.num_rows == 0:
                break
            out = st(remaining)
            m = out.column("re_matched")
            outs.append(out.filter(m))
            remaining = remaining.filter(pa.compute.invert(m))
        if remaining.num_rows:
            outs.append(remaining.append_column(
                "re_matched", pa.array([False] * remaining.num_rows)))
        return _merge_by_row_id(outs)


class _DropUnparsed:
    """Config-mode parser-failure drop: filter on the engine stage's
    validity flag column and strip it (the reference's log_parser
    process()==FALSE path-drop semantics)."""

    def __init__(self, stage, flag_col: str):
        self.stage = stage
        self.flag_col = flag_col

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.stage(table)
        if self.flag_col in out.column_names:
            import pyarrow.compute as pc

            out = out.filter(pc.fill_null(
                pc.cast(out.column(self.flag_col), pa.bool_()), False))
            out = out.drop_columns([self.flag_col])
        return out


_TPL_SRC = "__tpl_src"  # a template()-fed parser's input column


class _PriOnlyParser:
    """syslog-parser(flags(no-header)): take the <PRI> prefix off the
    rendered input, set $PRI, and leave EVERYTHING after it in $MESSAGE
    (lib/msg-format.c LP_NOPARSE-adjacent no-header flag — the
    fortigate-parser's entry step). Reads the scratch column written by
    _TemplateSourced."""

    def __call__(self, table: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        src = table.column(_TPL_SRC)
        ext = pc.extract_regex(src, r"^<(?P<pri>\d{1,3})>(?P<rest>[\s\S]*)$")
        pri_s = pc.struct_field(ext, "pri")
        rest = pc.struct_field(ext, "rest")
        pri = pc.if_else(pc.is_valid(pri_s),
                         pc.cast(pri_s, pa.int64()),
                         table.column("pri") if "pri" in table.column_names
                         else pa.scalar(13, pa.int64()))
        msg = pc.if_else(pc.is_valid(rest), rest, src)
        out = table
        for name, arr in (("pri", pri), ("message", msg)):
            if name in out.column_names:
                out = out.set_column(out.column_names.index(name), name, arr)
            else:
                out = out.append_column(name, arr)
        return out


class _TemplateSourced:
    """Run a parser over its template() input: the rendered value
    (`Template.eval_arrow`) goes into the scratch column `_TPL_SRC`,
    the stage reads it, and the column is dropped afterwards. Every
    parser driver that takes template() reads its input this way."""

    def __init__(self, stage, tpl: str):
        from .functions.templates import Template

        self.stage = stage
        self.tpl = Template(tpl)

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.stage(table.append_column(_TPL_SRC,
                                             self.tpl.eval_arrow(table)))
        if _TPL_SRC in out.column_names:
            out = out.drop_columns([_TPL_SRC])
        return out


def _sourced(d: Driver, stage) -> _TemplateSourced:
    """`stage` (reading `_TPL_SRC`) fed by the driver's template(), by
    default $MESSAGE (log_parser_process)."""
    return _TemplateSourced(stage, str(d.kw1("template", "$MESSAGE")))


class _PdbStage:
    """db-parser(): classify with PatternDB, then give the config the
    reference's nv names. Extracted values become message columns and
    the classifier pair is also set as .classifier.class /
    .classifier.rule_id (pdb-ruleset.c). With drop-unmatched(yes),
    unclassified messages drop (modules/correlation/db-parser.c
    drop_unmatched)."""

    def __init__(self, pdb, drop: bool):
        self.pdb = pdb
        self.drop = drop

    def __call__(self, table: pa.Table) -> pa.Table:
        out = self.pdb(table)
        if self.drop:
            out = out.filter(pc.is_valid(out.column("pdb_rule")))
        vm = out.column("pdb_values")
        out = _ExpandMap(lambda t: t, "pdb_values")(out)
        out = out.append_column("pdb_values", vm)
        out = out.append_column(".classifier.rule_id", out.column("pdb_rule"))
        return out.append_column(".classifier.class", out.column("pdb_class"))


def _compile_parser(d: Driver):
    if d.name == "csv-parser":
        from .stages.csv_parser import CsvParser

        flags = [str(f) for f in d.kwargs.get("flags", [])]
        quotes = d.kw1("quote-pairs") or d.kw1("quotes") or '""'
        pfx = str(d.kw1("prefix", ""))
        # unprefixed hard-macro column names (HOST, PROGRAM, MSG...)
        # write the engine's message columns, like setting the builtin
        # nv-pair does in the reference (scl/checkpoint relies on
        # columns("...","HOST","PROGRAM","MSG") re-writing the header)
        cols = [str(c) if pfx else _field(str(c))
                for c in d.kwargs.get("columns", [])]
        nul = d.kw1("null")
        return _sourced(d, CsvParser(
            columns=cols,
            delimiters=str(d.kw1("delimiters", ",")),
            quotes=str(quotes),
            dialect=str(d.kw1("dialect", "escape-none")),
            null_value=str(nul) if nul is not None else None,
            strip_whitespace="strip-whitespace" in flags,
            greedy="greedy" in flags,
            prefix=pfx,
            source_col=_TPL_SRC,
            drop_invalid=str(d.kw1("drop-invalid", "no"))
            in ("yes", "on", "1") or "drop-invalid" in flags))
    if d.name in ("kv-parser", "linux-audit-parser"):
        if d.name == "linux-audit-parser":
            # kv variant with the audit hexdump value transform
            # (modules/kvformat/linux-audit-parser.c)
            from .stages.audit_parser import LinuxAuditParser as KvParser
        else:
            from .stages.kv_parser import KvParser

        ps = d.kw1("pair-separator")
        stray_into = d.kw1("extract-stray-words-into")
        return _sourced(d, _ExpandMap(
            KvParser(value_separator=str(d.kw1("value-separator", "=")),
                     prefix=str(d.kw1("prefix", "")), out_col="__cfg_kv",
                     source_col=_TPL_SRC,
                     pair_separator=str(ps) if ps is not None else None,
                     stray_into=str(stray_into)
                     if stray_into is not None else None), "__cfg_kv"))
    if d.name == "regexp-parser":
        from .stages.regexp_parser import RegexpParser

        pats = [str(p) for p in (d.kwargs.get("patterns") or [])]
        if not pats:
            raise ConfigError("regexp-parser() needs patterns(...)")
        pfx = str(d.kw1("prefix", ""))
        stages = []
        for p in pats:
            st = RegexpParser(p, prefix=pfx, source_col=_TPL_SRC,
                              emit_matches=True)
            if not pfx:
                st.name_map = dict(_FIELD_MAP)
            stages.append(st)
        alt = stages[0] if len(stages) == 1 else _RegexpAlternatives(stages)
        # a non-matching regexp-parser drops the message from the path
        # (modules/regexp-parser process FALSE)
        return _sourced(d, _DropUnparsed(alt, "re_matched"))
    if d.name == "json-parser":
        from .stages.json_parser import JsonParser

        ep = d.kw1("extract-prefix")
        mk = d.kw1("marker")
        pfx = str(d.kw1("prefix", ""))
        stage = _ExpandMap(
            JsonParser(prefix=pfx, source_col=_TPL_SRC,
                       extract_prefix=str(ep) if ep is not None else None,
                       key_delimiter=str(d.kw1("key-delimiter", ".")),
                       marker=str(mk) if mk is not None else None,
                       with_types=True, out_col="__cfg_jv"), "__cfg_jv",
            # unprefixed keys named like hard macros overwrite the
            # engine's message columns (the ewmm-parser contract:
            # json-parser() restores MESSAGE/HOST/PROGRAM builtins)
            field_map=_FIELD_MAP if not pfx else None,
            types_col="__cfg_jv_types")
        # an unparsable payload drops the message (json-parser.c
        # process FALSE)
        return _sourced(d, _DropUnparsed(stage, "json_valid"))
    if d.name == "sdata-parser":
        # sdata-parser(): run the RFC5424 STRUCTURED-DATA parse over a
        # rendered input (default $MESSAGE) into the sdata pairs
        # (modules/syslogformat/sdata-parser.c -> _syslog_format_parse_sd;
        # unparsable input drops the message). prefix() other than
        # .SDATA. sets one column per pair under that prefix, expanded
        # like kv-parser's pairs (_ExpandMap).
        from .stages.syslog import parse_sdata

        prefix = str(d.kw1("prefix", ".SDATA."))

        def _sdata_stage(table: pa.Table) -> pa.Table:
            parsed = [parse_sdata(v) if isinstance(v, str)
                      and v.startswith("[") else None
                      for v in table.column(_TPL_SRC).to_pylist()]
            keep = pa.array([p is not None for p in parsed], pa.bool_())
            table = table.filter(keep)
            parsed = [p for p in parsed if p is not None]
            col = "sdata"
            if prefix != ".SDATA.":
                col = "__cfg_sd"
                parsed = [[(prefix + k, v) for k, v in p] for p in parsed]
            arr = pa.array(parsed, type=pa.map_(pa.string(), pa.string()))
            if col in table.column_names:
                return table.set_column(table.column_names.index(col), col, arr)
            return table.append_column(col, arr)

        if prefix == ".SDATA.":
            return _sourced(d, _sdata_stage)
        return _sourced(d, _ExpandMap(_sdata_stage, "__cfg_sd"))
    if d.name == "db-parser":
        from .pdbtool import load_ruleset
        from .stages.patterndb import PatternDB

        path = d.kw1("file")
        if not path:
            raise ConfigError("db-parser() needs file(\"ruleset.pdb\")")
        path = str(path)
        if not os.path.isabs(path) and not os.path.exists(path):
            # bundled rulesets resolve against the package data dir,
            # like the reference's include-path scl resolution
            cand = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "data", path)
            if os.path.exists(cand):
                path = cand
        rules, _ = load_ruleset(str(path))
        drop = str(d.kw1("drop-unmatched", "no")).lower() in ("yes", "on",
                                                              "1", "true")
        return _PdbStage(PatternDB(rules), drop)
    if d.name == "date-parser":
        from .stages.date_parser import DateParser

        fmts = d.kwargs.get("format") or ["%Y-%m-%dT%H:%M:%S%z"]
        # a failed date parse DROPS the message from the path
        # (date-parser.c process returns FALSE) — the if/else junction
        # then routes the row to the else branch (scl/checkpoint)
        return _sourced(d, _DropUnparsed(
            DateParser([str(f) for f in fmts], source_col=_TPL_SRC,
                       time_zone=d.kw1("time-zone")), "date_parsed"))
    if d.name == "tags-parser":
        from .stages.tags_parser import TagsParser

        return _sourced(d, TagsParser(source_col=_TPL_SRC))
    if d.name == "syslog-parser":
        flags = [str(f) for f in d.kwargs.get("flags", [])]
        if "no-header" in flags:
            return _sourced(d, _PriOnlyParser())
        # full re-parse: render the template and run the format()
        # autodetect header parse over it, overwriting the message
        # columns (modules/syslogformat via parser: syslog-parser())
        from .stages.syslog import parse_syslog_table

        check = "check-program" in flags

        class _SyslogReparse:
            def __call__(self, table: pa.Table) -> pa.Table:
                return parse_syslog_table(table, col=_TPL_SRC,
                                          recv_ts_col="recv_ts",
                                          check_program=check)

        return _sourced(d, _SyslogReparse())
    if d.name == "cisco-parser":
        from .stages.app_parsers import CiscoParser

        return _sourced(d, CiscoParser(source_col=_TPL_SRC,
                                       prefix=str(d.kw1("prefix", ".cisco."))))
    if d.name == "snmptrapd-parser":
        from .stages.app_parsers import SnmptrapdParser

        setmsg = str(d.kw1("set-message-macro", "yes")).lower() \
            not in ("no", "off", "0", "false")
        # failed header parse drops the row (snmptrapd_parser_process
        # returns FALSE, modules/afsnmp/snmptrapd-parser.c:205)
        return _sourced(d, _DropUnparsed(SnmptrapdParser(
            source_col=_TPL_SRC, prefix=str(d.kw1("prefix", ".snmp.")),
            set_message_macro=setmsg, set_program=True), "snmp_valid"))
    if d.name == "mariadb-audit-parser":
        from .stages.app_parsers import MariadbAuditParser

        return _sourced(d, MariadbAuditParser(
            source_col=_TPL_SRC,
            prefix=str(d.kw1("prefix", ".mariadb.audit."))))
    if d.name == "postgresql-csvlog-parser":
        from .stages.app_parsers import PostgresqlCsvlogParser

        return _sourced(d, PostgresqlCsvlogParser(
            source_col=_TPL_SRC, prefix=str(d.kw1("prefix", ".pgsql."))))
    if d.name == "geoip2":
        from .enrich.geoip import GeoIP

        return _TemplateSourced(GeoIP(
            mmdb_path=str(d.kw1("database")) if d.kw1("database") else None,
            source_col=_TPL_SRC,
            prefix=str(d.kw1("prefix", "geoip_")).lstrip(".").replace(".", "_") or "geoip_"),
            str(d.args[0]) if d.args else "$src_ip")
    raise ConfigError(f"unsupported parser driver {d.name}()")


_FIELD_MAP = {"MESSAGE": "message", "MSG": "message", "HOST": "host",
              "PROGRAM": "program", "PID": "pid", "MSGID": "msgid"}


def _field(name: str) -> str:
    """Hard macro names map to the engine's message columns; user name-
    value pairs pass through as-is."""
    return _FIELD_MAP.get(name, name)


def _rewrite_condition(d: Driver, named: dict | None):
    """rewrite condition(FILTER-EXPR) — parsed from the raw kwarg text
    with the full filter grammar (reference rewrite-expr-grammar.ym
    condition option)."""
    raw = d.raw_kwargs.get("condition")
    if raw is None:
        return None
    st = _Stream(tokenize(raw), raw)
    return _FilterParser(st, named or {}).parse()


def _compile_rewrite(d: Driver, named: dict | None = None):
    from .stages import rewrite as rw

    if d.name == "set":
        val, fld = d.args[0], _field(str(d.kw1("value", "MESSAGE")))
        cond = _rewrite_condition(d, named)
        return lambda t: rw.set_value(t, fld, val, condition=cond)
    if d.name == "unset":
        fld = _field(str(d.kw1("value")))
        return lambda t: rw.unset(t, fld)
    if d.name == "subst":
        pat, repl = d.args[0], d.args[1]
        fld = _field(str(d.kw1("value", "message")))
        # reference subst is single-replacement unless flags(global)
        glob = "global" in (d.kwargs.get("flags") or [])
        return lambda t: rw.subst(t, pat, repl, field=fld, global_=glob)
    if d.name == "set-tag":
        tag = d.args[0]
        cond = _rewrite_condition(d, named)
        return lambda t: rw.set_tag(t, tag, condition=cond)
    if d.name == "clear-tag":
        tag = d.args[0]
        cond = _rewrite_condition(d, named)
        return lambda t: rw.clear_tag(t, tag, condition=cond)
    if d.name == "rename":
        a, b = _field(d.args[0]), _field(d.args[1])
        return lambda t: rw.rename(t, a, b)
    if d.name == "groupset":
        val = d.args[0]
        globs = [str(g) for g in (d.kwargs.get("values") or [])]
        def _gs(t, val=val, globs=globs):
            for g in globs:
                t = rw.groupset(t, val, g)
            return t
        return _gs
    if d.name == "set-pri":
        tpl = d.args[0]
        cond = _rewrite_condition(d, named)
        return lambda t: rw.set_pri(t, tpl, condition=cond)
    if d.name == "set-severity":
        tpl = d.args[0]
        cond = _rewrite_condition(d, named)
        return lambda t: rw.set_severity(t, tpl, condition=cond)
    if d.name == "set-facility":
        tpl = d.args[0]
        cond = _rewrite_condition(d, named)
        return lambda t: rw.set_facility(t, tpl, condition=cond)
    raise ConfigError(f"unsupported rewrite driver {d.name}()")


_MSG_GEN_VALUE_RE = re.compile(
    r'"(?P<key>[^"]+)"\s*=>\s*'
    r'(?:(?P<typ>\w+)\(\s*(?P<arg>"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\''
    r'|[^)]*)\s*\)'
    r'|(?P<plain>"(?:[^"\\]|\\.)*"))')


def _msg_generator_values(raw: str, n: int):
    """example-msg-generator values() with the typed constructors the
    Light suite uses (test_filterx_types.py create_config): yields
    (column_name, typed Arrow array) per pair."""
    import json as _json

    matches = list(_MSG_GEN_VALUE_RE.finditer(raw))
    if not matches:
        # legacy single-string form: values("k => v k2 => v2") — bare
        # tokens inside one quoted argument, all string-typed
        inner = _prep_unquote(raw.strip()) if raw.strip()[:1] in ('"', "'") \
            else raw
        for key, val in re.findall(r"(\S+)\s*=>\s*(\S+)", inner):
            yield key, pa.array([_prep_unquote(val)] * n, type=pa.string())
        return
    for m in matches:
        key = m.group("key")
        if m.group("plain") is not None:
            yield key, pa.array([_prep_unquote(m.group("plain"))] * n,
                                type=pa.string())
            continue
        typ = m.group("typ").lower()
        arg = (m.group("arg") or "").strip()
        if arg[:1] in ('"', "'"):
            arg = _prep_unquote(arg)
        if typ == "string":
            yield key, pa.array([arg] * n, type=pa.string())
        elif typ in ("boolean", "bool"):
            v = arg.lower() in ("true", "yes", "on", "1")
            yield key, pa.array([v] * n, type=pa.bool_())
        elif typ == "int":
            yield key, pa.array([int(arg)] * n, type=pa.int64())
        elif typ == "double":
            yield key, pa.array([float(arg)] * n, type=pa.float64())
        elif typ == "datetime":
            # "1701350398.123000+01:00" epoch form or ISO text; the
            # offset names the display zone, the instant is absolute
            em = re.fullmatch(r"(\d+(?:\.\d+)?)(?:[+-]\d{2}:?\d{2})?", arg)
            if em:
                ts = pd.to_datetime(float(em.group(1)), unit="s")
            else:
                ts = pd.to_datetime(arg, utc=True).tz_localize(None)
            yield key, pa.array(
                np.full(n, np.datetime64(ts.to_datetime64(), "us")),
                type=pa.timestamp("us"))
        elif typ == "list":
            items = arg.split(",") if arg else []
            yield key, pa.array([items] * n,
                                type=pa.list_(pa.string()))
        elif typ == "null":
            yield key, pa.nulls(n, type=pa.string())
        elif typ in ("bytes", "protobuf"):
            yield key, pa.array([arg.encode()] * n, type=pa.binary())
        elif typ == "json":
            # message semantics: container values travel as compact
            # JSON text (the LogMessage marshal form — preserves key
            # order where Arrow struct inference would sort fields);
            # filterx unmarshals on access
            try:
                txt = _json.dumps(_json.loads(arg),
                                  separators=(",", ":"),
                                  ensure_ascii=False)
            except ValueError:
                txt = arg
            yield key, pa.array([txt] * n, type=pa.string())
        else:
            # unknown constructor: keep the literal text (forward-compat)
            yield key, pa.array([arg] * n, type=pa.string())


def _build_source(drivers: list[Driver], cfg: "Config | None" = None) -> pa.Table:
    parts = []
    for d in drivers:
        if d.name == "__src_channel__":
            # block-source channel: inner source(s) feed the channel's
            # parser/rewrite/filter stages before joining the path
            ch = d.args[0]
            srcs = [a for k, a in ch.elements if k == "source"]
            t = pa.concat_tables(
                [_build_source(cfg.sources[sn], cfg) for sn in srcs],
                promote_options="permissive")
            parts.append(cfg._run_channel(ch, t))
        elif d.name == "example-msg-generator":
            from .functions.numbers import parse_int64_with_suffix

            # config numerics parse like the reference grammar (size
            # suffixes allowed: num(10k))
            n = parse_int64_with_suffix(str(d.kw1("num", 1)))
            if n is None:
                raise ConfigError(f"invalid num() value {d.kw1('num')!r}")
            tpl = str(d.kw1("template", "-- Generated message. --"))
            cols = {
                "message": pa.array([tpl] * n, type=pa.string()),
                "pri": pa.array([13] * n, type=pa.int64()),
                "host": pa.array(["localhost"] * n, type=pa.string()),
                "program": pa.array(["example-msg-generator"] * n, type=pa.string()),
            }
            # values("k" => "v", "k2" => int(5), ...): seeded name-value
            # pairs with the Light suite's TYPED constructors
            # (modules/examples/sources/msg-generator + type hints:
            # string/boolean/int/double/datetime/list/null/bytes/
            # protobuf/json). Parsed from the RAW option text — the
            # tokenized kwargs view collapses nested parens.
            raw_vals = d.raw_kwargs.get("values") or \
                " ".join(str(x) for x in d.kwargs.get("values", []))
            if raw_vals:
                for key, arr in _msg_generator_values(raw_vals, n):
                    cols[key] = arr
            parts.append(pa.table(cols))
        elif d.name in ("file", "wildcard-file"):
            import glob as _glob
            import os as _os

            # wildcard-file(base-dir() filename-pattern()) — the
            # reference driver's two-part glob (affile wildcard source)
            base, fpat = d.kw1("base-dir"), d.kw1("filename-pattern")
            if base is not None or fpat is not None:
                path = _os.path.join(str(base or "."), str(fpat or "*"))
            else:
                path = str(d.args[0])
            paths = sorted(_glob.glob(path)) if d.name == "wildcard-file" \
                or any(c in path for c in "*?[") else [path]
            if not paths:
                raise ConfigError(f"{d.name}({path!r}): no files match")
            if str(d.kw1("format") or "") == "pacct":
                # format("pacct"): binary acct_v3 records -> .pacct.*
                # values (modules/pacctformat; scl/pacct/plugin.conf)
                from .stages.pacct import parse_pacct_records

                tabs = []
                for p in paths:
                    with open(p, "rb") as fh:
                        tabs.append(parse_pacct_records(fh.read()))
                t = pa.concat_tables(tabs)
                t = t.append_column(
                    "pri", pa.array([13] * t.num_rows, type=pa.int64()))
                tag_args = [str(x) for x in d.kwargs.get("tags", [])]
                if tag_args:
                    t = t.append_column(
                        "tags", pa.array([tag_args] * t.num_rows,
                                         type=pa.list_(pa.string())))
                parts.append(t)
                continue
            lines: list[str] = []
            for p in paths:
                with open(p) as fh:
                    flines = [ln.rstrip("\n") for ln in fh]
                mlm = d.kw1("multi-line-mode")
                if mlm is not None:
                    # multi-line-mode()/-prefix()/-garbage()/-suffix():
                    # join continuation lines per file before the
                    # header parse (lib/multi-line/multi-line-factory.c)
                    from .sources.text import MultiLineJoiner

                    pre = d.kw1("multi-line-prefix")
                    garb = d.kw1("multi-line-garbage") \
                        or d.kw1("multi-line-suffix")
                    j = MultiLineJoiner(
                        mode=str(mlm),
                        prefix_re=str(pre) if pre is not None else None,
                        garbage_re=str(garb) if garb is not None else None)
                    flines = ["\n".join(g) for g in j._group(flines)]
                lines.extend(flines)
            flags = [str(f) for f in d.kwargs.get("flags", [])]
            if "no-parse" in flags:
                # whole line -> $MESSAGE; default PRI (user.notice) is
                # still assigned (lib/msg-format.c defaults)
                t = pa.table({
                    "message": pa.array(lines, type=pa.string()),
                    "pri": pa.array([13] * len(lines), type=pa.int64()),
                })
            else:
                # the reference's file() source runs the msg-format
                # header parse on every line unless flags(no-parse)
                # (lib/logproto + lib/msg-format.c default LP_* path)
                from .stages.syslog import parse_syslog_table

                t = pa.table({"__raw": pa.array(lines, type=pa.string())})
                t = parse_syslog_table(t, col="__raw",
                                       recv_ts_col="recv_ts")
                t = t.drop_columns(["__raw"])
            # program-override()/host-override() (affile options):
            # overwrite $PROGRAM/$HOST after the header parse
            for opt, col in (("program-override", "program"),
                             ("host-override", "host")):
                ov = d.kw1(opt)
                if ov is not None:
                    arr = pa.array([str(ov)] * t.num_rows, type=pa.string())
                    if col in t.column_names:
                        t = t.set_column(t.column_names.index(col), col, arr)
                    else:
                        t = t.append_column(col, arr)
            parts.append(t)
        else:
            raise ConfigError(f"unsupported source driver {d.name}()")
    return pa.concat_tables(parts, promote_options="permissive")


# ------------------------------------------------------------- entry point

# Built-in SCL library: re-expressions of reference scl/ blocks whose
# semantics the engine's drivers cover (reference scl/apache/apache.conf
# combined/common LogFormat branch, scl/iptables/iptables.conf,
# scl/rewrite/cc-mask.conf). Parsed into every config's block table
# before the user text, so a user definition of the same name wins. The
# vhost branch and the success/failure `if {parser{...}}` form of the
# full apache SCL are out of this subset (documented). The credit-card
# blocks keep the reference's block NAMES, default templates, and the
# standard public card-IIN regex patterns (factual data; the Light
# suite's expected outputs pin byte-parity) with an original block
# structure; masked/hashed outputs are verified against the reference
# Light suite's own expectations in tests/test_config.py.
SCL_LIBRARY = """
block parser apache-accesslog-parser(prefix("apache.")) {
    csv-parser(
        prefix(`prefix`)
        dialect(escape-backslash-with-sequences)
        flags(strip-whitespace)
        delimiters(" ")
        quote-pairs('""[]')
        columns("clientip" "ident" "auth" "timestamp" "rawrequest"
                "response" "bytes" "referrer" "agent"));
};

block parser iptables-parser(prefix("iptables.")) {
    kv-parser(prefix(`prefix`));
};

block parser sudo-parser(prefix(".sudo.")) {
    channel {
        parser {
            kv-parser(prefix(`prefix`) pair-separator(";") extract-stray-words-into("0"));
            csv-parser(columns("`prefix`SUBJECT") template("$(list-head ${`prefix`0})") delimiters(" "));
        };
        filter { not match("" value("`prefix`COMMAND") type(string)); };
    };
};

block parser fortigate-parser(prefix(".fortigate.") template("$MSG")) {
    channel {
        parser {
            syslog-parser(flags(no-header) template(`template`));
            kv-parser(prefix(`prefix`) template("$MSG"));
            date-parser(format("%Y-%m-%d %H:%M:%S") template("${`prefix`date} ${`prefix`time}"));
        };
        filter { "${`prefix`devname}" ne ""; };
        rewrite { set("${`prefix`devname}" value("HOST")); };
    };
};

block parser netskope-parser(prefix(".netskope.")) {
    channel {
        rewrite {
            subst("^<[0-9]+>", "");
        };
        parser {
            json-parser(prefix(`prefix`));
        };
    };
};

block parser pihole_ftl() {
    channel {
        parser {
            regexp-parser(
                patterns('^\\[([^ ]+ [^ ]+) [^ \\]]+\\] (?:(FATAL|ERR|ERROR|Error|WARN|WARNING|Warning|Notice|INFO|DEBUG):|) ?(?<MESSAGE>.*)')
            );
            date-parser(
                template("$1")
                format("%Y-%m-%d %H:%M:%S.%f")
            );
        };
        rewrite {
            set("Pi-hole" value("PROGRAM"));
            set-severity("$2" condition("$2" ne ""));
        };
    };
};

block parser checkpoint-parser(prefix(".checkpoint.")) {
    channel {
        if {
            filter { message("<" type(string) flags(prefix)); };
            if {
                parser {
                    csv-parser(columns("1", "2", "HOST", "PROGRAM", "PID", "MSGID", "MSG")
                               flags(greedy) delimiters(" ") null("-") dialect(escape-none));
                    date-parser(format("%Y-%m-%dT%H:%M:%S%z",
                                       "%Y-%m-%dT%H:%M:%S") template("$2"));
                };
            } else {
                parser {
                    csv-parser(columns("1", "2", "3", "HOST", "PROGRAM", "PID", "MSGID", "MSG")
                               flags(greedy) delimiters(" ") null("-") dialect(escape-none));
                    date-parser(format("%Y-%m-%d %H:%M:%S") template("$2 $3"));
                };
            };
            parser {
                kv-parser(prefix(`prefix`) value-separator(":") pair-separator(";"));
            };
            flags(final);
        } else {
            parser { kv-parser(prefix(`prefix`) value-separator("|") pair-separator("=")); };
            flags(final);
        };
    };
};

block parser panos-parser(prefix(".panos.")) {
    channel {
        parser {
            csv-parser(
                columns("future_use1","receive_time","serial","type","subtype","future_use2","time_generated","tmp")
                delimiters(',') prefix(`prefix`) flags(greedy) drop-invalid(yes)
                template("${LEGACY_MSGHDR}${MESSAGE}"));
        };
        if (match('SYSTEM' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("vsys","eventid","object","future_use3","future_use4","module","severity","opaque","seqno","actionflags",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        } elif (match('CONFIG' value('`prefix`type') type(string))) {
            if {
                parser {
                    csv-parser(
                        columns("host","vsys","cmd","admin","client","result","path","seqno","actionflags",
                                "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name")
                        prefix(`prefix`) template("${`prefix`tmp}") delimiters(',') drop-invalid(yes));
                };
            } else {
                parser {
                    csv-parser(
                        columns("host","vsys","cmd","admin","client","result","path",
                                "before_change_detail","after_change_detail","seqno","actionflags",
                                "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name")
                        prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
                };
                filter { "${`prefix`device_name}" ne ""; };
            };
        } elif (match('THREAT' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("src","dst","natsrc","natdst","rule","srcuser","dstuser","app","vsys","from","to",
                            "inbound_if","outbound_if","logset","future_use3","sessionid","repeatcnt",
                            "sport","dport","natsport","natdport","flags","proto","action","misc",
                            "threatid","category","severity","direction","seqno","actionflags",
                            "srcloc","dstloc","future_use4","contenttype","pcap_id","filedigest",
                            "cloud","url_idx","user_agent","filetype","xff","referer","sender","subject","recipient","reportid",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name","future_use5",
                            "src_uuid","dst_uuid","http_method","tunnel_id/imsi","monitor_tag/imei",
                            "parent_session_id","parent_start_time","tunnel","thr_category","contentver",
                            "future_use6","assoc_id","ppid","http_headers","url_category_list",
                            "rule_uuid","http2_connection")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        } elif (match('TRAFFIC' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("src","dst","natsrc","natdst","rule","srcuser","dstuser","app","vsys","from","to","inbound_if","outbound_if",
                            "logset","future_use3","sessionid","repeatcnt","sport","dport","natsport","natdport","flags","proto","action",
                            "bytes","bytes_sent","bytes_received","packets","start","sec","category","future_use4","seqno","actionflags",
                            "srcloc","dstloc","future_use5","pkts_sent","pkts_received","session_end_reason",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name",
                            "action_source","src_uuid","dst_uuid","tunnel_id/imsi","monitortag/imei",
                            "parent_session_id","parent_start_time","tunnel","assoc_id",
                            "chunks","chunks_sent","chunks_received","rule_uuid",
                            "http2_connection","link_change_count",
                            "policy_id","link_switches",
                            "sdwan_cluster","sdwan_device_type","sdwan_cluster_type","sdwan_site","dynusergroup_name")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        } elif (match('HIP-MATCH' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("srcuser","vsys","machine_name","os","src","matchname","repeatcnt","matchtype","future_use3","future_use4","seqno","actionflags",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name",
                            "vsys_id","srcipv6","hostid","serialnumber")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        } elif (match('CORRELATION' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("src","srcuser","vsys","category","severity",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name",
                            "vsys_id","objectname","object_id","evidence")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        } elif (match('USERID' value('`prefix`type') type(string))) {
            parser {
                csv-parser(
                    columns("vsys","ip","user","datasourcename","eventid","repeatcnt","timeout","beginport","endport","datasource","datasourcetype","seqno","actionflags",
                            "dg_hier_level_1","dg_hier_level_2","dg_hier_level_3","dg_hier_level_4","vsys_name","device_name",
                            "vsys_id","factortype","factorcompletiontime","factorno","future_use3","future_use4","ugflags","userbysource")
                    prefix(`prefix`) template("${`prefix`tmp}") delimiters(','));
            };
            filter { "${`prefix`device_name}" ne ""; };
        };
        rewrite {
            set("${LEGACY_MSGHDR}${MESSAGE}" value("MESSAGE"));
            set("paloalto_panos" value("PROGRAM"));
            unset(value("`prefix`tmp"));
        };
    };
};

application panos[syslog] {
    filter { match("1," value("PROGRAM") type(string) flags(prefix)); };
    parser { panos-parser(); };
};

block parser websense-parser(prefix(".websense.")) {
    channel {
        rewrite {
            subst('([A-Za-z]{3} [0-9 ]\\d \\d{2}:\\d{2}:\\d{2}) [A-Z]{3,4}' "$1 " value("MSG"));
            subst('(vendor=Websense)' "Websense: $1" value("MSG"));
        };
        parser {
            syslog-parser();
            kv-parser(prefix("`prefix`"));
        };
    };
};

application websense[syslog-raw] {
    filter { message("vendor=Websense" type(string) flags(substring)); };
    parser { websense-parser(); };
};

application cee[syslog] {
    parser { json-parser(prefix('.cee.') marker('@cee:')); };
};

block destination sumologic-http(deployment() collector()
                                 batch-lines(1000)
                                 template("$(format-json --scope all-nv-pairs --exclude SOURCE)\\n")) {
    http(url("https://collectors.`deployment`.sumologic.com/receiver/v1/http/`collector`")
         method("POST") batch-lines(`batch-lines`) body(`template`));
};

block parser ewmm-parser() {
    channel {
        filter { program("@syslog-ng" type(string)); };
        rewrite {
            unset(value("PROGRAM"));
            unset(value("RAWMSG"));
        };
        parser { json-parser(); };
        parser { tags-parser(template("${._TAGS}")); };
        rewrite {
            unset(value("._TAGS"));
        };
    };
};

block rewrite credit-card-brand(regex() value() template()) {
    subst("`regex`" "`template`" value(`value`)
          flags(global, store-matches) type(pcre));
};

block rewrite credit-card-mask(value("MESSAGE")
                               template("$(substr $0 0 6)******$(substr $0 -4 4)")) {
    credit-card-brand(regex("(?:4[0-9]{12}(?:[0-9]{3})?)") value(`value`) template("`template`"));
    credit-card-brand(regex("((5[1-5][0-9]{14})|((?:5[1-5][0-9]{2}|222[1-9]|22[3-9][0-9]|2[3-6][0-9]{2}|27[01][0-9]|2720)[0-9]{12}))") value(`value`) template("`template`"));
    credit-card-brand(regex("(3[47][0-9]{13})") value(`value`) template("`template`"));
    credit-card-brand(regex("((?:2131|1800|35[0-9]{3})[0-9]{11})") value(`value`) template("`template`"));
    credit-card-brand(regex("(3(?:0[0-5]|[68][0-9])[0-9]{11})") value(`value`) template("`template`"));
    credit-card-brand(regex("(6(?:011|5[0-9]{2})[0-9]{12})") value(`value`) template("`template`"));
};

block rewrite credit-card-hash(value("MESSAGE")
                               template("$(sha1 --length 16 $0)")) {
    credit-card-brand(regex("(?:4[0-9]{12}(?:[0-9]{3})?)") value(`value`) template("`template`"));
    credit-card-brand(regex("((5[1-5][0-9]{14})|((?:5[1-5][0-9]{2}|222[1-9]|22[3-9][0-9]|2[3-6][0-9]{2}|27[01][0-9]|2720)[0-9]{12}))") value(`value`) template("`template`"));
    credit-card-brand(regex("(3[47][0-9]{13})") value(`value`) template("`template`"));
    credit-card-brand(regex("((?:2131|1800|35[0-9]{3})[0-9]{11})") value(`value`) template("`template`"));
    credit-card-brand(regex("(3(?:0[0-5]|[68][0-9])[0-9]{11})") value(`value`) template("`template`"));
    credit-card-brand(regex("(6(?:011|5[0-9]{2})[0-9]{12})") value(`value`) template("`template`"));
};

block source linux-audit(filename("/var/log/audit/audit.log") prefix(".auditd.") ...) {
    channel {
        source { file("`filename`" flags(no-parse) `__VARARGS__`); };
        parser { linux-audit-parser(prefix("`prefix`")); };
        parser { kv-parser(template("${`prefix`msg}") prefix("`prefix`msg.")); };
        rewrite { unset(value("`prefix`msg")); };
    };
};

block source osquery(file("/var/log/osquery/osqueryd.results.log") prefix(".osquery.") ...) {
    channel {
        source { file("`file`" program-override("osquery") flags(no-parse) `__VARARGS__`); };
        parser { json-parser(prefix("`prefix`")); };
    };
};

block source snmptrap(filename() prefix(".snmp.") set-message-macro(yes) ...) {
    channel {
        source {
            file("`filename`"
                multi-line-mode("prefix-garbage")
                multi-line-prefix('^[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}[ T]([0-9]{1,2}:){2}[0-9]{2}')
                `__VARARGS__`
                flags(no-parse));
        };
        parser { snmptrapd-parser(prefix("`prefix`") set-message-macro(`set-message-macro`)); };
    };
};

block parser jellyfin() {
    channel {
        parser {
            regexp-parser(
                patterns('^\\[([^\\]]*)\\] \\[([A-Z]{3})\\] \\[[0-9]+\\] (?<MESSAGE>(?:.|\\n)*)'));
            date-parser(template("$1") format("%Y-%m-%d %H:%M:%S.%f %z"));
        };
        rewrite {
            set("Jellyfin" value("PROGRAM"));
            set-severity("$2");
        };
    };
};

block source jellyfin(base_dir() filename_pattern()) {
    channel {
        source {
            wildcard-file(
                base-dir("`base_dir`")
                filename-pattern("`filename_pattern`")
                multi-line-mode(regexp)
                multi-line-prefix('^\\[[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}.[0-9]{3} ')
                flags(no-parse)
                `__VARARGS__`);
        };
        parser { jellyfin(); };
    };
};

block parser qbittorrent() {
    channel {
        parser {
            regexp-parser(patterns('^\\((.)\\) ([^ ]+) - (?<MESSAGE>.*)'));
            date-parser(template("$2") format("%Y-%m-%dT%H:%M:%S"));
        };
        rewrite { set("qBittorrent" value("PROGRAM")); };
        if (match("C" value("1") type(string))) {
            rewrite { set-severity("critical"); };
        } elif (match("W" value("1") type(string))) {
            rewrite { set-severity("warning"); };
        } elif (match("I" value("1") type(string))) {
            rewrite { set-severity("info"); };
        } elif (match("N" value("1") type(string))) {
            rewrite { set-severity("notice"); };
        };
    };
};

block source qbittorrent(dir() ...) {
    channel {
        source { file("`dir`/qbittorrent.log" flags(no-parse) `__VARARGS__`); };
        parser { qbittorrent(); };
    };
};

template-function "format-gelf" "$(format-json --auto-cast --omit-empty-values version='1.1' host='${HOST:--}' short_message='${MSG:--}' level=int(${LEVEL_NUM}) timestamp=int64(${R_UNIXTIME}) _program='${PROGRAM}' _pid=int(${PID}) _facility='${FACILITY}' _class='${.classifier.class}' --key .* --key _*)$(binary 0x00)";

template-function "format-cim" "$(format-json --auto-cast --pair @timestamp='${R_ISODATE}' --pair @message='${MSG}' --key .cim.* --shift 5 --key _* --key .* --replace-prefix .=_ --key *.*)\\n";

application cim[syslog] {
    parser { json-parser(prefix('.cim.') marker('@cim:')); };
};

block destination collectd(host("${HOST}") plugin() plugin_instance('')
    type() type_instance('') interval(60) values('U')
    socket("/var/run/collectd-unixsock") ...) {
    unix-stream(`socket` close-on-input(no)
        template("PUTVAL `host`/`plugin`$(if ('`plugin_instance`' eq '') '' '-`plugin_instance`')/`type`$(if ('`type_instance`' eq '') '' '-`type_instance`')$(if ('`interval`' eq '') '' ' interval=`interval`') ${UNIXTIME}:`values`\\n")
        `__VARARGS__`);
};

block destination graylog2(host("127.0.0.1") port(12201) transport(tcp) template("$(format-gelf)") ...) {
    network("`host`" port(`port`) transport(`transport`) template("`template`") `__VARARGS__`);
};

block destination loggly(token(TOKEN) tag("tag") host('logs-01.loggly.com') port(514) transport(tcp) template("$MSG") ...) {
    network("`host`" port(`port`) transport(`transport`)
        template("<${PRI}>1 ${ISODATE} ${HOST} ${PROGRAM} ${PID} ${MSGID} [`token`@41058 tag=\\"`tag`\\"] `template`\\n")
        template_escape(no) `__VARARGS__`);
};

block destination logmatic(token(TOKEN) host('api.logmatic.io') port(10514) template("$MSG") ...) {
    network("`host`" port(`port`) transport(tcp)
        template("`token` <${PRI}>1 ${ISODATE} ${HOST:--} ${PROGRAM:--} ${PID:--} ${MSGID:--} ${SDATA:--} `template`\\n")
        template_escape(no) so-keepalive(yes) `__VARARGS__`);
};

block destination slack(hook-url()
    fallback('${MSG} - host: ${HOST} | program: ${PROGRAM}(${PID}) | severity: ${PRIORITY}')
    colors('#512E5F,#B03A2E,#E74C3C,#F39C12,#F8C471,#7DCEA0,#5DADE2,#85929E')
    color-chooser('${LEVEL_NUM}')
    pretext('') author-name('host: ${HOST} | program: ${PROGRAM}(${PID}) | severity: ${PRIORITY}')
    author-link('') author-icon('') title('') title-link('')
    template('${MSG}') image-url('') thumb-url('') footer('') footer-icon('')
    throttle(1) use-system-cert-store(yes) ...) {
    http(url('`hook-url`') method('POST') headers('Content-type: application/json')
        body-prefix('{"attachments":[')
        body('$(format-json --cast fallback="`fallback`" color="$(list-nth `color-chooser` `colors`)" pretext="`pretext`" author_name="`author-name`" author_link="`author-link`" author_icon="`author-icon`" title="`title`" title_link="`title-link`" text="`template`" image_url="`image-url`" thumb_url="`thumb-url`" footer="`footer`" footer_icon="`footer-icon`" ts="${UNIXTIME}")')
        body-suffix(']}') delimiter(',') throttle(`throttle`)
        use-system-cert-store(`use-system-cert-store`) `__VARARGS__`);
};

block destination discord(url() template("${MSG:-[empty message]}")
    max-msg-length(2000) throttle(5) username("") avatar-url("")
    tts(false) use-system-cert-store(yes) ...) {
    http(url('`url`') method("POST") headers("Content-type: application/json")
        body("$(format-json --cast content=$(substr '`template`' 0 `max-msg-length`) username='`username`' avatar_url='`avatar-url`' tts=`tts`)")
        throttle(`throttle`) use-system-cert-store(`use-system-cert-store`) `__VARARGS__`);
};

block destination telegram(bot-id() chat-id() template("${MSG}")
    parse-mode("none") throttle(1) disable-web-page-preview("true")
    disable-notification("false") extra-parameters("")
    use-system-cert-store(yes) max-size(4096) ...) {
    http(url("https://api.telegram.org/bot`bot-id`/sendMessage") method("POST")
        body("disable_web_page_preview=`disable-web-page-preview`&disable_notification=`disable-notification`&parse_mode=`parse-mode`&chat_id=`chat-id`&`extra-parameters`&text=$(url-encode $(substr \\"`template`\\" 0 `max-size`))\\n")
        throttle(`throttle`) use-system-cert-store(`use-system-cert-store`) `__VARARGS__`);
};

block destination splunk_hec_raw(url() token() channel()
    default_index("main") default_source("axosyslog") default_sourcetype("syslog")
    template("${S_ISODATE} ${HOST} ${MSGHDR}${MSG}\\n")
    batch_lines(5000) batch_bytes(4096kB) batch_timeout(0) workers(8)
    timeout(10) content_type("text/plain") extra_headers("") extra_queries("")
    use_system_cert_store(yes) ...) {
    http(url("`url`/services/collector/raw/1.0?channel=`channel`&index=`default_index`&source=`default_source`&sourcetype=`default_sourcetype``extra_queries`")
        headers("Authorization: Splunk `token`" "Content-Type: `content_type`" "Connection: keep-alive" `extra_headers`)
        body(`template`) batch-lines(`batch_lines`) batch-bytes(`batch_bytes`)
        batch-timeout(`batch_timeout`) workers(`workers`) timeout(`timeout`)
        use_system_cert_store(`use_system_cert_store`) `__VARARGS__`);
};

block destination splunk_hec_event(url() token()
    default_index("main") default_source("axosyslog") default_sourcetype("nix:syslog")
    index("") source("") sourcetype("") host("${HOST}")
    time("${S_UNIXTIME}.${S_MSEC}") fields("") event("${MSG}")
    batch_lines(5000) batch_bytes(4096kB) batch_timeout(0) workers(8)
    timeout(10) content_type("application/json") extra_headers("") extra_queries("")
    use_system_cert_store(yes) ...) {
    http(url("`url`/services/collector/event/1.0?index=`default_index`&source=`default_source`&sourcetype=`default_sourcetype``extra_queries`")
        headers("Authorization: Splunk `token`" "Content-Type: `content_type`" "Connection: keep-alive" `extra_headers`)
        body('$(format-json --scope none --omit-empty-values index="`index`" source="`source`" sourcetype="`sourcetype`" host="`host`" time="`time`" event="`event`" fields=$(if ("`fields`" ne "") $(format-flat-json --scope none `fields`) ""))')
        batch-lines(`batch_lines`) batch-bytes(`batch_bytes`) batch-timeout(`batch_timeout`)
        timeout(`timeout`) workers(`workers`)
        use_system_cert_store(`use_system_cert_store`) `__VARARGS__`);
};

block destination elasticsearch-http(url() index() custom_id("")
    workers(4) type("") batch_lines(100) timeout(10)
    template("$(format-json --scope rfc5424 --exclude DATE --key ISODATE @timestamp=${ISODATE})")
    headers("Content-Type: application/x-ndjson") body_suffix("\\n") op_type("index") ...) {
    http(url(`url`) headers(`headers`) workers(`workers`) batch_lines(`batch_lines`)
        timeout(`timeout`) body_suffix(`body_suffix`)
        body("$(format-json --scope none --omit-empty-values `op_type`._index=\\"`index`\\" `op_type`._id=\\"`custom_id`\\")\\n`template`")
        `__VARARGS__`);
};

block destination opensearch(url() index() custom_id("")
    workers(4) batch_lines(100) timeout(10)
    template("$(format-json --scope rfc5424 --exclude DATE --key ISODATE @timestamp=${ISODATE})")
    headers("Content-Type: application/x-ndjson") body_suffix("\\n") op_type("index") ...) {
    http(url(`url`) headers(`headers`) workers(`workers`) batch_lines(`batch_lines`)
        timeout(`timeout`) body_suffix(`body_suffix`)
        body("$(format-json --scope none --omit-empty-values `op_type`._index=\\"`index`\\" `op_type`._id=\\"`custom_id`\\")\\n`template`")
        `__VARARGS__`);
};

block destination azure-monitor(dce_uri() dcr_id() stream_name()
    template("$MESSAGE") auth("") ...) {
    http(method("POST")
        url("`dce_uri`/dataCollectionRules/`dcr_id`/streams/`stream_name`?api-version=2023-01-01")
        headers("Content-Type: application/json")
        persist_name("azure-monitor,`dce_uri`,`dcr_id`,`stream_name`")
        body_prefix("[") body(`template`) delimiter(",") body_suffix("]")
        `__VARARGS__`);
};

block destination azure-monitor-builtin(dce_uri() dcr_id() table_name()
    template("$MESSAGE") auth("") ...) {
    azure-monitor(dce_uri(`dce_uri`) dcr_id(`dcr_id`)
        stream_name(`table_name`) template(`template`) auth(`auth`)
        `__VARARGS__`);
};

block destination google-pubsub(project() topic()
    service_endpoint("https://pubsub.googleapis.com")
    data("${MESSAGE}")
    attributes("--scope rfc5424,all-nv-pairs --exclude MESSAGE")
    batch_lines(1000) batch_timeout(0) workers(8) timeout(10) ...) {
    http(url("`service_endpoint`/v1/projects/`project`/topics/`topic`:publish")
        method("POST")
        headers("Content-Type: application/json")
        body('$(format-json --omit-empty-values data=$(base64-encode `data`) attributes=literal($(format-flat-json `attributes`)))')
        body_prefix('{"messages":[') body_suffix(']}') delimiter(',')
        batch-lines(`batch_lines`) batch-timeout(`batch_timeout`)
        workers(`workers`) timeout(`timeout`) `__VARARGS__`);
};

block destination graphite(host("localhost") port(2003) payload("") ...) {
    network("`host`" port(`port`) transport(tcp)
            template("$(graphite-output `payload`)") `__VARARGS__`);
};

block destination loggly(token() tag("tag") host("logs-01.loggly.com")
    port(514) transport(tcp) template("$MSG") ...) {
    network("`host`" port(`port`) transport(`transport`)
            template("<${PRI}>1 ${ISODATE} ${HOST} ${PROGRAM} ${PID} ${MSGID} [`token`@41058 tag=\\"`tag`\\"] `template`\\n")
            template_escape(no) `__VARARGS__`);
};

block destination logmatic(token() host("api.logmatic.io") port(10514)
    template("$MSG") ...) {
    network("`host`" port(`port`) transport(tcp)
            template("`token` <${PRI}>1 ${ISODATE} ${HOST:--} ${PROGRAM:--} ${PID:--} ${MSGID:--} ${SDATA:--} `template`\\n")
            template_escape(no) so-keepalive(yes) `__VARARGS__`);
};

block destination hdfs(hdfs_uri() hdfs_file()
    template("${ISODATE} ${HOST} ${MSGHDR}${MESSAGE}\\n") ...) {
    file("`hdfs_uri`/`hdfs_file`" template(`template`) `__VARARGS__`);
};

block source nodejs(filename() prefix(".nodejs.winston.") ...) {
    channel {
        source { file("`filename`" flags(no-parse) `__VARARGS__`); };
        parser { json-parser(extract-prefix("[1]") prefix("`prefix`")); };
        rewrite {
            set("${`prefix`message}" value("MESSAGE"));
            set("" value("`prefix`message"));
        };
    };
};

block parser windows-eventlog-parser(file("windowseventlog.xml")) {
    channel {
        parser { db-parser(file("`file`") drop-unmatched(yes)); };
    };
};

block source windowsevent(filename() ...) {
    channel {
        source {
            file("`filename`"
                program-override("Microsoft_Windows_security_auditing.")
                multi-line-mode("prefix-garbage")
                multi-line-prefix('^\\S+: Security Microsoft Windows security auditing')
                `__VARARGS__`
                flags(no-parse));
        };
        parser { windows-eventlog-parser(); };
    };
};

application junos[syslog] {
    filter { "${.SDATA.junos@2636.1.1.1.2.129.reason}" ne "" };
};

block parser extract-solaris-msgid() {
    channel {
        if {
            filter { message("[ID" type(string) flags(prefix)); };
            parser {
                csv-parser(columns("0", "MESSAGE") delimiters(" ")
                           flags(greedy) quote-pairs('[]'));
                csv-parser(columns("", ".solaris.msgid", "")
                           template("$0") delimiters(" "));
            };
        };
    };
};

block parser arr_internal(program() prefix()) {
    channel {
        parser {
            regexp-parser(
                patterns('^([^|]*)\\|([^|]*)\\|([^|]*)\\|(?<MESSAGE>(?:.|\\n)*)'));
            date-parser(template("$1") format("%Y-%m-%d %H:%M:%S.%f"));
        };
        rewrite {
            set("`program`" value("PROGRAM"));
            set-severity("$2");
            set("$3" value("`prefix`module"));
        };
    };
};

block source arr_internal(program() dir() filename() prefix() ...) {
    channel {
        source {
            file("`dir`/`filename`"
                multi-line-mode(regexp)
                multi-line-prefix('^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}.[0-9]{1}')
                multi-line-timeout(2) flags(no-parse) `__VARARGS__`);
        };
        parser { arr_internal(program("`program`") prefix("`prefix`")); };
    };
};

block source radarr(dir() prefix(".radarr.")) {
    arr_internal(program("Radarr") dir("`dir`") filename("radarr.txt") prefix("`prefix`"));
};
block source sonarr(dir() prefix(".sonarr.")) {
    arr_internal(program("Sonarr") dir("`dir`") filename("sonarr.txt") prefix("`prefix`"));
};
block source lidarr(dir() prefix(".lidarr.")) {
    arr_internal(program("Lidarr") dir("`dir`") filename("lidarr.txt") prefix("`prefix`"));
};
block source prowlarr(dir() prefix(".prowlarr.")) {
    arr_internal(program("Prowlarr") dir("`dir`") filename("prowlarr.txt") prefix("`prefix`"));
};
block source readarr(dir() prefix(".readarr.")) {
    arr_internal(program("Readarr") dir("`dir`") filename("readarr.txt") prefix("`prefix`"));
};
block source whisparr(dir() prefix(".whisparr.")) {
    arr_internal(program("Whisparr") dir("`dir`") filename("whisparr.txt") prefix("`prefix`"));
};

block source pacct(file("/var/log/account/pacct") follow-freq(1) ...) {
    file("`file`" follow-freq(`follow-freq`) format("pacct")
        tags(".pacct") `__VARARGS__`);
};

block destination logscale(url("https://cloud.humio.com") token()
    rawstring("${MESSAGE}") timestamp("${S_ISODATE}") timezone("")
    attributes("--scope rfc5424 --exclude MESSAGE --exclude DATE --leave-initial-dot")
    batch_lines(1000) timeout(10) workers(20)
    content_type("application/json") ...) {
    http(url("`url`/api/v1/ingest/humio-structured")
        headers("Authorization: Bearer `token`" "Content-Type: `content_type`")
        delimiter(",") body-prefix('[{"events":[')
        body("$(format-json --scope none --omit-empty-values rawstring=`rawstring` timestamp=`timestamp` timezone=`timezone` attributes=$(if (\\"`attributes`\\" ne \\"\\") $(format-json --scope none `attributes`) \\"\\"))")
        body-suffix(']}]') batch-lines(`batch_lines`) timeout(`timeout`)
        workers(`workers`) `__VARARGS__`);
};

block source mbox(filename() ...) {
    file("`filename`" log-msg-size(10000000) log-fetch-limit(1)
        flags(no-parse) multi-line-mode(prefix-suffix)
        multi-line-prefix('^From ') `__VARARGS__`);
};

block destination openobserve-log(url() port(5080) user() password()
    organization("default") stream("default") workers(4) batch_lines(100)
    batch_timeout(0) timeout(10) headers("Connection: keep-alive")
    record("--scope rfc5424 --exclude DATE --key ISODATE @timestamp=${ISODATE}")
    body_prefix("[") body_suffix("]") delimiter(",") ...) {
    http(url("`url`:`port`/api/`organization`/`stream`/_json")
        user(`user`) password(`password`) headers(`headers`)
        workers(`workers`) batch_lines(`batch_lines`) batch_timeout(`batch_timeout`)
        timeout(`timeout`) body_prefix(`body_prefix`) body_suffix(`body_suffix`)
        delimiter(`delimiter`) body("$(format-json --scope none `record`)") `__VARARGS__`);
};
"""


def compile_config(text: str, *, include_path: str | None = None,
                   defines: dict | None = None,
                   env: dict | None = None) -> Config:
    """Compile config text. Pragmas (@version/@define/@include/...) and
    backtick references are expanded first (config_prep, the
    cfg-lexer-subst.c / pragma-grammar.ym layer); `defines` is the
    command-line -D equivalent and `include_path` extends @include's
    search path. User `template-function` registrations are scoped to
    the returned Config (installed as the active overlay while its
    templates compile), never to the process-global function table."""
    from .functions.strings import ACTIVE_USER_FUNCS

    cfg = Config()
    tok = ACTIVE_USER_FUNCS.set(cfg.user_template_funcs)
    try:
        return _compile_config_inner(cfg, text, include_path, defines, env)
    finally:
        ACTIVE_USER_FUNCS.reset(tok)


def _compile_config_inner(cfg: Config, text: str,
                          include_path: str | None,
                          defines: dict | None,
                          env: dict | None) -> Config:
    prep = preprocess_config(SCL_LIBRARY + text, include_path=include_path,
                             defines=defines, env=env)
    text = prep.text
    s = _Stream(tokenize(text), text)
    cfg.version = prep.version
    cfg.defines = prep.defines
    while s.peek() is not None:
        t = s.peek()
        if t == "options":
            s.next()
            raw = s.raw_block()
            s.expect(";")
            # stats(level(N)) gates update_metric(level=) registration
            # (lib/stats/stats.c stats_check_level); other options are
            # runtime/transport knobs with no batch analogue
            m = re.search(r"stats\s*\(\s*level\s*\(\s*(\d+)\s*\)", raw)
            if m:
                cfg.stats_level = int(m.group(1))
        elif t == "python":
            # python { ... } code block (modules/python/python-confgen):
            # executes into a per-config namespace; $(python fname ...)
            # resolves against it through the config-scoped overlay
            s.next()
            code = s.raw_block()
            s.expect(";")
            from .functions.python_udf import (exec_python_block,
                                               make_python_tf)

            if not hasattr(cfg, "python_ns") or cfg.python_ns is None:
                cfg.python_ns = {}
            exec_python_block(code, cfg.python_ns)
            cfg.user_template_funcs["python"] = \
                make_python_tf(cfg.python_ns)
        elif t == "block":
            # `block KIND NAME(param(default)...) { body };` — the SCL
            # block shape (reference cfg-block.c, scl/*/). Bodies are
            # stored RAW (the preprocessor suspends substitution over
            # them) and generated at reference time with the invocation
            # args. Param-less `block filter` keeps the legacy eager
            # compile so it stays callable inside filter expressions.
            s.next()
            kind = s.next()
            if kind not in ("filter", "parser", "rewrite", "source",
                            "destination"):
                raise ConfigError(f"unsupported block kind {kind!r}")
            name = s.next()
            params = _parse_block_params(s)
            body = s.raw_block()
            s.expect(";")
            if kind == "filter":
                if params:
                    raise ConfigError(
                        "parameterized `block filter` is unsupported — "
                        "use a param-less named filter block")
                from .config_prep import BacktickSubst

                sub = BacktickSubst(globals=cfg.defines)
                btext = "".join(sub.invoke(ln)
                                for ln in body.splitlines(keepends=True))
                bs = _Stream(tokenize(btext), btext)
                cfg.filters[name] = _FilterParser(bs, cfg.filters).parse_block()
            else:
                cfg.blocks[(kind, _nid(name))] = (params, body)
        elif t == "source":
            s.next()
            name = _stmt_name(s.next())
            cfg.sources[name] = _parse_driver_block(s, cfg, "source")
            s.expect(";")
        elif t == "destination":
            s.next()
            name = _stmt_name(s.next())
            drivers, chan = _parse_destination_body(s, cfg)
            cfg.destinations[name] = _Destination(
                name, drivers, chan, user_funcs=cfg.user_template_funcs)
            s.expect(";")
        elif t == "filter":
            s.next()
            name = _stmt_name(s.next())
            s.expect("{")
            cfg.filters[name] = _FilterParser(s, cfg.filters).parse_block()
            s.expect("}")
            s.expect(";")
        elif t == "template-function":
            # template-function "name" "body"; — a user-defined template
            # function: $(name) evaluates the body against the message;
            # arguments are a compile error (lib/template/user-function.c
            # :43-47). Registered in the engine-wide function table like
            # the reference's plugin registry (a later definition of the
            # same name wins).
            s.next()
            name = _unquote(s.next())
            body = _unquote(s.next())
            s.expect(";")
            from .functions.templates import Template as _Tpl

            cache: dict = {}

            def _user_fn(table, *args, _body=body, _name=name, _c=cache):
                if args:
                    raise ValueError(
                        f"User defined template function $({_name}) "
                        "cannot have arguments")
                if "t" not in _c:
                    _c["t"] = _Tpl(_body)
                return _c["t"].eval(table)

            # Config-scoped (NOT the process-global table): consulted
            # first by FuncCall binding while THIS config compiles/runs,
            # so user functions never contaminate other configs.
            cfg.user_template_funcs[name] = _user_fn
        elif t == "application":
            # application NAME[topic] { filter {}; parser {}; filterx {}; };
            # (modules/appmodel/appmodel-parser.c) — sections stored as
            # RAW text and spliced by the app-parser() generator
            s.next()
            nt = s.next()
            m = re.fullmatch(r"([\w.-]+)\[([\w.-]+)\]", nt)
            if not m:
                raise ConfigError(f"application needs NAME[topic], got {nt!r}")
            sections: dict[str, str] = {}
            s.expect("{")
            while s.peek() != "}":
                kind2 = s.next()
                if kind2 not in ("filter", "parser", "filterx", "rewrite"):
                    raise ConfigError(
                        f"unsupported application section {kind2!r}")
                sections[kind2] = s.raw_block()
                if s.peek() == ";":
                    s.next()
            s.expect("}")
            s.expect(";")
            cfg.applications.append((m.group(1), m.group(2), sections))
        elif t == "transformation":
            # transformation NAME[topic] { transform[T] { step["S"] {
            # filterx{}|parser{} }; }; }; (modules/appmodel/transformation.c)
            # — step bodies stored RAW, spliced by app-transform()
            s.next()
            nt = s.next()
            m = re.fullmatch(r"([\w.-]+)\[([\w.-]+)\]", nt)
            if not m:
                raise ConfigError(f"transformation needs NAME[topic], got {nt!r}")
            transforms: list[tuple[str, list]] = []
            s.expect("{")
            while s.peek() != "}":
                tn = s.next()
                tm = re.fullmatch(r"transform\[([\w.-]+)\]", tn)
                if not tm:
                    raise ConfigError(f"expected transform[NAME], got {tn!r}")
                steps: list[tuple[str, str, str]] = []
                s.expect("{")
                while s.peek() != "}":
                    if s.next() != "step[":
                        raise ConfigError("expected step[\"NAME\"]")
                    sname = _unquote(s.next())
                    s.expect("]")
                    s.expect("{")
                    kind2 = s.next()
                    if kind2 not in ("filterx", "parser"):
                        raise ConfigError(
                            f"unsupported step section {kind2!r}")
                    steps.append((sname, kind2, s.raw_block()))
                    if s.peek() == ";":
                        s.next()
                    s.expect("}")
                    if s.peek() == ";":
                        s.next()
                transforms.append((tm.group(1), steps))
                s.expect("}")
                if s.peek() == ";":
                    s.next()
            s.expect("}")
            s.expect(";")
            cfg.transformations.append((m.group(1), m.group(2), transforms))
        elif t == "template":
            # named template statement (reference lib/cfg-grammar.y
            # template_stmt): block form `template NAME {
            # template("..."); template-escape(no); };` or the simple
            # form `template NAME "...";` — referenced by bare name in
            # destination template() options and via $(template NAME)
            s.next()
            name = s.next()
            body = None
            if s.peek() == "{":
                s.next()
                while s.peek() != "}":
                    d = _parse_driver(s)
                    s.expect(";")
                    if d.name == "template" and d.args:
                        body = str(d.args[0])
                    # template-escape() accepted and ignored
                s.expect("}")
            else:
                body = _unquote(s.next())
            s.expect(";")
            if body is None:
                raise ConfigError(f"template {name!r} has no template() body")
            cfg.templates[name] = body
        elif t == "filterx":
            s.next()
            name = _stmt_name(s.next())
            cfg.filterx[name] = cfg._compile_filterx(s.raw_block())
            s.expect(";")
        elif t == "parser":
            s.next()
            name = _stmt_name(s.next())
            cfg.parsers[name] = [cfg._compile_stage("parser", d)
                                 for d in _parse_driver_block(s, cfg, "parser")]
            s.expect(";")
        elif t == "rewrite":
            s.next()
            name = _stmt_name(s.next())
            cfg.rewrites[name] = [_compile_rewrite(d, cfg.filters)
                                  for d in _parse_driver_block(s, cfg, "rewrite")]
            s.expect(";")
        elif t == "log":
            s.next()
            pname = _stmt_name(s.next()) if s.peek() != "{" else None
            elems = _parse_log_elements(s, cfg)
            s.expect(";")
            ch = _to_channel(elems)
            ch.name = pname
            cfg.paths.append(ch)
        else:
            raise ConfigError(f"unsupported top-level statement {t!r}")

    def _resolve_tpl(text: str) -> str:
        # literal $(template NAME [fallback...]) resolves statically;
        # unknown names keep the fallback text (reference tf_template)
        def one(m: re.Match) -> str:
            name = m.group(1)
            if name in cfg.templates:
                return cfg.templates[name].rstrip("\n")
            return m.group(2).strip() if m.group(2) else m.group(0)

        return re.sub(r"\$\(template\s+([^\s)]+)\s*([^)]*)\)", one, text)

    cfg.templates = {k: _resolve_tpl(v) for k, v in cfg.templates.items()}
    for dst in cfg.destinations.values():
        if dst.template is not None:
            raw = _unquote(str(dst.template))
            if raw in cfg.templates:
                dst.template = cfg.templates[raw]
            elif "$(template " in raw:
                dst.template = _resolve_tpl(raw)
    return cfg
