"""Radix-trie rule selection for PatternDB.

Faithful model of the reference's lookup algorithm (reference
modules/correlation/radix.c:1482-1566 _find_node_recursively /
_find_node_with_state):

- patterns share literal prefixes in a compressed trie; parser
  wildcards are parser-edge nodes,
- at every node a LITERAL child match is preferred over parser
  children; parser children are tried in insertion (= rule
  declaration) order; the walk backtracks on dead ends,
- a first pass requires the input to be consumed completely; when it
  fails but some rule's whole pattern matched a PREFIX of the input,
  a second pass accepts that partial match (radix.c:1552-1563
  require_complete_match / partial_match_found),
- parser consumption is deterministic and greedy per type
  (radix.c:39-630 r_parser_* functions), so backtracking only happens
  across edges, never inside a parser.

This trie decides WHICH rule wins for ambiguous/overlapping patterns
and for prefix-only matches; the vectorized per-rule regexes in
patterndb.py remain the bulk-matching fast path (PatternDB.__call__
walks the trie only for rows two or more rules match in full, and for
rows no rule matches in full but some rule matches a prefix of).

Captures are collected during the walk with the reference's span
conventions: QSTRING strips the quotes (radix.c:54-116 match->ofs/len),
ESTRING consumes but does not capture the terminator (radix.c:169-190).
"""

from __future__ import annotations

import re

from dataclasses import dataclass, field


# consume regex fragments per parser type — the SAME fragments
# compile_pattern() uses, so trie consumption and the vectorized
# regexes agree by construction (patterndb._TYPE_PATTERNS)
def _type_patterns():
    from .patterndb import _TYPE_PATTERNS

    return _TYPE_PATTERNS


@dataclass
class _PSpec:
    """One parser edge: type + capture name + parameter."""

    ptype: str
    name: str
    param: str | None
    _rx: re.Pattern | None = None

    def __post_init__(self):
        tp = _type_patterns()
        if self.ptype in ("ESTRING", "QSTRING"):
            pass  # positional scan, no regex needed
        elif self.ptype == "SET":
            self._rx = re.compile(f"[{re.escape(self.param or ' ')}]+")
        elif self.ptype == "OPTIONALSET":
            self._rx = re.compile(f"[{re.escape(self.param or ' ')}]*")
        elif self.ptype == "PCRE":
            self._rx = re.compile(self.param or r".*", re.S)
        elif self.ptype in tp:
            self._rx = re.compile(tp[self.ptype], re.S)
        else:
            raise ValueError(f"unknown pattern parser @{self.ptype}@")

    def key(self):
        return (self.ptype, self.name, self.param)

    def consume(self, s: str, pos: int):
        """Deterministic greedy consume at `pos`. Returns
        (new_pos, cap_start, cap_end) or None."""
        if self.ptype == "ESTRING":
            term = self.param or ""
            if not term:
                return len(s), pos, len(s)
            idx = s.find(term, pos)
            if idx < 0:
                return None
            return idx + len(term), pos, idx
        if self.ptype == "QSTRING":
            q = self.param or "'"
            qo, qc = (q[0], q[1]) if len(q) >= 2 else (q[0], q[0])
            if pos >= len(s) or s[pos] != qo:
                return None
            idx = s.find(qc, pos + 1)
            if idx < 0:
                return None
            return idx + 1, pos + 1, idx
        m = self._rx.match(s, pos)
        if m is None or (m.end() == m.start() and self.ptype not in ("OPTIONALSET", "ANYSTRING", "NLSTRING")):
            return None
        return m.end(), m.start(), m.end()


@dataclass
class _Node:
    """Trie node: a literal segment with literal children (distinct
    first chars) and ordered parser children. `key is None` marks a
    parser-edge node (the reference's keylen == -1)."""

    key: str | None = ""
    children: dict = field(default_factory=dict)      # first char -> _Node
    pchildren: list = field(default_factory=list)     # [(_PSpec, _Node)]
    rule: object = None


def parse_segments(pattern: str):
    """Split a pattern into ('lit', text) / ('p', _PSpec) segments.
    `@@` escapes a literal @ (pdb pattern syntax)."""
    from .patterndb import _WILDCARD

    segs, pos = [], 0
    for m in _WILDCARD.finditer(pattern):
        if m.start() > pos:
            segs.append(("lit", pattern[pos:m.start()].replace("@@", "@")))
        segs.append(("p", _PSpec(m.group(1), m.group(2) or "", m.group(3))))
        pos = m.end()
    if pos < len(pattern):
        segs.append(("lit", pattern[pos:].replace("@@", "@")))
    return segs


class RadixTree:
    """Insert rules in declaration order; lookup returns
    (rule, [(name, value), ...]) or None."""

    def __init__(self):
        self.root = _Node("")

    def insert(self, pattern: str, rule) -> None:
        self._insert(self.root, parse_segments(pattern), rule)

    def _insert(self, node: _Node, segs, rule) -> None:
        if not segs:
            if node.rule is None:  # first rule wins on exact duplicates
                node.rule = rule
            return
        kind = segs[0][0]
        if kind == "p":
            spec = segs[0][1]
            for espec, child in node.pchildren:
                if espec.key() == spec.key():
                    self._insert(child, segs[1:], rule)
                    return
            child = _Node(None)
            node.pchildren.append((spec, child))
            self._insert(child, segs[1:], rule)
            return
        text = segs[0][1]
        child = node.children.get(text[0])
        if child is None:
            nd = _Node(text)
            node.children[text[0]] = nd
            self._insert(nd, segs[1:], rule)
            return
        # split on the common prefix (compressed radix edge)
        ck = child.key
        cl = 0
        while cl < len(text) and cl < len(ck) and text[cl] == ck[cl]:
            cl += 1
        if cl < len(ck):
            # split child: child keeps the suffix under a new intermediate
            inter = _Node(ck[:cl])
            node.children[text[0]] = inter
            child.key = ck[cl:]
            inter.children[child.key[0]] = child
            child = inter
        rest = text[cl:]
        self._insert(child, ([("lit", rest)] if rest else []) + segs[1:], rule)

    # -- lookup (radix.c _find_node_with_state two-pass) --

    def lookup(self, s: str):
        state = {"partial": False}
        res = self._walk(self.root, s, 0, True, [], state)
        if res is None and state["partial"]:
            res = self._walk(self.root, s, 0, False, [], state)
        return res

    def _walk(self, node: _Node, s: str, pos: int, complete: bool,
              caps: list, state: dict):
        key = node.key
        if key:  # consume this node's literal segment
            if not s.startswith(key, pos):
                return None
            pos += len(key)
        if pos == len(s):
            if node.rule is not None:
                return node.rule, list(caps)
            # input exhausted: only zero-width parser children can match
            # (radix.c:1513-1522, e.g. OPTIONALSET/ANYSTRING)
            return self._try_parsers(node, s, pos, complete, caps, state)
        # input remains: literal child first, then parsers in order
        child = node.children.get(s[pos])
        if child is not None:
            ret = self._walk(child, s, pos, complete, caps, state)
            if ret is not None:
                return ret
        ret = self._try_parsers(node, s, pos, complete, caps, state)
        if ret is not None:
            return ret
        if node.rule is not None:
            # pattern fully matched a PREFIX of the input
            if not complete:
                return node.rule, list(caps)
            state["partial"] = True
        return None

    def _try_parsers(self, node: _Node, s: str, pos: int, complete: bool,
                     caps: list, state: dict):
        for spec, child in node.pchildren:
            c = spec.consume(s, pos)
            if c is None:
                continue
            new_pos, c0, c1 = c
            if spec.name:
                caps.append((spec.name, s[c0:c1]))
            ret = self._walk(child, s, new_pos, complete, caps, state)
            if ret is not None:
                return ret
            if spec.name:
                caps.pop()  # backtrack
        return None
