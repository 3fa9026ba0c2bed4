"""kv-parser(): scan key=value pairs into a map column (+ promoted fields).

Semantics are the reference kv parser's (reference
modules/kvformat/kv-parser.c:104-136), whose scanner
(lib/scanner/kv-scanner/kv-scanner.c) is ported as
stages/kv_scanner.kv_scan: configurable value-separator, quoted values
(str-repr decoding), `prefix()` on the emitted keys, pair-separator,
and stray-word collection.

Vectorization: rows of the whitelist shape below are split with Arrow
compute calls. There the scanner's heuristics have nothing to decide,
so the split is exact:
- `key<sep>value` pairs joined by `, ` or spaces;
- a bare value holds no ASCII whitespace, comma, quote, backslash or NUL; it
  ends at `, `, at spaces before the next `key<sep>`, or at the end;
- a double-quoted value holds no `"`, backslash, separator or NUL; it
  ends at `, `, ` ` or the end;
- stray words (no separator, comma, quote, backslash) stand only at the
  start, after a quoted value or after a `, `, where the scanner skips
  them; with stray-word collection on, the shape has none;
- a row without a separator (no pairs) is of the shape too, unless
  stray words are collected.
One `replace_substring_regex` rewrites each pair of a guarded row as
`\x1ekey\x1fvalue\x1e` (no row of the shape holds those two characters),
and two `split_pattern`s give keys and values; a quoted value loses its
quotes there. Every other row runs the scalar scanner, and the two are
merged back in row order.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .kv_scanner import _is_valid_key_character, kv_scan

# the whitelist shape (module docstring) as RE2 pieces, for a re-escaped
# one-char separator `sep`; `fast_kv_promote` (pipelines/flagship.py)
# reads a key's last value with the `=` ones
_KV_KEY = r"[A-Za-z0-9._-]+"
_KV_BARE = r'[^\s,"\'\\\x00\x1c-\x1f]*'


def _kv_quoted(sep: str) -> str:
    return rf'"[^"\\{sep}\x00\x1c-\x1f]*"'


def _kv_simple(sep: str, strays: bool = True) -> str:
    """The guard: a whole row of the shape; without `strays`, a row
    holds no stray word."""
    # spaces and stray words, each stray word followed by spaces
    free = rf'[ ]*(?:[^\s,"\'\\{sep}\x00\x1c-\x1f]+[ ]+)*' if strays else "[ ]*"
    pair = (rf"{_KV_KEY}{sep}(?:{_kv_quoted(sep)}(?:,? {free}|$)"
            rf"|{_KV_BARE}(?:, {free}|[ ]+|$))")
    no_pairs = rf"|[^{sep}\x1c-\x1f]*" if strays else ""
    return rf"^(?:{free}(?:{pair})+{no_pairs})$"


def _kv_pair(sep: str) -> str:
    """One pair of a guarded row: groups (key, value), the value still
    quoted. Its leftmost match is always the next key — stray words
    hold no separator and a quoted value is consumed whole."""
    return rf"({_KV_KEY}){sep}({_kv_quoted(sep)}|{_KV_BARE})"


_KV_QUOTED = _kv_quoted("=")
_KV_SIMPLE = _kv_simple("=")


class KvParser:
    def __init__(
        self,
        value_separator: str = "=",
        prefix: str = "",
        collect_stray: bool = False,
        promote: list[str] | None = None,
        source_col: str = "message",
        out_col: str = "kv",
        pair_separator: str | None = None,
        stray_into: str | None = None,
    ):
        """Every row parses exactly as kv_scan does (tests pin the batch
        output against it for every input). `collect_stray` adds a
        `stray_words` column; `stray_into` (extract-stray-words-into())
        instead emits the str_repr-encoded stray-word list as one extra
        pair under that key — the scl/sudo sudo-parser contract: its
        csv-parser reads $(list-head $0) from it. `promote` copies the
        last value of each named key into its own column."""
        self.value_separator = value_separator
        self.prefix = prefix
        self.pair_separator = pair_separator
        self.stray_into = stray_into
        self.collect_stray = collect_stray or stray_into is not None
        self.promote = promote or []
        self.source_col = source_col
        self.out_col = out_col
        # the Arrow split needs a one-char printable separator that is
        # not itself a key character — the scanner scans keys over
        # those, so on `aa=.a` with separator `a` it skips the empty key
        # the split takes, and with `-` it never ends `a-b c-d`'s first
        # value — nor a char the shape gives a meaning; a custom pair
        # separator changes where values end, so it always runs the
        # scanner
        self._simple_re = self._pair_re = None
        if (len(value_separator) == 1 and value_separator.isascii()
                and value_separator.isprintable()
                and not _is_valid_key_character(value_separator)
                and value_separator not in " \"'\\,"
                and pair_separator is None):
            sep = re.escape(value_separator)
            self._simple_re = _kv_simple(sep, strays=not self.collect_stray)
            self._pair_re = _kv_pair(sep)

    def _postprocess_value(self, value: str, was_quoted: bool,
                           key: str = "") -> str:
        """Hook for kv variants (linux-audit hex decode); applied on BOTH
        the scalar and the vectorized batch path. `key` is the raw
        (unprefixed) key — reference kv_scanner_set_transform_value
        hooks see the scanner's key too."""
        return value

    def parse_line(self, line: str) -> tuple[list[tuple[str, str]], str]:
        """Scalar path: returns ([(key, value)...], stray_words)."""
        raw_pairs, stray, quoted = kv_scan(
            line, value_separator=self.value_separator,
            pair_separator=self.pair_separator,
            stray_words_mode="collect" if self.collect_stray else None)
        out = [(self.prefix + k, self._postprocess_value(v, q, k))
               for (k, v), q in zip(raw_pairs, quoted)]
        if self.stray_into is not None and stray:
            out.append((self.prefix + self.stray_into, stray))
        return out, stray

    def _split_simple(self, text: pa.Array, rows: np.ndarray):
        """(row, key, value) of guarded rows via Arrow: each pair
        rewritten as `\x1ekey\x1fvalue\x1e`, then split twice."""
        if not len(rows):
            empty = pa.array([], type=pa.string())
            return rows, empty, empty
        marked = pc.replace_substring_regex(
            text.take(pa.array(rows)), self._pair_re, "\x1e\\1\x1f\\2\x1e")
        pieces = pc.split_pattern(marked, "\x1e")
        # the pieces between pairs hold separators and stray words
        flat = pc.list_flatten(pieces)
        is_pair = pc.match_substring(flat, "\x1f")
        kv = pc.split_pattern(flat.filter(is_pair), "\x1f", max_splits=1)
        keys, vals = pc.list_element(kv, 0), pc.list_element(kv, 1)
        quoted = pc.starts_with(vals, '"')
        vals = pc.if_else(quoted, pc.utf8_slice_codeunits(vals, 1, -1), vals)
        if type(self)._postprocess_value is not KvParser._postprocess_value:
            post = self._postprocess_value
            vals = pa.array([post(v, q, k) for v, q, k in zip(
                vals.to_pylist(), quoted.to_pylist(), keys.to_pylist())],
                type=pa.string())
        tok_rows = rows[pc.list_parent_indices(pieces).to_numpy()]
        return tok_rows[is_pair.to_numpy(zero_copy_only=False)], keys, vals

    def __call__(self, table: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(table.column(self.source_col),
                                    pa.string()), "").combine_chunks()
        n = len(text)
        if self._simple_re is not None:
            simple = pc.match_substring_regex(text, self._simple_re) \
                .to_numpy(zero_copy_only=False)
        else:
            simple = np.zeros(n, dtype=bool)
        fast_rows, fast_keys, fast_vals = self._split_simple(
            text, np.flatnonzero(simple))

        # scalar rows (parse_line output is prefixed — strip the prefix
        # so the merge works on raw keys); with strays collected, guarded
        # rows have none
        strays = np.full(n, "", dtype=object)
        plen = len(self.prefix)
        sc_rows, sc_keys, sc_vals = [], [], []
        slow = np.flatnonzero(~simple)
        for r, line in zip(slow, text.take(pa.array(slow)).to_pylist()):
            pairs, strays[r] = self.parse_line(line)
            for k, v in pairs:
                sc_rows.append(r)
                sc_keys.append(k[plen:])
                sc_vals.append(v)

        rows_all = np.concatenate([fast_rows, np.asarray(sc_rows, dtype=np.int64)])
        # each row's pairs come from ONE of the two paths, in order
        # there — a stable sort by row restores global row order
        perm = pa.array(np.argsort(rows_all, kind="stable"))
        rows_sorted = rows_all[perm.to_numpy()]
        keys_raw = pa.chunked_array([fast_keys, pa.array(sc_keys, pa.string())]) \
            .take(perm).combine_chunks()
        vals_sorted = pa.chunked_array([fast_vals, pa.array(sc_vals, pa.string())]) \
            .take(perm).combine_chunks()
        offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(rows_sorted, minlength=n))])
        out_keys = keys_raw if not self.prefix else pc.binary_join_element_wise(
            pa.scalar(self.prefix), keys_raw, pa.scalar(""))
        out = table.append_column(self.out_col, pa.MapArray.from_arrays(
            pa.array(offsets, type=pa.int32()), out_keys, vals_sorted))
        if self.collect_stray:
            out = out.append_column("stray_words",
                                    pa.array(strays, type=pa.string()))
        for k in self.promote:
            sel = np.flatnonzero(pc.equal(keys_raw, pa.scalar(k)).to_numpy(
                zero_copy_only=False))
            col = np.full(n, None, dtype=object)
            # dict(pairs): LAST occurrence in a row wins — duplicate
            # fancy-assignment indices keep the final write
            col[rows_sorted[sel]] = np.array(
                vals_sorted.take(pa.array(sel)).to_pylist(), dtype=object)
            out = out.append_column(self.prefix + k,
                                    pa.array(col, type=pa.string()))
        return out
