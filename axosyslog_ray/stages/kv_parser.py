"""kv-parser(): scan key=value pairs into a map column (+ promoted fields).

Semantics are the reference kv parser's (reference
modules/kvformat/kv-parser.c:104-136), whose scanner
(lib/scanner/kv-scanner/kv-scanner.c) is ported as
stages/kv_scanner.kv_scan: configurable value-separator, quoted values
(str-repr decoding), `prefix()` on the emitted keys, pair-separator,
and stray-word collection.

Vectorization: rows of the plain machine-log shape — space-separated
`key<sep>value` tokens with no quotes, backslashes, commas, control
characters or Unicode whitespace — are split with a few Arrow compute
calls (split on spaces, split each token once on the separator); on
those rows the scanner's heuristics have nothing to decide, so the
split is exact.
Every other row runs the scalar scanner, and the two are merged back in
row order.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .kv_scanner import _is_valid_key_character, kv_scan

_KEY = r"[A-Za-z0-9][A-Za-z0-9._-]*"

# Unicode whitespace keeps a row off the Arrow split; RE2 has no \uXXXX,
# so the simple-row guard lists the characters literally
UNICODE_WS_CHARS = ("\u0085\u00a0\u1680"
                    + "".join(chr(c) for c in range(0x2000, 0x200B))
                    + "\u2028\u2029\u202f\u205f\u3000")


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
        # the Arrow split needs a one-char separator that is not itself
        # a key character — the scanner scans keys over those, so on
        # `aa=.a` with separator `a` it skips the empty key the split
        # takes, and with `-` it never ends `a-b c-d`'s first value —
        # nor a char the guard excludes; a custom pair separator changes
        # where values end, so it always runs the scanner
        self._simple_re = None
        if (len(value_separator) == 1 and value_separator.isascii()
                and not _is_valid_key_character(value_separator)
                and value_separator not in " \"'\\,\t\n"
                and pair_separator is None):
            vs = re.escape(value_separator)
            v_cls = (r"[^ \"'\\,\t\n\r\v\f\x00\x1c-\x1f"
                     + UNICODE_WS_CHARS + "]")
            self._simple_re = (
                rf"^[ ]*(?:{_KEY}{vs}{v_cls}*[ ]+)*{_KEY}{vs}{v_cls}*[ ]*$")

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
        """(row, key, value) of guarded rows via Arrow splits."""
        tokens = pc.split_pattern(text.take(pa.array(rows)), " ")
        tok_rows = rows[pc.list_parent_indices(tokens).to_numpy()]
        flat = pc.list_flatten(tokens)
        nonempty = pc.not_equal(flat, "")
        kv = pc.split_pattern(flat.filter(nonempty), self.value_separator,
                              max_splits=1)
        keys, vals = pc.list_element(kv, 0), pc.list_element(kv, 1)
        if type(self)._postprocess_value is not KvParser._postprocess_value:
            post = self._postprocess_value
            vals = pa.array([post(v, False, k) for v, k in
                             zip(vals.to_pylist(), keys.to_pylist())],
                            type=pa.string())
        return tok_rows[nonempty.to_numpy(zero_copy_only=False)], keys, vals

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
        # so the merge works on raw keys); guarded rows have no strays
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
