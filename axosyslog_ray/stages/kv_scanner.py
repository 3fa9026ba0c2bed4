"""Faithful port of the reference KV scanner.

lib/scanner/kv-scanner/kv-scanner.c + lib/str-repr/decode.c as one
scalar state machine: keys scan backwards from each value-separator
([A-Za-z0-9._-], spaces trimmed between key and separator), values
decode with the str-repr quoting rules (C escapes inside quotes,
unknown escapes keep the backslash, junk after a closing quote fails
the decode and yields the raw slice), and the kv _match_delimiter
heuristics decide where an unquoted value ends — a space only delimits
when a `key=` follows, the configurable pair separator always does.
Stray-word modes: None (initial words skipped, later words glued into
values by the delimiter heuristics), 'collect' ($(stray words) list),
'append-to-last-value' (value runs to the next `<sep>key=`).

This is the engine's one kv semantics: kv-parser() (stages/kv_parser.py)
runs it on every row its Arrow split cannot prove equivalent and is
checked against it for every input; pinned case-by-case against
lib/scanner/kv-scanner/tests/test_kv_scanner.c in
tests/test_kv_scanner_conformance.py.
"""

from __future__ import annotations

_ESCAPES = {"b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t",
            "\\": "\\"}


def _is_valid_key_character(c: str) -> bool:
    return ("a" <= c <= "z") or ("A" <= c <= "Z") or ("0" <= c <= "9") \
        or c in "_.-"


class KVScanner:
    def __init__(self, value_separator: str = "=",
                 pair_separator: str | None = None,
                 stray_words_mode: str | None = None,
                 transform_value=None, stop_char: str = "\0"):
        self.value_separator = value_separator
        self.pair_separator = ", " if pair_separator is None \
            else pair_separator
        self.stray_words_mode = stray_words_mode  # None|'collect'|'append'
        self.transform_value = transform_value
        self.stop_char = stop_char
        self.input_text = ""
        self.pos = 0
        self.key = ""
        self.value = ""
        self.value_was_quoted = False
        self._stray: list[str] = []

    def input(self, text: str):
        self.input_text = text
        self.pos = 0
        self._stray = []

    # -- helpers ---------------------------------------------------------
    def _ch(self, i: int) -> str:
        """C-string view: one NUL past the end."""
        return self.input_text[i] if i < len(self.input_text) else "\0"

    def _locate_end_of_key(self, sep: int) -> int:
        cur = sep
        while cur > self.pos and self._ch(cur - 1) == " ":
            cur -= 1
        return cur

    def _locate_start_of_key(self, end_of_key: int) -> int:
        cur = end_of_key
        while cur > self.pos and _is_valid_key_character(self._ch(cur - 1)):
            cur -= 1
        return cur

    def _extract_stray_word(self, start: int, end: int):
        word = self.input_text[start:end].strip(" ")
        if word:
            from ..functions.strings import _ser_elem

            self._stray.append(_ser_elem(word))

    def get_stray_words(self) -> str:
        return ",".join(self._stray)

    def _extract_key(self) -> bool:
        input_start = self.pos
        sep = self.input_text.find(self.value_separator, self.pos)
        while sep != -1:
            end_of_key = self._locate_end_of_key(sep)
            start_of_key = self._locate_start_of_key(end_of_key)
            if end_of_key - start_of_key >= 1:
                self.key = self.input_text[start_of_key:end_of_key]
                if self.stray_words_mode == "collect":
                    self._extract_stray_word(input_start, start_of_key)
                self.pos = sep + 1
                return True
            sep = self.input_text.find(self.value_separator, sep + 1)
        if self.stray_words_mode == "collect":
            self._extract_stray_word(input_start, len(self.input_text))
        return False

    def _key_follows(self, cur: int) -> bool:
        key = cur
        while _is_valid_key_character(self._ch(key)):
            key += 1
        k2 = key
        while self._ch(k2) == " ":
            k2 += 1
        return key != cur and self._ch(k2) == self.value_separator

    def _pair_separator_at(self, cur: int):
        ps = self.pair_separator
        if ps and self.input_text.startswith(ps, cur):
            return cur + len(ps)
        return None

    def _match_delimiter(self, cur: int):
        """kv-scanner.c _match_delimiter: returns new_cur or None."""
        c = self._ch(cur)
        if not self.value_was_quoted and c == " ":
            if self.pair_separator.startswith(" "):
                nc = self._pair_separator_at(cur)
                if nc is not None:
                    return nc
            j = cur
            while self._ch(j) == " ":
                j += 1
            if j >= len(self.input_text) or self._key_follows(j):
                return j
            nc = self._pair_separator_at(j)
            if nc is not None:
                return nc
            return None
        if c == " ":
            return cur + 1
        if c == self.stop_char:
            return cur
        return self._pair_separator_at(cur)

    # -- value decoding (str-repr decode with kv delimiters) -------------
    def _decode_str_repr(self, start: int):
        """Returns (value, end, success) — lib/str-repr/decode.c _decode
        with the kv delimiter set {' ', pair_separator[0], stop_char}."""
        INITIAL, STRING, BACKSLASH, EXPECT_DELIM, ERROR, UNQUOTED = range(6)
        delims = {" ", self.pair_separator[:1] or " ", self.stop_char}

        def try_delim(i):
            if self._ch(i) in delims:
                return self._match_delimiter(i)
            return None

        state = INITIAL
        buf: list[str] = []
        quote = ""
        i = start
        n = len(self.input_text)
        finished = None  # True = success, False = failure
        while i < n:
            c = self.input_text[i]
            if state == INITIAL:
                nc = try_delim(i)
                if nc is not None:
                    finished = True
                    i = nc
                    break
                if c in "\"'":
                    quote = c
                    state = STRING
                else:
                    buf.append(c)
                    state = UNQUOTED
            elif state == STRING:
                if c == quote:
                    state = EXPECT_DELIM
                elif c == "\\":
                    state = BACKSLASH
                else:
                    buf.append(c)
            elif state == BACKSLASH:
                if c in _ESCAPES:
                    buf.append(_ESCAPES[c])
                else:
                    if quote != c:
                        buf.append("\\")
                    buf.append(c)
                state = STRING
            elif state == EXPECT_DELIM:
                nc = try_delim(i)
                if nc is not None:
                    finished = True
                    i = nc
                    break
                state = ERROR
                continue  # reprocess c in ERROR (C switch falls to next i)
            elif state == ERROR:
                nc = try_delim(i)
                if nc is not None:
                    finished = False
                    i = nc
                    break
                # stay in ERROR, consume the char
            elif state == UNQUOTED:
                nc = try_delim(i)
                if nc is not None:
                    finished = True
                    i = nc
                    break
                buf.append(c)
            i += 1
        if finished is None:
            finished = state in (INITIAL, EXPECT_DELIM, UNQUOTED)
        if not finished:
            return self.input_text[start:i], i, False
        return "".join(buf), i, True

    def _decode_value_until_next_key(self, start: int):
        """KVSSWM_APPEND_TO_LAST_VALUE: the value runs until the next
        '<pair_separator[0]>key<sep>' boundary."""
        sep = self.input_text.find(self.value_separator, start)
        while sep != -1:
            end_of_key = self._locate_end_of_key(sep)
            start_of_key = self._locate_start_of_key(end_of_key)
            if start_of_key == start or \
                    self._ch(start_of_key - 1) != self.pair_separator[:1]:
                sep = self.input_text.find(self.value_separator, sep + 1)
                continue
            value_len = start_of_key - 1 - start
            self.value = self.input_text[start:start + value_len]
            self.pos += value_len + 1
            return
        self.value = self.input_text[start:]
        self.pos += len(self.value)

    def _extract_value(self):
        self.value_was_quoted = False
        # skip initial spaces that are NOT delimiters
        i = self.pos
        while self._ch(i) == " " and self._match_delimiter(i) is None:
            i += 1
        self.pos = i
        if self.stray_words_mode == "append":
            self._decode_value_until_next_key(self.pos)
            return
        self.value_was_quoted = self._ch(self.pos) in "\"'"
        value, end, ok = self._decode_str_repr(self.pos)
        if not ok:
            self.value_was_quoted = False
        self.value = value
        self.pos = end

    def scan_next(self) -> bool:
        if self._ch(self.pos) == self.stop_char:
            return False
        if not self._extract_key():
            return False
        self._extract_value()
        if self.transform_value is not None:
            self.value = self.transform_value(self.value)
        return True


def kv_scan(text: str, value_separator: str = "=",
            pair_separator: str | None = None,
            stray_words_mode: str | None = None,
            transform_value=None):
    """Scan a whole line: returns (pairs, stray_words, quoted_flags)."""
    s = KVScanner(value_separator, pair_separator, stray_words_mode,
                  transform_value)
    s.input(text)
    pairs: list[tuple[str, str]] = []
    quoted: list[bool] = []
    while s.scan_next():
        pairs.append((s.key, s.value))
        quoted.append(s.value_was_quoted)
    return pairs, s.get_stray_words(), quoted
