"""PatternDB: typed-wildcard pattern matching with rule metadata.

Mirrors the reference's db-parser()/PatternDB classification
(reference modules/correlation/patterndb.c:591-623 process, :513-570
matching-rule path; parser types modules/correlation/radix.h:33-52;
ruleset load modules/correlation/pdb-load.c). Rules are declared with
the reference's wildcard syntax (@ESTRING:name:term@, @NUMBER:name@,
@IPv4:name@, @QSTRING:name:q@, @STRING:name@, @FLOAT:name@,
@ANYSTRING:name@, @SET:name:chars@, @EMAIL:name@, @HOSTNAME:name@,
@MACADDR:name@), compiled once per PatternDB instance into anchored
regexes with named groups.

Rule selection is the reference's radix lookup (radix.c:1482-1566), the
only one: literal edges beat parser edges at every position, and when no
rule matches the whole message a rule matching a PREFIX of it wins. The
flagship, db-parser() and pdbtool all run it. The bulk matching is
vectorized — one RE2 pass per rule over the rows its program gate
admits — and the per-row trie walk (stages/radix.py) runs only for rows
two or more rules match in full, or that no rule matches in full but
some rule matches a prefix of.

A matched rule writes: `pdb_rule` (rule id), `pdb_class` (rule class,
default 'system'), the extracted values into the `pdb_values` map, and
merges the rule's tags into `tags`. Unmatched rows keep nulls
(`pdb_rule is null` ≙ the reference's 'unknown' classification).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .radix import RadixTree
from .syslog import _scatter

_WILDCARD = re.compile(r"@([A-Za-z0-9]+)(?::([^:@]*)(?::([^@]*))?)?@")

_TYPE_PATTERNS = {
    "STRING": r"\S+",
    "NUMBER": r"\d+",
    "FLOAT": r"\d+(?:\.\d+)?",
    "IPv4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "IPv6": r"[0-9A-Fa-f:]+",
    "IP": r"(?:\d{1,3}\.){3}\d{1,3}|[0-9A-Fa-f:]+",
    "ANYSTRING": r".*",
    "EMAIL": r"[^\s@]+@[^\s@]+",
    "HOSTNAME": r"[A-Za-z0-9._-]+",
    "MACADDR": r"(?:[0-9A-Fa-f]{2}:){5}[0-9A-Fa-f]{2}",
    "NLSTRING": r"[^\n]*",
}


def _enc_name(name: str) -> str:
    """Regex group names must be identifiers; PatternDB value names may
    be dotted (.win.TargetUserName, .dict.string — pdb v4/v5 rulesets).
    Non-identifier names encode reversibly as px_<hex>."""
    return name if name.isidentifier() else "px_" + name.encode().hex()


def _dec_name(name: str) -> str:
    if name.startswith("px_"):
        try:
            return bytes.fromhex(name[3:]).decode()
        except ValueError:
            return name
    return name


def compile_pattern(pattern: str) -> re.Pattern:
    """Compile a PatternDB pattern string into an anchored regex."""
    out, pos = [], 0
    for m in _WILDCARD.finditer(pattern):
        out.append(re.escape(pattern[pos : m.start()]))
        ptype, name, param = m.group(1), m.group(2) or "", m.group(3)
        grp = f"(?P<{_enc_name(name)}>" if name else "(?:"
        if ptype == "ESTRING":
            # match up to the terminator string; empty terminator -> to end
            if param:
                out.append(grp + r".*?" + ")" + re.escape(param))
            else:
                out.append(grp + r".*" + ")")
        elif ptype == "QSTRING":
            q = param or "'"
            qo, qc = (q[0], q[1]) if len(q) >= 2 else (q[0], q[0])
            out.append(re.escape(qo) + grp + f"[^{re.escape(qc)}]*" + ")" + re.escape(qc))
        elif ptype == "SET":
            chars = re.escape(param or " ")
            out.append(grp + f"[{chars}]+" + ")")
        elif ptype in ("OPTIONALSET",):
            chars = re.escape(param or " ")
            out.append(grp + f"[{chars}]*" + ")")
        elif ptype == "PCRE":
            out.append(grp + (param or r".*") + ")")
        elif ptype in _TYPE_PATTERNS:
            out.append(grp + _TYPE_PATTERNS[ptype] + ")")
        else:
            raise ValueError(f"unknown pattern parser @{ptype}@")
        pos = m.end()
    out.append(re.escape(pattern[pos:]))
    return re.compile("^" + "".join(out) + "$", re.S)


@dataclass
class PdbRule:
    rule_id: str
    pattern: str
    program: str | None = None  # exact program this rule applies to (None = any)
    rule_class: str = "system"
    tags: list[str] = field(default_factory=list)
    values: dict[str, str] = field(default_factory=dict)  # static extra values
    # ruleset <pattern> with @PARSER@ syntax: the PROGRAM is matched
    # through the radix grammar and its captures merge into the values
    # (reference test_patterndb.c match_in_program) — exclusive with
    # `program`
    program_pattern: str | None = None


_VALUES = pa.map_(pa.string(), pa.string())
_TAGS = pa.list_(pa.string())


def _py(strings: pa.Array) -> list:
    """Arrow strings -> Python list (via numpy: far cheaper than to_pylist)."""
    return strings.to_numpy(zero_copy_only=False).tolist()


# a small bundled ruleset matching the synthetic corpus (FIXTURES.md §3);
# shapes follow the reference's own example rules (pdb-example.c corpus)
DEFAULT_RULES = [
    PdbRule(
        "su-failed", "'su root' failed for @ESTRING:user: @on @ANYSTRING:tty@",
        program="su", rule_class="violation", tags=["auth", "su"],
    ),
    PdbRule(
        "sshd-accepted",
        "Accepted @ESTRING:auth_method: @for @ESTRING:user: @from @IPv4:client_ip@ port @NUMBER:port@ ssh2",
        program="sshd", rule_class="system", tags=["auth", "ssh"],
    ),
    PdbRule(
        "kernel-link-up", "@ESTRING:interface::@ link up",
        program="kernel", rule_class="system", tags=["network"],
    ),
]


class PatternDB:
    """A batch stage: `PatternDB(rules)(table)` appends `pdb_rule`,
    `pdb_class` and `pdb_values` and merges `tags`. The flagship calls it
    inside its fused stateless task; db-parser() and pdbtool call it
    directly.

    One batch is classified in three steps:

    1. each rule's program gate, once per batch and per DISTINCT
       program value; a rule's full-pattern regex then runs in one RE2
       pass, with no short-circuit, over the non-null messages its gate
       admits;
    2. rows that one rule matched take it; rows that two or more rules
       matched, and rows that no rule matched but some gated rule
       matches a PREFIX of, go to the trie walk (stages/radix.py),
       which picks among exactly those rules — literal edges beat
       parser edges, and a prefix match wins only when there is no
       complete one (the two-pass partial fallback, radix.c:1552);
    3. `pdb_rule`/`pdb_class` are `take`s from per-rule arrays;
       `pdb_values` is one MapArray over the winning rows, gathered by
       numpy entry indices from the regex pass's capture columns and
       small per-(rule, program) lists (`_values`); only a prefix-only
       row's captures come from the Python walk. A winning rule's tags
       are a `take` of its sorted tags, merged in Python only for rows
       that already carry tags. Each is put in place with one `take`."""

    def __init__(self, rules: list[PdbRule] | None = None):
        self.rules = rules if rules is not None else DEFAULT_RULES
        self.compiled = [compile_pattern(r.pattern) for r in self.rules]
        # the same regexes without the $ anchor flag prefix matches
        self.prefix_compiled = [re.compile(rx.pattern[:-1], re.S) for rx in self.compiled]
        self._prog_rx = {
            r.program_pattern: compile_pattern(r.program_pattern)
            for r in self.rules if r.program_pattern is not None
        }
        # one tree per exact program: a program-bound rule shadows a
        # match-any one, like the reference's program-level radix
        self.trees: dict[str | None, RadixTree] = {}
        for idx, r in enumerate(self.rules):
            self.trees.setdefault(r.program, RadixTree()).insert(r.pattern, idx)
        self._ids = pa.array([r.rule_id for r in self.rules], pa.string())
        self._classes = pa.array([r.rule_class for r in self.rules], pa.string())
        self._tags = pa.array([sorted(set(r.tags)) for r in self.rules], _TAGS)
        self._has_tags = np.array([bool(r.tags) for r in self.rules], dtype=bool)
        self._not_re2: set = set()

    def _gates(self, table: pa.Table):
        """-> (uniq, codes, gates): row i's program is `uniq[codes[i]]`
        (a null or missing program is the last, None); `gates` holds per
        rule its candidate row mask and, for a program-pattern rule, the
        program's captures per code (None where it does not match)."""
        n = table.num_rows
        if "program" in table.column_names:
            enc = pc.dictionary_encode(
                pc.cast(table.column("program").combine_chunks(), pa.string()))
            uniq = enc.dictionary.to_pylist() + [None]
            codes = pc.fill_null(enc.indices, len(uniq) - 1).to_numpy()
        else:
            uniq, codes = [None], np.zeros(n, dtype=np.int32)
        gates = []
        for rule in self.rules:
            if rule.program_pattern is None:
                caps = None
                ok = [rule.program is None or u == rule.program for u in uniq]
            else:
                rx = self._prog_rx[rule.program_pattern]
                caps = []
                for u in uniq:
                    m = rx.match(u) if u is not None else None
                    caps.append([(_dec_name(k), v) for k, v in m.groupdict().items()
                                 if v is not None] if m else None)
                ok = [c is not None for c in caps]
            gates.append((np.array(ok, dtype=bool)[codes], caps))
        return uniq, codes, gates

    def _match(self, rx: re.Pattern, sub: pa.Array, extract: bool = True):
        """One pass of `rx` over the candidate messages `sub` -> (hit bool
        ndarray, {group: Arrow values of the hit rows}). Arrow RE2 runs
        it in one C pass; a pattern RE2 rejects (@PCRE@ lookarounds,
        backreferences) runs through Python `re` per row from then on."""
        names = list(rx.groupindex) if extract else []
        if rx not in self._not_re2:
            try:
                if not names:
                    hit = pc.match_substring_regex(sub, "(?s)" + rx.pattern)
                    return hit.to_numpy(zero_copy_only=False), {}
                st = pc.extract_regex(sub, pattern="(?s)" + rx.pattern)
                ok = pc.is_valid(st)
                st = st.filter(ok)
                return ok.to_numpy(zero_copy_only=False), {
                    nm: pc.struct_field(st, nm) for nm in names}
            except pa.ArrowInvalid:
                self._not_re2.add(rx)
        # rx is ^-anchored without re.M, so match() is search()
        ms = [rx.match(s) for s in _py(sub)]
        hit = np.array([m is not None for m in ms], dtype=bool)
        return hit, {nm: pa.array([m.group(nm) for m in ms if m is not None], pa.string())
                     for nm in names}

    def _lookup(self, program, message: str, valid: set):
        """Trie walk: the program's own tree, then the match-any tree. A
        winner outside `valid` (the rules the vectorized pass found for
        this row) is skipped, so one tree cannot shadow a match the
        other holds."""
        for key in dict.fromkeys((program, None)):
            tree = self.trees.get(key)
            res = tree.lookup(message) if tree is not None else None
            if res is not None and res[0] in valid:
                return res
        return None

    def _values(self, winner, codes, gates, hits, walk_caps):
        """-> (won, values): the winning rows and their `pdb_values`, one
        MapArray in `won` order. A row's entries are its rule's static
        values, the program's captures for its program (both from small
        per-(rule, program) lists), then its non-null captures in group
        order — the regex pass's columns as they are, or, for a
        prefix-only row, the trie walk's. Entries are int64 indices into
        one key pool and one value pool, put in row order by a stable
        sort."""
        pre_k, pre_v = [], []  # the per-(rule, program) and walk entries
        names, cols = [], []  # capture group names, their won values
        won_rows, ent_rows, ent_pre = [], [], []
        cap_rows, cap_key, cap_val = [], [], []
        n_won = n_cap = 0

        def add_rows(wrows, lists, which):
            """Rows wrows join `won`, row wrows[k] with the leading
            entries lists[which[k]] -> their positions in `won`."""
            nonlocal n_won
            pos = np.arange(n_won, n_won + len(wrows))
            n_won += len(wrows)
            won_rows.append(wrows)
            lens = np.array([len(e) for e in lists], dtype=np.int64)
            starts = len(pre_k) + np.cumsum(lens) - lens
            for e in lists:
                pre_k.extend(k for k, _ in e)
                pre_v.extend(v for _, v in e)
            per_row = lens[which]
            first = np.cumsum(per_row) - per_row
            ent_rows.append(np.repeat(pos, per_row))
            ent_pre.append(np.repeat(starts[which] - first, per_row)
                           + np.arange(per_row.sum(), dtype=np.int64))
            return pos

        def rule_entries(idx, code):
            """Rule idx's static values, then its program's captures."""
            prog = gates[idx][1]
            return list(self.rules[idx].values.items()) + (prog[code] if prog else [])

        for idx, (rows, groups) in enumerate(hits):
            sel = winner[rows] == idx
            if not sel.any():
                continue
            wrows, keep = rows[sel], pa.array(sel)
            used, which = np.unique(codes[wrows], return_inverse=True)
            pos = add_rows(wrows, [rule_entries(idx, c) for c in used.tolist()], which)
            if groups:
                # an (m x G) entry matrix, row-major, less the null captures
                m = len(wrows)
                got = [v.filter(keep) for v in groups.values()]
                ok = np.column_stack([v.is_valid().to_numpy(zero_copy_only=False) for v in got])
                g = np.arange(len(names), len(names) + len(got))
                cap_rows.append(np.repeat(pos, len(got))[ok.ravel()])
                cap_key.append(np.broadcast_to(g, ok.shape)[ok])
                cap_val.append((n_cap + (g - g[0]) * m + np.arange(m)[:, None])[ok])
                names += [_dec_name(nm) for nm in groups]
                cols += got
                n_cap += m * len(got)
        if walk_caps:
            walked = np.fromiter(walk_caps, dtype=np.int64, count=len(walk_caps))
            lists = [rule_entries(winner[i], codes[i]) + caps for i, caps in walk_caps.items()]
            add_rows(walked, lists, np.arange(len(walked)))
        if not won_rows:
            return np.zeros(0, dtype=np.int64), pa.array([], _VALUES)

        n_pre = len(pre_k)
        rows = np.concatenate(ent_rows + cap_rows)
        order = np.argsort(rows, kind="stable")
        key = np.concatenate(ent_pre + [k + n_pre for k in cap_key])[order]
        val = np.concatenate(ent_pre + [v + n_pre for v in cap_val])[order]
        offsets = np.zeros(n_won + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n_won), out=offsets[1:])
        keys = pa.array(pre_k + names, pa.string()).take(key)
        vals = pa.concat_arrays([pa.array(pre_v, pa.string()), *cols]).take(val)
        return np.concatenate(won_rows), pa.MapArray.from_arrays(offsets, keys, vals, type=_VALUES)

    def __call__(self, table: pa.Table) -> pa.Table:
        n = table.num_rows
        col = table.column("message").combine_chunks()
        msg = pc.fill_null(pc.cast(col, pa.string()), "")
        msg_valid = ~col.is_null().to_numpy(zero_copy_only=False)
        uniq, codes, gates = self._gates(table)

        # 1. one full-match pass per rule, no short-circuit
        hit_count = np.zeros(n, dtype=np.int16)
        first_hit = np.full(n, -1, dtype=np.int32)
        hits = []  # per rule: (hit rows, {group: values})
        for idx, rx in enumerate(self.compiled):
            cand = np.flatnonzero(msg_valid & gates[idx][0])
            hit, cols = self._match(rx, msg.take(cand))
            rows = cand[hit]
            hit_count[rows] += 1
            first_hit[rows[first_hit[rows] < 0]] = idx
            hits.append((rows, cols))
        winner = np.where(hit_count == 1, first_hit, -1)

        # 2. the trie picks among the rules found for ambiguous rows and
        # among the prefix-matching rules for rows with no full match
        found: dict[int, set] = {}
        for idx, (rows, _) in enumerate(hits):
            for i in rows[hit_count[rows] >= 2].tolist():
                found.setdefault(i, set()).add(idx)
        zero = msg_valid & (hit_count == 0)
        for idx, rx in enumerate(self.prefix_compiled):
            cand = np.flatnonzero(zero & gates[idx][0])
            if len(cand):
                hit, _ = self._match(rx, msg.take(cand), extract=False)
                for i in cand[hit].tolist():
                    found.setdefault(i, set()).add(idx)
        walk_caps: dict[int, list] = {}
        if found:
            rows = np.fromiter(found, dtype=np.int64, count=len(found))
            for i, s in zip(found, _py(msg.take(rows))):
                res = self._lookup(uniq[codes[i]], s, found[i])
                if hit_count[i]:  # the regex pass holds the captures
                    winner[i] = res[0] if res is not None else first_hit[i]
                elif res is not None:  # prefix-only: the walk's captures
                    winner[i], walk_caps[i] = res

        # 3. the values and tags of the winning rows
        won, values = self._values(winner, codes, gates, hits, walk_caps)
        values = _scatter(n, [(won, values)], None, _VALUES)

        tags = (table.column("tags").combine_chunks().cast(_TAGS)
                if "tags" in table.column_names else pa.nulls(n, _TAGS))
        # a winning rule's tags merge into the row's own (a row without
        # any takes the rule's sorted tags as they are)
        tagged = won[self._has_tags[winner[won]]]
        has_old = pc.fill_null(pc.list_value_length(tags.take(tagged)), 0).to_numpy() > 0
        plain, merge = tagged[~has_old], tagged[has_old]
        merged = [sorted(set(self.rules[winner[i]].tags).union(old))
                  for i, old in zip(merge.tolist(), tags.take(merge).to_pylist())]
        tags = _scatter(n, [(plain, self._tags.take(winner[plain])),
                            (merge, pa.array(merged, _TAGS))],
                        pc.if_else(tags.is_valid(), tags, pa.scalar([], _TAGS)), _TAGS)

        which = pa.array(winner, mask=winner < 0)
        out = (table.append_column("pdb_rule", self._ids.take(which))
               .append_column("pdb_class", self._classes.take(which))
               .append_column("pdb_values", values))
        if "tags" in out.column_names:
            return out.set_column(out.column_names.index("tags"), "tags", tags)
        return out.append_column("tags", tags)
