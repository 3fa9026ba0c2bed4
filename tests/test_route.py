"""Filter + routing tests.

Routing is first-match with fallback routes last, the all-final case of
the reference's multiplexer (reference lib/logmpx.c:97-130,
lib/cfg-tree.h:36-40; assertion style of
tests/light/functional_tests/logpath/test_conditionals.py:77-101 —
per-sink content + counts).
"""

import fnmatch
import re
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from axosyslog_ray.functions.templates import Template
from axosyslog_ray.route import (
    Cmp, Facility, InList, Match, Netmask, Router, Severity, TagFilter, TRUE,
    host, program,
)
from axosyslog_ray.stages.rewrite import set_tag
from axosyslog_ray.stages.syslog import parse_syslog_table


def _msgs(*lines):
    t = pa.table(
        {
            "url": [f"u{i}" for i in range(len(lines))],
            "warc_ts": pa.array(pd.Series([pd.Timestamp("2026-08-17")] * len(lines), dtype="datetime64[us]")),
            "text": list(lines),
        }
    )
    return parse_syslog_table(t)


T = _msgs(
    "<0>Aug 17 05:00:00 h1 kernel: panic",          # kern.emerg
    "<38>Aug 17 05:00:01 h2 sshd[1]: login ok",     # auth.info
    "<13>Aug 17 05:00:02 h1 app: hello world",      # user.notice
    "<11>Aug 17 05:00:03 h3 app: oops fail",        # user.err
    "plain unparsed line",
)


def test_severity_and_facility():
    assert Severity("emerg").mask(T).tolist() == [True, False, False, False, False]
    assert Severity(0, 3).mask(T).tolist() == [True, False, False, True, False]
    assert Facility("auth").mask(T).tolist() == [False, True, False, False, False]


def test_match_kinds():
    assert Match("fail").mask(T).tolist() == [False, False, False, True, False]
    assert Match("hello world", kind="string").mask(T).tolist() == [False, False, True, False, False]
    assert host("h*", kind="glob").mask(T).tolist() == [True, True, True, True, False]
    assert program("^ss").mask(T).tolist() == [False, True, False, False, False]


def test_cmp_modes():
    assert Cmp("$SEVERITY_NUM", "<", "4", mode="numeric").mask(T).tolist() == [True, False, False, True, False]
    assert Cmp("$HOST", "==", "h1", mode="string").mask(T).tolist() == [True, False, True, False, False]
    # type-aware: numeric when both numeric, else string (filter-cmp.h:33-40)
    assert Cmp("$PRI", ">=", "13", mode="type-aware").mask(T).tolist() == [False, True, True, False, True]


def test_boolean_algebra():
    m = (Severity(0, 3) | Facility("auth")) & ~host("h3")
    assert m.mask(T).tolist() == [True, True, False, False, False]


def test_tag_filter():
    t2 = set_tag(T, "seen", condition=host("h1"))
    assert TagFilter("seen").mask(t2).tolist() == [True, False, True, False, False]


def test_in_list_semi_join():
    assert InList(["h1", "h9"], "HOST").mask(T).tolist() == [True, False, True, False, False]


def test_netmask_range():
    t = pa.table({"src_ip": ["10.0.0.5", "10.0.1.5", "192.168.1.1", None]})
    assert Netmask("10.0.0.0/24", "src_ip").mask(t).tolist() == [True, False, False, False]
    assert Netmask("10.0.0.0/16", "src_ip").mask(t).tolist() == [True, True, False, False]


def _router():
    return (
        Router()
        .add("sev_high", Severity(0, 3))
        .add("auth", Facility("auth"))
        .add("h1_traffic", host("^h1$"))
        .add("other", TRUE, fallback=True)
    )


def test_router_final_first_match_wins():
    masks = _router().masks(T)
    assert masks["sev_high"].tolist() == [True, False, False, True, False]
    assert masks["auth"].tolist() == [False, True, False, False, False]
    # row 0 is h1 but was claimed by final sev_high
    assert masks["h1_traffic"].tolist() == [False, False, True, False, False]
    assert masks["other"].tolist() == [False, False, False, False, True]


def test_router_fallback_only_unmatched():
    r = Router().add("a", Severity("emerg")).add("rest", TRUE, fallback=True)
    masks = r.masks(T)
    assert masks["rest"].tolist() == [False, True, True, True, True]


def test_router_add_rejects_a_duplicate_name():
    r = Router().add("a", Severity(0, 3))
    with pytest.raises(ValueError, match="duplicate route name: 'a'"):
        r.add("a", Facility("auth"))
    with pytest.raises(ValueError, match="'rest'"):
        Router().add("rest", TRUE, fallback=True).add("rest", Severity("emerg"))
    assert [x.name for x in r.routes] == ["a"]


def test_route_first_labels_for_partitioned_write():
    t = _router().route_first(T)
    assert t.column("route").to_pylist() == ["sev_high", "auth", "h1_traffic", "sev_high", "other"]


def _labels_per_row(router, table, unmatched="_unmatched"):
    """route_first's label as an object array filled mask by mask."""
    label = np.full(table.num_rows, unmatched, dtype=object)
    for name, m in router.masks(table).items():
        label[m] = name
    return pa.array(label, pa.string())


def test_route_first_label_edge_cases():
    finals = Router().add("sev_high", Severity(0, 3)).add("auth", Facility("auth"))
    nothing = Router().add("none", Match("no such text"))
    clash = Router().add("_unmatched", Facility("auth")).add("user", Facility("user"))
    cases = [(_router(), T), (finals, T), (nothing, T), (clash, T), (_router(), T.slice(0, 0)),
             (Router(), T)]
    for router, table in cases:
        got = router.route_first(table).column("route")
        assert got.type == pa.string()
        assert got.combine_chunks().equals(_labels_per_row(router, table))
    assert nothing.route_first(T).column("route").to_pylist() == ["_unmatched"] * 5
    assert finals.route_first(T, unmatched="sev_high").column("route").to_pylist() == [
        "sev_high", "auth", "sev_high", "sev_high", "sev_high"]
    assert clash.route_first(T).column("route").to_pylist() == [
        "_unmatched", "_unmatched", "user", "user", "user"]
    assert _router().route_first(T.slice(0, 0)).column("route").to_pylist() == []


def test_match_string_flags_reference_pins():
    # lib/tests/test_matcher.c string_match / glob_match expectations
    import pyarrow as pa

    from axosyslog_ray.route import Match

    t = pa.table({"message": ["match", "árvíztűrőtükörfúrógép", "abcdef", ""]})

    def m(pattern, kind="string", flags=()):
        return Match(pattern, "MESSAGE", kind, flags=flags).mask(t).tolist()

    # bare string kind is EXACT full-value compare
    assert m("match") == [True, False, False, False]
    assert m("valami-amivel-nem-szabadna-matchelni") == [False] * 4
    # prefix / substring flags
    assert m("ma", flags=("prefix",)) == [True, False, False, False]
    assert m("tch", flags=("substring",)) == [True, False, False, False]
    assert m("árvíz", flags=("prefix",)) == [False, True, False, False]
    assert m("tűrő", flags=("substring",)) == [False, True, False, False]
    # icase
    assert m("ABCDEF", flags=("prefix", "icase")) == [False, False, True, False]
    assert m("BCD", flags=("substring", "icase")) == [False, False, True, False]
    # glob is a full match
    assert m("árvíz*", kind="glob") == [False, True, False, False]
    assert m("*fúrógép", kind="glob") == [False, True, False, False]
    assert m("*fúró*", kind="glob") == [False, True, False, False]
    assert m("tükör", kind="glob") == [False, False, False, False]
    # pcre searches anywhere; icase flag
    assert m("tűrő", kind="pcre") == [False, True, False, False]
    assert m("BCD", kind="pcre", flags=("icase",)) == [False, False, True, False]


# ---- template values through Template.eval_arrow, tested with Arrow ----

# ASCII letters in both cases, case-fold oddities (dotted I, sharp s,
# Kelvin sign, final sigma), accents, a space and regex/glob specials
_ALPHABET = "aAbB İıßẞKkσςΣéÉ.*?"
_VALUES = st.lists(st.one_of(st.none(), st.text(_ALPHABET, max_size=6)),
                   min_size=0, max_size=12)
_TEMPLATES = ["$c", "${c}", "$MESSAGE", "${MSG}", "$HOST", "$missing",
              "${c:-d}", "${missing:-d}", "${HOST:-d}", "x$c", "$c$HOST",
              "lit", "", "$n", "${c}@1"]


def _value_table(c, message, host):
    n = min(len(c), len(message), len(host))
    return pa.table({"c": pa.array(c[:n], pa.string()),
                     "message": pa.array(message[:n], pa.string()),
                     "host": pa.array(host[:n], pa.string()),
                     "n": pa.array(range(n), pa.int64())})


def _parent_match(m: Match, table) -> np.ndarray:
    """Match.mask as it was before values came from eval_arrow: pandas
    string ops, RE2 when it takes the pattern, else pandas `re` (glob's
    `re` fallback now honours ignore-case, as the RE2 path always did)."""
    vals = m.tmpl.eval(table)
    if m.kind == "string":
        v, p = vals.astype("string"), m.pattern
        if m.icase:
            v, p = v.str.lower(), p.lower()
        if "prefix" in m.flags:
            return v.str.startswith(p).fillna(False).to_numpy(dtype=bool)
        if "substring" in m.flags:
            return v.str.contains(p, regex=False, na=False).to_numpy(dtype=bool)
        return (v == p).fillna(False).to_numpy(dtype=bool)
    try:
        arr = pa.array(vals.to_numpy(dtype=object), type=pa.string())
        return np.asarray(pc.fill_null(pc.match_substring_regex(
            arr, m._re2_pattern), False).to_numpy(zero_copy_only=False),
            dtype=bool)
    except pa.ArrowInvalid:
        pass
    flags = re.IGNORECASE if m.icase else 0
    if m.kind == "pcre":
        with warnings.catch_warnings():  # "has match groups"
            warnings.simplefilter("ignore", UserWarning)
            return vals.astype("string").str.contains(
                re.compile(m.pattern, flags), regex=True, na=False).to_numpy()
    return vals.astype("string").str.match(
        re.compile(fnmatch.translate(m.pattern), flags), na=False).to_numpy()


@settings(max_examples=300, deadline=None)
@given(_VALUES, _VALUES, _VALUES, st.sampled_from(_TEMPLATES))
def test_eval_arrow_equals_rendered_eval(c, message, host, spec):
    t = _value_table(c, message, host)
    tpl = Template(spec)
    want = pa.array(tpl.eval(t).to_numpy(dtype=object), type=pa.string())
    assert tpl.eval_arrow(t).equals(want)


_MATCHERS = (
    [("pcre", p, ()) for p in ["a", "^a", "b$", "A.b", "é", "[ab]+$",
                               "(?<=a)b", "(a)\\1", "ß"]]
    + [("pcre", p, ("ignore-case",)) for p in ["a", "(?<=a)B", "É", "k"]]
    + [("glob", p, f) for p in ["a*", "*b", "*a*b*", "a*b*", "a?", "[ab]*",
                               "*é*"]
       for f in [(), ("ignore-case",)]]
    + [("string", p, f) for p in ["a", "ab", "", "A", "İ", "ß", "k", "σ"]
       for f in [(), ("prefix",), ("substring",), ("ignore-case",),
                 ("prefix", "ignore-case"), ("substring", "ignore-case")]]
)


@settings(max_examples=150, deadline=None)
@given(_VALUES, _VALUES, _VALUES, st.sampled_from(_TEMPLATES))
def test_match_mask_equals_parent(c, message, host, spec):
    t = _value_table(c, message, host)
    for kind, pattern, flags in _MATCHERS:
        m = Match(pattern, spec, kind, flags)
        assert np.array_equal(m.mask(t), _parent_match(m, t)), \
            (kind, pattern, flags)


@settings(max_examples=200, deadline=None)
@given(_VALUES, _VALUES, _VALUES, st.sampled_from(_TEMPLATES),
       st.lists(st.text(_ALPHABET, max_size=3), max_size=4),
       st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "===", "!=="]),
       st.sampled_from(["$c", "$HOST", "a", "", "é", "${missing:-a}"]))
def test_in_list_and_string_cmp_equal_parent(c, message, host, spec, values,
                                             op, right):
    import operator

    t = _value_table(c, message, host)
    in_list = InList(values, spec)
    vals = in_list.tmpl.eval(t)
    want = pc.is_in(pa.array(vals.to_numpy(dtype=object), type=pa.string()),
                    value_set=pa.array(sorted(set(values)), pa.string()))
    assert np.array_equal(in_list.mask(t), want.to_numpy(zero_copy_only=False))
    vals = Template(spec).eval(t)
    opf = getattr(operator, Cmp.OPS[op])
    want = opf(vals.astype(str), Template(right).eval(t).astype(str))
    assert np.array_equal(Cmp(spec, op, right, mode="string").mask(t),
                          want.to_numpy())
