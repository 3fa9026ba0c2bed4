"""Filter + routing tests.

Routing is first-match with fallback routes last, the all-final case of
the reference's multiplexer (reference lib/logmpx.c:97-130,
lib/cfg-tree.h:36-40; assertion style of
tests/light/functional_tests/logpath/test_conditionals.py:77-101 —
per-sink content + counts).
"""

import numpy as np
import pandas as pd
import pyarrow as pa

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


def test_route_first_labels_for_partitioned_write():
    t = _router().route_first(T)
    assert t.column("route").to_pylist() == ["sev_high", "auth", "h1_traffic", "sev_high", "other"]


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
