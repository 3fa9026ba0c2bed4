"""Property-based robustness tests (hypothesis): parsers are total
functions over arbitrary input — never raise, preserve row counts — and
encode/parse pairs round-trip."""

import hypothesis.strategies as st
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings

from axosyslog_ray.filterx_ext import parse_cef
from axosyslog_ray.functions.templates import Template
from axosyslog_ray.stages.csv_parser import CsvParser
from axosyslog_ray.stages.json_parser import JsonParser
from axosyslog_ray.stages.kv_parser import KvParser
from axosyslog_ray.stages.syslog import parse_syslog_table
from axosyslog_ray.stages.xml_parser import XmlParser

text_lines = st.lists(st.text(max_size=200), min_size=0, max_size=20)


def _table(lines):
    return pa.table(
        {
            "message": pa.array(lines, type=pa.string()),
            "text": pa.array(lines, type=pa.string()),
            "warc_ts": pa.array(pd.Series([pd.Timestamp("2026-01-01")] * len(lines), dtype="datetime64[us]")),
        }
    )


@settings(max_examples=40, deadline=None)
@given(text_lines)
def test_syslog_parser_total(lines):
    out = parse_syslog_table(_table(lines))
    assert out.num_rows == len(lines)
    assert out.column("message").null_count == 0 or len(lines) == 0


@settings(max_examples=40, deadline=None)
@given(text_lines)
def test_csv_kv_json_xml_parsers_total(lines):
    t = _table(lines)
    for parser in (
        CsvParser(columns=["a", "b"], delimiters=","),
        KvParser(collect_stray=True),
        JsonParser(with_types=True),
        XmlParser(),
    ):
        out = parser(t)
        assert out.num_rows == len(lines)
    assert len(parse_cef(t.column("message").to_pandas())) == len(lines)


KEY = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)
VAL = st.text(alphabet=st.characters(blacklist_characters='\\"', blacklist_categories=("Cs", "Cc")), max_size=30)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(KEY, VAL, min_size=1, max_size=5))
def test_welf_format_then_kv_parse_roundtrip(d):
    # format-welf emits k=v with quoting; kv-parser must recover the pairs
    t = pa.table({k: pa.array([v], type=pa.string()) for k, v in d.items()})
    welf = Template("$(format-welf --key *)").eval(t).tolist()[0]
    parsed = KvParser(source_col="m")(pa.table({"m": [welf]})).to_pylist()[0]
    got = dict(parsed["kv"])
    for k, v in d.items():
        assert got.get(k) == v, (welf, k, got.get(k), v)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 191), min_size=1, max_size=10))
def test_pri_roundtrip_through_macros(pris):
    from axosyslog_ray.functions.macros import FACILITY_NUM, SEVERITY_NUM, facility_name, severity_name

    t = pa.table({"pri": pa.array(pris, type=pa.uint16())})
    fac, sev = facility_name(t), severity_name(t)
    recon = [FACILITY_NUM[f] * 8 + SEVERITY_NUM[s] for f, s in zip(fac, sev)]
    assert recon == pris


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=' ,"\''),
                max_size=24),
        min_size=1, max_size=8,
    ),
    st.sampled_from(["escape-none", "escape-backslash", "escape-double-char"]),
    st.booleans(),
)
def test_csv_vectorized_equals_scalar_scanner(lines, dialect, greedy):
    """The Arrow fast path and the scalar scanner must agree on arbitrary
    input (quoted, empty fields, wrong arity) for every dialect."""
    from axosyslog_ray.stages.csv_parser import CsvParser

    p = CsvParser(columns=["a", "b", "c"], delimiters=",", dialect=dialect, greedy=greedy)
    out = p(pa.table({"message": lines})).to_pylist()
    for line, row in zip(lines, out):
        want = p.parse_tokens(line)
        if want is None:
            assert not row["csv_valid"], (line, row)
        else:
            assert row["csv_valid"] and [row["a"], row["b"], row["c"]] == want, (line, want, row)
