"""Driver-contract query registry: one entry per implemented operator.

Each query has a Ray Data implementation (callable taking `sf_dir`) and
a DuckDB oracle producing the SAME column names and value types (SQL, or
a committed golden parquet for seeded queries SQL cannot express) — the
driver hash-compares them at sf=0.01
(CORRECTNESS_r{N}.json). Floating-point aggregates are rounded on BOTH
sides so distributed summation order can't flip the hash.

Operator -> reference mapping is in each function's docstring; SURVEY.md
§2 is the inventory these keys tick off. Each query is declared once:
`@_query(oracle=SQL)` on its function registers both sides.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..ann.kmeans import cluster_balanced_sql, kmeans_sql, semdedup_sql
from ..hashutil import half_away

RAY_QUERIES: dict[str, Callable[[str], Any]] = {}
ORACLE_SQLS: dict[str, str] = {}


def _query(oracle: str):
    """Register the decorated function as the registry query of its name,
    hash-checked against the DuckDB `oracle` SQL."""

    def register(fn):
        if fn.__name__ in RAY_QUERIES:
            raise ValueError(f"registry query {fn.__name__!r} is declared twice")
        RAY_QUERIES[fn.__name__] = fn
        ORACLE_SQLS[fn.__name__] = oracle
        return fn

    return register


_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "tests", "golden")


def _golden(file: str, select: str, order: str, lines: bool = False) -> str:
    """Oracle of a seeded query that SQL cannot express: the committed
    golden parquet in tests/golden/ (a regression pin generated at sf0.01
    by scripts/gen_golden_oracles.py, disclosed as weaker than an
    independent computation in each query's docstring). perfbench/mix.py
    rewrites the read_parquet('.../tests/golden/...') path to its own
    checkout, so the path keeps that form."""
    parts = (f"SELECT {select} FROM", f"read_parquet('{_GOLDEN_DIR}/{file}')", f"ORDER BY {order}")
    return "\n" + "\n".join(parts) + "\n" if lines else " ".join(parts)


def _sorted(out: pd.DataFrame, by, ascending=True) -> pd.DataFrame:
    """Result epilogue: `out` sorted by `by`, with a fresh index."""
    return out.sort_values(by, ascending=ascending).reset_index(drop=True)


def round_half_away(s: pd.Series, digits: int = 2) -> pd.Series:
    """`s` rounded to `digits` decimals half away from zero (DuckDB ROUND())."""
    f = 10.0 ** digits
    return half_away(s.astype(float), f) / f


_BLOCKS_TUNED = False


def _query_vec(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """Driver-side bounded fetch of ONE query vector via a direct
    parquet predicate read — a Ray pipeline execution just to pull one
    row cost ~2 s of fixed startup per emb_* query at bench scale (and
    re-executed the filtered read the scan then runs again)."""
    import pyarrow.parquet as pq_

    t = pq_.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", vec_id)])
    return np.asarray(t.column("embedding").to_pylist()[0], dtype=np.float64)


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    # central read hook: split reads into at least 2 blocks/CPU and no
    # more (Ray's default minimum of 200 shreds small test tables into
    # ~kB blocks and per-block driver scheduling dominates; inert at
    # scale — context.py)
    global _BLOCKS_TUNED
    if not _BLOCKS_TUNED:
        from ..context import tune_read_blocks

        tune_read_blocks()
        _BLOCKS_TUNED = True
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# relational / aggregate machinery
# ---------------------------------------------------------------------------


@_query(oracle="""
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(AVG(l_quantity), 2) AS avg_qty,
       CAST(COUNT(*) AS BIGINT) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
""")
def q1_pricing(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate — exercises the native two-phase
    groupby path (reference analogue: stats aggregators, lib/stats/aggregator/)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def add_rev(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return b.append_column("disc_price", rev)

    out = (
        ds.map_batches(add_rev, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"):
        out[c] = round_half_away(out[c], 2)
    return out


@_query(oracle="""
SELECT r.r_name, n.n_name,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       ROUND(AVG(c.c_acctbal), 2) AS avg_acctbal
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name, n.n_name
""")
def customer_nation_join(sf_dir: str):
    """Broadcast small-side join (the reference's add-contextual-data shape,
    modules/add-contextual-data/): customer -> nation -> region dicts held
    in the map stage, zero shuffle; then two-phase count + avg."""
    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    n2name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    n2region = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))

    def enrich(b: pa.Table) -> pa.Table:
        nk = b.column("c_nationkey").to_numpy()
        n_name = pa.array([n2name.get(k) for k in nk], type=pa.string())
        r_name = pa.array([r2name.get(n2region.get(k)) for k in nk], type=pa.string())
        return b.append_column("n_name", n_name).append_column("r_name", r_name)

    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"]).map_batches(enrich, batch_format="pyarrow")
    out = (
        ds.groupby(["r_name", "n_name"])
        .aggregate(Count(alias_name="n_customers"), Mean("c_acctbal", alias_name="avg_acctbal"))
        .to_pandas()
    )
    out["avg_acctbal"] = round_half_away(out["avg_acctbal"], 2)
    return out


@_query(oracle="SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id ASC LIMIT 10")
def docs_topk(sf_dir: str):
    """Global top-k via the tree aggregate (window.global_topk: per-block
    local top-k combiner + driver merge of num_blocks x k rows — no
    AllToAll[Sort] for k=10; reference analogue is the bounded-state
    stats-aggregator maxima, lib/stats/aggregator/stats-maximum.c)."""
    from ..window import global_topk

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = global_topk(ds, ["n_chars", "doc_id"], 10,
                      descending=[True, False])
    return out[["doc_id", "n_chars"]]


# ---------------------------------------------------------------------------
# routing / filters
# ---------------------------------------------------------------------------


@_query(oracle="""
SELECT CASE WHEN event_type = 'error' THEN 'errors'
            WHEN event_type = 'purchase' AND value > 100 THEN 'big_purchases'
            WHEN user_id < 5 THEN 'active_users'
            ELSE 'other' END AS route,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1
""")
def events_route_counts(sf_dir: str):
    """Predicate routing with final/fallback semantics
    (reference lib/logmpx.c:97-130) over the events stream; per-sink counts
    (the Light-suite per-sink assertion style)."""
    from ..aggregate import pre_aggregated_count
    from ..route import Cmp, Router, TRUE, And

    router = (
        Router()
        .add("errors", Cmp("$event_type", "==", "error", mode="string"))
        .add("big_purchases", And(Cmp("$event_type", "==", "purchase", mode="string"), Cmp("$value", ">", "100", mode="numeric")))
        .add("active_users", Cmp("$user_id", "<", "5", mode="numeric"))
        .add("other", TRUE, fallback=True)
    )
    ds = _read(sf_dir, "events", ["event_type", "value", "user_id"]).map_batches(
        lambda b: router.route_first(b).select(["route"]), batch_format="pyarrow"
    )
    return pre_aggregated_count(ds, ["route"], alias="n").to_pandas()


@_query(oracle="""
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events
WHERE user_id IN (1, 3, 5, 7) GROUP BY user_id
""")
def events_in_list(sf_dir: str):
    """in-list() semi-join filter (reference lib/filter/filter-in-list.c:41-90)."""
    from ..aggregate import pre_aggregated_count

    allow = pa.array([1, 3, 5, 7], type=pa.int64())

    def filt(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column("user_id"), value_set=allow))

    ds = _read(sf_dir, "events", ["user_id"]).map_batches(filt, batch_format="pyarrow")
    return pre_aggregated_count(ds, ["user_id"], alias="n").to_pandas()


_FACILITIES_SQL = (
    "['kern','user','mail','daemon','auth','syslog','lpr','news','uucp','cron',"
    "'authpriv','ftp','ntp','security','console','solaris-cron','local0','local1',"
    "'local2','local3','local4','local5','local6','local7']"
)
_SEVERITIES_SQL = "['emerg','alert','crit','err','warning','notice','info','debug']"


@_query(oracle=f"""
SELECT ({_FACILITIES_SQL})[CAST((event_id % 192) // 8 AS INT) + 1] AS facility,
       ({_SEVERITIES_SQL})[CAST((event_id % 192) % 8 AS INT) + 1] AS severity,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
""")
def events_severity_stats(sf_dir: str):
    """facility()/severity() derivation from pri (reference
    lib/filter/filter-pri.c; macros lib/template/macros.c): synthetic
    pri = event_id % 192, counts by facility+severity name."""
    from ..aggregate import pre_aggregated_count
    from ..functions.macros import facility_name, severity_name

    def derive(b: pa.Table) -> pa.Table:
        pri = (b.column("event_id").to_numpy() % 192).astype(np.uint16)
        t = b.append_column("pri", pa.array(pri, type=pa.uint16()))
        fac = pa.array(facility_name(t).to_numpy(dtype=object), type=pa.string())
        sev = pa.array(severity_name(t).to_numpy(dtype=object), type=pa.string())
        return pa.table({"facility": fac, "severity": sev})

    ds = _read(sf_dir, "events", ["event_id"]).map_batches(derive, batch_format="pyarrow")
    return pre_aggregated_count(ds, ["facility", "severity"], alias="n").to_pandas()


# ---------------------------------------------------------------------------
# parsers / rewrites / templates
# ---------------------------------------------------------------------------


@_query(oracle="""
SELECT event_type,
       CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY event_type
""")
def events_json_extract(sf_dir: str):
    """json-parser() flatten + typed extraction (reference
    modules/json/json-parser.c:85-180,329) over events.props."""
    from ..stages.json_parser import JsonParser
    from ray.data.aggregate import Sum

    jp = JsonParser(source_col="props", promote=["k"])

    def parse(b: pa.Table) -> pa.Table:
        t = jp(b)
        k = pc.cast(t.column("k"), pa.int64())
        return pa.table({"event_type": t.column("event_type"), "k": k})

    ds = _read(sf_dir, "events", ["event_type", "props"]).map_batches(parse, batch_format="pyarrow")

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas().groupby("event_type", as_index=False).agg(sum_k=("k", "sum"), n=("k", "size"))
        return pa.table(
            {
                "event_type": pa.array(df["event_type"], type=pa.string()),
                "sum_k": pa.array(df["sum_k"]),
                "n": pa.array(df["n"]),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("sum_k", alias_name="sum_k"), Sum("n", alias_name="n"))
        .to_pandas()
    )


@_query(oracle="""
SELECT regexp_extract(text, '^(\\w+)', 1) AS first_word, CAST(COUNT(*) AS BIGINT) AS n
FROM documents GROUP BY 1
""")
def docs_regex_first_word(sf_dir: str):
    """regexp-parser() named-group extraction (reference
    modules/regexp-parser/regexp-parser.c) — first word of documents.text."""
    from ..aggregate import pre_aggregated_count
    from ..stages.regexp_parser import RegexpParser

    rp = RegexpParser(r"^(?P<first_word>\w+)", source_col="text")

    def parse(b: pa.Table) -> pa.Table:
        return rp(b).select(["first_word"])

    ds = _read(sf_dir, "documents", ["text"]).map_batches(parse, batch_format="pyarrow")
    return pre_aggregated_count(ds, ["first_word"], alias="n").to_pandas()


@_query(oracle="SELECT doc_id, replace(text, 'spark', 'SPARK') AS text_rw FROM documents")
def docs_subst(sf_dir: str):
    """subst() rewrite (reference lib/rewrite/rewrite-subst.c:49-78):
    global regex substitution, byte-compared per doc."""
    from ..stages.rewrite import subst

    def rw(b: pa.Table) -> pa.Table:
        t = subst(b, "spark", "SPARK", field="text")
        return pa.table({"doc_id": b.column("doc_id"), "text_rw": t.column("text")})

    return _map_documents(sf_dir, rw)


@_query(oracle="SELECT doc_id, upper(lang) || ':' || source || ':' || CAST(length(text) AS VARCHAR) AS fmt FROM documents")
def docs_template_format(sf_dir: str):
    """Template projection + $() functions (reference lib/template/,
    modules/basicfuncs/): '$(uppercase $lang):$source:$(length $text)'."""
    from ..functions.templates import Template

    tmpl = Template("$(uppercase $lang):$source:$(length $text)")

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id"), "fmt": tmpl.eval_arrow(b)})

    return _read(sf_dir, "documents", ["doc_id", "lang", "source", "text"]).map_batches(fmt, batch_format="pyarrow").to_pandas()


@_query(oracle="""
SELECT l_returnflag AS flag, l_linestatus AS status, CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem GROUP BY 1, 2
""")
def lineitem_metrics_probe(sf_dir: str):
    """metrics-probe(): counters keyed by template labels (reference
    modules/metrics-probe/metrics-probe.c:93-110)."""
    from ..aggregate import metrics_probe

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    return metrics_probe(ds, {"flag": "$l_returnflag", "status": "$l_linestatus"}, alias="n").to_pandas()


# ---------------------------------------------------------------------------
# sessions (grouping-by)
# ---------------------------------------------------------------------------


@_query(oracle="""
WITH marked AS (
  SELECT user_id, ts, value,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 1800 SECOND THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), numbered AS (
  SELECT user_id, ts, value,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       MIN(ts) AS session_start, MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM numbered GROUP BY user_id, sid
""")
def events_sessions(sf_dir: str):
    """grouping-by() session windows (reference
    modules/correlation/groupingby.c:94-132, grouping-parser.c:233-290):
    key=user_id, timeout=1800s on ts, count + value sum per session."""
    from ..state.sessions import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = sessionize(
        ds, "user_id", timeout=1800, ts_col="ts",
        aggregates={"n_events": "count", "sum_value": "sum:value"},
    ).to_pandas()
    out["sum_value"] = round_half_away(out["sum_value"], 2)
    return out[["user_id", "session_id", "session_start", "session_end", "n_events", "sum_value"]]


# ---------------------------------------------------------------------------
# training-data ops: dedup, fingerprint, text analysis, ANN
# ---------------------------------------------------------------------------


@_query(oracle="""
SELECT CAST(MIN(doc_id) AS BIGINT) AS rep_id, CAST(COUNT(*) AS BIGINT) AS n_copies
FROM documents GROUP BY text
""")
def docs_exact_dedup(sf_dir: str):
    """Exact dedup: hash-partition + per-group first (SURVEY.md training-data
    ops; reference analogue suppress(), lib/logwriter.c:575-660)."""
    from ..dedup.exact import dedup_stats

    return dedup_stats(_read(sf_dir, "documents", ["doc_id", "text"])).to_pandas()[["rep_id", "n_copies"]]


def _map_documents(sf_dir: str, fn) -> pd.DataFrame:
    """`fn` over every (doc_id, text) batch of the documents table, sorted
    by doc_id."""
    out = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow").to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="SELECT doc_id, md5(lower(trim(text))) AS fingerprint FROM documents")
def docs_fingerprint(sf_dir: str):
    """Document fingerprinting: md5 of normalized text (crypto template
    functions analogue, reference modules/cryptofuncs/)."""
    from ..textstats import fingerprint_md5

    return _map_documents(sf_dir, lambda b: fingerprint_md5(b).select(["doc_id", "fingerprint"]))


@_query(oracle="""
SELECT doc_id,
       trim(regexp_replace(lower(nfc_normalize(
            replace(upper(text), ' ', '  ') || ' A' || chr(778))),
            '\\s+', ' ', 'g')) AS text_norm
FROM documents ORDER BY doc_id
""")
def docs_normalize(sf_dir: str):
    """Canonical text normalization (textstats.normalize_text): NFC +
    lowercase + whitespace collapse + trim. The query derives messy
    input deterministically (uppercase, doubled spaces, a trailing
    decomposed A+combining-ring) so the Unicode-composition path is
    exercised; DuckDB reproduces with nfc_normalize/lower/
    regexp_replace byte-for-byte."""
    from ..textstats import normalize_text

    def mk(b: pa.Table) -> pa.Table:
        messy = pc.binary_join_element_wise(
            pc.replace_substring(pc.utf8_upper(b.column("text")), " ", "  "),
            pa.scalar(" A\u030a"), pa.scalar(""))  # decomposed A + ring
        t = pa.table({"doc_id": b.column("doc_id"), "text": messy})
        return normalize_text(t).rename_columns(["doc_id", "text_norm"])

    return _map_documents(sf_dir, mk)


@_query(oracle=_golden("docs_fingerprint_fast_sf001.parquet", "doc_id, fingerprint64, n_prints, min_print",
                       "doc_id", lines=True))
def docs_fingerprint_fast(sf_dir: str):
    """Vectorized fingerprint family (VERDICT r3 #2): siphash64 document
    fingerprint + winnowing rolling shingle prints, both the no-per-row
    fast paths (textstats/analysis.py fingerprint_fast /
    rolling_fingerprints method="fast"). Deterministic but not
    SQL-expressible (siphash + polynomial window hashes), so the oracle
    is a committed golden parquet (scripts/gen_golden_oracles.py —
    disclosed regression pin); the md5 variant stays the independent SQL
    conformance check (docs_fingerprint) and fast-vs-join semantics are
    cross-checked in tests/test_dedup_ann.py."""
    from ..textstats import fingerprint_fast, rolling_fingerprints

    def fp(b: pa.Table) -> pa.Table:
        t = rolling_fingerprints(fingerprint_fast(b), method="fast")
        prints = t.column("shingle_prints")
        if isinstance(prints, pa.ChunkedArray):
            prints = prints.combine_chunks()
        off = prints.offsets.to_numpy()
        flat = prints.values.to_numpy(zero_copy_only=False)
        n = np.diff(off)
        # lists are sorted ascending, so min = first element
        first_idx = np.minimum(off[:-1], max(len(flat) - 1, 0))
        mn = flat[first_idx] if len(flat) else np.zeros(len(n), dtype=np.int64)
        return pa.table({"doc_id": t.column("doc_id"),
                         "fingerprint64": t.column("fingerprint64"),
                         "n_prints": pa.array(n.astype(np.int64)),
                         "min_print": pa.array(mn, type=pa.int64(), mask=(n == 0))})

    return _map_documents(sf_dir, fp)


@_query(oracle=r"""
SELECT doc_id,
       CAST(array_length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
       CAST(array_length(regexp_extract_all(text, '\w+|[^\w\s]')) AS BIGINT) AS n_bpe_tokens,
       CAST(length(text) AS BIGINT) AS n_chars_calc
FROM documents
""")
def docs_token_stats(sf_dir: str):
    """Token counting: whitespace + BPE-ish regex tokens per doc."""
    from ..textstats import token_counts

    return _map_documents(sf_dir, lambda b: token_counts(b).select(
        ["doc_id", "n_ws_tokens", "n_bpe_tokens", "n_chars_calc"]))


_STOP_EN_SQL = "('the','a','an','and','of','to','in','is','it','that','for','on','with','as')"


@_query(oracle=rf"""
SELECT doc_id,
       ROUND(list_avg(list_transform(str_split(text, ' '), x -> length(x))), 6) AS mean_word_len,
       ROUND(len(list_filter(str_split(text, ' '), x -> lower(x) IN {_STOP_EN_SQL}))
             / GREATEST(1, len(str_split(text, ' '))), 6) AS stop_ratio,
       ROUND(length(regexp_replace(text, '[\w\s]', '', 'g')) / GREATEST(1, length(text)), 6) AS punct_ratio,
       ROUND(length(regexp_replace(text, '[^A-Z]', '', 'g')) / GREATEST(1, length(text)), 6) AS upper_ratio
FROM documents
""")
def docs_quality(sf_dir: str):
    """Quality scoring: mean word length, stopword/punct/upper ratios
    (C4/Gopher-style web-corpus heuristics)."""
    from ..textstats import quality_features

    def q(b: pa.Table) -> pa.Table:
        return quality_features(b).select(["doc_id", "mean_word_len", "stop_ratio", "punct_ratio", "upper_ratio"])

    out = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(q, batch_format="pyarrow").to_pandas()
    for c in ("mean_word_len", "stop_ratio", "punct_ratio", "upper_ratio"):
        out[c] = round_half_away(out[c], 6)
    return out


def _ann_top10(sf_dir: str, topk, **kw) -> pd.DataFrame:
    """The 10 nearest embeddings to vec_id=0 by `topk`. sim keeps 4
    decimals: DuckDB computes cosine in float32, we compute in float64;
    differences are ~1e-7, so 6-decimal rounding could flip the last digit."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = topk(emb, np.asarray([_query_vec(sf_dir)]), k=10, **kw).drop(columns=["query_id"])
    out["sim"] = round_half_away(out["sim"], 4)
    return out


EMB_ANN_SQL = """
SELECT CAST(ROW_NUMBER() OVER (ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.embedding AS DOUBLE[])) DESC, e.vec_id) AS BIGINT) AS rank,
       e.vec_id,
       ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.embedding AS DOUBLE[])), 4) AS sim
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY sim DESC, e.vec_id LIMIT 10
"""


@_query(oracle=EMB_ANN_SQL)
def emb_ann_topk(sf_dir: str):
    """Exact brute-force cosine top-10 vs the vec_id=0 embedding
    (similarity-search baseline; numpy matmul per batch, broadcast query)."""
    from ..ann import ann_topk

    return _ann_top10(sf_dir, ann_topk)


@_query(oracle="""
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.3
""")
def emb_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs (a < b over threshold). Threshold 0.3
    so the random-embedding fixture actually produces pairs."""
    import ray

    from ..ann import near_dup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # the pair tables themselves: they keep their columns when there is
    # no pair, which Dataset.to_pandas() does not
    pairs = pa.concat_tables(ray.get(near_dup_pairs(emb, threshold=0.3).to_arrow_refs()))
    return _sorted(pairs.select(["id_a", "id_b"]).to_pandas(), ["id_a", "id_b"])


# ---------------------------------------------------------------------------
# near-dup, web-text and curation ops
# ---------------------------------------------------------------------------


@_query(oracle=_golden("docs_minhash_dedup_sf001.parquet",
                       "CAST(doc_id AS BIGINT) AS doc_id, CAST(cluster_id AS BIGINT) AS cluster_id", "doc_id"))
def docs_minhash_dedup(sf_dir: str):
    """MinHash+LSH near-dup clusters (shingle->minhash->band->bucket
    groupby). Returns (doc_id, cluster_id). Non-SQL-expressible; the
    construction is seeded and bucket-count-invariant (per-doc min over
    ALL buckets), so the oracle is a committed golden parquet generated
    at sf0.01 (scripts/gen_golden_oracles.py) — a deterministic
    regression pin, weaker than an independent computation, disclosed
    as such. Independent checks live in tests/test_dedup_ann.py
    (planted-duplicate recall + Jaccard verification)."""
    from ..dedup.minhash import minhash_clusters

    # the per-doc min reduce is a coarse-bucket exchange on the workers
    # (dedup.minhash.cluster_min) — no per-doc rows stream to the
    # driver; only this bounded sf-test result is collected
    return _sorted(minhash_clusters(_read(sf_dir, "documents", ["doc_id", "text"])).to_pandas(), "doc_id")


@_query(oracle=_golden("docs_fuzzy_dedup_sf001.parquet", "CAST(doc_id AS BIGINT) AS doc_id", "doc_id"))
def docs_fuzzy_dedup(sf_dir: str):
    """Fuzzy dedup purge (dedup/fuzzy.py): MinHash LSH star edges ->
    fixpoint connected components -> keep one representative per
    near-dup cluster. Returns surviving doc_ids. Seeded + bucket-count-
    invariant like docs_minhash_dedup, so the oracle is a committed
    golden parquet (disclosed regression pin); independent behavior
    checks in tests/test_fuzzy_dedup.py (planted clusters)."""
    from ..dedup.fuzzy import fuzzy_dedup

    out = fuzzy_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))
    return _sorted(out.select_columns(["doc_id"]).to_pandas(), "doc_id")


@_query(oracle=_golden("docs_simhash_clusters_sf001.parquet",
                       "CAST(doc_id AS BIGINT) AS doc_id, CAST(cluster_id AS BIGINT) AS cluster_id", "doc_id"))
def docs_simhash_clusters(sf_dir: str):
    """SimHash banded near-dup clusters. Non-SQL-expressible; seeded and
    deterministic, oracled by a committed golden parquet at sf0.01
    (scripts/gen_golden_oracles.py — disclosed regression pin)."""
    from ..dedup.simhash import simhash_candidates

    # the per-doc min reduce is the same coarse-bucket exchange as
    # docs_minhash_dedup's; only this bounded sf-test result is collected
    return _sorted(simhash_candidates(_read(sf_dir, "documents", ["doc_id", "text"])).to_pandas(), "doc_id")


@_query(oracle=r"""
WITH t AS (SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w FROM documents),
idx AS (SELECT doc_id, w, UNNEST(range(1, GREATEST(len(w) - 2, 1) + 1)) AS i FROM t),
sh AS (SELECT DISTINCT doc_id, CASE WHEN len(w) < 3 THEN array_to_string(w, ' ')
        ELSE array_to_string(w[i:i+2], ' ') END AS s FROM idx),
sz AS (SELECT doc_id, COUNT(*) AS size FROM sh GROUP BY 1),
inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS n
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b,
       ROUND(n * 1.0 / (sa.size + sb.size - n), 4) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
WHERE n * 1.0 / (sa.size + sb.size - n) >= 0.5
ORDER BY id_a, id_b
""")
def docs_jaccard_pairs(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (distributed inverted-index
    set-similarity join, dedup/ngram.py) — the brief's fourth dedup
    family, independently oracled by an equivalent SQL formulation
    (UNNEST shingles -> self-join intersection counts)."""
    from ..dedup.ngram import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5, shingle=3
    ).to_pandas()
    out["jaccard"] = round_half_away(out["jaccard"], 4)
    return _sorted(out, ["id_a", "id_b"])


# word-3-gram Jaccard pairs (>= 0.5) and their transitive closure, shared
# by the connected-components oracles
_COMPONENTS_CTES = r"""
WITH RECURSIVE
t AS (SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w FROM documents),
idx AS (SELECT doc_id, w, UNNEST(range(1, GREATEST(len(w) - 2, 1) + 1)) AS i FROM t),
sh AS (SELECT DISTINCT doc_id, CASE WHEN len(w) < 3 THEN array_to_string(w, ' ')
        ELSE array_to_string(w[i:i+2], ' ') END AS s FROM idx),
sz AS (SELECT doc_id, COUNT(*) AS size FROM sh GROUP BY 1),
inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS n
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id GROUP BY 1, 2),
pairs AS (SELECT id_a, id_b FROM inter
          JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b
          WHERE n * 1.0 / (sa.size + sb.size - n) >= 0.5),
und AS (SELECT id_a AS node, id_b AS nbr FROM pairs
        UNION SELECT id_b, id_a FROM pairs),
reach AS (
  SELECT node, node AS r FROM (SELECT DISTINCT node FROM und)
  UNION
  SELECT u.node, reach.r FROM und u JOIN reach ON u.nbr = reach.node"""


@_query(oracle=_COMPONENTS_CTES + r"""
)
SELECT CAST(node AS BIGINT) AS node, CAST(MIN(r) AS BIGINT) AS component
FROM reach GROUP BY node ORDER BY node
""")
def docs_dup_components(sf_dir: str):
    """True near-dup clusters: n-gram Jaccard candidate pairs ->
    distributed connected components (hash-min label propagation to the
    FIXPOINT, dedup/components.py) — chains A~B~C collapse to one
    cluster even when A!~C. Oracled by a recursive-CTE transitive
    closure over the identical SQL-derived pair set."""
    from ..dedup.components import connected_components
    from ..dedup.ngram import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5, shingle=3
    )
    return _sorted(connected_components(pairs, src="id_a", dst="id_b").to_pandas(), "node")


DOCS_URL_NORMALIZE_SQL = r"""
WITH u AS (
  SELECT doc_id,
    CASE CAST(doc_id % 3 AS INT)
      WHEN 0 THEN 'HTTPS://WWW.' || source || '.CO.UK:443/docs/' || doc_id
                  || '?utm_source=feed&ref=' || (doc_id % 7) || '#sec'
      WHEN 1 THEN 'http://cdn.' || source || '.com:8080/p/' || doc_id || '?utm_medium=x'
      ELSE 'https://' || source || '.org'
    END AS url
  FROM documents),
p AS (
  SELECT doc_id, url,
    lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
    lower(regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/:?#]*)', 1)) AS host,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/:?#]*:(\d+)', 1) AS port,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1) AS path,
    CASE WHEN url LIKE '%?%' THEN '?' || regexp_extract(url, '\?([^#]*)', 1) ELSE '' END AS q
  FROM u),
built AS (
  SELECT doc_id, host,
    scheme || '://' || host
      || CASE WHEN port <> '' AND NOT (scheme = 'https' AND port = '443')
                            AND NOT (scheme = 'http' AND port = '80')
              THEN ':' || port ELSE '' END
      || CASE WHEN path = '' THEN '/' ELSE path END || q AS n0
  FROM p),
scrubbed AS (
  SELECT doc_id, host,
    regexp_replace(
      regexp_replace(
        regexp_replace(
          regexp_replace(n0, '[?&](utm_[a-z]+|gclid|fbclid)=[^&#]*', '', 'g'),
          '^([^?#]*)&', '\1?'),
        '\?#', '#'),
      '\?$', '') AS url_norm
  FROM built),
dom AS (
  SELECT doc_id, host, url_norm,
    string_split(host, '.') AS a, len(string_split(host, '.')) AS n
  FROM scrubbed)
SELECT doc_id, url_norm, host AS url_host,
  CASE WHEN n >= 3 AND a[n-1] || '.' || a[n] IN ('co.uk','org.uk','ac.uk','gov.uk',
        'com.au','net.au','org.au','co.jp','com.br','co.in','co.nz','co.za',
        'com.cn','com.mx','com.ar','com.tr','com.sg','com.hk')
       THEN a[n-2] || '.' || a[n-1] || '.' || a[n]
       WHEN n >= 2 THEN a[n-1] || '.' || a[n]
       ELSE host END AS url_domain
FROM dom ORDER BY doc_id
"""


@_query(oracle=DOCS_URL_NORMALIZE_SQL)
def docs_url_normalize(sf_dir: str):
    """Web-corpus URL hygiene (webtext.py): parse + canonicalize +
    registrable domain over deterministically constructed CC-style URLs
    (mixed-case hosts, default/explicit ports, tracking params at every
    position, fragments, empty paths). The SQL oracle constructs the
    SAME input and normalizes it independently with DuckDB regexps
    (RE2-safe patterns shared with the engine — webtext.py docstring)."""
    from ..webtext import add_url_columns

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def mk(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_pandas()
        s = b.column("source").to_pandas().astype(str)
        m = (d % 3).to_numpy()
        ids = d.astype(str)
        url = np.where(
            m == 0,
            "HTTPS://WWW." + s + ".CO.UK:443/docs/" + ids + "?utm_source=feed&ref="
            + (d % 7).astype(str) + "#sec",
            np.where(
                m == 1,
                "http://cdn." + s + ".com:8080/p/" + ids + "?utm_medium=x",
                "https://" + s + ".org",
            ),
        )
        return pa.table({"doc_id": b.column("doc_id"),
                         "url": pa.array(url, type=pa.string())})

    out = ds.map_batches(mk, batch_format="pyarrow").map_batches(
        add_url_columns, batch_format="pyarrow"
    )
    return _sorted(out.select_columns(["doc_id", "url_norm", "url_host", "url_domain"]).to_pandas(), "doc_id")


@_query(oracle=r"""
WITH u AS (
  SELECT doc_id, source,
    'https://www.' || source || '.co.uk/p/' || (doc_id % 150)
      || '?k=' || (doc_id % 150) AS url_norm,
    source || '.co.uk' AS url_domain
  FROM documents),
dedup AS (
  SELECT doc_id, url_norm, url_domain,
         row_number() OVER (PARTITION BY url_norm ORDER BY doc_id) AS rn
  FROM u),
capped AS (
  SELECT doc_id, url_norm, url_domain,
         row_number() OVER (PARTITION BY url_domain ORDER BY doc_id) AS qn
  FROM dedup WHERE rn = 1)
SELECT doc_id, url_norm, url_domain FROM capped WHERE qn <= 5 ORDER BY doc_id
""")
def docs_web_curation(sf_dir: str):
    """End-to-end web curation composite over the URL layer: construct
    CC-style URLs with planted collisions (doc_id % 150 path key),
    normalize (webtext.py), URL-level exact dedup (min doc_id per
    url_norm — dedup/exact.py's coarse-bucket shape), per-domain quota
    cap (curation.quota_head). The oracle computes dedup+quota with
    independent window functions; the URL-normalization step itself is
    independently oracled by docs_url_normalize."""
    from ..curation import quota_head
    from ..dedup.exact import dedup_rows
    from ..webtext import add_url_columns

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def mk(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_pandas()
        s = b.column("source").to_pandas().astype(str)
        url = ("https://WWW." + s + ".CO.UK/p/" + (d % 150).astype(str)
               + "?utm_source=x&k=" + (d % 150).astype(str))
        return pa.table({"doc_id": b.column("doc_id"),
                         "url": pa.array(url, type=pa.string())})

    with_urls = ds.map_batches(mk, batch_format="pyarrow").map_batches(
        add_url_columns, batch_format="pyarrow"
    ).select_columns(["doc_id", "url_norm", "url_domain"])
    deduped = dedup_rows(with_urls, col="url_norm", id_col="doc_id")
    capped = quota_head(deduped.select_columns(["doc_id", "url_norm", "url_domain"]),
                        "url_domain", "doc_id", k=5)
    return _sorted(capped.select_columns(["doc_id", "url_norm", "url_domain"]).to_pandas(), "doc_id")


def _redact_sql() -> str:
    from ..textstats.redact import pii_sql_replacements

    return f"""
WITH u AS (
  SELECT doc_id,
    'reach user' || doc_id || '@' || source || '.example.com or call 555-123-'
      || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' from host 10.0.'
      || (doc_id % 256) || '.' || ((doc_id * 7) % 256)
      || ' ssn 123-45-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
      || ' plain trailing words' AS text
  FROM documents)
SELECT doc_id, {pii_sql_replacements('text')} AS text
FROM u ORDER BY doc_id
"""


@_query(oracle=_redact_sql())
def docs_redact_pii(sf_dir: str):
    """PII scrub (textstats/redact.py): emails/IPs/phones/SSNs ->
    typed placeholders over deterministically constructed pii-laced
    text. Oracle: DuckDB executes the IDENTICAL RE2-safe
    regexp_replace chain (redact.pii_sql_replacements) — independent
    regex engine, same spec (like docs_url_normalize)."""
    from ..textstats.redact import redact_pii

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def mk(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_pandas()
        s = b.column("source").to_pandas().astype(str)
        ids = d.astype(str)
        text = ("reach user" + ids + "@" + s + ".example.com or call 555-123-"
                + (d % 10000).astype(str).str.zfill(4) + " from host 10.0."
                + (d % 256).astype(str) + "." + ((d * 7) % 256).astype(str)
                + " ssn 123-45-" + (d % 10000).astype(str).str.zfill(4)
                + " plain trailing words")
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(text, type=pa.string())})

    out = ds.map_batches(mk, batch_format="pyarrow").map_batches(
        redact_pii, batch_format="pyarrow"
    ).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
WITH t AS (
  SELECT lang, text,
         len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n_tok
  FROM documents)
SELECT metric, value FROM (
  SELECT 'n_docs' AS metric, CAST(count(*) AS DOUBLE) AS value FROM t
  UNION ALL
  SELECT 'total_tokens', CAST(sum(n_tok) AS DOUBLE) FROM t
  UNION ALL
  SELECT 'distinct_texts', CAST(count(DISTINCT text) AS DOUBLE) FROM t
  UNION ALL
  SELECT 'p50_tokens', round(quantile_cont(CAST(n_tok AS DOUBLE), 0.5), 4) FROM t
  UNION ALL
  SELECT 'p90_tokens', round(quantile_cont(CAST(n_tok AS DOUBLE), 0.9), 4) FROM t
  UNION ALL
  SELECT 'lang:' || lang, CAST(count(*) AS DOUBLE) FROM t GROUP BY lang
) ORDER BY metric
""")
def docs_corpus_report(sf_dir: str):
    """One-call corpus profile (report.corpus_report — the dataset-card
    summary): doc/token counts, token quantiles, language mix,
    exact-dup estimate from ONE narrow projection pass; document text
    never shuffles. SQL-oracled end-to-end."""
    from ..report import corpus_report

    return corpus_report(_read(sf_dir, "documents", ["doc_id", "text", "lang"]))


@_query(oracle="""
WITH docl AS (
  SELECT doc_id, string_split(replace(text, ' ', chr(10)), chr(10)) AS lines
  FROM documents
), lines AS (
  SELECT doc_id, unnest(lines) AS line FROM docl
), freq AS (
  SELECT list(line) AS fl FROM (
    SELECT line FROM lines GROUP BY line HAVING count(DISTINCT doc_id) >= 400)
)
SELECT d.doc_id,
       array_to_string(list_filter(d.lines, x -> NOT array_contains(f.fl, x)),
                       chr(10)) AS text_clean,
       CAST(len(d.lines) -
            len(list_filter(d.lines, x -> NOT array_contains(f.fl, x)))
            AS BIGINT) AS n_removed
FROM docl d, freq f
ORDER BY doc_id
""")
def docs_boilerplate_lines(sf_dir: str):
    """CROSS-document boilerplate line removal
    (curation.remove_boilerplate_lines): drop lines appearing in >= 400
    distinct docs, order preserved — the RefinedWeb nav/footer removal
    shape (one narrow line-hash groupby-count + broadcast rebuild). The
    synthetic docs are single-line, so the query derives one line per
    word (replace ' ' -> newline) to exercise split/count/broadcast/
    rebuild end-to-end; the SQL oracle reproduces it with string
    membership (equal modulo 64-bit line-hash collisions)."""
    from ..curation import remove_boilerplate_lines

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("text"), "text",
            pa.compute.replace_substring(b.column("text"), " ", "\n")),
        batch_format="pyarrow")
    out = remove_boilerplate_lines(ds, min_docs=400).to_pandas()
    out = out.rename(columns={"text": "text_clean"})
    return _sorted(out[["doc_id", "text_clean", "n_removed"]], "doc_id")


@_query(oracle=r"""
WITH u AS (
  SELECT doc_id,
    'header ' || source || chr(10) || 'body ' || (doc_id % 50) || chr(10)
      || 'header ' || source || chr(10) || 'unique ' || doc_id || chr(10)
      || 'body ' || (doc_id % 50) AS text
  FROM documents),
lines AS (
  SELECT doc_id,
         UNNEST(string_split(text, chr(10))) AS line,
         UNNEST(generate_series(1, len(string_split(text, chr(10))))) AS pos
  FROM u),
firsts AS (
  SELECT doc_id, line, pos,
         row_number() OVER (PARTITION BY doc_id, line ORDER BY pos) AS rn
  FROM lines)
SELECT doc_id, string_agg(line, chr(10) ORDER BY pos) AS text
FROM firsts WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
""")
def docs_dedup_lines(sf_dir: str):
    """C4-style within-document repetition removal (curation.dedup_lines):
    keep the first occurrence of each exact line, order preserved.
    Oracle: row_number over (doc, line) = 1 re-aggregated by position."""
    from ..curation import dedup_lines

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def mk(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_pandas()
        s = b.column("source").to_pandas().astype(str)
        text = ("header " + s + "\nbody " + (d % 50).astype(str)
                + "\nheader " + s + "\nunique " + d.astype(str)
                + "\nbody " + (d % 50).astype(str))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(text, type=pa.string())})

    return _sorted(dedup_lines(ds.map_batches(mk, batch_format="pyarrow")).to_pandas(), "doc_id")


@_query(oracle=r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w,
         len(regexp_split_to_array(trim(text), '\s+')) AS n
  FROM documents WHERE length(trim(text)) > 0),
c AS (
  SELECT doc_id, w, n,
         UNNEST(generate_series(0,
           CASE WHEN n <= 40 THEN 0 ELSE CAST(ceil((n - 40) / 30.0) AS INT) END)) AS chunk_id
  FROM t)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       array_to_string(w[chunk_id * 30 + 1 : least(chunk_id * 30 + 40, n)], ' ') AS text,
       CAST(least(chunk_id * 30 + 40, n) - chunk_id * 30 AS BIGINT) AS n_tokens
FROM c ORDER BY doc_id, chunk_id
""")
def docs_chunked(sf_dir: str):
    """Context-window chunking (curation.chunk_documents): 40-token
    windows, 10-token overlap. Oracle: generate_series over the token
    count with 1-based list slicing."""
    from ..curation import chunk_documents

    ds = chunk_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]), max_tokens=40, overlap=10
    )
    return _sorted(ds.to_pandas(), ["doc_id", "chunk_id"])


def _sql_words(words) -> str:
    """A SQL list literal of `words`, sorted: the text of an oracle built
    from a set must not follow PYTHONHASHSEED."""
    return "[" + ",".join("'" + w + "'" for w in sorted(words)) + "]"


def _sql_stopword_scores(toks_expr: str = "toks", n_expr: str = "n_tok") -> str:
    """Per-language stopword-hit-ratio SQL columns, generated from the
    SAME STOPWORDS the Python heuristic uses (single source of truth)."""
    from ..textstats.analysis import STOPWORDS

    return ",\n  ".join(
        f"CASE WHEN {n_expr} = 0 THEN 0.0 ELSE CAST(length(list_filter({toks_expr}, "
        f"x -> list_contains({_sql_words(sw)}, x))) AS DOUBLE) / {n_expr} END AS s_{lang}"
        for lang, sw in STOPWORDS.items()
    )


def _sql_langid_case() -> str:
    from ..textstats.analysis import STOPWORDS

    langs = list(STOPWORDS)
    greatest = "GREATEST(" + ", ".join(f"s_{lg}" for lg in langs) + ")"
    chain = "\n    ".join(f"WHEN s_{lg} = {greatest} THEN '{lg}'" for lg in langs)
    return (f"CASE WHEN n_tok = 0 OR {greatest} <= 0.02 THEN 'und'\n    {chain}\n    END")


def _langid_scored_cte(source_cols: str = "") -> str:
    """CTE fragment: documents -> (doc_id{source_cols}, n_tok, s_<lang>...)
    over the first 200 lowercased whitespace tokens (the LangId cap)."""
    return f"""
tokked AS (
  SELECT doc_id{source_cols},
         list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')[1:200] AS toks
  FROM deduped
), counted AS (
  SELECT doc_id{source_cols}, toks, length(toks) AS n_tok FROM tokked
), scored AS (
  SELECT doc_id{source_cols}, n_tok,
  {_sql_stopword_scores()}
  FROM counted
)"""


@_query(oracle=f"""
WITH deduped AS (SELECT doc_id, text FROM documents),
{_langid_scored_cte()}
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       {_sql_langid_case()} AS lang_pred
FROM scored ORDER BY doc_id
""")
def docs_langid(sf_dir: str):
    """Language-ID heuristic (stopword profiles, actor-pool stage).
    Oracled by an equivalent SQL formulation (list_filter membership
    scores + GREATEST argmax) generated from the same STOPWORDS table."""
    # plain function, not an actor pool: LangId state is a static dict
    # (<1ms build) — actor spawn costs ~5s at 32 CPUs (BASELINE.md note);
    # the worker-process singleton gives the same build-once behavior
    from ..textstats.analysis import langid_fn

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        langid_fn, batch_format="pyarrow"
    )
    return ds.select_columns(["doc_id", "lang_pred"]).to_pandas()


def _docs_curation_sql() -> str:
    """SQL mirror of docs_curation_pipeline: quality gates over ALL
    whitespace tokens, exact dedup = min doc_id per identical text
    (equivalent to the content-hash dedup absent collisions), langid over
    the first 200 tokens, counts per (lang_pred, source)."""
    from ..textstats.analysis import STOPWORDS

    en = _sql_words(STOPWORDS["en"])
    return f"""
WITH full_toks AS (
  SELECT doc_id, source, text,
         list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '') AS ftoks
  FROM documents
), gated AS (
  SELECT doc_id, source, text
  FROM full_toks
  WHERE length(ftoks) >= 30
    AND (CASE WHEN length(ftoks) = 0 THEN 0.0
         ELSE CAST(length(list_filter(ftoks, x -> list_contains({en}, x))) AS DOUBLE) / length(ftoks) END) > 0.02
), deduped AS (
  SELECT doc_id, source, text FROM gated
  QUALIFY ROW_NUMBER() OVER (PARTITION BY text ORDER BY doc_id) = 1
),
{_langid_scored_cte(source_cols=", source")}
SELECT {_sql_langid_case()} AS lang_pred, source, CAST(COUNT(*) AS BIGINT) AS n
FROM scored GROUP BY 1, 2 ORDER BY 1, 2
"""


@_query(oracle=_docs_curation_sql())
def docs_curation_pipeline(sf_dir: str):
    """End-to-end training-data curation (the composite the engine exists
    for): quality scoring -> heuristic quality filter -> exact dedup
    (min doc wins) -> language ID -> per (lang_pred, source) counts.
    The SQL mirror is _docs_curation_sql."""
    from ..aggregate import pre_aggregated_count
    from ..dedup.exact import dedup_rows
    from ..textstats import quality_features, token_counts
    from ..textstats.analysis import langid_fn

    def score_and_filter(b: pa.Table) -> pa.Table:
        t = token_counts(quality_features(b))
        # Gopher-style length + stopword gates, tuned to actually prune
        # this corpus: >= 30 whitespace tokens and a nonzero stopword ratio
        ok = pc.and_(
            pc.greater_equal(t.column("n_ws_tokens"), pa.scalar(30)),
            pc.greater(t.column("stop_ratio"), pa.scalar(0.02)),
        )
        return t.filter(ok)

    scored = _read(sf_dir, "documents", ["doc_id", "text", "source"]).map_batches(
        score_and_filter, batch_format="pyarrow")
    labeled = dedup_rows(scored).map_batches(langid_fn, batch_format="pyarrow")
    out = pre_aggregated_count(labeled, ["lang_pred", "source"], alias="n", final="driver")
    return _sorted(out, ["lang_pred", "source"])


@_query(oracle="""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 20),
sims AS (
  SELECT q.qid, e.vec_id, e.label,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS sim
  FROM embeddings e, q WHERE e.vec_id <> q.qid
), top5 AS (
  SELECT qid, label FROM (
    SELECT qid, label, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rk
    FROM sims) WHERE rk <= 5
), counts AS (
  SELECT qid, label, COUNT(*) AS c FROM top5 GROUP BY qid, label
), pred AS (
  SELECT qid, label AS pred_label FROM (
    SELECT qid, label, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY c DESC, label) AS r
    FROM counts) WHERE r = 1
)
SELECT CAST(p.qid AS BIGINT) AS vec_id, CAST(p.pred_label AS BIGINT) AS pred_label,
       CAST(t.label AS BIGINT) AS true_label
FROM pred p JOIN embeddings t ON t.vec_id = p.qid ORDER BY vec_id
""")
def emb_knn_label(sf_dir: str):
    """k-NN majority-label classification over the embedding corpus:
    for each of the first 20 vectors, the majority label of its 5 nearest
    (cosine) neighbors among the rest."""
    from ..ann import ann_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # query side: bounded direct parquet predicate read of the 20 query
    # rows (a Ray pipeline execution to pull 20 rows cost ~2 s of fixed
    # startup — see _query_vec)
    import pyarrow.parquet as pq_

    queries_df = pq_.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 20)]).to_pandas().sort_values("vec_id")
    qm = np.asarray(list(queries_df["embedding"]), dtype=np.float64)
    top = ann_topk(emb, qm, k=6)  # 6: self + 5 neighbors
    # label side: only the BOUNDED id set the answer needs (neighbors +
    # queries, <= 21*6 ids) reaches the driver — the label column is
    # filtered distributed via is_in against the tiny needed-id set, so
    # driver state is O(k * n_queries), not O(corpus) (VERDICT r2 #3)
    needed = pa.array(sorted(set(top["vec_id"]).union(queries_df["vec_id"])),
                      type=pa.int64())
    lab = _read(sf_dir, "embeddings", ["vec_id", "label"]).map_batches(
        lambda b: b.filter(pc.is_in(b.column("vec_id"), value_set=needed)),
        batch_format="pyarrow").to_pandas()
    id2label = dict(zip(lab["vec_id"], lab["label"]))
    rows = []
    for qi, g in top.groupby("query_id"):
        qvec = int(queries_df["vec_id"].iloc[int(qi)])
        neigh = [v for v in g["vec_id"] if v != qvec][:5]
        labels = pd.Series([id2label[v] for v in neigh])
        rows.append({"vec_id": qvec, "pred_label": int(labels.mode().iloc[0]),
                     "true_label": int(id2label[qvec])})
    return _sorted(pd.DataFrame(rows), "vec_id")


@_query(oracle=_golden("emb_lsh_ann_sf001.parquet", "*", "rank"))
def emb_lsh_ann(sf_dir: str):
    """LSH-bucketed approximate ANN (random hyperplanes, bucket-scan).
    Approximate by construction (no SQL equivalent), but fully seeded —
    oracled by a committed golden parquet at sf0.01
    (scripts/gen_golden_oracles.py — disclosed regression pin); recall
    vs brute force is checked independently in tests/test_dedup_ann.py."""
    from ..ann import lsh_ann_topk

    return _ann_top10(sf_dir, lsh_ann_topk)


@_query(oracle="""
SELECT CAST(e.event_id AS BIGINT) AS event_id, c.ts AS click_ts
FROM (SELECT user_id, ts, event_id FROM events WHERE event_type = 'error') e
ASOF LEFT JOIN (SELECT user_id, ts FROM events WHERE event_type = 'click') c
  ON e.user_id = c.user_id AND e.ts >= c.ts
ORDER BY event_id
""")
def events_asof_join(sf_dir: str):
    """As-of join (axosyslog_ray.join.asof_join — brief's custom-operator
    list): each 'error' event matched to the SAME USER's latest preceding
    'click' (backward inclusive). Oracled by DuckDB's native ASOF JOIN."""
    from ..join import asof_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    left = ev.filter(expr="event_type == 'error'").select_columns(["user_id", "ts", "event_id"])
    right = ev.filter(expr="event_type == 'click'").select_columns(["user_id", "ts"]).map_batches(
        lambda b: b.append_column("click_ts", b.column("ts")), batch_format="pyarrow")
    # statically-known projected schemas: skips the batch-peek probe that
    # would partially execute both filtered upstreams a second time
    ts_t = pa.timestamp("us")
    lsch = pa.schema([("user_id", pa.int64()), ("ts", ts_t), ("event_id", pa.int64())])
    rsch = pa.schema([("user_id", pa.int64()), ("ts", ts_t), ("click_ts", ts_t)])
    # 64 buckets: the events table at bench scale holds ~10^4-10^5
    # error/click rows, so the default cluster-scaled bucket count
    # (8 x CPUs) would pay ~4x its useful work in per-partition shuffle
    # fixed cost; at production scale pass a larger num_buckets so two
    # buckets fit a worker's heap (see join.py docstring)
    out = asof_join(left, right, on="ts", by="user_id", num_buckets=64,
                    left_schema=lsch, right_schema=rsch).to_pandas()
    return _sorted(out[["event_id", "click_ts"]], "event_id")


@_query(oracle="""
SELECT (CAST(floor(epoch(ts) / 3600) AS BIGINT) - off.o) * 3600 AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events, (SELECT UNNEST(range(0, 2)) AS o) off
GROUP BY 1 ORDER BY 1
""")
def events_hopping_windows(sf_dir: str):
    """Hopping event-time windows (size 2h, hop 1h — every event in 2
    overlapping windows): per-window counts. window_start = epoch secs."""
    from ..aggregate import hopping_window_counts

    out = hopping_window_counts(_read(sf_dir, "events", ["ts"]), ts_col="ts",
                                size_s=7200, hop_s=3600, final="driver")
    return _sorted(out, "window_start")


@_query(oracle="""
SELECT l.l_linestatus, CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_shipdate BETWEEN o.o_orderdate AND o.o_orderdate + INTERVAL 90 DAY
GROUP BY 1 ORDER BY 1
""")
def lineitem_range_join(sf_dir: str):
    """Keyed range join (axosyslog_ray.join.range_join): lineitems shipped
    within 90 days of their order's date — per-orderkey counts by status."""
    from ..join import range_join
    from ..aggregate import pre_aggregated_count

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_linestatus"]).map_batches(
        lambda b: b.rename_columns(["o_orderkey", "l_shipdate", "l_linestatus"]), batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.append_column(
            "o_deadline", pc.add(b.column("o_orderdate"), pa.scalar(7776000000000, pa.duration("us")))),
        batch_format="pyarrow")
    # 64 buckets: bench-scale tables pay ~4x their useful work in
    # per-partition shuffle fixed cost at the 8xCPU default (see the
    # asof-join sizing note); raise for production-scale inputs
    ts_t = pa.timestamp("us")
    joined = range_join(li, orders, key="o_orderkey", on="l_shipdate",
                        lo="o_orderdate", hi="o_deadline", num_buckets=64,
                        left_schema=pa.schema([("o_orderkey", pa.int64()), ("l_shipdate", ts_t),
                                               ("l_linestatus", pa.string())]),
                        right_schema=pa.schema([("o_orderkey", pa.int64()), ("o_orderdate", ts_t),
                                                ("o_deadline", ts_t)]))
    return _sorted(pre_aggregated_count(joined, ["l_linestatus"], alias="n", final="driver"), "l_linestatus")


# exhaustive IVF (nprobe=nlist) provably equals brute-force top-k, so the
# independent brute-force SQL is a true oracle for the full IVF
# train/assign/scan machinery
@_query(oracle=EMB_ANN_SQL)
def emb_ivf_ann(sf_dir: str):
    """IVF ANN (k-means coarse quantizer, nprobe cell scan — the FAISS-
    style scale path). Run here with nprobe=nlist (every cell probed),
    which is provably exhaustive: the full train/assign/scan machinery
    executes, and the result must equal brute-force cosine top-k — so
    the INDEPENDENT SQL oracle (EMB_ANN_SQL) applies. The approximate
    nprobe<nlist recall path is exercised in tests/test_dedup_ann.py."""
    from ..ann import ivf_ann_topk

    return _ann_top10(sf_dir, ivf_ann_topk, nlist=16, nprobe=16)


@_query(oracle=_golden("emb_pq_ann_sf001.parquet", "rank, vec_id, sim", "rank"))
def emb_pq_ann(sf_dir: str):
    """Product-quantization ANN (ann/pq.py — Jegou et al. 2011): bounded
    driver-side codebook training, one streamed encode+ADC-scan pass,
    driver merge of tiny candidates. Seeded + deterministic; the ADC
    distances are approximations by construction, so the oracle is a
    committed golden parquet (scripts/gen_golden_oracles.py — disclosed
    regression pin); recall + exactness properties are independently
    tested in tests/test_dedup_ann.py::TestPqAnn."""
    from ..ann import pq_ann_topk

    return _ann_top10(sf_dir, pq_ann_topk, m=8, train_sample=2048)


@_query(oracle=_golden("media_decode_stats.parquet", "media_type, n, total_pixels", "media_type"))
def media_decode_stats(sf_dir: str):
    """Multimodal plumbing: synthetic media corpus -> actor-pool decode
    (stubbed kernel) -> per-type size stats. The corpus and the fake
    decode kernel are fully deterministic and sf-independent, so the
    oracle is a committed golden parquet (tests/golden/) — weaker than an
    independent SQL computation, disclosed as such."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..multimodal import decode_images, gen_media_table

    ds = rd.from_arrow(gen_media_table(600))
    decoded = decode_images(ds)
    return (
        decoded.groupby("media_type")
        .aggregate(Count(alias_name="n"), Sum("n_pixels", alias_name="total_pixels"))
        .to_pandas()
    )


@_query(oracle=_golden("flagship_routes_sf001.parquet", "route, lang, CAST(n AS BIGINT) AS n",
                       "route, lang"))
def flagship_routes(sf_dir: str):
    """Flagship parse->enrich->route->aggregate over synthesized pages
    (BASELINE input_hint shape). The full pipeline is non-SQL, but the
    synthesizer is seeded — oracled by a committed golden parquet at
    sf0.01 (scripts/gen_golden_oracles.py — disclosed regression pin);
    the route/aggregate logic itself is independently golden-tested in
    tests/test_golden_routes.py."""
    import pyarrow.parquet as pq

    from ..aggregate import pre_aggregated_count
    from ..pipelines.flagship import flagship_routed
    from ..synth import pages_dataset

    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    routed = flagship_routed(pages_dataset(n_docs * 12))
    out = pre_aggregated_count(routed.select_columns(["route", "lang"]), ["route", "lang"], alias="n").to_pandas()
    return _sorted(out, ["route", "lang"])


# ---------------------------------------------------------------------------
# extended ops: xml, formatters, group-lines, suppress/rate-limit
# ---------------------------------------------------------------------------


@_query(oracle="""
SELECT event_id, event_type AS xml_type,
       CAST(user_id AS VARCHAR) AS xml_user,
       CAST(value AS VARCHAR) AS xml_value
FROM events
""")
def events_xml_roundtrip(sf_dir: str):
    """xml-parser() (reference modules/xml/xml.c): build an XML doc from
    each event, parse it back, return the extracted fields."""
    from ..stages.xml_parser import XmlParser

    xp = XmlParser(source_col="xml_doc")

    def rt(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["xml_doc"] = (
            '<event type="' + df["event_type"] + '"><user>' + df["user_id"].astype(str)
            + "</user><value>" + df["value"].astype(str) + "</value></event>"
        )
        t = xp(pa.Table.from_pandas(df[["event_id", "xml_doc"]], preserve_index=False))
        xv = t.column("xv").combine_chunks()  # map<string,string>: Arrow-native key extraction
        return pa.table({
            "event_id": t.column("event_id"),
            "xml_type": pc.map_lookup(xv, query_key="event._type", occurrence="first"),
            "xml_user": pc.map_lookup(xv, query_key="event.user", occurrence="first"),
            "xml_value": pc.map_lookup(xv, query_key="event.value", occurrence="first"),
        })

    return _read(sf_dir, "events", ["event_id", "event_type", "user_id", "value"]).map_batches(
        rt, batch_format="pyarrow"
    ).to_pandas()


@_query(oracle="""
SELECT (CASE WHEN value >= 200 THEN 'high' WHEN value >= 100 THEN 'mid' ELSE 'low' END)
       || '/' || event_type AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events WHERE event_type <> 'error'
GROUP BY 1 ORDER BY 1
""")
def events_filterx(sf_dir: str):
    """FilterX block (axosyslog_ray.filterx — reference lib/filterx/
    semantics: if/elif/else, ??, drop, string concat) over events:
    classify value bands, tag each row, drop 'error' events, count per
    (class, event_type)."""
    from ..aggregate import pre_aggregated_count
    from ..filterx import FilterX

    fx = FilterX("""
        if ($value >= 200) { $class = "high"; }
        elif ($value >= 100) { $class = "mid"; }
        else { $class = "low"; };
        if ($event_type == "error") { drop; };
        $bucket = $class + "/" + $event_type;
    """)
    ds = _read(sf_dir, "events", ["event_type", "value"]).map_batches(fx, batch_format="pyarrow")
    return _sorted(pre_aggregated_count(ds, ["bucket"], alias="n", final="driver"), "bucket")


@_query(oracle=r"""
SELECT (CASE WHEN event_type IN ('signup', 'purchase') THEN 'conv'
             WHEN regexp_matches(props, '\{"k": [0-9]\}') THEN 'tiny'
             ELSE 'big' END) || '/' || event_type AS label,
       CAST(CASE WHEN event_type = 'error' THEN 0 ELSE 1 END AS BIGINT) AS has_props,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events
GROUP BY 1, 2 ORDER BY 1, 2
""")
def events_filterx_regex(sf_dir: str):
    """FilterX round-2 surface (=~ regex match, `in` membership, +=,
    unset) over events: tag single-digit prop payloads via regex, group
    conversion-ish types via membership, suffix the label, null out props
    for errors — per-label counts + surviving props count."""
    from ..aggregate import pre_aggregated_count
    from ..filterx import FilterX

    fx = FilterX("""
        if ($props =~ "\\\\{\\"k\\": [0-9]\\\\}") { $label = "tiny"; }
        else { $label = "big"; };
        if ($event_type in ["signup", "purchase"]) { $label = "conv"; };
        $label += "/" + $event_type;
        if ($event_type == "error") { unset($props); };
        $has_props = isset($props) ? 1 : 0;
    """)
    ds = _read(sf_dir, "events", ["event_type", "props"]).map_batches(fx, batch_format="pyarrow")
    out = pre_aggregated_count(ds, ["label", "has_props"], alias="n", final="driver")
    return _sorted(out, ["label", "has_props"])


@_query(oracle="""
SELECT doc_id,
       regexp_replace(text, 'data', 'DATA') AS t1,
       regexp_replace(text, '[aeiou]', '_', 'g') AS t2,
       md5(lang) AS sig,
       to_base64(encode(lang)) AS b64,
       lower(hex(encode(lang))) AS hx,
       CAST(CASE WHEN source LIKE 'src%' THEN 1 ELSE 0 END AS BIGINT) AS is_src,
       replace(source, 'src', 'S') AS src2
FROM documents
ORDER BY doc_id
""")
def docs_filterx_strfns(sf_dir: str):
    """FilterX string/regex/digest/codec functions (reference
    lib/filterx/expr-regexp-subst.c first-vs-global, func-str-transform.c
    str_replace, func-digest.c, func-encode.c, func-glob.c) applied over
    the documents corpus — each one vectorized per batch (pandas
    str.replace compiled-regex C loop; hashlib C digests)."""
    from ..filterx import FilterX

    fx = FilterX("""
        $t1 = regexp_subst($text, "data", "DATA");
        $t2 = regexp_subst($text, "[aeiou]", "_", true);
        $sig = md5($lang);
        $b64 = base64_encode($lang);
        $hx = hex_encode($lang);
        $is_src = glob_match($source, "src*") ? 1 : 0;
        $src2 = str_replace($source, "src", "S");
    """)
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"]).map_batches(
        fx, batch_format="pyarrow"
    )
    return _sorted(ds.to_pandas()[["doc_id", "t1", "t2", "sig", "b64", "hx", "is_src", "src2"]], "doc_id")


@_query(oracle="""
SELECT event_id,
       CAST(json_extract(props, '$.k') AS BIGINT) AS k,
       CASE WHEN CAST(json_extract(props, '$.k') AS BIGINT) >= 50
            THEN '{"k":' || json_extract(props, '$.k') || ',"evt":"' || event_type || '"}'
            ELSE '{"k":' || json_extract(props, '$.k') || '}' END AS j
FROM events
ORDER BY event_id
""")
def events_filterx_json(sf_dir: str):
    """FilterX object model (reference lib/filterx/: parse_json,
    expr-get-subscript.c / expr-getattr.c reads, expr-set-subscript.c
    masked writes, format_json) over events.props: parse the JSON
    payload, read k, enrich the dict with the event type for high-k rows
    only, re-serialize."""
    from ..filterx import FilterX

    fx = FilterX("""
        $p = parse_json($props);
        $k = $p["k"];
        if ($k >= 50) { $p["evt"] = $event_type; };
        $j = format_json($p);
    """)
    ds = _read(sf_dir, "events", ["event_id", "event_type", "props"]).map_batches(
        fx, batch_format="pyarrow"
    )
    return _sorted(ds.to_pandas()[["event_id", "k", "j"]], "event_id")


@_query(oracle="""
SELECT event_id,
       strftime(date_trunc('second', ts), '%Y-%m-%dT%H:%M:%S') || '+00:00' AS iso,
       strftime(CAST(timezone('Europe/Budapest', date_trunc('second', ts)) AS TIMESTAMP),
                '%Y-%m-%dT%H:%M:%S') || '+00:00' AS uiso,
       strftime(ts, '%H') AS hour
FROM events
ORDER BY event_id
""")
def events_filterx_datetime(sf_dir: str):
    """FilterX datetime functions (reference lib/filterx/func-timestamp.c
    strptime/strftime/format_isodate; fix_timezone registered in
    filterx-globals.c with the two-pass DST re-lookup of
    modules/timestamp/rewrite-fix-timezone.c) over events.ts: format ->
    reparse roundtrip (second precision), ISO normalization, and a
    wall-clock-in-Budapest -> UTC reinterpretation."""
    from ..filterx import FilterX

    fx = FilterX("""
        $local = strftime($ts, "%Y-%m-%d %H:%M:%S");
        $rt = strptime($local, "%Y-%m-%d %H:%M:%S");
        $iso = format_isodate($rt);
        $uiso = format_isodate(fix_timezone($rt, "Europe/Budapest"));
        $hour = strftime($ts, "%H");
    """)
    ds = _read(sf_dir, "events", ["event_id", "ts"]).map_batches(fx, batch_format="pyarrow")
    return _sorted(ds.to_pandas()[["event_id", "iso", "uiso", "hour"]], "event_id")


@_query(oracle="""
SELECT event_id,
       'k=' || CAST(json_extract(props, '$.k') AS VARCHAR) AS kvs,
       'CEF:0|ax|engine|1|' || event_type || '|' || event_type || '|5|k='
           || CAST(json_extract(props, '$.k') AS VARCHAR) AS cef,
       CAST(json_extract(props, '$.k') AS BIGINT) AS k2,
       'ax' AS vendor,
       event_type || '|' || CAST(json_extract(props, '$.k') AS VARCHAR) AS csv,
       event_type AS et2
FROM events
ORDER BY event_id
""")
def events_filterx_parse_fns(sf_dir: str):
    """FilterX parse_*/format_* function family (reference
    modules/kvformat/filterx-func-{parse,format}-kv.c,
    modules/cef/filterx-func-{parse,format}-cef.c,
    modules/csvparser/filterx-func-{parse,format}-csv.c) over
    events.props: JSON -> kv string, a CEF envelope built from a dict
    literal and round-tripped through parse_cef, and a CSV
    format/parse roundtrip — all per-batch inside map_batches."""
    from ..filterx import FilterX

    fx = FilterX("""
        $d = parse_json($props);
        $kvs = format_kv($d);
        $cef = format_cef({"cef_version": "0", "device_vendor": "ax",
                           "device_product": "engine", "device_version": "1",
                           "device_event_class_id": $event_type,
                           "event_name": $event_type, "agent_severity": "5",
                           "k": string($d.k)});
        $back = parse_cef($cef);
        $k2 = int($back["k"]);
        $vendor = $back.device_vendor;
        $csv = format_csv([$event_type, string($d.k)], delimiter="|");
        $et2 = parse_csv($csv, delimiter="|")[0];
    """)
    ds = _read(sf_dir, "events", ["event_id", "event_type", "props"]).map_batches(
        fx, batch_format="pyarrow"
    )
    return _sorted(ds.to_pandas()[["event_id", "kvs", "cef", "k2", "vendor", "csv", "et2"]], "event_id")


@_query(oracle="""
SELECT CASE WHEN value >= 0 AND value < 50 THEN 'low'
            WHEN value >= 50 AND value < 200 THEN 'mid+'
            ELSE 'other' END AS band,
       substr(event_type, 1, 4) AS head,
       CASE WHEN length(event_type) <= 2 THEN event_type
            ELSE substr(event_type, length(event_type) - 1, 2) END AS tail,
       CAST(CASE WHEN event_type < 'login' THEN 1 ELSE 0 END AS BIGINT) AS early,
       CASE WHEN props IS NULL THEN 'none' ELSE substr(props, 1, 1) END AS ptag,
       CAST(CASE WHEN event_type NOT IN ('click', 'view') THEN 1 ELSE 0 END AS BIGINT) AS rare,
       CAST(CASE WHEN value = 100.0 THEN 1 ELSE 0 END AS BIGINT) AS exact_v,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events
GROUP BY 1, 2, 3, 4, 5, 6, 7 ORDER BY 1, 2, 3, 4, 5, 6, 7
""")
def events_filterx_grammar2(sf_dir: str):
    """FilterX grammar completion surface in one oracled pipeline:
    switch with numeric `case lo..hi:` ranges, C-style FALLTHROUGH and
    `break;` (expr-switch.c _eval_body + the reference's own
    test_switch_fallthrough pins), string slicing with negative indices
    (LL_DOTDOT), `eq`/`lt` string comparisons (KW_STR_*), `===`
    type-and-value equality (KW_TAV_EQ), `not in` membership and the
    `=??` null-safe assign (expr-assign.c nullv)."""
    from ..aggregate import pre_aggregated_count
    from ..filterx import FilterX

    fx = FilterX("""
        switch ($value) {
          case 0..50: $band = "low"; break;
          case 50..200: $band = "mid";
          default: $band = $band eq "mid" ? "mid+" : "other";
        };
        $head = $event_type[..4];
        $tail = $event_type[-2..];
        $early = $event_type lt "login" ? 1 : 0;
        $ptag = "none";
        $ptag =?? $props[..1];
        $rare = $event_type not in ["click", "view"] ? 1 : 0;
        $exact_v = $value === 100.0 ? 1 : 0;
    """)
    ds = _read(sf_dir, "events", ["event_type", "value", "props"]).map_batches(
        fx, batch_format="pyarrow")
    cols = ["band", "head", "tail", "early", "ptag", "rare", "exact_v"]
    return _sorted(pre_aggregated_count(ds, cols, alias="n", final="driver"), cols)


@_query(oracle="""
SELECT event_id,
       '{"event_type":"' || event_type || '","user_id":"' || CAST(user_id AS VARCHAR) || '"}' AS json_out
FROM events
""")
def events_format_json(sf_dir: str):
    """$(format-flat-json) serializer (reference modules/json/format-json.c)
    over selected event columns."""
    from ..functions.templates import Template

    tpl = Template("$(format-flat-json event_type=${event_type} user_id=${user_id})")

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b.column("event_id"),
                         "json_out": tpl.eval_arrow(b)})

    return _read(sf_dir, "events", ["event_id", "event_type", "user_id"]).map_batches(
        fmt, batch_format="pyarrow"
    ).to_pandas()


@_query(oracle="""
WITH marked AS (
  SELECT user_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 1800 SECOND THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), numbered AS (
  SELECT user_id, ts, event_type,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
)
SELECT user_id, CAST(sid AS BIGINT) AS context_id,
       string_agg(event_type, ' ' ORDER BY ts) AS joined,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM numbered GROUP BY user_id, sid
""")
def events_group_lines(sf_dir: str):
    """group-lines() multi-line reassembly (reference
    modules/correlation/group-lines.c): per user session (timeout 1800s),
    event_types joined in event-time order."""
    from ..state.correlate import group_lines

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = group_lines(ds, "user_id", timeout=1800, ts_col="ts", message_col="event_type", separator=" ").to_pandas()
    out = out.rename(columns={"message": "joined", "n_lines": "n_events"})
    return out[["user_id", "context_id", "joined", "n_events"]]


@_query(oracle="""
WITH RECURSIVE ordered AS (
  SELECT user_id, event_type, ts, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id, event_type) AS cnt
  FROM events
), kept AS (
  SELECT user_id, event_type, ts, event_id, rn, cnt FROM ordered WHERE rn = 1
  UNION ALL
  SELECT nxt.user_id, nxt.event_type, nxt.ts, nxt.event_id, nxt.rn, nxt.cnt
  FROM kept k, LATERAL (
    SELECT o.user_id, o.event_type, o.ts, o.event_id, o.rn, o.cnt
    FROM ordered o
    WHERE o.user_id = k.user_id AND o.event_type = k.event_type
      AND o.rn > k.rn AND o.ts > k.ts + INTERVAL 3600 SECOND
    ORDER BY o.rn LIMIT 1
  ) nxt
)
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(COALESCE(LEAD(rn) OVER (PARTITION BY user_id, event_type ORDER BY rn), cnt + 1)
            - rn - 1 AS BIGINT) AS repeat_count
FROM kept ORDER BY event_id
""")
def events_suppress(sf_dir: str):
    """suppress(): drop duplicate messages per (user, type) within 3600s,
    count suppressed (reference lib/logwriter.c:575-660). Oracled by a
    recursive-CTE greedy chain in DuckDB."""
    from ..state.suppress import suppress

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    out = suppress(ds, 3600, keys=("user_id", "event_type"), ts_col="ts", tie_break="event_id").to_pandas()
    return _sorted(out[["event_id", "repeat_count"]], "event_id")


@_query(oracle="""
WITH RECURSIVE ordered AS (
  SELECT user_id, ts, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
), sim AS (
  SELECT o.user_id, o.rn, o.ts, o.event_id, TRUE AS admitted,
         CAST(NULL AS TIMESTAMP) AS p1, o.ts AS p2
  FROM ordered o WHERE o.rn = 1
  UNION ALL
  SELECT o.user_id, o.rn, o.ts, o.event_id,
         (s.p1 IS NULL OR o.ts >= s.p1 + INTERVAL 3600 SECOND) AS admitted,
         CASE WHEN (s.p1 IS NULL OR o.ts >= s.p1 + INTERVAL 3600 SECOND) THEN s.p2 ELSE s.p1 END AS p1,
         CASE WHEN (s.p1 IS NULL OR o.ts >= s.p1 + INTERVAL 3600 SECOND) THEN o.ts ELSE s.p2 END AS p2
  FROM sim s JOIN ordered o ON o.user_id = s.user_id AND o.rn = s.rn + 1
)
SELECT CAST(event_id AS BIGINT) AS event_id FROM sim WHERE admitted ORDER BY event_id
""")
def events_rate_limit(sf_dir: str):
    """rate-limit(): per-user token bucket, 2 events per hour window
    (reference modules/rate-limit-filter/rate-limit.c). Oracled by a
    recursive-CTE ring-state simulation in DuckDB."""
    from ..state.suppress import rate_limit

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    out = rate_limit(ds, "user_id", rate=2, per_seconds=3600, ts_col="ts", tie_break="event_id").to_pandas()
    return _sorted(out[["event_id"]], "event_id")


@_query(oracle="""
SELECT c.c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o.o_totalprice), 2) AS total
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
""")
def orders_customer_hash_join(sf_dir: str):
    """Big-big partitioned hash join (axosyslog_ray.join — beyond the
    reference's broadcast-only joins, SURVEY.md §2.7): orders x customer,
    revenue stats per market segment."""
    from ..join import hash_join
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.rename_columns(["o_custkey", "c_mktsegment"]), batch_format="pyarrow"
    )
    joined = hash_join(
        orders, cust, "o_custkey", how="inner",
        left_schema=pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())]),
        right_schema=pa.schema([("o_custkey", pa.int64()), ("c_mktsegment", pa.string())]))
    out = (
        joined.groupby("c_mktsegment")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total"))
        .to_pandas()
    )
    out["total"] = round_half_away(out["total"], 2)
    return out


@_query(oracle="""
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n FROM lineitem GROUP BY l_returnflag
""")
def lineitem_salted_count(sf_dir: str):
    """Salted two-phase count for skewed keys (aggregate.salted_count —
    the reference's missing skew handling, SURVEY.md §4): counts per
    l_returnflag via (key, salt) partials then re-reduce."""
    from ..aggregate import salted_count

    ds = _read(sf_dir, "lineitem", ["l_returnflag"])
    return salted_count(ds, "l_returnflag", num_salts=8, alias="n").to_pandas()


@_query(oracle="""
SELECT event_id, strptime(strftime(ts, '%d/%b/%Y:%H:%M:%S'), '%d/%b/%Y:%H:%M:%S') AS reparsed
FROM events
""")
def events_date_roundtrip(sf_dir: str):
    """date-parser() (reference modules/timestamp/date-parser.c): format
    each ts as an apache-style string, parse it back through the format
    list, return the reparsed stamp (second precision)."""
    from ..stages.date_parser import DateParser

    dp = DateParser(["%Y-%m-%dT%H:%M:%S%z", "%d/%b/%Y:%H:%M:%S"], source_col="ts_str", target_col="reparsed")

    def rt(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["ts_str"] = df["ts"].dt.strftime("%d/%b/%Y:%H:%M:%S")
        t = dp(pa.Table.from_pandas(df[["event_id", "ts_str"]], preserve_index=False))
        return t.select(["event_id", "reparsed"])

    return _read(sf_dir, "events", ["event_id", "ts"]).map_batches(rt, batch_format="pyarrow").to_pandas()


@_query(oracle="""
-- 10.a.b.1 in 10.0.0.0/18 <=> a*2^16 + b*2^8 + 1 < 2^14 <=> a = 0 AND b < 64
SELECT event_id FROM events WHERE (event_id % 256) = 0 AND (event_id % 100) < 64 ORDER BY event_id
""")
def events_netmask(sf_dir: str):
    """netmask() CIDR containment (reference lib/filter/filter-netmask.c):
    synthetic ip per event, keep rows inside 10.0.0.0/18."""
    from ..route import Netmask

    nm = Netmask("10.0.0.0/18", field="ip")

    def filt(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["ip"] = "10." + (df["event_id"] % 256).astype(str) + "." + (df["event_id"] % 100).astype(str) + ".1"
        t = pa.Table.from_pandas(df[["event_id", "ip"]], preserve_index=False)
        mask = nm.mask(t)
        return t.filter(pa.array(mask)).select(["event_id"])

    return _sorted(_read(sf_dir, "events", ["event_id"]).map_batches(filt, batch_format="pyarrow").to_pandas(),
                   "event_id")


@_query(oracle="""
SELECT date_trunc('hour', ts) AS window_start, CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1
""")
def events_cps_windows(sf_dir: str):
    """stats change-per-second analogue (reference
    lib/stats/aggregator/stats-change-per-second.c): event counts per
    1-hour tumbling event-time window."""
    from ..aggregate import pre_aggregated_count

    def bucket(b: pa.Table) -> pa.Table:
        ts = b.column("ts").to_pandas()
        hour = ts.dt.floor("h")
        return pa.table({"window_start": pa.array(hour.to_numpy().astype("datetime64[us]"), type=pa.timestamp("us"))})

    ds = _read(sf_dir, "events", ["ts"]).map_batches(bucket, batch_format="pyarrow")
    return pre_aggregated_count(ds, ["window_start"], alias="n").to_pandas()


@_query(oracle="""
SELECT CASE WHEN value < 50 THEN '0-50' WHEN value < 100 THEN '50-100'
            WHEN value < 150 THEN '100-150' WHEN value < 200 THEN '150-200'
            ELSE '200+' END AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1
""")
def events_value_histogram(sf_dir: str):
    """stats histogram aggregator (reference
    lib/stats/aggregator/stats-histogram.c): fixed buckets over value."""
    from ..aggregate import pre_aggregated_count

    edges = np.array([0.0, 50.0, 100.0, 150.0, 200.0])

    def bucket(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        idx = np.searchsorted(edges, v, side="right") - 1
        idx = np.clip(idx, 0, len(edges) - 1)
        labels = np.array(["0-50", "50-100", "100-150", "150-200", "200+"], dtype=object)
        return pa.table({"bucket": pa.array(labels[idx], type=pa.string())})

    ds = _read(sf_dir, "events", ["value"]).map_batches(bucket, batch_format="pyarrow")
    return pre_aggregated_count(ds, ["bucket"], alias="n").to_pandas()


def _eval_split(sf_dir: str):
    """(corpus, eval set) of the documents: doc_id % 97 == 0 stands in
    for a benchmark suite."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def part(is_eval: bool):
        def f(b: pa.Table) -> pa.Table:
            m = pa.array(b.column("doc_id").to_numpy() % 97 == 0)
            return b.filter(m if is_eval else pc.invert(m))

        return f

    return (docs.map_batches(part(False), batch_format="pyarrow"),
            docs.map_batches(part(True), batch_format="pyarrow"))


# word-3-grams per document, shared by the decontamination oracles
_GRAMS3_CTES = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents
),
idx AS (
  SELECT doc_id, w, unnest(generate_series(1, len(w) - 2)) AS i FROM toks WHERE len(w) >= 3
),
grams AS (
  SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g FROM idx
),"""


@_query(oracle=_GRAMS3_CTES + r"""
eval_grams AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0)
SELECT d.doc_id,
       EXISTS(SELECT 1 FROM grams gr JOIN eval_grams e USING (g)
              WHERE gr.doc_id = d.doc_id) AS contaminated
FROM documents d WHERE d.doc_id % 97 <> 0
ORDER BY doc_id
""")
def docs_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing any word
    3-gram with the eval set (doc_id % 97 == 0 stands in for a benchmark
    suite). Eval gram set broadcast once; corpus streams (curation.py)."""
    from ..curation import decontaminate

    return _sorted(decontaminate(*_eval_split(sf_dir), n=3).to_pandas(), "doc_id")


@_query(oracle=_GRAMS3_CTES + r"""
eg AS (SELECT DISTINCT doc_id AS eval_id, g FROM grams WHERE doc_id % 97 = 0),
cg AS (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % 97 <> 0),
hits AS (SELECT DISTINCT eg.eval_id, cg.doc_id FROM eg JOIN cg USING (g))
SELECT e.eval_id, CAST(coalesce(h.n, 0) AS BIGINT) AS n_leaked_docs
FROM (SELECT DISTINCT doc_id AS eval_id FROM documents WHERE doc_id % 97 = 0) e
LEFT JOIN (SELECT eval_id, count(*) AS n FROM hits GROUP BY eval_id) h
  USING (eval_id)
ORDER BY eval_id
""")
def docs_leak_report(sf_dir: str):
    """Per-eval-item contamination leak report
    (curation.contamination_report): for each eval doc (doc_id % 97 ==
    0, same suite as docs_decontaminate), the number of corpus docs
    sharing >= 1 word-3-gram — the reverse audit view of
    decontamination. Broadcast (gram, eval_id) index, map-only corpus
    scan, one small eval-id groupby-count."""
    from ..curation import contamination_report

    return contamination_report(*_eval_split(sf_dir), n=3)


@_query(oracle=_golden("docs_hash_sample_sf001.parquet", "doc_id, lang", "doc_id", lines=True))
def docs_hash_sample(sf_dir: str):
    """Deterministic stratified sampling: keep a doc iff its vectorized
    64-bit hash coordinate (splitmix64 of doc_id) falls under its
    language's rate threshold — reproducible under any partitioning, no
    shuffle, no RNG (curation.py). The coordinate is seeded+deterministic
    but not SQL-expressible, so the oracle is a committed golden parquet
    (scripts/gen_golden_oracles.py — disclosed regression pin); the
    md5 variant (method="md5") keeps an independent DuckDB-SQL
    conformance check in tests/test_curation.py."""
    from ..curation import hash_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = hash_sample(ds, rates={"en": 0.5, "de": 0.2}, key_col="doc_id",
                      strat_col="lang", default_rate=0.05).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents) WHERE rn <= 30 ORDER BY doc_id
""")
def docs_source_quota(sf_dir: str):
    """Per-source document cap: first 30 docs per source by doc_id
    (web-corpus per-domain quota; coarse-bucket shuffle, curation.py)."""
    from ..curation import quota_head

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    out = quota_head(ds, key_col="source", order_col="doc_id", k=30).to_pandas()
    return _sorted(out[["doc_id", "source"]], "doc_id")


@_query(oracle="""
WITH lines AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS line,
         generate_subscripts(string_split(text, ' '), 1) AS seq
  FROM documents
), grp AS (
  SELECT doc_id, seq, line,
         SUM(CASE WHEN seq = 1 OR regexp_matches(line, '^[st]')
             THEN 1 ELSE 0 END) OVER (PARTITION BY doc_id ORDER BY seq) AS msg_seq
  FROM lines
)
SELECT doc_id, CAST(msg_seq AS BIGINT) AS msg_seq,
       string_agg(line, '|' ORDER BY seq) AS message,
       CAST(COUNT(*) AS BIGINT) AS n_lines
FROM grp GROUP BY doc_id, msg_seq ORDER BY doc_id, msg_seq
""")
def docs_multiline(sf_dir: str):
    """Regexp-prefix multi-line framing (sources/text.MultiLineJoiner,
    reference lib/multi-line/regexp-multi-line.c): each doc's words are
    a line stream; words starting with [st] begin a new message, the
    rest continue — messages rejoined with '|'. SQL oracle: window-sum
    of start flags + string_agg."""
    from ..sources.text import MultiLineJoiner

    joiner = MultiLineJoiner(mode="regexp", prefix_re=r"^[st]", separator="|")

    def frame(b: pa.Table) -> pa.Table:
        out_id, out_seq, out_msg, out_n = [], [], [], []
        for d, t in zip(b.column("doc_id").to_pylist(), b.column("text").to_pylist()):
            for i, grp in enumerate(joiner._group((t or "").split(" ")), 1):
                out_id.append(d)
                out_seq.append(i)
                out_msg.append("|".join(grp))
                out_n.append(len(grp))
        return pa.table({
            "doc_id": pa.array(out_id, type=pa.int64()),
            "msg_seq": pa.array(out_seq, type=pa.int64()),
            "message": pa.array(out_msg, type=pa.string()),
            "n_lines": pa.array(out_n, type=pa.int64()),
        })

    out = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        frame, batch_format="pyarrow").to_pandas()
    return _sorted(out, ["doc_id", "msg_seq"])


@_query(oracle="""
SELECT CAST(event_id AS BIGINT) AS event_id,
       CASE WHEN event_type = 'error' THEN
         'Traceback (most recent call last):' || chr(10) ||
         'File "app_' || CAST(event_id AS VARCHAR) || '.py", line 1, in <module>' || chr(10) ||
         '  raise_it()' || chr(10) ||
         'ValueError: event ' || CAST(event_id AS VARCHAR)
       ELSE 'evt ' || CAST(event_id AS VARCHAR) || ' ' || event_type END AS message
FROM events ORDER BY event_id
""")
def events_smart_multiline(sf_dir: str):
    """Smart multi-line FSM (sources/smartml.py, reference
    lib/multi-line/smart-multi-line.c): each event renders as log lines
    — 'error' events as a 4-line Python traceback, others as one plain
    line — streamed per user-bucket through the FSM. Every event must
    come back as EXACTLY one reassembled message (the SQL oracle builds
    the expected message per event independently; any FSM over- or
    under-join breaks row alignment and fails the hash)."""
    from ..shuffle import bucketed_map_groups
    from ..sources.smartml import smart_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def per_stream(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_id")
        lines: list[str] = []
        for eid, et in zip(g["event_id"], g["event_type"]):
            if et == "error":
                lines += ["Traceback (most recent call last):",
                          f'File "app_{eid}.py", line 1, in <module>',
                          "  raise_it()",
                          f"ValueError: event {eid}"]
            else:
                lines.append(f"evt {eid} {et}")
        messages = ["\n".join(m) for m in smart_join(lines)]
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "message": messages})

    return _sorted(bucketed_map_groups(ev, "user_id", per_stream, num_buckets=16).to_pandas(), "event_id")


@_query(oracle="""
WITH w AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS words,
         length(text) - length(replace(text, '#', '')) AS hashes,
         (length(text) - length(replace(text, '...', ''))) // 3 AS ells
  FROM documents
), m AS (
  SELECT doc_id,
         CAST(len(words) AS BIGINT) AS n_words,
         CAST(len(words) AS DOUBLE) AS nw,
         GREATEST(len(words), 1) AS nz,
         COALESCE(list_sum(list_transform(words, x -> length(x))), 0) AS chars,
         hashes, ells,
         COALESCE(list_sum(list_transform(words,
             x -> CASE WHEN regexp_matches(x, '[A-Za-z]') THEN 1 ELSE 0 END)), 0) AS alpha,
         COALESCE(list_sum(list_transform(['the','be','to','of','and','that','have','with'],
             sw -> CASE WHEN list_contains(words, sw) THEN 1 ELSE 0 END)), 0) AS stop_hits
  FROM w
)
SELECT doc_id,
       n_words,
       ROUND(CAST(chars AS DOUBLE) / nz, 4) AS mean_word_len,
       ROUND(CAST(hashes + ells AS DOUBLE) / nz, 4) AS symbol_word_ratio,
       ROUND(CAST(alpha AS DOUBLE) / nz, 4) AS alpha_word_ratio,
       CAST(stop_hits AS BIGINT) AS stop_hits,
       (n_words >= 20 AND n_words <= 100000
        AND CAST(chars AS DOUBLE) / nz >= 3.0 AND CAST(chars AS DOUBLE) / nz <= 6.0
        AND CAST(hashes + ells AS DOUBLE) / nz <= 0.1
        AND CAST(alpha AS DOUBLE) / nz >= 0.8
        AND stop_hits >= 1) AS gopher_pass
FROM m ORDER BY doc_id
""")
def docs_gopher_quality(sf_dir: str):
    """Gopher quality rules over the documents table (textstats.analysis
    .gopher_quality — published Rae et al. 2021 heuristics): per-doc
    component metrics + verdict; thresholds tuned to this corpus's short
    synthetic docs so both verdicts appear."""
    from ..textstats.analysis import gopher_quality

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: gopher_quality(b, min_words=20, min_mean_word_len=3.0,
                                 max_mean_word_len=6.0, min_stop_hits=1),
        batch_format="pyarrow").drop_columns(["text"]).to_pandas()
    return _sorted(out, "doc_id")


_CONFIG_PIPELINE_CONF = """\
@version: 4.8
@define hi_sev err

block filter b_hot { severity(`hi_sev`..emerg); };

source s_ev { internal(); };
destination d_hot { file("hot"); };
destination d_tx { file("tx"); };
destination d_other { file("other"); };

log {
  source(s_ev);
  junction {
    channel { filter { b_hot() }; destination(d_hot); flags(final); };
    channel { filter { program("^(signup|purchase)$"); }; destination(d_tx); flags(final); };
    channel { destination(d_other); flags(fallback); };
  };
};
"""


@_query(oracle="""
SELECT dest, COUNT(*) AS n FROM (
  SELECT CASE WHEN (event_id % 192) % 8 <= 3 THEN 'd_hot'
              WHEN event_type IN ('signup', 'purchase') THEN 'd_tx'
              ELSE 'd_other' END AS dest
  FROM events) t
GROUP BY dest ORDER BY dest
""")
def events_config_pipeline(sf_dir: str):
    """The config front end end-to-end: a syslog-ng .conf — pragmas,
    @define + backtick substitution (lib/cfg-lexer-subst.c), a block
    filter, a junction with final/fallback channels (lib/cfg-grammar.y,
    lib/logmpx.c:97-130) — compiled by config.compile_config and
    executed over the events table as a Ray Dataset stage; delivered
    counts per destination."""
    from ..aggregate import pre_aggregated_count
    from ..config import compile_config, run_config_on_dataset

    cfg = compile_config(_CONFIG_PIPELINE_CONF)

    def derive(b: pa.Table) -> pa.Table:
        pri = (b.column("event_id").to_numpy() % 192).astype(np.uint16)
        return pa.table({
            "pri": pa.array(pri, type=pa.uint16()),
            "program": b.column("event_type"),
            "message": b.column("event_type"),
        })

    ds = _read(sf_dir, "events", ["event_id", "event_type"]).map_batches(
        derive, batch_format="pyarrow")
    out = run_config_on_dataset(cfg, ds, "s_ev").map_batches(
        lambda b: b.select(["dest"]), batch_format="pyarrow")
    return pre_aggregated_count(out, ["dest"], alias="n").to_pandas()


@_query(oracle="""
SELECT word, CAST(COUNT(*) AS BIGINT) AS cnt FROM (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
  FROM documents)
GROUP BY word ORDER BY cnt DESC, word LIMIT 50
""")
def docs_vocab_topk(sf_dir: str):
    """Top-50 corpus vocabulary (textstats.vocab.vocab_topk): per-batch
    word-count combiner so the shuffle exchanges vocabulary-sized data,
    then a vocab-sized groupby sum + sort/limit."""
    from ..textstats.vocab import vocab_topk

    return vocab_topk(_read(sf_dir, "documents", ["text"]), k=50).to_pandas().reset_index(drop=True)


@_query(oracle="""
WITH terms AS (
  SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
    FROM documents)
  GROUP BY doc_id, word),
dfreq AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS df FROM terms GROUP BY word),
scored AS (
  SELECT t.doc_id, t.word, t.tf, d.df,
         CAST((t.tf * 1000000) // d.df AS BIGINT) AS score
  FROM terms t JOIN dfreq d USING (word)),
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY score DESC, word) AS rn FROM scored)
SELECT doc_id, word, tf, df, score
FROM ranked WHERE rn <= 3 ORDER BY doc_id, score DESC, word
""")
def docs_tfidf_topk(sf_dir: str):
    """Per-doc top-3 keywords by integer tf-idf proxy (textstats.vocab
    .tfidf_topk): distributed df aggregate + hash_join on word + bucketed
    per-doc head — nothing vocabulary-sized on the driver."""
    from ..textstats.vocab import tfidf_topk

    out = tfidf_topk(_read(sf_dir, "documents", ["doc_id", "text"]), k=3).to_pandas()
    return _sorted(out[["doc_id", "word", "tf", "df", "score"]],
                   ["doc_id", "score", "word"], ascending=[True, False, True])


@_query(oracle="""
WITH c AS (
  SELECT doc_id,
         CAST(COALESCE(len(regexp_extract_all(lower(text), '[a-z0-9]+')), 0)
              AS BIGINT) AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
       CAST((SUM(n_tokens) OVER (ORDER BY doc_id) - n_tokens) // 64 AS BIGINT)
         AS seq_bin
FROM c ORDER BY doc_id
""")
def docs_pack_sequences(sf_dir: str):
    """Greedy concat-and-chunk sequence packing into 64-token context
    windows (curation.pack_sequences): two-level scan tree — per-range
    token totals reduce to a range_size-bounded root, exclusive cumsum
    at the root, vectorized within-range offsets. range_size=64 so the
    test corpus actually exercises multiple ranges."""
    from ..curation import pack_sequences

    out = pack_sequences(_read(sf_dir, "documents", ["doc_id", "text"]),
                         window=64, range_size=64).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, coalesce(text, '') AS text,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ws
  FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n,
              greatest(length(array_to_string(ws, '')), 1) AS tot_ch FROM toks),
lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS l FROM toks),
lc AS (SELECT doc_id, l, count(*) AS c, length(l) AS ch
       FROM lines GROUP BY doc_id, l),
lagg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_lines,
         sum(c - 1) / greatest(sum(c), 1) AS dlf,
         CAST(sum((c - 1) * ch) AS DOUBLE) / greatest(sum(c * ch), 1) AS dlcf
  FROM lc GROUP BY doc_id),
g2 AS (SELECT nw.doc_id, array_to_string(ws[i : i + 1], ' ') AS g, tot_ch
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n, 1))) AS i) t),
t2 AS (SELECT doc_id, max(c * ln) / any_value(tot_ch) AS v FROM (
         SELECT doc_id, g, tot_ch, count(*) AS c, length(g) - 1 AS ln
         FROM g2 GROUP BY doc_id, g, tot_ch HAVING count(*) >= 2)
       GROUP BY doc_id),
g3 AS (SELECT nw.doc_id, array_to_string(ws[i : i + 2], ' ') AS g, tot_ch
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 1, 1))) AS i) t),
t3 AS (SELECT doc_id, max(c * ln) / any_value(tot_ch) AS v FROM (
         SELECT doc_id, g, tot_ch, count(*) AS c, length(g) - 2 AS ln
         FROM g3 GROUP BY doc_id, g, tot_ch HAVING count(*) >= 2)
       GROUP BY doc_id),
g4 AS (SELECT nw.doc_id, array_to_string(ws[i : i + 3], ' ') AS g, tot_ch
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 2, 1))) AS i) t),
t4 AS (SELECT doc_id, max(c * ln) / any_value(tot_ch) AS v FROM (
         SELECT doc_id, g, tot_ch, count(*) AS c, length(g) - 3 AS ln
         FROM g4 GROUP BY doc_id, g, tot_ch HAVING count(*) >= 2)
       GROUP BY doc_id),
g5 AS (SELECT nw.doc_id, CAST(i AS BIGINT) AS pos,
              array_to_string(ws[i : i + 4], ' ') AS g
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 3, 1))) AS i) t),
d5 AS (SELECT doc_id, g FROM g5 GROUP BY doc_id, g HAVING count(*) >= 2),
cov5 AS (
  SELECT DISTINCT dg.doc_id, CAST(dg.pos + o.j AS BIGINT) AS p
  FROM (SELECT g5.doc_id, g5.pos FROM g5 JOIN d5 USING (doc_id, g)) dg,
       LATERAL (SELECT unnest(range(0, 5)) AS j) o),
c5 AS (
  SELECT cov5.doc_id, sum(length(nw.ws[cov5.p])) AS cch
  FROM cov5 JOIN nw USING (doc_id) GROUP BY cov5.doc_id)
SELECT nw.doc_id,
       coalesce(lagg.n_lines, 1) AS n_lines,
       ROUND(coalesce(lagg.dlf, 0), 4) AS dup_line_frac,
       ROUND(coalesce(lagg.dlcf, 0), 4) AS dup_line_char_frac,
       ROUND(coalesce(t2.v, 0), 4) AS top_2gram_char_frac,
       ROUND(coalesce(t3.v, 0), 4) AS top_3gram_char_frac,
       ROUND(coalesce(t4.v, 0), 4) AS top_4gram_char_frac,
       ROUND(coalesce(CAST(c5.cch AS DOUBLE) / nw.tot_ch, 0), 4) AS dup_5gram_char_frac
FROM nw
LEFT JOIN lagg USING (doc_id) LEFT JOIN t2 USING (doc_id)
LEFT JOIN t3 USING (doc_id) LEFT JOIN t4 USING (doc_id)
LEFT JOIN c5 USING (doc_id)
ORDER BY nw.doc_id
""")
def docs_gopher_repetition(sf_dir: str):
    """Gopher repetition rules (textstats.repetition.gopher_repetition,
    Rae et al. 2021 table A1's repetition half): duplicate-line
    fractions, top-{2,3,4}-gram character fractions, duplicated-5-gram
    character coverage — map-only (no shuffle at any scale),
    independently SQL-oracled."""
    from ..textstats.repetition import gopher_repetition

    return _map_documents(sf_dir, gopher_repetition)


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, source, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents),
nw AS (SELECT doc_id, source, ws, len(ws) AS n FROM toks),
g AS (
  SELECT nw.doc_id, nw.source, array_to_string(ws[i : i + 2], ' ') AS gram
  FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 1, 1))) AS i) t),
ref AS (SELECT DISTINCT gram FROM g WHERE source = 'src0'),
cnt AS (
  SELECT g.doc_id, count(*) AS n_grams,
         sum(CASE WHEN ref.gram IS NOT NULL THEN 1 ELSE 0 END) AS n_hit
  FROM g LEFT JOIN ref USING (gram) GROUP BY g.doc_id)
SELECT t.doc_id, CAST(coalesce(c.n_grams, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(c.n_hit, 0) AS BIGINT) AS n_hit
FROM toks t LEFT JOIN cnt c USING (doc_id) ORDER BY t.doc_id
""")
def docs_bloom_decontaminate(sf_dir: str):
    """Cross-corpus Bloom membership (dedup.bloom.gram_bloom_flags):
    per-doc count of word-3-gram positions that hit a Bloom filter
    built by streaming the reference shard (source='src0') through a
    tree OR-reduce — bounded broadcast state regardless of reference
    size. Oracle is the EXACT membership join: green iff the filter
    produced zero false positives on this corpus, which the 2^22-bit /
    7-hash sizing guarantees with ~1e-10 per-probe odds (the FP rate
    itself is pinned by tests/test_bloom.py)."""
    from ..dedup.bloom import gram_bloom_flags

    corpus = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = _read(sf_dir, "documents", ["text", "source"]).filter(
        expr="source == 'src0'")
    out = gram_bloom_flags(corpus, ref, n=3).to_pandas()
    return _sorted(out, "doc_id")


_SUBSTR_K = 10


@_query(oracle=f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n FROM toks),
win AS (
  SELECT nw.doc_id, CAST(i AS BIGINT) AS pos,
         array_to_string(ws[i : i + {_SUBSTR_K - 1}], ' ') AS w
  FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - {_SUBSTR_K - 2}, 1))) AS i) t),
dup AS (SELECT w FROM win GROUP BY w HAVING count(*) >= 2),
cov AS (
  SELECT DISTINCT dw.doc_id, CAST(dw.pos + o.j AS BIGINT) AS p
  FROM (SELECT win.doc_id, win.pos FROM win JOIN dup USING (w)) dw,
       LATERAL (SELECT unnest(range(0, {_SUBSTR_K})) AS j) o),
docw AS (
  SELECT doc_id, unnest(ws) AS word, generate_subscripts(ws, 1) AS p FROM toks),
agg AS (
  SELECT d.doc_id, count(*) AS n_words, count(c.p) AS n_removed,
         coalesce(string_agg(CASE WHEN c.p IS NULL THEN d.word END, ' ' ORDER BY d.p), '') AS text_clean
  FROM docw d LEFT JOIN cov c ON d.doc_id = c.doc_id AND d.p = c.p
  GROUP BY d.doc_id)
SELECT t.doc_id, coalesce(a.n_words, 0) AS n_words,
       coalesce(a.n_removed, 0) AS n_removed,
       coalesce(a.text_clean, '') AS text_clean
FROM toks t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id
""")
def docs_substring_dedup(sf_dir: str):
    """ExactSubstr dedup (dedup.substring.substring_dedup, Lee et al.
    ACL 2022 semantics at 10-word-window granularity): every word
    covered by a corpus-duplicated window is removed from EVERY copy.
    Hash prepass (16-byte window rows in the wide shuffle) + exact
    text verification, independently oracled by a DuckDB window
    self-join over the same tokenization."""
    from ..dedup.substring import substring_dedup

    out = substring_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                          k=10).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle=r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w,
         len(regexp_split_to_array(trim(text), '\s+')) AS n
  FROM documents WHERE length(trim(text)) > 0),
c AS (
  SELECT doc_id, w, n,
         UNNEST(generate_series(0,
           CASE WHEN n <= 20 THEN 0 ELSE CAST(ceil((n - 20) / 20.0) AS INT) END)) AS chunk_id
  FROM t),
ch AS (
  SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
         array_to_string(w[chunk_id * 20 + 1 : least(chunk_id * 20 + 20, n)], ' ') AS text,
         CAST(least(chunk_id * 20 + 20, n) - chunk_id * 20 AS BIGINT) AS n_tokens
  FROM c),
r AS (SELECT *, row_number() OVER (
        PARTITION BY text ORDER BY doc_id, chunk_id) AS rn FROM ch)
SELECT doc_id, chunk_id, n_tokens FROM r WHERE rn = 1 ORDER BY doc_id, chunk_id
""")
def docs_dedup_chunks(sf_dir: str):
    """Duplicate-passage removal at 20-token chunk granularity
    (dedup.chunks.dedup_chunks): map-only explode + ONE coarse-bucket
    shuffle on chunk text, keep the globally-first (doc_id, chunk_id)
    per distinct text."""
    from ..dedup.chunks import dedup_chunks

    out = dedup_chunks(_read(sf_dir, "documents", ["doc_id", "text"]),
                       chunk_tokens=20).to_pandas()
    return _sorted(out, ["doc_id", "chunk_id"])


@_query(oracle=kmeans_sql(4, 3))
def emb_kmeans(sf_dir: str):
    """Distributed Lloyd k-means over the embedding column (ann.kmeans
    .kmeans_labels, k=4, 3 iterations): assignment + integer partial
    sums fused in one map_batches per iteration, k*(d+1)-row reduce.
    Oracle: a generated CTE chain running the SAME quantized-integer
    iterations in DuckDB (exact BIGINT partial sums on both sides)."""
    from ..ann.kmeans import kmeans_labels

    labels, _ = kmeans_labels(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=4, iters=3, vec_col="embedding", id_col="vec_id")
    out = labels.to_pandas()
    return _sorted(out, "vec_id")


@_query(oracle=cluster_balanced_sql(4, 3, 50))
def emb_cluster_sample(sf_dir: str):
    """Cluster-balanced sampling (ann.kmeans.cluster_balanced_sample):
    k-means clusters capped at 50 items each, chosen by a deterministic
    md5(id) coordinate — diversity-preserving selection (dense regions
    can't dominate the mix). method='md5' so the generated CTE oracle
    reproduces the rank; method='fast' (splitmix64 coordinate) is the
    100-TB path."""
    from ..ann.kmeans import cluster_balanced_sample

    out = cluster_balanced_sample(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=4, iters=3, cap=50, method="md5").to_pandas()
    return _sorted(out[["vec_id", "cluster", "rk"]], ["cluster", "rk"])


@_query(oracle=semdedup_sql(4, 3, 0.45))
def emb_semdedup(sf_dir: str):
    """SemDeDup-style semantic pruning (ann.kmeans.semdedup): k-means
    clusters, then within each cluster drop vectors with an earlier
    neighbor above the cosine threshold. Declarative drop rule so the
    oracle is the kmeans CTE chain + an EXISTS self-join."""
    from ..ann.kmeans import semdedup

    out = semdedup(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                   k=4, iters=3, threshold=0.45,
                   vec_col="embedding", id_col="vec_id").to_pandas()
    return _sorted(out, "vec_id")


@_query(oracle="""
SELECT lang, doc_id, n_chars,
       CAST(row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rk
FROM documents
QUALIFY rk <= 3
ORDER BY lang, rk
""")
def docs_topk_per_lang(sf_dir: str):
    """Per-group top-k (window.topk_per_group): the 3 largest docs per
    language by n_chars (ties: doc_id ascending), rank emitted as rk —
    SQL row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC,
    doc_id) QUALIFY <= 3. Per-batch local top-k combiner bounds the
    shuffle at k rows per (lang, block); no reference analogue (the
    engine's window-op family, beyond grouping-by's sort-key trigger,
    lib/correlation/grouping-by.c)."""
    from ..window import topk_per_group

    ds = _read(sf_dir, "documents", ["lang", "doc_id", "n_chars"])
    out = topk_per_group(ds, "lang", "n_chars", k=3, descending=True,
                         tie_cols="doc_id").to_pandas()
    return _sorted(out[["lang", "doc_id", "n_chars", "rk"]], ["lang", "rk"])


@_query(oracle="""
WITH c AS (
  SELECT source, doc_id,
         sum(n_chars) OVER (PARTITION BY source ORDER BY doc_id
                            ROWS UNBOUNDED PRECEDING) AS cum_chars
  FROM documents)
SELECT source, doc_id, CAST(cum_chars AS BIGINT) AS cum_chars
FROM c WHERE cum_chars <= 2000 ORDER BY source, doc_id
""")
def docs_token_budget(sf_dir: str):
    """Budget-capped prefix selection (window.budget_capped_select): per
    source, walk docs in doc_id order and keep rows while the running
    n_chars total stays <= 2000 — the deterministic "mix each source to
    a byte/token budget" curation step. SQL running-sum window; per-batch
    prefix-bound pruning sheds over-budget rows before the shuffle."""
    from ..window import budget_capped_select

    ds = _read(sf_dir, "documents", ["source", "doc_id", "n_chars"])
    out = budget_capped_select(ds, "source", "n_chars", budget=2000,
                               order_col="doc_id", cum_col="cum_chars").to_pandas()
    return _sorted(out[["source", "doc_id", "cum_chars"]], ["source", "doc_id"])


# fixed demo merge table (rank order) shared verbatim by the Ray query
# and the DuckDB oracle — a vocab artifact, synthesized deterministically
# (learn_bpe on a sample produces tables of exactly this shape)
_BPE_MERGES = [
    ("e", "r"), ("t", "h"), ("th", "e"), ("i", "n"), ("a", "n"),
    ("an", "d"), ("o", "n"), ("e", "s"), ("t", "i"), ("a", "t"),
    ("s", "t"), ("r", "e"), ("in", "g"), ("l", "l"), ("e", "d"),
    ("o", "r"), ("a", "r"), ("e", "n"), ("o", "u"), ("c", "h"),
]


_BPE_MERGES_SQL_VALUES = ", ".join(
    f"({i + 1}, '{a}', '{b}')" for i, (a, b) in enumerate(_BPE_MERGES))


@_query(oracle=f"""
WITH RECURSIVE merges(rank, a, b) AS (VALUES {_BPE_MERGES_SQL_VALUES}),
words AS (
  SELECT doc_id, w
  FROM (SELECT doc_id,
               unnest(string_split_regex(trim(text), '\\s+')) AS w
        FROM documents)
  WHERE w <> ''),
dw(w) AS (SELECT DISTINCT w FROM words),
init AS (
  SELECT w, array_to_string(regexp_split_to_array(w, ''), ' ') AS s
  FROM dw),
bpe(w, s, it) AS (
  SELECT w, s, 0 FROM init
  UNION ALL
  SELECT b.w,
         trim(replace(' ' || b.s || ' ',
                      ' ' || m.a || ' ' || m.b || ' ',
                      ' ' || m.a || m.b || ' ')),
         b.it + 1
  FROM bpe b JOIN merges m ON m.rank = (
      SELECT min(m2.rank) FROM merges m2
      WHERE strpos(' ' || b.s || ' ',
                   ' ' || m2.a || ' ' || m2.b || ' ') > 0)),
wtok AS (
  SELECT w, len(string_split(s, ' ')) AS n FROM (
    SELECT w, s,
           row_number() OVER (PARTITION BY w ORDER BY it DESC) AS rn
    FROM bpe) WHERE rn = 1),
doc_tok AS (
  SELECT d.source, d.doc_id,
         CAST(coalesce(sum(wtok.n), 0) AS BIGINT) AS n_tokens_bpe
  FROM documents d
  LEFT JOIN words ON words.doc_id = d.doc_id
  LEFT JOIN wtok ON wtok.w = words.w
  GROUP BY d.source, d.doc_id),
c AS (
  SELECT source, doc_id, n_tokens_bpe,
         sum(n_tokens_bpe) OVER (PARTITION BY source ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum_tokens
  FROM doc_tok)
SELECT source, doc_id, n_tokens_bpe, CAST(cum_tokens AS BIGINT) AS cum_tokens
FROM c WHERE cum_tokens <= 1500 ORDER BY source, doc_id
""")
def docs_token_budget_bpe(sf_dir: str):
    """Per-source token-budget selection where tokens are counted by a
    from-spec BPE tokenizer (textstats/bpe.py — Sennrich-2016 apply
    loop, GPT-2 merges.txt rank semantics) instead of whitespace runs:
    each distinct word encodes once per actor (Zipf cache), counts
    scatter back map-only, then the same two-level budget scan as
    docs_token_budget. The DuckDB oracle replays the EXACT tokenizer
    with a recursive CTE over the same literal merge table (lowest-rank
    pair present, merged via boundary-safe string replace, iterated to
    fixpoint)."""
    from ..textstats.bpe import bpe_token_counts
    from ..window import budget_capped_select

    ds = _read(sf_dir, "documents", ["source", "doc_id", "text"])
    counts = bpe_token_counts(ds, _BPE_MERGES, keep_cols=["source"])
    out = budget_capped_select(counts, "source", "n_tokens_bpe",
                               budget=1500, order_col="doc_id",
                               cum_col="cum_tokens").to_pandas()
    return _sorted(out[["source", "doc_id", "n_tokens_bpe", "cum_tokens"]], ["source", "doc_id"])


@_query(oracle="""
WITH tl AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex(trim(text), '\\s+') END AS t
  FROM documents),
c AS (
  SELECT doc_id, t, len(t) AS n,
         unnest(generate_series(
             0, CAST(ceil(len(t) / 8.0) AS BIGINT) - 1)) AS k
  FROM tl WHERE len(t) > 0)
SELECT doc_id, k AS chunk_id,
       CAST(least(k * 8 + 10, n) - k * 8 AS BIGINT) AS n_tokens,
       array_to_string(list_slice(t, k * 8 + 1,
                                  least(k * 8 + 10, n)), ' ') AS chunk_text
FROM c ORDER BY doc_id, chunk_id
""")
def docs_chunk(sf_dir: str):
    """Fixed-token-window chunking with overlap (textstats/chunk.py):
    window 10 / overlap 2 whitespace-token chunks per document, chunk
    text reassembled via one Arrow binary_join — map-only, no shuffle.
    The RAG / long-context preprocessing step; SQL replay is
    generate_series + list_slice + array_to_string."""
    from ..textstats.chunk import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(ds, window=10, overlap=2).to_pandas()
    return _sorted(out, ["doc_id", "chunk_id"])


# md5 word-3-gram hashes and their 4-gram-window minima, shared by the
# winnowing oracles
_WINNOW_CTES = """
WITH tl AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex(trim(text), '\\s+') END AS t
  FROM documents),
g AS (
  SELECT doc_id, i,
         md5(array_to_string(list_slice(t, i, i + 2), ' ')) AS h
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
        FROM tl WHERE len(t) >= 3)),
wm AS (
  SELECT doc_id, i,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mh"""


@_query(oracle=_WINNOW_CTES + """
  FROM g)
SELECT DISTINCT doc_id, mh AS fingerprint FROM wm WHERE i >= 4
ORDER BY doc_id, fingerprint
""")
def docs_winnow(sf_dir: str):
    """Winnowing fingerprints (textstats/winnow.py — the MOSS
    algorithm, Schleimer et al. 2003): distinct per-document minima of
    md5 word-3-gram hashes over 4-gram windows; any shared 6-word run
    between documents shares a fingerprint while only ~2/(w+1) of the
    grams are stored. Map-only; SQL replay is the same md5 over
    list_slice grams + min() OVER a 4-row window + DISTINCT."""
    from ..textstats.winnow import winnow_fingerprints

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = winnow_fingerprints(ds, k=3, w=4).to_pandas()
    return _sorted(out, ["doc_id", "fingerprint"])


@_query(oracle=_WINNOW_CTES + """
  FROM g),
fp AS (SELECT DISTINCT doc_id, mh AS fingerprint FROM wm WHERE i >= 4),
ok AS (SELECT fingerprint FROM fp GROUP BY fingerprint
       HAVING count(*) <= 20),
p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
      FROM fp a JOIN ok USING (fingerprint) JOIN fp b USING (fingerprint)
      WHERE a.doc_id < b.doc_id)
SELECT doc_a, doc_b, CAST(count(*) AS BIGINT) AS n_shared
FROM p GROUP BY doc_a, doc_b HAVING count(*) >= 2 ORDER BY doc_a, doc_b
""")
def docs_winnow_pairs(sf_dir: str):
    """Near-dup candidate pairs from winnowing fingerprints
    (textstats/winnow.winnow_pairs): docs sharing >= 2 selected minima
    after dropping fingerprints in > 20 docs (stop-fingerprint cap).
    Document text never shuffles — only the narrow (id, hash) table;
    one bucketed cogroup + one pre-aggregated pair count."""
    from ..textstats.winnow import winnow_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = winnow_pairs(ds, k=3, w=4, min_shared=2, max_df=20).to_pandas()
    return _sorted(out, ["doc_a", "doc_b"])


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
  FROM documents),
g AS (
  SELECT doc_id, array_to_string(list_slice(t, i, i + 4), ' ') AS gram
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 4)) AS i
        FROM toks WHERE len(t) >= 5)),
dg AS (SELECT DISTINCT doc_id, gram FROM g),
ref AS (SELECT DISTINCT g.gram
        FROM g JOIN documents d USING (doc_id) WHERE d.source = 'src0'),
agg AS (
  SELECT dg.doc_id, count(*) AS n_grams,
         count(ref.gram) AS n_matched
  FROM dg LEFT JOIN ref ON dg.gram = ref.gram GROUP BY dg.doc_id)
SELECT d.doc_id,
       CAST(coalesce(agg.n_grams, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(agg.n_matched, 0) AS BIGINT) AS n_matched,
       CAST(CASE WHEN coalesce(agg.n_grams, 0) = 0 THEN 0
            ELSE agg.n_matched * 1000000 // agg.n_grams END AS BIGINT)
           AS containment_micro
FROM documents d LEFT JOIN agg ON agg.doc_id = d.doc_id
ORDER BY d.doc_id
""")
def docs_containment(sf_dir: str):
    """Per-doc n-gram containment vs a reference corpus
    (curation.containment_scores — the Lee-2022 memorization metric):
    reference = the src0 source's documents; score in exact integer
    micro-units. Broadcast gram set + one map-only pass; DuckDB replays
    with distinct gram strings (hash equality == string equality modulo
    the disclosed 64-bit collision caveat shared with decontaminate)."""
    from ..curation import containment_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = _read(sf_dir, "documents", ["source", "doc_id", "text"]) \
        .filter(expr="source == 'src0'")
    out = containment_scores(ds, ref, n=5).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
SELECT event_type,
       round(quantile_cont(value, 0.5), 4) AS p50,
       round(quantile_cont(value, 0.9), 4) AS p90,
       round(quantile_cont(value, 0.99), 4) AS p99
FROM events GROUP BY event_type ORDER BY event_type
""")
def events_quantiles(sf_dir: str):
    """Exact per-group quantiles (window.group_quantiles): p50/p90/p99
    of `value` per event_type via one narrow (key, value) shuffle +
    numpy linear interpolation — the same definition as DuckDB
    quantile_cont. The telemetry "p99 latency per program" shape the
    reference's stats aggregators lack."""
    from ..window import group_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = group_quantiles(ds, "event_type", "value",
                          {"p50": 0.5, "p90": 0.9, "p99": 0.99}).to_pandas()
    return _sorted(out, "event_type")


@_query(oracle="""
SELECT event_type,
       round(quantile_cont(value, 0.5), 4) AS p50,
       round(quantile_cont(value, 0.95), 4) AS p95,
       TRUE AS approx_ok
FROM events GROUP BY event_type ORDER BY event_type
""")
def events_quantiles_sketch(sf_dir: str):
    """Sampled per-group quantile sketch (window.group_quantile_sketch):
    derandomized reservoir — smallest-k splitmix64(event_id)
    coordinates per key, combiner-pruned before the one narrow shuffle —
    the unbounded-group companion to exact group_quantiles. Gate shape
    like events_distinct_users_hll: the sample_k=20000 run covers every
    group entirely, so p50/p95 HASH-match DuckDB quantile_cont exactly;
    approx_ok pins a sample_k=1024 run's p50 within 10% of exact
    (~1/sqrt(k) quantile deviation; measured <= 5.5% here)."""
    from ..window import group_quantile_sketch

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    full = group_quantile_sketch(ds, "event_type", "value",
                                 {"p50": 0.5, "p95": 0.95}, id_col="event_id",
                                 sample_k=20000).to_pandas()
    approx = group_quantile_sketch(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]),
        "event_type", "value", {"a50": 0.5}, id_col="event_id",
        sample_k=1024).to_pandas()
    out = full.merge(approx, on="event_type", how="inner")
    out["approx_ok"] = ((out["a50"] - out["p50"]).abs()
                        / out["p50"].abs().clip(lower=1e-9)) <= 0.10
    return _sorted(out[["event_type", "p50", "p95", "approx_ok"]], "event_type")


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n FROM toks),
g AS (
  SELECT DISTINCT nw.doc_id, array_to_string(ws[i : i + 2], ' ') AS gram
  FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 1, 1))) AS i) t),
a AS (SELECT doc_id, count(*) AS na FROM g GROUP BY doc_id),
eg AS (SELECT g.doc_id AS eid, gram FROM g
       JOIN documents d ON g.doc_id = d.doc_id WHERE d.source = 'src0'),
eb AS (SELECT eid, count(*) AS nb FROM eg GROUP BY eid),
inter AS (
  SELECT g.doc_id, eg.eid, count(*) AS ni
  FROM g JOIN eg USING (gram) GROUP BY g.doc_id, eg.eid),
jac AS (
  SELECT inter.doc_id, max(CAST(ni AS DOUBLE) / (a.na + eb.nb - ni)) AS mj
  FROM inter JOIN a USING (doc_id) JOIN eb USING (eid)
  GROUP BY inter.doc_id)
SELECT t.doc_id, round(coalesce(jac.mj, 0), 6) AS max_jaccard,
       coalesce(jac.mj, 0) >= 0.5 AS contaminated
FROM toks t LEFT JOIN jac USING (doc_id) ORDER BY t.doc_id
""")
def docs_jaccard_decontaminate(sf_dir: str):
    """Exact-Jaccard decontamination (curation.jaccard_decontaminate):
    max similarity of each doc's distinct word-3-gram set vs every
    src0 doc's set, flagged at >= 0.5 — the fuzzy-decontamination step
    (eval near-dups, not just verbatim n-gram overlap). Eval index
    broadcasts; corpus streams; SQL oracle is the independent
    distinct-gram intersection/union join."""
    from ..curation import jaccard_decontaminate

    corpus = _read(sf_dir, "documents", ["doc_id", "text"])
    evald = _read(sf_dir, "documents", ["text", "source"]).filter(
        expr="source == 'src0'")
    out = jaccard_decontaminate(corpus, evald, n=3, threshold=0.5).to_pandas()
    out["max_jaccard"] = round_half_away(out["max_jaccard"], 6)
    return _sorted(out, "doc_id")


# the md5-bucketed unigram LM of dsir.lm_quality_scores (method='md5',
# 10,000 buckets, alpha 0.5): per-doc feature count and summed
# quantized log-prob (w), shared by the LM-quality and CCNet oracles
_LM_CTES = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
uni AS (SELECT doc_id, unnest(ws) AS gram FROM toks),
gb AS (SELECT doc_id,
              CAST(CAST(('0x' || substr(md5(gram), 1, 8)) AS UBIGINT) % 10000 AS BIGINT) AS b
       FROM uni),
cnt AS (SELECT b, count(*) AS c FROM gb GROUP BY b),
tot AS (SELECT coalesce(sum(c), 0) AS t FROM cnt),
q AS (
  SELECT bk.b,
         CAST(round(ln((coalesce(cnt.c, 0) + 0.5) / (tot.t + 0.5 * 10000))
                    * 1000000, 0) AS BIGINT) AS lp
  FROM (SELECT unnest(range(0, 10000)) AS b) bk
  CROSS JOIN tot
  LEFT JOIN cnt ON bk.b = cnt.b),
w AS (SELECT gb.doc_id, count(*) AS n_feats, sum(q.lp) AS lpm
      FROM gb JOIN q ON gb.b = q.b GROUP BY gb.doc_id)"""


@_query(oracle=_LM_CTES + """
SELECT t.doc_id, CAST(coalesce(w.n_feats, 0) AS BIGINT) AS n_feats,
       CAST(coalesce(w.lpm, 0) AS BIGINT) AS logprob_micro
FROM toks t LEFT JOIN w USING (doc_id) ORDER BY t.doc_id
""")
def docs_lm_quality(sf_dir: str):
    """Unigram-LM quality scores (dsir.lm_quality_scores — the
    CCNet/Gopher perplexity-filter shape, self-trained on the corpus):
    one streaming bucket-count tree aggregate, broadcast quantized
    log-prob table, integer-exact per-doc total log-probability.
    method='md5' so DuckDB reproduces the bucket hash byte-for-byte;
    method='fast' is the 100-TB path (same machinery as DSIR,
    rank-pinned in tests/test_dsir.py)."""
    from ..dsir import lm_quality_scores

    out = lm_quality_scores(_read(sf_dir, "documents", ["doc_id", "text"]),
                            num_buckets=10_000, alpha=0.5,
                            method="md5").to_pandas()
    return _sorted(out, "doc_id")


def _dsir_qlr(raw_join: str = "") -> str:
    """The DSIR log-ratio chain of dsir.dsir_weights (method='md5', 10,000
    buckets, alpha 0.5) over `toks`/`nw`: md5-bucketed uni+bi-grams (gb),
    the target (src0) and raw bucket counts, and the per-bucket
    quantized log importance ratio (qlr). `raw_join` narrows the raw
    side's documents."""
    return f"""
uni AS (SELECT doc_id, unnest(ws) AS gram FROM toks),
bi AS (SELECT nw.doc_id, array_to_string(ws[i : i + 1], ' ') AS gram
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n, 1))) AS i) t),
grams AS (SELECT doc_id, gram FROM uni UNION ALL SELECT doc_id, gram FROM bi),
gb AS (SELECT doc_id,
              CAST(CAST(('0x' || substr(md5(gram), 1, 8)) AS UBIGINT) % 10000 AS BIGINT) AS b
       FROM grams),
tgt AS (SELECT b, count(*) AS c FROM gb
        JOIN documents d USING (doc_id) WHERE d.source = 'src0' GROUP BY b),
raw AS (SELECT b, count(*) AS c FROM gb{raw_join} GROUP BY b),
tots AS (SELECT (SELECT coalesce(sum(c), 0) FROM tgt) AS tt,
                (SELECT coalesce(sum(c), 0) FROM raw) AS tr),
qlr AS (
  SELECT bk.b,
         CAST(round((ln((coalesce(tgt.c, 0) + 0.5) / (tots.tt + 0.5 * 10000))
                   - ln((coalesce(raw.c, 0) + 0.5) / (tots.tr + 0.5 * 10000)))
                    * 1000000, 0) AS BIGINT) AS q
  FROM (SELECT unnest(range(0, 10000)) AS b) bk
  CROSS JOIN tots
  LEFT JOIN tgt ON bk.b = tgt.b
  LEFT JOIN raw ON bk.b = raw.b),"""


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n FROM toks),""" + _dsir_qlr() + """
w AS (SELECT gb.doc_id, count(*) AS n_feats, sum(qlr.q) AS wm
      FROM gb JOIN qlr ON gb.b = qlr.b GROUP BY gb.doc_id)
SELECT t.doc_id, CAST(coalesce(w.n_feats, 0) AS BIGINT) AS n_feats,
       CAST(coalesce(w.wm, 0) AS BIGINT) AS weight_micro
FROM toks t LEFT JOIN w USING (doc_id) ORDER BY t.doc_id
""")
def docs_dsir_weights(sf_dir: str):
    """DSIR importance weights (dsir.dsir_weights; Xie et al. NeurIPS
    2023): hashed uni+bi-gram bag-of-words distributions for the target
    (source='src0') and raw corpora via streaming vector-sum aggregates,
    per-doc log importance weight in exact integer micro-units.
    method='md5' here so the DuckDB oracle reproduces the bucket hash
    byte-for-byte; method='fast' (polynomial gram hash, ~100x) is the
    100-TB path, rank-pinned against md5 in tests/test_dsir.py."""
    from ..dsir import dsir_weights

    corpus = _read(sf_dir, "documents", ["doc_id", "text"])
    target = _read(sf_dir, "documents", ["doc_id", "text", "source"]).filter(
        expr="source == 'src0'")
    out = dsir_weights(corpus, target, num_buckets=10_000, alpha=0.5,
                       method="md5").to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
""")
def events_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type
    (aggregate.distinct_count): per-batch (key, value) dedup combiner,
    one coarse-bucket shuffle on hash(key, value), per-bucket nunique
    partials, tiny Sum final. The "distinct hosts per app" telemetry
    shape; sketch.hll_distinct is the unbounded-cardinality companion."""
    from ..aggregate import distinct_count

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    out = distinct_count(ds, "event_type", "user_id",
                         alias="n_users").to_pandas()
    return _sorted(out, "event_type")


@_query(oracle="""
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       TRUE AS approx_ok
FROM events GROUP BY event_type ORDER BY event_type
""")
def events_distinct_users_hll(sf_dir: str):
    """Approximate per-group distinct via HyperLogLog
    (sketch.hll_group_distinct, p=14: one 16 KiB register array per
    (key, block), element-wise-max tree combine, NO value shuffle — the
    unbounded-cardinality path exact distinct_count can't reach).
    Output: (event_type, n_users exact, approx_ok) where approx_ok is
    the tolerance verdict |hll - exact| / exact <= 2%. The oracle
    recomputes the exact count and pins approx_ok TRUE, so the driver's
    hash gate checks BOTH the exact side against DuckDB and that every
    group's HLL estimate landed inside the documented tolerance (the
    value-tolerance analogue of the golden-pin disclosure)."""
    from ..sketch import hll_group_distinct

    exact = events_distinct_users(sf_dir)
    approx = hll_group_distinct(_read(sf_dir, "events", ["event_type", "user_id"]),
                                "event_type", "user_id", p=14,
                                alias="n_hll").to_pandas()
    out = exact.merge(approx, on="event_type", how="inner")
    out["approx_ok"] = ((out["n_hll"] - out["n_users"]).abs()
                        / out["n_users"].clip(lower=1)) <= 0.02
    return _sorted(out[["event_type", "n_users", "approx_ok"]], "event_type")


@_query(oracle="""
WITH w AS (SELECT * FROM (VALUES ('src0', 4), ('src1', 2), ('src2', 1),
                                 ('src3', 1)) AS t(source, wgt)),
cnt AS (SELECT source, CAST(count(*) AS BIGINT) AS n FROM documents
        GROUP BY source),
j AS (SELECT cnt.source, n, wgt FROM cnt JOIN w USING (source)),
m AS (SELECT n AS nm, wgt AS wm FROM j
      ORDER BY CAST(n AS DOUBLE) / wgt, source LIMIT 1),
thr AS (SELECT j.source, (65536 * m.nm * j.wgt) // (m.wm * j.n) AS t
        FROM j, m)
SELECT d.doc_id, d.source FROM documents d JOIN thr ON d.source = thr.source
WHERE thr.t >= 65536
   OR substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 4) < printf('%04x', thr.t)
ORDER BY doc_id
""")
def docs_domain_mix(sf_dir: str):
    """Deterministic training-mixture rebalancing (curation.domain_mix):
    downsample sources toward target weights 4:2:1:1 for
    src0:src1:src2:src3 (others dropped) — the binding source keeps all,
    the rest keep at exact integer 16-bit hash thresholds. method='md5'
    so DuckDB reproduces the kept set byte-for-byte; method='fast'
    (splitmix64 top bits) is the 100-TB path, same-construction tested."""
    from ..curation import domain_mix

    out = domain_mix(_read(sf_dir, "documents", ["doc_id", "source"]),
                     {"src0": 4, "src1": 2, "src2": 1, "src3": 1},
                     method="md5").to_pandas()
    return _sorted(out, "doc_id")


# interval bounds: cum fractions 0.8 / 0.9 / 1.0 of the 16-bit hex space
@_query(oracle="""
SELECT doc_id, lang,
       CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) < 'cccc' THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) < 'e666' THEN 'val'
            ELSE 'test' END AS split
FROM documents ORDER BY doc_id
""")
def docs_hash_split(sf_dir: str):
    """Deterministic disjoint train/val/test split (curation.hash_split):
    one md5 coordinate per doc_id, non-overlapping interval assignment —
    disjoint by construction, reproducible at any partitioning, no
    shuffle. method='md5' so DuckDB reproduces the intervals
    byte-for-byte; method='fast' (splitmix64) is the 100-TB path,
    same-construction tests in tests/test_curation_split.py."""
    from ..curation import hash_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = hash_split(ds, {"train": 0.8, "val": 0.1, "test": 0.1},
                     key_col="doc_id", method="md5").to_pandas()
    return _sorted(out[["doc_id", "lang", "split"]], "doc_id")


@_query(oracle=_golden("docs_cross_dedup_sf001.parquet", "CAST(doc_id AS BIGINT) AS doc_id, CAST(n_hit_buckets AS BIGINT) AS n_hit_buckets, dup_of_prior", "doc_id"))
def docs_cross_dedup(sf_dir: str):
    """Incremental cross-corpus near-dup flags
    (dedup.minhash.minhash_cross_flags): NEW side = sources != src0,
    PRIOR side = src0; a new doc is flagged iff it shares any LSH band
    bucket with a prior doc — the "dedup this crawl shard against the
    already-ingested corpus" shape (fuzzy analogue of
    docs_bloom_decontaminate). Seeded+deterministic but band membership
    is not SQL-expressible, so the oracle is a committed golden parquet
    (scripts/gen_golden_oracles.py — disclosed regression pin); recall
    on planted cross-corpus dups is pinned in tests/test_cross_dedup.py."""
    from ..dedup.minhash import minhash_cross_flags

    new = _read(sf_dir, "documents", ["doc_id", "text", "source"]).filter(
        expr="source != 'src0'")
    prior = _read(sf_dir, "documents", ["doc_id", "text", "source"]).filter(
        expr="source == 'src0'")
    out = minhash_cross_flags(new, prior).to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
SELECT lang, doc_id,
       CAST(row_number() OVER (PARTITION BY lang
            ORDER BY substr(md5(CAST(doc_id AS VARCHAR)), 1, 4), doc_id) AS BIGINT) AS rk
FROM documents
QUALIFY rk <= 20
ORDER BY lang, rk
""")
def docs_stratified_k(sf_dir: str):
    """Deterministic exactly-K-per-stratum sampling: rank each lang's
    docs by an md5 hash coordinate (ties: doc_id) and keep the first 20
    — 'give me exactly 1000 docs per language, reproducibly' — a pure
    COMPOSITION of curation.md5_bucket_hex4 and window.topk_per_group
    (per-batch local top-k combiner bounds the shuffle), showing the
    operator algebra closes. SQL oracle: row_number() over the same
    md5 ordering."""
    from ..curation import md5_bucket_hex4
    from ..window import topk_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def add_coord(b: pa.Table) -> pa.Table:
        hx = md5_bucket_hex4(b.column("doc_id").to_pandas().to_numpy())
        return b.append_column("h4", pa.array(hx, type=pa.string()))

    out = topk_per_group(ds.map_batches(add_coord, batch_format="pyarrow"),
                         "lang", "h4", k=20, descending=False,
                         tie_cols="doc_id").to_pandas()
    return _sorted(out[["lang", "doc_id", "rk"]], ["lang", "rk"])


@_query(oracle=_golden("emb_mmr_topk_sf001.parquet", "CAST(rank AS BIGINT) AS rank, CAST(vec_id AS BIGINT) AS vec_id, sim, mmr_score", "rank"))
def emb_mmr_topk(sf_dir: str):
    """MMR diversified top-k (ann.mmr, Carbonell & Goldstein 1998):
    distributed brute-force cosine top-50 candidate scan, then the
    bounded driver-side greedy re-rank at lambda=0.7. Deterministic but
    the greedy recurrence is not SQL-expressible, so the oracle is a
    committed golden parquet (disclosed pin); lambda=1.0 == ann_topk
    and the diversity property are pinned in tests/test_mmr.py."""
    from ..ann.mmr import mmr_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = mmr_topk(ds, _query_vec(sf_dir), k=10, pool=50, lam=0.7)
    out["sim"] = round_half_away(out["sim"], 6)
    out["mmr_score"] = round_half_away(out["mmr_score"], 6)
    return out.reset_index(drop=True)


@_query(oracle="""
WITH keyed AS (
  SELECT lang, doc_id, n_chars,
         CASE WHEN n_chars > 0 THEN
           pow((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) + 0.5)
               / 4294967296.0, 1.0 / n_chars)
         ELSE 0.0 END AS wkey
  FROM documents)
SELECT lang, doc_id, n_chars,
       CAST(row_number() OVER (PARTITION BY lang ORDER BY wkey DESC, doc_id) AS BIGINT) AS rk
FROM keyed
QUALIFY rk <= 5
ORDER BY lang, rk
""")
def docs_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement
    (curation.weighted_sample_key, Efraimidis-Spirakis 2006 + the
    per-group top-k operator): 5 docs per language with inclusion odds
    proportional to n_chars, derandomized by the md5 coordinate so the
    DuckDB window oracle reproduces the exact sample. The 'sample big
    docs more often, reproducibly, at any partitioning' curation step."""
    from ..curation import weighted_sample_key
    from ..window import topk_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def add_key(b: pa.Table) -> pa.Table:
        k = weighted_sample_key(b.column("doc_id").to_pandas().to_numpy(),
                                b.column("n_chars").to_numpy(zero_copy_only=False),
                                method="md5")
        return b.append_column("wkey", pa.array(k))

    out = topk_per_group(ds.map_batches(add_key, batch_format="pyarrow"),
                         "lang", "wkey", k=5, descending=True,
                         tie_cols="doc_id").to_pandas()
    return _sorted(out[["lang", "doc_id", "n_chars", "rk"]], ["lang", "rk"])


@_query(oracle="""
WITH q AS (
  SELECT event_type, quantile_cont(value, 0.25) AS q1,
         quantile_cont(value, 0.75) AS q3
  FROM events GROUP BY event_type)
SELECT e.event_id, e.event_type, e.value
FROM events e JOIN q USING (event_type)
WHERE e.value > q.q3 + 1.5 * (q.q3 - q.q1)
ORDER BY e.event_id
""")
def events_iqr_outliers(sf_dir: str):
    """Per-group Tukey outlier filter (window.iqr_outliers): events whose
    value exceeds q3 + 1.5*IQR of their event_type — exact quantile pass
    (bounded keys) + broadcast threshold map-filter, no second shuffle.
    Oracle: the same quantile_cont window join in SQL."""
    from ..window import iqr_outliers

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = iqr_outliers(ds, "event_type", "value", k=1.5).to_pandas()
    return _sorted(out[["event_id", "event_type", "value"]], "event_id")


# split interval bounds: cum 0.98 -> 0xFAE1, 0.99 -> 0xFD70 of the
# 16-bit hex space (hash_split's md5 coordinate)
@_query(oracle="""
WITH base AS (
  SELECT doc_id, source, text,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
  FROM documents),
gated AS (SELECT * FROM base WHERE n_tokens >= 10 AND n_tokens <= 200000),
toks AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n FROM toks),
g5 AS (SELECT nw.doc_id, array_to_string(ws[i : i + 4], ' ') AS gram
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n - 3, 1))) AS i) t),
evalg AS (SELECT DISTINCT gram FROM g5 JOIN documents d USING (doc_id)
          WHERE d.source = 'src0'),
contam AS (SELECT DISTINCT g5.doc_id FROM g5
           JOIN gated USING (doc_id) JOIN evalg USING (gram)),
corpus AS (SELECT * FROM gated WHERE doc_id NOT IN (SELECT doc_id FROM contam)),
-- DSIR: raw distribution over the post-decontamination corpus,
-- target distribution over the RAW src0 docs (the separate target set)""" + _dsir_qlr(" JOIN corpus USING (doc_id)") + """
w AS (SELECT gb.doc_id, sum(qlr.q) AS wm
      FROM gb JOIN corpus USING (doc_id) JOIN qlr ON gb.b = qlr.b
      GROUP BY gb.doc_id),
weighted AS (
  SELECT c.doc_id, c.source, c.text, c.n_tokens,
         CAST(coalesce(w.wm, 0) AS BIGINT) AS weight_micro
  FROM corpus c LEFT JOIN w USING (doc_id)),
budgeted AS (
  SELECT *, sum(n_tokens) OVER (PARTITION BY source ORDER BY doc_id
                                ROWS UNBOUNDED PRECEDING) AS cum_tokens
  FROM weighted)
SELECT doc_id, source, text, n_tokens, weight_micro,
       CAST(cum_tokens AS BIGINT) AS cum_tokens,
       CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) < 'fae1' THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) < 'fd70' THEN 'val'
            ELSE 'test' END AS split
FROM budgeted WHERE cum_tokens <= 2000 ORDER BY doc_id
""")
def docs_full_curation(sf_dir: str):
    """The COMPOSED curation pipeline under the oracle gate
    (pipelines/curate_corpus.curate with dedup off and md5 coordinate
    variants): quality gate -> decontaminate vs src0 5-grams -> DSIR
    weights toward src0 -> per-source 2000-token budget -> disjoint
    98/1/1 split — every stage reproduced in ONE DuckDB CTE chain, so
    the driver hash-checks the whole flow end-to-end, not just the
    stages in isolation. (The MinHash dedup stage is golden-pinned
    separately — band membership isn't SQL-expressible.)"""
    from ..pipelines.curate_corpus import curate

    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    evald = _read(sf_dir, "documents", ["doc_id", "text", "source"]).filter(
        expr="source == 'src0'")
    target = _read(sf_dir, "documents", ["doc_id", "text", "source"]).filter(
        expr="source == 'src0'")
    out = curate(docs, eval_ds=evald, target_ds=target, dedup=False,
                 budget_tokens=2000, dsir_method="md5", split_method="md5",
                 splits={"train": 0.98, "val": 0.01, "test": 0.01}).to_pandas()
    return _sorted(out[["doc_id", "source", "text", "n_tokens", "weight_micro", "cum_tokens", "split"]],
                   "doc_id")


@_query(oracle="""
SELECT event_id, user_id,
       CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER
            (PARTITION BY user_id ORDER BY ts, event_id), -1) AS BIGINT) AS delta_us
FROM events ORDER BY event_id
""")
def events_interarrival(sf_dir: str):
    """Per-user inter-event gaps (window.with_lag): each event's delay
    since the user's previous event in microseconds — SQL lag() OVER
    (PARTITION BY user ORDER BY ts, event_id). Exact integer epoch
    difference; first event per user is null (left as -1 sentinel so
    the hash compare has no NaN)."""
    from ..window import with_lag

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = with_lag(ds, "user_id", ["ts", "event_id"], "ts").to_pandas()
    dv = (out["ts"] - out["ts_lag"]).to_numpy()
    valid = ~pd.isna(dv)
    out["delta_us"] = np.where(valid, dv.astype("timedelta64[us]").astype("int64"), -1)
    return _sorted(out[["event_id", "user_id", "delta_us"]], "event_id")


def _mk_c4_pages(b: pa.Table) -> pa.Table:
    """Deterministic synthetic web page per doc (both sides of the
    oracle build THE SAME page): words grouped 7-per-line, terminator
    cycling . / none / ? / ! / ' javascript.' by (doc_id + line) % 5,
    plus a 'lorem ipsum' line every 97th doc and a curly-brace line
    every 89th — exercises every C4 rule."""
    ids = b.column("doc_id").to_pylist()
    txts = b.column("text").to_pylist()
    pages = []
    for d, t in zip(ids, txts):
        ws = (t or "").split(" ")
        lines = []
        for i in range((len(ws) + 6) // 7):
            term = (".", "", "?", "!", " javascript.")[(d + i) % 5]
            lines.append(" ".join(ws[i * 7:i * 7 + 7]) + term)
        page = "\n".join(lines)
        if d % 97 == 0:
            page += "\nlorem ipsum here it is."
        elif d % 89 == 0:
            page += "\ncurly { brace config."
        pages.append(page)
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(pages, type=pa.string())})


# the _mk_c4_pages pages rebuilt in SQL, shared by the C4 and Flesch oracles
_C4_PAGES_CTES = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
n AS (SELECT doc_id, ws, len(ws) AS nw FROM t),
ln AS (SELECT doc_id, i,
              array_to_string(ws[i * 7 + 1 : i * 7 + 7], ' ')
              || CASE (doc_id + i) % 5 WHEN 0 THEN '.' WHEN 1 THEN ''
                      WHEN 2 THEN '?' WHEN 3 THEN '!'
                      ELSE ' javascript.' END AS line
       FROM n, LATERAL (SELECT unnest(range(0, (nw + 6) // 7)) AS i) r),
page AS (SELECT doc_id,
                string_agg(line, chr(10) ORDER BY i)
                || CASE WHEN doc_id % 97 = 0
                        THEN chr(10) || 'lorem ipsum here it is.'
                        WHEN doc_id % 89 = 0
                        THEN chr(10) || 'curly { brace config.'
                        ELSE '' END AS text
         FROM ln GROUP BY doc_id),"""


@_query(oracle=_C4_PAGES_CTES + """
pl AS (SELECT doc_id, regexp_split_to_array(text, chr(10)) AS ls,
              NOT (contains(lower(text), 'lorem ipsum')
                   OR contains(text, '{')) AS page_ok
       FROM page),
fl AS (SELECT doc_id, page_ok, j, trim(ls[j]) AS line
       FROM pl, LATERAL (SELECT unnest(range(1, len(ls) + 1)) AS j) r),
kept AS (SELECT doc_id, j, line FROM fl
         WHERE page_ok
           AND regexp_matches(line, '[.!?"]$')
           AND len(regexp_extract_all(line, '\\S+')) >= 5
           AND NOT contains(lower(line), 'javascript')
           AND NOT contains(lower(line), 'cookie policy')
           AND NOT contains(lower(line), 'privacy policy')
           AND NOT contains(lower(line), 'terms of use')
           AND NOT contains(lower(line), 'uses cookies')),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines_kept,
               string_agg(line, chr(10) ORDER BY j) AS clean_text
        FROM kept GROUP BY doc_id)
SELECT doc_id, n_lines_kept, clean_text FROM agg
WHERE n_lines_kept >= 3 ORDER BY doc_id
""")
def docs_c4_clean(sf_dir: str):
    """C4-style page cleaning (textstats/c4.c4_clean — Raffel et al.
    2020 §2.2): terminal-punctuation + min-word line filters, javascript
    and boilerplate-phrase line drops, lorem-ipsum / curly-brace /
    min-retained-lines page drops. One map-only vectorized stage, zero
    shuffle. Input pages are synthesized deterministically from the
    word stream (docs have no newlines); the DuckDB oracle rebuilds the
    SAME pages and applies the SAME rules in SQL."""
    from ..textstats.c4 import c4_clean

    ds = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(_mk_c4_pages, batch_format="pyarrow")
    out = c4_clean(ds, min_words=5, min_lines=3).to_pandas()
    return _sorted(out[["doc_id", "n_lines_kept", "clean_text"]], "doc_id")


@_query(oracle="""
WITH e AS (SELECT * FROM (VALUES ('src0', 2, 32768), ('src1', 1, 0),
                                 ('src2', 0, 16384), ('src3', 3, 0))
           AS t(source, whole, frac16)),
base AS (SELECT doc_id, d.source, whole, frac16
         FROM documents d JOIN e USING (source)),
whole_rows AS (SELECT doc_id, source,
                      CAST(unnest(range(0, whole)) AS BIGINT) AS epoch
               FROM base WHERE whole > 0),
frac_rows AS (SELECT doc_id, source, CAST(whole AS BIGINT) AS epoch
              FROM base
              WHERE frac16 > 0
                AND substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)
                    < printf('%04x', frac16))
SELECT doc_id, source, epoch
FROM (SELECT * FROM whole_rows UNION ALL SELECT * FROM frac_rows)
ORDER BY doc_id, epoch
""")
def docs_epoch_mix(sf_dir: str):
    """Deterministic epoch upsampling toward a training mixture
    (curation.epoch_mix — the LLaMA/Pile "epochs per source" recipe):
    src0 x2.5, src1 x1, src2 x0.25, src3 x3; other sources dropped.
    Whole epochs replicate unconditionally; the fractional epoch keeps
    rows whose 16-bit hash coordinate falls under an exact integer
    threshold. method='md5' so DuckDB reproduces the emitted multiset
    byte-for-byte; method='fast' (splitmix64 top bits) is the 100-TB
    path, same construction (tests/test_curation.py)."""
    from ..curation import epoch_mix

    out = epoch_mix(_read(sf_dir, "documents", ["doc_id", "source"]),
                    {"src0": 2.5, "src1": 1.0, "src2": 0.25, "src3": 3.0},
                    method="md5").to_pandas()
    return _sorted(out, ["doc_id", "epoch"])


@_query(oracle="""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents),
nw AS (SELECT doc_id, ws, len(ws) AS n FROM toks),
bi AS (SELECT array_to_string(ws[i : i + 1], ' ') AS gram
       FROM nw, LATERAL (SELECT unnest(range(1, greatest(n, 1))) AS i) t),
c AS (SELECT gram, CAST(count(*) AS BIGINT) AS cnt FROM bi GROUP BY gram)
SELECT gram, cnt FROM c ORDER BY cnt DESC, gram LIMIT 40
""")
def docs_bigram_topk(sf_dir: str):
    """Top-40 corpus bigrams (textstats/vocab.bigram_topk — collocation
    / boilerplate-phrase mining): vectorized adjacent-token pairing over
    the flat token table, local (gram, cnt) combiner, ONE coarse-bucket
    shuffle with bucket-local top-k, final sort+limit over candidates
    only. Ties break gram-ascending on both sides."""
    from ..textstats.vocab import bigram_topk

    out = bigram_topk(_read(sf_dir, "documents", ["text"]), k=40).to_pandas()
    return _sorted(out, ["cnt", "gram"], ascending=[False, True])


@_query(oracle="""
WITH m AS (SELECT user_id,
    min(ts) FILTER (event_type = 'view') AS t0,
    min(ts) FILTER (event_type = 'click') AS t1,
    min(ts) FILTER (event_type = 'purchase') AS t2
  FROM events GROUP BY user_id)
SELECT stage, n_users FROM (
  SELECT '1_view' AS stage,
         CAST(count(*) FILTER (t0 IS NOT NULL) AS BIGINT) AS n_users FROM m
  UNION ALL
  SELECT '2_click',
         CAST(count(*) FILTER (t0 IS NOT NULL AND t1 > t0) AS BIGINT) FROM m
  UNION ALL
  SELECT '3_purchase',
         CAST(count(*) FILTER (t0 IS NOT NULL AND t1 > t0 AND t2 > t1)
              AS BIGINT) FROM m)
ORDER BY stage
""")
def events_funnel(sf_dir: str):
    """Ordered first-touch funnel (aggregate.funnel_counts): users whose
    first 'view' precedes their first 'click' precedes their first
    'purchase'. Per-batch per-user min-ts combiner (sentinel-int64, no
    NaT widening), ONE hash(user) bucket shuffle that reduces straight
    to per-stage partial counts, tiny Sum final."""
    from ..aggregate import funnel_counts

    out = funnel_counts(_read(sf_dir, "events",
                              ["user_id", "event_type", "ts"]),
                        ["view", "click", "purchase"]).to_pandas()
    return _sorted(out, "stage")


@_query(oracle="""
WITH ud AS (SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day
            FROM events),
c AS (SELECT user_id, min(day) AS cohort FROM ud GROUP BY user_id)
SELECT strftime(c.cohort, '%Y-%m-%d') AS cohort_day,
       CAST(datediff('day', c.cohort, ud.day) AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
""")
def events_retention(sf_dir: str):
    """Cohort retention triangle (aggregate.cohort_retention): per
    (first-active-day cohort, day offset) active-user counts. Distinct
    (user, integer-day) combiner, ONE hash(user) bucket shuffle reducing
    to per-(cohort, offset) partials, tiny Sum final."""
    from ..aggregate import cohort_retention

    out = cohort_retention(_read(sf_dir, "events",
                                 ["user_id", "ts"])).to_pandas()
    return _sorted(out, ["cohort_day", "day_offset"])


@_query(oracle=_LM_CTES + """,
s AS (SELECT t.doc_id,
             CAST(coalesce(w.n_feats, 0) AS BIGINT) AS n_feats,
             CAST(coalesce(w.lpm, 0) AS BIGINT) AS lpm
      FROM toks t LEFT JOIN w USING (doc_id)),
d AS (SELECT s.doc_id, doc.lang,
             CAST(((-lpm) * 1000) // greatest(n_feats, 1) AS BIGINT)
               AS score_micro
      FROM s JOIN documents doc USING (doc_id)),
thr AS (SELECT lang, quantile_disc(score_micro, 1.0 / 3) AS q1,
               quantile_disc(score_micro, 2.0 / 3) AS q2
        FROM d GROUP BY lang)
SELECT d.doc_id, d.lang, d.score_micro,
       CASE WHEN score_micro <= q1 THEN 'head'
            WHEN score_micro <= q2 THEN 'middle' ELSE 'tail' END AS bucket
FROM d JOIN thr USING (lang) ORDER BY d.doc_id
""")
def docs_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail quality buckets (dsir.ccnet_buckets,
    Wenzek et al. 2020): self-trained unigram-LM scores -> integer
    per-token perplexity proxy -> per-language exact DISCRETE tertile
    split (window.group_quantile_disc = SQL quantile_disc: thresholds
    are actual data values, no float interpolation drift). method='md5'
    so DuckDB reproduces the LM byte-for-byte; method='fast' is the
    100-TB path."""
    from ..dsir import ccnet_buckets

    out = ccnet_buckets(_read(sf_dir, "documents",
                              ["doc_id", "text", "lang"]),
                        method="md5").to_pandas()
    return _sorted(out[["doc_id", "lang", "score_micro", "bucket"]], "doc_id")


@_query(oracle="""
WITH s AS (
  SELECT vec_id,
         list_max(list_transform(embedding,
                                 x -> abs(CAST(x AS DOUBLE)))) AS scale,
         embedding
  FROM embeddings),
q AS (
  SELECT vec_id, scale,
         list_transform(embedding, x ->
           CAST(round(CAST(x AS DOUBLE) * 127.0
                      / (CASE WHEN scale = 0 THEN 1.0 ELSE scale END))
                AS BIGINT)) AS codes
  FROM s)
SELECT vec_id, scale,
       CAST(list_sum(codes) AS BIGINT) AS qsum,
       CAST(list_min(codes) AS BIGINT) AS qmin,
       CAST(list_max(codes) AS BIGINT) AS qmax
FROM q ORDER BY vec_id
""")
def emb_int8_quantize(sf_dir: str):
    """Symmetric per-vector int8 quantization (ann/quantize.int8_quantize):
    scale = max|v|, codes = round_half_away(v*127/scale) — map-only, no
    shuffle. The oracle recomputes every code in SQL (list lambdas);
    qsum/qmin/qmax are integer-exact and scale is a bit-equal float32
    max, so the value hash gates the full code grid."""
    from ..ann.quantize import int8_quantize

    out = int8_quantize(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                        codes=False).to_pandas()
    return _sorted(out[["vec_id", "scale", "qsum", "qmin", "qmax"]], "vec_id")


@_query(oracle="""
WITH e AS (
  SELECT vec_id, label, i AS dim,
         CAST(round(CAST(embedding[i] AS DOUBLE) * 1000000) AS BIGINT) AS xm
  FROM embeddings,
       LATERAL (SELECT unnest(range(1, len(embedding) + 1)) AS i) t),
c AS (SELECT label, dim, sum(xm) AS s, count(*) AS n
      FROM e GROUP BY label, dim),
m AS (SELECT label, dim,
             CAST(CASE WHEN s >= 0 THEN (2 * s + n) // (2 * n)
                       ELSE -((2 * (-s) + n) // (2 * n)) END AS BIGINT) AS mu
      FROM c),
d AS (SELECT vec_id, e.label,
             CAST(sum((xm - mu) * (xm - mu)) AS BIGINT) AS d2
      FROM e JOIN m USING (label, dim) GROUP BY vec_id, e.label),
thr AS (SELECT label, quantile_disc(d2, 0.95) AS qv FROM d GROUP BY label)
SELECT vec_id, CAST(d.label AS BIGINT) AS label, d2 AS d2_micro2,
       d2 > qv AS is_outlier
FROM d JOIN thr USING (label) ORDER BY vec_id
""")
def emb_centroid_outliers(sf_dir: str):
    """Per-label centroid-distance outliers (ann/centroid.py): integer
    micro-unit coordinates, half-away-rounded rational-mean centroids,
    integer squared distances, per-label quantile_disc(0.95) cut — all
    byte-reproducible in SQL. Two map-only passes + one narrow
    (label, d2) shuffle; vectors never shuffle."""
    from ..ann.centroid import centroid_outliers

    out = centroid_outliers(
        _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        q=0.95).to_pandas()
    out["label"] = out["label"].astype("int64")
    return _sorted(out[["vec_id", "label", "d2_micro2", "is_outlier"]], "vec_id")


@_query(oracle=_COMPONENTS_CTES + r"""
),
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node),
alld AS (SELECT d.doc_id, CAST(coalesce(c.component, d.doc_id) AS BIGINT) AS component,
                CAST(d.n_chars AS BIGINT) AS n_chars
         FROM documents d LEFT JOIN comp c ON d.doc_id = c.node),
rk AS (SELECT *, row_number() OVER (PARTITION BY component
                                    ORDER BY n_chars DESC, doc_id) AS rn
       FROM alld)
SELECT doc_id, component, n_chars FROM rk WHERE rn = 1 ORDER BY doc_id
""")
def docs_dedup_keep_best(sf_dir: str):
    """Quality-aware near-dup dedup (dedup/components.dedup_keep_best):
    n-gram Jaccard pairs -> connected components -> keep the LONGEST
    doc per cluster (ties: smallest doc_id); singletons survive as
    their own cluster. Oracled by the recursive-CTE transitive closure
    + a window argmax over the identical pair set."""
    from ..dedup.components import dedup_keep_best
    from ..dedup.ngram import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.5, shingle=3)
    meta = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = dedup_keep_best(meta, pairs, quality_col="n_chars").to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
WITH m AS (SELECT event_id, user_id, ts,
                  CAST(round(value * 1000000) AS BIGINT) AS value_micro
           FROM events)
SELECT event_id, user_id, value_micro,
       CAST(sum(value_micro) OVER (PARTITION BY user_id
            ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS running_micro
FROM m ORDER BY event_id
""")
def events_running_total(sf_dir: str):
    """Per-user running value total in time order
    (window.group_running_sum = SUM() OVER (PARTITION BY user ORDER BY
    ts, id ROWS UNBOUNDED PRECEDING)): micro-unit integer values so the
    running sum is drift-free across engines; one bucketed shuffle on
    hash(user), vectorized segment cumsum."""
    from ..window import group_running_sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_micro(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy(zero_copy_only=False).astype(np.float64)
        return b.drop_columns(["value"]).append_column(
            "value_micro", pa.array(half_away(v, 1e6).astype(np.int64)))

    out = group_running_sum(ds.map_batches(to_micro, batch_format="pyarrow"),
                            "user_id", ["ts", "event_id"], "value_micro",
                            alias="running_micro").to_pandas()
    return _sorted(out[["event_id", "user_id", "value_micro", "running_micro"]], "event_id")


# geoip oracle fixture: 16 /24 nets + one nested /25 (longest-prefix
# case); the SAME table drives write_mmdb (engine side) and the SQL
# VALUES range join (oracle side)
_GEO_CC = ["US", "DE", "FR", "JP", "BR", "IN", "GB", "AU"]
GEO_NETWORKS = [("203.0.%d.0/24" % i, {"country": _GEO_CC[i % 8]})
                for i in range(16)] + \
    [("203.0.3.128/25", {"country": "NL"})]


def _geo_values_sql() -> str:
    import ipaddress

    rows = []
    for cidr, attrs in GEO_NETWORKS:
        net = ipaddress.ip_network(cidr)
        rows.append("(%d, %d, %d, '%s')" % (
            int(net.network_address), int(net.broadcast_address),
            net.prefixlen, attrs["country"]))
    return ", ".join(rows)


@_query(oracle="""
WITH ip AS (SELECT event_id,
        '203.0.' || CAST((user_id // 256) %% 16 AS VARCHAR) || '.'
                 || CAST(user_id %% 256 AS VARCHAR) AS ip,
        CAST(203 AS BIGINT) * 16777216 + ((user_id // 256) %% 16) * 256
            + user_id %% 256 AS ipi
    FROM events),
nets(lo, hi, plen, country) AS (VALUES %s),
j AS (SELECT event_id, ip, country,
             row_number() OVER (PARTITION BY event_id
                                ORDER BY plen DESC) AS rn
      FROM ip JOIN nets ON ipi BETWEEN lo AND hi)
SELECT event_id, ip, country FROM j WHERE rn = 1 ORDER BY event_id
""" % _geo_values_sql())
def events_geoip(sf_dir: str):
    """GeoIP enrichment under the oracle gate (enrich/geoip.GeoIP over
    a from-spec .mmdb written by enrich/mmdb_write — the geoip2()
    parser path end-to-end): per-event IPs synthesized from user_id,
    looked up against a 17-network fixture (incl. one nested /25 to
    pin longest-prefix-wins). Engine side: write_mmdb -> mmdb reader ->
    flattened disjoint intervals -> vectorized searchsorted per batch
    (broadcast-small db, map-only). Oracle: integer BETWEEN range join
    + max-prefix pick over the SAME network table."""
    import os
    import tempfile

    from ..enrich.geoip import GeoIP
    from ..enrich.mmdb_write import write_mmdb

    path = os.path.join(tempfile.gettempdir(), "axoray_geoip_fixture.mmdb")
    write_mmdb(path, GEO_NETWORKS)

    def mk_ip(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        third = (u // 256) % 16
        last = u % 256
        ips = pd.Series(["203.0."] * len(u)).str.cat(
            pd.Series(third).astype(str)).str.cat(
            pd.Series(last).astype(str), sep=".")
        return pa.table({"event_id": b.column("event_id"),
                         "ip": pa.array(ips, type=pa.string())})

    stage = GeoIP(mmdb_path=path, source_col="ip", prefix="geo_")
    out = _read(sf_dir, "events", ["event_id", "user_id"]) \
        .map_batches(mk_ip, batch_format="pyarrow") \
        .map_batches(stage, batch_format="pyarrow").to_pandas()
    out = out.rename(columns={"geo_country": "country"})
    return _sorted(out[["event_id", "ip", "country"]], "event_id")


@_query(oracle="""
SELECT n.n_name,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = 'ASIA' AND c.c_nationkey = s.s_nationkey
  AND o.o_orderdate >= DATE '1996-01-01'
  AND o.o_orderdate < DATE '1997-01-01'
GROUP BY n.n_name ORDER BY revenue_cents DESC, n_name
""")
def orders_q5_local_supplier(sf_dir: str):
    """TPC-H Q5 shape (local supplier volume): ASIA-region revenue per
    nation where the customer's and supplier's nations agree.

    Scale plan (the canonical distributed Q5):
    - region + nation are TINY -> one broadcast dict (nationkey ->
      n_name for the ASIA nations); customers filter against it
      map-side and ship only (custkey, nationkey).
    - TWO big-big exchanges only: orders (date-filtered)
      x customer on custkey, then lineitem x that on orderkey.
    - supplier is the classic broadcast dimension (suppkey ->
      nationkey array via ray.put; DISCLOSED: assumes the supplier
      dimension fits worker memory — at a scale where it does not,
      swap the final local-supplier filter for a third hash_join on
      suppkey, same semantics).
    - the c_nationkey == s_nationkey filter and the per-nation sum are
      map-side; the final aggregate is bounded (25 nations) -> driver.
    Revenue in integer cents like Q6/Q3."""
    import ray
    from ray.data.aggregate import Sum

    from ..join import hash_join

    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nation = _read(sf_dir, "nation",
                   ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    asia_keys = set(region.loc[region.r_name == "ASIA", "r_regionkey"])
    nmap = {int(r.n_nationkey): r.n_name
            for r in nation.itertuples() if r.n_regionkey in asia_keys}
    sup = _read(sf_dir, "supplier",
                ["s_suppkey", "s_nationkey"]).to_pandas()
    smax = int(sup.s_suppkey.max()) + 1
    s_nat = np.full(smax, -1, dtype=np.int64)
    s_nat[sup.s_suppkey.to_numpy()] = sup.s_nationkey.to_numpy()
    nmap_ref = ray.put(nmap)
    snat_ref = ray.put(s_nat)

    def cust_filter(b: pa.Table) -> pa.Table:
        nm = ray.get(nmap_ref)
        nat = b.column("c_nationkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = np.isin(nat, np.fromiter(nm, dtype=np.int64))
        t = b.filter(pa.array(keep))
        return pa.table({
            "o_custkey": t.column("c_custkey"),
            "c_nationkey": pa.array(
                t.column("c_nationkey").to_numpy(zero_copy_only=False)
                .astype(np.int64)),
        })

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(cust_filter, batch_format="pyarrow")
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), type=pa.timestamp("us"))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"]) \
        .map_batches(lambda b: b.filter(pa.compute.and_(
            pa.compute.greater_equal(
                pa.compute.cast(b.column("o_orderdate"),
                                pa.timestamp("us")), lo),
            pa.compute.less(
                pa.compute.cast(b.column("o_orderdate"),
                                pa.timestamp("us")), hi)))
            .select(["o_orderkey", "o_custkey"]),
            batch_format="pyarrow")
    co = hash_join(
        orders, cust, key="o_custkey", how="inner",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))
    co = co.map_batches(lambda b: b.select(["o_orderkey", "c_nationkey"])
                        .rename_columns(["l_orderkey", "c_nationkey"]),
                        batch_format="pyarrow")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey",
                                    "l_extendedprice", "l_discount"])
    j = hash_join(
        li, co, key="l_orderkey", how="inner",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_extendedprice", pa.float64()),
                               ("l_discount", pa.float64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))

    def local_rev(b: pa.Table) -> pa.Table:
        sn = ray.get(snat_ref)
        nm = ray.get(nmap_ref)
        supk = b.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cnat = b.column("c_nationkey").to_numpy(zero_copy_only=False)
        snat = np.where(supk < len(sn), sn[np.minimum(supk, len(sn) - 1)],
                        -1)
        m = snat == cnat
        price = b.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[m]
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)[m]
        cents = half_away(price * (1.0 - disc), 100.0).astype(np.int64)
        df = pd.DataFrame({"nat": cnat[m], "cents": cents}) \
            .groupby("nat", as_index=False)["cents"].sum()
        return pa.table({
            "n_name": pa.array([nm[int(x)] for x in df["nat"]],
                               type=pa.string()),
            "_c": pa.array(df["cents"].to_numpy(np.int64)),
        })

    out = j.map_batches(local_rev, batch_format="pyarrow") \
        .groupby("n_name").aggregate(Sum("_c", alias_name="revenue_cents")) \
        .to_pandas()
    return _sorted(out, ["revenue_cents", "n_name"], ascending=[False, True])


@_query(oracle="""
SELECT CAST(sum(CAST(round(l_extendedprice * l_discount * 100) AS BIGINT))
            AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.03 AND 0.05
  AND l_quantity < 24
""")
def lineitem_q6_revenue(sf_dir: str):
    """TPC-H Q6 shape (forecast revenue change): filtered map-only scan
    + ONE tree-reduce sum, zero shuffle — the canonical predicate-
    pushdown aggregate. Revenue counts in integer CENTS per row
    (round half-away of price*discount*100) so the sum is
    order-independent and drift-free across engines."""
    ds = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        m = ((ship >= np.datetime64("1996-01-01")) &
             (ship < np.datetime64("1997-01-01")) &
             (disc >= 0.03) & (disc <= 0.05) & (qty < 24))
        cents = half_away(price[m] * disc[m], 100.0).astype(np.int64)
        return pa.table({"rev_cents": pa.array([int(cents.sum())],
                                               type=pa.int64()),
                         "n_rows": pa.array([int(m.sum())], type=pa.int64())})

    from ray.data.aggregate import Sum

    out = ds.map_batches(partial, batch_format="pyarrow") \
        .aggregate(Sum("rev_cents", alias_name="revenue_cents"),
                   Sum("n_rows", alias_name="n_rows"))
    return pd.DataFrame({"revenue_cents": [int(out["revenue_cents"])],
                         "n_rows": [int(out["n_rows"])]})


@_query(oracle="""
SELECT l.l_orderkey AS o_orderkey,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o.o_orderpriority,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1998-01-01'
  AND l.l_shipdate >= TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
ORDER BY revenue_cents DESC, o_orderkey LIMIT 10
""")
def orders_q3_shipping(sf_dir: str):
    """TPC-H Q3 shape (shipping priority): BUILDING-segment customers
    join date-filtered orders join shipdate-filtered lineitem, revenue
    per order in integer cents, top 10 by revenue (ties: orderkey).
    Scale shape: per-batch cents COMBINER + one coarse-bucket revenue
    aggregate BEFORE the join (the join ships one row per order, not
    per line item; no post-join groupby), then two static-schema
    coarse-bucket hash joins and a sort/limit over per-order rows only.
    Toy-scale wall time is 3 chained exchanges' fixed cost (~5 s each
    at sf0.1 — the docs_substring_dedup regime), not compute."""
    from ..join import hash_join

    cutoff = "1998-01-01"
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .filter(expr="c_mktsegment == 'BUILDING'") \
        .map_batches(lambda b: b.select(["c_custkey"])
                     .rename_columns(["o_custkey"]),
                     batch_format="pyarrow")
    _cut = pa.scalar(np.datetime64(cutoff, "us"), type=pa.timestamp("us"))
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"]) \
        .map_batches(lambda b: b.filter(pa.compute.less(
            pa.compute.cast(b.column("o_orderdate"), pa.timestamp("us")),
            _cut)), batch_format="pyarrow")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def li_partial(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate").to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        m = ship >= np.datetime64(cutoff)
        t = b.filter(pa.array(m))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        cents = half_away(price * (1.0 - disc), 100.0).astype(np.int64)
        # COMBINER: collapse to per-orderkey partial sums before the
        # exchange — the revenue aggregate finishes BEFORE the join, so
        # the join ships one row per order, not per line item, and no
        # post-join groupby exchange is needed (orderkey is unique)
        part = pa.table({"o_orderkey": t.column("l_orderkey"),
                         "cents": pa.array(cents)})
        return part.group_by("o_orderkey").aggregate([("cents", "sum")]) \
            .rename_columns(["o_orderkey", "cents"])

    from ..shuffle import bucketed_map_groups

    def bucket_sum(g):
        return g.groupby("o_orderkey", as_index=False)["cents"].sum()

    li_c = bucketed_map_groups(
        li.map_batches(li_partial, batch_format="pyarrow"),
        "o_orderkey", bucket_sum)
    co = hash_join(
        orders, cust, key="o_custkey", how="inner",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]))
    j = hash_join(
        li_c, co, key="o_orderkey", how="inner",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_orderpriority", pa.string())]))
    j = j.map_batches(
        lambda b: b.rename_columns(
            ["revenue_cents" if c == "cents" else c for c in b.column_names]),
        batch_format="pyarrow")
    from ..window import global_topk

    out = global_topk(j, ["revenue_cents", "o_orderkey"], 10,
                      descending=[True, False])
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]) \
        .dt.strftime("%Y-%m-%d")
    return out[["o_orderkey", "o_orderdate", "o_orderpriority",
                "revenue_cents"]].reset_index(drop=True)


@_query(oracle="""
WITH msg AS (
  SELECT event_id,
         'svc ' || event_type || ' user u' || CAST(user_id AS VARCHAR)
         || ' took ' || CAST(CAST(trunc(value * 1000) AS BIGINT) AS VARCHAR)
         || ' ms' AS m
  FROM events),
toks AS (SELECT event_id, i, ws[i] AS w
         FROM (SELECT event_id, string_split(m, ' ') AS ws FROM msg) t,
              LATERAL (SELECT unnest(range(1, len(ws) + 1)) AS i) r),
dfq AS (SELECT w, count(DISTINCT event_id) AS df FROM toks GROUP BY w),
freq AS (SELECT w FROM dfq WHERE df >= 50),
marked AS (SELECT event_id, i,
                  CASE WHEN w IN (SELECT w FROM freq) THEN w
                       ELSE '@ANYSTRING@' END AS mk
           FROM toks),
pat AS (SELECT event_id, string_agg(mk, ' ' ORDER BY i) AS p
        FROM marked GROUP BY event_id),
collapsed AS (SELECT regexp_replace(p, '@ANYSTRING@( @ANYSTRING@)+',
                                    '@ANYSTRING@', 'g') AS pattern
              FROM pat)
SELECT pattern, CAST(count(*) AS BIGINT) AS support
FROM collapsed GROUP BY pattern ORDER BY support DESC, pattern
""")
def events_patternize(sf_dir: str):
    """pdbtool-patternize log-template mining (stages/patternize.py —
    LogHash/SLCT family): synthesize log lines from events, mine the
    frequent-word skeletons (support >= 50), wildcard the variable
    positions, count clusters. One narrow word-df aggregate + broadcast
    frequent set + map-only skeleton render + pattern count."""
    from ..stages.patternize import patternize

    def mk(b: pa.Table) -> pa.Table:
        et = b.column("event_type").to_pandas().astype(str)
        uid = b.column("user_id").to_pandas().astype(str)
        val = b.column("value").to_numpy(zero_copy_only=False)
        msg = ("svc " + et + " user u" + uid + " took "
               + pd.Series((val * 1000).astype(np.int64)).astype(str)
               + " ms")
        return pa.table({"message": pa.array(msg, type=pa.string())})

    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"]) \
        .map_batches(mk, batch_format="pyarrow")
    out = patternize(ds, support=50).to_pandas()
    return _sorted(out, ["support", "pattern"], ascending=[False, True])


@_query(oracle=_C4_PAGES_CTES + """
c AS (SELECT doc_id, lower(text) AS low FROM page),
m AS (SELECT doc_id,
             CAST(len(regexp_extract_all(low, '\\S+')) AS BIGINT) AS n_words,
             CAST(len(regexp_extract_all(low, '[.!?]+(\\s*\\S)')) + 1
                  AS BIGINT) AS n_sentences,
             CAST(len(regexp_extract_all(low, '[aeiouy]+')) AS BIGINT)
               AS n_syllables
      FROM c)
SELECT doc_id, n_words,
       CASE WHEN n_words > 0 THEN n_sentences ELSE 0 END AS n_sentences,
       n_syllables,
       CASE WHEN n_words > 0 THEN
         CAST(round((206.835
                     - 1.015 * (CAST(greatest(n_words, 1) AS DOUBLE)
                                / greatest(n_sentences, 1))
                     - 84.6 * (CAST(n_syllables AS DOUBLE)
                               / greatest(n_words, 1))) * 1000000)
              AS BIGINT)
       ELSE 0 END AS flesch_micro
FROM m ORDER BY doc_id
""")
def docs_readability(sf_dir: str):
    """Flesch reading-ease scores (textstats.flesch_scores) over the
    synthesized C4-style pages (sentence variety): map-only vectorized
    regex counting, exact integer micro-unit scores (float formula is
    a fixed op-order expression — bit-equal across engines; rounding
    half-away matches SQL round)."""
    from ..textstats.analysis import flesch_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(_mk_c4_pages, batch_format="pyarrow") \
        .map_batches(flesch_scores, batch_format="pyarrow")
    out = ds.to_pandas()
    return _sorted(out, "doc_id")


@_query(oracle="""
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n, TRUE AS approx_ok
FROM events GROUP BY user_id
ORDER BY n DESC, user_id LIMIT 20
""")
def events_heavy_hitters(sf_dir: str):
    """Top-20 heaviest users, exact, PLUS the Count-Min estimates
    gate (sketch.cms_build_column): the CMS is the unbounded-key path
    (depth*width*8 bytes of state however many users exist); here its
    estimates for the exact top-20 are pinned inside the documented
    one-sided tolerance (exact <= est <= exact + tol, tol = 16 at the
    test scales — deterministic coordinates, so the verdict is stable).
    The oracle recomputes the exact side and pins approx_ok TRUE — the
    CMS analogue of events_distinct_users_hll's tolerance gate."""
    from ..aggregate import pre_aggregated_count
    from ..sketch import cms_build_column, cms_key_counts
    from ..window import global_topk

    ds = _read(sf_dir, "events", ["user_id"])
    # top-20 by the tree aggregate (global_topk combiner + driver
    # merge), not a full sort exchange of the per-user table
    exact = global_topk(pre_aggregated_count(ds, ["user_id"], alias="n"),
                        ["n", "user_id"], 20, descending=[True, False])
    cms = cms_build_column(_read(sf_dir, "events", ["user_id"]), "user_id")
    est = cms_key_counts(cms, exact["user_id"].to_numpy())
    exact["approx_ok"] = (est >= exact["n"].to_numpy()) & \
        (est <= exact["n"].to_numpy() + 16)
    return _sorted(exact[["user_id", "n", "approx_ok"]], ["n", "user_id"], ascending=[False, True])
