"""The flagship parse -> enrich -> route -> aggregate pipeline.

The Ray-Data-native equivalent of a full AxoSyslog config: source (pages
Parquet) -> initial format parse (syslog autodetect) -> app-parser-style
classification chain (json / apache-csv / kv, first-match-wins —
reference modules/appmodel/app-parser-generator.c) -> db-parser
(PatternDB) -> add-contextual-data + geoip enrichment -> rewrites ->
filterx-style predicate routing into four sinks with final/fallback
semantics -> per-sink aggregate counts.

Physical shape: ONE fused map_batches stage of stateless tasks
(`flagship_routed` -> `_apply_stage`) does everything row-parallel. Each
worker process builds one `LogPipelineStage` on its first batch and
keeps it in `_STAGE_CACHE`, so all compiled state (patterndb rules,
context db, geoip ranges, regexes) is built once per process; per batch
everything is vectorized. Routing needs no
shuffle (a route label column + partitioned write); only the final
aggregates shuffle, and those are two-phase pre-aggregated
(axosyslog_ray.aggregate).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import fixtures
from ..enrich.context import AddContextualData, parse_context_csv
from ..enrich.geoip import GeoIP
from ..route import Cmp, Router, Severity, TagFilter, TRUE
from ..stages.csv_parser import apache_parser
from ..stages.json_parser import _loads
from ..stages.kv_parser import _KV_BARE, _KV_QUOTED, _KV_SIMPLE, KvParser
from ..stages.patterndb import PatternDB
from ..stages.syslog import parse_syslog_table

SINKS = ["errors", "auth", "web", "other"]


# ---------------------------------------------------------------------------
# Hot-path specializations (semantics identical to the generic operators —
# cross-checked in tests/test_flagship.py): the generic CsvParser/KvParser/
# JsonParser tokenize per row in Python; the flagship's fixed shapes let the
# whole batch run through Arrow RE2 instead.
# ---------------------------------------------------------------------------

# unquoted fields must not open a quote section (the csv scanner opens
# one on a field-initial `"` or `[`) and the bracketed stamp must not
# hold a backslash (the scanner's escape-backslash dialect applies there)
APACHE_RE2 = (
    r'^(?P<clientip>[^\s"\[]\S*) (?P<ident>[^\s"\[]\S*) (?P<auth>[^\s"\[]\S*) '
    r'\[(?P<ats>[^\]\\]*)\] "(?P<request>(?:[^"\\]|\\.)*)" (?P<status>[^\s"\[]\S*) '
    r'(?P<bytes>[^\s"\[]\S*) "(?P<referrer>(?:[^"\\]|\\.)*)" '
    r'"(?P<agent>(?:[^"\\]|\\.)*)" (?P<rt>[^\s"\[]\S*) (?P<vhost>[^\s"\[]\S*)$'
)


def fast_apache(text: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (valid, clientip, status) as apache_parser gives them: one RE2
    pass, and the csv scanner on the rows the RE2 rejects (apache
    quote pairs are optional, so those may still be valid)."""
    text = pc.cast(text, pa.string())
    st = pc.extract_regex(text, pattern=APACHE_RE2)
    valid = pc.is_valid(st).to_numpy(zero_copy_only=False)
    clientip = pc.struct_field(st, "clientip").to_numpy(zero_copy_only=False)
    status = pc.struct_field(st, "status").to_numpy(zero_copy_only=False)
    rest = np.flatnonzero(~valid)
    if len(rest):
        got = apache_parser(source_col="text", prefix="web_")(
            pa.table({"text": text.take(pa.array(rest))}))
        valid[rest] = got.column("csv_valid").to_numpy()
        clientip[rest] = got.column("web_clientip").to_numpy()
        status[rest] = got.column("web_status").to_numpy()
    return valid, clientip, status


# the last `key=` wins, as in KvParser(promote=...)
_KV_LAST = rf"(?s)^(?:.* )?%s=(?P<v>{_KV_QUOTED}|{_KV_BARE})"


def fast_kv_promote(text: pa.ChunkedArray, key: str) -> np.ndarray:
    """The value KvParser(promote=[key]) gives per row: one RE2 pass on
    the rows of kv-parser's whitelist shape (stages/kv_parser.py), where
    the scanner has nothing to decide, the kv scanner on the rest."""
    text = pc.cast(text, pa.string())
    simple = pc.match_substring_regex(text, _KV_SIMPLE).to_numpy(zero_copy_only=False)
    v = pc.struct_field(pc.extract_regex(text, _KV_LAST % re.escape(key)), "v")
    v = pc.if_else(pc.starts_with(v, '"'), pc.utf8_slice_codeunits(v, 1, -1), v)
    out = v.to_numpy(zero_copy_only=False)
    rest = np.flatnonzero(~simple)
    if len(rest):
        got = KvParser(source_col="text", promote=[key])(
            pa.table({"text": text.take(pa.array(rest))}))
        out[rest] = got.column(key).to_numpy()
    return out


def fast_json_valid(text_np: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """json_valid for candidate rows: parse without flattening, with the
    JSON decoder JsonParser uses."""
    out = np.zeros(len(text_np), dtype=bool)
    for i in np.flatnonzero(cand):
        try:
            out[i] = isinstance(_loads(text_np[i]), dict)
        except Exception:
            pass
    return out


def _coalesce_str(*cols) -> pa.Array:
    arrs = [c if isinstance(c, (pa.Array, pa.ChunkedArray)) else pa.array(c, type=pa.string()) for c in cols]
    return pc.coalesce(*arrs)


def build_router() -> Router:
    """The canonical 4-sink routing config (FIXTURES.md §4): severity-based,
    tag-based, app-based, fallback — first match wins, fallback last
    (reference lib/logmpx.c:97-130)."""
    return (
        Router()
        .add("errors", Severity(0, 3))
        .add("auth", TagFilter("auth"))
        .add("web", Cmp("$app", "==", "apache", mode="string"))
        .add("other", TRUE, fallback=True)
    )


class LogPipelineStage:
    """Fused per-batch stage. `flagship_routed` runs it as stateless
    map_batches tasks through `_apply_stage`, one instance per worker
    process (`_STAGE_CACHE`), not as an actor pool."""

    def __init__(self):
        self.patterndb = PatternDB()
        self.context = AddContextualData(
            db=parse_context_csv(fixtures.context_db_csv()), selector="$HOST", prefix=""
        )
        self.geoip = GeoIP(ranges=fixtures.ip_ranges(), source_col="src_ip", prefix="geo_")
        self.router = build_router()

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = parse_syslog_table(batch)

        # ---- app-parser classification chain (first-match-wins) ----
        text = t.column("text").to_pandas().astype("string").fillna("")
        syslog_ok = t.column("syslog_parsed").to_numpy(zero_copy_only=False)
        arrow_text = t.column("text")
        _af = pc.fill_null(pc.cast(arrow_text, pa.string()), "")
        looks_json = np.asarray(
            pc.starts_with(_af, "{").to_numpy(zero_copy_only=False), dtype=bool) & ~syslog_ok
        looks_apache = np.asarray(
            pc.match_substring_regex(_af, r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3} ").to_numpy(zero_copy_only=False),
            dtype=bool) & ~syslog_ok
        looks_kv = np.asarray(
            pc.match_substring(_af, "=").to_numpy(zero_copy_only=False), dtype=bool
        ) & ~syslog_ok & ~looks_json & ~looks_apache
        text_np = text.to_numpy(dtype=object)
        json_ok = fast_json_valid(text_np, looks_json)
        # fast parsers run on CANDIDATE subsets only (taking the slim text
        # column, then numpy scatter-back) — extracting over every row and
        # masking afterwards ran the RE2 passes over the whole corpus
        n_rows = t.num_rows
        apache_ok = np.zeros(n_rows, dtype=bool)
        aip = np.full(n_rows, None, dtype=object)
        ast = np.full(n_rows, None, dtype=object)
        ap_idx = np.flatnonzero(looks_apache)
        if len(ap_idx):
            av_s, aip_s, ast_s = fast_apache(arrow_text.take(pa.array(ap_idx, type=pa.int64())))
            apache_ok[ap_idx] = av_s
            aip[ap_idx] = aip_s
            ast[ap_idx] = ast_s
        kv_ip = np.full(n_rows, None, dtype=object)
        kv_status = np.full(n_rows, None, dtype=object)
        kv_idx = np.flatnonzero(looks_kv)
        if len(kv_idx):
            sub_kv = arrow_text.take(pa.array(kv_idx, type=pa.int64()))
            kv_ip[kv_idx] = fast_kv_promote(sub_kv, "src_ip")
            kv_status[kv_idx] = fast_kv_promote(sub_kv, "status")
        t = t.append_column("json_valid", pa.array(json_ok))
        t = t.append_column("csv_valid", pa.array(apache_ok))
        t = t.append_column("web_clientip", pa.array(aip, type=pa.string()))
        t = t.append_column("web_status", pa.array(ast, type=pa.string()))
        t = t.append_column("src_ip", pa.array(kv_ip, type=pa.string()))
        t = t.append_column("status", pa.array(kv_status, type=pa.string()))

        app = np.full(t.num_rows, "raw", dtype=object)
        app[looks_kv] = "kv"
        app[apache_ok] = "apache"
        app[json_ok] = "json"
        app[syslog_ok] = "syslog"
        t = t.append_column("app", pa.array(app, type=pa.string()))

        # ---- db-parser (patterndb) over syslog messages ----
        t = self.patterndb(t)

        # ---- derived src_ip: apache clientip | kv src_ip | pdb client_ip ----
        # Arrow-native map key extraction — no per-row dict() materialization
        pdb_ip = pc.map_lookup(
            t.column("pdb_values").combine_chunks(), query_key="client_ip", occurrence="first"
        )
        web_ip_arr = t.column("web_clientip")
        web_ip = pc.if_else(pa.array(apache_ok), web_ip_arr, pa.nulls(t.num_rows, pa.string()))
        kv_ip = t.column("src_ip")
        t = t.drop_columns(["src_ip"])
        src_ip = _coalesce_str(web_ip, kv_ip, pdb_ip)
        t = t.append_column("src_ip", src_ip)

        # ---- enrich: context db (host -> tier/dc), geoip (src_ip) ----
        t = self.context(t)
        t = self.geoip(t)

        # ---- route ----
        t = self.router.route_first(t, col="route", unmatched="other")
        return t


# stable projection for sinks (keeps html out of downstream shuffles)
SINK_COLUMNS = [
    "url", "warc_ts", "lang", "app", "route", "pri", "ts_stamp", "host",
    "program", "pid", "message", "pdb_rule", "pdb_class", "tags",
    "src_ip", "host_tier", "host_dc", "geo_country", "geo_city",
]


# Worker-process-level stage cache: LogPipelineStage costs ~3ms to build,
# so stateless map TASKS with a per-worker singleton beat an actor pool —
# Ray reuses worker processes across tasks (state amortizes like an actor)
# but skips the actor-spawn + per-actor re-import cost (~5s fixed at 32
# CPUs, measured). Actor pools stay the right call for HEAVY state (mmdb,
# models) — see enrich/geoip.py docstring.
_STAGE_CACHE: dict[str, LogPipelineStage] = {}


def _apply_stage(batch: pa.Table) -> pa.Table:
    stage = _STAGE_CACHE.get("stage")
    if stage is None:
        stage = _STAGE_CACHE["stage"] = LogPipelineStage()
    return stage(batch)


def flagship_routed(ds, concurrency=None, batch_size: int = 16384):
    """pages Dataset -> routed message Dataset (lazy)."""
    kwargs = {"concurrency": concurrency} if concurrency is not None else {}
    routed = ds.map_batches(
        _apply_stage, batch_format="pyarrow", batch_size=batch_size, **kwargs
    )
    return routed.select_columns(SINK_COLUMNS)


def flagship_aggregates(routed):
    """Per-sink aggregate counts: (route, host) and (route, lang) — the
    metrics the reference's per-sink stats counters expose
    (lib/logwriter.c:74-95), two-phase pre-aggregated."""
    from ..aggregate import pre_aggregated_count

    by_host = pre_aggregated_count(routed.select_columns(["route", "host"]), ["route", "host"], alias="n")
    by_lang = pre_aggregated_count(routed.select_columns(["route", "lang"]), ["route", "lang"], alias="n")
    return by_host, by_lang


def run_flagship(n_rows: int = 6000, out_dir: str | None = None, concurrency=None, seed: int = 42):
    """End-to-end: synthesize -> parse/enrich/route -> write sinks -> aggregate.
    Returns (per-sink counts DataFrame, by_lang DataFrame)."""
    from ..synth import pages_dataset

    ds = pages_dataset(n_rows, seed=seed)
    routed = flagship_routed(ds, concurrency=concurrency)
    if out_dir:
        # fused count-on-write sink: ONE streaming execution writes the
        # hive-partitioned sinks AND returns (route, host, lang) partials
        # — both aggregates roll up from the returned partials, no
        # read-back pipeline (sinks.RoutedParquetDatasink docstring)
        from ..sinks import RoutedParquetDatasink

        sink = RoutedParquetDatasink(out_dir, partition_col="route",
                                     count_cols=("route", "host", "lang"),
                                     min_rows_per_file=150_000)
        routed.write_datasink(sink)
        parts = sink.counts
        by_host = parts.groupby(["route", "host"], as_index=False, dropna=False)["n"].sum()
        by_lang = parts.groupby(["route", "lang"], as_index=False, dropna=False)["n"].sum()
    else:
        by_host, by_lang = flagship_aggregates(routed)
        by_host, by_lang = by_host.to_pandas(), by_lang.to_pandas()
    sink_counts = (
        by_host.groupby("route", as_index=False)["n"].sum().sort_values("route").reset_index(drop=True)
    )
    return sink_counts, by_lang.sort_values(["route", "lang"]).reset_index(drop=True)
