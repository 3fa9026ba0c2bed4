"""The flagship parse -> enrich -> route -> aggregate pipeline.

The Ray-Data-native equivalent of a full AxoSyslog config: source (pages
Parquet) -> initial format parse (syslog autodetect) -> app-parser-style
classification chain (json / apache-csv / kv, first-match-wins —
reference modules/appmodel/app-parser-generator.c) -> db-parser
(PatternDB) -> add-contextual-data + geoip enrichment -> rewrites ->
filterx-style predicate routing into four sinks with final/fallback
semantics -> per-sink aggregate counts.

The syslog parse builds only the header columns a later layer or the
sink reads (`SYSLOG_COLUMNS`): no SDATA map, MSGID, legacy header or
format name.

Physical shape: ONE fused map_batches stage of stateless tasks
(`flagship_routed` -> `_apply_stage`) does everything row-parallel. Each
worker process builds one `LogPipelineStage` on its first batch and
keeps it in `_STAGE_CACHE`, so all compiled state (patterndb rules,
context db, geoip ranges, regexes) is built once per process. Per batch,
everything between the syslog parse and the router runs on Arrow kernels
and numpy, with no pandas: each app parser runs on its candidate rows
only and its values are scattered back (`stages.syslog._scatter`);
contextual data is one `index_in` + two `take`s per field, and GeoIP one
RE2 pass + `searchsorted` + one `take` per attribute. Per-row Python is
left only in the JSON decode of the json candidates and in the generic
parsers on the rows the RE2 passes cannot decide. Routing needs no
shuffle (a route label column + partitioned write), and neither do the
per-sink counts (`run_flagship`): the sink counts what it writes.
"""

from __future__ import annotations

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
from ..stages.syslog import _scatter, parse_syslog_table

SINKS = ["errors", "auth", "web", "other"]
# the `app` column's values; a row's code is the last chain stage that
# claimed it
_APPS = pa.array(["raw", "kv", "apache", "json", "syslog"])
# the header columns something downstream reads: the sink (SINK_COLUMNS),
# PatternDB (program, message, tags), context (host), the router (pri,
# tags) and perfbench's replay (syslog_parsed). msgid, legacy_msghdr,
# sdata and msgformat are read by nothing, so they are not parsed
SYSLOG_COLUMNS = ("pri", "ts_stamp", "host", "program", "pid", "message", "syslog_parsed", "tags")


# ---------------------------------------------------------------------------
# Hot-path specializations (semantics identical to the generic operators —
# cross-checked in tests/test_flagship.py): the generic CsvParser/KvParser/
# JsonParser tokenize per row in Python; the flagship's fixed shapes let the
# whole batch run through Arrow RE2 instead.
# ---------------------------------------------------------------------------

# the fields: clientip ident auth [stamp] "request" status bytes
# "referrer" "agent" rt vhost. Only the two the flagship reads capture:
# RE2 pays for every capture group. Unquoted fields must not open a quote
# section (the csv scanner opens one on a field-initial `"` or `[`) and
# the bracketed stamp must not hold a backslash (the scanner's
# escape-backslash dialect applies there)
APACHE_RE2 = (
    r'^(?P<clientip>[^\s"\[]\S*) [^\s"\[]\S* [^\s"\[]\S* '
    r'\[[^\]\\]*\] "(?:[^"\\]|\\.)*" (?P<status>[^\s"\[]\S*) '
    r'[^\s"\[]\S* "(?:[^"\\]|\\.)*" '
    r'"(?:[^"\\]|\\.)*" [^\s"\[]\S* [^\s"\[]\S*$'
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


# a pair's value, still quoted
_KV_VALUE = rf"^(?P<v>{_KV_QUOTED}|{_KV_BARE})"


def fast_kv_promote(text: pa.ChunkedArray, key: str) -> np.ndarray:
    """The value KvParser(promote=[key]) gives per row: Arrow kernels on
    the rows of kv-parser's whitelist shape (stages/kv_parser.py), where
    the scanner has nothing to decide, the kv scanner on the rest. In that
    shape every key starts the row or follows a space, and no value or
    stray word holds ` <key>=`, so the last value of `key` (the last one
    wins, as in the scanner) follows the last ` <key>=` of " " + row."""
    text = pc.cast(text, pa.string())
    simple = pc.match_substring_regex(text, _KV_SIMPLE).to_numpy(zero_copy_only=False)
    parts = pc.split_pattern(pc.binary_join_element_wise(" ", text, ""), f" {key}=",
                             max_splits=1, reverse=True)
    after = pc.list_element(pc.if_else(pc.equal(pc.list_value_length(parts), 2),
                                       parts, pa.scalar(None, parts.type)), 1)
    v = pc.struct_field(pc.extract_regex(after, _KV_VALUE), "v")
    v = pc.if_else(pc.starts_with(v, '"'), pc.utf8_slice_codeunits(v, 1, -1), v)
    out = v.to_numpy(zero_copy_only=False)
    rest = np.flatnonzero(~simple)
    if len(rest):
        got = KvParser(source_col="text", promote=[key])(
            pa.table({"text": text.take(pa.array(rest))}))
        out[rest] = got.column(key).to_numpy()
    return out


def fast_json_valid(text: pa.ChunkedArray) -> np.ndarray:
    """json_valid per row of `text` (the candidate rows): parse without
    flattening, with the JSON decoder JsonParser uses."""
    out = np.zeros(len(text), dtype=bool)
    for i, s in enumerate(text.to_numpy(zero_copy_only=False)):
        try:
            out[i] = isinstance(_loads(s), dict)
        except Exception:
            pass
    return out


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
        t = parse_syslog_table(batch, columns=SYSLOG_COLUMNS)
        n = t.num_rows

        # ---- app-parser classification chain (first-match-wins) ----
        # fast parsers run on CANDIDATE subsets only (taking the slim text
        # column, then scattering back) — extracting over every row and
        # masking afterwards ran the RE2 passes over the whole corpus
        text = pc.fill_null(pc.cast(t.column("text"), pa.string()), "")
        syslog_ok = t.column("syslog_parsed").to_numpy(zero_copy_only=False)
        raw = np.flatnonzero(~syslog_ok)
        raw_text = text.take(raw)
        looks_json = pc.starts_with(raw_text, "{").to_numpy(zero_copy_only=False)
        looks_apache = pc.match_substring_regex(
            raw_text, r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3} ").to_numpy(zero_copy_only=False)
        looks_kv = pc.match_substring(raw_text, "=").to_numpy(zero_copy_only=False) \
            & ~looks_json & ~looks_apache
        js_idx, ap_idx, kv_idx = (raw[m] for m in (looks_json, looks_apache, looks_kv))

        json_ok = np.zeros(n, dtype=bool)
        json_ok[js_idx] = fast_json_valid(text.take(js_idx))
        apache_ok = np.zeros(n, dtype=bool)
        av, aip, ast = fast_apache(text.take(ap_idx))
        apache_ok[ap_idx] = av
        kv_text = text.take(kv_idx)

        def scatter(rows, vals) -> pa.Array:
            return _scatter(n, [(rows, pa.array(vals, pa.string()))], None, pa.string())

        web_clientip = scatter(ap_idx, aip)
        kv_ip = scatter(kv_idx, fast_kv_promote(kv_text, "src_ip"))
        t = t.append_column("json_valid", pa.array(json_ok))
        t = t.append_column("csv_valid", pa.array(apache_ok))
        t = t.append_column("web_clientip", web_clientip)
        t = t.append_column("web_status", scatter(ap_idx, ast))
        t = t.append_column("status", scatter(kv_idx, fast_kv_promote(kv_text, "status")))

        app = np.zeros(n, dtype=np.int8)
        app[kv_idx] = 1
        app[apache_ok] = 2
        app[json_ok] = 3
        app[syslog_ok] = 4
        t = t.append_column("app", _APPS.take(pa.array(app)))

        # ---- db-parser (patterndb) over syslog messages ----
        t = self.patterndb(t)

        # ---- derived src_ip: apache clientip | kv src_ip | pdb client_ip ----
        pdb_ip = pc.map_lookup(
            t.column("pdb_values").combine_chunks(), query_key="client_ip", occurrence="first"
        )
        web_ip = pc.if_else(pa.array(apache_ok), web_clientip, pa.scalar(None, pa.string()))
        t = t.append_column("src_ip", pc.coalesce(web_ip, kv_ip, pdb_ip))

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


def flagship_routed(ds, batch_size: int = 16384):
    """pages Dataset -> routed message Dataset (lazy): `_apply_stage` as
    stateless map_batches tasks of `batch_size` rows, projected to
    SINK_COLUMNS."""
    routed = ds.map_batches(_apply_stage, batch_format="pyarrow", batch_size=batch_size)
    return routed.select_columns(SINK_COLUMNS)


def run_flagship(n_rows: int = 6000, *, out_dir: str, seed: int = 42):
    """End-to-end: synthesize -> parse/enrich/route -> write the sinks
    under `out_dir`. Returns the (per-sink counts, by_lang) DataFrames,
    rolled up from the (route, host, lang) partials the count-on-write
    sink returns: one streaming execution, no read-back
    (sinks.RoutedParquetDatasink)."""
    from ..sinks import RoutedParquetDatasink
    from ..synth import pages_dataset

    routed = flagship_routed(pages_dataset(n_rows, seed=seed))
    sink = RoutedParquetDatasink(out_dir, partition_col="route",
                                 count_cols=("route", "host", "lang"),
                                 min_rows_per_file=150_000)
    routed.write_datasink(sink)
    parts = sink.counts
    by_host = parts.groupby(["route", "host"], as_index=False, dropna=False)["n"].sum()
    by_lang = parts.groupby(["route", "lang"], as_index=False, dropna=False)["n"].sum()
    sink_counts = (
        by_host.groupby("route", as_index=False)["n"].sum().sort_values("route").reset_index(drop=True)
    )
    return sink_counts, by_lang.sort_values(["route", "lang"]).reset_index(drop=True)
