"""Config front end (axosyslog_ray/config.py) — log-path semantics
pinned to the reference's Light functional suite
(tests/light/functional_tests/logpath/test_conditionals.py) plus the
statement/driver subset."""
import pyarrow as pa
import pytest

from axosyslog_ray.config import ConfigError, compile_config

PREAMBLE = """
@version: 4.8

options { stats(level(1)); };

block filter true() {
    "1" eq "1"
};

block filter false() {
    "0" eq "1"
};

source genmsg {
    example-msg-generator(num(1) template("foobar"));
};

destination dest_after { file("dest-after.log" template("'${MESSAGE}'")); };
destination dest_true { file("dest-true.log" template("'${MESSAGE}'")); };
destination dest_false { file("dest-false.log" template("'${MESSAGE}'")); };
destination dest_fallback { file("dest-fallback.log" template("'${MESSAGE}'")); };

log {
    source(genmsg);
    destination(dest_fallback);
    flags(fallback);
};
"""


def run(test_config):
    return compile_config(PREAMBLE + test_config).run()


class TestLightConditionals:
    """The four conditional cases of test_conditionals.py, same
    processed-count assertions as the reference's own suite."""

    def test_simple_if(self):
        r = run("""
log {
    source(genmsg);
    if (true()) {
        destination(dest_true);
    } else {
        destination(dest_false);
    };

    destination(dest_after);
};
""")
        assert r.processed("dest_true") == 1
        assert r.processed("dest_false") == 0
        assert r.processed("dest_after") == 1
        assert r.processed("dest_fallback") == 0

    def test_simple_if_negated(self):
        r = run("""
log {
    source(genmsg);
    if (false()) {
        destination(dest_true);
    } else {
        destination(dest_false);
    };
    destination(dest_after);
};
""")
        assert r.processed("dest_true") == 0
        assert r.processed("dest_false") == 1
        assert r.processed("dest_after") == 1
        assert r.processed("dest_fallback") == 0

    def test_simple_if_that_drops_in_all_branches(self):
        # nothing survives the path -> the fallback path gets the message
        r = run("""
log {
    source(genmsg);
    if (true()) {
        filter { false(); };
        destination(dest_true);
    } else {
        destination(dest_false);
    };
    destination(dest_after);
};
""")
        assert r.processed("dest_true") == 0
        assert r.processed("dest_false") == 0
        assert r.processed("dest_after") == 0
        assert r.processed("dest_fallback") == 1

    def test_compound_if(self):
        r = run("""
log {
    source(genmsg);
    if {
        filter { true(); };
        destination(dest_true);
    } else {
        destination(dest_false);
    };
    destination(dest_after);
};
""")
        assert r.processed("dest_true") == 1
        assert r.processed("dest_false") == 0
        assert r.processed("dest_after") == 1
        assert r.processed("dest_fallback") == 0


class TestJunctions:
    def test_junction_final_channels_route_by_filter(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d_err { file("e.log"); };
destination d_rest { file("r.log"); };
filter f_err { message("err") };
log {
    source(s);
    junction {
        channel { filter(f_err); destination(d_err); flags(final); };
        channel { destination(d_rest); flags(fallback); };
    };
};
""")
        t = pa.table({"message": ["an err line", "ok line", "more err"],
                      "pri": [13, 13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d_err") == 2
        assert r.processed("d_rest") == 1
        assert r.table("d_rest").column("message").to_pylist() == ["ok line"]

    def test_rows_continue_after_junction(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d_a { file("a.log"); };
destination d_all { file("all.log"); };
log {
    source(s);
    junction {
        channel { filter { message("x"); }; destination(d_a); flags(final); };
        channel { flags(fallback); };
    };
    destination(d_all);
};
""")
        t = pa.table({"message": ["x1", "y1", "x2"], "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.processed("d_a") == 2
        # both branch outputs rejoin and continue
        assert r.processed("d_all") == 3


    def test_fallback_channel_listed_first_runs_last(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d_err { file("e.log"); };
destination d_rest { file("r.log"); };
filter f_err { message("err") };
log {
    source(s);
    junction {
        channel { destination(d_rest); flags(fallback); };
        channel { filter(f_err); destination(d_err); flags(final); };
    };
};
""")
        t = pa.table({"message": ["an err line", "ok line", "more err"],
                      "pri": [13, 13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d_err") == 2
        assert r.table("d_rest").column("message").to_pylist() == ["ok line"]


_TWO_SOURCES = """
source a { example-msg-generator(num(1)); };
source b { example-msg-generator(num(1)); };
destination d_err { file("e.log"); };
destination d_rest { file("r.log"); };
filter f_err { message("err") };
"""


class TestRowIdsAcrossSources:
    """Rows of different sources in one path stay distinct: matching a
    row of one source must not mark the same-position row of another."""

    @pytest.mark.parametrize("body", ["""
log { source(a); source(b); filter(f_err); destination(d_err); flags(final); };
log { source(a); source(b); destination(d_rest); flags(fallback); };
""", """
log {
    source(a); source(b);
    junction {
        channel { filter(f_err); destination(d_err); flags(final); };
        channel { destination(d_rest); flags(fallback); };
    };
};
"""], ids=["top_level_paths", "inside_one_junction"])
    def test_fallback_gets_unmatched_rows_of_both_sources(self, body):
        cfg = compile_config(_TWO_SOURCES + body)
        r = cfg.run(sources={"a": pa.table({"message": ["err a0", "ok a1"]}),
                             "b": pa.table({"message": ["ok b0", "err b1"]})})
        err = r.table("d_err").column("message").to_pylist()
        rest = r.table("d_rest").column("message").to_pylist()
        assert sorted(err) == ["err a0", "err b1"]
        assert sorted(rest) == ["ok a1", "ok b0"]


_MPX_ROWS = ["x1", "y1", "x2", "z1"]


class TestMultiplexerShapes:
    """lib/logmpx.c:97-130: the non-fallback hops run in order and a
    final match stops them; only rows nothing matched take the fallback
    hops, again in order with the same stop on a final match. catch-all
    only attaches a top-level path to every source. Top-level paths and
    embedded paths under one source deliver the same rows."""

    SHAPES = {
        # name: ([(filter, destination, flags)], {destination: messages})
        "final_fallback_fallback": (
            [("f_x", "d1", "final"), ("f_y", "d2", "fallback"),
             (None, "d3", "fallback")],
            {"d1": ["x1", "x2"], "d2": ["y1"], "d3": ["y1", "z1"]}),
        "final_catchall": (
            [("f_x", "d1", "final"), (None, "d2", "catch-all")],
            {"d1": ["x1", "x2"], "d2": ["y1", "z1"]}),
        "final_fallback-final_fallback": (
            [("f_x", "d1", "final"), (None, "d2", "fallback, final"),
             (None, "d3", "fallback")],
            {"d1": ["x1", "x2"], "d2": ["y1", "z1"], "d3": []}),
        "final_plain": (
            [("f_x", "d1", "final"), (None, "d2", None)],
            {"d1": ["x1", "x2"], "d2": ["y1", "z1"]}),
        "plain_plain": (
            [("f_x", "d1", None), (None, "d2", None)],
            {"d1": ["x1", "x2"], "d2": _MPX_ROWS}),
        "plain_fallback": (
            [("f_x", "d1", None), (None, "d2", "fallback")],
            {"d1": ["x1", "x2"], "d2": ["y1", "z1"]}),
        "final_plain_fallback": (
            [("f_x", "d1", "final"), ("f_y", "d2", None),
             (None, "d3", "fallback")],
            {"d1": ["x1", "x2"], "d2": ["y1"], "d3": ["z1"]}),
    }

    @staticmethod
    def _config(paths, embedded: bool) -> str:
        text = """
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
destination d3 { file("o3.log"); };
filter f_x { message("x") };
filter f_y { message("y") };
"""
        logs = []
        for flt, dst, flags in paths:
            # a top-level catch-all path names no source
            src = "" if embedded or flags == "catch-all" else "source(s); "
            body = src + (f"filter({flt}); " if flt else "") + \
                f"destination({dst}); " + (f"flags({flags}); " if flags else "")
            logs.append("log { %s};" % body)
        if embedded:
            return text + "log { source(s); %s };" % " ".join(logs)
        return text + "\n".join(logs)

    @pytest.mark.parametrize("embedded", [False, True],
                             ids=["top_level", "embedded"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_delivers_the_logmpx_result(self, shape, embedded):
        paths, expected = self.SHAPES[shape]
        cfg = compile_config(self._config(paths, embedded))
        r = cfg.run(sources={"s": pa.table({"message": _MPX_ROWS})})
        got = {d: (r.table(d).column("message").to_pylist()
                   if r.processed(d) else [])
               for d in ("d1", "d2", "d3")}
        assert got == {d: expected.get(d, []) for d in got}


class TestBatchBoundaries:
    """ConfigStage runs Config.run once per batch: per-row path
    semantics make the split invisible. Splitting the input into any
    batches delivers the same rows to every destination, and the same
    summed named-path counters, as one run over the whole table."""

    CONFIG = """
source s { example-msg-generator(num(1)); };
destination d_errors { file("errors.log"); };
destination d_auth { file("auth.log"); };
destination d_kv { file("kv.log"); };
destination d_other { file("other.log"); };
filter f_errors { level(emerg..err) };
filter f_auth { program("^(su|sshd)$") };
filter f_kv { message("=") };
parser p_syslog { syslog-parser(); };
parser p_kv { kv-parser(prefix("kv.")); };
filterx fx_status { isset(${kv.status}); };
log pages {
    source(s);
    parser(p_syslog);
    log errors { filter(f_errors); destination(d_errors); flags(final); };
    log auth { filter(f_auth); destination(d_auth); flags(final); };
    log kv { filter(f_kv); parser(p_kv); filterx(fx_status); destination(d_kv); flags(final); };
    log other { destination(d_other); flags(fallback); };
};
"""
    LINES = [
        "<11>Aug 17 05:00:03 h3 app: oops fail",
        "<38>Aug 17 05:00:01 h2 sshd[1]: login ok",
        "<13>Aug 17 05:00:02 h1 app: status=200 user=bob",
        "<13>Aug 17 05:00:04 h1 app: user=eve",
        "<13>Aug 17 05:00:05 h2 app: id=7 status=404",
        "<86>Aug 17 05:00:06 h4 su: session opened",
        "<13>Aug 17 05:00:07 h1 app: hello world",
        "plain unparsed line",
    ]

    @staticmethod
    def _run(cfg, batches):
        """Per-destination rows (as dicts) and named-path counters,
        summed over one Config.run per batch."""
        rows = {d: [] for d in cfg.destinations}
        stats: dict = {}
        for b in batches:
            r = cfg.run(sources={"s": b})
            for d in rows:
                if r.processed(d):
                    rows[d].extend(r.table(d).to_pylist())
            for name, (ing, egr) in cfg.path_stats.items():
                st = stats.setdefault(name, [0, 0])
                st[0] += ing
                st[1] += egr
        # a row is its set fields: which null columns a table carries
        # depends on the other rows of its batch (a kv key parsed only on
        # a row a later filter drops stays as an all-null column)
        rows = {d: [{c: v for c, v in row.items() if v is not None}
                    for row in rs]
                for d, rs in rows.items()}
        return rows, stats

    def test_split_matches_whole_run(self):
        from hypothesis import example, given, settings, strategies as st

        cfg = compile_config(self.CONFIG)

        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.sampled_from(self.LINES), min_size=1, max_size=40),
               st.lists(st.integers(0, 40), max_size=6))
        @example(lines=[self.LINES[0], self.LINES[3], self.LINES[4]], cuts=[2])
        def check(lines, cuts):
            t = pa.table({"message": lines})
            bounds = sorted({0, len(lines), *(c for c in cuts if c < len(lines))})
            batches = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
            assert self._run(cfg, batches) == self._run(cfg, [t])

        check()


class TestStages:
    def test_parser_rewrite_filter_chain(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("out.log" template("${user}")); };
parser p_kv { kv-parser(prefix("")); };
rewrite r_tag { set("seen" value("status")); };
filter f_admin { match("admin" value("user")) };
log {
    source(s);
    parser(p_kv);
    rewrite(r_tag);
    filter(f_admin);
    destination(d);
};
""")
        t = pa.table({"message": ["user=admin action=login",
                                  "user=bob action=login"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        out = r.table("d")
        assert out.column("user").to_pylist() == ["admin"]
        assert out.column("status").to_pylist() == ["seen"]
        assert r.rendered("d") == ["admin"]

    def test_run_result_survives_next_run(self):
        # a RunResult is a snapshot: the next run() on the same compiled
        # config must not rewrite what an earlier result reports
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log { source(s); destination(d); };
""")
        r1 = cfg.run(sources={"s": pa.table({"message": ["a", "b", "c"]})})
        cfg.run(sources={"s": pa.table({"message": ["z"]})})
        assert r1.processed("d") == 3
        assert r1.table("d").column("message").to_pylist() == ["a", "b", "c"]
        assert r1.rendered("d") == ["a\n", "b\n", "c\n"]

    def test_csv_parser_inline_in_path(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log {
    source(s);
    parser { csv-parser(columns("a", "b", "c") delimiters(",")); };
    filter { "${b}" eq "2"; };
    destination(d);
};
""")
        t = pa.table({"message": ["1,2,3", "9,9,9"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        assert r.table("d").column("a").to_pylist() == ["1"]

    def test_severity_and_boolean_operators(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
filter f { level(err) or (level(warning) and message("disk")) };
log { source(s); filter(f); destination(d); };
""")
        # pri = facility*8 + severity; severity err=3, warning=4
        t = pa.table({"message": ["boom", "disk full", "fine"],
                      "pri": [3, 12, 14]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 2

    def test_generator_source_and_templates(self):
        r = compile_config("""
source g { example-msg-generator(num(3) template("hi")); };
destination d { file("o.log" template("${MESSAGE}!")); };
log { source(g); destination(d); };
""").run()
        assert r.processed("d") == 3
        assert r.rendered("d") == ["hi!"] * 3


_PG_ROW = ",".join([
    "2023-08-08 12:05:52.805 UTC", "$PROGRAM", "mydb", "22113", "", "s1", "1",
    "", "2023-08-08 12:05:20 UTC", "6/117", "0", "LOG", "00000",
    "hello $HOST", "", "", "", "", "", "", "", "", "psql", "client backend",
    "", "0"])

# driver -> (driver text around {tpl}, three `payload` values, a composite
# template). Every driver that takes template() is here.
_PARSER_INPUTS = {
    "csv-parser": (
        "csv-parser(columns(\"c1\", \"c2\") prefix(\"csv.\") template('{tpl}'))",
        ["a,b", "x", None], "${payload},$PROGRAM"),
    "kv-parser": (
        "kv-parser(prefix(\"kv.\") template('{tpl}'))",
        ["a=1 b=2", 'k="v w"', None], "h=$HOST ${payload}"),
    "linux-audit-parser": (
        "linux-audit-parser(prefix(\"au.\") template('{tpl}'))",
        ['type=SYSCALL msg=audit(1.0:2): a0=2f746d70 comm="ls"', "a=1", None],
        "${payload} prog=$PROGRAM"),
    "regexp-parser": (
        "regexp-parser(patterns(\"^(?<w1>[a-z0-9]+) (?<w2>[a-z0-9]+)\")"
        " prefix(\"re.\") template('{tpl}'))",
        ["ab cd", "one", None], "$HOST $PROGRAM"),
    "json-parser": (
        "json-parser(prefix(\"j.\") template('{tpl}'))",
        ['{"a": 1, "b": "x"}', "not json", None],
        '{"h": "$HOST", "p": "$PROGRAM"}'),
    "sdata-parser": (
        "sdata-parser(prefix(\".sd.\") template('{tpl}'))",
        ['[ex@1 a="1" b="2"]', "plain", None],
        '[meta host="$HOST" p="$PROGRAM"]'),
    "date-parser": (
        "date-parser(format(\"%Y-%m-%d\") template('{tpl}'))",
        ["2024-01-02", "junk", None], "2024-01-0$n"),
    "tags-parser": (
        "tags-parser(template('{tpl}'))", ["a,b", "", None], "${HOST},x"),
    "syslog-parser": (
        "syslog-parser(template('{tpl}'))",
        ["<13>Jan  1 00:00:00 h1 prog[1]: hello",
         "<165>1 2003-10-11T22:14:15.003Z box evnt - ID47 - msg", None],
        "<$PRI>Jan  1 00:00:00 $HOST $PROGRAM: x"),
    "syslog-parser no-header": (
        "syslog-parser(flags(no-header) template('{tpl}'))",
        ["<13>rest of it", "no pri", None], "<$PRI>$PROGRAM says"),
    "cisco-parser": (
        "cisco-parser(template('{tpl}'))",
        ["<189>29: foo: *Apr 29 13:58:40.411: %SYS-5-CONFIG_I: Configured",
         "junk", None], "<189>$PROGRAM: %SYS-5-CONFIG_I: by $HOST"),
    "snmptrapd-parser": (
        "snmptrapd-parser(template('{tpl}'))",
        ["2017-05-10 12:46:14 web2 [UDP: [127.0.0.1]:34257->[127.0.0.1]:162]:"
         " iso.3.6.1.2.1.1.3.0 = Timeticks: (875496867) 101 days", "junk",
         None],
        "2017-05-10 12:46:14 $PROGRAM [UDP: [127.0.0.1]:1->[127.0.0.1]:162]:"
        " iso.3.6 = STRING: $HOST"),
    "mariadb-audit-parser": (
        "mariadb-audit-parser(template('{tpl}'))",
        ["columnstore-1 eff8,user1,172.18.0.1,32,394,QUERY,db,x,0", "junk",
         None], "$PROGRAM ${HOST},u,1.2.3.4,32,394,QUERY,db,,0"),
    "postgresql-csvlog-parser": (
        "postgresql-csvlog-parser(template('{tpl}'))",
        [_PG_ROW.replace("$PROGRAM", "app").replace("$HOST", "h"), "junk",
         None], _PG_ROW),
    "geoip2": (
        "geoip2('{tpl}' database(\"{db}\") prefix(\"geo_\"))",
        ["10.1.2.3", "8.8.8.8", None], "10.$n.0.1"),
}
# drivers that set $MESSAGE themselves: their message column is output
_WRITES_MESSAGE = {"syslog-parser", "syslog-parser no-header",
                   "cisco-parser", "snmptrapd-parser"}


class TestParserTemplateInputs:
    """Every parser driver that takes template() reads it through one
    path: a plain column reference, a macro that is no column
    ($FACILITY) and a composite template each parse exactly as the same
    driver fed the rendered value as $MESSAGE."""

    @staticmethod
    def _run(driver: str, table: pa.Table) -> pa.Table:
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
parser p {{ {driver}; }};
log {{ source(s); parser(p); destination(d); }};
""")
        return cfg.run(sources={"s": table}).table("d")

    @pytest.mark.parametrize("shape", ["column", "macro", "composite"])
    @pytest.mark.parametrize("name", list(_PARSER_INPUTS))
    def test_input_matches_rendered_message(self, name, shape, tmp_path):
        from axosyslog_ray.enrich.mmdb_write import write_mmdb
        from axosyslog_ray.functions.templates import Template

        db = str(tmp_path / "geo.mmdb")
        write_mmdb(db, [("10.0.0.0/8", {"country": {"iso_code": "US"}})])
        driver, payload, composite = _PARSER_INPUTS[name]
        tpl = {"column": "$payload", "macro": "$FACILITY",
               "composite": composite}[shape]
        t = pa.table({"message": ["unrelated", "text", "here"],
                      "host": ["h1", None, "h3"],
                      "program": ["sshd", "cron", "su"],
                      "pri": [13, 34, 190],
                      "n": [1, 2, None],
                      "payload": payload,
                      "recv_ts": pa.array([0, 0, 0], pa.timestamp("us"))})
        got = self._run(driver.format(tpl=tpl, db=db), t)
        rendered = Template(tpl).eval(t).tolist()
        want = self._run(driver.format(tpl="$MESSAGE", db=db),
                         t.set_column(0, "message", pa.array(rendered)))
        if name not in _WRITES_MESSAGE and got.num_rows:
            got, want = got.drop_columns(["message"]), \
                want.drop_columns(["message"])
        assert got.column_names == want.column_names
        assert got.to_pylist() == want.to_pylist()

    @pytest.mark.parametrize("name", [*_PARSER_INPUTS, "db-parser"])
    def test_compiled_stage_is_class_instance(self, name, tmp_path):
        """Every compiled parser stage is a class instance, never a plain
        function: tracing patches `type(stage).__call__` of each."""
        import types

        from axosyslog_ray.enrich.mmdb_write import write_mmdb

        db = str(tmp_path / "geo.mmdb")
        write_mmdb(db, [("10.0.0.0/8", {"country": {"iso_code": "US"}})])
        pdb = tmp_path / "rules.pdb"
        pdb.write_text(
            "<patterndb version='6'><ruleset name='s' id='1'><rules>"
            "<rule id='r1' provider='t' class='system'><patterns>"
            "<pattern>login @ESTRING:user: @</pattern></patterns></rule>"
            "</rules></ruleset></patterndb>")
        driver = f'db-parser(file("{pdb}"))' if name == "db-parser" \
            else _PARSER_INPUTS[name][0].format(tpl="$MESSAGE", db=db)
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
parser p {{ {driver}; }};
log {{ source(s); parser(p); destination(d); }};
""")
        stages = [st for sts in cfg.parsers.values() for st in sts]
        assert stages
        assert not any(isinstance(st, types.FunctionType) for st in stages)


class TestErrors:
    def test_unknown_statement_raises(self):
        with pytest.raises(ConfigError):
            compile_config("frobnicate x { };")

    def test_unknown_filter_function(self):
        with pytest.raises(ConfigError):
            compile_config('filter f { frob("x") };')

    def test_unterminated_block(self):
        with pytest.raises(ConfigError):
            compile_config("log { source(s);")


class TestFilterXBlocks:
    def test_inline_filterx_block_in_path(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log {
    source(s);
    filterx {
        if ($status >= 500) { $class = "err"; } else { $class = "ok"; };
        if ($class == "err") { drop; };
    };
    destination(d);
};
""")
        t = pa.table({"message": ["a", "b", "c"], "status": [200, 503, 404],
                      "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 2
        assert r.table("d").column("class").to_pylist() == ["ok", "ok"]

    def test_named_filterx_block(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("${upper}")); };
filterx fx_up {
    $upper = upper($message);
};
log { source(s); filterx(fx_up); destination(d); };
""")
        t = pa.table({"message": ["hi", "yo"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 2
        assert r.rendered("d") == ["HI", "YO"]


@pytest.mark.usefixtures("ray_session")
class TestRayDatasetExecution:
    def test_config_runs_over_dataset(self):
        import ray.data as rd

        from axosyslog_ray.config import run_config_on_dataset

        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d_err { file("e.log"); };
destination d_rest { file("r.log"); };
filter f_err { message("err") };
log {
    source(s);
    junction {
        channel { filter(f_err); destination(d_err); flags(final); };
        channel { destination(d_rest); flags(fallback); };
    };
};
""")
        rows = [{"message": ("an err line" if i % 5 == 0 else f"ok {i}"),
                 "pri": 13} for i in range(10_000)]
        out = run_config_on_dataset(cfg, rd.from_items(rows).repartition(8), "s")
        counts = out.groupby("dest").count().to_pandas().set_index("dest")["count()"]
        assert counts["d_err"] == 2000
        assert counts["d_rest"] == 8000

    def test_filterx_config_over_dataset(self):
        import ray.data as rd

        from axosyslog_ray.config import run_config_on_dataset

        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log {
    source(s);
    filterx { $sev = $status >= 500 ? "err" : "ok"; $sev == "err"; };
    destination(d);
};
""")
        rows = [{"message": f"m{i}", "status": 503 if i % 4 == 0 else 200,
                 "pri": 13} for i in range(4000)]
        out = run_config_on_dataset(cfg, rd.from_items(rows).repartition(4), "s")
        df = out.to_pandas()
        assert len(df) == 1000
        assert (df["sev"] == "err").all()


@pytest.mark.usefixtures("ray_session")
def test_run_config_cli_over_parquet(tmp_path):
    """python -m axosyslog_ray.run_config end-to-end: conf + parquet in,
    hive-partitioned dests + counts out."""
    import pandas as pd

    from axosyslog_ray.run_config import main

    conf = tmp_path / "app.conf"
    conf.write_text("""
source s { example-msg-generator(num(1)); };
destination d_err { file("e.log"); };
destination d_rest { file("r.log"); };
log {
    source(s);
    junction {
        channel { filter { message("err"); }; destination(d_err); flags(final); };
        channel { destination(d_rest); flags(fallback); };
    };
};
""")
    n = 3000
    df = pd.DataFrame({
        "line": [("boom err" if i % 3 == 0 else f"fine {i}") for i in range(n)],
        "pri": [13] * n,
    })
    inp = tmp_path / "in.parquet"
    df.to_parquet(inp, index=False)
    out_dir = tmp_path / "out"
    res = main(["--config", str(conf), "--source", "s",
                "--input", str(inp), "--output", str(out_dir),
                "--text-col", "line"])
    assert res["processed"] == {"d_err": 1000, "d_rest": 2000}
    import ray.data as rd
    back = rd.read_parquet(str(out_dir)).to_pandas()
    assert len(back) == n
    assert (back[back["dest"] == "d_err"]["message"].str.contains("err")).all()


class TestLightLogpathFlags:
    """Embedded log paths and top-level flags, pinned to the Light
    suite's logpath cases (test_flags_final.py, test_flags_catch_all.py,
    test_multiple_embedded_logpaths.py)."""

    def test_embedded_final_consumes_from_sibling(self):
        # test_flags_final.py: inner path 1 filters host-A with
        # flags(final); inner path 2 gets only what 1 didn't match
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
filter f_a { host("host-A") };
log {
    source(s);
    log { filter(f_a); destination(d1); flags(final); };
    log { destination(d2); };
};
""")
        t = pa.table({"message": ["m1", "m2"], "host": ["host-A", "host-B"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d1") == 1
        assert r.table("d1").column("host").to_pylist() == ["host-A"]
        assert r.processed("d2") == 1
        assert r.table("d2").column("host").to_pylist() == ["host-B"]

    def test_embedded_without_final_both_deliver(self):
        # test_multiple_embedded_logpaths.py: no flags -> every embedded
        # path sees every message
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
log {
    source(s);
    log { destination(d1); };
    log { destination(d2); };
};
""")
        t = pa.table({"message": ["m1", "m2"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d1") == 2 and r.processed("d2") == 2

    def test_catch_all_path_sees_all_sources(self):
        # test_flags_catch_all.py: a catch-all path needs no source()
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d_all { file("all.log"); };
log {
    source(s);
    log { destination(d1); };
};
log { destination(d_all); flags(catch-all); };
""")
        t = pa.table({"message": ["m1", "m2", "m3"], "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.processed("d1") == 3
        assert r.processed("d_all") == 3

    def test_top_level_final_consumes_for_later_paths(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
filter f_x { message("x") };
log { source(s); filter(f_x); destination(d1); flags(final); };
log { source(s); destination(d2); };
""")
        t = pa.table({"message": ["x1", "y1", "x2"], "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.processed("d1") == 2
        assert r.processed("d2") == 1
        assert r.table("d2").column("message").to_pylist() == ["y1"]


class TestLexerStringSemantics:
    def test_double_quoted_escapes(self):
        # cfg-lex.l:377-384: \n \t \xHH \oOOO process; \<other> -> char
        from axosyslog_ray.config import _unquote

        assert _unquote(r'"a\nb"') == "a\nb"
        assert _unquote(r'"a\tb"') == "a\tb"
        assert _unquote(r'"\x41\o101"') == "AA"
        assert _unquote(r'"a\qb"') == "aqb"
        assert _unquote(r'"say \"hi\""') == 'say "hi"'

    def test_single_quoted_is_literal(self):
        # qstring: no escape processing at all
        from axosyslog_ray.config import _unquote

        assert _unquote(r"'a\nb'") == r"a\nb"
        assert _unquote(r"'back\\slash'") == "back\\\\slash"

    def test_escapes_flow_into_stages(self):
        cfg = compile_config(r"""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log {
    source(s);
    parser { csv-parser(columns("a", "b") delimiters("\t")); };
    destination(d);
};
""")
        t = pa.table({"message": ["x\ty"], "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.table("d").column("a").to_pylist() == ["x"]
        assert r.table("d").column("b").to_pylist() == ["y"]


class TestMoreParserDrivers:
    def test_db_parser_driver(self, tmp_path):
        pdb = tmp_path / "rules.pdb"
        pdb.write_text("""
<patterndb version='6'><ruleset name='s' id='1'>
  <rules><rule id='r-login' provider='t' class='system'>
    <patterns><pattern>login user @ESTRING:user: @ok</pattern></patterns>
    <tags><tag>auth</tag></tags>
  </rule></rules>
</ruleset></patterndb>""")
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
parser p_db {{ db-parser(file("{pdb}")); }};
filter f_auth {{ tags("auth") }};
log {{ source(s); parser(p_db); filter(f_auth); destination(d); }};
""")
        t = pa.table({"message": ["login user alice ok", "something else"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        out = r.table("d")
        assert out.column("pdb_rule").to_pylist() == ["r-login"]
        assert dict(out.column("pdb_values").to_pylist()[0])["user"] == "alice"

    def test_geoip2_driver_with_mmdb(self, tmp_path):
        from axosyslog_ray.enrich.mmdb_write import write_mmdb

        db = str(tmp_path / "geo.mmdb")
        write_mmdb(db, [("10.0.0.0/8", {"country": {"iso_code": "US"}})])
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
parser p_geo {{ geoip2("$src_ip" database("{db}") prefix("geo_")); }};
log {{ source(s); parser(p_geo); destination(d); }};
""")
        t = pa.table({"message": ["m1", "m2"], "src_ip": ["10.1.2.3", "8.8.8.8"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        col = r.table("d").column("geo_country.iso_code").to_pylist()
        assert col == ["US", None]


class TestMoreFilterAndRewriteDrivers:
    def test_in_list_filter(self, tmp_path):
        lst = tmp_path / "hosts.txt"
        lst.write_text("web1\nweb2\n")
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
filter f {{ in-list("{lst}", value("host")) }};
log {{ source(s); filter(f); destination(d); }};
""")
        t = pa.table({"message": ["a", "b", "c"],
                      "host": ["web1", "db1", "web2"], "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.table("d").column("host").to_pylist() == ["web1", "web2"]

    def test_rename_and_set_severity(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
rewrite r {
    rename("src", "origin");
    set-severity("err");
};
log { source(s); rewrite(r); destination(d); };
""")
        t = pa.table({"message": ["m"], "src": ["x"], "pri": [13]})
        r = cfg.run(sources={"s": t})
        out = r.table("d")
        assert out.column("origin").to_pylist() == ["x"]
        assert "src" not in out.column_names
        # severity err = 3: pri = 8*facility(1) + 3 = 11
        assert out.column("pri").to_pylist() == [11]


class TestGeneratorBlocks:
    """SCL-style `block KIND NAME(param(default)...) { body }` generator
    blocks (reference cfg-block.c + scl/): bodies stored raw, backtick-
    substituted at reference time with args > globals > env."""

    def test_block_source_with_default_and_override(self):
        cfg_text = """
block source gen(count(2) msg("hello")) {
    example-msg-generator(num(`count`) template("`msg`"));
};
source s1 { gen(); };
source s2 { gen(count(5) msg("bye")); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
log { source(s1); destination(d1); };
log { source(s2); destination(d2); };
"""
        r = compile_config(cfg_text).run()
        assert r.processed("d1") == 2
        assert r.processed("d2") == 5
        assert r.table("d1").column("message").to_pylist() == ["hello"] * 2
        assert r.table("d2").column("message").to_pylist() == ["bye"] * 5

    def test_block_parser_splices_drivers(self):
        cfg = compile_config("""
block parser webcols(cols("c1" "c2")) {
    csv-parser(columns(`cols`) delimiters(" "));
};
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p { webcols(cols("verb" "path")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": ["GET /index", "POST /login"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        out = r.table("d")
        assert out.column("verb").to_pylist() == ["GET", "POST"]
        assert out.column("path").to_pylist() == ["/index", "/login"]

    def test_block_source_channel_runs_on_injected_and_built_rows(self):
        # a nested block-source channel runs its non-source stages,
        # innermost first, both over injected rows (which replace the
        # transport read) and over the rows its own sources build
        cfg = compile_config("""
block source inner() {
    channel {
        source { example-msg-generator(num(1) template("a=9")); };
        parser { kv-parser(prefix(".kv.")); };
    };
};
block source outer() {
    channel {
        source { inner(); };
        rewrite { set("${.kv.a}-outer" value("tag")); };
    };
};
source s { outer(); };
destination d { file("o.log" template("${.kv.a}|${tag}\\n")); };
log { source(s); destination(d); };
""")
        r = cfg.run(sources={"s": pa.table({"message": ["a=1 b=2", "a=3"]})})
        assert r.rendered("d") == ["1|1-outer\n", "3|3-outer\n"]
        assert r.table("d").column_names == ["message", ".kv.a", ".kv.b", "tag"]
        assert cfg.run().rendered("d") == ["9|9-outer\n"]

    def test_block_body_backticks_resolve_at_generate_time(self):
        # a global @define referenced INSIDE a block body must survive
        # preprocessing (substitution suspended over the body) and
        # resolve when the block is generated; args shadow globals
        cfg_text = """
@define deftext "defined"
block source gen(n(1)) {
    example-msg-generator(num(`n`) template("`deftext`"));
};
source s { gen(); };
destination d { file("o.log"); };
log { source(s); destination(d); };
"""
        r = compile_config(cfg_text).run()
        assert r.table("d").column("message").to_pylist() == ["defined"]

    def test_include_plus_block_matches_inline(self, tmp_path):
        # VERDICT r3 #3 done-criterion: a two-file config (@include of a
        # block library) compiles to the SAME routed counts as the
        # inline equivalent
        lib = tmp_path / "blocks.conf"
        lib.write_text("""
block source gen(count(3)) {
    example-msg-generator(num(`count`) template("x"));
};
block destination std_dest(path("o.log")) {
    file(`path`);
};
""")
        main = f"""
@include "{lib}"
source s {{ gen(count(4)); }};
destination d {{ std_dest(path("routed.log")); }};
log {{ source(s); destination(d); }};
"""
        inline = """
source s { example-msg-generator(num(4) template("x")); };
destination d { file("routed.log"); };
log { source(s); destination(d); };
"""
        r_inc = compile_config(main).run()
        r_inl = compile_config(inline).run()
        assert r_inc.processed("d") == r_inl.processed("d") == 4
        assert r_inc.table("d").column("message").to_pylist() == \
               r_inl.table("d").column("message").to_pylist()

    def test_unknown_block_argument_raises(self):
        with pytest.raises(ConfigError, match="unknown block argument"):
            compile_config("""
block source gen(count(1)) { example-msg-generator(num(`count`)); };
source s { gen(bogus(2)); };
destination d { file("o.log"); };
log { source(s); destination(d); };
""")

    def test_parameterized_filter_block_rejected(self):
        with pytest.raises(ConfigError, match="parameterized"):
            compile_config("""
block filter f(x("1")) { "`x`" eq "1" };
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
log { source(s); filter(f); destination(d); };
""")


class TestLightMidpointAndFlags:
    """Ports of the reference Light suite's midpoint-destination and
    combined-flags logpath cases (tests/light/functional_tests/logpath/
    test_midpoint_destinations.py, test_multiple_flags.py,
    test_multiple_embedded_logpaths.py) — per-destination processed
    counts identical to the reference's expected values."""

    FOUR_MSGS = pa.table({
        "message": ["m-AA", "m-AB", "m-BA", "m-BB"],
        "host": ["host-A", "host-A", "host-B", "host-B"],
        "program": ["app-A", "app-B", "app-A", "app-B"],
        "pri": [13] * 4})

    def test_multiple_flags(self):
        # test_multiple_flags.py: final + plain + fallback embedded
        # paths, catch-all top-level path
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
destination d3 { file("o3.log"); };
destination d4 { file("o4.log"); };
filter f_host { host("host-A") };
filter f_prog { program("app-A") };
log {
    source(s);
    log { filter(f_host); destination(d1); flags(final); };
    log { filter(f_prog); destination(d2); };
    log { destination(d3); flags(fallback); };
};
log { destination(d4); flags(catch-all); };
""")
        r = cfg.run(sources={"s": self.FOUR_MSGS})
        assert r.processed("d1") == 2        # host-A msgs
        assert r.table("d1").column("message").to_pylist() == ["m-AA", "m-AB"]
        assert r.processed("d2") == 1        # app-A minus final-consumed m-AA
        assert r.table("d2").column("message").to_pylist() == ["m-BA"]
        assert r.processed("d3") == 1        # fallback: only unmatched m-BB
        assert r.table("d3").column("message").to_pylist() == ["m-BB"]
        assert r.processed("d4") == 4        # catch-all sees everything

    def test_multiple_embedded_logpaths(self):
        # test_multiple_embedded_logpaths.py: no flags -> every embedded
        # path sees every message; a top path without source() gets none
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
destination d3 { file("o3.log"); };
destination d4 { file("o4.log"); };
filter f_host { host("host-A") };
filter f_prog { program("app-A") };
log {
    source(s);
    log { filter(f_host); destination(d1); };
    log { filter(f_prog); destination(d2); };
    log { destination(d3); };
};
log { destination(d4); };
""")
        r = cfg.run(sources={"s": self.FOUR_MSGS})
        assert r.processed("d1") == 2
        assert r.processed("d2") == 2
        assert r.table("d2").column("message").to_pylist() == ["m-AA", "m-BA"]
        assert r.processed("d3") == 4
        assert r.processed("d4") == 0

    MIDPOINT_PREAMBLE = """
source genmsg { example-msg-generator(num(1) template("foobar")); };
block filter false() { "0" eq "1" };
destination dest_true { file("t.log"); };
destination dest_false { file("f.log"); };
destination dest_after { file("a.log"); };
destination dest_fallback { file("fb.log"); };
log { source(genmsg); destination(dest_fallback); flags(fallback); };
"""

    def test_filter_between_destinations_causes_unmatched(self):
        # test_midpoint_destinations.py: the filter is part of the path,
        # so dropping makes the message unmatched -> fallback fires,
        # but the destination BEFORE the filter already got it
        r = compile_config(self.MIDPOINT_PREAMBLE + """
log {
    source(genmsg);
    destination(dest_true);
    filter { false(); };
    destination(dest_after);
};
""").run()
        assert r.processed("dest_true") == 1
        assert r.processed("dest_after") == 0
        assert r.processed("dest_fallback") == 1

    def test_junction_dropping_all_branches_causes_unmatched(self):
        r = compile_config(self.MIDPOINT_PREAMBLE + """
log {
    source(genmsg);
    destination(dest_true);
    junction {
        channel { filter { false(); }; };
        channel { filter { false(); }; };
    };
    destination(dest_after);
};
""").run()
        assert r.processed("dest_true") == 1
        assert r.processed("dest_after") == 0
        assert r.processed("dest_fallback") == 1

    def test_junction_with_destinations_still_unmatched(self):
        r = compile_config(self.MIDPOINT_PREAMBLE + """
log {
    source(genmsg);
    junction {
        channel {
            destination(dest_true);
            filter { false(); };
            destination(dest_false);
        };
        channel { filter { false(); }; };
    };
    destination(dest_after);
};
""").run()
        assert r.processed("dest_true") == 1
        assert r.processed("dest_false") == 0
        assert r.processed("dest_after") == 0
        assert r.processed("dest_fallback") == 1

    def test_csv_parser_drop_invalid_discards_from_path(self):
        # Light parsers/csv-parser test_csv_parser_drop_invalid
        # (too_many_columns_in_input): with drop-invalid(yes) the
        # over-long message is discarded -> unmatched -> fallback
        r = compile_config(self.MIDPOINT_PREAMBLE + """
parser p { csv-parser(columns("foo" "bar") delimiters(",") drop-invalid(yes)); };
destination dest_parsed { file("p.log"); };
log { source(genmsg); parser(p); destination(dest_parsed); };
""").run(sources={"genmsg": pa.table({"message": ["foo,bar,baz"],
                                      "pri": [13]})})
        assert r.processed("dest_parsed") == 0
        assert r.processed("dest_fallback") == 1


class TestBuiltinSclLibrary:
    """Built-in SCL blocks (config.SCL_LIBRARY): re-expressions of
    reference scl/apache (combined/common branch) and scl/iptables."""

    APACHE_LINE = ('127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] '
                   '"GET /apache_pb.gif HTTP/1.0" 200 2326 '
                   '"http://www.example.com/start.html" '
                   '"Mozilla/4.08 [en] (Win98; I ;Nav)"')

    def test_apache_accesslog_parser_block(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p { apache-accesslog-parser(); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run(sources={"s": pa.table({"message": [self.APACHE_LINE],
                                            "pri": [13]})})
        out = r.table("d")
        assert out.column("apache.clientip").to_pylist() == ["127.0.0.1"]
        assert out.column("apache.auth").to_pylist() == ["frank"]
        assert out.column("apache.timestamp").to_pylist() == \
               ["10/Oct/2000:13:55:36 -0700"]
        assert out.column("apache.rawrequest").to_pylist() == \
               ["GET /apache_pb.gif HTTP/1.0"]
        assert out.column("apache.response").to_pylist() == ["200"]
        assert out.column("apache.agent").to_pylist() == \
               ["Mozilla/4.08 [en] (Win98; I ;Nav)"]

    def test_apache_parser_prefix_override(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p { apache-accesslog-parser(prefix("web_")); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run(sources={"s": pa.table({"message": [self.APACHE_LINE],
                                            "pri": [13]})})
        assert r.table("d").column("web_response").to_pylist() == ["200"]

    def test_iptables_parser_block(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p { iptables-parser(); };
log { source(s); parser(p); destination(d); };
""")
        msg = "IN=eth0 OUT= SRC=10.0.0.5 DST=10.0.0.1 PROTO=TCP SPT=45566 DPT=443"
        r = cfg.run(sources={"s": pa.table({"message": [msg], "pri": [13]})})
        out = r.table("d")
        assert out.column("iptables.SRC").to_pylist() == ["10.0.0.5"]
        assert out.column("iptables.PROTO").to_pylist() == ["TCP"]

    def test_user_block_overrides_library(self):
        cfg = compile_config("""
block parser iptables-parser(prefix("x.")) {
    kv-parser(prefix("custom_"));
};
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p { iptables-parser(); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run(sources={"s": pa.table({"message": ["A=1"], "pri": [13]})})
        assert r.table("d").column("custom_A").to_pylist() == ["1"]

    def test_midpoint_channel_destination_drops_in_own_context(self):
        # test_midpoint_destinations.py cases 1-2: a destination whose
        # channel drops everything still counts as a successful dispatch
        r = compile_config(TestLightMidpointAndFlags.MIDPOINT_PREAMBLE + """
destination dest_dropall {
    channel { filter { false(); }; destination { file("dropall.log"); }; };
};
log {
    source(genmsg);
    destination(dest_dropall);
    destination(dest_after);
};
""").run()
        assert r.processed("dest_dropall") == 0
        assert r.processed("dest_after") == 1
        assert r.processed("dest_fallback") == 0

    def test_midpoint_inline_channel_destination(self):
        r = compile_config(TestLightMidpointAndFlags.MIDPOINT_PREAMBLE + """
log {
    source(genmsg);
    destination { channel { filter { false(); }; }; };
    destination(dest_after);
};
""").run()
        assert r.processed("dest_after") == 1
        assert r.processed("dest_fallback") == 0


class TestNamedLogpaths:
    """Port of the Light suite's test_named_logpaths.py: per-path
    ingress/egress counters — egress counts only messages MATCHED
    through the whole path (a midpoint delivery alone is not egress)."""

    def test_named_logpath_stats(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
filter f_t2 { message("to-top-level-2") };
filter f_t3 { message("to-top-level-3") };
filter f_i1 { message("to-inner-1") };
filter f_i2 { message("to-inner-2") };
filter f_i3 { message("to-inner-3") };
log top-level-1 { source(s); };
log top-level-2 { source(s); filter(f_t2); destination(d1); };
log top-level-3 { source(s); filter(f_t3); destination(d1); destination(d2); };
log top-level-4 {
    source(s);
    log inner-1 { filter(f_i1); destination(d1); };
    log inner-2 { filter(f_i2); destination(d2); };
};
log top-level-5 {
    source(s);
    destination(d1);
    log inner-3 { filter(f_i3); destination(d2); };
};
""")
        msgs = ["to-top-level-2", "to-top-level-3", "to-inner-1",
                "to-inner-2", "to-inner-3"]
        r = cfg.run(sources={"s": pa.table({"message": msgs,
                                            "pri": [13] * 5})})
        assert r.path_stats("top-level-1") == (5, 5)
        assert r.path_stats("top-level-2") == (5, 1)
        assert r.path_stats("top-level-3") == (5, 1)
        assert r.path_stats("top-level-4") == (5, 2)
        assert r.path_stats("inner-1") == (5, 1)
        assert r.path_stats("inner-2") == (5, 1)
        # top-level-5: d1 delivers everything, but egress needs inner-3
        # to match (the reference's documented midpoint subtlety)
        assert r.path_stats("top-level-5") == (5, 1)
        assert r.path_stats("inner-3") == (5, 1)
        assert r.processed("d1") == 8
        assert r.processed("d2") == 3

    def test_named_logpaths_with_final_flag(self):
        # Light test_named_logpaths_with_final_flag.py: a final sibling
        # consumes its matches BEFORE later siblings — their INGRESS
        # must not count consumed messages
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
destination d3 { file("o3.log"); };
filter f_t1 { message("to-top-level-1") };
filter f_t2 { message("to-top-level-2") };
log top-level-1 {
    source(s);
    filter(f_t1);
    log inner-final-1 { destination(d1); flags(final); };
    log inner-final-2 { destination(d2); flags(final); };
};
log top-level-2 {
    source(s);
    filter(f_t2);
    destination(d1);
    log inner-final-3 { destination(d2); flags(final); };
    log inner-final-4 { destination(d3); flags(final); };
};
""")
        msgs = ["to-top-level-1", "to-top-level-2"]
        r = cfg.run(sources={"s": pa.table({"message": msgs, "pri": [13, 13]})})
        assert r.path_stats("top-level-1") == (2, 1)
        assert r.path_stats("inner-final-1") == (1, 1)
        assert r.path_stats("inner-final-2") == (0, 0)
        assert r.path_stats("top-level-2") == (2, 1)
        assert r.path_stats("inner-final-3") == (1, 1)
        assert r.path_stats("inner-final-4") == (0, 0)

    def test_named_logpaths_with_fallback_flag(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
filter f_t2 { message("to-top-level-2") };
filter f_t3 { message("to-top-level-3") };
block filter true() { "1" eq "1" };
block filter false() { "0" eq "1" };
log top-level-2 {
    source(s);
    filter(f_t2);
    log inner-3 { filter { true(); }; destination(d1); };
    log inner-fallback-4 { destination(d2); flags(fallback); };
};
log top-level-3 {
    source(s);
    filter(f_t3);
    log inner-5 { filter { false(); }; destination(d1); };
    log inner-fallback-6 { destination(d2); flags(fallback); };
};
""")
        msgs = ["to-top-level-2", "to-top-level-3"]
        r = cfg.run(sources={"s": pa.table({"message": msgs, "pri": [13, 13]})})
        # matched by inner-3 -> its fallback sibling never fires
        assert r.path_stats("inner-3") == (1, 1)
        assert r.path_stats("inner-fallback-4") == (0, 0)
        # dropped by inner-5's filter -> the fallback sibling fires
        assert r.path_stats("inner-5") == (1, 0)
        assert r.path_stats("inner-fallback-6") == (1, 1)
        assert r.path_stats("top-level-2") == (2, 1)
        assert r.path_stats("top-level-3") == (2, 1)

    def test_named_logpaths_with_catchall_flag(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
filter f_t1 { message("to-top-level-1") };
filter f_t2 { message("to-top-level-2") };
log top-level-1 { source(s); filter(f_t1); destination(d); };
log top-level-2 { filter(f_t2); destination(d); flags(catch-all); };
""")
        msgs = ["to-top-level-1", "to-top-level-2"]
        r = cfg.run(sources={"s": pa.table({"message": msgs, "pri": [13, 13]})})
        assert r.path_stats("top-level-1") == (2, 1)
        assert r.path_stats("top-level-2") == (2, 1)
        assert r.processed("d") == 2


class TestCreditCardRewrites:
    """Port of Light rewrites/cc-mask/test_cc_mask_and_cc_hash.py: the
    credit-card-mask / credit-card-hash SCL rewrite blocks (re-expressed
    in config.SCL_LIBRARY) over the suite's exact card corpus, expected
    outputs byte-identical to the reference's."""

    CARDS = [
        ("American Express", "378282246310005", "378282******0005", "ea4654336c140e70"),
        ("American Express", "371449635398431", "371449******8431", "5e7d7549d9a51a21"),
        ("American Express Corporate", "378734493671000", "378734******1000", "b83feb75b1ce505d"),
        ("Diners Club", "30569309025904", "305693******5904", "58b3e8b7f99a5ab1"),
        ("Diners Club", "38520000023237", "385200******3237", "002f83eefd0b7e53"),
        ("Discover", "6011111111111117", "601111******1117", "0ccaaf4da33d3e26"),
        ("Discover", "6011000990139424", "601100******9424", "ff659bd8ffefdb2b"),
        ("JCB", "3530111333300000", "353011******0000", "4c1d57bdab8338e7"),
        ("JCB", "3566002020360505", "356600******0505", "9d9cafd187ba5590"),
        ("MasterCard", "5555555555554444", "555555******4444", "6589b0d46b6f2f0d"),
        ("MasterCard", "5105105105105100", "510510******5100", "21b95eabb14f0726"),
        ("Visa", "4111111111111111", "411111******1111", "68bfb396f35af387"),
        ("Visa", "4012888888881881", "401288******1881", "62163a017b168ad4"),
        ("Visa", "4222222222222", "422222******2222", "eb0f3622c9362fe9"),
    ]

    def _run(self, rewrite_block):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ file("o.log"); }};
rewrite r {{ {rewrite_block}(); }};
log {{ source(s); rewrite(r); destination(d); }};
""")
        msgs = [f"{brand}  {num}" for brand, num, _m, _h in self.CARDS]
        r = cfg.run(sources={"s": pa.table({"message": msgs,
                                            "pri": [13] * len(msgs)})})
        return r.table("d").column("message").to_pylist()

    def test_credit_card_mask(self):
        got = self._run("credit-card-mask")
        want = [f"{brand}  {masked}" for brand, _n, masked, _h in self.CARDS]
        assert got == want

    def test_credit_card_hash(self):
        got = self._run("credit-card-hash")
        want = [f"{brand}  {hashed}" for brand, _n, _m, hashed in self.CARDS]
        assert got == want


class TestNamedTemplates:
    """Port of Light templates/test_template_stmt.py: named template
    statements referenced by identifier and via $(template NAME)."""

    def test_template_stmt_with_identifier_reference(self):
        cfg = compile_config("""
template t_demo { template("template with $(format-welf test.*)\\n"); };
source s { example-msg-generator(num(1) values("test.key1 => value1 test.key2 => value2")); };
destination d { file("output.log" template(t_demo)); };
log { source(s); destination(d); };
""")
        r = cfg.run()
        assert [x.rstrip("\n") for x in r.rendered("d")] == \
               ["template with test.key1=value1 test.key2=value2"]

    def test_simple_template_stmt(self):
        cfg = compile_config("""
template t_demo "simple $HOST\\n";
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template(t_demo)); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["simple localhost"]

    def test_template_function_indirect_invocation(self):
        cfg = compile_config("""
template t_demo { template("template with $(format-welf test.*)\\n"); };
source s { example-msg-generator(num(1) values("test.key1 => value1")); };
destination d { file("o.log" template("$(template t_demo error resolving template)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["template with test.key1=value1"]

    def test_file_source_parses_syslog_by_default(self, tmp_path):
        # file() runs the msg-format header parse on every line unless
        # flags(no-parse) (lib/msg-format.c default path)
        p = tmp_path / "in.log"
        p.write_text("<34>Oct 11 22:14:15 myhost sshd[42]: hi there\n")
        cfg = compile_config(f"""
source s {{ file("{p}"); }};
destination d {{ file("o.log" template("$PRI|$HOST|$PROGRAM|$PID|$MSG\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["34|myhost|sshd|42|hi there"]

    def test_file_source_no_parse_flag(self, tmp_path):
        p = tmp_path / "in.log"
        p.write_text("<34>Oct 11 22:14:15 myhost sshd[42]: hi there\n")
        cfg = compile_config(f"""
source s {{ file("{p}" flags(no-parse)); }};
destination d {{ file("o.log" template("$MSG\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["<34>Oct 11 22:14:15 myhost sshd[42]: hi there"]

    def test_wildcard_file_source_glob(self, tmp_path):
        (tmp_path / "a.log").write_text("<13>Oct 11 22:14:15 h1 p1: one\n")
        (tmp_path / "b.log").write_text("<13>Oct 11 22:14:15 h2 p2: two\n")
        cfg = compile_config(f"""
source s {{ wildcard-file("{tmp_path}/*.log"); }};
destination d {{ file("o.log" template("$HOST $MSG\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert sorted(x.rstrip("\n") for x in cfg.run().rendered("d")) == \
               ["h1 one", "h2 two"]

    def test_linux_audit_scl_source(self, tmp_path):
        # scl/linux-audit/linux-audit.conf: file -> linux-audit-parser
        # -> kv-parser over ${.auditd.msg} -> unset(.auditd.msg)
        p = tmp_path / "audit.log"
        p.write_text(
            "type=USER_LOGIN msg=audit(1364481363.243:24287): pid=1021 "
            "uid=0 msg='op=login acct=root res=success'\n"
            "type=EXECVE msg=audit(1364481363.243:24288): argc=2 "
            'a0="cat" a1=2F62696E2F7368202D6C\n')
        cfg = compile_config(f"""
source s {{ linux-audit(filename("{p}")); }};
destination d {{ file("o.log" template("${{.auditd.type}}|${{.auditd.msg.op}}${{.auditd.a1}}|${{.auditd.msg}}\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == [
            "USER_LOGIN|login|",       # msg.* promoted, msg unset
            "EXECVE|/bin/sh -l|",      # aN hexdump decoded
        ]

    def test_osquery_scl_source(self, tmp_path):
        # scl/osquery/plugin.conf: no-parse + program-override + json
        p = tmp_path / "osq.log"
        p.write_text('{"name":"pack_osquery","hostIdentifier":"h1"}\n')
        cfg = compile_config(f"""
source s {{ osquery(file("{p}")); }};
destination d {{ file("o.log" template("$PROGRAM|${{.osquery.name}}|${{.osquery.hostIdentifier}}\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["osquery|pack_osquery|h1"]

    def test_snmptrap_scl_source(self, tmp_path):
        # scl/snmptrap/snmptrapd-source.conf: multi-line prefix-garbage
        # file -> snmptrapd-parser (PROGRAM pin + generated $MESSAGE)
        p = tmp_path / "traps.log"
        p.write_text(
            "2017-05-10 12:46:14 web2 "
            "[UDP: [127.0.0.1]:34257->[127.0.0.1]:162]:\n"
            "iso.3.6.1.2.1.1.3.0 = Timeticks: (875496867) 101 days, "
            "7:56:08.67\tiso.3.6.1.6.3.1.1.4.1.0 = OID: "
            "iso.3.6.1.4.1.8072.2.3.0.1\n"
            "2017-05-10 12:47:00 web3 "
            "[UDP: [10.0.0.2]:1000->[127.0.0.1]:162]:\n"
            "iso.3.6.1.2.1.1.3.0 = Timeticks: (1) 0:00:00.01\n")
        cfg = compile_config(f"""
source s {{ snmptrap(filename("{p}")); }};
destination d {{ file("o.log" template("$PROGRAM|${{.snmp.hostname}}|$MESSAGE\\n")); }};
log {{ source(s); destination(d); }};
""")
        out = [x.rstrip("\n") for x in cfg.run().rendered("d")]
        assert len(out) == 2
        assert out[0] == (
            "snmptrapd|web2|hostname='web2', "
            "transport_info='UDP: [127.0.0.1]:34257->[127.0.0.1]:162', "
            "iso.3.6.1.2.1.1.3.0='(875496867) 101 days, 7:56:08.67', "
            "iso.3.6.1.6.3.1.1.4.1.0='iso.3.6.1.4.1.8072.2.3.0.1'")
        assert out[1].startswith("snmptrapd|web3|hostname='web3'")

    def test_snmptrap_scl_source_no_message_macro(self, tmp_path):
        p = tmp_path / "traps.log"
        p.write_text(
            "2017-05-10 12:46:14 web2 [UDP: [127.0.0.1]:1->[127.0.0.1]:162]:\n"
            "iso.3.6.1.2.1.1.3.0 = INTEGER: 5\n")
        cfg = compile_config(f"""
source s {{ snmptrap(filename("{p}") set-message-macro(no)); }};
destination d {{ file("o.log" template("$PROGRAM|$MESSAGE|\\n")); }};
log {{ source(s); destination(d); }};
""")
        # set-message-macro(no) UNSETS $MESSAGE (snmptrapd-parser.c:225)
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["snmptrapd||"]

    def test_windowsevent_scl_source(self, tmp_path):
        # windowsevent() source -> bundled windowseventlog.xml db-parser
        # (scl/windowseventlog/plugin.conf); unmatched events drop
        ev1 = (
            "BSP-WIN2K8R2-EN\\Administrator: Security Microsoft Windows "
            "security auditing.: [Success Audit] An account was logged "
            "off.\n\nSubject:\n Security ID:  BSP-WIN2K8R2-EN\\"
            "Administrator\n Account Name:  Administrator\n Account "
            "Domain:  BSP-WIN2K8R2-EN\n Logon ID:  0xdeadbeef\n\nLogon "
            "Type:   10\n\nThis event is generated when a logon session "
            "is destroyed. It may be positively correlated with a logon "
            "event using the Logon ID value. Logon IDs are only unique "
            "between reboots on the same computer. (EventID 4634)\n")
        ev2 = ("OTHER\\user: Security Microsoft Windows security "
               "auditing.: [Failure Audit] Something unmodeled. (EventID "
               "9999)\n")
        p = tmp_path / "winevents.log"
        p.write_text(ev1 + ev2)
        cfg = compile_config(f"""
source s {{ windowsevent(filename("{p}")); }};
destination d {{ file("o.log" template("${{.classifier.class}}|${{.win.EventID}}|${{.win.TargetUserName}}|${{.win.TargetLogonId}}\\n")); }};
log {{ source(s); destination(d); }};
""")
        # routed counts: 2 events read, 1 matches a bundled rule, the
        # unmodeled one drops (drop-unmatched yes)
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["logoff|4634|Administrator|0xdeadbeef"]

    def test_qbittorrent_scl_source(self, tmp_path):
        # scl/qbittorrent/qbittorrent.conf: regexp + date + severity map
        (tmp_path / "qbittorrent.log").write_text(
            "(W) 2024-01-03T18:43:48 - Detected external IP\n"
            "(N) 2024-01-03T18:44:00 - added new torrent\n"
            "(C) 2024-01-03T18:45:00 - disk full\n")
        cfg = compile_config(f"""
source s {{ qbittorrent(dir("{tmp_path}")); }};
destination d {{ file("o.log" template("$PROGRAM|$LEVEL|$ISODATE|$MSG\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == [
            "qBittorrent|warning|2024-01-03T18:43:48+00:00|Detected external IP",
            "qBittorrent|notice|2024-01-03T18:44:00+00:00|added new torrent",
            "qBittorrent|crit|2024-01-03T18:45:00+00:00|disk full",
        ]

    def test_jellyfin_scl_source(self, tmp_path):
        # scl/jellyfin/jellyfin.conf: wildcard-file(base-dir,
        # filename-pattern, multi-line regexp) + jellyfin() parser;
        # INF maps through the severity-aliases table
        (tmp_path / "log_20240126.log").write_text(
            "[2024-01-26 22:10:29.472 +00:00] [INF] [60] Jellyfin.App: hello\n"
            "continuation\n"
            "[2024-01-26 22:10:30.100 +00:00] [ERR] [61] Jellyfin.App: boom\n")
        cfg = compile_config(f"""
source s {{ jellyfin(base_dir("{tmp_path}") filename_pattern("log_*.log")); }};
destination d {{ file("o.log" template("$PROGRAM|$LEVEL|$(length $MSG)\\n")); }};
log {{ source(s); destination(d); }};
""")
        out = [x.rstrip("\n") for x in cfg.run().rendered("d")]
        assert out == [
            "Jellyfin|info|32",   # "Jellyfin.App: hello\ncontinuation"
            "Jellyfin|err|18",
        ]

    def test_set_severity_alias_table(self):
        # lib/severity-aliases.table: FTL/WRN/INF/DBG/TRACE shorthands
        for alias, level in [("FTL", "crit"), ("wrn", "warning"),
                             ("INF", "info"), ("trace", "debug"),
                             ("vrb", "debug"), ("LOG", "info")]:
            cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
rewrite r {{ set-severity("{alias}"); }};
destination d {{ file("o.log" template("$LEVEL\\n")); }};
log {{ source(s); rewrite(r); destination(d); }};
""")
            assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
                   [level], alias

    def test_user_template_function_stmt(self):
        # Light templates/test_template_stmt.py test_template_function:
        # `template-function NAME "body";` registers $(NAME) which
        # evaluates the body against the message
        # (lib/template/user-function.c).
        cfg = compile_config("""
template-function test_template_fn "template with $(format-welf test.*)";
source s { example-msg-generator(num(1) values("test.key1 => value1 test.key2 => value2")); };
destination d { file("o.log" template("$(test_template_fn)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["template with test.key1=value1 test.key2=value2"]

    def test_user_template_function_rejects_arguments(self):
        # user-function.c:43-47: argc != 1 is a compile error
        import pytest as _pytest
        cfg = compile_config("""
template-function my_fn "$HOST";
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("$(my_fn extra)\\n")); };
log { source(s); destination(d); };
""")
        with _pytest.raises(ValueError, match="cannot have arguments"):
            cfg.run().rendered("d")

    def test_template_function_unknown_name_uses_fallback(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("$(template nope error resolving template)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["error resolving template"]


class TestMultipleFilters:
    """Port of Light filters/test_multiple_filters.py: ;-separated
    expressions in one filter block AND together; the compound if{}
    diverts filter-rejected rows to else."""

    def test_multiple_filters_implicit_and(self):
        cfg = compile_config("""
source genmsg {
    example-msg-generator(num(1) template("MESSAGE"));
    example-msg-generator(num(1) template("foobar"));
};
filter f_filter {
    not program("xyz");
    message("MESSAGE");
};
destination dest_true { file("t.log" template("'${MESSAGE}'")); };
destination dest_false { file("f.log" template("'${MESSAGE}'")); };
log {
    source(genmsg);
    if {
        filter(f_filter);
        destination(dest_true);
    } else {
        destination(dest_false);
    };
};
""")
        r = cfg.run()
        assert r.processed("dest_true") == 1
        assert r.table("dest_true").column("message").to_pylist() == ["MESSAGE"]
        assert r.processed("dest_false") == 1
        assert r.table("dest_false").column("message").to_pylist() == ["foobar"]

    def test_filter_multiple_reference(self):
        # test_filter_reference.py: one filter referenced from two paths
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
filter f { not (program("noprog") and message("nomsg")) };
destination d1 { file("o1.log"); };
destination d2 { file("o2.log"); };
log { source(s); filter(f); destination(d1); };
log { source(s); filter(f); destination(d2); };
""")
        t = pa.table({"message": ["MESSAGE"], "program": ["PROGRAM"],
                      "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d1") == 1 and r.processed("d2") == 1


class TestSetPriLight:
    """Port of Light rewrites/set-pri/test_set_pri.py: valid values
    (0..1023) replace $PRI; invalid values keep the original."""

    import pytest as _pytest

    @_pytest.mark.parametrize("pri_value, expected", [
        ("0", "0"), ("42", "42"), ("1023", "1023"),
        ("5789", "38"), ("-2", "38"), ("test", "38"), ("", "38"),
    ])
    def test_set_pri(self, pri_value, expected):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
rewrite r {{ set-pri("{pri_value}"); }};
destination d {{ file("o.log" template("$PRI")); }};
log {{ source(s); rewrite(r); destination(d); }};
""")
        t = pa.table({"message": ["m"], "pri": [38]})
        r = cfg.run(sources={"s": t})
        assert [x.rstrip("\n") for x in r.rendered("d")] == [expected]


class TestSetTagLight:
    """Port of Light rewrites/set-tag/test_set_tag.py: conditional
    set-tag and template-rendered tag values."""

    def test_set_tag_with_condition(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("input with MATCHSTRING in it")); };
rewrite r {
    set-tag("SHOULDMATCH" condition(match("MATCHSTRING" value("MSG"))));
    set-tag("DONOTMATCH" condition(match("NONE" value("MSG"))));
};
destination d { file("o.log" template("${TAGS}")); };
log { source(s); rewrite(r); destination(d); };
""")
        line = cfg.run().rendered("d")[0].strip()
        assert "SHOULDMATCH" in line
        assert "DONOTMATCH" not in line

    def test_set_tag_with_template(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("FOO")); };
rewrite r { set-tag("TAG-${MSG}"); };
destination d { file("o.log" template("${TAGS}")); };
log { source(s); rewrite(r); destination(d); };
""")
        assert "TAG-FOO" in cfg.run().rendered("d")[0]


class TestValuePairsLight:
    """Port of Light value-pairs/test_value_pairs.py: the $(format-json)
    selection/transformation flags. Key ORDER inside objects follows the
    engine's sorted order (the reference emits nv-table order), so the
    assertions compare parsed JSON, not byte strings."""

    import json as _json

    import pytest as _pytest

    CASES = [
        ("$(format-json test.*)",
         {"test": {"key1": "value1", "key2": "value2"}}),
        ("$(format-json test.* --add-prefix foo.)",
         {"foo": {"test": {"key1": "value1", "key2": "value2"}}}),
        ("$(format-json test.* --replace-prefix test=foobar)",
         {"foobar": {"key1": "value1", "key2": "value2"}}),
        ("$(format-json test.* --shift-levels 1)",
         {"key1": "value1", "key2": "value2"}),
        ("$(format-json test.* --shift 2)",
         {"st": {"key1": "value1", "key2": "value2"}}),
        ("$(format-json test.* --upper)",
         {"TEST": {"KEY1": "value1", "KEY2": "value2"}}),
        ("$(format-json MESSAGE --lower)",
         {"message": "-- Generated message. --"}),
    ]

    @_pytest.mark.parametrize("template, expected", CASES,
                              ids=[c[0] for c in CASES])
    def test_value_pairs(self, template, expected):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1) values("test.key1 => value1 test.key2 => value2")); }};
destination d {{ file("o.log" template("{template}")); }};
log {{ source(s); destination(d); }};
""")
        out = cfg.run().rendered("d")[0].strip()
        assert self._json.loads(out) == expected


class TestRateLimitFilterLight:
    """Port of Light filters/rate-limit/test_rate_limit_filter_acceptance:
    100 messages inside one second, keyed by $PROGRAM — matched counts
    for the four (programs, rate) combinations."""

    import pytest as _pytest

    @_pytest.mark.parametrize(
        "n_programs, rate, expected_matched",
        [(1, 100, 100), (1, 1, 1), (5, 1, 5), (5, 5, 25)])
    def test_rate_limit_acceptance(self, n_programs, rate, expected_matched):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
filter f {{ rate-limit(template("${{PROGRAM}}") rate({rate})) }};
destination d {{ file("o.log"); }};
log {{ source(s); filter(f); destination(d); }};
""")
        import pandas as pd

        n = 100
        t = pa.table({
            "message": [f"message idx: {i+1}" for i in range(n)],
            "program": [str(i % n_programs + 1) for i in range(n)],
            "ts_stamp": pa.array(
                pd.to_datetime("2024-01-01 00:00:00")
                + pd.to_timedelta(range(n), unit="ms")),
            "pri": [13] * n,
        })
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == expected_matched


class TestGraphiteOutputLight:
    """Port of Light template_functions/graphite-output: one graphite
    plaintext line per selected pair."""

    def test_graphite_output(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) values("test.key1 => value1 test.key2 => value2")); };
destination d { file("o.log" template("$(graphite-output --timestamp 'custom_timestamp' --key test.*)")); };
log { source(s); destination(d); };
""")
        lines = cfg.run().rendered("d")[0].strip().splitlines()
        assert lines == ["test.key1 value1 custom_timestamp",
                         "test.key2 value2 custom_timestamp"]


class TestFilterXControlLight:
    """Ports of Light filterx/test_filterx_control.py if/elif/else and
    drop/done cases, run through the config front end."""

    PRE = """
source genmsg { example-msg-generator(num(1) template("foobar")); };
destination dest_true { file("t.log" template("'${MESSAGE}'")); };
destination dest_false { file("f.log" template("'${MESSAGE}'")); };
"""

    def _run(self, fx, msg="foobar"):
        cfg = compile_config(self.PRE + f"""
log {{
    source(genmsg);
    if {{
        filterx {{ {fx} }};
        destination(dest_true);
    }} else {{
        destination(dest_false);
    }};
}};
""")
        t = pa.table({"message": [msg], "pri": [13]})
        return cfg.run(sources={"genmsg": t})

    def test_if_without_else_match(self):
        r = self._run('$out = "default"; if (true) { $out = "matched"; }; $MSG = $out;')
        assert r.processed("dest_true") == 1
        assert r.table("dest_true").column("message").to_pylist() == ["matched"]

    def test_if_without_else_nomatch(self):
        r = self._run('$out = "default"; if (false) { $out = "matched"; }; $MSG = $out;')
        assert r.table("dest_true").column("message").to_pylist() == ["default"]

    def test_if_elif_no_match(self):
        r = self._run('$out = "default"; if (false) { $out = "m1"; } '
                      'elif (false) { $out = "m2"; }; $MSG = $out;')
        assert r.table("dest_true").column("message").to_pylist() == ["default"]

    def test_if_elif_else_chains(self):
        r = self._run('if (false) { $out = "m1"; } elif (true) { $out = "m2"; } '
                      'else { $out = "m3"; }; $MSG = $out;')
        assert r.table("dest_true").column("message").to_pylist() == ["m2"]

    def test_drop_diverts_to_else(self):
        cfg = compile_config(self.PRE + """
log {
    source(genmsg);
    if {
        filterx { if ($MSG =~ 'foo') {drop;}; };
        destination(dest_true);
    } else {
        destination(dest_false);
    };
};
""")
        t = pa.table({"message": ["foo", "bar"], "pri": [13, 13]})
        r = cfg.run(sources={"genmsg": t})
        assert r.processed("dest_true") == 1
        assert r.table("dest_true").column("message").to_pylist() == ["bar"]
        assert r.processed("dest_false") == 1
        assert r.table("dest_false").column("message").to_pylist() == ["foo"]

    def test_done_skips_rest_of_block(self):
        # like the reference's test_done: `done` ends the CURRENT block
        # only — a later filterx block still runs and sees the value set
        # before done
        cfg = compile_config(self.PRE + """
log {
    source(genmsg);
    filterx { if ($MSG =~ "foo") { $tag = "kept"; done; $tag = "changed"; }; };
    filterx { $MSG = $tag; };
    destination(dest_true);
};
""")
        t = pa.table({"message": ["foobar"], "pri": [13]})
        r = cfg.run(sources={"genmsg": t})
        assert r.table("dest_true").column("message").to_pylist() == ["kept"]


class TestCacheJsonFileLight:
    """Port of Light filterx/test_filterx_cache_json_file.py — the
    fixture carries trailing commas, which the loader tolerates like the
    reference's."""

    FIXTURE = """{
  "foo":{
    "foo/foo":"foo/foo_value",
    "foo/bar":"foo/bar_value",
    "foo":{
      "foo/foo/foo":"foo/foo/foo_value",
      "foo/foo/bar":"foo/foo/bar_value",
    },
  },
  "bar":{
    "bar/foo":"bar/foo_value",
    "bar/bar":"bar/bar_value",
  },
}"""

    def test_cache_json_file_lookup(self, tmp_path):
        p = tmp_path / "cache_json_file.json"
        p.write_text(self.FIXTURE)
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1) template("fooBARbAz")); }};
destination d {{ file("o.log" template("'${{MESSAGE}}'")); }};
log {{
    source(s);
    filterx {{
        lookup = cache_json_file("{p}");
        $MSG = lookup.foo["foo/foo"];
    }};
    destination(d);
}};
""")
        r = cfg.run()
        assert r.processed("d") == 1
        assert r.table("d").column("message").to_pylist() == ["foo/foo_value"]


class TestFilterXFuncsLight:
    """Ports of Light filterx/test_filterx_funcs.py string-function
    cases: list needles, ignorecase, json() constructor, upper/lower."""

    def _run_fx(self, fx, msg):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("'${MESSAGE}'")); };
log { source(s); filterx { %s }; destination(d); };
""" % fx)
        t = pa.table({"message": [msg], "pri": [13]})
        return cfg.run(sources={"s": t}).table("d").column("message").to_pylist()

    def test_startswith_endswith_includes(self):
        out = self._run_fx("""
            result = json();
            if (startswith($MSG, ["dummy_prefix", "foo"])) { result.startswith_foo = true; };
            bar_var = "bar";
            if (includes($MSG, bar_var, ignorecase=true)) { result.contains_bar = true; };
            baz_var = "baz";
            baz_list = ["dummy_suffix", baz_var];
            if (endswith($MSG, baz_list, ignorecase=true)) { result.endswith_baz = true; };
            $MSG = format_json(result);
        """, "fooBARbAz")
        import json as _json

        assert _json.loads(out[0]) == {"startswith_foo": True,
                                       "contains_bar": True,
                                       "endswith_baz": True}

    def test_upper_lower(self):
        out = self._run_fx('$MSG = upper($MSG);', "almost")
        assert out == ["ALMOST"]
        out = self._run_fx('$MSG = lower($MSG);', "WHISPER")
        assert out == ["whisper"]


class TestCiscoParserLight:
    """Port of Light parsers/cisco-parser/test_cisco_parser.py: the SCL
    cisco-parser() through the config front end, all ten corpus cases
    with the reference suite's exact assertions (HOST = the engine's
    local host name, 'localhost', where the reference expects
    get_short_hostname())."""

    CASES = [
        (r"<189>29: foo: *Apr 29 13:58:40.411: %SYS-5-CONFIG_I: Configured from console by console",
         {"PRI": "189", "HOST": "foo", "DATE": "Apr 29 13:58:40", "MSEC": "411",
          "_cisco": {"facility": "SYS", "severity": "5", "mnemonic": "CONFIG_I"},
          "MSG": r"%SYS-5-CONFIG_I: Configured from console by console"}),
        (r"<190>30: foo: *Apr 29 13:58:46.411: %SYS-6-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 stopped - CLI initiated",
         {"PRI": "190", "HOST": "foo", "DATE": "Apr 29 13:58:46", "MSEC": "411",
          "_cisco": {"facility": "SYS", "severity": "6", "mnemonic": "LOGGINGHOST_STARTSTOP"},
          "MSG": r"%SYS-6-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 stopped - CLI initiated"}),
        (r"<190>31: foo: *Apr 29 13:58:46.411: %SYS-6-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 started - CLI initiated",
         {"PRI": "190", "HOST": "foo", "DATE": "Apr 29 13:58:46", "MSEC": "411",
          "_cisco": {"facility": "SYS", "severity": "6", "mnemonic": "LOGGINGHOST_STARTSTOP"},
          "MSG": r"%SYS-6-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 started - CLI initiated"}),
        (r"<189>35: *Apr 29 14:00:16.059: %SYS-5-CONFIG_I: Configured from console by console",
         {"PRI": "189", "HOST": "localhost", "DATE": "Apr 29 14:00:16", "MSEC": "059",
          "_cisco": {"facility": "SYS", "severity": "5", "mnemonic": "CONFIG_I"},
          "MSG": r"%SYS-5-CONFIG_I: Configured from console by console"}),
        (r"<190>32: foo: *Apr 29 13:58:46.411: %SYSMGR-STANDBY-3-SHUTDOWN_START: The System Manager has started the shutdown procedure.",
         {"PRI": "190", "HOST": "foo", "DATE": "Apr 29 13:58:46", "MSEC": "411",
          "_cisco": {"facility": "SYSMGR-STANDBY", "severity": "3", "mnemonic": "SHUTDOWN_START"},
          "MSG": r"%SYSMGR-STANDBY-3-SHUTDOWN_START: The System Manager has started the shutdown procedure."}),
        (r"<180>782431: machine1: .Nov 18 21:03:22.631 GMT: %CDP-4-NATIVE_VLAN_MISMATCH: Native VLAN mismatch discovered on TenGigabitEthernet.",
         {"PRI": "180", "HOST": "machine1", "DATE": "Nov 18 21:03:22", "MSEC": "631",
          "_cisco": {"facility": "CDP", "severity": "4", "mnemonic": "NATIVE_VLAN_MISMATCH"},
          "MSG": r"%CDP-4-NATIVE_VLAN_MISMATCH: Native VLAN mismatch discovered on TenGigabitEthernet."}),
        (r"<166>2022-02-16T15:31:53Z na-zy-int-fp1140-p02 : %FTD-6-305012: Teardown dynamic TCP translation from FOO-WAN_IN:10.44.60.80/59877 to FOO-OUTSIDE:6.7.8.9/59877 duration 0:01:01",
         {"PRI": "166", "HOST": "na-zy-int-fp1140-p02", "DATE": "Feb 16 15:31:53", "MSEC": "000",
          "_cisco": {"facility": "FTD", "severity": "6", "mnemonic": "305012"},
          "MSG": r"%FTD-6-305012: Teardown dynamic TCP translation from FOO-WAN_IN:10.44.60.80/59877 to FOO-OUTSIDE:6.7.8.9/59877 duration 0:01:01"}),
        (r"<190>123030: some-remote-host: %SYS-5-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 stopped - CLI initiated",
         {"PRI": "190", "HOST": "some-remote-host",
          "_cisco": {"facility": "SYS", "severity": "5", "mnemonic": "LOGGINGHOST_STARTSTOP"},
          "MSG": r"%SYS-5-LOGGINGHOST_STARTSTOP: Logging to host 192.168.1.239 stopped - CLI initiated"}),
        (r"<187>138076: RP/0/RP0/CPU0:Dec 11 12:43:29.227 EST: snmpd[1002]: %SNMP-SNMP-3-AUTH_FAIL : Received snmp request on unknown community from 0.0.0.0",
         {"PRI": "187",
          "_cisco": {"facility": "SNMP-SNMP", "severity": "3", "mnemonic": "AUTH_FAIL",
                     "cpu_module": "RP/0/RP0/CPU0"},
          "MSG": r"%SNMP-SNMP-3-AUTH_FAIL : Received snmp request on unknown community from 0.0.0.0"}),
        (r"<187>3408: CLC 6/0: Dec 11 13:31:14.214 EST: %PKI-3-CERTIFICATE_INVALID_EXPIRED: Certificate chain validation has failed.  The certificate (SN: XXXXXXXX) has expired.    Validity period ended on 2025-01-23T00:00:00Z",
         {"PRI": "187",
          "_cisco": {"facility": "PKI", "severity": "3", "mnemonic": "CERTIFICATE_INVALID_EXPIRED",
                     "cpu_module": "CLC 6/0"},
          "MSG": r"%PKI-3-CERTIFICATE_INVALID_EXPIRED: Certificate chain validation has failed.  The certificate (SN: XXXXXXXX) has expired.    Validity period ended on 2025-01-23T00:00:00Z"}),
    ]

    @pytest.mark.parametrize("line,expected", CASES, ids=range(len(CASES)))
    def test_cisco_parser(self, line, expected):
        import json as _json

        cfg = compile_config("""
source s { example-msg-generator(num(1) template("%s")); };
parser p { cisco-parser(); };
destination d { file("output.log" template("$(format-json --scope all-nv-pairs PRI DATE MSEC MSG)\\n")); };
log { source(s); parser(p); destination(d); };
""" % line)
        out = _json.loads(cfg.run().rendered("d")[0])
        assert out["PRI"] == expected["PRI"]
        if "HOST" in expected:
            assert out["HOST"] == expected["HOST"]
        if "DATE" in expected:
            assert out["DATE"] == expected["DATE"]
        if "MSEC" in expected:
            assert out["MSEC"] == expected["MSEC"]
        for k in ("facility", "severity", "mnemonic", "cpu_module"):
            if k in expected["_cisco"]:
                assert out["_cisco"][k] == expected["_cisco"][k]
        assert out["MSG"] == expected["MSG"]


class TestFilterXDictLight:
    """Ports of Light filterx/test_filterx_dict.py: unset on a dict
    member, message-value subscript keys, nullv (:??) dict elements with
    a trailing comma, and dpath() auto-creating lvalues. Expected
    strings are the reference suite's own assertions; the engine
    renders dict-valued $MSG through format_json (explicit here where
    the reference relies on implicit marshaling)."""

    def _run_fx(self, fx, msg="-"):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("${MESSAGE}")); };
log { source(s); filterx { %s }; destination(d); };
""" % fx)
        t = pa.table({"message": [msg], "pri": [13]})
        return cfg.run(sources={"s": t}).table("d").column("message").to_pylist()

    def test_dict_unset_key(self):
        # test_filterx_dict_unset_key_with_hash_collision
        out = self._run_fx(
            'log = {"id": "a", "m": "b"}; unset(log.id); $MSG = log.m;',
            msg="id=a m=b")
        assert out == ["b"]

    def test_dict_message_value_key(self):
        # test_filterx_dict_message_value_key
        out = self._run_fx(
            'd = {}; d["test_key"] = "test_value"; $MSG = d[$MSG];',
            msg="test_key")
        assert out == ["test_value"]

    def test_dict_nullv_elements(self):
        # test_filterx_dict_nullv_elements — ':??' elides null/error
        # members; note the reference case ends with a trailing comma
        out = self._run_fx("""
            $MSG = format_json({
              "null": null,
              "nullidontwant":?? null,
              "erroridontwant":?? nonexistingvar,
              "value":?? 3,
            });
        """)
        assert out == ['{"null":null,"value":3}']

    def test_dpath(self):
        # test_filterx_dpath — byte-identical to the reference assertion
        out = self._run_fx("""
            exist = {"orig": 1};
            dpath(exist.path.to.create) = {"value": {"a": 1}};
            newdict = {};
            dpath(newdict.path.to.create) = {"value": 3};
            dpath(newdict.path.to.create) += {"another": 4};
            dpath(newdict.path.to.create.another) += 1;
            d = {};
            dpath(d.exist) = exist;
            d.newdict = newdict;
            $MSG = format_json(d);
        """)
        assert out == ['{"exist":{"orig":1,"path":{"to":{"create":{"value":'
                       '{"a":1}}}}},"newdict":{"path":{"to":{"create":'
                       '{"value":3,"another":5}}}}}']

    def test_dpath_subscript_elements(self):
        # dpath with [expr] path elements mixes with .attr elements
        out = self._run_fx(
            'd = {}; k = "mid"; dpath(d[k].leaf) = 7; $MSG = format_json(d);')
        assert out == ['{"mid":{"leaf":7}}']

    def test_unset_subscript_path(self):
        out = self._run_fx(
            'd = {"a": {"b": 1, "c": 2}}; unset(d["a"]["b"]); $MSG = format_json(d);')
        assert out == ['{"a":{"c":2}}']

    def test_list_trailing_comma(self):
        out = self._run_fx('$MSG = format_json([1, 2, 3,]);')
        assert out == ['[1,2,3]']


class TestFilterXTypesLight:
    """Ports of Light filterx/test_filterx_types.py: repr() / string()
    / format_json() per type — dict (with a datetime member), bytes,
    protobuf, int, double, bool, datetime. Expected strings are the
    reference suite's own byte-exact assertions (%.17g doubles,
    unix.usec datetimes, base64 bytes). otel_* types are out of scope
    with the gRPC transports (COVERAGE.md)."""

    def _run3(self, decl):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("$repr\t$string\t$json")); };
log { source(s); filterx { %s
    $repr = repr(variable); $string = string(variable);
    $json = format_json(variable); }; destination(d); };
""" % decl)
        t = pa.table({"message": ["-"], "pri": [13]})
        line = cfg.run(sources={"s": t}).rendered("d")[0]
        return line.split("\t")

    def test_type_dict(self):
        r, s, j = self._run3(
            'variable={"foo":"foovalue", "bar": "barvalue", "int":5, '
            '"null":null, "double": 3.14, '
            "\"datetime\":datetime('2006-02-11T10:34:56.123+01:00')};")
        assert r == ('{"foo":"foovalue","bar":"barvalue","int":5,"null":null,'
                     '"double":3.1400000000000001,'
                     '"datetime":datetime(1139650496.123000)}')
        assert s == r
        assert j == ('{"foo":"foovalue","bar":"barvalue","int":5,"null":null,'
                     '"double":3.1400000000000001,'
                     '"datetime":"1139650496.123000"}')

    def test_type_bytes(self):
        r, s, j = self._run3('variable=bytes("test message");')
        assert r == 'bytes("test message")'
        assert s == "test message"
        assert j == '"dGVzdCBtZXNzYWdl"'

    def test_type_protobuf(self):
        r, s, j = self._run3('variable=protobuf(bytes("test message"));')
        assert r == 'protobuf("test message")'
        assert s == "test message"
        assert j == '"dGVzdCBtZXNzYWdl"'

    def test_type_int(self):
        r, s, j = self._run3('variable=155;')
        assert r == s == j == "155"

    def test_type_double(self):
        r, s, j = self._run3('variable=3.14;')
        assert r == s == j == "3.1400000000000001"

    def test_type_bool(self):
        r, s, j = self._run3('variable=true;')
        assert r == s == j == "true"

    def test_type_datetime(self):
        r, s, j = self._run3(
            "variable=datetime('2006-02-11T10:34:56+01:00');")
        assert r == "datetime(1139650496.000000)"
        assert s == "1139650496.000000"
        assert j == '"1139650496.000000"'

    def test_istype_bytes_protobuf(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("$a $b $c")); };
log { source(s); filterx {
    v = bytes("x"); p = protobuf(v);
    $a = istype(v, "bytes"); $b = istype(p, "protobuf");
    $c = istype(p, "bytes"); }; destination(d); };
""")
        t = pa.table({"message": ["-"], "pri": [13]})
        assert cfg.run(sources={"s": t}).rendered("d")[0] == "true true false"


class TestFilterXCowLight:
    """Ports of Light filterx/test_filterx_cow.py: copy-on-write object
    semantics — assigning a dict/list to a second variable then mutating
    either side (setattr, set-subscript, unset, append, +=) must leave
    the other untouched, and storing/merging a dict into itself stores
    the OLD version. Expected strings are the reference suite's own."""

    def _run(self, fx):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log" template("${MESSAGE}")); };
log { source(s); filterx { %s }; destination(d); };
""" % fx)
        t = pa.table({"message": ["-"], "pri": [13]})
        return cfg.run(sources={"s": t}).rendered("d")[0]

    def test_dict_writes_cause_clone(self):
        out = self._run("""
            d = {'foo':'foovalue','bar':'barvalue',};
            d2 = d; d2.bar = 'bar-changed';
            $MSG = string(d) + '--' + string(d2);""")
        assert out == ('{"foo":"foovalue","bar":"barvalue"}--'
                       '{"foo":"foovalue","bar":"bar-changed"}')

    def test_dict_unset_causes_clone(self):
        out = self._run("""
            d = {'foo':'foovalue','bar':'barvalue',};
            d2 = d; unset(d2.bar);
            $MSG = string(d) + '--' + string(d2);""")
        assert out == '{"foo":"foovalue","bar":"barvalue"}--{"foo":"foovalue"}'

    def test_dict_child_writes_cause_clone(self):
        out = self._run("""
            d = {'foo':'f','bar':'b',
                 'child':{'child_foo':'f','child_bar':'barvalue'},};
            d2 = d; d2.child.child_bar = 'bar-changed';
            $MSG = d.child.child_bar + '--' + d2.child.child_bar;""")
        assert out == "barvalue--bar-changed"

    def test_dict_child_of_child_writes_cause_clone(self):
        out = self._run("""
            d = {'child':{'child2':{'child2_bar':'barvalue'}}};
            d2 = d; d2.child.child2.child2_bar = 'bar-changed';
            $MSG = d.child.child2.child2_bar + '--' + d2.child.child2.child2_bar;""")
        assert out == "barvalue--bar-changed"

    def test_list_writes_cause_clone(self):
        out = self._run("""
            l = [1,2,3]; l2 = l; l2[] = 4;
            $MSG = string(l) + '--' + string(l2);""")
        assert out == "[1,2,3]--[1,2,3,4]"

    def test_list_child_writes_cause_clone(self):
        out = self._run("""
            l = [1,2,3,[4,5,6]]; l2 = l; l2[3][] = 10;
            $MSG = string(l) + '--' + string(l2);""")
        assert out == "[1,2,3,[4,5,6]]--[1,2,3,[4,5,6,10]]"

    def test_list_child_of_child_writes_cause_clone(self):
        out = self._run("""
            l = [1,2,3,[4,5,6,{'foo':'foovalue','bar':'barvalue'}]];
            l2 = l; l2[3][3].baz = 'bazvalue';
            $MSG = string(l) + '--' + string(l2);""")
        assert out == (
            '[1,2,3,[4,5,6,{"foo":"foovalue","bar":"barvalue"}]]--'
            '[1,2,3,[4,5,6,{"foo":"foovalue","bar":"barvalue","baz":"bazvalue"}]]')

    def test_list_unset_causes_clone(self):
        out = self._run("""
            l = [1,2,3,[4,5,6,{'foo':'foovalue','bar':'barvalue'}]];
            l2 = l; unset(l2[3][3]);
            $MSG = string(l) + '--' + string(l2);""")
        assert out == ('[1,2,3,[4,5,6,{"foo":"foovalue","bar":"barvalue"}]]'
                       '--[1,2,3,[4,5,6]]')

    DEEP = ("d = {'foo':'foovalue','bar':'barvalue','child':{'child_foo':"
            "'foovalue','child_bar':'barvalue','child2':{'child2_foo':"
            "'foovalue','child2_bar':'barvalue','child3':{'child3_foo':"
            "'foovalue','child3_bar':'barvalue','child4':{'child4_foo':"
            "'foovalue','child4_bar':'barvalue','child5':{'child5_foo':"
            "'foovalue','child5_bar':'barvalue',},},},},},};"
            "d.child.child2.child3.child4.child5.added_key = 'added_key';")
    DEEP_WANT = (
        '{"foo":"foovalue","bar":"barvalue","child":{"child_foo":"foovalue",'
        '"child_bar":"barvalue","child2":{"child2_foo":"foovalue",'
        '"child2_bar":"barvalue","child3":{"child3_foo":"foovalue",'
        '"child3_bar":"barvalue","child4":{"child4_foo":"foovalue",'
        '"child4_bar":"barvalue","child5":{"child5_foo":"foovalue",'
        '"child5_bar":"barvalue","added_key":"added_key",'
        '"recursive":{"foo":"foovalue","bar":"barvalue","child":'
        '{"child_foo":"foovalue","child_bar":"barvalue","child2":'
        '{"child2_foo":"foovalue","child2_bar":"barvalue","child3":'
        '{"child3_foo":"foovalue","child3_bar":"barvalue","child4":'
        '{"child4_foo":"foovalue","child4_bar":"barvalue","child5":'
        '{"child5_foo":"foovalue","child5_bar":"barvalue",'
        '"added_key":"added_key"}}}}}}}}}}}}')

    def test_recursive_setattr_stores_old_version(self):
        out = self._run(
            self.DEEP +
            "d.child.child2.child3.child4.child5.recursive = d;"
            "$MSG = format_json(d);")
        assert out == self.DEEP_WANT

    def test_recursive_set_subscript_stores_old_version(self):
        out = self._run(
            self.DEEP +
            "d.child.child2.child3.child4.child5['recursive'] = d;"
            "$MSG = format_json(d);")
        assert out == self.DEEP_WANT

    def test_recursive_plus_assign_merges_old_version(self):
        out = self._run("""
            d = {'foo':'foovalue','bar':'barvalue','child':{'child_foo':'foovalue','child_bar':'barvalue','child2':{'child2_foo':'foovalue','child2_bar':'barvalue',},},};
            d.child.child2.added_key = 'added_key';
            d.child.child2 += d;
            $MSG = format_json(d);""")
        assert out == (
            '{"foo":"foovalue","bar":"barvalue","child":{"child_foo":"foovalue",'
            '"child_bar":"barvalue","child2":{"child2_foo":"foovalue",'
            '"child2_bar":"barvalue","added_key":"added_key",'
            '"foo":"foovalue","bar":"barvalue","child":{"child_foo":"foovalue",'
            '"child_bar":"barvalue","child2":{"child2_foo":"foovalue",'
            '"child2_bar":"barvalue","added_key":"added_key"}}}}}')

    def test_plus_on_child_of_shared_hierarchy(self):
        out = self._run("""
            d = {'child':['foo','bar']};
            result = d.child + ['foobar'];
            $MSG = string(result) + '--' + string(d);""")
        assert out == '["foo","bar","foobar"]--{"child":["foo","bar"]}'


class TestFilterXScopeLight:
    """Ports of Light filterx/test_filterx_scope.py: floating variables
    are dropped at the end of their filterx block, declared variables
    are retained across blocks (and junction branches), and changes in
    abandoned if/else branches are ignored."""

    def _run_path(self, blocks, msg="foobar"):
        body = " ".join("filterx { %s };" % b for b in blocks)
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination dt { file("t.log" template("${MESSAGE}")); };
destination df { file("f.log" template("${MESSAGE}")); };
log { source(s);
  log { %s destination(dt); flags(final); };
  log { destination(df); };
};
""" % body)
        t = pa.table({"message": [msg], "pri": [13]})
        r = cfg.run(sources={"s": t})
        return r.processed("dt"), r.processed("df"), r.rendered("dt")

    def test_floating_variables_are_dropped_at_end_of_scope(self):
        t, f, out = self._run_path(
            ['foo = "kecske"; isset(foo);', 'not isset(foo);'])
        assert (t, f) == (1, 0) and out == ["foobar"]

    def test_floating_variables_dropped_but_can_be_recreated(self):
        t, f, out = self._run_path(
            ['foo = "kecske"; isset(foo);',
             'not isset(foo); foo = "barka"; isset(foo); $MSG = foo;'])
        assert (t, f) == (1, 0) and out == ["barka"]

    def test_declared_variables_are_retained_across_scopes(self):
        t, f, out = self._run_path(
            ['declare foo = "kecske"; isset(foo);',
             'isset(foo); foo = "barka";',
             'isset(foo); $MSG = foo;'])
        assert (t, f) == (1, 0) and out == ["barka"]

    def _run_junction(self, init, true_exprs, false_exprs, final_exprs,
                      msg="foobar"):
        def fx(blocks):
            return " ".join("filterx { %s };" % b for b in blocks)
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination dtrue { file("t.log" template("${MESSAGE}")); };
destination dfalse { file("f.log" template("${MESSAGE}")); };
destination dfinal { file("x.log" template("${MESSAGE}")); };
log { source(s);
  %s
  if { %s destination(dtrue); } else { %s destination(dfalse); };
  %s
  destination(dfinal);
};
""" % (fx(init), fx(true_exprs), fx(false_exprs), fx(final_exprs)))
        t = pa.table({"message": [msg], "pri": [13]})
        return cfg.run(sources={"s": t})

    def test_mutable_variables_inherited_and_cowed_in_parallel_branches(self):
        r = self._run_junction(
            ['declare foo = {"foo":{"foo2":"foovalue"}}; isset(foo);'],
            ['isset(foo); foo.foo.foo2 == "foovalue"; foo.foo.bar2 = "barvalue";',
             'isset(foo); foo.foo.foo2 == "foovalue"; foo.foo.bar2 == "barvalue"; false;'],
            ['isset(foo); foo.foo.foo2 == "foovalue"; not isset(foo.foo.bar2); $MSG = "done";'],
            ['isset(foo); foo.foo.foo2 == "foovalue"; not isset(foo.foo.bar2); $MSG == "done";'])
        assert r.processed("dfalse") == 1
        assert r.processed("dtrue") == 0
        assert r.rendered("dfalse") == ["done"]
        assert r.rendered("dfinal") == ["done"]

    def test_declared_variables_retained_across_scopes_and_junctions(self):
        r = self._run_junction(
            ['declare foo = "kecske"; isset(foo);'],
            ['isset(foo); foo = "barka";', 'isset(foo); $MSG = foo;'],
            [], [])
        assert r.processed("dtrue") == 1
        assert r.processed("dfalse") == 0
        assert r.rendered("dtrue") == ["barka"]

    def test_changes_in_abandoned_branches_are_ignored(self):
        r = self._run_junction(
            ['$json = json({"common": "common"}); $variable = "something"; unset($variable);'],
            ['$json += {"iftrue": "true"}; $json; false;'],
            ['$json += {"iffalse": "false"}; $json;'],
            ['$MSG = $json;'])
        assert r.processed("dfalse") == 1
        assert r.processed("dtrue") == 0
        assert r.rendered("dfalse") == ["foobar"]
        assert r.processed("dfinal") == 1
        assert r.rendered("dfinal") == ['{"common":"common","iffalse":"false"}']


class TestSudoParserScl:
    """scl/sudo/sudo.conf sudo-parser(): kv-parser with pair-separator
    ';' + extract-stray-words-into, csv-parser over $(list-head ...) for
    the SUBJECT, and the no-COMMAND drop filter (pam noise excluded).
    The channel-in-parser-block compound compiles in-path, so the inner
    filter drops rows like the reference logpipe channel."""

    LINES = [
        ("alice : TTY=pts/0 ; PWD=/home/alice ; USER=root ; COMMAND=/usr/bin/ls -l",
         ("alice", "root", "/usr/bin/ls -l")),
        ("bob : TTY=pts/1 ; PWD=/tmp ; USER=postgres ; COMMAND=/usr/bin/psql",
         ("bob", "postgres", "/usr/bin/psql")),
        ("pam_unix(sudo:session): session opened for user root", None),
        ("pam_unix(sudo:session): session closed for user root", None),
    ]

    def test_sudo_parser(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { sudo-parser(); };
destination d { file("o.log" template("${.sudo.SUBJECT}|${.sudo.USER}|${.sudo.COMMAND}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": [l for l, _ in self.LINES],
                      "pri": [13] * len(self.LINES)})
        r = cfg.run(sources={"s": t})
        want = [e for _, e in self.LINES if e is not None]
        assert r.processed("d") == len(want)
        assert r.rendered("d") == ["|".join(e) for e in want]

    def test_sudo_parser_custom_prefix(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { sudo-parser(prefix(".s.")); };
destination d { file("o.log" template("${.s.SUBJECT} ${.s.TTY}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": [self.LINES[0][0]], "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.rendered("d") == ["alice pts/0"]

    def test_csv_partial_persistence_on_incomplete_scan(self):
        # csvparser.c: parsed columns persist even when the scan is
        # incomplete; only drop-invalid discards the row
        from axosyslog_ray.stages.csv_parser import CsvParser

        p = CsvParser(columns=["a", "b"], delimiters=",", source_col="m")
        out = p(pa.table({"m": ["1,2,3", "1", "x,y"]}))
        assert out.column("a").to_pylist() == ["1", "1", "x"]
        assert out.column("b").to_pylist() == ["2", None, "y"]
        assert out.column("csv_valid").to_pylist() == [False, False, True]


class TestFortigateParserScl:
    """scl/fortigate/fortigate.conf fortigate-parser(): no-header
    syslog re-parse of the raw line (PRI + body), kv extraction of the
    FortiOS fields, date-parser over the composite date+time template,
    devname -> HOST rewrite, and the no-devname drop filter."""

    LINE = ('<189>date=2022-02-16 time=11:23:51 devname="FGT60E" '
            'devid="FGT60E1234567890" logid="0000000013" type="traffic" '
            'subtype="forward" level="notice" srcip=10.1.1.100 '
            'srcport=54770 dstip=10.2.2.2 dstport=443 action="accept"')

    def _run(self, lines):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { fortigate-parser(template("$RAWMSG")); };
destination d { file("o.log" template("$HOST|$PRI|${.fortigate.srcip}|${.fortigate.dstport}|${.fortigate.action}|$ISODATE")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"rawmsg": lines, "message": ["-"] * len(lines),
                      "pri": [13] * len(lines)})
        return cfg.run(sources={"s": t})

    def test_fortigate_traffic_log(self):
        r = self._run([self.LINE])
        assert r.processed("d") == 1
        assert r.rendered("d") == [
            "FGT60E|189|10.1.1.100|443|accept|2022-02-16T11:23:51+00:00"]

    def test_no_devname_is_dropped(self):
        r = self._run([self.LINE, "<1>not a fortigate line"])
        assert r.processed("d") == 1

    def test_custom_prefix(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { fortigate-parser(prefix(".fg.") template("$RAWMSG")); };
destination d { file("o.log" template("${.fg.devname} ${.fg.level}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"rawmsg": [self.LINE], "message": ["-"], "pri": [13]})
        assert cfg.run(sources={"s": t}).rendered("d") == ["FGT60E notice"]


class TestSyslogParserNoHeader:
    def test_pri_only_reparse(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(flags(no-header) template("$RAWMSG")); };
destination d { file("o.log" template("$PRI:$MSG")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"rawmsg": ["<42>payload stays whole: x=1",
                                 "no pri prefix"],
                      "message": ["-", "-"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.rendered("d") == ["42:payload stays whole: x=1",
                                   "13:no pri prefix"]


class TestCheckpointParserLight:
    """Port of Light parsers/checkpoint/test_checkpoint.py: the SCL
    checkpoint-parser() — syslog-form lines route through the inner
    if/else on DATE-PARSER SUCCESS (a failed date parse drops the row
    inside that branch, sending it to the 8-column space-date variant),
    then ':'/';' kv extraction; non-'<' lines take the splunk '|'/'='
    kv branch. Expected strings are the reference suite's own."""

    CASES = [
        (r'''<134>1 2018-03-21 17:25:25 MDS-72 CheckPoint 13752 - [action:"Update"; flags:"150784"; ifdir:"inbound"; logid:"160571424"; origin:"192.168.32.91"; product:"Identity Awareness"; src:"192.168.32.69";]''',
         "<CheckPoint><MDS-72><Mar 21 17:25:25>"),
        (r'''<134>1 2018-03-21T17:25:25 MDS-72 CheckPoint 13752 - [action:"Update"; flags:"150784"; ifdir:"inbound"; origin:"192.168.32.91";]''',
         "<CheckPoint><MDS-72><Mar 21 17:25:25>"),
        (r'''<134>1 2019-11-27T02:58:25Z ABDP-CPLOG01 CheckPoint 22103 - [action:"Accept"; flags:"18692"; ifname:"bond1.734"; origin:"10.4.150.2"; dst:"124.156.190.9"; s_port:"64442"; service:"80"; src:"10.7.79.7";]''',
         "<CheckPoint><ABDP-CPLOG01><Nov 27 02:58:25>"),
        (r'''<134>1 2020-01-02T14:04:50Z fwmgmt CheckPoint 16559 - [action:"Accept"; flags:"411908"; origin:"172.16.0.2"; proto:"17"; s_port:"55263"; service:"53"; src:"10.126.0.154";]''',
         "<CheckPoint><fwmgmt><Jan  2 14:04:50>"),
    ]

    def _run(self, lines, tpl="<${PROGRAM}><${HOST}><${S_DATE}>"):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { checkpoint-parser(); };
destination d { file("o.log" template("%s")); };
log { source(s); parser(p); destination(d); };
""" % tpl)
        t = pa.table({"message": lines, "pri": [13] * len(lines)})
        return cfg.run(sources={"s": t})

    @pytest.mark.parametrize("line,expected", CASES, ids=range(len(CASES)))
    def test_checkpoint_parser(self, line, expected):
        r = self._run([line])
        assert r.processed("d") == 1
        assert r.rendered("d") == [expected]

    def test_kv_fields_extracted(self):
        r = self._run([self.CASES[0][0]],
                      tpl="${.checkpoint.action}/${.checkpoint.origin}/${.checkpoint.src}")
        assert r.rendered("d") == ["Update/192.168.32.91/192.168.32.69"]

    def test_splunk_format_branch(self):
        # non-'<' line takes the splunk branch: key|value pairs joined
        # by '=' (value-separator('|') pair-separator('='))
        r = self._run(['time|1521645925=action|Update=orig|192.168.32.91'],
                      tpl="${.checkpoint.action}:${.checkpoint.orig}")
        assert r.rendered("d") == ["Update:192.168.32.91"]


class TestNetskopePiholeScl:
    """scl/netskope and scl/pihole parser blocks: PRI-strip + JSON
    extraction (netskope-parser), and the Pi-hole FTL regexp + date +
    conditional set-severity chain (pihole_ftl)."""

    def test_netskope(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { netskope-parser(); };
destination d { file("o.log" template("${.netskope.user}|${.netskope.app}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": [
            '<134>{"_insertion_epoch_timestamp": 1, "user": "u@x.com", "app": "Dropbox"}'],
            "pri": [13]})
        assert cfg.run(sources={"s": t}).rendered("d") == ["u@x.com|Dropbox"]

    def test_pihole_ftl(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { pihole_ftl(); };
destination d { file("o.log" template("${PROGRAM}|${SEVERITY}|${MESSAGE}|${S_DATE}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": [
            "[2024-01-05 11:22:33.456 12345] WARNING: Long-term load (15min avg) larger than number of processors",
            "[2024-01-05 11:22:34.000 12345] FTL started!",
            "no brackets here at all",   # regexp fails -> dropped
        ], "pri": [13, 13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 2
        assert r.rendered("d") == [
            "Pi-hole|warning|Long-term load (15min avg) larger than number of processors|Jan  5 11:22:33",
            "Pi-hole|notice|FTL started!|Jan  5 11:22:34",
        ]

    def test_regexp_parser_alternative_patterns(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { regexp-parser(patterns('^A:(?<a>.*)', '^B:(?<b>.*)')); };
destination d { file("o.log" template("${a}-${b}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": ["A:one", "B:two", "C:none"], "pri": [13] * 3})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 2
        assert r.rendered("d") == ["one-", "-two"]


class TestAppParserLight:
    """Port of Light parsers/app-parser/test_app_parser.py: application
    NAME[topic] registrations + the app-parser() generator — first-match
    if/elif/else framing without overlaps (sets .app.name + tag, drops
    no-match), independent if-frames with allow-overlaps (all matching
    apps run), and the auto-parse(no) empty frame (drops everything).
    Expected values are the reference suite's own."""

    PRE = """
application foo[syslog] {
    filter { program("foo"); };
    parser { channel { rewrite { set("foo" value("FOOVALUE")); }; }; };
};
application bar[syslog] {
    filter { program("bar"); };
    parser { channel { rewrite { set("bar" value("BARVALUE")); }; }; };
};
source s { example-msg-generator(num(1)); };
"""

    def _run(self, appargs, tpl, programs):
        cfg = compile_config(self.PRE + """
parser p { app-parser(%s); };
destination d { file("o.log" template("%s")); };
log { source(s); parser(p); destination(d); };
""" % (appargs, tpl))
        t = pa.table({"message": [p + "message" for p in programs],
                      "program": programs, "pri": [13] * len(programs)})
        r = cfg.run(sources={"s": t})
        return r.processed("d"), r.rendered("d")

    def test_first_match_without_overlaps(self):
        # "foobar" matches both program regexes; only the FIRST app runs
        n, out = self._run("topic(syslog)", "${.app.name}",
                           ["foo", "bar", "foobar"])
        assert (n, out) == (3, ["foo", "bar", "foo"])

    def test_allow_overlaps_traverses_all_apps(self):
        n, out = self._run("topic(syslog) allow-overlaps(yes)",
                           "${FOOVALUE} ${BARVALUE}", ["foo", "bar", "foobar"])
        assert (n, out) == (3, ["foo ", " bar", "foo bar"])

    def test_no_match_drops(self):
        n, _ = self._run("topic(syslog)", "x", ["almafa"])
        assert n == 0

    def test_auto_parse_disabled_drops(self):
        n, _ = self._run("topic(syslog) auto-parse(no)", "x", ["foo"])
        assert n == 0

    def test_auto_parse_disabled_plus_overlaps_drops(self):
        n, _ = self._run("topic(syslog) auto-parse(no) allow-overlaps(yes)",
                         "x", ["foo"])
        assert n == 0

    def test_app_tag_set(self):
        cfg = compile_config(self.PRE + """
parser p { app-parser(topic(syslog)); };
destination d { file("o.log" template("$TAGS")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": ["foomessage"], "program": ["foo"],
                      "pri": [13]})
        out = cfg.run(sources={"s": t}).rendered("d")
        assert ".app.foo" in out[0]


class TestPanosParserScl:
    """scl/paloalto/panos.conf panos-parser(): LEGACY_MSGHDR+MESSAGE
    reassembly (the PAN-OS csv body has no syslog TAG colon, so the
    header parse eats '1,DATE ' as PROGRAM), greedy entry csv into
    .panos.tmp, per-type elif subtype csv, device_name drop filter, and
    the MESSAGE/PROGRAM restore rewrite. Sample lines are the ones in
    the reference conf's own comment header."""

    SYSTEM = ("<12>Apr 14 16:48:54 paloalto.test.net 1,2020/04/14 16:48:54,"
              "unknown,SYSTEM,auth,0,2020/04/14 16:48:54,,auth-fail,,0,0,"
              "general,medium,failed authentication for user 'admin'. "
              "Reason: Invalid username/password. From: 10.0.10.55.,"
              "1718,0x0,0,0,0,0,,paloalto")
    CONFIG = ("<14>Apr 14 16:54:18 paloalto.test.net 1,2020/04/14 16:54:18,"
              "unknown,CONFIG,0,0,2020/04/14 16:54:18,10.0.10.55,,set,admin,"
              "Web,Succeeded, deviceconfig system,127,0x0,0,0,0,0,,paloalto")

    def _run(self, template):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(); panos-parser(); };
destination d { file("o.log" template("%s")); };
log { source(s); parser(p); destination(d); };
""" % template)
        t = pa.table({"message": [self.SYSTEM, self.CONFIG],
                      "pri": [13, 13]})
        return cfg.run(sources={"s": t})

    def test_system_fields(self):
        r = self._run("${.panos.type}|${.panos.eventid}|${.panos.severity}"
                      "|${.panos.device_name}|$PROGRAM")
        assert r.processed("d") == 2
        assert r.rendered("d")[0] == \
            "SYSTEM|auth-fail|medium|paloalto|paloalto_panos"

    def test_config_fields_non_custom_format(self):
        r = self._run("${.panos.type}|${.panos.host}|${.panos.cmd}"
                      "|${.panos.result}|${.panos.device_name}")
        assert r.rendered("d")[1] == "CONFIG|10.0.10.55|set|Succeeded|paloalto"

    def test_message_restored_and_tmp_unset(self):
        r = self._run("$MESSAGE")
        body = self.SYSTEM.split("paloalto.test.net ", 1)[1]
        assert r.rendered("d")[0] == body
        r2 = self._run("${.panos.tmp}x")
        assert r2.rendered("d") == ["x", "x"]

    def test_device_name_filter_drops(self):
        # truncated SYSTEM line: no device_name -> dropped inside the
        # simple conditional (no diversion to the elif arms)
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(); panos-parser(); };
destination d { file("o.log" template("$MESSAGE")); };
log { source(s); parser(p); destination(d); };
""")
        short = ("<12>Apr 14 16:48:54 h 1,2020/04/14 16:48:54,unknown,"
                 "SYSTEM,auth,0,2020/04/14 16:48:54,,auth-fail")
        t = pa.table({"message": [short, self.SYSTEM], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1

    def test_app_parser_routes_panos_topic(self):
        # the SCL library registers application panos[syslog]; the
        # app-parser generator should pick it up by PROGRAM prefix "1,"
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(); app-parser(topic(syslog)); };
destination d { file("o.log" template("${.app.name}|${.panos.type}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": [self.SYSTEM, "<13>Aug 17 05:02:28 h prog: hi"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        # non-matching message is dropped by the generated frame's
        # final `filterx { false; }` arm
        assert r.processed("d") == 1
        assert r.rendered("d") == ["panos|SYSTEM"]


class TestWebsenseCeeEwmmScl:
    """scl/websense/plugin.conf, scl/cee/adapter.conf and
    scl/ewmm/ewmm.conf parser blocks: timezone-strip + program-insert
    substs feeding a full syslog-parser() re-parse (websense), marker
    json (cee), and the EWMM builtin-restoring json + tags re-parse."""

    def test_websense_parser(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { websense-parser(); };
destination d { file("o.log" template("$HOST|$PROGRAM|${.websense.vendor}|${.websense.action}")); };
log { source(s); parser(p); destination(d); };
""")
        raw = ("Apr 14 16:48:54 EST wsgateway vendor=Websense "
               "product=Security action=permitted src_host=10.0.0.1")
        t = pa.table({"message": [raw], "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.rendered("d") == ["wsgateway|Websense|Websense|permitted"]

    def test_websense_application_topic(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { app-parser(topic(syslog-raw)); };
destination d { file("o.log" template("${.app.name}|${.websense.product}")); };
log { source(s); parser(p); destination(d); };
""")
        raw = ("Apr 14 16:48:54 EST wsgateway vendor=Websense "
               "product=Security action=permitted")
        t = pa.table({"message": [raw, "something else"], "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        assert r.rendered("d") == ["websense|Security"]

    def test_cee_application_marker_json(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { app-parser(topic(syslog)); };
destination d { file("o.log" template("${.app.name}|${.cee.event}|${.cee.sev}")); };
log { source(s); parser(p); destination(d); };
""")
        t = pa.table({"message": ['@cee: {"event":"login","sev":"3"}',
                                  '{"event":"nomarker"}'],
                      "pri": [13, 13],
                      "program": ["app", "app"]})
        r = cfg.run(sources={"s": t})
        # no marker -> json-parser fails -> app frame's false arm drops
        assert r.processed("d") == 1
        assert r.rendered("d") == ["cee|login|3"]

    def test_ewmm_parser_restores_builtins(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(); ewmm-parser(); };
destination d { file("o.log" template("$HOST|$PROGRAM|$MESSAGE|$TAGS")); };
log { source(s); parser(p); destination(d); };
""")
        line = ('<13>1 2026-08-19T10:00:00Z relayhost @syslog-ng - - - '
                '{"MESSAGE":"original body","HOST":"origin",'
                '"PROGRAM":"app1","._TAGS":".source.s_net"}')
        t = pa.table({"message": [line], "pri": [13]})
        r = cfg.run(sources={"s": t})
        out = r.rendered("d")[0]
        assert out.startswith("origin|app1|original body|")
        assert ".source.s_net" in out
        # hop-by-hop field removed
        r2 = cfg.run(sources={"s": t})
        assert "._TAGS" not in r2.table("d").column_names or \
            r2.table("d").column("._TAGS").null_count == 1

    def test_ewmm_parser_drops_foreign_program(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(); ewmm-parser(); };
destination d { file("o.log" template("$MESSAGE")); };
log { source(s); parser(p); destination(d); };
""")
        line = '<13>1 2026-08-19T10:00:00Z h otherapp - - - {"MESSAGE":"x"}'
        t = pa.table({"message": [line], "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 0

    def test_sumologic_http_destination_block(self):
        # scl/sumologic sumologic-http(): block splices an http() dest;
        # body() template drives the rendered output
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { sumologic-http(deployment(eu) collector(tok) template("$PROGRAM: $MESSAGE")); };
log { source(s); destination(d); };
""")
        t = pa.table({"message": ["hello"], "pri": [13],
                      "program": ["app"]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        assert r.rendered("d") == ["app: hello"]


class TestSclHttpDestinationBlocks:
    """Round-4 SCL destination ports (scl/telegram, scl/splunk,
    scl/slack, scl/discord, scl/elasticsearch, scl/graylog2) — each
    block splices into http()/network() and the body()/template()
    drives rendered()."""

    def _run(self, dest_stmt, row=None):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d {{ {dest_stmt} }};
log {{ source(s); destination(d); }};
""")
        t = pa.table(row or {"message": ["hello world"], "pri": [13],
                             "program": ["app"]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        return r.rendered("d")[0]

    def test_telegram_body(self):
        # scl/telegram/telegram.conf: text is substr'd then url-encoded
        out = self._run(
            'telegram(bot-id("B1") chat-id("C2") max-size(5));')
        assert out == ("disable_web_page_preview=true&"
                       "disable_notification=false&parse_mode=none&"
                       "chat_id=C2&&text=hello\n")

    def test_telegram_url_encodes(self):
        out = self._run('telegram(bot-id("B") chat-id("C"));')
        assert "text=hello%20world" in out

    def test_splunk_hec_raw_underscore_dash_equivalence(self):
        # cfg-lexer normalization: batch_lines == batch-lines both in
        # the block definition and at the call site
        out = self._run(
            'splunk-hec-raw(url("https://sp") token(T) channel(ch)'
            ' batch-lines(100) template("$MSG\\n"));')
        assert out == "hello world\n"

    def test_splunk_hec_event_json_body(self):
        import json
        out = self._run(
            'splunk_hec_event(url("https://sp") token(T)'
            ' source("src1") event("${MESSAGE}"));')
        d = json.loads(out)
        assert d["event"] == "hello world"
        assert d["source"] == "src1"
        assert "fields" not in d     # empty fields omitted

    def test_slack_color_chooser(self):
        # $(list-nth ${LEVEL_NUM} colors): notice(5) -> 6th color
        import json
        out = self._run('slack(hook-url("https://h"));')
        d = json.loads(out)
        assert d["color"] == "#7DCEA0"
        assert d["text"] == "hello world"
        assert d["author_name"].startswith("host: ")

    def test_discord_truncates(self):
        import json
        out = self._run('discord(url("https://d") max-msg-length(5));')
        assert json.loads(out)["content"] == "hello"

    def test_elasticsearch_http_action_line(self):
        out = self._run(
            'elasticsearch-http(url("https://es") index("logs-idx")'
            ' template("$MSG"));')
        first = out.split("\n")[0]
        import json
        assert json.loads(first) == {"index": {"_index": "logs-idx"}}

    def test_graylog2_gelf(self):
        import json
        out = self._run('graylog2(host("gl") port(12201));')
        assert out.endswith("\x00")
        d = json.loads(out[:-1])
        assert d["version"] == "1.1"
        assert d["short_message"] == "hello world"
        assert d["_program"] == "app"
        assert d["level"] == 5

    def test_loggly_sdata_token(self):
        out = self._run('loggly(token(TOK123) tag("t1"));')
        assert '[TOK123@41058 tag="t1"]' in out
        assert out.endswith("hello world\n")

    def test_openobserve_record(self):
        import json
        out = self._run(
            'openobserve-log(url("https://oo") user(u) password(p));')
        d = json.loads(out)
        assert d["MESSAGE"] == "hello world"
        assert "@timestamp" in d


class TestSclOpensearchMbox:
    """scl/opensearch/opensearch.conf + scl/mbox/mbox.conf ports."""

    def test_opensearch_action_line_and_custom_id(self):
        import json
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { opensearch(url("https://os") index("web-idx")
                           custom_id("id7") op_type("create")
                           template("$MSG")); };
log { source(s); destination(d); };
""")
        t = pa.table({"message": ["hello world"], "pri": [13]})
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        lines = r.rendered("d")[0].split("\n")
        assert json.loads(lines[0]) == {
            "create": {"_index": "web-idx", "_id": "id7"}}
        assert lines[1] == "hello world"

    def test_mbox_source_groups_messages(self, tmp_path):
        mbox = tmp_path / "inbox.mbox"
        mbox.write_text(
            "From alice@example.com Thu Jan  1 00:00:00 2024\n"
            "Subject: first\n"
            "\n"
            "body line one\n"
            "body line two\n"
            "From bob@example.com Thu Jan  2 00:00:00 2024\n"
            "Subject: second\n"
            "\n"
            "hi\n")
        cfg = compile_config(f"""
source s {{ mbox(filename("{mbox}")); }};
destination d {{ file("/dev/null" template("$MSG")); }};
log {{ source(s); destination(d); }};
""")
        r = cfg.run()
        assert r.processed("d") == 2
        msgs = r.rendered("d")
        assert msgs[0].startswith("From alice@example.com")
        assert "body line two" in msgs[0]
        assert msgs[1].startswith("From bob@example.com")
        assert msgs[1].endswith("hi")


class TestSclPacct:
    """scl/pacct/plugin.conf + modules/pacctformat via file(format(pacct))."""

    def test_pacct_source_renders_fields(self, tmp_path):
        from axosyslog_ray.stages.pacct import make_pacct_record
        f = tmp_path / "pacct"
        f.write_bytes(make_pacct_record(ac_pid=42, ac_uid=1000,
                                        ac_comm=b"cron")
                      + make_pacct_record(ac_pid=43, ac_uid=0,
                                          ac_comm=b"sshd"))
        cfg = compile_config(f"""
source s {{ pacct(file("{f}")); }};
destination d {{ file("/dev/null"
    template("pid=${{.pacct.ac_pid}} uid=${{.pacct.ac_uid}} comm=${{.pacct.ac_comm}}")); }};
log {{ source(s); filter {{ tags(".pacct"); }}; destination(d); }};
""")
        r = cfg.run()
        assert r.processed("d") == 2
        assert r.rendered("d") == ["pid=42 uid=1000 comm=cron",
                                   "pid=43 uid=0 comm=sshd"]


class TestNetworkLoadBalancer:
    """scl/loadbalancer confgen port (Light
    config_change/test_confgen_network_load_balancer.py variants)."""

    def _route(self, targets, n=30):
        import datetime as dt
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
destination d_remote {{ network-load-balancer(targets({targets})); }};
log {{ source(s); destination(d_remote); }};
""")
        ts = [dt.datetime(2024, 1, 1, 0, 0, 0, usec) for usec in range(n)]
        t = pa.table({"message": [f"m{i}" for i in range(n)],
                      "pri": [13] * n,
                      "warc_ts": pa.array(ts, type=pa.timestamp("us"))})
        r = cfg.run(sources={"s": t})
        inner = {k: d.counts for k, d in cfg.destinations.items()
                 if k.startswith("_inline")}
        return r, cfg, inner

    def test_minimal_space_separated(self):
        r, cfg, inner = self._route("node1 node2 node3")
        assert r.processed("d_remote") == 30
        assert sorted(inner.values()) == [10, 10, 10]

    def test_minimal_commas(self):
        r, _, inner = self._route("node1, node2, node3")
        assert sorted(inner.values()) == [10, 10, 10]

    def test_minimal_quoted_commas(self):
        r, _, inner = self._route('"node1", "node2", "node3"')
        assert sorted(inner.values()) == [10, 10, 10]

    def test_each_message_delivered_once(self):
        r, cfg, inner = self._route("a b", n=7)
        # usec 0..6 -> mod 2: 4 even, 3 odd; finals never double-deliver
        assert sorted(inner.values()) == [3, 4]
        assert sum(inner.values()) == 7

    def test_single_target_no_failover(self):
        r, _, inner = self._route("only1", n=5)
        assert list(inner.values()) == [5]

    def test_failover_servers_autogenerated(self):
        from axosyslog_ray.config import Driver, _generate_load_balancer
        d = Driver("network-load-balancer",
                   kwargs={"targets": ["n1", "n2", "n3"],
                           "failover": ["mode(round-robin)"]})
        gen = _generate_load_balancer(d)
        # per gen-loadbalancer.sh: each branch lists the OTHER targets
        assert 'failover(servers("n2", "n3") mode(round-robin))' in gen
        assert 'failover(servers("n1", "n3") mode(round-robin))' in gen

    def test_failover_off_suppressed(self):
        from axosyslog_ray.config import Driver, _generate_load_balancer
        d = Driver("network-load-balancer",
                   kwargs={"targets": ["n1", "n2"], "failover": ["off"]})
        assert "failover" not in _generate_load_balancer(d)


APP_TRANSFORM_CFG = """
transformation filterx_only[default] {
    transform[filterx_1] {
        step["step_1"] { filterx { $MSG.filterx_only___filterx_1___step_1 = true; }; };
        step["step_2"] { filterx { $MSG.filterx_only___filterx_1___step_2 = true; }; };
    };
    transform[filterx_2] {
        step["step_1"] { filterx { $MSG.filterx_only___filterx_2___step_1 = true; }; };
        step["step_2"] { filterx { $MSG.filterx_only___filterx_2___step_2 = true; }; };
    };
};
transformation parser_only[default] {
    transform[parser_1] {
        step["step_1"] { parser { json-parser(template('{"parser_only___parser_1___step_1": true}') prefix(".json.")); }; };
        step["step_2"] { parser { json-parser(template('{"parser_only___parser_1___step_2": true}') prefix(".json.")); }; };
    };
    transform[parser_2] {
        step["step_1"] { parser { json-parser(template('{"parser_only___parser_2___step_1": true}') prefix(".json.")); }; };
        step["step_2"] { parser { json-parser(template('{"parser_only___parser_2___step_2": true}') prefix(".json.")); }; };
    };
};
transformation mixed[default] {
    transform[filterx_1] {
        step["step_1"] { filterx { $MSG.mixed___filterx_1___step_1 = true; }; };
        step["step_2"] { filterx { $MSG.mixed___filterx_1___step_2 = true; }; };
    };
    transform[parser_1] {
        step["step_1"] { parser { json-parser(template('{"mixed___parser_1___step_1": true}') prefix(".json.")); }; };
        step["step_2"] { parser { json-parser(template('{"mixed___parser_1___step_2": true}') prefix(".json.")); }; };
    };
    transform[mixed_1] {
        step["step_1"] { filterx { $MSG.mixed___mixed_1___step_1 = true; }; };
        step["step_2"] { parser { json-parser(template('{"mixed___mixed_1___step_2": true}') prefix(".json.")); }; };
    };
};
source s { example-msg-generator(num(1)); };
destination d { file("/dev/null" template("$MSG\\n")); };
log { source(s);
      filterx { declare app = "%s"; $MSG = json(); };
      parser { app-transform(filterx-app-variable(app) topic(default) %s); };
      rewrite { set("$(format-json .json.* --shift-levels 2)" value(logmsg_json)); };
      filterx { logmsg_json = json($logmsg_json); $MSG += logmsg_json; };
      destination(d); };
"""


class TestAppTransform:
    """modules/appmodel app-transform() port (Light
    parsers/app-transform/test_app_transform_parser_and_filterx.py)."""

    CASES = [
        ("non_existing_app", "", {}),
        ("filterx_only", "", {
            "filterx_only___filterx_1___step_1": True,
            "filterx_only___filterx_1___step_2": True,
            "filterx_only___filterx_2___step_1": True,
            "filterx_only___filterx_2___step_2": True}),
        ("filterx_only", "include-transforms(filterx_1)", {
            "filterx_only___filterx_1___step_1": True,
            "filterx_only___filterx_1___step_2": True}),
        ("parser_only", "", {
            "parser_only___parser_1___step_1": True,
            "parser_only___parser_1___step_2": True,
            "parser_only___parser_2___step_1": True,
            "parser_only___parser_2___step_2": True}),
        ("parser_only", "include-transforms(parser_1)", {
            "parser_only___parser_1___step_1": True,
            "parser_only___parser_1___step_2": True}),
        ("mixed", "", {
            "mixed___filterx_1___step_1": True,
            "mixed___filterx_1___step_2": True,
            "mixed___parser_1___step_1": True,
            "mixed___parser_1___step_2": True,
            "mixed___mixed_1___step_1": True,
            "mixed___mixed_1___step_2": True}),
        ("mixed", "exclude-transforms(parser_1 mixed_1)", {
            "mixed___filterx_1___step_1": True,
            "mixed___filterx_1___step_2": True}),
    ]

    @pytest.mark.parametrize("app,opts,expected", CASES,
                             ids=[f"{c[0]}_{i}" for i, c in enumerate(CASES)])
    def test_parser_and_filterx(self, app, opts, expected):
        import json
        cfg = compile_config(APP_TRANSFORM_CFG % (app, opts))
        out = cfg.run().rendered("d")
        assert len(out) == 1
        assert json.loads(out[0]) == expected


class TestSdataParser:
    """modules/syslogformat sdata-parser() (Light
    parsers/sdata-parser/test_sdata_parser.py)."""

    def test_light_roundtrip(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)
    template("[Originator@6876 sub=Vimsvc.ha-eventmgr opID=esxui-13c6-6b16 sid=5214bde6 user=root]")); };
parser p { sdata-parser(prefix(".SDATA.")); };
destination d { file("/dev/null" template("$SDATA\\n")); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run()
        assert r.processed("d") == 1
        assert r.rendered("d")[0].strip() == (
            '[Originator@6876 sub="Vimsvc.ha-eventmgr" '
            'opID="esxui-13c6-6b16" sid="5214bde6" user="root"]')

    def test_unparsable_drops(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("no sdata here")); };
parser p { sdata-parser(); };
destination d { file("/dev/null"); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run()
        assert r.processed("d") == 0

    def test_custom_prefix_columns(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)
    template("[a@1 x=\\"1\\"][b@2 y=\\"2\\"]")); };
parser p { sdata-parser(prefix(".sd.")); };
destination d { file("/dev/null" template("${.sd.a@1.x}|${.sd.b@2.y}\\n")); };
log { source(s); parser(p); destination(d); };
""")
        r = cfg.run()
        assert r.rendered("d")[0].strip() == "1|2"

    def test_prefix_pair_named_like_an_existing_column(self):
        # a pair named like an existing column replaces it (last
        # occurrence wins) and the column keeps its value in a row whose
        # sdata gives no such pair; no duplicate field either way
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
rewrite r { set("old" value(".x.a@1.b")); };
parser p { sdata-parser(prefix(".x.")); };
destination d { file("/dev/null" template("${.x.a@1.b}|${.x.a@1.c}")); };
log { source(s); rewrite(r); parser(p); destination(d); };
""")
        t = pa.table({"message": ['[a@1 b="new" b="last"]', '[a@1 c="z"]'],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        assert r.rendered("d") == ["last|", "old|z"]
        assert r.table("d").column_names.count(".x.a@1.b") == 1


class TestSdataParserEmptyBatch:
    """sdata-parser()'s stage on a batch of zero rows (a filter before it
    can leave one): its keep mask must still be boolean."""

    @pytest.mark.parametrize("opts,col", [("", "sdata"), ('prefix(".sd.")', None)])
    def test_zero_rows(self, opts, col):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
parser p {{ sdata-parser({opts}); }};
destination d {{ file("/dev/null"); }};
log {{ source(s); parser(p); destination(d); }};
""")
        t = pa.table({"message": pa.array([], pa.string())})
        for stage in cfg.parsers["p"]:
            t = stage(t)
        assert t.num_rows == 0
        assert t.column_names == ["message"] + ([col] if col else [])


class TestSclArrSolarisJunos:
    """scl/arr, scl/solaris, scl/junos ports."""

    def test_radarr_source(self, tmp_path):
        log = tmp_path / "radarr.txt"
        log.write_text(
            "2024-01-02 03:04:05.6|Info|DownloadService|Grabbed thing\n"
            "continuation line\n"
            "2024-01-02 03:04:06.7|Warn|Api|Slow response\n")
        cfg = compile_config(f"""
source s {{ radarr(dir("{tmp_path}")); }};
destination d {{ file("/dev/null"
    template("$PROGRAM|$LEVEL|${{.radarr.module}}|$MSG")); }};
log {{ source(s); destination(d); }};
""")
        r = cfg.run()
        assert r.processed("d") == 2
        out = r.rendered("d")
        assert out[0] == "Radarr|info|DownloadService|Grabbed thing\ncontinuation line"
        assert out[1] == "Radarr|warning|Api|Slow response"

    def test_extract_solaris_msgid(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)
    template("[ID 123456 kern.notice] real message text")); };
parser p { extract-solaris-msgid(); };
destination d { file("/dev/null"
    template("${.solaris.msgid}|$MSG")); };
log { source(s); parser(p); destination(d); };
""")
        out = cfg.run().rendered("d")
        assert out == ["123456|real message text"]

    def test_extract_solaris_msgid_passthrough(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("plain message")); };
parser p { extract-solaris-msgid(); };
destination d { file("/dev/null" template("${.solaris.msgid}|$MSG")); };
log { source(s); parser(p); destination(d); };
""")
        assert cfg.run().rendered("d") == ["|plain message"]

    def test_junos_application(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
parser p { syslog-parser(flags(syslog-protocol)); };
parser ap { app-parser(topic(syslog)); };
destination d { file("/dev/null" template("${.app.name}")); };
log { source(s); parser(p); parser(ap); destination(d); };
""")
        line = ('<14>1 2024-01-01T00:00:00Z fw RT_FLOW - RT_FLOW_SESSION_DENY '
                '[junos@2636.1.1.1.2.129 reason="policy deny"] session denied')
        t = pa.table({"message": [line, "plain unmatched line"],
                      "pri": [13, 13]})
        r = cfg.run(sources={"s": t})
        # only the junos row matches an application; app-parser drops
        # the rest (no-overlap chain ends in filterx false)
        assert r.rendered("d") == ["junos"]


class TestWindowsEventlogParser:
    """scl/windowseventlog block shape (db-parser + drop-unmatched); the
    reference ships a big patterndb XML — the block here takes file()
    (the ruleset is site data), exercised with a same-shape ruleset."""

    def test_block_parses_and_drops_unmatched(self, tmp_path):
        xml = tmp_path / "winevt.xml"
        xml.write_text("""<?xml version='1.0' encoding='UTF-8'?>
<patterndb version='4' pub_date='2024-01-01'>
  <ruleset name='WinAudit' id='11111111-1111-1111-1111-111111111111'>
    <pattern>winsec</pattern>
    <rules>
      <rule id='22222222-2222-2222-2222-222222222222' provider='user' class='logon'>
        <patterns>
          <pattern>logon ok user @NLSTRING:.win.TargetUserName@</pattern>
        </patterns>
      </rule>
    </rules>
  </ruleset>
</patterndb>
""")
        cfg = compile_config(f"""
source s {{ example-msg-generator(num(1)); }};
parser p {{ windows-eventlog-parser(file("{xml}")); }};
destination d {{ file("/dev/null"
    template("${{.win.TargetUserName}}|${{.classifier.class}}")); }};
log {{ source(s); parser(p); destination(d); }};
""")
        t = pa.table({
            "message": ["logon ok user ADMIN", "unrelated text"],
            "program": ["winsec", "winsec"],
            "pri": [13, 13],
        })
        r = cfg.run(sources={"s": t})
        assert r.processed("d") == 1
        assert r.rendered("d") == ["ADMIN|logon"]


class TestSclLogscale:
    """scl/logscale port + the filter-grammar $(if) condition."""

    def test_logscale_body(self):
        import json
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { logscale(token("TOK1")); };
log { source(s); destination(d); };
""")
        t = pa.table({"message": ["hello world"], "pri": [13],
                      "program": ["app"]})
        r = cfg.run(sources={"s": t})
        d = json.loads(r.rendered("d")[0])
        assert d["rawstring"] == "hello world"
        attrs = json.loads(d["attributes"])
        assert attrs["PROGRAM"] == "app"
        assert "MESSAGE" not in attrs  # --exclude MESSAGE

    def test_if_filter_grammar_condition(self):
        from axosyslog_ray.functions.templates import Template
        t = pa.table({"message": ["m"], "pri": [13], "program": ["app"]})
        assert Template('$(if ("x" ne "") y n)').eval(t).tolist() == ["y"]
        assert Template("$(if ('' eq '') y n)").eval(t).tolist() == ["y"]
        assert Template('$(if (program("app")) y n)').eval(t).tolist() == ["y"]
        assert Template('$(if (program("zz")) y n)').eval(t).tolist() == ["n"]


class TestUserTemplateFunctionScoping:
    """r5 ADVICE: `template-function` registrations are scoped to the
    compiling Config (lib/template/user-function.c registers into the
    GlobalConfig's plugin context) — one config's user functions must
    not leak into a later config compiled in the same process, nor
    shadow built-ins engine-wide."""

    SRC = 'source s { example-msg-generator(num(1) values("HOST => h1")); };'

    def test_no_cross_config_leak(self):
        cfg1 = compile_config(f"""
template-function scoped_fn "from-cfg1";
{self.SRC}
destination d {{ file("o.log" template("$(scoped_fn)\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg1.run().rendered("d")] == \
               ["from-cfg1"]
        # a second config using the same name must NOT see cfg1's fn
        import pytest as _pytest
        from axosyslog_ray.functions.templates import TemplateCompileError
        with _pytest.raises(TemplateCompileError, match="scoped_fn"):
            cfg2 = compile_config(f"""
{self.SRC}
destination d {{ file("o.log" template("$(scoped_fn)\\n")); }};
log {{ source(s); destination(d); }};
""")
            cfg2.run().rendered("d")

    def test_builtin_shadow_is_config_local(self):
        cfg1 = compile_config(f"""
template-function lowercase "shadowed";
{self.SRC}
destination d {{ file("o.log" template("$(lowercase)\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg1.run().rendered("d")] == \
               ["shadowed"]
        cfg2 = compile_config(f"""
{self.SRC}
destination d {{ file("o.log" template("$(lowercase ABC)\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg2.run().rendered("d")] == ["abc"]


class TestPythonTemplateFunction:
    """$(python) from a config python{} block (modules/python/python-tf.c):
    fname(msg, b"arg", ...) with the dict-like msg view, stringified
    return, '<error>' on lookup/invoke failure, config-scoped."""

    def test_call_args_bytes_and_msg_access(self):
        cfg = compile_config("""
python {
def shout(msg, suffix):
    assert isinstance(suffix, bytes)
    return msg['MESSAGE'].upper() + suffix.decode()
};
source s { example-msg-generator(num(1) template("abc")); };
destination d { file("o.log" template("$(python shout !)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == ["ABC!"]

    def test_error_and_unknown_yield_error_literal(self):
        cfg = compile_config("""
python {
def boom(msg):
    raise RuntimeError("nope")
};
source s { example-msg-generator(num(1) template("x")); };
destination d { file("o.log" template("$(python boom)|$(python nosuch)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["<error>|<error>"]

    def test_non_string_return_stringifies(self):
        cfg = compile_config("""
python {
def count(msg):
    return len(msg['MESSAGE'])
};
source s { example-msg-generator(num(1) template("abcd")); };
destination d { file("o.log" template("$(python count)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == ["4"]

    def test_blocks_accumulate_and_scope_per_config(self):
        cfg = compile_config("""
python {
A = "left"
};
python {
def f(msg):
    return A + "-" + msg['MESSAGE']
};
source s { example-msg-generator(num(1) template("m")); };
destination d { file("o.log" template("$(python f)\\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == ["left-m"]
        # a second config without a python block must not see $(python)
        import pytest as _pytest

        from axosyslog_ray.functions.templates import TemplateCompileError
        cfg2 = compile_config("""
source s { example-msg-generator(num(1) template("m")); };
destination d { file("o.log" template("$(python f)\\n")); };
log { source(s); destination(d); };
""")
        with _pytest.raises(TemplateCompileError,
                            match='Unknown template function "python"'):
            cfg2.run().rendered("d")


class TestRound5SclWrappers:
    """Thin SCL wrappers around transport dests (scl/azure, scl/google,
    scl/graphite, scl/loggly, scl/logmatic, scl/hdfs, scl/nodejs) —
    transports are inert in the batch engine; what is pinned here is
    that every wrapper compiles, routes, counts, and renders the same
    payload template the reference splices."""

    def _run_one(self, dest_stmt, n=2):
        cfg = compile_config(f"""
source s {{ example-msg-generator(num({n}) template("hello")); }};
destination d {{ {dest_stmt} }};
log {{ source(s); destination(d); }};
""")
        r = cfg.run()
        assert r.processed("d") == n
        return r

    def test_azure_monitor(self):
        r = self._run_one(
            'azure-monitor(dce_uri("https://dce.example") dcr_id("dcr1") '
            'stream_name("Custom-Table") template("$MESSAGE"));')
        assert r.rendered("d") == ["hello", "hello"]

    def test_azure_monitor_builtin_delegates(self):
        r = self._run_one(
            'azure-monitor-builtin(dce_uri("https://dce.example") '
            'dcr_id("dcr1") table_name("Syslog") template("$MESSAGE"));')
        assert r.rendered("d") == ["hello", "hello"]

    def test_google_pubsub_body_renders_base64(self):
        import base64
        import json as _json
        r = self._run_one(
            'google-pubsub(project("p1") topic("t1"));', n=1)
        body = _json.loads(r.rendered("d")[0])
        assert base64.b64decode(body["data"]).decode() == "hello"

    def test_graphite_renders_graphite_output(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("x") values("kpi.load" => "1.5")); };
destination d { graphite(payload("--key kpi.*")); };
log { source(s); destination(d); };
""")
        r = cfg.run()
        out = r.rendered("d")[0]
        assert out.startswith("kpi.load 1.5 ")

    def test_loggly_and_logmatic_render_frames(self):
        r = self._run_one('loggly(token("TOK") tag("t"));')
        assert '[TOK@41058 tag="t"] hello' in r.rendered("d")[0]
        r2 = self._run_one('logmatic(token("TOK"));')
        assert r2.rendered("d")[0].startswith("TOK <")

    def test_hdfs_file_analogue(self):
        r = self._run_one(
            'hdfs(hdfs_uri("hdfs://nn:8020") hdfs_file("logs/out.txt") '
            'template("$MESSAGE\\n"));')
        assert [x.rstrip("\n") for x in r.rendered("d")] == ["hello", "hello"]

    def test_nodejs_source(self, tmp_path):
        # scl/nodejs: winston JSON array payload; [1] element is the
        # record, .message promoted to $MESSAGE then cleared
        p = tmp_path / "node.log"
        p.write_text('["info", {"message": "boot ok", "level": "info"}]\n')
        cfg = compile_config(f"""
source s {{ nodejs(filename("{p}")); }};
destination d {{ file("o.log" template("$MESSAGE|${{.nodejs.winston.level}}|${{.nodejs.winston.message}}\\n")); }};
log {{ source(s); destination(d); }};
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["boot ok|info|"]

    def test_mariadb_and_postgresql_parsers_resolve(self):
        # scl/mariadb/audit.conf example payload
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("columnstore-1 eff8a68bcd7f,user1,172.18.0.1,32,394,QUERY,syslog_ng,'SELECT 1',0")); };
parser p { mariadb-audit-parser(prefix(".mariadb.audit.")); };
destination d { file("o.log" template("${.mariadb.audit.username}|${.mariadb.audit.database}|${.mariadb.audit.operation}|${.mariadb.audit.serverhost}\n")); };
log { source(s); parser(p); destination(d); };
""")
        out = [x.rstrip("\n") for x in cfg.run().rendered("d")]
        assert out == ["user1|syslog_ng|QUERY|eff8a68bcd7f"]
        # postgresql-csvlog-parser resolves through the config too
        csv = ('2023-08-08 12:05:52.805 UTC,appuser,mydb,22113,'
               '"10.0.0.1:5432",64d221e0.5661,1,"SELECT",'
               '2023-08-08 12:05:20 UTC,6/117,0,LOG,00000,'
               '"duration: 1.2 ms",,,,,,,,,"psql","client backend",,0')
        cfg2 = compile_config(f"""
source s {{ example-msg-generator(num(1) template('{csv}')); }};
parser p {{ postgresql-csvlog-parser(prefix(".pgsql.")); }};
destination d {{ file("o.log" template("${{.pgsql.username}}|${{.pgsql.database}}|${{.pgsql.severity}}\\n")); }};
log {{ source(s); parser(p); destination(d); }};
""")
        out2 = [x.rstrip("\n") for x in cfg2.run().rendered("d")]
        assert out2 == ["appuser|mydb|LOG"]


class TestRound5ReviewFixes:
    def test_user_template_function_in_rewrite_at_run(self):
        # regression: the user-function overlay must be active during
        # run() (rewrite/filter templates compile lazily there)
        cfg = compile_config("""
template-function "shout" "$(uppercase $MESSAGE)!";
source s { example-msg-generator(num(1) template("hi")); };
rewrite r { set("$(shout)", value("MESSAGE")); };
destination d { file("o.log" template("$MESSAGE\n")); };
log { source(s); rewrite(r); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == ["HI!"]

    def test_load_balancer_nested_failover_raw_splice(self):
        # failover(servers(...) mode(...)) must splice VERBATIM — the
        # kwargs view of nested parens collapses to True
        from axosyslog_ray.config import _Stream, _parse_driver, tokenize
        from axosyslog_ray.config import _generate_load_balancer
        text = ('network-load-balancer(targets("n1 n2") '
                'failover(servers("nA" "nB") mode(round-robin)))')
        s = _Stream(tokenize(text), text)
        d = _parse_driver(s)
        gen = _generate_load_balancer(d)
        assert 'failover(servers("nA" "nB") mode(round-robin))' in gen
        assert "True" not in gen


class TestTypedMsgGeneratorValues:
    """example-msg-generator values() typed constructors (the Light
    types suite's create_config shape)."""

    def test_typed_values_columns_and_render(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) template("m") values(
  "values.str" => string("string"),
  "values.bool" => boolean(true),
  "values.int" => int(5),
  "values.double" => double(32.5),
  "values.datetime" => datetime("1701350398.123000+01:00"),
  "values.list" => list("foo,bar,baz"),
  "values.null" => null(""),
  "values.bytes" => bytes("binary whatever"),
  "values.json" => json('{"emb_key1": "v1"}'),
  "plain" => "kpi"
)); };
destination d { file("o.log" template("${values.str}|${values.bool}|${values.int}|${values.double}|${values.list}|${plain}\n")); };
log { source(s); destination(d); };
""")
        out = [x.rstrip("\n") for x in cfg.run().rendered("d")]
        # LM_VT_LIST renders via the str-repr list codec
        assert out == ["string|true|5|32.5|foo,bar,baz|kpi"]

    def test_typed_values_reach_filterx_typed(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) values(
  "vint" => int(5), "vdouble" => double(32.5), "vbool" => boolean(true)
)); };
destination d { file("o.log" template("$MESSAGE\n")); };
log { source(s);
      filterx { $MESSAGE = repr($vint + 1) + "|" + repr($vdouble) + "|" + repr($vbool); };
      destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == \
               ["6|32.5|true"]

    def test_legacy_single_string_form_still_works(self):
        cfg = compile_config("""
source s { example-msg-generator(num(1) values("a.k => v1 a.j => v2")); };
destination d { file("o.log" template("${a.k}|${a.j}\n")); };
log { source(s); destination(d); };
""")
        assert [x.rstrip("\n") for x in cfg.run().rendered("d")] == ["v1|v2"]


class TestAxoRouterConfigCompiles:
    """The reference Light suite's pipeline-smoke artifact
    (tests/light/shared_files/callgrind-syslog-ng.conf — a real 775-line
    AxoRouter config: nested channels, stray empty statements,
    parallelize(), quoted statement names, # comments inside filterx,
    elvis `? :`, dpath =??, `unset(...) ?? true` guards) must COMPILE
    through the front end. A full-run parity check remains future work
    (the big classification filterx chains execute but declared-variable
    plumbing through the deep junction tree is not yet pinned)."""

    CONF = ("/root/reference/tests/light/shared_files/"
            "callgrind-syslog-ng.conf")

    def test_compiles(self):
        import os
        if not os.path.exists(self.CONF):
            import pytest as _p
            _p.skip("reference Light shared files not present")
        cfg = compile_config(open(self.CONF).read())
        assert "axorouter-syslog-tcp-514" in cfg.sources
        assert "filedest-dd4560bf" in cfg.destinations
        assert [c.name for c in cfg.paths] == ["axorouter-minio-axorouter"]


def _expand_oracle(table, rows, trows, field_map):
    """_ExpandMap's contract, one dict per row: a key's value is the
    row's last pair of that key; an existing column keeps its (string-
    rendered) value where the parse gave none; a new column is typed
    when every value's json type is one scalar type."""
    cols = {c: table.column(c).to_pylist() for c in table.column_names}
    strs = {c: [None if v is None else str(v).lower()
                if isinstance(v, bool) else str(v) for v in vals]
            for c, vals in cols.items()}
    dicts = [dict(row or []) for row in rows]
    tdicts = [dict(tr or []) for tr in trows] if trows is not None else None
    keys = list(dict.fromkeys(k for row in rows for k, _ in (row or [])))
    for k in keys:
        vals = [d.get(k) for d in dicts]
        cn = field_map.get(k, k)
        if cn in cols:
            cols[cn] = strs[cn] = [o if v is None else v
                                   for v, o in zip(vals, strs[cn])]
            continue
        if tdicts is not None:
            tset = {td.get(k) for td, d in zip(tdicts, dicts)
                    if d.get(k) is not None} - {None}
            conv = {"boolean": lambda v: v == "true", "integer": int,
                    "double": float}.get(tset.pop() if len(tset) == 1 else "")
            if conv:
                vals = [None if v is None else conv(v) for v in vals]
        cols[cn] = vals
        strs[cn] = [None if v is None else str(v) for v in vals]
    return cols


class TestExpandMap:
    """_ExpandMap (a parser's map column -> message columns)."""

    def test_later_parser_keeps_key_an_earlier_one_set(self):
        # the reference sets only the pairs a parser found: p2 finds no
        # `k` in "k=1", so p1's value stays
        cfg = compile_config("""
source s { example-msg-generator(num(1)); };
destination d { file("o.log"); };
parser p1 { kv-parser(); };
parser p2 { kv-parser(value-separator(":")); };
log { source(s); parser(p1); parser(p2); destination(d); };
""")
        r = cfg.run(sources={"s": pa.table({"message": ["k=1", "k:2"]})})
        assert r.table("d").column("k").to_pylist() == ["1", "2"]

    def test_matches_dict_per_row_oracle(self):
        """Property: duplicate keys, null maps and null values, keys that
        hit existing columns (a string and an int64 one, and `MESSAGE`
        through the builtin field map), and typed json keys expand as
        the dict-per-row oracle says."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from axosyslog_ray.config import _ExpandMap

        mtype = pa.map_(pa.string(), pa.string())
        typed = st.sampled_from([
            ("integer", "7"), ("integer", "-12"), ("boolean", "true"),
            ("boolean", "false"), ("double", "1.5"), ("double", "1e+20"),
            ("string", "x y"), ("string", ""), (None, None)])
        pair = st.tuples(st.sampled_from(["a", "b", "MESSAGE", "x", "n", "c.d"]),
                         typed)
        row = st.one_of(st.none(), st.lists(pair, max_size=5))
        old = st.one_of(st.none(), st.sampled_from(["o1", "o2"]))

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.tuples(row, old, st.one_of(st.none(), st.integers(-5, 5))),
                        min_size=1, max_size=12),
               st.booleans(), st.integers(0, 3))
        def prop(drawn, with_types, cut):
            rows = [None if r is None else [(k, v) for k, (_, v) in r]
                    for r, _, _ in drawn]
            trows = [None if r is None else [(k, t) for k, (t, _) in r]
                     for r, _, _ in drawn]
            base = pa.table({
                "message": pa.array([f"m{i}" for i in range(len(drawn))]),
                "x": pa.array([o for _, o, _ in drawn], pa.string()),
                "n": pa.array([i for _, _, i in drawn], pa.int64())})
            t = base.append_column("__m", pa.array(rows, mtype))
            if with_types:
                t = t.append_column("__m_types", pa.array(trows, mtype))
            # a sliced batch: the map column's offsets do not start at 0
            t, base = t.slice(cut), base.slice(cut)
            rows = rows[cut:]
            trows = trows[cut:] if with_types else None
            fmap = {"MESSAGE": "message"}
            got = _ExpandMap(lambda x: x, "__m", field_map=fmap,
                             types_col="__m_types" if with_types else None)(t)
            want = _expand_oracle(base, rows, trows, fmap)
            assert got.column_names == list(want)
            assert got.to_pydict() == want

        prop()
