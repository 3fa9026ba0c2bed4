"""pdbtool conformance runner tests (reference pdbtool.c / pdb-example.c)."""

import json

from axosyslog_ray.pdbtool import (
    DEFAULT_EXAMPLES, PdbExample, load_ruleset, main, match_one, run_conformance,
)
from axosyslog_ray.stages.patterndb import PatternDB, PdbRule


def test_bundled_conformance_passes():
    assert run_conformance() == []


def test_conformance_reports_wrong_value():
    bad = [PdbExample("eth0: link up", program="kernel",
                      expected_rule="kernel-link-up", expected={"interface": "WRONG"})]
    fails = run_conformance(examples=bad)
    assert len(fails) == 1 and "interface" in fails[0]


def test_conformance_reports_wrong_rule():
    bad = [PdbExample("no match here", program="su", expected_rule="su-failed")]
    fails = run_conformance(examples=bad)
    assert len(fails) == 1 and "rule" in fails[0]


def test_load_ruleset_json(tmp_path):
    doc = {
        "rules": [
            {
                "rule_id": "r1", "pattern": "error code @NUMBER:code@", "program": "app",
                "tags": ["err"],
                "examples": [{"message": "error code 42", "expected": {"code": "42"}}],
            }
        ]
    }
    p = tmp_path / "rules.json"
    p.write_text(json.dumps(doc))
    rules, examples = load_ruleset(str(p))
    assert run_conformance(rules, examples) == []
    got = match_one(PatternDB(rules), "error code 7", "app")
    assert got["values"] == {"code": "7"} and got["tags"] == ["err"]


def test_cli_test_exit_codes(capsys):
    assert main(["test"]) == 0
    out = capsys.readouterr().out
    assert "4/4 examples passed" in out


# ---- reference-format .pdb XML loading (modules/correlation/pdb-load.c) ----

PDB_XML = """
<patterndb version='6' pub_date='2026-08-17'>
 <ruleset name='auth' id='rs-1'>
  <patterns>
   <pattern>sshd</pattern>
  </patterns>
  <rules>
   <rule id='xml-sshd-accepted' provider='test' class='system'>
    <patterns>
     <pattern>Accepted @ESTRING:auth_method: @for @ESTRING:user: @from @IPv4:client_ip@ port @NUMBER:port@ ssh2</pattern>
    </patterns>
    <tags>
     <tag>auth</tag>
     <tag>ssh</tag>
    </tags>
    <values>
     <value name='secevt_verdict'>ACCEPT</value>
    </values>
    <examples>
     <example>
      <test_message program='sshd'>Accepted password for bob from 10.1.2.3 port 2222 ssh2</test_message>
      <test_values>
       <test_value name='auth_method'>password</test_value>
       <test_value name='user'>bob</test_value>
       <test_value name='client_ip'>10.1.2.3</test_value>
       <test_value name='port'>2222</test_value>
      </test_values>
     </example>
    </examples>
   </rule>
   <rule id='xml-qstring' provider='test' class='system'>
    <patterns>
     <pattern>session opened for @QSTRING:quoted_user:''@</pattern>
    </patterns>
    <examples>
     <example>
      <test_message program='sshd'>session opened for 'alice'</test_message>
      <test_values>
       <test_value name='quoted_user'>alice</test_value>
      </test_values>
     </example>
    </examples>
   </rule>
  </rules>
 </ruleset>
</patterndb>
"""


def test_load_pdb_xml_string_and_conformance():
    from axosyslog_ray.pdbtool import load_ruleset_xml, run_conformance

    rules, examples = load_ruleset_xml(PDB_XML)
    assert [r.rule_id for r in rules] == ["xml-sshd-accepted", "xml-qstring"]
    assert rules[0].program == "sshd" and rules[0].tags == ["auth", "ssh"]
    assert rules[0].values == {"secevt_verdict": "ACCEPT"}
    assert len(examples) == 2 and examples[0].expected["client_ip"] == "10.1.2.3"
    assert run_conformance(rules, examples) == []


def test_load_pdb_xml_file(tmp_path):
    from axosyslog_ray.pdbtool import load_ruleset, run_conformance

    p = tmp_path / "auth.pdb"
    p.write_text(PDB_XML)
    rules, examples = load_ruleset(str(p))
    assert len(rules) == 2
    assert run_conformance(rules, examples) == []


def test_load_pdb_xml_rejects_wrong_root():
    import pytest as _pytest

    from axosyslog_ray.pdbtool import load_ruleset_xml

    with _pytest.raises(ValueError, match="patterndb"):
        load_ruleset_xml("<notpdb/>")


def test_pdbtool_cli_missing_file_friendly():
    from axosyslog_ray.pdbtool import main

    assert main(["test", "/nonexistent/x.pdb"]) == 2


def test_radix_selection_longest_literal_prefix_wins():
    """Overlapping patterns: the radix trie picks the most specific
    literal prefix regardless of declaration order (radix.c)."""
    import pyarrow as pa

    from axosyslog_ray.stages.patterndb import PatternDB, PdbRule

    rules = [
        PdbRule("generic", "Accepted @ANYSTRING:rest@", program="sshd"),
        PdbRule("specific", "Accepted password for @ESTRING:user: @", program="sshd"),
    ]
    t = pa.table({"message": ["Accepted password for bob "],
                  "program": pa.array(["sshd"], type=pa.string())})
    assert PatternDB(rules)(t).column("pdb_rule").to_pylist() == ["specific"]


def test_pdbtool_uses_radix_selection():
    """pdbtool match/test select rules the way db-parser() does: the
    radix winner, not the first declared rule."""
    rules = [
        PdbRule("generic", "Accepted @ANYSTRING:rest@", program="sshd"),
        PdbRule("specific", "Accepted password for @ESTRING:user: @", program="sshd"),
    ]
    got = match_one(PatternDB(rules), "Accepted password for bob ", "sshd")
    assert got["rule"] == "specific" and got["values"] == {"user": "bob"}
    ex = PdbExample("Accepted password for bob ", program="sshd",
                    expected_rule="specific", expected={"user": "bob"})
    assert run_conformance(rules, [ex]) == []
    ex = PdbExample("Accepted password for bob ", program="sshd",
                    expected_rule="generic")
    assert len(run_conformance(rules, [ex])) == 1


def test_radix_trie_literal_beats_parser_mid_pattern():
    """radix.c _find_node_recursively: at every node a literal child is
    preferred over parser children — not just at the pattern start."""
    import pyarrow as pa

    from axosyslog_ray.stages.patterndb import PatternDB, PdbRule

    rules = [
        PdbRule("wild", "user @STRING:who@ logged in", program="app"),
        PdbRule("lit", "user admin logged in", program="app"),
    ]
    t = pa.table({
        "message": ["user admin logged in", "user bob logged in"],
        "program": pa.array(["app", "app"], type=pa.string()),
    })
    got = PatternDB(rules)(t).column("pdb_rule").to_pylist()
    assert got == ["lit", "wild"]


def test_radix_partial_prefix_fallback():
    """radix.c:1552 _find_node_with_state: when no rule matches the
    whole message, a rule whose complete pattern matches a PREFIX of
    the message wins (require_complete_match second pass)."""
    import pyarrow as pa

    from axosyslog_ray.stages.patterndb import PatternDB, PdbRule

    rules = [PdbRule("pfx", "session opened for @ESTRING:user: @", program="su")]
    t = pa.table({
        "message": ["session opened for root by (uid=0)",
                    "something else entirely"],
        "program": pa.array(["su", "su"], type=pa.string()),
    })
    out = PatternDB(rules)(t)
    assert out.column("pdb_rule").to_pylist() == ["pfx", None]
    # captures come from the trie walk for partial matches
    vals = out.column("pdb_values").to_pylist()
    assert dict(vals[0])["user"] == "root"


def test_radix_backtracking_across_parser_edges():
    """A greedy parser that dead-ends must backtrack to try the next
    parser edge (radix.c node-level backtracking)."""
    from axosyslog_ray.stages.radix import RadixTree

    tree = RadixTree()
    # NUMBER consumes greedily but 'x' after it only continues in rule B
    tree.insert("id @NUMBER:n@ end", "A")
    tree.insert("id @ESTRING:e:;@ end", "B")
    rule, caps = tree.lookup("id 123 end")
    assert rule == "A" and dict(caps)["n"] == "123"
    rule, caps = tree.lookup("id 123x7; end")
    assert rule == "B" and dict(caps)["e"] == "123x7"


def test_radix_qstring_estring_capture_conventions():
    """QSTRING strips quotes; ESTRING excludes the terminator
    (radix.c match->ofs/len conventions)."""
    from axosyslog_ray.stages.radix import RadixTree

    tree = RadixTree()
    tree.insert("said @QSTRING:q:\"@ to @ESTRING:who:!@", "R")
    rule, caps = tree.lookup('said "hi there" to bob!')
    assert rule == "R"
    d = dict(caps)
    assert d["q"] == "hi there" and d["who"] == "bob"


def test_radix_program_specificity():
    """A rule bound to the row's exact program shadows a match-any rule
    (the reference's program-level radix lookup)."""
    import pyarrow as pa

    from axosyslog_ray.stages.patterndb import PatternDB, PdbRule

    rules = [
        PdbRule("any", "start @ANYSTRING:r@", program=None),
        PdbRule("mine", "start @ANYSTRING:r@", program="svc"),
    ]
    t = pa.table({
        "message": ["start x", "start y"],
        "program": pa.array(["svc", "other"], type=pa.string()),
    })
    got = PatternDB(rules)(t).column("pdb_rule").to_pylist()
    assert got == ["mine", "any"]


class TestReferencePatternEdgeCases:
    """Pins from the reference's own corpus
    (modules/correlation/tests/test_patterndb.c:766-866 + .h fixtures)."""

    def _db(self, xml):
        from axosyslog_ray.pdbtool import load_ruleset_xml
        from axosyslog_ray.stages.patterndb import PatternDB

        rules, _ = load_ruleset_xml(xml)
        return PatternDB(rules)

    def _one(self, db, message, program):
        from axosyslog_ray.pdbtool import match_one

        return match_one(db, message, program)

    OPTSET_XML = """
<patterndb version='6' pub_date='2010-02-22'>
 <ruleset name='rails' id='8db0c6d8'>
  <patterns><pattern>prog1</pattern></patterns>
  <rules>
   <rule id='8e8384e8' provider='test' class='system'>
    <patterns><pattern>@QSTRING:id:[]@@OPTIONALSET:s: @</pattern></patterns>
   </rule>
  </rules>
 </ruleset>
</patterndb>"""

    def test_optionalset_at_end_of_pattern(self):
        # test_patterndb.c:817: OPTIONALSET as the LAST parser matches
        # zero chars at end-of-input; with a trailing space it consumes it
        uid = "dcef7d1c-6b79-48c6-a1ac-39cdc9bff966"
        db = self._db(self.OPTSET_XML)
        r = self._one(db, f"[{uid}] ", "prog1")
        assert r["rule"] == "8e8384e8" and r["values"]["id"] == uid
        assert r["values"]["s"] == " "
        r = self._one(db, f"[{uid}]", "prog1")
        assert r["rule"] == "8e8384e8" and r["values"]["s"] == ""

    def test_set_at_end_of_input_does_not_match_zero_chars(self):
        # test_patterndb.c:850: @SET@ needs >= 1 char
        xml = """
<patterndb version='6'><ruleset name='s' id='1'>
  <patterns><pattern>prog1</pattern></patterns>
  <rules><rule id='r1' provider='t' class='system'>
    <patterns><pattern>prefix@SET:s: @</pattern></patterns>
  </rule></rules>
</ruleset></patterndb>"""
        db = self._db(xml)
        assert self._one(db, "prefix", "prog1")["rule"] is None
        r = self._one(db, "prefix ", "prog1")
        assert r["rule"] == "r1" and r["values"]["s"] == " "

    def test_match_in_program(self):
        # test_patterndb.c:766: the ruleset <pattern> matches the
        # PROGRAM through the pattern grammar; captures merge into values
        xml = """
<patterndb version='6'><ruleset name='p' id='2'>
  <patterns><pattern>sshd @NUMBER:num@</pattern></patterns>
  <rules><rule id='r2' provider='t' class='system'>
    <patterns><pattern>almafa</pattern></patterns>
  </rule></rules>
</ruleset></patterndb>"""
        db = self._db(xml)
        r = self._one(db, "almafa", "sshd 5")
        assert r["rule"] == "r2" and r["values"]["num"] == "5"
        # non-matching program -> no classification
        assert self._one(db, "almafa", "crond 5")["rule"] is None

    def test_program_template_style_extraction(self):
        # test_patterndb.c:780 test_program_template: program captures
        # AND message captures both land in values
        xml = """
<patterndb version='6'><ruleset name='p' id='3'>
  <patterns><pattern>sshd @NUMBER:num@</pattern></patterns>
  <rules><rule id='r3' provider='t' class='system'>
    <patterns><pattern>almafa @ESTRING:str:@</pattern></patterns>
  </rule></rules>
</ruleset></patterndb>"""
        db = self._db(xml)
        r = self._one(db, "almafa kortefa", "sshd 5")
        assert r["values"] == {"num": "5", "str": "kortefa"}

    def test_prefix_match_keeps_program_captures(self):
        # a rule that wins through the partial fallback carries the
        # program's captures like a complete match does
        xml = """
<patterndb version='6'><ruleset name='p' id='4'>
  <patterns><pattern>sshd @NUMBER:num@</pattern></patterns>
  <rules><rule id='r4' provider='t' class='system'>
    <patterns><pattern>almafa @ESTRING:str: @</pattern></patterns>
  </rule></rules>
</ruleset></patterndb>"""
        r = self._one(self._db(xml), "almafa kortefa rest", "sshd 5")
        assert r["rule"] == "r4" and r["values"] == {"num": "5", "str": "kortefa"}


class TestDumpDictionaryMerge:
    """pdbtool dump / dictionary / merge modes (pdbtool.c:1282-1287)."""

    def _xml(self, tmp_path, name="a.pdb"):
        p = tmp_path / name
        p.write_text("""<?xml version='1.0'?>
<patterndb version='4' pub_date='2024-01-01'>
 <ruleset name='ssh' id='r1'>
  <patterns><pattern>sshd</pattern></patterns>
  <rules>
   <rule id='sshd-acc' class='system'>
    <patterns><pattern>Accepted @ESTRING:auth_method: @for @ESTRING:user: @</pattern></patterns>
    <tags><tag>auth</tag></tags>
    <values><value name='secure'>yes</value></values>
    <examples><example>
      <test_message program='sshd'>Accepted password for bob </test_message>
      <test_values><test_value name='user'>bob</test_value></test_values>
    </example></examples>
   </rule>
  </rules>
 </ruleset>
</patterndb>""")
        return str(p)

    def test_dump_shows_parsers_and_rule(self, tmp_path, capsys):
        from axosyslog_ray.pdbtool import main
        assert main(["dump", "--pdb", self._xml(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "program 'sshd'" in out
        assert "@ESTRING:auth_method@" in out
        assert "rule_id='sshd-acc'" in out

    def test_dictionary_names_and_tags(self, tmp_path, capsys):
        from axosyslog_ray.pdbtool import main
        assert main(["dictionary", self._xml(tmp_path)]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["auth_method", "user", "secure"]
        assert main(["dictionary", "--dump-tags",
                     self._xml(tmp_path)]) == 0
        assert capsys.readouterr().out.split() == ["auth"]

    def test_merge_roundtrip_and_test_mode(self, tmp_path, capsys):
        from axosyslog_ray.pdbtool import load_ruleset, main
        a = self._xml(tmp_path, "a.pdb")
        b = tmp_path / "b.pdb"
        b.write_text("""<patterndb version='4'>
 <ruleset name='su' id='r2'>
  <patterns><pattern>su</pattern></patterns>
  <rules><rule id='su-f' class='violation'>
    <patterns><pattern>failed for @ESTRING:user:@</pattern></patterns>
  </rule></rules>
 </ruleset>
</patterndb>""")
        out = tmp_path / "merged.pdb"
        rc = main(["merge", "--pdb", str(out), a, str(b)])
        assert rc == 0
        rules, examples = load_ruleset(str(out))
        assert {r.rule_id for r in rules} == {"sshd-acc", "su-f"}
        assert {r.pattern for r in rules} == {
            "Accepted @ESTRING:auth_method: @for @ESTRING:user: @",
            "failed for @ESTRING:user:@"}
        assert len(examples) == 1 and examples[0].expected == {"user": "bob"}
        # the merged file passes its own embedded conformance corpus
        capsys.readouterr()
        assert main(["test", str(out)]) == 0


# a ruleset that reaches every branch of the matcher: overlapping rules
# (trie-resolved), prefix-only matches, match-any and program-bound
# trees, a program pattern, a non-RE2 pattern, static values and tags
SPLIT_RULES = [
    PdbRule("generic", "Accepted @ANYSTRING:rest@", program="sshd", tags=["auth", "b"],
            values={"k": "v"}),
    PdbRule("specific", "Accepted password for @ESTRING:user: @", program="sshd",
            tags=["auth"]),
    PdbRule("wild", "user @STRING:who@ logged in"),
    PdbRule("lit", "user admin logged in", tags=["x"]),
    PdbRule("pfx", "session opened for @ESTRING:user: @", program="su", tags=["s", "a"]),
    PdbRule("num", "id @NUMBER:n@ end", program="app", values={"z": "1"}),
    PdbRule("est", "id @ESTRING:e:;@ end", program="app", tags=["t"]),
    PdbRule("prog", "almafa @ESTRING:str:@", program_pattern="sshd @NUMBER:num@",
            tags=["p"]),
    PdbRule("pcre", "look @PCRE:x:(?=a)\\w+@ here", tags=["pc"]),
]
SPLIT_MESSAGES = [
    "Accepted password for bob ", "Accepted publickey x", "user admin logged in",
    "user bob logged in", "session opened for root by (uid=0)", "id 123 end",
    "id 123x7; end", "almafa kortefa", "look abc here", "look xbc here", "nothing",
    "", "session opened for ", "Accepted password for bob extra",
]


def test_patterndb_batch_split_invariance():
    """Classifying a batch in one call or in consecutive slices gives
    the same rows: per-batch state (program gates, the trie-walk row
    sets, the scatter of values and tags) must not leak across rows."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    db = PatternDB(SPLIT_RULES)
    row = st.tuples(
        st.none() | st.sampled_from(SPLIT_MESSAGES) | st.text("abdnor :;!", max_size=10),
        st.sampled_from(["sshd", "su", "app", "sshd 5", "crond 5", "", None]),
        st.none() | st.lists(st.sampled_from(["auth", "x", "zz", "a"]), max_size=3))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(row, max_size=16), st.lists(st.integers(0, 16), max_size=4))
    def check(rows, cuts):
        t = pa.table({"message": pa.array([r[0] for r in rows], pa.string()),
                      "program": pa.array([r[1] for r in rows], pa.string()),
                      "tags": pa.array([r[2] for r in rows], pa.list_(pa.string()))})
        whole = db(t)
        bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
        parts = [db(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:])]
        assert pa.concat_tables(parts or [whole]).to_pylist() == whole.to_pylist()
        assert whole.schema == db(t.slice(0, 0)).schema

    check()


# SPLIT_RULES plus the value shapes the map build must keep: a static key
# named like a capture, a program pattern whose programs give capture
# lists of different lengths, and a non-RE2 pattern with a group that
# may not take part (a null capture)
VALUE_RULES = SPLIT_RULES + [
    PdbRule("dup", "dup @STRING:d@ x", values={"d": "static", "e": "2"}),
    PdbRule("cron", "ran @NUMBER:job@", program_pattern="cron@PCRE:sfx:(?:-(?P<ver>\\d+))?@",
            values={"k": "c"}),
    PdbRule("opt", "opt @PCRE:o:(?=[ab])(?:(?P<oa>a)|b)@ end", values={"oa": "s"}),
]
VALUE_MESSAGES = SPLIT_MESSAGES + [
    "dup y x", "dup y", "ran 42", "ran 42 more", "opt a end", "opt b end",
]
VALUE_PROGRAMS = ["sshd", "su", "app", "sshd 5", "crond 5", "cron", "cron-7", "", None]


def _expected_values(message: str, program: str | None, rule_id: str | None):
    """The pdb_values of one row, per row in Python: the rule's static
    values, the program pattern's non-null captures, then the message's
    non-null captures in group order — the full-pattern regex's, or for
    a prefix-only match the trie walk's."""
    import re

    from axosyslog_ray.stages.patterndb import _dec_name, compile_pattern
    from axosyslog_ray.stages.radix import RadixTree

    if rule_id is None:
        return None
    rule = next(r for r in VALUE_RULES if r.rule_id == rule_id)

    def caps(m: re.Match):
        return [(_dec_name(k), v) for k, v in m.groupdict().items() if v is not None]

    out = list(rule.values.items())
    if rule.program_pattern is not None:
        out += caps(compile_pattern(rule.program_pattern).match(program))
    full = compile_pattern(rule.pattern).match(message)
    if full is not None:
        return out + caps(full)
    tree = RadixTree()
    tree.insert(rule.pattern, 0)
    return out + tree.lookup(message)[1]


def test_patterndb_values_match_per_row_oracle():
    """Every row's pdb_values map, entries in order and duplicate keys
    kept, equals the per-row oracle, over multi-chunk batches."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    db = PatternDB(VALUE_RULES)
    row = st.tuples(st.none() | st.sampled_from(VALUE_MESSAGES) | st.text("abdnor :;!", max_size=10),
                    st.sampled_from(VALUE_PROGRAMS))

    def table(rows, cuts=()):
        t = pa.table({"message": pa.array([r[0] for r in rows], pa.string()),
                      "program": pa.array([r[1] for r in rows], pa.string())})
        bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
        return pa.concat_tables([t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])] or [t])

    def check(t):
        out = db(t)
        assert out.schema.field("pdb_values").type == pa.map_(pa.string(), pa.string())
        got = out.column("pdb_values").to_pylist()
        for msg, prog, rule, vals in zip(out.column("message").to_pylist(),
                                         out.column("program").to_pylist(),
                                         out.column("pdb_rule").to_pylist(), got):
            assert vals == _expected_values(msg, prog, rule), (msg, prog, rule)
        return out

    @settings(max_examples=150, deadline=None)
    @given(st.lists(row, max_size=24), st.lists(st.integers(0, 24), max_size=4))
    def drawn(rows, cuts):
        check(table(rows, cuts))

    drawn()
    every = [(m, p) for m in VALUE_MESSAGES for p in VALUE_PROGRAMS]
    out = check(table(every, cuts=range(0, len(every), 37)))
    assert out.column("message").num_chunks > 1
    rules = {r: out.filter(pa.compute.equal(out.column("pdb_rule"), r)).column("pdb_values")
             .to_pylist() for r in ("dup", "cron", "opt", "pfx")}
    # the static key comes first, so map_lookup(occurrence="first") finds it
    assert rules["dup"][0][:3] == [("d", "static"), ("e", "2"), ("d", "y")]
    assert {len(v) for v in rules["cron"]} == {3, 4}  # cron, cron-7
    assert [("oa", "s"), ("o", "b")] in rules["opt"]  # the null `oa` dropped
    assert [("user", "root")] in rules["pfx"]  # prefix-only: the walk's captures
    assert check(table([])).num_rows == 0
    none = check(table([("nothing", "sshd"), (None, "su"), ("ran 4", "crond")]))
    assert none.column("pdb_values").null_count == 3
