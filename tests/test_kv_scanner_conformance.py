"""KV scanner conformance.

Pins lib/scanner/kv-scanner/tests/test_kv_scanner.c case by case
through stages/kv_scanner.kv_scan (the kv-scanner.c + str-repr
decode.c port). Every _EXPECT_KV_PAIRS / _EXPECT_KVQ_TRIPLETS /
_EXPECT_KV_AND_STRAY_WORDS case from the corpus appears below with the
reference's exact expected pairs.
"""

import pytest

from axosyslog_ray.stages.kv_scanner import kv_scan


def pairs(text, **kw):
    return kv_scan(text, **kw)[0]


def check(text, *expected, **kw):
    assert pairs(text, **kw) == list(expected), repr(text)


def test_incomplete_string_returns_no_pairs():
    for t in ("", "f", "fo", "foo"):
        check(t)


def test_name_equals_value_returns_a_pair():
    check("foo=", ("foo", ""))
    check("foo=b", ("foo", "b"))
    check("foo=bar", ("foo", "bar"))
    check("foo=barbar", ("foo", "barbar"))


def test_allowed_key_characters():
    check("FOOfoo123-_._-321oofOOF=value",
          ("FOOfoo123-_._-321oofOOF", "value"))


def test_initial_stray_words_are_ignored():
    check("lorem ipsum foo=bar", ("foo", "bar"))
    check("lorem ipsum/dolor @sitamen foo=bar", ("foo", "bar"))
    check('lorem ipsum/dolor = foo=bar"',
          ("dolor", ""), ("foo", 'bar"'))
    check("a b c=d", ("c", "d"))
    check("x *k=v", ("k", "v"))


def test_non_initial_stray_words_are_added_to_the_last_value():
    check("foo=bar lorem ipsum key=value some more values",
          ("foo", "bar lorem ipsum"),
          ("key", "value some more values"))


def test_empty_values_in_a_series_of_key_values():
    check("k= a=b c=d", ("k", ""), ("a", "b"), ("c", "d"))
    check("k=v a= c=d", ("k", "v"), ("a", ""), ("c", "d"))
    check("k=v a=b c=", ("k", "v"), ("a", "b"), ("c", ""))


def test_multiple_key_values_return_multiple_pairs():
    check("key1=value1 key2=value2 key3=value3 ",
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"))


def test_spaces_between_values_are_ignored():
    check("key1=value1    key2=value2     key3=value3 ",
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"))


def test_comma_separated_values():
    check("key1=value1, key2=value2, key3=value3",
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"))
    # a bare comma is NOT the default delimiter (", " is)
    check("key1=value1,key2=value2,key3=value3",
          ("key1", "value1,key2=value2,key3=value3"))
    check("key1=value1,   key2=value2  ,    key3=value3",
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"))


def test_tab_is_not_considered_a_separator():
    check("key1=value1\tkey2=value2 key3=value3",
          ("key1", "value1\tkey2=value2"), ("key3", "value3"))
    check("key1=value1,\tkey2=value2 key3=value3",
          ("key1", "value1,\tkey2=value2"), ("key3", "value3"))
    check("key1=value1\t key2=value2 key3=value3",
          ("key1", "value1\t"), ("key2", "value2"), ("key3", "value3"))
    check("k=\t", ("k", "\t"))
    check("k=,\t", ("k", ",\t"))


def test_quoted_values_are_unquoted_like_c_strings():
    check('foo="\\"" bar=baz', ("foo", '"'), ("bar", "baz"))
    check("foo='\"' bar=baz", ("foo", '"'), ("bar", "baz"))
    check('foo="bar"', ("foo", "bar"))
    check('key1="value1" key2="value2"',
          ("key1", "value1"), ("key2", "value2"))
    check('key1="\\"value1"', ("key1", '"value1'))
    check('key1="\\b \\f \\n \\r \\t \\\\"',
          ("key1", "\b \f \n \r \t \\"))
    check('key1="\\p"', ("key1", "\\p"))
    check("key1='value1' key2='value2'",
          ("key1", "value1"), ("key2", "value2"))
    check("key1='\\'value1'", ("key1", "'value1"))
    check("key1='\\b \\f \\n \\r \\t \\\\'",
          ("key1", "\b \f \n \r \t \\"))
    check("key1='\\p'", ("key1", "\\p"))
    check("key1=\\b\\f\\n\\r\\t\\\\",
          ("key1", "\\b\\f\\n\\r\\t\\\\"))
    check("key1=\b\f\n\r\\", ("key1", "\b\f\n\r\\"))
    check('foo="bar baz"', ("foo", "bar baz"))


def test_quotes_embedded_in_an_unquoted_value_are_left_intact():
    check('foo=a "bar baz" ', ("foo", 'a "bar baz"'))
    check('foo=a "bar baz', ("foo", 'a "bar baz'))
    check('foo=a "bar baz c=d', ("foo", 'a "bar baz'), ("c", "d"))
    check('foo=a "bar baz"=f c=d a',
          ("foo", 'a "bar baz"=f'), ("c", "d a"))
    check('foo=\\"bar baz\\"', ("foo", '\\"bar baz\\"'))


def test_separator_in_an_unquoted_value_is_taken_literally():
    check("k=a=b c=d", ("k", "a=b"), ("c", "d"))
    check("a==b=", ("a", "=b="))
    check("a=,=b=a", ("a", ",=b=a"))
    check("a= =a", ("a", "=a"))


def test_keys_without_value_separator_are_ignored():
    check("key1 key2=value2 key3 key4=value4",
          ("key2", "value2 key3"), ("key4", "value4"))
    check("key1= key2=value2 key3= key4=value4 key5= key6=value6",
          ("key1", ""), ("key2", "value2"), ("key3", ""),
          ("key4", "value4"), ("key5", ""), ("key6", "value6"))


def test_quoted_values_are_one_token():
    check('key1="value foo" key2=marker',
          ("key1", "value foo"), ("key2", "marker"))
    check('key1="value foo embedded_key=emb_value" key2=marker',
          ("key1", "value foo embedded_key=emb_value"),
          ("key2", "marker"))
    check('key1="value foo\\"" key2=marker',
          ("key1", 'value foo"'), ("key2", "marker"))
    check("key1='value foo\\'' key2=marker",
          ("key1", "value foo'"), ("key2", "marker"))
    check("key1=\"value foo, foo2 =@,\\\"\" key2='value foo,  a='",
          ("key1", 'value foo, foo2 =@,"'),
          ("key2", "value foo,  a="))
    # baz is a stray word, not part of the quoted value
    check('foo="bar" baz c=d', ("foo", "bar"), ("c", "d"))


def test_transforms_values_if_transform_value_is_set():
    def inc_bytes(v):
        return "".join(chr(ord(c) + 1) for c in v)

    check('foo="bar"', ("foo", "cbs"), transform_value=inc_bytes)


def test_pair_separator_space_disables_space_heuristics():
    check("foo=v1 v2 bar=v3 v4", ("foo", "v1"), ("bar", "v3"),
          pair_separator=" ")
    check("foo=v1 v2   bar=v3 v4  ",
          ("foo", "v1 v2"), ("bar", "v3 v4"), pair_separator="   ")


def test_pair_separator_splits_values():
    check("foo=bar; bar=foo;", ("foo", "bar"), ("bar", "foo"),
          pair_separator=";")
    check("foo=bar;bar=foo;baz=foo",
          ("foo", "bar"), ("bar", "foo"), ("baz", "foo"),
          pair_separator=";")
    check("foo=bar;bar=foo;", ("foo", "bar"), ("bar", "foo"),
          pair_separator=";")
    check("foo=bar baz;bar=foo;", ("foo", "bar baz"), ("bar", "foo"),
          pair_separator=";")
    check("foo=bar baz  ;bar=foo;", ("foo", "bar baz"), ("bar", "foo"),
          pair_separator=";")


def test_quotation_is_stored_in_value_was_quoted():
    assert kv_scan('foo="bar"')[2] == [True]
    assert kv_scan("foo='bar'")[2] == [True]
    assert kv_scan("foo=bar")[2] == [False]
    assert kv_scan("foo='bar' k=v")[2] == [True, False]


def test_spaces_around_value_separator_are_ignored():
    check('key1: "value1" key2 : value2 key3 :value3 ',
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"),
          value_separator=":")


def test_value_separator_colon():
    check("key1:value1 key2:value2 key3:value3 ",
          ("key1", "value1"), ("key2", "value2"), ("key3", "value3"),
          value_separator=":")


def test_invalid_value_encoding_is_copied_literally():
    check("k=\xc3", ("k", "\xc3"))
    check("k=\xc3v", ("k", "\xc3v"))
    check("k=\xff", ("k", "\xff"))
    check("k=\xffv", ("k", "\xffv"))
    check('k="\xc3"', ("k", "\xc3"))
    check('k="\xc3v"', ("k", "\xc3v"))
    check('k="\xff"', ("k", "\xff"))
    check(' k="\xffv"', ("k", "\xffv"))


def test_separator_in_key():
    check("k-v", ("k", "v"), value_separator="-")
    check("k--v", ("k", "-v"), value_separator="-")
    check("---", ("-", "-"), value_separator="-")


def test_empty_keys():
    for t in ("=v", "k*=v", "=", "==", "===", " =", " ==", " ===",
              " = ="):
        check(t)
    check(" ==k=", ("k", ""))
    check(" = =k=", ("k", ""))
    check(" =k=", ("k", ""))
    check(" =k=v", ("k", "v"))
    check(" ==k=v", ("k", "v"))
    check(" =k=v=w", ("k", "v=w"))


def test_unclosed_quotes():
    check('k="a', ("k", '"a'))
    check("k=\\", ("k", "\\"))
    check('k="\\', ("k", '"\\'))
    check("k='a", ("k", "'a"))
    check("k='\\", ("k", "'\\"))
    check('foo=bar"', ("foo", 'bar"'))
    check("foo='bar", ("foo", "'bar"))


def test_comma_separator():
    check(", k=v", ("k", "v"))
    check(",k=v", ("k", "v"))
    check("k=v,", ("k", "v,"))
    check("k=v, ", ("k", "v"))


def test_multiple_separators():
    check("k==", ("k", "="))
    check("k===", ("k", "=="))
    check("k===a", ("k", "==a"))
    check("k===a=b", ("k", "==a=b"))


def test_keys_use_a_restricted_character_set():
    check("k-j=v", ("k-j", "v"))
    check("0=v", ("0", "v"))
    check("_=v", ("_", "v"))
    check(":=v")
    check(":=")
    check("Z=v", ("Z", "v"))
    check("á=v")
    check("*k=v", ("k", "v"))


def test_unquoted_values_can_have_embedded_control_characters():
    check("k1=\\b\\f\\n\\r\\t\\\\", ("k1", "\\b\\f\\n\\r\\t\\\\"))
    check("k1=\b\f\n\r\\", ("k1", "\b\f\n\r\\"))


def test_spaces_are_trimmed_between_key_and_separator():
    check("foo =bar", ("foo", "bar"))
    check("foo= bar", ("foo", "bar"))


def test_space_is_only_a_delimiter_if_a_key_follows():
    check("foo=bar ggg", ("foo", "bar ggg"))
    check("foo=bar ggg baz=ez", ("foo", "bar ggg"), ("baz", "ez"))


def test_spaces_are_trimmed_from_key_names():
    check(" foo =bar ggg baz=ez", ("foo", "bar ggg"), ("baz", "ez"))
    check("foo =bar ggg baz=ez", ("foo", "bar ggg"), ("baz", "ez"))
    check(" foo=bar ggg baz=ez", ("foo", "bar ggg"), ("baz", "ez"))
    check("foo =  bar ggg baz   =   ez",
          ("foo", "bar ggg"), ("baz", "ez"))
    check("k===  a", ("k", "==  a"))


def test_initial_spaces_are_trimmed_from_values():
    check(" k= b", ("k", "b"))


def test_append_stray_words_to_last_value():
    kw = dict(pair_separator=" ", stray_words_mode="append")
    check("k1=x1 y1 z1 k2=x2 y2 z2",
          ("k1", "x1 y1 z1"), ("k2", "x2 y2 z2"), **kw)
    check("k1=x1=y1=z1 k2=x2=y2=z2",
          ("k1", "x1=y1=z1"), ("k2", "x2=y2=z2"), **kw)
    check("k1=x1\\=y1\\=z1\\= k2=x2\\=y2\\=z2\\=",
          ("k1", "x1\\=y1\\=z1\\="), ("k2", "x2\\=y2\\=z2\\="), **kw)
    check("k1=x1 \\= y1 \\= z1 \\= k2=x2 \\= y2 \\= z2 \\=",
          ("k1", "x1 \\= y1 \\= z1 \\="),
          ("k2", "x2 \\= y2 \\= z2 \\="), **kw)


def test_stray_words_are_stored():
    def strays(text, *expected_pairs):
        got_pairs, stray, _ = kv_scan(text, stray_words_mode="collect")
        assert got_pairs == list(expected_pairs), repr(text)
        return stray

    assert strays("foo=bar", ("foo", "bar")) == ""
    assert strays("alma foo=bar", ("foo", "bar")) == "alma"
    assert strays("alma foo=bar, korte bar=foo",
                  ("foo", "bar"), ("bar", "foo")) == "alma,korte"
    assert strays("alma foo=bar, korte bar=foo, narancs",
                  ("foo", "bar"), ("bar", "foo")) == "alma,korte,narancs"


def test_key_buffer_underrun():
    check("=v")


def test_malformed_quotes_do_not_create_false_pairs():
    check('id=123 key=original data="/path/key="malformed"" next=value',
          ("id", "123"),
          ("key", "original"),
          ("data", '"/path/key="malformed"" '),
          ("next", "value"))


def test_performance_corpus_nothing_to_parse():
    check("Reducing the compressed framebuffer size. This may lead to "
          "less power savings than a non-reduced-size. Try to increase "
          "stolen memory size if available in BIOS.")
    check("interrupt took too long (3136 > 3127), lowering "
          "kernel.perf_event_max_sample_rate to 63750")


def test_performance_corpus_iptables_shape():
    got = pairs("PF: filter/forward DROP IN=abc OUT=def SRC=1.2.3.4 "
                "DST=5.6.7.8 LEN=71 TOS=c4 PREC=c4 TTL=da ID=242 "
                "PROTO=dc SPT=1e7 DPT=ca9")
    assert got[0] == ("IN", "abc")
    assert got[-1] == ("DPT", "ca9")
    assert len(got) == 12


# ---------------------------------------------------------------- batch path

CORPUS_LINES = [
    "", "foo", "foo=bar", "k=v a=b c=d", "key1=value1    key2=value2 ",
    "foo=bar lorem ipsum key=value more",
    "key1=value1\tkey2=value2 key3=value3",
    " foo =bar ggg baz=ez", 'foo=a "bar baz"=f c=d a', "k===a=b",
    'id=123 key=original data="/path/key="malformed"" next=value',
    "key1=value1,key2=value2", 'key1="\\p"',
    "SRC=1.2.3.4 DST=5.6.7.8 LEN=71",
    'foo="bar baz" k=v', "k='x' j=1", " =k=v=w", "á=v", "*k=v", "k=v, ",
    "k=\xc3v a=b", "key1='value foo\\'' key2=marker",
]


def test_scanner_dialect_batch_path_equals_scalar_scanner():
    import pyarrow as pa

    from axosyslog_ray.stages.kv_parser import KvParser

    p = KvParser(source_col="text", out_col="kv")
    out = p(pa.table({"text": CORPUS_LINES}))
    for line, got in zip(CORPUS_LINES, out.column("kv").to_pylist()):
        assert [(k, v) for k, v in (got or [])] == kv_scan(line)[0], \
            repr(line)


def test_scanner_dialect_batch_path_equivalence_hypothesis():
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from axosyslog_ray.stages.kv_parser import KvParser

    alphabet = st.sampled_from(list("abkZ09._- =\"'\\,\t") + ["á"])
    line = st.text(alphabet=alphabet, max_size=24)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(line, min_size=1, max_size=6))
    def inner(lines):
        p = KvParser(source_col="text", out_col="kv")
        out = p(pa.table({"text": lines}))
        for ln, got in zip(lines, out.column("kv").to_pylist()):
            assert [(k, v) for k, v in (got or [])] == kv_scan(ln)[0], \
                repr(ln)

    inner()
