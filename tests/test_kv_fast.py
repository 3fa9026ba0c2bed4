"""KvParser's batch path (Arrow split of whitelist-shape rows + scalar scanner
for the rest) cross-diffed against the scanner oracle kv_scan — the
batch output must equal it for EVERY input."""
import random
import string

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from axosyslog_ray.stages.kv_parser import KvParser
from axosyslog_ray.stages.kv_scanner import kv_scan


def _batch_pairs(p, lines):
    t = pa.table({"message": pa.array(lines, type=pa.string())})
    out = p(t)
    return out, [[tuple(kv) for kv in row] for row in out.column("kv").to_pylist()]


def _cross(lines, value_separator="=", prefix="", collect_stray=False, **kw):
    p = KvParser(value_separator=value_separator, prefix=prefix,
                 collect_stray=collect_stray, **kw)
    out, got = _batch_pairs(p, lines)
    mode = "collect" if collect_stray else None
    scans = [kv_scan(x or "", value_separator=value_separator,
                     stray_words_mode=mode) for x in lines]
    want = [[(prefix + k, v) for k, v in pairs] for pairs, _, _ in scans]
    assert got == want, (got, want)
    if collect_stray:
        assert out.column("stray_words").to_pylist() == [s for _, s, _ in scans]
    return out


def _guarded(p, lines):
    """How many of `lines` take the Arrow split."""
    if p._simple_re is None:
        return 0
    return pc.sum(pc.match_substring_regex(
        pa.array(lines, pa.string()), p._simple_re)).as_py() or 0


ADVERSARIAL = [
    'a=1 b="x y" c=',                     # quoted w/ space, empty value
    'msg="unterminated b=2',              # odd quote count -> fallback
    'a=b"c d=e',                          # quote not after sep -> fallback
    "mix='sq' dq=\"x\"",                  # both quote types -> fallback
    'esc="a\\"b" k=v',                    # backslash -> fallback
    "foo:bar=baz",                        # key is suffix run after ':'
    "._=q=2",                             # key-char run before the 1st sep
    "=x a=1",                             # leading sep token
    "a=1,b=2,,c=3",                       # comma delims + empty
    'k="v", next=1',                      # close followed by comma
    "a==b",                               # value starts with sep
    "x=1;y=2",                            # ';' is part of the value
    "9key=ok .lead=trim",                 # digit key; dot-led key trims
    'u=héllo wörld=1',                    # multibyte UTF-8 in key/value
    "sp\u00a0a=1 b=2",                    # unicode ws -> fallback
    "tab\tk=v",                           # tab delimiter
    'say "hello" k=v',                    # stray quoted word -> fallback
    "k='a b' m=2",                        # single-quote value
    "",                                   # empty row
    "just words no pairs",
    'trail=ok"',                          # odd quotes -> fallback
    "a.b-c_d=1",                          # full key charset
    "k=v extra=",                         # trailing empty value
    'q1="" q2="x"',                       # empty quoted value
]


def test_adversarial_rows_match_scalar():
    _cross(ADVERSARIAL)


def test_null_and_empty_rows():
    out = _cross(["a=1", None, ""])
    assert out.column("kv").to_pylist()[1] == []


def test_prefix_and_promote():
    out = _cross(["a=1 b=2 a=3", "b=9"], prefix=".kv.", promote=["a", "b"])
    kv = out.column("kv").to_pylist()
    assert kv[0] == [(".kv.a", "1"), (".kv.b", "2"), (".kv.a", "3")]
    # promotion keeps the LAST occurrence (dict(pairs) semantics)
    assert out.column(".kv.a").to_pylist() == ["3", None]
    assert out.column(".kv.b").to_pylist() == ["2", "9"]


def test_custom_separator():
    _cross(["a:1 b:'x y'", "c:2,d:3"], value_separator=":")
    # a key-character separator: the scanner's key scan crosses it
    _cross(["a-1 b-2", "v- a-vv", "x.y-- v1k-za"], value_separator="-")


def test_fallback_and_fast_rows_interleave():
    # every 3rd row forces scalar fallback; merge must keep row order
    lines = []
    for i in range(200):
        if i % 3 == 0:
            lines.append(f'bad="unterminated {i}')
        else:
            lines.append(f'i={i} m="v {i}"')
    _cross(lines)


def test_randomized_fuzz_matches_scalar():
    rng = random.Random(1234)
    toks = ["k=", "key2=", "x", '"a b"', "'c'", "v,", " ", ",", "=",
            "a\\b", "q=\"", "w\"", "héé", "k.x-y=", "1 2", "\t", "end"]
    lines = []
    for _ in range(500):
        m = rng.randint(0, 8)
        lines.append("".join(rng.choice(toks) for _ in range(m)))
    _cross(lines)


def test_random_printable_fuzz():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + ' =",\'\\._-\t'
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
             for _ in range(800)]
    _cross(lines)


# row shapes of the config_paths corpus (the kv family and RFC5424
# `evt` messages) next to the plain machine-log shape
SHAPES = {
    "plain": lambda i: (f'pid={i} user=u{i % 100} msg=hello-{i} '
                        f'src=10.0.{i % 256}.{i % 256} action=allow'),
    "quoted_comma": lambda i: (f'key1=v{i}, key2="quoted v{i % 100}", '
                               f'status={(200, 404, 500)[i % 3]}, '
                               f'src_ip=10.0.{i % 256}.{i % 7}'),
    "stray_words": lambda i: f"evt click count={i}",
}


def _assert_speedup_floor(shape):
    # the Arrow split's reason to exist: faster than the scalar scanner
    # on every row shape it takes. The 1.5x floor keeps the assert
    # robust to timing drift on shared machines.
    import time

    lines = [SHAPES[shape](i) for i in range(20_000)]
    t = pa.table({"message": lines})
    p = KvParser()
    assert _guarded(p, lines) == len(lines)
    best = 1e9
    for _ in range(4):
        t0 = time.perf_counter()
        p(t)
        best = min(best, time.perf_counter() - t0)
    t0 = time.perf_counter()
    for x in lines:
        p.parse_line(x)
    scalar = time.perf_counter() - t0
    assert scalar / best > 1.5, (best, scalar)


def test_steady_state_speedup_floor():
    _assert_speedup_floor("plain")


@pytest.mark.parametrize("shape", sorted(set(SHAPES) - {"plain"}))
def test_steady_state_speedup_floor_corpus_shapes(shape):
    _assert_speedup_floor(shape)


def test_audit_quoted_hex_stays_raw_on_arrow_path():
    # linux-audit-parser decodes an unquoted hex value of a hex-coded
    # field; the split unquotes a quoted one and passes was_quoted on,
    # so it stays raw as in the scanner
    from axosyslog_ray.stages.audit_parser import LinuxAuditParser

    lines = ['type=EXECVE a0="2F62696E2F7368202D6C" a1=2F62696E2F7368202D6C',
             'type=PROCTITLE proctitle="41204236", a2=41204236']
    p = LinuxAuditParser()
    assert _guarded(p, lines) == len(lines)
    got = [dict(r) for r in p(pa.table({"message": lines})).column("kv").to_pylist()]
    assert got == [
        {"type": "EXECVE", "a0": "2F62696E2F7368202D6C", "a1": "/bin/sh -l"},
        {"type": "PROCTITLE", "proctitle": "41204236", "a2": "A B6"}]
    assert got == [dict(p.parse_line(x)[0]) for x in lines]


@pytest.mark.parametrize("sep", ["=", ":", "a"], ids=["eq", "colon", "alnum"])
def test_hypothesis_random_lines_match_scalar(sep):
    """Property: for ANY input line, the batch path equals kv_scan —
    the pair lists, and the stray words when they are collected (rows
    outside the guard, and every row under an alphanumeric separator,
    run the scanner itself). Most lines are drawn near the guarded
    shape, so both paths are exercised."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    pieces = st.sampled_from(["a", "b", "k1", "x.y", "-", "_", ".", "=", ":",
                              " ", "  ", '"', "'", "\\", ",", "\t", "#", "é",
                              "\x00", "\x1e", sep, sep])
    free = st.lists(pieces, max_size=14).map("".join)
    # `key<sep>value` tokens, so rows the Arrow split takes are common
    pair = st.tuples(st.sampled_from(["a", "k1", "x.y", "b-c"]),
                     st.lists(pieces, max_size=4).map("".join))
    pairs = st.lists(pair, min_size=1, max_size=4).map(
        lambda ps: " ".join(k + sep + v for k, v in ps))
    # the whitelist shape and its near misses: pairs joined by `, `,
    # ` ` or `  ` (or `,` or nothing); bare or quoted values (empty,
    # with spaces, commas, a separator); stray words at the start or
    # after a joiner
    key = st.sampled_from(["a", "k1", "x.y", "b-c", "_", "9z"])
    bare = st.lists(st.sampled_from(["v", "1", "x.y", "é", "-", "#", "\t", sep]),
                    max_size=3).map("".join)
    quoted = st.lists(st.sampled_from(["q", " ", "a b", "é", ",", "'", sep]),
                      max_size=3).map(lambda v: '"' + "".join(v) + '"')
    stray = st.one_of(st.just(""), st.lists(
        st.sampled_from(["w", "evt", "x.y", "é", "w,", "  "]),
        min_size=1, max_size=2).map(lambda ws: "".join(w + " " for w in ws)))
    shaped_pair = st.tuples(st.sampled_from([", ", " ", "  ", ",", ""]), stray, key,
                            st.one_of(bare, quoted))
    shaped = st.tuples(stray, st.lists(shaped_pair, min_size=1, max_size=5),
                       st.sampled_from(["", " ", ", ", "  "])).map(
        lambda t: t[0] + "".join((j if i else "") + s + k + sep + v
                                 for i, (j, s, k, v) in enumerate(t[1])) + t[2])
    lines_strategy = st.lists(st.one_of(free, pairs, shaped, shaped),
                              min_size=1, max_size=20)
    seen = [0, 0]

    @settings(max_examples=150, deadline=None)
    @given(lines_strategy)
    def prop(lines):
        _cross(lines, value_separator=sep)
        _cross(lines, value_separator=sep, collect_stray=True)
        seen[0] += _guarded(KvParser(value_separator=sep), lines)
        seen[1] += len(lines)

    prop()
    if sep != "a":
        assert seen[0] > 0.3 * seen[1], seen
