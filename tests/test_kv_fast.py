"""KvParser's batch path (Arrow split of simple rows + scalar scanner
for the rest) cross-diffed against the scanner oracle kv_scan — the
batch output must equal it for EVERY input."""
import random
import string

import pyarrow as pa
import pytest

from axosyslog_ray.stages.kv_parser import KvParser
from axosyslog_ray.stages.kv_scanner import kv_scan


def _batch_pairs(p, lines):
    t = pa.table({"message": pa.array(lines, type=pa.string())})
    out = p(t)
    return out, [[tuple(kv) for kv in row] for row in out.column("kv").to_pylist()]


def _cross(lines, value_separator="=", prefix="", **kw):
    p = KvParser(value_separator=value_separator, prefix=prefix, **kw)
    out, got = _batch_pairs(p, lines)
    want = [[(prefix + k, v) for k, v in
             kv_scan(x or "", value_separator=value_separator)[0]]
            for x in lines]
    assert got == want, (got, want)
    return out


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


def test_steady_state_speedup_floor():
    # the Arrow split's reason to exist: faster than the scalar scanner
    # on quote-free machine-log rows (5 pairs). The 1.5x floor keeps the
    # assert robust to timing drift on shared machines.
    import time

    lines = [f'pid={i} user=u{i % 100} msg=hello-{i} '
             f'src=10.0.{i % 256}.{i % 256} action=allow' for i in range(20_000)]
    t = pa.table({"message": lines})
    p = KvParser()
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


@pytest.mark.parametrize("sep", ["=", ":", "a"], ids=["eq", "colon", "alnum"])
def test_hypothesis_random_lines_match_scalar(sep):
    """Property: for ANY input line, the batch path equals kv_scan (rows
    outside the simple-row guard, and every row under an alphanumeric
    separator, run the scanner itself)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    pieces = st.sampled_from(["a", "b", "k1", "x.y", "-", "_", ".", "=", ":",
                              " ", "  ", '"', "'", "\\", ",", "\t", "#", "é",
                              "\x00", sep, sep])
    free = st.lists(pieces, max_size=14).map("".join)
    # `key<sep>value` tokens, so rows the Arrow split takes are common
    pair = st.tuples(st.sampled_from(["a", "k1", "x.y", "b-c"]),
                     st.lists(pieces, max_size=4).map("".join))
    pairs = st.lists(pair, min_size=1, max_size=4).map(
        lambda ps: " ".join(k + sep + v for k, v in ps))
    lines_strategy = st.lists(st.one_of(free, pairs), min_size=1, max_size=20)

    @settings(max_examples=150, deadline=None)
    @given(lines_strategy)
    def prop(lines):
        _cross(lines, value_separator=sep)

    prop()
