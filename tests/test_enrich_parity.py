"""Parity of the two enrichment lookups with per-row oracles: a
dict-per-row add-contextual-data and an `ipaddress` longest-prefix GeoIP,
on generated databases and inputs (the reference's context-info-db.c
lookup and geoip2's mmdb lookup, message by message)."""

import ipaddress
import re

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axosyslog_ray.enrich.context import AddContextualData
from axosyslog_ray.enrich.geoip import GeoIP

# selector keys include "" , a key that prefixes another, and case twins
_KEYS = ["a", "ab", "b", "", "default", "A"]
_SELECTORS = _KEYS + ["zz", "a ", "abc"]
# "${HOST}!" and "$PROGRAM" make a template-valued db (rendered per row);
# "a$$b" is a literal with an escaped "$"
_VALUES = ["p", "q", "pq", "", "${HOST}!", "a$$b", "$PROGRAM"]


def _render(value, host, program):
    """A db value rendered against one row: `$$` is a literal `$`, an
    unset `$PROGRAM` is empty."""
    return {"${HOST}!": host + "!", "a$$b": "a$b",
            "$PROGRAM": program or ""}.get(value, value)


def _context_oracle(db, hosts, programs, default_selector, prefix, ignore_case):
    """Per row: the selector's records, or the default records for an
    unknown selector; the last record of a name wins. `ignore_case`
    folds keys and selectors with str.lower."""
    fields = sorted({n for recs in db.values() for n, _ in recs})
    fold = str.lower if ignore_case else (lambda k: k)
    folded = {}
    for k, recs in db.items():
        folded.setdefault(fold(k), []).extend(recs)
    dflt = folded.get(fold(default_selector), []) if default_selector else []
    out = {prefix + f: [] for f in fields}
    for h, program in zip(hosts, programs):
        host = "" if h is None else h
        recs = dict(folded.get(fold(host), dflt))
        for f in fields:
            v = recs.get(f)
            out[prefix + f].append(None if v is None else _render(v, host, program))
    return out


@settings(max_examples=300, deadline=None)
@given(
    db=st.dictionaries(
        st.sampled_from(_KEYS),
        st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                           st.sampled_from(_VALUES)), min_size=1, max_size=4),
        max_size=6),
    rows=st.lists(st.tuples(st.one_of(st.none(), st.sampled_from(_SELECTORS)),
                            st.sampled_from([None, "sshd", "cron"])), max_size=12),
    default_selector=st.sampled_from(["default", None, "zz"]),
    prefix=st.sampled_from(["", "ctx."]),
    ignore_case=st.booleans(),
)
@example(db={"a": [("x", "p"), ("x", "q")], "default": [("y", "d")]},
         rows=[("a", None), (None, None), ("", None), ("b", None), ("ab", None)],
         default_selector="default", prefix="", ignore_case=False)
@example(db={"a": [("x", "a$$b")]}, rows=[("a", None), ("A", None)],
         default_selector=None, prefix="", ignore_case=True)
@example(db={"A": [("x", "$PROGRAM")], "a": [("y", "a$$b")], "default": [("x", "${HOST}!")]},
         rows=[("a", "sshd"), ("A", None), ("b", None), ("B", "cron")],
         default_selector="default", prefix="", ignore_case=True)
def test_context_matches_dict_per_row(db, rows, default_selector, prefix, ignore_case):
    hosts = [h for h, _ in rows]
    programs = [p for _, p in rows]
    stage = AddContextualData(db=db, selector="$HOST", default_selector=default_selector,
                              prefix=prefix, ignore_case=ignore_case)
    t = pa.table({"host": pa.array(hosts, pa.string()),
                  "program": pa.array(programs, pa.string())})
    out = stage(t)
    want = _context_oracle(db, hosts, programs, default_selector, prefix, ignore_case)
    assert out.column_names == ["host", "program", *want]
    for name, vals in want.items():
        assert out.column(name).to_pylist() == vals, name


def test_context_escaped_dollar_renders_the_same_in_any_db():
    """`a$$b` is the literal `a$b`, whether or not another record of the
    db holds a template with references."""
    t = pa.table({"host": ["h1", "h2"]})
    literal = AddContextualData(db={"h1": [("x", "a$$b")]})(t)
    templated = AddContextualData(db={"h1": [("x", "a$$b")], "h2": [("x", "$HOST")]})(t)
    assert literal.column("x").to_pylist() == ["a$b", None]
    assert templated.column("x").to_pylist() == ["a$b", "h2"]


_OCTETS = re.compile(r"([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})")
# odd texts: leading zeros (read as decimal), spaces, IPv6, and octets
# past 255 that would wrap into 10.0.0.0/8 if they were accepted
_ODD_IPS = [None, "", "1.2.3", "256.0.0.1", "9.256.0.1", "10.0.0.256",
            "01.2.3.4", "010.000.1.2", " 10.0.0.1", "10.0.0.1 ", "10.0.0.1\n",
            "::1", "fe80::a00:1", "::ffff:10.0.0.1", "1.2.3.4.5", "1..2.3",
            "a.b.c.d", "1234.1.1.1"]


def _geoip_oracle(ranges, ips, names):
    """Per row: four 1-3 digit decimal octets, each <= 255, else a miss;
    the longest containing prefix wins, the first listed on a tie."""
    nets = [(ipaddress.ip_network(c, strict=False), a) for c, a in ranges]
    out = {n: [] for n in names}
    for ip in ips:
        m = _OCTETS.fullmatch(ip or "")
        hit = None
        if m and all(int(o) <= 255 for o in m.groups()):
            addr = ipaddress.IPv4Address(".".join(str(int(o)) for o in m.groups()))
            inside = [(net.prefixlen, a) for net, a in nets if addr in net]
            if inside:
                hit = max(inside, key=lambda h: h[0])[1]
        for n in names:
            out[n].append(None if hit is None else hit.get(n))
    return out


_cidr = st.builds(
    lambda host, plen: str(ipaddress.ip_network(((10 << 24) | host, plen), strict=False)),
    st.integers(0, (1 << 24) - 1), st.sampled_from([8, 12, 16, 20, 24, 30, 32]))
_attrs = st.dictionaries(st.sampled_from(["country", "city"]),
                         st.sampled_from(["US", "CA", "c1", ""]), max_size=2)


@settings(max_examples=300, deadline=None)
@given(ranges=st.lists(st.tuples(_cidr, _attrs), max_size=6), data=st.data())
@example(ranges=[("10.0.0.0/8", {"country": "US"}), ("10.5.0.0/16", {"country": "CA"}),
                 ("10.7.0.0/16", {"city": "c1"})],
         data=None)
@example(ranges=[("10.0.0.0/8", {"country": "US", "city": "c1"}),
                 ("10.0.0.0/9", {"country": "CA"}), ("10.128.0.0/9", {"country": "US"})],
         data=None)
def test_geoip_matches_ipaddress(ranges, data):
    # the edges of every range, one step outside each, and odd texts
    nets = [ipaddress.ip_network(c) for c, _ in ranges]
    edges = [int(a) + d for net in nets
             for a in (net.network_address, net.broadcast_address) for d in (-1, 0, 1)]
    ips = [str(ipaddress.IPv4Address(e)) for e in edges] + _ODD_IPS
    if data is not None:
        ips += data.draw(st.lists(st.builds(
            lambda v: str(ipaddress.IPv4Address((10 << 24) | v)),
            st.integers(0, (1 << 24) - 1)), max_size=8))
        ips = data.draw(st.permutations(ips))
    g = GeoIP(ranges=ranges, source_col="ip", prefix="geo_")
    out = g(pa.table({"ip": pa.array(ips, pa.string())}))
    names = sorted({n for _, a in ranges for n in a})
    want = _geoip_oracle(ranges, ips, names)
    # every declared attribute has a column, even one only a shadowed
    # range sets (it never wins, so the column is all null)
    assert g.attr_names == names
    for n in names:
        assert out.column("geo_" + n).to_pylist() == want[n], n


def _pack_by_captures(ips):
    """Dotted quads -> int64 through an RE2 extract of the four octets
    (-1 for a null, a non-quad or an octet above 255)."""
    import numpy as np
    import pyarrow.compute as pc

    st_ = pc.extract_regex(pa.array(ips, pa.string()),
                           pattern=r"^(?P<a>\d{1,3})\.(?P<b>\d{1,3})\.(?P<c>\d{1,3})\.(?P<d>\d{1,3})$")
    val, ok = np.zeros(len(ips), dtype=np.int64), np.ones(len(ips), dtype=bool)
    for f in "abcd":
        octet = pc.fill_null(pc.cast(pc.struct_field(st_, f), pa.int64()), 256).to_numpy()
        ok &= octet <= 255
        val = (val << 8) | octet
    return np.where(ok, val, -1)


_IP_CHARS = "0123456789.. ٣１a"  # with Arabic-Indic and fullwidth digits
_QUADS = st.lists(st.integers(0, 999).map(str), min_size=4, max_size=4).map(".".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | _QUADS | st.text(_IP_CHARS, max_size=16), max_size=12),
       st.lists(st.integers(0, 12), max_size=3))
@example(ips=[None, "", "010.1.1.1", "256.1.1.1", "1.2.3.4.5", "1.2.3", "1.2.3.",
              "1000.1.1.1", "1.2.3.1000", " 1.2.3.4", "1.2.3.4 ", "١.2.3.4",
              "1.2.３.4", "255.255.255.255", "0.0.0.0"] + _ODD_IPS, cuts=[3])
def test_pack_ipv4_matches_capture_form(ips, cuts):
    """The bare-match + split packing equals the four-capture extract on
    nulls, empty and malformed texts, non-ASCII digits and multi-chunk
    columns."""
    bounds = sorted({0, len(ips), *(min(c, len(ips)) for c in cuts)})
    col = pa.chunked_array([pa.array(ips[a:b], pa.string()) for a, b in zip(bounds, bounds[1:])],
                           pa.string())
    assert GeoIP.pack_ipv4(col).tolist() == _pack_by_captures(ips).tolist()
