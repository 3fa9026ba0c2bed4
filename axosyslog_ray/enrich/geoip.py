"""geoip2()-style range lookup: IP -> attributes via sorted CIDR ranges.

Mirrors the reference geoip parser shape (reference
modules/geoip2/geoip-parser.c:90-110,195-199 — mmdb opened once, an IP
template resolved per message, results under `prefix()`): here the
database is a list of (cidr, attrs...) ranges; lookup is one bare RE2
match and one split that pack the dotted quads into int64, and one
`np.searchsorted` over the sorted range starts — O(log n) per row, no
pandas. Each attribute is then one Arrow `take`. The db is built once
per actor (__init__), the broadcast-small-side pattern.
"""

from __future__ import annotations

import ipaddress

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_IPV4 = r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}$"


class GeoIP:
    """Pass the database as `ranges=` — (cidr, {name: value}) pairs —
    and/or `mmdb_path=`; both are merged. Every output column is
    `prefix` + an attribute name some declared range sets, so the schema
    does not depend on how the ranges overlap."""

    def __init__(
        self,
        ranges: list[tuple[str, dict[str, str]]] | None = None,
        source_col: str = "src_ip",
        prefix: str = "geoip_",
        mmdb_path: str | None = None,
    ):
        ranges = list(ranges or [])
        if mmdb_path is not None:
            # real MaxMind database: the reference's geoip2(database(..))
            # shape (modules/geoip2/geoip-parser.c) — the mmdb tree is
            # enumerated ONCE here (per actor), per-batch lookups stay
            # the vectorized searchsorted path below
            from .mmdb import mmdb_to_ranges

            ranges += mmdb_to_ranges(mmdb_path)
        raw = []
        for cidr, attrs in ranges:
            net = ipaddress.ip_network(cidr, strict=False)
            raw.append((int(net.network_address), int(net.broadcast_address), net.prefixlen, attrs))
        # Flatten nested/overlapping CIDRs into DISJOINT intervals with
        # longest-prefix-wins attrs (mmdb semantics — ADVICE r1: a /16
        # inside a /8 must not shadow the outer range past its end).
        # Load-time-only sweep over elementary intervals; n ranges is the
        # broadcast-small side, so O(n * boundaries) is fine here.
        rows = []
        if raw:
            bounds = sorted({r[0] for r in raw} | {r[1] + 1 for r in raw})
            prev_key = None
            for lo, hi_excl in zip(bounds[:-1], bounds[1:]):
                active = [r for r in raw if r[0] <= lo and hi_excl - 1 <= r[1]]
                if not active:
                    prev_key = None
                    continue
                win = max(active, key=lambda r: r[2])  # longest prefix wins
                if rows and prev_key == id(win) and rows[-1][1] == lo - 1:
                    rows[-1] = (rows[-1][0], hi_excl - 1, win[3])  # merge adjacent
                else:
                    rows.append((lo, hi_excl - 1, win[3]))
                prev_key = id(win)
        rows.sort(key=lambda r: r[0])
        self.starts = np.array([r[0] for r in rows], dtype=np.int64)
        self.ends = np.array([r[1] for r in rows], dtype=np.int64)
        # the declared names, not the winners': an attribute that only a
        # shadowed range sets still gets its (all-null) column
        self.attr_names = sorted({k for _, a in ranges for k in a})
        self.attrs = {
            name: pa.array([a.get(name) for _, _, a in rows], pa.string()) for name in self.attr_names
        }
        self.source_col = source_col
        self.prefix = prefix

    @staticmethod
    def pack_ipv4(ips) -> np.ndarray:
        """Dotted quads -> int64: -1 where the value is null, is not four
        1-3 digit decimal octets, or has an octet above 255. The shape is
        one bare RE2 match (no capture group); the matching rows are
        split at the dots and cast as one flat int64 column."""
        ips = pc.cast(ips, pa.string())
        rows = np.flatnonzero(pc.fill_null(pc.match_substring_regex(ips, _IPV4), False))
        octets = pc.list_flatten(pc.split_pattern(ips.take(rows), "."))
        octets = np.asarray(pc.cast(octets, pa.int64())).reshape(-1, 4)
        out = np.full(len(ips), -1, dtype=np.int64)
        ok = (octets <= 255).all(axis=1)
        out[rows[ok]] = octets[ok] @ np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.int64)
        return out

    def __call__(self, table: pa.Table) -> pa.Table:
        n = table.num_rows
        out = table
        if self.source_col not in table.column_names or len(self.starts) == 0:
            for name in self.attr_names:
                out = out.append_column(self.prefix + name, pa.nulls(n, pa.string()))
            return out
        ips = self.pack_ipv4(table.column(self.source_col))
        # a miss (-1 included: every start is >= 0) lands before the
        # first start or past its range's end; its index is masked null
        pos = np.searchsorted(self.starts, ips, side="right") - 1
        hit = (pos >= 0) & (ips <= self.ends[pos])
        idx = pa.array(pos, mask=~hit)
        for name in self.attr_names:
            out = out.append_column(self.prefix + name, self.attrs[name].take(idx))
        return out
