"""Deterministic side-table fixtures (FIXTURES.md §3).

The small broadcast-side inputs for the enrichment stages: a
context-db CSV keyed by host (add-contextual-data analogue,
reference modules/add-contextual-data/context-info-db.c), a set of CIDR
ranges (geoip analogue), a denylist (in-list analogue). All pure
functions of a seed — no external data.
"""

from __future__ import annotations

COUNTRIES = ["us", "de", "jp", "fr", "br", "in", "au", "za"]
TIERS = ["gold", "silver", "bronze"]
DCS = ["dc-east", "dc-west", "dc-eu", "dc-ap"]


def context_db_csv(n_hosts: int = 100) -> str:
    """selector,name,value CSV — selectors are the top-N hosts plus a
    'default' fallback record (reference add-contextual-data.c:111-140)."""
    lines = []
    for r in range(n_hosts):
        host = f"host{r:03d}.example.com"
        lines.append(f"{host},host_tier,{TIERS[r % len(TIERS)]}")
        lines.append(f"{host},host_dc,{DCS[r % len(DCS)]}")
    lines.append("default,host_tier,unknown")
    lines.append("default,host_dc,unknown")
    return "\n".join(lines) + "\n"


def ip_ranges(n: int = 64) -> list[tuple[str, dict[str, str]]]:
    """64 deterministic /18 CIDRs inside 10.0.0.0/8 with country/city attrs."""
    out = []
    for i in range(n):
        # 10.(i*4).0.0/18 — disjoint, covers a quarter of each /16
        cidr = f"10.{(i * 4) % 256}.0.0/18"
        out.append((cidr, {"country": COUNTRIES[i % len(COUNTRIES)], "city": f"city{i:02d}"}))
    return out
