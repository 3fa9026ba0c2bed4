"""Canonical Arrow schemas.

The input table shape is fixed by BASELINE.json `input_hint`:
(url:string, warc_ts:timestamp, html:binary, text:string, lang:string) —
Common-Crawl-style pages whose `text` column carries one log/payload line.

The parsed message table mirrors the reference's LogMessage record
(reference lib/logmsg/logmsg.h:241-327): fixed builtin columns promoted to
real Arrow columns, the dynamic name-value tail as a map<string,string>
column `nv` (reference NVTable, lib/logmsg/nvtable.h:265+), tags as
list<string> (reference bitset, lib/logmsg/tags.c).
"""

from __future__ import annotations

import pyarrow as pa

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# the pri of a line that carries no <PRI>: the reference's default
# (modules/syslogformat/syslog-format.c, default_pri). The parsed-message
# columns are declared once, in stages/syslog.py (COLUMNS).
DEFAULT_PRI = 13  # user.notice == facility 1 * 8 + severity 5

LANGS = ["en", "de", "fr", "es", "zh", "ja", "ru", "pt"]
# en-heavy skew per FIXTURES.md §1 (second skew key for salted aggregation)
LANG_WEIGHTS = [0.60, 0.08, 0.07, 0.07, 0.06, 0.05, 0.04, 0.03]

N_HOSTS = 1000
ZIPF_EXPONENT = 1.2

FAMILY_NAMES = ["rfc3164", "rfc5424", "csv", "kv", "json", "patterndb"]
