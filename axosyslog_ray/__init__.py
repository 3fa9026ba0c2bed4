"""axosyslog_ray — a Ray-Data-native log/telemetry processing engine.

A from-scratch re-creation of the query & data-processing capabilities of
AxoSyslog (reference: /root/reference, axoflow/axosyslog) expressed as
ray.data.Dataset pipelines: vectorized parse (syslog/csv/kv/json/regex/
patterndb) -> enrich (broadcast dict / range lookups) -> route (predicate
masks, first match wins, fallback last) -> aggregate (salted groupbys, session
windows), over Arrow batches with actor pools for stateful stages.

Nothing in here is a port of the reference's C code; file:line citations in
docstrings point at the reference ONLY to document semantic parity.
"""

__version__ = "0.1.0"
