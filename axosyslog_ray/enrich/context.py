"""add-contextual-data(): broadcast dict join keyed by a selector template.

Mirrors the reference (reference
modules/add-contextual-data/add-contextual-data.c:111-140 process;
selectors add-contextual-data-template-selector.c; db
context-info-db.c): a CSV database of `selector,name,value` records; per
row the selector template is evaluated and looked up; on miss the
`default-selector` record set applies; matched (name,value) pairs are
written onto the row, values themselves template-evaluated against the
row (so a db value like "$HOST-suffix" works).

Scale shape: the db is SMALL-side, built once per worker in __init__.
Every batch takes one path, literal and template-valued dbs alike: one
`pc.index_in` of the selector against the db keys (the reference's one
hash lookup per message), then per field one `take` of its template ids
and one `take` of the rendered literals. Only rows whose value is a
template with references render it, over those rows alone. No shuffle.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.templates import Literal, Template
from ..stages.syslog import _scatter


def parse_context_csv(text: str,
                      strict: bool = True) -> dict[str, list[tuple[str, str]]]:
    """RFC4180 CSV of selector,name,value records (context-info-db.c
    import; the record scanner rejects malformed rows and the whole
    import fails — test_import_with_invalid_csv_content). CRLF endings
    and doubled-quote escapes come with the csv module."""
    db: dict[str, list[tuple[str, str]]] = {}
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        if len(row) != 3:
            if strict:
                raise ValueError(
                    f"add-contextual-data CSV: malformed record {row!r}")
            continue
        db.setdefault(row[0], []).append((row[1], row[2]))
    return db


class AddContextualData:
    """Usable directly as `ds.map_batches(AddContextualData, fn_constructor_kwargs=...,
    concurrency=N)` — db built once per actor; pass
    `db=parse_context_csv(text)`."""

    def __init__(
        self,
        db: dict[str, list[tuple[str, str]]],
        selector: str = "$HOST",
        default_selector: str | None = "default",
        prefix: str = "",
        ignore_case: bool = False,
    ):
        """`ignore_case` matches selectors case-insensitively
        (context_info_db_new(ignore_case), reference
        test_ignore_case_on); `prefix` is prepended verbatim to every
        emitted name (contextual_data_record_scanner_new prefix)."""
        if ignore_case:
            folded: dict[str, list[tuple[str, str]]] = {}
            for k, recs in db.items():
                folded.setdefault(k.lower(), []).extend(recs)
            db = folded
            if default_selector:
                default_selector = default_selector.lower()
        self.ignore_case = ignore_case
        self.selector = Template(selector)
        self.prefix = prefix
        self.keys = pa.array(list(db), pa.string())
        default = db.get(default_selector, []) if default_selector else []
        # all field names any selector can set -> stable output schema
        self.fields = sorted({n for recs in db.values() for n, _ in recs})
        # per field, the template id each db key sets (the last record of
        # that name wins) or None, with the default records in the last slot
        specs: dict[str, int] = {}
        ids = {f: [None] * (len(db) + 1) for f in self.fields}
        for slot, recs in enumerate([*db.values(), default]):
            for name, value in recs:
                ids[name][slot] = specs.setdefault(value, len(specs))
        self.ids = {f: pa.array(v, pa.int32()) for f, v in ids.items()}
        # values are templates (the reference renders each one); one with
        # no references renders once, here, to its text
        self.templates = [Template(s) for s in specs]
        literal = [all(isinstance(e, Literal) for e in t.elems) for t in self.templates]
        self.rendered = pa.array(
            ["".join(e.text for e in t.elems) if lit else None
             for t, lit in zip(self.templates, literal)], pa.string())
        # per field, the template ids with references it can take
        self.dynamic = {f: sorted({i for i in v if i is not None and not literal[i]})
                        for f, v in ids.items()}

    def __call__(self, table: pa.Table) -> pa.Table:
        sel = self.selector.eval_arrow(table)
        if self.ignore_case:
            enc = sel.dictionary_encode()
            sel = pa.array([s.lower() for s in enc.dictionary.to_pylist()],
                           pa.string()).take(enc.indices)
        slot = pc.fill_null(pc.index_in(sel, value_set=self.keys), len(self.keys))
        out = table
        for f in self.fields:
            tid = self.ids[f].take(slot)
            vals = self.rendered.take(tid)
            if self.dynamic[f]:
                tid_np = pc.fill_null(tid, -1).to_numpy()
                pieces = []
                for i in self.dynamic[f]:
                    rows = np.flatnonzero(tid_np == i)
                    if len(rows):
                        pieces.append((rows, self.templates[i].eval_arrow(table.take(rows))))
                if pieces:
                    vals = _scatter(table.num_rows, pieces, vals, pa.string())
            out = out.append_column(self.prefix + f, vals)
        return out
