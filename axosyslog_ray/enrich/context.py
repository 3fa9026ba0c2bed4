"""add-contextual-data(): broadcast dict join keyed by a selector template.

Mirrors the reference (reference
modules/add-contextual-data/add-contextual-data.c:111-140 process;
selectors add-contextual-data-template-selector.c; db
context-info-db.c): a CSV database of `selector,name,value` records; per
row the selector template is evaluated and looked up; on miss the
`default-selector` record set applies; matched (name,value) pairs are
written onto the row, values themselves template-evaluated against the
row (so a db value like "$HOST-suffix" works).

Scale shape: the db is SMALL-side — broadcast once (`ray.put` on the
driver or a path loaded once per actor in __init__). When every db value
is a literal, a batch is one `pc.index_in` of the selector against the
db keys and one `take` per field (the reference's one hash lookup per
message). Template-valued dbs render each selector group's values. No
shuffle.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.templates import Literal, Template


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
    concurrency=N)` — db built once per actor."""

    def __init__(
        self,
        db: dict[str, list[tuple[str, str]]] | None = None,
        csv_text: str | None = None,
        db_ref=None,  # ray.put ObjectRef for broadcast
        selector: str = "$HOST",
        default_selector: str | None = "default",
        prefix: str = "",
        ignore_case: bool = False,
    ):
        """`ignore_case` matches selectors case-insensitively
        (context_info_db_new(ignore_case), reference
        test_ignore_case_on); `prefix` is prepended verbatim to every
        emitted name (contextual_data_record_scanner_new prefix)."""
        if db_ref is not None:
            import ray

            db = ray.get(db_ref)
        if db is None:
            db = parse_context_csv(csv_text or "")
        self.ignore_case = ignore_case
        if ignore_case:
            folded: dict[str, list[tuple[str, str]]] = {}
            for k, recs in db.items():
                folded.setdefault(k.lower(), []).extend(recs)
            db = folded
            if default_selector:
                default_selector = default_selector.lower()
        self.db = db
        self.selector = Template(selector)
        self.default = db.get(default_selector, []) if default_selector else []
        self.prefix = prefix
        # all field names any selector can set -> stable output schema
        names = {n for recs in db.values() for n, _ in recs}
        self.fields = sorted(names)
        # pre-compile value templates (values are templates per the reference)
        self.compiled = {
            sel: [(n, Template(v)) for n, v in recs] for sel, recs in db.items()
        }
        self.default_compiled = [(n, Template(v)) for n, v in self.default]
        # literal db (no $refs; the default records are db records too):
        # per field, the value each db key sets (its last record of that
        # name) or null, in db key order
        self.all_literal = all(
            len(t.elems) == 0 or (len(t.elems) == 1 and isinstance(t.elems[0], Literal))
            for recs in self.compiled.values() for _, t in recs
        )
        if self.all_literal:
            self.keys = pa.array(list(db), pa.string())
            self.literal_cols = {
                f: pa.array([dict(recs).get(f) for recs in db.values()], pa.string())
                for f in self.fields
            }
            self.literal_defaults = dict(self.default)

    def __call__(self, table: pa.Table) -> pa.Table:
        sel = self.selector.eval_arrow(table)
        if self.ignore_case:
            sel = pa.array([s.lower() for s in sel.to_pylist()], pa.string())
        out = table
        if self.all_literal:
            idx = pc.index_in(sel, value_set=self.keys)
            known = pc.is_valid(idx)
            for f in self.fields:
                dflt = pa.scalar(self.literal_defaults.get(f), pa.string())
                vals = pc.if_else(known, self.literal_cols[f].take(idx), dflt)
                out = out.append_column(self.prefix + f, vals)
            return out
        n = table.num_rows
        cols = {f: np.full(n, None, dtype=object) for f in self.fields}
        sel_np = sel.to_numpy(zero_copy_only=False)
        order = pd.Series(sel_np).groupby(sel_np, sort=False).groups  # value -> row idx
        for value, idx in order.items():
            recs = self.compiled.get(value, self.default_compiled)
            if not recs:
                continue
            sub = table.take(pa.array(np.asarray(idx, dtype=np.int64)))
            for name, tmpl in recs:
                vals = tmpl.eval(sub).to_numpy(dtype=object)
                cols[name][np.asarray(idx, dtype=np.int64)] = vals
        for f in self.fields:
            out = out.append_column(self.prefix + f, pa.array(cols[f], type=pa.string()))
        return out
