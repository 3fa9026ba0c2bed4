"""Mergeable cardinality sketch: HyperLogLog.

`aggregate.distinct_count` is exact but ships every distinct (key,
value) pair through a shuffle — the right call for bounded telemetry
keys. At 100-TB web scale ("distinct URLs in the crawl") the distinct
set itself is too big to exchange; the standard answer is a HyperLogLog
sketch (Flajolet et al. 2007, public algorithm): m = 2^p one-byte
registers, value hashed once, register = max(leading-zero rank), union
of two sketches = element-wise max — a perfect fit for a Ray
`Dataset.aggregate` tree reduce (aggregate.tree_reduce, as
dedup.bloom.build_bloom_u64: per-block registers, maximum-combine up
the tree, NO shuffle, corpus streams). The Count-Min tables below are
the same reduce with an add merge.

Estimator: the classic alpha_m * m^2 / sum(2^-M) with linear counting
below 2.5m when empty registers remain. The textbook 32-bit
large-range log correction is intentionally OMITTED: register values
come from 64-bit hashes here, so the 2^32 saturation regime it
corrects for is unreachable. Relative error ~= 1.04 / sqrt(m);
p=14 (16 KiB) gives ~0.8%.

Deterministic: the value hash is the repo's fixed-key siphash
(hashutil.hash_str_array), so the same input produces the same sketch
on any partitioning — pinned by tests/test_sketch.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .aggregate import reduce_array, tree_reduce
from .hashutil import hash_str_array


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_add(registers: np.ndarray, h: np.ndarray) -> None:
    """Fold a batch of uint64 hashes into 2^p registers in place:
    index = top p bits, rank = leading zeros of the remaining 64-p bits
    + 1, register = running max. Fully vectorized (np.maximum.at)."""
    p = int(np.log2(len(registers)))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    # rank = #leading zeros of the 64-bit `rest` + 1; the OR above plants
    # a sentinel bit so rank caps at 64 - p + 1 (all-zero suffix case)
    v = rest.copy()
    # leading-zero count via float64 exponent would lose precision past
    # 2^53; use a 6-step binary reduction instead (log2(64) passes)
    lz = np.zeros(len(h), dtype=np.uint64)
    for s in (32, 16, 8, 4, 2, 1):
        s = np.uint64(s)
        mask = v < (np.uint64(1) << (np.uint64(64) - s))
        lz = np.where(mask, lz + s, lz)
        v = np.where(mask, v << s, v)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(registers, idx, rank)


def hll_estimate(registers: np.ndarray) -> float:
    """Cardinality estimate with small-range linear counting."""
    m = len(registers)
    est = _alpha(m) * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(registers == 0))
        if zeros:
            return m * np.log(m / zeros)
    return float(est)


def _hll_fold(value_col: str):
    # pandas notna, not Arrow drop_null: an int column holding nulls must
    # stay float64 here (1.0, not 1), or its values hash differently
    def fold(t: pa.Table, acc: np.ndarray) -> None:
        col = t.column(value_col).to_pandas()
        col = col[col.notna()]
        if len(col):
            hll_add(acc, hash_str_array(col.to_numpy(dtype=object)))

    return fold


def hll_build(ds, value_col: str, p: int = 14) -> np.ndarray:
    """Stream a Dataset column into one HLL register array: per-block
    fold + element-wise-max tree combine (Dataset.aggregate, no
    shuffle). Returns the uint8 registers (2^p bytes) on the driver."""
    return reduce_array(ds, _hll_fold(value_col), np.maximum,
                        np.zeros(1 << p, dtype=np.uint8))


def hll_distinct(ds, value_col: str, p: int = 14) -> float:
    """Approximate COUNT(DISTINCT value_col) of a Dataset — one
    streaming pass, 2^p bytes of state, ~1.04/sqrt(2^p) relative
    error."""
    return hll_estimate(hll_build(ds, value_col, p))


def hll_group_distinct(ds, keys: list[str] | str, value_col: str, p: int = 12,
                       alias: str = "approx_distinct"):
    """Approximate COUNT(DISTINCT value) PER KEY GROUP: an HLL register
    array as the per-group accumulator of a native Ray groupby
    aggregate — per-block fold, element-wise-max combine, estimate in
    finalize. The per-group state is 2^p bytes regardless of value
    cardinality, so this survives keys whose distinct sets are too big
    for aggregate.distinct_count's exact exchange; for bounded keys the
    shuffle moves one register array per (key, block). Returns
    Dataset[(keys..., alias)] with the estimate rounded to the nearest
    int."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    agg = tree_reduce(_hll_fold(value_col), np.maximum,
                      np.zeros(1 << p, dtype=np.uint8), name=alias,
                      finalize=lambda acc: int(round(hll_estimate(acc))))
    return ds.groupby(keys).aggregate(agg)


# ---------------------------------------------------------------------------
# Count-Min sketch: mergeable frequency estimation / heavy hitters
# ---------------------------------------------------------------------------

_CMS_ROW_SEEDS = np.uint64(0xA076_1D64_78BD_642F)


def cms_params(eps: float = 1e-4, delta: float = 1e-3) -> tuple[int, int]:
    """(width, depth) for overcount <= eps*N with probability 1-delta
    (Cormode & Muthukrishnan 2005: w = ceil(e/eps), d = ceil(ln 1/d))."""
    import math

    return int(math.ceil(math.e / eps)), int(math.ceil(math.log(1.0 / delta)))


def _cms_cols(h: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices: per row an independent splitmix64
    re-mix of the base hash."""
    from .hashutil import splitmix64

    out = np.empty((depth, len(h)), dtype=np.int64)
    with np.errstate(over="ignore"):
        for d in range(depth):
            out[d] = (splitmix64(h ^ (_CMS_ROW_SEEDS * np.uint64(d + 1)))
                      % np.uint64(width)).astype(np.int64)
    return out


def cms_add(table: np.ndarray, h: np.ndarray, counts: np.ndarray | None = None) -> None:
    """Fold uint64 hashes (optionally pre-aggregated with `counts`) into
    a (depth, width) int64 table in place."""
    depth, width = table.shape
    cols = _cms_cols(h, depth, width)
    w = np.ones(len(h), dtype=np.int64) if counts is None else counts.astype(np.int64)
    for d in range(depth):
        np.add.at(table[d], cols[d], w)


def cms_query(table: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Estimated counts (min over rows): true_count <= est, and
    est <= true_count + eps*N w.p. 1-delta under cms_params sizing."""
    depth, width = table.shape
    cols = _cms_cols(h, depth, width)
    est = table[0][cols[0]]
    for d in range(1, depth):
        est = np.minimum(est, table[d][cols[d]])
    return est


def cms_build_words(ds, text_col: str = "text", width: int = 1 << 16,
                    depth: int = 4) -> np.ndarray:
    """Stream a text column's word counts into a Count-Min table:
    per-block tokenize + LOCAL np.unique pre-aggregation (one add per
    distinct word per block, not per occurrence), partial tables summed
    up a tree (Dataset.aggregate — element-wise add IS the CMS merge).
    The mergeable companion to textstats.vocab_topk for vocabularies
    too large to exchange: depth*width*8 bytes of state regardless of
    corpus size."""
    from .textstats.vocab import _flat_tokens

    def fold(t: pa.Table, acc: np.ndarray) -> None:
        texts = t.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        toks, _ = _flat_tokens(texts)
        if len(toks):
            words, counts = np.unique(toks, return_counts=True)
            cms_add(acc, hash_str_array(words), counts)

    return reduce_array(ds, fold, np.add, np.zeros((depth, width), dtype=np.int64))


def cms_word_counts(table: np.ndarray, words) -> np.ndarray:
    """Estimated corpus counts for a list/array of words."""
    arr = np.asarray(words, dtype=object)
    return cms_query(table, hash_str_array(arr))


def cms_build_column(ds, col: str, width: int = 1 << 16,
                     depth: int = 4) -> np.ndarray:
    """Stream ANY key column's counts into a Count-Min table (the
    generic companion to cms_build_words): per-block np.unique
    pre-aggregation, element-wise-add tree merge, depth*width*8 bytes
    of state regardless of key cardinality."""
    from .curation import fast_sample_u64

    def fold(t: pa.Table, acc: np.ndarray) -> None:
        keys = t.column(col).to_pandas().dropna().to_numpy()
        if len(keys):
            uniq, counts = np.unique(keys, return_counts=True)
            cms_add(acc, fast_sample_u64(uniq), counts)

    return reduce_array(ds, fold, np.add, np.zeros((depth, width), dtype=np.int64))


def cms_key_counts(table: np.ndarray, keys) -> np.ndarray:
    """Estimated counts for an array of keys (same coordinate family
    as cms_build_column)."""
    from .curation import fast_sample_u64

    return cms_query(table, fast_sample_u64(np.asarray(keys)))
