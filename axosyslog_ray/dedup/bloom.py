"""Bounded-memory cross-corpus membership: distributed Bloom filter.

`curation.decontaminate` broadcasts the reference side as an EXACT
sorted hash array — right when the reference is a bounded benchmark
suite. This module covers the opposite regime: testing a stream against
a reference corpus too large for an exact set (dedup a new crawl against
10^12 already-ingested pages, blocklist scoring against a full reference
lexicon). A Bloom filter caps the broadcast state at `num_bits/8` bytes
REGARDLESS of reference size, trading exactness for a sized, documented
false-positive rate; false negatives are impossible.

Ray-native shape:

- **build** is an `aggregate.tree_reduce` over the Dataset: each
  block sets its keys' bits in a local bitmap, partials merge by
  bitwise OR up a tree — NO shuffle, and the reference corpus streams
  (never collected). The result bitmap broadcasts once via `ray.put`.
- **test** is an actor-pool / task `map_batches` stage fetching the
  bitmap zero-copy per worker and probing all rows' bits vectorized
  (Kirsch-Mitzenmacher double hashing: idx_i = h1 + i*h2 mod 2^b —
  index derivation stays in pure uint64 numpy).

Keys are uint64 hashes (hashutil.hash_str_array for strings — the same
fixed-key siphash the exact path uses), so the filter composes with any
key the caller can hash vectorized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..aggregate import reduce_array
from ..curation import _gram_hashes
from ..hashutil import splitmix64

_H2_SEED = np.uint64(0xC2B2AE3D27D4EB4F)
_BIT = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


def bloom_params(n_keys: int, fpr: float = 1e-6) -> tuple[int, int]:
    """(num_bits rounded up to a power of two, num_hashes) for a target
    false-positive rate at n_keys insertions."""
    import math

    m = max(64, int(-n_keys * math.log(fpr) / (math.log(2) ** 2)))
    num_bits = 1 << (m - 1).bit_length()
    k = max(1, round(num_bits / max(n_keys, 1) * math.log(2)))
    return num_bits, min(k, 16)


def _indices(h: np.ndarray, i: int, mask: np.uint64) -> np.ndarray:
    h1 = h.astype(np.uint64)
    h2 = splitmix64(h1 ^ _H2_SEED) | np.uint64(1)
    with np.errstate(over="ignore"):
        return ((h1 + np.uint64(i) * h2) & mask).astype(np.int64)


def _set_bits(bitmap: np.ndarray, h: np.ndarray, num_hashes: int) -> None:
    mask = np.uint64(len(bitmap) * 8 - 1)
    for i in range(num_hashes):
        idx = _indices(h, i, mask)
        np.bitwise_or.at(bitmap, idx >> 3, _BIT[idx & 7])


def bloom_test_u64(bitmap: np.ndarray, h: np.ndarray, num_hashes: int) -> np.ndarray:
    """Vectorized membership probe: True where ALL k bits are set."""
    if len(h) == 0:
        return np.zeros(0, dtype=bool)
    mask = np.uint64(len(bitmap) * 8 - 1)
    hit = np.ones(len(h), dtype=bool)
    for i in range(num_hashes):
        idx = _indices(h, i, mask)
        hit &= (bitmap[idx >> 3] & _BIT[idx & 7]) != 0
    return hit


def build_bloom_u64(ds, key_col: str, num_bits: int, num_hashes: int) -> np.ndarray:
    """Stream a Dataset's uint64 key column into a Bloom bitmap —
    per-block set + tree OR-combine (Dataset.aggregate, no shuffle).
    Returns the uint8 bitmap (num_bits/8 bytes) on the driver."""
    assert num_bits & (num_bits - 1) == 0, "num_bits must be a power of two"

    def fold(t: pa.Table, acc: np.ndarray) -> None:
        h = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        _set_bits(acc, h, num_hashes)

    return reduce_array(ds, fold, np.bitwise_or, np.zeros(num_bits // 8, dtype=np.uint8))


class BloomGramScorer:
    """Actor-pool stage: per doc, how many of its word-n-gram positions
    hit the broadcast reference bitmap. Bitmap fetched once per worker
    (zero-copy object-store read), probes vectorized per batch."""

    def __init__(self, bitmap_ref=None, bitmap: np.ndarray | None = None,
                 num_hashes: int = 7, n: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self._ref = bitmap_ref
        self.bitmap = None if bitmap is None else np.asarray(bitmap, dtype=np.uint8)
        self.num_hashes = num_hashes
        self.n = n
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.bitmap is None:
            import ray

            self.bitmap = np.asarray(ray.get(self._ref), dtype=np.uint8)
        texts = batch.column(self.text_col).to_pandas().fillna("").to_numpy(dtype=object)
        h, seg = _gram_hashes(texts, self.n)
        hit = bloom_test_u64(self.bitmap, h, self.num_hashes)
        csum = np.concatenate([[0], np.cumsum(hit)])
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "n_grams": pa.array((seg[1:] - seg[:-1]).astype(np.int64)),
            "n_hit": pa.array((csum[seg[1:]] - csum[seg[:-1]]).astype(np.int64)),
        })


def gram_bloom_flags(corpus, reference, n: int = 3,
                     num_bits: int = 1 << 22, num_hashes: int = 7,
                     text_col: str = "text", id_col: str = "doc_id"):
    """Score every corpus doc's n-gram overlap against a Bloom filter of
    the reference corpus's n-grams. Returns (id_col, n_grams, n_hit).

    The reference STREAMS into the bitmap (tree OR-reduce); only the
    fixed-size bitmap broadcasts. With the default 2^22 bits / 7 hashes
    the false-positive odds per probed gram stay below 1e-10 until the
    reference holds ~100k distinct grams — size num_bits to the real
    reference with bloom_params(). False positives can only INFLATE
    n_hit; n_hit >= truth always holds."""
    import ray

    ref_grams = reference.map_batches(
        lambda b: pa.table({"h": pa.array(_gram_hashes(
            b.column(text_col).to_pandas().fillna("").to_numpy(dtype=object), n)[0])}),
        batch_format="pyarrow")
    bitmap = build_bloom_u64(ref_grams, "h", num_bits, num_hashes)
    ref = ray.put(bitmap)
    # plain tasks, not an actor pool: the only state is the broadcast
    # bitmap, and ray.get on a node-local object is a zero-copy plasma
    # view (µs after the first fetch) — tasks scale elastically with the
    # cluster and skip the fixed pool's spin-up cost
    probe = BloomGramScorer(bitmap_ref=ref, num_hashes=num_hashes, n=n,
                            text_col=text_col, id_col=id_col)
    return corpus.map_batches(probe, batch_format="pyarrow")
