"""Deterministic vectorized hashing used for synthesis, salting and dedup,
and the one half-away-from-zero rounding kernel (DuckDB ROUND()).

All synthetic data is a pure function of (seed, row_index) via splitmix64,
so generation is reproducible under any batching / partitioning — the
property that makes `ray.data.range(n).map_batches(gen)` deterministic at
any scale.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def half_away(v, scale: float = 1.0):
    """Round `v * scale` half away from zero — DuckDB ROUND() semantics
    (numpy/pandas .round is banker's rounding, which flips .5 boundary
    hashes). Callers that scale first pass scale 1 (an exact multiply)."""
    return np.sign(v) * np.floor(np.abs(v) * scale + 0.5)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain algorithm)."""
    z = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        z = (z + _U64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def hash_idx(idx: np.ndarray, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic uint64 hash per row index for a given (seed, stream)."""
    with np.errstate(over="ignore"):
        base = _U64(seed & 0xFFFFFFFFFFFFFFFF) ^ (_U64((stream * 0xA24BAED4963EE407) & 0xFFFFFFFFFFFFFFFF))
        return splitmix64(idx.astype(_U64) + base)


def uniform01(idx: np.ndarray, seed: int, stream: int = 0) -> np.ndarray:
    """Deterministic float64 in [0,1) per row index."""
    return hash_idx(idx, seed, stream).astype(np.float64) / float(2**64)


def poly_window_hash(th: np.ndarray, n: int, pw: np.ndarray) -> np.ndarray:
    """n-wide rolling polynomial combine over a flat uint64 hash stream:
    out[j] = sum_i th[j+i] * pw[i] (mod 2^64), computed as n CONTIGUOUS
    shifted multiply-adds. A sliding_window_view + sum(axis=1) computes
    the same thing ~100x slower (strided reduction defeats SIMD).
    Returns len(th) - n + 1 window hashes (caller masks doc crossings)."""
    m = len(th) - n + 1
    with np.errstate(over="ignore"):
        out = th[:m] * pw[0]
        for i in range(1, n):
            out += th[i:m + i] * pw[i]
    return out


def hash_str_array(arr) -> np.ndarray:
    """Vectorized deterministic 64-bit hash over an array of strings (for
    salting and exact-dedup keys). Uses pandas' siphash with its fixed
    default key — stable across processes and machines (unlike Python
    hash(), which is salted per process)."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False).astype(_U64)
