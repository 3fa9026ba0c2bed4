"""Text analysis: vectorized per-batch feature extraction.

All stages are pure `pa.Table -> pa.Table`; the language-ID model is a
stateful actor (profiles built once per worker).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashutil import half_away, hash_str_array

# BPE-ish token regex: words, numbers, or single punctuation marks
TOKEN_RE = re.compile(r"\w+|[^\w\s]")

STOPWORDS = {
    "en": {"the", "a", "an", "and", "of", "to", "in", "is", "it", "that", "for", "on", "with", "as"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "von", "mit", "auf"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "des", "du", "en", "que"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "que", "en", "por"},
    "pt": {"o", "a", "os", "as", "e", "um", "uma", "de", "que", "em", "para", "com"},
    "ru": {"и", "в", "не", "на", "что", "с", "по", "это", "как", "его"},
}


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace tokens + BPE-ish regex tokens + chars, one pass."""
    s = batch.column(text_col).to_pandas().fillna("")
    ws = s.str.split().map(len).astype("int64")
    bpe = s.str.count(TOKEN_RE)
    return (
        batch.append_column("n_ws_tokens", pa.array(ws.to_numpy()))
        .append_column("n_bpe_tokens", pa.array(bpe.astype("int64").to_numpy()))
        .append_column("n_chars_calc", pa.array(s.str.len().astype("int64").to_numpy()))
    )


def quality_features(batch: pa.Table, text_col: str = "text", stop_lang: str = "en") -> pa.Table:
    """Quality scoring: length, mean word length, punctuation ratio,
    stopword ratio, uppercase ratio — the standard web-corpus heuristics
    (C4/Gopher-style rules, public)."""
    s = batch.column(text_col).to_pandas().fillna("")
    n_chars = s.str.len().astype("float64")
    toks = s.str.split()
    n_words = toks.map(len).to_numpy(dtype=np.int64)
    nz = np.maximum(n_words, 1)
    # flat word array + reduceat: word metrics as C kernels, no per-doc
    # Python loops (same shape as gopher_quality below)
    from itertools import chain

    flat = pd.Series(list(chain.from_iterable(toks)), dtype=object)
    total = len(flat)
    seg = np.zeros(len(s), dtype=np.int64)
    np.cumsum(n_words[:-1], out=seg[1:])

    def _per_doc_sum(vals: np.ndarray) -> np.ndarray:
        if total == 0:
            return np.zeros(len(s), dtype=np.float64)
        out = np.add.reduceat(vals, np.minimum(seg, max(total - 1, 0))).astype(np.float64)
        out[n_words == 0] = 0.0
        return out

    wlen = flat.str.len().to_numpy(dtype=np.int64) if total else np.array([], np.int64)
    mean_word_len = pd.Series(_per_doc_sum(wlen) / nz)
    stop = STOPWORDS[stop_lang]
    is_stop = (flat.str.lower().isin(stop).to_numpy(dtype=np.int64)
               if total else np.array([], np.int64))
    stop_ratio = pd.Series(_per_doc_sum(is_stop) / nz)
    punct_ratio = s.str.count(r"[^\w\s]").astype("float64") / n_chars.clip(lower=1)
    upper_ratio = s.str.count(r"[A-Z]").astype("float64") / n_chars.clip(lower=1)
    out = batch
    for name, vals in (
        ("mean_word_len", mean_word_len),
        ("stop_ratio", stop_ratio),
        ("punct_ratio", punct_ratio),
        ("upper_ratio", upper_ratio),
    ):
        out = out.append_column(name, pa.array(vals.astype("float64").to_numpy()))
    return out


def normalize_text(batch: pa.Table, text_col: str = "text",
                   out_col: str | None = None, form: str = "NFC",
                   lowercase: bool = True, collapse_ws: bool = True) -> pa.Table:
    """Canonical text normalization: Unicode normalize (NFC/NFKC),
    lowercase, collapse whitespace runs, trim — the standard web-corpus
    preprocessing step before dedup/fingerprinting. Arrow C kernels for
    case/whitespace; Unicode normalization runs via unicodedata ONLY on
    rows containing non-ASCII bytes (ASCII is normalization-invariant,
    and this pyarrow build's pc.utf8_normalize is a silent no-op — do
    NOT use it). Map-only, SQL-reproducible (DuckDB nfc_normalize +
    lower + regexp_replace, docs_normalize)."""
    import unicodedata

    import pyarrow.compute as pc

    col = batch.column(text_col)
    needs = pc.match_substring_regex(col, "[^\\x00-\\x7f]")
    if pc.any(pc.fill_null(needs, False)).as_py():
        s = col.to_pandas()
        m = pc.fill_null(needs, False).to_numpy(zero_copy_only=False)
        s[m] = s[m].map(lambda x: unicodedata.normalize(form, x))
        col = pa.array(s, type=pa.string())
    if lowercase:
        col = pc.utf8_lower(col)
    if collapse_ws:
        col = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(col, r"\s+", " "))
    if out_col is None:
        idx = batch.schema.get_field_index(text_col)
        return batch.set_column(idx, text_col, col)
    return batch.append_column(out_col, col)


def fingerprint_md5(batch: pa.Table, text_col: str = "text", out_col: str = "fingerprint") -> pa.Table:
    """Canonical document fingerprint: md5 of lowercased trimmed text
    (exact-dup key robust to case/edge whitespace). Per-row Python md5 —
    kept as the SQL-conformance variant (DuckDB md5() reproduces it,
    docs_fingerprint); the scale path is `fingerprint_fast`."""
    s = batch.column(text_col).to_pandas().fillna("")
    fps = s.str.strip().str.lower().map(lambda x: hashlib.md5(x.encode()).hexdigest())
    return batch.append_column(out_col, pa.array(fps.to_numpy(dtype=object), type=pa.string()))


def fingerprint_fast(batch: pa.Table, text_col: str = "text",
                     out_col: str = "fingerprint64") -> pa.Table:
    """Vectorized document fingerprint: siphash64 of lowercased trimmed
    text (hash_str_array — ONE C pass over the batch, no per-row Python).
    Same normalization and dedup-key semantics as fingerprint_md5 with a
    64-bit collision domain; oracled by a committed golden parquet
    (docs_fingerprint_fast — disclosed regression pin; the md5 variant
    stays the independent SQL conformance check)."""
    s = batch.column(text_col).to_pandas().fillna("")
    norm = s.str.strip().str.lower().to_numpy(dtype=object)
    h = hash_str_array(norm).view(np.int64)
    return batch.append_column(out_col, pa.array(h, type=pa.int64()))


def rolling_fingerprints(batch: pa.Table, text_col: str = "text", window: int = 5,
                         keep: int = 8, out_col: str = "shingle_prints",
                         method: str = "fast") -> pa.Table:
    """Winnowing-style rolling fingerprints: hash every `window`-word
    shingle, keep the `keep` smallest hashes per doc (a locality-robust
    signature; Schleimer et al. 2003 winnowing, public).

    method="fast" (default, the scale path): flat token stream hashed
    ONCE (pandas siphash), shingle hashes via the n-wide polynomial
    window combine + splitmix64 finalizer (curation._gram_hashes'
    construction), smallest-k per doc via one lexsort + segment mask —
    no per-doc Python loop, no gram-string joins. Golden-pinned
    (docs_fingerprint_fast); equal-token-tuple => equal hash, so the
    signature semantics match the join variant modulo the hash family.

    method="join": the original per-doc gram-string construction
    (hash_str_array over " ".join'ed shingles) — per-doc Python, kept as
    the independently-readable conformance variant (cross-checked against
    fast in tests/test_dedup_ann.py)."""
    s = batch.column(text_col).to_pandas().fillna("")
    if method == "join":
        out = []
        for text in s:
            toks = text.split()
            if len(toks) < window:
                grams = [" ".join(toks)] if toks else []
            else:
                grams = [" ".join(toks[i : i + window]) for i in range(len(toks) - window + 1)]
            if not grams:
                out.append([])
                continue
            h = hash_str_array(np.array(grams, dtype=object)).view(np.int64)
            out.append(sorted(h.tolist())[:keep])
        return batch.append_column(out_col, pa.array(out, type=pa.list_(pa.int64())))

    import pyarrow.compute as pc

    from ..hashutil import splitmix64

    n_docs = len(s)
    # tokenize in Arrow C: whitespace split (keeps empty edge tokens,
    # filtered below to match str.split() semantics), flatten, then hash
    # only the UNIQUE vocabulary (dictionary encode) — per-token hash is
    # a fancy-index gather, not a per-string siphash
    arr = pa.array(s.to_numpy(dtype=object), type=pa.string())
    lists = pc.utf8_split_whitespace(arr)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    raw_counts = np.diff(lists.offsets.to_numpy())
    flat_all = pc.list_flatten(lists)
    nonempty = pc.not_equal(flat_all, "").to_numpy(zero_copy_only=False)
    doc_all = np.repeat(np.arange(n_docs), raw_counts)
    doc_of_tok = doc_all[nonempty]
    counts = np.bincount(doc_of_tok, minlength=n_docs)
    nt = int(counts.sum())
    # grams per doc under the join variant's shape: docs shorter than the
    # window contribute ONE whole-doc gram; empty docs contribute none
    gpd = np.where(counts == 0, 0, np.maximum(counts - window + 1, 1))
    if nt == 0:
        empty = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_docs + 1, dtype=np.int32)), pa.array([], type=pa.int64()))
        return batch.append_column(out_col, empty)
    de = flat_all.filter(pa.array(nonempty)).dictionary_encode()
    uniq = de.dictionary.to_pandas().to_numpy(dtype=object)
    uh = pd.util.hash_array(uniq, categorize=False).astype(np.uint64)
    th = uh[de.indices.to_numpy()]
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    hashes_parts: list[np.ndarray] = []
    docs_parts: list[np.ndarray] = []
    _A = np.uint64(0x9E3779B97F4A7C15)
    from ..hashutil import poly_window_hash

    with np.errstate(over="ignore"):
        if nt >= window and (counts >= window).any():
            pw = np.empty(window, dtype=np.uint64)
            pw[window - 1] = np.uint64(1)
            for i in range(window - 2, -1, -1):
                pw[i] = pw[i + 1] * _A
            h = splitmix64(poly_window_hash(th, window, pw))
            valid = doc_of_tok[: nt - window + 1] == doc_of_tok[window - 1 :]
            hashes_parts.append(h[valid])
            docs_parts.append(doc_of_tok[: nt - window + 1][valid])
        # short docs (0 < tokens < window): one whole-doc gram of width t,
        # grouped by t — at most window-1 extra vector passes
        for t in np.unique(counts[(counts > 0) & (counts < window)]):
            sel = np.flatnonzero(counts == t)
            gather = (starts[sel][:, None] + np.arange(t)[None, :]).ravel()
            view = th[gather].reshape(-1, int(t))
            pw = np.empty(int(t), dtype=np.uint64)
            pw[-1] = np.uint64(1)
            for i in range(int(t) - 2, -1, -1):
                pw[i] = pw[i + 1] * _A
            hashes_parts.append(splitmix64((view * pw).sum(axis=1, dtype=np.uint64)))
            docs_parts.append(sel)
    all_hu = np.concatenate(hashes_parts)
    all_d = np.concatenate(docs_parts)
    # smallest-`keep` per doc WITHOUT sorting every gram: a per-doc
    # uniform-hash threshold T_d = (2*keep/grams_d) * 2^64 keeps ~2*keep
    # candidates per doc (downward-closed, so the doc's true smallest-k
    # are inside whenever >= min(keep, grams_d) survive; docs where the
    # binomial tail under-fills fall back to all their grams) — then ONE
    # lexsort over the ~2k/g-sized candidate set, rank-mask < keep
    all_hs = all_hu.view(np.int64)
    frac = np.minimum(2.0 * keep / np.maximum(gpd, 1), 1.0)
    # signed-domain threshold (ordering matches the final int64 sort);
    # frac >= 1 docs bypass the threshold entirely via keep_all
    keep_all = frac >= 1.0
    thr = np.full(n_docs, np.iinfo(np.int64).max, dtype=np.int64)
    lim = ~keep_all
    thr[lim] = (-(2.0**63) + frac[lim] * 2.0**64).astype(np.int64)
    cand = (all_hs < thr[all_d]) | keep_all[all_d]
    have = np.bincount(all_d[cand], minlength=n_docs)
    bad = have < np.minimum(keep, gpd)
    if bad.any():
        cand |= bad[all_d]
    ch, cd = all_hs[cand], all_d[cand]
    order = np.lexsort((ch, cd))
    sh, sd = ch[order], cd[order]
    cpd = np.bincount(cd, minlength=n_docs)
    seg_starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(cpd[:-1], out=seg_starts[1:])
    rank = np.arange(len(sh)) - seg_starts[sd]
    m = rank < keep
    kept_h, kept_d = sh[m], sd[m]
    per_doc = np.bincount(kept_d, minlength=n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(per_doc, out=offsets[1:])
    lists = pa.ListArray.from_arrays(pa.array(offsets), pa.array(kept_h, type=pa.int64()))
    return batch.append_column(out_col, lists)


_LANGID_SINGLETON = None


def langid_fn(batch: pa.Table) -> pa.Table:
    """Stateless-task form of LangId: the profile state is a static dict,
    so a worker-process singleton beats an actor pool (actor spawn costs
    seconds at high CPU counts; workers are reused across tasks)."""
    global _LANGID_SINGLETON
    if _LANGID_SINGLETON is None:
        _LANGID_SINGLETON = LangId()
    return _LANGID_SINGLETON(batch)


class LangId:
    """Stopword-profile language ID (n-gram-free heuristic; actor-pool
    stage so the profiles are built once per worker — use `langid_fn`
    for the cheaper stateless-task form)."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        self.text_col = text_col
        self.out_col = out_col
        self.profiles = {lang: sw for lang, sw in STOPWORDS.items()}
        self.langs = list(STOPWORDS)
        self._sorted_sets = {lang: np.array(sorted(sw), dtype=object) for lang, sw in STOPWORDS.items()}

    def predict(self, text: str) -> str:
        """Scalar oracle path (cross-diffed against the vectorized batch)."""
        toks = [w.lower() for w in text.split()[:200]]
        if not toks:
            return "und"
        best, best_score = "und", 0.0
        for lang, sw in self.profiles.items():
            score = sum(t in sw for t in toks) / len(toks)
            if score > best_score:
                best, best_score = lang, score
        return best if best_score > 0.02 else "und"

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized: flatten the first-200 lowercased tokens of the whole
        batch, ONE np.isin per language over the flat array, per-doc sums
        via add.reduceat; argmax keeps the first maximal language (same
        tie-break as the scalar strict-> loop)."""
        s = batch.column(self.text_col).to_pandas().fillna("")
        n = len(s)
        if n == 0:
            return batch.append_column(self.out_col, pa.array([], type=pa.string()))
        seg_starts = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        flat: list[str] = []
        pos = 0
        for d, text in enumerate(s.to_numpy(dtype=object)):
            toks = text.lower().split()[:200]
            seg_starts[d] = pos
            counts[d] = len(toks)
            flat.extend(toks)
            pos += len(toks)
        scores = np.zeros((n, len(self.langs)), dtype=np.float64)
        if pos:
            flat_arr = np.array(flat, dtype=object)
            idx = np.minimum(seg_starts, pos - 1)
            denom = np.maximum(counts, 1).astype(np.float64)
            for j, lang in enumerate(self.langs):
                hit = np.isin(flat_arr, self._sorted_sets[lang]).astype(np.int64)
                sums = np.add.reduceat(hit, idx)
                scores[:, j] = np.where(counts > 0, sums / denom, 0.0)
        best_j = np.argmax(scores, axis=1)  # first maximal = dict-order tie-break
        best_score = scores[np.arange(n), best_j]
        lang_arr = np.array(self.langs, dtype=object)[best_j]
        preds = np.where((counts > 0) & (best_score > 0.02), lang_arr, "und")
        return batch.append_column(self.out_col, pa.array(preds, type=pa.string()))


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality(batch: pa.Table, text_col: str = "text",
                   min_words: int = 50, max_words: int = 100_000,
                   min_mean_word_len: float = 3.0,
                   max_mean_word_len: float = 10.0,
                   max_symbol_word_ratio: float = 0.1,
                   min_alpha_word_ratio: float = 0.8,
                   min_stop_hits: int = 2) -> pa.Table:
    """Gopher document-quality rules (Rae et al. 2021, table A1 — the
    published web-corpus repetition/format heuristics): word-count
    bounds, mean-word-length band, symbol-to-word ratio ('#' and '...'),
    alphabetic-word ratio, and >= min_stop_hits of the 8 canonical stop
    words. Appends the component metrics plus a `gopher_pass` verdict —
    map-only, shuffle-free, SQL-reproducible (docs_gopher_quality)."""
    s = batch.column(text_col).to_pandas().fillna("").astype(str)
    toks = s.str.split()
    n_words = toks.map(len).to_numpy(dtype=np.int64)
    nz = np.maximum(n_words, 1)
    # flat word array + per-doc reduceat: the word-level metrics run as
    # C kernels over ONE flat Series instead of a Python loop per doc
    from itertools import chain

    flat = pd.Series(list(chain.from_iterable(toks)), dtype=object)
    seg = np.zeros(len(s), dtype=np.int64)
    np.cumsum(n_words[:-1], out=seg[1:])
    total = len(flat)

    def _per_doc_sum(vals: np.ndarray) -> np.ndarray:
        if total == 0:
            return np.zeros(len(s), dtype=np.int64)
        out = np.add.reduceat(vals, np.minimum(seg, max(total - 1, 0)))
        out[n_words == 0] = 0
        return out

    wlen = flat.str.len().to_numpy(dtype=np.int64) if total else np.array([], np.int64)
    mean_wl = _per_doc_sum(wlen) / nz
    hashes = s.str.count("#", ).to_numpy(dtype=np.float64)
    # non-overlapping '...' occurrences, the C-style count DuckDB can
    # reproduce: (len - len(replace(text, '...', ''))) / 3
    ell = ((s.str.len() - s.str.replace("...", "", regex=False).str.len()) // 3) \
        .to_numpy(dtype=np.float64)
    sym_ratio = (hashes + ell) / nz
    has_alpha = (flat.str.contains("[A-Za-z]", regex=True).to_numpy(dtype=np.int64)
                 if total else np.array([], np.int64))
    alpha_ratio = _per_doc_sum(has_alpha) / nz
    is_stop = (flat.isin(GOPHER_STOPWORDS).to_numpy() if total
               else np.array([], bool))
    stop_hits = np.zeros(len(s), dtype=np.int64)
    if total:
        # number of DISTINCT canonical stop words present per doc
        doc_of = np.repeat(np.arange(len(s)), n_words)
        for j, sw in enumerate(GOPHER_STOPWORDS):
            m = is_stop & (flat.to_numpy(dtype=object) == sw)
            if m.any():
                stop_hits += np.bincount(doc_of[m], minlength=len(s)).astype(bool)
    passes = (
        (n_words >= min_words) & (n_words <= max_words)
        & (mean_wl >= min_mean_word_len) & (mean_wl <= max_mean_word_len)
        & (sym_ratio <= max_symbol_word_ratio)
        & (alpha_ratio >= min_alpha_word_ratio)
        & (stop_hits >= min_stop_hits)
    )
    def _round4(x: np.ndarray) -> np.ndarray:
        # round-half-AWAY like SQL ROUND(); np.round is half-to-even and
        # diverges on exact ties (4.40625 -> 4.4062 vs DuckDB's 4.4063)
        return np.floor(x * 10_000 + 0.5) / 10_000

    out = batch
    for name, arr, typ in (
        ("n_words", n_words, pa.int64()),
        ("mean_word_len", _round4(mean_wl), pa.float64()),
        ("symbol_word_ratio", _round4(sym_ratio), pa.float64()),
        ("alpha_word_ratio", _round4(alpha_ratio), pa.float64()),
        ("stop_hits", stop_hits, pa.int64()),
        ("gopher_pass", passes, pa.bool_()),
    ):
        out = out.append_column(name, pa.array(arr, type=typ))
    return out


def flesch_scores(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Flesch reading-ease per document (the public 1948 formula:
    206.835 - 1.015*words/sentences - 84.6*syllables/words), as one
    vectorized map-only kernel — the classic readability quality
    signal of a text-curation pipeline (no reference analogue).

    Counting rules, chosen to be exactly SQL-reproducible:
    sentences = 1 + non-overlapping matches of [.!?]+\\s*\\S (a
    terminal run with text after — CONSUMING matches, identical
    non-overlap semantics in RE2 and Python);
    words = whitespace tokens; syllables = vowel-group runs
    [aeiouy]+ over the lowercased text (the standard approximation,
    WITHOUT the per-word min-1 clamp — documented deviation, identical
    on both sides of the oracle). Score reported in exact integer
    micro-units via half-away rounding; empty docs score 0."""
    texts = batch.column(text_col).to_pandas().fillna("")
    low = texts.str.lower()
    words = low.str.count(r"\S+").to_numpy(dtype=np.float64)
    sents = (low.str.count(r"[.!?]+\s*\S") + 1).to_numpy(dtype=np.float64)
    syll = low.str.count(r"[aeiouy]+").to_numpy(dtype=np.float64)
    w = np.maximum(words, 1.0)
    s = np.maximum(sents, 1.0)
    score = 206.835 - 1.015 * (w / s) - 84.6 * (syll / w)
    micro = half_away(score, 1e6)
    micro = np.where(words > 0, micro, 0.0).astype(np.int64)
    return pa.table({
        id_col: batch.column(id_col),
        "n_words": pa.array(words.astype(np.int64)),
        "n_sentences": pa.array(np.where(words > 0, sents, 0)
                                .astype(np.int64)),
        "n_syllables": pa.array(syll.astype(np.int64)),
        "flesch_micro": pa.array(micro),
    })
