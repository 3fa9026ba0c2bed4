"""Dedup family, ANN, text analysis, multimodal plumbing tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from axosyslog_ray.dedup.exact import add_content_hash
from axosyslog_ray.dedup.minhash import MinHasher, jaccard
from axosyslog_ray.dedup.simhash import hamming, simhash_text
from axosyslog_ray.textstats import LangId, fingerprint_md5, quality_features, token_counts
from axosyslog_ray.multimodal import DecodeImage, FrameSampler, gen_media_table


BASE = "the quick brown fox jumps over the lazy dog again and again in the field"
NEAR = "the quick brown fox jumps over the lazy cat again and again in the field"
FAR = "completely different content about databases and query engines at scale"


def test_content_hash_stable_and_distinct():
    t = pa.table({"text": [BASE, BASE, FAR]})
    h = add_content_hash(t).column("content_hash").to_pylist()
    assert h[0] == h[1] != h[2]


def test_minhash_signature_similarity_tracks_jaccard():
    mh = MinHasher(num_perm=128)
    sa, sb, sc = mh.signature(BASE), mh.signature(NEAR), mh.signature(FAR)
    sim_near = (sa == sb).mean()
    sim_far = (sa == sc).mean()
    assert sim_near > 0.5 > sim_far
    assert jaccard(BASE, NEAR) > 0.5 > jaccard(BASE, FAR)


def test_simhash_hamming_small_for_near_dups():
    a, b, c = simhash_text(BASE), simhash_text(NEAR), simhash_text(FAR)
    assert hamming(a, b) < 12 < hamming(a, c)


@pytest.mark.usefixtures("ray_session")
def test_minhash_clusters_find_planted_dups():
    import ray.data as rd

    from axosyslog_ray.dedup.minhash import minhash_clusters

    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "text": f"unique document number {i} with its own words {i * 7}"})
    # plant near-dups of doc 3
    rows.append({"doc_id": 100, "text": rows[3]["text"] + " extra"})
    rows.append({"doc_id": 101, "text": rows[3]["text"]})
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = minhash_clusters(ds, num_perm=64, bands=16).to_pandas()
    c = dict(zip(out["doc_id"], out["cluster_id"]))
    assert c[100] == 3 and c[101] == 3
    assert c[5] == 5  # unique docs stay their own cluster


@pytest.mark.usefixtures("ray_session")
def test_simhash_candidates_cluster_near_dups():
    import ray.data as rd

    from axosyslog_ray.dedup.simhash import simhash_candidates

    rows = [{"doc_id": i, "text": f"some unrelated text block {i} talking about topic {i*13}"} for i in range(20)]
    rows.append({"doc_id": 50, "text": rows[7]["text"]})
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = simhash_candidates(ds, bands=4, max_hamming=3).to_pandas()
    c = dict(zip(out["doc_id"], out["cluster_id"]))
    assert c[50] == 7


@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_rows_keeps_min_id():
    import ray.data as rd

    from axosyslog_ray.dedup.exact import dedup_rows

    df = pd.DataFrame({"doc_id": [5, 2, 9, 1], "text": ["x", "x", "y", "y"]})
    out = dedup_rows(rd.from_pandas(df)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]


@pytest.mark.usefixtures("ray_session")
def test_ann_brute_and_lsh_agree_on_top1():
    import ray.data as rd

    from axosyslog_ray.ann import ann_topk, lsh_ann_topk

    rng = np.random.RandomState(0)
    m = rng.normal(size=(300, 16))
    t = pa.table(
        {"vec_id": pa.array(np.arange(300)), "embedding": pa.array([list(r) for r in m.astype(np.float32)])}
    )
    ds = rd.from_arrow(t)
    q = m[17] + rng.normal(scale=0.01, size=16)
    brute = ann_topk(ds, np.asarray([q]), k=5)
    assert brute["vec_id"].iloc[0] == 17  # exact top-1 is the near vector
    approx = lsh_ann_topk(ds, np.asarray([q]), k=5, n_bits=6, n_tables=8)
    assert approx["vec_id"].iloc[0] == 17  # LSH recalls the true top-1


def test_token_counts_and_quality():
    t = pa.table({"text": ["The quick, brown fox!", ""]})
    out = token_counts(t).to_pylist()
    assert out[0]["n_ws_tokens"] == 4
    assert out[0]["n_bpe_tokens"] == 6  # 4 words + ',' + '!'
    assert out[1]["n_ws_tokens"] == 0
    q = quality_features(t).to_pylist()
    assert q[0]["stop_ratio"] == 0.25  # 'The' of 4 tokens
    assert 0 < q[0]["punct_ratio"] < 0.2


def test_fingerprint_normalizes_case_and_space():
    t = pa.table({"text": ["  Hello World ", "hello world"]})
    fps = fingerprint_md5(t).column("fingerprint").to_pylist()
    assert fps[0] == fps[1]


def test_fingerprint_fast_matches_md5_equivalence_classes():
    """The fast 64-bit fingerprint induces the SAME dup-key partition as
    the md5 conformance variant (same normalization, different hash)."""
    from axosyslog_ray.textstats import fingerprint_fast

    t = pa.table({"text": ["  Hello World ", "hello world", "other doc",
                           "OTHER  doc", "other doc", ""]})
    md5 = fingerprint_md5(t).column("fingerprint").to_pylist()
    fast = fingerprint_fast(t).column("fingerprint64").to_pylist()
    for i in range(len(md5)):
        for j in range(len(md5)):
            assert (md5[i] == md5[j]) == (fast[i] == fast[j])


def test_rolling_fingerprints_fast_vs_join():
    """fast and join variants: identical shingle-window structure — same
    per-doc print COUNT, identical-text docs get identical prints, and
    the shared-print relation on planted near-dups agrees."""
    import numpy as np

    from axosyslog_ray.textstats import rolling_fingerprints

    rng = np.random.default_rng(7)
    vocab = np.array([f"w{i}" for i in range(50)])
    texts = [" ".join(rng.choice(vocab, n)) for n in (40, 40, 3, 0, 7, 1)]
    texts[1] = texts[0]                      # exact dup pair
    near = texts[0].split()
    near[20] = "CHANGED"
    texts.append(" ".join(near))             # near dup of 0
    t = pa.table({"text": texts})
    fast = rolling_fingerprints(t, method="fast").column("shingle_prints").to_pylist()
    join = rolling_fingerprints(t, method="join").column("shingle_prints").to_pylist()
    assert [len(a) for a in fast] == [len(b) for b in join]
    assert fast[0] == fast[1] and join[0] == join[1]     # exact dups identical
    assert fast[3] == [] and join[3] == []               # empty doc
    assert len(fast[5]) == 1                             # short doc: one gram
    # near-dup shares most prints with its source under BOTH hash families
    assert len(set(fast[0]) & set(fast[6])) >= 4
    assert len(set(join[0]) & set(join[6])) >= 4
    # fast prints are sorted ascending (winnowing smallest-k)
    for a in fast:
        assert a == sorted(a)


def test_fingerprint_fast_microbench_speedup():
    """The vectorized paths beat the per-row/per-doc conformance paths
    (~1.6x doc fingerprint, ~4.5x rolling prints on the build VM —
    BASELINE.md); loose bounds so a noisy CI box can't flake the
    suite."""
    import time

    import numpy as np

    from axosyslog_ray.textstats import fingerprint_fast, rolling_fingerprints

    rng = np.random.default_rng(11)
    vocab = np.array([f"word{i}" for i in range(1000)])
    texts = [" ".join(rng.choice(vocab, 80)) for _ in range(4000)]
    t = pa.table({"text": texts})

    calls = {
        "slow_fp": lambda: fingerprint_md5(t),
        "fast_fp": lambda: fingerprint_fast(t),
        "slow_rf": lambda: rolling_fingerprints(t, method="join"),
        "fast_rf": lambda: rolling_fingerprints(t, method="fast"),
    }
    calls["fast_fp"](); calls["fast_rf"]()  # warm
    # best of 3, slow and fast calls interleaved, so one scheduler
    # hiccup cannot decide the ratio
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(3):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - t0)
    slow_fp, fast_fp, slow_rf, fast_rf = (best[k] for k in calls)
    # measured ~1.6x / ~4.5x on the build VM (BASELINE.md); loose bounds
    # so a noisy CI box can't flake the suite
    assert slow_fp / fast_fp > 1.1, (slow_fp, fast_fp)
    assert slow_rf / fast_rf > 2, (slow_rf, fast_rf)


def test_rolling_fingerprints_prefilter_exact():
    """The candidate-threshold prefilter returns EXACTLY the smallest-k
    per doc: compare keep=8 output against smallest-8 recomputed from a
    keep=10**6 (no pruning possible) run."""
    import numpy as np

    from axosyslog_ray.textstats import rolling_fingerprints

    rng = np.random.default_rng(3)
    vocab = np.array([f"w{i}" for i in range(200)])
    texts = [" ".join(rng.choice(vocab, int(n))) for n in rng.integers(1, 300, 500)]
    t = pa.table({"text": texts})
    k8 = rolling_fingerprints(t, method="fast", keep=8).column("shingle_prints").to_pylist()
    full = rolling_fingerprints(t, method="fast", keep=10**6).column("shingle_prints").to_pylist()
    for got, allh in zip(k8, full):
        assert got == sorted(allh)[:8]


def test_langid_heuristic():
    t = pa.table(
        {
            "text": [
                "the cat is on the mat and it is happy",
                "der Hund ist ein Tier und die Katze auch",
                "el gato es un animal y la casa es grande",
                "xyzzy plugh qwerty",
            ]
        }
    )
    out = LangId()(t).column("lang_pred").to_pylist()
    assert out[0] == "en" and out[1] == "de" and out[2] == "es" and out[3] == "und"


def test_media_decode_stub_drops_payload():
    t = gen_media_table(50)
    out = DecodeImage(decoder="fake")(t)
    assert "payload" not in out.column_names
    assert all(v > 0 for v in out.column("n_pixels").to_pylist())
    # deterministic
    again = DecodeImage(decoder="fake")(gen_media_table(50))
    assert out.equals(again)


def test_media_decode_real_raises_clearly_without_pil():
    try:
        import PIL  # noqa: F401
        pytest.skip("PIL present: real kernels covered by test_multimodal_real.py")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="pillow"):
        DecodeImage(decoder="real")


def test_frame_sampler_explodes_rows():
    t = gen_media_table(10)
    out = FrameSampler(every_n_seconds=1.0)(t)
    assert out.num_rows >= 10  # >= one frame per media row
    assert set(out.column_names) == {"media_id", "frame_offset_sec", "frame_hash"}


def test_key_bucket_array_bounds_group_sizes():
    """The coarse bucket of an LSH (band_id, band_hash) key must spread
    buckets far beyond the band count so no map_groups group holds
    ~n_docs rows (VERDICT r1 #1)."""
    from axosyslog_ray.shuffle import key_bucket_array

    rng = np.random.RandomState(3)
    n, bands, num_buckets = 20000, 16, 256
    band_id = np.repeat(np.arange(bands, dtype=np.int32), n // bands)
    band_hash = rng.randint(-(2**62), 2**62, size=n).astype(np.int64)
    t = pa.table({"band_id": band_id, "band_hash": band_hash})
    buckets = key_bucket_array(t, ["band_id", "band_hash"], num_buckets)
    counts = np.bincount(buckets, minlength=num_buckets)
    assert (buckets >= 0).all() and (buckets < num_buckets).all()
    assert len(np.unique(buckets)) > bands  # finer than per-band grouping
    assert counts.max() < 3 * n / num_buckets  # bounded, ~uniform
    # all rows of one (band_id, band_hash) bucket share a bucket (determinism)
    again = key_bucket_array(t, ["band_id", "band_hash"], num_buckets)
    assert (buckets == again).all()


def _sorted_frame(ds, by):
    return ds.to_pandas().sort_values(by).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_minhash_clusters_invariant_to_num_shards():
    import ray.data as rd
    from axosyslog_ray.dedup.minhash import minhash_clusters

    texts = [BASE, NEAR, FAR] * 10 + [f"unique doc number {i} with words {i*7}" for i in range(30)]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    a = _sorted_frame(minhash_clusters(rd.from_pandas(df), num_buckets=1), "doc_id")
    b = _sorted_frame(minhash_clusters(rd.from_pandas(df), num_buckets=97), "doc_id")
    assert a.equals(b)
    # duplicates of BASE cluster to the min doc id (0)
    assert (a[a["doc_id"].isin([3, 6, 9])]["cluster_id"] == 0).all()


@pytest.mark.usefixtures("ray_session")
def test_simhash_invariant_to_num_shards():
    import ray.data as rd
    from axosyslog_ray.dedup.simhash import simhash_candidates

    texts = [BASE, NEAR, FAR] * 5 + [f"some filler document {i} about topic {i%3}" for i in range(20)]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    a = _sorted_frame(simhash_candidates(rd.from_pandas(df), num_buckets=1), "doc_id")
    b = _sorted_frame(simhash_candidates(rd.from_pandas(df), num_buckets=53), "doc_id")
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_near_dup_block_pair_matches_all_pairs():
    """The distributed block-pair exact path must produce exactly the
    pair set of an in-test numpy all-pairs cosine >= threshold."""
    import ray.data as rd
    from axosyslog_ray.ann.brute import near_dup_pairs

    rng = np.random.RandomState(5)
    base = rng.normal(size=(40, 16))
    # make some near-dups: rows 40-49 are noisy copies of rows 0-9
    dups = base[:10] + rng.normal(scale=0.01, size=(10, 16))
    m = np.vstack([base, dups])
    df = pd.DataFrame({"vec_id": range(50), "embedding": list(m)})
    ds = rd.from_pandas(df).repartition(5)
    got = near_dup_pairs(ds, threshold=0.95).to_pandas()
    u = m / np.linalg.norm(m, axis=1, keepdims=True)
    a, b = np.nonzero(np.triu(u @ u.T >= 0.95, k=1))
    ref = pd.DataFrame({"id_a": a.astype(np.int64), "id_b": b.astype(np.int64)})
    key = ["id_a", "id_b"]
    got_s = got[key].sort_values(key).reset_index(drop=True)
    ref_s = ref[key].sort_values(key).reset_index(drop=True)
    assert got_s.equals(ref_s)
    assert len(got_s) >= 10  # the planted dups are found


def test_langid_vectorized_matches_scalar_oracle():
    texts = [
        "the cat is on the mat and it is happy today with the dog",
        "der Hund ist ein Tier und die Katze auch ist da",
        "el gato es un animal y la casa es grande por que",
        "xyzzy plugh qwerty",
        "",
        "de la le the und is es ist",  # multi-language tie stress
        "word " * 300,  # 200-token cap
    ]
    li = LangId()
    out = li(pa.table({"text": texts})).column("lang_pred").to_pylist()
    assert out == [li.predict(t) for t in texts]


@pytest.mark.usefixtures("ray_session")
def test_ivf_ann_finds_exact_top1():
    import ray.data as rd
    from axosyslog_ray.ann import ann_topk, ivf_ann_topk

    rng = np.random.RandomState(9)
    m = rng.normal(size=(300, 16))
    df = pd.DataFrame({"vec_id": range(300), "embedding": list(m)})
    ds = rd.from_pandas(df).repartition(3)
    q = m[7] + rng.normal(scale=0.01, size=16)
    exact = ann_topk(rd.from_pandas(df), np.asarray([q]), k=3)
    # probing ALL cells makes IVF exhaustive -> must equal brute force
    approx_full = ivf_ann_topk(ds, np.asarray([q]), k=3, nlist=8, nprobe=8)
    assert approx_full["vec_id"].tolist() == exact["vec_id"].tolist()
    # realistic probe count still finds the planted near-identical top-1
    approx = ivf_ann_topk(ds, np.asarray([q]), k=3, nlist=8, nprobe=2)
    assert approx["vec_id"].iloc[0] == 7


def test_train_centroids_deterministic_and_normalized():
    from axosyslog_ray.ann import train_centroids

    rng = np.random.RandomState(3)
    s = rng.normal(size=(200, 8))
    c1 = train_centroids(s, nlist=5, seed=4)
    c2 = train_centroids(s, nlist=5, seed=4)
    assert np.allclose(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0)


def test_resize_and_feature_extract_plumbing():
    from axosyslog_ray.multimodal import ExtractFeatures, ResizeImage, gen_media_table

    t = gen_media_table(30)
    resized = ResizeImage(target_w=8, target_h=8)(t)
    assert "payload" in resized.column_names  # resize keeps payload flowing
    assert set(resized.column("resized_w").to_pylist()) == {8}
    assert all(len(p) == 8 * 8 * 3 for p in resized.column("payload").to_pylist())
    feats = ExtractFeatures(dim=16)(t)
    assert "payload" not in feats.column_names  # features drop bytes
    embs = feats.column("embedding").to_pylist()
    assert all(len(e) == 16 for e in embs)
    # deterministic
    again = ExtractFeatures(dim=16)(gen_media_table(30))
    assert feats.equals(again)
    # real kernels import PIL per actor; without it the error is clear
    import pytest as _pytest

    try:
        import PIL  # noqa: F401
    except ImportError:
        with _pytest.raises(ImportError, match="pillow"):
            ResizeImage(decoder="real")
        with _pytest.raises(ImportError, match="pillow"):
            ExtractFeatures(decoder="real")


@pytest.mark.usefixtures("ray_session")
def test_media_features_feed_ann():
    """End-to-end: media payloads -> fake embeddings -> cosine top-k,
    proving the multimodal output schema composes with the ANN stack."""
    import ray.data as rd

    from axosyslog_ray.ann import ann_topk
    from axosyslog_ray.multimodal import ExtractFeatures, gen_media_table

    feats = rd.from_arrow(gen_media_table(100)).map_batches(
        ExtractFeatures(dim=16), batch_format="pyarrow", batch_size=32)
    emb = feats.map_batches(
        lambda b: b.select(["media_id", "embedding"]).rename_columns(["vec_id", "embedding"]),
        batch_format="pyarrow")
    q = emb.filter(lambda r: r["vec_id"] == 0).to_pandas()["embedding"].iloc[0]
    top = ann_topk(emb, np.asarray([q], dtype=np.float64), k=3)
    assert top["vec_id"].iloc[0] == 0 and top["sim"].iloc[0] > 0.999


def test_ngram_jaccard_pairs_exact_vs_scalar(ray_session):
    """The distributed set-similarity join reproduces the scalar
    jaccard() utility exactly, on a corpus with planted near-dups."""
    import itertools

    import ray.data as rd

    from axosyslog_ray.dedup.ngram import ngram_jaccard_pairs

    rng = np.random.RandomState(3)
    words = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(words, size=40)) for _ in range(20)]
    # planted near-dups: copy with a small mutation
    texts.append(texts[0].replace("w1", "w2", 1))
    texts.append(texts[5])
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    got = (
        ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5, shingle=3, num_buckets=7)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    want = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        j = jaccard(texts[a], texts[b], shingle=3)
        if j >= 0.5:
            want.append((a, b, j))
    assert [(r.id_a, r.id_b) for r in got.itertuples()] == [(a, b) for a, b, _ in want]
    assert len(want) >= 2  # the planted pairs are found
    np.testing.assert_allclose(got["jaccard"].to_numpy(), [j for _, _, j in want])


def test_ngram_jaccard_invariant_to_num_shards(ray_session):
    import ray.data as rd

    from axosyslog_ray.dedup.ngram import ngram_jaccard_pairs

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c d e f", "a b c d e g", "x y z q r s"],
    })
    outs = []
    for nb in (1, 3, 64):
        o = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.1, shingle=3,
                                num_buckets=nb).to_pandas()
        outs.append(o.sort_values(["id_a", "id_b"]).reset_index(drop=True))
    for o in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], o)


def test_ngram_jaccard_max_freq_cap_drops_stop_shingles(ray_session):
    """With max_shingle_freq=1 no shingle co-occurs, so no pairs."""
    import ray.data as rd

    from axosyslog_ray.dedup.ngram import ngram_jaccard_pairs

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b c d", "a b c d"]})
    o = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.1, shingle=3,
                            max_shingle_freq=1, num_buckets=4).to_pandas()
    assert len(o) == 0


class TestPqAnn:
    def _emb_ds(self, n=400, d=16, seed=3):
        import ray.data as rd

        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(n, d))
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(vecs)),
        })), vecs

    def test_recall_floor_vs_brute_force(self, ray_session):
        from axosyslog_ray.ann import ann_topk, pq_ann_topk

        ds, vecs = self._emb_ds()
        q = vecs[:5]
        exact = ann_topk(ds, q, k=10)
        approx = pq_ann_topk(ds, q, k=10, m=8, train_sample=400)
        hits = 0
        for qi in range(5):
            e = set(exact[exact["query_id"] == qi]["vec_id"])
            a = set(approx[approx["query_id"] == qi]["vec_id"])
            hits += len(e & a)
        # PQ with m=8 on 16-dim noise: well above chance, floor at 40%
        assert hits / 50 >= 0.4, hits

    def test_exact_when_codebook_covers_subvectors(self, ray_session):
        # every distinct sub-vector is a codeword -> ADC distances are
        # EXACT -> PQ equals brute force, rank for rank
        from axosyslog_ray.ann import ann_topk, pq_ann_topk

        rng = np.random.default_rng(11)
        base = rng.normal(size=(4, 8))  # 4 distinct 8-dim sub-vectors
        n = 200
        left = base[rng.integers(0, 4, n)]
        right = base[rng.integers(0, 4, n)]
        vecs = np.hstack([left, right])
        vecs += rng.normal(scale=1e-12, size=vecs.shape)  # break exact ties? no: keep identical
        import ray.data as rd

        ds = rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(np.hstack([left, right]))),
        }))
        import ray.data as rd2  # noqa: F401 (ds built below)
        q = np.hstack([base[[0, 2]], base[[1, 3]]])
        exact = ann_topk(ds, q, k=8)
        approx = pq_ann_topk(ds, q, k=8, m=2, n_codes=256, train_sample=200)
        for qi in range(2):
            e = exact[exact["query_id"] == qi].reset_index(drop=True)
            a = approx[approx["query_id"] == qi].reset_index(drop=True)
            # only 16 distinct vectors exist -> huge tie groups; fp noise
            # between cos and 1-L2^2/2 reorders ties, so compare the
            # similarity MULTISET, not tie-broken ids
            assert np.allclose(np.sort(e["sim"]), np.sort(a["sim"]), atol=1e-9)

    def test_codes_are_bytes(self):
        from axosyslog_ray.ann.pq import encode_pq, train_pq

        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 16))
        books = train_pq(x, m=4, k=16)
        from axosyslog_ray.ann.brute import _norm
        codes = encode_pq(_norm(x), books)
        assert codes.shape == (300, 4) and codes.dtype == np.uint8
        assert codes.max() < 16

    def test_deterministic_given_seed(self, ray_session):
        from axosyslog_ray.ann import pq_ann_topk

        ds, vecs = self._emb_ds()
        a = pq_ann_topk(ds, vecs[:3], k=5, train_sample=400)
        b = pq_ann_topk(ds, vecs[:3], k=5, train_sample=400)
        pd.testing.assert_frame_equal(a, b)


def _ann_methods():
    from axosyslog_ray.ann import ann_topk, ivf_ann_topk, lsh_ann_topk, pq_ann_topk

    return {
        "brute": ann_topk,
        "lsh": lambda ds, q, k: lsh_ann_topk(ds, q, k=k, n_bits=6, n_tables=4),
        "ivf": lambda ds, q, k: ivf_ann_topk(ds, q, k=k, nlist=8, nprobe=8),
        "pq": lambda ds, q, k: pq_ann_topk(ds, q, k=k, m=8),
    }


def _tie_corpus(n=300, n_dup=150, d=16, seed=4):
    """`n_dup` rows are the same vector (the nearest to query 0, so their
    sims tie bitwise at 1.0), more than 64, so a per-batch cut below the
    tie group has to choose among them; vec_id is a permutation, so row
    order says nothing about id order."""
    rng = np.random.RandomState(seed)
    m = rng.normal(size=(n, d))
    dup_rows = rng.choice(n, size=n_dup, replace=False)
    m[dup_rows] = 0.0
    m[dup_rows, 0] = 3.0
    ids = rng.permutation(n).astype(np.int64)
    q = np.vstack([np.eye(d)[0] * 2.0, rng.normal(size=d)])
    t = pa.table({"vec_id": pa.array(ids), "embedding": pa.array(list(m))})
    return t, q, np.sort(ids[dup_rows])


def _numpy_topk(t, q, k):
    m = np.stack(t.column("embedding").to_pylist())
    ids = t.column("vec_id").to_numpy()
    u = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    return [ids[np.lexsort((ids, -(u @ qv)))[:k]].tolist() for qv in qn]


@pytest.mark.parametrize("method", ["brute", "lsh", "ivf", "pq"])
def test_topk_ties_break_by_id(method, ray_session):
    import ray.data as rd

    t, q, dup_ids = _tie_corpus()
    topk = _ann_methods()[method]
    k = 3
    one = topk(rd.from_arrow(t), q, k)
    cuts = np.linspace(0, t.num_rows, 8).astype(int)
    seven = topk(rd.from_arrow([t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]), q, k)
    pd.testing.assert_frame_equal(one, seven)
    # the tie at the k-th place keeps the smallest ids
    assert one[one["query_id"] == 0]["vec_id"].tolist() == dup_ids[:k].tolist()
    if method in ("brute", "ivf"):  # exact (IVF probes every cell)
        ref = _numpy_topk(t, q, k)
        assert [g["vec_id"].tolist() for _, g in one.groupby("query_id")] == ref


def test_pq_returns_k_rows_above_64(ray_session):
    import ray.data as rd

    from axosyslog_ray.ann import pq_ann_topk

    rng = np.random.RandomState(8)
    m = rng.normal(size=(300, 16))
    ds = rd.from_arrow(pa.table({"vec_id": pa.array(np.arange(300)),
                                 "embedding": pa.array(list(m))}))
    out = pq_ann_topk(ds, m[:2], k=100)
    assert out.groupby("query_id").size().tolist() == [100, 100]
    assert out.groupby("query_id")["rank"].apply(list).tolist() == [list(range(1, 101))] * 2


@pytest.mark.parametrize("method", ["brute", "lsh", "ivf", "pq"])
def test_empty_corpus_returns_empty_frame(method, ray_session):
    import ray.data as rd

    t, q, _ = _tie_corpus()
    empty = rd.from_arrow(t).filter(expr="vec_id < 0")
    out = _ann_methods()[method](empty, q, 3)
    assert out.empty
    assert out.dtypes.to_dict() == {"query_id": np.int64, "rank": np.int64,
                                    "vec_id": np.int64, "sim": np.float64}


def test_near_dup_pairs_empty_corpus_keeps_the_pair_schema(ray_session):
    import ray
    import ray.data as rd

    from axosyslog_ray.ann import near_dup_pairs

    t, _, _ = _tie_corpus()
    out = near_dup_pairs(rd.from_arrow(t).filter(expr="vec_id < 0"))
    want = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("sim", pa.float64())])
    assert out.count() == 0
    assert out.schema().base_schema == want
    assert pa.concat_tables(ray.get(out.to_arrow_refs())).schema == want


@pytest.mark.parametrize("typ", [pa.list_(pa.float32()), pa.list_(pa.float64()),
                                 pa.list_(pa.float32(), 5), pa.large_list(pa.float32())])
def test_to_matrix_equals_the_python_list_path(typ):
    from axosyslog_ray.ann.scan import _to_matrix

    col = pa.array(list(np.random.RandomState(0).normal(size=(7, 5))), typ)
    for c in (col, col.slice(2), pa.chunked_array([col.slice(0, 3), col.slice(3)])):
        got = _to_matrix(c)
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(c.to_pylist(), dtype=np.float64).tobytes()
    assert _to_matrix(col.slice(0, 0), 5).shape == (0, 5)
    assert _to_matrix(pa.chunked_array([], typ)).shape == (0, 0)


def test_normalize_text_unicode_and_ws():
    from axosyslog_ray.textstats import normalize_text

    t = pa.table({"text": ["HeLLo   WORLD", "  x\t y\nz  ",
                           "Ångström", None, "plain"]})
    out = normalize_text(t).column("text").to_pylist()
    assert out[0] == "hello world"
    assert out[1] == "x y z"
    assert out[2] == "ångström"   # composed NFC, lowered
    assert out[3] is None
    assert out[4] == "plain"
    # out_col form appends instead of replacing
    t2 = normalize_text(t, out_col="norm")
    assert t2.column_names == ["text", "norm"]
