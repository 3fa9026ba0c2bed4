"""Curation operators: decontamination, hash sampling, per-source quota."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from axosyslog_ray.curation import (
    Decontaminator,
    build_eval_gram_set,
    decontaminate,
    hash_sample,
    md5_bucket_hex4,
)
from axosyslog_ray.window import topk_per_group


def _docs_ds(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "text": pa.array([r[1] for r in rows]),
    }))


class TestDecontaminate:
    def test_planted_overlap_flagged(self, ray_session):
        eval_ds = _docs_ds([(100, "the quick brown fox jumps over dogs")])
        corpus = _docs_ds([
            (1, "completely unrelated words here okay"),          # clean
            (2, "intro text quick brown fox tail words"),         # shares 3-gram
            (3, "quick brown unrelated"),                          # only 2 shared in a row -> no 3-gram
            (4, "xx"),                                             # < 3 tokens, no grams
        ])
        out = decontaminate(corpus, eval_ds, n=3).to_pandas().set_index("doc_id")
        assert not out.loc[1, "contaminated"]
        assert out.loc[2, "contaminated"]
        assert not out.loc[3, "contaminated"]
        assert not out.loc[4, "contaminated"]

    def test_case_and_punct_normalized(self, ray_session):
        eval_ds = _docs_ds([(9, "Alpha Beta Gamma")])
        corpus = _docs_ds([(1, "prefix alpha, BETA gamma! suffix")])
        out = decontaminate(corpus, eval_ds, n=3).to_pandas()
        assert bool(out["contaminated"].iloc[0])

    def test_empty_eval_set(self, ray_session):
        eval_ds = _docs_ds([])
        corpus = _docs_ds([(1, "some words in a row here")])
        grams = build_eval_gram_set(eval_ds, n=3)
        assert len(grams) == 0
        dec = Decontaminator(eval_grams=grams, n=3)
        out = dec(pa.table({"doc_id": pa.array([1], type=pa.int64()),
                            "text": pa.array(["some words in a row"])}))
        assert out.column("contaminated").to_pylist() == [False]


class TestHashSample:
    def test_thresholds_and_determinism(self, ray_session):
        n = 4000
        df = pd.DataFrame({
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": np.where(np.arange(n) % 2 == 0, "en", "de"),
        })
        ds = rd.from_pandas(df)
        kept = hash_sample(ds, rates={"en": 0.5, "de": 0.1}, key_col="doc_id",
                           strat_col="lang").to_pandas()
        # per-row recheck: exact membership, not a statistical bound
        from axosyslog_ray.curation import fast_sample_u64
        u = fast_sample_u64(kept["doc_id"].to_numpy())
        thr = np.where(kept["lang"].to_numpy() == "en",
                       np.uint64(int(0.5 * 2**64)), np.uint64(int(0.1 * 2**64)))
        assert (u < thr).all()
        # rates land near nominal
        en_rate = (kept["lang"] == "en").sum() / (n / 2)
        de_rate = (kept["lang"] == "de").sum() / (n / 2)
        assert abs(en_rate - 0.5) < 0.05 and abs(de_rate - 0.1) < 0.03
        # identical under different partitioning
        kept2 = hash_sample(ds.repartition(7), rates={"en": 0.5, "de": 0.1},
                            key_col="doc_id", strat_col="lang").to_pandas()
        assert sorted(kept2["doc_id"]) == sorted(kept["doc_id"])

    def test_default_rate_zero_drops_unknown(self, ray_session):
        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3], "lang": ["xx"] * 3}))
        kept = hash_sample(ds, rates={"en": 1.0}, key_col="doc_id", strat_col="lang").to_pandas()
        assert len(kept) == 0

    def test_rate_one_keeps_everything(self, ray_session):
        # 40691 is the smallest int whose md5hex4 is exactly 'ffff' — with
        # a clamped threshold and strict <, rate=1.0 used to drop it
        ids = [1, 2, 40691]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "lang": ["en"] * 3}))
        kept = hash_sample(ds, rates={"en": 1.0}, key_col="doc_id", strat_col="lang").to_pandas()
        assert sorted(kept["doc_id"]) == ids

    def test_md5_method_matches_duckdb(self, ray_session):
        # the md5 variant stays the independent-SQL conformance anchor:
        # DuckDB computes the identical coordinate and membership
        import duckdb

        n = 2000
        df = pd.DataFrame({
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": np.where(np.arange(n) % 2 == 0, "en", "de"),
        })
        kept = hash_sample(rd.from_pandas(df), rates={"en": 0.5, "de": 0.2},
                           key_col="doc_id", strat_col="lang",
                           method="md5").to_pandas()
        want = duckdb.sql("""
            SELECT doc_id FROM df
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) <
                  CASE lang WHEN 'en' THEN '8000' ELSE '3333' END
            ORDER BY doc_id
        """).df()
        assert sorted(kept["doc_id"]) == want["doc_id"].tolist()

    def test_md5_method_rate_one_keeps_ffff(self, ray_session):
        # 40691 is the smallest int whose md5hex4 is exactly 'ffff' — with
        # a clamped threshold and strict <, rate=1.0 used to drop it
        ids = [1, 2, 40691]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "lang": ["en"] * 3}))
        kept = hash_sample(ds, rates={"en": 1.0}, key_col="doc_id",
                           strat_col="lang", method="md5").to_pandas()
        assert sorted(kept["doc_id"]) == ids

    def test_fast_coordinate_microbench(self):
        # the point of method="fast": >= 20x the md5 loop on one core
        # (measured ~100x; 20x floor keeps the assert drift-proof)
        import time

        from axosyslog_ray.curation import fast_sample_u64

        keys = np.arange(200_000, dtype=np.int64)
        fast_sample_u64(keys)  # warm-up: first-touch page faults on this VM
        best_fast = min(
            (lambda t0: (fast_sample_u64(keys), time.perf_counter() - t0)[1])(
                time.perf_counter()) for _ in range(3))
        sub = keys[:20_000]
        t2 = time.perf_counter(); md5_bucket_hex4(sub); t3 = time.perf_counter()
        fast_per_row = best_fast / len(keys)
        md5_per_row = (t3 - t2) / len(sub)
        assert md5_per_row / fast_per_row > 20, (fast_per_row, md5_per_row)


class TestQuotaHead:
    """The per-source quota is window.topk_per_group, ascending."""

    def test_cap_keeps_smallest_order_keys(self, ray_session):
        rows = [(i, f"src{i % 3}") for i in range(90)]
        ds = rd.from_pandas(pd.DataFrame(rows, columns=["doc_id", "source"]))
        out = topk_per_group(ds, "source", "doc_id", k=5, descending=False).to_pandas()
        assert len(out) == 15
        for s, g in out.groupby("source"):
            expected = sorted(i for i, src in rows if src == s)[:5]
            assert sorted(g["doc_id"]) == expected

    def test_null_source_is_its_own_partition(self, ray_session):
        # row_number() OVER (PARTITION BY source ...) keeps a NULL
        # partition; a pandas groupby().head with dropna=True loses it
        src = ["a", "a", "a", None, None, "b"]
        ds = rd.from_pandas(pd.DataFrame({"doc_id": range(6), "source": src}),
                            override_num_blocks=2)
        out = topk_per_group(ds, "source", "doc_id", k=2, descending=False).to_pandas()
        assert sorted(out["doc_id"]) == [0, 1, 3, 4, 5]
        assert out.loc[out["source"].isna(), "rk"].sort_values().tolist() == [1, 2]


class TestDedupLines:
    def test_keep_first_preserve_order(self):
        import pandas as pd

        from axosyslog_ray.curation import dedup_lines_text

        s = pd.Series(["a\nb\na\nc\nb", "x", "", None])
        assert dedup_lines_text(s).tolist() == ["a\nb\nc", "x", "", ""]

    def test_custom_separator(self):
        import pandas as pd

        from axosyslog_ray.curation import dedup_lines_text

        s = pd.Series(["p. q. p. r", "p. q. p. r"])
        assert dedup_lines_text(s, sep=". ").tolist() == ["p. q. r"] * 2


class TestChunkDocuments:
    def test_windows_and_overlap(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from axosyslog_ray.curation import chunk_documents

        toks = " ".join(str(i) for i in range(10))
        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": [toks, "only four tokens here"]}))
        out = chunk_documents(ds, max_tokens=4, overlap=1).to_pandas()
        d1 = out[out["doc_id"] == 1].sort_values("chunk_id")
        # stride 3: [0..3], [3..6], [6..9] — the last window reaches the
        # final token, so no redundant tail chunk is emitted
        assert d1["text"].tolist() == ["0 1 2 3", "3 4 5 6", "6 7 8 9"]
        assert d1["n_tokens"].tolist() == [4, 4, 4]
        d2 = out[out["doc_id"] == 2]
        assert d2["text"].tolist() == ["only four tokens here"]

    def test_empty_doc_skipped(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from axosyslog_ray.curation import chunk_documents

        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["   "]}))
        assert chunk_documents(ds, max_tokens=4).to_pandas().empty

    def test_bad_overlap_raises(self, ray_session):
        import pandas as pd
        import pytest
        import ray.data as rd

        from axosyslog_ray.curation import chunk_documents

        ds = rd.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["x"]}))
        with pytest.raises(ValueError):
            chunk_documents(ds, max_tokens=4, overlap=4)


class TestGopherQuality:
    def _run(self, texts, **kw):
        import pyarrow as pa

        from axosyslog_ray.textstats.analysis import gopher_quality
        t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        out = gopher_quality(t, **kw)
        return out.to_pandas()

    def test_word_count_bounds(self):
        long_doc = "the quick brown fox jumps over dogs " * 10
        df = self._run(["too short", long_doc], min_words=20, min_stop_hits=1)
        assert df["gopher_pass"].tolist() == [False, True]
        assert df["n_words"].tolist() == [2, 70]

    def test_symbol_ratio_rejects_hash_spam(self):
        spam = "the word ### and more ### of hash ### stuff " * 5
        clean = "the word and more of clean stuff here today " * 5
        df = self._run([spam, clean], min_words=10)
        assert df["gopher_pass"].tolist() == [False, True]

    def test_ellipsis_counts_non_overlapping(self):
        df = self._run(["with some dots ...... here"], min_words=1,
                       min_stop_hits=0)
        # 6 dots = 2 non-overlapping '...' over 5 words
        assert df["symbol_word_ratio"].iloc[0] == 0.4

    def test_alpha_word_ratio(self):
        nums = "the 1 2 3 4 5 6 7 8 9"
        df = self._run([nums], min_words=1, min_stop_hits=0,
                       min_mean_word_len=0.0)
        assert df["alpha_word_ratio"].iloc[0] == 0.1
        assert not df["gopher_pass"].iloc[0]

    def test_stop_hits(self):
        df = self._run(["the cat sat with all of them quite happily today"],
                       min_words=5, min_mean_word_len=3.0, max_mean_word_len=10.0)
        assert df["stop_hits"].iloc[0] == 3  # the, with, of
        assert df["gopher_pass"].iloc[0]

    def test_empty_text(self):
        df = self._run([""], min_words=1)
        assert not df["gopher_pass"].iloc[0]
        assert df["n_words"].iloc[0] == 0


def test_remove_boilerplate_lines_cross_doc(ray_session):
    import ray.data as rd

    from axosyslog_ray.curation import remove_boilerplate_lines

    docs = []
    for i in range(6):
        docs.append({"doc_id": i,
                     "text": f"COOKIE BANNER\nunique body {i}\nFOOTER NAV"})
    docs.append({"doc_id": 6, "text": "totally unique doc"})
    ds = rd.from_pandas(pd.DataFrame(docs)).repartition(3)
    out = remove_boilerplate_lines(ds, min_docs=4).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # the two lines shared by 6 docs are gone; unique bodies survive
    for i in range(6):
        assert out.loc[i, "text"] == f"unique body {i}"
        assert out.loc[i, "n_removed"] == 2
    assert out.loc[6, "text"] == "totally unique doc"
    assert out.loc[6, "n_removed"] == 0


def test_remove_boilerplate_counts_distinct_docs_not_occurrences(ray_session):
    # a line repeated MANY times inside ONE doc must not cross the
    # min_docs threshold (count is per distinct document)
    import ray.data as rd

    from axosyslog_ray.curation import remove_boilerplate_lines

    docs = [{"doc_id": 0, "text": "spam\nspam\nspam\nspam\nspam"},
            {"doc_id": 1, "text": "other"}]
    out = remove_boilerplate_lines(rd.from_pandas(pd.DataFrame(docs)),
                                   min_docs=2).to_pandas()
    assert sorted(out.n_removed) == [0, 0]


def test_domain_mix_binding_source_keeps_all(ray_session):
    import ray.data as rd

    from axosyslog_ray.curation import domain_mix

    rng = np.random.default_rng(13)
    rows = []
    for s, n in (("web", 1000), ("code", 300), ("books", 100)):
        for i in range(n):
            rows.append({"doc_id": len(rows), "source": s})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
    # target 2:1:1 -> books (100/1) binds; web keeps 200/1000, code 100/300
    out = domain_mix(ds, {"web": 2, "code": 1, "books": 1},
                     method="fast").to_pandas()
    per = out.groupby("source").size()
    assert per["books"] == 100                      # binding source: all kept
    assert abs(per["web"] - 200) < 40               # ~hash-rate sampling noise
    assert abs(per["code"] - 100) < 30
    # deterministic under repartitioning
    out2 = domain_mix(rd.from_pandas(pd.DataFrame(rows)).repartition(9),
                      {"web": 2, "code": 1, "books": 1},
                      method="fast").to_pandas()
    assert sorted(out.doc_id) == sorted(out2.doc_id)


def test_domain_mix_drops_unweighted_sources(ray_session):
    import ray.data as rd

    from axosyslog_ray.curation import domain_mix

    df = pd.DataFrame({"doc_id": range(20),
                       "source": ["a"] * 10 + ["junk"] * 10})
    out = domain_mix(rd.from_pandas(df), {"a": 1}, method="md5").to_pandas()
    assert set(out.source) == {"a"} and len(out) == 10


def test_contamination_report_counts_leaking_docs(ray_session):
    import ray.data as rd

    from axosyslog_ray.curation import contamination_report

    eval_df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["the secret eval answer alpha beta gamma",
                 "another held out question delta epsilon zeta",
                 "never leaked anywhere at all okay fine"]})
    corpus = pd.DataFrame({
        "doc_id": [10, 11, 12, 13],
        "text": ["includes the secret eval answer alpha verbatim",   # leaks 0
                 "also has secret eval answer alpha in it",          # leaks 0
                 "contains held out question delta here",            # leaks 1
                 "totally clean corpus document nothing shared"]})
    out = contamination_report(rd.from_pandas(corpus).repartition(2),
                               rd.from_pandas(eval_df), n=3)
    got = dict(zip(out.eval_id, out.n_leaked_docs))
    assert got == {0: 2, 1: 1, 2: 0}


def test_corpus_report_metrics(ray_session):
    import ray.data as rd

    from axosyslog_ray.report import corpus_report

    df = pd.DataFrame({
        "doc_id": range(6),
        "lang": ["en", "en", "de", "en", "de", "en"],
        "text": ["one two three", "one two three",   # exact dup pair
                 "vier funf", "a b c d e", "sechs", ""]})
    out = corpus_report(rd.from_pandas(df).repartition(3))
    m = dict(zip(out.metric, out.value))
    assert m["n_docs"] == 6
    assert m["distinct_texts"] == 5          # dup pair collapses
    assert m["lang:en"] == 4 and m["lang:de"] == 2
    assert m["total_tokens"] == 3 + 3 + 2 + 5 + 1 + 0


class TestContainmentScores:
    def test_self_reference_full_containment(self, ray_session):
        import ray.data as rd

        from axosyslog_ray.curation import containment_scores
        docs = pd.DataFrame({
            "doc_id": np.arange(3, dtype=np.int64),
            "text": ["alpha beta gamma delta epsilon zeta",
                     "one two three four five six",
                     "ab"],  # < n tokens -> 0 grams
        })
        ds = rd.from_pandas(docs).repartition(2)
        out = containment_scores(ds, ds, n=5).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # every doc fully contained in itself; short doc scores 0
        assert list(out["containment_micro"]) == [1000000, 1000000, 0]
        assert list(out["n_grams"]) == [2, 2, 0]

    def test_partial_containment_exact_micro(self, ray_session):
        import ray.data as rd

        from axosyslog_ray.curation import containment_scores
        ref = pd.DataFrame({"doc_id": [0], "text": ["a b c d e f"]})
        # doc has 3 distinct 5-grams; exactly one ("b c d e f") in ref
        doc = pd.DataFrame({"doc_id": [7],
                            "text": ["x b c d e f g"]})
        out = containment_scores(rd.from_pandas(doc),
                                 rd.from_pandas(ref), n=5).to_pandas()
        assert list(out["n_grams"]) == [3]
        assert list(out["n_matched"]) == [1]
        assert list(out["containment_micro"]) == [1000000 // 3]
