"""HyperLogLog sketch + exact distinct-count aggregate."""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from axosyslog_ray.hashutil import hash_str_array
from axosyslog_ray.sketch import hll_add, hll_build, hll_distinct, hll_estimate
from axosyslog_ray.aggregate import distinct_count, reduce_array, tree_reduce


def _ds(df: pd.DataFrame, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
             .repartition(blocks)


@pytest.mark.parametrize("n", [100, 10_000, 200_000])
def test_hll_accuracy(n):
    regs = np.zeros(1 << 14, dtype=np.uint8)
    hll_add(regs, hash_str_array(
        np.array([f"item{i}" for i in range(n)], dtype=object)))
    est = hll_estimate(regs)
    # 3 sigma at p=14: 3 * 1.04 / sqrt(2^14) ~= 2.4%
    assert abs(est - n) / n < 0.025


def test_hll_merge_equals_whole():
    a = np.array([f"x{i}" for i in range(5000)], dtype=object)
    b = np.array([f"x{i}" for i in range(2500, 7500)], dtype=object)
    r1 = np.zeros(1 << 12, dtype=np.uint8)
    r2 = np.zeros(1 << 12, dtype=np.uint8)
    rw = np.zeros(1 << 12, dtype=np.uint8)
    hll_add(r1, hash_str_array(a))
    hll_add(r2, hash_str_array(b))
    hll_add(rw, hash_str_array(np.concatenate([a, b])))
    assert (np.maximum(r1, r2) == rw).all()


def test_hll_duplicates_dont_inflate():
    vals = np.array(["a", "b", "c"] * 1000, dtype=object)
    regs = np.zeros(1 << 10, dtype=np.uint8)
    hll_add(regs, hash_str_array(vals))
    assert round(hll_estimate(regs)) == 3


def test_hll_build_partitioning_invariant(ray_session):
    df = pd.DataFrame({"v": [f"u{i % 700}" for i in range(5000)]})
    r1 = hll_build(_ds(df, blocks=1), "v", p=12)
    r2 = hll_build(_ds(df, blocks=9), "v", p=12)
    assert (r1 == r2).all()
    est = hll_estimate(r1)
    assert abs(est - 700) / 700 < 0.05
    assert abs(hll_distinct(_ds(df, blocks=3), "v", p=12) - est) < 1e-9


def test_hll_nulls_ignored(ray_session):
    df = pd.DataFrame({"v": ["a", None, "b", None, "a"]})
    assert round(hll_distinct(_ds(df, blocks=2), "v", p=10)) == 2


def test_distinct_count_matches_sql(ray_session):
    rng = np.random.default_rng(5)
    frame = pd.DataFrame({
        "k": rng.choice(list("abcd"), 2000),
        "v": rng.integers(0, 150, 2000),
    })
    got = distinct_count(_ds(frame), "k", "v", alias="n").to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    want = duckdb.sql(
        "SELECT k, CAST(count(DISTINCT v) AS BIGINT) AS n FROM frame "
        "GROUP BY k ORDER BY k").df()
    pd.testing.assert_frame_equal(got.astype({"n": "int64"}), want)


def test_distinct_count_nulls_and_empty_groups(ray_session):
    frame = pd.DataFrame({
        "k": ["a", "a", "b", "b", "c"],
        "v": [1.0, 1.0, None, 2.0, None],
    })
    got = distinct_count(_ds(frame, blocks=2), "k", "v").to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    # a: one distinct; b: null ignored -> 1; c: all-null group -> 0
    assert list(got["n_distinct"]) == [1, 1, 0]


# ---------------------------------------------------------------------------
# Count-Min sketch
# ---------------------------------------------------------------------------

def test_cms_never_undercounts_and_bounds_overcount():
    from axosyslog_ray.sketch import cms_add, cms_params, cms_query

    rng = np.random.default_rng(2)
    # zipf-ish: heavy head + long tail
    words = np.array([f"w{i}" for i in range(5000)], dtype=object)
    freq = (10000 / (np.arange(5000) + 1)).astype(np.int64) + 1
    n = int(freq.sum())
    w, d = cms_params(eps=1e-3, delta=1e-3)
    table = np.zeros((d, w), dtype=np.int64)
    cms_add(table, hash_str_array(words), freq)
    est = cms_query(table, hash_str_array(words))
    assert (est >= freq).all()                      # never undercounts
    assert (est - freq).max() <= 1e-3 * n * 3       # overcount bound (3x slack)


def test_cms_merge_is_elementwise_add():
    from axosyslog_ray.sketch import cms_add, cms_query

    a = np.array(["x"] * 10 + ["y"] * 5, dtype=object)
    b = np.array(["x"] * 7 + ["z"] * 3, dtype=object)
    t1 = np.zeros((4, 256), dtype=np.int64)
    t2 = np.zeros((4, 256), dtype=np.int64)
    tw = np.zeros((4, 256), dtype=np.int64)
    cms_add(t1, hash_str_array(a))
    cms_add(t2, hash_str_array(b))
    cms_add(tw, hash_str_array(np.concatenate([a, b])))
    assert ((t1 + t2) == tw).all()
    assert list(cms_query(t1 + t2, hash_str_array(
        np.array(["x", "y", "z"], dtype=object)))) == [17, 5, 3]


def test_cms_build_words_matches_exact(ray_session):
    from axosyslog_ray.sketch import cms_build_words, cms_word_counts

    rng = np.random.default_rng(4)
    vocab = np.array([f"t{i}" for i in range(50)])
    df = pd.DataFrame({"text": [" ".join(rng.choice(vocab, 40))
                                for _ in range(400)]})
    table = cms_build_words(_ds(df, blocks=5), width=1 << 14, depth=4)
    # exact counts
    from collections import Counter
    exact = Counter(w for t in df.text for w in t.split())
    words = np.array(sorted(exact), dtype=object)
    est = cms_word_counts(table, words)
    want = np.array([exact[w] for w in words])
    # 50 distinct words in 2^14 cells: collisions essentially impossible
    assert (est == want).all()
    # partitioning invariance (tree-add merge)
    t2 = cms_build_words(_ds(df, blocks=1), width=1 << 14, depth=4)
    assert (table == t2).all()


def test_hll_group_distinct(ray_session):
    from axosyslog_ray.sketch import hll_group_distinct

    rng = np.random.default_rng(8)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 6000),
        "v": [f"u{i}" for i in rng.integers(0, 900, 6000)],
    })
    got = hll_group_distinct(_ds(df, blocks=6), "k", "v", p=12).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    exact = df.groupby("k")["v"].nunique()
    for _, row in got.iterrows():
        e = exact[row["k"]]
        assert abs(row["approx_distinct"] - e) / e < 0.06  # ~3.5 sigma at p=12
    # partitioning invariance
    g2 = hll_group_distinct(_ds(df, blocks=1), "k", "v", p=12).to_pandas()
    pd.testing.assert_frame_equal(got, g2.sort_values("k").reset_index(drop=True))


def _mod_counts():
    # per (v % 3) the row count and the sum of v: a (3, 2) int64 state;
    # a closure, so Ray workers get it by value, not by module name
    def fold(t: pa.Table, acc: np.ndarray) -> None:
        assert isinstance(t, pa.Table) and t.num_rows
        v = t.column("v").to_numpy()
        np.add.at(acc, (v % 3, 0), 1)
        np.add.at(acc, (v % 3, 1), v)

    return fold


def test_reduce_array_over_pandas_blocks(ray_session):
    import ray.data as rd

    v = np.arange(100, dtype=np.int64)
    ds = rd.from_pandas([pd.DataFrame({"v": v[:40]}), pd.DataFrame({"v": v[40:]})])
    got = reduce_array(ds, _mod_counts(), np.add, np.zeros((3, 2), dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (3, 2)
    want = [[np.sum(v % 3 == r), v[v % 3 == r].sum()] for r in range(3)]
    assert got.tolist() == want


def test_reduce_array_empty_dataset_is_zero(ray_session):
    import ray.data as rd

    zero = np.zeros((3, 2), dtype=np.int64)
    empty = rd.from_pandas(pd.DataFrame({"v": np.arange(50)})).filter(expr="v < 0")
    for ds in (empty, rd.from_pandas(pd.DataFrame({"v": np.zeros(0, np.int64)}))):
        got = reduce_array(ds, _mod_counts(), np.add, zero)
        assert got.dtype == np.int64 and got.shape == (3, 2) and not got.any()


def test_reduce_array_uint8_maximum_stays_uint8(ray_session):
    def fold(t, acc):
        v = t.column("v").to_numpy()
        np.maximum.at(acc, v % 8, (v % 251).astype(np.uint8))

    v = np.arange(2000, dtype=np.int64)
    got = reduce_array(_ds(pd.DataFrame({"v": v}), blocks=7), fold, np.maximum,
                       np.zeros(8, dtype=np.uint8))
    assert got.dtype == np.uint8
    assert got.tolist() == [int((v[v % 8 == r] % 251).max()) for r in range(8)]


def test_tree_reduce_groupby_name_and_finalize(ray_session):
    agg = tree_reduce(_mod_counts(), np.add, np.zeros((3, 2), dtype=np.int64),
                      name="total", finalize=lambda acc: int(acc[:, 1].sum()))
    df = pd.DataFrame({"k": ["a", "b", "c"] * 30, "v": np.arange(90)})
    got = _ds(df, blocks=5).groupby("k").aggregate(agg).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    assert list(got.columns) == ["k", "total"]
    assert got["total"].tolist() == df.groupby("k")["v"].sum().tolist()


class TestCmsColumn:
    def test_estimates_upper_bound_exact(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from axosyslog_ray.sketch import cms_build_column, cms_key_counts

        rng = np.random.RandomState(9)
        keys = rng.zipf(1.5, 5000).astype(np.int64)
        ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(5)
        cms = cms_build_column(ds, "k", width=1 << 14, depth=4)
        uniq, counts = np.unique(keys, return_counts=True)
        est = cms_key_counts(cms, uniq)
        assert (est >= counts).all()          # CMS never undercounts
        assert (est - counts).max() <= 16     # comfortable at this width
        # total mass per row equals N
        assert cms.sum(axis=1).tolist() == [len(keys)] * 4

    def test_merge_equals_single_pass(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from axosyslog_ray.sketch import cms_build_column

        df = pd.DataFrame({"k": np.arange(300) % 7})
        a = cms_build_column(rd.from_pandas(df), "k", width=256, depth=3)
        b = cms_build_column(rd.from_pandas(df).repartition(9), "k",
                             width=256, depth=3)
        assert (a == b).all()
