"""Every keyed operator on `shuffle.bucketed_map_groups` gives the same
rows at 1 and at 97 coarse buckets: a key's rows never split across
buckets, so the bucket count moves only group sizes, never results.
Operators with a `num_buckets` argument get it; `patternize` and
`correlate` take the cluster default, which the test sets."""
import numpy as np
import pandas as pd
import pytest

from axosyslog_ray import shuffle

BUCKETS = (1, 97)


def _ds(df: pd.DataFrame, blocks: int = 3):
    import ray.data as rd

    return rd.from_pandas(df).repartition(blocks)


def _docs(n: int = 40, seed: int = 5) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i}" for i in range(60)])
    texts = [" ".join(rng.choice(words, 30)) for _ in range(n)]
    for i in range(0, n, 4):  # planted exact and near duplicates
        texts[i + 1] = texts[i]
        texts[i + 2] = texts[i].replace(texts[i].split()[5], "CHANGED", 1)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), na_position="first").reset_index(drop=True)


def _dedup_rows(nb):
    from axosyslog_ray.dedup.exact import dedup_rows

    return dedup_rows(_ds(_docs()), num_buckets=nb).to_pandas()


def _join_sides():
    left = pd.DataFrame({"k": [1, 2, 2, 3, 5, None], "a": list("xyzwuv")})
    right = pd.DataFrame({"k": [2, 3, 3, 4, None], "b": [10, 20, 30, 40, 50]})
    return _ds(left), _ds(right)


def _hash_join(how):
    def run(nb):
        from axosyslog_ray.join import hash_join

        left, right = _join_sides()
        return hash_join(left, right, "k", how=how, num_buckets=nb).to_pandas()

    return run


def _asof_join(nb):
    from axosyslog_ray.join import asof_join

    t0 = pd.Timestamp("2026-01-01")
    left = pd.DataFrame({"k": [1, 1, 2, 3, 4, 2],
                         "ts": t0 + pd.to_timedelta([5, 30, 12, 1, 9, 40], unit="s"),
                         "eid": range(6)})
    right = pd.DataFrame({"k": [1, 1, 2, 2, 4],
                          "ts": t0 + pd.to_timedelta([3, 20, 12, 35, 10], unit="s"),
                          "price": [1.0, 2.0, 3.0, 4.0, 5.0]})
    return asof_join(_ds(left), _ds(right), on="ts", by="k", num_buckets=nb).to_pandas()


def _cross_flags(nb):
    from axosyslog_ray.dedup.minhash import minhash_cross_flags

    docs = _docs()
    prior = docs.iloc[::2].reset_index(drop=True)
    new = docs.iloc[1::2].reset_index(drop=True)
    return minhash_cross_flags(_ds(new), _ds(prior), num_buckets=nb).to_pandas()


def _fuzzy_dedup(nb):
    from axosyslog_ray.dedup.fuzzy import fuzzy_dedup

    return fuzzy_dedup(_ds(_docs()), num_perm=64, bands=32, num_buckets=nb).to_pandas()


def _patternize_semijoin(nb):
    from axosyslog_ray.stages.patternize import patternize

    rng = np.random.default_rng(2)
    msgs = [f"user u{rng.integers(20)} logged in from 10.0.0.{rng.integers(9)}"
            for _ in range(60)] + [f"disk sd{c} full on host h{rng.integers(4)}"
                                   for c in "abcabcabca"]
    return patternize(_ds(pd.DataFrame({"message": msgs})), support=5,
                      broadcast_limit=0).to_pandas()


def _correlate(nb):
    from axosyslog_ray.state.correlate import CorrelationConfig, PdbAction, correlate

    t0 = pd.Timestamp("2026-01-01")
    df = pd.DataFrame({
        "host": ["a", "a", None, "a", None, "b", "b", None, "b", "a", "c"],
        "ts_stamp": t0 + pd.to_timedelta([0, 10, 20, 5000, 1, 2, 3, 7, 9000, 30, 4],
                                         unit="s"),
        "v": range(11),
    })
    cfg = CorrelationConfig(key=["host"], timeout=60, actions=[
        PdbAction(on="timeout", fields={"n": "context-length", "s": "sum:v"}),
        PdbAction(on="match", condition=lambda s: s["v"] > 5, fields={"last": "last:v"}),
    ])
    return correlate(_ds(df), cfg).to_pandas()


CASES = {
    "dedup_rows": _dedup_rows,
    "hash_join_inner": _hash_join("inner"),
    "hash_join_left": _hash_join("left"),
    "asof_join": _asof_join,
    "minhash_cross_flags": _cross_flags,
    "fuzzy_dedup": _fuzzy_dedup,
    "patternize_semijoin": _patternize_semijoin,
    "correlate": _correlate,
}


def _run(case: str, nb: int, monkeypatch) -> pd.DataFrame:
    monkeypatch.setattr(shuffle, "default_num_buckets", lambda: nb)
    return _canon(CASES[case](nb))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_invariant_to_bucket_count(case, monkeypatch):
    few, many = (_run(case, nb, monkeypatch) for nb in BUCKETS)
    assert len(few) > 0
    pd.testing.assert_frame_equal(few, many)


@pytest.mark.usefixtures("ray_session")
def test_correlate_keeps_null_key_as_one_context(monkeypatch):
    out = _run("correlate", 8, monkeypatch)
    timeouts = out[out["action_on"] == "timeout"]
    null_ctx = timeouts[timeouts["host"].isna()]
    # the three null-host rows (ts 1, 7, 20 s) are one context
    assert null_ctx["n"].tolist() == [3]
    assert null_ctx["s"].tolist() == [2 + 4 + 7]
    assert sorted(timeouts["host"].dropna()) == ["a", "a", "b", "b", "c"]
