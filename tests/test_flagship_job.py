"""jobs/flagship_job.py + jobs/curate_corpus_job.py: the resumable
ray-job entries."""
import glob
import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from jobs.curate_corpus_job import main as curate_main  # noqa: E402
from jobs.flagship_job import main as job_main  # noqa: E402

from axosyslog_ray.synth import write_pages  # noqa: E402


@pytest.fixture()
def pages_dir(tmp_path, ray_session):
    d = tmp_path / "pages"
    write_pages(str(d), 3000, shards=6)
    return str(d)


class TestFlagshipJob:
    def test_runs_and_resumes(self, pages_dir, tmp_path, capsys, ray_session):
        out = str(tmp_path / "routed")
        rc = job_main(["--input", pages_dir, "--output", out,
                       "--num-parts", "3"])
        assert rc == 0
        rep1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep1["partitions_run"] >= 1
        assert rep1["partitions_skipped"] == 0
        assert sum(rep1["sink_counts"].values()) == 3000

        # a second submit reprocesses NOTHING, same totals
        rc = job_main(["--input", pages_dir, "--output", out,
                       "--num-parts", "3"])
        assert rc == 0
        rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep2["partitions_run"] == 0
        assert rep2["partitions_skipped"] == rep1["partitions_run"]
        assert rep2["sink_counts"] == rep1["sink_counts"]

        # killing one partition's marker reruns exactly that partition
        markers = sorted(os.listdir(os.path.join(out, "_manifest")))
        os.remove(os.path.join(out, "_manifest", markers[0]))
        rc = job_main(["--input", pages_dir, "--output", out,
                       "--num-parts", "3"])
        assert rc == 0
        rep3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep3["partitions_run"] == 1
        assert rep3["sink_counts"] == rep1["sink_counts"]

    def test_no_input_errors(self, tmp_path, ray_session):
        rc = job_main(["--input", str(tmp_path / "nope"),
                       "--output", str(tmp_path / "o")])
        assert rc == 2

    def test_rerun_replaces_a_killed_attempts_files(self, pages_dir, tmp_path,
                                                     capsys, ray_session):
        out = str(tmp_path / "routed")
        argv = ["--input", pages_dir, "--output", out, "--num-parts", "3"]
        assert job_main(argv) == 0
        capsys.readouterr()
        # partition 0 looks killed after writing: no marker, and a file
        # its lost attempt left next to the real ones
        markers = sorted(os.listdir(os.path.join(out, "_manifest")))
        os.remove(os.path.join(out, "_manifest", markers[0]))
        part0 = sorted(glob.glob(os.path.join(out, "part=*")))[0]
        leftover = sorted(glob.glob(os.path.join(part0, "**", "*.parquet"),
                                    recursive=True))[0]
        shutil.copy(leftover, os.path.join(os.path.dirname(leftover),
                                           "killed-attempt.parquet"))
        assert job_main(argv) == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sum(rep["sink_counts"].values()) == 3000
        import pyarrow.parquet as pq

        on_disk = glob.glob(os.path.join(out, "part=*", "**", "*.parquet"),
                            recursive=True)
        assert sum(pq.read_metadata(f).num_rows for f in on_disk) == 3000

    def test_job_files_take_the_sink_page_policy(self, pages_dir, tmp_path,
                                                  capsys, ray_session):
        """The job writes through the routed sink: zstd pages in every
        file, and both timestamps DELTA_BINARY_PACKED with no dictionary
        page."""
        import pyarrow.parquet as pq

        out = str(tmp_path / "routed")
        assert job_main(["--input", pages_dir, "--output", out, "--num-parts", "2"]) == 0
        capsys.readouterr()
        files = glob.glob(os.path.join(out, "part=*", "route=*", "*.parquet"))
        assert files
        for f in files:
            md = pq.read_metadata(f)
            for g in range(md.num_row_groups):
                chunks = {md.schema.column(i).path: md.row_group(g).column(i)
                          for i in range(md.num_columns)}
                assert {c.compression for c in chunks.values()} == {"ZSTD"}, f
                for col in ("warc_ts", "ts_stamp"):
                    assert "DELTA_BINARY_PACKED" in chunks[col].encodings, (f, col)
                    assert not chunks[col].has_dictionary_page, (f, col)


def _docs_dir(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    d = tmp_path / "docs"
    d.mkdir()
    for s in range(3):
        ids = range(s * 20, (s + 1) * 20)
        pq.write_table(pa.table({
            "doc_id": list(ids), "source": [f"s{i % 2}" for i in ids],
            "text": [" ".join(rng.choice([f"w{j}" for j in range(300)], 30))
                     for _ in ids]}), str(d / f"shard-{s}.parquet"))
    return str(d)


def test_curation_glob_input_curates_every_row(tmp_path, capsys, ray_session):
    import ray.data as rd

    docs = _docs_dir(tmp_path)
    out = str(tmp_path / "curated")
    rc = curate_main(["--input", os.path.join(docs, "*.parquet"), "--output", out,
                      "--num-parts", "2", "--no-dedup", "--budget-tokens", "1e9"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["skipped"] == 0
    assert rd.read_parquet(out).count() == 60


@pytest.mark.parametrize("cli", [job_main, curate_main])
def test_no_matching_input_exits_2(cli, tmp_path, ray_session):
    pattern = str(tmp_path / "nope" / "*.parquet")
    assert cli(["--input", pattern, "--output", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o" / "_manifest")


def test_job_clis_let_ray_pick_the_cluster(tmp_path, monkeypatch):
    import ray

    inits = []
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", lambda *a, **kw: inits.append((a, kw)))
    rcs = [cli(["--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
           for cli in (job_main, curate_main)]
    assert len(inits) == 2
    for args, kwargs in inits:
        assert not args and kwargs.get("address") not in ("local", "auto")
    assert rcs == [2, 2]
