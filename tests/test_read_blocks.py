"""Read-block sizing: `tune_read_blocks` asks for 2 read blocks per CPU,
and the Ray paths give the same rows however the read is split."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from axosyslog_ray.config import ConfigStage, compile_config, run_config_on_dataset
from axosyslog_ray.context import tune_read_blocks
from axosyslog_ray.pipelines.flagship import LogPipelineStage, flagship_routed
from axosyslog_ray.synth import write_pages

ROWS, SHARDS = 6000, 3

CONF = """
source s { example-msg-generator(num(1)); };
destination d_errors { file("errors.log"); };
destination d_auth { file("auth.log"); };
destination d_other { file("other.log"); };
parser p_syslog { syslog-parser(); };
log {
    source(s);
    parser(p_syslog);
    junction {
        channel { filter { level(emerg..err); }; destination(d_errors); flags(final); };
        channel { filter { program("^(su|sshd|sudo|login)$"); }; destination(d_auth); flags(final); };
        channel { destination(d_other); flags(fallback); };
    };
};
"""


@pytest.mark.parametrize("cpus", [1, 4, 32])
def test_two_read_blocks_per_cpu(cpus):
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    prev = ctx.read_op_min_num_blocks
    try:
        assert tune_read_blocks(cpus) == 2 * cpus
        assert ctx.read_op_min_num_blocks == 2 * cpus
    finally:
        ctx.read_op_min_num_blocks = prev


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    out = tmp_path_factory.mktemp("pages")
    write_pages(str(out), ROWS, seed=7, shards=SHARDS)
    return sorted(str(p) for p in out.glob("pages-*.parquet"))


def _sorted_rows(t: pa.Table, cols: list[str]) -> dict:
    return t.select(cols).sort_by("url").to_pydict()


def _under_both_splits(files, run, cols) -> list[tuple[int, dict]]:
    """(read blocks, sorted `cols` of `run(read_dataset)`) with the old
    32-block floor and with `tune_read_blocks(1)`. Ray caps the split at
    blocks of `target_min_block_size` (1 MiB), so that is lowered for
    both runs: the test input splits the way a benchmark corpus does."""
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    prev = ctx.read_op_min_num_blocks, ctx.target_min_block_size
    ctx.target_min_block_size = 1024
    out = []
    try:
        for tune in (lambda: setattr(ctx, "read_op_min_num_blocks", 32),
                     lambda: tune_read_blocks(1)):
            tune()
            blocks = rd.read_parquet(files).materialize().num_blocks()
            df = run(rd.read_parquet(files)).select_columns(cols).to_pandas()
            out.append((blocks, _sorted_rows(pa.Table.from_pandas(df, preserve_index=False), cols)))
    finally:
        ctx.read_op_min_num_blocks, ctx.target_min_block_size = prev
    return out


@pytest.mark.usefixtures("ray_session")
def test_flagship_rows_do_not_depend_on_read_split(shards):
    cols = ["url", "route", "host", "program", "src_ip", "geo_country"]
    expected = _sorted_rows(LogPipelineStage()(pq.read_table(shards)), cols)
    (split_blocks, split), (tuned_blocks, tuned) = _under_both_splits(shards, flagship_routed, cols)
    assert split_blocks > tuned_blocks
    assert split == expected
    assert tuned == expected


@pytest.mark.usefixtures("ray_session")
def test_config_rows_do_not_depend_on_read_split(shards):
    cols = ["url", "dest", "host", "program", "message"]
    pages = pq.read_table(shards)
    messages = pages.rename_columns(["message" if c == "text" else c for c in pages.column_names])
    expected = _sorted_rows(ConfigStage(compile_config(CONF), "s")(messages), cols)
    assert set(expected["dest"]) == {"d_errors", "d_auth", "d_other"}
    cfg = compile_config(CONF)
    (split_blocks, split), (tuned_blocks, tuned) = _under_both_splits(
        shards, lambda ds: run_config_on_dataset(cfg, ds.rename_columns({"text": "message"}), "s"), cols)
    assert split_blocks > tuned_blocks
    assert split == expected
    assert tuned == expected
