"""Ray Data context tuning for block sizing.

Ray's read planner splits every read into at least
`DataContext.read_op_min_num_blocks` blocks (default 200) so that a big
job has enough parallelism. At small corpus sizes that minimum DOMINATES:
the 600k-row bench headline becomes 224 blocks of ~2.7k rows, and the
driver's per-block scheduling round-trips cost more wall time than the
compute (measured: parse+write 11.5s at 224 blocks vs 2.5s at 64 blocks
on the same 32-CPU box — the streaming executor's per-block driver work
is the serial bottleneck, not the workers).

`tune_read_blocks()` lowers the minimum to 2 blocks per cluster CPU, with
no floor: every core gets two blocks to overlap, and the planner splits
no further. A fixed floor (it was 32) split small-CPU reads for no
parallelism: on 1 CPU the benchmark's four 16,384-row shards became
`ReadParquet->SplitBlocks(7)`, 28 blocks of ~2,340 rows, which the
16,384-row `map_batches` then re-bundled; every block still cost its
object-store puts and driver round-trips. At 2 blocks the traced flagship
run's driver time (`ray.driver_s`) fell from 0.24 to 0.13-0.16 s
(1 CPU of a 4-vCPU VM). At 16 CPUs and up the floor never bound. At
100-TB scale this setting is INERT — natural block counts
(target_max_block_size splits of big files) far exceed 2/CPU, so the
minimum never binds; it only stops the planner from shredding small
inputs.
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        pass
    return default


def tune_read_blocks(cpus: int | None = None) -> int:
    """Set read_op_min_num_blocks = 2 * cpus (default: the cluster's
    CPUs) and return it. No floor: a read is split only as far as the
    CPUs can use, and the map's batch_size does the rest."""
    import ray.data as rd

    n = 2 * (cpus if cpus is not None else cluster_cpus())
    rd.DataContext.get_current().read_op_min_num_blocks = n
    return n


def actor_pool_size(requested: int | None = None) -> int:
    """Cap a fixed actor-pool size at cluster_cpus - 1.

    A fixed-size actor pool reserves one CPU per actor for the stage's
    whole lifetime; if the pool takes EVERY cluster CPU, the upstream
    task-based operators (the read, fused map_batches) can never
    schedule and the pipeline deadlocks — observed as a silent hang on
    the 4-CPU pytest session the first time a `concurrency=4` class
    stage ran there. One spare CPU keeps the producer side live; on a
    real cluster (cpus >> pool) the cap is inert.

    requested=None sizes the pool to the cluster (cpus - 1): heavy-state
    class stages scale with the machine instead of a hardcoded cap."""
    cpus = cluster_cpus(default=(requested or 4) + 1)
    if requested is None:
        return max(1, cpus - 1)
    return max(1, min(requested, cpus - 1))
