"""The experiment harness: drives workloads and collects the paper's metrics.

All times are **simulated seconds** from the device cost models; the
harness interleaves the per-node clients round-robin (each node's client
"submits a constant workload", §4.1) and reports:

* load/insert time — makespan of the load phase (Figures 6, 11, 19);
* throughput — total operations / phase makespan (Figures 12, 16, 22);
* latency — mean per-op simulated seconds by op type (Figures 13-15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.adapters import SystemAdapter
from repro.bench.ycsb import YCSBWorkload

LOAD_BATCH = 64  # records per client write-buffer flush during loading


@dataclass
class LoadResult:
    """Load-phase outcome."""

    system: str
    n_nodes: int
    records: int
    seconds: float

    @property
    def throughput(self) -> float:
        """Inserts per simulated second."""
        return self.records / self.seconds if self.seconds else 0.0


@dataclass
class MixedResult:
    """Mixed-phase outcome."""

    system: str
    n_nodes: int
    update_fraction: float
    ops: int
    seconds: float
    update_latencies: list[float] = field(default_factory=list, repr=False)
    read_latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        return self.ops / self.seconds if self.seconds else 0.0

    @property
    def mean_update_ms(self) -> float:
        """Mean update latency in milliseconds."""
        lat = self.update_latencies
        return 1000.0 * sum(lat) / len(lat) if lat else 0.0

    @property
    def mean_read_ms(self) -> float:
        """Mean read latency in milliseconds."""
        lat = self.read_latencies
        return 1000.0 * sum(lat) / len(lat) if lat else 0.0


def run_load(adapter: SystemAdapter, workload: YCSBWorkload) -> LoadResult:
    """Load phase: every node's client inserts its share in parallel.

    Keys are dealt round-robin across the per-node clients (parallel
    loading, §4.3).  Clients buffer puts and ship them in batches of
    ``LOAD_BATCH`` — the standard bulk-load path (HBase's client write
    buffer) that makes loading bandwidth-bound rather than paying a
    replication round trip per record.
    """
    n_nodes = adapter.n_nodes()
    keys = workload.load_keys(n_nodes)
    value = workload.value()
    before = adapter.makespan()
    for i, key in enumerate(keys):
        adapter.put_buffered(i % n_nodes, key, value)
    for node in range(n_nodes):
        adapter.flush_buffers(node)
    adapter.finish_load()
    return LoadResult(
        system=adapter.name,
        n_nodes=n_nodes,
        records=len(keys),
        seconds=adapter.makespan() - before,
    )


def run_mixed(
    adapter: SystemAdapter, workload: YCSBWorkload, ops_per_node: int
) -> MixedResult:
    """Mixed phase: per-node clients submit Zipfian read/update streams."""
    n_nodes = adapter.n_nodes()
    value = workload.value()
    streams = [
        workload.operations(ops_per_node, seed_offset=node) for node in range(n_nodes)
    ]
    result = MixedResult(
        system=adapter.name,
        n_nodes=n_nodes,
        update_fraction=workload.update_fraction,
        ops=0,
        seconds=0.0,
    )
    before = adapter.makespan()
    exhausted = [False] * n_nodes
    while not all(exhausted):
        for node, stream in enumerate(streams):
            if exhausted[node]:
                continue
            op = next(stream, None)
            if op is None:
                exhausted[node] = True
                continue
            kind, key = op
            if kind == "update":
                seconds = adapter.put(node, key, value)
                result.update_latencies.append(seconds)
            else:
                _, seconds = adapter.get(node, key)
                result.read_latencies.append(seconds)
            result.ops += 1
    result.seconds = adapter.makespan() - before
    return result


def run_random_reads(
    adapter: SystemAdapter,
    keys: list[bytes],
    n_reads: int,
    *,
    cold: bool,
    seed: int = 3,
) -> float:
    """Random point reads; returns phase makespan in seconds.

    ``cold=True`` drops every cache before the phase *and between reads*
    never re-warms (the §4.2.2 "without cache" experiment reads distinct
    uniformly random records, so the cache never helps)."""
    import random as _random

    rng = _random.Random(seed)
    if cold:
        adapter.drop_caches()
        picks = rng.sample(range(len(keys)), min(n_reads, len(keys)))
    else:
        # Warm experiment: Zipfian re-reads hit the cache (§4.2.2 fig 8).
        from repro.bench.zipfian import ZipfianGenerator

        chooser = ZipfianGenerator(len(keys), 1.0, seed=seed)
        picks = [chooser.next() for _ in range(n_reads)]
    total = 0.0
    for pick in picks:
        if cold:
            adapter.drop_caches()
        _, seconds = adapter.get(pick % adapter.n_nodes(), keys[pick])
        total += seconds
    return total


def run_range_scans(
    adapter: SystemAdapter,
    keys: list[bytes],
    range_sizes: list[int],
    *,
    repeats: int = 8,
    seed: int = 5,
) -> dict[int, float]:
    """Range scans returning ``n`` tuples each; returns mean latency (s)
    per range size (Figure 10's x-axis is tuples returned)."""
    import random as _random

    rng = _random.Random(seed)
    latencies: dict[int, float] = {}
    for size in range_sizes:
        total = 0.0
        for _ in range(repeats):
            start_idx = rng.randrange(max(1, len(keys) - size))
            start = keys[start_idx]
            end = keys[min(start_idx + size, len(keys) - 1)]
            adapter.drop_caches()
            _, seconds = adapter.range_scan(0, start, end)
            total += seconds
        latencies[size] = total / repeats
    return latencies
