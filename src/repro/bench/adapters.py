"""Uniform system adapters so one harness drives all three systems.

An adapter owns a freshly built cluster and exposes per-node put/get/scan
whose return value is the *simulated* seconds the operation took (server
work plus RPC), which is what the paper's latency figures report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.baselines.hbase.cluster import HBaseCluster
from repro.baselines.hbase.store import HBaseConfig
from repro.baselines.lrs.store import make_lrs_config
from repro.config import LogBaseConfig
from repro.core.client import Client
from repro.core.cluster import LogBaseCluster
from repro.core.schema import ColumnGroup, TableSchema

TABLE = "usertable"
GROUP = "g"

LOAD_BUFFER = 64  # records buffered per (client, server) before a flush

USERTABLE_SCHEMA = TableSchema(TABLE, "key", (ColumnGroup(GROUP, ("field0",)),))


class SystemAdapter(ABC):
    """Per-node operations against one system's ``cluster``, reporting
    simulated time."""

    name: str
    cluster: LogBaseCluster | HBaseCluster
    _buffers: dict[tuple[int, str], list]

    def n_nodes(self) -> int:
        """Cluster size."""
        return len(self.cluster.machines)

    @abstractmethod
    def put(self, node: int, key: bytes, value: bytes) -> float:
        """Write from client at ``node``; returns simulated seconds."""

    def put_many(self, node: int, pairs: list[tuple[bytes, bytes]]) -> float:
        """Batched write (bulk-load path).  Default: one put per pair."""
        return sum(self.put(node, key, value) for key, value in pairs)

    def put_buffered(self, node: int, key: bytes, value: bytes) -> None:
        """Client write buffer: stage the put; a per-(client, server)
        buffer flushes as one batch when it reaches LOAD_BUFFER records —
        how real bulk-load clients keep loading bandwidth-bound at any
        cluster size.  Default: immediate put."""
        self.put(node, key, value)

    def flush_buffers(self, node: int) -> None:
        """Flush any staged puts for client ``node``."""
        for slot in [s for s in self._buffers if s[0] == node]:
            self._flush_one(node, slot[1])

    @abstractmethod
    def _server(self, name: str):
        """The server called ``name``."""

    def _flush_one(self, node: int, name: str) -> float:
        """Send client ``node``'s buffer for server ``name`` as one batch."""
        items = self._buffers.pop((node, name), [])
        if not items:
            return 0.0
        machine = self.cluster.machines[node]
        server = self._server(name)
        before = machine.clock.now
        server_before = server.machine.clock.now
        payload = sum(len(k) + len(v[GROUP]) for k, v in items) + 64
        machine.clock.advance(
            machine.network.rpc_cost(payload, 16, local=server.machine is machine)
        )
        server.write_batch(TABLE, items)
        return (machine.clock.now - before) + (server.machine.clock.now - server_before)

    @abstractmethod
    def get(self, node: int, key: bytes) -> tuple[bytes | None, float]:
        """Read from client at ``node``; returns (value, seconds)."""

    def _timed_scan(self, op) -> tuple[int, float]:
        """Run ``op(server)`` on every server; phase time is the max of
        the per-server clock deltas (sub-scans execute in parallel)."""
        rows = 0
        slowest = 0.0
        for server in self.cluster.servers:
            before = server.machine.clock.now
            rows += op(server)
            slowest = max(slowest, server.machine.clock.now - before)
        return rows, slowest

    def range_scan(self, node: int, start: bytes, end: bytes) -> tuple[int, float]:
        """Range scan; returns (rows returned, seconds)."""
        return self._timed_scan(
            lambda server: sum(1 for _ in server.range_scan(TABLE, GROUP, start, end))
        )

    def full_scan(self) -> tuple[int, float]:
        """Whole-table scan across all servers (parallel segments);
        returns (rows, makespan seconds of the scan phase)."""
        return self._timed_scan(
            lambda server: sum(1 for _ in server.full_scan(TABLE, GROUP))
        )

    @abstractmethod
    def drop_caches(self) -> None:
        """Empty every read/block cache (cold-read experiments)."""

    def makespan(self) -> float:
        """Max simulated clock over the cluster's machines."""
        return self.cluster.elapsed_makespan()

    def reset_clocks(self) -> None:
        """Zero every clock between phases."""
        self.cluster.reset_clocks()

    def finish_load(self) -> None:
        """Hook after the load phase (HBase flushes memstores here)."""


class LogBaseAdapter(SystemAdapter):
    """Adapter over a LogBase (or LRS — same API) cluster.

    ``single_server=True`` pins every tablet to the first server (the
    §4.2 micro-benchmark deployment: one tablet server, 3-node DFS)."""

    def __init__(
        self,
        cluster: LogBaseCluster,
        name: str = "LogBase",
        single_server: bool = False,
    ) -> None:
        self.name = name
        self.cluster = cluster
        only = [cluster.servers[0].name] if single_server else None
        cluster.create_table(USERTABLE_SCHEMA, only_servers=only)
        self._clients = [Client(cluster.master, m) for m in cluster.machines]
        self._buffers: dict[tuple[int, str], list] = {}

    def put(self, node: int, key: bytes, value: bytes) -> float:
        client = self._clients[node]
        client.put_raw(TABLE, key, GROUP, value)
        return client.last_op_seconds

    def _server(self, name: str):
        return self.cluster.master.server(name)

    def put_buffered(self, node: int, key: bytes, value: bytes) -> None:
        name, _ = self.cluster.master.locate(TABLE, key)
        buffer = self._buffers.setdefault((node, name), [])
        buffer.append((key, {GROUP: value}))
        if len(buffer) >= LOAD_BUFFER:
            self._flush_one(node, name)

    def put_many(self, node: int, pairs: list[tuple[bytes, bytes]]) -> float:
        """One buffered batch: stage every pair, then flush this client."""
        spent = 0.0
        for key, value in pairs:
            name, _ = self.cluster.master.locate(TABLE, key)
            self._buffers.setdefault((node, name), []).append((key, {GROUP: value}))
        for slot in [s for s in self._buffers if s[0] == node]:
            spent += self._flush_one(node, slot[1])
        return spent

    def get(self, node: int, key: bytes) -> tuple[bytes | None, float]:
        client = self._clients[node]
        value = client.get_raw(TABLE, key, GROUP)
        return value, client.last_op_seconds

    def drop_caches(self) -> None:
        for server in self.cluster.servers:
            if server.read_cache is not None:
                server.read_cache.clear()
        self.cluster.dfs.drop_block_caches()
        for machine in self.cluster.machines:
            machine.disk.invalidate_head()

    def compact_all(self) -> None:
        """Run log compaction on every server (Figure 10's second line)."""
        for server in self.cluster.servers:
            server.compact()


class HBaseAdapter(SystemAdapter):
    """Adapter over the HBase baseline cluster."""

    def __init__(self, cluster: HBaseCluster, single_server: bool = False) -> None:
        self.name = "HBase"
        self.cluster = cluster
        only = [cluster.servers[0].name] if single_server else None
        cluster.create_table(USERTABLE_SCHEMA, only_servers=only)
        self._buffers: dict[tuple[int, str], list] = {}

    def _timed(self, node: int, server, request: int, response: int, op):
        start = server.machine.clock.now
        result = op()
        client_machine = self.cluster.machines[node]
        rpc = client_machine.network.rpc_cost(
            request, response, local=server.machine is client_machine
        )
        client_machine.clock.advance(rpc)
        return result, (server.machine.clock.now - start) + rpc

    def put(self, node: int, key: bytes, value: bytes) -> float:
        server = self.cluster.server_for(TABLE, key)
        _, seconds = self._timed(
            node, server, len(value) + 64, 16,
            lambda: server.write(TABLE, key, {GROUP: value}),
        )
        return seconds

    def _server(self, name: str):
        return next(s for s in self.cluster.servers if s.name == name)

    def put_buffered(self, node: int, key: bytes, value: bytes) -> None:
        server = self.cluster.server_for(TABLE, key)
        buffer = self._buffers.setdefault((node, server.name), [])
        buffer.append((key, {GROUP: value}))
        if len(buffer) >= LOAD_BUFFER:
            self._flush_one(node, server.name)

    def put_many(self, node: int, pairs: list[tuple[bytes, bytes]]) -> float:
        """One buffered batch: stage every pair, then flush this client."""
        spent = 0.0
        for key, value in pairs:
            server = self.cluster.server_for(TABLE, key)
            self._buffers.setdefault((node, server.name), []).append(
                (key, {GROUP: value})
            )
        for slot in [s for s in self._buffers if s[0] == node]:
            spent += self._flush_one(node, slot[1])
        return spent

    def get(self, node: int, key: bytes) -> tuple[bytes | None, float]:
        server = self.cluster.server_for(TABLE, key)
        result, seconds = self._timed(
            node, server, len(key) + 64, 1024,
            lambda: server.read(TABLE, key, GROUP),
        )
        return (None if result is None else result[1]), seconds

    def drop_caches(self) -> None:
        for server in self.cluster.servers:
            server.block_cache.clear()
            # Cold reads must re-fetch the sparse block indexes from the
            # data files too: "both application data and index blocks need
            # to be fetched from disk-resident files" (§3.5).
            for tables in server._sstables.values():
                for sstable in tables:
                    sstable._index = None
        for machine in self.cluster.machines:
            machine.disk.invalidate_head()

    def finish_load(self) -> None:
        self.cluster.flush_all()


def _scaled_logbase_config(records_per_node: int, record_size: int) -> LogBaseConfig:
    """Scale segment size and heap with the experiment.

    The heap is sized so the read cache (20 % of heap, §4.1) holds about
    a fifth of the node's data — matching the paper's regime where "both
    data domain size and experimental data size are large" relative to
    the cache, so distributed reads frequently miss.
    """
    total = max(records_per_node * record_size, 64 * 1024)
    return LogBaseConfig(
        segment_size=max(total // 4, 16 * 1024),
        heap_bytes=total,
    )


def make_logbase(
    n_nodes: int,
    *,
    records_per_node: int = 1000,
    record_size: int = 1000,
    config: LogBaseConfig | None = None,
    single_server: bool = False,
) -> LogBaseAdapter:
    """A fresh LogBase cluster sized for the experiment."""
    cfg = config if config is not None else _scaled_logbase_config(records_per_node, record_size)
    return LogBaseAdapter(LogBaseCluster(n_nodes, cfg), single_server=single_server)


def make_lrs(
    n_nodes: int,
    *,
    records_per_node: int = 1000,
    record_size: int = 1000,
    config: LogBaseConfig | None = None,
    single_server: bool = False,
) -> LogBaseAdapter:
    """A fresh LRS cluster (LogBase architecture, LSM-tree index).

    The LSM memtable is scaled with the experiment so index spills
    actually happen at simulation scale."""
    cfg = config if config is not None else _scaled_logbase_config(records_per_node, record_size)
    cfg = make_lrs_config(cfg)
    cluster = LogBaseCluster(n_nodes, cfg)
    # Scale each LSM memtable so a few flushes (and a merge) happen over
    # the load - proportional to LevelDB's 4 MB buffer against the
    # paper's 1 GB/node datasets.
    per_index = max(records_per_node * 24 // 4, 24 * 16)
    for server in cluster.servers:
        server.config = cfg
        original = server._new_index

        def scaled_new_index(tablet_id, group, _orig=original, _srv=server):
            index = _orig(tablet_id, group)
            index._memtable_limit = per_index
            return index

        server._new_index = scaled_new_index
    return LogBaseAdapter(cluster, name="LRS", single_server=single_server)


def make_hbase(
    n_nodes: int,
    *,
    records_per_node: int = 1000,
    record_size: int = 1000,
    single_server: bool = False,
    scaled_cache: bool = True,
) -> HBaseAdapter:
    """A fresh HBase cluster with the memstore flush size scaled so the
    load phase flushes several times per store (HBase's 64 MB threshold
    never trips at simulation record counts; bytes charged are real
    either way)."""
    config = HBaseConfig()
    per_store = max(records_per_node * record_size // 8, 8 * 1024)
    config.memstore_flush_size = per_store
    config.sstable_block_size = 64 * 1024
    # With ~8 flushes per load, the default threshold of 3 would rewrite
    # the data several times over and exaggerate HBase's write
    # amplification beyond the paper's ~2x; compact once towards the end.
    config.compaction_threshold = 6
    if scaled_cache:
        # Same cache-to-data regime as the LogBase config: the block cache
        # (20 % of heap) holds roughly a fifth of a node's data.  The §4.2
        # micro-benchmarks instead keep the paper's default 4 GB heap
        # (cache larger than the dataset), so they pass scaled_cache=False.
        config.heap_bytes = max(records_per_node * record_size, 64 * 1024)
    return HBaseAdapter(HBaseCluster(n_nodes, config), single_server=single_server)
