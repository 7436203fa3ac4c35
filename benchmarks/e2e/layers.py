"""Per-layer host-time tracing from outside ``src/``.

``LayerTracer.installed()`` wraps the public entry points of each layer
at class/module level for the duration of the traced run and removes
every wrapper afterwards.  Each wrapped call records one span (name,
start, busy time, parent span, driver op id) in memory; a layer's self
time is its spans' busy time minus the busy time of their child spans.
End-to-end numbers are always measured with no wrapper installed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from collections import defaultdict

SLOWEST_OPS = 50

# span record layout
_NAME, _START, _BUSY, _PARENT, _OP = range(5)


def _targets() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every wrapped entry point."""
    import repro.dfs.datanode
    import repro.index.persist
    import repro.util
    import repro.util.crc
    import repro.wal.record
    from repro.coordination.tso import TimestampOracle
    from repro.coordination.znodes import CoordinationService
    from repro.core.client import Client
    from repro.core.cluster import LogBaseCluster
    from repro.core.read_cache import ReadCache
    from repro.core.tablet_server import TabletServer
    from repro.dfs.datanode import DataNode
    from repro.dfs.filesystem import DFS, DFSReader, DFSWriter
    from repro.index.blink import BLinkTreeIndex
    from repro.obs.monitor import ClusterMonitor
    from repro.txn.mvocc import TransactionManager
    from repro.wal.repository import LogRepository

    spec = {
        "core.client": (Client, "put_raw get_raw scan_raw put get scan"),
        "core.tablet_server.write": (TabletServer, "write append_transactional"),
        "core.tablet_server.read": (TabletServer, "read follower_read"),
        "core.tablet_server.scan": (TabletServer, "range_scan follower_scan"),
        "core.read_cache": (ReadCache, "get put invalidate"),
        "index.insert": (BLinkTreeIndex, "insert"),
        "index.lookup": (BLinkTreeIndex, "lookup_latest lookup_asof"),
        "index.range_scan": (BLinkTreeIndex, "range_scan"),
        "txn.commit": (TransactionManager, "commit"),
        "wal.append": (LogRepository, "append_batch"),
        "wal.read": (LogRepository, "read read_many"),
        "wal.scan_segment": (LogRepository, "scan_segment"),
        "wal.compaction": (TabletServer, "compact"),
        "dfs.append": (DFSWriter, "append"),
        "dfs.read": (DFSReader, "read"),
        "dfs.verify_replica": (DataNode, "verify_replica"),
        "coordination": (CoordinationService, "get set exists get_children"),
        "coordination.tso": (TimestampOracle, "next_timestamp"),
        "control.heartbeat": (LogBaseCluster, "heartbeat"),
        "control.follower_tail": (TabletServer, "tail_followed_logs"),
        "control.lease_grant": (TabletServer, "grant_lease"),
        "control.dfs_heartbeat": (DFS, "heartbeat"),
        "control.monitor_tick": (ClusterMonitor, "tick"),
        "control.master_lookup": (LogBaseCluster, "master"),
        "core.recovery": (LogBaseCluster, "restart_server"),
        "core.migration": (LogBaseCluster, "migrate_tablet"),
    }
    targets = [
        (name, owner, attr)
        for name, (owner, attrs) in spec.items()
        for attr in attrs.split()
    ]
    # crc32c is wrapped in every module that imported the name.
    targets += [
        ("util.crc", module, "crc32c")
        for module in (
            repro.util.crc,
            repro.util,
            repro.wal.record,
            repro.index.persist,
            repro.dfs.datanode,
        )
    ]
    return targets


def _cost_targets() -> list[tuple[str, object, str]]:
    """Device-model calls whose returned simulated cost is summed (no
    span: they are leaves called several times per op)."""
    from repro.sim.disk import SimDisk
    from repro.sim.network import NetworkModel

    return [
        ("sim.disk.sim_s", SimDisk, "read"),
        ("sim.disk.sim_s", SimDisk, "write"),
        ("sim.disk.sim_s", SimDisk, "write_buffered"),
        ("sim.network.sim_s", NetworkModel, "transfer_cost"),
    ]


class LayerTracer:
    """Records spans around wrapped calls and aggregates them by layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._sealed: int | None = None

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around each call (or, for a
        generator function, around each resumption of its body)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def open_span() -> tuple[int, list]:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(record)
            return len(spans) - 1, record

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index, record = open_span()
                record[_START] = clock()
                body = fn(*args, **kwargs)
                while True:
                    stack.append(index)
                    began = clock()
                    try:
                        item = next(body)
                    except StopIteration:
                        return
                    finally:
                        record[_BUSY] += clock() - began
                        stack.pop()
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index, record = open_span()
                stack.append(index)
                record[_START] = began = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[_BUSY] = clock() - began
                    stack.pop()

        return wrapper

    def _wrap_cost(self, name: str, fn):
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cost = fn(*args, **kwargs)
            sums[name] += cost
            return cost

        return wrapper

    def _wrap_crc(self, fn):
        traced = self.wrap("util.crc", fn)
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(data, crc=0):
            sums["util.crc.bytes"] += len(data)
            return traced(data, crc)

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, property):
            replacement = property(make(original.fget))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; remove them all on exit."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        try:
            crc = None
            for name, owner, attr in _targets():
                if name == "util.crc":
                    # One wrapper shared by every importing module, so a
                    # call is counted once whichever name it went through.
                    if crc is None:
                        crc = self._wrap_crc(vars(owner)[attr])
                    self._replace(owner, attr, lambda _fn, _crc=crc: _crc)
                else:
                    self._replace(owner, attr, functools.partial(self.wrap, name))
            for name, owner, attr in _cost_targets():
                self._replace(owner, attr, functools.partial(self._wrap_cost, name))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def seal(self) -> None:
        """End of the timed phase: later spans (the idle ticks) stay out
        of the aggregates."""
        self._sealed = len(self.spans)
        self.sums = defaultdict(float, self.sums)  # wrappers keep the old dict

    @property
    def timed_spans(self) -> list[list]:
        return self.spans[: self._sealed]

    def self_times(self) -> list[float]:
        """Per span: busy time minus the busy time of its child spans."""
        spans = self.timed_spans
        own = [record[_BUSY] for record in spans]
        for record in spans:
            if record[_PARENT] >= 0:
                own[record[_PARENT]] -= record[_BUSY]
        return own

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, host_self_ms, host_ms}}``."""
        layers: dict[str, dict[str, float]] = {}
        for record, own in zip(self.timed_spans, self.self_times()):
            layer = layers.setdefault(
                record[_NAME], {"calls": 0, "host_self_ms": 0.0, "host_ms": 0.0}
            )
            layer["calls"] += 1
            layer["host_self_ms"] += 1000.0 * own
            layer["host_ms"] += 1000.0 * record[_BUSY]
        return layers

    def root_seconds(self) -> float:
        """Host time inside any wrapped call (the top-level spans)."""
        return sum(r[_BUSY] for r in self.timed_spans if r[_PARENT] < 0)

    def slowest_ops(self, limit: int = SLOWEST_OPS) -> list[dict]:
        """Span trees of the ``limit`` driver ops with the most host time
        (the pump that follows an op is part of its tree)."""
        per_op: dict[int, float] = defaultdict(float)
        for record in self.timed_spans:
            if record[_PARENT] < 0:
                per_op[record[_OP]] += record[_BUSY]
        keep = dict(sorted(per_op.items(), key=lambda kv: -kv[1])[:limit])
        own = self.self_times()
        nodes: dict[int, dict] = {}
        trees: dict[int, list[dict]] = {op: [] for op in keep}
        for index, record in enumerate(self.timed_spans):
            if record[_OP] not in keep:
                continue
            node = {
                "name": record[_NAME],
                "start_s": record[_START],
                "host_ms": 1000.0 * record[_BUSY],
                "host_self_ms": 1000.0 * own[index],
                "children": [],
            }
            nodes[index] = node
            if record[_PARENT] < 0:
                trees[record[_OP]].append(node)
            else:
                nodes[record[_PARENT]]["children"].append(node)
        return [
            {"op": op, "host_ms": 1000.0 * seconds, "spans": trees[op]}
            for op, seconds in keep.items()
        ]


# name -> (unit, better), in report order.  Counts and times are
# "lower": the same ops with fewer calls or less time is the better run.
PER_LAYER = {
    "core.client.calls": ("count", "lower"),
    "core.client.host_self_ms": ("ms", "lower"),
    "core.client.retries": ("count", "lower"),
    "core.client.replica_read_ratio": ("ratio", "higher"),
    "core.tablet_server.write.calls": ("count", "lower"),
    "core.tablet_server.write.host_self_ms": ("ms", "lower"),
    "core.tablet_server.read.calls": ("count", "lower"),
    "core.tablet_server.read.host_self_ms": ("ms", "lower"),
    "core.tablet_server.scan.calls": ("count", "lower"),
    "core.tablet_server.scan.host_self_ms": ("ms", "lower"),
    "core.tablet_server.admission_shed": ("count", "lower"),
    "core.tablet_server.lease_rejects": ("count", "lower"),
    "core.read_cache.hit_ratio": ("ratio", "higher"),
    "core.read_cache.host_self_ms": ("ms", "lower"),
    "index.insert.calls": ("count", "lower"),
    "index.insert.host_self_ms": ("ms", "lower"),
    "index.lookup.calls": ("count", "lower"),
    "index.lookup.host_self_ms": ("ms", "lower"),
    "index.memory_bytes_per_record": ("B", "lower"),
    "txn.commit.calls": ("count", "lower"),
    "txn.commit.host_self_ms": ("ms", "lower"),
    "txn.abort_ratio": ("ratio", "lower"),
    "wal.append.calls": ("count", "lower"),
    "wal.append.host_self_ms": ("ms", "lower"),
    "wal.append.bytes": ("B", "lower"),
    "wal.read.calls": ("count", "lower"),
    "wal.read.host_self_ms": ("ms", "lower"),
    "wal.scan_segment.calls": ("count", "lower"),
    "wal.scan_segment.host_self_ms": ("ms", "lower"),
    "wal.compaction.calls": ("count", "lower"),
    "wal.compaction.host_self_ms": ("ms", "lower"),
    "wal.compaction.rewrite_amp": ("ratio", "lower"),
    "dfs.append.calls": ("count", "lower"),
    "dfs.append.host_self_ms": ("ms", "lower"),
    "dfs.append.round_trips": ("count", "lower"),
    "dfs.read.calls": ("count", "lower"),
    "dfs.read.host_self_ms": ("ms", "lower"),
    "dfs.verify_replica.calls": ("count", "lower"),
    "dfs.verify_replica.host_self_ms": ("ms", "lower"),
    "dfs.block_cache.hit_ratio": ("ratio", "higher"),
    "dfs.read_failovers": ("count", "lower"),
    "dfs.hedge_fired": ("count", "lower"),
    "dfs.stored_bytes_per_user_byte": ("ratio", "lower"),
    "util.crc.calls": ("count", "lower"),
    "util.crc.bytes": ("B", "lower"),
    "util.crc.host_self_ms": ("ms", "lower"),
    "sim.disk.seeks": ("count", "lower"),
    "sim.disk.bytes_written": ("B", "lower"),
    "sim.disk.bytes_read": ("B", "lower"),
    "sim.disk.sim_s": ("s", "lower"),
    "sim.network.bytes_sent": ("B", "lower"),
    "sim.network.messages": ("count", "lower"),
    "sim.network.sim_s": ("s", "lower"),
    "coordination.calls": ("count", "lower"),
    "coordination.host_self_ms": ("ms", "lower"),
    "coordination.tso.calls": ("count", "lower"),
    "control.heartbeat.calls": ("count", "lower"),
    "control.heartbeat.host_ms": ("ms", "lower"),
    "control.heartbeat.host_share": ("ratio", "lower"),
    "control.follower_tail.calls": ("count", "lower"),
    "control.follower_tail.host_self_ms": ("ms", "lower"),
    "control.follower_tail.records_per_scan": ("ratio", "higher"),
    "control.lease_grant.calls": ("count", "lower"),
    "control.lease_grant.host_self_ms": ("ms", "lower"),
    "control.dfs_heartbeat.host_self_ms": ("ms", "lower"),
    "control.monitor_tick.host_self_ms": ("ms", "lower"),
    "control.master_lookup.calls": ("count", "lower"),
    "control.master_lookup.host_self_ms": ("ms", "lower"),
    "control.idle_tick_host_ms": ("ms", "lower"),
    "core.recovery.host_ms": ("ms", "lower"),
    "core.recovery.records_scanned": ("count", "lower"),
    "core.recovery.sim_first_ready_s": ("s", "lower"),
    "core.migration.host_ms": ("ms", "lower"),
    "core.migration.records_caught_up": ("count", "lower"),
    "obs.trace.spans": ("count", "lower"),
    "obs.monitor.scrapes": ("count", "lower"),
    "driver.host_self_ms": ("ms", "lower"),
    "driver.cpu_wall_ratio": ("ratio", "higher"),
    "driver.trace_overhead_ratio": ("ratio", "lower"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: LayerTracer, bench, phase, untraced_seconds: float) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name.  Span counts and
    self times come from the wrappers; program counters are deltas of
    ``cluster.total_counters()`` over the traced phase."""
    layers = tracer.by_layer()
    counters = phase.counters
    stats = phase.stats

    def span(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "host_self_ms", "host_ms") and layer in layers:
            out[name] = span(layer, field)
    cluster = bench.cluster
    user_bytes = sum(len(k) + len(v) for k, v in bench.model.items())
    dfs_bytes = sum(cluster.dfs.file_length(p) for p in cluster.dfs.list_files())
    hits, misses = counters.get("e2e.read_cache.hits", 0), counters.get("e2e.read_cache.misses", 0)
    block_hits, block_misses = counters.get("blockcache.hits", 0), counters.get("blockcache.misses", 0)
    commits, aborts = counters.get("e2e.txn.commits", 0), counters.get("e2e.txn.aborts", 0)
    coordination = ("coordination", "coordination.tso")
    out.update({
        "core.client.retries": counters.get("client.retries", 0),
        "core.client.replica_read_ratio": _ratio(
            counters.get("replica.reads_served", 0), span("core.tablet_server.read", "calls")
        ),
        "core.tablet_server.admission_shed": counters.get("admission.shed", 0),
        "core.tablet_server.lease_rejects": counters.get("migration.lease_rejects", 0),
        "core.read_cache.hit_ratio": _ratio(hits, hits + misses),
        "index.memory_bytes_per_record": _ratio(
            sum(s.index_memory_bytes() for s in cluster.servers), len(bench.model)
        ),
        "txn.abort_ratio": _ratio(aborts, commits + aborts),
        "wal.append.bytes": counters.get("log.ingest_bytes", 0),
        "wal.compaction.rewrite_amp": _ratio(
            counters.get("compaction.bytes_written", 0), counters.get("log.ingest_bytes", 0)
        ),
        "dfs.append.round_trips": counters.get("dfs.append_round_trips", 0),
        "dfs.block_cache.hit_ratio": _ratio(block_hits, block_hits + block_misses),
        "dfs.read_failovers": counters.get("dfs.read_failovers", 0),
        "dfs.hedge_fired": counters.get("dfs.hedge.fired", 0),
        "dfs.stored_bytes_per_user_byte": _ratio(
            dfs_bytes * cluster.config.replication, user_bytes
        ),
        "util.crc.bytes": tracer.sums["util.crc.bytes"],
        "sim.disk.seeks": counters.get("disk.seeks", 0),
        "sim.disk.bytes_written": counters.get("disk.bytes_written", 0),
        "sim.disk.bytes_read": counters.get("disk.bytes_read", 0),
        "sim.disk.sim_s": tracer.sums["sim.disk.sim_s"],
        "sim.network.bytes_sent": counters.get("net.bytes_sent", 0),
        "sim.network.messages": counters.get("net.messages", 0),
        "sim.network.sim_s": tracer.sums["sim.network.sim_s"],
        "coordination.calls": sum(span(name, "calls") for name in coordination),
        "coordination.host_self_ms": sum(span(name, "host_self_ms") for name in coordination),
        "coordination.tso.calls": span("coordination.tso", "calls"),
        "control.heartbeat.host_share": _ratio(
            span("control.heartbeat", "host_ms"), 1000.0 * phase.host_seconds
        ),
        "control.follower_tail.records_per_scan": _ratio(
            counters.get("replica.lag_records", 0), span("wal.scan_segment", "calls")
        ),
        "control.idle_tick_host_ms": (
            statistics.median(phase.idle_tick_ms) if phase.idle_tick_ms else 0.0
        ),
        "core.recovery.records_scanned": getattr(stats.recovery, "records_scanned", 0),
        "core.recovery.sim_first_ready_s": getattr(stats.recovery, "first_ready_seconds", 0.0),
        "core.migration.records_caught_up": getattr(stats.migration, "records_caught_up", 0),
        "obs.trace.spans": counters.get("e2e.trace.spans", 0),
        "obs.monitor.scrapes": counters.get("e2e.monitor.scrapes", 0),
        "driver.host_self_ms": 1000.0 * (phase.host_seconds - tracer.root_seconds()),
        "driver.cpu_wall_ratio": _ratio(phase.cpu_seconds, phase.host_seconds),
        "driver.trace_overhead_ratio": _ratio(
            phase.host_seconds - untraced_seconds, untraced_seconds
        ),
    })
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}
