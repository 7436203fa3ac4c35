"""Operational statistics: per-server and cluster-wide snapshots.

A production storage system exposes its internals; this module gathers
what LogBase's components already track — log sizes, index entry counts
and memory, read-cache hit rates, device counters, transaction outcomes —
into plain dataclasses and a text rendering for dashboards/debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cluster import LogBaseCluster
from repro.core.tablet_server import TabletServer


@dataclass(frozen=True)
class CacheStats:
    """Read-buffer effectiveness."""

    hits: int
    misses: int
    bytes_used: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ServerStats:
    """One tablet server's state snapshot."""

    name: str
    serving: bool
    simulated_seconds: float
    tablets: int
    log_bytes: int
    log_segments: int
    next_lsn: int
    index_entries: int
    index_memory_bytes: int
    secondary_indexes: int
    cache: CacheStats | None
    block_cache: CacheStats | None = None
    counters: dict[str, float] = field(default_factory=dict)
    recovering_tablets: int = 0  # tablets owned but not yet redone
    last_recovery: dict | None = None  # RecoveryReport.to_dict() of last pass
    follower_tablets: int = 0  # read replicas hosted for tablets owned elsewhere


@dataclass(frozen=True)
class ClusterStats:
    """Whole-cluster snapshot.

    ``health`` is the derived-gauge snapshot — replica lag, tablet heat,
    recovery queues, lease health, breaker states and friends — nested
    ``{entity: {gauge: value}}``.  It comes from the *same* function the
    monitoring scraper samples (:func:`repro.obs.monitor.collect_health_gauges`),
    so this report and the time series can never disagree.
    """

    servers: tuple[ServerStats, ...]
    makespan_seconds: float
    total_log_bytes: int
    total_index_entries: int
    counters: dict[str, float] = field(default_factory=dict)
    health: dict[str, dict[str, float]] = field(default_factory=dict)


def collect_server_stats(server: TabletServer) -> ServerStats:
    """Snapshot one tablet server."""
    cache = None
    if server.read_cache is not None:
        cache = CacheStats(
            hits=server.read_cache.hits,
            misses=server.read_cache.misses,
            bytes_used=server.read_cache.bytes_used,
            entries=len(server.read_cache),
        )
    block_cache = None
    dfs_cache = server.dfs.block_cache_for(server.machine)
    if dfs_cache is not None:
        block_cache = CacheStats(
            hits=dfs_cache.hits,
            misses=dfs_cache.misses,
            bytes_used=dfs_cache.bytes_used,
            entries=len(dfs_cache),
        )
    return ServerStats(
        name=server.name,
        serving=server.serving,
        simulated_seconds=server.machine.clock.now,
        tablets=len(server.tablets),
        log_bytes=server.log.total_bytes(),
        log_segments=len(server.log.segments()),
        next_lsn=server.log.next_lsn,
        index_entries=sum(len(index) for index in server.indexes().values()),
        index_memory_bytes=server.index_memory_bytes(),
        secondary_indexes=len(server.secondary.indexes()),
        cache=cache,
        block_cache=block_cache,
        counters=server.machine.counters.snapshot(),
        recovering_tablets=len(server.recovering_tablets),
        last_recovery=(
            server.last_recovery.to_dict()
            if server.last_recovery is not None
            else None
        ),
        follower_tablets=len(server.followers),
    )


def collect_cluster_stats(cluster: LogBaseCluster) -> ClusterStats:
    """Snapshot the whole cluster."""
    from repro.obs.monitor import gauges_by_entity

    servers = tuple(collect_server_stats(server) for server in cluster.servers)
    return ClusterStats(
        servers=servers,
        makespan_seconds=cluster.elapsed_makespan(),
        total_log_bytes=sum(s.log_bytes for s in servers),
        total_index_entries=sum(s.index_entries for s in servers),
        counters=cluster.total_counters(),
        health=gauges_by_entity(cluster),
    )


def format_stats(stats: ClusterStats, tracer=None) -> str:
    """Human-readable rendering of a cluster snapshot.

    With a tracer (``cluster.tracer`` on a traced cluster) the "where did
    the time go" report — per-layer breakdown, latency histograms, and
    slowest traces with their critical paths — is appended.
    """
    lines = [
        f"cluster: {len(stats.servers)} servers, "
        f"makespan {stats.makespan_seconds:.4f}s, "
        f"log {stats.total_log_bytes:,} B, "
        f"{stats.total_index_entries:,} index entries",
    ]
    for server in stats.servers:
        state = "up" if server.serving else "down"
        cache = (
            f"cache {server.cache.hit_rate:.0%} hit"
            if server.cache is not None
            else "no cache"
        )
        block_cache = (
            f"blockcache {server.block_cache.hit_rate:.0%} hit"
            f"/{server.block_cache.bytes_used:,}B"
            if server.block_cache is not None
            else "no blockcache"
        )
        lines.append(
            f"  {server.name} [{state}] tablets={server.tablets} "
            f"log={server.log_bytes:,}B/{server.log_segments}seg "
            f"index={server.index_entries:,}e/{server.index_memory_bytes:,}B "
            f"{cache} {block_cache} lsn={server.next_lsn}"
        )
    interesting = (
        "disk.bytes_written",
        "disk.bytes_read",
        "disk.seeks",
        "net.messages",
        "blockcache.hits",
        "blockcache.misses",
        "log.read_many.records",
        "log.read_many.spans",
        "compaction.bytes_read",
        "compaction.bytes_written",
        "log.ingest_bytes",
        "dfs.hedge.fired",
        "dfs.hedge.wins",
        "breaker.trips",
        "admission.shed",
        "deadline.exceeded",
        "commit.groups",
        "commit.group_fanin",
        "commit.acks_deferred",
        "dfs.append_round_trips",
        "recovery.parallel_runs",
        "recovery.tablets_recovered",
        "recovery.rejected_ops",
        "migration.started",
        "migration.completed",
        "migration.aborted",
        "migration.records_caught_up",
        "migration.flip_seconds",
        "migration.splits",
        "migration.lease_rejects",
        "replica.reads_served",
        "replica.redirects",
        "replica.lag_records",
        "replica.tail_batches",
        "replica.tail_errors",
    )
    totals = "  ".join(
        f"{name}={stats.counters.get(name, 0):,.0f}" for name in interesting
    )
    lines.append(f"  totals: {totals}")
    for entity in sorted(stats.health):
        gauges = stats.health[entity]
        rendered = "  ".join(
            f"{name.removeprefix('gauge.')}={value:g}"
            for name, value in sorted(gauges.items())
        )
        lines.append(f"  health {entity}: {rendered}")
    if tracer is not None:
        from repro.obs.analyze import format_time_report

        lines.append("")
        lines.append(format_time_report(tracer))
    return "\n".join(lines)
