"""The two configurations the end-to-end benchmark runs, and the pump.

Both profiles are literal dicts of :class:`repro.config.LogBaseConfig`
fields so a reader sees every setting in one place; when ROADMAP item 3
lands, ``PROFILE_PRODUCTION`` is what ``LogBaseConfig.production()``
replaces.
"""

from __future__ import annotations

from repro.config import LogBaseConfig, MiB

# The paper's deployment (``LogBaseConfig()`` defaults, §4.1) with segment
# size and heap scaled to the benchmark's data the way
# ``repro.bench.adapters._scaled_logbase_config`` scales them for 2,000
# 1 KB records per node: four segments per node's data, and a read cache
# (20 % of heap) that holds about a fifth of it, so reads frequently miss.
PROFILE_PAPER = {
    "segment_size": 500_000,
    "heap_bytes": 2_000_000,
}

# Every ROADMAP gate on at once -- the configuration a user would run.
# ``group_commit`` stays off: the blocking ``put_raw`` path bypasses the
# commit coordinator, so the gate would be on but unexercised (fan-in is
# measured by BENCH_group_commit.json).
PROFILE_PRODUCTION = {
    "segment_size": 1 * MiB,
    # read pipeline + block cache
    "block_cache_enabled": True,
    "read_coalesce_gap": 64 * 1024,
    "scan_prefetch_bytes": 1 * MiB,
    # fault tolerance
    "dfs_checksum_replicas": True,
    "dfs_verify_reads": True,
    "dfs_auto_rereplicate": True,
    "dfs_degraded_allocation": True,
    "client_retry_limit": 4,
    # gray resilience
    "gray_resilience": True,
    "op_deadline": 1.0,
    "hedge_reads": True,
    "breaker_enabled": True,
    "admission_queue_depth": 64,
    # the remaining subsystems
    "fast_recovery": True,
    "incremental_compaction": True,
    "live_migration": True,
    "read_replicas": True,
    "tracing": True,
    "monitoring": True,
}

PROFILES = {"paper": PROFILE_PAPER, "production": PROFILE_PRODUCTION}

TICK_SECONDS = 0.1  # 5 ticks per 0.5 s ownership lease
LEASE_GUARD_SECONDS = 0.25  # half a lease of one machine's own time
COMPACT_EVERY_OPS = 1000


def build_config(profile: dict) -> LogBaseConfig:
    """A validated config from a profile dict."""
    config = LogBaseConfig(**profile)
    config.validate()
    return config


class Pump:
    """Stands in for the timers a real deployment runs: one
    ``cluster.heartbeat()`` each time the simulated makespan crosses a
    ``TICK_SECONDS`` boundary, and ``db.compact_all()`` every
    ``COMPACT_EVERY_OPS`` calls.  The only place the benchmark calls
    ``heartbeat()``; the driver calls the pump after every client op.

    Leases are anchored on each server's own clock, and the simulation's
    clocks drift apart: after one client backs off for most of a second
    the makespan stands still while the other machines catch up, and a
    makespan-only pump would let their leases lapse without a fault.  So
    the pump also ticks when any one machine has used up
    ``LEASE_GUARD_SECONDS`` of its own time since the last heartbeat.
    """

    def __init__(self, db) -> None:
        self._db = db
        self._clocks = [machine.clock for machine in db.cluster.machines]
        self._next_tick = 0.0
        self._guard = [0.0] * len(self._clocks)
        self._ops = 0
        self.ticks = 0

    def tick(self) -> None:
        """One heartbeat now, whatever the simulated time."""
        self._db.cluster.heartbeat()
        self.ticks += 1
        now = [clock.now for clock in self._clocks]
        # Boundaries the makespan jumped over are not replayed: a
        # heartbeat sees only "now".
        self._next_tick = (max(now) // TICK_SECONDS + 1) * TICK_SECONDS
        self._guard = [t + LEASE_GUARD_SECONDS for t in now]

    def __call__(self) -> None:
        self._ops += 1
        if self._ops % COMPACT_EVERY_OPS == 0:
            # Before the tick check: a compaction can cost a server more
            # simulated time than a lease lasts.
            self._db.compact_all()
        for clock, guard in zip(self._clocks, self._guard):
            if clock.now >= self._next_tick or clock.now >= guard:
                self.tick()
                break
