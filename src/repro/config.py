"""Configuration knobs for a LogBase deployment.

Defaults follow the paper's experimental setup (§4.1): 64 MB log segments
and DFS blocks, 3-way replication, 40 % of a 4 GB heap for in-memory
indexes, 20 % for the read cache.  Record counts are scaled down for the
simulation; byte *sizes* are kept at paper scale so cost accounting
matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel

GiB = 1024 * 1024 * 1024
MiB = 1024 * 1024

# Heap shares (§4.1: 40 % for in-memory indexes, 20 % for the read cache)
# and the per-machine DFS block cache's (when enabled).
INDEX_HEAP_FRACTION = 0.40
READ_CACHE_HEAP_FRACTION = 0.20
BLOCK_CACHE_HEAP_FRACTION = 0.10

# Racks the cluster's machines are spread over.
RACKS = 2


@dataclass
class LogBaseConfig:
    """Tunable parameters for cluster, servers and storage.

    Attributes:
        replication: DFS synchronous replication factor.
        segment_size: log segment roll size in bytes.
        heap_bytes: simulated tablet-server heap.
        checkpoint_update_threshold: updates per column group between
            automatic index flushes (0 disables automatic checkpoints).
        read_cache_enabled: whether servers keep a read buffer at all
            (it is "only an optional component", §3.6.2).
        block_cache_enabled: whether each machine keeps an LRU cache of
            block-sized chunks between the DFS reader and the simulated
            disk.  Off by default so the seed Fig. 6-10 cost-model results
            are reproduced exactly; enable it (or use
            :meth:`with_read_pipeline`) for the hot read path.
        block_cache_chunk: bytes per cached chunk (the unit of cache fill
            and eviction; one miss reads one chunk from the datanode).
        read_coalesce_gap: ``None`` disables batch-read coalescing (seed
            behaviour: one DFS read per pointer).  Otherwise, pointers
            sorted by offset whose gap is at most this many bytes are
            merged into a single DFS read by ``LogRepository.read_many``.
        scan_prefetch_bytes: read-ahead window for sequential segment
            scans; 0 reads the whole segment in one request (seed
            behaviour), a positive value streams the scan in windows of
            this many bytes.
        group_commit: retired gate, pinned to ``False`` — every
            tablet-server log append goes through the commit coordinator
            (:mod:`repro.wal.group_commit`) under any config.  The field
            survives only because the frozen
            ``benchmarks/e2e/tests/test_profiles.py`` reads it; it goes
            once ROADMAP item 5 (A) lifts that pin.  ``validate()``
            rejects ``True``.
        dfs_checksum_replicas: datanodes keep one CRC-32C per 64 KiB
            chunk of every replica (needed for read-path corruption
            detection).  An append computes the chunk CRCs once at the
            head of the replication pipeline and ships them to every
            replica with the bytes.
        dfs_verify_reads: retired gate, pinned to ``True`` — the format
            checks; the DFS verifies on a mismatch or for checksum-less
            files.  It survives only because the frozen
            ``benchmarks/e2e/tests/test_profiles.py`` asserts it is
            ``True``, and goes with ROADMAP item 5 (A).
        dfs_auto_rereplicate: the cluster heartbeat runs the namenode's
            background re-replication pass over blocks the pipeline or
            read path reported under-replicated.
        dfs_degraded_allocation: allocate new blocks on however many
            datanodes are live (queued for repair) instead of refusing
            writes when fewer than ``replication`` survive.
        client_retry_limit: times a client retries an operation that hit
            a dead server (with backoff), instead of raising immediately.
            0 keeps the seed behaviour: invalidate the cache and raise.
        client_retry_backoff: simulated seconds charged to the client
            before the first retry; doubles per attempt.
        client_retry_backoff_max: cap on one backoff wait — the doubling
            stops growing here instead of running away exponentially.
        gray_resilience: master gate for the gray-failure resilience
            layer (deadlines, hedged reads, circuit breakers, admission
            control).  Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_gray_resilience` enables it.
        op_deadline: per-operation time budget in simulated seconds the
            client attaches to every call (None disables deadlines).
            Propagated server-side; deadline-aware read paths raise
            ``DeadlineExceededError`` instead of charging past it.
        hedge_reads: DFS readers fire a hedge to a second replica when
            the preferred replica's estimated cost exceeds the hedging
            delay, and take the cheaper completion.
        breaker_enabled: trip per-node circuit breakers on EWMA latency
            and bias routing away from open (limping) nodes.
        breaker_cooldown: seconds an open breaker waits before letting a
            half-open probe through.
        breaker_min_samples: observations before a breaker may trip.
        admission_queue_depth: bounded in-flight queue per tablet server,
            in EWMA service times; requests past it are shed with
            ``ServerOverloadedError`` + retry-after (None disables).
        incremental_compaction: retired gate, pinned to ``True`` — since
            PR 14 the size-tiered planner is the only compaction path.
            The field survives only because the frozen end-to-end
            benchmark profile still passes it; ``validate()`` rejects
            ``False``.
        compaction_tier_fanout: sorted runs of one (table, group) merge
            only when at least this many similar-sized runs have
            accumulated in a size tier (the size-tiered trigger).
        fast_recovery: retired gate, pinned to ``True`` — since PR 14
            ``restart_server`` always runs the parallel hot-first redo.
            Kept for the same reason as ``incremental_compaction``;
            ``validate()`` rejects ``False``.
        recovery_workers: parallel redo workers (scan + per-tablet
            bring-up lanes) restart recovery multiplexes over the
            scheduler.
        live_migration: enforce lease-based tablet ownership (leases
            renewed by the cluster heartbeat and checked on every client-
            facing op) and enable hot-tablet splitting at the median
            observed key and the master-side heat balancer.  How a tablet
            moves is not gated: :mod:`repro.core.migration`'s
            prepare/catch-up/fenced-flip state machine is the only mover.
            Off by default so the seed figures are reproduced
            byte-identically; :meth:`with_live_migration` enables it.
        read_replicas: enable log-shipping read replicas
            (:mod:`repro.core.follower`): non-owner servers tail the
            owner's log segments straight from the replicated DFS,
            maintain their own multiversion indexes, and serve
            bounded-staleness reads; the client spreads read traffic
            across followers and falls back to the owner on
            ``FollowerLaggingError``.  Off by default so the seed figures
            are reproduced byte-identically; :meth:`with_read_replicas`
            enables it.
        replicas_per_tablet: followers the master places per tablet (on
            distinct non-owner servers; capped by cluster size).
        replica_max_staleness: default per-read staleness bound in
            simulated seconds — a follower whose watermark is older than
            the owner's last-commit time minus this bound rejects the
            read with ``FollowerLaggingError`` (per-request override via
            the client API).
        tracing: install a :class:`~repro.obs.trace.Tracer` on the
            cluster and open spans at every gated entry point (client
            ops, tablet-server calls, compaction, recovery), attributing
            each charged simulated second to the innermost open span.
            Off by default so the seed figures are reproduced
            byte-identically.
        monitoring: install a :class:`~repro.obs.monitor.ClusterMonitor`
            on the cluster: every heartbeat scrapes per-machine counter
            deltas and derived health gauges into ring-buffer time
            series, evaluates the SLO/alert rules in simulated time, and
            snapshots flight-recorder post-mortems on alert fire or any
            observed fault.  Off by default so the seed figures are
            reproduced byte-identically.  Pure bookkeeping — no
            simulated cost either way.
        monitor_scrape_interval: minimum *simulated* seconds between
            scrape ticks — the production-style cadence that keeps the
            enabled gate's wall-clock overhead bounded.  ``0.0`` scrapes
            on every heartbeat (what the chaos detection oracle uses for
            maximum fidelity).
        slo_op_p99: per-op-class latency SLO targets in simulated
            seconds, e.g. ``{"op.put": 0.25}`` — each entry adds a
            burn-rate alert computed from the PR 6 latency histograms
            (requires ``tracing`` for the histograms to exist).
        slo_burn_threshold: burn-rate multiple that fires the SLO alert
            (1.0 = burning budget exactly at the allowed rate).
        index_kind: ``"blink"`` (in-memory) or ``"lsm"`` (spill to DFS).
        max_versions: versions kept per key by compaction (None = all).
        disk: device cost model for every machine.
        network: cluster interconnect cost model.
    """

    replication: int = 3
    segment_size: int = 64 * MiB
    heap_bytes: int = 4 * GiB
    checkpoint_update_threshold: int = 0
    read_cache_enabled: bool = True
    block_cache_enabled: bool = False
    block_cache_chunk: int = 64 * 1024
    read_coalesce_gap: int | None = None
    scan_prefetch_bytes: int = 0
    group_commit: bool = False
    dfs_checksum_replicas: bool = False
    dfs_verify_reads: bool = True
    dfs_auto_rereplicate: bool = False
    dfs_degraded_allocation: bool = False
    client_retry_limit: int = 0
    client_retry_backoff: float = 0.05
    client_retry_backoff_max: float = 30.0
    gray_resilience: bool = False
    op_deadline: float | None = None
    hedge_reads: bool = False
    breaker_enabled: bool = False
    breaker_cooldown: float = 2.0
    breaker_min_samples: int = 3
    admission_queue_depth: int | None = None
    fast_recovery: bool = True
    recovery_workers: int = 4
    incremental_compaction: bool = True
    compaction_tier_fanout: int = 4
    live_migration: bool = False
    read_replicas: bool = False
    replicas_per_tablet: int = 1
    replica_max_staleness: float = 5.0
    tracing: bool = False
    monitoring: bool = False
    monitor_scrape_interval: float = 0.05
    slo_op_p99: dict = field(default_factory=dict)
    slo_burn_threshold: float = 10.0
    index_kind: str = "blink"
    max_versions: int | None = None
    disk: DiskModel = field(default_factory=DiskModel)
    network: NetworkModel = field(default_factory=NetworkModel)

    @property
    def index_budget_bytes(self) -> int:
        """Heap bytes available for in-memory indexes."""
        return int(self.heap_bytes * INDEX_HEAP_FRACTION)

    @property
    def cache_budget_bytes(self) -> int:
        """Heap bytes available for the read cache."""
        return int(self.heap_bytes * READ_CACHE_HEAP_FRACTION)

    @property
    def block_cache_budget_bytes(self) -> int:
        """Heap bytes available for the per-machine DFS block cache."""
        return int(self.heap_bytes * BLOCK_CACHE_HEAP_FRACTION)

    @classmethod
    def with_read_pipeline(cls, **overrides) -> "LogBaseConfig":
        """A config with the full log read pipeline enabled: DFS block
        cache, pointer-coalesced batch reads, and scan prefetch.

        The defaults of the plain constructor keep all three off so the
        seed benchmarks reproduce the paper's cost model unchanged; this
        preset is the production-leaning configuration the hot-path
        benchmarks (``bench_hotpath_read``) measure.
        """
        settings: dict = {
            "block_cache_enabled": True,
            "read_coalesce_gap": 64 * 1024,
            "scan_prefetch_bytes": 1 * MiB,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_fault_tolerance(cls, **overrides) -> "LogBaseConfig":
        """A config with the fault-tolerance layer enabled: replica
        checksums, so a read that fails its check fails over; heartbeat-driven
        background re-replication; and client retries over failover.

        The plain constructor keeps all of it off so the seed cost model
        and figures are reproduced byte-identically; this preset is what
        the chaos harness (``repro.chaos``) runs under.
        """
        settings: dict = {
            "dfs_checksum_replicas": True,
            "dfs_auto_rereplicate": True,
            "dfs_degraded_allocation": True,
            "client_retry_limit": 3,
        }
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def with_gray_resilience(cls, **overrides) -> "LogBaseConfig":
        """A config with the gray-failure resilience layer enabled on top
        of the fault-tolerance layer: per-operation deadlines, hedged DFS
        replica reads, latency circuit breakers, and tablet-server
        admission control.

        The plain constructor keeps all of it off so the seed cost model
        and figures are reproduced byte-identically; this preset is what
        the ``gray/`` chaos scenarios (``repro.chaos.gray``) run under.
        """
        return cls.with_fault_tolerance(**{
            "client_retry_limit": 4, "gray_resilience": True, "op_deadline": 1.0,
            "hedge_reads": True, "breaker_enabled": True, "admission_queue_depth": 64,
            **overrides,
        })

    @classmethod
    def with_live_migration(cls, **overrides) -> "LogBaseConfig":
        """A config with the live-migration subsystem enabled on top of
        the fault-tolerance layer: ownership leases checked on the op
        path and renewed by the heartbeat (the prepare/catch-up/fenced-flip
        mover itself runs under every config), hot-tablet splitting
        and the heat balancer.  Ops that land in a flip window get the
        retryable ``TabletMigratingError``, which the client honors by
        invalidating its location cache and backing off.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        elasticity sweep (``tests/core/test_elasticity.py``) and the
        ``migration/`` chaos scenarios run under.
        """
        return cls.with_fault_tolerance(
            **{"client_retry_limit": 4, "live_migration": True, **overrides}
        )

    @classmethod
    def with_read_replicas(cls, **overrides) -> "LogBaseConfig":
        """A config with log-shipping read replicas enabled on top of the
        live-migration stack (followers are fenced through the same
        epochs a migration uses, so ownership changes and replica
        tear-down share one mechanism): the master places followers on
        non-owner servers, each follower tails the owner's log segments
        from the replicated DFS into its own index, and the client
        spreads reads across followers with owner fallback on
        ``FollowerLaggingError``.

        The plain constructor keeps it off so the seed cost model and
        figures are reproduced byte-identically; this preset is what the
        replica sweep (``tests/core/test_follower.py``) and the ``replica/``
        chaos scenarios run under.
        """
        return cls.with_live_migration(**{"read_replicas": True, **overrides})

    @classmethod
    def production(cls, **overrides) -> "LogBaseConfig":
        """Every gate on at once: the gray-resilience stack plus everything
        below, the configuration a user would run.  Writes go through the
        commit coordinator here as under every config."""
        settings: dict = dict(
            segment_size=1 * MiB, block_cache_enabled=True,
            read_coalesce_gap=64 * 1024, scan_prefetch_bytes=1 * MiB,
            fast_recovery=True, incremental_compaction=True, live_migration=True,
            read_replicas=True, tracing=True, monitoring=True,
        )
        settings.update(overrides)
        return cls.with_gray_resilience(**settings)

    def gray_policy(self):
        """The :class:`~repro.sim.health.GrayPolicy` for this config, or
        None when the ``gray_resilience`` gate is off."""
        if not self.gray_resilience:
            return None
        from repro.sim.health import GrayPolicy

        return GrayPolicy(
            hedge_reads=self.hedge_reads,
            breaker_enabled=self.breaker_enabled,
            breaker_cooldown=self.breaker_cooldown,
            breaker_min_samples=self.breaker_min_samples,
        )

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.index_kind not in ("blink", "lsm"):
            raise ValueError(f"unknown index kind {self.index_kind!r}")
        if self.max_versions is not None and self.max_versions < 1:
            raise ValueError("max_versions must be >= 1 or None")
        if self.block_cache_chunk < 1:
            raise ValueError("block_cache_chunk must be >= 1")
        if self.read_coalesce_gap is not None and self.read_coalesce_gap < 0:
            raise ValueError("read_coalesce_gap must be >= 0 or None")
        if self.scan_prefetch_bytes < 0:
            raise ValueError("scan_prefetch_bytes must be >= 0")
        if self.client_retry_limit < 0:
            raise ValueError("client_retry_limit must be >= 0")
        if self.client_retry_backoff < 0:
            raise ValueError("client_retry_backoff must be >= 0")
        if self.client_retry_backoff_max < self.client_retry_backoff:
            raise ValueError(
                "client_retry_backoff_max must be >= client_retry_backoff"
            )
        if self.op_deadline is not None and self.op_deadline <= 0:
            raise ValueError("op_deadline must be > 0 or None")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be >= 1")
        if self.admission_queue_depth is not None and self.admission_queue_depth < 1:
            raise ValueError("admission_queue_depth must be >= 1 or None")
        for gate in ("incremental_compaction", "fast_recovery", "dfs_verify_reads"):
            if not getattr(self, gate):
                raise ValueError(f"{gate}=False is no longer supported: the gate is retired")
        if self.group_commit:
            raise ValueError(
                "group_commit=True is no longer supported: every write goes "
                "through the commit coordinator"
            )
        if self.recovery_workers < 1:
            raise ValueError("recovery_workers must be >= 1")
        if self.compaction_tier_fanout < 2:
            raise ValueError("compaction_tier_fanout must be >= 2")
        if self.read_replicas and not self.live_migration:
            raise ValueError(
                "read_replicas requires live_migration (followers are "
                "fenced through migration epochs)"
            )
        if self.replicas_per_tablet < 0:
            # 0 is legal under the gate: the replica sweep's owner-only arm
            # (tests/core/test_follower.py) places no followers.
            raise ValueError("replicas_per_tablet must be >= 0")
        if self.replica_max_staleness <= 0:
            raise ValueError("replica_max_staleness must be > 0")
        if self.monitor_scrape_interval < 0:
            raise ValueError("monitor_scrape_interval must be >= 0")
        for op_class, target in self.slo_op_p99.items():
            if not isinstance(op_class, str) or not op_class:
                raise ValueError("slo_op_p99 keys must be op-class names")
            if target <= 0:
                raise ValueError("slo_op_p99 targets must be > 0 seconds")
        if self.slo_burn_threshold <= 0:
            raise ValueError("slo_burn_threshold must be > 0")
