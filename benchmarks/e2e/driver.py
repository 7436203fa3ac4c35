"""Set-up, the timed closed loop, the correctness model and the metrics.

One ``Bench`` is one freshly built cluster with its data loaded, its
clients, its pre-generated ops and a driver-side model of the last acked
value per key.  ``execute`` is the only loop that issues client ops; the
warm-up, the timed phase and the re-issue of failed ops all go through it.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.bench.adapters import GROUP, TABLE, LogBaseAdapter
from repro.core.client import Client
from repro.core.database import LogBase
from repro.errors import LogBaseError, ServerOverloadedError

from metrics import latency_metrics
from profiles import PROFILES, Pump, build_config
from workloads import (
    OP_CLASSES,
    READ,
    SCAN,
    SMOKE_DIVISOR,
    TXN,
    UPDATE,
    WARMUP_FRACTION,
    Workload,
    generate_ops,
    load_keys,
    load_value,
)

RESTART_DELAY_S = 0.5  # simulated; one ownership-lease period
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.00125  # the probe loop on this sandbox at its faster speed
_PROBE_TABLE = tuple((i * 2654435761) & 0xFFFFFFFF for i in range(256))
_PROBE_BYTES = bytes(range(256)) * 64
LEASE_LAPSE = "lease"  # marks the liveness failure: "... ownership lease ... lapsed"


def _probe_kernel() -> None:
    """A table-driven byte loop, the kind of pure-Python work that takes
    most of the system's host time today."""
    x = 0
    for byte in _PROBE_BYTES:
        x = _PROBE_TABLE[(x ^ byte) & 0xFF] ^ (x >> 8)


class SpeedProbe:
    """Samples how fast this machine runs Python while the timed phase
    runs, so that host throughput can also be stated at a fixed speed.

    The sandbox's cores switch between two speeds about 28 % apart and
    stay in one for seconds at a time, so identical 15 s runs differ by
    up to 30 % in ``host_ops_per_s``.  Every ``PROBE_EVERY_S`` of host
    time, between two ops, the probe times a fixed loop that touches no
    code under ``src/`` (a change to the system cannot speed it up).
    ``reference_share`` is the share of the phase's host time a machine
    that always ran the loop in ``PROBE_REFERENCE_S`` would have needed;
    the probe's own time is kept out of the phase's host seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.seconds = 0.0
        self._due = time.perf_counter() + PROBE_EVERY_S

    def __call__(self) -> None:
        began = time.perf_counter()
        if began >= self._due:
            _probe_kernel()
            done = time.perf_counter()
            self.samples.append(done - began)
            self.seconds += done - began
            self._due = done + PROBE_EVERY_S

    def reference_share(self) -> float:
        if not self.samples:
            return 1.0
        return sum(PROBE_REFERENCE_S / sample for sample in self.samples) / len(self.samples)


@dataclass
class Bench:
    workload: Workload
    db: LogBase
    clients: list[Client]
    pump: Pump | None
    keys: list[bytes]
    model: dict[bytes, bytes]
    ops: list[tuple[str, bytes, object]]
    # Values of writes that raised: the write may or may not have landed,
    # so the read-back accepts them alongside the last acked value.
    maybe: dict[bytes, list[bytes]] = field(default_factory=dict)
    tracer: object = None  # a layers.LayerTracer during the traced run
    probe: SpeedProbe | None = None  # set for the timed phase

    @property
    def cluster(self):
        return self.db.cluster


@dataclass
class Stats:
    """What one pass of ``execute`` observed."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {kind: [] for kind in OP_CLASSES}
    )
    succeeded: int = 0
    user_bytes: int = 0
    bad_scans: int = 0
    errors: Counter = field(default_factory=Counter)  # (op class, exception class)
    lease_lapses: int = 0
    failed_ops: list[tuple[str, bytes, object]] = field(default_factory=list)
    recovery: object = None
    migration: object = None


def set_up(workload: Workload, seed: int, seconds: float, *, smoke: bool = False) -> Bench:
    """Build the cluster, create the table, bulk-load the keys in shuffled
    order, generate the ops and run the untimed 5 % warm-up."""
    divisor = SMOKE_DIVISOR if smoke else 1
    db = LogBase(workload.nodes, build_config(PROFILES[workload.profile]))
    cluster = db.cluster
    pump = Pump(db) if workload.pumped else None
    adapter = LogBaseAdapter(cluster)  # creates the YCSB table
    if pump is not None:
        pump()  # first heartbeat grants the ownership leases
    keys = load_keys(workload, workload.records // divisor, seed)
    model = {key: load_value(i) for i, key in enumerate(keys)}
    order = list(keys)
    random.Random(seed).shuffle(order)
    for i, key in enumerate(order):
        adapter.put_buffered(i % workload.nodes, key, model[key])
        if pump is not None:
            pump()
    for node in range(workload.nodes):
        adapter.flush_buffers(node)
    n_ops = workload.n_ops(seconds / divisor)
    ops = generate_ops(workload, keys, n_ops, seed)
    warmup = generate_ops(
        workload, keys, int(n_ops * WARMUP_FRACTION), seed + 1, first_seq=n_ops
    )
    bench = Bench(
        workload=workload,
        db=db,
        clients=[db.client(machine) for machine in cluster.machines],
        pump=pump,
        keys=keys,
        model=model,
        ops=ops,
    )
    execute(bench, warmup, Stats())
    return bench


def _total_clock(machines) -> float:
    return sum(machine.clock.now for machine in machines)


def _issue(bench: Bench, stats: Stats, client: Client, op) -> None:
    """One client op; on success its simulated latency and (for a write)
    the model are recorded."""
    kind, key, arg = op
    if kind == UPDATE:
        client.put_raw(TABLE, key, GROUP, arg)
        stats.latencies[UPDATE].append(client.last_op_seconds)
    elif kind == READ:
        client.get_raw(TABLE, key, GROUP)
        stats.latencies[READ].append(client.last_op_seconds)
        return
    elif kind == SCAN:
        end_key, lo, hi = arg
        machines = bench.cluster.machines
        before = _total_clock(machines)
        rows = client.scan_raw(TABLE, GROUP, key, end_key)
        stats.latencies[SCAN].append(_total_clock(machines) - before)
        got = [row_key for row_key, _ in rows]
        if bench.workload.profile == "paper":
            stats.bad_scans += got != bench.keys[lo:hi]
        else:  # followers may lag, so only order and range are promised
            stats.bad_scans += got != sorted(got) or bool(
                got and (got[0] < key or got[-1] >= end_key)
            )
        return
    else:  # read-modify-write transaction
        machines = bench.cluster.machines
        before = _total_clock(machines)
        txn = bench.db.begin()
        txn.read_raw(TABLE, key, GROUP)
        txn.write_raw(TABLE, key, GROUP, arg)
        txn.commit()
        stats.latencies[kind].append(_total_clock(machines) - before)
    bench.model[key] = arg
    stats.user_bytes += len(key) + len(arg)


def execute(bench: Bench, ops, stats: Stats, *, faults: "Faults | None" = None) -> None:
    """Issue ``ops`` round-robin over the per-node clients, pumping after
    each.  A shed op (``ServerOverloadedError``) is retried once after the
    client waits out the server's retry-after hint, as ``Client`` itself
    does for gets and puts.  An op that still raises is recorded in
    ``stats.failed_ops``."""
    clients, n_clients = bench.clients, len(bench.clients)
    machines, pump, tracer = bench.cluster.machines, bench.pump, bench.tracer
    probe = bench.probe

    def note(op, exc) -> None:
        stats.errors[(op[0], type(exc).__name__)] += 1
        stats.lease_lapses += LEASE_LAPSE in str(exc)

    for i, op in enumerate(ops):
        if faults is not None:
            faults.before_op(i, stats)
        if tracer is not None:
            tracer.op_id = i
        client = clients[i % n_clients]
        try:
            try:
                _issue(bench, stats, client, op)
            except ServerOverloadedError as exc:
                note(op, exc)
                machines[i % n_clients].clock.advance(exc.retry_after)
                _issue(bench, stats, client, op)
            stats.succeeded += 1
        except LogBaseError as exc:
            note(op, exc)
            stats.failed_ops.append(op)
            if op[0] in (UPDATE, TXN):
                bench.maybe.setdefault(op[1], []).append(op[2])
        if pump is not None:
            pump()
        if faults is not None:
            faults.after_op(stats)
        if probe is not None:
            probe()


def reissue(bench: Bench, stats: Stats) -> None:
    """A closed-loop client does not give up: ops that raised are issued
    once more, in order.  ``stats.failed_ops`` keeps only those that
    raised again."""
    pending, stats.failed_ops = stats.failed_ops, []
    execute(bench, pending, stats)


class Faults:
    """failover_production's schedule: kill one tablet server at op N/3,
    restart it (parallel redo) once ``RESTART_DELAY_S`` of simulated time
    has passed, live-migrate one tablet at op 2N/3.

    The restart is due by simulated time, not by op count: how many ops
    happen to hit the dead server in a fixed op window varies with the
    seed by tens of percent, and each burns most of a simulated second in
    client backoff, so an op-count window makes every metric of this
    workload unsteady across seeds."""

    def __init__(self, bench: Bench, n_ops: int) -> None:
        self.bench = bench
        self.victim = bench.cluster.servers[1].name
        self.kill_at = n_ops // 3
        self.migrate_at = (2 * n_ops) // 3
        self.restart_due: float | None = None

    def before_op(self, i: int, stats: Stats) -> None:
        cluster = self.bench.cluster
        if i == self.kill_at:
            cluster.kill_server(self.victim)
            self.restart_due = cluster.elapsed_makespan() + RESTART_DELAY_S
        elif i == self.migrate_at:
            self.restart(stats)  # no-op unless no client noticed the outage yet
            source, target = cluster.servers[2].name, cluster.servers[3].name
            assignments = cluster.master.catalog.assignments
            tablet_id = min(t for t, owner in assignments.items() if owner == source)
            stats.migration = cluster.migrate_tablet(tablet_id, target)
            self.bench.pump()

    def after_op(self, stats: Stats) -> None:
        if (
            self.restart_due is not None
            and self.bench.cluster.elapsed_makespan() >= self.restart_due
        ):
            self.restart(stats)

    def restart(self, stats: Stats) -> None:
        if self.restart_due is None:
            return
        self.restart_due = None
        stats.recovery = self.bench.cluster.restart_server(self.victim)
        self.bench.pump()
        reissue(self.bench, stats)


@dataclass
class PhaseResult:
    stats: Stats
    host_seconds: float  # the speed probe's own time excluded
    reference_seconds: float  # host_seconds at the probe's reference speed
    cpu_seconds: float
    sim_seconds: float
    attempted: int
    first_failures: int
    counters: dict[str, float]  # cluster.total_counters() plus _gauges(), as deltas
    idle_tick_ms: list[float]


def _gauges(bench: Bench) -> dict[str, float]:
    """Cumulative counts kept outside ``cluster.total_counters()``."""
    cluster, txns = bench.cluster, bench.db.txn_manager
    caches = [s.read_cache for s in cluster.servers if s.read_cache is not None]
    return {
        "e2e.read_cache.hits": sum(cache.hits for cache in caches),
        "e2e.read_cache.misses": sum(cache.misses for cache in caches),
        "e2e.txn.commits": txns.commits,
        "e2e.txn.aborts": txns.aborts,
        "e2e.trace.spans": cluster.tracer.spans_closed if cluster.tracer else 0,
        "e2e.monitor.scrapes": cluster.monitor.scrapes if cluster.monitor else 0,
    }


def timed_phase(bench: Bench, *, limit: int | None = None) -> PhaseResult:
    """The measured closed loop over the first ``limit`` ops (all by
    default), then the re-issue of failed ops; with ``bench.tracer`` set
    also the workload's trailing idle ticks, after the tracer is sealed."""
    workload, cluster = bench.workload, bench.cluster
    ops = bench.ops if limit is None else bench.ops[:limit]
    faults = Faults(bench, len(ops)) if workload.faults else None
    stats = Stats()
    before = {**cluster.total_counters(), **_gauges(bench)}
    sim_before = cluster.elapsed_makespan()
    probe = bench.probe = SpeedProbe()
    cpu_before = time.process_time()
    host_before = time.perf_counter()
    execute(bench, ops, stats, faults=faults)
    first_failures = sum(stats.errors.values())
    reissue(bench, stats)
    host_seconds = time.perf_counter() - host_before - probe.seconds
    cpu_seconds = time.process_time() - cpu_before - probe.seconds
    bench.probe = None
    sim_seconds = cluster.elapsed_makespan() - sim_before
    after = {**cluster.total_counters(), **_gauges(bench)}
    idle_tick_ms = []
    if bench.tracer is not None:
        bench.tracer.seal()
        for _ in range(workload.idle_ticks):
            began = time.perf_counter()
            bench.pump.tick()
            idle_tick_ms.append(1000.0 * (time.perf_counter() - began))
    return PhaseResult(
        stats=stats,
        host_seconds=host_seconds,
        reference_seconds=host_seconds * probe.reference_share(),
        cpu_seconds=cpu_seconds,
        sim_seconds=sim_seconds,
        attempted=len(ops),
        first_failures=first_failures,
        counters={
            name: value - before.get(name, 0.0)
            for name, value in sorted(after.items())
            if value != before.get(name, 0.0)
        },
        idle_tick_ms=idle_tick_ms,
    )


def read_back(bench: Bench) -> int:
    """Read every key through an owner-only client and compare with the
    model; returns the number of lost acked writes."""
    cluster, config = bench.cluster, bench.cluster.config
    reader = Client(
        cluster.master,
        cluster.machines[0],
        retry_limit=config.client_retry_limit,
        retry_backoff=config.client_retry_backoff,
        retry_backoff_max=config.client_retry_backoff_max,
    )
    lost = 0
    for key, expected in bench.model.items():
        try:
            value = reader.get_raw(TABLE, key, GROUP)
        except LogBaseError:
            value = None  # a key that cannot be read back is not verified
        if value != expected and value not in bench.maybe.get(key, ()):
            lost += 1
        if bench.pump is not None:
            bench.pump()
    return lost


def end_to_end_metrics(phase: PhaseResult, setup_s: float) -> dict[str, float]:
    """Every end-to-end metric that applies to this run, by name."""
    stats = phase.stats
    out = {
        "setup_s": setup_s,
        "host_ops_per_s": stats.succeeded / phase.host_seconds,
        "host_ops_per_ref_s": stats.succeeded / phase.reference_seconds,
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ops_per_s": stats.succeeded / phase.sim_seconds,
        "failed_op_ratio": phase.first_failures / phase.attempted,
    }
    for kind in OP_CLASSES:
        out.update(latency_metrics(kind, stats.latencies[kind]))
    if stats.user_bytes:
        out["sim_write_amp"] = phase.counters.get("disk.bytes_written", 0.0) / stats.user_bytes
    if stats.recovery is not None:
        out["sim_recovery_s"] = stats.recovery.seconds
    if stats.migration is not None:
        out["sim_migration_flip_ms"] = 1000.0 * stats.migration.flip_seconds
    return out
