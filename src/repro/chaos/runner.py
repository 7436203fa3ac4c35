"""The chaos harness: a seeded workload under a fault schedule.

One run builds a fresh 4-node cluster with the fault-tolerance gates on
(:meth:`LogBaseConfig.with_fault_tolerance`), arms a named schedule from
:mod:`repro.chaos.schedules`, and drives a deterministic mix of
single-record writes, multi-record transactions, reads, checkpoints and
compactions while the schedule kills nodes, partitions the network and
revives machines.  A cluster heartbeat runs after every operation — the
failure-detection tick a real deployment runs continuously — so session
expiry, auto-failover and background re-replication happen *outside* the
victim's own call stack, as they would in production.

After the workload the harness heals partitions, restarts every dead
machine through checkpoint+redo recovery, and asks the
:class:`~repro.chaos.oracle.DurabilityOracle` to read back every key the
workload ever touched.  The run passes iff the oracle reports no
violation of the durability contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.oracle import DurabilityOracle, WriteStatus
from repro.chaos.schedules import SCHEDULES
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import (
    LogBaseError,
    ServerDownError,
    TransactionAborted,
)
from repro.obs.hist import Histogram
from repro.sim.failure import FaultPlan, fault_plan
from repro.sim.metrics import (
    ADMISSION_SHED,
    BREAKER_TRIPS,
    CLIENT_RETRIES,
    DEADLINES_EXCEEDED,
    DFS_HEDGE_FIRED,
    DFS_HEDGE_LOSSES,
    DFS_HEDGE_WINS,
    HIST_CHAOS_READ_LATENCY,
)

TABLE = "chaos"
GROUP = "g"
KEY_WIDTH = 12
KEY_DOMAIN = 2_000_000_000

SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))

# Servers the chaos table is placed on; the other nodes serve as pure
# replica holders and failover adopters (see repro.chaos.schedules).
HOME_SERVERS = ["ts-node-0", "ts-node-1"]


@dataclass
class ChaosReport:
    """Outcome of one chaos run (shaped like a benchmark result)."""

    scenario: str
    seed: int
    ops: int
    acked: int = 0
    aborted: int = 0
    indeterminate: int = 0
    faults_fired: int = 0
    client_retries: int = 0
    rescued_ops: int = 0
    expired_servers: list[str] = field(default_factory=list)
    restarted_servers: list[str] = field(default_factory=list)
    rereplicated: int = 0
    under_replicated_after: int = 0
    keys_checked: int = 0
    violations: list[str] = field(default_factory=list)
    events_run: int = 0
    reads: int = 0
    read_p50: float = 0.0
    read_p99: float = 0.0
    read_max: float = 0.0
    hedges_fired: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0
    breaker_trips: int = 0
    admission_sheds: int = 0
    deadline_exceeded: int = 0
    # Monitoring-plane artifacts (config.monitoring gate; empty otherwise):
    # the structured alert log, the flight recorder's post-mortem bundles,
    # and the simulated times of every observed fault.
    alerts: list = field(default_factory=list)
    postmortems: list = field(default_factory=list)
    fault_times: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether the run upheld the durability contract."""
        return not self.violations

    def fired_alert_names(self) -> set[str]:
        """Alert names that fired at least once during the run."""
        return {a["alert"] for a in self.alerts if a["state"] == "firing"}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ops": self.ops,
            "acked": self.acked,
            "aborted": self.aborted,
            "indeterminate": self.indeterminate,
            "faults_fired": self.faults_fired,
            "client_retries": self.client_retries,
            "rescued_ops": self.rescued_ops,
            "expired_servers": self.expired_servers,
            "restarted_servers": self.restarted_servers,
            "rereplicated": self.rereplicated,
            "under_replicated_after": self.under_replicated_after,
            "keys_checked": self.keys_checked,
            "violations": self.violations,
            "passed": self.passed,
            "events_run": self.events_run,
            "reads": self.reads,
            "read_p50": self.read_p50,
            "read_p99": self.read_p99,
            "read_max": self.read_max,
            "hedges_fired": self.hedges_fired,
            "hedge_wins": self.hedge_wins,
            "hedge_losses": self.hedge_losses,
            "breaker_trips": self.breaker_trips,
            "admission_sheds": self.admission_sheds,
            "deadline_exceeded": self.deadline_exceeded,
            "alerts": self.alerts,
            "fault_times": self.fault_times,
            # Bundles stay on the dataclass (they embed whole series
            # tails); the dict form carries a one-line summary each.
            "postmortems": [
                {"reason": pm["reason"], "time": pm["time"]}
                for pm in self.postmortems
            ],
        }


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 when empty).

    Reference implementation: report percentiles now come from the
    :class:`~repro.obs.hist.Histogram`; the control-arm identity test
    asserts the histogram reproduces this list-based computation.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class _Workload:
    """Seeded operation stream bound to one cluster and oracle."""

    def __init__(self, db: LogBase, seed: int) -> None:
        self.db = db
        self.rng = random.Random(seed)
        self.oracle = DurabilityOracle()
        self.client = db.client(db.cluster.machines[2])
        self.rescued_ops = 0
        self.expired: list[str] = []
        self.rereplicated = 0
        # Read-latency tail without storing samples: gray-failure
        # mitigation is judged on this histogram's p50/p99/max.
        self.read_latency = Histogram(HIST_CHAOS_READ_LATENCY)
        self._used_keys: set[bytes] = set()
        self._overwrite_pool: list[bytes] = []
        # Key ranges per tablet, so transaction keys can be co-located on
        # one tablet (entity-group style single-server commits, §3.2).
        self._ranges = []
        for tablet in db.cluster.master.tablets(TABLE):
            start = int(tablet.key_range.start or b"0")
            end = (
                int(tablet.key_range.end)
                if tablet.key_range.end is not None
                else KEY_DOMAIN
            )
            self._ranges.append((start, end))

    # -- key generation ----------------------------------------------------

    def _fresh_key(self, tablet: int) -> bytes:
        start, end = self._ranges[tablet]
        while True:
            key = str(self.rng.randrange(start, end)).zfill(KEY_WIDTH).encode()
            if key not in self._used_keys:
                self._used_keys.add(key)
                return key

    def _write_key(self) -> bytes:
        if self._overwrite_pool and self.rng.random() < 0.6:
            return self.rng.choice(self._overwrite_pool)
        key = self._fresh_key(self.rng.randrange(len(self._ranges)))
        self._overwrite_pool.append(key)
        return key

    # -- operations --------------------------------------------------------

    def _rescue(self):
        """Failure-detector tick between an op's failure and its retry:
        expire dead sessions so auto-failover re-homes the tablets."""
        tick = self.db.cluster.heartbeat()
        self.expired.extend(tick["expired"])
        self.rereplicated += tick["rereplicated"]
        self.client.invalidate_cache()
        self.rescued_ops += 1

    def put(self) -> None:
        key = self._write_key()
        seq, value = self.oracle.next_value()
        try:
            self.client.put_raw(TABLE, key, GROUP, value)
        except ServerDownError:
            self._rescue()
            try:
                self.client.put_raw(TABLE, key, GROUP, value)
            except LogBaseError:
                self.oracle.record(key, seq, WriteStatus.INDETERMINATE)
                return
        except LogBaseError:
            self.oracle.record(key, seq, WriteStatus.INDETERMINATE)
            return
        self.oracle.record(key, seq, WriteStatus.ACKED)

    def txn(self) -> None:
        # Fresh dedicated keys on one tablet: single-server commit, and
        # the oracle can check all-or-nothing visibility post hoc.
        tablet = self.rng.randrange(len(self._ranges))
        members: dict[bytes, int] = {}
        txn = self.db.begin()
        try:
            for _ in range(2):
                key = self._fresh_key(tablet)
                seq, value = self.oracle.next_value()
                members[key] = seq
                txn.write_raw(TABLE, key, GROUP, value)
        except ServerDownError:
            # Staging never touches the log: nothing durable happened,
            # so this is a clean abort however partial the staging was.
            txn.abort()
            self.oracle.record_txn(members, WriteStatus.ABORTED)
            self._rescue()
            return
        try:
            txn.commit()
        except TransactionAborted as exc:
            # A clean abort (validation/lock conflict) happens before the
            # write phase: nothing may surface.  An abort *caused by* an
            # infrastructure error may have died anywhere around the
            # commit record: outcome unknown, but it must be atomic.
            clean = exc.__cause__ is None
            status = WriteStatus.ABORTED if clean else WriteStatus.INDETERMINATE
            self.oracle.record_txn(members, status)
            if not clean:
                self._rescue()
            return
        except LogBaseError:
            self.oracle.record_txn(members, WriteStatus.INDETERMINATE)
            self._rescue()
            return
        self.oracle.record_txn(members, WriteStatus.ACKED)

    def read(self) -> str | None:
        if not self._overwrite_pool:
            return None
        key = self.rng.choice(self._overwrite_pool)
        # Track the latency of every read attempt, failed ones included —
        # gray-failure mitigation is judged on the tail of this series.
        self.client.last_op_seconds = 0.0
        try:
            try:
                value = self.client.get_raw(TABLE, key, GROUP)
            except ServerDownError:
                self._rescue()
                try:
                    value = self.client.get_raw(TABLE, key, GROUP)
                except LogBaseError:
                    return None  # still failing over; final verify covers it
            except LogBaseError:
                return None
            return self.oracle.check_read(key, value)
        finally:
            self.read_latency.record(self.client.last_op_seconds)

    def checkpoint_all(self) -> None:
        for server in self.db.cluster.servers:
            if not server.serving:
                continue
            try:
                self.db.cluster.checkpoints[server.name].write_checkpoint()
            except LogBaseError:
                self._rescue()

    def compact_all(self) -> None:
        for server in self.db.cluster.servers:
            if not server.serving:
                continue
            try:
                server.compact()
            except LogBaseError:
                self._rescue()


def run_chaos(
    scenario: str,
    seed: int = 1,
    ops: int = 60,
    *,
    n_nodes: int = 4,
    config: LogBaseConfig | None = None,
    schedules: dict[str, "object"] | None = None,
) -> ChaosReport:
    """Execute one chaos scenario and verify the durability contract.

    Args:
        scenario: key into ``schedules`` (default
            :data:`repro.chaos.schedules.SCHEDULES`).
        seed: workload RNG seed (the fault schedule itself is fixed; the
            seed varies which operations the faults land on).
        ops: workload operations before recovery + verification.
        schedules: alternative schedule registry (e.g.
            :data:`repro.chaos.gray.GRAY_SCHEDULES`).

    Raises:
        KeyError: unknown scenario name.
        ValueError: cluster too small for the standard chaos topology.
    """
    registry = schedules if schedules is not None else SCHEDULES
    schedule = registry[scenario]
    if n_nodes < 4:
        raise ValueError("chaos topology needs >= 4 nodes")
    if config is None:
        config = LogBaseConfig.with_fault_tolerance(segment_size=64 * 1024)
    db = LogBase(n_nodes=n_nodes, config=config)
    db.cluster.master.enable_auto_failover()
    db.create_table(SCHEMA, tablets_per_server=2, only_servers=list(HOME_SERVERS))

    report = ChaosReport(scenario=scenario, seed=seed, ops=ops)
    plan = FaultPlan()
    events = schedule.install(db, plan)
    workload = _Workload(db, seed)

    checkpoint_at = ops // 3
    compact_at = (2 * ops) // 3
    monitor = db.cluster.monitor
    with fault_plan(plan):
        for i in range(ops):
            event = events.get(i)
            if event is not None:
                # Schedule events the injector can't see (overload
                # bursts, link slows, mid-limp scans) still stamp a
                # fault time for detection-latency accounting.
                if monitor is not None:
                    monitor.note_fault("schedule-event", {"index": i})
                event()
                report.events_run += 1
            if i == checkpoint_at:
                workload.checkpoint_all()
            elif i == compact_at:
                workload.compact_all()
            else:
                roll = workload.rng.random()
                if roll < 0.55:
                    workload.put()
                elif roll < 0.75:
                    workload.txn()
                else:
                    problem = workload.read()
                    if problem is not None:
                        report.violations.append(f"mid-run: {problem}")
            tick = db.cluster.heartbeat()
            for name in tick["expired"]:
                if name not in report.expired_servers:
                    report.expired_servers.append(name)
            report.rereplicated += tick["rereplicated"]

    # -- recovery: heal the world, restart the dead, let repair finish ----
    config.network.partitions.heal()
    for name in list(db.cluster.failures.killed):
        db.cluster.restart_server(name)
        report.restarted_servers.append(name)
    for _ in range(2):
        tick = db.cluster.heartbeat()
        report.rereplicated += tick["rereplicated"]

    # -- verification -----------------------------------------------------
    verifier = db.client(db.cluster.machines[2])
    report.violations.extend(
        workload.oracle.verify(
            lambda key: verifier.get_raw(TABLE, key, GROUP)
        )
    )
    counts = workload.oracle.counts()
    report.acked = counts["acked"]
    report.aborted = counts["aborted"]
    report.indeterminate = counts["indeterminate"]
    report.faults_fired = len(plan.fired)
    report.rescued_ops = workload.rescued_ops
    # Expiries/repairs observed by rescue ticks rather than the op loop.
    for name in workload.expired:
        if name not in report.expired_servers:
            report.expired_servers.append(name)
    report.rereplicated += workload.rereplicated
    totals = db.cluster.total_counters()
    report.client_retries = int(totals.get(CLIENT_RETRIES, 0))
    report.hedges_fired = int(totals.get(DFS_HEDGE_FIRED, 0))
    report.hedge_wins = int(totals.get(DFS_HEDGE_WINS, 0))
    report.hedge_losses = int(totals.get(DFS_HEDGE_LOSSES, 0))
    report.breaker_trips = int(totals.get(BREAKER_TRIPS, 0))
    report.admission_sheds = int(totals.get(ADMISSION_SHED, 0))
    report.deadline_exceeded = int(totals.get(DEADLINES_EXCEEDED, 0))
    hist = workload.read_latency
    report.reads = int(hist.count)
    report.read_p50 = hist.percentile(0.50)
    report.read_p99 = hist.percentile(0.99)
    report.read_max = hist.max if hist.count else 0.0
    report.under_replicated_after = len(
        db.cluster.dfs.namenode.under_replicated
    )
    report.keys_checked = len(workload.oracle.keys)
    if monitor is not None:
        report.alerts = monitor.alert_log()
        report.postmortems = monitor.postmortem_dicts()
        report.fault_times = monitor.fault_times()
        monitor.close()
    return report
