"""Recovery chaos: crashes *during* recovery itself must stay safe.

Fast recovery adds three windows the older schedules never exercised:
the parallel redo pass of a restarting server, the splitter writing a
dead peer's per-tablet split files, and an adopter replaying a split
file into its own log.  Each scenario here arms a kill rule at the
matching crash point (``CP_RECOVERY_MID``, ``CP_SPLIT_PERSIST``,
``CP_ADOPT_MID``), lets the first attempt die mid-flight, retries the
interrupted procedure the way an operator (or the watchdog) would, and
verifies every previously-acked write against the
:class:`~repro.chaos.oracle.DurabilityOracle`:

- **crash-during-recovery** — the restarting server dies in the middle
  of its parallel redo; a second restart must converge (redo is
  restartable: it only rebuilds in-memory indexes).
- **crash-during-split** — the splitter dies with a split file still on
  its temp name and no fence for the new epoch; the retried failover
  re-splits under a fresh fence before anyone adopts (adopters reject
  the stale epoch).
- **crash-during-adoption** — an adopter dies mid-replay after durably
  re-homing part of a tablet; ownership never flipped, so the retried
  failover re-adopts and the (key, timestamp) dedupe keeps the replay
  from double-appending what the first attempt already wrote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.oracle import DurabilityOracle, WriteStatus
from repro.chaos.runner import GROUP, KEY_DOMAIN, KEY_WIDTH, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.errors import LogBaseError, ServerDownError
from repro.sim.failure import (
    CP_ADOPT_MID,
    CP_RECOVERY_MID,
    CP_SPLIT_PERSIST,
    FaultPlan,
    fault_plan,
    kill_action,
)
from repro.sim.metrics import RECOVERY_ADOPT_SKIPPED

VICTIM = "ts-node-0"
HELPER = "ts-node-1"  # first healthy server: splitter and first adopter


@dataclass
class RecoveryChaosReport:
    """Outcome of one crash-during-recovery chaos run."""

    scenario: str
    seed: int
    ops: int
    acked: int = 0
    faults_fired: int = 0
    first_attempt_failed: bool = False
    restarted_servers: list[str] = field(default_factory=list)
    adopt_skipped: int = 0
    fence_epoch: int = 0
    keys_checked: int = 0
    violations: list[str] = field(default_factory=list)
    # Monitoring-plane artifacts (monitoring=True runs; empty otherwise).
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
            "faults_fired": self.faults_fired,
            "first_attempt_failed": self.first_attempt_failed,
            "restarted_servers": self.restarted_servers,
            "adopt_skipped": self.adopt_skipped,
            "fence_epoch": self.fence_epoch,
            "keys_checked": self.keys_checked,
            "violations": self.violations,
            "passed": self.passed,
            "alerts": self.alerts,
            "fault_times": self.fault_times,
            "postmortems": [
                {"reason": pm["reason"], "time": pm["time"]}
                for pm in self.postmortems
            ],
        }


def _seeded_cluster(
    seed: int, ops: int, n_nodes: int, *, monitoring: bool = False
) -> tuple[LogBase, DurabilityOracle, list[bytes]]:
    """A cluster with every tablet on the victim, ``ops`` acked writes
    (checkpoint at the halfway mark so both checkpoint reload and tail
    redo run), and a heat profile the heartbeat has already snapshotted."""
    config = LogBaseConfig.with_fault_tolerance(
        segment_size=64 * 1024,
        monitoring=monitoring,
        monitor_scrape_interval=0.0,  # chaos detection: scrape every beat
    )
    db = LogBase(n_nodes=n_nodes, config=config)
    db.create_table(SCHEMA, tablets_per_server=2, only_servers=[VICTIM])
    oracle = DurabilityOracle()
    rng = random.Random(seed)
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in rng.sample(range(KEY_DOMAIN), ops)
    ]
    client = db.client(db.cluster.machines[-1])
    for i, key in enumerate(keys):
        seq, value = oracle.next_value()
        client.put_raw(TABLE, key, GROUP, value)
        oracle.record(key, seq, WriteStatus.ACKED)
        if i == ops // 2:
            db.cluster.checkpoints[VICTIM].write_checkpoint()
    for _ in range(5):  # make one tablet hot for the bring-up ordering
        client.get_raw(TABLE, keys[0], GROUP)
    db.cluster.heartbeat()
    return db, oracle, keys


def _verify(db: LogBase, oracle: DurabilityOracle, report: RecoveryChaosReport) -> None:
    for _ in range(2):
        db.cluster.heartbeat()
    verifier = db.client(db.cluster.machines[-1])
    report.violations.extend(
        oracle.verify(lambda key: verifier.get_raw(TABLE, key, GROUP))
    )
    report.acked = oracle.counts()["acked"]
    report.keys_checked = len(oracle.keys)


def _crash_during_recovery(
    db: LogBase, oracle: DurabilityOracle, report: RecoveryChaosReport
) -> None:
    """Kill the victim again in the middle of its own parallel redo."""
    db.cluster.kill_node(VICTIM)
    if db.cluster.monitor is not None:
        # Detection tick *before* the operator restarts: the monitoring
        # plane must witness the dead victim, not the recovered cluster.
        db.cluster.heartbeat()
    plan = FaultPlan()
    plan.add(
        CP_RECOVERY_MID,
        kill_action(
            db.cluster.failures, VICTIM, ServerDownError(f"{VICTIM} died mid-redo")
        ),
        hits=2,
        server=VICTIM,
    )
    with fault_plan(plan):
        try:
            db.cluster.restart_server(VICTIM)
        except LogBaseError:
            report.first_attempt_failed = True
        # Second restart: redo only touched in-memory indexes, so a clean
        # re-run from the same checkpoint converges.
        db.cluster.restart_server(VICTIM)
        report.restarted_servers.append(VICTIM)
    report.faults_fired = len(plan.fired)


def _crash_during_split(
    db: LogBase, oracle: DurabilityOracle, report: RecoveryChaosReport
) -> None:
    """Kill the splitter with a split file still on its temp name."""
    db.cluster.kill_node(VICTIM)
    db.cluster.heartbeat()  # expire the victim's session
    plan = FaultPlan()
    plan.add(
        CP_SPLIT_PERSIST,
        kill_action(
            db.cluster.failures, HELPER, ServerDownError(f"{HELPER} died mid-split")
        ),
        server=VICTIM,
    )
    master = db.cluster.master
    with fault_plan(plan):
        try:
            master.handle_permanent_failure(VICTIM)
        except LogBaseError:
            report.first_attempt_failed = True
        db.cluster.restart_server(HELPER)
        report.restarted_servers.append(HELPER)
        db.cluster.heartbeat()
        # Ownership never flipped, so the tablets are still orphaned: the
        # retry re-splits under a fresh fence epoch and adopts cleanly.
        master.handle_permanent_failure(VICTIM)
    report.faults_fired = len(plan.fired)
    report.fence_epoch = master.catalog.fence_epochs.get(VICTIM, 0)


def _crash_during_adoption(
    db: LogBase, oracle: DurabilityOracle, report: RecoveryChaosReport
) -> None:
    """Kill the first adopter after it durably re-homed part of a tablet."""
    db.cluster.kill_node(VICTIM)
    db.cluster.heartbeat()
    plan = FaultPlan()
    plan.add(
        CP_ADOPT_MID,
        kill_action(
            db.cluster.failures, HELPER, ServerDownError(f"{HELPER} died mid-adoption")
        ),
        hits=3,  # let a couple of records reach the adopter's log first
        server=HELPER,
    )
    master = db.cluster.master
    with fault_plan(plan):
        try:
            master.handle_permanent_failure(VICTIM)
        except LogBaseError:
            report.first_attempt_failed = True
        # The adopter's restart redoes its own log — including whatever
        # the crashed adoption already appended.
        db.cluster.restart_server(HELPER)
        report.restarted_servers.append(HELPER)
        db.cluster.heartbeat()
        master.handle_permanent_failure(VICTIM)
    report.faults_fired = len(plan.fired)
    report.fence_epoch = master.catalog.fence_epochs.get(VICTIM, 0)
    report.adopt_skipped = int(
        db.cluster.total_counters().get(RECOVERY_ADOPT_SKIPPED, 0)
    )


RECOVERY_SCENARIOS = {
    "crash-during-recovery": _crash_during_recovery,
    "crash-during-split": _crash_during_split,
    "crash-during-adoption": _crash_during_adoption,
}


def run_recovery_chaos(
    scenario: str,
    *,
    seed: int = 1,
    ops: int = 40,
    n_nodes: int = 4,
    monitoring: bool = False,
) -> RecoveryChaosReport:
    """Run one seeded crash-during-recovery schedule; returns the verified
    report.

    With ``monitoring`` the cluster carries the monitoring plane and the
    report gains the alert log, post-mortem bundles, and fault times.

    Raises:
        KeyError: for an unknown scenario name.
        ValueError: if the cluster is too small for the topology.
    """
    runner = RECOVERY_SCENARIOS[scenario]
    if n_nodes < 4:
        raise ValueError("recovery chaos topology needs >= 4 nodes")
    db, oracle, _keys = _seeded_cluster(seed, ops, n_nodes, monitoring=monitoring)
    report = RecoveryChaosReport(scenario=scenario, seed=seed, ops=ops)
    runner(db, oracle, report)
    _verify(db, oracle, report)
    monitor = db.cluster.monitor
    if monitor is not None:
        report.alerts = monitor.alert_log()
        report.postmortems = monitor.postmortem_dicts()
        report.fault_times = monitor.fault_times()
        monitor.close()
    return report
