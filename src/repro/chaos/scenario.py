"""What a chaos scenario *is*: one registry row, one run context, one report.

Every scenario targets the same topology — 4 nodes, the ``chaos`` table
(two tablets per home server) placed on the row's ``home_servers`` only,
so the remaining nodes are pure replica holders, failover adopters and
migration targets.  A row (:class:`Scenario`) states the rest as data:
the config preset it runs under, which node the workload client sits on,
whether the master fails tablets over by itself, and the **body** — the
one function that injects the fault.  :func:`repro.chaos.runner.run_scenario`
turns a row into a :class:`ChaosReport`; the body and the optional
workload see the run through a :class:`Run`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.chaos.history import History, WriteStatus
from repro.config import LogBaseConfig
from repro.core.client import Client
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import LogBaseError, ServerDownError
from repro.sim.failure import FaultPlan, kill_action

TABLE = "chaos"
GROUP = "g"
KEY_WIDTH = 12
KEY_DOMAIN = 2_000_000_000
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))

#: the schedules name ``ts-node-0`` .. ``ts-node-3``; this is not a knob.
N_NODES = 4

#: workload-operation index -> disruption that runs *between* operations
#: (partitions forming and healing, operators restarting machines).
Events = dict[int, Callable[[], None]]


@dataclass(frozen=True)
class Scenario:
    """One row of :data:`repro.chaos.runner.SCENARIOS`.

    Attributes:
        family: the fault class the row belongs to (bench and budget key).
        name: the row's name inside its family; the registry key is
            ``"family/name"``.
        description: what the scenario stresses.
        body: injects the fault — adds rules to ``run.plan``, drives the
            procedure they interrupt, converges the way an operator
            would — and may return op-indexed :data:`Events` for the
            workload.  Skipped when the run is a clean twin
            (``faults=False``).
        workload: the client traffic running under the plan after the
            body, given the body's events; None when the seeded preload
            is all the traffic the scenario needs.
        preset: the :class:`LogBaseConfig` preset the row runs under;
            which invariants a run checks follows from the config.
        overrides: settings on top of the preset — how a row narrows the
            run to one mechanism (the overload burst turns hedging and
            breakers off so only admission control is in play).
        monitored: further settings applied only to monitored runs.
        home_servers: the servers the table is placed on.
        masters: master instances (2 when the body deposes one).
        client_node: index of the machine the workload client and the
            final verifier run on.
        ops: default workload size — preloaded writes when ``preload``,
            else the operations the workload issues.
        preload: seed the cluster with ``ops`` acked writes before the
            body (see :func:`repro.chaos.runner.run_scenario`).
        auto_failover: the master re-homes a dead server's tablets by
            itself; off where the body drives the failover by hand.
        expected_alert: the alert a monitored run must fire
            (:mod:`repro.chaos.detection`); None for rows the detection
            oracle does not cover.
    """

    family: str
    name: str
    description: str
    body: Callable[["Run"], Events | None]
    workload: Callable[["Run", Events], None] | None = None
    preset: Callable[..., LogBaseConfig] = LogBaseConfig.with_fault_tolerance
    overrides: Mapping[str, object] = field(default_factory=dict)
    monitored: Mapping[str, object] = field(default_factory=dict)
    home_servers: tuple[str, ...] = ("ts-node-0",)
    masters: int = 1
    client_node: int = N_NODES - 1
    ops: int = 40
    preload: bool = True
    auto_failover: bool = False
    expected_alert: str | None = None

    @property
    def key(self) -> str:
        return f"{self.family}/{self.name}"

    def config(self, *, monitoring: bool = False) -> LogBaseConfig:
        """The row's config; ``monitoring`` layers the monitoring plane
        on top, scraping on every heartbeat (detection fidelity, not the
        production cadence)."""
        settings = {"segment_size": 64 * 1024, **self.overrides}
        if monitoring:
            settings.update(
                monitoring=True, monitor_scrape_interval=0.0, **self.monitored
            )
        return self.preset(**settings)


@dataclass
class ChaosReport:
    """Outcome of one chaos run (shaped like a benchmark result).

    The typed fields mean the same thing for every scenario.  What only
    one body or workload can observe (``fence_epoch``, ``lag_rejections``,
    the read-latency tail), and the mechanism counters of
    :data:`repro.chaos.runner.COUNTERS`, go into ``observed``, which
    :meth:`to_dict` flattens next to them.
    """

    family: str
    scenario: str
    seed: int
    ops: int
    acked: int = 0
    aborted: int = 0
    indeterminate: int = 0
    faults_fired: int = 0
    expired_servers: list[str] = field(default_factory=list)
    restarted_servers: list[str] = field(default_factory=list)
    rereplicated: int = 0
    under_replicated_after: int = 0
    keys_checked: int = 0
    # The contracts this run checked (chosen by its config) and every
    # breach of them.
    invariants: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    observed: dict[str, object] = field(default_factory=dict)
    # Monitoring-plane artifacts (config.monitoring gate; empty otherwise):
    # the structured alert log, the flight recorder's post-mortem bundles,
    # and the simulated times of every observed fault.
    alerts: list = field(default_factory=list)
    postmortems: list = field(default_factory=list)
    fault_times: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether the run upheld every contract it checked."""
        return not self.violations

    def fired_alert_names(self) -> set[str]:
        """Alert names that fired at least once during the run."""
        return {a["alert"] for a in self.alerts if a["state"] == "firing"}

    def to_dict(self) -> dict:
        data = dict(vars(self))
        data.update(data.pop("observed"))
        data["passed"] = self.passed
        # Bundles stay on the dataclass (they embed whole series tails);
        # the dict form carries a one-line summary each.
        data["postmortems"] = [
            {"reason": pm["reason"], "time": pm["time"]} for pm in self.postmortems
        ]
        return data


@dataclass
class Run:
    """One execution of one scenario: what bodies and workloads act on."""

    scenario: Scenario
    db: LogBase
    report: ChaosReport
    rng: random.Random
    client: Client
    plan: FaultPlan = field(default_factory=FaultPlan)
    history: History = field(default_factory=History)
    #: the preloaded keys in write order, and the tablet covering most of
    #: them — the one a body migrates, splits or probes.
    keys: list[bytes] = field(default_factory=list)
    tablet_id: str = ""

    def heartbeat(self) -> None:
        """One cluster heartbeat — the failure-detection tick a real
        deployment runs continuously — folded into the report."""
        tick = self.db.cluster.heartbeat()
        for name in tick["expired"]:
            if name not in self.report.expired_servers:
                self.report.expired_servers.append(name)
        self.report.rereplicated += tick["rereplicated"]

    def write(self, keys: list[bytes]) -> None:
        """One write per key through the workload client, recorded in the
        history.  No heartbeat runs in between, so followers fall behind."""
        for key in keys:
            op = self.history.invoke(self.client)
            try:
                timestamp = self.client.put_raw(TABLE, key, GROUP, op.write(key))
            except LogBaseError:
                self.history.end(op, WriteStatus.INDETERMINATE)
                continue
            self.history.end(op, WriteStatus.ACKED, commit_ts=timestamp)

    def read(self, client: Client, key: bytes) -> None:
        """One point read through ``client``, recorded in the history; a
        failed read records nothing read."""
        op = self.history.invoke(client)
        try:
            op.reads[key] = client.get_raw(TABLE, key, GROUP)
        finally:
            self.history.end(op)

    def kill_at(self, point: str, name: str, **rule: object) -> None:
        """Arm a rule that kills ``name``'s machine at crash point
        ``point`` (``rule``: hit count and context matchers), raising
        ``ServerDownError`` so the crash interrupts the instrumented call
        the way a real process death would."""
        died = ServerDownError(f"{name} died at {point}")
        self.plan.add(
            point, kill_action(self.db.cluster.failures, name, died), **rule
        )

    def attempt(self, procedure: Callable[[], object]) -> bool:
        """Run a procedure the armed fault is meant to kill; True when it
        died mid-flight (the body then retries it as an operator would)."""
        try:
            procedure()
        except LogBaseError:
            return True
        return False

    def observe(self, **facts: object) -> None:
        """Record scenario-specific observations on the report."""
        self.report.observed.update(facts)

    def tablet_of(self, key: bytes) -> str:
        """Id of the tablet covering ``key`` in today's catalog."""
        return self.db.cluster.master.catalog.tablet_for(TABLE, key)
