"""The cluster monitoring plane (``config.monitoring`` gate).

One :class:`ClusterMonitor` per monitored cluster ties the pieces
together: on every ``cluster.heartbeat()`` it scrapes per-machine counter
deltas and the derived health gauges into the ring-buffer
:class:`~repro.obs.timeseries.MetricStore`, evaluates the
:class:`~repro.obs.alerts.AlertEngine` rules in simulated time, and —
on alert fire or any observed fault (injected kill/degradation, fired
``CP_*`` crash point) — has the
:class:`~repro.obs.recorder.FlightRecorder` snapshot a post-mortem
bundle.

Everything here *reads* simulator state; nothing advances a clock,
touches an RNG, or charges simulated cost.  With the gate off the
cluster never constructs a monitor and the seed figures are reproduced
byte-identically; with it on, behavior is identical too — only
bookkeeping is added — which is what the <5% wall-clock overhead bound
in ``bench_monitoring`` measures.

:func:`collect_health_gauges` is the *one* schema for derived health
state.  Both the scraper and the stats report (``repro.core.stats``)
call it, so a dashboard line and a time-series sample can never disagree
about what "replica lag" or "recovery queue depth" means.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.alerts import AlertEngine, SloRule, ThresholdRule
from repro.obs.recorder import FlightRecorder
from repro.obs.timeseries import MetricStore
from repro.sim.metrics import (
    DFS_HEDGE_FIRED,
    GAUGE_ADMISSION_BACKLOG,
    GAUGE_BLOCKCACHE_HIT_RATE,
    GAUGE_BREAKER_OPEN,
    GAUGE_COMPACTION_DEBT,
    GAUGE_LEASE_HEALTH,
    GAUGE_RECOVERY_QUEUE,
    GAUGE_REPLICA_LAG,
    GAUGE_SERVER_UP,
    GAUGE_TABLET_HEAT,
    MIGRATION_LEASE_REJECTS,
)

#: per-scrape ``net.messages`` delta above which a node is seeing a
#: traffic burst.  Measured on the gray chaos topology: a quiet tick —
#: one workload op plus a checkpoint or a compaction, whose output goes
#: out a 64 KiB chunk per append — costs a node at most 11 messages
#: between scrapes at the oracle's seed 1 and 21 over seeds 1-5;
#: ``overload-burst``'s 40 puts jammed between two heartbeats cost 40
#: (41 on seed 5).  The rule is a strict ``>``, so the threshold sits
#: between the two, not on the burst.
TRAFFIC_BURST_MESSAGES = 30.0

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import LogBaseConfig
    from repro.core.cluster import LogBaseCluster
    from repro.core.master import Master

#: circuit-breaker states as gauge values.
_BREAKER_VALUES = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


def collect_health_gauges(
    cluster: "LogBaseCluster", master: "Master | None" = None
) -> dict[tuple[str, str], float]:
    """The canonical ``(entity, gauge) -> value`` health snapshot.

    Shared by the monitoring scraper and ``core.stats`` so the two can
    never drift.  Entities are tablet-server names (``ts-node-0``),
    datanode/machine names (``node-0``, for breaker and block-cache
    gauges), and tablet ids (heat and replica lag).  Pure state reads —
    no simulated cost.  ``master`` is the elected one when the caller
    already looked it up (a heartbeat has).
    """
    gauges: dict[tuple[str, str], float] = {}
    config = cluster.config
    owned_by: dict[str, list[str]] = {}
    if config.live_migration:
        for tablet_id, owner in (master or cluster.master).catalog.assignments.items():
            owned_by.setdefault(owner, []).append(tablet_id)
    for each in cluster.masters:
        # A master is "up" while its coordination session lives; a deposed
        # or crashed master reads 0 and trips the same server-down rule.
        gauges[(each.name, GAUGE_SERVER_UP)] = 0.0 if each.session.expired else 1.0
    for server in cluster.servers:
        up = server.machine.alive and server.serving
        gauges[(server.name, GAUGE_SERVER_UP)] = 1.0 if up else 0.0
        if not server.machine.alive:
            continue
        gauges[(server.name, GAUGE_RECOVERY_QUEUE)] = float(
            len(server.recovering_tablets)
        )
        if server.admission is not None:
            gauges[(server.name, GAUGE_ADMISSION_BACKLOG)] = server.admission.last_depth
        if config.live_migration and up:
            owned = owned_by.get(server.name)
            if owned:
                valid = sum(1 for t in owned if server.ownership.lease_valid(t))
                gauges[(server.name, GAUGE_LEASE_HEALTH)] = valid / len(owned)
            else:
                gauges[(server.name, GAUGE_LEASE_HEALTH)] = 1.0
        if up:
            # Planner-eligible log bytes: namenode metadata, no simulated cost.
            gauges[(server.name, GAUGE_COMPACTION_DEBT)] = float(
                sum(plan.input_bytes for plan in server.planner.plan())
            )
            # Replica lag per tablet: worst follower staleness, read the
            # same way the heartbeat's lag histogram defines it (time
            # since the follower last drained to its owner's log tail).
            clock_now = server.machine.clock.now
            for tablet_id, follower in server.replicas.followers.items():
                lag = follower.lag(clock_now)
                if lag == float("inf"):
                    continue  # never caught up yet: no sample, not a spike
                key = (tablet_id, GAUGE_REPLICA_LAG)
                if lag > gauges.get(key, 0.0):
                    gauges[key] = lag
        cache = cluster.dfs.block_cache_for(server.machine)
        if cache is not None and (looked_up := cache.hits + cache.misses) > 0:
            gauges[(server.machine.name, GAUGE_BLOCKCACHE_HIT_RATE)] = cache.hits / looked_up
    if cluster.dfs.health is not None:
        for node_name, state in cluster.dfs.health.breaker_states().items():
            gauges[(node_name, GAUGE_BREAKER_OPEN)] = _BREAKER_VALUES.get(state, 1.0)
    for tablet_id, heat in cluster.tablet_heat.items():
        gauges[(tablet_id, GAUGE_TABLET_HEAT)] = heat
    return gauges


def gauges_by_entity(cluster: "LogBaseCluster") -> dict[str, dict[str, float]]:
    """:func:`collect_health_gauges` nested ``{entity: {gauge: value}}``
    (the JSON-friendly shape stats reports embed)."""
    nested: dict[str, dict[str, float]] = {}
    for (entity, metric), value in sorted(collect_health_gauges(cluster).items()):
        nested.setdefault(entity, {})[metric] = value
    return nested


def default_rules(config: "LogBaseConfig") -> list:
    """The standing alert rules for a monitored cluster.

    Thresholds derive from the same config knobs that drive the guarded
    behavior (admission depth, staleness bound), so the alert and the
    enforcement can't disagree about what "too much" means.
    """
    rules: list = [
        ThresholdRule(
            "server-down", GAUGE_SERVER_UP, "<", 0.5, absent_value=1.0
        ),
        ThresholdRule(
            "breaker-open", GAUGE_BREAKER_OPEN, ">", 0.75, severity="warn"
        ),
        ThresholdRule(
            "replica-lag-high",
            GAUGE_REPLICA_LAG,
            ">",
            config.replica_max_staleness,
        ),
        ThresholdRule(
            "recovery-backlog", GAUGE_RECOVERY_QUEUE, ">", 0.5, severity="warn"
        ),
        ThresholdRule(
            "lease-unhealthy",
            GAUGE_LEASE_HEALTH,
            "<",
            0.5,
            severity="warn",
            absent_value=1.0,
        ),
        ThresholdRule(
            "lease-fence-rejects", MIGRATION_LEASE_REJECTS, ">", 0.0
        ),
    ]
    if config.admission_queue_depth is not None:
        rules.append(
            ThresholdRule(
                "admission-backlog",
                GAUGE_ADMISSION_BACKLOG,
                ">",
                float(config.admission_queue_depth),
            )
        )
        # Overload symptom the shed-clamped backlog gauge cannot show: a
        # traffic spike between two scrapes.  Only meaningful where
        # admission control bounds the per-tick op flow (the gray chaos
        # topology); bulk-seeded clusters would trip it on the seed tick.
        rules.append(
            ThresholdRule(
                "traffic-burst",
                "net.messages",
                ">",
                TRAFFIC_BURST_MESSAGES,
                severity="warn",
            )
        )
    if config.hedge_reads:
        # A healthy cluster hedges never (the primary replica beats the
        # hedge trigger); any hedge firing means some replica limps.
        rules.append(
            ThresholdRule(
                "hedge-storm", DFS_HEDGE_FIRED, ">", 0.5, severity="warn"
            )
        )
    for op_class, target in sorted(config.slo_op_p99.items()):
        rules.append(
            SloRule(
                f"slo-burn-{op_class}",
                op_class,
                target,
                burn_threshold=config.slo_burn_threshold,
            )
        )
    return rules


class ClusterMonitor:
    """Scrape + alert + flight-recorder plane for one cluster.

    Construction makes this monitor the observer of the cluster's own
    :class:`~repro.sim.failure.FailureInjector`, so the cluster's
    injected kills, degradations, and fired crash points stamp fault
    times and trigger post-mortem snapshots — and no other cluster's do.
    """

    def __init__(self, cluster: "LogBaseCluster") -> None:
        self.cluster = cluster
        config = cluster.config
        self.store = MetricStore()
        self.engine = AlertEngine(rules=default_rules(config))
        self.recorder = FlightRecorder()
        #: every observed fault, in order: {"time", "kind", "detail"}.
        self.fault_log: list[dict] = []
        self.scrapes = 0
        self._counter_snapshots: dict[str, dict[str, float]] = {}
        self._last_now = 0.0
        self._scrape_interval = config.monitor_scrape_interval
        self._last_scrape = float("-inf")
        # Whether a machine clock may have reached the next scrape time,
        # and how many machines were asked to say so.
        self._maybe_due, self._watched = True, 0
        cluster.failures.observer = self.note_fault

    # -- time ------------------------------------------------------------

    def now(self) -> float:
        """Monitor time: cluster makespan, clamped to the latest time the
        monitor took, so a ``reset_clocks()`` between benchmark phases
        cannot run the series backwards."""
        now = self.cluster.elapsed_makespan()
        if now < self._last_now:
            now = self._last_now
        self._last_now = now
        self._maybe_due = True  # the clamp may have moved: test the cadence
        return now

    # -- fault observation ----------------------------------------------

    def note_fault(self, kind: str, detail: dict | None = None) -> None:
        """Stamp a fault at the current simulated time and snapshot a
        post-mortem.  Chaos runners call this for schedule events the
        injector cannot see (e.g. an overload burst); the cluster's
        injector routes injected kills/degradations and crash-point fires
        here."""
        t = self.now()
        clean = {
            k: (v if isinstance(v, (int, float, bool)) else str(v)[:80])
            for k, v in (detail or {}).items()
        }
        node = str(clean.get("node", "cluster"))
        self.fault_log.append({"time": t, "kind": kind, "detail": clean})
        self.recorder.record_event(node, t, kind, str(clean))
        self.recorder.snapshot(
            f"fault:{kind}",
            t,
            store=self.store,
            engine=self.engine,
            tracer=self.cluster.tracer,
        )

    # -- the scrape tick -------------------------------------------------

    def tick(self, *, force: bool = False, master: "Master | None" = None) -> list[dict]:
        """One scrape + alert evaluation pass.

        Every ``cluster.heartbeat()`` calls this with its ``master``, but
        a scrape only runs once per ``config.monitor_scrape_interval`` of
        simulated time (the production cadence that bounds wall-clock
        overhead; 0 scrapes every call).  ``force`` bypasses the cadence —
        chaos scenarios use it to scrape a window the next heartbeat would
        close.  Returns the alerts that newly fired.

        A tick that will not scrape reads no clock: each scrape asks every
        machine clock to wake the monitor at the next scrape time, and
        until one does (or a machine joins, or :meth:`now` moves the
        clamp) no scrape can be due.
        """
        machines = self.cluster.machines
        if not (force or self._maybe_due) and len(machines) == self._watched:
            return []
        now = self.now()
        if not force and now - self._last_scrape < self._scrape_interval:
            return []
        self._last_scrape = now
        # Wake a hair early: float rounding may cost a clock walk, never
        # a scrape, since the test above is repeated.
        at = now + self._scrape_interval - (abs(now) + self._scrape_interval) * 1e-9
        self._watched, self._maybe_due = len(machines), at <= now
        if not self._maybe_due:
            for machine in machines:
                machine.clock.wake(at, self._wake)
        write = self.store.record_all
        for machine in machines:
            name, counters = machine.name, machine.counters
            moved = counters.delta_since(self._counter_snapshots.get(name, {}))
            write([((name, counter), change) for counter, change in moved.items()], now)
            self._counter_snapshots[name] = counters.snapshot()
        write(collect_health_gauges(self.cluster, master).items(), now)
        self._record_slo_counts(now)
        fired = self.engine.evaluate(self.store, now)
        for record in fired:
            self.recorder.record_event(
                record["entity"],
                now,
                "alert",
                f"{record['alert']} firing ({record['detail']})",
            )
            self.recorder.snapshot(
                f"alert:{record['alert']}:{record['entity']}",
                now,
                store=self.store,
                engine=self.engine,
                tracer=self.cluster.tracer,
            )
        self.scrapes += 1
        return fired

    def _wake(self) -> None:
        self._maybe_due = True

    def _record_slo_counts(self, now: float) -> None:
        """Publish cumulative good/bad op counts per configured SLO from
        the tracer's latency histograms (present only when tracing)."""
        tracer = self.cluster.tracer
        if tracer is None:
            return
        for op_class, target in sorted(self.cluster.config.slo_op_p99.items()):
            hist = tracer.histograms.get(f"latency.{op_class}")
            if hist is None:
                continue
            self.store.record(
                "cluster", f"slo.{op_class}.count", now, float(hist.count)
            )
            self.store.record(
                "cluster", f"slo.{op_class}.bad", now, float(hist.count_above(target))
            )

    # -- report surface --------------------------------------------------

    def alert_log(self) -> list[dict]:
        """Copy of the structured alert log (firing/resolved records)."""
        return [dict(r) for r in self.engine.log]

    def postmortem_dicts(self) -> list[dict]:
        """Every retained post-mortem bundle as a plain dict."""
        return [pm.to_dict() for pm in self.recorder.postmortems]

    def fault_times(self) -> list[float]:
        """Simulated times of every observed fault, in order."""
        return [f["time"] for f in self.fault_log]

    def first_fault_time(self) -> float | None:
        return self.fault_log[0]["time"] if self.fault_log else None


def detection_latency(
    fault_times: list[float], alert_log: list[dict], alert_name: str
) -> float | None:
    """Simulated seconds from the first fault to the first firing of
    ``alert_name`` at or after it, in a monitor's alert log; None if it
    never fired (or no fault was observed at all)."""
    if not fault_times:
        return None
    first_fault = min(fault_times)
    for record in alert_log:
        if (
            record["state"] == "firing"
            and record["alert"] == alert_name
            and record["time"] >= first_fault
        ):
            return record["time"] - first_fault
    return None
