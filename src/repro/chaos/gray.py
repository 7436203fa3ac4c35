"""Gray-failure chaos: schedules where nodes limp instead of dying.

Fail-stop chaos (:mod:`repro.chaos.schedules`) kills processes; gray
chaos degrades them — a disk that serves every request forty times
slower, a network link crawling under retransmits, a server drowning in
a request burst.  Nothing crashes, heartbeats keep succeeding, so
fail-stop detection (session expiry, auto-failover) never triggers and
only the gray-resilience layer — deadlines, hedged replica reads,
circuit breakers, admission control — can keep tail latency bounded.

Every schedule runs the fail-stop family's op-indexed workload on its
topology (the table homed on ``ts-node-0``/``ts-node-1``, the workload
client on ``node-2``).  Because tablet servers prefer their *local*
replica, degrading a home node's disk is what puts a limping replica on
the read path.

The rows run under :meth:`LogBaseConfig.with_gray_resilience`;
:func:`control_config` builds the unmitigated control arm for the same
fault plan.  Both arms disable the server read cache — otherwise the
read buffer absorbs the workload's reads and the limping DFS replica is
never exercised — so the comparison isolates the gray-resilience
machinery itself.
"""

from __future__ import annotations

from repro.chaos.scenario import GROUP, TABLE, Events, Run, Scenario
from repro.chaos.schedules import OP_INDEXED
from repro.config import LogBaseConfig
from repro.errors import LogBaseError
from repro.sim.failure import CP_DFS_APPEND, link_limp_action

#: disk slowdown factor for limping nodes — large enough that an
#: unmitigated read off the limping replica dominates the latency tail.
LIMP_FACTOR = 40.0

#: link slowdown factor for the degraded replication pipeline link.
LINK_FACTOR = 60.0

#: what a *monitored* gray run adds to its config.
MONITORED = {
    # The SLO burn-rate rules need tracing's latency histograms.
    "tracing": True,
    # Latency SLO targets (simulated seconds), placed just above the
    # slowest op any clean gray arm produces (clean puts top out at
    # ~51ms, clean gets at ~63ms even with hedging and deadlines
    # disabled) so a clean run has *zero* SLO-violating samples, while a
    # x60 link slowdown pushes puts past 120ms and fires the burn-rate
    # alert.
    "slo_op_p99": {"op.put": 0.06, "op.get": 0.07},
    # Burn-rate threshold: with a 0.99 objective this fires once >8% of
    # windowed ops violate their target — between the 0% of every clean
    # arm and the ~15% a degraded link inflicts.
    "slo_burn_threshold": 8.0,
}


def control_config() -> LogBaseConfig:
    """The unmitigated control arm: fault tolerance without the
    gray-resilience layer, read cache off like the mitigated arm.  Pass
    it as ``run_scenario(..., config=control_config())`` to measure the
    latency tail the same fault plan inflicts with nothing in its way."""
    return LogBaseConfig.with_fault_tolerance(
        segment_size=64 * 1024, read_cache_enabled=False
    )


def _limp(run: Run, server_name: str, factor: float):
    """Event: put ``server_name``'s disk in degraded mode (1.0 heals)."""

    def event() -> None:
        run.db.cluster.failures.degrade(server_name, factor)

    return event


def _mid_limp_scan(run: Run):
    """Event: a range scan issued while the home replica is limping —
    the scan's coalesced DFS reads all face the limping-or-hedge choice."""

    def event() -> None:
        client = run.db.client(run.db.cluster.machines[2])
        try:
            client.scan_raw(TABLE, GROUP, b"0" * 12, b"9" * 12)
        except LogBaseError:
            pass  # scan outcome is judged by latency, not success

    return event


def _limp_datanode_mid_scan(run: Run) -> Events:
    # The full stack on defaults: node-0 (a table home) limps for most of
    # the run, a scan lands mid-limp, reads must hedge around the slow
    # replica and breakers must stop re-trying it.
    return {
        8: _limp(run, "ts-node-0", LIMP_FACTOR),
        25: _mid_limp_scan(run),
        48: _limp(run, "ts-node-0", 1.0),
    }


def _slow_link_replication(run: Run) -> Events:
    # The node-0 <-> node-3 link crawls starting *inside* a replication
    # pipeline append (a fault rule, not an event): pipeline acks crossing
    # that link charge the degraded transfer cost, yet writes must keep
    # flowing and every acked write must survive verification.
    links = run.db.cluster.config.network.links
    run.plan.add(
        CP_DFS_APPEND,
        link_limp_action(links, "node-0", "node-3", LINK_FACTOR),
        hits=4,
    )
    return {
        45: lambda: links.slow("node-0", "node-3", 1.0),
    }


def _overload_burst(run: Run) -> Events:
    # A foreign client bursts writes at the cluster, racing the home
    # servers' clocks ahead of the workload client's.  With hedging,
    # breakers and deadlines all disabled (see overrides), only the
    # admission controller stands between the backlog and the workload:
    # it must shed with a retry-after that re-admits after one wait.
    def burst() -> None:
        client = run.db.client(run.db.cluster.machines[3])
        for i in range(40):
            key = f"burst-{i:07d}".encode().rjust(12, b"0")
            try:
                client.put_raw(TABLE, key, GROUP, b"x" * 64)
            except LogBaseError:
                pass

    return {12: burst}


def _limp_trip_recover(run: Run) -> Events:
    # Full gray lifecycle on one node: node-1 limps, its breakers trip
    # (short cooldown so the run can witness it), the node heals, a
    # half-open probe succeeds and the breakers close again — the node
    # must end the run back in the serving rotation.
    return {
        6: _limp(run, "ts-node-1", LIMP_FACTOR),
        30: _limp(run, "ts-node-1", 1.0),
    }


def _hedge_under_limp(run: Run) -> Events:
    # Breakers off (see overrides): every read of the limping replica
    # must be saved by the hedge alone, so the hedge-win counter is the
    # whole story.
    return {
        5: _limp(run, "ts-node-0", LIMP_FACTOR),
        50: _limp(run, "ts-node-0", 1.0),
    }


ROWS = tuple(
    Scenario(
        "gray",
        name,
        description,
        body,
        preset=LogBaseConfig.with_gray_resilience,
        overrides={"read_cache_enabled": False, **overrides},
        monitored=MONITORED,
        expected_alert=alert,
        **OP_INDEXED,
    )
    for name, description, body, alert, overrides in (
        (
            "limp-datanode-mid-scan",
            "home replica's disk limps x40 through a mid-run range scan",
            _limp_datanode_mid_scan,
            "breaker-open",
            {},
        ),
        (
            "slow-link-replication",
            "node-0<->node-3 link degrades inside a replication pipeline",
            _slow_link_replication,
            "slo-burn-op.put",
            {},
        ),
        (
            "overload-burst",
            "write burst overloads home servers; admission control sheds",
            _overload_burst,
            "traffic-burst",
            {
                "hedge_reads": False,
                "breaker_enabled": False,
                "op_deadline": None,
                "admission_queue_depth": 8,
            },
        ),
        (
            "limp-trip-recover",
            "node limps, breakers trip, node heals, breakers close",
            _limp_trip_recover,
            "breaker-open",
            {"breaker_cooldown": 0.05, "breaker_min_samples": 2},
        ),
        (
            "hedge-under-limp",
            "breakers disabled: hedged reads alone cover the limping replica",
            _hedge_under_limp,
            "hedge-storm",
            {"breaker_enabled": False},
        ),
    )
)
