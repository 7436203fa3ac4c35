"""Concurrent-client chaos: group-commit durability under crash points.

The durability hazard group commit introduces is acking a member whose
group never replicated: N clients park on one flush, and a crash inside
that flush (the ``CP_LOG_APPEND`` / ``CP_DFS_APPEND`` hooks) must fail
*every* member — an ack for any of them would violate Guarantee 1.

The workload drives N logical clients through the virtual-time scheduler
with the ``group_commit`` and fault-tolerance gates on; each row arms a
kill rule at a crash point so the victim — home of every tablet — dies
mid-group-flush with all clients parked on its coordinator.  Auto-
failover re-homes the tablets (the adopters run their own commit
coordinators), and the durability oracle then reads back every key:
ACKED values must survive, INDETERMINATE ones may go either way.
"""

from __future__ import annotations

from repro.chaos.oracle import WriteStatus
from repro.chaos.scenario import GROUP, KEY_DOMAIN, KEY_WIDTH, TABLE, Events, Run, Scenario
from repro.errors import LogBaseError
from repro.sim.failure import CP_DFS_APPEND, CP_LOG_APPEND
from repro.sim.metrics import COMMIT_GROUP_FANIN, COMMIT_GROUPS
from repro.sim.scheduler import Advance, ConcurrentScheduler, Submit

VICTIM = "ts-node-0"
CLIENTS = 8


def _kill_mid_flush(crash_point_name: str, hits: int):
    """Body factory: the victim dies at the ``hits``-th pass through
    ``crash_point_name``.  The hit count picks which flush the kill lands
    on, so different seeds and counts produce different interleavings of
    the crash against open/sealed/in-flight groups."""

    def body(run: Run) -> None:
        run.kill_at(crash_point_name, VICTIM, hits=hits)
        run.observe(crash_point=crash_point_name)

    return body


def concurrent_clients(run: Run, _events: Events) -> None:
    """``run.report.ops`` single-record puts on fresh keys, split over
    :data:`CLIENTS` concurrent clients submitting through the servers'
    commit coordinators."""
    db, oracle = run.db, run.oracle
    ops = run.report.ops
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in run.rng.sample(range(KEY_DOMAIN), ops)
    ]

    def rescue(client) -> None:
        # Failure-detector tick: expire the victim's session so the
        # master re-homes its tablets onto live adopters (which run
        # their own commit coordinators).
        run.heartbeat()
        client.invalidate_cache()

    def chaos_client(i: int):
        machine = db.cluster.machines[i % len(db.cluster.machines)]
        client = db.client(machine)
        for key in keys[i * ops // CLIENTS : (i + 1) * ops // CLIENTS]:
            seq, value = oracle.next_value()

            cell: dict = {"ack": 0.0}

            def submit_fn(now, key=key, value=value, cell=cell):
                future, _request, ack = client.submit_put_raw(
                    TABLE, key, GROUP, value, arrival=now
                )
                cell["ack"] = ack
                return future

            try:
                future = yield Submit(submit_fn)
            except LogBaseError:
                # The submission never reached the coordinator; still
                # conservative — routing may race failover mid-call.
                oracle.record(key, seq, WriteStatus.INDETERMINATE)
                rescue(client)
                continue
            yield Advance(cell["ack"])
            if future.error is None:
                oracle.record(key, seq, WriteStatus.ACKED)
            else:
                # The member's group died mid-flush: it must never have
                # been acked, but parts of it may or may not be durable.
                oracle.record(key, seq, WriteStatus.INDETERMINATE)
                rescue(client)

    scheduler = ConcurrentScheduler()
    for server in db.cluster.servers:
        scheduler.add_coordinator(server.commit)
    start = db.cluster.elapsed_makespan()
    for i in range(CLIENTS):
        scheduler.add_client(chaos_client(i), at=start)
    scheduler.run()
    # Failover may have installed fresh coordinators (restart swaps
    # them); flush anything a non-scheduler path left open.
    for server in db.cluster.servers:
        if server.commit is not None and server.machine.alive:
            server.commit.drain()
    totals = db.cluster.total_counters()
    groups = totals.get(COMMIT_GROUPS, 0)
    run.observe(
        clients=CLIENTS,
        mean_fanin=totals.get(COMMIT_GROUP_FANIN, 0) / groups if groups else 0.0,
    )


ROWS = tuple(
    Scenario(
        "group-commit",
        name,
        description,
        _kill_mid_flush(crash_point_name, hits),
        workload=concurrent_clients,
        overrides={"group_commit": True},
        ops=12 * CLIENTS,
        preload=False,
        auto_failover=True,
    )
    for name, description, crash_point_name, hits in (
        (
            "log-append-early",
            "victim dies at its 5th log append, groups still forming",
            CP_LOG_APPEND,
            5,
        ),
        (
            "log-append-late",
            "victim dies at its 9th log append, groups in steady state",
            CP_LOG_APPEND,
            9,
        ),
        (
            "dfs-append",
            "victim dies inside the 7th DFS replication round trip",
            CP_DFS_APPEND,
            7,
        ),
    )
)
