"""Concurrent-client chaos: group-commit durability under crash points.

The durability hazard group commit introduces is acking a member whose
group never replicated: N clients park on one flush, and a crash inside
that flush (the ``CP_LOG_APPEND`` / ``CP_DFS_APPEND`` hooks) must fail
*every* member — an ack for any of them would violate Guarantee 1.

The workload runs N submit streams on the client loop
(:mod:`repro.bench.concurrent`) with the fault-tolerance gates on (every
server has a commit coordinator under any config); each row arms a kill
rule at a crash point so the victim — home of every tablet — dies
mid-group-flush with all clients parked on its coordinator.
Auto-failover re-homes the tablets (the adopters run their own commit
coordinators), and the history checker then reads back every key:
ACKED values must survive, INDETERMINATE ones may go either way.
"""

from __future__ import annotations

from repro.bench import concurrent as loop
from repro.chaos.history import WriteStatus
from repro.chaos.scenario import GROUP, KEY_DOMAIN, KEY_WIDTH, TABLE, Events, Run, Scenario
from repro.errors import LogBaseError
from repro.sim.failure import CP_DFS_APPEND, CP_LOG_APPEND
from repro.sim.metrics import COMMIT_GROUP_FANIN, COMMIT_GROUPS

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


def submit_streams(run: Run, _events: Events) -> None:
    """``run.report.ops`` single-record puts on fresh keys, split over
    :data:`CLIENTS` clients of the loop, each submitting through the
    servers' commit coordinators."""
    db, history = run.db, run.history
    ops = run.report.ops
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in run.rng.sample(range(KEY_DOMAIN), ops)
    ]

    def stream(i: int):
        client = db.client(db.cluster.machines[i % len(db.cluster.machines)])
        for key in keys[i * ops // CLIENTS : (i + 1) * ops // CLIENTS]:
            op = history.invoke(client)
            try:
                future = yield from loop.submit(client, TABLE, key, GROUP, op.write(key))
            except LogBaseError:
                # The submission never reached the coordinator, or its
                # group died mid-flush: never acked, but parts of it may
                # or may not be durable.
                history.end(op, WriteStatus.INDETERMINATE)
                # Failure-detector tick: expire the victim's session so
                # the master re-homes its tablets onto live adopters.
                run.heartbeat()
                client.invalidate_cache()
                continue
            timestamp = future.appended[0][1].timestamp
            history.end(op, WriteStatus.ACKED, commit_ts=timestamp)

    loop.run_clients(db.cluster, [stream(i) for i in range(CLIENTS)])
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
        workload=submit_streams,
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
