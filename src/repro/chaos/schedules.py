"""The fail-stop family: processes die, partitions form, machines revive.

A schedule's body contributes two kinds of disruption:

* **fault rules** installed into a :class:`~repro.sim.failure.FaultPlan`
  — they fire *inside* instrumented operations (mid-append, at commit,
  mid-checkpoint, mid-compaction) and model a process dying at the worst
  possible moment;
* **events** keyed by workload operation index — they run *between*
  operations and model environmental changes (network partitions
  forming and healing, operators restarting machines, rebalances).

Every schedule here places the ``chaos`` table on ``ts-node-0`` and
``ts-node-1`` only, with the workload client on ``node-2`` — so ``node-3``
is a pure datanode from the workload's point of view and killing it
stresses replication without moving tablets, while killing ``node-0``
or ``node-1`` forces tablet failover on top of replica loss.  The
master fails tablets over by itself, and the op-indexed workload
(:func:`repro.chaos.workload.op_stream`) runs under every schedule.
"""

from __future__ import annotations

from repro.chaos.scenario import Events, Run, Scenario
from repro.chaos.workload import op_stream
from repro.errors import ServerDownError
from repro.sim.failure import (
    CP_CHECKPOINT_MID,
    CP_COMPACTION_MID,
    CP_DFS_APPEND,
    CP_TXN_POST_COMMIT,
    CP_TXN_PRE_COMMIT,
)

#: what every op-indexed row (this family and the gray one) shares.
OP_INDEXED = {
    "workload": op_stream,
    "home_servers": ("ts-node-0", "ts-node-1"),
    "client_node": 2,
    "ops": 60,
    "preload": False,
    "auto_failover": True,
}


def _kill(run: Run, server_name: str, *, raise_down: bool = False):
    """Action: power-fail ``server_name``'s whole machine (tablet server
    *and* datanode; in-memory state lost), optionally raising
    ``ServerDownError`` so the crash interrupts the instrumented call."""

    def action(_ctx) -> None:
        run.db.cluster.kill_node(server_name)
        if raise_down:
            raise ServerDownError(f"{server_name} crashed")

    return action


def _datanode_mid_append(run: Run) -> None:
    # node-3 holds replicas but no chaos tablets: its death mid-pipeline
    # must be absorbed by pipeline recovery, never surface to the client.
    run.plan.add(CP_DFS_APPEND, _kill(run, "ts-node-3"), hits=6)


def _server_crash_at_commit(run: Run) -> None:
    # First: a commit dies *before* its commit record is durable (the
    # transaction must stay invisible).  Later: one dies *after* (commit
    # durable but unapplied; redo on the adopter must surface it).
    run.plan.add(
        CP_TXN_PRE_COMMIT, _kill(run, "ts-node-1", raise_down=True),
        server="ts-node-1",
    )
    run.plan.add(
        CP_TXN_POST_COMMIT, _kill(run, "ts-node-0", raise_down=True),
        server="ts-node-0",
    )


def _crash_during_checkpoint(run: Run) -> None:
    # Dies between index-file flushes: the previous checkpoint block must
    # stay the recovery point (the block write is the commit point).
    run.plan.add(
        CP_CHECKPOINT_MID, _kill(run, "ts-node-1", raise_down=True),
        server="ts-node-1",
    )


def _crash_during_compaction(run: Run) -> None:
    # Dies after writing sorted runs but before retiring the inputs: all
    # data must remain readable through the old segments.
    run.plan.add(
        CP_COMPACTION_MID, _kill(run, "ts-node-1", raise_down=True),
        machine="node-1",
    )


def _partition_heal(run: Run) -> Events:
    partitions = run.db.cluster.config.network.partitions
    return {
        8: lambda: partitions.isolate("node-3"),
        30: partitions.heal,
    }


def _kill_revive_readopt(run: Run) -> Events:
    cluster = run.db.cluster

    def revive() -> None:
        cluster.restart_server("ts-node-1")
        cluster.master.rebalance()

    return {
        10: lambda: cluster.kill_node("ts-node-1"),
        35: revive,
    }


def _corrupt_replica(run: Run) -> Events:
    # One flipped byte in every block node-0 holds of ts-node-0's log, after
    # the checkpoint: the restart's redo, reads and the compaction pass all
    # cross the damage, and each must read around it, never stop at it.
    cluster = run.db.cluster
    dfs, node = cluster.dfs, cluster.dfs.datanode("node-0")

    def corrupt() -> None:
        for path in dfs.list_files("/logbase/ts-node-0/log/"):
            for block in dfs.namenode.get_file(path).blocks:
                if node.has_block(block.block_id) and block.length:
                    node.corrupt_replica(block.block_id, run.rng.randrange(block.length))

    def restart() -> None:
        # The restart grants the leases itself: no heartbeat before the next op.
        cluster.kill_server("ts-node-0")
        cluster.restart_server("ts-node-0")
        run.report.restarted_servers.append("ts-node-0")

    return {25: corrupt, 30: restart}


ROWS = tuple(
    Scenario("base", name, description, body, **OP_INDEXED)
    for name, description, body in (
        (
            "datanode-mid-append",
            "datanode dies mid replication pipeline; writes keep flowing",
            _datanode_mid_append,
        ),
        (
            "server-crash-at-commit",
            "tablet servers die before and after the commit record",
            _server_crash_at_commit,
        ),
        (
            "crash-during-checkpoint",
            "server dies between checkpoint index flushes",
            _crash_during_checkpoint,
        ),
        (
            "crash-during-compaction",
            "server dies after compaction reduce, before install",
            _crash_during_compaction,
        ),
        (
            "partition-heal",
            "datanode partitioned away, then healed and re-replicated",
            _partition_heal,
        ),
        (
            "kill-revive-readopt",
            "node killed, failed over, revived, and rebalanced back in",
            _kill_revive_readopt,
        ),
        (
            "corrupt-replica",
            "a byte flipped in each local log replica, then a restart",
            _corrupt_replica,
        ),
    )
)
