"""Recovery chaos: crashes *during* recovery itself must stay safe.

Fast recovery adds three windows the older schedules never exercised:
the parallel redo pass of a restarting server, the splitter writing a
dead peer's per-tablet split files, and an adopter replaying a split
file into its own log.  Each scenario here arms a kill rule at the
matching crash point (``CP_RECOVERY_MID``, ``CP_SPLIT_PERSIST``,
``CP_ADOPT_MID``), lets the first attempt die mid-flight, retries the
interrupted procedure the way an operator (or the watchdog) would;
every previously-acked write must survive.  Every tablet starts on the
victim, and the bodies drive the failover by hand (no auto-failover) so
the crash lands inside it:

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
- **failover-after-split** — no crash inside the procedure at all: the
  victim dies after one of its tablets split, and the automatic failover
  must hand the *children* every record the log still stamps with the
  parent's id.
"""

from __future__ import annotations

from repro.chaos.scenario import GROUP, TABLE, Run, Scenario
from repro.config import LogBaseConfig
from repro.sim.failure import CP_ADOPT_MID, CP_RECOVERY_MID, CP_SPLIT_PERSIST

VICTIM = "ts-node-0"
HELPER = "ts-node-1"  # first healthy server: splitter and first adopter


def _crash_during_recovery(run: Run) -> None:
    """Kill the victim again in the middle of its own parallel redo."""
    cluster = run.db.cluster
    cluster.kill_node(VICTIM)
    # Detection tick *before* the operator restarts: the monitoring
    # plane must witness the dead victim, not the recovered cluster.
    run.heartbeat()
    run.kill_at(CP_RECOVERY_MID, VICTIM, hits=2, server=VICTIM)
    failed = run.attempt(lambda: cluster.restart_server(VICTIM))
    # Second restart: redo only touched in-memory indexes, so a clean
    # re-run from the same checkpoint converges.
    cluster.restart_server(VICTIM)
    run.report.restarted_servers.append(VICTIM)
    run.observe(first_attempt_failed=failed)


def _interrupted_failover(run: Run) -> None:
    """The victim is dead and a kill rule is armed: the first failover
    dies with the helper, the helper restarts — redoing its own log,
    including whatever a crashed adoption already appended — and the
    failover is retried.  Ownership never flipped, so the tablets are
    still orphaned: the retry re-splits under a fresh fence epoch."""
    cluster = run.db.cluster
    master = cluster.master
    failed = run.attempt(lambda: master.handle_permanent_failure(VICTIM))
    cluster.restart_server(HELPER)
    run.report.restarted_servers.append(HELPER)
    run.heartbeat()
    master.handle_permanent_failure(VICTIM)
    run.observe(
        first_attempt_failed=failed,
        fence_epoch=master.catalog.fence_epochs.get(VICTIM, 0),
    )


def _crash_during_split(run: Run) -> None:
    """Kill the splitter with a split file still on its temp name."""
    run.db.cluster.kill_node(VICTIM)
    run.heartbeat()  # expire the victim's session
    run.kill_at(CP_SPLIT_PERSIST, HELPER, server=VICTIM)
    _interrupted_failover(run)


def _crash_during_adoption(run: Run) -> None:
    """Kill the first adopter after it durably re-homed part of a tablet."""
    # An adopter appends by the 64 KiB chunk, so "part of a tablet" takes
    # a tablet of more than one: pad the one the helper adopts first and
    # kill the helper at that tablet's last record, a chunk already out.
    first = min(run.tablet_of(key) for key in run.keys)
    mine = [key for key in run.keys if run.tablet_of(key) == first]
    padding = [mine[0] + b"-%d" % i for i in range(10)]
    for key in padding:
        run.client.put_raw(TABLE, key, GROUP, bytes(8192))
    run.db.cluster.kill_node(VICTIM)
    run.heartbeat()
    run.kill_at(
        CP_ADOPT_MID, HELPER, hits=len(mine) + len(padding), server=HELPER
    )
    _interrupted_failover(run)


def _failover_after_split(run: Run) -> None:
    """The owner dies after one of its tablets split; the master fails
    the children over by itself on the next heartbeat."""
    cluster = run.db.cluster
    cluster.split_tablet(run.tablet_id)
    cluster.kill_node(VICTIM)
    run.heartbeat()


ROWS = tuple(
    Scenario("recovery", name, description, body, expected_alert="server-down", **how)
    for name, description, body, how in (
        (
            "crash-during-recovery",
            "restarting server dies again in the middle of its parallel redo",
            _crash_during_recovery,
            {},
        ),
        (
            "crash-during-split",
            "splitter dies with a split file still on its temp name",
            _crash_during_split,
            {},
        ),
        (
            "crash-during-adoption",
            "adopter dies mid-replay after re-homing part of a tablet",
            _crash_during_adoption,
            {},
        ),
        (
            "failover-after-split",
            "owner dies after a tablet split; the children are failed over",
            _failover_after_split,
            # Splitting needs the live-migration gate.
            {"preset": LogBaseConfig.with_live_migration, "auto_failover": True},
        ),
    )
)
