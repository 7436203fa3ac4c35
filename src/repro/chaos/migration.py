"""Migration chaos: handoffs interrupted at every step must stay safe.

Live migration opens windows the recovery schedules never exercised: a
source dying while the target replays its log, a target dying inside the
fenced flip, the *master* dying with a migration half-persisted, and the
nastiest of all — the old owner partitioned away while ownership moves,
where only the lapsed lease stands between the cluster and two servers
serving the same tablet.  Each scenario here arms a fault at the matching
crash point (``CP_MIGRATION_PREPARE`` / ``CP_MIGRATION_CATCHUP`` /
``CP_MIGRATION_FLIP``, ``CP_ADOPT_MID`` between re-homed records), lets
the first attempt die mid-flight, converges
the way an operator (or a freshly-elected master) would via
:meth:`~repro.core.migration.LiveMigrator.resume`.  The rows run under
:meth:`LogBaseConfig.with_live_migration`, so every run checks the
history checker — every write acked before, during, or after the
handoff is readable afterwards, never shadowed by an older version — and
the single-owner invariant (:func:`repro.chaos.invariants.check_single_owner`).

Every tablet starts on the source and ``run.tablet_id`` is the one that
moves — except in the scale-out row, which spreads the table over all
four nodes so the rebalance has exactly one tablet to give the fifth.
"""

from __future__ import annotations

from repro.chaos.scenario import GROUP, TABLE, Run, Scenario
from repro.config import LogBaseConfig
from repro.errors import LogBaseError, SessionExpiredError, TabletMigratingError
from repro.sim.failure import CP_ADOPT_MID, CP_MIGRATION_CATCHUP, CP_MIGRATION_FLIP

SOURCE = "ts-node-0"
TARGET = "ts-node-1"


def _move(run: Run) -> None:
    """The first attempt at the handoff, which the armed fault may kill."""
    cluster = run.db.cluster
    failed = run.attempt(lambda: cluster.migrate_tablet(run.tablet_id, TARGET))
    run.observe(first_attempt_failed=failed)


def _converge(run: Run) -> None:
    """What an operator (or a freshly-elected master) does afterwards."""
    cluster = run.db.cluster
    run.observe(
        resume_outcomes=cluster.resume_migrations(),
        final_owner=cluster.master.catalog.assignments.get(run.tablet_id, ""),
    )


def _crash_and_restart(run: Run, point: str, victim: str, move=_move, **rule) -> None:
    """``victim`` dies at the hit of ``point`` that ``rule`` picks; it is
    restarted and the interrupted migration resumed."""
    run.kill_at(point, victim, **rule)
    move(run)
    # Detection tick *before* the operator reacts: the monitoring plane
    # must see the dead node, not the post-restart cluster.
    run.heartbeat()
    run.db.cluster.restart_server(victim)
    run.heartbeat()
    _converge(run)


def _crash_source_mid_catchup(run: Run) -> None:
    """The source node dies while the target is still catching up.

    Nothing has flipped, so resume aborts the migration; the restarted
    source redoes its own log (the database *is* the log) and serves
    every acked write again once the heartbeat re-grants its lease.
    """
    _crash_and_restart(
        run, CP_MIGRATION_CATCHUP, SOURCE, tablet=run.tablet_id, stage="split"
    )


def _crash_target_mid_flip(run: Run) -> None:
    """The target dies inside the fenced flip, before the commit point.

    The source is already fenced (bouncing ops) when the target goes
    down; resume either finishes the flip with the restarted target —
    its log already holds the caught-up records — or aborts back to the
    source.  Both converge to one owner.
    """
    _crash_and_restart(
        run, CP_MIGRATION_FLIP, TARGET, tablet=run.tablet_id, stage="commit"
    )


def _master_failover_mid_migration(run: Run) -> None:
    """The active master dies between catch-up and flip.

    The migration record is persisted in the coordination service, so
    the promoted standby re-reads it and converges — and the deposed
    master's expired session fences any attempt it might still make to
    advance the handoff.
    """
    cluster = run.db.cluster
    old_master = cluster.master

    def depose(ctx: dict) -> None:
        old_master.session.expire()
        raise SessionExpiredError(f"{old_master.name} deposed mid-migration")

    run.plan.add(
        CP_MIGRATION_CATCHUP, depose, tablet=run.tablet_id, stage="adopt"
    )
    _move(run)
    if cluster.master is old_master:
        run.report.violations.append(
            "failover: no standby took over the mastership"
        )
        return
    # A few more acked writes between fault and convergence — they must
    # survive the interrupted handoff too.
    run.write(run.keys[:5])
    _converge(run)
    run.heartbeat()


def _partition_old_owner(run: Run) -> None:
    """The old owner is partitioned away exactly as the flip begins.

    The master cannot tell the source to fence itself, so it waits out
    the ownership lease instead; the isolated source, still alive and
    still holding the tablet, must *reject* ops once its lease lapses —
    that rejection is the only thing preventing a double-serve.  After
    the heal, heartbeat reconciliation quietly reclaims the stale copy.
    """
    cluster = run.db.cluster
    partitions = cluster.config.network.partitions
    source = cluster.server_by_name(SOURCE)
    run.plan.add(
        CP_MIGRATION_FLIP,
        lambda ctx: partitions.isolate(source.machine.name),
        tablet=run.tablet_id,
        stage="begin",
    )
    migration = cluster.migrate_tablet(run.tablet_id, TARGET)
    if not migration.waited_lease:
        run.report.violations.append(
            "partition: flip did not wait out the unreachable owner's lease"
        )
    # The stale owner still holds the tablet but its lease has lapsed: a
    # client that never heard about the move and reaches it directly must
    # be bounced, not served.
    probe = next(k for k in run.keys if run.tablet_of(k) == run.tablet_id)
    rejected = False
    try:
        source.read(TABLE, probe, GROUP)
    except TabletMigratingError:
        rejected = True
    except LogBaseError:
        pass
    run.observe(stale_owner_rejected=rejected)
    if not rejected:
        run.report.violations.append(
            "partition: lease-lapsed old owner still served a read"
        )
    partitions.heal()
    run.heartbeat()
    _converge(run)


def _split_then_move(run: Run) -> None:
    """A child tablet migrates straight after its parent split — what the
    balancer does on consecutive ticks.

    No fault is injected; the hazard is the log itself: every record
    written before the split is stamped with the *parent's* tablet id, so
    a catch-up that trusts the stamp ships the child none of them.
    """
    cluster = run.db.cluster
    right = cluster.split_tablet(run.tablet_id).right
    cluster.migrate_tablet(right, TARGET)
    run.observe(final_owner=cluster.master.catalog.assignments.get(right, ""))


def _scale_out_interrupted(run: Run) -> None:
    """A node joins and dies while re-homing the tablet ``add_node()``
    rebalances onto it.

    Scale-out moves tablets through the same fenced mover as a live
    migration: the dying node was only *importing*, so the source is
    still the one willing owner, the persisted intent lets resume abort
    the handoff, and the operator's retried rebalance completes it —
    re-appending past whatever the first attempt left in the joiner's log.
    """
    cluster = run.db.cluster
    joining = f"ts-node-{len(cluster.machines)}"

    def join(run: Run) -> None:
        run.observe(first_attempt_failed=run.attempt(cluster.add_node))

    # hits=3: let a couple of records reach the joining node's log first.
    _crash_and_restart(run, CP_ADOPT_MID, joining, join, hits=3, server=joining)
    run.observe(rebalanced=cluster.master.rebalance())


ROWS = tuple(
    Scenario(
        "migration",
        name,
        description,
        body,
        preset=LogBaseConfig.with_live_migration,
        expected_alert=alert,
        **how,
    )
    for name, description, body, alert, how in (
        (
            "crash-source-mid-catchup",
            "source dies while the target replays its log",
            _crash_source_mid_catchup,
            "server-down",
            {},
        ),
        (
            "crash-target-mid-flip",
            "target dies inside the fenced flip, before the commit point",
            _crash_target_mid_flip,
            "server-down",
            {},
        ),
        (
            "master-failover-mid-migration",
            "active master deposed with the migration half-persisted",
            _master_failover_mid_migration,
            "server-down",
            {"masters": 2},
        ),
        (
            "partition-old-owner",
            "old owner partitioned away as the flip begins; lease fences it",
            _partition_old_owner,
            "lease-fence-rejects",
            {},
        ),
        (
            "split-then-move",
            "child tablet migrates straight after its parent split",
            _split_then_move,
            None,
            {},
        ),
        (
            "scale-out-interrupted",
            "joining node dies mid-re-home of the tablet add_node() gives it",
            _scale_out_interrupted,
            "server-down",
            # Two tablets on each node (ten records apiece), none to spare.
            {"home_servers": tuple(f"ts-node-{i}" for i in range(4)), "ops": 80},
        ),
    )
)
