"""Replica chaos: bounded-staleness reads must stay bounded under faults.

Read replicas add a new class of lies a database can tell: a follower
serving data *newer than it has durably applied* (phantom reads from a
torn tail), serving *older data than its staleness bound promises*, or —
the replication twin of the split-brain — applying a deposed owner's
post-fence log records after ownership moved.  Each scenario here drives
the seeded cluster into one of those windows.  The rows run under
:meth:`LogBaseConfig.with_read_replicas`, so every run checks the
single-owner invariant and the history checker
(:mod:`repro.chaos.history`) over the replica-routed client's reads
(follower first, owner fallback) and a probe of every follower.  The
bodies add what only they can see:

* a follower beyond its bound **rejects** instead of serving;
* **fencing** — after a live migration flips ownership, no server keeps
  a replica fed from the deposed owner's log; and
* **install** — a run and its index left behind by an owner that died
  before the ``segments.meta`` swap are never admitted by a follower.
"""

from __future__ import annotations

from repro.chaos.invariants import follower_servers
from repro.chaos.scenario import GROUP, TABLE, Run, Scenario
from repro.config import LogBaseConfig
from repro.errors import FollowerLaggingError
from repro.sim.failure import CP_COMPACTION_MID

OWNER = "ts-node-0"
TARGET = "ts-node-1"


def _first_follower(run: Run):
    """A server hosting a replica of the targeted tablet; None (and a
    violation) when the preload's heartbeats placed none."""
    followers = follower_servers(run.db, run.tablet_id)
    if not followers:
        run.report.violations.append(
            f"placement: no follower placed for {run.tablet_id}"
        )
        return None
    return followers[0]


def _probe_key(run: Run) -> bytes:
    return next(k for k in run.keys if run.tablet_of(k) == run.tablet_id)


def _stale_follower_reads(run: Run) -> None:
    """Writes race ahead of the tail: the follower must reject, not lie.

    With no heartbeat ticking, the follower's watermark freezes while the
    owner keeps committing.  A direct read under a tight bound must raise
    ``FollowerLaggingError`` — and the replica-routed client must still
    return the latest acked value via owner fallback.  Once heartbeats
    resume, the same replica serves again, caught up.
    """
    db = run.db
    run.write(run.keys[: len(run.keys) // 2])
    stale = _first_follower(run)
    if stale is None:
        return
    # Let simulated time pass on the follower without a tail pass so it
    # is beyond both the per-request bound below and the config default
    # (the client's replica routing must reject it too, not serve stale).
    stale.machine.clock.advance(db.cluster.config.replica_max_staleness + 1.0)
    monitor = db.cluster.monitor
    if monitor is not None:
        # The heartbeat's tail pass would catch the follower back up
        # before the end-of-heartbeat scrape could see it, so this
        # scenario scrapes directly: the monitoring plane must witness
        # the lag while it exists, exactly as a scrape racing the next
        # tail pass would in production.
        monitor.note_fault(
            "stale-follower", {"node": stale.name, "tablet": run.tablet_id}
        )
        monitor.tick(force=True)
    probe = _probe_key(run)
    try:
        result = stale.follower_read(TABLE, probe, GROUP, max_staleness=0.5)
    except FollowerLaggingError:
        run.observe(lag_rejections=1)  # the settle probe adds its own
    else:
        run.report.violations.append(
            f"staleness: {probe!r}: follower {stale.name} served {result!r} "
            f"while stale beyond a 0.5s bound"
        )
    # The client's replica routing hides the lag: owner fallback still
    # returns the latest acked value.
    run.read(run.client, probe)


def _follower_crash_catchup(run: Run) -> None:
    """A follower node dies; reads survive, and the replica comes back.

    Losing a follower must cost nothing but capacity: writes keep acking
    through the owner, the heartbeat re-places the replica on a live
    server, and the restarted node — whose replica state died with its
    memory — re-follows from the log start and catches all the way up.
    """
    cluster = run.db.cluster
    follower = _first_follower(run)
    if follower is None:
        return
    victim = follower.name
    cluster.kill_node(victim)
    run.write(run.keys[: len(run.keys) // 2])
    # Re-placement: the dead node drops out of the candidate set.
    run.heartbeat()
    if victim in cluster.master.catalog.followers.get(run.tablet_id, []):
        run.report.violations.append(
            f"placement: dead node {victim} still listed as a follower "
            f"of {run.tablet_id}"
        )
    cluster.restart_server(victim)
    run.report.restarted_servers.append(victim)


def _fencing_on_migration(run: Run) -> None:
    """Ownership moves; no replica may keep applying the deposed owner.

    The migration bumps the tablet's ownership epoch and must tear every
    replica down *inside* the handoff — a follower that kept tailing the
    old owner's log would apply records the fence already rejected.  The
    heartbeat then re-places replicas against the new owner, and a client
    holding cached follower routes re-resolves on the first
    ``TabletMigratingError`` instead of spinning on a torn-down replica.
    """
    cluster = run.db.cluster
    tablet_id = run.tablet_id
    client = run.db.client(cluster.machines[run.scenario.client_node])
    probe = _probe_key(run)
    client.get_raw(TABLE, probe, GROUP)  # warm the follower-route cache
    cluster.migrate_tablet(tablet_id, TARGET)
    # Fencing: inside the flip, every replica of the moved tablet was
    # torn down — none may still be fed from the deposed owner's log.
    for server in cluster.servers:
        follower = server.replicas.followers.get(tablet_id)
        if follower is not None:
            run.report.violations.append(
                f"fencing: {server.name} still hosts a replica of "
                f"{tablet_id} fed by {follower.owner_name} after the flip"
            )
    run.write(run.keys[: len(run.keys) // 2])
    # The warmed client must converge on the new topology, not error out
    # against the torn-down follower it had cached.
    run.read(client, probe)
    # Re-placement points the new replicas at the new owner.
    run.heartbeat()
    for server in follower_servers(run.db, tablet_id):
        follower = server.replicas.followers.get(tablet_id)
        if follower is not None and follower.owner_name != TARGET:
            run.report.violations.append(
                f"fencing: re-placed replica on {server.name} follows "
                f"{follower.owner_name}, not the new owner {TARGET}"
            )


def _compaction_crash_before_install(run: Run) -> None:
    """The owner dies between writing a run's index and naming the run.

    The plan's inputs stay authoritative: the followers, tailing in that
    window, must not admit the unnamed run (nor open its index), and the
    restarted owner's retried compaction — which vacuums the orphan pair
    as scopeless tail garbage — must leave them re-homed onto a run the
    map does name.
    """
    cluster = run.db.cluster
    owner = cluster.server_by_name(OWNER)
    run.write(run.keys[: len(run.keys) // 2])
    run.kill_at(CP_COMPACTION_MID, OWNER, machine=owner.machine.name)
    failed = run.attempt(owner.compact)
    run.heartbeat()  # a tail pass over the dead owner's directory
    for server in follower_servers(run.db, run.tablet_id):
        tailer = server.replicas.tailers.get(OWNER)
        if tailer is not None and any(
            tailer.repo.is_sorted_segment(n) for n in tailer.repo.segments()
        ):
            run.report.violations.append(
                f"install: {server.name} admitted a run {OWNER} never installed"
            )
    cluster.restart_server(OWNER)
    run.report.restarted_servers.append(OWNER)
    owner.compact()
    run.observe(first_attempt_failed=failed)


ROWS = tuple(
    Scenario(
        "replica",
        name,
        description,
        body,
        preset=LogBaseConfig.with_read_replicas,
        expected_alert=alert,
    )
    for name, description, body, alert in (
        (
            "stale-follower-reads",
            "writes race ahead of the tail; the follower must reject, not lie",
            _stale_follower_reads,
            "replica-lag-high",
        ),
        (
            "follower-crash-catchup",
            "a follower node dies, is re-placed, restarts and catches up",
            _follower_crash_catchup,
            "server-down",
        ),
        (
            # Injects no fault (the migration it runs is sanctioned), so
            # there is nothing for the monitoring plane to detect.
            "fencing-on-migration",
            "ownership moves; every replica of the deposed owner is torn down",
            _fencing_on_migration,
            None,
        ),
        (
            "compaction-crash-before-install",
            "owner dies with a run and its index written, the map not swapped",
            _compaction_crash_before_install,
            "server-down",
        ),
    )
)
