"""What a chaos run checks against live cluster state: the single-owner
invariant (:func:`check_single_owner`), and the follower probes
(:func:`probe_followers`) whose reads the history checker judges.

Which of them a run checks follows from its config, not from the
scenario's family (see :func:`repro.chaos.runner.run_scenario`).
"""

from __future__ import annotations

from repro.chaos.scenario import GROUP, TABLE, Run
from repro.core.database import LogBase
from repro.errors import FollowerLaggingError


def check_single_owner(db: LogBase) -> list[str]:
    """The single-owner invariant, checked against live cluster state.

    For every catalog-assigned tablet, at most one live server may be
    *willing to serve* it — holding it, unfenced, with a valid ownership
    lease — and when one is, it must be the catalog owner.  Holding
    stale state is fine (a partitioned ex-owner keeps its indexes until
    heartbeat reconciliation reclaims them), and an owner temporarily
    unable to serve — dead, mid-flip, lease lapsed — is an availability
    gap, not a safety violation.
    """
    violations: list[str] = []
    catalog = db.cluster.master.catalog
    for tablet_id, owner in catalog.assignments.items():
        willing = [
            server.name
            for server in db.cluster.servers
            if server.machine.alive
            and server.serving
            and tablet_id in server.tablets
            and server.ownership.may_serve(tablet_id)
        ]
        if len(willing) > 1:
            violations.append(
                f"single-owner: {tablet_id} served by {sorted(willing)}"
            )
        elif willing and willing[0] != owner:
            violations.append(
                f"single-owner: {tablet_id} served by {willing[0]}, "
                f"catalog says {owner}"
            )
    return violations


def follower_servers(db: LogBase, tablet_id: str) -> list:
    """The servers the catalog lists as hosting a replica of ``tablet_id``."""
    names = db.cluster.master.catalog.followers.get(tablet_id, [])
    return [db.cluster.server_by_name(name) for name in names]


def probe_followers(run: Run) -> None:
    """A direct follower read of every key written, against every replica
    hosting it, recorded at the follower's watermark for the history
    checker to judge.  A lag rejection is a valid outcome (the client
    would fall back to the owner); a replica the catalog lists but no
    server hosts is a placement violation."""
    db, report, history = run.db, run.report, run.history
    catalog = db.cluster.master.catalog
    served = rejections = 0
    for key in history.keys:
        tablet_id = catalog.tablet_for(TABLE, key)
        for server in follower_servers(db, tablet_id):
            if not server.machine.alive or not server.serving:
                continue
            follower = server.replicas.followers.get(tablet_id)
            if follower is None:
                report.violations.append(
                    f"placement: catalog lists {server.name} as a follower "
                    f"of {tablet_id} but it hosts no replica"
                )
                continue
            op = history.invoke()
            try:
                result = server.follower_read(TABLE, key, GROUP)
            except FollowerLaggingError:
                rejections += 1
            else:
                op.reads[key] = None if result is None else result[1]
                served += 1
            history.end(op, snapshot=follower.watermark)
    run.observe(
        followers_placed=sum(map(len, catalog.followers.values())),
        follower_reads_ok=served,
        lag_rejections=report.observed.get("lag_rejections", 0) + rejections,
    )
