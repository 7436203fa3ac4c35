"""The contracts a chaos run checks besides the durability oracle: the
single-owner invariant (:func:`check_single_owner`) and the staleness
invariant (:class:`StalenessChecker`, :func:`probe_followers`).

Which of them a run checks follows from its config, not from the
scenario's family (see :func:`repro.chaos.runner.run_scenario`).
"""

from __future__ import annotations

from repro.chaos.oracle import encode_value
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


class StalenessChecker:
    """Tracks every key's version history (timestamp, sequence) and checks
    follower reads against the staleness invariant.

    The owner acks each write with its version timestamp, so the checker
    knows the full history.  A follower read that *succeeds* must return
    the newest version at or below the follower's watermark — anything
    newer means the follower invented data it has not applied; anything
    older means it silently served beyond its bound instead of raising
    ``FollowerLaggingError``.
    """

    def __init__(self) -> None:
        self._history: dict[bytes, list[tuple[int, int]]] = {}

    def record(self, key: bytes, timestamp: int, seq: int) -> None:
        self._history.setdefault(key, []).append((timestamp, seq))

    def check(
        self,
        key: bytes,
        watermark: int,
        result: tuple[int, bytes] | None,
    ) -> str | None:
        """Check one successful follower read; None if it upheld the
        invariant."""
        visible = [
            (ts, seq)
            for ts, seq in self._history.get(key, [])
            if ts <= watermark
        ]
        if result is None:
            if visible:
                ts, seq = max(visible)
                return (
                    f"{key!r}: follower returned absent but s{seq:08d}@{ts} "
                    f"is within its watermark {watermark}"
                )
            return None
        ts, value = result
        if ts > watermark:
            return (
                f"{key!r}: follower returned version {ts} newer than its "
                f"watermark {watermark}"
            )
        if not visible:
            return (
                f"{key!r}: follower returned version {ts} but no write is "
                f"within watermark {watermark}"
            )
        want_ts, want_seq = max(visible)
        if ts != want_ts or value != encode_value(want_seq):
            return (
                f"{key!r}: follower served {value!r}@{ts}, expected "
                f"s{want_seq:08d}@{want_ts} (latest within watermark "
                f"{watermark})"
            )
        return None


def follower_servers(db: LogBase, tablet_id: str) -> list:
    """The servers the catalog lists as hosting a replica of ``tablet_id``."""
    names = db.cluster.master.catalog.followers.get(tablet_id, [])
    return [db.cluster.server_by_name(name) for name in names]


def probe_followers(
    db: LogBase,
    checker: StalenessChecker,
    table: str,
    group: str,
    keys: list[bytes],
) -> tuple[int, int, list[str]]:
    """Direct follower reads for every key against every hosting replica,
    checked against the staleness invariant.  A lag rejection is a valid
    outcome (the client would fall back to the owner); a *successful*
    read must be exactly the latest version within the watermark.

    Returns ``(reads that upheld the invariant, lag rejections,
    violations)``.
    """
    reads_ok = lag_rejections = 0
    violations: list[str] = []
    catalog = db.cluster.master.catalog
    for key in keys:
        tablet_id = catalog.tablet_for(table, key)
        for server in follower_servers(db, tablet_id):
            if not server.machine.alive or not server.serving:
                continue
            follower = server.replicas.followers.get(tablet_id)
            if follower is None:
                violations.append(
                    f"placement: catalog lists {server.name} as a follower "
                    f"of {tablet_id} but it hosts no replica"
                )
                continue
            try:
                result = server.follower_read(table, key, group)
            except FollowerLaggingError:
                lag_rejections += 1
                continue
            problem = checker.check(key, follower.watermark, result)
            if problem is not None:
                violations.append(f"staleness: {problem}")
            else:
                reads_ok += 1
    return reads_ok, lag_rejections, violations
