"""Tablet metadata: a horizontal partition of one table (§3.2-3.3); who
may serve it (:class:`TabletOwnership`); how owner and replica read it."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from repro.core.partition import KeyRange, ranges_cover
from repro.core.schema import TableSchema
from repro.errors import TabletMigratingError
from repro.sim.metrics import MIGRATION_LEASE_REJECTS

# Ownership lease TTL in simulated seconds.  A server whose lease lapsed
# (partitioned or paused, so the heartbeat could not renew it) rejects ops
# instead of double-serving; a fenced flip against an unreachable owner
# waits out at most this long.
LEASE_SECONDS = 0.5

# Observed keys retained per tablet for median-split estimation.
KEY_SAMPLE_CAP = 128

# Index entries fetched per ``read_many`` window when coalescing is on.
READ_BATCH_SIZE = 256


@dataclass(frozen=True)
class TabletId:
    """Stable identifier of one tablet: table name + partition ordinal."""

    table: str
    ordinal: int

    def __post_init__(self) -> None:
        # Formatted once: every write keys its heat, log record, index
        # and update counter by this name.
        object.__setattr__(self, "_name", f"{self.table}#{self.ordinal}")

    def __str__(self) -> str:
        return self._name


@dataclass(frozen=True)
class Tablet:
    """One tablet: its identity, key range, and the owning table schema."""

    tablet_id: TabletId
    key_range: KeyRange
    schema: TableSchema

    @property
    def table(self) -> str:
        """Owning table name."""
        return self.tablet_id.table

    def covers(self, key: bytes) -> bool:
        """Whether this tablet's range contains ``key``."""
        return self.key_range.contains(key)


class TabletRouter:
    """``(tablet, value)`` pairs sorted by range start, rebuilt wherever the
    tablet list changes.  :meth:`find` is one bisect and one ``covers``
    test, the linear walk's answer; iterating yields the values in order."""

    def __init__(self, pairs: Iterable[tuple[Tablet, object]]) -> None:
        self._pairs = sorted(pairs, key=lambda pair: pair[0].key_range.start)
        self._starts = [tablet.key_range.start for tablet, _ in self._pairs]

    def __iter__(self):
        return (value for _, value in self._pairs)

    def find(self, key: bytes):
        """The value paired with the tablet covering ``key``, or None."""
        position = bisect_right(self._starts, key) - 1
        if position >= 0 and self._pairs[position][0].covers(key):
            return self._pairs[position][1]
        return None


class TabletOwnership:
    """Whether one tablet server may serve each tablet it holds (§5): the
    handoff *fence*, the ownership *lease* expiry on the server's own clock
    (a paused process cannot observe a fresher clock than its own), and a
    bounded sample of accessed keys whose median is the split key.  Kept
    always, consulted only under ``config.live_migration``.  Every lease
    grant enters through the server's ``grant_lease``."""

    def __init__(self, server) -> None:
        self._server = server
        self._gated = server.config.live_migration
        self._fenced: set[str] = set()
        self._lease_until: dict[str, float] = {}
        self._samples: dict[str, list[bytes]] = {}

    def check(self, tablet_id) -> None:
        """Raise the retryable :class:`TabletMigratingError` if the tablet
        is fenced or its lease lapsed: a paused or partitioned owner whose
        lease the heartbeat could not renew must stop serving, since
        ownership may already have flipped elsewhere (the split-brain
        guard)."""
        if not self._gated:
            return
        tablet_id, name = str(tablet_id), self._server.name
        if tablet_id in self._fenced:
            raise TabletMigratingError(f"tablet {tablet_id} on {name} is mid-handoff")
        if not self.lease_valid(tablet_id):
            self._server.machine.counters.add(MIGRATION_LEASE_REJECTS)
            raise TabletMigratingError(f"{name} ownership lease for {tablet_id} lapsed")

    def may_serve(self, tablet_id) -> bool:
        """Whether :meth:`check` lets ``tablet_id`` through."""
        return not self.fenced(tablet_id) and (
            not self._gated or self.lease_valid(tablet_id)
        )

    def fenced(self, tablet_id) -> bool:
        """Whether the tablet is inside a handoff or split window."""
        return str(tablet_id) in self._fenced

    def fence(self, tablet_id) -> None:
        """Bounce ops on the tablet until :meth:`unfence`; its lease goes
        too, so a reachable owner is fenced without waiting out the TTL."""
        self._fenced.add(str(tablet_id))
        self._lease_until.pop(str(tablet_id), None)

    def unfence(self, tablet_id, *, grant: bool = False) -> None:
        """Lift the fence (handoff committed or aborted); with ``grant``,
        serve again under a fresh lease."""
        self._fenced.discard(str(tablet_id))
        if grant:
            self._server.grant_lease(tablet_id)

    def grant(self, tablet_id) -> None:
        """The body of ``TabletServer.grant_lease``."""
        self._lease_until[str(tablet_id)] = self._server.machine.clock.now + LEASE_SECONDS

    def lease_valid(self, tablet_id) -> bool:
        """Whether the server's ownership lease for the tablet is live."""
        until = self._lease_until.get(str(tablet_id))
        return until is not None and self._server.machine.clock.now <= until

    def observe(self, tablet_id: str, key: bytes, heat: float) -> None:
        """Sample an accessed key: fill to the cap, then overwrite a
        heat-indexed slot (no RNG — replays are byte-stable)."""
        if self._gated:
            sample = self._samples.setdefault(tablet_id, [])
            if len(sample) < KEY_SAMPLE_CAP:
                sample.append(key)
            else:
                sample[int(heat) % KEY_SAMPLE_CAP] = key

    def split_key(self, tablet_id) -> bytes | None:
        """Median of the tablet's key sample (None if too thin to say)."""
        sample = sorted(self._samples.get(str(tablet_id), ()))
        return sample[len(sample) // 2] if len(sample) >= 2 else None

    def drop(self, tablet_id) -> None:
        """Forget a tablet the server no longer holds."""
        self._lease_until.pop(str(tablet_id), None)
        self._fenced.discard(str(tablet_id))
        self._samples.pop(str(tablet_id), None)

    def split(self, old_id: str, left: Tablet, right: Tablet) -> float:
        """Divide ``old_id``'s sample by side, hand its lease to the halves
        and lift its fence; returns the left half's share of the sample."""
        sample = self._samples.pop(old_id, [])
        left_sample = [k for k in sample if left.covers(k)]
        self._samples[str(left.tablet_id)] = left_sample
        self._samples[str(right.tablet_id)] = [k for k in sample if not left.covers(k)]
        self._lease_until.pop(old_id, None)
        self._server.grant_lease(left.tablet_id)
        self._server.grant_lease(right.tablet_id)
        self._fenced.discard(old_id)
        return len(left_sample) / len(sample) if sample else 0.5


def hosted_cover(
    tablets: Iterable[Tablet], table: str, start_key: bytes, end_key: bytes
) -> tuple[list[Tablet], bool]:
    """``table``'s tablets among ``tablets`` sorted by range start, and
    whether they jointly cover [start_key, end_key)."""
    hosted = sorted(
        (t for t in tablets if t.table == table), key=lambda t: t.key_range.start
    )
    return hosted, ranges_cover((t.key_range for t in hosted), start_key, end_key)


def read_version(index, read, key: bytes, as_of: int | None, live=None):
    """``(timestamp, value)`` of ``key``'s newest version (at or below
    ``as_of`` when given): one index lookup, then one log ``read`` of its
    pointer.  None when there is no version, ``live`` rejects its entry,
    or the version is a tombstone."""
    entry = index.lookup_latest(key) if as_of is None else index.lookup_asof(key, as_of)
    if entry is None or (live is not None and not live(entry)):
        return None
    value = read(entry.pointer)
    return None if value is None else (entry.timestamp, value)


def live_rows(repo, entries, coalesce_gap: int | None):
    """Yield (key, timestamp, value) for each index entry whose log
    record in ``repo`` still carries a value.

    With a ``coalesce_gap`` (``config.read_coalesce_gap``) the pointers
    are drained in windows of ``READ_BATCH_SIZE`` entries and fetched via
    ``repo.read_many``, which merges near-adjacent pointers into single
    DFS reads.  Without one the seed behaviour is kept: one lazy read per
    entry, so callers that stop early (e.g. LIMIT queries) never read past
    their cursor.
    """
    if coalesce_gap is None:
        read = repo.read
        for entry in entries:
            value = read(entry.pointer)
            if value is not None:
                yield entry.key, entry.timestamp, value
        return
    entries = iter(entries)
    while batch := list(islice(entries, READ_BATCH_SIZE)):
        values = repo.read_many([entry.pointer for entry in batch])
        for entry, value in zip(batch, values):
            if value is not None:
                yield entry.key, entry.timestamp, value
