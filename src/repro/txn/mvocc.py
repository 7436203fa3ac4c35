"""Multiversion optimistic concurrency control (§3.7.1).

The hybrid scheme: transactions execute a read phase against a snapshot,
then — for update transactions — a validation phase under per-record
write locks taken through the distributed lock manager in key order
(deadlock-free pre-claiming), and finally a write phase that persists
every write plus the commit record in one log batch.  Validation checks
that no record in the write set was committed past the version the
transaction observed: "first-committer-wins", which yields snapshot
isolation (Guarantee 2).

Deviation noted for the simulation: the paper's protocol *re-executes the
read phase and keeps retrying* when a lock is unavailable, because the
conflicting transaction runs on another thread and will finish.  In this
deterministic single-threaded simulation the conflicting transaction
cannot progress while we spin, so an unavailable lock aborts the
transaction immediately (the caller may restart it, which is what the
paper's retry amounts to).
"""

from __future__ import annotations

import itertools

from repro.coordination.locks import DistributedLockManager
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService, Session
from repro.core.master import Master
from repro.errors import LogBaseError, TransactionAborted, ValidationConflict
from repro.obs.trace import root_span
from repro.sim.failure import CP_TXN_POST_COMMIT, CP_TXN_PRE_COMMIT, crash_point
from repro.sim.metrics import SPAN_TXN_COMMIT
from repro.txn.transaction import Slot, Transaction, TxnStatus
from repro.txn.twopc import TwoPhaseCoordinator
from repro.wal.record import LogRecord, RecordType, commit_record


def lock_name(slot: Slot) -> str:
    """Canonical lock name for a (table, key, group) slot."""
    table, key, group = slot
    return f"{table}.{group}.{key.hex()}"


class TransactionManager:
    """Coordinates transactions over the cluster's tablet servers.

    Args:
        serializable: opt into strict serializability (§3.7.1's optional
            mode): validation additionally takes read locks and checks the
            whole read set, closing the write-skew anomaly at the cost the
            paper describes — read locks now conflict with writers.
    """

    def __init__(
        self,
        master: Master,
        tso: TimestampOracle,
        coordination: CoordinationService,
        *,
        serializable: bool = False,
    ) -> None:
        self._master = master
        self._tso = tso
        self._coordination = coordination
        self._locks = DistributedLockManager(coordination)
        self._txn_ids = itertools.count(1)
        self._sessions: dict[int, Session] = {}
        self.serializable = serializable
        self.commits = 0
        self.aborts = 0
        self.read_only_commits = 0

    # -- lifecycle -------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction on the current snapshot."""
        txn_id = next(self._txn_ids)
        txn = Transaction(
            txn_id=txn_id, read_ts=self._tso.read_timestamp(), manager=self
        )
        self._sessions[txn_id] = self._coordination.connect(f"txn-{txn_id}")
        return txn

    def abort(self, txn: Transaction) -> None:
        """Abort ``txn``: release its locks and session, drop buffered writes."""
        self._release_locks(txn)
        self._cleanup_session(txn)
        txn.status = TxnStatus.ABORTED
        self.aborts += 1

    def restart(self, txn: Transaction) -> Transaction:
        """Begin a fresh attempt of an aborted transaction (paper: failed
        validation restarts the transaction)."""
        fresh = self.begin()
        fresh.restarts = txn.restarts + 1
        return fresh

    # -- read phase ---------------------------------------------------------------------

    def read(self, txn: Transaction, table: str, key: bytes, group: str) -> bytes | None:
        """Snapshot read; records the observed version for validation."""
        slot: Slot = (table, key, group)
        if slot in txn.writes:
            return txn.writes[slot]
        server_name, _ = self._master.locate(table, key)
        server = self._master.server(server_name)
        result = server.read(table, key, group, as_of=txn.read_ts - 1)
        observed = 0 if result is None else result[0]
        txn.read_versions.setdefault(slot, observed)
        return None if result is None else result[1]

    def scan(
        self,
        txn: Transaction,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
    ) -> list[tuple[bytes, bytes]]:
        """Snapshot range scan overlaid with the transaction's own writes."""
        merged: dict[bytes, bytes | None] = {}
        for server_name, tablet in self._master.locations(table):
            if end_key <= tablet.key_range.start:
                continue
            if tablet.key_range.end is not None and tablet.key_range.end <= start_key:
                continue
            server = self._master.server(server_name)
            for key, _, value in server.range_scan(
                table, group, start_key, end_key, as_of=txn.read_ts - 1
            ):
                merged[key] = value
        for (slot_table, key, slot_group), value in txn.writes.items():
            if slot_table == table and slot_group == group and start_key <= key < end_key:
                merged[key] = value
        return [
            (key, value) for key, value in sorted(merged.items()) if value is not None
        ]

    def stage_write(
        self, txn: Transaction, table: str, key: bytes, group: str, value: bytes | None
    ) -> None:
        """Buffer a write; records the current version if the slot was not
        read first (no blind writes enter validation unchecked)."""
        slot: Slot = (table, key, group)
        if slot not in txn.read_versions:
            server_name, _ = self._master.locate(table, key)
            server = self._master.server(server_name)
            current = server.read_version_timestamp(table, key, group)
            txn.read_versions[slot] = current if current is not None else 0
        txn.writes[slot] = value

    # -- validation + write phase (commit) --------------------------------------------------

    def commit(self, txn: Transaction) -> int:
        """Validate and commit ``txn``; returns its commit timestamp."""
        if txn.is_read_only:
            # Read-only transactions "always commit successfully" (§3.7.1).
            txn.status = TxnStatus.COMMITTED
            txn.commit_ts = txn.read_ts
            self.read_only_commits += 1
            self._cleanup_session(txn)
            return txn.read_ts

        self._acquire_locks(txn)
        try:
            self._validate(txn)
            commit_ts = self._tso.next_timestamp()
            self._write_phase(txn, commit_ts)
        except TransactionAborted:
            self._release_locks(txn)
            self._cleanup_session(txn)
            txn.status = TxnStatus.ABORTED
            self.aborts += 1
            raise
        except LogBaseError as exc:
            # A participant failed mid-commit (e.g. server down): the
            # transaction aborts; any prepared-but-uncommitted writes stay
            # invisible and vanish at compaction.
            self._release_locks(txn)
            self._cleanup_session(txn)
            txn.status = TxnStatus.ABORTED
            self.aborts += 1
            raise TransactionAborted(f"commit failed: {exc}") from exc
        self._release_locks(txn)
        txn.status = TxnStatus.COMMITTED
        txn.commit_ts = commit_ts
        self.commits += 1
        self._cleanup_session(txn)
        return commit_ts

    def _holder(self, txn: Transaction) -> str:
        return f"txn-{txn.txn_id}"

    def _lock_slots(self, txn: Transaction) -> list:
        """Slots to lock at validation: the write set, plus the read set
        under strict serializability (read locks, §3.7.1)."""
        slots = set(txn.writes)
        if self.serializable:
            slots |= set(txn.read_versions)
        return sorted(slots, key=lock_name)

    def _acquire_locks(self, txn: Transaction) -> None:
        """Take validation locks in canonical key order (deadlock
        avoidance: every transaction requests locks in the same sequence,
        §3.7.1)."""
        session = self._sessions[txn.txn_id]
        for slot in self._lock_slots(txn):
            if not self._locks.try_acquire(session, lock_name(slot), self._holder(txn)):
                raise TransactionAborted(
                    f"lock on {lock_name(slot)} held by "
                    f"{self._locks.holder(lock_name(slot))}"
                )

    def _release_locks(self, txn: Transaction) -> None:
        session = self._sessions.get(txn.txn_id)
        if session is None or session.expired:
            return
        holder = self._holder(txn)
        for slot in self._lock_slots(txn):
            if self._locks.holder(lock_name(slot)) == holder:
                self._locks.release(session, lock_name(slot), holder)

    def _cleanup_session(self, txn: Transaction) -> None:
        session = self._sessions.pop(txn.txn_id, None)
        if session is not None:
            session.expire()

    def _validate(self, txn: Transaction) -> None:
        """First-committer-wins check: every write-set record must still be
        at the version this transaction observed.  Strict-serializable
        mode extends the check to the whole read set, which turns the
        write-skew cycle into a validation failure."""
        for slot, observed in sorted(txn.read_versions.items(), key=lambda i: i[0]):
            if slot not in txn.writes and not self.serializable:
                continue  # snapshot isolation validates the write set only
            table, key, group = slot
            server_name, _ = self._master.locate(table, key)
            server = self._master.server(server_name)
            current = server.read_version_timestamp(table, key, group)
            current_ts = current if current is not None else 0
            if current_ts != observed:
                raise ValidationConflict(
                    f"{slot}: observed version {observed}, now {current_ts}"
                )

    def _write_phase(self, txn: Transaction, commit_ts: int) -> None:
        """Persist writes + commit record; single-server commits use one
        log batch, multi-server commits run two-phase commit."""
        by_server: dict[str, list[LogRecord]] = {}
        for (table, key, group), value in txn.writes.items():
            server_name, tablet = self._master.locate(table, key)
            record = LogRecord(
                record_type=RecordType.WRITE if value is not None else RecordType.INVALIDATE,
                txn_id=txn.txn_id,
                table=table,
                tablet=str(tablet.tablet_id),
                key=key,
                group=group,
                timestamp=commit_ts,
                value=value,
            )
            by_server.setdefault(server_name, []).append(record)

        # Anchored on the first participant's machine (the manager itself
        # runs on no machine); root-capable so a bare txn workload on a
        # traced cluster still produces traces.
        first_server = self._master.server(next(iter(by_server)))
        with root_span(
            SPAN_TXN_COMMIT, first_server.machine,
            txn=txn.txn_id, participants=len(by_server),
        ):
            if len(by_server) == 1:
                # The common, entity-group-friendly case: no 2PC needed (§3.2).
                (server_name, records), = by_server.items()
                server = self._master.server(server_name)
                crash_point(CP_TXN_PRE_COMMIT, txn=txn.txn_id, server=server_name)
                appended = server.append_transactional(
                    records + [commit_record(txn.txn_id, commit_ts)]
                )
                # The commit record is durable here; a crash before the apply
                # below loses only in-memory state, and redo re-applies it.
                crash_point(CP_TXN_POST_COMMIT, txn=txn.txn_id, server=server_name)
                server.apply_committed(appended)
            else:
                coordinator = TwoPhaseCoordinator(self._master)
                coordinator.execute(txn.txn_id, commit_ts, by_server)

    # -- metrics ---------------------------------------------------------------------------

    @property
    def abort_rate(self) -> float:
        """Fraction of finished update transactions that aborted."""
        finished = self.commits + self.aborts
        return self.aborts / finished if finished else 0.0
