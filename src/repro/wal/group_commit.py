"""Group commit: the one way a tablet server appends to its log
(BtrLog-style leader/follower batching, §3.7.2's batched log persistence).

A blocking write is a submission that waits (:meth:`CommitCoordinator.commit`).
With nothing queued its records form a group of one and append at once —
no leader window, no deferred ack — so it charges exactly what
:meth:`~repro.wal.repository.LogRepository.append_batch` charges.  Under
concurrent clients (:meth:`CommitCoordinator.submit`) the first
submission to an idle coordinator becomes a group *leader* and waits
``max_delay`` for followers; every submission arriving inside that window
joins the open group until the record/byte budget fills.  A sealed group
lands with a single ``append_batch`` — one DFS replication round trip for
the whole group — and every member is acked only once the group is
durable.

With pipelining on, the coordinator defers the replication-ack drain
(:func:`repro.dfs.filesystem.defer_replication_acks`): the next group's
data starts streaming as soon as the previous group's data is on the
replicas, while the previous group's acks travel back up the pipeline.
Members are still acked at their own group's ack-drain time, so
durability semantics are unchanged — only the pipeline idle time between
groups is removed.

Submissions are event-driven in virtual time: they never block.
Callers either poll the coordinator through the scheduler protocol
(:meth:`CommitCoordinator.next_due` / :meth:`CommitCoordinator.run_due`,
what :class:`repro.sim.scheduler.ConcurrentScheduler` does) or call
:meth:`CommitCoordinator.drain` to flush everything pending.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.dfs.filesystem import defer_replication_acks
from repro.errors import ServerDownError
from repro.obs.hist import Histogram
from repro.obs.trace import root_span
from repro.sim.machine import Machine
from repro.sim.metrics import (
    COMMIT_ACKS_DEFERRED,
    COMMIT_GROUP_FANIN,
    COMMIT_GROUPS,
    HIST_COMMIT_FANIN,
    HIST_COMMIT_LATENCY,
    SPAN_COMMIT_FLUSH,
)
from repro.wal.record import LogPointer, LogRecord
from repro.wal.repository import LogRepository

# Framing overhead assumed per record when enforcing the byte budget; the
# budget gates group growth, so an estimate (encoding happens only at
# flush, after LSN assignment) is sufficient.
_RECORD_OVERHEAD = 32


def _estimated_size(record: LogRecord) -> int:
    return (
        len(record.key)
        + len(record.value or b"")
        + len(record.group)
        + len(record.table)
        + _RECORD_OVERHEAD
    )


class CommitFuture:
    """The outcome of one submission to the commit coordinator.

    Resolved when the member's group flushes: ``appended`` holds the
    member's (pointer, stamped record) pairs and ``completion_time`` the
    virtual time its durability ack reached the coordinator.  A crash
    mid-flush resolves the future with ``error`` instead — no member of a
    group that did not replicate is ever acked.
    """

    __slots__ = ("arrival", "records", "token", "appended", "completion_time", "error", "_on_durable")

    def __init__(
        self,
        arrival: float,
        records: list[LogRecord],
        on_durable: Callable[[list[tuple[LogPointer, LogRecord]]], None] | None,
        token,
    ) -> None:
        self.arrival = arrival
        self.records = records
        self.token = token
        self.appended: list[tuple[LogPointer, LogRecord]] | None = None
        self.completion_time: float | None = None
        self.error: BaseException | None = None
        self._on_durable = on_durable

    @property
    def done(self) -> bool:
        """Whether the future is resolved (acked or failed)."""
        return self.appended is not None or self.error is not None

    @property
    def acked(self) -> bool:
        """Whether the member's group reached durability."""
        return self.appended is not None

    def result(self) -> list[tuple[LogPointer, LogRecord]]:
        """The member's appended (pointer, record) pairs.

        Raises the member's failure, or RuntimeError if the group has not
        flushed yet (drain the coordinator first).
        """
        if self.error is not None:
            raise self.error
        if self.appended is None:
            raise RuntimeError("commit future unresolved: drain the coordinator")
        return self.appended


class _Group:
    """One open or sealed commit group."""

    __slots__ = ("futures", "records", "bytes", "opened_at", "seal_time")

    def __init__(self, opened_at: float, seal_time: float) -> None:
        self.futures: list[CommitFuture] = []
        self.records = 0
        self.bytes = 0
        self.opened_at = opened_at
        self.seal_time = seal_time


class CommitCoordinator:
    """Leader/follower group commit over one server's log repository.

    Args:
        log: the server's log repository (flush target).
        machine: the server's machine; flushes charge its clock.
        max_delay: seconds a group leader waits for followers before the
            group seals (a full group seals immediately).
        max_records: record budget per group.
        max_bytes: estimated-byte budget per group (None = uncapped).
        pipeline: overlap the next group's data stream with the previous
            group's ack drain.
    """

    def __init__(
        self,
        log: LogRepository,
        machine: Machine,
        *,
        max_delay: float = 0.002,
        max_records: int = 16,
        max_bytes: int | None = None,
        pipeline: bool = True,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self._log = log
        self._machine = machine
        self._max_delay = max_delay
        self._max_records = max_records
        self._max_bytes = max_bytes
        self._pipeline = pipeline
        self._open: _Group | None = None
        self._sealed: deque[_Group] = deque()
        # Virtual time at which the replication pipeline can take the
        # next group's data stream.
        self._pipe_free_at = 0.0
        self.latency = Histogram(HIST_COMMIT_LATENCY)
        self.fanin = Histogram(HIST_COMMIT_FANIN)

    def reset_clock(self) -> None:
        """The machine clock was zeroed (between benchmark phases): the
        pipeline is idle from the new time origin."""
        self._pipe_free_at = 0.0

    # -- submission ----------------------------------------------------------------

    def commit(
        self,
        records: list[LogRecord],
        *,
        on_durable: Callable[[list[tuple[LogPointer, LogRecord]]], None] | None = None,
    ) -> list[tuple[LogPointer, LogRecord]]:
        """Blocking write: append ``records`` and return their (pointer,
        stamped record) pairs once they are durable.

        With nothing queued the records are a group of one and append at
        once on the machine's clock.  Otherwise they join the open group,
        everything pending flushes, and the clock waits for this member's
        ack; a flush that fails raises here, with no member acked.
        ``on_durable`` runs before this returns.
        """
        if self._open is None and not self._sealed:
            appended = self._log.append_batch(records)
            counters = self._machine.counters
            counters.add(COMMIT_GROUPS)
            counters.add(COMMIT_GROUP_FANIN)
            if on_durable is not None:
                on_durable(appended)
            return appended
        future = self.submit(self._machine.clock.now, records, on_durable=on_durable)
        self.drain()
        self._machine.clock.advance_to(future.completion_time)
        return future.result()

    @property
    def pending(self) -> int:
        """Unflushed member submissions (open + sealed groups)."""
        total = sum(len(g.futures) for g in self._sealed)
        if self._open is not None:
            total += len(self._open.futures)
        return total

    def submit(
        self,
        arrival: float,
        records: list[LogRecord],
        *,
        on_durable: Callable[[list[tuple[LogPointer, LogRecord]]], None] | None = None,
        token=None,
    ) -> CommitFuture:
        """Join the open group (or lead a new one); returns the member's
        future.

        ``arrival`` is the submission's virtual time — it must be
        non-decreasing across calls (the scheduler delivers submissions in
        virtual-time order).  ``on_durable`` runs at flush time, before
        the future resolves; the tablet server uses it to install index
        entries only once the group is durable.
        """
        future = CommitFuture(arrival, list(records), on_durable, token)
        size = sum(_estimated_size(r) for r in future.records)
        group = self._open
        if group is not None and not self._joinable(group, arrival, len(future.records), size):
            # The leader's window closed (or the budget is full) before
            # this submission arrived: seal, and lead a new group.
            self._sealed.append(group)
            group = None
        if group is None:
            group = _Group(arrival, arrival + self._max_delay)
            self._open = group
        group.futures.append(future)
        group.records += len(future.records)
        group.bytes += size
        if group.records >= self._max_records or (
            self._max_bytes is not None and group.bytes >= self._max_bytes
        ):
            # Budget full: no point waiting out the window.
            group.seal_time = arrival
            self._sealed.append(group)
            self._open = None
        return future

    def _joinable(self, group: _Group, arrival: float, records: int, size: int) -> bool:
        if arrival > group.seal_time:
            return False
        if group.records + records > self._max_records:
            return False
        if self._max_bytes is not None and group.bytes + size > self._max_bytes:
            return False
        return True

    # -- scheduler protocol --------------------------------------------------------

    def next_due(self) -> float | None:
        """The next virtual time at which :meth:`run_due` makes progress,
        or None when nothing is pending."""
        if self._sealed:
            return max(self._sealed[0].seal_time, self._pipe_free_at)
        if self._open is not None:
            return max(self._open.seal_time, self._pipe_free_at)
        return None

    def run_due(self, now: float) -> list[CommitFuture]:
        """Seal and flush every group due by ``now``; returns the futures
        resolved (acked or failed) by those flushes."""
        resolved: list[CommitFuture] = []
        while True:
            if self._open is not None and self._open.seal_time <= now:
                self._sealed.append(self._open)
                self._open = None
            if not self._sealed:
                break
            start = max(self._sealed[0].seal_time, self._pipe_free_at)
            if start > now:
                break
            resolved.extend(self._flush(self._sealed.popleft(), start))
        return resolved

    def drain(self) -> list[CommitFuture]:
        """Flush everything pending regardless of due times (end of a
        run, or synchronous callers that want their ack now)."""
        resolved: list[CommitFuture] = []
        if self._open is not None:
            self._sealed.append(self._open)
            self._open = None
        while self._sealed:
            group = self._sealed.popleft()
            resolved.extend(self._flush(group, max(group.seal_time, self._pipe_free_at)))
        return resolved

    def abandon(self, error: BaseException | None = None) -> list[CommitFuture]:
        """Fail every pending submission (server crash: un-flushed groups
        lived only in memory and are lost)."""
        if error is None:
            error = ServerDownError(
                f"server {self._machine.name} crashed with commit groups pending"
            )
        failed: list[CommitFuture] = []
        if self._open is not None:
            self._sealed.append(self._open)
            self._open = None
        while self._sealed:
            failed.extend(self._fail(self._sealed.popleft(), error))
        return failed

    # -- flush ---------------------------------------------------------------------

    def _flush(self, group: _Group, start: float) -> list[CommitFuture]:
        machine = self._machine
        if not machine.alive:
            return self._fail(
                group, ServerDownError(f"server {machine.name} is down")
            )
        records = [r for f in group.futures for r in f.records]
        machine.clock.advance_to(start)
        deferred = 0.0
        try:
            # A root span: on a traced machine a group flush outside any
            # client op is its own trace, as maintenance is.
            with root_span(
                SPAN_COMMIT_FLUSH, machine,
                records=len(records), members=len(group.futures),
            ):
                if self._pipeline:
                    with defer_replication_acks() as acks:
                        appended = self._log.append_batch(records)
                    deferred = acks.seconds
                else:
                    appended = self._log.append_batch(records)
        except BaseException as exc:
            # A crash mid-flush (crash point, dead datanodes, partition)
            # means the group's durability is unknown at best: never ack
            # any member of it.
            return self._fail(group, exc)
        data_done = machine.clock.now
        completion = data_done + deferred
        # With pipelining the data stream frees up as soon as the payload
        # is on the replicas; the acks drain while the next group streams.
        # Without it the pipeline is held until the ack returns (and the
        # clock already paid the wait inside append_batch).
        self._pipe_free_at = data_done if self._pipeline else completion
        counters = machine.counters
        counters.add(COMMIT_GROUPS)
        counters.add(COMMIT_GROUP_FANIN, len(group.futures))
        if deferred > 0.0:
            counters.add(COMMIT_ACKS_DEFERRED, len(group.futures))
        self.fanin.record(float(len(group.futures)))
        offset = 0
        for future in group.futures:
            future.appended = appended[offset : offset + len(future.records)]
            offset += len(future.records)
            future.completion_time = completion
            if future._on_durable is not None:
                future._on_durable(future.appended)
            self.latency.record(completion - future.arrival)
        return list(group.futures)

    def _fail(self, group: _Group, error: BaseException) -> list[CommitFuture]:
        now = self._machine.clock.now
        for future in group.futures:
            future.error = error
            future.completion_time = now
        return list(group.futures)
