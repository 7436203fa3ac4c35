"""Virtual-time scheduler multiplexing N logical clients over the
simulated cluster.

The seed workload drivers issue one operation at a time, so nothing ever
overlaps in simulated time and group commit would have nothing to batch.
This scheduler fixes that: each logical client is a Python generator
yielding *actions*; the scheduler owns each client's virtual timeline and
always steps the earliest-time runnable client next, so operations from
different clients genuinely interleave in simulated time.

Actions a client generator may yield:

- :class:`Invoke` — a synchronous operation.  ``fn(now)`` runs the op
  against the cluster and returns ``(result, seconds)``; the client's
  timeline advances by ``seconds`` and the generator receives the same
  ``(result, seconds)`` pair back.
- :class:`Submit` — an asynchronous group-commit submission.  ``fn(now)``
  returns a :class:`~repro.wal.group_commit.CommitFuture`; the client
  *parks* until the future's group flushes, then resumes at the future's
  completion time with the resolved future as the yield's value.
- :class:`Advance` — client-local think/transfer time.

Commit coordinators registered with the scheduler are polled between
client events: when the next coordinator deadline (an open group's seal
time, or a sealed group waiting for the replication pipeline) precedes
every runnable client, the due groups flush and their parked clients are
woken.  This is the event-driven core the ROADMAP's scale items need —
two clients' commit waits overlap instead of serializing.

Exceptions raised by an action's ``fn`` are re-thrown *inside* the
client's generator, so drivers handle cluster errors with an ordinary
``try/except`` around the ``yield``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable


@dataclass(frozen=True)
class Invoke:
    """Synchronous op: ``fn(now) -> (result, seconds)``."""

    fn: Callable[[float], tuple[Any, float]]


@dataclass(frozen=True)
class Submit:
    """Group-commit submission: ``fn(now) -> CommitFuture``; the client
    parks until the future resolves."""

    fn: Callable[[float], Any]


@dataclass(frozen=True)
class Advance:
    """Advance the client's own timeline by ``seconds``."""

    seconds: float


def measured(machine, fn: Callable[[float], Any]) -> Callable[[float], tuple[Any, float]]:
    """Wrap a cluster operation as an :class:`Invoke`-compatible fn.

    Scheduler steps execute serially in real time while machine clocks
    accumulate resource-time, so the virtual duration of one step is the
    machine-clock delta around it: ``fn(now)`` runs the operation against
    the cluster and ``measured`` returns ``(result, clock delta)``.  The
    fast-recovery workers use this to charge each redo slice to its
    worker's virtual timeline.
    """

    def invoke(now: float) -> tuple[Any, float]:
        start = machine.clock.now
        result = fn(now)
        return result, machine.clock.now - start

    return invoke


class _Raise:
    """Internal event payload: re-throw ``error`` inside the generator."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class _Client:
    __slots__ = ("gen", "now")

    def __init__(self, gen: Generator, now: float) -> None:
        self.gen = gen
        self.now = now


class ConcurrentScheduler:
    """Interleaves logical-client generators in virtual-time order.

    Args:
        coordinators: commit coordinators to poll between client events.
    """

    def __init__(self, coordinators: Iterable = ()) -> None:
        self._coordinators = list(coordinators)
        self._heap: list[tuple[float, int, _Client, Any]] = []
        self._seq = 0
        self._parked: dict[int, tuple[Any, _Client]] = {}
        self.makespan = 0.0
        self.finished = 0

    def add_client(self, gen: Generator, *, at: float = 0.0) -> None:
        """Add a logical client starting at virtual time ``at``."""
        self._push(_Client(gen, at), None)

    # -- event loop ----------------------------------------------------------------

    def run(self) -> float:
        """Run every client to completion; returns the makespan (latest
        virtual time any client finished at)."""
        while True:
            next_client = self._heap[0][0] if self._heap else None
            next_flush = None
            for coordinator in self._coordinators:
                due = coordinator.next_due()
                if due is not None and (next_flush is None or due < next_flush):
                    next_flush = due
            if next_client is None and next_flush is None:
                if self._parked:
                    # A parked client's future came from a coordinator
                    # this scheduler does not poll: nothing will ever
                    # resolve it.
                    raise RuntimeError(
                        f"{len(self._parked)} client(s) parked on commit futures "
                        "with no registered coordinator due"
                    )
                break
            if next_flush is not None and (
                next_client is None or next_flush <= next_client
            ):
                for coordinator in self._coordinators:
                    for future in coordinator.run_due(next_flush):
                        self._wake(future)
                continue
            _, _, client, payload = heapq.heappop(self._heap)
            self._step(client, payload)
        return self.makespan

    # -- internals -----------------------------------------------------------------

    def _push(self, client: _Client, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (client.now, self._seq, client, payload))

    def _wake(self, future) -> None:
        entry = self._parked.pop(id(future), None)
        if entry is None:
            return  # resolved future nobody is parked on (direct submit)
        future, client = entry
        resume = future.completion_time
        if resume is not None and resume > client.now:
            client.now = resume
        self._push(client, future)

    def _step(self, client: _Client, payload: Any) -> None:
        try:
            if isinstance(payload, _Raise):
                action = client.gen.throw(payload.error)
            else:
                action = client.gen.send(payload)
        except StopIteration:
            self.finished += 1
            if client.now > self.makespan:
                self.makespan = client.now
            return
        if isinstance(action, Advance):
            if action.seconds < 0:
                self._push(client, _Raise(ValueError("Advance seconds must be >= 0")))
                return
            client.now += action.seconds
            self._push(client, None)
        elif isinstance(action, Invoke):
            try:
                result, seconds = action.fn(client.now)
            except BaseException as exc:  # rethrown inside the generator
                self._push(client, _Raise(exc))
                return
            client.now += seconds
            self._push(client, (result, seconds))
        elif isinstance(action, Submit):
            try:
                future = action.fn(client.now)
            except BaseException as exc:
                self._push(client, _Raise(exc))
                return
            if future.done:
                # Resolved synchronously (e.g. a drain beat us to it).
                if (
                    future.completion_time is not None
                    and future.completion_time > client.now
                ):
                    client.now = future.completion_time
                self._push(client, future)
            else:
                self._parked[id(future)] = (future, client)
        else:
            self._push(
                client,
                _Raise(TypeError(f"client yielded {action!r}, not a scheduler action")),
            )
