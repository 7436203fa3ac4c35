"""The client loop: N logical clients over the virtual-time scheduler.

A client is a generator over its op stream.  It issues each op with
``yield from`` one of the steps below, named after the client call it
makes; a failed call raises inside the stream.  A transaction is one step
per phase (begin, each read, commit), so two clients' transactions
overlap.  :func:`run_clients` runs the streams on
:class:`~repro.sim.scheduler.ConcurrentScheduler`, polling the commit
coordinators of the cluster's *current* servers: a restarted server's
fresh coordinator flushes too.

A blocking step lasts as long as the largest clock advance it caused on
a cluster machine.  The loop sets no clock, so one stream issues exactly
its own calls, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from repro.errors import LogBaseError
from repro.sim.scheduler import Advance, ConcurrentScheduler, Invoke, Submit


@dataclass
class _Coordinators:
    """The commit coordinators of the cluster's servers as they are now."""

    cluster: object

    def __iter__(self):
        return (server.commit for server in self.cluster.servers)


def run_clients(cluster, streams: Iterable) -> float:
    """Run every client stream to completion, from the cluster's latest
    clock; returns the phase's makespan in simulated seconds (until the
    last client finished and the last machine went idle)."""
    scheduler = ConcurrentScheduler(_Coordinators(cluster))
    start = cluster.elapsed_makespan()
    for stream in streams:
        scheduler.add_client(stream, at=start)
    return max(scheduler.run(), cluster.elapsed_makespan()) - start


def _blocking(db, call: Callable[[], object]):
    """``call()`` as one step, as long as the largest clock advance it
    caused on a cluster machine; returns its result."""

    def invoke(now: float):
        machines = db.cluster.machines
        before = [machine.clock.now for machine in machines]
        result = call()
        return result, max(m.clock.now - t for m, t in zip(machines, before))

    result, _ = yield Invoke(invoke)
    return result


def put(db, client, table: str, key: bytes, group: str, value: bytes):
    """Blocking ``put_raw``; returns the version timestamp."""
    return (yield from _blocking(db, lambda: client.put_raw(table, key, group, value)))


def submit(client, table: str, key: bytes, group: str, value: bytes):
    """``submit_put_raw``: park until the commit group is durable, then
    pay the ack leg and raise the client's floor.  Returns the acked
    future; a group that failed to flush raises its error after the ack."""
    ack = 0.0

    def call(now: float):
        nonlocal ack
        future, _request, ack = client.submit_put_raw(
            table, key, group, value, arrival=now
        )
        return future

    future = yield Submit(call)
    yield Advance(ack)
    if future.error is not None:
        raise future.error
    client.saw(future.token)
    return future


def get(db, client, table: str, key: bytes, group: str):
    """``get_raw``; returns the value or None."""
    return (yield from _blocking(db, lambda: client.get_raw(table, key, group)))


def scan(db, client, table: str, group: str, start_key: bytes, end_key: bytes):
    """``scan_raw``; returns the (key, value) rows."""
    rows = partial(client.scan_raw, table, group, start_key, end_key)
    return (yield from _blocking(db, rows))


def write_txn(db, client, writes: Iterable[tuple[str, bytes, str, bytes]]):
    """A write transaction for ``client``: begin, stage ``writes`` (read
    lazily, so a stream may draw each as it is staged) and commit; the
    commit raises the client's floor.  Returns the transaction.  A failed
    staging aborts it and raises; a failed commit raises
    ``TransactionAborted``."""
    txn = yield from _blocking(db, db.begin)
    yield from _commit(db, client, txn, writes)
    return txn


def rmw_txn(db, client, table: str, group: str, keys: list[bytes], update: Callable):
    """A read-modify-write transaction for ``client``: begin, read each of
    ``keys`` (one step each; a failed read aborts it and raises), then
    write ``update(key, value)`` to every key read for which it is not
    None and commit.  Returns the committed transaction."""
    txn = yield from _blocking(db, db.begin)
    values = {}
    try:
        for key in keys:
            values[key] = yield from _blocking(db, partial(txn.read_raw, table, key, group))
    except LogBaseError:
        txn.abort()  # nothing touched the log: a clean abort
        raise
    writes = ((table, key, group, update(key, v)) for key, v in values.items())
    yield from _commit(db, client, txn, (w for w in writes if w[3] is not None))
    return txn


def _commit(db, client, txn, writes):
    def stage_and_commit():
        try:
            for table, key, group, value in writes:
                txn.write_raw(table, key, group, value)
        except LogBaseError:
            # Staging never touches the log: a clean abort.
            txn.abort()
            raise
        return client.saw(txn.commit())

    yield from _blocking(db, stage_and_commit)
