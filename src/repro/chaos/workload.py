"""The op-indexed workload the fail-stop and gray schedules run under.

A deterministic mix of single-record writes, write transactions on fresh
keys, read-modify-write transactions, reads, one checkpoint pass and one
compaction pass, issued by :data:`CLIENTS` clients of the client loop
(:mod:`repro.bench.concurrent`), so their transactions overlap.  The
schedule's events fire *between* operations at the global op index.  A
cluster heartbeat runs after every operation — the failure-detection
tick a real deployment runs continuously — so session expiry,
auto-failover and background re-replication happen *outside* the
victim's own call stack, as they would in production.  Every op is
recorded in the run's :class:`~repro.chaos.history.History`.
"""

from __future__ import annotations

from repro.bench import concurrent as loop
from repro.chaos.history import WriteStatus
from repro.chaos.scenario import GROUP, KEY_DOMAIN, KEY_WIDTH, TABLE, Events, Run
from repro.errors import LogBaseError, ServerDownError, TransactionAborted, ValidationConflict
from repro.obs.hist import Histogram
from repro.sim.metrics import HIST_CHAOS_READ_LATENCY

#: concurrent clients, all on the scenario's client node.
CLIENTS = 4

#: read-modify-write transactions contend on the first keys written.
HOT = 6


class _OpStream:
    """Seeded operation stream bound to one run, shared by its clients."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.db = run.db
        self.rng = run.rng
        self.history = run.history
        self.rescued_ops = 0
        self.validation_aborts = 0
        self.events_run = 0
        self._next_op = 0
        # Read-latency tail without storing samples: gray-failure
        # mitigation is judged on this histogram's p50/p99/max.
        self.read_latency = Histogram(HIST_CHAOS_READ_LATENCY)
        self._used_keys: set[bytes] = set()
        self._overwrite_pool: list[bytes] = []
        self._last_put: dict[object, bytes] = {}  # client -> key
        # Key ranges per tablet, so transaction keys can be co-located on
        # one tablet (entity-group style single-server commits, §3.2).
        self._ranges = []
        for tablet in self.db.cluster.master.tablets(TABLE):
            start = int(tablet.key_range.start or b"0")
            end = (
                int(tablet.key_range.end)
                if tablet.key_range.end is not None
                else KEY_DOMAIN
            )
            self._ranges.append((start, end))

    # -- key generation ----------------------------------------------------

    def _fresh_key(self, tablet: int) -> bytes:
        start, end = self._ranges[tablet]
        while True:
            key = str(self.rng.randrange(start, end)).zfill(KEY_WIDTH).encode()
            if key not in self._used_keys:
                self._used_keys.add(key)
                return key

    def _write_key(self) -> bytes:
        if self._overwrite_pool and self.rng.random() < 0.6:
            return self.rng.choice(self._overwrite_pool)
        key = self._fresh_key(self.rng.randrange(len(self._ranges)))
        self._overwrite_pool.append(key)
        return key

    # -- operations --------------------------------------------------------

    def _rescue(self, client):
        """Failure-detector tick between an op's failure and its retry:
        expire dead sessions so auto-failover re-homes the tablets."""
        self.run.heartbeat()
        client.invalidate_cache()
        self.rescued_ops += 1

    def _failing_over(self, client, step):
        """Run the step ``step()`` makes; if the server is down, tick the
        failure detector and try once more."""
        try:
            return (yield from step())
        except ServerDownError:
            self._rescue(client)
            return (yield from step())

    def put(self, client):
        key = self._last_put[client] = self._write_key()
        op = self.history.invoke(client)
        value = op.write(key)
        try:
            ts = yield from self._failing_over(
                client, lambda: loop.put(self.db, client, TABLE, key, GROUP, value)
            )
        except LogBaseError:
            self.history.end(op, WriteStatus.INDETERMINATE)
            return
        self.history.end(op, WriteStatus.ACKED, commit_ts=ts)

    def txn(self, client):
        # Fresh dedicated keys on one tablet: single-server commit, and
        # the checker can judge all-or-nothing visibility post hoc.
        tablet = self.rng.randrange(len(self._ranges))
        op = self.history.invoke(client)

        def writes():
            for _ in range(2):
                key = self._fresh_key(tablet)
                yield TABLE, key, GROUP, op.write(key)

        yield from self._transaction(client, op, loop.write_txn(self.db, client, writes()))

    def rmw(self, client):
        # 1-3 hot keys, on one tablet or across servers (two-phase
        # commit): every key read is written back with probability 1/2,
        # the first always, so committed transactions can overlap on a
        # key one of them only read.
        hot = self._overwrite_pool[:HOT]
        if not hot:
            return
        keys = self.rng.sample(hot, min(len(hot), self.rng.randint(1, 3)))
        op = self.history.invoke(client)

        def update(key, value):
            op.reads[key] = value
            if key == keys[0] or self.rng.random() < 0.5:
                return op.write(key)
            return None

        step = loop.rmw_txn(self.db, client, TABLE, GROUP, keys, update)
        yield from self._transaction(client, op, step)

    def _transaction(self, client, op, step):
        try:
            txn = yield from step
        except LogBaseError as exc:
            # A validation or lock conflict aborts before the write phase,
            # and a server down before the commit left nothing in the log:
            # clean aborts.  An abort *caused by* an infrastructure error
            # may have died anywhere around the commit record: outcome
            # unknown, but it must be atomic.
            conflict = isinstance(exc, TransactionAborted) and exc.__cause__ is None
            self.validation_aborts += isinstance(exc, ValidationConflict)
            clean = conflict or isinstance(exc, ServerDownError)
            self.history.end(op, WriteStatus.ABORTED if clean else WriteStatus.INDETERMINATE)
            if not conflict:
                self._rescue(client)
            return
        self.history.end(op, WriteStatus.ACKED, read_ts=txn.read_ts, commit_ts=txn.commit_ts)

    def read(self, client):
        if not self._overwrite_pool:
            return
        # Half the reads read the client's own last put back.
        key = self._last_put.get(client) if self.rng.random() < 0.5 else None
        key = key or self.rng.choice(self._overwrite_pool)
        op = self.history.invoke(client)
        # Track the latency of every read attempt, failed ones included —
        # gray-failure mitigation is judged on the tail of this series.
        client.last_op_seconds = 0.0
        try:
            value = yield from self._failing_over(
                client, lambda: loop.get(self.db, client, TABLE, key, GROUP)
            )
            op.reads[key] = value
        except LogBaseError:
            pass  # still failing over; the read-back covers the key
        finally:
            self.history.end(op)
            self.read_latency.record(client.last_op_seconds)

    def ops(self, client, events: Events):
        """One client's stream: it claims the next global op index until
        the run's ops are issued; events and the heartbeat run between
        ops."""
        run = self.run
        checkpoints = run.db.cluster.checkpoints
        ops = run.report.ops
        checkpoint_at = ops // 3
        compact_at = (2 * ops) // 3
        monitor = run.db.cluster.monitor
        while self._next_op < ops:
            i = self._next_op
            self._next_op += 1
            event = events.get(i)
            if event is not None:
                # Schedule events the injector can't see (overload bursts,
                # link slows, mid-limp scans) still stamp a fault time for
                # detection-latency accounting.
                if monitor is not None:
                    monitor.note_fault("schedule-event", {"index": i})
                event()
                self.events_run += 1
            if i == checkpoint_at:
                self.maintain(client, lambda s: checkpoints[s.name].write_checkpoint())
            elif i == compact_at:
                self.maintain(client, lambda s: s.compact())
            else:
                roll = self.rng.random()
                if roll < 0.55:
                    yield from self.put(client)
                elif roll < 0.65:
                    yield from self.txn(client)
                elif roll < 0.75:
                    yield from self.rmw(client)
                else:
                    yield from self.read(client)
            run.heartbeat()

    def maintain(self, client, action) -> None:
        """One maintenance pass: ``action(server)`` on every serving one."""
        for server in self.db.cluster.servers:
            if not server.serving:
                continue
            try:
                action(server)
            except LogBaseError:
                self._rescue(client)


def op_stream(run: Run, events: Events) -> None:
    """Issue ``run.report.ops`` seeded operations from :data:`CLIENTS`
    clients of the loop, firing ``events`` at their global op index, and
    record the read-latency tail."""
    stream = _OpStream(run)
    machine = run.db.cluster.machines[run.scenario.client_node]
    clients = [run.client] + [run.db.client(machine) for _ in range(CLIENTS - 1)]
    loop.run_clients(run.db.cluster, [stream.ops(c, events) for c in clients])
    hist = stream.read_latency
    run.observe(
        events_run=stream.events_run,
        rescued_ops=stream.rescued_ops,
        validation_aborts=stream.validation_aborts,
        reads=int(hist.count),
        read_p50=hist.percentile(0.50),
        read_p99=hist.percentile(0.99),
        read_max=hist.max if hist.count else 0.0,
    )
