"""The op-indexed workload the fail-stop and gray schedules run under.

A deterministic mix of single-record writes, multi-record transactions,
reads, one checkpoint pass and one compaction pass, with the schedule's
events fired *between* operations at their op index.  A cluster
heartbeat runs after every operation — the failure-detection tick a real
deployment runs continuously — so session expiry, auto-failover and
background re-replication happen *outside* the victim's own call stack,
as they would in production.  The stream is one client of the client
loop (:mod:`repro.bench.concurrent`).
"""

from __future__ import annotations

from repro.bench import concurrent as loop
from repro.chaos.oracle import WriteStatus
from repro.chaos.scenario import GROUP, KEY_DOMAIN, KEY_WIDTH, TABLE, Events, Run
from repro.errors import LogBaseError, ServerDownError, TransactionAborted
from repro.obs.hist import Histogram
from repro.sim.metrics import HIST_CHAOS_READ_LATENCY


class _OpStream:
    """Seeded operation stream bound to one run."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.db = run.db
        self.rng = run.rng
        self.oracle = run.oracle
        self.client = run.client
        self.rescued_ops = 0
        # Read-latency tail without storing samples: gray-failure
        # mitigation is judged on this histogram's p50/p99/max.
        self.read_latency = Histogram(HIST_CHAOS_READ_LATENCY)
        self._used_keys: set[bytes] = set()
        self._overwrite_pool: list[bytes] = []
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

    def _rescue(self):
        """Failure-detector tick between an op's failure and its retry:
        expire dead sessions so auto-failover re-homes the tablets."""
        self.run.heartbeat()
        self.client.invalidate_cache()
        self.rescued_ops += 1

    def _failing_over(self, step):
        """Run the step ``step()`` makes; if the server is down, tick the
        failure detector and try once more."""
        try:
            return (yield from step())
        except ServerDownError:
            self._rescue()
            return (yield from step())

    def put(self):
        key = self._write_key()
        seq, value = self.oracle.next_value()
        try:
            yield from self._failing_over(
                lambda: loop.put(self.db, self.client, TABLE, key, GROUP, value)
            )
        except LogBaseError:
            self.oracle.record(key, seq, WriteStatus.INDETERMINATE)
            return
        self.oracle.record(key, seq, WriteStatus.ACKED)

    def txn(self):
        # Fresh dedicated keys on one tablet: single-server commit, and
        # the oracle can check all-or-nothing visibility post hoc.
        tablet = self.rng.randrange(len(self._ranges))
        members: dict[bytes, int] = {}

        def writes():
            for _ in range(2):
                key = self._fresh_key(tablet)
                seq, value = self.oracle.next_value()
                members[key] = seq
                yield TABLE, key, GROUP, value

        try:
            yield from loop.write_txn(self.db, writes())
        except ServerDownError:
            # Staging never touches the log: nothing durable happened,
            # so this is a clean abort however partial the staging was.
            self.oracle.record_txn(members, WriteStatus.ABORTED)
            self._rescue()
            return
        except TransactionAborted as exc:
            # A clean abort (validation/lock conflict) happens before the
            # write phase: nothing may surface.  An abort *caused by* an
            # infrastructure error may have died anywhere around the
            # commit record: outcome unknown, but it must be atomic.
            clean = exc.__cause__ is None
            status = WriteStatus.ABORTED if clean else WriteStatus.INDETERMINATE
            self.oracle.record_txn(members, status)
            if not clean:
                self._rescue()
            return
        except LogBaseError:
            self.oracle.record_txn(members, WriteStatus.INDETERMINATE)
            self._rescue()
            return
        self.oracle.record_txn(members, WriteStatus.ACKED)

    def read(self):
        if not self._overwrite_pool:
            return None
        key = self.rng.choice(self._overwrite_pool)
        # Track the latency of every read attempt, failed ones included —
        # gray-failure mitigation is judged on the tail of this series.
        self.client.last_op_seconds = 0.0
        try:
            value = yield from self._failing_over(
                lambda: loop.get(self.db, self.client, TABLE, key, GROUP)
            )
            return self.oracle.check_read(key, value)
        except LogBaseError:
            return None  # still failing over; final verify covers it
        finally:
            self.read_latency.record(self.client.last_op_seconds)

    def ops(self, events: Events):
        """The client stream: events and the heartbeat run between its
        ops, and the read-latency tail is observed at its end."""
        run = self.run
        checkpoints = run.db.cluster.checkpoints
        ops = run.report.ops
        checkpoint_at = ops // 3
        compact_at = (2 * ops) // 3
        monitor = run.db.cluster.monitor
        events_run = 0
        for i in range(ops):
            event = events.get(i)
            if event is not None:
                # Schedule events the injector can't see (overload bursts,
                # link slows, mid-limp scans) still stamp a fault time for
                # detection-latency accounting.
                if monitor is not None:
                    monitor.note_fault("schedule-event", {"index": i})
                event()
                events_run += 1
            if i == checkpoint_at:
                self.maintain(lambda s: checkpoints[s.name].write_checkpoint())
            elif i == compact_at:
                self.maintain(lambda s: s.compact())
            else:
                roll = self.rng.random()
                if roll < 0.55:
                    yield from self.put()
                elif roll < 0.75:
                    yield from self.txn()
                else:
                    problem = yield from self.read()
                    if problem is not None:
                        run.report.violations.append(f"mid-run: {problem}")
            run.heartbeat()
        hist = self.read_latency
        run.observe(
            events_run=events_run,
            rescued_ops=self.rescued_ops,
            reads=int(hist.count),
            read_p50=hist.percentile(0.50),
            read_p99=hist.percentile(0.99),
            read_max=hist.max if hist.count else 0.0,
        )

    def maintain(self, action) -> None:
        """One maintenance pass: ``action(server)`` on every serving one."""
        for server in self.db.cluster.servers:
            if not server.serving:
                continue
            try:
                action(server)
            except LogBaseError:
                self._rescue()


def op_stream(run: Run, events: Events) -> None:
    """Issue ``run.report.ops`` seeded operations as one client of the
    loop, firing ``events`` at their op index, and record the
    read-latency tail."""
    loop.run_clients(run.db.cluster, [_OpStream(run).ops(events)])
