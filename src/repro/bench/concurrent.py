"""Concurrent-client put driver over the virtual-time scheduler.

The seed harness (:mod:`repro.bench.runner`) issues one operation at a
time, so nothing overlaps in simulated time and every blocking write is a
commit group of one.  :func:`run_concurrent_puts` multiplexes N logical
clients through :class:`repro.sim.scheduler.ConcurrentScheduler`: each
client is a generator of puts on its own machine, submissions from
different clients land inside the same commit-group window, and the
coordinator collapses them into one DFS replication round trip per group.
It is the fan-in sweep the group-commit benchmark measures: N clients ×
M puts each, returning per-op commit latencies and the phase makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.bench.adapters import GROUP, TABLE, LogBaseAdapter
from repro.core.client import Client
from repro.errors import LogBaseError
from repro.sim.machine import Machine
from repro.sim.scheduler import Advance, ConcurrentScheduler, Submit


@dataclass
class ConcurrentRunResult:
    """Outcome of one concurrent put phase."""

    clients: int
    ops: int
    acked: int = 0
    failed: int = 0
    makespan: float = 0.0
    latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        """Acked commits per simulated second."""
        return self.acked / self.makespan if self.makespan else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the commit latencies."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered), max(1, ceil(q * len(ordered))))
        return ordered[rank - 1]


def run_concurrent_puts(
    adapter: LogBaseAdapter,
    *,
    n_clients: int,
    n_ops: int,
    value: bytes = b"x" * 1000,
    table: str = TABLE,
    group: str = GROUP,
) -> ConcurrentRunResult:
    """N logical clients splitting ``n_ops`` puts, overlapped in
    simulated time.

    Each put is submitted asynchronously to the serving server's commit
    coordinator; its latency runs from issue to the client receiving the
    group-durability ack.
    """
    cluster = adapter.cluster
    # Logical clients get their own machines sharing the cluster's
    # network model, so client-side time never contends with server work.
    machines = [
        Machine(f"cc-{i}", network=cluster.config.network) for i in range(n_clients)
    ]
    clients = [Client(cluster.master, m) for m in machines]
    result = ConcurrentRunResult(clients=n_clients, ops=n_ops)
    base, extra = divmod(n_ops, n_clients)

    def writer(i: int):
        client = clients[i]
        ops = base + (1 if i < extra else 0)
        for j in range(ops):
            key = b"c%03dk%08d" % (i, j)
            cell: dict = {}

            def _submit(now, key=key, cell=cell):
                future, request, ack = client.submit_put_raw(
                    table, key, group, value, arrival=now
                )
                cell["issue"] = now
                cell["ack"] = ack
                return future

            try:
                future = yield Submit(_submit)
            except LogBaseError:
                result.failed += 1
                continue
            yield Advance(cell["ack"])
            if future.error is None:
                result.acked += 1
                result.latencies.append(
                    future.completion_time + cell["ack"] - cell["issue"]
                )
            else:
                result.failed += 1

    scheduler = ConcurrentScheduler(server.commit for server in cluster.servers)
    start = cluster.elapsed_makespan()
    for i in range(n_clients):
        scheduler.add_client(writer(i), at=start)
    end = scheduler.run()
    # Any group still open when the last client finished flushes here
    # (its members were parked clients, so normally none remain).
    result.makespan = max(end, cluster.elapsed_makespan()) - start
    return result
