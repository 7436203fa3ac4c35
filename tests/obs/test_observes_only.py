"""Telemetry only observes: the same production run with tracing and
monitoring on and with both off does the same work, to the counter and
the simulated second, and answers every op the same."""

import random

from repro.chaos.scenario import GROUP, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.errors import LogBaseError

NODES, OPS, HEARTBEAT_EVERY = 4, 300, 5
KEYS = [b"%012d" % (i * 31_250_003) for i in range(64)]


def _run(telemetry: bool):
    config = LogBaseConfig.production(tracing=telemetry, monitoring=telemetry)
    db = LogBase(NODES, config)
    db.create_table(SCHEMA)
    cluster = db.cluster
    clients = [db.client(machine) for machine in cluster.machines]
    rng = random.Random(7)
    results = []
    for n in range(OPS):
        if n % HEARTBEAT_EVERY == 0:
            cluster.heartbeat()
        if n == OPS // 2:
            db.compact_all()
        client, key, roll = clients[n % NODES], rng.choice(KEYS), rng.random()
        try:
            if roll < 0.5:
                results.append(client.put_raw(TABLE, key, GROUP, b"%d" % n))
            elif roll < 0.85:
                results.append(client.get_raw(TABLE, key, GROUP))
            elif roll < 0.95:
                results.append(client.scan_raw(TABLE, GROUP, key, KEYS[-1]))
            else:
                txn = db.begin()
                txn.write_raw(TABLE, key, GROUP, txn.read_raw(TABLE, key, GROUP) or b"")
                results.append(client.saw(txn.commit()))
        except LogBaseError as exc:
            results.append(type(exc).__name__)
    clocks = [machine.clock.now for machine in cluster.machines]
    return cluster, results, cluster.total_counters(), clocks


def test_telemetry_changes_no_result_counter_or_clock():
    observed, *with_telemetry = _run(True)
    plain, *without = _run(False)
    assert observed.tracer.spans_closed > OPS and observed.monitor.scrapes > 0
    assert plain.tracer is None and plain.monitor is None
    assert with_telemetry == without
