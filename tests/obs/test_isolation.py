"""Telemetry belongs to its cluster: two clusters in one process never
see, steal or pin each other's spans, clock charges or faults."""

import gc
import weakref

from repro.chaos.scenario import GROUP, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase

KEY = b"000000000001"


def _db(**overrides) -> LogBase:
    db = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=64 * 1024, **overrides))
    db.create_table(SCHEMA)
    return db


def test_two_traced_clusters_each_keep_their_own_spans():
    first, second = _db(tracing=True), _db(tracing=True)
    first.client(first.cluster.machines[2]).put_raw(TABLE, KEY, GROUP, b"v")
    assert first.cluster.tracer.spans_closed > 0
    assert second.cluster.tracer.spans_closed == 0
    (put,) = first.cluster.tracer.trace_log.traces("op.put")
    assert put.find("log.append")


def test_kill_lands_only_in_its_own_clusters_fault_log():
    first, second = _db(monitoring=True), _db(monitoring=True)
    victim = first.cluster.servers[0].name
    first.cluster.kill_node(victim)
    assert [(e["kind"], e["detail"]) for e in first.cluster.monitor.fault_log] == [
        ("kill", {"node": victim})
    ]
    assert [pm["reason"] for pm in first.cluster.monitor.postmortem_dicts()] == [
        "fault:kill"
    ]
    assert second.cluster.monitor.fault_log == []
    assert second.cluster.monitor.postmortem_dicts() == []


def test_cluster_after_a_dropped_traced_cluster_is_unobserved():
    traced = _db(tracing=True)
    traced.put(TABLE, KEY, {GROUP: {"v": b"v"}})
    tracer = weakref.ref(traced.cluster.tracer)
    del traced
    gc.collect()
    assert tracer() is None  # nothing process-wide pins a dropped tracer
    plain = _db()
    plain.client(plain.cluster.machines[1]).put_raw(TABLE, KEY, GROUP, b"v")
    assert all(
        machine.tracer is None and machine.clock.observer is None
        for machine in plain.cluster.machines
    )
