"""End-to-end tracing on a real cluster: propagation across machine
boundaries, hedged-read span closure under a gray chaos schedule, and
the tracing-off gate."""

import pytest

from repro.chaos import run_scenario
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.obs.analyze import coverage, where_did_time_go
from repro.obs.trace import Tracer

SCHEMA = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))
KEY = b"000000000001"


def traced_db(**overrides) -> LogBase:
    config = LogBaseConfig(tracing=True, segment_size=64 * 1024, **overrides)
    return LogBase(n_nodes=3, config=config)


def test_traced_cluster_installs_tracer_and_gate_off_does_not():
    db = traced_db()
    tracer = db.cluster.tracer
    assert tracer is not None
    db.cluster.add_node(rebalance=False)
    assert all(machine.tracer is tracer for machine in db.cluster.machines)
    assert all(machine.clock.observer is not None for machine in db.cluster.machines)
    plain = LogBase(n_nodes=3)
    assert plain.cluster.tracer is None
    assert all(machine.tracer is None for machine in plain.cluster.machines)
    assert all(machine.clock.observer is None for machine in plain.cluster.machines)


def test_trace_propagates_across_machine_boundaries():
    db = traced_db()
    db.create_table(SCHEMA, only_servers=["ts-node-1"])
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"payload")  # also warms the location cache
    assert client.get_raw("t", KEY, "g") == b"payload"

    tracer = db.cluster.tracer
    assert tracer.open_spans == 0
    server_machine = db.cluster.master.server("ts-node-1").machine.name
    client_machine = db.cluster.machines[2].name
    assert server_machine != client_machine

    root = tracer.trace_log.traces("op.get")[-1]
    assert root.machine == client_machine
    rpc_spans = root.find("rpc.server")
    assert rpc_spans
    for rpc in rpc_spans:
        assert rpc.machine == server_machine
    # The trace id is the cross-machine correlation key: every span of
    # the operation carries it, whichever clock it was anchored on.
    for node in root.walk():
        assert node.trace_id == root.trace_id
        assert node.closed
    # A closed span lets go of its parent: a finished trace is a tree.
    assert all(node.parent is None for node in root.walk())
    # The tree reproduces the client-observed latency (warm cache: no
    # metadata lookup outside the measured call).
    assert root.end_to_end() == pytest.approx(client.last_op_seconds, rel=1e-9)
    assert coverage(root) >= 0.99


def test_put_trace_shows_one_sequential_append_and_full_coverage():
    db = traced_db()
    db.create_table(SCHEMA, only_servers=["ts-node-1"])
    client = db.client(db.cluster.machines[2])
    for i in range(4):
        client.put_raw("t", b"%012d" % (i + 1), "g", b"x" * 256)

    tracer = db.cluster.tracer
    puts = tracer.trace_log.traces("op.put")
    assert len(puts) == 4
    for root in puts:
        # The paper-shaped write path: exactly one sequential log append
        # (which is where the DFS replication pipeline is charged).
        assert len(root.find("log.append")) == 1
        assert len(root.find("dfs.append")) >= 1
        assert coverage(root) >= 0.99

    report = where_did_time_go(tracer.trace_log.traces())
    assert report["percent_sum"] == pytest.approx(100.0, abs=1.0)
    assert report["coverage"] >= 0.99
    hist = tracer.histograms.get("latency.op.put")
    assert hist is not None and hist.count == 4


def test_hedged_read_spans_close_with_loser_in_background(monkeypatch):
    # The hedge-under-limp gray schedule on a traced cluster: hedges must
    # fire, every span must close (no orphans across the whole chaotic
    # run), and cancelled-loser work must be marked background.
    built = []

    class Recorded(Tracer):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr("repro.core.cluster.Tracer", Recorded)
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        read_cache_enabled=False,
        breaker_enabled=False,
        tracing=True,
    )
    report = run_scenario("gray/hedge-under-limp", seed=1, ops=60, config=config)
    assert report.passed, report.violations
    assert report.observed["hedge_wins"] > 0

    (tracer,) = built
    assert tracer.open_spans == 0

    winners = [s for root in tracer.trace_log for s in root.find("dfs.hedge.winner")]
    losers = [s for root in tracer.trace_log for s in root.find("dfs.hedge.loser")]
    assert winners
    for winner in winners:
        assert winner.closed
        assert not winner.background
    # Remote losers (cancelled sibling reads) appear whenever a hedge
    # race was actually decided against a remote replica.
    if report.observed["hedge_losses"]:
        assert losers
    for loser in losers:
        assert loser.closed
        assert loser.background
        assert loser.self_seconds >= 0.0
