"""Integration tests for the ClusterMonitor scrape/alert/recorder plane."""

import gc
import json
import weakref

import pytest

from repro.chaos.scenario import GROUP, KEY_WIDTH, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.stats import collect_cluster_stats
from repro.obs.monitor import (
    ClusterMonitor,
    collect_health_gauges,
    detection_latency,
    gauges_by_entity,
)
from repro.sim.failure import FailureInjector
from repro.sim.machine import Machine
from repro.sim.metrics import GAUGE_SERVER_UP, validate_metric_name
from repro.wal.planner import CompactionPlanner


@pytest.fixture
def monitored_db():
    config = LogBaseConfig(
        monitoring=True, segment_size=64 * 1024, monitor_scrape_interval=0.0
    )
    db = LogBase(n_nodes=4, config=config)
    db.create_table(SCHEMA, tablets_per_server=2)
    return db


def _write_some(db, n=20):
    client = db.client(db.cluster.machines[-1])
    for i in range(n):
        client.put_raw(TABLE, str(i).zfill(KEY_WIDTH).encode(), GROUP, b"v" * 32)
    return client


def test_gate_off_builds_no_monitor():
    db = LogBase(n_nodes=4, config=LogBaseConfig(segment_size=64 * 1024))
    assert db.cluster.monitor is None
    db.create_table(SCHEMA, tablets_per_server=2)
    db.cluster.heartbeat()  # must not require a monitor


def test_heartbeat_scrapes_counters_and_gauges(monitored_db):
    db = monitored_db
    monitor = db.cluster.monitor
    assert monitor is not None
    _write_some(db)
    db.cluster.heartbeat()
    assert monitor.scrapes >= 1
    # Every server shows as up.
    for server in db.cluster.servers:
        assert monitor.store.latest(server.name, GAUGE_SERVER_UP) == 1.0
    # Counter deltas landed for the machines that did work.
    assert "disk.bytes_written" in monitor.store.metric_names()
    # Samples are per-interval deltas, not cumulative totals: summing the
    # series reconstructs the machine's counter exactly.
    db.cluster.heartbeat()
    for machine in db.cluster.machines:
        series = monitor.store.series(machine.name, "disk.bytes_written")
        sampled = sum(v for _t, v in series.samples()) if series else 0.0
        assert sampled == pytest.approx(machine.counters.get("disk.bytes_written"))


def test_kill_fires_server_down_and_postmortem(monitored_db):
    db = monitored_db
    monitor = db.cluster.monitor
    _write_some(db)
    db.cluster.heartbeat()
    victim = db.cluster.servers[0]
    db.cluster.kill_node(victim.name)
    fired = monitor.tick(force=True)
    assert ("server-down", victim.name) in {
        (a["alert"], a["entity"]) for a in fired
    }
    # The injected kill was observed as a fault...
    assert monitor.fault_times()
    # ...and the alert latency against it is non-negative and small.
    latency = detection_latency(
        monitor.fault_times(), monitor.alert_log(), "server-down"
    )
    assert latency is not None and latency >= 0.0
    # The fire snapshotted a post-mortem bundle.
    reasons = [pm["reason"] for pm in monitor.postmortem_dicts()]
    assert any(r.startswith("alert:server-down") for r in reasons)


def test_postmortem_exports_json_and_markdown(monitored_db):
    db = monitored_db
    monitor = db.cluster.monitor
    _write_some(db)
    db.cluster.heartbeat()
    db.cluster.kill_node(db.cluster.servers[0].name)
    monitor.tick(force=True)
    pm = monitor.recorder.postmortems[0]
    decoded = json.loads(pm.to_json())
    assert decoded["reason"] == pm.reason
    assert "series" in decoded and "events" in decoded
    markdown = pm.to_markdown()
    assert markdown.startswith("# Post-mortem:")
    assert "## Recent events" in markdown


def test_scrape_interval_gates_ticks():
    config = LogBaseConfig(monitoring=True, segment_size=64 * 1024)
    assert config.monitor_scrape_interval > 0.0
    db = LogBase(n_nodes=4, config=config)
    db.create_table(SCHEMA, tablets_per_server=2)
    monitor = db.cluster.monitor
    db.cluster.heartbeat()
    scrapes = monitor.scrapes
    # Same simulated instant: the cadence gate swallows the tick...
    monitor.tick()
    assert monitor.scrapes == scrapes
    # ...but force bypasses it.
    monitor.tick(force=True)
    assert monitor.scrapes == scrapes + 1


def test_note_fault_records_event_and_bundle(monitored_db):
    db = monitored_db
    monitor = db.cluster.monitor
    db.cluster.heartbeat()
    monitor.note_fault("synthetic", {"node": "ts-node-1", "why": "test"})
    assert monitor.first_fault_time() is not None
    events = monitor.recorder.events()
    assert any(e["kind"] == "synthetic" for e in events.get("ts-node-1", []))
    assert [pm["reason"] for pm in monitor.postmortem_dicts()] == [
        "fault:synthetic"
    ]


def test_health_gauges_shared_with_stats(monitored_db):
    """Satellite: core.stats and the scraper share one gauge schema."""
    db = monitored_db
    _write_some(db)
    db.cluster.heartbeat()
    stats = collect_cluster_stats(db.cluster)
    flat = collect_health_gauges(db.cluster)
    nested = gauges_by_entity(db.cluster)
    # The stats report embeds exactly the nested shape of the flat scrape.
    assert stats.health == nested
    assert {
        (entity, metric)
        for entity, gauges in nested.items()
        for metric in gauges
    } == set(flat)
    # Every gauge the schema emits is a registered metric name.
    for _entity, metric in flat:
        validate_metric_name(metric)
    # And the scraper's latest samples agree with the stats snapshot.
    monitor = db.cluster.monitor
    for (entity, metric), value in flat.items():
        assert monitor.store.latest(entity, metric) == pytest.approx(value)


def test_a_planner_error_is_not_read_as_zero_debt(monitored_db, monkeypatch):
    """The compaction-debt gauge runs the planner over an up server's log;
    a planner that raises must surface, not read as "no debt"."""
    _write_some(monitored_db)

    def broken_plan(self, segments=None):
        raise RuntimeError("planner bug")

    monkeypatch.setattr(CompactionPlanner, "plan", broken_plan)
    with pytest.raises(RuntimeError, match="planner bug"):
        collect_health_gauges(monitored_db.cluster)


def test_monitoring_gate_changes_no_simulated_state():
    """The plane only reads: an identical workload with the gate on and
    off lands on byte-identical simulated outcomes (the enabled-arm twin
    of the gate-off figure identity)."""

    def run(monitoring):
        config = LogBaseConfig(segment_size=64 * 1024, monitoring=monitoring)
        db = LogBase(n_nodes=4, config=config)
        db.create_table(SCHEMA, tablets_per_server=2)
        client = db.client(db.cluster.machines[-1])
        for i in range(40):
            client.put_raw(TABLE, str(i).zfill(KEY_WIDTH).encode(), GROUP, b"v" * 32)
            if i % 5 == 0:
                db.cluster.heartbeat()
        db.cluster.heartbeat()
        return (
            db.cluster.elapsed_makespan(),
            db.cluster.total_counters(),
            [s.log.total_bytes() for s in db.cluster.servers],
            [s.log.next_lsn for s in db.cluster.servers],
        )

    assert run(False) == run(True)


def test_dropped_cluster_is_freed_and_unhooked(monkeypatch):
    # The fault hook is the cluster's own injector: a dropped production
    # cluster is collected, and no other injector reaches its monitor.
    db = LogBase(n_nodes=4, config=LogBaseConfig.production())
    cluster = weakref.ref(db.cluster)
    del db
    gc.collect()
    assert cluster() is None

    noted = []
    monkeypatch.setattr(ClusterMonitor, "note_fault", lambda *args: noted.append(args))
    injector = FailureInjector()
    injector.register("m0", Machine("m0"))
    injector.kill("m0")
    assert noted == []
    monkeypatch.undo()

    second = LogBase(n_nodes=4, config=LogBaseConfig.production())
    victim = second.cluster.servers[0].name
    second.cluster.kill_node(victim)
    assert [(e["kind"], e["detail"]) for e in second.cluster.monitor.fault_log] == [
        ("kill", {"node": victim})
    ]
