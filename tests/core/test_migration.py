"""Live migration tests: lease-fenced handoff, splitting, balancing.

The invariants under test: ownership moves without losing a single acked
write; the only client-visible unavailability is the fenced flip window;
a lease-lapsed or mid-flip server refuses to serve; and a master that
dies mid-migration leaves a record a successor can always converge.
"""

import pytest

from repro import LogBase, LogBaseConfig
from repro.chaos.invariants import check_single_owner
from repro.core.cluster import HEAT_HALF_LIFE
from repro.core.migration import FLIP_BUDGET_SECONDS, MIGRATIONS_PATH
from repro.core.tablet_server import LEASE_SECONDS
from repro.errors import (
    LogBaseError,
    MigrationError,
    SessionExpiredError,
    TabletMigratingError,
    TabletNotFound,
)
from repro.sim.failure import (
    CP_MIGRATION_CATCHUP,
    CP_MIGRATION_FLIP,
    CP_MIGRATION_PREPARE,
    FaultPlan,
    fault_plan,
)

TABLE = "events"
GROUP = "payload"


def _mig_config(**overrides):
    return LogBaseConfig.with_live_migration(segment_size=16 * 1024, **overrides)


@pytest.fixture
def mig_db(schema):
    db = LogBase(n_nodes=3, config=_mig_config())
    db.create_table(schema, tablets_per_server=1)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put(TABLE, key, {GROUP: {"body": f"v{i}".encode()}})
    db.cluster.heartbeat()
    return db, keys


def _one_server_db(schema, n_nodes):
    """Every tablet of the table on ``ts-node-0``; returns (db, keys)."""
    db = LogBase(n_nodes=n_nodes, config=_mig_config())
    db.create_table(schema, tablets_per_server=1, only_servers=["ts-node-0"])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put(TABLE, key, {GROUP: {"body": f"v{i}".encode()}})
    return db, keys


def _unreadable(db, keys):
    reader = db.client(db.cluster.machines[-1])
    return [key for key in keys if reader.get_raw(TABLE, key, GROUP) is None]


def _victim(db):
    """(tablet_id, source name, a different live server name)."""
    assignments = db.cluster.master.catalog.assignments
    tablet_id = sorted(assignments)[0]
    source = assignments[tablet_id]
    target = next(s.name for s in db.cluster.servers if s.name != source)
    return tablet_id, source, target


def test_live_migration_moves_ownership_and_data(mig_db):
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    report = db.cluster.migrate_tablet(tablet_id, target)
    assert report.completed
    assert report.records_caught_up > 0
    assert db.cluster.master.catalog.assignments[tablet_id] == target
    assert tablet_id not in db.cluster.server_by_name(source).tablets
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get(TABLE, key, GROUP) == {"body": f"v{i}".encode()}
    assert check_single_owner(db) == []
    counters = db.cluster.total_counters()
    assert counters["migration.started"] == 1
    assert counters["migration.completed"] == 1
    # The flip window stayed within the configured unavailability budget.
    assert report.flip_seconds <= FLIP_BUDGET_SECONDS


def test_migration_record_cleared_after_completion(mig_db):
    db, _ = mig_db
    tablet_id, _, target = _victim(db)
    db.cluster.migrate_tablet(tablet_id, target)
    assert not db.cluster.coordination.exists(f"{MIGRATIONS_PATH}/{tablet_id}")


def test_writes_between_catchup_and_flip_become_the_delta(mig_db):
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    migrator = db.cluster.migrator
    steps, ctx = migrator.phases(tablet_id, target)
    by_name = dict(steps)
    by_name["prepare"]()
    by_name["catchup"]()
    # The source keeps serving during catch-up; these writes land after
    # the persisted cutoff and must ride the flip delta.
    tablet = db.cluster.server_by_name(source).tablets[tablet_id]
    late = [k for k in keys if tablet.covers(k)][:3]
    client = db.client(db.cluster.machines[1])
    for key in late:
        client.put(TABLE, key, {GROUP: {"body": b"late"}})
    by_name["flip"]()
    report = ctx["report"]
    assert report.completed
    assert report.delta_records >= len(late)
    client.invalidate_cache()
    for key in late:
        assert client.get(TABLE, key, GROUP) == {"body": b"late"}


def test_migrate_to_current_owner_rejected(mig_db):
    db, _ = mig_db
    tablet_id, source, _ = _victim(db)
    with pytest.raises(MigrationError):
        db.cluster.migrate_tablet(tablet_id, source)


def test_client_invalidates_cache_on_migrating_error(mig_db):
    db, keys = mig_db
    tablet_id, source, _ = _victim(db)
    server = db.cluster.server_by_name(source)
    tablet = server.tablets[tablet_id]
    key = next(k for k in keys if tablet.covers(k))
    client = db.client(db.cluster.machines[1])
    client.get(TABLE, key, GROUP)  # warm the location cache
    assert TABLE in client._locations
    invalidations = []
    original = client.invalidate_cache
    client.invalidate_cache = lambda table=None: (
        invalidations.append(table),
        original(table),
    )
    server.begin_tablet_migration(tablet_id)
    with pytest.raises(TabletMigratingError):
        client.get(TABLE, key, GROUP)
    # Every rejected attempt dropped the cached route (ownership may have
    # moved) and re-resolved from the master after backing off.
    assert invalidations.count(TABLE) >= 1
    assert client._machine.counters.get("client.retries") >= 1
    server.finish_tablet_migration(tablet_id)
    assert client.get(TABLE, key, GROUP) is not None


def test_client_scan_retry_covers_the_flip_window(mig_db):
    db, keys = mig_db
    tablet_id, source, _ = _victim(db)
    server = db.cluster.server_by_name(source)
    client = db.client(db.cluster.machines[1])
    expected = client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12)
    server.begin_tablet_migration(tablet_id)
    original = server.range_scan
    calls = {"n": 0}

    def scan_with_flip_ending(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:  # the flip commits while the client backs off
            server.finish_tablet_migration(tablet_id)
        return original(*args, **kwargs)

    server.range_scan = scan_with_flip_ending
    try:
        assert client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12) == expected
    finally:
        server.range_scan = original
    assert calls["n"] >= 2
    assert client._machine.counters.get("client.retries") >= 1


def test_scan_through_stale_cache_follows_a_migrated_tablet(mig_db):
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    client = db.client(db.cluster.machines[1])
    expected = client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12)  # fills the cache
    assert len(expected) == len(keys)
    db.cluster.migrate_tablet(tablet_id, target)
    assert (source, tablet_id) in [
        (name, str(t.tablet_id)) for name, t in client._locations[TABLE]
    ]  # the cached route is stale
    # The old owner hosts nothing of the slice any more: it must say so,
    # not answer with zero rows.
    assert client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12) == expected


def test_scan_through_stale_cache_follows_a_split_and_move(mig_db):
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    client = db.client(db.cluster.machines[1])
    expected = client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12)
    # The cached tablet becomes two, and only the upper half moves: the
    # old owner still hosts part of the clipped slice, not all of it.
    right = db.cluster.split_tablet(tablet_id).right
    db.cluster.migrate_tablet(right, target)
    assert client.scan(TABLE, GROUP, b"0" * 12, b"9" * 12) == expected


def test_child_migrated_straight_after_its_split_keeps_every_row(mig_db):
    # The pre-split records are stamped with the *parent's* tablet id; the
    # catch-up split must attribute them by key, not by that stamp.
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    reader = db.client(db.cluster.machines[1])
    expected = {key: reader.get_raw(TABLE, key, GROUP) for key in keys}
    assert None not in expected.values()
    right = db.cluster.split_tablet(tablet_id).right
    db.cluster.migrate_tablet(right, target)
    assert {key: reader.get_raw(TABLE, key, GROUP) for key in keys} == expected


def test_failover_after_a_split_adopts_the_children(schema):
    # Same attribution bug on the failover path: split files written under
    # the parent's id are files no adopter is ever assigned.
    db, keys = _one_server_db(schema, n_nodes=4)
    db.cluster.master.enable_auto_failover()
    db.cluster.heartbeat()
    (tablet_id,) = db.cluster.master.catalog.assignments
    db.cluster.split_tablet(tablet_id)
    db.cluster.kill_node("ts-node-0")
    db.cluster.heartbeat()
    assert _unreadable(db, keys) == []


def test_repeated_balance_on_a_one_server_table_reads_every_row(schema):
    # ROADMAP's recipe: balance() x4 splits and moves the children around.
    db, keys = _one_server_db(schema, n_nodes=3)
    for _ in range(4):
        db.cluster.heartbeat()
        db.cluster.balance()
        assert _unreadable(db, keys) == []


def test_range_scan_demands_coverage_only_when_asked(mig_db):
    db, keys = mig_db
    tablet_id, source, target = _victim(db)
    server = db.cluster.server_by_name(source)
    key_range = server.tablets[tablet_id].key_range
    db.cluster.migrate_tablet(tablet_id, target)
    with pytest.raises(TabletNotFound):
        list(
            server.range_scan(
                TABLE, GROUP, key_range.start, key_range.end or b"9" * 12,
                require_coverage=True,
            )
        )
    # The per-server callers (transaction validation, the query engine,
    # the bench adapters) ask for "the rows on this server": still fine.
    assert list(server.range_scan(TABLE, GROUP, b"0" * 12, b"9" * 12)) == []


def test_lapsed_lease_fences_the_owner(mig_db):
    db, keys = mig_db
    tablet_id, source, _ = _victim(db)
    server = db.cluster.server_by_name(source)
    tablet = server.tablets[tablet_id]
    key = next(k for k in keys if tablet.covers(k))
    # No heartbeat renewals: once the owner's clock passes its lease it
    # must self-fence even though nobody told it anything.
    server.machine.clock.advance(LEASE_SECONDS + 1.0)
    with pytest.raises(TabletMigratingError):
        server.read(TABLE, key, GROUP)
    assert server.machine.counters.get("migration.lease_rejects") >= 1
    # The heartbeat re-grants leases to reachable owners.
    db.cluster.heartbeat()
    assert server.read(TABLE, key, GROUP) is not None


def test_restarted_server_comes_back_leaseless(mig_db):
    db, keys = mig_db
    tablet_id, source, _ = _victim(db)
    db.cluster.kill_server(source)
    db.cluster.restart_server(source)
    server = db.cluster.server_by_name(source)
    assert not server.lease_valid(tablet_id)
    db.cluster.heartbeat()
    assert server.lease_valid(tablet_id)


def test_split_at_observed_median(mig_db):
    db, keys = mig_db
    tablet_id, source, _ = _victim(db)
    server = db.cluster.server_by_name(source)
    tablet = server.tablets[tablet_id]
    covered = [k for k in keys if tablet.covers(k)]
    client = db.client(db.cluster.machines[1])
    for key in covered:  # build the observed-key sample
        client.get(TABLE, key, GROUP)
    report = db.cluster.split_tablet(tablet_id)
    assert report.entries_moved > 0
    catalog = db.cluster.master.catalog
    assert tablet_id not in catalog.assignments
    assert catalog.assignments[report.left] == source
    assert catalog.assignments[report.right] == source
    # Both halves cover the old range with no gap or overlap.
    tablets = {str(t.tablet_id): t for t in catalog.tablets[TABLE]}
    assert tablets[report.left].key_range.end == report.split_key
    assert tablets[report.right].key_range.start == report.split_key
    client.invalidate_cache()
    for i, key in enumerate(keys):
        assert client.get(TABLE, key, GROUP) == {"body": f"v{i}".encode()}
    assert check_single_owner(db) == []


def test_split_without_sample_rejected(mig_db):
    db, _ = mig_db
    tablet_id, _, _ = _victim(db)
    # Reads went through put-time only; wipe the sample to simulate a
    # cold tablet.
    db.cluster.server_by_name(_victim(db)[1])._key_samples.clear()
    with pytest.raises(MigrationError):
        db.cluster.split_tablet(tablet_id)


def test_balancer_moves_heat_off_the_hot_server(schema):
    db = LogBase(n_nodes=3, config=_mig_config())
    # Everything on one server: maximal skew.
    db.create_table(schema, tablets_per_server=1, only_servers=["ts-node-0"])
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put(TABLE, key, {GROUP: {"body": f"v{i}".encode()}})
    db.cluster.heartbeat()
    actions = db.cluster.balance()
    assert len(actions) == 1
    counters = db.cluster.total_counters()
    assert counters["migration.balancer_moves"] == 1
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get(TABLE, key, GROUP) == {"body": f"v{i}".encode()}
    assert check_single_owner(db) == []


def test_balancer_idle_when_balanced(mig_db):
    db, _ = mig_db
    assert db.cluster.balance() == []


def test_ghost_heat_decays(mig_db):
    db, _ = mig_db
    db.cluster.tablet_heat["ghost#0"] = 8.0
    db.cluster.heartbeat()  # first tick records when the ghost was seen
    assert "ghost#0" in db.cluster.tablet_heat
    db.cluster.machines[0].clock.advance(HEAT_HALF_LIFE)
    db.cluster.heartbeat()
    assert db.cluster.tablet_heat["ghost#0"] == pytest.approx(4.0)
    db.cluster.machines[0].clock.advance(HEAT_HALF_LIFE * 10)
    db.cluster.heartbeat()
    assert "ghost#0" not in db.cluster.tablet_heat


def test_assigned_heat_never_decays(mig_db):
    db, _ = mig_db
    tablet_id, _, _ = _victim(db)
    before = db.cluster.tablet_heat.get(tablet_id, 0.0)
    assert before > 0
    db.cluster.machines[0].clock.advance(10_000.0)
    db.cluster.heartbeat()
    assert db.cluster.tablet_heat[tablet_id] >= before


@pytest.mark.parametrize(
    "point,stage",
    [
        (CP_MIGRATION_PREPARE, None),
        (CP_MIGRATION_CATCHUP, "split"),
        (CP_MIGRATION_CATCHUP, "adopt"),
        (CP_MIGRATION_FLIP, "begin"),
        (CP_MIGRATION_FLIP, "commit"),
    ],
)
def test_master_failover_mid_migration_converges(schema, point, stage):
    """A standby promoted at any step re-reads the persisted migration
    record and either completes or safely aborts — never two owners,
    never a lost write."""
    db = LogBase(n_nodes=3, config=_mig_config(), n_masters=2)
    db.create_table(schema, tablets_per_server=1)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put(TABLE, key, {GROUP: {"body": f"v{i}".encode()}})
    db.cluster.heartbeat()
    assignments = db.cluster.master.catalog.assignments
    tablet_id = sorted(assignments)[0]
    target = next(
        s.name for s in db.cluster.servers if s.name != assignments[tablet_id]
    )
    old_master = db.cluster.master

    def depose(ctx):
        old_master.session.expire()
        raise SessionExpiredError("deposed mid-migration")

    plan = FaultPlan()
    match = {"tablet": tablet_id}
    if stage is not None:
        match["stage"] = stage
    plan.add(point, depose, **match)
    with fault_plan(plan):
        with pytest.raises(LogBaseError):
            db.cluster.migrate_tablet(tablet_id, target)
    assert len(plan.fired) == 1
    new_master = db.cluster.master
    assert new_master is not old_master and new_master.is_active
    outcomes = db.cluster.resume_migrations()
    assert [o["tablet"] for o in outcomes] == [tablet_id]
    assert outcomes[0]["outcome"] in ("completed", "aborted")
    db.cluster.heartbeat()
    assert check_single_owner(db) == []
    # The record is gone either way: resume again is a no-op.
    assert db.cluster.resume_migrations() == []
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get(TABLE, key, GROUP) == {"body": f"v{i}".encode()}


def test_gate_off_same_mover(schema, small_config):
    """``live_migration`` gates lease checking, key sampling and the heat
    balancer — not which mover runs."""
    db = LogBase(n_nodes=3, config=small_config)
    db.create_table(schema, tablets_per_server=1)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put(TABLE, key, {GROUP: {"body": f"v{i}".encode()}})
    assignments = db.cluster.master.catalog.assignments
    tablet_id = sorted(assignments)[0]
    target = next(
        s.name for s in db.cluster.servers if s.name != assignments[tablet_id]
    )
    assert db.cluster.migrate_tablet(tablet_id, target).completed
    assert assignments[tablet_id] == target
    assert _unreadable(db, keys) == []
    assert db.cluster.total_counters()["migration.completed"] == 1
    assert db.cluster.resume_migrations() == []
    with pytest.raises(ValueError):
        db.cluster.split_tablet(tablet_id)
    assert db.cluster.balance() == []
