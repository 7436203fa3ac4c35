"""Unit tests for the tablet server: write/read/delete/scan/compaction."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.checkpoint import CheckpointManager
from repro.core.partition import KeyRange
from repro.core.recovery import recover_server
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.errors import ServerDownError, TabletNotFound
from repro.sim.failure import CP_COMPACTION_MID, FaultPlan, fault_plan
from repro.wal.record import LogRecord, RecordType


@pytest.fixture
def tso():
    return TimestampOracle(CoordinationService())


@pytest.fixture
def server(dfs, machines, schema, tso):
    config = LogBaseConfig(segment_size=8 * 1024)
    srv = TabletServer("ts-0", machines[0], dfs, tso, config)
    tablet = Tablet(TabletId("events", 0), KeyRange(b"", None), schema)
    srv.assign_tablet(tablet)
    return srv


def test_write_then_read(server):
    ts = server.write("events", b"k1", {"payload": b"hello"})
    assert server.read("events", b"k1", "payload") == (ts, b"hello")


def test_write_returns_monotonic_timestamps(server):
    t1 = server.write("events", b"a", {"payload": b"1"})
    t2 = server.write("events", b"a", {"payload": b"2"})
    assert t2 > t1


def test_read_unknown_key(server):
    assert server.read("events", b"ghost", "payload") is None


def test_multi_group_write_lands_in_both_indexes(server):
    server.write("events", b"k", {"payload": b"p", "meta": b"m"})
    assert server.read("events", b"k", "payload")[1] == b"p"
    assert server.read("events", b"k", "meta")[1] == b"m"


def test_historical_read_via_as_of(server):
    t1 = server.write("events", b"k", {"payload": b"v1"})
    t2 = server.write("events", b"k", {"payload": b"v2"})
    assert server.read("events", b"k", "payload", as_of=t1) == (t1, b"v1")
    assert server.read("events", b"k", "payload", as_of=t2) == (t2, b"v2")
    assert server.read("events", b"k", "payload", as_of=t1 - 1) is None


def test_read_served_from_cache_second_time(server, machines):
    server.write("events", b"k", {"payload": b"v"})
    server.read_cache.clear()
    server.read("events", b"k", "payload")  # fills cache from the log
    before = machines[0].counters.get("disk.reads")
    server.read("events", b"k", "payload")
    assert machines[0].counters.get("disk.reads") == before
    assert server.read_cache.hits >= 1


def test_cold_read_uses_one_log_seek(server, machines):
    """The §3.5 long-tail claim: one disk access per uncached read."""
    for i in range(50):
        server.write("events", str(i).encode() * 4, {"payload": b"v" * 100})
    server.read_cache.clear()
    machines[0].disk.invalidate_head()
    seeks_before = machines[0].counters.get("disk.seeks")
    server.read("events", b"7777", "payload")
    assert machines[0].counters.get("disk.seeks") - seeks_before == 1


def test_cache_disabled_config(dfs, machines, schema, tso):
    config = LogBaseConfig(read_cache_enabled=False)
    srv = TabletServer("ts-x", machines[1], dfs, tso, config)
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    srv.write("events", b"k", {"payload": b"v"})
    assert srv.read_cache is None
    assert srv.read("events", b"k", "payload")[1] == b"v"


def test_delete_removes_and_persists_marker(server):
    server.write("events", b"k", {"payload": b"v"})
    removed = server.delete("events", b"k", "payload")
    assert removed == 1
    assert server.read("events", b"k", "payload") is None
    # The invalidated entry is in the log (null Data).
    markers = [
        record
        for _, record in server.log.scan_all()
        if record.is_delete and record.key == b"k"
    ]
    assert len(markers) == 1
    assert markers[0].value is None


def test_delete_then_rewrite(server):
    server.write("events", b"k", {"payload": b"old"})
    server.delete("events", b"k", "payload")
    ts = server.write("events", b"k", {"payload": b"new"})
    assert server.read("events", b"k", "payload") == (ts, b"new")


def test_range_scan_latest_versions_sorted(server):
    for i in (3, 1, 2):
        server.write("events", f"k{i}".encode(), {"payload": f"v{i}".encode()})
    server.write("events", b"k2", {"payload": b"v2-new"})
    rows = list(server.range_scan("events", "payload", b"k1", b"k3"))
    assert [(key, value) for key, _, value in rows] == [
        (b"k1", b"v1"),
        (b"k2", b"v2-new"),
    ]


def test_range_scan_as_of(server):
    t1 = server.write("events", b"k", {"payload": b"v1"})
    server.write("events", b"k", {"payload": b"v2"})
    rows = list(server.range_scan("events", "payload", b"", b"z", as_of=t1))
    assert [value for _, _, value in rows] == [b"v1"]


def test_full_scan_returns_only_current_versions(server):
    for i in range(5):
        server.write("events", f"k{i}".encode(), {"payload": b"old"})
    for i in range(5):
        server.write("events", f"k{i}".encode(), {"payload": b"new"})
    rows = list(server.full_scan("events", "payload"))
    assert len(rows) == 5
    assert all(value == b"new" for _, _, value in rows)


def test_compaction_preserves_reads(server):
    for i in range(30):
        server.write("events", f"k{i:02d}".encode(), {"payload": f"v{i}".encode()})
    server.delete("events", b"k05", "payload")
    result = server.compact()
    assert result.stats.kept_versions > 0
    assert server.read("events", b"k07", "payload")[1] == b"v7"
    assert server.read("events", b"k05", "payload") is None


def test_compaction_clusters_range_scans(server, machines):
    import random

    rng = random.Random(3)
    keys = [f"{rng.randrange(10**9):010d}".encode() for _ in range(200)]
    for key in keys:
        server.write("events", key, {"payload": b"x" * 64})
    keys.sort()

    def scan_seeks() -> float:
        server.read_cache.clear()
        machines[0].disk.invalidate_head()
        before = machines[0].counters.get("disk.seeks")
        list(server.range_scan("events", "payload", keys[50], keys[90]))
        return machines[0].counters.get("disk.seeks") - before

    before_compaction = scan_seeks()
    server.compact()
    after_compaction = scan_seeks()
    assert after_compaction < before_compaction


def test_crashed_server_rejects_ops(server):
    server.crash()
    with pytest.raises(ServerDownError):
        server.write("events", b"k", {"payload": b"v"})
    with pytest.raises(ServerDownError):
        server.read("events", b"k", "payload")


def test_route_unknown_table(server):
    with pytest.raises(TabletNotFound):
        server.write("nope", b"k", {"payload": b"v"})


def test_unassign_tablet_drops_indexes(server, schema):
    server.write("events", b"k", {"payload": b"v"})
    server.unassign_tablet(TabletId("events", 0))
    with pytest.raises(TabletNotFound):
        server.read("events", b"k", "payload")
    assert server.indexes() == {}


def test_index_memory_accounting(server):
    assert server.index_memory_bytes() == 0
    server.write("events", b"k", {"payload": b"v", "meta": b"m"})
    assert server.index_memory_bytes() == 2 * 24


def test_checkpoint_hook_fires_on_threshold(dfs, machines, schema, tso):
    config = LogBaseConfig(checkpoint_update_threshold=5)
    srv = TabletServer("ts-h", machines[2], dfs, tso, config)
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    calls = []
    srv.set_checkpoint_hook(lambda s: calls.append(s.name))
    for i in range(5):
        srv.write("events", str(i).encode(), {"payload": b"v"})
    assert calls == ["ts-h"]


# -- bisect routing ---------------------------------------------------------


@pytest.fixture
def multi_server(dfs, machines, schema, tso):
    """A server hosting three ranges of one table, with a gap [p, t)."""
    srv = TabletServer("ts-m", machines[1], dfs, tso, LogBaseConfig(segment_size=8 * 1024))
    ranges = [(b"", b"g"), (b"g", b"p"), (b"t", None)]
    for i, (start, end) in enumerate(ranges):
        srv.assign_tablet(Tablet(TabletId("events", i), KeyRange(start, end), schema))
    return srv


def test_route_picks_covering_tablet(multi_server):
    for key, expected in ((b"a", 0), (b"f", 0), (b"g", 1), (b"o", 1), (b"t", 2), (b"z", 2)):
        tablet = multi_server._route("events", key)
        assert tablet.tablet_id.ordinal == expected, key


def test_route_rejects_gap_keys(multi_server):
    with pytest.raises(TabletNotFound):
        multi_server._route("events", b"q")  # in the [p, t) gap


def test_route_cache_invalidated_on_assign(multi_server, schema):
    with pytest.raises(TabletNotFound):
        multi_server.write("events", b"q", {"payload": b"v"})
    multi_server.assign_tablet(
        Tablet(TabletId("events", 3), KeyRange(b"p", b"t"), schema)
    )
    ts = multi_server.write("events", b"q", {"payload": b"v"})
    assert multi_server.read("events", b"q", "payload") == (ts, b"v")


def test_route_cache_invalidated_on_unassign(multi_server):
    multi_server.write("events", b"z", {"payload": b"v"})
    multi_server.unassign_tablet(TabletId("events", 2))
    with pytest.raises(TabletNotFound):
        multi_server.write("events", b"z", {"payload": b"v"})


def test_routed_writes_land_in_per_tablet_indexes(multi_server):
    multi_server.write("events", b"a", {"payload": b"1"})
    multi_server.write("events", b"h", {"payload": b"2"})
    assert ("events#0", "payload") in multi_server.indexes()
    assert multi_server.indexes()[("events#0", "payload")].lookup_latest(b"a")
    assert multi_server.indexes()[("events#1", "payload")].lookup_latest(b"h")
    assert multi_server.indexes()[("events#0", "payload")].lookup_latest(b"h") is None


# -- incremental compaction (server level) ----------------------------------


@pytest.fixture
def inc_server(dfs, machines, schema, tso):
    config = LogBaseConfig(
        segment_size=8 * 1024, compaction_tier_fanout=2
    )
    srv = TabletServer("ts-i", machines[2], dfs, tso, config)
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    return srv


def test_incremental_compaction_preserves_reads(inc_server):
    for i in range(30):
        inc_server.write("events", f"k{i:02d}".encode(), {"payload": f"v{i}".encode()})
    inc_server.delete("events", b"k05", "payload")
    result = inc_server.compact()
    assert result.stats.kept_versions > 0
    assert inc_server.read("events", b"k07", "payload")[1] == b"v7"
    assert inc_server.read("events", b"k05", "payload") is None


def test_incremental_rounds_keep_scans_correct(inc_server):
    """Several churn rounds: every round compacts, later rounds trigger
    merge plans (fanout=2), and scans always see the latest versions."""
    for round_no in range(4):
        for i in range(12):
            inc_server.write(
                "events", f"k{i:02d}".encode(), {"payload": f"r{round_no}".encode()}
            )
        inc_server.compact()
    rows = list(inc_server.range_scan("events", "payload", b"", b"z"))
    assert [(key, value) for key, _, value in rows] == [
        (f"k{i:02d}".encode(), b"r3") for i in range(12)
    ]


def test_incremental_compaction_leaves_untouched_runs(inc_server):
    inc_server.write("events", b"a", {"payload": b"v"})
    inc_server.compact()
    runs_after_first = [
        f for f in inc_server.log.segments() if inc_server.log.is_sorted_segment(f)
    ]
    assert len(runs_after_first) == 1
    # A second round with only fresh tail data (below the merge fanout)
    # must not rewrite the existing run.
    inc_server.write("events", b"b", {"payload": b"v"})
    result = inc_server.compact()
    assert set(runs_after_first) <= set(inc_server.log.segments())
    assert set(result.retired_segments).isdisjoint(runs_after_first)


def test_incremental_compaction_with_retention_cutoff(inc_server):
    timestamps = [
        inc_server.write("events", b"k", {"payload": f"v{i}".encode()})
        for i in range(5)
    ]
    result = inc_server.compact(retain_after=timestamps[3])
    assert result.stats.dropped_obsolete == 3
    assert inc_server.read("events", b"k", "payload")[1] == b"v4"
    assert inc_server.read("events", b"k", "payload", as_of=timestamps[1]) is None


def test_incremental_patch_leaves_other_group_index_alone(inc_server):
    inc_server.write("events", b"k", {"payload": b"p", "meta": b"m"})
    inc_server.compact()
    meta_index = inc_server.indexes()[("events#0", "meta")]
    # Next round's tail holds only payload data: the meta index object
    # must survive the round untouched.
    inc_server.write("events", b"k2", {"payload": b"p2"})
    inc_server.compact()
    assert inc_server.indexes()[("events#0", "meta")] is meta_index
    assert inc_server.indexes()[("events#0", "payload")] is not meta_index
    assert inc_server.read("events", b"k", "meta")[1] == b"m"
    assert inc_server.read("events", b"k2", "payload")[1] == b"p2"


def test_merge_round_does_not_resurrect_deleted_key(inc_server):
    """A merge plan re-reads old runs that still hold a deleted key's
    versions while the delete marker sits in the unsorted tail outside
    the plan: index patching must not re-insert versions the live index
    already dropped."""
    for round_no in range(2):  # two similar-sized runs fill the tier
        for i in range(12):
            inc_server.write(
                "events", f"k{i:02d}".encode(), {"payload": f"r{round_no}".encode()}
            )
        inc_server.compact()
    runs = [f for f in inc_server.log.segments() if inc_server.log.is_sorted_segment(f)]
    assert len(runs) == 2
    inc_server.delete("events", b"k07", "payload")
    result = inc_server.compact()  # merge plan over both runs + tail plan
    assert set(runs) <= set(result.retired_segments)
    assert inc_server.read("events", b"k07", "payload") is None
    rows = list(inc_server.range_scan("events", "payload", b"", b"z"))
    assert [key for key, _, _ in rows] == [
        f"k{i:02d}".encode() for i in range(12) if i != 7
    ]


def test_crash_between_plans_does_not_resurrect_on_recovery(inc_server, dfs, schema):
    """Crash after the merge plan installs but before the tail plan: the
    merged run (holding the deleted key's old versions) now carries a
    higher file number than the tail segment holding the delete marker,
    so a file-order redo sees the tombstone *before* the shadowed writes
    — the key must stay dead through recovery."""
    for round_no in range(2):
        for i in range(12):
            inc_server.write(
                "events", f"k{i:02d}".encode(), {"payload": f"r{round_no}".encode()}
            )
        inc_server.compact()
    inc_server.delete("events", b"k07", "payload")

    def boom(_ctx):
        raise RuntimeError("crashed mid-round")

    plan = FaultPlan()
    plan.add(CP_COMPACTION_MID, boom, hits=2, machine=inc_server.machine.name)
    with fault_plan(plan):
        with pytest.raises(RuntimeError):
            inc_server.compact()
    inc_server.crash()
    inc_server.restart()
    inc_server.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    recover_server(inc_server, CheckpointManager(dfs, inc_server))
    assert inc_server.read("events", b"k07", "payload") is None
    assert inc_server.read("events", b"k06", "payload")[1] == b"r1"
    # The next round finishes the interrupted work; the key stays dead.
    inc_server.compact()
    assert inc_server.read("events", b"k07", "payload") is None


# -- incremental compaction with LSM indexes --------------------------------


@pytest.fixture
def lsm_server(dfs, machines, schema, tso):
    config = LogBaseConfig(
        segment_size=8 * 1024, compaction_tier_fanout=2, index_kind="lsm"
    )
    srv = TabletServer("ts-l", machines[2], dfs, tso, config)
    srv.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    return srv


def _lsm_run_files(dfs, name):
    return sorted(
        path
        for path in dfs.list_files(f"/logbase/{name}/lsm/")
        if "manifest" not in path
    )


def test_incremental_destroys_only_replaced_lsm_runs(lsm_server, dfs):
    lsm_server.write("events", b"k", {"payload": b"p", "meta": b"m"})
    lsm_server.compact()
    # Flush both groups' indexes so each owns run files on the DFS.
    for index in lsm_server.indexes().values():
        index.flush()
    meta_index = lsm_server.indexes()[("events#0", "meta")]
    meta_runs_before = [
        f for f in _lsm_run_files(dfs, "ts-l") if "/meta/" in f
    ]
    assert meta_runs_before
    # A payload-only round: the meta index and its run files survive.
    lsm_server.write("events", b"k2", {"payload": b"p2"})
    lsm_server.compact()
    assert lsm_server.indexes()[("events#0", "meta")] is meta_index
    meta_runs_after = [f for f in _lsm_run_files(dfs, "ts-l") if "/meta/" in f]
    assert meta_runs_after == meta_runs_before
    assert lsm_server.read("events", b"k", "meta")[1] == b"m"
    assert lsm_server.read("events", b"k2", "payload")[1] == b"p2"


def test_replaced_lsm_group_drops_old_generation_files(lsm_server, dfs):
    lsm_server.write("events", b"k", {"payload": b"p"})
    lsm_server.compact()
    lsm_server.indexes()[("events#0", "payload")].flush()
    old_payload_runs = [
        f for f in _lsm_run_files(dfs, "ts-l") if "/payload/" in f
    ]
    assert old_payload_runs
    lsm_server.write("events", b"k2", {"payload": b"p2"})
    lsm_server.compact()
    remaining = _lsm_run_files(dfs, "ts-l")
    for path in old_payload_runs:
        assert path not in remaining  # old generation destroyed
    assert lsm_server.read("events", b"k", "payload")[1] == b"p"


def test_crash_mid_round_leaves_both_generations_readable(lsm_server):
    """Crash on the SECOND plan of a round (hits=2): the first plan is
    fully installed, the second never installs — reads must keep working
    across old and new generations, and the next round completes."""
    # Round 1 and 2 each leave one sorted run; round 3 plans a merge of
    # the two runs (fanout=2) followed by a tail plan — two plans.
    lsm_server.write("events", b"k1", {"payload": b"v1"})
    lsm_server.compact()
    lsm_server.write("events", b"k2", {"payload": b"v2"})
    lsm_server.compact()
    lsm_server.write("events", b"k3", {"payload": b"v3"})

    def boom(_ctx):
        raise RuntimeError("crashed mid-round")

    plan = FaultPlan()
    plan.add(CP_COMPACTION_MID, boom, hits=2, machine=lsm_server.machine.name)
    with fault_plan(plan):
        with pytest.raises(RuntimeError):
            lsm_server.compact()
    # Merge plan installed, tail plan aborted before install: every key
    # is still readable (k3 through the untouched tail segments).
    for key, value in ((b"k1", b"v1"), (b"k2", b"v2"), (b"k3", b"v3")):
        assert lsm_server.read("events", key, "payload")[1] == value
    # The next round finishes the interrupted work.
    lsm_server.compact()
    for key, value in ((b"k1", b"v1"), (b"k2", b"v2"), (b"k3", b"v3")):
        assert lsm_server.read("events", key, "payload")[1] == value


def test_compact_with_retention_cutoff(server):
    timestamps = [
        server.write("events", b"k", {"payload": f"v{i}".encode()}) for i in range(5)
    ]
    result = server.compact(retain_after=timestamps[3])
    assert result.stats.dropped_obsolete == 3
    # Latest still readable; expired history is gone.
    assert server.read("events", b"k", "payload")[1] == b"v4"
    assert server.read("events", b"k", "payload", as_of=timestamps[3])[1] == b"v3"
    assert server.read("events", b"k", "payload", as_of=timestamps[1]) is None


@pytest.mark.parametrize(
    "value", [None, b"", bytes(range(256)) * 4], ids=["none", "empty", "1k"]
)
def test_a_staged_record_is_the_record(server, value):
    """What staging builds equals, hashes and encodes like the record the
    frozen constructor builds, and is just as immutable."""
    _, timestamp, [staged] = server._stage_write(
        "events", b"key-1", {"payload": value}, 7
    )
    built = LogRecord(
        RecordType.WRITE, 0, 7, "events", "events#0", b"key-1", "payload",
        timestamp, value,
    )
    assert type(staged) is LogRecord
    assert staged == built and not staged != built
    assert hash(staged) == hash(built)
    assert staged.encode() == built.encode()
    for field in fields(LogRecord):
        with pytest.raises(FrozenInstanceError):
            setattr(staged, field.name, getattr(built, field.name))
