"""Unit tests for incremental compaction plan execution."""

from dataclasses import replace

import pytest

from repro.dfs.datanode import CHECKSUM_CHUNK
from repro.dfs.filesystem import DFS
from repro.index.persist import decode_run_index
from repro.sim.failure import (
    CP_COMPACTION_MID,
    CP_DFS_APPEND,
    CP_LOG_RETIRE,
    CP_META_PERSIST,
    FailureInjector,
    FaultPlan,
    fault_plan,
    kill_action,
)
from repro.sim.metrics import DFS_APPEND_ROUND_TRIPS
from repro.wal.compaction import CompactionResult, IncrementalCompactionJob
from repro.wal.planner import CompactionPlan, CompactionPlanner
from repro.wal.record import LogRecord, RecordType, abort_record, commit_record
from repro.wal.repository import LogRepository
from tests.wal.helpers import compact_whole_log, indexed


def write(key: bytes, ts: int, value: bytes, *, table="t", group="g", txn=0) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        txn_id=txn,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=value,
    )


def delete(key: bytes, ts: int, *, table="t", group="g") -> LogRecord:
    return LogRecord(
        record_type=RecordType.INVALIDATE,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=None,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20)


def run_plans(repo, **knobs):
    """Plan once over the current log and execute every plan."""
    results = []
    for plan in CompactionPlanner(repo, **knobs).plan():
        results.append(IncrementalCompactionJob(repo, plan).run())
    return results


def visible_versions(repo):
    """(table, group, key) -> live timestamps, replaying the whole log the
    way a redo scan would: INVALIDATE kills versions at or below its ts."""
    live: dict[tuple[str, str, bytes], set[int]] = {}
    committed = set()
    staged = []
    for file_no in repo.segments():
        for _, record in repo.scan_segment(file_no):
            if record.record_type is RecordType.COMMIT:
                committed.add(record.txn_id)
            staged.append(record)
    for record in staged:
        if record.txn_id != 0 and record.txn_id not in committed:
            continue
        slot = (record.table, record.group, record.key)
        if record.record_type is RecordType.WRITE:
            live.setdefault(slot, set()).add(record.timestamp)
        elif record.record_type is RecordType.INVALIDATE:
            kept = {ts for ts in live.get(slot, set()) if ts > record.timestamp}
            if kept:
                live[slot] = kept
            else:
                live.pop(slot, None)
    return live


# -- tail plans -------------------------------------------------------------


def test_tail_plan_matches_monolithic_semantics(repo):
    for key, ts in ((b"b", 2), (b"a", 3), (b"b", 1), (b"a", 1)):
        repo.append(write(key, ts, b"v"))
    repo.append(write(b"c", 4, b"txn", txn=9))
    repo.append(commit_record(9, 4))
    repo.append(write(b"d", 5, b"lost", txn=10))  # never committed
    (result,) = run_plans(repo)
    order = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert order == [(b"a", 1), (b"a", 3), (b"b", 1), (b"b", 2), (b"c", 4)]
    assert result.stats.dropped_uncommitted == 1
    assert set(result.index_entries) == {("t", "g")}
    # Survivors are auto-committed slim records in sorted runs.
    for file_no in repo.segments():
        assert repo.is_sorted_segment(file_no)
        for _, record in repo.scan_segment(file_no):
            assert record.txn_id == 0


def test_tail_plan_drops_covered_deletes(repo):
    repo.append(write(b"k", 1, b"old"))
    repo.append(delete(b"k", 2))
    (result,) = run_plans(repo)
    # The plan covers the whole log, so the tombstone may be dropped.
    assert result.stats.tombstones_carried == 0
    assert visible_versions(repo) == {}


def test_tail_plan_carries_tombstone_when_not_covered(repo):
    # Sorted run holding the victim, written by an earlier full round.
    repo.append(write(b"k", 1, b"victim"))
    compact_whole_log(repo)
    run = repo.segments()[0]
    # New tail deletes it; the tail plan must not touch the sorted run
    # (below fanout), so the tombstone has to ride along.
    repo.append(delete(b"k", 5))
    repo.roll()
    results = run_plans(repo, tier_fanout=4)
    assert sum(r.stats.tombstones_carried for r in results) == 1
    assert run in repo.segments()  # sorted run untouched
    assert visible_versions(repo) == {}  # ...but the delete still wins


def test_carried_tombstone_spares_newer_write(repo):
    repo.append(write(b"k", 1, b"old"))
    compact_whole_log(repo)
    repo.append(delete(b"k", 3))
    repo.append(write(b"k", 7, b"reborn"))
    repo.roll()
    run_plans(repo, tier_fanout=4)
    assert visible_versions(repo) == {("t", "g", b"k"): {7}}


def test_tail_plan_leaves_sorted_runs_alone(repo):
    repo.append(write(b"a", 1, b"v"))
    compact_whole_log(repo)
    runs = list(repo.segments())
    repo.append(write(b"b", 2, b"v"))
    repo.roll()
    plans = CompactionPlanner(repo, tier_fanout=4).plan()
    assert len(plans) == 1 and plans[0].kind == "tail"
    result = IncrementalCompactionJob(repo, plans[0]).run()
    assert set(runs) <= set(repo.segments())
    assert set(result.retired_segments).isdisjoint(runs)


# -- budget cuts and dangling transactions ----------------------------------


def test_budget_cut_defers_dangling_txn_segments(repo):
    # Transaction writes land in segment A; its COMMIT lands past the
    # budget cut.  The plan must defer A rather than drop the write.
    repo.append(write(b"k", 1, b"txn-value", txn=7))
    first = repo.segments()[-1]
    repo.roll()
    repo.append(commit_record(7, 1))
    repo.roll()
    plan = CompactionPlan("tail", (first,), repo.segment_bytes(first))
    result = IncrementalCompactionJob(repo, plan).run()
    assert result.retired_segments == []
    assert result.stats.dropped_uncommitted == 0
    assert first in repo.segments()
    assert visible_versions(repo) == {("t", "g", b"k"): {1}}


def test_aborted_txn_not_deferred(repo):
    repo.append(write(b"k", 1, b"doomed", txn=7))
    repo.append(abort_record(7))
    repo.append(write(b"live", 2, b"v"))
    first = repo.segments()[-1]
    repo.roll()
    repo.append(write(b"later", 3, b"v"))
    plan = CompactionPlan("tail", (first,), repo.segment_bytes(first))
    result = IncrementalCompactionJob(repo, plan).run()
    # ABORT resolves txn 7 inside the plan: nothing dangles, the segment
    # compacts and the aborted write disappears.
    assert result.retired_segments == [first]
    kept = [key for _, _, key, _, _ in indexed(result)]
    assert kept == [b"live"]


# -- merge plans ------------------------------------------------------------


def make_runs(repo, per_run, **knobs):
    """One sorted run per entry of ``per_run`` (a list of record lists)."""
    runs = []
    for records in per_run:
        for record in records:
            repo.append(record)
        result = IncrementalCompactionJob(
            repo, CompactionPlanner(repo, **knobs).plan()[-1]
        ).run()
        runs.extend(result.new_segments)
        repo.roll()
    return runs


def test_merge_plan_streams_runs_into_one(repo):
    runs = make_runs(
        repo,
        [
            [write(b"a", 1, b"v"), write(b"c", 2, b"v")],
            [write(b"b", 3, b"v"), write(b"c", 4, b"v")],
        ],
        tier_fanout=4,
    )
    plan = CompactionPlan(
        "merge",
        tuple(runs),
        sum(repo.segment_bytes(f) for f in runs),
        ("t", "g"),
    )
    result = IncrementalCompactionJob(repo, plan).run()
    assert len(result.new_segments) == 1
    order = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert order == [(b"a", 1), (b"b", 3), (b"c", 2), (b"c", 4)]
    assert sorted(result.retired_segments) == sorted(runs)
    for file_no in runs:
        assert file_no not in repo.segments()


def test_merge_dedupes_same_key_timestamp_across_runs(repo):
    # The same (key, ts) version can exist in two runs (e.g. after a
    # crash between install steps); the merge keeps exactly one copy.
    runs = make_runs(
        repo,
        [[write(b"k", 5, b"v")], [write(b"k", 5, b"v"), write(b"k", 6, b"w")]],
        tier_fanout=4,
    )
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    kept = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert kept == [(b"k", 5), (b"k", 6)]


def test_merge_applies_carried_tombstones(repo):
    # Run 1 holds the data; run 2 holds a carried tombstone + newer write.
    repo.append(write(b"k", 1, b"old"))
    compact_whole_log(repo)
    repo.append(delete(b"k", 3))
    repo.append(write(b"k", 8, b"new"))
    repo.roll()
    run_plans(repo, tier_fanout=4)  # tail plan carries the tombstone
    runs = list(repo.segments())
    assert len(runs) == 2
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    kept = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert kept == [(b"k", 8)]
    # The merge covers every segment of the scope: tombstone dropped.
    assert result.stats.tombstones_carried == 0
    assert visible_versions(repo) == {("t", "g", b"k"): {8}}


def test_merge_keeps_tombstone_while_uncovered(repo):
    repo.append(write(b"k", 1, b"v"))
    compact_whole_log(repo)  # run A: k@1
    repo.append(delete(b"k", 3))
    repo.roll()
    run_plans(repo, tier_fanout=4)  # tail plan carries the tombstone: run B
    runs = list(repo.segments())
    assert len(runs) == 2
    # An unsorted segment outside the merge could still hold b"k", so the
    # merged run must re-carry the tombstone even though k@1 dies here.
    repo.append(write(b"other", 9, b"v"))
    plan = CompactionPlan("merge", tuple(runs), 0, ("t", "g"))
    result = IncrementalCompactionJob(repo, plan).run()
    assert result.stats.tombstones_carried == 1
    assert indexed(result) == []  # k@1 was shadowed and dropped
    assert ("t", "g", b"k") not in visible_versions(repo)


def test_incremental_rounds_converge_with_monolithic(repo):
    """Several churn rounds of incremental compaction leave exactly the
    data a monolithic compaction of the same history would."""
    expected: dict[bytes, set[int]] = {}
    ts = 0
    for round_no in range(5):
        for i in range(6):
            ts += 1
            key = b"key%d" % (i % 4)
            repo.append(write(key, ts, b"r%d" % round_no))
            expected.setdefault(key, set()).add(ts)
        if round_no == 2:
            ts += 1
            repo.append(delete(b"key0", ts))
            expected[b"key0"] = {t for t in expected[b"key0"] if t > ts}
        repo.roll()
        run_plans(repo, tier_fanout=2)
    got = visible_versions(repo)
    assert {slot[2]: tss for slot, tss in got.items()} == {
        key: tss for key, tss in expected.items() if tss
    }


# -- the run writer ----------------------------------------------------------


def kilobyte(i: int) -> bytes:
    return bytes([i % 251]) * 1000


def run_appends(repo, plan) -> tuple[CompactionResult, int]:
    """Execute ``plan``; also the DFS append round trips its run writer
    paid — the counter is read at CP_COMPACTION_MID, after the runs are
    written and before the install's metadata writes."""
    counters = repo.machine.counters
    before = counters.get(DFS_APPEND_ROUND_TRIPS)
    at_install = []
    hook = FaultPlan()
    hook.add(
        CP_COMPACTION_MID,
        lambda ctx: at_install.append(counters.get(DFS_APPEND_ROUND_TRIPS)),
    )
    with fault_plan(hook):
        result = IncrementalCompactionJob(repo, plan).run()
    return result, at_install[0] - before


def test_tail_plan_pays_one_dfs_append_per_chunk_of_each_run(repo):
    for i in range(200):
        repo.append(write(b"k%05d" % i, i + 1, kilobyte(i), group="g"))
    for i in range(90):
        repo.append(write(b"k%05d" % i, i + 1, kilobyte(i), group="h"))
    (plan,) = CompactionPlanner(repo).plan()
    result, appends = run_appends(repo, plan)
    assert result.stats.kept_versions == 290
    assert len(result.new_segments) == 2
    assert appends <= sum(
        -(-repo.segment_bytes(run) // CHECKSUM_CHUNK) + 1
        for run in result.new_segments
    )
    assert result.stats.bytes_written == sum(
        repo.segment_bytes(run) for run in result.new_segments
    )


def test_run_file_is_its_frames_in_key_timestamp_order(repo):
    # An earlier run of the scope stays outside the plan, so b's delete
    # has to ride along as a tombstone.
    repo.append(write(b"b", 1, b"victim"))
    compact_whole_log(repo)
    for record in (
        write(b"c", 4, b"c4"),
        delete(b"b", 5),
        write(b"b", 7, b"reborn"),
        write(b"a", 3, b"a3"),
        write(b"c", 2, b"c2"),
        write(b"a", 6, b"a6", txn=9),
        commit_record(9, 6),
    ):
        repo.append(record)
    repo.roll()
    tail = [
        record
        for file_no in repo.segments()
        if not repo.is_sorted_segment(file_no)
        for _, record in repo.scan_segment(file_no)
    ]
    written = {
        (r.key, r.timestamp): r for r in tail if r.record_type is RecordType.WRITE
    }
    marker = next(r for r in tail if r.is_delete)
    (result,) = run_plans(repo, tier_fanout=4)
    (run,) = result.new_segments
    frames = [
        record.encode(slim=True)
        for record in (
            written[b"a", 3],
            replace(written[b"a", 6], txn_id=0),
            # The carried tombstone sits ahead of its key's versions.
            LogRecord(RecordType.INVALIDATE, lsn=marker.lsn, key=b"b", timestamp=5),
            written[b"b", 7],
            written[b"c", 2],
            written[b"c", 4],
        )
    ]
    assert repo.read_segment_bytes(run) == b"".join(frames)
    assert result.stats.bytes_written == sum(len(frame) for frame in frames)
    assert result.stats.tombstones_carried == 1
    # Every surviving version is indexed, in file order, under a pointer
    # that decodes to that very record.
    assert [(key, ts) for _, _, key, ts, _ in indexed(result)] == [
        (b"a", 3), (b"a", 6), (b"b", 7), (b"c", 2), (b"c", 4)
    ]
    for table, group, key, ts, pointer in indexed(result):
        record = repo.read(pointer)
        assert (record.table, record.group, record.key, record.timestamp) == (
            table, group, key, ts,
        )
        assert record.value == written[key, ts].value


def test_run_crossing_several_flushes_and_a_dfs_block_boundary(machines):
    # 160 KiB blocks: not a multiple of the chunk, so one flush straddles
    # the block boundary and is split across two replication pipelines.
    dfs = DFS(machines, replication=3, block_size=160 * 1024, checksum_replicas=True)
    repo = LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20)
    for i in range(300):
        repo.append(write(b"k%05d" % (i // 2), i + 1, kilobyte(i)))
    (plan,) = CompactionPlanner(repo).plan()
    result, appends = run_appends(repo, plan)
    (run,) = result.new_segments
    size = repo.segment_bytes(run)
    blocks = dfs.namenode.get_file(repo.segment_path(run)).blocks
    assert size > 4 * CHECKSUM_CHUNK and len(blocks) == 2
    assert appends <= -(-size // CHECKSUM_CHUNK) + 1 + (len(blocks) - 1)
    # The file is exactly the indexed frames, back to back from offset 0...
    scanned = list(repo.scan_segment(run))
    assert [pointer for pointer, _ in scanned] == [
        pointer for *_, pointer in indexed(result)
    ]
    assert sum(pointer.size for pointer, _ in scanned) == size
    # ...each readable through its own pointer, the one straddling the
    # block boundary included...
    assert any(
        p.offset < 160 * 1024 < p.offset + p.size for *_, p in indexed(result)
    )
    records = repo.read_many([pointer for *_, pointer in indexed(result)])
    for (_, _, key, ts, _), record in zip(indexed(result), records):
        assert (record.key, record.timestamp, record.value) == (
            key, ts, kilobyte(ts - 1),
        )
    # ...and every replica's chunk checksums agree with its bytes.
    for block in blocks:
        for name in block.locations:
            assert dfs.datanodes[name].verify_replica(block.block_id)


def assert_run_index_matches(repo, result, carried):
    """The run's index file lists exactly the versions the plan reported,
    in file order, and ``carried``, each tombstone under the pointer of
    its frame in the run."""
    (run,) = result.new_segments
    versions, tombstones = decode_run_index(repo.read_run_index(run))
    assert [("t", "g", *row) for row in versions] == indexed(result)
    assert [(key, ts) for key, ts, _ in tombstones] == carried
    assert result.stats.tombstones_carried == len(carried)
    for key, ts, pointer in tombstones:
        marker = repo.read(pointer)
        assert marker.is_delete
        assert (marker.key, marker.timestamp) == (key, ts)


def test_run_index_is_the_plans_index_entries_and_carried_tombstones(repo, dfs):
    for i in range(6):
        repo.append(write(b"k%d" % i, 1 + i, b"first"))
    repo.roll()
    (first,) = run_plans(repo)
    assert_run_index_matches(repo, first, [])
    repo.append(delete(b"k1", 10))
    repo.append(write(b"k2", 11, b"second"))
    repo.roll()
    (tail,) = run_plans(repo)
    assert_run_index_matches(repo, tail, [(b"k1", 10)])
    repo.append(write(b"k7", 12, b"third"))
    repo.roll()
    run_plans(repo)  # a third run of the scope, left out of the merge
    inputs = (*first.new_segments, *tail.new_segments)
    index_files = [repo.run_index_path(run) for run in inputs]
    merge = IncrementalCompactionJob(
        repo,
        CompactionPlan(
            "merge", inputs, sum(map(repo.segment_bytes, inputs)), scope=("t", "g")
        ),
    ).run()
    assert [(key, ts) for _, _, key, ts, _ in indexed(merge)] == [
        (b"k0", 1), (b"k2", 3), (b"k2", 11), (b"k3", 4), (b"k4", 5), (b"k5", 6)
    ]
    assert_run_index_matches(repo, merge, [(b"k1", 10)])
    # The merged runs' indexes were retired with them.
    assert not any(map(dfs.exists, index_files))


# -- crash safety -----------------------------------------------------------


def crash_mid_plan(repo, dfs, machines, point, hits, *, after=None):
    """Kill the owner at the ``hits``-th ``point`` (counted from the first
    ``after``, when given) of a tail plan whose run spans several flushes;
    every record must stay readable, before and after a restart."""
    repo.append(write(b"a", 1, b"v"))
    repo.append(delete(b"a", 2))
    repo.append(write(b"b", 3, b"v"))
    for i in range(150):
        repo.append(write(b"k%05d" % i, 10 + i, kilobyte(i)))
    inputs = list(repo.segments())
    before = visible_versions(repo)
    injector = FailureInjector()
    injector.register(machines[0].name, machines[0])
    plan = FaultPlan()
    kill = kill_action(injector, machines[0].name, RuntimeError("died"))
    if after is None:
        plan.add(point, kill, hits=hits)
    else:
        plan.add(after, lambda ctx: plan.add(point, kill, hits=hits))
    (compaction_plan,) = CompactionPlanner(repo).plan()
    with fault_plan(plan):
        with pytest.raises(RuntimeError):
            IncrementalCompactionJob(repo, compaction_plan).run()
    machines[0].restart()
    reattached = LogRepository.reattach(dfs, machines[0], "/logbase/ts-0/log")
    survivors = {
        slot: tss for slot, tss in visible_versions(reattached).items() if slot[0]
    }
    assert survivors == before
    assert survivors[("t", "g", b"b")] == {3}
    assert ("t", "g", b"a") not in survivors
    # Inputs were never retired: every record is still readable.
    assert set(inputs) <= set(repo.segments())
    assert set(inputs) <= set(reattached.segments())
    return reattached, [f for f in reattached.segments() if f not in inputs]


def test_crash_before_install_keeps_inputs_live(repo, dfs, machines):
    reattached, (orphan,) = crash_mid_plan(repo, dfs, machines, CP_COMPACTION_MID, 1)
    # The whole run was written; nothing references it.
    assert reattached.segment_scope(orphan) is None
    assert len(list(reattached.scan_segment(orphan))) == 151


def test_crash_between_two_flushes_keeps_inputs_live(repo, dfs, machines):
    # The run's second DFS append never happens: what is left behind is
    # the first flush — whole frames only, no torn tail — in a file
    # nothing references.
    reattached, (orphan,) = crash_mid_plan(repo, dfs, machines, CP_DFS_APPEND, 2)
    assert reattached.segment_scope(orphan) is None
    left_behind = list(reattached.scan_segment(orphan))
    assert 0 < len(left_behind) < 151
    assert sum(pointer.size for pointer, _ in left_behind) == (
        reattached.segment_bytes(orphan)
    )
    assert reattached.segment_bytes(orphan) >= CHECKSUM_CHUNK


# The install is write run -> write its index -> one ``segments.meta`` swap
# -> delete the inputs.  The three windows that order opens:


def test_crash_between_index_and_swap_leaves_an_unadmitted_pair(repo, dfs, machines):
    reattached, (orphan,) = crash_mid_plan(repo, dfs, machines, CP_COMPACTION_MID, 1)
    assert dfs.exists(reattached.run_index_path(orphan))
    # A follower's handle admits a run only once the map names it.
    tailing = LogRepository.reattach(dfs, machines[1], "/logbase/ts-0/log")
    tailing.refresh_from_dfs()
    assert orphan not in tailing.segments()


def test_crash_writing_the_map_keeps_every_rewritten_record(repo, dfs, machines):
    # The first DFS append after the runs and their indexes is the staged
    # map.  Dying inside it used to find the inputs already deleted: a
    # scopeless run and a torn temp file were all that was left of 151
    # versions.
    reattached, (orphan,) = crash_mid_plan(
        repo, dfs, machines, CP_DFS_APPEND, 1, after=CP_COMPACTION_MID
    )
    assert reattached.segment_scope(orphan) is None


def test_crash_inside_the_swap_installs_the_new_map_or_the_old(repo, dfs, machines):
    # The staged map is complete, so a restart takes it: run and inputs
    # are both live and every version is visible once.
    reattached, (run,) = crash_mid_plan(repo, dfs, machines, CP_META_PERSIST, 1)
    assert reattached.segment_scope(run) == ("t", "g")
    versions, tombstones = decode_run_index(reattached.read_run_index(run))
    assert len(versions) == 151 and not tombstones


def test_crash_after_the_swap_leaves_inputs_and_run_both_live(repo, dfs, machines):
    reattached, (run,) = crash_mid_plan(repo, dfs, machines, CP_LOG_RETIRE, 1)
    assert reattached.segment_scope(run) == ("t", "g")
    assert not dfs.exists("/logbase/ts-0/log/segments.meta.tmp")
    # The next round retires the inputs again; the merge after it drops
    # the duplicate copies and takes the first run's index with it.
    before = visible_versions(reattached)
    first_index = reattached.run_index_path(run)
    run_plans(reattached, tier_fanout=2)
    (merged,) = run_plans(reattached, tier_fanout=2)
    assert merged.stats.kept_versions == 151
    assert reattached.segments() == merged.new_segments
    assert visible_versions(reattached) == before
    assert dfs.exists(reattached.run_index_path(merged.new_segments[0]))
    assert not dfs.exists(first_index)


def test_validation():
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("tail", (), 0), max_versions=0)
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("sideways", (), 0))
    with pytest.raises(ValueError):
        IncrementalCompactionJob(None, CompactionPlan("merge", (), 0, scope=None))
