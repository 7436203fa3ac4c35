"""Unit tests for the commit coordinator: leader/follower grouping, one
DFS round trip per group, ack pipelining, crash semantics, and the
blocking commit every tablet-server write goes through."""

import pytest

from repro.dfs.filesystem import DFS
from repro.errors import ServerDownError
from repro.sim.failure import CP_LOG_APPEND, FaultPlan, fault_plan
from repro.sim.metrics import (
    COMMIT_ACKS_DEFERRED,
    COMMIT_GROUP_FANIN,
    COMMIT_GROUPS,
    DFS_APPEND_ROUND_TRIPS,
    REGISTRY,
)
from repro.sim.machine import Machine
from repro.wal.group_commit import CommitCoordinator
from repro.wal.record import LogRecord, RecordType
from repro.wal.repository import LogRepository
from tests.wal.helpers import read_record


def write_record(key: bytes, value: bytes = b"v", ts: int = 1) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        table="t",
        tablet="t#0",
        key=key,
        group="g",
        timestamp=ts,
        value=value,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20)


@pytest.fixture
def coordinator(repo, machines):
    return CommitCoordinator(repo, machines[0], max_delay=0.002, max_records=16)


def test_metric_names_are_registered():
    for name in (
        "commit.groups",
        "commit.group_fanin",
        "commit.acks_deferred",
        "dfs.append_round_trips",
        "commit.flush",
        "commit.fanin",
        "latency.commit",
    ):
        assert REGISTRY.known(name), name


def test_append_delegates_to_append_batch(dfs, machines):
    """The satellite refactor: a single append is a one-record batch with
    identical pointer, LSN and simulated cost."""
    repo_a = LogRepository(dfs, machines[0], "/logbase/a/log", segment_size=1 << 20)
    repo_b = LogRepository(dfs, machines[1], "/logbase/b/log", segment_size=1 << 20)
    before_a = machines[0].clock.now
    before_b = machines[1].clock.now
    pointer_a, stamped_a = repo_a.append(write_record(b"k", b"payload"))
    [(pointer_b, stamped_b)] = repo_b.append_batch([write_record(b"k", b"payload")])
    assert pointer_a.offset == pointer_b.offset
    assert pointer_a.size == pointer_b.size
    assert stamped_a.lsn == stamped_b.lsn
    assert machines[0].clock.now - before_a == pytest.approx(
        machines[1].clock.now - before_b
    )
    assert read_record(repo_a, pointer_a) == stamped_a


def test_single_submission_flushes_on_drain(coordinator, repo):
    future = coordinator.submit(0.0, [write_record(b"a")])
    assert not future.done
    assert coordinator.pending == 1
    [resolved] = coordinator.drain()
    assert resolved is future
    assert future.acked
    (pointer, stamped) = future.result()[0]
    assert read_record(repo, pointer) == stamped


def test_followers_join_one_round_trip(coordinator, machines):
    before = machines[0].counters.get(DFS_APPEND_ROUND_TRIPS)
    futures = [
        coordinator.submit(0.0005 * i, [write_record(b"k%d" % i)]) for i in range(4)
    ]
    coordinator.drain()
    assert all(f.acked for f in futures)
    # One replication pipeline for the whole group.
    assert machines[0].counters.get(DFS_APPEND_ROUND_TRIPS) - before == 1
    assert machines[0].counters.get(COMMIT_GROUPS) == 1
    assert machines[0].counters.get(COMMIT_GROUP_FANIN) == 4
    # Each member got exactly its own records back.
    for i, future in enumerate(futures):
        assert [r.key for _, r in future.result()] == [b"k%d" % i]


def test_full_budget_seals_immediately(repo, machines):
    coordinator = CommitCoordinator(
        repo, machines[0], max_delay=0.5, max_records=2
    )
    coordinator.submit(0.0, [write_record(b"a")])
    coordinator.submit(0.0001, [write_record(b"b")])
    # Sealed at the filling arrival, not at the end of the leader window.
    assert coordinator.next_due() == pytest.approx(0.0001)
    resolved = coordinator.run_due(0.0001)
    assert len(resolved) == 2


def test_late_arrival_leads_new_group(coordinator, machines):
    coordinator.submit(0.0, [write_record(b"a")])
    coordinator.submit(0.01, [write_record(b"b")])  # past the 2 ms window
    coordinator.drain()
    assert machines[0].counters.get(COMMIT_GROUPS) == 2


def test_run_due_respects_leader_window(coordinator):
    future = coordinator.submit(0.0, [write_record(b"a")])
    assert coordinator.run_due(0.001) == []
    assert not future.done
    assert coordinator.next_due() == pytest.approx(0.002)
    [resolved] = coordinator.run_due(0.002)
    assert resolved.acked


def test_pipeline_defers_ack_drain(coordinator, machines):
    """With 3-way replication the ack leg is deferred: members complete
    after the machine clock (data done), and the deferral is counted."""
    future = coordinator.submit(0.0, [write_record(b"a")])
    coordinator.drain()
    ack_wait = 2 * machines[0].network.latency  # two secondary acks
    assert future.completion_time == pytest.approx(
        machines[0].clock.now + ack_wait
    )
    assert machines[0].counters.get(COMMIT_ACKS_DEFERRED) == 1


def test_pipeline_off_charges_ack_on_clock(repo, machines):
    coordinator = CommitCoordinator(repo, machines[0], pipeline=False)
    future = coordinator.submit(0.0, [write_record(b"a")])
    coordinator.drain()
    assert future.completion_time == pytest.approx(machines[0].clock.now)
    assert machines[0].counters.get(COMMIT_ACKS_DEFERRED) == 0


def test_pipelined_groups_overlap(coordinator, machines):
    """The next group's flush starts at data-done of the previous one,
    not at its ack-drain completion."""
    first = coordinator.submit(0.0, [write_record(b"a", b"x" * 4096)])
    second = coordinator.submit(0.01, [write_record(b"b")])
    coordinator.drain()
    ack_wait = 2 * machines[0].network.latency
    # Both completions sit one ack-drain past their group's data-done;
    # the second flush began before the first group's acks finished.
    assert first.completion_time < second.completion_time
    assert second.completion_time == pytest.approx(machines[0].clock.now + ack_wait)


def test_crash_mid_flush_fails_every_member(coordinator, machines):
    """Guarantee 1 under group commit: a crash inside the flush acks no
    member of the group."""
    plan = FaultPlan()

    def die(_ctx):
        machines[0].fail()
        raise ServerDownError("crashed mid-group-flush")

    plan.add(CP_LOG_APPEND, die, machine=machines[0].name)
    futures = [coordinator.submit(0.0005 * i, [write_record(b"k%d" % i)]) for i in range(3)]
    with fault_plan(plan):
        resolved = coordinator.drain()
    assert len(resolved) == 3
    assert all(f.done and not f.acked for f in futures)
    for future in futures:
        with pytest.raises(ServerDownError):
            future.result()
    assert machines[0].counters.get(COMMIT_GROUPS) == 0


def test_flush_on_dead_machine_fails_group(coordinator, machines):
    future = coordinator.submit(0.0, [write_record(b"a")])
    machines[0].fail()
    coordinator.drain()
    assert future.error is not None and not future.acked


def test_abandon_fails_pending(coordinator):
    future = coordinator.submit(0.0, [write_record(b"a")])
    failed = coordinator.abandon()
    assert failed == [future]
    assert isinstance(future.error, ServerDownError)
    assert coordinator.pending == 0


def test_on_durable_runs_before_resolution(coordinator):
    applied = []
    future = coordinator.submit(
        0.0, [write_record(b"a")], on_durable=lambda pairs: applied.extend(pairs)
    )
    coordinator.drain()
    assert applied == future.result()


def test_byte_budget_limits_group(repo, machines):
    coordinator = CommitCoordinator(
        repo, machines[0], max_delay=0.5, max_records=64, max_bytes=2048
    )
    coordinator.submit(0.0, [write_record(b"a", b"x" * 1500)])
    coordinator.submit(0.0001, [write_record(b"b", b"x" * 1500)])
    coordinator.drain()
    # The second submission did not fit the byte budget: two groups.
    assert machines[0].counters.get(COMMIT_GROUPS) == 2


def _twin() -> tuple[Machine, LogRepository]:
    """A fresh 3-node DFS and a log on its first machine; two calls give
    identical twins."""
    machines = [Machine(f"node-{i}", rack=f"rack-{i % 2}") for i in range(3)]
    dfs = DFS(machines, replication=3, block_size=1 << 20, checksum_replicas=True)
    return machines[0], LogRepository(
        dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20
    )


def test_group_of_one_commit_charges_what_append_batch_charges():
    """Nothing queued: a blocking commit is exactly ``append_batch`` —
    same pointer, LSN and clock — plus one group of fan-in 1."""
    machine_a, repo_a = _twin()
    machine_b, repo_b = _twin()
    coordinator = CommitCoordinator(repo_a, machine_a)
    for i in range(3):
        [(pointer_a, stamped_a)] = coordinator.commit([write_record(b"k%d" % i, b"x" * 900)])
        [(pointer_b, stamped_b)] = repo_b.append_batch([write_record(b"k%d" % i, b"x" * 900)])
        assert pointer_a == pointer_b
        assert stamped_a.lsn == stamped_b.lsn
        assert machine_a.clock.now == machine_b.clock.now
    assert machine_a.counters.get(COMMIT_GROUPS) == 3
    assert machine_a.counters.get(COMMIT_GROUP_FANIN) == 3
    # No leader window, no deferred ack, no flush bookkeeping.
    assert machine_a.counters.get(COMMIT_ACKS_DEFERRED) == 0
    assert coordinator.fanin.count == 0 and coordinator.latency.count == 0
    assert coordinator.next_due() is None


def test_blocking_commit_joins_the_open_group(coordinator, machines):
    queued = [coordinator.submit(0.0, [write_record(b"q%d" % i)]) for i in range(3)]
    before = machines[0].counters.get(DFS_APPEND_ROUND_TRIPS)
    [(pointer, stamped)] = coordinator.commit([write_record(b"b")])
    # Acked by the same flush as the queued members: one round trip.
    assert machines[0].counters.get(DFS_APPEND_ROUND_TRIPS) - before == 1
    assert machines[0].counters.get(COMMIT_GROUPS) == 1
    assert machines[0].counters.get(COMMIT_GROUP_FANIN) == 4
    assert all(f.acked for f in queued)
    assert coordinator.pending == 0
    # The caller waited for the group's ack, not only its data.
    assert machines[0].clock.now == queued[0].completion_time
    assert read_record(coordinator._log, pointer) == stamped


def test_blocking_commit_raises_when_its_flush_dies(coordinator, machines):
    plan = FaultPlan()

    def die(_ctx):
        machines[0].fail()
        raise ServerDownError("crashed mid-group-flush")

    plan.add(CP_LOG_APPEND, die, machine=machines[0].name)
    queued = [coordinator.submit(0.0, [write_record(b"q%d" % i)]) for i in range(3)]
    with fault_plan(plan):
        with pytest.raises(ServerDownError):
            coordinator.commit([write_record(b"b")])
    assert all(f.done and not f.acked for f in queued)
    assert machines[0].counters.get(COMMIT_GROUPS) == 0


@pytest.mark.parametrize("queued", [0, 2], ids=["group-of-one", "joining"])
def test_commit_runs_on_durable_before_returning(coordinator, queued):
    for i in range(queued):
        coordinator.submit(0.0, [write_record(b"q%d" % i)])
    applied = []
    appended = coordinator.commit([write_record(b"a")], on_durable=applied.extend)
    assert applied == appended
