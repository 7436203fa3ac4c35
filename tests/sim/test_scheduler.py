"""Tests for the virtual-time concurrent-client scheduler."""

import pytest

from repro.errors import ServerDownError
from repro.sim.scheduler import Advance, ConcurrentScheduler, Invoke, Submit


class FakeFuture:
    """Minimal stand-in for a CommitFuture."""

    def __init__(self):
        self.done = False
        self.completion_time = None
        self.error = None


class FakeCoordinator:
    """Resolves submitted futures at a fixed deadline, like a group flush."""

    def __init__(self, flush_at, completion_at=None):
        self.flush_at = flush_at
        self.completion_at = completion_at if completion_at is not None else flush_at
        self.futures = []

    def submit(self):
        future = FakeFuture()
        self.futures.append(future)
        return future

    def next_due(self):
        return self.flush_at if self.futures else None

    def run_due(self, now):
        if not self.futures or now < self.flush_at:
            return []
        resolved, self.futures = self.futures, []
        for future in resolved:
            future.done = True
            future.completion_time = self.completion_at
        return resolved


def test_invoke_receives_result_and_seconds():
    seen = []

    def client():
        result, seconds = yield Invoke(lambda now: ("hello", 0.5))
        seen.append((result, seconds))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client())
    makespan = scheduler.run()
    assert seen == [("hello", 0.5)]
    assert makespan == pytest.approx(0.5)
    assert scheduler.finished == 1


def test_clients_interleave_in_virtual_time():
    trace = []

    def client(name, step):
        for _ in range(3):
            yield Invoke(lambda now, name=name: (trace.append((name, now)), step))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client("slow", 0.3))
    scheduler.add_client(client("fast", 0.1))
    scheduler.run()
    times = [t for _, t in trace]
    assert times == sorted(times)  # earliest-time client always steps next
    # The fast client's later ops land between the slow client's ops:
    # genuine overlap, not sequential execution.
    assert trace.index(("fast", pytest.approx(0.2))) < trace.index(
        ("slow", pytest.approx(0.3))
    )


def test_advance_moves_only_that_client():
    trace = []

    def waiter():
        yield Advance(1.0)
        yield Invoke(lambda now: (trace.append(("waiter", now)), 0.0))

    def worker():
        yield Invoke(lambda now: (trace.append(("worker", now)), 0.0))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(waiter())
    scheduler.add_client(worker())
    scheduler.run()
    assert trace == [("worker", 0.0), ("waiter", 1.0)]


def test_add_client_start_offset():
    starts = []

    def client():
        yield Invoke(lambda now: (starts.append(now), 0.0))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client(), at=2.5)
    scheduler.run()
    assert starts == [pytest.approx(2.5)]


def test_submit_parks_until_flush_and_resumes_at_completion():
    coordinator = FakeCoordinator(flush_at=0.002, completion_at=0.0045)
    resumed = []

    def client():
        future = yield Submit(lambda now: coordinator.submit())
        yield Invoke(lambda now: (resumed.append((future.done, now)), 0.0))

    scheduler = ConcurrentScheduler(coordinators=[coordinator])
    scheduler.add_client(client())
    scheduler.run()
    assert resumed == [(True, pytest.approx(0.0045))]


def test_parked_clients_share_one_flush():
    coordinator = FakeCoordinator(flush_at=0.002)
    woken = []

    def client(i):
        yield Submit(lambda now: coordinator.submit())
        woken.append(i)

    scheduler = ConcurrentScheduler(coordinators=[coordinator])
    for i in range(4):
        scheduler.add_client(client(i))
    scheduler.run()
    assert sorted(woken) == [0, 1, 2, 3]
    assert len(coordinator.futures) == 0


def test_already_resolved_submit_does_not_park():
    def instant(now):
        future = FakeFuture()
        future.done = True
        future.completion_time = now + 0.001
        return future

    ends = []

    def client():
        future = yield Submit(instant)
        ends.append(future.completion_time)

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client())
    assert scheduler.run() == pytest.approx(0.001)
    assert ends == [pytest.approx(0.001)]


def test_action_exception_rethrown_inside_generator():
    caught = []

    def boom(now):
        raise ValueError("op failed")

    def client():
        try:
            yield Invoke(boom)
        except ValueError as exc:
            caught.append(str(exc))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client())
    scheduler.run()
    assert caught == ["op failed"]


def test_bad_action_raises_type_error_in_generator():
    def client():
        yield "not an action"

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client())
    with pytest.raises(TypeError, match="not a scheduler action"):
        scheduler.run()


def test_negative_advance_rejected():
    def client():
        yield Advance(-1.0)

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client())
    with pytest.raises(ValueError):
        scheduler.run()


def test_park_without_coordinator_deadlocks():
    orphan = FakeCoordinator(flush_at=0.002)

    def client():
        yield Submit(lambda now: orphan.submit())

    scheduler = ConcurrentScheduler()  # orphan never registered
    scheduler.add_client(client())
    with pytest.raises(RuntimeError, match="parked"):
        scheduler.run()


def test_makespan_is_latest_finish():
    def client(duration):
        yield Advance(duration)

    scheduler = ConcurrentScheduler()
    scheduler.add_client(client(0.25))
    scheduler.add_client(client(1.5))
    assert scheduler.run() == pytest.approx(1.5)
    assert scheduler.finished == 2


def test_measured_charges_machine_clock_delta():
    from repro.sim.machine import Machine
    from repro.sim.scheduler import measured

    machine = Machine("m")

    def op(now):
        machine.clock.advance(0.5)
        return "ok"

    result, seconds = measured(machine, op)(0.0)
    assert result == "ok"
    assert seconds == pytest.approx(0.5)

    def worker():
        got = yield Invoke(measured(machine, op))
        assert got == ("ok", pytest.approx(0.5))

    scheduler = ConcurrentScheduler()
    scheduler.add_client(worker())
    assert scheduler.run() == pytest.approx(0.5)


# -- a parked client is never stranded ------------------------------------------------
#
# A parked client's future can resolve outside ``run_due``: another
# client's blocking commit drains the coordinator, a crash abandons it, or
# a restart swaps in a fresh coordinator that serves the next submission.
# Each must wake the client, never leave it parked.


def _one_server():
    from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema

    db = LogBase(1, LogBaseConfig(segment_size=64 * 1024))
    db.create_table(TableSchema("t", "id", (ColumnGroup("g", ("v",)),)))
    return db.cluster, db.cluster.servers[0]


def _submit(server, key):
    return Submit(lambda now: server.submit_write("t", key, {"g": b"v"}, arrival=now))


class _CurrentCoordinators:
    """The coordinators of the cluster's servers as they are now."""

    def __init__(self, cluster):
        self.cluster = cluster

    def __iter__(self):
        return (server.commit for server in self.cluster.servers)


def test_blocking_commit_wakes_a_client_parked_on_its_coordinator():
    _, server = _one_server()
    woken = []

    def parked():
        future = yield _submit(server, b"000000000001")
        woken.append(future)

    def blocking():
        # Inside the parked client's group window: commit() finds the open
        # group and drains it before its own append.
        yield Invoke(lambda now: (server.write("t", b"000000000002", {"g": b"w"}), 0.0))

    scheduler = ConcurrentScheduler(coordinators=[server.commit])
    scheduler.add_client(parked())
    scheduler.add_client(blocking(), at=0.0005)
    scheduler.run()
    assert len(woken) == 1 and woken[0].acked
    assert scheduler.finished == 2


def test_crash_wakes_a_client_parked_on_the_dead_server():
    _, server = _one_server()
    woken = []

    def parked():
        future = yield _submit(server, b"000000000001")
        woken.append(future)

    def crasher():
        yield Invoke(lambda now: (server.crash(), 0.0))

    scheduler = ConcurrentScheduler(coordinators=[server.commit])
    scheduler.add_client(parked())
    scheduler.add_client(crasher(), at=0.0005)
    scheduler.run()
    assert len(woken) == 1
    assert isinstance(woken[0].error, ServerDownError)


def test_submit_after_restart_reaches_the_fresh_coordinator():
    cluster, server = _one_server()
    woken = []

    def client():
        yield Invoke(
            lambda now: (
                (cluster.kill_server(server.name), cluster.restart_server(server.name)),
                0.0,
            )
        )
        future = yield _submit(server, b"000000000001")
        woken.append(future)

    scheduler = ConcurrentScheduler(coordinators=_CurrentCoordinators(cluster))
    scheduler.add_client(client())
    scheduler.run()
    assert len(woken) == 1 and woken[0].acked
