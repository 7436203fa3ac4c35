"""Gray-resilient DFS reads: hedging around limping replicas, breaker
demotion, and deadline-aware failover (all gated on a GrayPolicy)."""

import pytest

from repro.dfs.datanode import CHECKSUM_CHUNK
from repro.dfs.filesystem import DFS
from repro.errors import DeadlineExceededError
from repro.sim.deadline import Deadline, deadline_scope
from repro.sim.health import CircuitBreaker, GrayPolicy
from repro.sim.machine import Machine
from repro.sim.metrics import (
    BREAKER_SKIPS,
    BREAKER_TRIPS,
    DEADLINES_EXCEEDED,
    DFS_HEDGE_FIRED,
    DFS_HEDGE_LOSSES,
    DFS_HEDGE_WINS,
)
from repro.sim.network import NetworkModel

PAYLOAD = b"hedge-me" * 100
LIMP = 40.0


def _machines(n=4):
    network = NetworkModel()
    return [
        Machine(f"node-{i}", rack=f"rack-{i % 2}", network=network)
        for i in range(n)
    ]


def _dfs(machines, gray=None):
    return DFS(
        machines,
        replication=3,
        block_size=1 << 16,
        checksum_replicas=True,
        verify_reads=True,
        gray=gray,
    )


def _written(dfs, machines):
    dfs.create("/f", machines[0]).append(PAYLOAD)
    return dfs.open("/f", machines[0])


def test_hedge_beats_limping_local_replica():
    machines = _machines()
    gray = GrayPolicy(breaker_enabled=False)  # isolate the hedge
    dfs = _dfs(machines, gray=gray)
    reader = _written(dfs, machines)
    machines[0].disk.set_slowdown(LIMP)
    before = machines[0].clock.now
    assert reader.read_all() == PAYLOAD
    cost = machines[0].clock.now - before
    limped = machines[0].disk.peek_cost(len(PAYLOAD))
    assert cost < limped / 4  # hedge escaped the limped read
    counters = machines[0].counters
    assert counters.get(DFS_HEDGE_FIRED) == 1
    assert counters.get(DFS_HEDGE_WINS) == 1


def test_healthy_reads_do_not_hedge_and_cost_the_same():
    gray_machines = _machines()
    gray_dfs = _dfs(gray_machines, gray=GrayPolicy())
    gray_reader = _written(gray_dfs, gray_machines)
    plain_machines = _machines()
    plain_dfs = _dfs(plain_machines)
    plain_reader = _written(plain_dfs, plain_machines)
    assert gray_reader.read_all() == plain_reader.read_all() == PAYLOAD
    # Gating intact: with every replica healthy the gray layer changes
    # neither behaviour nor a single simulated nanosecond.
    assert gray_machines[0].clock.now == plain_machines[0].clock.now
    assert gray_machines[0].counters.get(DFS_HEDGE_FIRED) == 0


def test_hedge_loss_charges_loser_only_up_to_winner_completion():
    machines = _machines()
    # A tiny floor makes even a healthy local read look hedge-worthy;
    # the local primary still wins (no transfer cost), so this is the
    # hedge-loss path.
    gray = GrayPolicy(breaker_enabled=False, hedge_min_delay=1e-6)
    dfs = _dfs(machines, gray=gray)
    reader = _written(dfs, machines)
    loser_clocks = {m.name: m.clock.now for m in machines[1:]}
    assert reader.read_all() == PAYLOAD
    counters = machines[0].counters
    assert counters.get(DFS_HEDGE_FIRED) == 1
    assert counters.get(DFS_HEDGE_LOSSES) == 1
    assert counters.get(DFS_HEDGE_WINS) == 0
    # The cancelled backup burned at most the winner's completion window.
    primary_cost = machines[0].disk.peek_cost(len(PAYLOAD))
    for machine in machines[1:]:
        busy = machine.clock.now - loser_clocks[machine.name]
        assert busy <= primary_cost + 1e-12


def test_breaker_trips_on_hedged_around_replica_and_demotes_it():
    machines = _machines()
    gray = GrayPolicy(
        breaker_trip_seconds=0.1,
        breaker_cooldown=100.0,
        breaker_min_samples=1,
    )
    dfs = _dfs(machines, gray=gray)
    reader = _written(dfs, machines)
    machines[0].disk.set_slowdown(LIMP)
    assert reader.read_all() == PAYLOAD  # hedge wins, loser observed
    counters = machines[0].counters
    assert counters.get(BREAKER_TRIPS) == 1
    assert dfs.health.state("node-0") == CircuitBreaker.OPEN
    # The next read never considers the limping local replica first: it
    # is demoted behind the allowed ones and the read serves remotely at
    # healthy cost, without needing a hedge.
    before = machines[0].clock.now
    assert reader.read_all() == PAYLOAD
    cost = machines[0].clock.now - before
    assert cost < machines[0].disk.peek_cost(len(PAYLOAD)) / 4
    assert counters.get(BREAKER_SKIPS) == 1
    assert counters.get(DFS_HEDGE_FIRED) == 1  # no second hedge needed


def test_expired_deadline_fails_bounded_not_limped():
    machines = _machines()
    dfs = _dfs(machines)  # deadline enforcement needs no gray policy
    reader = _written(dfs, machines)
    machines[0].disk.set_slowdown(LIMP)
    budget = 0.001  # below even a healthy replica's estimate
    deadline = Deadline.after(machines[0].clock, budget)
    before = machines[0].clock.now
    with deadline_scope(deadline):
        with pytest.raises(DeadlineExceededError):
            reader.read(0, len(PAYLOAD))
    charged = machines[0].clock.now - before
    # The reader burned exactly its remaining budget — never the
    # unbounded simulated time of waiting out the limping replica.
    assert charged == pytest.approx(budget)
    assert machines[0].counters.get(DEADLINES_EXCEEDED) == 1


def test_deadline_skips_limping_replica_for_a_feasible_one():
    machines = _machines()
    dfs = _dfs(machines)
    reader = _written(dfs, machines)
    machines[0].disk.set_slowdown(LIMP)
    limped = machines[0].disk.peek_cost(len(PAYLOAD))
    deadline = Deadline.after(machines[0].clock, 0.1)  # feasible remotely only
    before = machines[0].clock.now
    with deadline_scope(deadline):
        assert reader.read(0, len(PAYLOAD)) == PAYLOAD
    cost = machines[0].clock.now - before
    assert cost < 0.1  # served within budget by a healthy replica
    assert cost < limped / 4
    assert machines[0].counters.get(DEADLINES_EXCEEDED) == 0


def test_hedge_target_is_verified_over_the_read_range_only():
    machines = _machines()
    dfs = DFS(
        machines,
        replication=3,
        block_size=1 << 20,
        checksum_replicas=True,
        verify_reads=True,
        gray=GrayPolicy(breaker_enabled=False),
    )
    dfs.create("/f", machines[0]).append(b"h" * (3 * CHECKSUM_CHUNK))
    reader = dfs.open("/f", machines[0])
    block = dfs.namenode.get_file("/f").blocks[0]
    local, first_backup, second_backup = reader._replica_candidates(block)
    assert local.machine is machines[0]
    first_backup.corrupt_replica(block.block_id, at=10)  # inside the read
    second_backup.corrupt_replica(
        block.block_id, at=2 * CHECKSUM_CHUNK + 10
    )  # outside it
    machines[0].disk.set_slowdown(LIMP)
    assert reader.read(0, 4096) == b"h" * 4096
    counters = machines[0].counters
    assert counters.get(DFS_HEDGE_WINS) == 1
    # The backup damaged where the read lands was passed over; the one
    # damaged two chunks away served it, its other chunks never read.
    assert not first_backup.verify_replica(block.block_id, 0, 4096)
    assert second_backup.verify_replica(block.block_id, 0, 4096)
    assert not second_backup.verify_replica(block.block_id)
