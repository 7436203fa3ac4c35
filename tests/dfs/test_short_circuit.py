"""The short-circuit read: with no deadline, no gray policy and no
verification, a reader whose own datanode holds the block reads it before
any candidate list is built.  It must do exactly what the failover loop
does, which tries that replica first.

An armed deadline with an unlimited budget forces the loop without
changing what it does.  So every read below runs on two identical worlds,
once plain and once under that deadline, and everything the reads touch
must come out equal: the bytes or the error, every machine's clock and
counters, the block's locations and the repair queue.
"""

import pytest

from repro.dfs.filesystem import DFS, DFSReader
from repro.sim.deadline import Deadline, deadline_scope
from repro.sim.machine import Machine
from repro.sim.network import NetworkModel

HEAD, TAIL = b"h" * 3000, b"t" * 2000  # two appends: two pieces per replica
RANGES = [(0, len(HEAD) + len(TAIL)), (len(HEAD), len(TAIL)), (10, 100)]


def world(cache: bool):
    network = NetworkModel()
    machines = [
        Machine(f"node-{i}", rack=f"rack-{i % 2}", network=network) for i in range(4)
    ]
    dfs = DFS(
        machines, replication=3, block_size=1 << 16,
        block_cache_bytes=(1 << 20) if cache else 0, block_cache_chunk=1024,
    )
    writer = dfs.create("/f", machines[0])
    writer.append(HEAD)
    writer.append(TAIL)
    return dfs, machines, dfs.namenode.get_file("/f").blocks[0]


def shorten(dfs, block, name):
    """Leave ``name``'s replica one append behind (short, or stale)."""
    pieces, bounds = dfs.datanode(name)._blocks[block.block_id]
    pieces.pop()
    bounds.pop()


STATES = {
    "healthy": lambda dfs, block, name: None,
    "local datanode dead": lambda dfs, block, name: dfs.datanode(name).fail(),
    "local replica missing": lambda dfs, block, name: (
        dfs.datanode(name).drop_replica(block.block_id)
    ),
    "local replica short": shorten,
    "local replica unlisted": lambda dfs, block, name: block.locations.remove(name),
    "partitioned from the others": lambda dfs, block, name: (
        dfs.network.partitions.isolate(name)
    ),
    "partitioned, local replica short": lambda dfs, block, name: (
        dfs.network.partitions.isolate(name), shorten(dfs, block, name)
    ),
}


def run(state: str, cache: bool, local: bool, forced: bool) -> tuple:
    dfs, machines, block = world(cache)
    reader_machine = next(
        m for m in machines if (m.name in block.locations) == local
    )
    STATES[state](dfs, block, reader_machine.name)
    reader = dfs.open("/f", reader_machine)
    outcomes = []
    for offset, length in RANGES:
        deadline = Deadline(reader_machine.clock, float("inf")) if forced else None
        try:
            with deadline_scope(deadline):
                outcomes.append(reader.read(offset, length))
        except Exception as exc:  # the loop's own error, compared below
            outcomes.append((type(exc), str(exc)))
    return (
        outcomes,
        [m.clock.now for m in machines],
        [m.counters.snapshot() for m in machines],
        list(block.locations),
        set(dfs.namenode.under_replicated),
    )


@pytest.mark.parametrize("cache", [False, True], ids=["direct", "cached"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_a_short_circuit_read_is_the_loops_read(state, cache):
    assert run(state, cache, True, False) == run(state, cache, True, True)


@pytest.mark.parametrize("cache", [False, True], ids=["direct", "cached"])
def test_a_reader_with_no_local_replica_reads_as_the_loop(cache):
    assert run("healthy", cache, False, False) == run("healthy", cache, False, True)


def test_only_the_plain_local_read_skips_the_candidate_list(monkeypatch):
    listed = []
    candidates = DFSReader._replica_candidates

    def counting(self, block):
        listed.append(block.block_id)
        return candidates(self, block)

    monkeypatch.setattr(DFSReader, "_replica_candidates", counting)
    run("healthy", False, True, False)
    assert listed == []
    run("healthy", False, True, True)
    assert len(listed) == len(RANGES)
    listed.clear()
    run("local replica unlisted", False, True, False)
    assert len(listed) == len(RANGES)
