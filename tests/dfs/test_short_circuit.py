"""The short-circuit read: with no deadline, no gray policy and no
verification, a reader whose own datanode holds the block reads it before
any candidate list is built.  It must do exactly what the failover loop
does, which tries that replica first.

An armed deadline with an unlimited budget forces the loop without
changing what it does.  So every read below runs on two identical worlds,
once plain and once under that deadline, and everything the reads touch
must come out equal: the bytes or the error, every machine's clock and
counters, the block's locations and the repair queue, and on a traced
world every span.
"""

import pytest

from repro.dfs.filesystem import DFS, DFSReader
from repro.obs.trace import Tracer, root_span
from repro.sim.deadline import Deadline, deadline_scope
from repro.sim.health import GrayPolicy
from repro.sim.machine import Machine
from repro.sim.metrics import SPAN_DFS_READ
from repro.sim.network import NetworkModel

HEAD, TAIL = b"h" * 3000, b"t" * 2000  # two appends: two pieces per replica
RANGES = [(0, len(HEAD) + len(TAIL)), (len(HEAD), len(TAIL)), (10, 100)]


def world(cache: bool, *, block_size=1 << 16, gray=False, traced=False, checksums=False):
    network = NetworkModel()
    machines = [
        Machine(f"node-{i}", rack=f"rack-{i % 2}", network=network) for i in range(4)
    ]
    if traced:
        tracer = Tracer()
        for machine in machines:
            tracer.attach(machine)
    dfs = DFS(
        machines, replication=3, block_size=block_size,
        block_cache_bytes=(1 << 20) if cache else 0, block_cache_chunk=1024,
        gray=GrayPolicy() if gray else None, checksum_replicas=checksums,
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
    "local replica corrupt": lambda dfs, block, name: (
        dfs.datanode(name).corrupt_replica(block.block_id, len(HEAD) + 20)
    ),
}

# Worlds and reads the short-circuit must decline, or run as the loop would.
VARIANTS = {
    "traced": ({"traced": True}, False),
    "gray policy": ({"gray": True}, False),
    "verified": ({"checksums": True}, True),
    # The tail append crosses the block boundary: two ranges span both.
    "two blocks": ({"block_size": len(HEAD) + 1000}, False),
}


def spans(roots) -> list:
    return [
        (s.name, s.machine, s.duration, s.self_seconds, s.background_seconds)
        for root in roots
        for s in root.walk()
    ]


def run(
    state: str, cache: bool, local: bool, forced: bool, verified=False, **shape
) -> tuple:
    dfs, machines, block = world(cache, **shape)
    reader_machine = next(
        m for m in machines if (m.name in block.locations) == local
    )
    STATES[state](dfs, block, reader_machine.name)
    reader = dfs.open("/f", reader_machine)
    outcomes, roots = [], []
    for offset, length in RANGES:
        deadline = Deadline(reader_machine.clock, float("inf")) if forced else None
        try:
            with deadline_scope(deadline), root_span("test.read", reader_machine) as root:
                roots.append(root)
                outcomes.append(reader.read(offset, length, verified=verified))
        except Exception as exc:  # the loop's own error, compared below
            outcomes.append((type(exc), str(exc)))
    return (
        outcomes,
        [m.clock.now for m in machines],
        [m.counters.snapshot() for m in machines],
        list(block.locations),
        set(dfs.namenode.under_replicated),
        spans(root for root in roots if root is not None),
    )


@pytest.mark.parametrize("cache", [False, True], ids=["direct", "cached"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_a_short_circuit_read_is_the_loops_read(state, cache):
    assert run(state, cache, True, False) == run(state, cache, True, True)


@pytest.mark.parametrize("cache", [False, True], ids=["direct", "cached"])
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_declined_or_traced_short_circuit_is_the_loops_read(variant, state, cache):
    shape, verified = VARIANTS[variant]
    plain = run(state, cache, True, False, verified, **shape)
    assert plain == run(state, cache, True, True, verified, **shape)
    if variant == "traced":  # every read recorded its span
        assert [span[0] for span in plain[-1]].count(SPAN_DFS_READ) == len(RANGES)


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
    listed.clear()
    run("healthy", False, True, False, gray=True)  # the loop feeds the breakers
    assert len(listed) == len(RANGES)


def test_a_namesake_of_a_datanode_host_reads_it_remotely():
    dfs, machines, _ = world(False)
    namesake = Machine(machines[0].name, network=dfs.network)
    assert dfs.open("/f", namesake).read(10, 100) == HEAD[10:110]
    assert namesake.counters.get("net.bytes_received") == 100
