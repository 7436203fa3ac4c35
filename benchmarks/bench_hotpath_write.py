"""Hot-path write benchmark: the host cost of one record write.

A blocking put on the paper profile (the end-to-end benchmark's
``ycsb_update_paper`` configuration: ``LogBaseConfig()`` with 500 KB
segments and a 2 MB heap, 4 nodes) passes through, in order::

    Client.put_raw -> Client._call -> TabletServer.write
      -> _stage_write (-> TimestampOracle.next_timestamp)
      -> CommitCoordinator.commit (a group of one)
      -> LogRepository.append_batch (-> LogRecord.with_lsn, LogRecord.encode)
        -> LogSegmentWriter.append_many -> DFSWriter.append
          -> DFS._append_to_block -> DataNode.append_replica
            -> SimDisk.write_buffered
      -> _apply_write (-> ReadCache.put)

The benchmark loads a table, then times each of those functions on its
own, best-of-N rounds, round-robin so a slow spell on a shared machine
hits every case alike, and prints the inclusive host microseconds per
write.  The calls really write: they charge simulated time and counters
to the set-up cluster, which is thrown away.

``check_acceptance`` asserts only deterministic facts, so it cannot
flake: on a fresh paper-profile cluster, a fixed sequence of puts
charges exactly the pinned simulated seconds and ``net.bytes_sent``,
every put pays three ``disk.writes`` and one ``dfs.append_round_trips``,
and every put is its own commit group (``commit.groups`` and
``commit.group_fanin`` both equal the put count).  Host timings are
printed, never gated.  A tree without ``CommitCoordinator.commit`` (an
older checkout timed through ``PYTHONPATH``) skips that row.

Run directly (``python benchmarks/bench_hotpath_write.py [--smoke]``,
which exits non-zero when a check fails) or via pytest.
"""

from __future__ import annotations

import argparse
import time

from repro.bench.adapters import GROUP, TABLE, LogBaseAdapter
from repro.config import LogBaseConfig
from repro.core.cluster import LogBaseCluster
from repro.util.crc import crc32c

NODES = 4
RECORD_SIZE = 1000
# The end-to-end benchmark's paper profile.
PAPER = {"segment_size": 500_000, "heap_bytes": 2_000_000}

DEFAULT_RECORDS, DEFAULT_WRITES, DEFAULT_ROUNDS = 2000, 2000, 15
SMOKE_RECORDS, SMOKE_WRITES, SMOKE_ROUNDS = 400, 300, 3

# The deterministic probe: PROBE_PUTS puts from client i % NODES of key i
# on a fresh cluster, and what they must charge in total.
PROBE_PUTS = 200
PINNED_SIM_SECONDS = 0.15141586000000024
PINNED_NET_BYTES_SENT = 631638


def _key(i: int) -> bytes:
    return b"user%08d" % (i * 7919 % 100_000_000)


def _value(i: int) -> bytes:
    return bytes((i + j) % 251 for j in range(RECORD_SIZE))


def build(records: int) -> LogBaseAdapter:
    """A paper-profile cluster with ``records`` keys bulk-loaded."""
    adapter = LogBaseAdapter(LogBaseCluster(NODES, LogBaseConfig(**PAPER)))
    for i in range(records):
        adapter.put_buffered(i % NODES, _key(i), _value(i))
    for node in range(NODES):
        adapter.flush_buffers(node)
    return adapter


def probe() -> dict[str, float]:
    """Simulated charges of the fixed put sequence on a fresh cluster."""
    adapter = build(0)
    cluster = adapter.cluster
    before = cluster.total_counters()
    sim_seconds = 0.0
    per_put_writes, per_put_round_trips = set(), set()
    for i in range(PROBE_PUTS):
        mark = cluster.total_counters()
        sim_seconds += adapter.put(i % NODES, _key(i), _value(i))
        after = cluster.total_counters()
        per_put_writes.add(int(after.get("disk.writes", 0) - mark.get("disk.writes", 0)))
        per_put_round_trips.add(
            int(
                after.get("dfs.append_round_trips", 0)
                - mark.get("dfs.append_round_trips", 0)
            )
        )
    after = cluster.total_counters()
    return {
        "sim_seconds": sim_seconds,
        "net_bytes_sent": after.get("net.bytes_sent", 0) - before.get("net.bytes_sent", 0),
        "commit_groups": after.get("commit.groups", 0) - before.get("commit.groups", 0),
        "commit_group_fanin": (
            after.get("commit.group_fanin", 0) - before.get("commit.group_fanin", 0)
        ),
        "disk_writes_per_put": sorted(per_put_writes),
        "round_trips_per_put": sorted(per_put_round_trips),
    }


def host_costs(records: int, writes: int, rounds: int) -> dict[str, float]:
    """Best-of-``rounds`` inclusive host microseconds per write, per
    function on the put path."""
    adapter = build(records)
    cluster = adapter.cluster
    client = adapter._clients[0]
    server = client._server_for(TABLE, _key(0))
    # Keys that server owns, so every case writes through the same server.
    keys = [
        _key(i) for i in range(records) if client._server_for(TABLE, _key(i)) is server
    ]
    keys = [keys[i % len(keys)] for i in range(writes)]
    value = _value(0)
    payload = {GROUP: value}
    log = server.log
    # Distinct records, frames and index entries, as a workload writes
    # them: one template reused would sit hotter in the CPU caches.
    staged = [server._stage_write(TABLE, key, payload, 0)[2][0] for key in keys]
    appended = [log.append_batch([record])[0] for record in staged]
    frames = [record.encode() for _, record in appended]
    tablets = [server._route(TABLE, key) for key in keys]
    # The DFS-level cases append to a file of their own: the log's
    # segments roll (and close) under the log-level cases.
    dfs = cluster.dfs
    dfs_writer = dfs.create("/bench/hotpath-write", server.machine)
    dfs_writer.append(frames[0])
    block = dfs.namenode.get_file(dfs_writer.path).blocks[-1]
    primary = dfs.datanode(block.locations[0])
    disk = primary.machine.disk
    tso = server.tso
    cache = server.read_cache
    commit = getattr(getattr(server, "commit", None), "commit", None)

    cases = {
        "Client.put_raw": lambda: [client.put_raw(TABLE, key, GROUP, value) for key in keys],
        "Client._call": lambda: [
            client._call(server, RECORD_SIZE, 16, lambda: server.write(TABLE, key, payload))
            for key in keys
        ],
        "TabletServer.write": lambda: [server.write(TABLE, key, payload) for key in keys],
        "_stage_write": lambda: [server._stage_write(TABLE, key, payload, 0) for key in keys],
        "TimestampOracle.next_timestamp": lambda: [tso.next_timestamp() for _ in keys],
        "CommitCoordinator.commit": lambda: [commit([record]) for record in staged],
        "append_batch": lambda: [log.append_batch([record]) for record in staged],
        "LogRecord.with_lsn": lambda: [record.with_lsn(7) for record in staged],
        "LogRecord.encode": lambda: [record.encode() for _, record in appended],
        "crc32c (frame body)": lambda: [crc32c(frame[8:]) for frame in frames],
        "DFSWriter.append": lambda: [dfs_writer.append(frame) for frame in frames],
        "DFS._append_to_block": lambda: [
            dfs._append_to_block(block, frame, server.machine) for frame in frames
        ],
        "DataNode.append_replica": lambda: [
            primary.append_replica(block.block_id, frame) for frame in frames
        ],
        "SimDisk.write_buffered": lambda: [disk.write_buffered(len(frame)) for frame in frames],
        "_apply_write": lambda: [
            server._apply_write(tablet, record, pointer)
            for tablet, (pointer, record) in zip(tablets, appended)
        ],
        "ReadCache.put": lambda: [
            cache.put(TABLE, GROUP, record.key, record.timestamp, value)
            for _, record in appended
        ],
    }
    if commit is None:
        del cases["CommitCoordinator.commit"]
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for name, fn in cases.items():
            began = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - began)
    return {name: 1e6 * seconds / writes for name, seconds in best.items()}


def format_report(costs: dict[str, float], facts: dict) -> str:
    lines = ["Host cost of one record write (best-of-N, inclusive)"]
    lines += [f"  {name:<32} {us:7.2f} us/write" for name, us in costs.items()]
    lines.append(
        f"  non-CRC part of a put            "
        f"{costs['Client.put_raw'] - costs['crc32c (frame body)']:7.2f} us/write"
    )
    lines.append(
        f"probe: {PROBE_PUTS} puts, sim {facts['sim_seconds']!r} s, "
        f"net.bytes_sent {facts['net_bytes_sent']:.0f}, disk.writes/put "
        f"{facts['disk_writes_per_put']}, round trips/put "
        f"{facts['round_trips_per_put']}, commit groups "
        f"{facts['commit_groups']:.0f} / fan-in {facts['commit_group_fanin']:.0f}"
    )
    return "\n".join(lines)


def check_acceptance(facts: dict) -> list[str]:
    """The deterministic checks; returns violations (empty = pass)."""
    failures = []
    if facts["disk_writes_per_put"] != [3]:
        failures.append(f"disk.writes per put {facts['disk_writes_per_put']} != [3]")
    if facts["round_trips_per_put"] != [1]:
        failures.append(
            f"dfs.append_round_trips per put {facts['round_trips_per_put']} != [1]"
        )
    if not facts["commit_groups"] == facts["commit_group_fanin"] == PROBE_PUTS:
        failures.append(
            f"commit.groups {facts['commit_groups']:.0f} / commit.group_fanin "
            f"{facts['commit_group_fanin']:.0f} != {PROBE_PUTS} (one group per put)"
        )
    if abs(facts["sim_seconds"] - PINNED_SIM_SECONDS) > 1e-9 * PINNED_SIM_SECONDS:
        failures.append(
            f"simulated seconds {facts['sim_seconds']!r} != pinned {PINNED_SIM_SECONDS!r}"
        )
    if facts["net_bytes_sent"] != PINNED_NET_BYTES_SENT:
        failures.append(
            f"net.bytes_sent {facts['net_bytes_sent']:.0f} != pinned "
            f"{PINNED_NET_BYTES_SENT}"
        )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_hotpath_write_charges():
    failures = check_acceptance(probe())
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    args = parser.parse_args()
    sizes = (
        (SMOKE_RECORDS, SMOKE_WRITES, SMOKE_ROUNDS)
        if args.smoke
        else (DEFAULT_RECORDS, DEFAULT_WRITES, DEFAULT_ROUNDS)
    )
    facts = probe()
    print(format_report(host_costs(*sizes), facts))
    failures = check_acceptance(facts)
    if failures:
        raise SystemExit("ACCEPTANCE FAILED: " + "; ".join(failures))
    print("acceptance checks met")


if __name__ == "__main__":
    main()
