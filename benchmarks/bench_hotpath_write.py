"""Hot-path write benchmark: the host cost of one record write.

A blocking put on the paper profile (the end-to-end benchmark's
``ycsb_update_paper`` configuration: ``LogBaseConfig()`` with 500 KB
segments and a 2 MB heap, 4 nodes) passes through, in order::

    Client.put_raw -> Client._with_retries
      -> Client._routed_call (-> Client._locate) -> Client._call
      -> TabletServer.write
      -> _stage_write (-> TabletServer._route, TimestampOracle.next_timestamp,
                       new_record)
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
to the set-up cluster, which is thrown away.  Beside the table it prints
the Python-level calls per steady-state put: every ``call`` and
``c_call`` profile event (``sys.setprofile``) over one more pass of the
timed puts, after the timing.  It is printed, never gated.  A tree
without ``CommitCoordinator.commit`` (an older checkout timed through
``PYTHONPATH``) skips that row.

A put's exact simulated work (its simulated seconds, ``net.bytes_sent``,
and per put three ``disk.writes``, one DFS round trip and one commit
group) is pinned by the ``paper/put`` slice of the tier-1 work budget,
``tests/integration/test_work_budget.py``, not here.

Run directly: ``python benchmarks/bench_hotpath_write.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from operator import methodcaller

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


def host_costs(records: int, writes: int, rounds: int) -> tuple[dict[str, float], float]:
    """Best-of-``rounds`` inclusive host microseconds per write, per
    function on the put path, and the Python-level calls per put."""
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
    tablet_names = [str(server._route(TABLE, key).tablet_id) for key in keys]
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
        "Client._locate": lambda: [client._locate(TABLE, key) for key in keys],
        "Client._call": lambda: [
            client._call(server, RECORD_SIZE, 16, methodcaller("write", TABLE, key, payload))
            for key in keys
        ],
        "TabletServer.write": lambda: [server.write(TABLE, key, payload) for key in keys],
        "_stage_write": lambda: [server._stage_write(TABLE, key, payload, 0) for key in keys],
        "TabletServer._route": lambda: [server._route(TABLE, key) for key in keys],
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
            server._apply_write(name, record, pointer)
            for name, (pointer, record) in zip(tablet_names, appended)
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
    costs = {name: 1e6 * seconds / writes for name, seconds in best.items()}
    return costs, calls_per_put(client, keys, value)


def calls_per_put(client, keys: list[bytes], value: bytes) -> float:
    """Python-level calls per ``put_raw``: ``call`` and ``c_call`` profile
    events over one pass of ``keys``."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    sys.setprofile(count)
    try:
        for key in keys:
            client.put_raw(TABLE, key, GROUP, value)
    finally:
        sys.setprofile(None)
    return events / len(keys)


def format_report(costs: dict[str, float], calls: float) -> str:
    lines = ["Host cost of one record write (best-of-N, inclusive)"]
    lines += [f"  {name:<32} {us:7.2f} us/write" for name, us in costs.items()]
    lines.append(
        f"  non-CRC part of a put            "
        f"{costs['Client.put_raw'] - costs['crc32c (frame body)']:7.2f} us/write"
    )
    lines.append(f"  Python-level calls per put       {calls:7.2f}")
    return "\n".join(lines)


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
    print(format_report(*host_costs(*sizes)))


if __name__ == "__main__":
    main()
