"""Hot-path read benchmark: the read pipeline vs the seed read path.

Runs the Figure 10-style experiment — warm range scans over a
shuffle-loaded (unclustered) single-server log — twice with identical
seeds: once with the seed configuration (no block cache, per-pointer
reads, no prefetch) and once with ``LogBaseConfig.with_read_pipeline()``
(per-machine block cache + pointer-coalesced batch reads + scan
prefetch).  Unlike the figure benches, caches are *not* dropped between
scans: the point is the steady-state cost of repeated reads over a warm
working set.

Reports simulated disk seeks, simulated seconds, and Python wall-clock
per phase (uncompacted and compacted log), and appends a run entry to
``BENCH_read_pipeline.json`` at the repo root so the seek-reduction
trajectory is tracked across commits (``--smoke`` appends nothing).

It also prints the host cost of one scanned row on the paper profile
(the end-to-end benchmark's ``ycsb_read_paper`` configuration:
``LogBaseConfig()`` with 500 KB segments and a 2 MB heap, 4 nodes).  A
range scan walks the index, then follows each pointer to its value::

    BLinkTreeIndex.latest_in_range
    LogRepository.read -> DFSReader.read (short-circuit: the local
      DataNode.read_replica -> SimDisk.read) -> LogRecord.decode_value
      -> crc32c

Each function is timed on its own over the same rows of one server, best
of N rounds, round-robin so a slow spell on a shared machine hits every
case alike; ``LogRecord.decode``, the whole-record decode scans use, is
timed beside ``decode_value``, and ``crc32c`` also on 64 KiB, one replica
checksum chunk.  ``LogRepository.read`` checks a frame through the
cluster's memo of checked frames, so after its first round every read is
a memo hit; "frame check, memo hit" times what such a check costs in
place of ``crc32c``: the codec's key function (``_digest``, the frame's
``hash()``, which the reused row buffers have cached after the first round
as a stored piece has; a fresh 1 KB slice adds ~0.35 µs) and one lookup.
The µs are printed, never gated.  The calls really read: they charge
simulated time and counters to the set-up cluster, which is thrown away.
The same script times a parent checkout (``PYTHONPATH`` picks the
``src/`` it measures); a case whose entry point that tree lacks prints "—".

Run directly (``python benchmarks/bench_hotpath_read.py [--smoke]``, which
exits non-zero when a bar fails) or via pytest; both check the same bars
(``check_acceptance``): the >= 2x seek reduction on the unclustered log,
and on both logs the same rows, never more seeks, less simulated time and
coalescing engaged.  One fixed paper-profile scan's exact simulated
charges (seconds, ``disk.seeks``, ``disk.reads``, ``disk.bytes_read``)
are pinned by the ``paper/scan`` slice of the tier-1 work budget,
``tests/integration/test_work_budget.py``, not here.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import time

from bench_hotpath_write import NODES, PAPER, _value
from conftest import RECORD_SIZE, append_trajectory, load_keys_single_server
from repro.bench.adapters import GROUP, TABLE, LogBaseAdapter, make_logbase
from repro.bench.ycsb import YCSBWorkload
from repro.config import LogBaseConfig
from repro.core.cluster import LogBaseCluster
from repro.util.crc import crc32c
from repro.wal.record import LogRecord, _digest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_read_pipeline.json"

DEFAULT_RECORDS = 2000
DEFAULT_SCANS = 24
SMOKE_RECORDS = 600
SMOKE_SCANS = 8
RANGE_SIZE = 80  # tuples returned per scan, the Fig. 10 mid-range point

# Host cost of one row: ``ycsb_read_paper``'s 8,000 keys on 4 servers, and
# up to ROW_LIMIT rows of server 0 in scan order.  Keys and load order are
# that workload's at this seed.
DEFAULT_ROW_RECORDS, SMOKE_ROW_RECORDS = 8000, 1600
ROW_LIMIT = 2000
DEFAULT_ROUNDS, SMOKE_ROUNDS = 15, 3
CHUNK_BYTES = 64 * 1024  # one replica checksum chunk

LOAD_SEED = 42

PHASE_COUNTERS = {
    "disk_seeks": "disk.seeks",
    "disk_bytes_read": "disk.bytes_read",
    "blockcache_hits": "blockcache.hits",
    "blockcache_misses": "blockcache.misses",
    "read_many_records": "log.read_many.records",
    "read_many_spans": "log.read_many.spans",
}


def build_adapter(records: int, *, pipeline: bool) -> LogBaseAdapter:
    """A single-server 3-node LogBase, segment size scaled to the dataset
    (as in ``micro_pair``), with or without the read pipeline."""
    total = max(records * RECORD_SIZE, 64 * 1024)
    config = (
        LogBaseConfig.with_read_pipeline(segment_size=total * 2)
        if pipeline
        else LogBaseConfig(segment_size=total * 2)
    )
    return make_logbase(
        3,
        records_per_node=records,
        record_size=RECORD_SIZE,
        config=config,
        single_server=True,
    )


def run_scan_phase(
    adapter: LogBaseAdapter,
    keys: list[bytes],
    *,
    scans: int,
    seed: int = 5,
) -> dict[str, float]:
    """``scans`` warm range scans (caches are kept between scans)."""
    rng = random.Random(seed)
    adapter.reset_clocks()
    before = adapter.cluster.total_counters()
    wall_start = time.perf_counter()
    simulated = 0.0
    rows = 0
    for _ in range(scans):
        start_idx = rng.randrange(max(1, len(keys) - RANGE_SIZE))
        start = keys[start_idx]
        end = keys[min(start_idx + RANGE_SIZE, len(keys) - 1)]
        returned, seconds = adapter.range_scan(0, start, end)
        rows += returned
        simulated += seconds
    wall = time.perf_counter() - wall_start
    after = adapter.cluster.total_counters()
    phase = {
        name: after.get(counter, 0.0) - before.get(counter, 0.0)
        for name, counter in PHASE_COUNTERS.items()
    }
    phase.update(rows=rows, simulated_seconds=simulated, wall_seconds=wall)
    return phase


def run_experiment(
    records: int = DEFAULT_RECORDS, scans: int = DEFAULT_SCANS
) -> dict:
    """The full on/off comparison; identical workload seeds per arm."""
    results: dict = {"records": records, "scans": scans, "range_size": RANGE_SIZE}
    for label, pipeline in (("baseline", False), ("pipeline", True)):
        adapter = build_adapter(records, pipeline=pipeline)
        # Random arrival order leaves the log unclustered (Fig. 10 setup).
        keys, _ = load_keys_single_server(adapter, records, shuffle=True)
        adapter.drop_caches()
        arm = {"uncompacted": run_scan_phase(adapter, keys, scans=scans)}
        adapter.compact_all()
        adapter.drop_caches()
        arm["compacted"] = run_scan_phase(adapter, keys, scans=scans)
        results[label] = arm
    for phase in ("uncompacted", "compacted"):
        base = results["baseline"][phase]["disk_seeks"]
        piped = results["pipeline"][phase]["disk_seeks"]
        results[f"seek_reduction_{phase}"] = base / piped if piped else float("inf")
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Hot-path read pipeline ({results['records']} records, "
        f"{results['scans']} scans x {results['range_size']} tuples)",
        f"{'phase':<14} {'arm':<10} {'seeks':>8} {'sim s':>10} "
        f"{'wall s':>8} {'bc hit%':>8} {'spans':>7}",
    ]
    for phase in ("uncompacted", "compacted"):
        for arm in ("baseline", "pipeline"):
            p = results[arm][phase]
            lookups = p["blockcache_hits"] + p["blockcache_misses"]
            hit_rate = p["blockcache_hits"] / lookups if lookups else 0.0
            lines.append(
                f"{phase:<14} {arm:<10} {p['disk_seeks']:>8.0f} "
                f"{p['simulated_seconds']:>10.4f} {p['wall_seconds']:>8.3f} "
                f"{hit_rate:>8.0%} {p['read_many_spans']:>7.0f}"
            )
        lines.append(
            f"{phase:<14} seek reduction: "
            f"{results[f'seek_reduction_{phase}']:.1f}x"
        )
    return "\n".join(lines)


def build_paper(records: int) -> tuple[LogBaseAdapter, list[bytes]]:
    """A paper-profile cluster bulk-loaded as ``ycsb_read_paper`` loads:
    its YCSB keys in shuffled order through buffered puts.  Returns the
    adapter and the sorted keys."""
    keys = YCSBWorkload(records_per_node=records // NODES, seed=LOAD_SEED).load_keys(NODES)
    order = list(keys)
    random.Random(LOAD_SEED).shuffle(order)
    adapter = LogBaseAdapter(LogBaseCluster(NODES, LogBaseConfig(**PAPER)))
    for i, key in enumerate(order):
        adapter.put_buffered(i % NODES, key, _value(i))
    for node in range(NODES):
        adapter.flush_buffers(node)
    return adapter, keys


def row_costs(records: int, rounds: int) -> tuple[int, dict[str, float]]:
    """Best-of-``rounds`` inclusive host microseconds per row, per
    function on the range-scan row path of server 0."""
    adapter, _ = build_paper(records)
    server = adapter.cluster.servers[0]
    repo = server.log
    indexes = [server._ensure_index(t.tablet_id, GROUP) for t in server.tablets.values()]
    entries = [e for index in indexes for e in index.latest_in_range(b"", b"\xff" * 32)]
    pointers = [entry.pointer for entry in entries[:ROW_LIMIT]]
    # Readers of the log's own files, as the repository holds them.
    dfs_readers = {
        file_no: adapter.cluster.dfs.open(repo.segment_path(file_no), server.machine)
        for file_no in {p.file_no for p in pointers}
    }
    readers = [dfs_readers[p.file_no] for p in pointers]
    scopes = [repo.segment_scope(p.file_no) for p in pointers]

    def block_of(reader, offset):
        for block in reader._meta.blocks:
            if offset < block.length:
                return block, offset
            offset -= block.length

    blocks = [block_of(r, p.offset) for r, p in zip(readers, pointers)]
    nodes = [adapter.cluster.dfs.datanode(server.machine.name)] * len(pointers)
    raws = [r.read(p.offset, p.size) for r, p in zip(readers, pointers)]
    bodies = [raw[8:] for raw in raws]
    # The cluster's memo of checked frames (a tree before it has none).
    checked = getattr(adapter.cluster.dfs, "checked_frames", None)
    chunk = bytes(range(256)) * (CHUNK_BYTES // 256)
    work = list(zip(pointers, readers, blocks, nodes))
    decode_value = getattr(LogRecord, "decode_value", None)
    raw_crcs = [(raw, int.from_bytes(raw[4:8], "little")) for raw in raws]
    int_keys = isinstance(_digest(b"", 0, 0), int)
    cases = {
        "TabletServer.range_scan": lambda: list(
            server.range_scan(TABLE, GROUP, b"", b"\xff" * 32)
        ),
        "BLinkTreeIndex.latest_in_range": lambda: [
            list(index.latest_in_range(b"", b"\xff" * 32)) for index in indexes
        ],
        "LogRepository.read": lambda: [repo.read(p) for p in pointers],
        "DFSReader.read": lambda: [r.read(p.offset, p.size) for p, r, *_ in work],
        "DataNode.read_replica": lambda: [
            n.read_replica(b.block_id, o, p.size) for p, _, (b, o), n in work
        ],
        "SimDisk.read": lambda: [
            n.machine.disk.read(b.block_id, o, p.size) for p, _, (b, o), n in work
        ],
        "LogRecord.decode_value": decode_value and (
            lambda: [decode_value(raw) for raw in raws]
        ),
        "LogRecord.decode": lambda: [
            LogRecord.decode(raw, 0, scope) for raw, scope in zip(raws, scopes)
        ],
        "crc32c (frame body)": lambda: [crc32c(body) for body in bodies],
        # A memo key is the frame's ``_digest`` above its CRC field (a tree
        # before that keys on a digest alone); a miss raises.
        "frame check, memo hit": (
            lambda: [checked[_digest(raw, 0, len(raw)) << 32 | crc] for raw, crc in raw_crcs]
            if int_keys else [checked[_digest(raw, 0, len(raw))] for raw in raws]
        ) if checked is not None else None,
        "crc32c (64 KiB, per call)": lambda: crc32c(chunk),
    }
    # Whole-scan and whole-walk cases cover every row of the server.
    per = dict.fromkeys(cases, len(pointers))
    per["TabletServer.range_scan"] = per["BLinkTreeIndex.latest_in_range"] = len(entries)
    per["crc32c (64 KiB, per call)"] = 1
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for name, fn in cases.items():
            if fn is None:
                continue
            began = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - began)
    return len(pointers), {
        name: 1e6 * t / per[name] if cases[name] else None for name, t in best.items()
    }


def format_row_costs(rows: int, costs: dict[str, float | None]) -> str:
    lines = [f"Host cost of one scanned row ({rows} rows, best-of-N, inclusive)"]
    lines += [
        f"  {name:<32} {us:8.2f} us" if us is not None else f"  {name:<32} {'—':>8}"
        for name, us in costs.items()
    ]
    return "\n".join(lines)


def check_acceptance(results: dict) -> list[str]:
    """The acceptance bars; returns a list of violations (empty = pass)."""
    failures = []
    for phase in ("uncompacted", "compacted"):
        base = results["baseline"][phase]
        piped = results["pipeline"][phase]
        # Same workload, same answers.
        if piped["rows"] != base["rows"]:
            failures.append(
                f"{phase}: rows diverged: {piped['rows']} vs {base['rows']}"
            )
        # Never worse than the seed path, even on a clustered log.
        if piped["disk_seeks"] > base["disk_seeks"]:
            failures.append(
                f"{phase}: pipeline paid more seeks than the seed path "
                f"({piped['disk_seeks']:.0f} vs {base['disk_seeks']:.0f})"
            )
        if piped["simulated_seconds"] >= base["simulated_seconds"]:
            failures.append(
                f"{phase}: pipeline not faster in simulated time "
                f"({piped['simulated_seconds']:.4f} vs "
                f"{base['simulated_seconds']:.4f} s)"
            )
        # Coalescing really engaged: many records per span read.
        if not 0 < piped["read_many_spans"] < piped["read_many_records"]:
            failures.append(
                f"{phase}: coalescing did not engage ({piped['read_many_spans']:.0f} "
                f"spans for {piped['read_many_records']:.0f} records)"
            )
    # The bar: warm scans over the unclustered log pay at least 2x fewer
    # simulated seeks with the pipeline on.
    if results["seek_reduction_uncompacted"] < 2.0:
        failures.append(
            f"expected >=2x seek reduction, got "
            f"{results['seek_reduction_uncompacted']:.2f}x"
        )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_hotpath_read_pipeline():
    results = run_experiment(records=800, scans=10)
    failures = check_acceptance(results)
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument("--scans", type=int, default=None)
    args = parser.parse_args()
    records = (
        args.records
        if args.records is not None
        else (SMOKE_RECORDS if args.smoke else DEFAULT_RECORDS)
    )
    scans = (
        args.scans
        if args.scans is not None
        else (SMOKE_SCANS if args.smoke else DEFAULT_SCANS)
    )
    if records < 1 or scans < 1:
        parser.error("--records and --scans must be >= 1")
    results = run_experiment(records=records, scans=scans)
    print(format_report(results))
    rows, costs = row_costs(
        SMOKE_ROW_RECORDS if args.smoke else DEFAULT_ROW_RECORDS,
        SMOKE_ROUNDS if args.smoke else DEFAULT_ROUNDS,
    )
    print("\n" + format_row_costs(rows, costs))
    if not args.smoke:
        append_trajectory(TRAJECTORY, results)
        print(f"\ntrajectory appended to {TRAJECTORY}")
    failures = check_acceptance(results)
    if failures:
        raise SystemExit("ACCEPTANCE FAILED: " + "; ".join(failures))
    print("acceptance bars met")


if __name__ == "__main__":
    main()
