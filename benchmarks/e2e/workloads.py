"""The four workloads and their seeded input generation.

Load model (all workloads): closed loop, one logical client per node,
issued round-robin from one driver thread.  Keys are Zipfian (theta 1.0)
over the loaded key set, values are 1 KB, and every op is generated from
``--seed`` during set-up so the timed phase contains only calls into the
system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.ycsb import YCSBWorkload
from repro.bench.zipfian import ZipfianGenerator

RECORD_SIZE = 1000  # the repo's "1 KB record" (benchmarks/conftest.py)
_PAD = b"x" * (RECORD_SIZE - 12)
END_KEY = b"9" * 12  # past every 12-digit key

READ, UPDATE, SCAN, TXN = "read", "update", "scan", "txn"
OP_CLASSES = (READ, UPDATE, SCAN, TXN)

SCAN_ROWS = (20, 160)
WARMUP_FRACTION = 0.05
SMOKE_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``ops_per_second`` sizes the timed phase: it runs
    ``ops_per_second * --seconds`` ops, a fixed count so that simulated
    results repeat exactly for a seed.  The rates are what this machine
    sustained when the benchmark was defined, so ``--seconds`` is about
    the host time of the timed phase.
    """

    name: str
    why: str
    profile: str
    nodes: int
    records: int
    ops_per_second: float
    mix: tuple[tuple[str, float], ...]
    pumped: bool = False
    faults: bool = False
    idle_ticks: int = 0

    def n_ops(self, seconds: float) -> int:
        return max(40, int(self.ops_per_second * seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ycsb_update_paper",
            why="paper's write-heavy case: client, tablet-server write, WAL append, "
            "DFS append and record CRC; control plane and read path idle",
            profile="paper",
            nodes=4,
            records=8000,
            ops_per_second=5000,
            mix=((UPDATE, 0.95), (READ, 0.05)),
        ),
        Workload(
            name="ycsb_read_paper",
            why="same layers used the other way: index lookup, read cache, WAL and DFS "
            "read with the working set 5x the cache; 5% writes expose a read gain paid by writes",
            profile="paper",
            nodes=4,
            records=8000,
            ops_per_second=1800,
            mix=((READ, 0.90), (SCAN, 0.05), (UPDATE, 0.05)),
        ),
        Workload(
            name="mixed_production",
            why="every gate on at 16 nodes: heartbeat, replica tailing, checksum verify, "
            "tracing and monitoring dominate; where control-plane work must show",
            profile="production",
            nodes=16,
            records=4000,
            ops_per_second=150,
            mix=((READ, 0.45), (UPDATE, 0.45), (SCAN, 0.05), (TXN, 0.05)),
            pumped=True,
            idle_ticks=20,
        ),
        Workload(
            name="failover_production",
            why="every gate on with a server kill, parallel-redo restart and a live "
            "migration mid-run: recovery, retry/backoff and lease fencing inside the measurement",
            profile="production",
            nodes=4,
            records=2000,
            ops_per_second=90,
            mix=((UPDATE, 0.50), (READ, 0.40), (SCAN, 0.05), (TXN, 0.05)),
            pumped=True,
            faults=True,
        ),
    )
}


def load_value(index: int) -> bytes:
    """The value the load phase stores for the ``index``-th loaded key."""
    return b"L%011d" % index + _PAD


def op_value(seq: int) -> bytes:
    """The value written by the ``seq``-th generated op (unique per op, so
    the model read-back can tell which write a key ended on)."""
    return b"%012d" % seq + _PAD


def load_keys(workload: Workload, records: int, seed: int) -> list[bytes]:
    """The sorted key set the load phase inserts."""
    per_node = max(1, records // workload.nodes)
    return YCSBWorkload(records_per_node=per_node, seed=seed).load_keys(workload.nodes)


def _exact_mix(rng: random.Random, mix, n: int) -> list[str]:
    """``n`` op kinds in random order with each kind's count fixed to its
    share (largest remainders), so two seeds issue the same amount of
    each kind of work and differ only in which keys and in what order."""
    exact = [n * weight for _, weight in mix]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    kinds = [kind for (kind, _), count in zip(mix, counts) for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def generate_ops(
    workload: Workload, keys: list[bytes], n_ops: int, seed: int, *, first_seq: int = 0
) -> list[tuple[str, bytes, object]]:
    """``(kind, key, arg)`` per op.  ``arg`` is the value for an update or
    a txn, ``(end_key, lo, hi)`` for a scan over ``keys[lo:hi]``, else None.
    Scan lengths are spread evenly over ``SCAN_ROWS`` and shuffled.
    """
    chooser = ZipfianGenerator(len(keys), 1.0, seed=seed)
    rng = random.Random(seed + 7919)
    kinds = _exact_mix(rng, workload.mix, n_ops)
    n_scans = kinds.count(SCAN)
    span = SCAN_ROWS[1] - SCAN_ROWS[0] + 1
    scan_rows = [SCAN_ROWS[0] + int((i + 0.5) * span / n_scans) for i in range(n_scans)]
    rng.shuffle(scan_rows)
    ops: list[tuple[str, bytes, object]] = []
    for seq, kind in enumerate(kinds, first_seq):
        lo = chooser.next()
        if kind == READ:
            arg = None
        elif kind == SCAN:
            hi = min(lo + scan_rows.pop(), len(keys))
            arg = (keys[hi] if hi < len(keys) else END_KEY, lo, hi)
        else:
            arg = op_value(seq)
        ops.append((kind, keys[lo], arg))
    return ops
