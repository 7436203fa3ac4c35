"""Shared benchmark infrastructure.

Every ``bench_figXX_*`` module reproduces one figure from the paper's
evaluation (§4).  Record counts are scaled down from the paper's 1 M/node
(the cost model charges true bytes, so shapes are preserved); all reported
numbers are **simulated seconds** from the device models, not Python
wall-clock.  Each bench prints the same series the paper plots and asserts
its qualitative shape, and results are also written to
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.bench.adapters import make_hbase, make_logbase, make_lrs
from repro.bench.report import format_series, format_table
from repro.bench.runner import run_load, run_mixed
from repro.bench.ycsb import YCSBWorkload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Scaled-down experiment sizes (paper scale in comments).
MICRO_COUNTS = [1000, 2000, 4000]          # 250 K / 500 K / 1 M tuples
READ_COUNTS = [50, 100, 200, 400]          # 0.5 K / 1 K / 2 K / 4 K reads
CACHED_READ_COUNTS = [30, 60, 100, 150, 200]   # 300 .. 2 K reads
RANGE_SIZES = [20, 40, 80, 160]            # tuples per range scan
NODE_COUNTS = [3, 6, 12, 24]               # cluster sizes
DIST_RECORDS = 150                         # records per node (1 M in paper)
DIST_OPS = 100                             # mixed ops per node (5 000 in paper)
RECORD_SIZE = 1000                         # 1 KB records, unscaled


def append_trajectory(path: pathlib.Path, entry: dict) -> None:
    """Append one timestamped run entry to a ``BENCH_*.json`` history."""
    history = json.loads(path.read_text()) if path.exists() else []
    history.append({"timestamp": time.time(), **entry})
    path.write_text(json.dumps(history, indent=2) + "\n")


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def report():
    """(name, title, headers, rows) -> prints + persists a table."""

    def _report(name: str, title: str, headers: list[str], rows: list[list]) -> None:
        emit(name, format_table(title, headers, rows))

    return _report


@pytest.fixture
def report_series():
    """(name, title, x_label, series) -> prints + persists a series table."""

    def _report(name: str, title: str, x_label: str, series: dict) -> None:
        emit(name, format_series(title, x_label, series))

    return _report


# ---------------------------------------------------------------------------
# Shared YCSB scalability suite (Figures 12, 13 and 14 plot one run).
# ---------------------------------------------------------------------------

_ycsb_cache: dict = {}


def ycsb_scalability_suite() -> dict:
    """Run the mixed YCSB experiment once per (system, nodes, mix) and
    cache it for the three figures that report it."""
    if _ycsb_cache:
        return _ycsb_cache
    for system, factory in (("LogBase", make_logbase), ("HBase", make_hbase)):
        for update_fraction in (0.75, 0.95):
            for n_nodes in NODE_COUNTS:
                workload = YCSBWorkload(
                    records_per_node=DIST_RECORDS,
                    record_size=RECORD_SIZE,
                    update_fraction=update_fraction,
                )
                adapter = factory(
                    n_nodes, records_per_node=DIST_RECORDS, record_size=RECORD_SIZE
                )
                run_load(adapter, workload)
                adapter.reset_clocks()
                result = run_mixed(adapter, workload, DIST_OPS)
                _ycsb_cache[(system, update_fraction, n_nodes)] = result
    return _ycsb_cache


def micro_pair(records: int):
    """A (LogBase, HBase) pair of 3-node clusters for micro-benchmarks,
    with every tablet pinned to a single server as in §4.2.

    The LogBase segment size is scaled to the dataset (as the paper's
    64 MB segments are to its 1 GB/node datasets) so per-segment seek
    counts stay comparable with HBase's file counts at simulation scale.
    """
    from repro.config import LogBaseConfig

    total = max(records * RECORD_SIZE, 64 * 1024)
    lb = make_logbase(
        3,
        records_per_node=records,
        record_size=RECORD_SIZE,
        config=LogBaseConfig(segment_size=total * 2),
        single_server=True,
    )
    hb = make_hbase(
        3,
        records_per_node=records,
        record_size=RECORD_SIZE,
        single_server=True,
        scaled_cache=False,  # §4.2 uses the paper's default heap settings
    )
    return lb, hb


def load_keys_single_server(adapter, n_records: int, seed: int = 42, *, shuffle: bool = False):
    """Insert ``n_records`` via node 0.

    ``shuffle=False`` inserts in sorted key order (the §4.2.1 sequential
    write benchmark); ``shuffle=True`` randomizes arrival order, which is
    what leaves the log unclustered for the Figure 10 range scans.
    Returns (sorted keys, simulated load seconds)."""
    import random

    workload = YCSBWorkload(
        records_per_node=n_records, record_size=RECORD_SIZE, seed=seed
    )
    keys = workload.load_keys(1)
    order = list(keys)
    if shuffle:
        random.Random(seed).shuffle(order)
    value = workload.value()
    before = adapter.makespan()
    batch = 64
    for start in range(0, len(order), batch):
        adapter.put_many(0, [(key, value) for key in order[start : start + batch]])
    adapter.finish_load()
    return keys, adapter.makespan() - before
