"""Benchmark workloads and the experiment harness (§4).

Workloads: YCSB (Zipfian key choice, read/update mixes) and TPC-W
(browsing/shopping/ordering transaction mixes), plus the §4.2
micro-benchmarks.  The harness drives any of the three systems (LogBase,
HBase, LRS) through uniform adapters and reports *simulated* seconds —
throughput and latency shapes, not Python wall-clock.
"""

from repro.bench.zipfian import ZipfianGenerator, UniformGenerator
from repro.bench.ycsb import YCSBWorkload
from repro.bench.tpcw import TPCWWorkload, TPCW_MIXES
from repro.bench.adapters import (
    SystemAdapter,
    LogBaseAdapter,
    HBaseAdapter,
    make_logbase,
    make_hbase,
    make_lrs,
)
from repro.bench.runner import (
    LoadResult,
    MixedResult,
    run_load,
    run_mixed,
    run_random_reads,
    run_range_scans,
)
from repro.bench.report import format_table, format_series

__all__ = [
    "ZipfianGenerator",
    "UniformGenerator",
    "YCSBWorkload",
    "TPCWWorkload",
    "TPCW_MIXES",
    "SystemAdapter",
    "LogBaseAdapter",
    "HBaseAdapter",
    "make_logbase",
    "make_hbase",
    "make_lrs",
    "LoadResult",
    "MixedResult",
    "run_load",
    "run_mixed",
    "run_random_reads",
    "run_range_scans",
    "format_table",
    "format_series",
]
