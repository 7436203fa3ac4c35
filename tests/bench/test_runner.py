"""Harness tests: adapters and the load/mixed/read runners."""

import pytest

from repro.bench.adapters import make_hbase, make_logbase, make_lrs
from repro.bench.report import format_series, format_table
from repro.bench.runner import run_load, run_mixed, run_random_reads, run_range_scans
from repro.bench.ycsb import YCSBWorkload

RECORDS = 120


@pytest.fixture
def workload():
    return YCSBWorkload(records_per_node=RECORDS, record_size=200, update_fraction=0.95)


def test_load_inserts_everything(workload):
    adapter = make_logbase(3, records_per_node=RECORDS, record_size=200)
    result = run_load(adapter, workload)
    assert result.records == 3 * RECORDS
    assert result.seconds > 0
    rows, _ = adapter.full_scan()
    assert rows == 3 * RECORDS


def test_hbase_load_slower_than_logbase(workload):
    lb = run_load(make_logbase(3, records_per_node=RECORDS, record_size=200), workload)
    w2 = YCSBWorkload(records_per_node=RECORDS, record_size=200, update_fraction=0.95)
    hb = run_load(make_hbase(3, records_per_node=RECORDS, record_size=200), w2)
    assert hb.seconds > 1.3 * lb.seconds  # paper: ~2x


def test_lrs_load_close_to_logbase(workload):
    lb = run_load(make_logbase(3, records_per_node=RECORDS, record_size=200), workload)
    w2 = YCSBWorkload(records_per_node=RECORDS, record_size=200, update_fraction=0.95)
    lrs = run_load(make_lrs(3, records_per_node=RECORDS, record_size=200), w2)
    assert lrs.seconds < 2.0 * lb.seconds  # paper: "slightly lower"


def test_mixed_phase_collects_latencies(workload):
    adapter = make_logbase(3, records_per_node=RECORDS, record_size=200)
    run_load(adapter, workload)
    result = run_mixed(adapter, workload, ops_per_node=60)
    assert result.ops == 180
    assert result.update_latencies and result.read_latencies
    assert result.throughput > 0
    assert result.mean_update_ms > 0


def test_cold_reads_slower_than_warm(workload):
    adapter = make_logbase(3, records_per_node=RECORDS, record_size=200)
    run_load(adapter, workload)
    cold = run_random_reads(adapter, workload.keys, 40, cold=True)
    warm = run_random_reads(adapter, workload.keys, 40, cold=False)
    assert cold > warm


def test_range_scan_latency_grows_with_size(workload):
    adapter = make_logbase(3, records_per_node=RECORDS, record_size=200)
    run_load(adapter, workload)
    latencies = run_range_scans(adapter, workload.keys, [5, 40], repeats=3)
    assert latencies[40] > latencies[5]


def test_format_table_alignment():
    out = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", 3]])
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert len(lines) == 5


def test_format_series_merges_x_axis():
    out = format_series("S", "n", {"sys1": {3: 1.0}, "sys2": {3: 2.0, 6: 4.0}})
    assert "sys1" in out and "sys2" in out
    assert "6" in out
