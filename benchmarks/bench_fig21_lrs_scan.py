"""Figure 21 — sequential scan: LogBase faster than LRS.

Each scanned record is version-checked against the index; LogBase's
check is an in-memory B-link lookup while LRS may touch LSM runs in the
DFS, so the scan-time version checks cost LRS extra I/O (§4.6).
"""

from conftest import MICRO_COUNTS, RECORD_SIZE, load_keys_single_server, make_lrs, micro_pair


def run_experiment() -> dict[str, dict[int, float]]:
    series: dict[str, dict[int, float]] = {"LogBase": {}, "LRS": {}}
    for count in MICRO_COUNTS:
        logbase, _ = micro_pair(count)
        lrs = make_lrs(
            3, records_per_node=count, record_size=RECORD_SIZE, single_server=True
        )
        load_keys_single_server(logbase, count)
        load_keys_single_server(lrs, count)
        logbase.drop_caches()
        lrs.drop_caches()
        # LSM block caches also start cold so version checks pay their I/O.
        for server in lrs.cluster.servers:
            for index in server.indexes().values():
                index._block_cache.clear()
        lb_rows, lb_seconds = logbase.full_scan()
        lrs_rows, lrs_seconds = lrs.full_scan()
        assert lb_rows == lrs_rows == count
        series["LogBase"][count] = lb_seconds
        series["LRS"][count] = lrs_seconds
    return series


def test_fig21_lrs_sequential_scan(benchmark, report_series):
    series = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report_series(
        "fig21",
        "Figure 21: Sequential Scan, LogBase vs LRS (simulated sec)",
        "tuples",
        series,
    )
    for count in MICRO_COUNTS:
        lb, lrs = series["LogBase"][count], series["LRS"][count]
        # "LogBase also achieves higher sequential scan performance than LRS"
        assert lb < lrs, f"LogBase must scan faster at {count}"
