import pytest

from compare import verdict
from metrics import latency_metrics, percentile


def test_p99_is_refused_below_1000_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 999, 0.99)
    assert percentile(list(range(1, 1001)), 0.99) == 990


def test_p95_is_refused_below_200_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * 199, 0.95)
    assert percentile(list(range(1, 201)), 0.95) == 190


def test_unsupported_percentiles_are_omitted_not_zero():
    seconds = [0.001] * 250
    assert set(latency_metrics("read", seconds)) == {"sim_read_p50_ms"}
    assert set(latency_metrics("scan", seconds)) == {"sim_scan_p50_ms", "sim_scan_p95_ms"}
    assert latency_metrics("txn", []) == {}


def _metric(*values):
    return {"value": sorted(values)[len(values) // 2], "values": list(values)}


def test_compare_verdicts():
    bounds = {"host_ops_per_s": 0.10}
    same = _metric(100.0, 101.0, 99.0)
    assert verdict("host_ops_per_s", same, _metric(95.0, 96.0, 94.0), bounds) == "unchanged"
    assert verdict("host_ops_per_s", same, _metric(80.0, 81.0, 79.0), bounds) == "regressed"
    assert verdict("host_ops_per_s", same, _metric(130.0, 131.0, 129.0), bounds) == "improved"
    assert verdict("host_ops_per_s", same, _metric(100.0, 80.0, 120.0), bounds) == "unresolved"
    # simulated metrics repeat exactly, so any move is a verdict
    assert verdict("sim_read_p50_ms", _metric(1.0), _metric(1.0), bounds) == "unchanged"
    assert verdict("sim_read_p50_ms", _metric(1.0), _metric(1.0001), bounds) == "regressed"
    assert verdict("sim_ops_per_s", _metric(1.0), _metric(1.0001), bounds) == "improved"
    assert verdict("failed_op_ratio", _metric(0.02), _metric(0.0205), bounds) == "unchanged"
    assert verdict("failed_op_ratio", _metric(0.02), _metric(0.03), bounds) == "regressed"


def test_benchmark_json_matches_the_benchmark_tables():
    import json
    import pathlib

    from layers import PER_LAYER
    from metrics import END_TO_END
    from workloads import WORKLOADS

    root = pathlib.Path(__file__).resolve().parents[3]
    contract = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for metric in contract["end_to_end"]:
        unit, _, better = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25
    assert "setup_s" in [metric["name"] for metric in contract["end_to_end"]]
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == PER_LAYER
    assert contract["paths"] == ["benchmarks/e2e"]
