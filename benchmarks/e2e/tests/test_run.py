import json
import pathlib
import subprocess
import sys
import time

import driver
from repro.core.tablet_server import TabletServer
from workloads import WORKLOADS, op_value

import run

E2E = pathlib.Path(__file__).resolve().parents[1]


def _smoke_bench(name):
    return driver.set_up(WORKLOADS[name], seed=3, seconds=15.0, smoke=True)


def test_read_back_catches_a_dropped_write():
    bench = _smoke_bench("ycsb_update_paper")
    phase = driver.timed_phase(bench)
    assert phase.stats.succeeded == phase.attempted
    assert driver.read_back(bench) == 0
    # a write the driver saw acked but the system does not hold
    victim = bench.keys[0]
    bench.model[victim] = op_value(10**9)
    assert driver.read_back(bench) == 1


def test_failed_writes_are_indeterminate_not_lost():
    bench = _smoke_bench("ycsb_update_paper")
    key = bench.keys[1]
    attempted = op_value(10**9 + 1)
    bench.clients[0].put_raw("usertable", key, "g", attempted)  # landed, but say the ack was lost
    bench.maybe[key] = [attempted]
    assert driver.read_back(bench) == 0


def test_failover_smoke_recovers_migrates_and_loses_nothing():
    bench = _smoke_bench("failover_production")
    phase = driver.timed_phase(bench)
    assert phase.stats.recovery is not None and phase.stats.migration.completed
    assert phase.first_failures > 0  # ops hit the dead server ...
    assert phase.stats.failed_ops == []  # ... and succeed once re-issued
    assert driver.read_back(bench) == 0


def test_repeats_must_agree_on_simulated_results():
    one = {"metrics": {"sim_ops_per_s": 5.0, "host_ops_per_s": 1.0}, "counters": {"disk.seeks": 3}}
    same = {"metrics": {"sim_ops_per_s": 5.0, "host_ops_per_s": 2.0}, "counters": {"disk.seeks": 3}}
    assert run._first_difference([one, same, same]) is None
    moved = {"metrics": {"sim_ops_per_s": 5.0}, "counters": {"disk.seeks": 4}}
    assert run._first_difference([one, same, moved]) == "counter disk.seeks"
    slower = {"metrics": {"sim_ops_per_s": 4.0}, "counters": {"disk.seeks": 3}}
    assert run._first_difference([one, slower]) == "sim_ops_per_s"


def test_smoke_suite_with_trace(tmp_path):
    write = vars(TabletServer)["write"]
    out = tmp_path / "smoke.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - began < 60
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["end_to_end"]["host_ops_per_s"]["clock"] == "host"
        assert entry["end_to_end"]["sim_ops_per_s"]["clock"] == "sim"
        assert entry["per_layer"]["core.client.calls"] > 0
    assert "sim_recovery_s" in result["workloads"]["failover_production"]["end_to_end"]
    assert "sim_recovery_s" not in result["workloads"]["mixed_production"]["end_to_end"]
    assert run.compare_files(str(out), str(out), run.contract()) == 0
    assert vars(TabletServer)["write"] is write


def test_traced_run_restores_every_wrapper(tmp_path, monkeypatch):
    write = vars(TabletServer)["write"]
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    args = run.argparse.Namespace(seed=5, seconds=15.0, smoke=True)
    result = run.run_traced(WORKLOADS["ycsb_read_paper"], args)
    assert vars(TabletServer)["write"] is write
    assert result["correct"]
    trace = json.loads((tmp_path / "trace_ycsb_read_paper.json").read_text())
    assert len(trace["slowest_ops"]) == 50
    wrapped = sum(layer["host_self_ms"] for layer in trace["layers"].values())
    assert wrapped <= 1000.0 * trace["traced_host_s"]
