import pathlib
import re

from profiles import PROFILE_PAPER, PROFILE_PRODUCTION, Pump, build_config
from repro.core.database import LogBase

E2E = pathlib.Path(__file__).resolve().parents[1]

GATES = (
    "block_cache_enabled",      # read pipeline + block cache
    "dfs_checksum_replicas",    # fault tolerance
    "dfs_verify_reads",
    "dfs_auto_rereplicate",
    "gray_resilience",
    "hedge_reads",
    "breaker_enabled",
    "fast_recovery",
    "incremental_compaction",
    "live_migration",
    "read_replicas",
    "tracing",
    "monitoring",
)


def test_production_profile_validates_and_has_every_gate_on():
    config = build_config(PROFILE_PRODUCTION)
    for gate in GATES:
        assert getattr(config, gate) is True, gate
    assert config.read_coalesce_gap is not None
    assert config.scan_prefetch_bytes > 0
    assert config.admission_queue_depth is not None
    assert config.op_deadline is not None
    assert config.client_retry_limit > 0
    assert config.segment_size == 1024 * 1024
    # fan-in stays with BENCH_group_commit.json: put_raw bypasses the coordinator
    assert config.group_commit is False


def test_production_profile_builds_a_four_node_cluster():
    db = LogBase(4, build_config(PROFILE_PRODUCTION))
    assert len(db.cluster.servers) == 4
    assert db.cluster.tracer is not None and db.cluster.monitor is not None
    pump = Pump(db)
    pump()
    assert pump.ticks == 1


def test_paper_profile_is_the_default_config_scaled():
    config = build_config(PROFILE_PAPER)
    assert set(PROFILE_PAPER) == {"segment_size", "heap_bytes"}
    # the read cache holds about a fifth of a node's 2,000 x 1 KB records
    assert config.cache_budget_bytes * 5 == 2000 * 1000


def test_pump_is_the_only_caller_of_heartbeat():
    callers = [
        path.name
        for path in E2E.glob("*.py")
        if re.search(r"\.heartbeat\(", path.read_text())
    ]
    assert callers == ["profiles.py"]
