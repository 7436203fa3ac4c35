"""Gray chaos end-to-end: every limp/overload schedule must uphold the
durability contract, the mitigations must demonstrably fire, and the
mitigated arm must beat the unmitigated control on tail latency."""

import pytest

from repro.chaos import run_scenario
from repro.chaos.gray import control_config
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import DeadlineExceededError
from tests.chaos.helpers import names

GRAY_SCHEDULES = names("gray")
#: the limping-replica rows, where an unmitigated control arm under the
#: same fault plan shows the full read tail.
LIMP_SCENARIOS = ("limp-datanode-mid-scan", "hedge-under-limp")
#: counters of the gray-resilience mechanisms a schedule exists to engage.
MECHANISMS = ("hedges_fired", "breaker_trips", "admission_sheds", "deadline_exceeded")


def test_covers_required_gray_failure_modes():
    assert len(GRAY_SCHEDULES) >= 5
    for name in (
        "limp-datanode-mid-scan",
        "slow-link-replication",
        "overload-burst",
        "limp-trip-recover",
        "hedge-under-limp",
    ):
        assert name in GRAY_SCHEDULES


@pytest.mark.parametrize("scenario", GRAY_SCHEDULES)
def test_gray_schedule_upholds_durability_contract(scenario):
    report = run_scenario(f"gray/{scenario}", seed=1, ops=60)
    assert report.passed, report.violations
    assert report.acked > 0
    assert report.keys_checked > 0
    assert report.observed["events_run"] > 0, f"{scenario} ran none of its events"
    # A green run where no mitigation engaged would prove nothing.
    assert sum(report.observed[name] for name in MECHANISMS) > 0, (
        f"{scenario}: no gray mechanism engaged"
    )


def test_mitigations_actually_fire():
    # Each scenario exists to exercise a specific mechanism; a green run
    # where the mechanism stayed idle would prove nothing.
    hedge = run_scenario("gray/hedge-under-limp", seed=1, ops=60)
    assert hedge.observed["hedge_wins"] > 0
    trip = run_scenario("gray/limp-trip-recover", seed=1, ops=60)
    assert trip.observed["breaker_trips"] > 0
    burst = run_scenario("gray/overload-burst", seed=1, ops=60)
    assert burst.observed["admission_sheds"] > 0


@pytest.mark.parametrize("scenario", LIMP_SCENARIOS)
def test_limping_replica_p99_beats_unmitigated_control(scenario):
    # The acceptance bar: with a home replica limping, the mitigated
    # arm's p99 read latency is at least 30 % better than the same run
    # without the gray-resilience layer.
    mitigated = run_scenario(f"gray/{scenario}", seed=1, ops=60)
    control = run_scenario(
        f"gray/{scenario}", seed=1, ops=60, config=control_config()
    )
    assert mitigated.passed and control.passed
    assert mitigated.observed["reads"] > 0 and control.observed["reads"] > 0
    mitigated_p99 = mitigated.observed["read_p99"]
    control_p99 = control.observed["read_p99"]
    assert control_p99 > 0
    improvement = 1.0 - mitigated_p99 / control_p99
    assert improvement >= 0.30, (
        f"p99 {mitigated_p99:.4f}s mitigated vs "
        f"{control_p99:.4f}s control: only {improvement:.0%} better"
    )


def test_deadline_propagates_to_the_limping_replica():
    # Acceptance: with every replica limping and a budget smaller than
    # any replica's estimated read, the operation fails with
    # DeadlineExceededError after charging at most the remaining budget —
    # never the unbounded simulated time of waiting the limp out.
    schema = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        read_cache_enabled=False,
        op_deadline=0.1,
    )
    db = LogBase(n_nodes=3, config=config)
    db.create_table(schema, only_servers=["ts-node-0"])
    client = db.client(db.cluster.machines[2])
    key = b"000000000001"
    client.put_raw("t", key, "g", b"x")
    for node in ("ts-node-0", "ts-node-1", "ts-node-2"):
        db.cluster.failures.degrade(node, 40.0)
    with pytest.raises(DeadlineExceededError):
        client.get_raw("t", key, "g")
    # Bounded: roughly the budget, nowhere near one limped read (~0.49 s).
    assert 0.0 < client.last_op_seconds < 0.25
