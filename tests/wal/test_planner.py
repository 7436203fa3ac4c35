"""Unit tests for the size-tiered compaction planner."""

import pytest

from repro.wal.planner import CompactionPlanner
from repro.wal.record import LogRecord, RecordType
from repro.wal.repository import LogRepository
from tests.wal.helpers import compact_whole_log


def write(key: bytes, ts: int, value: bytes, *, table="t", group="g") -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        txn_id=0,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=value,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=4096)


def fill_segments(repo, n, *, key_prefix=b"k", start_ts=1):
    """Append enough records to roll ``n`` unsorted segments."""
    ts = start_ts
    while len(repo.segments()) < n:
        repo.append(write(key_prefix + b"%06d" % ts, ts, b"x" * 256))
        ts += 1
    return ts


def make_run(repo, keys_ts, *, table="t", group="g"):
    """Write one sorted run directly (planner-visible scope metadata)."""
    segment = repo.create_sorted_segment(table, group)
    for key, ts in keys_ts:
        segment.append(write(key, ts, b"v", table=table, group=group).encode(slim=True))
    segment.close()
    repo.retire_segments([])  # the map swap that names the run
    return segment.file_no


def test_unsorted_tail_always_planned(repo):
    fill_segments(repo, 3)
    plans = CompactionPlanner(repo).plan()
    assert len(plans) == 1
    assert plans[0].kind == "tail"
    assert plans[0].inputs == tuple(repo.segments())
    assert plans[0].scope is None


def test_no_segments_no_plans(repo):
    assert CompactionPlanner(repo).plan() == []


def test_sorted_runs_below_fanout_left_alone(repo):
    for i in range(3):
        make_run(repo, [(b"a%d" % i, i + 1)])
    plans = CompactionPlanner(repo, tier_fanout=4).plan()
    assert plans == []


def test_full_tier_becomes_merge_plan(repo):
    runs = [make_run(repo, [(b"a%d" % i, i + 1)]) for i in range(4)]
    plans = CompactionPlanner(repo, tier_fanout=4).plan()
    assert len(plans) == 1
    assert plans[0].kind == "merge"
    assert plans[0].scope == ("t", "g")
    assert plans[0].inputs == tuple(sorted(runs))


def test_dissimilar_sizes_split_tiers(repo):
    # Two small runs and two runs ~100x bigger: neither size tier
    # reaches the fanout, so nothing merges.
    small = [make_run(repo, [(b"s%d" % i, i + 1)]) for i in range(2)]
    big = [
        make_run(repo, [(b"b%06d" % (100 * i + j), 100 * i + j + 10) for j in range(80)])
        for i in range(2)
    ]
    plans = CompactionPlanner(repo, tier_fanout=2).plan()
    # The two small runs form one full tier, the two big ones another.
    assert len(plans) == 2
    scopes = {plan.inputs for plan in plans}
    assert tuple(sorted(small)) in scopes
    assert tuple(sorted(big)) in scopes


def test_scopes_plan_independently(repo):
    for i in range(4):
        make_run(repo, [(b"a%d" % i, i + 1)], group="g1")
    make_run(repo, [(b"b", 50)], group="g2")
    plans = CompactionPlanner(repo, tier_fanout=4).plan()
    assert len(plans) == 1
    assert plans[0].scope == ("t", "g1")


def test_tail_budget_defers_newest_segments(repo):
    fill_segments(repo, 4)
    sizes = {f: repo.segment_bytes(f) for f in repo.segments()}
    budget = sizes[repo.segments()[0]] + sizes[repo.segments()[1]]
    plans = CompactionPlanner(repo, max_input_bytes=budget).plan()
    assert len(plans) == 1
    assert plans[0].kind == "tail"
    # Oldest two under the budget; the newer tail is deferred.
    assert plans[0].inputs == tuple(repo.segments()[:2])
    assert plans[0].input_bytes <= budget


def test_tail_budget_always_takes_at_least_one(repo):
    fill_segments(repo, 2)
    plans = CompactionPlanner(repo, max_input_bytes=1).plan()
    assert len(plans) == 1
    assert len(plans[0].inputs) == 1


def test_merge_budget_caps_inputs_but_keeps_two(repo):
    for i in range(4):
        make_run(repo, [(b"a%d" % i, i + 1)])
    plans = CompactionPlanner(repo, tier_fanout=4, max_input_bytes=1).plan()
    assert len(plans) == 1
    assert plans[0].kind == "merge"
    assert len(plans[0].inputs) == 2


def test_planner_sees_monolithic_output_as_runs(repo):
    for key, ts in ((b"a", 1), (b"b", 2), (b"c", 3)):
        repo.append(write(key, ts, b"v"))
    compact_whole_log(repo)
    plans = CompactionPlanner(repo, tier_fanout=2).plan()
    # One sorted run, no unsorted tail: below fanout, nothing to do.
    assert plans == []


def test_fanout_validation():
    with pytest.raises(ValueError):
        CompactionPlanner(None, tier_fanout=1)
