"""Tests for the Schism-style workload-driven partitioner (§3.2)."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload_partition import (
    PartitionAssignment,
    WorkloadPartitioner,
    _kernighan_lin_bisection,
    hash_assignment,
    range_assignment,
)

SRC = Path(__file__).parents[2] / "src"


def clustered_trace(n_groups=8, keys_per_group=6, txns_per_group=20):
    """A workload whose transactions stay inside disjoint key clusters."""
    rng = random.Random(13)
    groups = [
        {f"g{g}k{i}".encode() for i in range(keys_per_group)} for g in range(n_groups)
    ]
    trace = []
    for g, members in enumerate(groups):
        members = sorted(members)
        for _ in range(txns_per_group):
            trace.append(set(rng.sample(members, 3)))
    rng.shuffle(trace)
    return trace


def test_rejects_bad_partition_count():
    with pytest.raises(ValueError):
        WorkloadPartitioner(0)


def test_graph_counts_coaccess_weights():
    partitioner = WorkloadPartitioner(2)
    trace = [{b"a", b"b"}, {b"a", b"b"}, {b"a", b"c"}]
    graph = partitioner.build_graph(trace)
    assert graph[b"a"][b"b"] == 2
    assert graph[b"a"][b"c"] == 1


def test_clustered_workload_gets_zero_distributed_txns():
    trace = clustered_trace(n_groups=4)
    partitioner = WorkloadPartitioner(4)
    assignment = partitioner.partition(trace)
    assert assignment.distributed_fraction(trace) == 0.0


def test_workload_driven_beats_hash_and_range():
    trace = clustered_trace(n_groups=8)
    comparison = WorkloadPartitioner(4).compare(trace)
    wd = comparison["workload-driven"].distributed_fraction(trace)
    hashed = comparison["hash"].distributed_fraction(trace)
    assert wd < hashed
    # Key names interleave clusters, so ranges also split them.
    ranged = comparison["range"].distributed_fraction(trace)
    assert wd <= ranged


def test_every_key_assigned():
    trace = clustered_trace(n_groups=3)
    assignment = WorkloadPartitioner(3).partition(trace)
    keys = {key for txn in trace for key in txn}
    assert set(assignment.mapping) == keys
    assert set(assignment.mapping.values()) <= set(range(3))


def test_non_power_of_two_targets():
    trace = clustered_trace(n_groups=6)
    assignment = WorkloadPartitioner(3).partition(trace)
    assert assignment.n_partitions == 3
    assert len(set(assignment.mapping.values())) <= 3


def test_unseen_key_routes_deterministically():
    assignment = PartitionAssignment(4)
    assert assignment.partition_of(b"never-seen") == assignment.partition_of(
        b"never-seen"
    )


def test_balance_metric():
    keys = {f"k{i}".encode() for i in range(100)}
    assignment = range_assignment(keys, 4)
    assert assignment.balance() == pytest.approx(1.0, abs=0.2)


def test_hash_assignment_covers_all_partitions():
    keys = {f"k{i}".encode() for i in range(200)}
    assignment = hash_assignment(keys, 4)
    assert set(assignment.mapping.values()) == {0, 1, 2, 3}


def test_single_partition_never_distributed():
    trace = clustered_trace(n_groups=2)
    assignment = WorkloadPartitioner(1).partition(trace)
    assert assignment.distributed_fraction(trace) == 0.0


def _reference_graph(nx, trace):
    """The co-access graph as a networkx graph, nodes and edges added in
    the same order as ``build_graph``."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(set().union(*trace)))
    for keys in trace:
        for a, b in combinations(sorted(keys), 2):
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
            else:
                graph.add_edge(a, b, weight=1)
    return graph


KEYS = [f"k{i:02d}".encode() for i in range(24)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sets(st.sampled_from(KEYS), min_size=1, max_size=5), min_size=1, max_size=40
    ).filter(lambda trace: len(set().union(*trace)) >= 2)
)
def test_bisection_matches_networkx_reference(trace):
    """The in-repo Kernighan-Lin returns networkx's exact two sets."""
    nx = pytest.importorskip("networkx")
    graph = WorkloadPartitioner(2).build_graph(trace)
    expected = nx.community.kernighan_lin_bisection(
        _reference_graph(nx, trace), weight="weight", seed=7
    )
    assert _kernighan_lin_bisection(graph) == expected


_COMPARE_SCRIPT = """
import random
from repro.core.workload_partition import WorkloadPartitioner
rng = random.Random(5)
keys = [f"k{i}".encode() for i in range(64)]
trace = [set(rng.sample(keys, 3)) for _ in range(150)]
comparison = WorkloadPartitioner(8).compare(trace)
for name, assignment in comparison.items():
    print(name, sorted(assignment.mapping.items()))
print(comparison["hash"].partition_of(b"unseen"))
"""


def test_assignments_do_not_depend_on_hash_seed():
    """Every ``compare()`` mapping (and unseen-key routing) is the same in
    processes with different string-hash salts."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", _COMPARE_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 4
