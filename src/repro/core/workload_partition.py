"""Workload-driven horizontal partitioning (§3.2).

For applications whose data "cannot be naturally partitioned into entity
groups", the paper points to two alternatives: a group formation protocol
that clusters records into key groups [G-Store], and the workload-driven
approach of Schism [11]: "this approach models the transaction workload
as a graph in which data records constitute vertices and transactions
constitute edges.  A graph partitioning algorithm is used to split the
graph into sub partitions while reducing number of cross-partition
transactions."

This module implements that advisor: build the co-access graph from a
transaction trace, partition it with recursive Kernighan-Lin bisection,
and score assignments by the fraction of transactions that would need
two-phase commit.  Keys hash with CRC-32C and graph nodes are added in
sorted order, so every assignment is the same in every process.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, count

from repro.util.crc import crc32c

TransactionTrace = list[set[bytes]]  # keys co-accessed per transaction
CoAccessGraph = dict[bytes, dict[bytes, int]]  # key -> neighbour -> weight


@dataclass
class PartitionAssignment:
    """A key -> partition mapping plus its quality metrics."""

    n_partitions: int
    mapping: dict[bytes, int] = field(default_factory=dict)

    def partition_of(self, key: bytes) -> int:
        """Partition hosting ``key`` (unseen keys hash onto a partition)."""
        assigned = self.mapping.get(key)
        if assigned is not None:
            return assigned
        return crc32c(key) % self.n_partitions

    def partitions_touched(self, keys: set[bytes]) -> set[int]:
        """Partitions one transaction's key set spans."""
        return {self.partition_of(key) for key in keys}

    def distributed_fraction(self, trace: TransactionTrace) -> float:
        """Share of transactions spanning more than one partition — each
        of these pays two-phase commit (§3.7.2)."""
        if not trace:
            return 0.0
        distributed = sum(
            1 for keys in trace if len(self.partitions_touched(keys)) > 1
        )
        return distributed / len(trace)

    def balance(self) -> float:
        """max/mean partition size (1.0 = perfectly balanced)."""
        sizes = defaultdict(int)
        for partition in self.mapping.values():
            sizes[partition] += 1
        if not sizes:
            return 1.0
        counts = [sizes.get(p, 0) for p in range(self.n_partitions)]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


def hash_assignment(keys: set[bytes], n_partitions: int) -> PartitionAssignment:
    """Baseline: hash keys onto partitions (ignores the workload)."""
    assignment = PartitionAssignment(n_partitions)
    for key in keys:
        assignment.mapping[key] = crc32c(key) % n_partitions
    return assignment


def range_assignment(keys: set[bytes], n_partitions: int) -> PartitionAssignment:
    """Baseline: contiguous key ranges (LogBase's default tablets)."""
    assignment = PartitionAssignment(n_partitions)
    ordered = sorted(keys)
    per_part = max(1, (len(ordered) + n_partitions - 1) // n_partitions)
    for i, key in enumerate(ordered):
        assignment.mapping[key] = min(i // per_part, n_partitions - 1)
    return assignment


def _kl_sweep(graph: CoAccessGraph, side: dict) -> list:
    """One pass of single-node moves, alternating sides, each the cheapest
    left on its side.  The two lazy min-heaps behave as networkx's
    ``BinaryHeap``: equal costs pop in push order, and a re-push supersedes
    a node's older entries.  Entry ``i`` is ``(total cost after i + 1
    moves, i + 1, (node moved to side 1, node moved to side 0))``."""
    costs: tuple[dict, dict] = ({}, {})
    heaps: tuple[list, list] = ([], [])
    order = count()

    def push(s: int, node: bytes, cost: int) -> None:
        costs[s][node] = cost
        heapq.heappush(heaps[s], (cost, next(order), node))

    for u, nbrs in graph.items():
        cost = sum(w if side[v] else -w for v, w in nbrs.items())
        push(side[u], u, cost if side[u] else -cost)
    moves, total = [], 0
    while costs[0] and costs[1]:
        pair = []
        for s in (0, 1):
            while costs[s].get(heaps[s][0][2]) != heaps[s][0][0]:
                heapq.heappop(heaps[s])
            cost, _, node = heapq.heappop(heaps[s])
            del costs[s][node]
            total += cost
            pair.append(node)
            for nbr, w in graph[node].items():
                if nbr in costs[side[nbr]]:
                    gain = -2 * w if side[nbr] == s else 2 * w
                    push(side[nbr], nbr, costs[side[nbr]][nbr] + gain)
        moves.append((total, len(moves) + 1, tuple(pair)))
    return moves


def _kernighan_lin_bisection(graph: CoAccessGraph) -> tuple[set[bytes], set[bytes]]:
    """networkx 3.x ``kernighan_lin_bisection(G, weight="weight", seed=7)``:
    a seeded half/half split, then up to 10 sweeps, each applying its
    cheapest prefix of moves while that gains."""
    nodes = list(graph)
    random.Random(7).shuffle(nodes)
    mid = len(nodes) // 2
    side = {node: i < mid for i, node in enumerate(nodes)}
    for _ in range(10):
        moves = _kl_sweep(graph, side)
        min_cost, min_i, _ = min(moves)
        if min_cost >= 0:
            break
        for _, _, (u, v) in moves[:min_i]:
            side[u] = 1
            side[v] = 0
    return {u for u, s in side.items() if not s}, {u for u, s in side.items() if s}


class WorkloadPartitioner:
    """Schism-style graph partitioner over a transaction trace.

    Args:
        n_partitions: target partition count (rounded up internally to a
            power of two for recursive bisection; outputs are re-labelled
            back into ``n_partitions`` buckets by balanced merging).
    """

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions

    def build_graph(self, trace: TransactionTrace) -> CoAccessGraph:
        """The co-access graph: record vertices in key order, each edge
        weighted by how many transactions access both ends."""
        graph: CoAccessGraph = {key: {} for key in sorted(set().union(*trace))}
        for keys in trace:
            for a, b in combinations(sorted(keys), 2):
                graph[a][b] = graph[b][a] = graph[a].get(b, 0) + 1
        return graph

    def partition(self, trace: TransactionTrace) -> PartitionAssignment:
        """Partition the trace's keys to minimize cross-partition edges."""
        graph = self.build_graph(trace)
        parts: list[set[bytes]] = [set(graph)]
        # Recursive weighted bisection until enough parts exist.
        while len(parts) < self.n_partitions:
            parts.sort(key=len, reverse=True)
            biggest = parts.pop(0)
            if len(biggest) < 2:
                parts.append(biggest)
                break
            sub = {
                u: {v: w for v, w in nbrs.items() if v in biggest}
                for u, nbrs in graph.items()
                if u in biggest
            }
            parts.extend(_kernighan_lin_bisection(sub))
        # If bisection overshot a non-power-of-two target, merge the two
        # smallest parts until the count fits.
        while len(parts) > self.n_partitions:
            parts.sort(key=len)
            merged = parts.pop(0) | parts.pop(0)
            parts.append(merged)
        assignment = PartitionAssignment(self.n_partitions)
        for partition_id, keys in enumerate(parts):
            for key in keys:
                assignment.mapping[key] = partition_id
        return assignment

    def compare(
        self, trace: TransactionTrace
    ) -> dict[str, PartitionAssignment]:
        """The workload-driven assignment next to both baselines."""
        keys = {key for txn in trace for key in txn}
        return {
            "hash": hash_assignment(keys, self.n_partitions),
            "range": range_assignment(keys, self.n_partitions),
            "workload-driven": self.partition(trace),
        }
