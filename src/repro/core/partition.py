"""Data partitioning (§3.2).

Two layers:

* **Vertical** — columns are grouped into column groups by a
  workload-driven cost model: "multiple ways of grouping these columns
  into different partitions are enumerated.  The I/O cost of each
  assignment is computed based on the query workload trace and the best
  assignment is selected."  Exhaustive enumeration (set partitions) is
  used for small schemas and a greedy merge heuristic beyond that.

* **Horizontal** — each column group's rows are range-partitioned into
  tablets.  Entity-group-friendly key design (common prefixes per user)
  keeps a transaction's data on one tablet, which the TPC-W benchmark
  exploits to avoid two-phase commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.schema import ColumnGroup, TableSchema


@dataclass(frozen=True)
class KeyRange:
    """Half-open key interval [start, end); ``end=None`` means +infinity."""

    start: bytes
    end: bytes | None

    def contains(self, key: bytes) -> bool:
        """Whether ``key`` falls in this range."""
        if key < self.start:
            return False
        return self.end is None or key < self.end

    def __repr__(self) -> str:
        end = "+inf" if self.end is None else self.end
        return f"KeyRange[{self.start!r}, {end!r})"


def ranges_cover(ranges: Iterable[KeyRange], start_key: bytes, end_key: bytes) -> bool:
    """Whether ``ranges``, sorted by start, jointly cover [start_key, end_key)."""
    cursor = start_key
    for key_range in ranges:
        if key_range.start > cursor:
            break
        if key_range.end is None:
            return True
        cursor = max(cursor, key_range.end)
    return cursor >= end_key


def split_key_domain(domain_max: int, n_tablets: int, key_width: int = 12) -> list[KeyRange]:
    """Evenly split an integer key domain [0, domain_max) into ranges.

    Keys are assumed to be zero-padded decimal strings of ``key_width``
    digits (the YCSB convention this reproduction uses; the paper draws
    keys from a domain of 2*10^9).
    """
    if n_tablets < 1:
        raise ValueError("need at least one tablet")
    boundaries = [domain_max * i // n_tablets for i in range(n_tablets + 1)]
    ranges = []
    for i in range(n_tablets):
        start = str(boundaries[i]).zfill(key_width).encode()
        end = (
            None
            if i == n_tablets - 1
            else str(boundaries[i + 1]).zfill(key_width).encode()
        )
        ranges.append(KeyRange(start if i else b"", end))
    return ranges


@dataclass(frozen=True)
class QueryTrace:
    """One query class in the workload trace.

    Attributes:
        columns: columns the query touches.
        frequency: relative weight of the query in the workload.
    """

    columns: frozenset[str]
    frequency: float = 1.0


class VerticalPartitioner:
    """Chooses column groups minimizing workload I/O cost.

    The cost of an assignment follows the paper: for each query, every
    group that overlaps the query's columns must be fetched in full, and
    each group fetched costs one partition access (a seek) on top of its
    transferred width::

        cost = sum over queries q of freq(q) *
               sum over groups g with g ∩ q.columns != ∅ of
                   (access_overhead + width(g))

    Args:
        column_widths: estimated bytes per column per row (drives the
            width term).
        access_overhead: fixed cost per group a query touches (models the
            extra seek of reading one more physical partition).
        exhaustive_limit: schemas up to this many columns are solved by
            exhaustive set-partition enumeration (Bell-number growth);
            larger schemas use greedy pairwise merging.
    """

    def __init__(
        self,
        column_widths: dict[str, int],
        access_overhead: float = 16.0,
        exhaustive_limit: int = 8,
    ) -> None:
        if not column_widths:
            raise ValueError("need at least one column")
        self._widths = dict(column_widths)
        self._overhead = access_overhead
        self._limit = exhaustive_limit

    def cost(self, partition: list[frozenset[str]], trace: list[QueryTrace]) -> float:
        """Workload I/O cost of a candidate grouping."""
        group_width = {group: sum(self._widths[c] for c in group) for group in partition}
        total = 0.0
        for query in trace:
            for group in partition:
                if group & query.columns:
                    total += query.frequency * (self._overhead + group_width[group])
        return total

    def partition(self, trace: list[QueryTrace]) -> list[frozenset[str]]:
        """Best grouping of all columns for ``trace``."""
        columns = sorted(self._widths)
        if len(columns) <= self._limit:
            best = min(
                self._set_partitions(columns),
                key=lambda p: (self.cost(p, trace), len(p)),
            )
            return best
        return self._greedy(columns, trace)

    def build_schema(
        self, table: str, key_column: str, trace: list[QueryTrace]
    ) -> TableSchema:
        """Convenience: run :meth:`partition` and wrap it into a schema."""
        groups = []
        for i, group_cols in enumerate(
            sorted(self.partition(trace), key=lambda g: sorted(g))
        ):
            groups.append(ColumnGroup(name=f"cg{i}", columns=tuple(sorted(group_cols))))
        return TableSchema(name=table, key_column=key_column, groups=tuple(groups))

    @staticmethod
    def _set_partitions(columns: list[str]):
        """Yield every set partition of ``columns``."""
        if not columns:
            yield []
            return
        head, rest = columns[0], columns[1:]
        for sub in VerticalPartitioner._set_partitions(rest):
            # head joins an existing block...
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
            # ...or forms its own block.
            yield [frozenset({head})] + sub

    def _greedy(
        self, columns: list[str], trace: list[QueryTrace]
    ) -> list[frozenset[str]]:
        """Start fully decomposed; merge the pair that helps most until no
        merge reduces cost."""
        partition = [frozenset({c}) for c in columns]
        current = self.cost(partition, trace)
        improved = True
        while improved and len(partition) > 1:
            improved = False
            best_pair: tuple[int, int] | None = None
            best_cost = current
            for i in range(len(partition)):
                for j in range(i + 1, len(partition)):
                    candidate = (
                        [p for k, p in enumerate(partition) if k not in (i, j)]
                        + [partition[i] | partition[j]]
                    )
                    cost = self.cost(candidate, trace)
                    if cost < best_cost:
                        best_cost = cost
                        best_pair = (i, j)
            if best_pair is not None:
                i, j = best_pair
                merged = partition[i] | partition[j]
                partition = [p for k, p in enumerate(partition) if k not in (i, j)]
                partition.append(merged)
                current = best_cost
                improved = True
        return partition
