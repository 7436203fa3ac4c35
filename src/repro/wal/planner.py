"""Size-tiered compaction planning (§3.6.5).

Re-reading and rewriting *every* segment each round — including the
sorted runs earlier compactions already produced — makes steady-state
write amplification grow with log age.  The planner splits one compaction
round into independent per-run plans instead, following standard
size-tiered LSM practice:

* **tail plans** — unsorted tail segments are always eligible: they hold
  uncommitted garbage and unclustered data, and vacuuming them is the
  point of §3.6.5.  One plan covers the tail, oldest segments first.
* **merge plans** — sorted runs of one (table, group) only join a plan
  when a size tier has accumulated at least ``tier_fanout`` similar-sized
  runs; merging then folds the tier into one bigger run.  Runs outside a
  full tier are left alone, which is what bounds rewrite amplification.

Every plan honours an optional I/O budget (``max_input_bytes``): input
segments past the budget are deferred to a later round, keeping each
round's read cost bounded.

The planner only *selects* inputs; executing a plan is
:class:`repro.wal.compaction.IncrementalCompactionJob`'s job, and the
tablet server installs plans one at a time so a crash between plans
leaves the log in a consistent intermediate state.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.wal.repository import LogRepository


class CompactionPlan(NamedTuple):
    """One unit of compaction work (a tuple: cheap to build per scrape).

    Attributes:
        kind: ``"tail"`` (unsorted tail segments) or ``"merge"``
            (same-scope sorted runs).
        inputs: input segment file numbers, ascending.
        input_bytes: total on-DFS size of the inputs.
        scope: the (table, group) a merge plan's runs hold; None for
            tail plans, whose segments may hold anything.
    """

    kind: str
    inputs: tuple[int, ...]
    input_bytes: int
    scope: tuple[str, str] | None = None


class CompactionPlanner:
    """Builds the per-round plan list for one log repository.

    Args:
        repository: the log to plan over.
        tier_fanout: sorted runs merge only when a size tier holds at
            least this many similar-sized runs ("similar-sized" means
            within ``tier_fanout``× of the tier's smallest member).
        max_input_bytes: per-plan I/O budget; None removes the cap.
    """

    def __init__(
        self,
        repository: LogRepository,
        *,
        tier_fanout: int = 4,
        max_input_bytes: int | None = None,
    ) -> None:
        if tier_fanout < 2:
            raise ValueError("tier_fanout must be >= 2")
        if max_input_bytes is not None and max_input_bytes < 1:
            raise ValueError("max_input_bytes must be >= 1 or None")
        self._repo = repository
        self._tier_fanout = tier_fanout
        self._max_input_bytes = max_input_bytes

    def plan(self, segments: list[int] | None = None) -> list[CompactionPlan]:
        """The plans for one compaction round, merge plans first.

        Args:
            segments: candidate segment file numbers; defaults to every
                segment currently in the repository.  The tablet server
                passes the set frozen before its pre-compaction roll.
        """
        candidates = self._repo.segments() if segments is None else list(segments)
        unsorted: list[tuple[int, int]] = []
        runs_by_scope: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for file_no in candidates:
            size = self._repo.segment_bytes(file_no)
            scope = self._repo.segment_scope(file_no)
            if scope is None:
                unsorted.append((file_no, size))
            else:
                runs_by_scope.setdefault(scope, []).append((file_no, size))
        plans: list[CompactionPlan] = []
        for scope in sorted(runs_by_scope):
            plans.extend(self._merge_plans(scope, runs_by_scope[scope]))
        tail = self._tail_plan(unsorted)
        if tail is not None:
            plans.append(tail)
        return plans

    def _tail_plan(self, unsorted: list[tuple[int, int]]) -> CompactionPlan | None:
        if not unsorted:
            return None
        take: list[int] = []
        total = 0
        for file_no, size in unsorted:  # ascending file_no: oldest first
            if (
                take
                and self._max_input_bytes is not None
                and total + size > self._max_input_bytes
            ):
                break
            take.append(file_no)
            total += size
        return CompactionPlan("tail", tuple(take), total)

    def _merge_plans(
        self, scope: tuple[str, str], runs: list[tuple[int, int]]
    ) -> list[CompactionPlan]:
        """Bucket one scope's runs into size tiers; full tiers become plans."""
        runs = sorted(runs, key=lambda fs: (fs[1], fs[0]))  # size ascending
        plans: list[CompactionPlan] = []
        bucket: list[tuple[int, int]] = []
        for file_no, size in runs:
            if not bucket or size <= max(bucket[0][1], 1) * self._tier_fanout:
                bucket.append((file_no, size))
            else:
                plans.extend(self._bucket_plan(scope, bucket))
                bucket = [(file_no, size)]
        plans.extend(self._bucket_plan(scope, bucket))
        return plans

    def _bucket_plan(
        self, scope: tuple[str, str], bucket: list[tuple[int, int]]
    ) -> list[CompactionPlan]:
        if len(bucket) < self._tier_fanout:
            return []
        take: list[int] = []
        total = 0
        for file_no, size in bucket:  # smallest runs first under the budget
            if (
                len(take) >= 2
                and self._max_input_bytes is not None
                and total + size > self._max_input_bytes
            ):
                break
            take.append(file_no)
            total += size
        return [CompactionPlan("merge", tuple(sorted(take)), total, scope)]
