"""The history checker: every read of a chaos run, judged by one rule.

Each value a chaos client writes is unique (``s%08d``), so a read names
the write it saw.  A :class:`History` records every op — its client, its
invocation and return in one sequence all clients share, its outcome,
the timestamps it learned, the values it wrote and read — and
:meth:`History.check` applies the rule: a read returns the newest
version, by commit timestamp, at or below its snapshot (``read_ts - 1``
in a transaction, a follower's watermark, unbounded after recovery, at
or above the client's own floor otherwise).  What no one learned is
bounded by real time alone.  DESIGN.md "History checker" has the rest.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, combinations

UNBOUNDED = math.inf


class WriteStatus(enum.Enum):
    """Client-observed fate of one write."""

    ACKED = "acked"
    ABORTED = "aborted"  # cleanly, before the write phase: never visible
    INDETERMINATE = "indeterminate"  # may or may not survive, atomically


def encode_value(seq: int) -> bytes:
    """The chaos workload's value for sequence number ``seq``."""
    return b"s%08d" % seq


def decode_value(value: bytes) -> int | None:
    """Sequence number encoded in ``value``; None if unparseable."""
    if len(value) != 9 or not value.startswith(b"s"):
        return None
    try:
        return int(value[1:])
    except ValueError:
        return None


@dataclass(eq=False)
class Op:
    """One recorded op.  ``session`` is its client (None for a follower
    probe or the read-back); ``snapshot`` fixes a read's snapshot (a
    watermark, :data:`UNBOUNDED`); a put's acked timestamp is its
    ``commit_ts``."""

    history: "History"
    session: object
    start: int
    end: float = UNBOUNDED
    status: WriteStatus | None = None
    read_ts: int | None = None
    commit_ts: int | None = None
    snapshot: float | None = None
    writes: dict[bytes, int] = field(default_factory=dict)
    reads: dict[bytes, bytes | None] = field(default_factory=dict)

    def write(self, key: bytes) -> bytes:
        """The next unique value, recorded as written to ``key``."""
        self.writes[key], value = self.history.next_value()
        return value

    @property
    def committed(self) -> bool:
        """An acked transaction (it knows both of its timestamps)."""
        return self.status is WriteStatus.ACKED and self.read_ts is not None


class History:
    """Every op of one run, in invocation order, and the checker over them."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._seq = self._clock = 0
        self.summary: dict[str, object] = {}

    def next_value(self) -> tuple[int, bytes]:
        self._seq += 1
        return self._seq, encode_value(self._seq)

    def invoke(self, session: object = None) -> Op:
        self._clock += 1
        self.ops.append(Op(self, session, self._clock))
        return self.ops[-1]

    def end(self, op: Op, status: WriteStatus | None = None, *, read_ts=None,
            commit_ts=None, snapshot=None) -> None:
        """``op`` returned with ``status`` and what it learned.  A retry
        may upgrade an INDETERMINATE op to ACKED; an ack is never
        downgraded."""
        self._clock += 1
        op.end, op.snapshot = self._clock, snapshot
        if op.status is not WriteStatus.ACKED:
            op.status, op.read_ts, op.commit_ts = status, read_ts, commit_ts

    def read_back(self, read) -> None:
        """The post-recovery read-back: ``read(key)`` of every key written."""
        op = self.invoke()
        for key in self.keys:
            op.reads[key] = read(key)
        self.end(op, snapshot=UNBOUNDED)

    @property
    def keys(self) -> list[bytes]:
        """Every key the workload ever wrote."""
        return sorted({key for op in self.ops for key in op.writes})

    def counts(self) -> dict[str, int]:
        """How many writes ended in each status."""
        totals = Counter(op.status.value for op in self.ops for _ in op.writes)
        return {status.value: totals[status.value] for status in WriteStatus}

    def check(self, *, serializable: bool = False) -> list[str]:
        """Judge every read and transaction; returns the violations, each
        prefixed with its class, and fills :attr:`summary`."""
        # What an op drew is above floors[op.start] and below
        # ceilings[op.end + 1]: the bounds learned by the ops that returned
        # before it began and by those that began after it returned.
        above, below = [0] * (self._clock + 2), [UNBOUNDED] * (self._clock + 2)
        for op in self.ops:
            below[op.start], high = _learned(op)
            if op.end < UNBOUNDED:
                above[op.end] = high
        floors = list(accumulate(above, max))
        ceilings = list(accumulate(reversed(below), min))[::-1]

        def ceiling(op: Op) -> float:
            return ceilings[op.end + 1] if op.end < UNBOUNDED else UNBOUNDED

        versions: dict[bytes, dict[int, tuple[Op, float, float]]] = {}
        acked: dict[bytes, list[int]] = {}
        for op in self.ops:
            low = op.commit_ts if op.committed else floors[op.start] + 1
            high = ceiling(op) - 1 if op.commit_ts is None else op.commit_ts
            for key, seq in op.writes.items():
                versions.setdefault(key, {})[seq] = (op, low, high)
                if op.status is WriteStatus.ACKED:
                    acked.setdefault(key, []).append(op.commit_ts)

        violations, reads = [], 0
        floor: dict[object, float] = {}  # per client
        seen: dict[tuple[object, bytes], float] = {}  # a version it read sits above
        for op in self.ops:
            session = op.session is not None and op.status is None
            if op.snapshot is not None:
                low = high = op.snapshot
            elif op.read_ts is not None:
                low = high = op.read_ts - 1
            else:
                low = floor.get(op.session, 0) if op.status is None else floors[op.start]
                high = ceiling(op) - 1
            for key, value in op.reads.items():
                reads += 1
                mine = seen.get((op.session, key), 0) if session else 0
                problem, first = _judge(op, versions.get(key, {}), acked.get(key, []), value, low, high, mine)
                if problem is not None:
                    if session and problem == "stale":
                        problem = "session"
                    violations.append(f"{problem}: {key!r} read {value!r} {_where(op, low, high)}")
                elif session:
                    floor[op.session] = max(floor.get(op.session, 0), first)
                    seen[op.session, key] = max(mine, first)
            if op.session is not None and op.status is WriteStatus.ACKED:
                floor[op.session] = max(floor.get(op.session, 0), op.commit_ts)

        violations += self._torn(versions)
        txns, overlaps = [op for op in self.ops if op.committed], 0
        for a, b in combinations(txns, 2):
            if a.commit_ts < b.read_ts or b.commit_ts < a.read_ts:
                continue  # one saw the other
            overlaps += bool((a.writes.keys() | a.reads.keys()) & (b.writes.keys() | b.reads.keys()))
            pair = f"txns @{a.read_ts}..{a.commit_ts} and @{b.read_ts}..{b.commit_ts}"
            if a.writes.keys() & b.writes.keys():
                violations.append(f"P4: {pair} both wrote {sorted(a.writes.keys() & b.writes.keys())!r}")
            elif serializable and a.reads.keys() & b.writes.keys() and b.reads.keys() & a.writes.keys():
                violations.append(f"G2: {pair} each read a key the other wrote (write skew)")
        self.summary = {
            "reads_checked": reads,
            "txns_checked": len(txns),
            "txn_overlaps_on_key": overlaps,
            "violations_by_class": dict(Counter(v.split(":")[0] for v in violations)),
        }
        return violations

    def _torn(self, versions) -> list[str]:
        """An indeterminate transaction over keys no one else writes is
        visible to the read-back on all of them or on none."""
        back = {k: v for op in self.ops if op.snapshot == UNBOUNDED for k, v in op.reads.items()}
        torn = []
        for op in self.ops:
            if op.status is not WriteStatus.INDETERMINATE or len(op.writes) < 2:
                continue
            if any(len(versions[key]) > 1 for key in op.writes):
                continue
            visible = sorted(k for k, seq in op.writes.items() if back.get(k) == encode_value(seq))
            if visible and len(visible) != len(op.writes):
                missing = sorted(set(op.writes) - set(visible))
                torn.append(f"torn: transaction visible on {visible!r}, missing on {missing!r}")
        return torn


def _learned(op: Op) -> tuple[float, float]:
    """What ``op`` learned, as (a bound every timestamp drawn before it
    began is below, one every timestamp drawn after it returned is
    above).  ``read_ts`` is a peek at the next timestamp, not a draw."""
    below = min((t for t in (op.read_ts, op.commit_ts) if t is not None), default=UNBOUNDED)
    return below, max(op.commit_ts or 0, (op.read_ts or 1) - 1)


def _judge(reader, versions, acked, value, low, high, seen) -> tuple[str | None, float]:
    """The rule for one read by ``reader`` at a snapshot in [``low``,
    ``high``], where a version its client read before sits above ``seen``
    (0: none): (violation class or None, the lowest commit timestamp the
    version read can carry)."""
    if value is None:
        return ("stale" if seen or any(ts <= low for ts in acked) else None), 0
    seq = decode_value(value)
    if seq not in versions:
        return "ghost", 0
    writer, first, last = versions[seq]
    if writer.status is WriteStatus.ABORTED:
        return "G1a", 0
    if first > high or writer.start > reader.end:
        return "future", first
    if last < seen or any(last < ts <= low for ts in acked):
        return "stale", first
    return None, first


def _where(op: Op, low: float, high: float) -> str:
    if op.snapshot is not None:
        return "after recovery" if low == UNBOUNDED else f"from a follower at watermark {low}"
    return f"at snapshot @{low}" if low == high else f"at a snapshot in [{low}, {high}]"
