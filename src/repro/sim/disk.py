"""Disk cost model and a stateful simulated disk.

The model follows the classic mechanical-disk decomposition the paper's
argument rests on: a random access pays a seek plus half a rotation, while
a sequential access pays only transfer time.  The defaults approximate the
commodity 7200 rpm disks of the paper's cluster (circa 2012): 8 ms average
seek, 4.17 ms average rotational latency, 100 MB/s sequential bandwidth.

:class:`SimDisk` additionally tracks the head position (as an opaque
``(file_id, offset)`` pair) so that sequential-vs-random classification is
*emergent* from the access pattern rather than declared by callers: a read
or write that continues where the previous operation on the same file left
off is sequential; anything else pays a seek.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import SimClock
from repro.sim.metrics import Counters


@dataclass(frozen=True)
class DiskModel:
    """Cost parameters for one disk.

    Attributes:
        seek_time: average seek time in seconds.
        rotational_latency: average rotational delay in seconds.
        bandwidth: sequential transfer rate in bytes/second.
    """

    seek_time: float = 0.008
    rotational_latency: float = 0.00417
    bandwidth: float = 100e6

    def random_access_cost(self, nbytes: int) -> float:
        """Seconds for a random read/write of ``nbytes``."""
        return self.seek_time + self.rotational_latency + nbytes / self.bandwidth

    def sequential_cost(self, nbytes: int) -> float:
        """Seconds for a sequential read/write of ``nbytes``."""
        return nbytes / self.bandwidth


class SimDisk:
    """A disk with a head position, charging time to a :class:`SimClock`.

    Args:
        clock: the owning node's clock to charge.
        model: cost parameters.
        counters: optional shared counter bag; a private one is created
            otherwise.
    """

    def __init__(
        self,
        clock: SimClock,
        model: DiskModel | None = None,
        counters: Counters | None = None,
    ) -> None:
        self.clock = clock
        self.model = model if model is not None else DiskModel()
        self.counters = counters if counters is not None else Counters()
        # Head position: (file_id, byte offset just past the last access).
        self._head: tuple[int, int] | None = None
        # Degraded-mode multiplier (fault injection); 1.0 = healthy.
        self._slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Degrade (or restore) the disk: every access costs ``factor`` times
        the healthy model.  Used by fault injection to model a failing or
        contended disk without killing the node.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self._slowdown = factor

    @property
    def slowdown(self) -> float:
        """Current degraded-mode multiplier (1.0 = healthy)."""
        return self._slowdown

    def peek_cost(self, nbytes: int, *, sequential: bool = False) -> float:
        """Estimate the cost of an access *without* charging the clock or
        moving the head.  Deadline enforcement and hedging compare this
        estimate across replicas before committing to a read; it reflects
        the current slowdown, so a limping disk is visible up front.

        The default assumes a random access (the conservative case for a
        reader that does not know the head position of a remote disk).
        """
        if sequential:
            cost = self.model.sequential_cost(nbytes)
        else:
            cost = self.model.random_access_cost(nbytes)
        return cost * self._slowdown

    def read(self, file_id: int, offset: int, nbytes: int) -> float:
        """Charge a read at ``(file_id, offset)``; returns seconds charged."""
        if self._head == (file_id, offset):
            cost = self.model.sequential_cost(nbytes) * self._slowdown
        else:
            cost = self.model.random_access_cost(nbytes) * self._slowdown
            self.counters.add("disk.seeks")
        self._head = (file_id, offset + nbytes)
        self.clock.advance(cost)
        self.counters.add("disk.bytes_read", nbytes)
        self.counters.add("disk.reads")
        return cost

    def write(self, file_id: int, offset: int, nbytes: int) -> float:
        """Charge a write at ``(file_id, offset)``; returns seconds charged."""
        if self._head == (file_id, offset):
            cost = self.model.sequential_cost(nbytes) * self._slowdown
        else:
            cost = self.model.random_access_cost(nbytes) * self._slowdown
            self.counters.add("disk.seeks")
        self._head = (file_id, offset + nbytes)
        self.clock.advance(cost)
        self.counters.add("disk.bytes_written", nbytes)
        self.counters.add("disk.writes")
        return cost

    def write_buffered(self, nbytes: int) -> float:
        """Charge an append absorbed by the OS page cache and written back
        sequentially: transfer cost only, no seek, and the read head
        position is unaffected.  This is how HDFS datanodes persist block
        appends, and why log appends stay cheap even when reads interleave
        (the paper's sub-millisecond update latencies, Figure 13)."""
        cost = self.model.sequential_cost(nbytes) * self._slowdown
        self.clock.advance(cost)
        self.counters.add("disk.bytes_written", nbytes)
        self.counters.add("disk.writes")
        return cost

    def invalidate_head(self) -> None:
        """Force the next access to pay a seek (e.g. after another process
        used the disk)."""
        self._head = None
