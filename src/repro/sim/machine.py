"""A simulated physical machine: one clock, one disk, one counter bag.

The paper's cluster co-locates an HDFS datanode and a tablet server on
every machine.  Both processes therefore share the machine's disk and its
timeline; modelling the machine as a single object with a shared
:class:`SimClock` and :class:`SimDisk` reproduces that contention (e.g. a
tablet server's log appends and its co-located datanode's replica writes
compete for the same disk head).
"""

from __future__ import annotations

from repro.errors import NetworkPartitionError
from repro.sim.clock import SimClock
from repro.sim.disk import DiskModel, SimDisk
from repro.sim.metrics import Counters
from repro.sim.network import NetworkModel


class Machine:
    """One simulated host in the cluster.

    Args:
        name: unique machine name, e.g. ``"node-3"``.
        rack: rack identifier used by rack-aware block placement.
        disk_model: per-disk cost parameters.
        network: cluster-wide network cost model (shared instance).
    """

    def __init__(
        self,
        name: str,
        rack: str = "rack-0",
        disk_model: DiskModel | None = None,
        network: NetworkModel | None = None,
    ) -> None:
        self.name = name
        self.rack = rack
        self.clock = SimClock()
        self.counters = Counters()
        self.disk = SimDisk(self.clock, disk_model, self.counters)
        self.network = network if network is not None else NetworkModel()
        self.alive = True
        # The tracer of the cluster that owns this machine
        # (:meth:`~repro.obs.trace.Tracer.attach`); None when untraced.
        self.tracer = None

    def fail(self) -> None:
        """Crash the machine: all processes on it stop serving."""
        self.alive = False

    def restart(self) -> None:
        """Bring the machine back up (memory contents are lost by the
        processes, which model that themselves)."""
        self.alive = True

    def send(self, peer: "Machine", nbytes: int) -> float:
        """Charge this machine's clock for sending ``nbytes`` to ``peer``.

        Returns the seconds charged.  Same-machine transfers use loopback
        cost.

        Raises:
            NetworkPartitionError: if an active partition separates this
                machine from ``peer`` (no partition active by default).
        """
        if not self.network.reachable(self.name, peer.name):
            raise NetworkPartitionError(
                f"{self.name} cannot reach {peer.name}: network partitioned"
            )
        cost = self.network.transfer_cost(
            nbytes, local=peer is self, a=self.name, b=peer.name
        )
        self.clock.advance(cost)
        self.counters.add("net.bytes_sent", nbytes)
        self.counters.add("net.messages")
        return cost

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"Machine({self.name}, rack={self.rack}, {state})"
