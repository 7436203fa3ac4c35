"""Network cost model for the simulated cluster.

Defaults approximate the paper's 1 gigabit Ethernet: 125 MB/s of bandwidth
and 200 microseconds of per-message latency.  Transfers between two
processes on the *same* node (e.g. a tablet server writing to the datanode
co-located with it, which is how both HBase and LogBase deploy) are charged
only local loopback latency.

The model also carries the cluster's *partition state*: fault-injection
splits machines into connectivity groups and every cost-charging transfer
point (machine sends, the DFS replication pipeline, client RPCs) consults
:meth:`NetworkModel.reachable` before moving bytes.  With no partition
active — the default — every pair is reachable and nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class PartitionState:
    """Mutable connectivity state shared by every machine on one network.

    A partition is a set of named groups; two machines can talk iff they
    are in the same group.  Machines not named in any group form one
    implicit group of their own (they can talk to each other but to no
    partitioned group).  ``heal()`` restores full connectivity.
    """

    def __init__(self) -> None:
        self._group_of: dict[str, int] | None = None

    @property
    def active(self) -> bool:
        """Whether any partition is currently in force."""
        return self._group_of is not None

    def partition(self, *groups: list[str] | tuple[str, ...] | set[str]) -> None:
        """Split the network: machines in different groups cannot talk."""
        mapping: dict[str, int] = {}
        for group_no, names in enumerate(groups):
            for name in names:
                mapping[name] = group_no
        self._group_of = mapping

    def isolate(self, name: str) -> None:
        """Cut one machine off from everybody else."""
        self.partition([name])

    def heal(self) -> None:
        """Restore full connectivity."""
        self._group_of = None

    def reachable(self, a: str, b: str) -> bool:
        """Whether machine ``a`` can currently reach machine ``b``."""
        if self._group_of is None or a == b:
            return True
        # Unnamed machines share the implicit group -1.
        return self._group_of.get(a, -1) == self._group_of.get(b, -1)


class LinkHealth:
    """Mutable per-link slowdown state shared by every machine on one
    network (gray-failure injection).

    A *limping link* multiplies the cost of every transfer between two
    named endpoints without cutting connectivity — the gray counterpart
    of :class:`PartitionState`'s hard cut.  Links are symmetric.  With no
    slow links — the default — every cost-charging call takes one
    ``is None`` fast path and charges exactly the healthy model.
    """

    def __init__(self) -> None:
        self._factors: dict[frozenset[str], float] | None = None

    @property
    def active(self) -> bool:
        """Whether any link is currently degraded."""
        return self._factors is not None

    def slow(self, a: str, b: str, factor: float) -> None:
        """Degrade the ``a``↔``b`` link: transfers cost ``factor`` times
        the healthy model.  ``factor=1.0`` heals the link."""
        if factor <= 0:
            raise ValueError("link slowdown factor must be positive")
        key = frozenset((a, b))
        if factor == 1.0:
            if self._factors is not None:
                self._factors.pop(key, None)
                if not self._factors:
                    self._factors = None
            return
        if self._factors is None:
            self._factors = {}
        self._factors[key] = factor

    def heal(self) -> None:
        """Restore every link to full health."""
        self._factors = None

    def factor(self, a: str | None, b: str | None) -> float:
        """Current slowdown multiplier for the ``a``↔``b`` link."""
        if self._factors is None or a is None or b is None:
            return 1.0
        return self._factors.get(frozenset((a, b)), 1.0)


@dataclass(frozen=True)
class NetworkModel:
    """Cost parameters for the cluster interconnect.

    Attributes:
        latency: one-way message latency in seconds.
        bandwidth: link bandwidth in bytes/second.
        local_latency: latency for same-node loopback messages.
        partitions: shared mutable partition state (fault injection).
        links: shared mutable per-link slowdown state (gray failures).
        reachable: the partition state's own ``reachable(a, b)``, bound once.
    """

    latency: float = 0.0002
    bandwidth: float = 125e6
    local_latency: float = 0.00002
    partitions: PartitionState = field(
        default_factory=PartitionState, compare=False, repr=False
    )
    links: LinkHealth = field(
        default_factory=LinkHealth, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "reachable", self.partitions.reachable)

    def transfer_cost(
        self,
        nbytes: int,
        *,
        local: bool = False,
        a: str | None = None,
        b: str | None = None,
    ) -> float:
        """Seconds to move ``nbytes`` in one message.

        When the sending and receiving machine names are given, an active
        link slowdown between them multiplies the cost; with no slow
        links (the default) the endpoints are ignored entirely.
        """
        lat = self.local_latency if local else self.latency
        if local:
            return lat  # loopback copies are effectively memory-speed
        cost = lat + nbytes / self.bandwidth
        if self.links._factors is not None:
            cost *= self.links.factor(a, b)
        return cost

    def rpc_cost(
        self,
        request_bytes: int,
        response_bytes: int,
        *,
        local: bool = False,
        a: str | None = None,
        b: str | None = None,
    ) -> float:
        """Seconds for a request/response round trip."""
        return self.transfer_cost(
            request_bytes, local=local, a=a, b=b
        ) + self.transfer_cost(response_bytes, local=local, a=a, b=b)
