"""HBase cluster assembly, mirroring :class:`~repro.core.cluster.LogBaseCluster`.

Same machines, same shared DFS, same coordination service and timestamp
oracle — only the region-server storage engine differs, so cluster-level
comparisons isolate exactly the WAL+Data vs. log-only design choice.
"""

from __future__ import annotations

from repro.baselines.hbase.store import HBaseConfig, HBaseRegionServer
from repro.config import RACKS, LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.partition import split_key_domain
from repro.core.schema import TableSchema
from repro.core.tablet import Tablet, TabletId
from repro.dfs.filesystem import DFS
from repro.errors import TableNotFound, TabletNotFound
from repro.sim.clock import makespan
from repro.sim.machine import Machine


class HBaseCluster:
    """A simulated HBase deployment on the shared substrate."""

    def __init__(
        self,
        n_nodes: int = 3,
        config: HBaseConfig | None = None,
        base: LogBaseConfig | None = None,
    ) -> None:
        self.config = config if config is not None else HBaseConfig()
        base = base if base is not None else LogBaseConfig()
        self.machines = [
            Machine(
                f"node-{i}",
                rack=f"rack-{i % RACKS}",
                disk_model=base.disk,
                network=base.network,
            )
            for i in range(n_nodes)
        ]
        self.dfs = DFS(self.machines, replication=base.replication)
        self.coordination = CoordinationService()
        self.tso = TimestampOracle(self.coordination)
        self.servers = [
            HBaseRegionServer(
                f"rs-{machine.name}", machine, self.dfs, self.tso, self.config
            )
            for machine in self.machines
        ]
        self._tables: dict[str, TableSchema] = {}
        self._tablets: dict[str, list[Tablet]] = {}
        self._assignments: dict[str, HBaseRegionServer] = {}

    def create_table(
        self,
        schema: TableSchema,
        *,
        tablets_per_server: int = 1,
        key_domain: int = 2_000_000_000,
        key_width: int = 12,
        only_servers: list[str] | None = None,
    ) -> list[Tablet]:
        """Create a range-partitioned table, tablets assigned round-robin.

        Args:
            only_servers: restrict hosting to these server names.
        """
        servers = self.servers
        if only_servers is not None:
            servers = [s for s in servers if s.name in only_servers]
        n_tablets = max(1, len(servers) * tablets_per_server)
        ranges = split_key_domain(key_domain, n_tablets, key_width)
        tablets = [
            Tablet(TabletId(schema.name, i), key_range, schema)
            for i, key_range in enumerate(ranges)
        ]
        self._tables[schema.name] = schema
        self._tablets[schema.name] = tablets
        for i, tablet in enumerate(tablets):
            server = servers[i % len(servers)]
            server.assign_tablet(tablet)
            self._assignments[str(tablet.tablet_id)] = server
        return tablets

    def schema(self, table: str) -> TableSchema:
        """Schema of ``table``."""
        if table not in self._tables:
            raise TableNotFound(table)
        return self._tables[table]

    def server_for(self, table: str, key: bytes) -> HBaseRegionServer:
        """Region server holding ``key``."""
        for tablet in self._tablets.get(table, []):
            if tablet.covers(key):
                return self._assignments[str(tablet.tablet_id)]
        raise TabletNotFound(f"{table}:{key!r}")

    # -- convenience ops used by benchmarks --------------------------------------------

    def put_raw(self, table: str, key: bytes, group: str, value: bytes) -> int:
        """Write one opaque group payload to the owning server."""
        return self.server_for(table, key).write(table, key, {group: value})

    def get_raw(
        self, table: str, key: bytes, group: str, *, as_of: int | None = None
    ) -> bytes | None:
        """Read one opaque group payload."""
        result = self.server_for(table, key).read(table, key, group, as_of=as_of)
        return None if result is None else result[1]

    def flush_all(self) -> None:
        """Flush every memstore on every server."""
        for server in self.servers:
            server.flush_all()

    def elapsed_makespan(self) -> float:
        """Max simulated clock across machines."""
        return makespan([machine.clock for machine in self.machines])

    def reset_clocks(self) -> None:
        """Zero every machine clock."""
        for machine in self.machines:
            machine.clock.reset()
            machine.disk.invalidate_head()
