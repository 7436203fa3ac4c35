"""The LogBase facade: one object that is the whole database.

Wraps a :class:`~repro.core.cluster.LogBaseCluster` plus a transaction
manager and a default client, giving applications the paper's full API
surface — DDL, single-record operations with single-row ACID, scans,
multiversion reads, and multi-record transactions under snapshot
isolation — from a single import::

    from repro import LogBase, TableSchema, ColumnGroup

    db = LogBase(n_nodes=3)
    db.create_table(TableSchema("events", "id",
                    (ColumnGroup("payload", ("body",)),)))
    db.put("events", b"k1", {"payload": {"body": b"hello"}})
    txn = db.begin()
    ...
    txn.commit()
"""

from __future__ import annotations

from repro.config import LogBaseConfig
from repro.core.client import Client
from repro.core.cluster import LogBaseCluster
from repro.core.schema import TableSchema
from repro.core.tablet import Tablet
from repro.sim.machine import Machine
from repro.txn.mvocc import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.compaction import CompactionResult


class LogBase:
    """A LogBase deployment with a default client and transaction manager."""

    def __init__(
        self,
        n_nodes: int = 3,
        config: LogBaseConfig | None = None,
        n_masters: int = 1,
    ) -> None:
        self.cluster = LogBaseCluster(n_nodes, config, n_masters)
        self.txn_manager = TransactionManager(
            self.cluster.master,
            self.cluster.tso,
            self.cluster.coordination,
        )
        self._default_client = self.client()

    # -- DDL -----------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema,
        *,
        tablets_per_server: int = 1,
        key_domain: int = 2_000_000_000,
        key_width: int = 12,
        only_servers: list[str] | None = None,
    ) -> list[Tablet]:
        """Create a range-partitioned table across the cluster."""
        return self.cluster.master.create_table(
            schema,
            tablets_per_server=tablets_per_server,
            key_domain=key_domain,
            key_width=key_width,
            only_servers=only_servers,
        )

    # -- clients & transactions -------------------------------------------------------

    def client(self, machine: Machine | None = None) -> Client:
        """A client bound to ``machine`` (default: the first node), which
        joins the cluster's tracer when the cluster is traced."""
        config = self.cluster.config
        if machine is None:
            machine = self.cluster.machines[0]
        self.cluster.attach(machine)
        return Client(
            self.cluster.master,
            machine,
            retry_limit=config.client_retry_limit,
            retry_backoff=config.client_retry_backoff,
            retry_backoff_max=config.client_retry_backoff_max,
            op_deadline=config.op_deadline if config.gray_resilience else None,
            gray_policy=config.gray_policy(),
            read_replicas=config.read_replicas,
            replica_read_fraction=config.replica_read_fraction,
            replica_max_staleness=config.replica_max_staleness,
        )

    def begin(self) -> Transaction:
        """Start a snapshot-isolated transaction."""
        return self.txn_manager.begin()

    # -- single-record convenience API (single-row ACID, §3.7) -------------------------

    def put(self, table: str, key: bytes, row: dict[str, dict[str, bytes]]) -> int:
        """Write one record's column groups; returns the version timestamp."""
        return self._default_client.put(table, key, row)

    def get(
        self, table: str, key: bytes, group: str, *, as_of: int | None = None
    ) -> dict[str, bytes] | None:
        """Read one column group (optionally a historical version)."""
        return self._default_client.get(table, key, group, as_of=as_of)

    def get_row(self, table: str, key: bytes) -> dict[str, dict[str, bytes]] | None:
        """Reconstruct the whole tuple across column groups."""
        return self._default_client.get_row(table, key)

    def delete(self, table: str, key: bytes, group: str | None = None) -> None:
        """Delete a record (one group or all groups)."""
        self._default_client.delete(table, key, group)

    def scan(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        *,
        as_of: int | None = None,
    ) -> list[tuple[bytes, dict[str, bytes]]]:
        """Range scan across all tablets."""
        return self._default_client.scan(table, group, start_key, end_key, as_of=as_of)

    # -- maintenance -------------------------------------------------------------------

    def compact_all(self) -> list[CompactionResult]:
        """Run log compaction on every *serving* tablet server (crashed or
        decommissioned servers are skipped)."""
        return [
            server.compact() for server in self.cluster.servers if server.serving
        ]

    def checkpoint_all(self) -> None:
        """Checkpoint every serving tablet server's indexes."""
        for server in self.cluster.servers:
            if server.serving:
                self.cluster.checkpoints[server.name].write_checkpoint()
