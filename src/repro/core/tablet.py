"""Tablet metadata: a horizontal partition of one table (§3.2-3.3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import KeyRange
from repro.core.schema import TableSchema


@dataclass(frozen=True)
class TabletId:
    """Stable identifier of one tablet: table name + partition ordinal."""

    table: str
    ordinal: int

    def __post_init__(self) -> None:
        # Formatted once: every write keys its heat, log record, index
        # and update counter by this name.
        object.__setattr__(self, "_name", f"{self.table}#{self.ordinal}")

    def __str__(self) -> str:
        return self._name


@dataclass(frozen=True)
class Tablet:
    """One tablet: its identity, key range, and the owning table schema."""

    tablet_id: TabletId
    key_range: KeyRange
    schema: TableSchema

    @property
    def table(self) -> str:
        """Owning table name."""
        return self.tablet_id.table

    def covers(self, key: bytes) -> bool:
        """Whether this tablet's range contains ``key``."""
        return self.key_range.contains(key)
