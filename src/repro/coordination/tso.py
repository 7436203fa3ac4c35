"""Timestamp oracle: the global commit-timestamp authority.

LogBase "employs Zookeeper as a timestamp authority to establish a global
counter for generating transaction's commit timestamps and therefore
ensuring a global order for committed update transactions" (§3.7.1).
Timestamps are strictly increasing integers; the same counter also stamps
single-record writes so versions are totally ordered system-wide.
"""

from __future__ import annotations

import struct

from repro.coordination.znodes import CoordinationService
from repro.errors import NodeExistsError

_COUNTER = struct.Struct(">q")


class TimestampOracle:
    """Strictly monotonic 64-bit timestamp dispenser backed by a znode."""

    _PATH = "/logbase/tso"

    def __init__(self, service: CoordinationService, start: int = 1) -> None:
        self._service = service
        self._session = service.connect("tso")
        service.ensure_path(self._session, "/logbase")
        try:
            service.create(self._session, self._PATH, _COUNTER.pack(start))
        except NodeExistsError:
            pass

    def next_timestamp(self) -> int:
        """Allocate and return the next timestamp."""
        service = self._service
        (value,) = _COUNTER.unpack(service.get(self._PATH)[0])
        service.set(self._session, self._PATH, _COUNTER.pack(value + 1))
        return value

    def current(self) -> int:
        """The next timestamp that *would* be allocated (read-only peek)."""
        (value,) = _COUNTER.unpack(self._service.get(self._PATH)[0])
        return value

    def read_timestamp(self) -> int:
        """Snapshot timestamp for a read-only transaction: every commit
        strictly earlier than this value is visible."""
        return self.current()
