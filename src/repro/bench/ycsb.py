"""YCSB workload definition (§4.1, §4.3).

Paper parameters: 1 KB records, keys drawn from a domain of 2*10^9,
Zipfian coefficient 1.0, one benchmark client per node, loading 1 M
records per node (scaled down here; record *size* stays 1 KB so the cost
model charges paper-scale bytes), and write-heavy mixes of 95 % and 75 %
updates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.bench.zipfian import ZipfianGenerator

KEY_DOMAIN = 2_000_000_000
KEY_WIDTH = 12


def make_key(value: int) -> bytes:
    """Zero-padded decimal key, sortable as bytes."""
    return str(value).zfill(KEY_WIDTH).encode()


@dataclass
class YCSBWorkload:
    """One YCSB experiment configuration.

    Attributes:
        records_per_node: records loaded per node (paper: 1 M, scaled).
        record_size: value bytes per record (paper: 1 KB).
        update_fraction: share of updates in the mixed phase.
        theta: Zipfian coefficient for key choice (paper: 1.0).
        seed: deterministic RNG seed.
    """

    records_per_node: int = 1000
    record_size: int = 1000
    update_fraction: float = 0.95
    theta: float = 1.0
    seed: int = 42
    _keys: list[bytes] = field(default_factory=list, repr=False)

    def load_keys(self, n_nodes: int) -> list[bytes]:
        """Generate (and remember) the keys the load phase inserts."""
        rng = random.Random(self.seed)
        total = self.records_per_node * n_nodes
        values = rng.sample(range(KEY_DOMAIN), total)
        self._keys = sorted(make_key(v) for v in values)
        return self._keys

    @property
    def keys(self) -> list[bytes]:
        """Keys inserted by the load phase (after :meth:`load_keys`)."""
        if not self._keys:
            raise RuntimeError("call load_keys() first")
        return self._keys

    def value(self, rng: random.Random | None = None) -> bytes:
        """A record payload of the configured size."""
        if rng is None:
            return b"x" * self.record_size
        return bytes(rng.getrandbits(8) for _ in range(min(16, self.record_size))) + (
            b"x" * max(0, self.record_size - 16)
        )

    def operations(self, n_ops: int, *, seed_offset: int = 0) -> Iterator[tuple[str, bytes]]:
        """Yield ``(op, key)`` pairs for the mixed phase.

        ``op`` is ``"update"`` or ``"read"``; keys are Zipfian-chosen from
        the loaded key set ("an operation ... either reads or updates a
        certain record that has been inserted in the loading phase").
        """
        keys = self.keys
        chooser = ZipfianGenerator(len(keys), self.theta, seed=self.seed + seed_offset)
        rng = random.Random(self.seed + 7919 + seed_offset)
        for _ in range(n_ops):
            key = keys[chooser.next()]
            if rng.random() < self.update_fraction:
                yield "update", key
            else:
                yield "read", key
