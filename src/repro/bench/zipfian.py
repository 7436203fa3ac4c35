"""Key-choice distributions for the YCSB workloads.

The Zipfian generator follows Gray et al.'s rejection-free algorithm as
implemented in YCSB.  The paper sets the Zipfian coefficient to 1.0; the
closed-form constants diverge exactly at 1.0, so (as YCSB itself does) a
value epsilon below is substituted.
"""

from __future__ import annotations

import random


class UniformGenerator:
    """Uniform integer choice over [0, n)."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("domain must be non-empty")
        self._n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        """Next sample."""
        return self._rng.randrange(self._n)


class ZipfianGenerator:
    """Zipfian choice over [0, n) with popularity rank = item order.

    Args:
        n: domain size.
        theta: skew; the paper's coefficient 1.0 is clamped to 0.9999.
        seed: RNG seed (deterministic experiments).
        scrambled: hash the rank so popular items spread over the key
            space (YCSB's scrambled-Zipfian, used for load balance).
    """

    def __init__(
        self, n: int, theta: float = 1.0, seed: int = 0, scrambled: bool = True
    ) -> None:
        if n < 1:
            raise ValueError("domain must be non-empty")
        if theta >= 1.0:
            theta = 0.9999
        self._n = n
        self._theta = theta
        self._rng = random.Random(seed)
        self._scrambled = scrambled
        self._zetan = self._zeta(n)
        self._zeta2 = self._zeta(2)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = self._compute_eta()

    def _zeta(self, n: int) -> float:
        return sum(1.0 / (i ** self._theta) for i in range(1, n + 1))

    def _compute_eta(self) -> float:
        return (1 - (2.0 / self._n) ** (1 - self._theta)) / (1 - self._zeta2 / self._zetan)

    def next(self) -> int:
        """Next sample in [0, n)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self._theta:
            rank = 1
        else:
            rank = int(self._n * (self._eta * u - self._eta + 1) ** self._alpha)
        rank = min(rank, self._n - 1)
        if not self._scrambled:
            return rank
        # FNV-style scramble to spread the hot set across the domain.
        h = (rank * 0x9E3779B97F4A7C15 + 0x85EBCA6B) & ((1 << 64) - 1)
        return h % self._n
