"""Fixed-boundary histograms: tail percentiles without storing samples.

Buckets are geometric — boundary ``i`` is ``floor * growth**i`` — so
relative resolution is constant across nine decades of simulated seconds
(a 10 µs cache hit and a 40 s limped read land with the same ~0.5%
precision).  Each occupied bucket keeps ``(count, min, max)`` plus — up
to :data:`BUCKET_EXACT_CAP` distinct values — an exact value->count map;
past the cap the bucket collapses to its summary.  Memory is bounded by
occupied buckets times the cap, never by the sample count.

``percentile`` follows the nearest-rank convention the chaos runner has
always used (``rank = round(q * (n - 1))``).  In a deterministic
simulator a bucket rarely sees more than a handful of distinct latencies
(repeated identical operations cost identical seconds), so ranks resolve
through the exact per-bucket counts and the histogram reproduces the
list-based computation bit-for-bit — the chaos control-arm test asserts
exactly this.  Only a collapsed bucket approximates: its first sample
answers with the bucket minimum, its last with the maximum, anything
between with the midpoint (within the bucket's relative width).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.sim.metrics import validate_metric_name

#: default relative bucket width: ~0.5% — fine enough that distinct
#: latencies produced by the cost model almost never share a bucket.
DEFAULT_GROWTH = 1.005

#: smallest non-zero value with its own bucket; anything below (including
#: exact zeros, e.g. failed reads recorded at 0 s) shares bucket 0.
DEFAULT_FLOOR = 1e-7

#: distinct values a bucket counts exactly before collapsing to its
#: (count, min, max) summary.
BUCKET_EXACT_CAP = 64


class Histogram:
    """Geometric-bucket histogram with per-bucket min/max."""

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "_floor",
        "_log_growth",
        "_exact_cap",
        "_buckets",
    )

    def __init__(
        self,
        name: str,
        *,
        growth: float = DEFAULT_GROWTH,
        floor: float = DEFAULT_FLOOR,
        exact_cap: int = BUCKET_EXACT_CAP,
    ) -> None:
        if growth <= 1.0:
            raise ValueError("histogram growth factor must be > 1")
        if floor <= 0.0:
            raise ValueError("histogram floor must be > 0")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._floor = floor
        self._log_growth = math.log(growth)
        self._exact_cap = exact_cap
        # bucket index -> [count, min, max, value->count | None]; the map
        # is dropped (None) once a bucket exceeds exact_cap distinct
        # values.  Sparse, sorted on demand.
        self._buckets: dict[int, list] = {}

    def record(self, value: float) -> None:
        """Add one observation (negative values are clamped to 0)."""
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = (
            0 if value <= self._floor
            else 1 + int(math.log(value / self._floor) / self._log_growth)
        )
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [1, value, value, {value: 1}]
        else:
            bucket[0] += 1
            if value < bucket[1]:
                bucket[1] = value
            if value > bucket[2]:
                bucket[2] = value
            values = bucket[3]
            if values is not None:
                values[value] = values.get(value, 0) + 1
                if len(values) > self._exact_cap:
                    bucket[3] = None

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` in [0, 1] (0 when empty)."""
        if self.count == 0:
            return 0.0
        rank = min(self.count - 1, max(0, int(round(q * (self.count - 1)))))
        cumulative = 0
        for index in sorted(self._buckets):
            count, low, high, values = self._buckets[index]
            if rank < cumulative + count:
                if values is not None:
                    offset = rank - cumulative
                    for value in sorted(values):
                        if offset < values[value]:
                            return value
                        offset -= values[value]
                # Collapsed bucket: mirror the edges, approximate between.
                if low == high:
                    return low
                if rank == cumulative:
                    return low
                if rank == cumulative + count - 1:
                    return high
                return (low + high) / 2.0
            cumulative += count
        return self.max  # unreachable; defensive

    def count_above(self, threshold: float) -> int:
        """Observations strictly greater than ``threshold``.

        Feeds SLO burn-rate math: with a latency target of ``t`` seconds,
        ``count_above(t)`` is the running count of objective-violating
        ops.  Exact for buckets that still carry their value map; a
        collapsed bucket straddling the threshold contributes all of its
        samples when its recorded minimum exceeds the threshold, none
        when its maximum does not, and a count-weighted half otherwise
        (within the bucket's ~0.5% relative width).
        """
        above = 0
        for bucket in self._buckets.values():
            count, low, high, values = bucket
            if low > threshold:
                above += count
            elif high <= threshold:
                continue
            elif values is not None:
                above += sum(n for v, n in values.items() if v > threshold)
            else:
                above += count // 2
        return above

    def fraction_above(self, threshold: float) -> float:
        """``count_above(threshold) / count`` (0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.count_above(threshold) / self.count

    def snapshot(self) -> dict:
        """Summary dict for reports and trajectory files."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}, n={self.count}, "
            f"p50={self.percentile(0.5):.6g}, p99={self.percentile(0.99):.6g})"
        )


class HistogramRegistry:
    """Named histograms, created on first use.

    Names are checked against the frozen metric-name registry
    (:func:`repro.sim.metrics.validate_metric_name`) so histogram names
    cannot drift from the canonical spelling the dashboards use.
    """

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}

    def histogram(
        self,
        name: str,
        *,
        growth: float = DEFAULT_GROWTH,
        floor: float = DEFAULT_FLOOR,
    ) -> Histogram:
        """The histogram registered under ``name``, created if absent."""
        existing = self._histograms.get(name)
        if existing is None:
            validate_metric_name(name)
            existing = Histogram(name, growth=growth, floor=floor)
            self._histograms[name] = existing
        return existing

    def get(self, name: str) -> Histogram | None:
        """The histogram under ``name``, or None if never recorded."""
        return self._histograms.get(name)

    def snapshot(self) -> dict[str, dict]:
        """``{name: summary}`` for every registered histogram."""
        return {
            name: hist.snapshot() for name, hist in sorted(self._histograms.items())
        }

    def __iter__(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._histograms)
