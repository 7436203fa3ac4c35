"""Fixed-capacity time series for the cluster monitoring plane.

The scraper (``repro.obs.monitor``) samples counters and health gauges on
every cluster heartbeat and records them here, keyed ``(entity, metric)``
where the entity is a node name, a tablet id, or the pseudo-entity
``"cluster"``.  Each series is a ring buffer of ``(t, value)`` samples in
simulated seconds: memory is bounded by ``capacity`` per series no matter
how long a run heartbeats, and the most recent window is always
available for alert evaluation and flight-recorder post-mortems.

Series names are validated against the frozen metric-name registry
(:func:`repro.sim.metrics.validate_metric_name`) on first use, so the
monitoring plane cannot mint spellings the rest of the repo doesn't know.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.metrics import validate_metric_name


class TimeSeries:
    """One metric stream: a ring of the most recent ``capacity`` samples."""

    __slots__ = ("entity", "metric", "capacity", "_ring", "_start", "_len")

    def __init__(self, entity: str, metric: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("time-series capacity must be >= 1")
        self.entity = entity
        self.metric = metric
        self.capacity = capacity
        self._ring: list[tuple[float, float]] = [(0.0, 0.0)] * capacity
        self._start = 0  # index of the oldest sample
        self._len = 0

    def record(self, t: float, value: float) -> None:
        """Append one sample, evicting the oldest past capacity."""
        if self._len < self.capacity:
            self._ring[(self._start + self._len) % self.capacity] = (t, value)
            self._len += 1
        else:
            self._ring[self._start] = (t, value)
            self._start = (self._start + 1) % self.capacity

    def __len__(self) -> int:
        return self._len

    def samples(self) -> list[tuple[float, float]]:
        """All retained samples, oldest first."""
        return [
            self._ring[(self._start + i) % self.capacity] for i in range(self._len)
        ]

    def latest(self) -> tuple[float, float] | None:
        """The newest ``(t, value)`` sample, or None when empty."""
        if self._len == 0:
            return None
        return self._ring[(self._start + self._len - 1) % self.capacity]

    def window(self, since: float) -> list[tuple[float, float]]:
        """Samples with ``t >= since``, oldest first."""
        return [sample for sample in self.samples() if sample[0] >= since]

    def tail(self, n: int) -> list[tuple[float, float]]:
        """The newest ``n`` samples, oldest first."""
        if n >= self._len:
            return self.samples()
        return [
            self._ring[(self._start + self._len - n + i) % self.capacity]
            for i in range(n)
        ]

    def __repr__(self) -> str:
        last = self.latest()
        shown = f"{last[1]:g}@{last[0]:.3f}" if last else "empty"
        return f"TimeSeries({self.entity}/{self.metric}, n={self._len}, last={shown})"


class MetricStore:
    """All scraped series, keyed ``(entity, metric)``.

    Series are created lazily on first record; every distinct metric name
    is validated once against the frozen registry.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("metric-store capacity must be >= 1")
        self.capacity = capacity
        self._series: dict[tuple[str, str], TimeSeries] = {}
        # metric -> the entities with a series of it (alert rules ask per scrape)
        self._entities: dict[str, set[str]] = {}

    def record(self, entity: str, metric: str, t: float, value: float) -> None:
        """Record one sample into the ``(entity, metric)`` series."""
        key = (entity, metric)
        series = self._series.get(key)
        if series is None:
            if metric not in self._entities:
                validate_metric_name(metric)
                self._entities[metric] = set()
            self._entities[metric].add(entity)
            series = TimeSeries(entity, metric, self.capacity)
            self._series[key] = series
        series.record(t, value)

    def series(self, entity: str, metric: str) -> TimeSeries | None:
        """The series under ``(entity, metric)``, or None if never recorded."""
        return self._series.get((entity, metric))

    def latest(self, entity: str, metric: str) -> float | None:
        """Newest value of ``(entity, metric)``, or None."""
        series = self._series.get((entity, metric))
        if series is None:
            return None
        last = series.latest()
        return None if last is None else last[1]

    def entities_for(self, metric: str) -> list[str]:
        """All entities that have recorded ``metric``, sorted."""
        return sorted(self._entities.get(metric, ()))

    def metric_names(self) -> set[str]:
        """Every distinct metric name recorded so far."""
        return set(self._entities)

    def keys(self) -> list[tuple[str, str]]:
        """All ``(entity, metric)`` keys, sorted."""
        return sorted(self._series)

    def tails(self, n: int) -> dict[str, dict[str, list[tuple[float, float]]]]:
        """``{entity: {metric: newest-n samples}}`` for post-mortem bundles."""
        out: dict[str, dict[str, list[tuple[float, float]]]] = {}
        for (entity, metric), series in sorted(self._series.items()):
            out.setdefault(entity, {})[metric] = series.tail(n)
        return out

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())
