"""Fixed-capacity time series for the cluster monitoring plane.

The scraper (``repro.obs.monitor``) samples counters and health gauges on
every cluster heartbeat and records them here, keyed ``(entity, metric)``
where the entity is a node name, a tablet id, or the pseudo-entity
``"cluster"``.  Each series keeps its newest ``(t, value)`` samples in
simulated seconds: memory is bounded by ``capacity`` per series no matter
how long a run heartbeats, and the most recent window is always
available for alert evaluation and flight-recorder post-mortems.

Series names are validated against the frozen metric-name registry
(:func:`repro.sim.metrics.validate_metric_name`) on first use, so the
monitoring plane cannot mint spellings the rest of the repo doesn't know.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.sim.metrics import validate_metric_name


class TimeSeries:
    """One metric stream: the most recent ``capacity`` samples, packed
    ``t, value, t, value, ...`` in one float array (no object per
    sample)."""

    __slots__ = ("entity", "metric", "capacity", "_flat")

    def __init__(self, entity: str, metric: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("time-series capacity must be >= 1")
        self.entity = entity
        self.metric = metric
        self.capacity = capacity
        self._flat = array("d")

    def record(self, t: float, value: float) -> None:
        """Append one sample, evicting the oldest past capacity."""
        flat = self._flat
        if len(flat) == 2 * self.capacity:
            del flat[:2]
        flat.append(t)
        flat.append(value)

    def __len__(self) -> int:
        return len(self._flat) // 2

    def samples(self) -> list[tuple[float, float]]:
        """All retained samples, oldest first."""
        return _pairs(self._flat)

    def latest(self) -> tuple[float, float] | None:
        """The newest ``(t, value)`` sample, or None when empty."""
        flat = self._flat
        return (flat[-2], flat[-1]) if flat else None

    def window(self, since: float) -> list[tuple[float, float]]:
        """Samples with ``t >= since``, oldest first."""
        return [sample for sample in self.samples() if sample[0] >= since]

    def tail(self, n: int) -> list[tuple[float, float]]:
        """The newest ``n`` samples, oldest first."""
        if n <= 0:
            return []
        return _pairs(self._flat[-2 * n :])

    def __repr__(self) -> str:
        last = self.latest()
        shown = f"{last[1]:g}@{last[0]:.3f}" if last else "empty"
        return f"TimeSeries({self.entity}/{self.metric}, n={len(self)}, last={shown})"


def _pairs(flat: array) -> list[tuple[float, float]]:
    return list(zip(flat[::2], flat[1::2]))


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
        self.record_all((((entity, metric), value),), t)

    def record_all(self, samples: Iterable[tuple[tuple[str, str], float]], t: float) -> None:
        """Record ``((entity, metric), value)`` samples, all taken at ``t``."""
        for key, value in samples:
            series = self._series.get(key)
            if series is None:
                entity, metric = key
                if metric not in self._entities:
                    validate_metric_name(metric)
                    self._entities[metric] = set()
                self._entities[metric].add(entity)
                series = self._series[key] = TimeSeries(entity, metric, self.capacity)
            flat = series._flat  # TimeSeries.record, without a call per sample
            if len(flat) == 2 * self.capacity:
                del flat[:2]
            flat.append(t)
            flat.append(value)

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

    def freeze_tails(self, n: int) -> tuple[list[tuple[str, str]], list[int], bytes]:
        """The newest ``n`` samples of every series, frozen: the sorted
        keys, each one's sample count, and the samples packed in one
        bytes object, series after series."""
        keys = sorted(self._series)
        tails = [self._series[key]._flat[-2 * n :] if n > 0 else array("d") for key in keys]
        return keys, [len(tail) // 2 for tail in tails], b"".join(tails)

    def tails(self, n: int) -> dict[str, dict[str, list[tuple[float, float]]]]:
        """``{entity: {metric: newest-n samples}}`` for post-mortem bundles."""
        return nest_tails(*self.freeze_tails(n))

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series.values())


def nest_tails(
    keys: list[tuple[str, str]], counts: list[int], frozen: bytes
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """:meth:`MetricStore.freeze_tails` as ``{entity: {metric: samples}}``."""
    flat = array("d", frozen)
    out: dict[str, dict[str, list[tuple[float, float]]]] = {}
    at = 0
    for (entity, metric), count in zip(keys, counts):
        out.setdefault(entity, {})[metric] = _pairs(flat[at : at + 2 * count])
        at += 2 * count
    return out
