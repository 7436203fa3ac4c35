"""Flight recorder: bounded per-node event rings and post-mortem bundles.

The recorder keeps, per node, a small ring of recent events (faults
observed at crash points and the failure injector, alert transitions,
heartbeat summaries).  When an alert fires or a seeded ``CP_*`` crash
point trips, it snapshots a :class:`PostMortem` bundle — the recent time
series, the event rings, the most recent spans from the tracer (when
tracing is enabled), and the alert context — so every chaos schedule
produces a self-explaining artifact without re-running anything.

Bundles export as plain dicts or JSON (see EXPERIMENTS.md for how to
read one).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from repro.obs.timeseries import nest_tails


@dataclass
class PostMortem:
    """One snapshot: why it was taken and what the cluster looked like."""

    reason: str  # "alert:<name>:<entity>" or "fault:<kind>"
    time: float  # simulated seconds at snapshot
    # alert context + events + spans, and the series tails as the store
    # froze them (MetricStore.freeze_tails), nested only by to_dict()
    bundle: dict

    def to_dict(self) -> dict:
        series = nest_tails(*self.bundle["series"])
        return {"reason": self.reason, "time": self.time, **self.bundle, "series": series}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)


class FlightRecorder:
    """Per-node bounded event rings plus the post-mortem snapshot logic."""

    def __init__(
        self,
        *,
        ring_capacity: int = 64,
        max_postmortems: int = 8,
        series_tail: int = 32,
        span_tail: int = 16,
    ) -> None:
        self.ring_capacity = ring_capacity
        self.max_postmortems = max_postmortems
        self.series_tail = series_tail
        self.span_tail = span_tail
        self._rings: dict[str, deque] = {}
        #: post-mortems taken, oldest first; bounded — the first snapshot
        #: for an incident is usually the interesting one, so overflow
        #: drops the newest, not the oldest.
        self.postmortems: list[PostMortem] = []
        self.dropped_postmortems = 0

    def record_event(self, node: str, t: float, kind: str, detail: str) -> None:
        """Append one event to ``node``'s ring (oldest evicted)."""
        ring = self._rings.get(node)
        if ring is None:
            ring = deque(maxlen=self.ring_capacity)
            self._rings[node] = ring
        ring.append({"time": t, "kind": kind, "detail": detail})

    def events(self) -> dict[str, list[dict]]:
        """``{node: [events...]}``, each ring oldest first."""
        return {node: list(ring) for node, ring in sorted(self._rings.items())}

    def snapshot(
        self,
        reason: str,
        t: float,
        *,
        store,
        engine,
        tracer=None,
    ) -> PostMortem | None:
        """Take a post-mortem bundle now; returns None past the cap."""
        if len(self.postmortems) >= self.max_postmortems:
            self.dropped_postmortems += 1
            return None
        bundle = {
            "alerts": {
                "active": [dict(r) for r in engine.firing()],
                "recent": [dict(r) for r in engine.log[-16:]],
            },
            "events": self.events(),
            "series": store.freeze_tails(self.series_tail),
            "spans": self._recent_spans(tracer),
        }
        pm = PostMortem(reason=reason, time=t, bundle=bundle)
        self.postmortems.append(pm)
        return pm

    def _recent_spans(self, tracer) -> list[dict]:
        """Newest root spans from the tracer's trace ring, when present."""
        if tracer is None:
            return []
        roots = tracer.trace_log.traces()[-self.span_tail :]
        return [
            {"name": r.name, "machine": r.machine, "latency": r.end_to_end()}
            for r in roots
        ]
