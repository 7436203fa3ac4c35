"""Declarative SLO/alert rules over the scraped time series.

Two rule shapes cover the monitoring plane:

* :class:`ThresholdRule` — compare the newest sample of one metric (a
  health gauge, or a per-interval counter delta) against a threshold,
  optionally requiring the breach to be *sustained* for a window of
  simulated seconds before firing.  Evaluated independently per entity,
  so ``gauge.server_up < 0.5`` fires one alert per down node.
* :class:`SloRule` — burn-rate against a latency objective: the scraper
  publishes cumulative good/bad op counts per op class (bad = slower
  than the SLO target, counted from the PR 6 histograms via
  ``Histogram.count_above``), and the rule fires when the bad fraction
  over a lookback window burns error budget faster than
  ``burn_threshold`` times the allowed rate.  An availability-style
  objective is the same rule with more nines (0.999 leaves a 0.1%
  budget).

The engine fires and resolves alerts in simulated time and keeps a
structured, append-only alert log — the artifact chaos reports and
post-mortems attach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeseries import MetricStore

#: tolerance when deciding whether a sample belongs to the current scrape
#: tick (scrapes stamp every sample with the same ``now``).
_STALE_EPSILON = 1e-9

#: pseudo-entity for cluster-wide series (SLO counts, aggregate deltas).
CLUSTER_ENTITY = "cluster"


@dataclass(frozen=True)
class ThresholdRule:
    """Fire when ``metric`` breaches ``threshold`` (per entity).

    Args:
        name: alert name, e.g. ``"server-down"``.
        metric: series name to watch (gauge or counter-delta series).
        op: ``">"`` or ``"<"`` — direction of the breach.
        threshold: breach boundary (strict comparison).
        sustained_for: simulated seconds the breach must hold before the
            alert fires (0 fires on the first breaching sample).
        severity: ``"page"`` or ``"warn"`` — carried into the alert log.
        absent_value: value assumed when the entity's series has no
            sample for the current tick (counter-delta series are only
            written when the counter moved; a quiet interval means 0).
    """

    name: str
    metric: str
    op: str
    threshold: float
    sustained_for: float = 0.0
    severity: str = "page"
    absent_value: float = 0.0

    def breached(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == "<":
            return value < self.threshold
        raise ValueError(f"unknown threshold op {self.op!r}")


@dataclass(frozen=True)
class SloRule:
    """Burn-rate alert against a per-op-class latency objective.

    The scraper records two cumulative cluster-wide series per op class:
    ``slo.<op_class>.count`` (all ops) and ``slo.<op_class>.bad`` (ops
    slower than ``target_seconds``).  Burn rate over the lookback window
    is ``(bad_delta / count_delta) / (1 - objective)`` — 1.0 means the
    error budget is burning exactly at the allowed rate, 10 means ten
    times too fast.
    """

    name: str
    op_class: str  # root-span name, e.g. "op.put"
    target_seconds: float
    objective: float = 0.99
    burn_threshold: float = 10.0
    window: float = 30.0
    min_samples: int = 5
    severity: str = "page"

    @property
    def count_series(self) -> str:
        return f"slo.{self.op_class}.count"

    @property
    def bad_series(self) -> str:
        return f"slo.{self.op_class}.bad"

    def burn(self, store: "MetricStore", now: float) -> tuple[float, float]:
        """``(burn_rate, sample_count)`` over the lookback window."""
        counts = store.series(CLUSTER_ENTITY, self.count_series)
        bads = store.series(CLUSTER_ENTITY, self.bad_series)
        if counts is None or bads is None:
            return 0.0, 0.0

        def window_delta(series) -> float:
            samples = series.samples()
            if not samples:
                return 0.0
            newest = samples[-1][1]
            oldest = samples[0][1]
            for t, value in samples:
                if t >= now - self.window:
                    break
                oldest = value
            return newest - oldest

        count_delta = window_delta(counts)
        bad_delta = window_delta(bads)
        if count_delta <= 0.0:
            return 0.0, 0.0
        bad_fraction = bad_delta / count_delta
        budget = max(1.0 - self.objective, 1e-9)
        return bad_fraction / budget, count_delta


@dataclass
class AlertEngine:
    """Evaluates rules each scrape tick; fires/resolves in simulated time."""

    rules: list = field(default_factory=list)
    max_log: int = 4096

    def __post_init__(self) -> None:
        #: structured alert log: every firing/resolved transition, in order.
        self.log: list[dict] = []
        #: currently-firing alerts: (alert name, entity) -> fire record.
        self.active: dict[tuple[str, str], dict] = {}
        # (alert name, entity) -> simulated time the breach started.
        self._breach_since: dict[tuple[str, str], float] = {}

    def evaluate(self, store: "MetricStore", now: float) -> list[dict]:
        """Run every rule against ``store`` at simulated time ``now``.

        Returns the alerts that *newly fired* this tick (the flight
        recorder snapshots a post-mortem for each).  Resolutions are
        appended to :attr:`log` but not returned.
        """
        fired: list[dict] = []
        for rule in self.rules:
            if isinstance(rule, SloRule):
                fired.extend(self._eval_slo(rule, store, now))
            else:
                fired.extend(self._eval_threshold(rule, store, now))
        return fired

    # -- rule evaluation ------------------------------------------------

    def _eval_threshold(
        self, rule: ThresholdRule, store: "MetricStore", now: float
    ) -> list[dict]:
        fired: list[dict] = []
        entities = set(store.entities_for(rule.metric))
        # Re-check entities that are firing even if their series vanished
        # (value decays to absent_value, which resolves them).
        entities.update(e for (name, e) in self.active if name == rule.name)
        detail = f"{rule.metric} {rule.op} {rule.threshold:g}"
        for entity in sorted(entities):
            series = store.series(entity, rule.metric)
            value = rule.absent_value
            if series is not None:
                last = series.latest()
                if last is not None and last[0] >= now - _STALE_EPSILON:
                    value = last[1]
            fired.extend(
                self._transition(
                    rule.name,
                    entity,
                    breached=rule.breached(value),
                    sustained_for=rule.sustained_for,
                    severity=rule.severity,
                    value=value,
                    now=now,
                    detail=detail,
                )
            )
        return fired

    def _eval_slo(self, rule: SloRule, store: "MetricStore", now: float) -> list[dict]:
        burn, samples = rule.burn(store, now)
        breached = burn > rule.burn_threshold and samples >= rule.min_samples
        return self._transition(
            rule.name,
            CLUSTER_ENTITY,
            breached=breached,
            sustained_for=0.0,
            severity=rule.severity,
            value=burn,
            now=now,
            detail=(
                f"{rule.op_class} p{rule.objective * 100:g} > "
                f"{rule.target_seconds:g}s burn x{rule.burn_threshold:g}"
            ),
        )

    # -- state machine --------------------------------------------------

    def _transition(
        self,
        name: str,
        entity: str,
        *,
        breached: bool,
        sustained_for: float,
        severity: str,
        value: float,
        now: float,
        detail: str,
    ) -> list[dict]:
        key = (name, entity)
        if breached:
            since = self._breach_since.setdefault(key, now)
            if key not in self.active and now - since >= sustained_for:
                record = {
                    "time": now,
                    "alert": name,
                    "entity": entity,
                    "state": "firing",
                    "severity": severity,
                    "value": value,
                    "detail": detail,
                }
                self.active[key] = record
                self._append(record)
                return [record]
            return []
        self._breach_since.pop(key, None)
        if key in self.active:
            fire_record = self.active.pop(key)
            self._append(
                {
                    "time": now,
                    "alert": name,
                    "entity": entity,
                    "state": "resolved",
                    "severity": severity,
                    "value": value,
                    "duration": now - fire_record["time"],
                    "detail": detail,
                }
            )
        return []

    def _append(self, record: dict) -> None:
        self.log.append(record)
        if len(self.log) > self.max_log:
            del self.log[: len(self.log) - self.max_log]

    # -- reporting ------------------------------------------------------

    def firing(self) -> list[dict]:
        """Currently-active alerts, ordered by fire time."""
        return sorted(self.active.values(), key=lambda r: (r["time"], r["alert"]))

    def fired_names(self) -> set[str]:
        """Every alert name that has fired at least once."""
        return {r["alert"] for r in self.log if r["state"] == "firing"}
