"""Property: every metric name the monitoring plane emits is registered.

The frozen :class:`~repro.sim.metrics.MetricNameRegistry` is the single
vocabulary for counters, gauges, histograms, and scraped series.  Two
angles here:

* an exhaustive check over a real monitored run — every name that lands
  in the scraper's store, the stats report, the alert rules, and the
  flight-recorder bundles validates against the registry;
* hypothesis properties of the registry itself — registered prefixes
  are closed over suffixes, exact names round-trip, and everything else
  is rejected.
"""

import string

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.chaos.scenario import GROUP, KEY_WIDTH, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.stats import collect_cluster_stats
from repro.obs.alerts import SloRule
from repro.obs.monitor import default_rules
from repro.sim.metrics import REGISTRY, validate_metric_name


def _emitted_names() -> set[str]:
    """Every metric name a monitored run (workload + fault) emits."""
    config = LogBaseConfig(
        monitoring=True,
        segment_size=64 * 1024,
        monitor_scrape_interval=0.0,
        tracing=True,
        slo_op_p99={"op.put": 0.05},
    )
    db = LogBase(n_nodes=4, config=config)
    db.create_table(SCHEMA, tablets_per_server=2)
    monitor = db.cluster.monitor
    client = db.client(db.cluster.machines[-1])
    keys = [str(i).zfill(KEY_WIDTH).encode() for i in range(30)]
    for key in keys:
        client.put_raw(TABLE, key, GROUP, b"v" * 32)
    for key in keys[:10]:
        client.get_raw(TABLE, key, GROUP)
    db.cluster.heartbeat()
    db.cluster.kill_node(db.cluster.servers[0].name)
    db.cluster.heartbeat()

    names: set[str] = set(monitor.store.metric_names())
    stats = collect_cluster_stats(db.cluster)
    names.update(stats.counters)
    for gauges in stats.health.values():
        names.update(gauges)
    for rule in default_rules(config):
        if isinstance(rule, SloRule):
            names.update((rule.count_series, rule.bad_series))
        else:
            names.add(rule.metric)
    for pm in monitor.postmortem_dicts():
        for per_entity in pm.get("series", {}).values():
            names.update(per_entity)
    monitor.close()
    return names


def test_monitored_run_emits_only_registered_names():
    names = _emitted_names()
    assert names  # the run actually produced series
    for name in sorted(names):
        assert validate_metric_name(name) == name


suffixes = st.text(
    alphabet=string.ascii_lowercase + string.digits + "._", min_size=1, max_size=24
)


@given(suffixes)
def test_registered_prefixes_are_closed_over_suffixes(suffix):
    # "slo." and "latency." are registered prefixes: any suffix is legal.
    assert validate_metric_name(f"slo.{suffix}") == f"slo.{suffix}"
    assert validate_metric_name(f"latency.{suffix}") == f"latency.{suffix}"


@given(st.sampled_from(sorted(REGISTRY.names())))
def test_exact_names_round_trip(name):
    assert validate_metric_name(name) == name


@given(suffixes)
def test_unregistered_names_are_rejected(name):
    assume(not REGISTRY.known(name))
    with pytest.raises(ValueError):
        validate_metric_name(name)
