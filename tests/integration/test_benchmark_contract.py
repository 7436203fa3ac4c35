"""What the frozen end-to-end benchmark (``benchmarks/e2e``) relies on in
``src/``: the entry points its layer tracer wraps by name, and the wording
its driver counts lease lapses by.  The benchmark files are read, not
imported or changed."""

import ast
import pathlib

import pytest

from repro import LogBase, LogBaseConfig
from repro.errors import TabletMigratingError
from repro.sim.failure import CP_MIGRATION_FLIP, FaultPlan, fault_plan

E2E = pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e"
TABLE = "events"
GROUP = "payload"


def test_every_traced_entry_point_resolves():
    path = E2E / "layers.py"
    layers: dict = {"__name__": "e2e_layers"}
    exec(compile(path.read_text(), str(path), "exec"), layers)
    targets = layers["_targets"]() + layers["_cost_targets"]()
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, owner, attr in targets
        if not hasattr(owner, attr)
    ]
    assert targets
    assert missing == []


def _lease_lapse_marker() -> str:
    """``driver.py``'s ``LEASE_LAPSE``, the substring that makes a
    rejection count as a lapsed lease."""
    tree = ast.parse((E2E / "driver.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LEASE_LAPSE"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("driver.py defines no LEASE_LAPSE")


def test_only_a_lapsed_lease_reads_as_a_lease_lapse(schema):
    marker = _lease_lapse_marker()
    db = LogBase(n_nodes=2, config=LogBaseConfig(live_migration=True))
    db.create_table(schema, tablets_per_server=1)
    key = b"000000000001"
    db.put(TABLE, key, {GROUP: {"body": b"v"}})
    cluster = db.cluster
    tablet_id = cluster.master.catalog.tablet_for(TABLE, key)
    source_name = cluster.master.catalog.assignments[tablet_id]
    source = cluster.server_by_name(source_name)
    target = next(s.name for s in cluster.servers if s.name != source_name)
    rejections = []

    def read_inside_the_fence(_ctx):
        with pytest.raises(TabletMigratingError) as fenced:
            source.read(TABLE, key, GROUP)
        rejections.append(str(fenced.value))

    plan = FaultPlan()
    plan.add(CP_MIGRATION_FLIP, read_inside_the_fence, stage="commit")
    with fault_plan(plan):
        cluster.migrate_tablet(tablet_id, target)
    owner = cluster.server_by_name(target)
    owner.machine.clock.advance(60.0)  # far past any ownership lease
    with pytest.raises(TabletMigratingError) as lapsed:
        owner.read(TABLE, key, GROUP)
    assert marker in str(lapsed.value)
    assert len(rejections) == 1
    assert marker not in rejections[0]
