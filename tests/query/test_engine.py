"""Query engine tests: planning, execution, projection, aggregation."""

import pytest

from repro import ColumnGroup, LogBase, TableSchema
from repro.errors import TableNotFound
from repro.query import And, Eq, Query, QueryEngine, Range


@pytest.fixture
def populated():
    db = LogBase(3)
    db.create_table(
        TableSchema(
            "users",
            "uid",
            (
                ColumnGroup("profile", ("name", "country")),
                ColumnGroup("stats", ("age",)),
            ),
        )
    )
    rows = []
    for i in range(30):
        key = str(i * 66_000_000).zfill(12).encode()
        country = [b"SG", b"US", b"DE"][i % 3]
        age = str(20 + i).encode()
        db.put(
            "users",
            key,
            {"profile": {"name": f"u{i}".encode(), "country": country},
             "stats": {"age": age}},
        )
        rows.append((key, country, age))
    return db, QueryEngine(db), rows


def test_unknown_table_rejected(populated):
    _, engine, _ = populated
    with pytest.raises(TableNotFound):
        engine.query("ghost")


def test_full_scan_plan_and_result(populated):
    _, engine, rows = populated
    query = engine.query("users").where(Eq("country", b"SG"))
    assert query.explain().access_path == "full-scan"
    result = query.run()
    expected = sorted(key for key, country, _ in rows if country == b"SG")
    assert [key for key, _ in result] == expected


def test_primary_lookup_plan(populated):
    _, engine, rows = populated
    key = rows[7][0]
    query = engine.query("users").where(Eq("uid", key))
    plan = query.explain()
    assert plan.access_path == "primary-lookup"
    result = query.run()
    assert len(result) == 1 and result[0][0] == key


def test_primary_lookup_missing_key(populated):
    _, engine, _ = populated
    assert engine.query("users").where(Eq("uid", b"000000000009")).run() == []


def test_primary_range_plan(populated):
    _, engine, rows = populated
    lo, hi = rows[5][0], rows[12][0]
    query = engine.query("users").where(Range("uid", lo, hi))
    assert query.explain().access_path == "primary-range"
    result = query.run()
    assert [key for key, _ in result] == [k for k, _, _ in rows[5:12]]


def test_secondary_lookup_used_when_available(populated):
    _, engine, rows = populated
    engine.create_secondary_index("users", "country")
    query = engine.query("users").where(Eq("country", b"US"))
    assert query.explain().access_path == "secondary-lookup"
    expected = sorted(key for key, country, _ in rows if country == b"US")
    assert [key for key, _ in query.run()] == expected


def test_secondary_range_lookup(populated):
    _, engine, rows = populated
    engine.create_secondary_index("users", "age")
    query = engine.query("users").where(Range("age", b"25", b"30"))
    assert query.explain().access_path == "secondary-lookup"
    assert query.count() == 5


def test_residual_predicates_applied(populated):
    _, engine, rows = populated
    engine.create_secondary_index("users", "country")
    query = engine.query("users").where(
        And(Eq("country", b"DE"), Range("age", b"30", b"99"))
    )
    result = query.run()
    expected = [
        key for key, country, age in rows if country == b"DE" and b"30" <= age < b"99"
    ]
    assert [key for key, _ in result] == sorted(expected)


def test_projection_limits_columns(populated):
    _, engine, _ = populated
    result = engine.query("users").select("name").run()
    assert all(set(row) == {"name"} for _, row in result)


def test_projection_reads_only_needed_groups(populated):
    _, engine, _ = populated
    plan = engine.query("users").select("age").explain()
    assert plan.groups_read == ("stats",)


def test_snapshot_query_skips_secondary_index(populated):
    db, engine, rows = populated
    engine.create_secondary_index("users", "country")
    snapshot = db.cluster.tso.current()
    query = engine.query("users").where(Eq("country", b"SG")).as_of(snapshot)
    assert query.explain().access_path == "full-scan"


def test_snapshot_query_sees_old_values(populated):
    db, engine, rows = populated
    key = rows[0][0]
    snapshot = db.cluster.tso.current() - 1
    db.put("users", key, {"profile": {"name": b"renamed", "country": b"SG"}})
    old = engine.query("users").where(Eq("uid", key)).as_of(snapshot).run()
    assert old[0][1]["name"] == b"u0"
    new = engine.query("users").where(Eq("uid", key)).run()
    assert new[0][1]["name"] == b"renamed"


def test_count_and_unfiltered_scan(populated):
    _, engine, rows = populated
    assert engine.query("users").count() == len(rows)


def test_aggregate_overall(populated):
    _, engine, rows = populated
    stats = engine.query("users").aggregate("age")
    assert stats["count"] == 30
    assert stats["min"] == 20.0
    assert stats["max"] == 49.0
    assert stats["sum"] == float(sum(range(20, 50)))


def test_aggregate_group_by(populated):
    _, engine, _ = populated
    stats = engine.query("users").aggregate("age", group_by="country")
    assert stats["count"] == {b"SG": 10.0, b"US": 10.0, b"DE": 10.0}


def test_aggregate_with_filter(populated):
    _, engine, _ = populated
    stats = engine.query("users").where(Eq("country", b"SG")).aggregate("age")
    assert stats["count"] == 10


def test_deleted_rows_excluded(populated):
    db, engine, rows = populated
    engine.create_secondary_index("users", "country")
    victim = next(key for key, country, _ in rows if country == b"SG")
    db.delete("users", victim)
    result = engine.query("users").where(Eq("country", b"SG")).run()
    assert victim not in [key for key, _ in result]


def test_multi_tablet_servers_no_duplicates():
    """Regression: servers hosting several tablets must be scanned once."""
    db = LogBase(3)
    db.create_table(
        TableSchema("t", "id", (ColumnGroup("g", ("v",)),)), tablets_per_server=3
    )
    engine = QueryEngine(db)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 97_000_019)]
    for key in keys:
        db.put("t", key, {"g": {"v": b"x"}})
    result = engine.query("t").run()
    assert len(result) == len(keys)
    assert len({key for key, _ in result}) == len(keys)


def test_order_by_and_limit(populated):
    _, engine, rows = populated
    result = (
        engine.query("users")
        .select("age")
        .order_by("age", descending=True)
        .limit(3)
        .run()
    )
    assert [row["age"] for _, row in result] == [b"49", b"48", b"47"]


def test_limit_without_order_streams_key_order(populated):
    _, engine, rows = populated
    result = engine.query("users").limit(5).run()
    assert [key for key, _ in result] == [k for k, _, _ in rows[:5]]


def test_a_limit_scan_reads_no_row_past_its_cursor(populated):
    """Every row read is one disk read, and a limit stops them."""
    db, engine, _ = populated

    def disk_reads(query) -> float:
        before = db.cluster.total_counters().get("disk.reads", 0)
        query.run()
        return db.cluster.total_counters().get("disk.reads", 0) - before

    assert disk_reads(engine.query("users").limit(5)) == 5
    assert disk_reads(engine.query("users").limit(1)) == 1
    assert disk_reads(engine.query("users")) == 30


def test_limit_rejects_negative(populated):
    _, engine, _ = populated
    import pytest as _pytest

    with _pytest.raises(ValueError):
        engine.query("users").limit(-1)


def test_order_by_column_outside_projection(populated):
    """Ordering may use a column the projection drops."""
    _, engine, _ = populated
    result = (
        engine.query("users").select("name").order_by("age").limit(2).run()
    )
    assert [row["name"] for _, row in result] == [b"u0", b"u1"]


def test_aggregate_empty_result_set(populated):
    _, engine, _ = populated
    stats = engine.query("users").where(Eq("country", b"XX")).aggregate("age")
    assert stats == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}


def test_group_by_empty_result_set(populated):
    _, engine, _ = populated
    stats = engine.query("users").where(Eq("country", b"XX")).aggregate(
        "age", group_by="country"
    )
    assert stats == {"count": {}, "sum": {}}


def test_limit_zero(populated):
    _, engine, _ = populated
    assert engine.query("users").limit(0).run() == []
