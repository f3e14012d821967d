"""The SQL statement cache and the executor's access-path choice.

Statement texts are parsed once through an LRU cache keyed by text; the
executor picks its access path from the schema it meets on each call.
These tests pin the cache's LRU accounting and the executor's row copies
and access paths.
"""

from __future__ import annotations

from repro.storage import Column, TableSchema
from repro.storage.sql import (
    PLAN_CACHE_CAPACITY,
    PlanCache,
    execute,
    plan_cache,
)
from repro.workloads import sql_template


class TestPlanCache:
    def test_hit_and_miss_accounting(self):
        cache = PlanCache()
        first = cache.get("SELECT * FROM t WHERE id = 1")
        again = cache.get("SELECT * FROM t WHERE id = 1")
        assert first is again
        assert cache.hits == 1 and cache.misses == 1 and cache.stats()["size"] == 1

    def test_lru_eviction(self):
        cache = PlanCache()
        a = cache.get("SELECT * FROM t WHERE id = 0")
        for i in range(1, PLAN_CACHE_CAPACITY):
            cache.get(f"SELECT * FROM t WHERE id = {i}")
        # Touch id=0 so id=1 becomes the least recently used entry.
        assert cache.get("SELECT * FROM t WHERE id = 0") is a
        cache.get("SELECT * FROM t WHERE id = -1")
        assert cache.evictions == 1 and cache.stats()["size"] == PLAN_CACHE_CAPACITY
        assert cache.get("SELECT * FROM t WHERE id = 0") is a  # survived
        # id=1 was evicted: fetching it again is a miss that reparses.
        misses = cache.misses
        cache.get("SELECT * FROM t WHERE id = 1")
        assert cache.misses == misses + 1

    def test_stats_shape(self):
        cache = PlanCache()
        cache.get("SELECT * FROM t")
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "capacity": PLAN_CACHE_CAPACITY,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
        }

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.get("SELECT * FROM t")
        cache.get("SELECT * FROM t")
        cache.clear()
        assert cache.stats()["size"] == 0 and cache.hits == 0 and cache.misses == 0

    def test_parse_script_dedupes_through_global_cache(self):
        # Two templates over one text share a single parse.
        text = "SELECT * FROM dedupe_probe_table WHERE id = :id"
        baseline = plan_cache().misses
        sql_template("first", [text])
        sql_template("second", [text])
        assert plan_cache().misses == baseline + 1

    def test_compile_statement_uses_global_cache(self):
        # A statement executed as text is parsed through the same cache,
        # which hands back one object per text.
        text = "SELECT * FROM item WHERE id = :id"
        ctx = _item_ctx()
        execute(ctx, text, {"id": 1})
        misses = plan_cache().misses
        assert execute(ctx, text, {"id": 2})[0]["price"] == 25.0
        assert plan_cache().misses == misses
        assert plan_cache().get(text) is plan_cache().get(text)


class _Ctx:
    """Minimal execution context over plain dicts (mirrors test_sql.py)."""

    def __init__(self, schema, rows):
        self._schema = schema
        self.rows = {row[schema.primary_key]: dict(row) for row in rows}

    def schema(self, table):
        return self._schema

    def read(self, table, key):
        return self.rows.get(key)

    def lookup(self, table, column, value):
        return sorted(k for k, r in self.rows.items() if r.get(column) == value)

    def scan(self, table, predicate=None, limit=None):
        out = []
        for key in sorted(self.rows):
            row = self.rows[key]
            if predicate is None or predicate(row):
                out.append(row)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def insert(self, table, values):
        self.rows[values[self._schema.primary_key]] = dict(values)

    def update(self, table, key, changes):
        self.rows[key].update(changes)

    def delete(self, table, key):
        del self.rows[key]


def _item_ctx():
    schema = TableSchema(
        "item",
        [Column("id", int), Column("subject", str), Column("price", float)],
        "id",
        indexes=["subject"],
    )
    return _Ctx(
        schema,
        [
            {"id": 1, "subject": "ARTS", "price": 10.0},
            {"id": 2, "subject": "ARTS", "price": 25.0},
            {"id": 3, "subject": "SPORTS", "price": 8.0},
        ],
    )


class TestCompiledExecution:
    def test_select_star_returns_fresh_copies(self):
        ctx = _item_ctx()
        rows = execute(ctx, "SELECT * FROM item WHERE id = 1")
        rows[0]["price"] = -1.0
        again = execute(ctx, "SELECT * FROM item WHERE id = 1")
        assert again[0]["price"] == 10.0  # storage untouched by the caller

    def test_projection_returns_fresh_dicts(self):
        ctx = _item_ctx()
        rows = execute(ctx, "SELECT id FROM item WHERE subject = 'ARTS'")
        assert rows == [{"id": 1}, {"id": 2}]
        rows[0]["id"] = 99
        assert ctx.rows[1]["id"] == 1

    def test_plan_rebinds_when_schema_changes(self):
        # Same statement text, two tables with different primary keys:
        # the access path must follow the schema actually presented.
        text = "SELECT * FROM probe WHERE k = :k"
        schema_pk = TableSchema("probe", [Column("k", int), Column("v", int)], "k")
        schema_scan = TableSchema(
            "probe", [Column("id", int), Column("k", int), Column("v", int)], "id"
        )
        ctx_pk = _Ctx(schema_pk, [{"k": 1, "v": 10}, {"k": 2, "v": 20}])
        ctx_scan = _Ctx(
            schema_scan,
            [{"id": 1, "k": 7, "v": 10}, {"id": 2, "k": 7, "v": 20}],
        )
        assert [r["v"] for r in execute(ctx_pk, text, {"k": 2})] == [20]
        # Against the second schema `k` is not the key: both rows match.
        assert [r["v"] for r in execute(ctx_scan, text, {"k": 7})] == [10, 20]
        # And back again, exercising the rebind in the other direction.
        assert [r["v"] for r in execute(ctx_pk, text, {"k": 1})] == [10]

    def test_null_pk_param_falls_through_to_scan(self):
        # Interpreted semantics: a NULL primary-key equality does not pin
        # the key; the statement degrades to a scan that matches nothing.
        ctx = _item_ctx()
        assert execute(ctx, "SELECT * FROM item WHERE id = :id", {"id": None}) == []
