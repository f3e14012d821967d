"""Tests for the transaction context's statement accounting."""

import pytest

from repro.middleware.context import TxnContext

from .conftest import Harness


@pytest.fixture
def ctx(env):
    harness = Harness(env)
    proxy = harness.proxy(0)
    proxy.engine.database.load_row("t", {"id": 1, "v": 10})
    proxy.engine.database.load_row("t", {"id": 2, "v": 20})
    txn = proxy.engine.begin()
    return TxnContext(proxy, txn)


class TestAccounting:
    def test_reads_counted_and_costed(self, ctx):
        ctx.read("t", 1)
        ctx.read("t", 2)
        assert ctx.read_statement_count == 2
        assert ctx.write_statement_count == 0
        assert len(ctx.statement_costs) == 2
        assert all(cost > 0 for cost in ctx.statement_costs)

    def test_writes_counted(self, ctx):
        ctx.update("t", 1, {"v": 11})
        ctx.insert("t", {"id": 3, "v": 30})
        ctx.delete("t", 2)
        assert ctx.write_statement_count == 3
        assert len(ctx.statement_costs) == 3

    def test_cost_override_scales(self, ctx):
        ctx.read("t", 1)
        baseline = ctx.statement_costs[-1]
        ctx.scan("t", cost_ms=50.0)
        assert ctx.statement_costs[-1] > baseline * 5

    def test_scan_and_lookup_are_read_statements(self, ctx):
        ctx.scan("t")
        ctx.lookup("t", "v", 10)
        assert ctx.read_statement_count == 2

    def test_snapshot_and_replica_exposed(self, ctx):
        assert ctx.snapshot_version == 0
        assert ctx.replica_name == "replica-0"
        assert ctx.schema("t").primary_key == "id"

    def test_read_required(self, ctx):
        from repro.storage import UnknownRowError

        assert ctx.read_required("t", 1)["v"] == 10
        with pytest.raises(UnknownRowError):
            ctx.read_required("t", 404)

    def test_execute_sql_through_context(self, ctx):
        from repro.storage import sql

        rows = sql.execute(ctx, "SELECT v FROM t WHERE id = :id", {"id": 1})
        assert rows == [{"v": 10}]
        assert ctx.read_statement_count == 1
        count = sql.execute(ctx, "UPDATE t SET v = v + 5 WHERE id = :id", {"id": 1})
        assert count == 1
        assert ctx.read("t", 1)["v"] == 15
