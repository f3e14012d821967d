"""Tests for the SQL layer: parsing, table-set extraction, execution."""

import pytest

from repro.storage.sql import (
    Comparison,
    Delete,
    Insert,
    Literal,
    Param,
    Select,
    SqlError,
    Update,
    parse,
    table_set,
)


class TestParseSelect:
    def test_select_star(self):
        statement = parse("SELECT * FROM item")
        assert isinstance(statement, Select)
        assert statement.table == "item"
        assert statement.columns is None
        assert statement.where == ()
        assert statement.limit is None

    def test_select_columns(self):
        statement = parse("SELECT id, title FROM item")
        assert statement.columns == ("id", "title")

    def test_select_where_equality_param(self):
        statement = parse("SELECT * FROM item WHERE id = :item_id")
        assert statement.where == (Comparison("id", "=", Param("item_id")),)

    def test_select_where_and(self):
        statement = parse(
            "SELECT * FROM item WHERE subject = 'ARTS' AND price <= 20.5"
        )
        assert statement.where == (
            Comparison("subject", "=", Literal("ARTS")),
            Comparison("price", "<=", Literal(20.5)),
        )

    def test_select_limit(self):
        statement = parse("SELECT * FROM item LIMIT 5")
        assert statement.limit == 5

    def test_all_comparison_ops(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            statement = parse(f"SELECT * FROM t WHERE v {op} 1")
            assert statement.where[0].op == op

    def test_diamond_not_equals(self):
        statement = parse("SELECT * FROM t WHERE v <> 1")
        assert statement.where[0].op == "!="


class TestParseOthers:
    def test_insert(self):
        statement = parse(
            "INSERT INTO orders (id, total) VALUES (:order_id, 0.0)"
        )
        assert isinstance(statement, Insert)
        assert statement.columns == ("id", "total")
        assert statement.values == (Param("order_id"), Literal(0.0))

    def test_insert_arity_mismatch_rejected(self):
        with pytest.raises(SqlError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update_plain_assignment(self):
        statement = parse("UPDATE item SET price = :p WHERE id = :id")
        assert isinstance(statement, Update)
        assignment = statement.assignments[0]
        assert assignment.column == "price"
        assert assignment.base is None

    def test_update_increment(self):
        statement = parse("UPDATE item SET stock = stock - :qty WHERE id = :id")
        assignment = statement.assignments[0]
        assert assignment.base.name == "stock"
        assert assignment.sign == -1

    def test_unspaced_increment(self):
        # `v-1` after a column is an increment, not the column and a
        # negative literal.
        for text, sign in (("v-1", -1), ("v+1", 1), ("v - -1", -1)):
            assignment = parse(f"UPDATE t SET v = {text}").assignments[0]
            assert assignment.base.name == "v" and assignment.sign == sign
        assert parse("UPDATE t SET v = v - -1").assignments[0].value == Literal(-1)

    def test_negative_literal_where_a_value_starts(self):
        assert parse("SELECT * FROM t WHERE v > -1").where[0].value == Literal(-1)
        assert parse("SELECT * FROM t WHERE v>-1.5").where[0].value == Literal(-1.5)
        assert parse("UPDATE t SET v = -3").assignments[0].value == Literal(-3)

    def test_update_multiple_assignments(self):
        statement = parse("UPDATE t SET a = 1, b = b + 2")
        assert len(statement.assignments) == 2

    def test_delete(self):
        statement = parse("DELETE FROM cart_line WHERE cart_id = :cid")
        assert isinstance(statement, Delete)
        assert statement.table == "cart_line"

    def test_literals(self):
        statement = parse(
            "INSERT INTO t (a, b, c, d, e) VALUES (1, -2.5, 'it''s', NULL, TRUE)"
        )
        values = [v.value for v in statement.values]
        assert values == [1, -2.5, "it's", None, True]


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "DROP TABLE t",
            "SELECT FROM t",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT -1",
            "SELECT * FROM t LIMIT 1.5",
            "UPDATE t SET",
            "SELECT * FROM t extra garbage ;;;",
            "INSERT INTO t VALUES (1)",
            "SELECT * FROM t WHERE v = -:p",
            "UPDATE t SET v = v-",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SqlError):
            parse(bad)

    def test_keywords_case_insensitive(self):
        statement = parse("select * from t where id = 1")
        assert isinstance(statement, Select)


class TestTableSet:
    def test_static_extraction(self):
        statements = [
            "SELECT * FROM customer WHERE id = :cid",
            "UPDATE item SET stock = stock - 1 WHERE id = :iid",
            "INSERT INTO orders (id) VALUES (:oid)",
            "DELETE FROM cart_line WHERE cart_id = :cid",
        ]
        assert table_set(statements) == frozenset(
            {"customer", "item", "orders", "cart_line"}
        )

    def test_table_set_of_parsed_statements(self):
        parsed = [parse("SELECT * FROM a"), parse("DELETE FROM b")]
        assert table_set(parsed) == frozenset({"a", "b"})


class FakeCtx:
    """Minimal context over a plain dict store for executor tests."""

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
        key = values[self._schema.primary_key]
        if key in self.rows:
            raise KeyError(key)
        self.rows[key] = dict(values)

    def update(self, table, key, changes):
        self.rows[key].update(changes)

    def delete(self, table, key):
        del self.rows[key]


@pytest.fixture
def ctx():
    from repro.storage import Column, TableSchema
    from repro.storage.sql import execute  # noqa: F401 - fixture users import

    schema = TableSchema(
        "item",
        [Column("id", int), Column("subject", str), Column("price", float),
         Column("stock", int)],
        "id",
        indexes=["subject"],
    )
    rows = [
        {"id": 1, "subject": "ARTS", "price": 10.0, "stock": 5},
        {"id": 2, "subject": "ARTS", "price": 25.0, "stock": 3},
        {"id": 3, "subject": "SPORTS", "price": 8.0, "stock": 9},
    ]
    return FakeCtx(schema, rows)


class TestExecute:
    def test_select_by_primary_key(self, ctx):
        from repro.storage.sql import execute

        rows = execute(ctx, "SELECT * FROM item WHERE id = :id", {"id": 2})
        assert len(rows) == 1 and rows[0]["price"] == 25.0

    def test_select_by_index(self, ctx):
        from repro.storage.sql import execute

        rows = execute(ctx, "SELECT id FROM item WHERE subject = 'ARTS'")
        assert [r["id"] for r in rows] == [1, 2]
        assert list(rows[0]) == ["id"]  # projection applied

    def test_select_with_residual_filter(self, ctx):
        from repro.storage.sql import execute

        rows = execute(
            ctx, "SELECT * FROM item WHERE subject = 'ARTS' AND price > 15"
        )
        assert [r["id"] for r in rows] == [2]

    def test_select_scan_with_limit(self, ctx):
        from repro.storage.sql import execute

        rows = execute(ctx, "SELECT * FROM item WHERE price < 100 LIMIT 2")
        assert len(rows) == 2

    def test_select_missing_param_rejected(self, ctx):
        from repro.storage.sql import execute

        with pytest.raises(SqlError):
            execute(ctx, "SELECT * FROM item WHERE id = :nope", {})

    def test_insert(self, ctx):
        from repro.storage.sql import execute

        count = execute(
            ctx,
            "INSERT INTO item (id, subject, price, stock) "
            "VALUES (:id, 'HISTORY', 5.0, 1)",
            {"id": 9},
        )
        assert count == 1
        assert ctx.rows[9]["subject"] == "HISTORY"

    def test_update_increment(self, ctx):
        from repro.storage.sql import execute

        count = execute(
            ctx, "UPDATE item SET stock = stock - :q WHERE id = 1", {"q": 2}
        )
        assert count == 1
        assert ctx.rows[1]["stock"] == 3

    def test_update_by_index_touches_all_matches(self, ctx):
        from repro.storage.sql import execute

        count = execute(ctx, "UPDATE item SET price = 1.0 WHERE subject = 'ARTS'")
        assert count == 2
        assert ctx.rows[1]["price"] == 1.0 and ctx.rows[2]["price"] == 1.0

    def test_update_unspaced_decrement(self, ctx):
        from repro.storage.sql import execute

        assert execute(ctx, "UPDATE item SET stock = stock-1 WHERE id = 1") == 1
        assert ctx.rows[1]["stock"] == 4

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM item WHERE vv = 10",
            "SELECT * FROM item WHERE item.id = :id",
            "SELECT id, vv FROM item",
            "SELECT id FROM item WHERE subject = 'ARTS' AND vv > 1",
            "UPDATE item SET stock = 1 WHERE vv = 10",
            "DELETE FROM item WHERE vv = 10",
        ],
    )
    def test_unknown_column_rejected(self, ctx, text):
        from repro.storage.sql import execute

        with pytest.raises(SqlError, match="no column"):
            execute(ctx, text, {"id": 1})

    def test_delete(self, ctx):
        from repro.storage.sql import execute

        count = execute(ctx, "DELETE FROM item WHERE id = 3")
        assert count == 1
        assert 3 not in ctx.rows

    def test_delete_no_match(self, ctx):
        from repro.storage.sql import execute

        assert execute(ctx, "DELETE FROM item WHERE id = 404") == 0
