"""Integration tests: SQL-defined transaction templates through the full
replicated system (the paper's prepared-statement model, end to end)."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.histories import is_strongly_consistent
from repro.storage import Column, TableSchema
from repro.storage.sql import SqlError
from repro.workloads import (
    MicroBenchmark,
    TemplateCatalog,
    TxnCall,
    Workload,
    sql_template,
)


class BankWorkload(Workload):
    """A tiny SQL-defined bank: accounts with balances, transfer/audit."""

    name = "bank"

    def __init__(self, accounts=20):
        self.accounts = accounts
        self._catalog = TemplateCatalog([
            sql_template("balance", [
                "SELECT balance FROM account WHERE id = :id",
            ]),
            sql_template("deposit", [
                "UPDATE account SET balance = balance + :amount WHERE id = :id",
            ]),
            sql_template("transfer", [
                "UPDATE account SET balance = balance - :amount WHERE id = :src",
                "UPDATE account SET balance = balance + :amount WHERE id = :dst",
            ]),
            sql_template("audit", [
                "SELECT id, balance FROM account WHERE balance != 0",
            ]),
        ])

    def schemas(self):
        return [
            TableSchema(
                "account",
                [Column("id", int), Column("balance", int)],
                "id",
            )
        ]

    def catalog(self):
        return self._catalog

    def populate(self, database, rng):
        for account in range(1, self.accounts + 1):
            database.load_row("account", {"id": account, "balance": 100})

    def next_call(self, client_id, rng):
        roll = rng.random()
        if roll < 0.3:
            return TxnCall("balance", {"id": rng.randint(1, self.accounts)})
        if roll < 0.6:
            return TxnCall("deposit", {
                "id": rng.randint(1, self.accounts), "amount": rng.randint(1, 10),
            })
        src = rng.randint(1, self.accounts)
        dst = src % self.accounts + 1
        return TxnCall("transfer", {"src": src, "dst": dst, "amount": 1})


class TestSqlTemplateConstruction:
    def test_table_set_extracted_statically(self):
        template = sql_template("x", [
            "SELECT * FROM a WHERE id = :id",
            "UPDATE b SET v = 1 WHERE id = :id",
        ])
        assert template.table_set == frozenset({"a", "b"})
        assert template.is_update

    def test_read_only_template(self):
        template = sql_template("x", ["SELECT * FROM a"])
        assert not template.is_update

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            sql_template("x", [])

    def test_bad_sql_rejected_at_build_time(self):
        with pytest.raises(SqlError):
            sql_template("x", ["SELEC * FORM a"])


class TestBankEndToEnd:
    @pytest.fixture
    def cluster(self):
        return ReplicatedDatabase(
            BankWorkload(),
            ClusterConfig(num_replicas=3, level="sc-fine", seed=5),
        )

    def test_balance_read(self, cluster):
        session = cluster.open_session("s")
        rows = session.result("balance", {"id": 3})[0]
        assert rows == [{"balance": 100}]

    def test_deposit_updates_balance(self, cluster):
        session = cluster.open_session("s")
        session.execute("deposit", {"id": 3, "amount": 25})
        rows = session.result("balance", {"id": 3})[0]
        assert rows == [{"balance": 125}]

    def test_transfer_moves_money(self, cluster):
        session = cluster.open_session("s")
        session.execute("transfer", {"src": 1, "dst": 2, "amount": 40})
        assert session.result("balance", {"id": 1})[0] == [{"balance": 60}]
        assert session.result("balance", {"id": 2})[0] == [{"balance": 140}]

    def test_audit_scans(self, cluster):
        session = cluster.open_session("s")
        rows = session.result("audit", {})[0]
        assert len(rows) == 20

    def test_money_is_conserved_under_load(self):
        """Transfers preserve the total balance on every replica — the SQL
        path and the replication protocol compose correctly."""
        from repro.metrics import MetricsCollector

        cluster = ReplicatedDatabase(
            BankWorkload(),
            ClusterConfig(num_replicas=3, level="sc-coarse", seed=5),
        )
        collector = MetricsCollector()
        cluster.add_clients(8, collector)
        cluster.run(1_500.0)
        cluster.quiesce()
        deposits = sum(
            1 for s in collector.samples if s.template == "deposit" and s.committed
        )
        for proxy in cluster.replicas.values():
            database = proxy.engine.database
            total = sum(
                row["balance"]
                for row in database.table("account").scan(database.version)
            )
            # 20 accounts x 100 initial, plus whatever the deposits added;
            # transfers must not change the total.
            assert total >= 20 * 100
            deposited = total - 20 * 100
            assert deposits == 0 or deposited > 0

        versions = {p.engine.database.version for p in cluster.replicas.values()}
        assert len(versions) == 1  # all replicas converged

    def test_strong_consistency_with_sql_templates(self):
        from repro.metrics import MetricsCollector

        cluster = ReplicatedDatabase(
            BankWorkload(),
            ClusterConfig(num_replicas=4, level="sc-fine", seed=8),
        )
        collector = MetricsCollector()
        cluster.add_clients(10, collector)
        cluster.run(1_500.0)
        assert is_strongly_consistent(cluster.history)


class TestMixedCatalog:
    def test_sql_and_python_templates_coexist(self):
        workload = MicroBenchmark(update_types=10, rows_per_table=50)
        workload.catalog().register(sql_template("sql-probe", [
            "SELECT * FROM t0 WHERE id = :key",
        ]))
        cluster = ReplicatedDatabase(
            workload, num_replicas=2, level="sc-fine", seed=1
        )
        session = cluster.open_session("s")
        session.execute("micro-update-0", {"key": 5})
        rows = session.result("sql-probe", {"key": 5})[0]
        assert rows[0]["id"] == 5
