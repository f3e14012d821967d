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
    TransactionTemplate,
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


class _Recording:
    """A transaction context that logs each statement call it passes on."""

    def __init__(self, ctx, calls):
        self._ctx = ctx
        self._calls = calls

    def schema(self, table):
        return self._ctx.schema(table)

    def __getattr__(self, name):
        method = getattr(self._ctx, name)

        def call(*args, **kwargs):
            self._calls.append((name, *(a for a in args if not callable(a)), *kwargs))
            return method(*args, **kwargs)

        return call


class BranchBank(Workload):
    """Accounts grouped by an indexed branch, with every template written
    twice: as prepared SQL, and as a hand-written body making the
    ``ctx.read``/``lookup``/``scan``/``update`` calls the executor should
    make for it (a point read, an index lookup and a filtered scan)."""

    name = "branch-bank"
    ACCOUNTS, BRANCHES = 24, 4

    def __init__(self, sql: bool):
        def balance(ctx, params):
            row = ctx.read("account", params["id"])
            return [[{"balance": row["balance"]}] if row is not None else []]

        def deposit(ctx, params):
            row = ctx.read("account", params["id"])
            ctx.update("account", params["id"],
                       {"balance": row["balance"] + params["amount"]})
            return [1]

        def branch(ctx, params):
            rows = [ctx.read("account", key)
                    for key in ctx.lookup("account", "branch", params["branch"])]
            return [[{"id": row["id"], "balance": row["balance"]} for row in rows]]

        def poor(ctx, params):
            rows = ctx.scan("account", predicate=lambda row: row["balance"] < params["floor"])
            return [[{"id": row["id"]} for row in rows]]

        sql_templates = [
            sql_template("balance", ["SELECT balance FROM account WHERE id = :id"]),
            sql_template("deposit", [
                "UPDATE account SET balance = balance + :amount WHERE id = :id",
            ]),
            sql_template("branch", [
                "SELECT id, balance FROM account WHERE branch = :branch",
            ]),
            sql_template("poor", ["SELECT id FROM account WHERE balance < :floor"]),
        ]
        bodies = {"balance": balance, "deposit": deposit, "branch": branch, "poor": poor}
        #: every statement call the bodies make, in the order they make them
        self.calls = []

        def recorded(body):
            return lambda ctx, params: body(_Recording(ctx, self.calls), params)

        self._catalog = TemplateCatalog([
            TransactionTemplate(
                t.name, t.table_set, recorded(t.body if sql else bodies[t.name]), t.is_update
            )
            for t in sql_templates
        ])

    def schemas(self):
        return [TableSchema(
            "account",
            [Column("id", int), Column("branch", int), Column("balance", int)],
            "id",
            indexes=["branch"],
        )]

    def catalog(self):
        return self._catalog

    def populate(self, database, rng):
        for account in range(self.ACCOUNTS):
            database.load_row("account", {
                "id": account, "branch": account % self.BRANCHES, "balance": 100,
            })

    def next_call(self, client_id, rng):
        roll = rng.random()
        if roll < 0.3:
            return TxnCall("balance", {"id": rng.randint(0, self.ACCOUNTS - 1)})
        if roll < 0.6:
            return TxnCall("deposit", {
                "id": rng.randint(0, self.ACCOUNTS - 1), "amount": rng.randint(1, 10),
            })
        if roll < 0.9:
            return TxnCall("branch", {"branch": rng.randint(0, self.BRANCHES - 1)})
        return TxnCall("poor", {"floor": rng.randint(100, 130)})


class TestSqlCostsWhatItsTwinCosts:
    def test_sql_and_hand_written_bodies_run_identically(self):
        """The module's promise: a SQL statement costs exactly what the
        equivalent programmatic template costs, so the two banks produce
        the same run, transaction for transaction."""
        from repro.metrics import MetricsCollector

        def run(sql):
            cluster = ReplicatedDatabase(
                BranchBank(sql), ClusterConfig(num_replicas=3, level="sc-fine", seed=4)
            )
            collector = MetricsCollector(measure_start=0.0, measure_end=1_000.0)
            cluster.add_clients(6, collector)
            cluster.run(1_000.0)
            return (collector.summary(), cluster.commit_version,
                    cluster.env.events_processed, cluster.workload.calls)

        sql_run, python_run = run(sql=True), run(sql=False)
        assert sql_run[0].committed > 100 and sql_run[1] > 50
        assert {call[0] for call in sql_run[3]} == {"read", "lookup", "scan", "update"}
        assert sql_run == python_run


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
