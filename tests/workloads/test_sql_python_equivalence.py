"""Metamorphic test: SQL-defined and Python-defined templates are
semantically equivalent.

The same bank workload is defined twice — once as prepared SQL, once as
imperative Python against the context API.  Replaying identical randomized
call sequences through the full replicated system must produce identical
final database states.
"""

from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, ReplicatedDatabase
from repro.storage import Column, TableSchema
from repro.workloads import TemplateCatalog, TransactionTemplate, TxnCall, Workload, sql_template

ACCOUNTS = 12


class BankBase(Workload):
    name = "bank-base"

    def schemas(self):
        return [
            TableSchema("account", [Column("id", int), Column("balance", int)], "id")
        ]

    def populate(self, database, rng):
        for account in range(1, ACCOUNTS + 1):
            database.load_row("account", {"id": account, "balance": 100})

    def next_call(self, client_id, rng):  # pragma: no cover - driven manually
        raise NotImplementedError


class SqlBank(BankBase):
    def __init__(self):
        self._catalog = TemplateCatalog([
            sql_template("deposit", [
                "UPDATE account SET balance = balance + :amount WHERE id = :id",
            ]),
            sql_template("transfer", [
                "UPDATE account SET balance = balance - :amount WHERE id = :src",
                "UPDATE account SET balance = balance + :amount WHERE id = :dst",
            ]),
        ])

    def catalog(self):
        return self._catalog


class PythonBank(BankBase):
    def __init__(self):
        def deposit(ctx, params):
            row = ctx.read_required("account", params["id"])
            ctx.update("account", params["id"], {"balance": row["balance"] + params["amount"]})

        def transfer(ctx, params):
            src = ctx.read_required("account", params["src"])
            ctx.update("account", params["src"], {"balance": src["balance"] - params["amount"]})
            dst = ctx.read_required("account", params["dst"])
            ctx.update("account", params["dst"], {"balance": dst["balance"] + params["amount"]})

        self._catalog = TemplateCatalog([
            TransactionTemplate("deposit", {"account"}, deposit, is_update=True),
            TransactionTemplate("transfer", {"account"}, transfer, is_update=True),
        ])

    def catalog(self):
        return self._catalog


def final_state(workload, calls):
    cluster = ReplicatedDatabase(
        workload,
        ClusterConfig(num_replicas=1, level="sc-coarse", seed=3),
    )
    session = cluster.open_session("driver")
    for call in calls:
        session.execute(call.template, call.params)
    database = cluster.replica(0).engine.database
    return {
        row["id"]: row["balance"]
        for row in database.table("account").scan(database.version)
    }


calls_strategy = st.lists(
    st.one_of(
        st.builds(
            lambda account, amount: TxnCall("deposit", {"id": account, "amount": amount}),
            st.integers(1, ACCOUNTS), st.integers(1, 50),
        ),
        st.builds(
            lambda src, dst, amount: TxnCall(
                "transfer", {"src": src, "dst": dst, "amount": amount}
            ),
            st.integers(1, ACCOUNTS), st.integers(1, ACCOUNTS), st.integers(1, 30),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestEquivalence:
    @given(calls_strategy)
    @settings(max_examples=15, deadline=None)
    def test_sql_and_python_banks_agree(self, calls):
        assert final_state(SqlBank(), calls) == final_state(PythonBank(), calls)

    def test_table_sets_agree(self):
        sql_tables = {t.name: t.table_set for t in SqlBank().catalog()}
        py_tables = {t.name: t.table_set for t in PythonBank().catalog()}
        assert sql_tables == py_tables
