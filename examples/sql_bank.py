"""Prepared SQL statements with static table-set extraction.

The fine-grained technique assumes "a predefined set of transactions ...
each consists of a sequence of prepared statements" whose table-set can be
extracted statically (Section III-C).  This example defines a small bank
entirely in SQL, shows the extracted table-sets the load balancer's catalog
holds, and demonstrates that a ledger-only transaction never waits for
account-table updates under SC-FINE.

Run:  python examples/sql_bank.py
"""

from repro import ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.storage import Column, TableSchema
from repro.workloads import TemplateCatalog, TxnCall, Workload, sql_template


class SqlBank(Workload):
    """Accounts plus an append-only audit ledger, defined in SQL."""

    name = "sql-bank"

    def __init__(self, accounts=50):
        self.accounts = accounts
        self._ledger_seq = 0
        self._catalog = TemplateCatalog([
            sql_template("open-summary", [
                "SELECT id, balance FROM account WHERE id = :id",
            ]),
            sql_template("deposit", [
                "UPDATE account SET balance = balance + :amount WHERE id = :id",
            ]),
            sql_template("transfer", [
                "UPDATE account SET balance = balance - :amount WHERE id = :src",
                "UPDATE account SET balance = balance + :amount WHERE id = :dst",
            ]),
            sql_template("log-audit", [
                "INSERT INTO ledger (id, note) VALUES (:id, :note)",
            ]),
            sql_template("read-ledger", [
                "SELECT * FROM ledger WHERE id = :id",
            ]),
        ])

    def schemas(self):
        return [
            TableSchema("account", [Column("id", int), Column("balance", int)], "id"),
            TableSchema("ledger", [Column("id", int), Column("note", str)], "id"),
        ]

    def catalog(self):
        return self._catalog

    def populate(self, database, rng):
        for account in range(1, self.accounts + 1):
            database.load_row("account", {"id": account, "balance": 1000})

    def next_call(self, client_id, rng):
        if rng.random() < 0.7:
            return TxnCall("deposit", {
                "id": rng.randint(1, self.accounts),
                "amount": rng.randint(1, 20),
            })
        return TxnCall("open-summary", {"id": rng.randint(1, self.accounts)})


def main():
    workload = SqlBank()
    cluster = ReplicatedDatabase(
        workload, num_replicas=4, level="sc-fine", seed=21
    )

    print("statically extracted table-sets (what the balancer's catalog holds):")
    for template in workload.catalog():
        kind = "update" if template.is_update else "read  "
        print(f"  {template.name:14s} {kind}  tables={sorted(template.table_set)}")

    # Generate account-table churn in the background.
    cluster.add_clients(10, MetricsCollector())
    cluster.run(500.0)

    teller = cluster.open_session("teller")
    auditor = cluster.open_session("auditor")

    # Retry on certification conflicts: the background depositors may race
    # us on accounts 1 and 2 (first-committer-wins).
    for attempt in range(10):
        response = teller.try_execute("transfer", {"src": 1, "dst": 2, "amount": 250})
        if response.committed:
            break
        print(f"transfer aborted ({response.abort_reason}); retrying")
    else:
        raise SystemExit("transfer kept conflicting")
    balances = [
        teller.result("open-summary", {"id": account})[0][0]["balance"]
        for account in (1, 2)
    ]
    print(f"\nafter transfer: account-1={balances[0]}, account-2={balances[1]}")

    # The auditor writes to the ledger only: under SC-FINE its transactions
    # wait for the LEDGER's version, not for the busy account table.
    response = auditor.execute("log-audit", {"id": 1, "note": "quarterly audit"})
    print(f"ledger append committed at v{response.commit_version}; "
          f"start delay (version stage) = {response.stages.version:.3f} ms")
    rows = auditor.result("read-ledger", {"id": 1})[0]
    print(f"ledger row: {rows[0]}")
    read_back = auditor.last_response
    print(f"ledger read start delay = {read_back.stages.version:.3f} ms "
          "(table-set {ledger} ignores the account churn)")

    v_system = cluster.load_balancer.v_system
    v_ledger = cluster.load_balancer.tracker.table_version("ledger")
    v_account = cluster.load_balancer.tracker.table_version("account")
    print(f"\nbalancer versions: V_system={v_system}, "
          f"V_account={v_account}, V_ledger={v_ledger}")
    assert v_ledger < v_account  # the account table is the busy one
    print("OK")


if __name__ == "__main__":
    main()
