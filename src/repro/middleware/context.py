"""Transaction execution context — the API transaction templates run against.

A workload's transaction template is a plain Python function
``body(ctx, params)``; ``ctx`` is a :class:`TxnContext` bound to one
transaction on one replica.  The context:

* executes reads/writes against the replica's storage engine immediately
  (logically instantaneous; snapshot isolation makes the results independent
  of the wall-clock interleaving);
* tallies a **service-time cost per statement**, which the proxy then charges
  against the replica CPU — that queueing is the *queries* stage;
* performs the paper's statement-side **early certification**: the row each
  update statement buffers is checked against the pending (received but not
  yet applied) refresh writesets, and against a committed write past the
  transaction's snapshot; a conflict aborts the transaction on the spot
  rather than wasting a certification round trip (Section IV's
  hidden-deadlock prevention).  One row per statement covers the whole
  partial writeset: a body runs at a single virtual instant, so the rows
  earlier statements buffered were checked against this same state.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, TYPE_CHECKING

from ..storage.errors import TransactionAborted
from ..storage.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .proxy import ReplicaProxy

__all__ = ["TxnContext"]


class TxnContext:
    """Statement-level API bound to one active transaction."""

    def __init__(self, proxy: "ReplicaProxy", txn: Transaction):
        self._proxy = proxy
        self._txn = txn
        self.statement_costs: list[float] = []
        self.read_statement_count = 0
        self.write_statement_count = 0

    # -- introspection ------------------------------------------------------
    @property
    def txn(self) -> Transaction:
        """The underlying storage transaction."""
        return self._txn

    @property
    def snapshot_version(self) -> int:
        """The snapshot this transaction reads from."""
        return self._txn.snapshot_version

    @property
    def replica_name(self) -> str:
        """Name of the replica executing this transaction."""
        return self._proxy.name

    def schema(self, table: str):
        """The schema of ``table`` (used by the SQL executor to pick an
        access path)."""
        return self._proxy.engine.database.table(table).schema

    def execute_sql(self, statement, params: Optional[Mapping[str, Any]] = None):
        """Execute one (pre-parsed or textual) SQL statement in this
        transaction; see :func:`repro.storage.sql.execute`."""
        from ..storage import sql as _sql

        return _sql.execute(self, statement, params)

    # -- read statements ---------------------------------------------------
    def read(self, table: str, key: Any, cost_ms: Optional[float] = None):
        """Point read by primary key; returns the row mapping or None."""
        self._charge_read(cost_ms)
        return self._proxy.engine.read(self._txn, table, key)

    def read_required(self, table: str, key: Any, cost_ms: Optional[float] = None):
        """Point read that raises when the row is not visible."""
        self._charge_read(cost_ms)
        return self._proxy.engine.read_required(self._txn, table, key)

    def scan(
        self,
        table: str,
        predicate: Optional[Callable[[Mapping[str, Any]], bool]] = None,
        limit: Optional[int] = None,
        cost_ms: Optional[float] = None,
    ) -> list:
        """Filtered scan; ``cost_ms`` should reflect the query's weight."""
        self._charge_read(cost_ms)
        return self._proxy.engine.scan(self._txn, table, predicate, limit)

    def lookup(self, table: str, column: str, value: Any, cost_ms: Optional[float] = None) -> list:
        """Secondary-index lookup returning matching primary keys."""
        self._charge_read(cost_ms)
        return self._proxy.engine.lookup(self._txn, table, column, value)

    # -- update statements ----------------------------------------------------
    def insert(self, table: str, values: Mapping[str, Any], cost_ms: Optional[float] = None) -> None:
        """Insert a full row."""
        self._charge_write(cost_ms)
        key = self._proxy.engine.insert(self._txn, table, values)
        self._early_certify(table, key)

    def update(
        self, table: str, key: Any, changes: Mapping[str, Any], cost_ms: Optional[float] = None
    ) -> None:
        """Update columns of an existing row."""
        self._charge_write(cost_ms)
        self._proxy.engine.update(self._txn, table, key, changes)
        self._early_certify(table, key)

    def delete(self, table: str, key: Any, cost_ms: Optional[float] = None) -> None:
        """Delete an existing row."""
        self._charge_write(cost_ms)
        self._proxy.engine.delete(self._txn, table, key)
        self._early_certify(table, key)

    # -- internals ------------------------------------------------------------
    def _charge_read(self, cost_ms: Optional[float]) -> None:
        self.read_statement_count += 1
        self.statement_costs.append(self._proxy.perf.read_statement(cost_ms))

    def _charge_write(self, cost_ms: Optional[float]) -> None:
        self.write_statement_count += 1
        self.statement_costs.append(self._proxy.perf.write_statement(cost_ms))

    def _early_certify(self, table: str, key: Any) -> None:
        """Abort now if the row this statement just buffered conflicts with
        a pending refresh writeset or a newer committed write."""
        reason = self._proxy.early_certification_conflict(self._txn, table, key)
        if reason is not None:
            raise TransactionAborted(reason)
