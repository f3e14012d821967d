"""Transaction templates and workload definitions.

The paper's fine-grained technique relies on automated environments where
"a predefined set of transactions is used; each transaction consists of a
sequence of prepared statements" (Section III-C).  A
:class:`TransactionTemplate` is exactly that: a named body of prepared
statements over a declared **table-set** — the statically-known superset of
tables the transaction can access.

A :class:`Workload` bundles a schema, a catalog of templates, initial data
loading, and a generator that picks the next transaction for a client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..middleware.perfmodel import PerformanceParams
from ..sim.rng import Rng
from ..storage.database import Database
from ..storage.schema import TableSchema

__all__ = [
    "TransactionTemplate",
    "TemplateCatalog",
    "Workload",
    "TxnCall",
    "sql_template",
]


@dataclass(frozen=True)
class TransactionTemplate:
    """A named transaction consisting of prepared statements.

    ``body(ctx, params)`` executes the statements against a
    :class:`~repro.middleware.context.TxnContext`.  ``table_set`` is the
    statically extracted set of tables those statements can access; the load
    balancer's SC-FINE policy uses it (and only it) to compute the start
    version.  ``is_update`` declares whether the template *may* write — used
    by workload mix accounting, not for correctness (the proxy decides
    read-only vs update from the actual writeset).
    """

    name: str
    table_set: frozenset[str]
    body: Callable[[Any, Mapping[str, Any]], Any]
    is_update: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("template name must be non-empty")
        object.__setattr__(self, "table_set", frozenset(self.table_set))
        if not self.table_set:
            raise ValueError(f"template {self.name!r} declares an empty table-set")


class TemplateCatalog:
    """The transaction-identifier → template dictionary.

    The paper stores table-set information in the database and has the load
    balancer fetch it once; this catalog is that fetched dictionary.
    """

    def __init__(self, templates: Iterable[TransactionTemplate] = ()):
        self._templates: dict[str, TransactionTemplate] = {}
        #: :attr:`names`, cached until the next :meth:`register`
        self._names: tuple[str, ...] = ()
        for template in templates:
            self.register(template)

    def register(self, template: TransactionTemplate) -> None:
        """Add a template; names must be unique."""
        if template.name in self._templates:
            raise ValueError(f"duplicate template {template.name!r}")
        self._templates[template.name] = template
        self._names = tuple(self._templates)

    def get(self, name: str, default=None) -> Optional[TransactionTemplate]:
        return self._templates.get(name, default)

    def __getitem__(self, name: str) -> TransactionTemplate:
        return self._templates[name]

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def __iter__(self):
        return iter(self._templates.values())

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def table_set(self, name: str) -> frozenset[str]:
        """The table-set for a transaction identifier."""
        return self._templates[name].table_set


def sql_template(name: str, statements: Sequence[str]) -> TransactionTemplate:
    """Build a transaction template from prepared SQL statements.

    This is the paper's automated-environment model verbatim: the
    statements are parsed once, the **table-set is extracted statically**
    from the SQL text (Section III-C), and whether the template is an
    update follows from the statement verbs.  The body executes the parsed
    statements in order with the call's parameters bound to the ``:name``
    placeholders, returning the list of per-statement results.
    """
    from ..storage import sql as _sql

    # Parse through the process-wide cache: every client running the same
    # template shares one parsed statement per text.
    parsed = tuple(_sql.plan_cache().get(text) for text in statements)
    if not parsed:
        raise ValueError(f"template {name!r} has no statements")
    tables = _sql.table_set(parsed)
    is_update = any(statement.is_update for statement in parsed)

    def body(ctx, params):
        return [_sql.execute(ctx, statement, params) for statement in parsed]

    body.__name__ = f"sql_{name}"
    return TransactionTemplate(
        name=name, table_set=tables, body=body, is_update=is_update
    )


@dataclass(slots=True)
class TxnCall:
    """One transaction invocation a client should issue: which template,
    with which parameters (slotted like
    :class:`~repro.metrics.stages.StageTimings`: one per transaction)."""

    template: str
    params: Mapping[str, Any]


class Workload:
    """Base class for benchmark workloads.

    Subclasses define the schema, the template catalog, the initial
    database population and the per-client transaction mix.
    """

    #: human-readable workload name
    name: str = "workload"

    def schemas(self) -> Sequence[TableSchema]:
        """The table schemas this workload requires."""
        raise NotImplementedError

    def catalog(self) -> TemplateCatalog:
        """The workload's transaction templates."""
        raise NotImplementedError

    def populate(self, database: Database, rng: Rng) -> None:
        """Load the initial data set (version 0) with ``database.load_row``.

        Called **once per cluster**: the system is fully replicated, so the
        cluster populates one seed database and every replica starts as a
        clone of it over the same row versions (``Database.clone``).  The
        method must therefore be a pure function of ``(database, rng)`` — no
        state kept on the workload, no commits (the database must stay at
        version 0) — and the row images it loads are shared by all replicas,
        as is every image committed afterwards: rows returned by reads are
        read-only, transactions change them through writesets only.
        """
        raise NotImplementedError

    def next_call(self, client_id: str, rng: Rng) -> TxnCall:
        """Pick the next transaction for ``client_id``."""
        raise NotImplementedError

    def think_time_ms(self, client_id: str, rng: Rng) -> float:
        """Client think time before the next request (0 = back-to-back)."""
        return 0.0

    def performance_params(self) -> PerformanceParams:
        """The cluster performance model this workload is calibrated for."""
        return PerformanceParams()
