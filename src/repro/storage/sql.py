"""A small SQL layer: prepared statements with static table-set extraction.

The paper's fine-grained technique relies on transactions being "a sequence
of prepared statements, i.e., SQL statements that access a specific set of
tables but different records depending on the statement parameters"
(Section III-C) — the table-set is extracted *statically* from the SQL
text.  This module provides exactly that:

* a tokenizer and recursive-descent parser for the subset the benchmarks
  need::

      SELECT <cols|*> FROM <table> [WHERE <conds>] [LIMIT <n>]
      INSERT INTO <table> (<cols>) VALUES (<values>)
      UPDATE <table> SET col = <expr> [, ...] [WHERE <conds>]
      DELETE FROM <table> [WHERE <conds>]

  with ``AND``-connected comparisons (``= != < <= > >=``), literals
  (integers, floats, ``'strings'``, ``NULL``, ``TRUE``/``FALSE``) and named
  parameters ``:name``; ``SET`` expressions may be ``col + <value>`` /
  ``col - <value>`` for read-modify-write increments;

* :func:`table_set` — the static table-set of a statement list (what the
  load balancer's catalog stores);

* :func:`execute`, which runs a statement against a transaction context
  through a primary-key point read, a secondary-index lookup or a filtered
  scan, chosen from its WHERE clause on each call, so a SQL statement costs
  exactly what the equivalent programmatic template costs.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Union

from .errors import StorageError

__all__ = [
    "SqlError",
    "Literal",
    "Param",
    "ColumnRef",
    "Comparison",
    "Assignment",
    "Select",
    "Insert",
    "Update",
    "Delete",
    "PLAN_CACHE_CAPACITY",
    "PlanCache",
    "parse",
    "table_set",
    "execute",
    "plan_cache",
]


class SqlError(StorageError):
    """Invalid SQL text or execution-time misuse."""


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>\d+\.\d+|\d+)
      | (?P<param>:[A-Za-z_][A-Za-z0-9_]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*+\-])
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "LIMIT", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "AND", "NULL", "TRUE", "FALSE",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'string' | 'number' | 'param' | 'name' | 'keyword' | 'op' | 'punct'
    value: str


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise SqlError(f"cannot tokenize SQL at: {remainder[:30]!r}")
        position = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", value.upper()))
        else:
            tokens.append(_Token(kind, value))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A constant value in the SQL text."""

    value: Any

    def resolve(self, params: Mapping[str, Any]) -> Any:
        return self.value


@dataclass(frozen=True)
class Param:
    """A named parameter ``:name`` bound at execution time."""

    name: str

    def resolve(self, params: Mapping[str, Any]) -> Any:
        try:
            return params[self.name]
        except KeyError:
            raise SqlError(f"missing parameter :{self.name}") from None


Value = Union[Literal, Param]


@dataclass(frozen=True)
class ColumnRef:
    """A bare column reference (used in SET expressions)."""

    name: str


@dataclass(frozen=True)
class Comparison:
    """``column <op> value`` in a WHERE clause."""

    column: str
    op: str  # '=', '!=', '<', '<=', '>', '>='
    value: Value

    def matches(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> bool:
        actual = row.get(self.column)
        expected = self.value.resolve(params)
        if self.op == "=":
            return actual == expected
        if self.op == "!=":
            return actual != expected
        if actual is None or expected is None:
            return False
        if self.op == "<":
            return actual < expected
        if self.op == "<=":
            return actual <= expected
        if self.op == ">":
            return actual > expected
        return actual >= expected


@dataclass(frozen=True)
class Assignment:
    """``col = value`` or ``col = col +/- value`` in a SET clause."""

    column: str
    value: Value
    base: Optional[ColumnRef] = None
    sign: int = 0  # +1 / -1 when base is set

    def compute(self, row: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
        resolved = self.value.resolve(params)
        if self.base is None:
            return resolved
        current = row.get(self.base.name)
        if current is None:
            raise SqlError(f"column {self.base.name!r} is NULL in increment")
        return current + self.sign * resolved


class _Statement:
    """What every statement has: the one table it names (its static
    table-set) and whether it writes."""

    is_update = True

    @property
    def tables(self) -> frozenset[str]:
        return frozenset({self.table})


@dataclass(frozen=True)
class Select(_Statement):
    """``SELECT cols FROM table [WHERE ...] [LIMIT n]``"""

    table: str
    columns: Optional[tuple[str, ...]]  # None = '*'
    where: tuple[Comparison, ...] = ()
    limit: Optional[int] = None

    is_update = False


@dataclass(frozen=True)
class Insert(_Statement):
    """``INSERT INTO table (cols) VALUES (vals)``"""

    table: str
    columns: tuple[str, ...]
    values: tuple[Value, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.values):
            raise SqlError(
                f"INSERT into {self.table!r}: {len(self.columns)} columns "
                f"but {len(self.values)} values"
            )


@dataclass(frozen=True)
class Update(_Statement):
    """``UPDATE table SET ... [WHERE ...]``"""

    table: str
    assignments: tuple[Assignment, ...]
    where: tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class Delete(_Statement):
    """``DELETE FROM table [WHERE ...]``"""

    table: str
    where: tuple[Comparison, ...] = ()


Statement = Union[Select, Insert, Update, Delete]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.text = text
        self.position = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlError(f"unexpected end of SQL: {self.text!r}")
        self.position += 1
        return token

    def _expect(self, kind: str, value: str) -> None:
        """Consume a ``kind`` token (``keyword`` or ``punct``) of ``value``."""
        token = self._next()
        if token.kind != kind or token.value != value:
            shown = value if kind == "keyword" else repr(value)
            raise SqlError(f"expected {shown}, got {token.value!r} in {self.text!r}")

    def _accept(self, kind: str, value: str) -> bool:
        """Consume the next token if it is a ``kind`` token of ``value``."""
        token = self._peek()
        if token is not None and token.kind == kind and token.value == value:
            self.position += 1
            return True
        return False

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise SqlError(f"expected identifier, got {token.value!r} in {self.text!r}")
        return token.value

    # -- grammar -------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self._peek()
        if token is None:
            raise SqlError("empty SQL statement")
        if token.kind != "keyword":
            raise SqlError(f"SQL must start with a verb, got {token.value!r}")
        verbs = {"SELECT": self._select, "INSERT": self._insert,
                 "UPDATE": self._update, "DELETE": self._delete}
        if token.value not in verbs:
            raise SqlError(f"unsupported SQL verb {token.value!r}")
        statement = verbs[token.value]()
        if self._peek() is not None:
            raise SqlError(f"trailing tokens after statement in {self.text!r}")
        return statement

    def _select(self) -> Select:
        self._expect("keyword", "SELECT")
        columns: Optional[tuple[str, ...]]
        if self._accept("punct", "*"):
            columns = None
        else:
            names = [self._expect_name()]
            while self._accept("punct", ","):
                names.append(self._expect_name())
            columns = tuple(names)
        self._expect("keyword", "FROM")
        table = self._expect_name()
        where = self._where_opt()
        limit = None
        if self._accept("keyword", "LIMIT"):
            token = self._next()
            if token.kind != "number" or "." in token.value:
                raise SqlError(f"LIMIT requires an integer, got {token.value!r}")
            limit = int(token.value)
            if limit < 0:
                raise SqlError("LIMIT must be non-negative")
        return Select(table=table, columns=columns, where=where, limit=limit)

    def _insert(self) -> Insert:
        self._expect("keyword", "INSERT")
        self._expect("keyword", "INTO")
        table = self._expect_name()
        self._expect("punct", "(")
        columns = [self._expect_name()]
        while self._accept("punct", ","):
            columns.append(self._expect_name())
        self._expect("punct", ")")
        self._expect("keyword", "VALUES")
        self._expect("punct", "(")
        values = [self._value()]
        while self._accept("punct", ","):
            values.append(self._value())
        self._expect("punct", ")")
        return Insert(table=table, columns=tuple(columns), values=tuple(values))

    def _update(self) -> Update:
        self._expect("keyword", "UPDATE")
        table = self._expect_name()
        self._expect("keyword", "SET")
        assignments = [self._assignment()]
        while self._accept("punct", ","):
            assignments.append(self._assignment())
        where = self._where_opt()
        return Update(table=table, assignments=tuple(assignments), where=where)

    def _delete(self) -> Delete:
        self._expect("keyword", "DELETE")
        self._expect("keyword", "FROM")
        table = self._expect_name()
        return Delete(table=table, where=self._where_opt())

    def _assignment(self) -> Assignment:
        column = self._expect_name()
        token = self._next()
        if token.kind != "op" or token.value != "=":
            raise SqlError(f"expected '=' in assignment, got {token.value!r}")
        # Either a plain value, or `col (+|-) value`.
        peek = self._peek()
        if peek is not None and peek.kind == "name":
            base = ColumnRef(self._expect_name())
            sign_token = self._next()
            if sign_token.kind != "punct" or sign_token.value not in "+-":
                raise SqlError(
                    f"expected '+' or '-' after column in assignment, "
                    f"got {sign_token.value!r}"
                )
            value = self._value()
            return Assignment(
                column=column, value=value, base=base,
                sign=1 if sign_token.value == "+" else -1,
            )
        return Assignment(column=column, value=self._value())

    def _where_opt(self) -> tuple[Comparison, ...]:
        if not self._accept("keyword", "WHERE"):
            return ()
        comparisons = [self._comparison()]
        while self._accept("keyword", "AND"):
            comparisons.append(self._comparison())
        return tuple(comparisons)

    def _comparison(self) -> Comparison:
        column = self._expect_name()
        token = self._next()
        if token.kind != "op":
            raise SqlError(f"expected comparison operator, got {token.value!r}")
        op = "!=" if token.value == "<>" else token.value
        return Comparison(column=column, op=op, value=self._value())

    def _value(self) -> Value:
        token = self._next()
        if token.kind == "param":
            return Param(token.value[1:])
        sign = ""
        if token.kind == "punct" and token.value == "-":
            # A leading '-' makes a negative literal only where a value
            # starts, so `v-1` after a column is an increment.
            sign, token = "-", self._next()
            if token.kind != "number":
                raise SqlError(f"expected a number after '-', got {token.value!r}")
        if token.kind == "number":
            text = sign + token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            return Literal(token.value[1:-1].replace("''", "'"))
        if token.kind == "keyword" and token.value == "NULL":
            return Literal(None)
        if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value == "TRUE")
        raise SqlError(f"expected a value, got {token.value!r} in {self.text!r}")


def parse(text: str) -> Statement:
    """Parse one SQL statement."""
    return _Parser(_tokenize(text), text).parse_statement()


def table_set(statements: Iterable[Union[str, Statement]]) -> frozenset[str]:
    """The static table-set of a statement list — Section III-C's
    "statically extract the table-set that the transaction accesses"."""
    tables: set[str] = set()
    for statement in statements:
        parsed = parse(statement) if isinstance(statement, str) else statement
        tables |= parsed.tables
    return frozenset(tables)


# ---------------------------------------------------------------------------
# Statement cache and executor
# ---------------------------------------------------------------------------

#: statement texts a cache holds before it evicts the least recently used
PLAN_CACHE_CAPACITY = 256


class PlanCache:
    """LRU cache of parsed statements, keyed by statement text.

    Prepared templates are a few texts run many times: parsing is a dict hit."""

    def __init__(self):
        self._statements: "OrderedDict[str, Statement]" = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, text: str) -> Statement:
        """The parsed statement for ``text``, parsing on first sight."""
        statement = self._statements.get(text)
        if statement is not None:
            self._statements.move_to_end(text)
            self.hits += 1
            return statement
        self.misses += 1
        statement = self._statements[text] = parse(text)
        if len(self._statements) > PLAN_CACHE_CAPACITY:
            self._statements.popitem(last=False)
            self.evictions += 1
        return statement

    def clear(self) -> None:
        """Drop all cached statements and reset the counters."""
        self._statements.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        """Cache effectiveness counters (surfaced in cluster stats)."""
        return {
            "size": len(self._statements),
            "capacity": PLAN_CACHE_CAPACITY,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: process-wide statement cache, shared by every replica of every cluster
_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide statement cache (shared by all clusters/replicas)."""
    return _PLAN_CACHE


def execute(ctx, statement: Union[str, Statement], params: Optional[Mapping[str, Any]] = None):
    """Execute one statement against a transaction context.

    Returns a list of row dicts for SELECT and the affected-row count for
    INSERT/UPDATE/DELETE.  It goes through the context's own read, lookup,
    scan, insert, update and delete, so their statement costs and early
    certification apply; the WHERE clause picks the access path per call.
    """
    if isinstance(statement, str):
        statement = _PLAN_CACHE.get(statement)
    params = params if params is not None else {}
    table = statement.table
    if isinstance(statement, Insert):
        ctx.insert(table, {column: value.resolve(params)
                           for column, value in zip(statement.columns, statement.values)})
        return 1
    schema = ctx.schema(table)
    selected = (statement.columns if isinstance(statement, Select) else None) or ()
    for column in (*(comparison.column for comparison in statement.where), *selected):
        if column not in schema.column_names:
            raise SqlError(f"table {table!r} has no column {column!r}")
    rows = _rows(ctx, table, schema, statement.where, params)
    if isinstance(statement, Select):
        rows = rows if statement.limit is None else rows[: statement.limit]
        if statement.columns is None:
            return [dict(row) for row in rows]
        return [{column: row.get(column) for column in statement.columns} for row in rows]
    for row in rows:
        if isinstance(statement, Update):
            ctx.update(table, row[schema.primary_key], {
                assignment.column: assignment.compute(row, params)
                for assignment in statement.assignments})
        else:
            ctx.delete(table, row[schema.primary_key])
    return len(rows)


def _rows(ctx, table: str, schema, where: tuple[Comparison, ...], params) -> list:
    """The rows matching ``where`` (the context's own, not to be modified)."""
    for comparison in where:
        if comparison.op == "=" and comparison.column == schema.primary_key:
            key = comparison.value.resolve(params)
            if key is None:
                break  # a NULL key pins no row
            row = ctx.read(table, key)
            return [row] if row is not None and _matches(where, row, params) else []
    for comparison in where:
        if comparison.op == "=" and comparison.column in schema.indexes:
            value = comparison.value.resolve(params)
            rows = (ctx.read(table, key) for key in ctx.lookup(table, comparison.column, value))
            return [row for row in rows if row is not None and _matches(where, row, params)]
    predicate = (lambda row: _matches(where, row, params)) if where else None
    return list(ctx.scan(table, predicate=predicate))


def _matches(where: tuple[Comparison, ...], row, params) -> bool:
    for comparison in where:
        if not comparison.matches(row, params):
            return False
    return True
