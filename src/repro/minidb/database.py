"""The user-facing database facade: DDL, DML, queries, persistence, EXPLAIN."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import CatalogError, PlanningError, StorageError
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import Literal, compile_expression
from repro.minidb.plan.planner import Planner, PlannerSettings
from repro.minidb.schema import Schema
from repro.minidb.sql.ast import (
    CreateTableStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    SelectStatement,
    Statement,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cost import PhysicalPlan
from repro.minidb.sql.parser import parse_sql
from repro.minidb.table import Table
from repro.minidb.types import DataType

__all__ = ["Database", "QueryResult"]


@dataclass
class QueryResult:
    """The materialised result of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[object, ...]] = field(default_factory=list)
    rowcount: int = 0
    statement: str = ""
    #: The cost planner's choice for the statement's similarity operator
    #: (mode, worker/shard fan-out, estimated cost), when one delegated to
    #: it at execution time; None for forced WORKERS paths and plain queries.
    plan: "Optional[PhysicalPlan]" = None
    #: The logical rewrite rules applied to this statement's plan (one trace
    #: line per rule), empty when the optimizer is off or found nothing.
    rewrites: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> object:
        """Return the single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise PlanningError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[object]:
        """Return all values of the named output column."""
        try:
            index = [c.lower() for c in self.columns].index(name.lower())
        except ValueError as exc:
            raise PlanningError(f"unknown result column {name!r}") from exc
        return [row[index] for row in self.rows]

    def to_dicts(self) -> List[dict]:
        """Return the rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


def _collect_last_plan(node) -> "Optional[PhysicalPlan]":
    """The topmost similarity operator's executed plan, if any delegated."""
    found = getattr(node, "last_plan", None)
    if found is not None:
        return found
    for child in node.children():
        found = _collect_last_plan(child)
        if found is not None:
            return found
    return None


class Database:
    """A relational database with similarity group-by support.

    Tables live in memory; bind the database to a storage directory
    (:meth:`open`, or ``path=``) and tables marked persistent —
    ``CREATE TABLE ... PERSISTENT`` or ``create_table(..., persistent=True)``
    — survive process restarts through :meth:`save` / :meth:`close`.  The
    instance is a context manager: leaving the ``with`` block flushes the
    durable catalog and releases its sqlite handle.

    Parameters
    ----------
    sgb_strategy:
        Default algorithm used by similarity group-by plans: ``"index"``
        (default), ``"bounds-checking"``, or ``"all-pairs"``.
    sgb_seed:
        Seed for the JOIN-ANY arbitration, making query results reproducible.
    sgb_workers:
        Session default for the SGB clause's ``WORKERS`` option (worker
        processes for sharded SGB-Any execution); ``None`` defers to the
        ``SGB_WORKERS`` environment variable and otherwise stays serial.
    path:
        Optional storage directory for persistent tables; created on demand.
        Stored tables found there are loaded immediately (bit-identical to
        the rows that were saved), along with their planner statistics.
    cache:
        Result-cache knob for the SGB and similarity-join executors:
        ``True`` (process-wide default cache), a directory path (tiered
        mem → local-file cache), a :class:`repro.storage.ResultCache`, or
        ``None``/``False`` (off unless ``SGB_CACHE`` enables it).
        ``SGB_CACHE=off`` bypasses the cache regardless.
    optimizer:
        Whether the cost-driven logical rewrite layer (filter placement,
        join reordering — :mod:`repro.minidb.plan.rewrite`) runs on SELECT
        plans.  The paper-figure runners pass ``False`` to stay on the
        un-rewritten reference path.
    """

    def __init__(
        self,
        sgb_strategy: str = "index",
        sgb_seed: int = 0,
        sgb_workers: "Optional[int | str]" = None,
        path: Optional[str] = None,
        cache: object = None,
        optimizer: bool = True,
    ) -> None:
        self.catalog = Catalog()
        self.settings = PlannerSettings(
            sgb_strategy=sgb_strategy,
            sgb_seed=sgb_seed,
            sgb_workers=sgb_workers,
            cache=cache,
            optimizer=optimizer,
        )
        self.store = None
        #: table name -> version last written to (or loaded from) the store
        self._saved_versions: dict[str, int] = {}
        if path is not None:
            from repro.storage.catalog import TableStore

            self.store = TableStore(path)
            self._load_stored_tables()

    @classmethod
    def open(cls, path: str, **kwargs) -> "Database":
        """Open (or create) a database bound to storage directory ``path``.

        Every table previously saved there is loaded back — rows, mutation
        version, and cached planner statistics — so a reopened database
        answers the same SQL bit-identically to the process that saved it.
        """
        return cls(path=path, **kwargs)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _load_stored_tables(self) -> None:
        assert self.store is not None
        from repro.engine.stats import PointStats

        for name in self.store.table_names():
            schema_pairs, rows, version, stats = self.store.load_table(name)
            table = self.catalog.create_table(name, schema_pairs, persistent=True)
            table.adopt_rows(rows, version)
            for columns_key, (stats_version, payload) in stats.items():
                try:
                    positions = tuple(
                        int(p) for p in columns_key.split(",") if p != ""
                    )
                    summary = PointStats.from_dict(payload)
                except Exception:  # noqa: BLE001 - stats are advisory
                    continue
                table._stats_cache[positions] = (stats_version, summary)
            self._saved_versions[name] = version

    def save(self) -> int:
        """Flush every dirty persistent table to the storage directory.

        A table is dirty when its mutation ``version`` differs from the last
        version written to (or loaded from) disk — the same counter that
        invalidates planner statistics and result-cache fingerprints.
        Returns the number of tables written.  Raises
        :class:`~repro.exceptions.StorageError` when the database has no
        storage path or was already closed.
        """
        if self.store is None:
            raise StorageError("this database has no storage path; use Database.open")
        written = 0
        for name in self.catalog.table_names():
            table = self.catalog.get_table(name)
            if not table.persistent:
                continue
            if self._saved_versions.get(name) == table.version:
                continue
            stats = {
                ",".join(str(p) for p in positions): (entry_version, summary.to_dict())
                for positions, (entry_version, summary) in table._stats_cache.items()
            }
            self.store.save_table(
                name,
                [(c.name, c.dtype) for c in table.schema.columns],
                table.rows,
                table.version,
                stats=stats,
            )
            self._saved_versions[name] = table.version
            written += 1
        return written

    def close(self) -> None:
        """Flush persistent tables and release the sqlite handle (idempotent).

        The in-memory tables stay queryable after ``close()``; only the
        durable side is detached.
        """
        if self.store is None or self.store.closed:
            return
        try:
            self.save()
        finally:
            self.store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # programmatic DDL / DML (used by the data generators)
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable[Tuple[str, "DataType | str"]],
        persistent: bool = False,
    ) -> Table:
        """Create a table from ``(name, type)`` pairs."""
        if persistent and self.store is None:
            raise CatalogError(
                "PERSISTENT tables need a storage path; open the database with "
                "Database.open(path)"
            )
        return self.catalog.create_table(name, columns, persistent=persistent)

    def drop_table(self, name: str) -> None:
        """Drop a table (and its stored files, if it was persistent)."""
        table = self.catalog.get_table(name)
        self.catalog.drop_table(name)
        if table.persistent and self.store is not None and not self.store.closed:
            self.store.remove_table(table.name)
            self._saved_versions.pop(table.name, None)

    def has_table(self, name: str) -> bool:
        """Return True if the table exists."""
        return self.catalog.has_table(name)

    def table(self, name: str) -> Table:
        """Return the underlying heap table."""
        return self.catalog.get_table(name)

    def table_names(self) -> List[str]:
        """Return the names of all tables."""
        return self.catalog.table_names()

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert Python rows into a table; returns the row count."""
        return self.catalog.get_table(name).insert_many(rows)

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------

    def execute(self, sql: str, sgb_strategy: Optional[str] = None) -> QueryResult:
        """Parse, plan, and execute one SQL statement.

        ``sgb_strategy`` overrides the session default for this statement only
        (used by the benchmarks to compare All-Pairs / Bounds-Checking / Index
        plans for the same query).
        """
        statement = parse_sql(sql)
        return self._execute_statement(statement, sql, sgb_strategy)

    def explain(self, sql: str, sgb_strategy: Optional[str] = None) -> str:
        """Return the physical plan of a SELECT statement as text.

        Accepts either a bare ``SELECT ...`` or a full ``EXPLAIN SELECT ...``
        statement; both show the tree with the cost planner's mode choices
        and estimates, without executing the query.
        """
        statement = parse_sql(sql)
        if isinstance(statement, ExplainStatement):
            statement = statement.query
        if not isinstance(statement, SelectStatement):
            raise PlanningError("EXPLAIN is only supported for SELECT statements")
        planner = self._planner(sgb_strategy)
        plan = planner.plan_select(statement)
        plan, rewrites = self._maybe_optimize(plan)
        return "\n".join(self._explain_lines(plan, rewrites))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _planner(self, sgb_strategy: Optional[str]) -> Planner:
        settings = self.settings
        if sgb_strategy is not None:
            settings = PlannerSettings(
                sgb_strategy=sgb_strategy,
                sgb_seed=self.settings.sgb_seed,
                sgb_workers=self.settings.sgb_workers,
                cache=self.settings.cache,
                optimizer=self.settings.optimizer,
            )
        return Planner(self.catalog, settings)

    def _maybe_optimize(self, plan) -> "Tuple[object, List[str]]":
        """Run the logical rewrite layer unless the session disables it.

        The gate check happens *here*, before the rewrite module is entered,
        so a bypassed session (``optimizer=False``) provably never calls into
        :func:`repro.minidb.plan.rewrite.optimize_plan` — the figure-pin tests
        spy on exactly that entry point.
        """
        if not self.settings.optimizer:
            return plan, []
        from repro.minidb.plan.rewrite import optimize_plan

        return optimize_plan(plan)

    @staticmethod
    def _explain_lines(plan, rewrites: List[str]) -> List[str]:
        """The EXPLAIN rendering: plan tree, then one line per rewrite rule."""
        lines = plan.explain().splitlines()
        for entry in rewrites:
            lines.append(f"rewrite: {entry}")
        return lines

    def _execute_statement(
        self, statement: Statement, sql: str, sgb_strategy: Optional[str]
    ) -> QueryResult:
        if isinstance(statement, ExplainStatement):
            planner = self._planner(sgb_strategy)
            plan = planner.plan_select(statement.query)
            plan, rewrites = self._maybe_optimize(plan)
            lines = self._explain_lines(plan, rewrites)
            return QueryResult(
                columns=["QUERY PLAN"],
                rows=[(line,) for line in lines],
                rowcount=len(lines),
                statement=sql,
                rewrites=rewrites,
            )
        if isinstance(statement, SelectStatement):
            planner = self._planner(sgb_strategy)
            plan = planner.plan_select(statement)
            plan, rewrites = self._maybe_optimize(plan)
            rows = list(plan.rows())
            return QueryResult(
                columns=[c.name for c in plan.schema.columns],
                rows=rows,
                rowcount=len(rows),
                statement=sql,
                plan=_collect_last_plan(plan),
                rewrites=rewrites,
            )
        if isinstance(statement, CreateTableStatement):
            self.create_table(
                statement.name, statement.columns, persistent=statement.persistent
            )
            return QueryResult(statement=sql)
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.name)
            return QueryResult(statement=sql)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, sql)
        raise PlanningError(f"unsupported statement {statement!r}")

    def _execute_insert(self, statement: InsertStatement, sql: str) -> QueryResult:
        table = self.catalog.get_table(statement.table)
        empty = Schema([])
        count = 0
        for row_exprs in statement.rows:
            values = [compile_expression(expr, empty)(()) for expr in row_exprs]
            if statement.columns:
                by_name = dict(zip([c.lower() for c in statement.columns], values))
                ordered = [by_name.get(col.name) for col in table.schema.columns]
                table.insert(ordered)
            else:
                table.insert(values)
            count += 1
        return QueryResult(rowcount=count, statement=sql)
