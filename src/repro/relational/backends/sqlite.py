"""SQLite storage: whole-plan pushdown over an in-memory database.

The instance's relations are bulk-loaded (``executemany``) into one
in-memory SQLite database as *interned* integer codes — table ``t{i}``
for the ``i``-th relation of the schema, columns ``c0 … c{arity-1}``,
nullary relations as a single dummy column holding one row when the
fact is present.  Compiled plans lower to single ``SELECT`` statements
(:mod:`repro.engine.sql`), so a join that the Python executor walks
row by row runs entirely inside SQLite's bytecode VM.

Candidate extensions ``D ∪ Δ`` never copy the database.  The
containment check :meth:`SQLiteStorage.plan_violations` takes a whole
block of candidates: their Δ-rows go, tagged with the candidate's index
``vid`` (base rows carry ``-1``), into the relation's table and its
*delta table* (one ``executemany`` each).  One statement per plan step
over a touched relation — the semi-naive delta plan of that step
(:meth:`~repro.engine.sql.LoweredPlan.sql_delta`) — probes each
candidate with a correlated ``EXISTS`` and names the violating ones;
the statements stop once every candidate violates, and a ``DELETE`` per
table clears the block.  An at-most-``k`` constraint (empty target)
needs no filter; a general target pushes the allowed answers into a
``NOT IN (VALUES …)`` filter.  The filter, the plan's parameters and
the verdict on the base instance alone are computed once per (plan,
allowed rows), not per block.
``plan_rows_extended`` evaluates one Δ inside a ``SAVEPOINT`` that is
rolled back afterwards.

SQL indexes are created lazily per ``(relation, key positions)`` pair
actually probed, reported through *on_build* exactly like the hash
indexes of the reference backend.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.sql import LoweredPlan, lower_plan
from repro.relational.backends import (DeltaRows, OnBlockBuild, OnBuild,
                                       StorageBackend, constant_verdict,
                                       plan_head_constants, project_allowed)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["SQLiteStorage"]

#: Above this many allowed rows the ``NOT IN (VALUES …)`` filter is
#: abandoned: the statements select the head columns too and the subset
#: test runs in Python (giant parameter lists cost more than they save).
_ALLOWED_CAP = 500


class _ViolationCheck:
    """The part of a containment check fixed by (plan, allowed rows).

    ``never``: no answer can violate (an all-constant head that
    *allowed* covers).  ``extra`` / ``params``: the pushed ``NOT IN``
    filter (empty when there is none) and every statement parameter,
    encoded.  ``projected``: the allowed head columns the caller tests
    against when the filter is not pushed (above :data:`_ALLOWED_CAP`),
    else ``None``.  ``base_violates``: whether ``Q(D)`` alone escapes,
    decided on first use.  ``statements``: the delta statements (one per
    step over a touched relation) per set of touched relations.
    """

    __slots__ = ("plan", "allowed", "never", "extra", "params",
                 "projected", "base_violates", "statements")

    def __init__(self, plan: "CompiledPlan",
                 allowed: frozenset[tuple] | None) -> None:
        self.plan = plan
        self.allowed = allowed
        self.never = False
        self.extra = ""
        self.params: list[int] = []
        self.projected: set[tuple[int, ...]] | None = None
        self.base_violates: bool | None = None
        self.statements: dict[frozenset[str], list[str]] = {}


class SQLiteStorage(StorageBackend):
    """Interned relations in an in-memory SQLite database; plans run as
    single pushed-down SQL statements."""

    kind = "sqlite"

    def __init__(self, instance: "Instance") -> None:
        super().__init__(instance)
        self._codes: dict[Any, int] = {}
        self._values: list[Any] = []
        self._lowered_plans: dict[int, tuple["CompiledPlan",
                                             LoweredPlan]] = {}
        self._checks: dict[int, _ViolationCheck] = {}
        self._sql_indexes: set[tuple[str, tuple[int, ...]]] = set()
        self._table_of: dict[str, str] = {}
        self._delta_table_of: dict[str, str] = {}
        #: per table, the rowid of its last base row (Δ-rows follow).
        self._base_rowid: dict[str, int] = {}
        self._connection = sqlite3.connect(
            ":memory:", check_same_thread=False)
        self._load(instance)

    # -- interning -----------------------------------------------------

    def _intern(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    # -- schema + bulk load --------------------------------------------

    def _load(self, instance: "Instance") -> None:
        cursor = self._connection.cursor()
        for i, name in enumerate(instance.schema.relation_names):
            table = f"t{i}"
            self._table_of[name] = table
            width = max(instance.schema.relation(name).arity, 1)
            columns = ", ".join(f"c{j} INTEGER" for j in range(width))
            cursor.execute(f"CREATE TABLE {table} "
                           f"(vid INTEGER NOT NULL DEFAULT -1, {columns})")
            self._delta_table_of[table] = f"d{i}"
            cursor.execute(f"CREATE TABLE d{i} (vid INTEGER, {columns})")
            cursor.execute(f"CREATE INDEX ix_d{i}_vid ON d{i} (vid)")
            rows = instance.relation(name)
            self._base_rowid[table] = len(rows)
            if rows:
                cursor.executemany(_insert_sql(table, width),
                                   [self._encode_row(row) for row in rows])
        self._connection.commit()

    def _encode_row(self, row: tuple) -> tuple[int, ...]:
        if not row:  # nullary fact: one dummy-column row
            return (0,)
        return tuple(self._intern(value) for value in row)

    # -- plan cache + lazy SQL indexes ---------------------------------

    def _lowered(self, plan: "CompiledPlan") -> LoweredPlan:
        cached = self._lowered_plans.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        lowered = lower_plan(plan, self._table_of)
        self._lowered_plans[id(plan)] = (plan, lowered)
        return lowered

    def _ensure_indexes(self, plan: "CompiledPlan",
                        on_build: OnBuild | None) -> None:
        for step in plan.steps:
            if not step.key_positions:
                continue
            # Charged per *requirement* (the context dedupes per
            # instance): the storage outlives evaluation contexts, so a
            # consumer's counters must not depend on who warmed it.
            if on_build is not None:
                on_build(step.relation, step.key_positions)
            key = (step.relation, step.key_positions)
            if key in self._sql_indexes:
                continue
            table = self._table_of[step.relation]
            name = "ix_" + table + "_" + "_".join(
                str(p) for p in step.key_positions)
            columns = ", ".join(f"c{p}" for p in step.key_positions)
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {name} ON {table} "
                f"({columns})")
            self._sql_indexes.add(key)

    # -- execution helpers ---------------------------------------------

    def _encode_params(self, params: tuple[Any, ...]) -> list[int]:
        return [self._intern(value) for value in params]

    def _decode(self, lowered: LoweredPlan,
                fetched: list[tuple]) -> frozenset[tuple]:
        values = self._values
        pattern = lowered.head_pattern
        return frozenset(
            tuple(value if tag == "const" else values[row[value]]
                  for tag, value in pattern)
            for row in fetched)

    def _const_head(self, lowered: LoweredPlan) -> tuple:
        return tuple(value for _, value in lowered.head_pattern)

    def _rows_now(self, plan: "CompiledPlan",
                  on_build: OnBuild | None) -> frozenset[tuple]:
        """Evaluate *plan* against the database's current contents."""
        if not plan.satisfiable:
            return frozenset()
        if not plan.steps:
            return frozenset({plan_head_constants(plan)})
        lowered = self._lowered(plan)
        self._ensure_indexes(plan, on_build)
        params = self._encode_params(lowered.params)
        cursor = self._connection.execute(lowered.sql_rows(), params)
        if not lowered.select_cols:
            # Existence probe: the head is all-constant (or empty).
            if cursor.fetchone() is None:
                return frozenset()
            return frozenset({self._const_head(lowered)})
        return self._decode(lowered, cursor.fetchall())

    def _insert_delta(self, delta: DeltaRows) -> None:
        for name, rows in delta.items():
            table = self._table_of[name]
            coded = [self._encode_row(tuple(row)) for row in rows]
            if not coded:
                continue
            self._connection.executemany(
                _insert_sql(table, len(coded[0])), coded)

    # -- StorageBackend API --------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        return self._rows_now(plan, on_build)

    def plan_rows_extended(self, plan: "CompiledPlan", delta: DeltaRows, *,
                           on_build: OnBuild | None = None,
                           ) -> frozenset[tuple]:
        if not delta:
            return self._rows_now(plan, on_build)
        connection = self._connection
        connection.execute("SAVEPOINT delta")
        try:
            self._insert_delta(delta)
            return self._rows_now(plan, on_build)
        finally:
            connection.execute("ROLLBACK TO delta")
            connection.execute("RELEASE delta")

    def plan_violations(self, plan: "CompiledPlan",
                        deltas: Sequence[DeltaRows],
                        allowed: frozenset[tuple] | None, *,
                        on_build: OnBlockBuild | None = None,
                        ) -> set[int]:
        verdict = constant_verdict(plan, allowed)
        if verdict is not None:
            return set(range(len(deltas))) if verdict else set()
        lowered = self._lowered(plan)
        check = self._violation_check(plan, lowered, allowed)
        if check.never or not deltas:
            return set()

        def require(relation: str, positions: tuple[int, ...]) -> None:
            # Every candidate's own check needs the plan's indexes.
            for vid in range(len(deltas)):
                on_build(vid, relation, positions)  # type: ignore[misc]

        self._ensure_indexes(plan, None if on_build is None else require)
        if check.base_violates is None:
            check.base_violates = self._base_violates(check, lowered)
        if check.base_violates:
            return set(range(len(deltas)))
        touched = self._load_block(deltas)
        if not touched:
            return set()
        violating: set[int] = set()
        try:
            for sql in self._delta_statements(check, lowered, touched):
                cursor = self._connection.execute(sql, check.params)
                if check.projected is None:
                    violating.update(vid for vid, in cursor)
                else:
                    violating.update(row[0] for row in cursor
                                     if row[1:] not in check.projected)
                if len(violating) == len(deltas):
                    break
        finally:
            self._clear_block(touched)
        return violating

    def _violation_check(self, plan: "CompiledPlan", lowered: LoweredPlan,
                         allowed: frozenset[tuple] | None,
                         ) -> _ViolationCheck:
        check = self._checks.get(id(plan))
        if check is not None and check.plan is plan \
                and check.allowed is allowed:
            return check
        check = _ViolationCheck(plan, allowed)
        filter_params: list[int] = []
        if allowed is not None:
            projected = project_allowed(plan.head, allowed, self._intern)
            if len(allowed) > _ALLOWED_CAP:
                check.projected = projected
            elif not lowered.select_cols:
                # All-constant head: covered by *allowed* (no answer can
                # violate) or not (every answer violates, no filter).
                check.never = bool(projected)
            else:
                check.extra, filter_params = _not_in_filter(
                    lowered.select_cols, sorted(projected))
        check.params = self._encode_params(lowered.params) + filter_params
        self._checks[id(plan)] = check
        return check

    def _base_violates(self, check: _ViolationCheck,
                       lowered: LoweredPlan) -> bool:
        """Whether ``Q(D)`` alone has an answer outside the allowed
        rows — then every candidate violates."""
        if check.projected is None:
            return self._connection.execute(
                lowered.sql_exists(check.extra),
                check.params).fetchone() is not None
        width = len(lowered.select_cols)
        return any(tuple(row)[:width] not in check.projected
                   for row in self._connection.execute(
                       lowered.sql_rows(), check.params))

    def _load_block(self, deltas: Sequence[DeltaRows]) -> dict[str, str]:
        """Insert every candidate's Δ-rows, tagged with its index, into
        the relation's table and its delta table; return the touched
        tables by relation."""
        tagged: dict[str, list[tuple[int, ...]]] = {}
        for vid, delta in enumerate(deltas):
            for name, rows in delta.items():
                if rows:
                    tagged.setdefault(name, []).extend(
                        (vid,) + self._encode_row(tuple(row))
                        for row in rows)
        touched: dict[str, str] = {}
        for name, rows in tagged.items():
            table = self._table_of[name]
            placeholders = ", ".join("?" * len(rows[0]))
            for target in (table, self._delta_table_of[table]):
                self._connection.executemany(
                    f"INSERT INTO {target} VALUES ({placeholders})", rows)
            touched[name] = table
        return touched

    def _clear_block(self, touched: dict[str, str]) -> None:
        for table in touched.values():
            self._connection.execute(f"DELETE FROM {table} WHERE rowid > ?",
                                     (self._base_rowid[table],))
            self._connection.execute(
                f"DELETE FROM {self._delta_table_of[table]}")
        self._connection.commit()

    def _delta_statements(self, check: _ViolationCheck,
                          lowered: LoweredPlan,
                          touched: dict[str, str]) -> list[str]:
        """The semi-naive delta plan of every step over a touched
        relation, in step order."""
        key = frozenset(touched)
        statements = check.statements.get(key)
        if statements is None:
            steps = [i for i, step in enumerate(check.plan.steps)
                     if step.relation in key]
            statements = [
                lowered.sql_delta(
                    step, steps, self._delta_table_of[lowered.tables[step]],
                    check.extra, columns=check.projected is not None)
                for step in steps]
            check.statements[key] = statements
        return statements


def _insert_sql(table: str, width: int) -> str:
    """Insert base rows (``vid`` defaults to ``-1``)."""
    columns = ", ".join(f"c{j}" for j in range(width))
    return (f"INSERT INTO {table} ({columns}) "
            f"VALUES ({', '.join('?' * width)})")


def _not_in_filter(select_cols: tuple[str, ...],
                   projected: list[tuple[int, ...]],
                   ) -> tuple[str, list[int]]:
    """Render ``(cols) NOT IN (VALUES …)`` with its parameters; an
    empty *projected* set means every answer violates (no filter)."""
    if not projected:
        return "", []
    params = [code for row in projected for code in row]
    if len(select_cols) == 1:
        placeholders = ", ".join("?" * len(projected))
        return f"{select_cols[0]} NOT IN ({placeholders})", params
    row_ph = "(" + ", ".join("?" * len(select_cols)) + ")"
    values = ", ".join(row_ph for _ in projected)
    cols = "(" + ", ".join(select_cols) + ")"
    return f"{cols} NOT IN (VALUES {values})", params
