"""Lowering compiled CQ plans to single SQL statements (pushdown).

A :class:`~repro.engine.plan.CompiledPlan` is one conjunctive-query
disjunct with a fixed join order.  :func:`lower_plan` turns it into one
``SELECT`` over the per-relation tables of the SQLite backend — the
whole join, all equality/disequality conditions, and the head
projection run inside the database engine, so a candidate-extension
check costs one prepared-statement execution instead of a Python-level
backtracking search.

Lowering rules (see ``docs/BACKENDS.md``):

* every plan step ``i`` contributes ``FROM <table> AS s{i}``;
* a step's bound key positions become ``WHERE`` conjuncts — against a
  ``?`` parameter for constants, against the *defining column* of the
  variable (the ``s{j}.c{p}`` of its first occurrence) otherwise;
* intra-atom repeats and decidable ``Eq``/``Neq`` comparisons lower to
  ``=`` / ``<>`` conjuncts at the step where the executor would have
  checked them;
* head variables become ``SELECT DISTINCT`` columns (each variable
  once, however often it repeats in the head); a boolean or all-constant
  head selects nothing and callers probe with ``EXISTS``-style
  ``SELECT 1 … LIMIT 1``.

A block of candidate extensions is checked with the block's Δ-rows in
the tables too.  Every table carries a ``vid`` column: ``-1`` on the
base rows, the candidate's index on a Δ-row (which also goes into the
relation's *delta table*).  :meth:`LoweredPlan.sql_delta` is the
semi-naive delta plan of one step ``j``: step ``j`` ranges over the
delta table, earlier steps over the base rows (``vid = -1``), later
steps over the base rows and the rows of step ``j``'s own candidate
(``vid IN (-1, s{j}.vid)``), so every binding that uses a Δ-row is
found by the statement of its first Δ-step and none mixes two
candidates' rows.  A correlated ``EXISTS`` per candidate stops at its
first binding, as ``LIMIT 1`` does for one candidate.

Constants stay *raw* in :attr:`LoweredPlan.params`: tables hold interned
codes, and only the storage owns the interner, so it encodes the
parameters at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.engine.plan import CompiledPlan
from repro.queries.atoms import Eq
from repro.queries.terms import Const, Var

__all__ = ["LoweredPlan", "lower_plan"]


@dataclass(frozen=True)
class LoweredPlan:
    """One plan lowered to SQL fragments.

    ``tables`` names the base table of each plan step, in step order
    (step ``i`` is aliased ``s{i}``).  ``select_cols`` are the column
    references of the head's distinct variables, in first-occurrence
    order; ``head_pattern`` rebuilds a head row from a fetched result:
    ``("const", value)`` entries are emitted verbatim, ``("col", i)``
    entries read the ``i``-th selected column (a code, to be decoded by
    the storage).  ``params`` are the raw constant values matching the
    ``?`` placeholders in ``where``.
    """

    tables: tuple[str, ...]
    where: tuple[str, ...]
    params: tuple[Any, ...]
    select_cols: tuple[str, ...]
    head_pattern: tuple[tuple[str, Any], ...]

    def sql_rows(self) -> str:
        """``SELECT DISTINCT`` of the head columns (or a bare existence
        probe when the head binds no variables)."""
        if not self.select_cols:
            return self.sql_exists()
        return (f"SELECT DISTINCT {', '.join(self.select_cols)} "
                f"{_clause(self._from(), self.where)}")

    def sql_exists(self, extra: str = "") -> str:
        """``SELECT 1 … LIMIT 1`` existence probe, optionally with an
        *extra* conjunct (the violation check's ``NOT IN`` filter)."""
        conjuncts = self.where + ((extra,) if extra else ())
        return f"SELECT 1 {_clause(self._from(), conjuncts)} LIMIT 1"

    def sql_delta(self, step: int, tagged: Sequence[int],
                  delta_table: str, extra: str = "",
                  columns: bool = False) -> str:
        """The candidates (``vid``) with a binding whose step *step*
        ranges over their own rows in *delta_table*.  *tagged* are the
        steps whose tables hold Δ-rows of the block (with *step*):
        earlier ones read only base rows, later ones base rows and the
        same candidate's.  *extra* is an additional conjunct.  By
        default one ``EXISTS`` probe per candidate; with *columns*, the
        distinct ``vid`` and head columns of every binding (for a
        violation test done by the caller)."""
        tables = ", ".join(
            f"{delta_table if i == step else table} AS s{i}"
            for i, table in enumerate(self.tables))
        vid = f"s{step}.vid"
        conjuncts = self.where + tuple(
            f"s{i}.vid = -1" if i < step else f"s{i}.vid IN (-1, {vid})"
            for i in tagged if i != step)
        if extra:
            conjuncts += (extra,)
        if columns:
            selected = ", ".join((vid,) + self.select_cols)
            return (f"SELECT DISTINCT {selected} "
                    f"{_clause('FROM ' + tables, conjuncts)}")
        probe = _clause("FROM " + tables, (f"{vid} = v.vid",) + conjuncts)
        return (f"SELECT v.vid FROM (SELECT DISTINCT vid FROM "
                f"{delta_table}) AS v WHERE EXISTS (SELECT 1 {probe})")

    def _from(self) -> str:
        return "FROM " + ", ".join(f"{table} AS s{i}"
                                   for i, table in enumerate(self.tables))


def _clause(from_clause: str, conjuncts: tuple[str, ...]) -> str:
    if conjuncts:
        return from_clause + " WHERE " + " AND ".join(conjuncts)
    return from_clause


def lower_plan(plan: CompiledPlan,
               table_of: Mapping[str, str]) -> LoweredPlan:
    """Lower *plan* to SQL over the tables named by *table_of*.

    The caller guarantees ``plan.satisfiable`` and at least one step
    (ground-false plans and atom-less queries never reach SQL).
    """
    tables = []
    where: list[str] = []
    params: list[Any] = []
    defining: dict[Var, str] = {}
    for i, step in enumerate(plan.steps):
        tables.append(table_of[step.relation])
        for position, term in zip(step.key_positions, step.key_terms):
            column = f"s{i}.c{position}"
            if isinstance(term, Const):
                where.append(f"{column} = ?")
                params.append(term.value)
            else:
                where.append(f"{column} = {defining[term]}")
        for position, variable in step.outputs:
            defining[variable] = f"s{i}.c{position}"
        for position, variable in step.intra_checks:
            where.append(f"s{i}.c{position} = {defining[variable]}")
        for comparison in step.comparisons:
            op = "=" if isinstance(comparison, Eq) else "<>"
            left = _operand(comparison.left, defining, params)
            right = _operand(comparison.right, defining, params)
            where.append(f"{left} {op} {right}")

    select_cols: list[str] = []
    col_of_var: dict[Var, int] = {}
    head_pattern: list[tuple[str, Any]] = []
    for term in plan.head:
        if isinstance(term, Const):
            head_pattern.append(("const", term.value))
            continue
        index = col_of_var.get(term)
        if index is None:
            index = len(select_cols)
            col_of_var[term] = index
            select_cols.append(defining[term])
        head_pattern.append(("col", index))

    return LoweredPlan(
        tables=tuple(tables),
        where=tuple(where),
        params=tuple(params),
        select_cols=tuple(select_cols),
        head_pattern=tuple(head_pattern))


def _operand(term: Any, defining: Mapping[Var, str],
             params: list[Any]) -> str:
    if isinstance(term, Const):
        params.append(term.value)
        return "?"
    return defining[term]
