"""Plan execution: indexed backtracking join over pluggable row sources.

The executor walks a :class:`~repro.engine.plan.CompiledPlan` step by
step.  For each step it resolves the key (constants and already-bound
variables), asks the step's :class:`RowSource` for the matching rows,
binds the step's output variables, verifies intra-atom repeats and any
comparison that just became decidable, and recurses.

Row sources are what make the same executor serve both evaluation modes:

* **full evaluation** gives every step an :class:`IndexedSource` over
  the instance's hash indexes;
* **semi-naive delta evaluation** pins one atom ``j`` to the Δ-facts
  (:class:`DeltaSource`), steps whose original body position is below
  ``j`` to the base instance only, and the rest to base ∪ Δ
  (:class:`ChainSource`) — exactly the partition that makes each new
  answer of ``Q(D ∪ Δ)`` counted once (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.engine.indexes import InstanceIndexes
from repro.engine.plan import CompiledPlan, PlanStep
from repro.queries.terms import Const, Var

__all__ = ["IndexedSource", "DeltaSource", "ChainSource",
           "iter_rows", "iter_new_rows", "evaluate_plan", "plan_holds"]

Binding = dict[Var, Any]


class IndexedSource:
    """Rows from one instance, via its hash indexes."""

    __slots__ = ("indexes",)

    def __init__(self, indexes: InstanceIndexes) -> None:
        self.indexes = indexes

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        return self.indexes.lookup(step.relation, step.key_positions, key)


class DeltaSource:
    """Rows from a small literal Δ-set; probed by linear scan.

    Δ is tiny by design (typically a handful of candidate facts), so
    building hash indexes over it would cost more than scanning it.
    """

    __slots__ = ("rows_by_relation",)

    def __init__(self,
                 rows_by_relation: Mapping[str, Sequence[tuple]]) -> None:
        self.rows_by_relation = rows_by_relation

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        candidates = self.rows_by_relation.get(step.relation)
        if not candidates:
            return []
        positions = step.key_positions
        return [row for row in candidates
                if tuple(row[p] for p in positions) == key]


class ChainSource:
    """Union of two sources (base ∪ Δ); sources are disjoint by
    construction because Δ is pre-filtered against the base."""

    __slots__ = ("first", "second")

    def __init__(self, first: Any, second: Any) -> None:
        self.first = first
        self.second = second

    def rows(self, step: PlanStep, key: tuple) -> list[tuple]:
        base = self.first.rows(step, key)
        extra = self.second.rows(step, key)
        if not extra:
            return base
        return base + extra


def _resolve_key(step: PlanStep, binding: Binding) -> tuple:
    return tuple(term.value if isinstance(term, Const) else binding[term]
                 for term in step.key_terms)


def _comparisons_hold(step: PlanStep, binding: Binding) -> bool:
    for comparison in step.comparisons:
        left = (comparison.left.value
                if isinstance(comparison.left, Const)
                else binding[comparison.left])
        right = (comparison.right.value
                 if isinstance(comparison.right, Const)
                 else binding[comparison.right])
        if not comparison.holds(left, right):
            return False
    return True


def iter_rows(plan: CompiledPlan, sources: tuple[Any, ...],
              binding: Binding | None = None) -> Iterator[tuple]:
    """Yield the head row of every satisfying binding (with duplicates;
    callers build sets).  *sources* supplies rows per step, parallel to
    ``plan.steps``."""
    if not plan.satisfiable:
        return
    if binding is None:
        binding = {}
    yield from _search(plan, sources, 0, binding)


def _search(plan: CompiledPlan, sources: tuple[Any, ...],
            depth: int, binding: Binding) -> Iterator[tuple]:
    if depth == len(plan.steps):
        yield tuple(term.value if isinstance(term, Const)
                    else binding[term] for term in plan.head)
        return
    step = plan.steps[depth]
    key = _resolve_key(step, binding)
    for row in sources[depth].rows(step, key):
        ok = True
        for position, variable in step.outputs:
            binding[variable] = row[position]
        for position, variable in step.intra_checks:
            if row[position] != binding[variable]:
                ok = False
                break
        if ok and _comparisons_hold(step, binding):
            yield from _search(plan, sources, depth + 1, binding)
        for _, variable in step.outputs:
            del binding[variable]


def iter_new_rows(plan: CompiledPlan, base: Any,
                  delta: Mapping[str, Sequence[tuple]]) -> Iterator[tuple]:
    """Head rows of the bindings of *plan* over ``base ∪ Δ`` that use
    at least one Δ-row (with duplicates), by the semi-naive rule: per
    atom ``j`` with Δ-rows, the delta plan pinning ``j`` reads ``j``
    from Δ, earlier atoms from *base* and later ones from ``base ∪ Δ``,
    so each binding is enumerated once, under its first Δ-atom.  *base*
    is the row source of the base instance; Δ must be disjoint from
    it."""
    delta_source = DeltaSource(delta)
    chain = ChainSource(base, delta_source)
    for j, atom in enumerate(plan.query.relation_atoms):
        if not delta.get(atom.relation):
            continue
        pinned = plan.delta_plan(j)
        sources = tuple(
            delta_source if step.atom_index == j
            else base if step.atom_index < j
            else chain
            for step in pinned.steps)
        yield from iter_rows(pinned, sources)


def evaluate_plan(plan: CompiledPlan,
                  sources: tuple[Any, ...]) -> frozenset[tuple]:
    """All head rows of *plan* over *sources* (set semantics)."""
    return frozenset(iter_rows(plan, sources))


def plan_holds(plan: CompiledPlan, sources: tuple[Any, ...]) -> bool:
    """True when the plan has at least one satisfying binding."""
    for _ in iter_rows(plan, sources):
        return True
    return False
