"""Compiled evaluation plans for conjunctive-query bodies.

A :class:`CompiledPlan` fixes, once per query, everything the backtracking
join of :meth:`~repro.queries.cq.ConjunctiveQuery.evaluate` used to redo on
every call: the greedy join order, which positions of each atom are *bound*
when the atom is reached (constants, or variables bound by earlier steps)
and which are *free*, and at which step each comparison becomes decidable.

The bound positions of a step are exactly the key of the hash index the
executor probes (:mod:`repro.engine.indexes`), turning the naive
full-relation rescan into a dictionary lookup.

Plans come in two flavors:

* the *full* plan (``first_atom=None``) orders atoms greedily by shared
  variables — the same heuristic the naive evaluator used;
* a *delta* plan (``first_atom=j``) forces atom ``j`` to be the first
  step, so that semi-naive evaluation can drive the join from the tiny
  set of Δ-facts matching that atom (:mod:`repro.engine.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.queries.atoms import Eq, Neq
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Term, Var

__all__ = ["PlanStep", "CompiledPlan", "compile_plan"]


@dataclass(frozen=True)
class PlanStep:
    """One atom of the join, annotated with its binding structure.

    Attributes
    ----------
    atom_index:
        Index of the atom in ``query.relation_atoms`` (the *original*
        body position — delta evaluation classifies steps by it).
    relation:
        Relation the step scans or probes.
    key_positions, key_terms:
        Positions whose value is known when the step runs (a constant,
        or a variable bound by an earlier step), and the terms supplying
        those values.  They form the hash-index key.
    outputs:
        ``(position, variable)`` pairs bound by this step — the first
        occurrence of each new variable.
    intra_checks:
        ``(position, variable)`` pairs where a variable introduced by
        this very step repeats; the row value must equal the binding.
    comparisons:
        ``Eq``/``Neq`` atoms whose variables are all bound once this
        step has run; checked eagerly to prune the search.
    """

    atom_index: int
    relation: str
    key_positions: tuple[int, ...]
    key_terms: tuple[Term, ...]
    outputs: tuple[tuple[int, Var], ...]
    intra_checks: tuple[tuple[int, Var], ...]
    comparisons: tuple[Any, ...]

    @property
    def is_scan(self) -> bool:
        """True when the step probes no index: every row is examined."""
        return not self.key_positions

    @property
    def constant_key_positions(self) -> tuple[int, ...]:
        """The key positions supplied by constants (always available)."""
        return tuple(position
                     for position, term in zip(self.key_positions,
                                               self.key_terms)
                     if isinstance(term, Const))


@dataclass(frozen=True)
class CompiledPlan:
    """An ordered join plan for one CQ body.

    ``satisfiable`` is False when a ground comparison fails at compile
    time (``1 ≠ 1``); such plans evaluate to the empty set without
    touching the instance.
    """

    query: ConjunctiveQuery
    steps: tuple[PlanStep, ...]
    head: tuple[Term, ...]
    satisfiable: bool
    #: Delta plans of the same query, compiled on first use.
    _pinned: dict[int, "CompiledPlan"] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def delta_plan(self, first_atom: int) -> "CompiledPlan":
        """The plan of the same query with atom *first_atom* pinned as
        the first step (compiled once per plan, shared by every
        storage that evaluates it)."""
        plan = self._pinned.get(first_atom)
        if plan is None:
            plan = compile_plan(self.query, first_atom)
            self._pinned[first_atom] = plan
        return plan

    def scan_steps(self) -> tuple[PlanStep, ...]:
        """The steps that rescan their whole relation (no index key).

        The first step is a scan by construction unless the atom carries
        constants; later scans are cross products — the plan linter's
        RC401 (see :mod:`repro.analysis.planlint`)."""
        return tuple(step for step in self.steps if step.is_scan)

    def join_components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the body's join graph (atom indices).

        Two atoms are connected when they share a variable; more than one
        component means some cross product is inherent in the body, not
        an artifact of the join order."""
        atoms = self.query.relation_atoms
        parent = list(range(len(atoms)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        by_variable: dict[Var, int] = {}
        for index, atom in enumerate(atoms):
            for variable in atom.variables():
                if variable in by_variable:
                    parent[find(index)] = find(by_variable[variable])
                else:
                    by_variable[variable] = index
        groups: dict[int, set[int]] = {}
        for index in range(len(atoms)):
            groups.setdefault(find(index), set()).add(index)
        return tuple(frozenset(g) for g in
                     sorted(groups.values(), key=min))


def _greedy_order(query: ConjunctiveQuery,
                  first_atom: int | None) -> list[int]:
    """Join order over atom indices: the atom sharing the most variables
    with those already bound goes next (ties: fewest total variables) —
    the heuristic previously buried in ``ConjunctiveQuery._ordered_atoms``,
    optionally seeded with a forced first atom."""
    atoms = query.relation_atoms
    remaining = list(range(len(atoms)))
    ordered: list[int] = []
    bound: set[Var] = set()
    if first_atom is not None:
        remaining.remove(first_atom)
        ordered.append(first_atom)
        bound |= atoms[first_atom].variables()
    while remaining:
        best = max(remaining,
                   key=lambda i, bound=bound: (
                       len(atoms[i].variables() & bound),
                       -len(atoms[i].variables())))
        ordered.append(best)
        remaining.remove(best)
        bound |= atoms[best].variables()
    return ordered


def compile_plan(query: ConjunctiveQuery,
                 first_atom: int | None = None) -> CompiledPlan:
    """Compile *query*'s body into an ordered, index-aware plan.

    *first_atom*, when given, pins that atom (by its position in
    ``query.relation_atoms``) as the first step — the hook semi-naive
    delta evaluation uses to drive the join from Δ.
    """
    satisfiable = True
    pending: list[Eq | Neq] = []
    for comparison in query.comparisons:
        if comparison.variables():
            pending.append(comparison)
        else:  # ground: decide now
            if not comparison.holds(comparison.left.value,
                                    comparison.right.value):
                satisfiable = False

    atoms = query.relation_atoms
    steps: list[PlanStep] = []
    bound: set[Var] = set()
    for atom_index in _greedy_order(query, first_atom):
        atom = atoms[atom_index]
        key_positions: list[int] = []
        key_terms: list[Term] = []
        outputs: list[tuple[int, Var]] = []
        intra_checks: list[tuple[int, Var]] = []
        new_here: set[Var] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const) or (isinstance(term, Var)
                                           and term in bound):
                key_positions.append(position)
                key_terms.append(term)
            elif term in new_here:
                intra_checks.append((position, term))
            else:
                outputs.append((position, term))
                new_here.add(term)
        bound |= new_here
        decidable = [c for c in pending if c.variables() <= bound]
        pending = [c for c in pending if c.variables() - bound]
        steps.append(PlanStep(
            atom_index=atom_index,
            relation=atom.relation,
            key_positions=tuple(key_positions),
            key_terms=tuple(key_terms),
            outputs=tuple(outputs),
            intra_checks=tuple(intra_checks),
            comparisons=tuple(decidable)))
    # Safety guarantees every comparison variable occurs in some relation
    # atom, so nothing can remain pending after the last step.
    assert not pending, "unsafe query slipped past ConjunctiveQuery"
    return CompiledPlan(query=query, steps=tuple(steps),
                        head=query.head, satisfiable=satisfiable)
