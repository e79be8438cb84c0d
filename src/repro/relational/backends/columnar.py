"""Columnar storage: interned constants, set-at-a-time join execution.

Every distinct constant of the instance is *interned* — assigned a small
integer code by a plain dict lookup, so two values share a code exactly
when Python considers them equal (the same equivalence the frozenset
contents collapse under).  Relations become lists of coded rows, and the
lazily built hash indexes group coded rows by coded keys.

Execution is breadth-first instead of the executor's depth-first
backtracking: a *batch* of partial binding environments (tuples of
codes, one slot per bound variable) flows through the plan, and each
step expands the whole batch against its index in one pass, deduping
between steps.  All comparisons in plans are ``=`` / ``≠``
(:mod:`repro.engine.plan`), so they run directly on the codes.

Candidate extensions never rebuild the storage: ``Δ`` rows are interned
on the fly and probed as a per-relation overlay next to the base index,
and :meth:`ColumnarStorage.derive` produces the storage of ``D ∪ Δ`` by
sharing the interner, the unchanged column lists, and the already built
indexes of unchanged relations.  A block of candidates runs as one
batch: each overlay row carries its candidate's index ``vid``, every
environment carries a tag in slot 0 (base-only, or the one candidate
whose rows it bound), and a tagged environment joins only its own
candidate's rows (:meth:`ColumnarStorage.plan_violations`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.queries.atoms import Eq
from repro.queries.terms import Const, Var
from repro.relational.backends import (DeltaRows, OnBlockBuild, OnBuild,
                                       StorageBackend, constant_verdict,
                                       project_allowed)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan, PlanStep
    from repro.relational.instance import Instance

__all__ = ["ColumnarStorage"]

#: A value source inside a batch program: ``(True, slot)`` reads the
#: environment slot, ``(False, value)`` is an interned constant code.
_FROM_ENV = True
_CONST = False

#: The candidate tag of an environment that binds base rows only.
_BASE = -1


class _BatchStep:
    """One plan step compiled against the interner: everything resolved
    to environment slots and constant codes."""

    __slots__ = ("relation", "key_positions", "key_sources",
                 "out_positions", "intra", "comparisons", "width")

    def __init__(self, relation: str, key_positions: tuple[int, ...],
                 key_sources: tuple, out_positions: tuple[int, ...],
                 intra: tuple, comparisons: tuple, width: int) -> None:
        self.relation = relation
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.out_positions = out_positions
        self.intra = intra
        self.comparisons = comparisons
        self.width = width


class _BatchProgram:
    """A plan compiled to batch steps, plus what reading its answers
    needs: the slot of each head term (constants get a dummy slot,
    never read) and the slots of the distinct head variables in
    first-occurrence order (the columns an answer is checked on)."""

    __slots__ = ("plan", "steps", "head_slots", "var_slots", "allowed")

    def __init__(self, plan: "CompiledPlan", steps: list[_BatchStep],
                 slots: dict[Var, int]) -> None:
        self.plan = plan
        self.steps = steps
        self.head_slots = tuple(slots[term] if isinstance(term, Var) else 0
                                for term in plan.head)
        self.var_slots = tuple(slots[term] for term in dict.fromkeys(
            t for t in plan.head if isinstance(t, Var)))
        #: (allowed rows, their projection onto var_slots) — cached.
        self.allowed: tuple[frozenset[tuple], set[tuple[int, ...]]] | None \
            = None


class ColumnarStorage(StorageBackend):
    """Per-relation coded row lists with batch (set-at-a-time) joins."""

    kind = "columnar"

    def __init__(self, instance: "Instance",
                 _shared: "ColumnarStorage | None" = None) -> None:
        super().__init__(instance)
        if _shared is None:
            self._codes: dict[Any, int] = {}
            self._values: list[Any] = []
            self._rows: dict[str, list[tuple[int, ...]]] = {
                name: [self._encode_row(row) for row in rows]
                for name, rows in instance}
            self._indexes: dict[tuple[str, tuple[int, ...]],
                                dict[tuple, list[tuple[int, ...]]]] = {}
            self._programs: dict[int, _BatchProgram] = {}
        # _shared construction is finished by derive().

    # -- interning -----------------------------------------------------

    def _intern(self, value: Any) -> int:
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def _encode_row(self, row: tuple) -> tuple[int, ...]:
        return tuple(self._intern(value) for value in row)

    # -- indexes -------------------------------------------------------

    def _index_for(self, relation: str, positions: tuple[int, ...],
                   ) -> dict[tuple, list[tuple[int, ...]]]:
        index = self._indexes.get((relation, positions))
        if index is None:
            index = {}
            for row in self._rows.get(relation, ()):
                key = tuple(row[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[(relation, positions)] = index
        return index

    # -- batch program compilation ------------------------------------

    def _program(self, plan: "CompiledPlan") -> _BatchProgram:
        program = self._programs.get(id(plan))
        if program is not None and program.plan is plan:
            return program
        slots: dict[Var, int] = {}
        steps = [self._compile_step(step, slots) for step in plan.steps]
        program = _BatchProgram(plan, steps, slots)
        self._programs[id(plan)] = program
        return program

    def _compile_step(self, step: "PlanStep",
                      slots: dict[Var, int]) -> _BatchStep:
        # Slot 0 of every environment is its candidate tag.
        key_sources = tuple(
            (_CONST, self._intern(term.value)) if isinstance(term, Const)
            else (_FROM_ENV, slots[term])
            for term in step.key_terms)
        out_positions = tuple(position for position, _ in step.outputs)
        for _, variable in step.outputs:
            slots[variable] = len(slots) + 1
        intra = tuple((position, slots[variable])
                      for position, variable in step.intra_checks)
        comparisons = tuple(
            (isinstance(comparison, Eq),
             self._operand(comparison.left, slots),
             self._operand(comparison.right, slots))
            for comparison in step.comparisons)
        return _BatchStep(step.relation, step.key_positions, key_sources,
                          out_positions, intra, comparisons,
                          len(slots) + 1)

    def _operand(self, term: Any, slots: dict[Var, int]) -> tuple:
        if isinstance(term, Const):
            return (_CONST, self._intern(term.value))
        return (_FROM_ENV, slots[term])

    # -- execution -----------------------------------------------------

    def _overlay(self, deltas: Sequence[DeltaRows],
                 ) -> dict[str, list[tuple[int, tuple[int, ...]]]]:
        """Every candidate's Δ-rows, interned and tagged with the
        candidate's index, grouped by relation."""
        overlay: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
        for vid, delta in enumerate(deltas):
            for name, rows in delta.items():
                if rows:
                    overlay.setdefault(name, []).extend(
                        (vid, self._encode_row(tuple(row)))
                        for row in rows)
        return overlay

    def _execute(self, program: _BatchProgram,
                 overlay: dict[str, list[tuple[int, tuple[int, ...]]]],
                 candidates: int, on_build: OnBlockBuild | None,
                 ) -> set[tuple[int, ...]]:
        """The final environments of *program* over ``instance ∪ Δ_v``
        for every candidate ``v < candidates`` at once.

        Slot 0 tags each environment: :data:`_BASE` while it binds base
        rows only, ``v`` once it binds a row of candidate ``v``.  A base
        environment joins every candidate's overlay rows (taking their
        tag); a tagged one joins only its own candidate's, so Δ-rows
        never join across candidates, and the base part of the join is
        computed once for the whole block.  Candidate ``v`` requires a
        step's index when its own run would reach the step: some base
        or ``v``-tagged environment survived the steps before.
        """
        envs: set[tuple[int, ...]] = {(_BASE,)}
        for bstep in program.steps:
            if on_build is not None:
                tags = {env[0] for env in envs}
                for vid in (range(candidates) if _BASE in tags
                            else sorted(tags)):
                    on_build(vid, bstep.relation, bstep.key_positions)
            index = self._index_for(bstep.relation, bstep.key_positions)
            tagged = self._tagged_index(overlay.get(bstep.relation),
                                        bstep.key_positions)
            key_sources = bstep.key_sources
            out_positions = bstep.out_positions
            intra = bstep.intra
            comparisons = bstep.comparisons
            next_envs: set[tuple[int, ...]] = set()
            for env in envs:
                key = tuple(code if tag is _CONST else env[code]
                            for tag, code in key_sources)
                matches = [(env, index.get(key, _NO_ROWS))]
                by_vid = tagged.get(key) if tagged else None
                if by_vid:
                    if env[0] == _BASE:
                        rest = env[1:]
                        matches.extend(((vid,) + rest, rows)
                                       for vid, rows in by_vid.items())
                    elif env[0] in by_vid:
                        matches.append((env, by_vid[env[0]]))
                for source, rows in matches:
                    for row in rows:
                        ext = source + tuple(row[p] for p in out_positions)
                        if any(row[p] != ext[s] for p, s in intra):
                            continue
                        if comparisons and not self._comparisons_hold(
                                bstep, ext):
                            continue
                        next_envs.add(ext)
            if not next_envs:
                return next_envs
            envs = next_envs
        return envs

    @staticmethod
    def _tagged_index(tagged: list[tuple[int, tuple[int, ...]]] | None,
                      positions: tuple[int, ...],
                      ) -> dict[tuple, dict[int, list[tuple[int, ...]]]]:
        """Tagged overlay rows grouped by key, then by candidate."""
        index: dict[tuple, dict[int, list[tuple[int, ...]]]] = {}
        for vid, row in tagged or ():
            index.setdefault(tuple(row[p] for p in positions), {}) \
                .setdefault(vid, []).append(row)
        return index

    def _decode(self, program: _BatchProgram,
                envs: set[tuple[int, ...]]) -> frozenset[tuple]:
        values = self._values
        head = program.plan.head
        slots = program.head_slots
        return frozenset(
            tuple(term.value if isinstance(term, Const)
                  else values[env[slot]]
                  for term, slot in zip(head, slots))
            for env in envs)

    def _projected(self, program: _BatchProgram,
                   allowed: frozenset[tuple]) -> set[tuple[int, ...]]:
        cached = program.allowed
        if cached is None or cached[0] is not allowed:
            cached = (allowed, project_allowed(program.plan.head, allowed,
                                               self._intern))
            program.allowed = cached
        return cached[1]

    @staticmethod
    def _comparisons_hold(bstep: _BatchStep,
                          env: tuple[int, ...]) -> bool:
        for is_eq, left, right in bstep.comparisons:
            lcode = left[1] if left[0] is _CONST else env[left[1]]
            rcode = right[1] if right[0] is _CONST else env[right[1]]
            if (lcode == rcode) is not is_eq:
                return False
        return True

    # -- StorageBackend API --------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        return self.plan_rows_extended(plan, {}, on_build=on_build)

    def plan_rows_extended(self, plan: "CompiledPlan", delta: DeltaRows, *,
                           on_build: OnBuild | None = None,
                           ) -> frozenset[tuple]:
        if not plan.satisfiable:
            return frozenset()
        program = self._program(plan)
        report = None if on_build is None else (
            lambda _, relation, positions: on_build(relation, positions))
        envs = self._execute(program, self._overlay([delta]), 1, report)
        return self._decode(program, envs)

    def plan_violations(self, plan: "CompiledPlan",
                        deltas: Sequence[DeltaRows],
                        allowed: frozenset[tuple] | None, *,
                        on_build: OnBlockBuild | None = None,
                        ) -> set[int]:
        verdict = constant_verdict(plan, allowed)
        if verdict is not None:
            return set(range(len(deltas))) if verdict else set()
        program = self._program(plan)
        envs = self._execute(program, self._overlay(deltas), len(deltas),
                             on_build)
        projected = (None if allowed is None
                     else self._projected(program, allowed))
        var_slots = program.var_slots
        violating: set[int] = set()
        for env in envs:
            if projected is not None and tuple(
                    env[s] for s in var_slots) in projected:
                continue
            if env[0] == _BASE:  # Q(D) itself escapes: every Δ violates
                return set(range(len(deltas)))
            violating.add(env[0])
        return violating

    def derive(self, extended: "Instance",
               new_rows: DeltaRows) -> "ColumnarStorage":
        """Storage for ``D ∪ Δ`` by structure sharing: the interner and
        batch programs are shared outright (append-only / plan-keyed),
        unchanged relations keep their column lists *and* built indexes,
        and changed relations copy-and-append their lists, rebuilding
        indexes lazily."""
        derived = ColumnarStorage.__new__(ColumnarStorage)
        StorageBackend.__init__(derived, extended)
        derived._codes = self._codes
        derived._values = self._values
        derived._programs = self._programs
        derived._rows = dict(self._rows)
        for name, rows in new_rows.items():
            fresh = list(self._rows.get(name, ()))
            fresh.extend(self._encode_row(tuple(row)) for row in rows)
            derived._rows[name] = fresh
        changed = set(new_rows)
        derived._indexes = {
            key: index for key, index in self._indexes.items()
            if key[0] not in changed}
        return derived


_NO_ROWS: list[tuple[int, ...]] = []
