"""The reference backend: frozensets of tuples + hash-index probing.

This storage wraps the tuple-at-a-time machinery that predates the
backend seam — :class:`~repro.engine.indexes.InstanceIndexes` plus the
backtracking executor of :mod:`repro.engine.executor` — behind the
:class:`~repro.relational.backends.StorageBackend` contract.  It is the
semantics oracle the columnar and SQLite backends are differentially
tested against, and the default everywhere.

Extensions ``D ∪ Δ`` are evaluated by the semi-naive delta rule
(:func:`~repro.engine.executor.iter_new_rows`) on top of ``Q(D)``,
which is computed once per plan.  The containment check runs that rule
candidate by candidate, with the subset test of ``Q(D)`` done once per
(plan, allowed rows); every answer is enumerated (no early exit), so
the indexes a candidate requires are those the full evaluation probes.
Like the other backends, the storage reports every index an
evaluation probes, built now or before; the evaluation context charges
each once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.engine.executor import IndexedSource, iter_new_rows, iter_rows
from repro.engine.indexes import InstanceIndexes
from repro.relational.backends import (DeltaRows, OnBlockBuild, OnBuild,
                                       StorageBackend)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan, PlanStep
    from repro.relational.instance import Instance

__all__ = ["PythonRowStorage"]

#: An index requirement: ``(relation, key positions)``.
IndexKey = tuple[str, tuple[int, ...]]


class _RecordingSource(IndexedSource):
    """Base rows through the hash indexes, noting every index probed
    (in first-probe order) in *probed*."""

    __slots__ = ("probed",)

    def __init__(self, indexes: InstanceIndexes,
                 probed: dict[IndexKey, None]) -> None:
        self.indexes = indexes
        self.probed = probed

    def rows(self, step: "PlanStep", key: tuple) -> list[tuple]:
        self.probed[step.relation, step.key_positions] = None
        return self.indexes.lookup(step.relation, step.key_positions, key)


class _Base:
    """What checking one plan needs from the base instance, computed
    once: ``Q(D)``, the indexes computing it probed, whether ``Q(D)``
    settles every extension (a Boolean query true on ``D`` stays true,
    so nothing new can be found), and the verdict of its subset test
    against the last allowed set seen."""

    __slots__ = ("plan", "answers", "probes", "settled", "allowed",
                 "violates")

    def __init__(self, plan: "CompiledPlan",
                 indexes: InstanceIndexes) -> None:
        self.plan = plan
        probed: dict[IndexKey, None] = {}
        source = _RecordingSource(indexes, probed)
        self.answers = frozenset(
            iter_rows(plan, (source,) * len(plan.steps)))
        self.probes = tuple(probed)
        self.settled = not plan.head and bool(self.answers)
        self.allowed: frozenset[tuple] | None = None
        self.violates = bool(self.answers)


class PythonRowStorage(StorageBackend):
    """Hash-indexed row sets probed tuple-at-a-time."""

    kind = "python"

    def __init__(self, instance: "Instance") -> None:
        super().__init__(instance)
        self._indexes = InstanceIndexes(instance)
        self._bases: dict[int, _Base] = {}

    def _base(self, plan: "CompiledPlan") -> _Base:
        base = self._bases.get(id(plan))
        if base is None or base.plan is not plan:
            base = _Base(plan, self._indexes)
            self._bases[id(plan)] = base
        return base

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        return self.plan_rows_extended(plan, {}, on_build=on_build)

    def plan_rows_extended(self, plan: "CompiledPlan", delta: DeltaRows, *,
                           on_build: OnBuild | None = None,
                           ) -> frozenset[tuple]:
        base = self._base(plan)
        probed = dict.fromkeys(base.probes)
        rows = base.answers
        if any(delta.values()):
            rows = rows.union(iter_new_rows(
                plan, _RecordingSource(self._indexes, probed), delta))
        if on_build is not None:
            for relation, positions in probed:
                on_build(relation, positions)
        return rows

    def plan_violations(self, plan: "CompiledPlan",
                        deltas: Sequence[DeltaRows],
                        allowed: frozenset[tuple] | None, *,
                        on_build: OnBlockBuild | None = None,
                        ) -> set[int]:
        # Unsatisfiable and atom-less plans need no special case here:
        # their Q(D) is empty or the constant head, and no Δ adds to it.
        base = self._base(plan)
        if allowed is not base.allowed:
            base.allowed = allowed
            base.violates = (bool(base.answers) if allowed is None
                             else not base.answers <= allowed)
        violating: set[int] = set()
        for vid, delta in enumerate(deltas):
            probed = dict.fromkeys(base.probes)
            violates = base.violates
            if delta and not base.settled:
                # Enumerate every new answer, even once one violates:
                # the probes are this candidate's index requirements.
                for row in iter_new_rows(
                        plan, _RecordingSource(self._indexes, probed),
                        delta):
                    if not violates and (allowed is None
                                         or row not in allowed):
                        violates = True
            if violates:
                violating.add(vid)
            if on_build is not None:
                for relation, positions in probed:
                    on_build(vid, relation, positions)
        return violating
