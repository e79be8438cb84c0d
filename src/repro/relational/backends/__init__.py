"""Pluggable storage backends for :class:`~repro.relational.instance.
Instance`.

The decision procedures reduce everything to one operation: evaluate a
compiled CQ plan over ``D`` or over a candidate extension ``D ∪ Δ``.  A
:class:`StorageBackend` is the execution structure that answers those
questions for one (immutable) instance.  Three implementations ship:

``python``
    The reference backend: the instance's frozensets of tuples, probed
    through lazily built hash indexes by the tuple-at-a-time
    backtracking executor (:mod:`repro.engine.executor`).  This is the
    semantics oracle — the other backends must agree with it bit for
    bit on answers.
``columnar``
    Per-relation column arrays of *interned* constants (every distinct
    value becomes a small integer code) with set-at-a-time
    selection/join primitives: each plan step expands a whole batch of
    partial bindings at once instead of recursing row by row
    (:mod:`repro.relational.backends.columnar`).
``sqlite``
    Whole plans lowered to a single SQL statement (pushdown) over an
    in-memory SQLite database bulk-loaded with the interned codes;
    containment violation checks load a whole block of candidate
    extensions into ``vid``-tagged delta tables and ask one grouped
    ``SELECT DISTINCT vid`` per delta plan
    (:mod:`repro.relational.backends.sqlite`).

Containment checks come in *block* form
(:meth:`StorageBackend.plan_violations`): one compiled plan, a list of
candidate Δs and the allowed rows ``p(Dm)``, answered with the indices
of the violating candidates.  The one-candidate check
:meth:`StorageBackend.plan_violates` is that block of one.

Interning is sound because plan comparisons are ``=`` / ``≠`` only
(:mod:`repro.engine.plan` admits no order comparisons) and the interner
is a plain dict keyed by the values themselves — two values receive the
same code exactly when Python considers them equal, which is the same
equivalence the frozenset contents already collapsed under.

Backends attach to an instance via :meth:`Instance.storage` and are
transient: never pickled, rebuilt on demand in worker processes.  See
``docs/BACKENDS.md`` for the contract and the pushdown lowering rules.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import CompiledPlan
    from repro.relational.instance import Instance

__all__ = ["BACKEND_NAMES", "BACKEND_ENV_VAR", "DEFAULT_BACKEND",
           "StorageBackend", "resolve_backend_name", "create_storage"]

#: The selectable backend kinds, in documentation order.
BACKEND_NAMES = ("python", "columnar", "sqlite")

#: Environment variable consulted when no backend is named explicitly —
#: the CI backend matrix runs the whole suite under each value.
BACKEND_ENV_VAR = "REPRO_BACKEND"

DEFAULT_BACKEND = "python"

#: Δ-facts grouped by relation: the rows of each relation genuinely new
#: with respect to the base instance (pre-filtered by the caller).
DeltaRows = Mapping[str, Sequence[tuple]]

#: Callback invoked with ``(relation, positions)`` for every index /
#: acceleration structure a plan *requires* (built or already present):
#: storages are shared across evaluation contexts, so the context — not
#: the storage — deduplicates the charge (governor ticks and the
#: ``index_builds`` counter) once per instance, keeping counters
#: identical whether or not the storage was pre-warmed.
OnBuild = Callable[[str, tuple[int, ...]], None]

#: The block form of :data:`OnBuild`: ``(candidate, relation,
#: positions)`` — a structure that evaluating candidate number
#: *candidate* of the block requires.  Every candidate reports its own
#: requirements, so the caller can charge each one where a
#: candidate-at-a-time loop would have (see
#: :meth:`StorageBackend.plan_violations`).
OnBlockBuild = Callable[[int, str, tuple[int, ...]], None]


def resolve_backend_name(name: str | None = None) -> str:
    """Normalize a backend choice: explicit name > ``$REPRO_BACKEND`` >
    ``"python"``.  Unknown names raise :class:`~repro.errors.ReproError`
    (typos must not silently fall back to a different engine)."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in BACKEND_NAMES:
        raise ReproError(
            f"unknown storage backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}")
    return name


class StorageBackend:
    """The contract every instance storage implements.

    A storage belongs to exactly one immutable instance.  All methods
    are *pure* with respect to the instance's logical contents; the only
    mutable state is lazily built acceleration structure (hash indexes,
    SQL indexes), reported through the per-call *on_build* callback.

    ``plan_rows`` / ``plan_rows_extended`` return exactly the rows the
    reference evaluator returns — set semantics, decoded to the original
    Python values.  ``plan_violations`` is the containment check over a
    block of candidate extensions: it may stop at the first offending
    answer of each candidate, but its verdicts must equal the
    full-evaluation subset test, candidate by candidate.
    """

    #: Set by each implementation to its :data:`BACKEND_NAMES` entry.
    kind: str = "abstract"

    def __init__(self, instance: "Instance") -> None:
        self.instance = instance

    # -- evaluation ----------------------------------------------------

    def plan_rows(self, plan: "CompiledPlan", *,
                  on_build: OnBuild | None = None) -> frozenset[tuple]:
        """All head rows of *plan* over the instance (set semantics)."""
        raise NotImplementedError

    def plan_rows_extended(self, plan: "CompiledPlan", delta: DeltaRows, *,
                           on_build: OnBuild | None = None,
                           ) -> frozenset[tuple]:
        """All head rows of *plan* over ``instance ∪ Δ``, without
        materializing the union instance."""
        raise NotImplementedError

    def plan_violations(self, plan: "CompiledPlan",
                        deltas: Sequence[DeltaRows],
                        allowed: frozenset[tuple] | None, *,
                        on_build: OnBlockBuild | None = None,
                        ) -> set[int]:
        """The indices of the candidates ``Δ_v`` in *deltas* for which
        *plan* over ``instance ∪ Δ_v`` has an answer outside *allowed*
        (``None`` encodes the empty target ``∅``: any answer at all
        violates).

        Candidates never see each other's rows.  *on_build* receives,
        per candidate, every index the check of that candidate requires
        — exactly what checking it alone would report — so the caller
        can charge the requirements in candidate order however the
        block was evaluated.
        """
        raise NotImplementedError

    def plan_violates(self, plan: "CompiledPlan", delta: DeltaRows,
                      allowed: frozenset[tuple] | None, *,
                      on_build: OnBuild | None = None) -> bool:
        """:meth:`plan_violations` for a block of one candidate."""
        report = None if on_build is None else (
            lambda _, relation, positions: on_build(relation, positions))
        return bool(self.plan_violations(plan, [delta], allowed,
                                         on_build=report))

    # -- extension derivation ------------------------------------------

    def derive(self, extended: "Instance",
               new_rows: DeltaRows) -> "StorageBackend | None":
        """A storage for *extended* = ``instance ∪ new_rows``, reusing
        this storage's structure where possible.  ``None`` means "no
        cheap derivation" — the extended instance builds a storage from
        scratch if and when one is requested."""
        return None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}[{self.kind}, "
                f"{self.instance.total_tuples} tuple(s)]")


def constant_verdict(plan: "CompiledPlan",
                     allowed: frozenset[tuple] | None) -> bool | None:
    """The violation verdict of a plan that reads no rows, or ``None``.

    A ground-false plan never answers; an atom-less plan answers its
    constant head whatever the instance.  Neither requires an index.
    """
    if not plan.satisfiable:
        return False
    if not plan.steps:
        return allowed is None or plan_head_constants(plan) not in allowed
    return None


def plan_head_constants(plan: "CompiledPlan") -> tuple:
    """The single answer row of an atom-less (hence all-constant) plan."""
    return tuple(term.value for term in plan.head)


def project_allowed(head: Sequence[Any], allowed: frozenset[tuple],
                    intern: Callable[[Any], int],
                    ) -> set[tuple[int, ...]]:
    """Project *allowed* rows onto the distinct variables of *head*.

    The result holds, per allowed row consistent with the head's
    constants and repeated variables, the interned codes of the head
    variables in first-occurrence order — the shape of an answer's
    selected columns on an interning backend.  Inconsistent rows can
    never be produced and are dropped.  For an all-constant head the
    result is ``{()}`` when some allowed row equals the head (no answer
    can violate) and empty otherwise (every answer violates).
    """
    from repro.queries.terms import Const, Var

    variables = list(dict.fromkeys(
        term for term in head if isinstance(term, Var)))
    projected: set[tuple[int, ...]] = set()
    for row in allowed:
        if len(row) != len(head):
            continue
        cells: dict[Any, int] = {}
        for term, value in zip(head, row):
            if isinstance(term, Const):
                if value != term.value:
                    break
            else:
                code = intern(value)
                if cells.setdefault(term, code) != code:
                    break
        else:
            projected.add(tuple(cells[v] for v in variables))
    return projected


def create_storage(kind: str, instance: "Instance") -> StorageBackend:
    """Build a fresh storage of *kind* for *instance*.

    Implementations import lazily: they depend on :mod:`repro.engine`
    modules that in turn import this registry, and deferring the import
    to first use keeps the package import-cycle free.
    """
    kind = resolve_backend_name(kind)
    if kind == "python":
        from repro.relational.backends.python_rows import PythonRowStorage

        return PythonRowStorage(instance)
    if kind == "columnar":
        from repro.relational.backends.columnar import ColumnarStorage

        return ColumnarStorage(instance)
    from repro.relational.backends.sqlite import SQLiteStorage

    return SQLiteStorage(instance)
