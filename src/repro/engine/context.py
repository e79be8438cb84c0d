"""The :class:`EvaluationContext`: shared caches for one decision.

Every decision procedure in this library evaluates the same handful of
queries and constraints against the same master data and a stream of
candidate extensions.  The context is the object that makes that cheap:

* **compiled plans** per query body — compiled once, reused for every
  instance;
* **index charging**: every evaluation runs on the instance's storage
  (:mod:`repro.relational.backends`), which builds its indexes lazily
  per ``(relation, bound positions)`` pair and reports each one a plan
  requires; the context charges each once per instance to the attached
  governor (:meth:`EvaluationContext.build_charger`);
* **answer memoization** ``Q(D)`` per ``(query, instance)`` pair;
* **master projections** ``p(Dm)`` per ``(projection, master)`` pair —
  previously recomputed on every single constraint check;
* **delta evaluation** ``Q(D ∪ Δ)`` from cached ``Q(D)`` via the
  semi-naive rule (at least one atom must match a new Δ-fact);
* **containment checks** ``q(D ∪ Δ) ⊆ p(Dm)`` per block of candidate
  extensions, with the per-(constraint, base, master) part — plans,
  the allowed rows — prepared once (:meth:`EvaluationContext.
  extension_violations`).

Caches are keyed by ``id()`` with the instance pinned in an LRU table;
eviction purges every dependent cache entry, so a recycled ``id()`` can
never alias stale answers.

A context is optional everywhere: every public API works without one,
and creates no cross-call state when none is given.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Sequence)

from repro.engine.plan import CompiledPlan, compile_plan
from repro.relational.backends import resolve_backend_name
from repro.relational.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SearchStatistics
    from repro.relational.backends import (DeltaRows, OnBlockBuild,
                                           OnBuild, StorageBackend)
    from repro.runtime.governor import ExecutionGovernor

__all__ = ["EngineStatistics", "EvaluationContext", "ENGINE_LANGUAGES"]

#: Query languages the compiled/indexed/delta paths understand.  They are
#: exactly the monotone languages of the paper's decidable fragment —
#: monotonicity is what makes the semi-naive delta rule sound.  FO and FP
#: queries fall back to their own evaluators (still answer-cached).
ENGINE_LANGUAGES = frozenset({"CQ", "UCQ", "EFO"})

#: Facts are ``(relation name, row)`` pairs throughout the library.
Fact = tuple[str, tuple]


class EngineStatistics:
    """Mutable engine counters; snapshot with :meth:`copy`, diff with
    :meth:`since` to fold a decision's share into its result stats."""

    __slots__ = ("plans_compiled", "index_builds", "cache_hits",
                 "cache_misses", "delta_evaluations", "full_evaluations")

    def __init__(self) -> None:
        self.plans_compiled = 0
        self.index_builds = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.delta_evaluations = 0
        self.full_evaluations = 0

    def copy(self) -> "EngineStatistics":
        snapshot = EngineStatistics()
        for field in self.__slots__:
            setattr(snapshot, field, getattr(self, field))
        return snapshot

    def since(self, earlier: "EngineStatistics") -> "SearchStatistics":
        """The work done between *earlier* and now, as the immutable
        :class:`~repro.core.results.SearchStatistics` deciders report."""
        from repro.core.results import SearchStatistics

        return SearchStatistics(
            plans_compiled=self.plans_compiled - earlier.plans_compiled,
            index_builds=self.index_builds - earlier.index_builds,
            engine_cache_hits=self.cache_hits - earlier.cache_hits,
            delta_evaluations=(self.delta_evaluations
                               - earlier.delta_evaluations),
            full_evaluations=(self.full_evaluations
                              - earlier.full_evaluations))

    def __repr__(self) -> str:
        parts = ", ".join(f"{field}={getattr(self, field)}"
                          for field in self.__slots__)
        return f"EngineStatistics({parts})"


class EvaluationContext:
    """Shared evaluation state for one decision (or one audit session).

    ``governor`` is deliberately mutable: deciders attach their
    governor only around the search loop (via
    :meth:`governed`), so engine work during setup — baseline answers,
    master projections — is never charged, keeping the governor's tick
    accounting identical to the pre-engine code.

    ``backend`` selects the storage backend every evaluation routes
    through (:mod:`repro.relational.backends`): ``"python"`` keeps the
    original tuple-at-a-time executor and semi-naive delta rule;
    ``"columnar"`` and ``"sqlite"`` run set-at-a-time / pushed-down SQL
    plans with identical answers.  ``None`` resolves via the
    ``REPRO_BACKEND`` environment variable.
    """

    __slots__ = ("_meter", "statistics", "max_cached_instances",
                 "backend", "_instances", "_answers",
                 "_projections", "_queries", "_plans", "_memo", "_pinned",
                 "_chargers", "_checks", "_storages")

    def __init__(self, *, governor: "ExecutionGovernor | None" = None,
                 max_cached_instances: int = 256,
                 backend: str | None = None) -> None:
        self.backend = resolve_backend_name(backend)
        self.statistics = EngineStatistics()
        self._meter = _Meter(governor, self.statistics)
        self.max_cached_instances = max_cached_instances
        #: LRU of pinned instances: id -> Instance (insertion-ordered).
        self._instances: dict[int, Instance] = {}
        #: per-instance answer cache: instance id -> {query id: answers}.
        self._answers: dict[int, dict[int, frozenset[tuple]]] = {}
        #: per-instance projection cache: instance id -> {p: p(Dm)}.
        self._projections: dict[int, dict[Any, frozenset[tuple]]] = {}
        #: queries pinned forever (there are few of them).
        self._queries: dict[int, Any] = {}
        self._plans: dict[int, CompiledPlan] = {}
        self._memo: dict[Any, Any] = {}
        self._pinned: dict[int, Any] = {}
        #: per instance id, the callbacks charging its indexes once —
        #: storages are shared across contexts, so build accounting
        #: must be deduplicated here to stay run-deterministic.
        self._chargers: dict[int, tuple["OnBuild", "OnBlockBuild"]] = {}
        #: prepared containment checks, per base instance id:
        #: {(query id, projection id, master id): _PreparedCheck}.
        self._checks: dict[int, dict[tuple, _PreparedCheck]] = {}
        #: this context's python storages, per instance id.
        self._storages: dict[int, "StorageBackend"] = {}

    # ------------------------------------------------------------------
    # Pinning and eviction
    # ------------------------------------------------------------------

    def _pin_instance(self, instance: Instance) -> int:
        """Pin *instance* in the LRU; return its ``id()`` cache key."""
        key = id(instance)
        if key in self._instances:
            # refresh LRU position
            self._instances[key] = self._instances.pop(key)
            return key
        self._instances[key] = instance
        if len(self._instances) > self.max_cached_instances:
            oldest = next(iter(self._instances))
            self._evict_instance(oldest)
        return key

    def _evict_instance(self, key: int) -> None:
        """Drop an instance and every cache entry derived from it, so a
        future object reusing the same ``id()`` cannot alias it."""
        self._instances.pop(key, None)
        self._answers.pop(key, None)
        self._projections.pop(key, None)
        self._chargers.pop(key, None)
        self._storages.pop(key, None)
        self._checks.pop(key, None)

    def _pin_query(self, query: Any) -> int:
        key = id(query)
        if key not in self._queries:
            self._queries[key] = query
        return key

    # ------------------------------------------------------------------
    # Plans and indexes
    # ------------------------------------------------------------------

    def plan_for(self, query: Any) -> CompiledPlan:
        """The compiled plan of a CQ *query* (its delta plans are
        compiled on demand by the plan itself)."""
        key = self._pin_query(query)
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_plan(query)
            self._plans[key] = plan
            self.statistics.plans_compiled += 1
        return plan

    def storage_for(self, instance: Instance) -> "StorageBackend":
        """The storage every evaluation on *instance* routes through.

        A columnar or SQLite storage is costly to build, so it is the
        one cached on the instance and shared by every context (the
        instance is pinned so it survives the LRU).  A python storage
        is cheap to build but accumulates per-decision state (hash
        indexes, ``Q(D)`` per plan), so each context owns its own and
        drops it with the instance's other cache entries.
        """
        key = self._pin_instance(instance)
        if self.backend != "python":
            return instance.storage(self.backend)
        storage = self._storages.get(key)
        if storage is None:
            from repro.relational.backends import create_storage

            storage = create_storage("python", instance)
            self._storages[key] = storage
        return storage

    @property
    def governor(self) -> "ExecutionGovernor | None":
        """The governor index builds are charged to (``None``: none)."""
        return self._meter.governor

    @governor.setter
    def governor(self, governor: "ExecutionGovernor | None") -> None:
        self._meter.governor = governor

    def build_charger(self, instance: Instance) -> "OnBuild":
        """An ``on_build`` callback charging *instance*'s indexes.

        Storages report every index a plan *requires* (the shared ones
        outlive contexts: they are cached on the instance); this
        callback charges each ``(relation, positions)`` pair once per
        instance per context — exactly what a cold run would build —
        keeping the counters identical whether or not the storage is
        pre-warmed.
        A pair counts as charged only once its tick went through, so an
        interrupted charge is charged again by the next requirement.
        """
        return self._chargers_for(instance)[0]

    def _chargers_for(self, instance: Instance,
                      ) -> tuple["OnBuild", "OnBlockBuild"]:
        """:meth:`build_charger` and its block form, which ignores the
        candidate (a one-at-a-time check charges on the spot)."""
        key = self._pin_instance(instance)
        chargers = self._chargers.get(key)
        if chargers is not None:
            return chargers
        charged: set[tuple[str, tuple[int, ...]]] = set()
        meter = self._meter  # not self: no cycle through the context

        def on_build(relation: str, positions: tuple[int, ...]) -> None:
            index_key = (relation, positions)
            if index_key in charged:
                return
            if meter.governor is not None:
                meter.governor.tick("index_builds")
            meter.statistics.index_builds += 1
            charged.add(index_key)

        def on_block_build(_: int, relation: str,
                           positions: tuple[int, ...]) -> None:
            on_build(relation, positions)

        chargers = self._chargers[key] = (on_build, on_block_build)
        return chargers

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, query: Any, instance: Instance) -> frozenset[tuple]:
        """``Q(D)``, memoized per (query, instance) pair.

        CQ/UCQ/∃FO⁺ run on the compiled, indexed path; other languages
        (FO, FP — non-monotone, not plannable here) fall back to their
        own evaluators, still benefiting from the answer cache.
        """
        instance_key = self._pin_instance(instance)
        query_key = self._pin_query(query)
        per_instance = self._answers.setdefault(instance_key, {})
        cached = per_instance.get(query_key)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        self.statistics.cache_misses += 1
        if getattr(query, "language", None) in ENGINE_LANGUAGES:
            answers = self._engine_evaluate(query, instance)
        else:
            answers = query.evaluate(instance)
        self.statistics.full_evaluations += 1
        per_instance[query_key] = answers
        return answers

    def holds(self, query: Any, instance: Instance) -> bool:
        """``Q(D) ≠ ∅`` (Boolean queries: truth)."""
        return bool(self.evaluate(query, instance))

    def _engine_evaluate(self, query: Any,
                         instance: Instance) -> frozenset[tuple]:
        storage = self.storage_for(instance)
        on_build = self.build_charger(instance)
        rows = [storage.plan_rows(self.plan_for(disjunct), on_build=on_build)
                for disjunct in query.to_cq_disjuncts()]
        if len(rows) == 1:
            return rows[0]  # shared with the storage's own cache
        return frozenset().union(*rows)

    # ------------------------------------------------------------------
    # Delta evaluation
    # ------------------------------------------------------------------

    def evaluate_extension(self, query: Any, base: Instance,
                           delta_facts: Iterable[Fact]) -> frozenset[tuple]:
        """``Q(base ∪ Δ)`` without materializing the union.

        For the monotone engine languages the base's storage adds the
        answers Δ brings to the cached ``Q(base)`` — the python storage
        by the semi-naive rule: every genuinely new answer has at least
        one atom matched by a new Δ-fact, so for each disjunct and each
        atom position ``j`` a delta plan is run in which atom ``j``
        ranges over ``Δ \\ D`` only, atoms at earlier body positions
        over ``D`` only, and later ones over ``D ∪ Δ`` — partitioning the
        new bindings by their minimal Δ-atom so none is enumerated
        twice.  Non-monotone languages (FO, FP) materialize the union
        and evaluate it directly.
        """
        new_rows = self.new_rows(base, delta_facts)
        if getattr(query, "language", None) not in ENGINE_LANGUAGES:
            # Non-monotone fallback: materialize D ∪ Δ.  The union is
            # ephemeral (one per candidate), so it is not answer-cached.
            if not new_rows:
                return query.evaluate(base)
            from repro.relational.instance import extend_unvalidated

            delta = [(name, row) for name, rows in new_rows.items()
                     for row in rows]
            self.statistics.full_evaluations += 1
            return query.evaluate(extend_unvalidated(base, delta))
        base_answers = self.evaluate(query, base)
        if not new_rows:
            return base_answers
        if getattr(query, "arity", None) == 0 and base_answers:
            # Boolean query already true on the base; monotonicity keeps
            # it true under any extension.
            return base_answers
        self.statistics.delta_evaluations += 1
        storage = self.storage_for(base)
        on_build = self.build_charger(base)
        answers = set(base_answers)
        for disjunct in query.to_cq_disjuncts():
            answers.update(storage.plan_rows_extended(
                self.plan_for(disjunct), new_rows, on_build=on_build))
        return frozenset(answers)

    @staticmethod
    def new_rows(base: Instance, delta_facts: Iterable[Fact],
                 ) -> dict[str, list[tuple]]:
        """Δ-facts grouped by relation, minus rows already in *base*."""
        new_rows: dict[str, list[tuple]] = {}
        for name, row in delta_facts:
            row = tuple(row)
            if row not in base.relation(name):
                rows = new_rows.setdefault(name, [])
                if row not in rows:
                    rows.append(row)
        return new_rows

    def extension_satisfies(self, query: Any, base: Instance,
                            delta_facts: Iterable[Fact], projection: Any,
                            master: Instance) -> bool:
        """Whether ``Q(base ∪ Δ) ⊆ p(master)`` — the containment
        constraint check on a candidate extension.

        For the engine languages this is the check of
        :meth:`extension_violations` on a block of one candidate, with
        every index it needs charged on the spot.  A Δ adding nothing
        new reduces to the cached ``Q(base)``; non-engine languages
        evaluate the union.
        """
        if getattr(query, "language", None) in ENGINE_LANGUAGES:
            new_rows = self.new_rows(base, delta_facts)
            if new_rows:
                check = self._prepared_check(query, base, projection,
                                             master)
                self.statistics.delta_evaluations += 1
                return not any(check.storage.plan_violations(
                    plan, (new_rows,), check.allowed, on_build=check.charge)
                    for plan in check.plans)
        answers = self.evaluate_extension(query, base, delta_facts)
        if not answers:
            return True
        if projection.is_empty_target:
            return False
        return answers <= self.projection_rows(projection, master)

    def extension_violations(
            self, constraints: Sequence[Any], base: Instance,
            candidates: Sequence["DeltaRows"], master: Instance, *,
            on_build: Callable[[int, int, str, tuple[int, ...]], None]
            | None = None) -> dict[int, int]:
        """The candidates Δ (by index in *candidates*) for which ``(base
        ∪ Δ, master)`` violates some of the containment *constraints* —
        the constraint check over a block — each mapped to the index of
        the first constraint it violates.

        Each constraint's query must be in :data:`ENGINE_LANGUAGES`;
        each candidate is a Δ grouped by relation and pre-filtered
        against *base* (see :meth:`new_rows`).  Plan by plan —
        constraint by constraint, disjunct by disjunct — the base's
        storage checks the candidates not yet found violating
        (:meth:`~repro.relational.backends.StorageBackend
        .plan_violations`), so a candidate's checks stop at its first
        violation, as one at a time.  *on_build* receives ``(candidate,
        constraint index, relation, positions)`` for each index a
        candidate's check of a constraint requires.  Nothing is charged
        or counted here: the caller charges the requirements (through
        :meth:`build_charger`) and counts a ``delta_evaluations`` per
        constraint a candidate was checked against, where a
        candidate-at-a-time loop would have.
        """
        first: dict[int, int] = {}
        alive = list(range(len(candidates)))
        for index, constraint in enumerate(constraints):
            check = self._prepared_check(constraint.query, base,
                                         constraint.projection, master)
            for plan in check.plans:
                if not alive:
                    return first
                report = None if on_build is None else (
                    lambda k, relation, positions, alive=alive,
                    index=index: on_build(alive[k], index, relation,
                                          positions))
                found = check.storage.plan_violations(
                    plan, [candidates[i] for i in alive], check.allowed,
                    on_build=report)
                if found:
                    for k in found:
                        first[alive[k]] = index
                    alive = [i for k, i in enumerate(alive)
                             if k not in found]
        return first

    def _prepared_check(self, query: Any, base: Instance, projection: Any,
                        master: Instance) -> "_PreparedCheck":
        """The per-(constraint, base, master) part of a containment
        check, built once: the base's storage, the compiled plan of
        every disjunct and the allowed rows (``None`` for ``∅``)."""
        per_base = self._checks.setdefault(self._pin_instance(base), {})
        key = (id(query), id(projection), id(master))
        check = per_base.get(key)
        if check is None or check.query is not query \
                or check.projection is not projection \
                or check.master is not master:
            allowed = (None if projection.is_empty_target
                       else self.projection_rows(projection, master))
            check = _PreparedCheck(
                query, projection, master, self.storage_for(base), allowed,
                tuple(self.plan_for(d) for d in query.to_cq_disjuncts()),
                self._chargers_for(base)[1])
            per_base[key] = check
        return check

    # ------------------------------------------------------------------
    # Master projections
    # ------------------------------------------------------------------

    def projection_rows(self, projection: Any,
                        master: Instance) -> frozenset[tuple]:
        """``p(Dm)``, memoized per (projection, master) pair."""
        key = self._pin_instance(master)
        per_master = self._projections.setdefault(key, {})
        rows = per_master.get(projection)
        if rows is None:
            self.statistics.cache_misses += 1
            rows = projection.evaluate(master)
            per_master[projection] = rows
        else:
            self.statistics.cache_hits += 1
        return rows

    # ------------------------------------------------------------------
    # Generic memoization and governor attachment
    # ------------------------------------------------------------------

    def memo(self, key: Any, factory: Callable[[], Any],
             pin: Iterable[Any] = ()) -> Any:
        """Get-or-compute an arbitrary decision-scoped value.

        Callers keying on ``id()`` of objects must pass those objects in
        *pin* so their ids stay stable for the context's lifetime (used
        by the deciders for tableaux, active domains, and value pools).
        """
        if key in self._memo:
            self.statistics.cache_hits += 1
            return self._memo[key]
        for obj in pin:
            self._pinned.setdefault(id(obj), obj)
        value = factory()
        self._memo[key] = value
        return value

    @contextmanager
    def governed(self, governor: "ExecutionGovernor | None"
                 ) -> Iterator["EvaluationContext"]:
        """Attach *governor* to the context for the duration of a search
        loop, restoring the previous one afterwards.  Index builds that
        happen inside the block tick the governor; engine work outside
        it (setup, baselines) stays uncharged."""
        previous = self.governor
        self.governor = governor
        try:
            yield self
        finally:
            self.governor = previous

    def __repr__(self) -> str:
        return (f"EvaluationContext[instances={len(self._instances)}, "
                f"plans={len(self._plans)}, {self.statistics!r}]")


class _Meter:
    """Where index builds are charged: the attached governor and the
    engine counters.  Chargers hold this rather than the context, so a
    context's caches never form a reference cycle with it and are freed
    as soon as the decision drops the context."""

    __slots__ = ("governor", "statistics")

    def __init__(self, governor: "ExecutionGovernor | None",
                 statistics: EngineStatistics) -> None:
        self.governor = governor
        self.statistics = statistics


class _PreparedCheck:
    """See :meth:`EvaluationContext._prepared_check`; ``charge`` charges
    a requirement of any candidate on the spot (the one-at-a-time
    check)."""

    __slots__ = ("query", "projection", "master", "storage", "allowed",
                 "plans", "charge")

    def __init__(self, query: Any, projection: Any, master: Instance,
                 storage: "StorageBackend",
                 allowed: frozenset[tuple] | None,
                 plans: tuple[CompiledPlan, ...],
                 charge: "OnBlockBuild") -> None:
        self.query = query
        self.projection = projection
        self.master = master
        self.storage = storage
        self.allowed = allowed
        self.plans = plans
        self.charge = charge
