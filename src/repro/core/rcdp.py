"""RCDP — the relatively complete database problem (Section 3).

Given a query ``Q`` (CQ / UCQ / ∃FO⁺), master data ``Dm``, containment
constraints ``V`` (same languages, or INDs), and a partially closed ``D``,
decide whether ``D ∈ RCQ(Q, Dm, V)``.

The decider implements the Σᵖ₂ algorithm from the proof of Theorem 3.6,
justified by the characterizations of Proposition 3.3 (conditions C1/C2 for
CQ), Corollary 3.4 (C3 for INDs), and Corollary 3.5 (C4 for UCQ):

1. enumerate a CQ disjunct ``Q_i = (T_i, u_i)`` of ``Q``;
2. enumerate a *valid valuation* ``μ`` of ``T_i`` over the active domain;
3. reject the guess when ``μ(u_i) ∈ Q(D)``;
4. otherwise test ``(D ∪ μ(T_i), Dm) ⊨ V`` — when ``V`` consists of INDs,
   testing ``(μ(T_i), Dm) ⊨ V`` suffices (Corollary 3.4), since ``D`` is
   already partially closed and IND satisfaction is tuple-local;
5. a surviving guess is a counterexample: ``D`` is INCOMPLETE, and the
   instantiated tableau is returned as a certificate.  If no guess survives,
   ``D`` is COMPLETE.

The enumeration is *governed* (:mod:`repro.runtime`): a budget, deadline,
cancellation token, or injected fault can interrupt it at any valuation
boundary.  Under ``on_exhausted="partial"`` the decider then degrades
gracefully — it returns an :class:`~repro.core.results.RCDPStatus.EXHAUSTED`
result carrying the statistics accumulated so far and a resumable
:class:`~repro.runtime.checkpoint.SearchCheckpoint`; under the default
``"error"`` mode it raises :class:`~repro.errors.SearchBudgetExceededError`
with the same data attached.

FO / FP queries or constraints raise
:class:`~repro.errors.UndecidableConfigurationError` (Theorem 3.1); use
:mod:`repro.core.bounded` for best-effort semi-decision.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Sequence

from repro.analysis.diagnostics import Report
from repro.analysis.driver import validate_for_decision
from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all,
                                           satisfies_all_extension,
                                           violated_constraints)
from repro.core.results import (IncompletenessCertificate,
                                MissingAnswersReport, RCDPResult,
                                RCDPStatus, SearchStatistics)
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.engine import EvaluationContext, decision_key
from repro.errors import (ExecutionInterrupted, NotPartiallyClosedError,
                          UndecidableConfigurationError)
from repro.obs import obs_of, obs_span, traced
from repro.queries.tableau import Tableau
from repro.relational.instance import Instance, extend_unvalidated
from repro.runtime import (ExecutionGovernor, SearchCheckpoint,
                           resolve_governor, validate_exhaustion_mode)

__all__ = ["decide_rcdp", "enumerate_missing_answers",
           "missing_answers_report", "split_ind_constraints",
           "assert_decidable_configuration", "ensure_partially_closed",
           "resolve_context", "resolve_analysis"]

_DECIDABLE = frozenset({"CQ", "UCQ", "EFO"})

RowFilter = Callable[[str, tuple], bool]


def resolve_context(context: EvaluationContext | None,
                    use_engine: bool,
                    backend: str | None = None) -> EvaluationContext | None:
    """Normalize a decider's ``(context, use_engine, backend)`` triple.

    ``use_engine=False`` forces the pre-engine evaluation paths (for
    ablation and the engine-equivalence property tests); otherwise a
    private context is created when the caller did not supply a shared
    one, running on *backend* (one of
    :data:`~repro.relational.backends.BACKEND_NAMES`, ``None`` resolving
    via ``$REPRO_BACKEND``).  A caller-supplied context keeps its own
    backend.
    """
    if not use_engine:
        return None
    return context if context is not None else EvaluationContext(
        backend=backend)


def assert_decidable_configuration(
        query: Any,
        constraints: Sequence[ContainmentConstraint]) -> None:
    """Raise unless ``(L_Q, L_C)`` is a decidable configuration.

    By Theorems 3.1 and 4.1, FO or FP on either side makes both problems
    undecidable.
    """
    language = getattr(query, "language", None)
    if language not in _DECIDABLE:
        raise UndecidableConfigurationError(
            f"L_Q = {language}: RCDP/RCQP are undecidable beyond ∃FO⁺ "
            f"(Theorem 3.1 / 4.1); use repro.core.bounded for a bounded "
            f"semi-decision")
    for constraint in constraints:
        if not constraint.is_decidable_language:
            raise UndecidableConfigurationError(
                f"containment constraint {constraint.name!r} is in "
                f"{constraint.language}: RCDP/RCQP are undecidable beyond "
                f"∃FO⁺ (Theorem 3.1 / 4.1); use repro.core.bounded for a "
                f"bounded semi-decision")


def resolve_analysis(query: Any,
                     constraints: Sequence[ContainmentConstraint],
                     database: Instance, master: Instance,
                     analysis: Report | None,
                     analyze: bool) -> Report | None:
    """Normalize a decider's ``(analysis, analyze)`` pair.

    A caller-supplied report (audits, completion loops — one pass shared
    across many decisions) wins; otherwise the cheap decider rules run
    here.  ``analyze=False`` disables the pass entirely (for ablation
    and for inner loops that already validated).  Error-severity
    findings raise :class:`~repro.errors.AnalysisError` from inside
    :func:`~repro.analysis.driver.validate_for_decision`.
    """
    if analysis is not None or not analyze:
        return analysis
    return validate_for_decision(
        query, constraints, schema=database.schema,
        master_schema=master.schema, database=database, master=master)


def ensure_partially_closed(
        database: Instance, master: Instance,
        constraints: Sequence[ContainmentConstraint],
        context: EvaluationContext | None = None) -> None:
    """Raise :class:`NotPartiallyClosedError` unless ``(D, Dm) ⊨ V``."""
    violated = violated_constraints(database, master, constraints,
                                    context=context)
    if violated:
        names = ", ".join(c.name for c in violated)
        raise NotPartiallyClosedError(
            f"database is not partially closed: violates {names}")


#: ``D ∪ Δ`` without re-validating domains (Δ may hold fresh values).
#: Lives in :mod:`repro.relational.instance` now; re-exported here under
#: its historical name for the other core modules that import it.
_extend_unvalidated = extend_unvalidated


def split_ind_constraints(
        constraints: Sequence[ContainmentConstraint], master: Instance,
        *, use_ind_pruning: bool = True,
        context: EvaluationContext | None = None,
        ) -> tuple[RowFilter | None, list[ContainmentConstraint]]:
    """Compile IND constraints into a tuple-local row filter.

    IND constraints are tuple-local, so they can prune the valuation
    enumeration row-by-row (Corollary 3.4 made operational): a single
    instantiated tableau row whose projection leaves the master projection
    kills the whole branch.  Returns ``(row_filter, other_constraints)``
    where *row_filter* is ``None`` when no IND is available (or pruning is
    disabled) and *other_constraints* are the ones that still need the
    full ``(D ∪ Δ, Dm) ⊨ V`` check per surviving valuation.
    """
    ind_projections: dict[str, list[tuple[tuple[int, ...], frozenset]]] = {}
    other_constraints: list[ContainmentConstraint] = []
    for constraint in constraints:
        if use_ind_pruning and constraint.is_ind():
            relation, columns = constraint.ind_source()
            ind_projections.setdefault(relation, []).append(
                (columns,
                 constraint.projection.evaluate(master, context=context)))
        else:
            other_constraints.append(constraint)
    if not ind_projections:
        return None, other_constraints

    def row_filter(relation: str, row: tuple) -> bool:
        for columns, allowed in ind_projections.get(relation, ()):
            if tuple(row[c] for c in columns) not in allowed:
                return False
        return True

    return row_filter, other_constraints


def _prepare_search(query: Any, database: Instance, master: Instance,
                    constraints: Sequence[ContainmentConstraint],
                    context: EvaluationContext | None,
                    ) -> tuple[list[Tableau], ActiveDomain]:
    """Tableaux and active domain for one ``(Q, D, Dm, V)`` decision.

    With a shared context these are memoized, so repeated decisions on
    the same inputs (audits, completion loops, benchmarks) stop paying
    the per-entry rebuild cost."""

    def build() -> tuple[list[Tableau], ActiveDomain]:
        disjuncts = query.to_cq_disjuncts()
        tableaux = [Tableau(d, database.schema) for d in disjuncts]
        adom = ActiveDomain.build(
            instances=(database, master),
            queries=[query] + [c.query for c in constraints],
            tableaux=[t for t in tableaux if t.satisfiable])
        return tableaux, adom

    if context is None:
        return build()
    # Content-based key: identical across processes, so parallel workers
    # that rebuild the search space from pickled inputs hit the same memo
    # entry a resumed or repeated run would.
    key = decision_key("rcdp-search", query, database, master, *constraints)
    return context.memo(key, build,
                        pin=(query, database, master, *constraints))


@traced("decide_rcdp")
def decide_rcdp(query: Any, database: Instance, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                *, check_partially_closed: bool = True,
                budget: int | None = None,
                use_ind_pruning: bool = True,
                governor: ExecutionGovernor | None = None,
                on_exhausted: str = "error",
                resume_from: SearchCheckpoint | None = None,
                use_engine: bool = True,
                context: EvaluationContext | None = None,
                backend: str | None = None,
                analyze: bool = True,
                analysis: Report | None = None,
                workers: int | None = 1) -> RCDPResult:
    """Decide whether *database* is complete for *query* relative to
    ``(master, constraints)``.

    Parameters
    ----------
    query:
        A CQ, UCQ, or ∃FO⁺ query over the database schema.
    database, master:
        The partially closed database ``D`` and master data ``Dm``.
    constraints:
        Containment constraints ``V`` (CQ/UCQ/∃FO⁺ queries on the left).
    check_partially_closed:
        When True (default), verify ``(D, Dm) ⊨ V`` first and raise
        :class:`NotPartiallyClosedError` otherwise — RCDP is only defined
        for partially closed inputs.
    budget:
        Shorthand for a governor capping the number of valuations
        examined.  The problem is Πᵖ₂-complete, so adversarial inputs are
        necessarily expensive.  Mutually exclusive with *governor*.
    use_ind_pruning:
        When True (default), IND constraints prune the valuation
        enumeration row-by-row instead of being re-checked per candidate
        extension (Corollary 3.4 made operational).  Setting it to False
        is for the ablation benchmarks only — the verdict is identical.
    governor:
        An :class:`~repro.runtime.ExecutionGovernor` checked at every
        valuation; may be shared with enclosing searches for unified
        accounting.
    on_exhausted:
        ``"error"`` (default): interruption raises
        :class:`~repro.errors.SearchBudgetExceededError` with statistics,
        partial result, and checkpoint attached.  ``"partial"``: the
        decider returns an ``EXHAUSTED`` result instead.
    resume_from:
        A checkpoint from a previous interrupted ``decide_rcdp`` run *on
        the same inputs*; the enumeration fast-forwards past the already-
        examined (and rejected) prefix without charging the governor, and
        statistics are reported cumulatively.
    use_engine:
        When True (default), evaluation runs on the
        :mod:`repro.engine` — compiled plans, hash-indexed joins, and
        semi-naive delta evaluation of each candidate's ``(D ∪ Δ, Dm)
        ⊨ V`` check.  False forces the pre-engine naive paths (ablation
        and equivalence testing); the verdict is identical.
    context:
        A shared :class:`~repro.engine.EvaluationContext` carrying
        plan/index/answer caches across calls (audits, completion
        loops).  Defaults to a fresh private context when the engine is
        enabled.  The decider attaches its governor to the context only
        while the search loop runs, so engine work during setup is
        never charged.
    backend:
        Storage backend for the private context — ``"python"``
        (default), ``"columnar"``, or ``"sqlite"`` (see
        ``docs/BACKENDS.md``); ``None`` resolves via ``$REPRO_BACKEND``.
        The verdict, witness, and search statistics are identical across
        backends.  Ignored when *context* is supplied (it has its own).
    analyze:
        When True (default), the static analyzer's cheap decider rules
        (:mod:`repro.analysis`) run first: error-severity findings
        (schema mismatches, invalid constraints) raise
        :class:`~repro.errors.AnalysisError` carrying the full report;
        warning counts fold into ``statistics.analysis_warnings``; and a
        query the analyzer proves empty short-circuits to COMPLETE
        without searching (``Q(D') = ∅`` for every ``D'``, so no
        extension changes the answer).
    analysis:
        A precomputed :class:`~repro.analysis.diagnostics.Report` to use
        instead of re-running the pass (audits and completion loops
        analyze once and share).
    workers:
        Shard the valuation search across this many worker processes
        (``1`` = serial, ``0`` = all cores; see ``docs/PARALLEL.md``).
        The verdict — including which witness is reported — is identical
        for every worker count.  Parallel checkpoints record the worker
        count and must be resumed with the same one.

    Returns
    -------
    RCDPResult
        COMPLETE, INCOMPLETE with an
        :class:`~repro.core.results.IncompletenessCertificate`, or
        EXHAUSTED (only under ``on_exhausted="partial"``) with a
        checkpoint.  The checkpoint cursor is ``(tableau_index,
        valuations_consumed_in_that_tableau)``.
    """
    from repro.parallel import resolve_workers

    count = resolve_workers(workers)
    if count > 1:
        from repro.parallel.api import decide_rcdp_parallel

        return decide_rcdp_parallel(
            query, database, master, constraints, workers=count,
            check_partially_closed=check_partially_closed, budget=budget,
            use_ind_pruning=use_ind_pruning, governor=governor,
            on_exhausted=on_exhausted, resume_from=resume_from,
            use_engine=use_engine, context=context, backend=backend,
            analyze=analyze, analysis=analysis)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, use_engine, backend)
    engine_base = (context.statistics.copy() if context is not None
                   else None)
    assert_decidable_configuration(query, constraints)
    with obs_span(obs, "analyze"):
        analysis = resolve_analysis(query, constraints, database, master,
                                    analysis, analyze)
    # Resumed searches already counted the warnings in the checkpoint's
    # base statistics; recounting would double them.
    fresh_warnings = (len(analysis.warnings)
                      if analysis is not None and resume_from is None
                      else 0)
    query.validate(database.schema)
    if check_partially_closed:
        with obs_span(obs, "check_ccs"):
            ensure_partially_closed(database, master, constraints, context)

    if analysis is not None and analysis.facts.query_provably_empty:
        stats = SearchStatistics(analysis_warnings=fresh_warnings)
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return RCDPResult(
            status=RCDPStatus.COMPLETE,
            explanation=(
                "static analysis proved the query empty (contradictory "
                "=/≠ atoms in every disjunct): Q(D') = ∅ for every D', "
                "so no extension can add an answer and D is trivially "
                "relatively complete"),
            statistics=stats)

    with obs_span(obs, "compile_plans"):
        tableaux, adom = _prepare_search(query, database, master,
                                         constraints, context)
    with obs_span(obs, "evaluate_Q"):
        answers = (context.evaluate(query, database)
                   if context is not None else query.evaluate(database))

    row_filter, other_constraints = split_ind_constraints(
        constraints, master, use_ind_pruning=use_ind_pruning,
        context=context)

    start_tableau, start_position = 0, 0
    base_stats = SearchStatistics()
    if resume_from is not None:
        resume_from.require("rcdp")
        start_tableau, start_position = resume_from.cursor
        base_stats = resume_from.base_statistics()

    def _stats() -> SearchStatistics:
        stats = base_stats.merged(SearchStatistics(
            valuations_examined=examined,
            constraint_checks=constraint_checks,
            analysis_warnings=fresh_warnings))
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return stats

    examined = 0
    constraint_checks = 0
    tableau_index = start_tableau
    position = start_position
    governed = (context.governed(governor) if context is not None
                else nullcontext())
    try:
        with governed, obs_span(obs, "enumerate_valuations"):
            for tableau_index, tableau in enumerate(tableaux):
                if tableau_index < start_tableau or not tableau.satisfiable:
                    continue
                to_skip = (start_position if tableau_index == start_tableau
                           else 0)
                position = to_skip
                for valuation in iter_valid_valuations(
                        tableau, adom, fresh="own", row_filter=row_filter):
                    if to_skip > 0:
                        to_skip -= 1
                        continue
                    if governor is not None:
                        governor.tick("valuations")
                    examined += 1
                    summary = tableau.summary_under(valuation)
                    if summary in answers:
                        position += 1
                        continue
                    delta = tableau.instantiate(valuation)
                    constraint_checks += 1
                    if not other_constraints:
                        satisfied = True
                    elif context is not None:
                        satisfied = satisfies_all_extension(
                            database, delta, master, other_constraints,
                            context=context)
                    else:
                        candidate = _extend_unvalidated(database, delta)
                        satisfied = satisfies_all(candidate, master,
                                                  other_constraints)
                    if satisfied:
                        certificate = IncompletenessCertificate(
                            extension_facts=tuple(delta),
                            new_answer=summary,
                            disjunct_name=tableau.query.name)
                        return RCDPResult(
                            status=RCDPStatus.INCOMPLETE,
                            certificate=certificate,
                            explanation=(
                                f"adding {len(delta)} fact(s) keeps V "
                                f"satisfied but produces the new answer "
                                f"{summary!r}"),
                            statistics=_stats())
                    position += 1
    except ExecutionInterrupted as interrupt:
        stats = _stats()
        checkpoint = SearchCheckpoint(
            procedure="rcdp", cursor=(tableau_index, position),
            statistics=stats)
        partial = RCDPResult(
            status=RCDPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({interrupt.reason}) after "
                f"{stats.valuations_examined} valuation(s); resume from "
                f"the checkpoint to continue"),
            statistics=stats,
            checkpoint=checkpoint,
            interrupted=interrupt.reason)
        if on_exhausted == "error":
            interrupt.statistics = stats
            interrupt.partial_result = partial
            interrupt.checkpoint = checkpoint
            raise
        return partial

    return RCDPResult(
        status=RCDPStatus.COMPLETE,
        explanation=(
            "no valid valuation over the active domain extends D "
            "consistently with V while changing Q(D) "
            "(conditions C1/C2 hold)"),
        statistics=_stats())


@traced("missing_answers_report")
def missing_answers_report(query: Any, database: Instance,
                           master: Instance,
                           constraints: Sequence[ContainmentConstraint],
                           *, limit: int | None = None,
                           check_partially_closed: bool = True,
                           budget: int | None = None,
                           governor: ExecutionGovernor | None = None,
                           on_exhausted: str = "partial",
                           resume_from: SearchCheckpoint | None = None,
                           use_engine: bool = True,
                           context: EvaluationContext | None = None,
                           backend: str | None = None,
                           analyze: bool = True,
                           analysis: Report | None = None,
                           workers: int | None = 1,
                           ) -> MissingAnswersReport:
    """All answers the query could still gain over the active domain.

    Example 1.1 observes that when an employee supports at most ``k``
    customers and ``k'`` are known, "we need to add at most ``k − k'``
    tuples to make it complete": this function makes that kind of margin
    computable.  It reports every tuple ``s ∉ Q(D)`` such that some valid
    valuation over the active domain yields ``s`` via a constraint-
    consistent extension.  The database is relatively complete iff the
    full enumeration is empty (same enumeration as :func:`decide_rcdp`,
    without the early exit).

    *limit* truncates the enumeration once that many missing answers have
    been found; a *budget*/*governor* interrupts it mid-search.  In both
    cases ``exhaustive`` is False and the answer set is a lower bound; an
    interrupted report additionally carries a resumable checkpoint whose
    payload preserves the answers already found (cursor layout:
    ``(tableau_index, valuations_consumed)``).  *on_exhausted* defaults
    to ``"partial"`` here — a truncated margin is still useful — but
    ``"error"`` gives strict-mode callers the historical raising behavior
    with the partial report attached to the exception.
    """
    from repro.parallel import resolve_workers

    count = resolve_workers(workers)
    if count > 1:
        from repro.parallel.api import missing_answers_parallel

        return missing_answers_parallel(
            query, database, master, constraints, workers=count,
            limit=limit, check_partially_closed=check_partially_closed,
            budget=budget, governor=governor, on_exhausted=on_exhausted,
            resume_from=resume_from, use_engine=use_engine,
            context=context, backend=backend, analyze=analyze,
            analysis=analysis)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, use_engine, backend)
    engine_base = (context.statistics.copy() if context is not None
                   else None)
    assert_decidable_configuration(query, constraints)
    with obs_span(obs, "analyze"):
        analysis = resolve_analysis(query, constraints, database, master,
                                    analysis, analyze)
    fresh_warnings = (len(analysis.warnings)
                      if analysis is not None and resume_from is None
                      else 0)
    query.validate(database.schema)
    if check_partially_closed:
        with obs_span(obs, "check_ccs"):
            ensure_partially_closed(database, master, constraints, context)

    if analysis is not None and analysis.facts.query_provably_empty:
        stats = SearchStatistics(analysis_warnings=fresh_warnings)
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return MissingAnswersReport(answers=frozenset(),
                                    exhaustive=True, statistics=stats)

    with obs_span(obs, "compile_plans"):
        tableaux, adom = _prepare_search(query, database, master,
                                         constraints, context)
    with obs_span(obs, "evaluate_Q"):
        answers = (context.evaluate(query, database)
                   if context is not None else query.evaluate(database))

    row_filter, other_constraints = split_ind_constraints(
        constraints, master, context=context)

    start_tableau, start_position = 0, 0
    base_stats = SearchStatistics()
    missing: set[tuple] = set()
    if resume_from is not None:
        resume_from.require("missing")
        start_tableau, start_position = resume_from.cursor
        base_stats = resume_from.base_statistics()
        missing.update(resume_from.payload)

    examined = 0
    constraint_checks = 0
    tableau_index = start_tableau
    position = start_position
    def _stats() -> SearchStatistics:
        stats = base_stats.merged(SearchStatistics(
            valuations_examined=examined,
            constraint_checks=constraint_checks,
            analysis_warnings=fresh_warnings))
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return stats

    governed = (context.governed(governor) if context is not None
                else nullcontext())
    try:
        with governed, obs_span(obs, "enumerate_valuations"):
            for tableau_index, tableau in enumerate(tableaux):
                if tableau_index < start_tableau or not tableau.satisfiable:
                    continue
                to_skip = (start_position if tableau_index == start_tableau
                           else 0)
                position = to_skip
                for valuation in iter_valid_valuations(
                        tableau, adom, fresh="own", row_filter=row_filter):
                    if to_skip > 0:
                        to_skip -= 1
                        continue
                    if governor is not None:
                        governor.tick("valuations")
                    examined += 1
                    position += 1
                    summary = tableau.summary_under(valuation)
                    if summary in answers or summary in missing:
                        continue
                    if other_constraints:
                        constraint_checks += 1
                        delta = tableau.instantiate(valuation)
                        if context is not None:
                            if not satisfies_all_extension(
                                    database, delta, master,
                                    other_constraints, context=context):
                                continue
                        else:
                            candidate = _extend_unvalidated(database, delta)
                            if not satisfies_all(candidate, master,
                                                 other_constraints):
                                continue
                    missing.add(summary)
                    if limit is not None and len(missing) >= limit:
                        return MissingAnswersReport(
                            answers=frozenset(missing), exhaustive=False,
                            statistics=_stats())
    except ExecutionInterrupted as interrupt:
        checkpoint = SearchCheckpoint(
            procedure="missing", cursor=(tableau_index, position),
            statistics=_stats(),
            payload=tuple(sorted(missing, key=repr)))
        report = MissingAnswersReport(
            answers=frozenset(missing), exhaustive=False,
            statistics=_stats(), checkpoint=checkpoint,
            interrupted=interrupt.reason)
        if on_exhausted == "error":
            interrupt.statistics = report.statistics
            interrupt.partial_result = report
            interrupt.checkpoint = checkpoint
            raise
        return report
    return MissingAnswersReport(
        answers=frozenset(missing), exhaustive=True, statistics=_stats())


def enumerate_missing_answers(query: Any, database: Instance,
                              master: Instance,
                              constraints: Sequence[ContainmentConstraint],
                              *, limit: int | None = None,
                              check_partially_closed: bool = True,
                              budget: int | None = None,
                              governor: ExecutionGovernor | None = None,
                              on_exhausted: str = "error",
                              resume_from: SearchCheckpoint | None = None,
                              use_engine: bool = True,
                              context: EvaluationContext | None = None,
                              backend: str | None = None,
                              analyze: bool = True,
                              analysis: Report | None = None,
                              workers: int | None = 1,
                              ) -> frozenset[tuple]:
    """Plain-set façade over :func:`missing_answers_report`.

    Historically this enumeration accepted no budget at all and could hang
    on adversarial inputs even though :func:`decide_rcdp` was capped; it
    is now governed identically.  Under ``on_exhausted="partial"`` an
    interrupted enumeration returns the lower-bound set found so far (use
    :func:`missing_answers_report` when you also need the checkpoint);
    under the default ``"error"`` it raises, with the partial report
    attached to the exception.
    """
    return missing_answers_report(
        query, database, master, constraints, limit=limit,
        check_partially_closed=check_partially_closed, budget=budget,
        governor=governor, on_exhausted=on_exhausted,
        resume_from=resume_from, use_engine=use_engine,
        context=context, backend=backend, analyze=analyze,
        analysis=analysis, workers=workers).answers
