"""RCQP — the relatively complete query problem (Section 4).

Given ``Q``, ``Dm``, and ``V``, decide whether some relatively complete
database exists, i.e. whether ``RCQ(Q, Dm, V)`` is nonempty.

Two exact engines:

* :func:`decide_rcqp_with_inds` — the coNP procedure of Theorem 4.5(1),
  driven by the *syntactic* boundedness characterization of
  Proposition 4.3 (conditions E3/E4): every infinite-domain output variable
  must sit in an IND-projected column, unless the disjunct admits no
  constraint-compatible valid valuation at all.

* :func:`decide_rcqp` — the general characterization of Propositions 4.2 /
  Corollary 4.4 (conditions E1/E2, E5/E6): search for a set ``V`` of partial
  valuations of the constraint tableaux such that ``D_V`` satisfies ``V``
  and *bounds* every constraint-compatible valid valuation of the query
  tableau.  NONEMPTY verdicts construct the witness database (``D_V`` plus
  the ground tableau rows) and re-verify it through the exact RCDP decider,
  so they are sound by construction.

The general search is parameterized (valuation-set size, rows instantiated
per partial valuation); the problem is NEXPTIME-complete, so *some* budget
is unavoidable.  When the budget covers the whole unit space the EMPTY
verdict is exact; otherwise it is reported as ``EMPTY_UP_TO_BOUND``.

Both engines are *governed* (:mod:`repro.runtime`): one
:class:`~repro.runtime.ExecutionGovernor` is threaded through the unit
enumeration, the candidate-set search, and every nested ``decide_rcdp`` /
``make_complete`` call, so a single budget bounds the whole composite
NEXPTIME decision.  Interrupted searches degrade to an ``EXHAUSTED``
result with statistics and a resumable checkpoint (or raise with those
attached, under ``on_exhausted="error"``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.analysis.driver import validate_for_decision
from repro.constraints.containment import (ContainmentConstraint,
                                           satisfies_all,
                                           satisfies_all_extension)
from repro.core.rcdp import (_extend_unvalidated,
                             assert_decidable_configuration, decide_rcdp,
                             resolve_context)
from repro.core.results import (RCDPStatus, RCQPResult, RCQPStatus,
                                SearchStatistics)
from repro.engine import EvaluationContext
from repro.core.valuations import ActiveDomain, iter_valid_valuations
from repro.core.witness import make_complete
from repro.errors import (ConstraintError, ExecutionInterrupted, ReproError)
from repro.obs import obs_of, obs_span, traced
from repro.queries.tableau import Tableau
from repro.queries.terms import Const, Var
from repro.relational.domain import is_fresh
from repro.relational.instance import Instance
from repro.relational.schema import DatabaseSchema
from repro.runtime import (ExecutionGovernor, SearchCheckpoint,
                           resolve_governor, validate_exhaustion_mode)

__all__ = ["decide_rcqp", "decide_rcqp_with_inds", "ValuationUnit"]

Fact = tuple[str, tuple]


def _query_tableaux(query: Any, schema: DatabaseSchema) -> list[Tableau]:
    """Satisfiable tableaux of the CQ disjuncts of *query*."""
    return [t for t in (Tableau(d, schema) for d in query.to_cq_disjuncts())
            if t.satisfiable]


def _facts_instance(schema: DatabaseSchema,
                    facts: Iterable[Fact]) -> Instance:
    return _extend_unvalidated(Instance.empty(schema), list(facts))


# ---------------------------------------------------------------------------
# INDs: the coNP algorithm (Theorem 4.5(1), Proposition 4.3)
# ---------------------------------------------------------------------------


def _ind_covers_variable(tableau: Tableau, variable: Var,
                         constraints: Sequence[ContainmentConstraint],
                         ) -> bool:
    """Condition E4: *variable* occurs in a column projected by some IND."""
    for constraint in constraints:
        relation, columns = constraint.ind_source()
        column_set = set(columns)
        for row in tableau.rows:
            if row.relation != relation:
                continue
            for position, term in enumerate(row.terms):
                if term == variable and position in column_set:
                    return True
    return False


@traced("decide_rcqp_with_inds")
def decide_rcqp_with_inds(query: Any, master: Instance,
                          constraints: Sequence[ContainmentConstraint],
                          schema: DatabaseSchema,
                          *, construct_witness: bool = True,
                          verify_witness: bool = True,
                          budget: int | None = None,
                          governor: ExecutionGovernor | None = None,
                          on_exhausted: str = "error",
                          resume_from: SearchCheckpoint | None = None,
                          use_engine: bool = True,
                          context: EvaluationContext | None = None,
                          backend: str | None = None,
                          workers: int | None = 1,
                          ) -> RCQPResult:
    """Decide RCQP when every containment constraint is an IND.

    Implements Proposition 4.3: ``RCQ(Q, Dm, V)`` is nonempty iff every
    disjunct is syntactically bounded (each infinite-domain output variable
    has a finite attribute domain (E3) or is IND-covered (E4)), or the
    disjunct admits no valid valuation satisfying ``V``.

    On NONEMPTY the witness database from the proof is constructed: for
    every achievable output tuple over the active domain, one instantiated
    tableau producing it.

    Governed like :func:`decide_rcdp`; the checkpoint cursor is
    ``(phase, index, consumed)`` where phase 0 is the relevance/
    boundedness scan (index into the tableau list) and phase 1 the
    witness construction (index into the relevant-tableau list).
    *workers* shards both valuation scans across processes
    (``docs/PARALLEL.md``); the verdict is worker-count invariant.
    """
    from repro.parallel import resolve_workers

    count = resolve_workers(workers)
    if count > 1:
        from repro.parallel.api import decide_rcqp_with_inds_parallel

        return decide_rcqp_with_inds_parallel(
            query, master, constraints, schema, workers=count,
            construct_witness=construct_witness,
            verify_witness=verify_witness, budget=budget,
            governor=governor, on_exhausted=on_exhausted,
            resume_from=resume_from, use_engine=use_engine,
            context=context, backend=backend)
    validate_exhaustion_mode(on_exhausted)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, use_engine, backend)
    engine_base = (context.statistics.copy() if context is not None
                   else None)
    assert_decidable_configuration(query, constraints)
    for constraint in constraints:
        if not constraint.is_ind():
            raise ConstraintError(
                f"decide_rcqp_with_inds requires IND constraints; "
                f"{constraint.name!r} is not an IND")
    query.validate(schema)

    tableaux = _query_tableaux(query, schema)
    adom = ActiveDomain.build(
        instances=(master,),
        queries=[query] + [c.query for c in constraints],
        tableaux=tableaux)
    # All per-valuation Δ-instances extend the one empty base, so with a
    # context their constraint checks run on the delta path against it.
    empty_base = Instance.empty(schema)

    phase, start_index, start_consumed = 0, 0, 0
    base_stats = SearchStatistics()
    relevant_indices: list[int] = []
    witness_facts: list[Fact] = []
    covered_seed: tuple = ()
    if resume_from is not None:
        resume_from.require("rcqp-inds")
        phase, start_index, start_consumed = resume_from.cursor
        base_stats = resume_from.base_statistics()
        if phase == 0:
            relevant_indices = list(resume_from.payload[0]) \
                if resume_from.payload else []
        else:
            rel_idx, facts, covered_seed = resume_from.payload
            relevant_indices = list(rel_idx)
            witness_facts = list(facts)

    examined = 0
    def _stats() -> SearchStatistics:
        stats = base_stats.merged(
            SearchStatistics(valuations_examined=examined))
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return stats

    # Mutable frontier the except-block snapshots into a checkpoint.
    frontier: dict[str, Any] = {
        "phase": phase, "index": start_index, "consumed": start_consumed,
        "covered": set(covered_seed)}

    prev_governor = context.governor if context is not None else None
    if context is not None:
        context.governor = governor
    try:
        if phase == 0:
            with obs_span(obs, "enumerate_E3"):
                for t_index, tableau in enumerate(tableaux):
                    if t_index < start_index:
                        continue
                    to_skip = (start_consumed if t_index == start_index
                               else 0)
                    frontier["index"], frontier["consumed"] = \
                        t_index, to_skip
                    compatible_exists = False
                    for valuation in iter_valid_valuations(
                            tableau, adom, fresh="own"):
                        if to_skip > 0:
                            to_skip -= 1
                            continue
                        if governor is not None:
                            governor.tick("valuations")
                        examined += 1
                        delta = tableau.instantiate(valuation)
                        if context is not None:
                            compatible = satisfies_all_extension(
                                empty_base, delta, master, constraints,
                                context=context)
                        else:
                            compatible = satisfies_all(
                                _facts_instance(schema, delta), master,
                                constraints)
                        if compatible:
                            compatible_exists = True
                            break
                        frontier["consumed"] += 1
                    if not compatible_exists:
                        # The disjunct can never fire in a partially
                        # closed database; it cannot break boundedness
                        # (second case of Prop. 4.3).
                        continue
                    relevant_indices.append(t_index)
                    for variable in sorted(tableau.summary_variables(),
                                           key=lambda v: v.name):
                        if tableau.has_finite_domain(variable):
                            continue  # condition E3
                        if not _ind_covers_variable(tableau, variable,
                                                    constraints):
                            return RCQPResult(
                                status=RCQPStatus.EMPTY,
                                explanation=(
                                    f"output variable {variable!r} of "
                                    f"disjunct {tableau.query.name!r} "
                                    f"has an infinite domain and is not "
                                    f"covered by any IND (conditions "
                                    f"E3/E4 both fail)"),
                                statistics=_stats())
            frontier.update(phase=1, index=0, consumed=0)
            start_index, start_consumed = 0, 0
            covered_seed = ()

        witness = None
        if construct_witness:
            relevant = [tableaux[i] for i in relevant_indices]
            frontier["phase"] = 1
            with obs_span(obs, "enumerate_E4"):
                for r_pos, tableau in enumerate(relevant):
                    if r_pos < start_index:
                        continue
                    to_skip = (start_consumed if r_pos == start_index
                               else 0)
                    covered: set[tuple] = (
                        set(covered_seed) if r_pos == start_index
                        else set())
                    frontier.update(index=r_pos, consumed=to_skip,
                                    covered=covered)
                    for valuation in iter_valid_valuations(
                            tableau, adom, fresh="own"):
                        if to_skip > 0:
                            to_skip -= 1
                            continue
                        if governor is not None:
                            governor.tick("valuations")
                        examined += 1
                        summary = tableau.summary_under(valuation)
                        if summary not in covered:
                            delta = tableau.instantiate(valuation)
                            if context is not None:
                                compatible = satisfies_all_extension(
                                    empty_base, delta, master,
                                    constraints, context=context)
                            else:
                                compatible = satisfies_all(
                                    _facts_instance(schema, delta),
                                    master, constraints)
                            if compatible:
                                covered.add(summary)
                                witness_facts.extend(delta)
                        frontier["consumed"] += 1
            # Verification restarts from scratch on resume: mark the
            # frontier past the whole build so a resumed run re-enters
            # here directly with the payload facts.
            frontier.update(index=len(relevant), consumed=0,
                            covered=set())
            witness = _facts_instance(schema, witness_facts)
            if verify_witness:
                with obs_span(obs, "verify_witness"):
                    verdict = decide_rcdp(
                        query, witness, master, constraints,
                        governor=governor, context=context,
                        use_engine=context is not None)
                if verdict.status is not RCDPStatus.COMPLETE:
                    raise ReproError(
                        "internal error: Proposition 4.3 witness failed "
                        "RCDP verification — please report this as a bug")
    except ExecutionInterrupted as interrupt:
        if frontier["phase"] == 0:
            payload: tuple = (tuple(relevant_indices),)
        else:
            payload = (tuple(relevant_indices), tuple(witness_facts),
                       tuple(sorted(frontier["covered"], key=repr)))
        checkpoint = SearchCheckpoint(
            procedure="rcqp-inds",
            cursor=(frontier["phase"], frontier["index"],
                    frontier["consumed"]),
            statistics=_stats(), payload=payload)
        partial = RCQPResult(
            status=RCQPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({interrupt.reason}) after "
                f"{_stats().valuations_examined} valuation(s); resume "
                f"from the checkpoint to continue"),
            statistics=_stats(), checkpoint=checkpoint,
            interrupted=interrupt.reason)
        if on_exhausted == "error":
            interrupt.statistics = _stats()
            interrupt.partial_result = partial
            interrupt.checkpoint = checkpoint
            raise
        return partial
    finally:
        if context is not None:
            context.governor = prev_governor
    return RCQPResult(
        status=RCQPStatus.NONEMPTY,
        witness=witness,
        explanation=(
            "every relevant disjunct is syntactically bounded "
            "(conditions E3/E4); witness covers all achievable output "
            "tuples over the active domain"),
        statistics=_stats())


# ---------------------------------------------------------------------------
# General case: conditions E1/E2 and E5/E6 (Propositions 4.2, Corollary 4.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuationUnit:
    """One partial valuation ``ν_i`` of one constraint tableau.

    *facts* are the instantiated tuple templates ``ν_i(S)`` for the chosen
    row subset ``S``; *summary_values* the values of the constraint-query
    summary positions that the valuation defines (used by the boundedness
    test "μ(y) appears in ν_j(u_j)").
    """

    facts: frozenset[Fact]
    summary_values: frozenset

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{r!r}" for n, r in sorted(
            self.facts, key=repr))
        return f"Unit[{{{inner}}} ↦ {sorted(self.summary_values, key=repr)}]"


def _constraint_tableaux(constraints: Sequence[ContainmentConstraint],
                         schema: DatabaseSchema) -> list[Tableau]:
    tableaux: list[Tableau] = []
    for constraint in constraints:
        for disjunct in constraint.query.to_cq_disjuncts():
            tableau = Tableau(disjunct, schema)
            if tableau.satisfiable:
                tableaux.append(tableau)
    return tableaux


def _enumerate_units(cc_tableaux: Sequence[Tableau], adom: ActiveDomain,
                     max_rows_per_unit: int,
                     governor: ExecutionGovernor | None = None,
                     skip: int = 0,
                     progress: dict | None = None) -> list[ValuationUnit]:
    """All partial valuations of constraint tableaux over the active domain.

    Each infinite-domain variable ranges over the shared constants plus its
    own dedicated fresh value (see the dedicated-fresh discussion in
    :mod:`repro.core.valuations`); *max_rows_per_unit* caps how many tuple
    templates one partial valuation instantiates.

    The enumeration charges one ``"units"`` tick per candidate partial
    valuation; the first *skip* candidates are charged nothing (they were
    already paid for by the interrupted run being resumed).  *progress*,
    when given, tracks the number of completed candidates under the key
    ``"units"`` so an interrupt handler can checkpoint the frontier.
    """
    units: list[ValuationUnit] = []
    seen: set[tuple[frozenset, frozenset]] = set()
    completed = 0
    for tableau in cc_tableaux:
        rows = tableau.rows
        row_indices = range(len(rows))
        max_rows = min(max_rows_per_unit, len(rows))
        for size in range(1, max_rows + 1):
            for subset in itertools.combinations(row_indices, size):
                chosen = [rows[i] for i in subset]
                variables = sorted(
                    {v for row in chosen for v in row.variables()},
                    key=lambda v: v.name)
                candidate_lists = [
                    adom.candidates_for(tableau, v, fresh="own")
                    for v in variables]
                for combo in itertools.product(*candidate_lists):
                    if governor is not None and completed >= skip:
                        governor.tick("units")
                    valuation = dict(zip(variables, combo))
                    facts = frozenset(
                        (row.relation, row.instantiate(valuation))
                        for row in chosen)
                    summary_values = []
                    for term in tableau.summary:
                        if isinstance(term, Const):
                            summary_values.append(term.value)
                        elif term in valuation:
                            summary_values.append(valuation[term])
                    key = (facts, frozenset(summary_values))
                    completed += 1
                    if progress is not None:
                        progress["units"] = completed
                    if key in seen:
                        continue
                    seen.add(key)
                    units.append(ValuationUnit(
                        facts=facts,
                        summary_values=frozenset(summary_values)))
    return units


def _candidate_is_bounding(schema: DatabaseSchema, master: Instance,
                           constraints: Sequence[ContainmentConstraint],
                           q_tableaux: Sequence[Tableau],
                           adom: ActiveDomain,
                           dv_facts: frozenset[Fact],
                           bound_values: frozenset,
                           governor: ExecutionGovernor | None = None,
                           context: EvaluationContext | None = None,
                           ) -> bool:
    """Condition E2/E6 for one candidate set: every constraint-compatible
    valid valuation must have all its infinite-domain output variables
    bounded by the candidate's summary values."""
    dv_instance = _facts_instance(schema, dv_facts)
    if not satisfies_all(dv_instance, master, constraints, context=context):
        return False
    extra_values = {value for _, row in dv_facts for value in row
                    if is_fresh(value)}
    extra_values |= {value for value in bound_values if is_fresh(value)}
    for tableau in q_tableaux:
        infinite_vars = [
            v for v in sorted(tableau.summary_variables(),
                              key=lambda v: v.name)
            if not tableau.has_finite_domain(v)]
        for valuation in iter_valid_valuations(
                tableau, adom, fresh="own", extra=sorted(
                    extra_values, key=repr)):
            if governor is not None:
                governor.tick("valuations")
            if all(valuation[v] in bound_values for v in infinite_vars):
                continue
            delta = tableau.instantiate(valuation)
            if context is not None:
                compatible = satisfies_all_extension(
                    dv_instance, delta, master, constraints,
                    context=context)
            else:
                compatible = satisfies_all(
                    _extend_unvalidated(dv_instance, delta), master,
                    constraints)
            if compatible:
                return False
    return True


@traced("decide_rcqp")
def decide_rcqp(query: Any, master: Instance,
                constraints: Sequence[ContainmentConstraint],
                schema: DatabaseSchema,
                *, max_valuation_set_size: int = 2,
                max_rows_per_unit: int = 1,
                max_completion_rounds: int = 64,
                verify_witness: bool = True,
                budget: int | None = None,
                governor: ExecutionGovernor | None = None,
                on_exhausted: str = "error",
                resume_from: SearchCheckpoint | None = None,
                use_engine: bool = True,
                context: EvaluationContext | None = None,
                backend: str | None = None,
                analyze: bool = True,
                analysis: Any = None,
                workers: int | None = 1) -> RCQPResult:
    """Decide RCQP for CQ/UCQ/∃FO⁺ queries and constraints.

    Dispatches to the syntactic IND algorithm when every constraint is an
    IND.  Otherwise implements the boundedness characterization:

    * **E1/E5** — if every output variable of every (relevant) disjunct has
      a finite domain, the query is relatively complete; the witness is
      built by certificate-completion from the empty database, which
      terminates because the answer space over the active domain is finite.
    * **E2/E6** — search over candidate sets ``V`` of partial valuations of
      the constraint tableaux (at most *max_valuation_set_size* units, each
      instantiating at most *max_rows_per_unit* tuple templates).  A
      candidate is *bounding* when ``D_V ⊨ V`` and every
      constraint-compatible valid valuation of the query has its
      infinite-domain output values among the candidate's summary values.
      Bounding candidates yield a witness (``D_V`` plus ground tableau
      rows, closed under certificate completion) that is re-verified with
      the exact RCDP decider before NONEMPTY is returned.

    EMPTY is exact when the unit budget covers the whole unit space;
    otherwise ``EMPTY_UP_TO_BOUND`` is returned.

    The shared *governor* spans unit enumeration (``"units"`` ticks), the
    candidate-set loop (``"candidate_sets"`` ticks), and every nested
    bounding check, completion, and RCDP verification (``"valuations"``
    ticks).  The checkpoint cursor is ``(phase, n)``: phase 0 is the unit
    enumeration (*n* partial valuations built), phase 1 the candidate-set
    search (*n* candidate sets fully processed).

    *workers* shards the search across processes (``docs/PARALLEL.md``);
    the verdict is worker-count invariant, and parallel checkpoints must
    be resumed with the same worker count.
    """
    from repro.parallel import resolve_workers

    validate_exhaustion_mode(on_exhausted)
    if constraints and all(c.is_ind() for c in constraints):
        return decide_rcqp_with_inds(query, master, constraints, schema,
                                     verify_witness=verify_witness,
                                     budget=budget, governor=governor,
                                     on_exhausted=on_exhausted,
                                     resume_from=resume_from,
                                     use_engine=use_engine,
                                     context=context, backend=backend,
                                     workers=workers)
    count = resolve_workers(workers)
    if count > 1:
        from repro.parallel.api import decide_rcqp_parallel

        return decide_rcqp_parallel(
            query, master, constraints, schema, workers=count,
            max_valuation_set_size=max_valuation_set_size,
            max_rows_per_unit=max_rows_per_unit,
            max_completion_rounds=max_completion_rounds,
            verify_witness=verify_witness, budget=budget,
            governor=governor, on_exhausted=on_exhausted,
            resume_from=resume_from, use_engine=use_engine,
            context=context, backend=backend, analyze=analyze,
            analysis=analysis)
    governor = resolve_governor(governor, budget)
    obs = obs_of(governor)
    context = resolve_context(context, use_engine, backend)
    engine_base = (context.statistics.copy() if context is not None
                   else None)
    assert_decidable_configuration(query, constraints)
    if analysis is None and analyze:
        # RCQP has no database D — the scenario rules that need one
        # (partial closedness) skip themselves.
        with obs_span(obs, "analyze"):
            analysis = validate_for_decision(
                query, constraints, schema=schema,
                master_schema=master.schema, master=master)
    fresh_warnings = (len(analysis.warnings)
                      if analysis is not None and resume_from is None
                      else 0)
    query.validate(schema)

    q_tableaux = _query_tableaux(query, schema)
    cc_tableaux = _constraint_tableaux(constraints, schema)
    adom = ActiveDomain.build(
        instances=(master,),
        queries=[query] + [c.query for c in constraints],
        tableaux=list(q_tableaux) + cc_tableaux)

    if not q_tableaux:
        return RCQPResult(
            status=RCQPStatus.NONEMPTY,
            witness=Instance.empty(schema),
            explanation="the query is unsatisfiable; every partially "
                        "closed database is trivially complete",
            statistics=SearchStatistics(
                analysis_warnings=fresh_warnings))

    phase, start_n = 0, 0
    base_stats = SearchStatistics()
    if resume_from is not None:
        resume_from.require("rcqp")
        phase, start_n = resume_from.cursor
        base_stats = resume_from.base_statistics()

    examined = 0
    new_units = 0
    frontier: dict[str, Any] = {"phase": phase, "units": start_n,
                                "sets": start_n if phase == 1 else 0}
    def _stats() -> SearchStatistics:
        stats = base_stats.merged(SearchStatistics(
            candidate_sets_examined=examined, units_examined=new_units,
            analysis_warnings=fresh_warnings))
        if context is not None:
            stats = stats.merged(context.statistics.since(engine_base))
        return stats

    def _interrupted_result(interrupt: ExecutionInterrupted) -> RCQPResult:
        if frontier["phase"] == 0:
            cursor = (0, frontier["units"])
        else:
            cursor = (1, frontier["sets"])
        checkpoint = SearchCheckpoint(
            procedure="rcqp", cursor=cursor, statistics=_stats())
        partial = RCQPResult(
            status=RCQPStatus.EXHAUSTED,
            explanation=(
                f"search interrupted ({interrupt.reason}) at "
                f"{'unit enumeration' if cursor[0] == 0 else 'candidate-set search'}"
                f" position {cursor[1]}; resume from the checkpoint "
                f"to continue"),
            statistics=_stats(), checkpoint=checkpoint,
            interrupted=interrupt.reason)
        if on_exhausted == "error":
            interrupt.statistics = partial.statistics
            interrupt.partial_result = partial
            interrupt.checkpoint = checkpoint
        return partial

    prev_governor = context.governor if context is not None else None
    if context is not None:
        context.governor = governor
    try:
        # Condition E1/E5: all output variables range over finite domains.
        if all(tableau.has_finite_domain(v)
               for tableau in q_tableaux
               for v in tableau.summary_variables()):
            outcome = make_complete(
                query, Instance.empty(schema), master, constraints,
                max_rounds=max_completion_rounds, governor=governor,
                on_exhausted="error", context=context,
                use_engine=context is not None)
            if outcome.complete:
                return RCQPResult(
                    status=RCQPStatus.NONEMPTY,
                    witness=outcome.database,
                    explanation=(
                        "all output variables have finite domains "
                        "(condition E1/E5); witness built by certificate "
                        "completion"))
            raise ReproError(
                "internal error: E1/E5 completion did not converge — raise "
                "max_completion_rounds or report this as a bug")

        # Condition E2/E6: search for a bounding set of partial valuations.
        if phase == 0:
            with obs_span(obs, "enumerate_units"):
                units = _enumerate_units(
                    cc_tableaux, adom, max_rows_per_unit,
                    governor=governor, skip=start_n, progress=frontier)
            new_units = max(0, frontier["units"] - start_n)
            frontier.update(phase=1, sets=0)
            to_skip = 0
        else:
            # Units were fully enumerated (and charged) before the
            # interruption; rebuild them without re-charging.
            with obs_span(obs, "enumerate_units"):
                units = _enumerate_units(cc_tableaux, adom,
                                         max_rows_per_unit)
            to_skip = start_n

        ground_rows: list[Fact] = [
            (row.relation, row.instantiate({}))
            for tableau in q_tableaux for row in tableau.ground_rows()]
        max_size = min(max_valuation_set_size, len(units))
        total_sets = 0
        with obs_span(obs, "enumerate_candidate_sets"):
            for size in range(0, max_size + 1):
                for combo in itertools.combinations(units, size):
                    total_sets += 1
                    if total_sets <= to_skip:
                        continue
                    if governor is not None:
                        governor.tick("candidate_sets")
                    examined += 1
                    dv_facts = frozenset().union(
                        *(u.facts for u in combo)) \
                        if combo else frozenset()
                    bound_values = frozenset().union(
                        *(u.summary_values for u in combo)) \
                        if combo else frozenset()
                    if not _candidate_is_bounding(
                            schema, master, constraints, q_tableaux, adom,
                            dv_facts, bound_values, governor=governor,
                            context=context):
                        frontier["sets"] = total_sets
                        continue
                    witness = _facts_instance(
                        schema, list(dv_facts) + ground_rows)
                    if not satisfies_all(witness, master, constraints,
                                         context=context):
                        frontier["sets"] = total_sets
                        continue
                    outcome = make_complete(
                        query, witness, master, constraints,
                        max_rounds=max_completion_rounds,
                        governor=governor, on_exhausted="error",
                        context=context, use_engine=context is not None)
                    if not outcome.complete:
                        frontier["sets"] = total_sets
                        continue
                    if verify_witness:
                        with obs_span(obs, "verify_witness"):
                            verdict = decide_rcdp(
                                query, outcome.database, master,
                                constraints, governor=governor,
                                context=context,
                                use_engine=context is not None)
                        if verdict.status is not RCDPStatus.COMPLETE:
                            frontier["sets"] = total_sets
                            continue  # conservative: keep searching
                    return RCQPResult(
                        status=RCQPStatus.NONEMPTY,
                        witness=outcome.database,
                        explanation=(
                            f"bounding valuation set of size {size} "
                            f"found (condition E2/E6); witness verified "
                            f"complete"),
                        statistics=_stats())
    except ExecutionInterrupted as interrupt:
        partial = _interrupted_result(interrupt)
        if on_exhausted == "error":
            raise
        return partial
    finally:
        if context is not None:
            context.governor = prev_governor

    exhausted = max_valuation_set_size >= len(units)
    status = RCQPStatus.EMPTY if exhausted else RCQPStatus.EMPTY_UP_TO_BOUND
    total_examined = base_stats.candidate_sets_examined + examined
    return RCQPResult(
        status=status,
        explanation=(
            f"no bounding valuation set among {total_examined} candidate "
            f"set(s) over {len(units)} unit(s)"
            + ("" if exhausted else
               f" (search capped at size {max_valuation_set_size})")),
        statistics=_stats(),
        bound=None if exhausted else max_valuation_set_size)
