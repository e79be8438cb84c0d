"""The whole-scenario flow pass: RC3xx interaction and RC4xx cost rules.

The per-object rules (RC0xx–RC2xx) judge each query and constraint in
isolation.  The rules here look at the scenario as a whole:

* ``RC301`` *divergent-chase* — the constraint-interaction graph
  (:mod:`repro.analysis.interaction`) has a cycle through an existential
  edge: chasing the constraints may never terminate and the RCQP unit
  enumeration loses its small-model guarantee.  The offending cycle is
  rendered in the message.
* ``RC302`` *unreachable-constraint* — a constraint whose every disjunct
  ranges over a relation forced empty by a denial IND can never fire
  against the given master data; `drop_inapplicable` removes it without
  changing any verdict.
* ``RC303`` *dead-constraint-pair* — a constraint whose query is
  contained in a denial constraint's query (Sagiv–Yannakakis over the
  existing tableau machinery) can never fire either: the denial already
  forces its premise empty on every legal extension.
* ``RC401``/``RC402``/``RC403`` — plan-shape lints over the compiled
  plans of every CQ disjunct (:mod:`repro.analysis.planlint`): inherent
  cross products, equalities surviving as post-filters, and scans that a
  reorder would turn into index probes (with a fix-it).
* ``RC404`` *explosive-search-space* — the static cost model
  (:mod:`repro.analysis.cost`) predicts the decision's governor ticks;
  past a threshold the estimate is surfaced with a suggested budget and
  worker count.

All flow rules are registered with ``cost="flow"`` and ``decider=False``:
they run only when the flow pass is requested (``repro lint``, or
``analyze(..., flow=True)``) and *never* inside the deciders' fast-fail
pass — decider verdicts, witnesses, and statistics are bit-identical with
the pass enabled or disabled.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.analysis.diagnostics import Diagnostic, Fixit, Severity
from repro.analysis.interaction import (ChaseClass, build_interaction_graph,
                                        drop_inapplicable,
                                        inapplicable_constraints)
from repro.analysis.rules import (DECIDABLE_LANGUAGES, RuleContext, _diag,
                                  lint_rule)
from repro.errors import ReproError
from repro.queries.containment import is_ucq_contained_in

__all__ = ["drop_inapplicable", "RC404_TICK_THRESHOLD"]

#: Predicted total ticks above which RC404 surfaces the cost estimate.
RC404_TICK_THRESHOLD = 100_000


def _flow_ready(ctx: RuleContext) -> bool:
    """The structural prerequisites every flow rule shares."""
    return (ctx.schema is not None and ctx.master_schema is not None
            and not ctx.parse_failures)


def _plannable_disjuncts(ctx: RuleContext) -> Iterator[tuple[str, int, Any]]:
    """Every CQ disjunct the engine will compile, with its span address."""
    if (ctx.query is not None and ctx.query_schema_ok
            and getattr(ctx.query, "language", None)
            in DECIDABLE_LANGUAGES):
        disjuncts = ctx.cq_disjuncts() or []
        for index, disjunct in enumerate(disjuncts):
            yield "query", index, disjunct
    for index, constraint in ctx.valid_constraints():
        source = ctx.constraint_source(index)
        for j, disjunct in enumerate(ctx.constraint_disjuncts(constraint)):
            yield source, j, disjunct


@lint_rule(
    "RC301", "divergent-chase", Severity.WARNING,
    "the constraint-interaction graph has a cycle through an existential "
    "edge: the chase may not terminate",
    "Fagin–Kolaitis–Miller–Popa weak acyclicity; Section 2.2's containment "
    "constraints read as TGDs", cost="flow", decider=False)
def check_divergent_chase(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx) or not ctx.constraints:
        return
    constraints = [c for _, c in ctx.valid_constraints()]
    if not constraints:
        return
    try:
        graph = build_interaction_graph(
            constraints, schema=ctx.schema,
            master_schema=ctx.master_schema)
    except ReproError:
        return
    ctx.chase_class = graph.chase.value
    if graph.chase is not ChaseClass.DIVERGENT:
        return
    involved = sorted({edge.constraint for edge in graph.cycle})
    span = None
    for index, constraint in ctx.valid_constraints():
        if constraint.name in involved:
            span = ctx.source_span(ctx.constraint_source(index))
            break
    yield _diag(
        "RC301",
        f"constraints {', '.join(involved)} form a cyclic dependency "
        f"through a fresh-value position; the chase may diverge: "
        f"{graph.render_cycle()}",
        span)


@lint_rule(
    "RC302", "unreachable-constraint", Severity.WARNING,
    "every disjunct of the constraint ranges over a relation a denial IND "
    "forces empty; it can never fire against this master data",
    "Corollary 3.4's IND semantics: an empty master projection admits no "
    "source tuples in any legal extension", cost="flow", decider=False)
def check_unreachable_constraint(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx) or not ctx.constraints:
        return
    constraints = [c for _, c in ctx.valid_constraints()]
    try:
        unreachable = inapplicable_constraints(constraints, ctx.master)
    except ReproError:
        return
    for index, constraint in ctx.valid_constraints():
        reason = unreachable.get(constraint.name)
        if reason is None:
            continue
        ctx.inapplicable_constraints.append(constraint.name)
        yield _diag(
            "RC302",
            f"constraint {constraint.name!r} can never fire: {reason}; "
            f"dropping it changes no verdict",
            ctx.source_span(ctx.constraint_source(index)))


@lint_rule(
    "RC303", "dead-constraint-pair", Severity.WARNING,
    "the constraint's query is contained in a denial constraint's query: "
    "the denial forces its premise empty on every legal extension",
    "Sagiv–Yannakakis UCQ containment over the canonical databases "
    "(Section 3's tableau machinery)", cost="flow", decider=False)
def check_dead_constraint_pair(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx) or not ctx.deep:
        return
    valid = ctx.valid_constraints()
    denials = []
    for index, constraint in valid:
        target = constraint.projection
        if target.is_empty_target:
            denials.append((index, constraint))
        elif ctx.master is not None and target.relation is not None:
            try:
                if not target.evaluate(ctx.master):
                    denials.append((index, constraint))
            except ReproError:
                continue
    if not denials:
        return
    dead = set(ctx.inapplicable_constraints)
    for index, constraint in valid:
        if constraint.name in dead:
            continue
        for d_index, denial in denials:
            if d_index == index or denial.name in dead:
                continue
            if constraint.query.arity != denial.query.arity:
                continue
            try:
                contained = is_ucq_contained_in(
                    constraint.query, denial.query, ctx.schema,
                    on_inequality="unknown")
            except ReproError:
                continue
            if contained is not True:
                continue
            ctx.inapplicable_constraints.append(constraint.name)
            dead.add(constraint.name)
            yield _diag(
                "RC303",
                f"constraint {constraint.name!r} is dead: its query is "
                f"contained in the query of {denial.name!r}, whose "
                f"target admits no rows — {constraint.name!r} can never "
                f"fire while {denial.name!r} holds",
                ctx.source_span(ctx.constraint_source(index)))
            break


def _plan_findings(ctx: RuleContext, kind: str,
                   ) -> Iterator[tuple[str, int, Any]]:
    from repro.analysis.planlint import lint_plan
    for source, index, disjunct in _plannable_disjuncts(ctx):
        try:
            findings = lint_plan(disjunct)
        except (ReproError, AssertionError):
            continue
        for finding in findings:
            if finding.kind == kind:
                yield source, index, finding


@lint_rule(
    "RC401", "plan-cross-product", Severity.INFO,
    "a compiled plan joins disconnected atom groups; every group "
    "multiplies the bindings of the others",
    "the greedy join order of repro.engine.plan cannot key a step that "
    "shares no variable with the atoms before it", cost="flow",
    decider=False)
def check_plan_cross_product(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx):
        return
    for source, index, finding in _plan_findings(ctx, "cross-product"):
        yield _diag(
            "RC401", finding.message, ctx.span(source, index),
            Fixit(finding.suggestion) if finding.suggestion else None)


@lint_rule(
    "RC402", "post-filter-equality", Severity.INFO,
    "an equality comparison survives as a post-filter check instead of "
    "narrowing an index key",
    "repro.engine.plan places comparisons at the first step where their "
    "variables are bound; substitution prunes earlier", cost="flow",
    decider=False)
def check_post_filter_equality(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx):
        return
    for source, index, finding in _plan_findings(
            ctx, "post-filter-equality"):
        yield _diag(
            "RC402", finding.message, ctx.span(source, index),
            Fixit(finding.suggestion) if finding.suggestion else None)


@lint_rule(
    "RC403", "unkeyed-start", Severity.INFO,
    "the plan opens with a full scan although another atom carries "
    "constants that would key the first step",
    "the greedy order of repro.engine.plan seeds on shared variables "
    "only; a constant-keyed first atom scans less", cost="flow",
    decider=False)
def check_unkeyed_start(ctx: RuleContext) -> Iterator[Diagnostic]:
    if not _flow_ready(ctx):
        return
    for source, index, finding in _plan_findings(ctx, "unkeyed-start"):
        yield _diag(
            "RC403", finding.message, ctx.span(source, index),
            Fixit(finding.suggestion) if finding.suggestion else None)


@lint_rule(
    "RC404", "explosive-search-space", Severity.INFO,
    "the predicted valuation space of the decision is large; consider a "
    "budget, more workers, or tighter constraints",
    "the |Adom|^k small-model bound of Theorems 4.1/4.2 made "
    "quantitative", cost="flow", decider=False)
def check_explosive_search_space(ctx: RuleContext) -> Iterator[Diagnostic]:
    if (not _flow_ready(ctx) or ctx.query is None
            or not ctx.query_schema_ok
            or getattr(ctx.query, "language", None)
            not in DECIDABLE_LANGUAGES
            or ctx.database is None or ctx.master is None):
        return
    from repro.analysis.cost import estimate_decision, suggested_budget
    constraints = tuple(c for _, c in ctx.valid_constraints())
    try:
        estimate = estimate_decision(
            "rcdp", ctx.query, ctx.database, ctx.master, constraints)
    except (ReproError, ValueError):
        return
    ctx.cost_estimate = estimate
    if estimate.total_predicted < RC404_TICK_THRESHOLD:
        return
    from repro.parallel.partition import suggest_workers
    workers = suggest_workers(estimate)
    yield _diag(
        "RC404",
        f"full enumeration is predicted to cost "
        f"~{estimate.total_predicted} valuation ticks "
        f"(|Adom| = {estimate.adom_size}, dominant phase "
        f"{estimate.dominant_phase}); suggested budget "
        f"{suggested_budget(estimate)}, suggested workers {workers}",
        ctx.span("query", 0) if "query" in ctx.sources
        else ctx.source_span("query"))
