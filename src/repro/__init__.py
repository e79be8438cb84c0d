"""repro — relative information completeness for partially closed databases.

A from-scratch reproduction of *Relative Information Completeness*
(Wenfei Fan and Floris Geerts, PODS 2009 / ACM TODS 35(4), 2010).

The library models databases that are *partially closed* with respect to
master data ``Dm`` through containment constraints ``V`` (``q(D) ⊆ p(Dm)``),
and decides:

* **RCDP** — is a given database ``D`` complete for a query ``Q`` relative
  to ``(Dm, V)``?  (:func:`repro.core.decide_rcdp`)
* **RCQP** — does *any* relatively complete database exist for ``Q``?
  (:func:`repro.core.decide_rcqp`)

Quick example::

    from repro import (Attribute, DatabaseSchema, Instance, RelationSchema,
                       decide_rcdp, cq, rel, var, InclusionDependency)

    schema = DatabaseSchema([RelationSchema("Supt", ["eid", "dept", "cid"])])
    master_schema = DatabaseSchema([RelationSchema("DCust", ["cid"])])
    dm = Instance(master_schema, {"DCust": {("c1",), ("c2",)}})
    d = Instance(schema, {"Supt": {("e0", "sales", "c1"),
                                   ("e0", "sales", "c2")}})
    v = [InclusionDependency("Supt", ["cid"], "DCust", ["cid"])
         .to_containment_constraint(schema, master_schema)]
    q = cq([var("c")], [rel("Supt", "e0", var("d"), var("c"))])
    result = decide_rcdp(q, d, dm, v)
    assert result.status.value == "complete"

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the reproduction of the paper's complexity tables.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis": (
        "AnalysisFacts", "Diagnostic", "Fixit", "Report", "Severity",
        "Span", "analyze", "lint_bundle", "lint_path",
        "validate_for_decision"),
    "repro.constraints": (
        "ConditionalFunctionalDependency", "ConditionalInclusionDependency",
        "ContainmentConstraint", "DenialConstraint", "FunctionalDependency",
        "InclusionDependency", "Projection", "compile_all",
        "compile_to_containment", "satisfies_all", "violated_constraints"),
    "repro.core": (
        "ActiveDomain", "CompletionOutcome", "IncompletenessCertificate",
        "MissingAnswersReport", "RCDPResult", "RCDPStatus", "RCQPResult",
        "RCQPStatus", "SearchStatistics", "brute_force_rcdp",
        "brute_force_rcqp", "decide_rcdp", "decide_rcqp",
        "decide_rcqp_with_inds", "enumerate_missing_answers",
        "make_complete", "minimize_witness", "missing_answers_report"),
    "repro.engine": ("EvaluationContext",),
    "repro.errors": (
        "AnalysisError", "BundleError", "ConstraintError", "DomainError",
        "EvaluationError", "ExecutionInterrupted",
        "NotPartiallyClosedError", "ParseError", "QueryError", "ReproError",
        "SchemaError", "SearchBudgetExceededError",
        "UndecidableConfigurationError", "UnsatisfiableQueryError",
        "WorkerPoolError"),
    "repro.runtime": (
        "Budget", "CancellationToken", "Deadline", "ExecutionGovernor",
        "FaultInjector", "RetryPolicy", "SearchCheckpoint"),
    "repro.queries": (
        "ConjunctiveQuery", "Const", "DatalogQuery", "EFOQuery", "Eq",
        "FOQuery", "Neq", "RelAtom", "Rule", "Tableau",
        "UnionOfConjunctiveQueries", "Var", "cq", "eq", "neq", "rel",
        "rule", "ucq", "var"),
    "repro.relational": (
        "Attribute", "BOOLEAN", "DatabaseSchema", "FiniteDomain",
        "FreshValue", "INFINITE", "Instance", "RelationSchema"),
})
