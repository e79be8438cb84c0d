"""Core deciders for relative information completeness (Sections 3 and 4)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.analysis": (
        "BoundednessReport", "VariableReport", "VariableStatus",
        "analyze_boundedness"),
    "repro.core.bounded": (
        "brute_force_rcdp", "brute_force_rcqp", "candidate_fact_pool",
        "default_value_pool"),
    "repro.core.rcdp": (
        "assert_decidable_configuration", "decide_rcdp",
        "ensure_partially_closed", "enumerate_missing_answers",
        "missing_answers_report", "split_ind_constraints"),
    "repro.core.rcqp": ("decide_rcqp", "decide_rcqp_with_inds"),
    "repro.core.results": (
        "IncompletenessCertificate", "MissingAnswersReport", "RCDPResult",
        "RCDPStatus", "RCQPResult", "RCQPStatus", "SearchStatistics"),
    "repro.core.valuations": ("ActiveDomain", "iter_valid_valuations"),
    "repro.core.witness": (
        "CompletionOutcome", "make_complete", "minimize_witness"),
})
