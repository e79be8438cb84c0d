"""Missing values: v-tables, c-tables, and possible-world completeness.

Implements the Section 5 extension the paper defers to representation
systems (and the companion PODS 2010 paper develops), in honest
enumerative form: possible worlds over an explicit null domain, certain
and possible answers, and relative completeness across worlds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.incomplete.completeness": (
        "IncompleteRCDPReport", "WorldVerdict",
        "decide_rcdp_with_missing_values"),
    "repro.incomplete.conditions": (
        "Condition", "EqCondition", "NeqCondition", "TRUE_CONDITION",
        "conjunction"),
    "repro.incomplete.counting": (
        "CountReport", "count_missing_answers", "count_completing_extensions"),
    "repro.incomplete.nulls": ("MarkedNull", "is_null", "nulls_in_row"),
    "repro.incomplete.tables": ("ConditionalRow", "IncompleteDatabase"),
})
