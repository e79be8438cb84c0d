"""Containment constraints and the integrity constraints of Section 2.2."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.constraints.cfd": (
        "ConditionalFunctionalDependency", "FunctionalDependency"),
    "repro.constraints.cind": ("ConditionalInclusionDependency",),
    "repro.constraints.compile": ("compile_all", "compile_to_containment"),
    "repro.constraints.containment": (
        "ContainmentConstraint", "Projection", "satisfies_all",
        "violated_constraints"),
    "repro.constraints.denial": ("DenialConstraint",),
    "repro.constraints.ind": ("InclusionDependency",),
})
