"""Scenario corpus: seeded generation, differential runs, reporting.

The corpus is the repository's standing acceptance harness: a seeded,
deterministic sweep over domain families × language tiers × constraint
classes × sizes × target verdicts, every scenario oracle-verified at
generation time and re-decided across the full backend × worker matrix
by the runner.  See ``docs/CORPUS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.corpus.diversity": (
        "DiversityReport", "check_diversity", "ensure_diverse"),
    "repro.corpus.generate": (
        "BuiltScenario", "build_scenario", "generate_corpus"),
    "repro.corpus.report": ("build_report", "check_report", "render_report"),
    "repro.corpus.runner": (
        "CellOutcome", "CorpusRunResult", "ScenarioOutcome", "run_corpus"),
    "repro.corpus.spec": (
        "CONSTRAINT_CLASSES", "FAMILIES", "GENERATOR_VERSION", "SIZES",
        "TARGETS", "TIERS", "ScenarioSpec", "scenario_rng", "spec_for"),
})
