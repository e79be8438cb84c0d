"""Master-data-management scenario, generators, and audit workflows."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mdm.audit": ("AuditReport", "AuditVerdict", "CompletenessAudit"),
    "repro.mdm.generators": ("GeneratorConfig", "generate_scenario"),
    "repro.mdm.scenario": (
        "CRMScenario", "CustomerRecord", "DOMESTIC_COUNTRY_CODE"),
    "repro.mdm.scm": ("SCMScenario",),
})
