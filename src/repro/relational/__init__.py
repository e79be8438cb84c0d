"""Relational substrate: domains, schemas, set-semantics instances, and
pluggable storage backends."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.relational.backends": (
        "BACKEND_NAMES", "StorageBackend", "create_storage",
        "resolve_backend_name"),
    "repro.relational.domain": (
        "BOOLEAN", "FiniteDomain", "FreshValue", "FreshValueSupply",
        "INFINITE", "InfiniteDomain", "is_fresh"),
    "repro.relational.instance": ("Instance",),
    "repro.relational.schema": (
        "Attribute", "DatabaseSchema", "RelationSchema"),
})
