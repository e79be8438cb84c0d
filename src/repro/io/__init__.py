"""JSON serialization for problem instances."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.io.json_io": (
        "constraint_from_dict", "constraint_to_dict", "dump_bundle",
        "instance_from_dict", "instance_to_dict", "load_bundle",
        "query_from_dict", "query_to_dict", "schema_from_dict",
        "schema_to_dict"),
})
