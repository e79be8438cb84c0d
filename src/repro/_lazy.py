"""Lazy package exports (PEP 562).

A package ``__init__`` names its public API as a table from defining
submodule to exported names and hands it to :func:`lazy_exports`; each
name is imported from its submodule on first attribute access and then
cached in the package namespace, so later lookups are plain dict hits.
Importing a package therefore costs nothing beyond the package module
itself, and a cold ``repro decide`` loads only the modules it runs (see
the "Import graph" section of ``DESIGN.md``).

Names the table does not know raise :class:`AttributeError`, which lets
``from package import submodule`` fall back to importing the submodule.
A package must not lazily export a name that is also one of its
submodules: importing that submodule binds the module object over the
name (``repro.queries`` stays eager for exactly this reason).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]) -> tuple[
        Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``(__getattr__, __dir__, names)`` of *package*, whose public
    *names* are imported from the submodules keying *table* on first use.

    Call it from the package's own ``__init__`` (``__name__`` as
    *package*), while the package is being imported.
    """
    namespace = vars(sys.modules[package])
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__, list(owners)
