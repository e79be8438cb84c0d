"""The import graph: lazy package exports and the lean serial decide path.

Package ``__init__`` modules resolve their public names on first access
(:mod:`repro._lazy`), and the serial deciders never import the worker
pool, so a cold ``repro decide`` loads only the modules it runs.  These
tests pin both halves: the export tables stay in step with the modules
that define the names, and the serial CLI path keeps its heavy
neighbours unloaded.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLE = "examples/bundles/crm_q0_area_code.json"

PACKAGES = ["repro", "repro.analysis", "repro.constraints", "repro.core",
            "repro.corpus", "repro.engine", "repro.incomplete", "repro.io",
            "repro.mdm", "repro.obs", "repro.parallel", "repro.queries",
            "repro.reductions", "repro.relational", "repro.runtime",
            "repro.solvers"]

#: Modules a serial ``decide`` has no use for.
UNUSED_BY_SERIAL_DECIDE = ("multiprocessing", "repro.parallel.api",
                           "repro.parallel.partition", "repro.parallel.pool",
                           "repro.parallel.supervise", "repro.parallel.worker",
                           "repro.corpus.generate", "repro.corpus.runner",
                           "repro.mdm.audit", "repro.analysis.cost",
                           "repro.obs.ledger", "sqlite3")


def _fresh_interpreter(code: str) -> dict:
    """Run *code* in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_LEDGER", None)
    env.pop("REPRO_BACKEND", None)
    completed = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


_DECIDE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["decide", {bundle!r}, "--workers", "{workers}"])
verdict = next(line for line in out.getvalue().splitlines()
               if line.startswith("RCDP: "))
print(json.dumps({{"code": code, "verdict": verdict,
                  "loaded": sorted(sys.modules)}}))
"""


class TestSerialDecideImports:
    def test_serial_decide_loads_no_pool_corpus_or_ledger(self):
        serial = _fresh_interpreter(_DECIDE.format(bundle=BUNDLE,
                                                   workers=1))
        loaded = set(serial["loaded"])
        assert not loaded & set(UNUSED_BY_SERIAL_DECIDE), \
            sorted(loaded & set(UNUSED_BY_SERIAL_DECIDE))
        parallel = _fresh_interpreter(_DECIDE.format(bundle=BUNDLE,
                                                     workers=2))
        assert (parallel["code"], parallel["verdict"]) == \
            (serial["code"], serial["verdict"]) == (1, "RCDP: incomplete")
        assert "repro.parallel.supervise" in parallel["loaded"]

    def test_package_import_loads_no_submodule(self):
        loaded = set(_fresh_interpreter(
            "import json, sys, repro, repro.obs, repro.parallel\n"
            "print(json.dumps({'loaded': sorted(sys.modules)}))")["loaded"])
        assert not {"repro.core", "repro.analysis", "repro.obs.ledger",
                    "repro.parallel.api", "multiprocessing"} & loaded


def _lazy_table(package) -> dict[str, str]:
    """The package's lazy export table, read from its source: exported
    name -> defining module (empty for an eager package)."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items()
                    for name in names}
    return {}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported), "duplicate export"
    owners = _lazy_table(package)
    assert set(owners) <= set(exported)
    directory = Path(package.__file__).parent
    listing = dir(package)
    for attribute in exported:
        value = getattr(package, attribute)
        assert attribute in listing
        if attribute in owners:
            # A submodule of the same name would shadow the lazy export.
            assert not (directory / f"{attribute}.py").exists()
            assert not (directory / attribute).is_dir()
            defining = importlib.import_module(owners[attribute])
            assert getattr(defining, attribute) is value, attribute
        else:
            assert attribute in vars(package)
            if getattr(value, "__name__", None) == attribute:
                defining = sys.modules[value.__module__]
                assert getattr(defining, attribute) is value, attribute


def test_unknown_names_fall_back_to_submodule_import():
    """A name outside the export table raises AttributeError, which is
    what lets ``from package import submodule`` import the submodule."""
    import repro.runtime

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.runtime.nope  # noqa: B018
    from repro.analysis import cost
    assert cost is importlib.import_module("repro.analysis.cost")


def test_star_import_of_the_top_level_package():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert {name for name in namespace if not name.startswith("__")} \
        == set(repro.__all__)
    assert namespace["decide_rcdp"] is importlib.import_module(
        "repro.core.rcdp").decide_rcdp


def test_queries_functions_survive_their_submodule_import():
    """``cq``/``ucq`` name both submodules and functions, which is why
    ``repro.queries`` imports eagerly: a lazy name would be overwritten
    by the module object once the submodule is imported."""
    import repro.queries
    import repro.queries.cq  # noqa: F401
    import repro.queries.ucq  # noqa: F401

    for attribute in ("cq", "ucq"):
        assert callable(getattr(repro.queries, attribute))
        assert getattr(repro.queries, attribute) is getattr(
            sys.modules[f"repro.queries.{attribute}"], attribute)
