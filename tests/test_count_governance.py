"""Counting under governance: the block-at-a-time extension count.

``count_completing_extensions`` enumerates a block of valuations, checks
the block's candidate extensions together and folds the verdicts back in
enumeration order.  The fold must charge the governor exactly where the
candidate-at-a-time loop did, so for every budget and every
``max_extensions`` the report — count, exhaustiveness, interruption,
search statistics — and the governor's per-kind ticks must equal the
goldens in ``tests/data/count_governance.jsonl`` (one JSON row per
case, backend and limit), which were recorded by that
candidate-at-a-time loop.  Re-record them (only when the semantics are
meant to change) with::

    PYTHONPATH=src python tests/test_count_governance.py --write \\
        tests/data/count_governance.jsonl
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from repro.engine import EvaluationContext
from repro.incomplete import count_completing_extensions
from repro.io.json_io import load_bundle
from repro.mdm.scenario import CRMScenario, CustomerRecord
from repro.runtime import Budget, ExecutionGovernor

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "data" / "count_governance.jsonl"
BACKENDS = ("python", "columnar", "sqlite")
#: The block size of the count scan, for budgets straddling blocks.
BLOCK = 256
#: Statistics not pinned: physical counters of how a check runs, which
#: the block check changed — the per-candidate answer and projection
#: cache lookups are hoisted out of it, and the python storage compiles
#: its delta plans itself rather than through the context.
UNPINNED = ("engine_cache_hits", "plans_compiled")


def _crm(scenario: CRMScenario, database: Any) -> tuple:
    return (scenario.q0_customers_with_area_code(), database,
            scenario.master(), scenario.default_constraints())


def _bundle(name: str) -> Callable[[], tuple]:
    def build() -> tuple:
        bundle = load_bundle(ROOT / "examples" / "bundles" / f"{name}.json")
        return (bundle["query"], bundle["database"], bundle["master"],
                bundle["constraints"])
    return build


def _example() -> tuple:
    scenario = CRMScenario.example()
    return _crm(scenario, scenario.database(missing_customers=["c1"]))


def _one_customer() -> tuple:
    """Q0 over one domestic customer: 1,296 valuations, five blocks."""
    scenario = CRMScenario(
        domestic=[CustomerRecord("c1", "ann", "908", "555-0001")],
        international=[], support=set(), manage_master=set(),
        manage=set())
    return _crm(scenario, scenario.database())


def _around_blocks(total: int) -> set[int]:
    """Budgets at and next to every block boundary below *total*."""
    return {b for start in range(BLOCK, total, BLOCK)
            for b in range(start - 2, start + 3)}


#: case -> (problem builder, budgets).  The exhaustive tick total of
#: CRMScenario.example() is 279,842, too many full scans for a test, so
#: it gets the first ticks and the first block boundaries only; every
#: other case sweeps its budgets from 0 past its exhaustive total, every
#: budget or (one_customer) every budget near a block boundary.
CASES: dict[str, tuple[Callable[[], tuple], list[int]]] = {
    "crm_example": (_example, sorted(set(range(41))
                                     | _around_blocks(3 * BLOCK + 1))),
    "one_customer": (_one_customer, sorted(
        set(range(41)) | _around_blocks(1297) | set(range(0, 1297, 97))
        | set(range(1294, 1300)))),
    "gen_crm_golden": (_bundle("gen_crm_golden"), list(range(219))),
    "gen_erp_golden": (_bundle("gen_erp_golden"), list(range(42))),
    "gen_scm_golden": (_bundle("gen_scm_golden"), list(range(25))),
    "gen_hierarchy_golden": (_bundle("gen_hierarchy_golden"),
                             list(range(5))),
}


def outcome(args: tuple, backend: str, **kwargs: Any) -> list:
    """One governed count, as a JSON-comparable row."""
    governor = ExecutionGovernor(budget=Budget(limit=kwargs.pop(
        "budget", None)))
    report = count_completing_extensions(
        *args, backend=backend, governor=governor, **kwargs)
    stats = {name: value for name, value
             in dataclasses.asdict(report.statistics).items()
             if name not in UNPINNED}
    return [report.count, report.exhaustive, report.interrupted, stats,
            governor.budget.snapshot()]


def observe(case: str, backend: str) -> Iterator[tuple[str, list]]:
    build, budgets = CASES[case]
    args = build()
    for budget in budgets:
        yield f"budget={budget}", outcome(args, backend, budget=budget)
    for cap in (1, 2, 3):
        yield f"max_extensions={cap}", outcome(args, backend,
                                               max_extensions=cap)


def record() -> str:
    return "".join(json.dumps([case, backend, key, row]) + "\n"
                   for case in CASES for backend in BACKENDS
                   for key, row in observe(case, backend))


@pytest.fixture(scope="module")
def goldens() -> dict:
    table: dict = {}
    for line in GOLDENS.read_text().splitlines():
        case, backend, key, row = json.loads(line)
        table.setdefault(case, {}).setdefault(backend, {})[key] = row
    return table


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_candidate_at_a_time_goldens(goldens, case, backend):
    expected = goldens[case][backend]
    observed = dict(observe(case, backend))
    assert observed.keys() == expected.keys()
    for key, row in observed.items():
        assert row == expected[key], (case, backend, key)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [0, 1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1])
def test_context_reused_after_interrupt_counts_like_a_cold_one(backend,
                                                               budget):
    """An interrupted scan leaves nothing built but uncharged: rerunning
    on the same context charges what the interrupted run did not, so
    the two runs together charge what one cold run does."""
    args = _one_customer()
    shared = EvaluationContext(backend=backend)
    first = count_completing_extensions(*args, context=shared,
                                        budget=budget)
    assert first.interrupted == "budget"
    again = count_completing_extensions(
        *args, context=shared, governor=ExecutionGovernor(budget=Budget()))
    cold = count_completing_extensions(
        *args, context=EvaluationContext(backend=backend),
        governor=ExecutionGovernor(budget=Budget()))
    assert (again.count, again.exhaustive) == (cold.count, True)
    assert again.statistics.valuations_examined \
        == cold.statistics.valuations_examined
    assert again.statistics.constraint_checks \
        == cold.statistics.constraint_checks
    assert (first.statistics.index_builds + again.statistics.index_builds
            == cold.statistics.index_builds)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_count_governance.py --write PATH")
    Path(sys.argv[2]).write_text(record())
