"""Block containment checks ≡ candidate-at-a-time checks, per backend.

``StorageBackend.plan_violations`` checks a whole block of candidate
extensions at once (``vid``-tagged delta tables on sqlite, tagged
environments on columnar, a per-candidate loop on python).  Differential
properties pinned here, on every backend:

* the block's verdicts equal one-candidate ``plan_violates`` calls and
  the naive evaluation of the materialized ``D ∪ Δ``, candidate by
  candidate (blocks of one, empty Δs, repeated Δs, Δs over several
  relations, self-joins, empty targets, allowed sets above the sqlite
  ``NOT IN`` cap);
* each candidate's reported index requirements equal what checking it
  alone reports;
* Δ-rows of two candidates never join (self-join isolation);
* UCQ constraints through ``EvaluationContext.extension_violations``
  agree with ``extension_satisfies`` one candidate at a time.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.containment import ContainmentConstraint, Projection
from repro.engine import EvaluationContext
from repro.engine.plan import compile_plan
from repro.queries.atoms import RelAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Const, Var
from repro.relational.backends import BACKEND_NAMES
from repro.relational.backends.sqlite import _ALLOWED_CAP
from repro.relational.instance import Instance, extend_unvalidated
from repro.relational.schema import DatabaseSchema, RelationSchema

from tests.strategies import (conjunctive_queries, extension_facts,
                              instances, union_queries)

_VALUES = (0, 1, 2, 3)


def _allowed_rows(arity: int, kind: str,
                  pick: list[bool]) -> frozenset | None:
    """``None`` (the empty target), a small allowed set, or one padded
    above ``_ALLOWED_CAP`` with rows no query here can produce."""
    if kind == "none":
        return None
    rows = [row for row, keep in zip(product(_VALUES, repeat=arity), pick)
            if keep]
    if kind == "large":
        rows += [(f"pad{i}",) * arity for i in range(_ALLOWED_CAP + 1)]
    return frozenset(rows)


@st.composite
def blocks(draw) -> list[list[tuple[str, tuple]]]:
    """A block of 1–6 candidate Δs, some repeated, some possibly empty
    or entirely inside D."""
    block = draw(st.lists(extension_facts(), min_size=1, max_size=6))
    if len(block) > 1 and draw(st.booleans()):
        block.append(block[draw(st.integers(0, len(block) - 1))])
    return block


def _naive_violates(query, db, facts, allowed) -> bool:
    answers = query.evaluate_naive(extend_unvalidated(db, facts))
    return bool(answers) if allowed is None else not answers <= allowed


def _recorder(needs: dict) -> object:
    def on_build(vid: int, relation: str, positions: tuple) -> None:
        needs.setdefault(vid, set()).add((relation, positions))
    return on_build


@settings(max_examples=80, deadline=None)
@given(query=conjunctive_queries(), db=instances(), block=blocks(),
       kind=st.sampled_from(["none", "small", "large"]),
       pick=st.lists(st.booleans(), min_size=4 ** 2, max_size=4 ** 2))
def test_block_matches_one_at_a_time_and_naive(query, db, block, kind,
                                                pick):
    allowed = _allowed_rows(query.arity, kind, pick)
    expected = {v for v, facts in enumerate(block)
                if _naive_violates(query, db, facts, allowed)}
    plan = compile_plan(query)
    deltas = [EvaluationContext.new_rows(db, facts) for facts in block]
    for backend in BACKEND_NAMES:
        storage = db.storage(backend)
        block_needs: dict = {}
        found = storage.plan_violations(plan, deltas, allowed,
                                        on_build=_recorder(block_needs))
        assert found == expected, backend
        for vid, delta in enumerate(deltas):
            alone: set = set()
            verdict = storage.plan_violates(
                plan, delta, allowed,
                on_build=lambda r, p, alone=alone: alone.add((r, p)))
            assert verdict == (vid in expected), (backend, vid)
            assert block_needs.get(vid, set()) == alone, (backend, vid)


@settings(max_examples=40, deadline=None)
@given(query=union_queries(), db=instances(), block=blocks(),
       empty_target=st.booleans(),
       pick=st.lists(st.booleans(), min_size=4 ** 2, max_size=4 ** 2))
def test_ucq_constraint_block_matches_extension_satisfies(
        query, db, block, empty_target, pick):
    if empty_target:
        projection = Projection.empty()
        master = Instance(DatabaseSchema([RelationSchema("M", ["a"])]))
    else:
        arity = query.arity
        master_schema = DatabaseSchema([RelationSchema(
            "M", [f"c{i}" for i in range(max(arity, 1))])])
        rows = _allowed_rows(arity, "small", pick) or frozenset()
        master = Instance(master_schema, {"M": set(rows) if arity
                                          else {(0,)} if rows else set()})
        projection = Projection.on("M", range(arity))
    constraint = ContainmentConstraint(query, projection, name="u")
    for backend in BACKEND_NAMES:
        context = EvaluationContext(backend=backend)
        candidates = [context.new_rows(db, facts) for facts in block]
        found = context.extension_violations(
            [constraint], db, candidates, master)
        for vid, facts in enumerate(block):
            if not candidates[vid]:
                continue  # nothing new: the caller's cached-Q(D) path
            satisfied = constraint.is_satisfied_extension(
                db, facts, master, context=context)
            naive = constraint.is_satisfied(
                extend_unvalidated(db, facts), master)
            assert satisfied == naive == (vid not in found), (backend, vid)


# ---------------------------------------------------------------------------
# Deterministic edge cases
# ---------------------------------------------------------------------------

x, y, z = Var("x"), Var("y"), Var("z")
R_SCHEMA = DatabaseSchema([RelationSchema("R", ["a", "b"]),
                           RelationSchema("S", ["a"])])


def _check(query, db, deltas, allowed):
    plan = compile_plan(query)
    return {backend: db.storage(backend).plan_violations(
                plan, deltas, allowed)
            for backend in BACKEND_NAMES}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_self_join_rows_never_join_across_candidates(backend):
    """R(x,y), R(y,z) ⊆ ∅: {R(1,2)} and {R(2,3)} are each harmless, but
    together they would join — so only the candidate holding both
    violates."""
    query = ConjunctiveQuery([x], [RelAtom("R", [x, y]),
                                   RelAtom("R", [y, z])])
    db = Instance(R_SCHEMA, {"R": {(5, 6)}})
    deltas = [{"R": [(1, 2)]}, {"R": [(2, 3)]}, {"R": [(1, 2), (2, 3)]},
              {}, {"R": [(6, 7)]}]
    found = db.storage(backend).plan_violations(
        compile_plan(query), deltas, None)
    assert found == {2, 4}


@pytest.mark.parametrize("allowed, expected", [
    (frozenset({(1,)}), set()),
    (frozenset({(2,)}), {0, 2}),
    (None, {0, 2}),
], ids=["covered", "not-covered", "empty-target"])
def test_all_constant_head(allowed, expected):
    query = ConjunctiveQuery([Const(1)], [RelAtom("S", [x])])
    db = Instance(R_SCHEMA, {})
    deltas = [{"S": [(4,)]}, {"R": [(1, 2)]}, {"S": [(5,)], "R": [(0, 0)]}]
    for backend, found in _check(query, db, deltas, allowed).items():
        assert found == expected, backend


def test_base_violation_condemns_every_candidate():
    query = ConjunctiveQuery([x], [RelAtom("S", [x])])
    db = Instance(R_SCHEMA, {"S": {(9,)}})
    deltas = [{}, {"S": [(1,)]}, {"R": [(1, 1)]}]
    for backend, found in _check(query, db, deltas,
                                 frozenset({(1,)})).items():
        assert found == {0, 1, 2}, backend


def test_several_relations_and_repeated_candidates():
    query = ConjunctiveQuery([x, z], [RelAtom("R", [x, y]),
                                      RelAtom("S", [y]),
                                      RelAtom("R", [y, z])])
    db = Instance(R_SCHEMA, {"R": {(0, 1)}, "S": set()})
    allowed = frozenset({(0, 2)})
    deltas = [{"S": [(1,)], "R": [(1, 2)]},   # (0, 2): allowed
              {"S": [(1,)], "R": [(1, 3)]},   # (0, 3): violates
              {"S": [(1,)], "R": [(1, 3)]},   # repeated
              {"S": [(1,)]},                  # no R(1, _) to finish
              {"R": [(1, 3)]}]                # no S(1)
    for backend, found in _check(query, db, deltas, allowed).items():
        assert found == {1, 2}, backend


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_empty_block_is_empty(backend):
    query = ConjunctiveQuery([x], [RelAtom("S", [x])])
    db = Instance(R_SCHEMA, {"S": {(9,)}})
    assert db.storage(backend).plan_violations(
        compile_plan(query), [], None) == set()



def _sqlite_probes(db, plan, deltas) -> tuple[set[int], int]:
    """The block's verdicts and how many delta statements ran."""
    storage = db.storage("sqlite")
    storage.plan_violations(plan, deltas[:1], None)  # prepare the check
    probes: list[str] = []
    storage._connection.set_trace_callback(
        lambda sql: probes.append(sql) if "EXISTS" in sql else None)
    try:
        return storage.plan_violations(plan, deltas, None), len(probes)
    finally:
        storage._connection.set_trace_callback(None)


def test_sqlite_runs_one_statement_per_delta_step():
    """A 6-step self-join over the touched relation costs 6 delta
    statements per block (not one per subset of steps), and a block
    whose candidates all violate stops at the first."""
    chain = [Var(f"v{i}") for i in range(7)]
    plan = compile_plan(ConjunctiveQuery(
        [], [RelAtom("R", [chain[i], chain[i + 1]]) for i in range(6)]))
    db = Instance(R_SCHEMA, {"R": {(5, 6)}})
    harmless = [{"R": [(1, 2)]}, {"R": [(2, 3)]}]
    assert _sqlite_probes(db, plan, harmless) == (set(), 6)
    loops = [{"R": [(i, i)]} for i in range(4)]
    assert _sqlite_probes(db, plan, loops) == ({0, 1, 2, 3}, 1)
