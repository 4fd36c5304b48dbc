"""One compiled plan per conjunction and statistics bucket, across epochs.

A plan is valid for any database (statistics only steer cost), so the plan
cache keys on the conjunction, the pre-bound names and the quantized
statistics, and on nothing that names a database or an epoch: the live
database and every snapshot of it resolve the same plan while their
statistics stay in one bucket, and the plan compiles its slot program once.
The cache is an LRU bounded by ``_PLAN_CACHE_LIMIT``, so a long-running
server that commits forever holds a bounded number of plans.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.queries import plan as plan_module
from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Var
from repro.queries.bindings import enumerate_bindings, enumerate_bindings_naive, resolve_plan
from repro.queries.plan import cached_plan, clear_plan_cache, plan_cache_info
from repro.relational.database import Database
from repro.serving import ServeRequest, SnapshotServer, serving_problem

A, B, C = Var("a"), Var("b"), Var("c")
ATOMS = (RelationAtom("r", [A, B]), RelationAtom("s", [B, C]))
COMPARISONS = (Comparison(ComparisonOp.LT, C, Const(30)),)


def _database() -> Database:
    database = Database()
    database.create_relation("r", ["a", "b"], [(i, i % 5) for i in range(40)])
    database.create_relation("s", ["b", "c"], [(i % 5, i) for i in range(40)])
    return database


def _answers(database, evaluator=enumerate_bindings) -> Counter:
    return Counter(
        tuple(sorted(binding.items())) for binding in evaluator(database, ATOMS, COMPARISONS)
    )


@pytest.fixture
def compilations(monkeypatch):
    """Counts the slot programs compiled while the test runs."""
    compiled = []

    class Counting(plan_module.SlotProgram):
        def __init__(self, plan, pre_bound):
            compiled.append(pre_bound)
            super().__init__(plan, pre_bound)

    monkeypatch.setattr(plan_module, "SlotProgram", Counting)
    return compiled


def test_snapshots_at_every_epoch_share_the_live_databases_plan(compilations):
    clear_plan_cache()
    database = _database()
    live = _answers(database)
    assert plan_cache_info() == {"hits": 0, "misses": 1, "size": 1}
    snapshots = [database.snapshot()]
    # Single-row commits keep both relations inside their statistics bucket.
    for step in range(6):
        database.apply_delta([("insert", "r", (100 + step, step % 5))])
        snapshots.append(database.snapshot())
    answers = [_answers(snapshot) for snapshot in snapshots]
    assert len({snapshot.epoch for snapshot in snapshots}) == len(snapshots)
    assert plan_cache_info() == {"hits": len(snapshots), "misses": 1, "size": 1}
    plan = resolve_plan(database, ATOMS, COMPARISONS, frozenset())
    for snapshot in snapshots:
        assert resolve_plan(snapshot, ATOMS, COMPARISONS, frozenset()) is plan
    assert compilations == [()]
    # Every epoch answers as the reference does at that epoch.
    assert answers[0] == live
    for snapshot, served in zip(snapshots, answers):
        assert served == _answers(snapshot, enumerate_bindings_naive)
    assert answers[-1] != answers[0]


def test_a_statistics_bucket_crossing_compiles_a_second_plan():
    clear_plan_cache()
    database = _database()
    _answers(database)
    pinned = database.snapshot()
    database.apply_delta([("insert", "r", (100 + i, i % 5)) for i in range(40)])
    _answers(database)
    assert plan_cache_info()["misses"] == 2
    # The pinned epoch's bucket still resolves the first plan.
    _answers(pinned)
    assert plan_cache_info() == {"hits": 1, "misses": 2, "size": 2}


def _replay_commits(epochs: int) -> int:
    """Serve a batch at each of ``epochs`` epochs; the plan cache's size after.

    The writer alternately inserts and deletes one item, so every commit is
    effective (a fresh epoch) and the statistics stay in one bucket.
    """
    clear_plan_cache()
    problem = serving_problem(30, seed=3)
    server = SnapshotServer(problem)
    extra = (10_000, "d", 9, 18)
    requests = [ServeRequest.top_k(), ServeRequest.exists(28.0), ServeRequest.count(26.0)]
    for epoch in range(epochs):
        if epoch:
            server.apply([("insert" if epoch % 2 else "delete", "items", extra)])
        server.serve_batch(requests)
    return plan_cache_info()["size"]


def test_a_serving_replay_holds_as_many_plans_at_twelve_epochs_as_at_two():
    assert _replay_commits(12) == _replay_commits(2)


def test_the_cache_never_exceeds_its_limit():
    clear_plan_cache()
    limit = plan_module._PLAN_CACHE_LIMIT
    atom = (RelationAtom("r", [A, B]),)
    for value in range(limit + 8):
        cached_plan(atom, (Comparison(ComparisonOp.EQ, B, Const(value)),), frozenset())
        assert plan_cache_info()["size"] <= limit
    assert plan_cache_info() == {"hits": 0, "misses": limit + 8, "size": limit}
    # The least recently used entries went first.
    cached_plan(atom, (Comparison(ComparisonOp.EQ, B, Const(limit + 7)),), frozenset())
    cached_plan(atom, (Comparison(ComparisonOp.EQ, B, Const(0)),), frozenset())
    assert plan_cache_info()["hits"] == 1 and plan_cache_info()["misses"] == limit + 9
