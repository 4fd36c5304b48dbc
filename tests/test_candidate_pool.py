"""The candidate pool: one ``Q(D)`` per problem epoch.

Every problem draws its packages from ``N ⊆ Q(D)``, so
:meth:`~repro.core.model.RecommendationProblem.candidate_pool` evaluates and
sorts ``Q(D)`` once and every solver call on the problem reads that pool.
The pool is keyed on the database and query objects, ``database.version()``
and the returned relation's own version: a pinned problem evaluates once,
and a live one re-evaluates after any commit, direct mutation or field
reassignment.  The reference enumerators evaluate afresh, so every answer
here is compared with a ``Q(D)`` no pool has touched.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    ExistPackOracle,
    best_valid_packages_reference,
    compute_top_k,
    count_valid_packages,
    enumerate_valid_packages_reference,
    is_top_k_selection,
)
from repro.core.enumeration import PackageSearchEngine
from repro.queries.sp import SPQuery
from repro.relational.database import Database, Relation
from repro.serving.trace import serving_problem
from repro.workloads.synthetic import item_selection_query

COUNT_BOUND = 26.0
EXISTS_BOUND = 28.0

#: An item cheap and good enough to enter the top-k of the serving problem.
STAR_ITEM = (10_000, "a", 1, 99)


@pytest.fixture
def evaluations(monkeypatch):
    """Every ``SPQuery.evaluate`` call, as the database it was called on."""
    calls = []
    evaluate = SPQuery.evaluate

    def counting(query, database, *args, **kwargs):
        calls.append(database)
        return evaluate(query, database, *args, **kwargs)

    monkeypatch.setattr(SPQuery, "evaluate", counting)
    return calls


def _answers(problem):
    """FRP, the RPP check of its answer, CPP and EXISTPACK on ``problem``."""
    top = compute_top_k(problem)
    witness = ExistPackOracle(problem)(EXISTS_BOUND)
    return (
        tuple(package.sorted_items() for package in top.selection),
        is_top_k_selection(problem, top.selection).is_top_k,
        count_valid_packages(problem, COUNT_BOUND).count,
        None if witness is None else witness.sorted_items(),
    )


def _reference(problem):
    """The same answers from the reference enumerators (fresh ``Q(D)``)."""
    top = best_valid_packages_reference(problem, problem.k)
    witness = next(enumerate_valid_packages_reference(problem, rating_bound=EXISTS_BOUND), None)
    return (
        tuple(package.sorted_items() for package in top),
        True,
        sum(1 for _ in enumerate_valid_packages_reference(problem, rating_bound=COUNT_BOUND)),
        None if witness is None else witness.sorted_items(),
    )


def test_a_pinned_problem_evaluates_q_of_d_once_for_every_request_kind(evaluations):
    pinned = serving_problem(40, seed=1).pinned()
    answers = _answers(pinned)
    assert len(evaluations) == 1
    pool = pinned.candidate_pool()
    assert answers == _reference(pinned)
    # The three reference calls evaluated afresh; the pool did not move.
    assert len(evaluations) == 4
    assert pinned.candidate_pool() is pool


def _insert_via_delta(problem):
    problem.database.apply_delta([("insert", "items", STAR_ITEM)])


def _insert_directly(problem):
    problem.database.relation("items").add(STAR_ITEM)


def _reassign_query(problem):
    problem.query = item_selection_query(max_price=20)


def _reassign_database(problem):
    # One row swapped for the star item: a database of the same size, so of
    # the same version() tuple, which only its identity tells apart.
    items = problem.database.relation("items")
    rows = sorted(items.rows())[1:] + [STAR_ITEM]
    database = Database([Relation(items.schema, rows)])
    assert database.version() == problem.database.version()
    problem.database = database


@pytest.mark.parametrize(
    "mutate",
    [_insert_via_delta, _insert_directly, _reassign_query, _reassign_database],
    ids=["apply_delta", "relation_add", "query_reassigned", "database_reassigned"],
)
def test_a_live_problem_re_evaluates_after_every_change(evaluations, mutate):
    problem = serving_problem(40, seed=1)
    before = _answers(problem)
    assert len(evaluations) == 1
    pool = problem.candidate_pool()
    mutate(problem)
    after = _answers(problem)
    assert len(evaluations) == 2, "one re-evaluation, shared by the four solver calls"
    assert problem.candidate_pool() is not pool
    assert after != before
    assert after == _reference(problem)


def test_mutating_the_handed_out_relation_re_evaluates(evaluations):
    problem = serving_problem(40, seed=1).pinned()
    handed = problem.candidate_items()
    handed.add(STAR_ITEM)  # not an answer of Q(D): only this relation has it
    assert len(evaluations) == 1
    assert STAR_ITEM not in problem.candidate_items()
    assert len(evaluations) == 2
    assert STAR_ITEM not in PackageSearchEngine(problem).items
    assert not problem.is_valid_package(problem.package_from_items([STAR_ITEM]))
    assert _answers(problem) == _reference(problem)


def test_the_pool_is_carried_by_the_transforms_that_keep_q_and_d(evaluations):
    problem = serving_problem(40, seed=1).pinned()
    pool = problem.candidate_pool()
    derived = [problem.with_k(3), problem.with_budget(30.0), problem.with_constant_bound(1)]
    for other in derived:
        assert other.candidate_pool() is pool
    assert len(evaluations) == 1
    for other in derived:
        assert compute_top_k(other).selection is not None
    assert len(evaluations) == 1
    for other in derived:
        reference = best_valid_packages_reference(other, other.k)
        assert tuple(compute_top_k(other).selection) == reference


def test_the_pool_starts_empty_where_q_or_d_changes(evaluations):
    problem = serving_problem(40, seed=1).pinned()
    pool = problem.candidate_pool()
    relaxed = problem.with_query(item_selection_query(max_price=35))
    moved = problem.with_database(problem.database)
    repinned = problem.pinned()
    for other in (relaxed, moved, repinned):
        assert other._candidate_pool is None
        assert other.candidate_pool() is not pool
    assert len(evaluations) == 4
    assert len(relaxed.candidate_items()) > len(pool.answers)
    assert moved.candidate_pool().items == pool.items


def test_an_explicit_relation_is_sorted_for_its_engine_alone(evaluations):
    problem = serving_problem(40, seed=1).pinned()
    pool = problem.candidate_pool()
    fresh = problem.query.evaluate(problem.database)
    engine = PackageSearchEngine(problem, candidate_items=fresh)
    assert engine.answers is fresh and engine.items == pool.items and engine.keys == pool.keys
    assert problem.candidate_pool() is pool
    # The pool's own relation, unchanged, is the pool.
    assert PackageSearchEngine(problem, candidate_items=pool.answers).items is pool.items
    assert len(evaluations) == 2


def test_readers_on_eight_threads_share_one_pinned_problem():
    pinned = serving_problem(40, seed=1).pinned()
    expected = _reference(pinned)
    threads = 8
    barrier = threading.Barrier(threads)
    results, errors = [None] * threads, []

    def reader(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = [_answers(pinned) for _ in range(3)]
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    workers = [threading.Thread(target=reader, args=(slot,)) for slot in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not errors
    assert all(result == [expected] * 3 for result in results)
