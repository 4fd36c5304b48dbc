"""The ambient :class:`~repro.resilience.deadline.Deadline` is the one search budget.

Every evaluator entry point and every lattice traversal charges the
deadline installed by :func:`~repro.resilience.deadline.deadline_scope`:
``Deadline(max_steps=N)`` bounds each of them, a wall-clock expiry or a
cancellation interrupts each of them mid-run, and with no deadline ambient
nothing is charged.  The first-order evaluator's ∀ loops and the SP scan
join no relation through the executor, so they charge the deadline
themselves; their own tests come first.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace

import pytest

from repro.core import count_valid_packages
from repro.core.compatibility import PredicateConstraint, QueryConstraint
from repro.core.enumeration import (
    _DEADLINE_STRIDE,
    PackageSearchEngine,
    best_valid_packages,
    best_valid_packages_reference,
    enumerate_candidate_packages,
    enumerate_valid_packages,
    enumerate_valid_packages_reference,
    exists_valid_package,
    find_k_witnesses,
)
from repro.core.functions import AttributeSumCost, AttributeSumRating
from repro.core.model import ConstantBound, RecommendationProblem
from repro.core.packages import Package
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.queries import (
    ConjunctiveQuery,
    FirstOrderQuery,
    PositiveExistentialQuery,
    UnionOfConjunctiveQueries,
    answer_size,
)
from repro.queries.ast import And, Exists, ForAll, Not, Or, RelationAtom, Var
from repro.queries.bindings import enumerate_bindings, enumerate_bindings_naive, project_bindings
from repro.queries.datalog import DatalogProgram, DatalogRule, NonRecursiveDatalogProgram
from repro.queries.sp import SPQuery
from repro.relational.database import Database
from repro.relational.errors import StepLimitExceeded
from repro.relaxation.relax import Relaxation, RelaxedQuery
from repro.resilience import (
    CancellationToken,
    Deadline,
    RequestCancelled,
    RequestTimeout,
    deadline_scope,
)
from repro.serving import ResilienceConfig, ServeRequest, SnapshotServer, serving_problem

from scenarios import probe_path

X, Y, Z, W, P = Var("x"), Var("y"), Var("z"), Var("w"), Var("p")


def _edge(a, b) -> RelationAtom:
    return RelationAtom("edge", [a, b])


def _graph_database(nodes: int, edges: int, items: int = 0, seed: int = 1) -> Database:
    """``edges`` random edges over ``nodes`` nodes, plus ``items(iid, price)``."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        pairs.add((rng.randrange(nodes), rng.randrange(nodes)))
    database = Database()
    database.create_relation("edge", ["src", "dst"], sorted(pairs))
    if items:
        database.create_relation(
            "items", ["iid", "price"], [(i, rng.randrange(1, 10)) for i in range(items)]
        )
    return database


def _closed_at(node: Var):
    """``∀y ∀z (edge(node, y) ∧ edge(y, z) → edge(node, z))``: no ∃, no join."""
    return ForAll((Y, Z), Or(Not(_edge(node, Y)), Not(_edge(Y, Z)), _edge(node, Z)))


#: An FO ``Q`` with ∀ over two variables: ≈100 ms on a 40-edge graph.
TRANSITIVE_AT = FirstOrderQuery([X], _closed_at(X), name="transitive_at")

#: An FO ``Qc``: a package is incompatible when one of its items has an
#: open two-step path.  A probe evaluates the ∀ under every ``RQ`` row.
OPEN_AT = QueryConstraint(
    FirstOrderQuery([X, P], And(RelationAtom("RQ", [X, P]), Not(_closed_at(X))))
)


def _fo_qc_problem(items: int) -> RecommendationProblem:
    """A size-2 lattice over ``items`` items under :data:`OPEN_AT`, which
    the witness path declines (an FO ``Qc``), so every verdict is a probe."""
    return RecommendationProblem(
        database=_graph_database(items, 40, items=items),
        query=SPQuery("items", [Var("iid"), Var("price")], [Var("iid"), Var("price")]),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("price"),
        budget=100.0,
        k=1,
        compatibility=OPEN_AT,
        size_bound=ConstantBound(2),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
    )


def _fo_query():
    database = _graph_database(40, 40)
    return lambda: TRANSITIVE_AT.evaluate(database)


def _fo_qc_probe():
    database = _graph_database(40, 40, items=40)
    items = database.relation("items")
    package = Package(items.schema, items.rows())
    return lambda: OPEN_AT.is_satisfied(package, database)


#: Two first-order runs that take ≈110 ms (the query) and ≈160 ms (the
#: probe) unbounded on a 2-core host: over 10x the 10 ms timers below.
FO_RUNS = {"fo_query": _fo_query, "fo_qc_probe": _fo_qc_probe}


# ---------------------------------------------------------------------------
# The first-order evaluator and the SP scan charge the ambient deadline
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("run", sorted(FO_RUNS))
def test_a_step_budget_stops_a_first_order_run(run):
    evaluate = FO_RUNS[run]()
    with deadline_scope(Deadline(max_steps=100)) as budget:
        with pytest.raises(StepLimitExceeded):
            evaluate()
    assert budget.steps == 101


@pytest.mark.parametrize("run", sorted(FO_RUNS))
def test_an_expired_deadline_stops_a_first_order_run(run):
    evaluate = FO_RUNS[run]()
    with deadline_scope(Deadline.after(-1.0)), pytest.raises(RequestTimeout):
        evaluate()  # expired at entry: fails fast
    with deadline_scope(Deadline.after(0.01)), pytest.raises(RequestTimeout):
        evaluate()  # expires mid-run


@pytest.mark.parametrize("run", sorted(FO_RUNS))
def test_a_cancellation_stops_a_first_order_run(run):
    evaluate = FO_RUNS[run]()
    token = CancellationToken()
    token.cancel()
    with deadline_scope(Deadline(token=token)), pytest.raises(RequestCancelled):
        evaluate()  # cancelled at entry: fails fast
    token = CancellationToken()
    timer = threading.Timer(0.01, token.cancel)  # cancelled mid-run
    timer.start()
    try:
        with deadline_scope(Deadline(token=token)), pytest.raises(RequestCancelled):
            evaluate()
    finally:
        timer.cancel()


def test_an_sp_scan_charges_one_step_per_scanned_row():
    database = _graph_database(10, 25)
    query = SPQuery("edge", [X, Y], [X], [], name="sources")
    with deadline_scope(Deadline()) as budget:
        answer = query.evaluate(database)
    assert budget.steps == 25 and 0 < len(answer) < 25
    with deadline_scope(Deadline(max_steps=24)), pytest.raises(StepLimitExceeded):
        query.evaluate(database)


def test_a_served_fo_qc_poison_count_times_out():
    """Every verdict is a multi-millisecond FO probe: the count would take
    seconds, and a 20 ms request deadline stops it inside its first probes,
    not only at the walk's 64-node stride."""
    server = SnapshotServer(
        _fo_qc_problem(40), resilience=ResilienceConfig(deadline_s=0.02)
    )
    result = server.serve_one(ServeRequest.count(-1.0))
    assert not result.ok and result.error.code == "timeout"
    assert result.latency_s < 0.2


def test_a_served_fo_qc_request_spends_its_step_budget():
    server = SnapshotServer(_fo_qc_problem(40), resilience=ResilienceConfig(max_steps=1000))
    result = server.serve_one(ServeRequest.count(-1.0))
    assert not result.ok and result.error.code == "step_limit"


# ---------------------------------------------------------------------------
# Deadline(max_steps=N) bounds every evaluator entry point
# ---------------------------------------------------------------------------
def _evaluator_database() -> Database:
    database = _graph_database(8, 14)
    database.create_relation("label", ["node", "tag"], [(n, n % 3) for n in range(8)])
    return database


_PATH = [_edge(X, Y), _edge(Y, Z)]
_PATH_CQ = ConjunctiveQuery([X, Z], _PATH, name="path")
_REACH = [
    DatalogRule(RelationAtom("reach", [X, Y]), [_edge(X, Y)]),
    DatalogRule(RelationAtom("reach", [X, Z]), [RelationAtom("reach", [X, Y]), _edge(Y, Z)]),
]
_TWO_HOP = [
    DatalogRule(RelationAtom("hop", [X, Z]), _PATH),
    DatalogRule(
        RelationAtom("tagged", [X, W]),
        [RelationAtom("hop", [X, Z]), RelationAtom("label", [Z, W])],
    ),
]

EVALUATOR_ENTRY_POINTS = {
    "sp": lambda db: SPQuery("edge", [X, Y], [Y]).evaluate(db),
    "cq": lambda db: _PATH_CQ.evaluate(db),
    "cq_is_satisfiable_on": lambda db: ConjunctiveQuery(
        [], [_edge(X, Y), _edge(Y, X)]
    ).is_satisfiable_on(db),
    "ucq": lambda db: UnionOfConjunctiveQueries(
        [_PATH_CQ, ConjunctiveQuery([X, Y], [_edge(X, Y)])]
    ).evaluate(db),
    "efo": lambda db: PositiveExistentialQuery(
        [X], Exists((Y,), Or(_edge(X, Y), _edge(Y, X)))
    ).evaluate(db),
    "fo": lambda db: FirstOrderQuery([X], _closed_at(X)).evaluate(db),
    "fo_contains": lambda db: FirstOrderQuery([X], _closed_at(X)).contains(db, (3,)),
    "fo_is_boolean_true": lambda db: FirstOrderQuery(
        [], ForAll((X,), _closed_at(X))
    ).is_boolean_true(db),
    "datalog": lambda db: DatalogProgram(_REACH, output="reach").evaluate(db),
    "nonrecursive_datalog": lambda db: NonRecursiveDatalogProgram(
        _TWO_HOP, output="tagged"
    ).evaluate(db),
    "relaxed": lambda db: RelaxedQuery(_PATH_CQ, Relaxation({})).evaluate(db),
    "answer_size": lambda db: answer_size(_PATH_CQ, db),
    "enumerate_bindings": lambda db: list(enumerate_bindings(db, _PATH)),
    "project_bindings": lambda db: list(project_bindings(db, _PATH, (), (X, Z))),
    "enumerate_bindings_naive": lambda db: list(enumerate_bindings_naive(db, _PATH)),
}


@pytest.mark.parametrize("entry", sorted(EVALUATOR_ENTRY_POINTS))
def test_a_step_budget_bounds_every_evaluator_entry_point(entry):
    """With ``s`` the steps an unbounded run charges, a budget of ``s``
    never fires and one of ``s - 1`` does: the evaluators tick exactly."""
    evaluate = EVALUATOR_ENTRY_POINTS[entry]
    database = _evaluator_database()
    unguarded = evaluate(database)
    with deadline_scope(Deadline()) as budget:
        assert evaluate(database) == unguarded
    steps = budget.steps
    assert steps > 0
    with deadline_scope(Deadline(max_steps=steps)):
        assert evaluate(database) == unguarded
    with deadline_scope(Deadline(max_steps=steps - 1)), pytest.raises(StepLimitExceeded):
        evaluate(database)
    with deadline_scope(Deadline.after(-1.0)), pytest.raises(RequestTimeout):
        evaluate(database)


# ---------------------------------------------------------------------------
# Deadline(max_steps=N) bounds every lattice traversal
# ---------------------------------------------------------------------------
def _q_of_d(problem: RecommendationProblem):
    return problem.candidate_pool().answers


#: ``(traversal, runs to its end, items)`` on ``serving_problem(items,
#: seed=2)``: 40 items make a 190-node lattice.  A traversal that stops early
#: (``stop_at`` reached after 125 nodes) closes its walk, which charges the
#: nodes past its last 64-node stride without re-checking, so it may
#: overshoot its budget by less than one stride.  The witness searches cut
#: every subtree their rating bound rules out, which leaves a walk of 30
#: nodes or fewer on 40 items; on 80 items (a 990-node lattice) a bound of
#: 35 finds its witnesses after 77 and 78 nodes.
LATTICE_TRAVERSALS = {
    "engine.iter_valid": (
        lambda p: list(PackageSearchEngine(p).iter_valid(rating_bound=20.0)), True, 40
    ),
    "engine.count_valid": (
        lambda p: PackageSearchEngine(p).count_valid(rating_bound=20.0), True, 40
    ),
    "engine.best_valid": (lambda p: PackageSearchEngine(p).best_valid(p.k), True, 40),
    "engine.valid_ratings": (lambda p: PackageSearchEngine(p).valid_ratings(), True, 40),
    "engine.count_valid_stop_at": (
        lambda p: PackageSearchEngine(p).count_valid(stop_at=80), False, 40
    ),
    "engine.first_valid": (
        lambda p: PackageSearchEngine(p).first_valid(rating_bound=35.0), False, 80
    ),
    "enumerate_candidate_packages": (lambda p: list(enumerate_candidate_packages(p)), True, 40),
    "enumerate_valid_packages": (lambda p: list(enumerate_valid_packages(p)), True, 40),
    "best_valid_packages": (lambda p: best_valid_packages(p, p.k), True, 40),
    "count_valid_packages": (lambda p: count_valid_packages(p, rating_bound=20.0), True, 40),
    "exists_valid_package": (lambda p: exists_valid_package(p, rating_bound=35.0), False, 80),
    "find_k_witnesses": (lambda p: find_k_witnesses(p, rating_bound=35.0), False, 80),
    # The reference DFS evaluates ``Q(D)`` afresh unless handed it.
    "enumerate_valid_packages_reference": (
        lambda p: list(enumerate_valid_packages_reference(p, candidate_items=_q_of_d(p))),
        True,
        40,
    ),
    "best_valid_packages_reference": (
        lambda p: best_valid_packages_reference(p, p.k, candidate_items=_q_of_d(p)), True, 40
    ),
}


@pytest.mark.parametrize("path", ["witness", "probe"])
@pytest.mark.parametrize("traversal", sorted(LATTICE_TRAVERSALS))
def test_a_step_budget_bounds_every_lattice_traversal(traversal, path):
    """Each run is on a fresh problem, so no run reuses another's verdicts;
    its ``Q(D)`` is evaluated before the budget.  A budget of the unbounded
    run's ``s`` steps never fires, and one of ``s - 1`` (``s - 64`` for a
    traversal that stops early) does."""
    search, runs_to_end, items = LATTICE_TRAVERSALS[traversal]

    def run(deadline):
        problem = serving_problem(items, seed=2)
        if path == "probe":
            problem = probe_path(problem)
        problem.candidate_pool()
        with deadline_scope(deadline):
            return search(problem)

    unbounded = Deadline()
    answer = run(unbounded)
    steps = unbounded.steps
    assert steps > (0 if runs_to_end else _DEADLINE_STRIDE)
    assert run(Deadline(max_steps=steps)) == answer
    with pytest.raises(StepLimitExceeded):
        run(Deadline(max_steps=steps - (1 if runs_to_end else _DEADLINE_STRIDE)))
    with pytest.raises(RequestTimeout):
        run(Deadline.after(-1.0))


@pytest.mark.parametrize("traversal", sorted(LATTICE_TRAVERSALS))
def test_a_lattice_traversal_charges_one_step_per_node(traversal):
    """With ``Q(D)`` evaluated before the budget and a ``Qc`` that evaluates
    no query, a traversal's own ticks are all it charges: one step per
    lattice node it visits.  The engine's walks count their nodes; the
    candidate enumeration and the reference DFS visit the whole lattice,
    since that ``Qc`` and the budget prune nothing."""
    search, _, items = LATTICE_TRAVERSALS[traversal]
    problem = replace(
        serving_problem(items, seed=2),
        compatibility=PredicateConstraint(lambda package, database: True, relations=()),
    )
    lattice = len(list(enumerate_candidate_packages(problem)))  # builds Q(D) too
    registry = MetricsRegistry()
    with use_metrics(registry), deadline_scope(Deadline()) as budget:
        search(problem)
    walked = registry.counter("engine.nodes.examined")  # 0 off the engine
    assert budget.steps == (walked if walked else lattice) > 0


def test_no_deadline_charges_nothing_and_changes_nothing():
    problem = serving_problem(24, seed=2)
    direct = count_valid_packages(problem, rating_bound=20.0)
    with deadline_scope(Deadline()) as budget:
        guarded = count_valid_packages(serving_problem(24, seed=2), rating_bound=20.0)
    assert direct == guarded and budget.steps > 0
